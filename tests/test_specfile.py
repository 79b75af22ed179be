import math
from pathlib import Path

import pytest

import sikorski
from sikorski.expr import MAX_DEPTH
from sikorski.space import embed
from sikorski.specfile import SpecError, load_spec

SPEC_DIR = Path(sikorski.__file__).parent / "specs"

MINIMAL = """\
[space]
params = t
domain = [0, 1]
chart = x : t
samples = 11

[generators]
f = x
"""


def write_spec(tmp_path, text, name="t.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_all_bundled_specs_load():
    stems = {
        "real_line_atan": "real_line",
        "parabola_refinement": "half_line",
        "spiral": "spiral",
        "rationals_sqrt2": "rational_grid",
        "unit_interval_compact": "unit_interval",
    }
    for stem, declared in stems.items():
        spec = load_spec(str(SPEC_DIR / f"{stem}.spec"))
        assert spec.name == declared
        assert spec.space.family.names
        assert spec.experiments


def test_real_line_spec_contents():
    spec = load_spec(str(SPEC_DIR / "real_line_atan.spec"))
    assert spec.space.carrier.params == ("t",)
    assert spec.space.family.names == ("f", "g")
    assert spec.space.carrier.box[0].lo_open and spec.space.carrier.box[0].hi_open
    plus = next(p for p in spec.probes if p.name == "pplus")
    assert (plus.start, plus.stop) == (1, 1050)
    assert "squash" in spec.maps
    target = spec.maps["squash"].target
    assert target.name == "unit_interval"
    assert set(spec.maps["squash"].witness.witnesses) == set(target.space.family.names)


def test_bounded_section_is_accepted():
    spec = load_spec(str(SPEC_DIR / "unit_interval_compact.spec"))
    assert spec.space.family.names == ("g",)


def test_spiral_spec_geometry():
    spec = load_spec(str(SPEC_DIR / "spiral.spec"))
    box = spec.space.carrier.box[0]
    assert box.lo_open and box.hi_open
    assert box.hi == pytest.approx(math.pi / 2)
    assert spec.space.carrier.inset == 0.01
    assert len(spec.probes) == 5


def test_minimal_spec_loads(tmp_path):
    spec = load_spec(write_spec(tmp_path, MINIMAL))
    assert spec.name == "t"
    assert spec.probes == ()
    assert spec.maps == {}
    assert spec.experiments == ()
    assert spec.space.carrier.counts == (11,)


def test_spec_error_carries_location(tmp_path):
    path = write_spec(tmp_path, "[generators]\nf = x\n")
    with pytest.raises(SpecError) as err:
        load_spec(path)
    assert err.value.path == path
    assert err.value.line == 1
    assert str(err.value) == f"{path}:1: spec has no [space] section"


def test_missing_generators_section(tmp_path):
    text = "[space]\nparams = t\ndomain = [0, 1]\nchart = x : t\nsamples = 5\n"
    with pytest.raises(SpecError, match="no \\[generators\\]"):
        load_spec(write_spec(tmp_path, text))


def test_missing_space_key(tmp_path):
    text = "[space]\nparams = t\nchart = x : t\nsamples = 5\n\n[generators]\nf = x\n"
    with pytest.raises(SpecError, match="missing 'domain'"):
        load_spec(write_spec(tmp_path, text))


def test_expression_errors_name_the_column(tmp_path):
    text = MINIMAL.replace("f = x", "f = x + * 2")
    with pytest.raises(SpecError, match="column"):
        load_spec(write_spec(tmp_path, text))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("domain = [0, 1]", "domain = [0, 1e999]",
         "3: domain endpoint: number 1e999 is not finite (offset 0), column 14"),
        ("domain = [0, 1]", "domain = [0, 2 +]", "3: domain endpoint: unexpected end of input (offset 3), column 17"),
        ("domain = [0, 1]", "domain = [0, 1] x [0, 2 +]",
         "3: domain endpoint: unexpected end of input (offset 3), column 26"),
        ("domain = [0, 1]", "domain = ( * 1, 2)", "3: domain endpoint: expected a value, got '*' (offset 0), column 12"),
        # a bracket or a comma ends an endpoint inside an open call, and the endpoint is what fails
        ("domain = [0, 1]", "domain = [0, sqrt(]",
         "3: domain endpoint: unexpected end of input (offset 5), column 19"),
        ("domain = [0, 1]", "domain = [sqrt(0, 1]", "3: domain endpoint: expected ')' (offset 6), column 17"),
        ("domain = [0, 1]", "domain = [0, 1e308*10]", "3: domain endpoint: non-finite value from 1e+308 * 10.0"),
        ("samples = 11", "samples = 11\ninset = 1e999", "6: inset: number 1e999 is not finite (offset 0), column 9"),
        ("f = x", "f = x\n\n[bounded]\nf = x", "11: bound for f: unknown variable 'x' (offset 0), column 5"),
    ],
)
def test_constants_are_finite_expressions(tmp_path, old, new, message):
    path = write_spec(tmp_path, MINIMAL.replace(old, new))
    with pytest.raises(SpecError) as info:
        load_spec(path)
    assert str(info.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("f = x", "f = x + 1e999", "8: generator f: number 1e999 is not finite (offset 4), column 9"),
        ("chart = x : t", "chart = x : t, y : 1e999 * t",
         "4: chart component y: number 1e999 is not finite (offset 0), column 20"),
        ("f = x", "f = x\n\n[probes]\np = 1/n + 1e999 @ 1 .. 10",
         "11: probe p: number 1e999 is not finite (offset 6), column 11"),
        ("f = x", "f = x\n\n[map m]\ntarget = target.spec\ncomponent x = x\nwitness f = u1 + 1e999 : f",
         "13: witness for f: number 1e999 is not finite (offset 5), column 18"),
    ],
)
def test_expression_numbers_are_finite(tmp_path, old, new, message):
    """A number that overflows is a spec error at its line and column,
    not a non-finite value at sweep time."""
    write_spec(tmp_path, MINIMAL, name="target.spec")
    path = write_spec(tmp_path, MINIMAL.replace(old, new))
    with pytest.raises(SpecError) as info:
        load_spec(path)
    assert str(info.value) == f"{path}:{message}"


MAP = "f = x\n\n[map m]\ntarget = target.spec\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("samples = 11", "samples = 11\nsize = 3", "6: unknown [space] key 'size'"),
        ("samples = 11", "samples = 11\nparams = s", "6: duplicate [space] key 'params'"),
        ("f = x", "f = x\n2f = x", "9: generator name '2f' is not an identifier"),
        ("f = x", "f = x\nf = x^2", "9: duplicate generator name 'f'"),
        ("f = x", "f = x\n\n[probes]\np = 1/n\np = 2/n", "12: duplicate probe name 'p'"),
        ("f = x", "f = x\n\n[experiments]\na = embed\na = embed", "12: duplicate experiment label 'a'"),
        ("f = x", "f = x\n\n[bounded]\ng = 1", "11: bound for unknown generator 'g'"),
        ("f = x", MAP + "target = target.spec", "12: duplicate map line 'target'"),
        ("f = x", MAP + "component x = x\ncomponent x = x", "13: duplicate map line 'component x'"),
        ("f = x", MAP + "component x = x\nwitness f = u1 : f\nwitness f = u1 : f", "14: duplicate map line 'witness f'"),
        # a run of whitespace inside a key reads as one space
        ("f = x", MAP + "component  x = x\ncomponent x = x", "13: duplicate map line 'component x'"),
        ("f = x", MAP + "component x = x\nwitness f = u1 : zap", "13: witness for 'f' references unknown generator 'zap'"),
        ("f = x", MAP + "component x = x\nwitness f = u1 : f\nwitness h = u1 : f",
         "14: witness names unknown target generator 'h'"),
        # in file order: a bad value on one line is reported before a bad key on the next
        ("f = x", "f = x +\n2f = x", "8: generator f: unexpected end of input (offset 3), column 8"),
        ("f = x", "f = x\n\n[probes]\np = 1/n +\n2p = 1/n", "11: probe p: unexpected end of input (offset 5), column 10"),
        ("f = x", "f = x\n\n[bounded]\nf = 1 +\ng = 1", "11: bound for f: unexpected end of input (offset 3), column 8"),
        ("f = x", 'f = x\n\n[experiments]\na = embed "\n-b = embed', "11: experiment a: No closing quotation"),
        ("f = x", MAP + "component x = x +\nzap = 1", "12: component x: unexpected end of input (offset 3), column 18"),
        # every header is checked, in file order, before any section is read
        ("f = x", MAP + "component x = x\nwitness f = u1 : f\n\n[map m]\ntarget = missing.spec",
         "15: duplicate section [map m]"),
        ("[generators]\nf = x", "[map]\ntarget = target.spec\n\n[generators]\n2f = x",
         "7: map sections are headed '[map NAME]'"),
        # [space] reads every key before any value
        ("domain = [0, 1]\nchart = x : t\nsamples = 11", "domain = [0, 1e999]\nchart = x : t\nsamples = 11\nsize = 3",
         "6: unknown [space] key 'size'"),
        # the line layout
        ("[generators]", "[generators", "7: unterminated section header"),
        ("[generators]", "[ ]", "7: empty section header"),
        ("[space]", "x = 1\n[space]", "1: entry before any section: 'x = 1'"),
        ("samples = 11", "samples = 11\ninset", "6: expected 'name = value', got 'inset'"),
        # the domain
        ("domain = [0, 1]", "domain = [0, 1", "3: unterminated interval in domain"),
        ("domain = [0, 1]", "domain = [0, 1, 2]", "3: an interval needs two endpoints, got 3"),
        ("domain = [0, 1]", "domain = [1, 0]", "3: domain: empty interval [1.0, 0.0]"),
        ("domain = [0, 1]", "domain = 0, 1", "3: domain: expected an interval at '0, 1'"),
        ("domain = [0, 1]", "domain =", "3: domain: no intervals given"),
        # the rest of [space] and [generators]
        ("[space]", "[space]\nname = 2d", "2: space name '2d' is not an identifier"),
        ("params = t", "params = 2t", "2: parameter name '2t' is not an identifier"),
        ("params = t\ndomain = [0, 1]\nchart = x : t", "params = s, s\ndomain = [0, 1] x [0, 1]\nchart = x : s",
         "1: [space]: duplicate parameter names"),
        ("chart = x : t", "chart = 2x : t", "4: ambient name '2x' is not an identifier"),
        ("chart = x : t", "chart = ,", "4: chart declares no ambient coordinates"),
        ("samples = 11", "samples = 11, 12", "5: samples has 2 count(s) for 1 parameter(s)"),
        ("f = x", "", "7: [generators] declares nothing"),
        # maps and experiments
        ("f = x", MAP + "component x = x\nwitness f = u1", "13: witness needs 'omega : generators', got 'u1'"),
        ("f = x", MAP + "component y = x",
         "10: map 'm' components do not match the target ambient coordinates (missing ['x'], extra ['y'])"),
        ("f = x", "f = x\n\n[map m]\ncomponent x = x", "10: map 'm' has no target line"),
        ("f = x", "f = x\n\n[experiments]\na =", "11: experiment a has no command"),
    ],
)
def test_loader_messages(tmp_path, old, new, message):
    write_spec(tmp_path, MINIMAL, name="target.spec")
    path = write_spec(tmp_path, MINIMAL.replace(old, new))
    with pytest.raises(SpecError) as info:
        load_spec(path)
    assert str(info.value) == f"{path}:{message}"


@pytest.mark.parametrize(
    "value, offset",
    [
        ("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),  # the first '(' too many
        ("x" + " + x" * MAX_DEPTH, 4 * MAX_DEPTH - 2),  # the last '+'
        ("-" * (MAX_DEPTH + 1) + "x", MAX_DEPTH),  # the last '-'
    ],
)
def test_an_expression_past_the_depth_bound_is_a_spec_error(tmp_path, value, offset):
    path = write_spec(tmp_path, MINIMAL.replace("f = x", f"f = {value}"))
    with pytest.raises(SpecError) as info:
        load_spec(path)
    assert str(info.value) == (
        f"{path}:8: generator f: expression nested deeper than {MAX_DEPTH} levels"
        f" (offset {offset}), column {5 + offset}"
    )


def test_chart_errors_name_the_component_column(tmp_path):
    path = write_spec(tmp_path, MINIMAL.replace("chart = x : t", "chart =  x :t ,,  y:  t +"))
    with pytest.raises(SpecError) as info:
        load_spec(path)
    assert str(info.value) == f"{path}:4: chart component y: unexpected end of input (offset 3), column 26"


def test_domain_arity_must_match_params(tmp_path):
    text = MINIMAL.replace("domain = [0, 1]", "domain = [0, 1] x [0, 2]")
    with pytest.raises(SpecError, match="interval"):
        load_spec(write_spec(tmp_path, text))


def test_one_samples_count_applies_to_every_axis(tmp_path):
    text = MINIMAL.replace("params = t", "params = s, t").replace("domain = [0, 1]", "domain = [0, 1] x [0, 1]")
    text = text.replace("chart = x : t", "chart = x : s, y : t").replace("samples = 11", "samples = 5")
    space = load_spec(write_spec(tmp_path, text)).space
    assert space.carrier.counts == (5, 5)
    assert embed(space).ambient.shape == (25, 2)


def test_domain_endpoints_take_expressions(tmp_path):
    text = MINIMAL.replace("domain = [0, 1]", "domain = (0, pi/2)")
    spec = load_spec(write_spec(tmp_path, text))
    box = spec.space.carrier.box[0]
    assert box.hi == math.pi / 2
    assert box.lo_open and box.hi_open


def test_a_parenthesized_endpoint_closes_its_own_parenthesis(tmp_path):
    """The ")" of "(1)" closes the endpoint's parenthesis, not the interval."""
    spec = load_spec(write_spec(tmp_path, MINIMAL.replace("domain = [0, 1]", "domain = (0, (1))")))
    plain = load_spec(write_spec(tmp_path, MINIMAL.replace("domain = [0, 1]", "domain = (0, 1)"), "plain.spec"))
    assert spec.space.carrier == plain.space.carrier
    assert embed(spec.space).params.tolist() == embed(plain.space).params.tolist()


def test_duplicate_generator_rejected(tmp_path):
    text = MINIMAL + "f = x^2\n"
    with pytest.raises(SpecError, match="duplicate generator"):
        load_spec(write_spec(tmp_path, text))


def test_unknown_ambient_name_in_generator(tmp_path):
    text = MINIMAL.replace("f = x", "f = y")
    with pytest.raises(SpecError, match="unknown variable 'y'"):
        load_spec(write_spec(tmp_path, text))


def test_chart_requires_name_colon_expression(tmp_path):
    text = MINIMAL.replace("chart = x : t", "chart = x")
    with pytest.raises(SpecError, match="needs 'name : expression'"):
        load_spec(write_spec(tmp_path, text))


def test_samples_must_be_integers(tmp_path):
    text = MINIMAL.replace("samples = 11", "samples = eleven")
    with pytest.raises(SpecError, match="samples must be integers"):
        load_spec(write_spec(tmp_path, text))


def test_bad_probe_schedule(tmp_path):
    text = MINIMAL + "\n[probes]\np = 1/n @ one .. ten\n"
    with pytest.raises(SpecError, match="probe schedule"):
        load_spec(write_spec(tmp_path, text))


def test_a_one_index_probe_schedule_is_a_spec_error(tmp_path):
    path = write_spec(tmp_path, MINIMAL + "\n[probes]\nq = 1/n @ 1 .. 100\np = 1/n @ 5 .. 5\n")
    with pytest.raises(SpecError) as err:
        load_spec(path)
    assert str(err.value) == f"{path}:12: probe p: probe p needs at least two schedule indices, got 5 .. 5"


def test_probes_need_a_single_parameter_carrier(tmp_path):
    text = MINIMAL.replace("params = t", "params = s, t").replace("domain = [0, 1]", "domain = [0, 1] x [0, 1]")
    text = text.replace("chart = x : t", "chart = x : s, y : t").replace("samples = 11", "samples = 5, 5")
    path = write_spec(tmp_path, text + "\n[probes]\np = 1/n @ 1 .. 50\n")
    with pytest.raises(SpecError) as err:
        load_spec(path)
    assert str(err.value) == f"{path}:10: probes require a single-parameter carrier"


def test_probe_defaults_without_schedule(tmp_path):
    text = MINIMAL + "\n[probes]\np = 1/n\n"
    spec = load_spec(write_spec(tmp_path, text))
    (p,) = [p for p in spec.probes if p.name == "p"]
    assert (p.start, p.stop) == (1, 1000)


def test_an_inset_that_empties_an_axis_is_a_spec_error(tmp_path):
    text = MINIMAL.replace("domain = [0, 1]", "domain = (0, 1)").replace("samples = 11", "samples = 11\ninset = 5")
    path = write_spec(tmp_path, text)
    with pytest.raises(SpecError) as err:
        load_spec(path)
    assert str(err.value) == f"{path}:1: [space]: inset 5.0 empties axis (0.0, 1.0)"


def test_probe_names_must_be_identifiers(tmp_path):
    text = MINIMAL + '\n[probes]\n"p,q" = 1/n @ 1 .. 100\n'
    with pytest.raises(SpecError, match="probe name '\"p,q\"' is not an identifier"):
        load_spec(write_spec(tmp_path, text))


def test_bound_for_unknown_generator(tmp_path):
    text = MINIMAL + "\n[bounded]\ng = 1\n"
    with pytest.raises(SpecError, match="unknown generator 'g'"):
        load_spec(write_spec(tmp_path, text))


def test_duplicate_bound_rejected(tmp_path):
    path = write_spec(tmp_path, MINIMAL + "\n[bounded]\nf = 1\nf = 1\n")
    with pytest.raises(SpecError) as info:
        load_spec(path)
    assert str(info.value) == f"{path}:12: duplicate bound for 'f'"


def test_unknown_section_rejected(tmp_path):
    text = MINIMAL + "\n[rockets]\nthrust = 11\n"
    with pytest.raises(SpecError, match="unknown section"):
        load_spec(write_spec(tmp_path, text))


def test_experiments_parse_shell_style(tmp_path):
    text = MINIMAL + '\n[experiments]\ngo = embed --family f\nwide = complete --tol 1e-3 --probes "p"\n'
    spec = load_spec(write_spec(tmp_path, text))
    assert [e.label for e in spec.experiments] == ["go", "wide"]
    assert spec.experiments[0].argv == ("embed", "--family", "f")
    assert spec.experiments[1].argv == ("complete", "--tol", "1e-3", "--probes", "p")


def test_experiment_labels_must_be_file_stems(tmp_path):
    text = MINIMAL + "\n[experiments]\nbad label! = embed\n"
    with pytest.raises(SpecError, match="not usable as a file stem"):
        load_spec(write_spec(tmp_path, text))


def test_map_targets_resolve_relative_to_the_spec(tmp_path):
    write_spec(tmp_path, MINIMAL, name="target.spec")
    text = (
        MINIMAL
        + "\n[map m]\ntarget = target.spec\ncomponent x = x^2\nwitness f = u1^2 : f\n"
    )
    spec = load_spec(write_spec(tmp_path, text, name="source.spec"))
    loaded = spec.maps["m"]
    assert loaded.target.name == "target"
    assert Path(loaded.target.path).parent == tmp_path


def test_map_without_target_line(tmp_path):
    text = MINIMAL + "\n[map m]\ncomponent x = x\nwitness f = u1 : f\n"
    with pytest.raises(SpecError, match="no target line"):
        load_spec(write_spec(tmp_path, text))


def test_map_target_must_exist(tmp_path):
    text = MINIMAL + "\n[map m]\ntarget = gone.spec\ncomponent x = x\nwitness f = u1 : f\n"
    with pytest.raises(SpecError, match="does not exist"):
        load_spec(write_spec(tmp_path, text))


def test_map_must_cover_target_generators(tmp_path):
    write_spec(tmp_path, MINIMAL + "g = x^2\n", name="target.spec")
    text = MINIMAL + "\n[map m]\ntarget = target.spec\ncomponent x = x\nwitness f = u1 : f\n"
    with pytest.raises(SpecError, match="lacks witnesses"):
        load_spec(write_spec(tmp_path, text, name="source.spec"))


def test_map_witness_checks_source_generators(tmp_path):
    write_spec(tmp_path, MINIMAL, name="target.spec")
    text = MINIMAL + "\n[map m]\ntarget = target.spec\ncomponent x = x\nwitness f = u1 : zap\n"
    with pytest.raises(SpecError, match="unknown generator 'zap'"):
        load_spec(write_spec(tmp_path, text, name="source.spec"))


def test_circular_map_targets_are_an_error(tmp_path):
    a = MINIMAL + "\n[map m]\ntarget = b.spec\ncomponent x = x\nwitness f = u1 : f\n"
    b = MINIMAL + "\n[map m]\ntarget = a.spec\ncomponent x = x\nwitness f = u1 : f\n"
    write_spec(tmp_path, b, name="b.spec")
    path_a = write_spec(tmp_path, a, name="a.spec")
    with pytest.raises(SpecError, match="circular"):
        load_spec(path_a)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    text = "# leading note\n\n" + MINIMAL.replace("f = x", "f = x  # identity")
    spec = load_spec(write_spec(tmp_path, text))
    assert spec.space.family.names == ("f",)
