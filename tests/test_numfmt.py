"""The byte kernel `sikorski._numfmt.fields` against the scalar ``%`` it
replaces: each value's field, with its NUL bytes dropped, must be
``'%.17g' % x`` exactly, whether the value took the long double fast
path or the scalar fallback.  The writer puts indices through it too,
so an integer below 2**53 must come out as ``'%d' % i``.  The kernel
takes finite values only and refuses a NaN or an infinity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sikorski import _numfmt


def texts(values):
    """What the kernel writes for each value, NUL bytes dropped."""
    out = _numfmt.fields(np.array(values, dtype=np.float64))
    return [row[row != 0].tobytes().decode() for row in out]


def with_examples(values):
    def add(test):
        for value in values:
            test = example(value)(test)
        return test

    return add


POWERS = [
    v
    for k in range(-30, 31)
    for p in [float(f"1e{k}")]
    for v in (p, math.nextafter(p, 0.0), math.nextafter(p, math.inf))
]
EDGES = [0.1, 1 / 3, 1e16, 1e17, 99999999999999999.0, 5e-324, 2.2250738585072014e-308]
# every one of these takes the scalar fallback: zero, the subnormal and
# extreme, |16 - k| > 27, and exact decimal ties of 17 digits
# (2**-25 = 2.98023223876953125e-08), which % rounds half-even
FALLBACKS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
             1e308, -1.7976931348623157e308, 1e-12, 3e44, 2.0**-25, -(2.0**-25), 2.0**-60]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(FINITE)
@with_examples(EDGES + POWERS)
def test_a_float_is_written_as_percent_g(x):
    assert texts([x]) == ["%.17g" % x]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64 - 1).filter(lambda bits: (bits >> 52) & 0x7FF != 0x7FF))  # not nan or inf
def test_any_bit_pattern_is_written_as_percent_g(bits):
    x = float(np.array(bits, dtype=np.uint64).view(np.float64))
    assert texts([x]) == ["%.17g" % x]


@settings(max_examples=200, deadline=None)
@given(st.lists(FINITE, max_size=40))
def test_a_column_is_written_value_by_value(column):
    assert texts(column) == ["%.17g" % x for x in column]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**53))
@with_examples([0, 9, 10, 9999, 10000, 2**53 - 1, 2**53])
def test_an_index_is_written_as_percent_d(i):
    assert texts([float(i)]) == ["%d" % i]


def test_every_fallback_case_is_written_as_percent_g():
    values = np.array(FALLBACKS + [-v for v in FALLBACKS])
    assert not _numfmt._float_digits(values)[2].any()  # none is proven on the fast path
    assert texts(values) == ["%.17g" % x for x in values.tolist()]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("before, after", [([], []), ([1.5, 0.0, 1e308], [-2.0**-25, 7.0])])
def test_a_non_finite_value_is_refused(bad, before, after):
    with pytest.raises(ValueError, match="finite values only"):
        _numfmt.fields(np.array(before + [bad] + after))


def test_plain_double_takes_the_fallback_for_every_value(monkeypatch):
    """Where long double has no 64-bit mantissa no value is proven exact,
    and the bytes stay the same."""
    values = np.concatenate([np.random.default_rng(5).standard_normal(300) * 1e3, POWERS])
    monkeypatch.setattr(_numfmt, "_EXACT", False)
    assert not _numfmt._float_digits(values)[2].any()
    assert texts(values) == ["%.17g" % x for x in values.tolist()]


def test_most_sampled_values_take_the_fast_path():
    values = np.linspace(-3.0, 5.0, 4001) ** 3
    exact = _numfmt._float_digits(values)[2]
    assert exact.mean() > 0.99
    assert texts(values) == ["%.17g" % x for x in values.tolist()]
