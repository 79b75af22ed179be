"""The sikorski benchmark: time CLI invocations on spec files, end to end
and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid|catalog --seed N \
        --seconds S --trace 0|1

The package is used from the checkout's ``src`` directory, as is.  Each
pass runs in a fresh child process, one at a time (a closed loop with one
client); the package's own worker pool keeps its default size and
SIKORSKI_THREADS is removed from the children's environment.  Passes
repeat until ``--seconds`` is used up, with at least two, so that the
artifacts of two passes can be compared byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the run writes stays under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(ROOT, "src")
SPEC_DIR = os.path.join(SRC, "sikorski", "specs")
PASSRUN = os.path.join(HERE, "passrun.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

MIN_PASSES = 2
SETUP_MIN = 7  # set-up samples per run, at least
SAMPLE_EVERY_S = 0.5  # a short calibration batch this often while a pass runs
SAMPLE_ROUNDS = calibration.ROUNDS // 5
DEADLINE_S = 170.0  # the whole run, so that it ends within three minutes
EMBED_PROBE_SAMPLES = 220001

SETUP_CODE = (
    "import sys\n"
    "import sikorski.cli\n"
    "from sikorski.specfile import load_spec\n"
    "for path in sys.argv[1:]:\n"
    "    load_spec(path)\n"
)


class Timeout(Exception):
    pass


@dataclass
class Child:
    rc: int | None  # None when the run's deadline killed it
    wall_s: float
    cpu_s: float  # user + system, all threads
    rss_kb: int
    stderr: str  # its tail
    scale: float | None  # calibration.scale of its batches, if any were timed


def _sample(stop: threading.Event, out: list[float]) -> None:
    """Time a short calibration batch every SAMPLE_EVERY_S until stopped."""
    while not stop.wait(SAMPLE_EVERY_S):
        out.append(calibration.calibrate(SAMPLE_ROUNDS))


def _alarm(signum, frame):
    raise Timeout()


class Runner:
    """Spawns children one at a time, within the run's deadline."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("SIKORSKI_THREADS", None)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str], calibrate: str = "") -> Child:
        """Run a child to completion.  With calibrate="around" a calibration
        batch is timed right before it and another right after; with
        "during", short batches are timed on its CPU while it runs, so that
        the scale follows the machine's speed through a long child."""
        batches = [calibration.calibrate()] if calibrate == "around" else []
        stop = threading.Event()
        sampler = threading.Thread(target=_sample, args=(stop, batches))
        rc = None
        with open(os.path.join(self.work, "child.err"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            if calibrate == "during":
                sampler.start()
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, max(1.0, self.time_left()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                rc = os.waitstatus_to_exitcode(status)
            except Timeout:
                proc.kill()
                _, _, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                stop.set()
                if sampler.is_alive():
                    sampler.join()
            wall = time.perf_counter() - start
            proc.returncode = -1 if rc is None else rc  # reaped above; keeps Popen from waiting again
            err.seek(0)
            stderr = err.read()[-2000:].decode("utf-8", errors="replace")
        if calibrate == "around" or (calibrate and not batches):  # a child too short to sample
            batches.append(calibration.calibrate())
        return Child(rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stderr,
                     calibration.scale(batches) if batches else None)


def _digest(path: str) -> tuple[str, int]:
    """SHA-256 over the names and bytes of every file under path, and their total size."""
    h = hashlib.sha256()
    size = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(full, path).encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


def run_pass(runner: Runner, wl: workloads.Workload, index: int, trace: bool) -> dict:
    """One pass over the workload's operations in one fresh passrun child.

    The pass time is measured inside the child and excludes its import."""
    pass_dir = os.path.join(runner.work, f"pass{index}")
    os.makedirs(pass_dir)
    op_dirs = [os.path.join(pass_dir, op.name) for op in wl.ops]
    job_path = os.path.join(pass_dir, "job.json")
    result_path = os.path.join(pass_dir, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": [{"argv": op.argv, "out": d} for op, d in zip(wl.ops, op_dirs)], "trace": trace, "result": result_path}, fh)
    child = runner.spawn([sys.executable, PASSRUN, job_path], "during")
    outcome = {"trace": trace, "ops": [], "spans": [], "absent": [], "import_s": [], "wall_s": child.wall_s,
               "cpu_s": child.cpu_s, "ref_s": child.cpu_s * child.scale, "scale": child.scale, "rss_kb": child.rss_kb}
    if child.rc == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        raw = [(r["rc"], r["traceback"], r["stderr"]) for r in result["ops"]]
        outcome.update(wall_s=result["pass_s"], import_s=[result["import_s"]], versions=result["versions"],
                       op_s=[r["seconds"] for r in result["ops"]], cpu_s=result["pass_cpu_s"],
                       ref_s=result["pass_cpu_s"] * child.scale)
        if trace:
            outcome.update(spans=result["spans"], absent=result["absent"])
    else:
        outcome["child_error"] = f"pass child exited {child.rc}: {child.stderr.strip()[-500:]}"
        raw = [(None, False, outcome["child_error"])] * len(wl.ops)

    outcome["artifact_bytes"] = 0
    for op, d, (rc, crashed, stderr) in zip(wl.ops, op_dirs, raw):
        problems = []
        if crashed or "Traceback (most recent call last)" in stderr:
            problems.append(f"traceback: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}")
        elif rc != 0:
            problems.append(f"exit code {rc}: {stderr.strip()[-300:]}")
        if rc == 0:
            problems += op.verify(d)
        digest, size = _digest(d) if os.path.isdir(d) else ("", 0)
        outcome["artifact_bytes"] += size
        outcome["ops"].append({"name": op.name, "problems": problems, "digest": digest})
    if wl.count_work is not None:
        try:
            outcome["work"] = wl.count_work(pass_dir)
        except (OSError, ValueError, IndexError):
            outcome["work"] = None
    return outcome


def _judge(passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes, and the problems.

    An operation also fails when its artifacts differ from those of the
    same operation in the first pass."""
    attempted = failed = 0
    notes: list[str] = []
    first = {op["name"]: op["digest"] for op in passes[0]["ops"]}
    for k, p in enumerate(passes):
        for op in p["ops"]:
            problems = list(op["problems"])
            if op["digest"] != first[op["name"]]:
                problems.append("artifacts differ from the first pass")
            attempted += 1
            if problems:
                failed += 1
                notes += [f"pass {k} {op['name']}: {msg}" for msg in problems]
    return attempted, failed, notes


def setup_argv(wl: workloads.Workload) -> list[str]:
    """A fresh interpreter that imports sikorski.cli and loads the
    workload's specs: the set-up every CLI invocation pays."""
    return [sys.executable, "-c", SETUP_CODE, *wl.specs]


def run_probe(runner: Runner, wl: workloads.Workload) -> dict | None:
    """The eval_expr batch over the grid specs and the ROADMAP's embed and
    compare_uniformities baselines, in a child of their own."""
    with open(os.path.join(SPEC_DIR, "parabola_refinement.spec"), encoding="utf-8") as fh:
        text = workloads.set_samples(fh.read(), EMBED_PROBE_SAMPLES)
    embed_spec = os.path.join(runner.work, "embed_probe.spec")
    with open(embed_spec, "w", encoding="utf-8") as fh:
        fh.write(text)
    job = {
        "eval_specs": wl.specs,
        "embed_spec": embed_spec,
        # the bundled parabola spec's own experiment, at its 22,001 samples
        "compare": {
            "spec": os.path.join(SPEC_DIR, "parabola_refinement.spec"),
            "g": ["f1"], "h": ["f2"], "eps": [1.0, 0.1, 0.01], "target": 1.0,
        },
        "result": os.path.join(runner.work, "probe.json"),
    }
    job_path = os.path.join(runner.work, "probe_job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    child = runner.spawn([sys.executable, PASSRUN, job_path])
    if child.rc != 0:
        print(f"perfbench: probe child exited {child.rc}: {child.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def measure(runner: Runner, wl: workloads.Workload, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Passes until the time is used, and set-up samples (exit code, wall,
    CPU and rescaled CPU seconds).

    Without tracing a set-up sample follows each pass, so that the samples
    see the same mix of machine states as the passes.  With tracing each
    round is an untraced pass followed by a traced one."""
    passes: list[dict] = []
    setups: list[dict] = []

    def sample_setup() -> None:
        child = runner.spawn(setup_argv(wl), "around")
        setups.append({"rc": child.rc, "wall_s": child.wall_s, "cpu_s": child.cpu_s, "ref_s": child.cpu_s * child.scale})

    runner.spawn(setup_argv(wl))  # fills the bytecode cache, as any earlier use would
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            passes.append(run_pass(runner, wl, len(passes), traced))
            if len(passes) > 2:
                shutil.rmtree(os.path.join(runner.work, f"pass{len(passes) - 3}"), ignore_errors=True)
        if not trace:
            sample_setup()
        now = time.perf_counter()
        rounds = len(passes) // (2 if trace else 1)
        if any("child_error" in p for p in passes) or runner.time_left() < 2 * (now - round_start):
            break
        if (trace or rounds >= MIN_PASSES) and now - start + (now - round_start) / 2 >= seconds:
            break
    while not trace and len(setups) < SETUP_MIN and runner.time_left() > 5:
        sample_setup()
    return passes, setups


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _spread(label: str, values: list[float], unit: str) -> str:
    return f"{label} median {statistics.median(values):.4f} {unit}, max {max(values):.4f} {unit}, n={len(values)}"


def end_to_end(wl: workloads.Workload, untraced: list[dict], setups: list[dict]) -> dict:
    """The time metrics are CPU seconds rescaled to the reference speed
    (see calibration.py); the measured CPU and wall times are printed
    beside them."""
    ref = statistics.median(p["ref_s"] for p in untraced)
    work = [p.get("work", wl.work_units) for p in untraced]
    per_ref_s = statistics.median([w for w in work if w is not None] or [0.0]) / ref
    setup = [s["ref_s"] for s in setups]
    rss = statistics.median(p["rss_kb"] for p in untraced) / 1024.0
    print(_spread("pass_ref_s", [p["ref_s"] for p in untraced], "s"))
    print(_spread("pass CPU", [p["cpu_s"] for p in untraced], "s"))
    print(_spread("speed scale", [p["scale"] for p in untraced], "x"))
    print(f"work_per_ref_s {per_ref_s:.6g} 1/s ({wl.work_unit} per rescaled CPU second)")
    print(_spread("setup_s", setup, "s"))
    print(_spread("setup CPU", [s["cpu_s"] for s in setups], "s"))
    print(_spread("setup wall", [s["wall_s"] for s in setups], "s"))
    print(f"peak_rss_mb {rss:.1f} MiB")
    return {
        "pass_ref_s": _metric(ref, "s"),
        "work_per_ref_s": _metric(per_ref_s, "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(rss, "MiB"),
    }


def _baseline_lines(wl: workloads.Workload, measured: dict[str, float], versions: dict) -> list[str]:
    with open(os.path.join(HERE, "baselines.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    noise = ref["noise"]
    lines = []
    here = {"nproc": os.cpu_count(), "python": versions.get("python"), "numpy": versions.get("numpy")}
    diff = {k: (ref["machine"][k], v) for k, v in here.items() if ref["machine"].get(k) != v}
    if diff:
        lines.append(f"baseline machine differs (baseline, here): {diff}")
    for b in ref["baselines"]:
        if b["workload"] not in ("*", wl.name):
            continue
        got = measured.get(b["measure"])
        if got is None:
            lines.append(f"baseline {b['what']}: not measured in this run")
            continue
        ok = b["low_s"] * (1 - noise) <= got <= b["high_s"] * (1 + noise)
        lines.append(
            f"baseline {b['what']}: measured {got:.3f} s, ROADMAP {b['low_s']}-{b['high_s']} s"
            f" (+-{noise:.0%} noise): {'reproduces' if ok else 'DOES NOT REPRODUCE'}"
        )
    return lines


def per_layer(wl: workloads.Workload, passes: list[dict], probe: dict | None, work: str) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and the run record's
    trace section; writes every span to trace.json."""
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    summaries = [tracing.summarise(p["spans"], p["absent"]) for p in traced]
    absent = sorted({m for _, missing in summaries for m in missing} | set(traced[-1]["absent"]))
    layer = {k: statistics.median(m[k] for m, _ in summaries) for k in summaries[0][0]}
    imports = [t for p in passes for t in p["import_s"]]
    layer["process.import_s"] = statistics.median(imports) if imports else 0.0
    evals = probe.get("eval") if probe else None
    layer["expr.eval_expr.ns_per_eval"] = evals["seconds"] / evals["evals"] * 1e9 if evals and evals["evals"] else 0.0
    layer["cli.artifact_bytes"] = statistics.median(p["artifact_bytes"] for p in traced)
    traced_ref = statistics.median(p["ref_s"] for p in traced)
    layer["trace.overhead_s"] = traced_ref - statistics.median(p["ref_s"] for p in untraced)
    if absent:
        print("absent: " + ", ".join(absent))
    print(f"traced pass_ref_s median {traced_ref:.4f} s; tracing overhead {layer['trace.overhead_s']:+.4f} s")

    measured: dict[str, list[float]] = {"import": [layer["process.import_s"]]}
    for key, name in (("embed_220001", "embed"), ("compare_22001", "compare")):
        if probe and name in probe:
            measured[key] = [probe[name]["seconds"]]
    for p in traced:
        for s in p["spans"]:
            if s["name"] == "filters.verify_filter_laws" and s.get("count", {}).get("max_size") == 5:
                measured.setdefault("verify_5", []).append(s["end"] - s["start"])
    baselines = {k: statistics.median(v) for k, v in measured.items()}
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    for line in _baseline_lines(wl, baselines, versions):
        print(line)

    trace_path = os.path.join(work, "trace.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        spans = [dict(s, pass_index=k) for k, p in enumerate(passes) for s in p["spans"]]
        json.dump({"absent": absent, "spans": spans}, fh)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    return layer, {"per_layer": layer, "absent": absent, "baselines": baselines}


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sikorski", "cli.py")):
        print(f"perfbench: no sikorski package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    # One CPU for this process, its calibration batches and every child:
    # the batches then time the very CPU the passes run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(WORK_ROOT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.build(args.workload, args.seed, SPEC_DIR, work)
    runner = Runner(work)
    trace = bool(args.trace)
    probe = run_probe(runner, wl) if trace and wl.name == "grid" else None
    passes, setups = measure(runner, wl, args.seconds, trace)

    attempted, failed, notes = _judge(passes)
    setup_failed = sum(s["rc"] != 0 for s in setups)
    attempted += len(setups)
    failed += setup_failed
    if setup_failed:
        notes.append(f"{setup_failed} set-up run(s) failed")
    for note in notes[:20]:
        print(f"perfbench: FAILED {note}", file=sys.stderr)

    untraced = [p for p in passes if not p["trace"]]
    walls = [p["wall_s"] for p in untraced]
    print(f"workload {wl.name}, seed {wl.seed}: {len(untraced)} untraced pass(es), {len(passes) - len(untraced)} traced")
    print(f"error_rate {failed / attempted:.4g} ({failed} failed of {attempted} operations)")
    print(_spread("pass wall", walls, "s"))
    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": wl.inputs, "work_unit": wl.work_unit, "nproc": os.cpu_count(),
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "setups": setups, "attempted": attempted, "failed": failed, "notes": notes,
    }
    if trace:
        layer, record["trace"] = per_layer(wl, passes, probe, work)
        units = _per_layer_units()
        if set(units) != set(layer):
            raise RuntimeError(f"per-layer metrics do not match BENCHMARK.json: {sorted(set(units) ^ set(layer))}")
        metrics = {name: _metric(layer[name], unit) for name, unit in units.items()}
    else:
        metrics = end_to_end(wl, untraced, setups)

    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
