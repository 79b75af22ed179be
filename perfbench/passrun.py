"""Run one pass of CLI operations inside a fresh interpreter.

Usage: python passrun.py JOB.json

The job names the operations (CLI argv and artifact directory), whether
to trace, and where to write the result.  The import of `sikorski.cli`
is timed on its own, so the pass time excludes it.  Each operation runs
through `sikorski.cli.main` in this process, with its standard output
and error captured; an exception escaping `main` is what a user would
see as a traceback.

Optional probes run before the operations, untimed by the pass:
``eval_specs`` times a fixed batch of scalar `eval_expr` calls over the
chart and generator expressions of those specs, ``embed_spec`` times one
`embed` of that spec's space, and ``compare`` times one
`compare_uniformities` call given by spec, families and widths.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

EVAL_POINTS = 2000  # sample points per spec in the eval_expr batch


def _eval_batch(paths: list[str]) -> dict:
    from sikorski.expr import eval_expr
    from sikorski.specfile import load_spec

    jobs = []
    for path in paths:
        space = load_spec(path).space
        carrier = space.carrier
        (axis,) = carrier.axis_samples()  # every spec the workloads use has one parameter
        for value in axis[:: max(1, len(axis) // EVAL_POINTS)][:EVAL_POINTS]:
            params = {carrier.params[0]: value}
            jobs.extend((c, params) for c in carrier.chart)
            ambient = dict(zip(carrier.ambient, carrier.chart_point((value,))))
            jobs.extend((g.expr, ambient) for g in space.family.generators)
    start = time.perf_counter()
    for expr, env in jobs:
        eval_expr(expr, env)
    return {"evals": len(jobs), "seconds": time.perf_counter() - start}


def _embed_probe(path: str) -> dict:
    from sikorski.space import embed
    from sikorski.specfile import load_spec

    space = load_spec(path).space
    start = time.perf_counter()
    embed(space)
    return {"seconds": time.perf_counter() - start}


def _compare_probe(job: dict) -> dict:
    from sikorski.specfile import load_spec
    from sikorski.uniform import compare_uniformities

    space = load_spec(job["spec"]).space
    start = time.perf_counter()
    compare_uniformities(space, job["g"], job["h"], job["eps"], job["target"])
    return {"seconds": time.perf_counter() - start}


def _cpu_s() -> float:
    """CPU seconds of this process, every thread, and of its children
    that have ended, so that work moved into worker processes still counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    start = time.perf_counter()
    import sikorski.cli as cli

    result: dict = {"import_s": time.perf_counter() - start, "ops": []}
    numpy = sys.modules.get("numpy")
    result["versions"] = {"python": sys.version.split()[0], "numpy": getattr(numpy, "__version__", None)}
    if job.get("eval_specs"):
        result["eval"] = _eval_batch(job["eval_specs"])
    if job.get("embed_spec"):
        result["embed"] = _embed_probe(job["embed_spec"])
    if job.get("compare"):
        result["compare"] = _compare_probe(job["compare"])

    tracer = None
    if job.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cpu_start = _cpu_s()
    pass_start = time.perf_counter()
    for index, op in enumerate(job.get("ops", [])):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        rc, crashed = None, False
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op["argv"] + ["--out", op["out"]])
            except SystemExit as exc:  # argparse rejects its argv
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                crashed = True
                traceback.print_exc()
        result["ops"].append(
            {"rc": rc, "traceback": crashed, "stderr": err.getvalue()[-2000:], "seconds": time.perf_counter() - t0}
        )
    result["pass_s"] = time.perf_counter() - pass_start
    result["pass_cpu_s"] = _cpu_s() - cpu_start
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
