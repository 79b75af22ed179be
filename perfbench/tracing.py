"""Spans around the calls into sikorski's layers, recorded from outside.

`Tracer.install` replaces every binding of each listed public function
across the loaded `sikorski` modules with a timing wrapper, so that a
call made through `completion.embed` is recorded exactly like one made
through `space.embed`, and nested calls get the right parent.  Spans stay
in memory; the caller writes them out when the run ends.  A listed
function that the package no longer has is reported as absent.

`eval_expr` is deliberately not wrapped: it is recursive and runs
millions of times per pass, so wrapping it would measure the wrapper.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

LAYER_FUNCTIONS = (
    ("specfile", "load_spec"),
    ("space", "sample"),
    ("space", "embed"),
    ("space", "check_smooth_map"),
    ("uniform", "compare_uniformities"),
    ("uniform", "probe_cauchy"),
    ("completion", "complete"),
    ("completion", "iota"),
    ("compactify", "normalize"),
    ("compactify", "boundize"),
    ("compactify", "compactify"),
    ("tangent", "apply"),
    ("tangent", "differential"),
    ("tangent", "leibniz_check"),
    ("tangent", "tangent_map"),
    ("tangent", "chain_rule_check"),
    ("filters", "verify_filter_laws"),
    ("_parallel", "parallel_map"),
    ("cli", "main"),
)


def _samples(space) -> int:
    return math.prod(space.carrier.counts)


def _count_embed(args, result) -> dict:
    return {"samples": _samples(args["space"])}


def _count_compare(args, result) -> dict:
    n = _samples(args["space"])
    return {"samples": n, "pairs": n * (n - 1) // 2 * len(args["eps_grid"])}


def _count_probe(args, result) -> dict:
    return {"decided": int(result.status in ("cauchy", "escaping"))}


def _count_laws(args, result) -> dict:
    return {"max_size": args["max_size"], "checks": sum(result.totals().values())}


# Counters read from a call's arguments and result.  A counter whose
# inputs changed shape is dropped from the span and its metric reads as
# absent, rather than failing the traced run.
COUNTERS = {
    "space.embed": _count_embed,
    "uniform.compare_uniformities": _count_compare,
    "uniform.probe_cauchy": _count_probe,
    "filters.verify_filter_laws": _count_laws,
}


# Metrics that rest on a counter, with the function and counter key.
COUNTED = {
    "space.embed.samples_per_s": ("space.embed", "samples"),
    "uniform.compare_uniformities.pairs_per_s": ("uniform.compare_uniformities", "pairs"),
    "uniform.probe_cauchy.decided_ratio": ("uniform.probe_cauchy", "decided"),
    "filters.checks": ("filters.verify_filter_laws", "checks"),
    "filters.checks_per_s": ("filters.verify_filter_laws", "checks"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "sikorski" or name.startswith("sikorski.")]
        for module_name, func_name in LAYER_FUNCTIONS:
            home = sys.modules.get(f"sikorski.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name.lstrip('_')}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu0
                stack.pop()
            span = {
                "id": span_id, "name": name, "start": start, "end": end,
                "cpu": cpu, "parent": parent, "op": self.op,
            }
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["count"] = counter(bound.arguments, result)
                except (AttributeError, KeyError, TypeError):
                    pass
            self.spans.append(span)
            return result

        return wrapper


def summarise(spans: list[dict], absent: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer numbers of one traced pass, and the metrics that are absent.

    ``<fn>.s`` is the time inside outermost calls of a function, so that
    recursion (`load_spec` of a map target, `main` under `run`) is not
    counted twice.  ``<fn>.self_s`` subtracts the time of direct child
    spans, summed over every span of the function.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]

    def ancestors(s):
        p = s["parent"]
        while p is not None and p in by_id:
            yield by_id[p]
            p = by_id[p]["parent"]

    def outermost(match):
        return [s for s in spans if match(s["name"]) and not any(match(a["name"]) for a in ancestors(s))]

    def total(name):
        return sum(s["end"] - s["start"] for s in outermost(lambda n: n == name))

    def self_time(name):
        return sum(s["end"] - s["start"] - children[s["id"]] for s in spans if s["name"] == name)

    def count(name, key):
        return sum(s.get("count", {}).get(key, 0) for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    tangent_top = outermost(lambda n: n.startswith("tangent."))
    laws = outermost(lambda n: n == "filters.verify_filter_laws")
    pools = outermost(lambda n: n == "parallel.parallel_map")
    m = {
        "specfile.load_spec.s": total("specfile.load_spec"),
        "space.sample.s": total("space.sample"),
        "space.embed.s": total("space.embed"),
        "space.embed.samples_per_s": ratio(count("space.embed", "samples"), total("space.embed")),
        "space.check_smooth_map.s": total("space.check_smooth_map"),
        "uniform.compare_uniformities.s": total("uniform.compare_uniformities"),
        "uniform.compare_uniformities.pairs_per_s": ratio(
            count("uniform.compare_uniformities", "pairs"), total("uniform.compare_uniformities")
        ),
        "uniform.probe_cauchy.s": total("uniform.probe_cauchy"),
        "uniform.probe_cauchy.calls": float(calls("uniform.probe_cauchy")),
        "uniform.probe_cauchy.decided_ratio": ratio(
            count("uniform.probe_cauchy", "decided"), calls("uniform.probe_cauchy")
        ),
        "completion.complete.self_s": self_time("completion.complete"),
        "completion.iota.s": total("completion.iota"),
        "compactify.normalize.s": total("compactify.normalize"),
        "compactify.boundize.s": total("compactify.boundize"),
        "compactify.compactify.self_s": self_time("compactify.compactify"),
        "tangent.s": sum(s["end"] - s["start"] for s in tangent_top),
        "tangent.calls": float(len(tangent_top)),
        "filters.verify_filter_laws.s": total("filters.verify_filter_laws"),
        "filters.verify_filter_laws.cpu_s": sum(s["cpu"] for s in laws),
        "filters.checks": float(count("filters.verify_filter_laws", "checks")),
        "filters.checks_per_s": ratio(
            count("filters.verify_filter_laws", "checks"), total("filters.verify_filter_laws")
        ),
        "parallel.parallel_map.s": total("parallel.parallel_map"),
        "parallel.parallel_map.cpu_per_wall": ratio(
            sum(s["cpu"] for s in pools), total("parallel.parallel_map")
        ),
        "cli.main.self_s": self_time("cli.main"),
    }
    # a metric is absent when every function it rests on is, or when a
    # call happened whose counter could not be read
    gone = {name.lstrip("_") for name in absent}
    listed = [f"{module.lstrip('_')}.{func}" for module, func in LAYER_FUNCTIONS]
    missing = []
    for metric in m:
        fn, key = COUNTED.get(metric, (metric.rsplit(".", 1)[0], None))
        sources = [name for name in listed if name == fn or name.startswith(fn + ".")]
        if all(name in gone for name in sources) or (
            key and any(s["name"] == fn and key not in s.get("count", {}) for s in spans)
        ):
            missing.append(metric)
    return m, missing
