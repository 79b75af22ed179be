"""A fixed batch of pure-Python work that tells how fast the machine runs
the benchmark at a given moment.

On a shared host the same instructions run up to 1.7x slower in some
seconds than in others, with little steal time, so no clock a guest
process can read leaves the slowdown out.  The benchmark times this batch
in its own process, on the CPU its children run on: short batches every
half second while a pass runs, and one whole batch right before and one
right after a set-up child.  It rescales the child's CPU time to the
speed at which the batch takes ``REFERENCE_S``.  The batch uses none of the package, so a change to the
program cannot move it; it does the two kinds of work the workloads do,
recursive expression walks over floats and frozenset algebra.
"""

from __future__ import annotations

import math
import statistics
import time

# CPU seconds of one batch on the 2-core Xeon the benchmark was tuned on,
# on a quiet host: the speed that rescaled times refer to.
REFERENCE_S = 0.15
ROUNDS = 6000

# An expression tree in the shape the package's evaluator walks.
_TREE = ("+", ("*", "x", ("cos", ("tan", "x"))), ("/", ("-", "x", 1.0), ("+", ("*", "x", "x"), 1.0)))
_SETS = [frozenset(j for j in range(6) if (i >> j) & 1) for i in range(64)]


def _walk(node, env: dict) -> float:
    if isinstance(node, str):
        return env[node]
    if not isinstance(node, tuple):
        return node
    op, *args = node
    vals = [_walk(a, env) for a in args]
    if op == "+":
        return vals[0] + vals[1]
    if op == "-":
        return vals[0] - vals[1]
    if op == "*":
        return vals[0] * vals[1]
    if op == "/":
        return vals[0] / vals[1]
    return getattr(math, op)(vals[0])


def calibrate(rounds: int = ROUNDS) -> float:
    """CPU seconds of this thread for `rounds` rounds, scaled to a whole
    batch of ROUNDS."""
    start = time.thread_time()
    acc = 0.0
    for i in range(rounds):
        acc += _walk(_TREE, {"x": (i % 997) * 1e-3})
        a = _SETS[i & 63]
        for b in _SETS[::4]:
            if a <= (a | b) and not (a & b) - a:
                acc += 1.0
    seconds = time.thread_time() - start
    if not acc > 0:
        raise AssertionError("the calibration batch lost its work")
    return seconds * ROUNDS / rounds


def scale(samples: list[float]) -> float:
    """The factor that rescales CPU seconds measured alongside these
    batch times to the reference speed: the mean of the batches' own
    factors, which weights each stretch of a child evenly when its
    batches are evenly spaced through it."""
    return statistics.fmean(REFERENCE_S / s for s in samples)
