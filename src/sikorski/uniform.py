"""Uniform structures induced by generator families.

Each finite tuple of generators and each eps > 0 give a basic entourage:
the pairs of points whose images under every listed generator differ by
strictly less than eps.  Comparing the uniformities of two families is a
counterexample search over the sampled cloud; probe sequences supply the
Cauchy data that completion consumes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import DomainError, Expr, sweep, variables
from .space import DiffSpace, chart_columns, embed, generator_columns

__all__ = [
    "Probe",
    "CauchyVerdict",
    "RefinementRow",
    "RefinementReport",
    "compare_uniformities",
    "probe_points",
    "probe_cauchy",
]


@dataclass(frozen=True)
class RefinementRow:
    candidate_eps: float
    # the witness samples' parameter values, as the refinement.csv header names them
    witness_x: tuple[float, ...] | None
    witness_y: tuple[float, ...] | None
    d_g: float | None
    violated: str | None

    @property
    def refines(self) -> bool:
        """No sampled pair at this width violates the target."""
        return self.witness_x is None


@dataclass(frozen=True)
class RefinementReport:
    # the target entourage V(h1..hk;eps) every row is judged against
    target: str
    sample_count: int
    rows: tuple[RefinementRow, ...]
    # sample pairs the scan compared, a row with itself not counted: each
    # flagged row's runs, for the rows in sample order up to and including
    # each width's first witness row
    pairs_examined: int


def compare_uniformities(
    space: DiffSpace,
    g_names: Sequence[str],
    h_names: Sequence[str],
    eps_grid: Sequence[float],
    target_eps: float = 1.0,
) -> RefinementReport:
    """Ask whether the G-uniformity refines the H-entourage of width
    `target_eps` at each candidate width in `eps_grid`.

    An empty G or H family and a non-positive width are refused before
    sampling.  Verdicts are relative to the sampled cloud and to float
    arithmetic.  A witness is a sampled pair whose generator values, as
    computed and subtracted in floats, differ by less than the width in
    every G coordinate and by at least the target width in some H
    coordinate; exact arithmetic on the same samples need not agree (the
    parabola's width-0.01 pair has y^2 - x^2 = 0.9999999999998012 < 1
    exactly).  "refines" says no sampled pair violates the target in
    those float differences.  The search is exhaustive over sampled
    pairs: every pair it does not compute is excluded by an exact bound,
    which leaves each row runs of possible partners: a lead range when G
    has one coordinate, a 3x3 neighbourhood of cells of side at least the
    width over its first two coordinates when G has more.  The first
    witness in lexicographic sample order wins, which keeps reports
    reproducible.

    The distinct widths are searched from the smallest to the largest.  A
    pair within one width lies within every larger one, so a width's
    first witness row (the witness's smaller sample index) bounds the
    first witness row of every larger width, and each width searches only
    the rows of sample index at most the last witness row found.  The
    rows and `pairs_examined` are those of one search per listed width.
    """
    g_names = tuple(g_names)
    h_names = tuple(h_names)
    if not g_names:
        raise ValueError("the G family needs at least one generator")
    if not h_names:
        raise ValueError("an entourage needs at least one generator")
    if not (target_eps > 0.0) or any(not (e > 0.0) for e in eps_grid):
        raise ValueError("entourage widths must be positive")
    all_names = g_names + tuple(n for n in h_names if n not in g_names)
    cloud = embed(space.with_generators(all_names))
    coords = cloud.coords
    g_idx = [all_names.index(n) for n in g_names]
    h_idx = [all_names.index(n) for n in h_names]

    # fixed-radius near neighbours (Bentley, Stanat & Williams 1977).  Step
    # 1, one per G arity, sorts the rows so that a row's G-close partners lie
    # in its runs of consecutive rows, and flags the rows with a witness from
    # maxima and minima of each H column over their runs.  Step 2, `_scan`,
    # computes d_G and d_H between flagged rows and their runs, in ascending
    # sample index of the flagged row, and stops at the first row (or chunk
    # of rows) with a witness.  The witness relation is symmetric, so that
    # holds the first witness in lexicographic order.
    g_cols = [coords[:, k] for k in g_idx]
    h_cols = [coords[:, k] for k in h_idx]
    if len(g_idx) == 1:
        order = np.argsort(g_cols[0], kind="stable")
        step1 = functools.partial(_lead_runs, order, [g_cols[0][order]], [col[order] for col in h_cols])
    else:
        step1 = functools.partial(_cell_runs, g_cols, h_cols)
    found = {}
    bound = coords.shape[0] - 1  # the largest sample index a width's witness row can have
    for eps in sorted(set(map(float, eps_grid))):
        witness, _ = found[eps] = _scan(*step1(eps, target_eps, bound), eps, target_eps)
        if witness is not None:
            bound = witness[0]

    rows = []
    for eps in map(float, eps_grid):
        witness, _ = found[eps]
        if witness is None:
            rows.append(RefinementRow(eps, None, None, None, None))
        else:
            i, j = witness
            d_g = float(max(abs(coords[i, k] - coords[j, k]) for k in g_idx))
            violated = next(n for n, k in zip(h_names, h_idx) if abs(coords[i, k] - coords[j, k]) >= target_eps)
            x, y = (tuple(cloud.params[k].tolist()) for k in (i, j))
            rows.append(RefinementRow(eps, x, y, d_g, violated))
    target = f"V({','.join(h_names)};{target_eps!r})"
    return RefinementReport(target, coords.shape[0], tuple(rows), sum(found[float(eps)][1] for eps in eps_grid))


def _upper_edges(lead: np.ndarray, eps: float) -> np.ndarray:
    """For each row r of the ascending `lead`, one past the last row j
    with fl(lead[j] - lead[r]) < eps.  Rounding is monotone, so the test
    holds on a prefix of the rows."""
    n_pts = lead.size
    hi = np.searchsorted(lead, lead + eps, side="left")
    # lead + eps is rounded, so the edge can sit a few values off: move it
    # over a whole run of equal values per round, up and then down (the
    # clipped read of an edge at n_pts is dropped)
    at = np.flatnonzero(lead.take(hi, mode="clip") - lead < eps)
    at = at[hi[at] < n_pts]
    while at.size:
        hi[at] = np.searchsorted(lead, lead[hi[at]], side="right")
        at = at[hi[at] < n_pts]
        at = at[lead[hi[at]] - lead[at] < eps]
    at = np.flatnonzero(lead[hi - 1] - lead >= eps)
    while at.size:
        hi[at] = np.searchsorted(lead, lead[hi[at] - 1], side="left")
        at = at[lead[hi[at] - 1] - lead[at] >= eps]
    return hi


def _lead_ranges(lead: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """For each row r of the ascending `lead`, the first row and the number
    of rows j with |fl(lead[j] - lead[r])| < eps, which are consecutive.
    The relation is symmetric, so the first is the number of rows whose
    `_upper_edges` is at most r."""
    n_pts = lead.size
    length = _upper_edges(lead, eps)
    lo = np.bincount(length, minlength=n_pts)[:n_pts]
    np.cumsum(lo, out=lo)
    length -= lo
    return lo, length


# a level of the sparse table is read this many candidates at a time, so
# the reads' temporaries stay small however many rows there are
_FLAG_CHUNK = 1 << 16


def _flag_rows(
    rows: np.ndarray | None, lo: np.ndarray, length: np.ndarray, h_cols: list[np.ndarray], target_eps: float
) -> np.ndarray:
    """flag[c]: some row of the range lo[c] .. lo[c] + length[c] - 1 is at
    least `target_eps` in some H column from candidate c, which is row
    rows[c] (row c when `rows` is None).  The candidates ascend, so the
    starts and ends of their ranges do too.

    fl(h_j - h_r) is monotone in h_j, so the range maximum m gives
    fl(m - h_r) >= target exactly when some partner does; the minimum is
    the maximum of -h.  The maxima are a sparse table (Bender &
    Farach-Colton 2000) over only the span of rows the ranges cover, from
    its first row s, built one doubling level at a time: at level k,
    ext[i] = max(h[s + i : s + i + 2^k]), and the candidates whose range
    length lies in [2^k, 2^(k+1)), grouped by level once, read it at both
    ends of their range.
    """
    flag = np.zeros(lo.size, dtype=bool)
    if not lo.size:
        return flag
    start, stop = int(lo[0]), int(lo[-1] + length[-1])
    # a length in [2^k, 2^(k+1)) has bit length k + 1; a range of length 1
    # holds only its own row, so level 0 is not read
    bits = np.frexp(length)[1]
    groups = [np.flatnonzero(bits == k + 1) for k in range(1, int(bits.max()))]
    del bits
    groups = [(sel, sel if rows is None else rows[sel]) for sel in groups]
    for col in h_cols:
        for sign in (1.0, -1.0):
            ext = sign * col[start:stop]
            for k, (sel, at_rows) in enumerate(groups, 1):
                half = 1 << (k - 1)
                np.maximum(ext[:-half], ext[half:], out=ext[:-half])
                for part in range(0, sel.size, _FLAG_CHUNK):
                    some = sel[part : part + _FLAG_CHUNK]
                    own = sign * col[at_rows[part : part + _FLAG_CHUNK]]
                    at = lo[some] - start
                    hit = ext[at] - own >= target_eps
                    at += length[some] - 2 * half
                    hit |= ext[at] - own >= target_eps
                    flag[some] |= hit
    return flag


def _lead_runs(
    order: np.ndarray,
    g_cols: list[np.ndarray],
    h_cols: list[np.ndarray],
    eps: float,
    target_eps: float,
    bound: int,
):
    """Step 1 at one width for a one-coordinate G, over rows sorted on it:
    the sorted order and columns, and among the rows of sample index at
    most `bound`, the first flagged row in sample order, with its lead
    range as its one run.  The flag is exact here, so that row always has
    a witness."""
    lo, length = _lead_ranges(g_cols[0], eps)
    rows = None  # every row, read in place
    if bound < lo.size - 1:
        rows = np.flatnonzero(order <= bound)
        lo, length = lo[rows], length[rows]
    flagged = np.flatnonzero(_flag_rows(rows, lo, length, h_cols, target_eps))
    lo, length = lo[flagged], length[flagged]
    if rows is not None:
        flagged = rows[flagged]
    first = order[flagged].argmin(keepdims=True) if flagged.size else flagged
    return order, g_cols, h_cols, flagged[first], lo[first, None], length[first, None]


def _cell_side(key_cols: list[np.ndarray], eps: float) -> float:
    """A cell side s >= eps such that two rows with fl(|g_j - g_r|) < eps
    in a key column have keys floor(fl(g / s)) at most 1 apart.

    Such a pair's exact gap is below eps, and each quotient is off by at
    most max|g| / s * 2^-53, or 2^-1075 below the normal range, so the
    quotients differ by less than (eps + max|g| * 2^-52) / s + 2^-1074.
    The side is s = fl(b * (1 + 2^-40)), with b the largest of
    eps + max|g| * 2^-50, 2^-960 and range / 2^30.  The rounded sums give
    eps + max|g| * 2^-52 <= b * (1 + 2^-51), and s >= b * (1 + 2^-41), so
    that difference is below 1 at any magnitude (s = inf puts every row in
    one cell).  The term max|g| * 2^-50 also keeps |g / s| <= 2^50, and
    range / 2^30 keeps each column's keys within 2^30 + 2 values, so the
    packed cell key fits in int64.
    """
    top = max(float(np.abs(col).max()) for col in key_cols)
    spread = max(float(col.max() * 2.0**-30 - col.min() * 2.0**-30) for col in key_cols)
    return max(eps + top * 2.0**-50, spread, 2.0**-960) * (1.0 + 2.0**-40)


def _cell_runs(g_cols: list[np.ndarray], h_cols: list[np.ndarray], eps: float, target_eps: float, bound: int):
    """Step 1 at one width for a G family of several coordinates, given in
    sample order: the rows' order sorted on their cell over the first two,
    the columns in that order, and the flagged rows of sample index at
    most `bound` in sample order with the runs of their 3x3 cell
    neighbourhood (`_cell_side`).  Per-cell maxima and minima of each H
    column decide, as in `_flag_rows`, which of those cells can hold a
    witness partner; a cell that cannot gets count 0."""
    n_pts = g_cols[0].size
    side = _cell_side(g_cols[:2], eps)
    kx, ky = (np.floor(col / side).astype(np.int64) for col in g_cols[:2])
    kx -= kx.min()
    ky -= ky.min()
    width = int(ky.max()) + 2  # so a ky one past either end of a column names no cell
    key = kx * width + ky
    order = np.argsort(key, kind="stable")
    key = key[order]
    g_cols = [col[order] for col in g_cols]
    h_cols = [col[order] for col in h_cols]
    new_cell = np.r_[True, key[1:] != key[:-1]]
    first = np.flatnonzero(new_cell)
    cell_of = np.cumsum(new_cell) - 1
    cells = key[first]
    # nbr[:, c]: the nine cells around cell c, -1 where a cell holds no row,
    # which reads the last entry of each array padded for it
    nbr = np.empty((9, cells.size), dtype=np.intp)
    for k, (dx, dy) in enumerate((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)):
        want = cells + (dx * width + dy)
        at = np.minimum(np.searchsorted(cells, want), cells.size - 1)
        nbr[k] = np.where(cells[at] == want, at, -1)
    # per H column and sign, each row's own value and each cell's maximum
    exts = [
        (sign * col, np.r_[np.maximum.reduceat(sign * col, first), -np.inf])
        for col in h_cols
        for sign in (1.0, -1.0)
    ]
    flag = np.zeros(n_pts, dtype=bool)
    for own, ext in exts:
        flag |= ext[nbr].max(axis=0)[cell_of] - own >= target_eps
    rows = np.flatnonzero(flag)
    rows = rows[order[rows] <= bound]
    rows = rows[np.argsort(order[rows])]
    around = nbr[:, cell_of[rows]].T  # one row of nine cells per flagged row
    # the cells that can hold a witness partner of the row, the only ones read
    reach = np.zeros(around.shape, dtype=bool)
    for own, ext in exts:
        reach |= ext[around] - own[rows, None] >= target_eps
    starts = np.r_[first, 0][around]
    counts = np.where(reach, np.r_[np.diff(np.r_[first, n_pts]), 0][around], 0)
    return order, g_cols, h_cols, rows, starts, counts


# a chunk of the scan computes at most this many pairs (more only when one
# row's runs are longer), so its memory stays flat
_CHUNK_PAIRS = 1 << 12


def _scan(
    order: np.ndarray,
    g_cols: list[np.ndarray],
    h_cols: list[np.ndarray],
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    eps: float,
    target_eps: float,
) -> tuple[tuple[int, int] | None, int]:
    """Step 2 at one width, over columns in step 1's sorted `order`: the
    first witness (i, j) in sample indices, and the pairs scanned.  `rows`
    come in sample order, and the partners of rows[k] are its runs
    starts[k, m] .. starts[k, m] + counts[k, m] - 1."""
    per_row = counts.sum(axis=1)
    sizes = np.cumsum(per_row)
    scanned = done = lo = 0
    while lo < rows.size:
        hi = max(lo + 1, int(np.searchsorted(sizes, done + _CHUNK_PAIRS, side="right")))
        count = counts[lo:hi].ravel()
        # the rows of each run, all runs one after another
        shift = np.repeat(starts[lo:hi].ravel() - (np.cumsum(count) - count), count)
        partners = np.arange(shift.size) + shift
        owners = np.repeat(rows[lo:hi], per_row[lo:hi])
        d_g = np.max([np.abs(col[partners] - col[owners]) for col in g_cols], axis=0)
        d_h = np.max([np.abs(col[partners] - col[owners]) for col in h_cols], axis=0)
        hit = (d_g < eps) & (d_h >= target_eps)
        # the rows come in sample order, so a first hit lies in the first
        # witness's own row, the last row whose pairs count
        last = np.searchsorted(sizes, done + hit.argmax(), side="right") if hit.any() else hi - 1
        end = int(sizes[last]) - done
        scanned += int(np.count_nonzero(partners[:end] != owners[:end]))
        if hit.any():
            i, j = order[owners[hit]], order[partners[hit]]
            return divmod(int((np.minimum(i, j) * order.size + np.maximum(i, j)).min()), order.size), scanned
        done, lo = int(sizes[hi - 1]), hi
    return None, scanned


@dataclass(frozen=True)
class Probe:
    """An index sequence n -> parameter value, evaluated on the integer
    schedule start..stop (inclusive)."""

    name: str
    expr: Expr
    start: int = 1
    stop: int = 1000

    def __post_init__(self):
        extra = variables(self.expr) - {"n"}
        if extra:
            raise ValueError(f"probe {self.name} may only use n, found {sorted(extra)}")
        # n is bound as float64, which holds every integer only up to 2**53
        if max(abs(self.start), abs(self.stop)) > 2**53:
            raise ValueError(f"probe {self.name} has a schedule bound beyond 2**53, got {self.start} .. {self.stop}")
        if self.start > self.stop:
            raise ValueError(f"probe {self.name} has an empty schedule")
        # one index is a single point, which no tail can judge Cauchy
        if self.start == self.stop:
            raise ValueError(f"probe {self.name} needs at least two schedule indices, got {self.start} .. {self.stop}")

    def check_tail(self, tail: int) -> None:
        """Refuse a tail longer than the schedule, which would be judged
        over fewer indices than it asks for."""
        if tail > self.stop - self.start + 1:
            raise ValueError(f"tail {tail} is longer than the schedule {self.start} .. {self.stop} of probe {self.name}")


@dataclass(frozen=True)
class CauchyVerdict:
    probe: str
    status: str  # "cauchy" | "escaping" | "undecided"
    oscillation: tuple[tuple[str, float], ...]
    limit: tuple[float, ...] | None

    def max_oscillation(self) -> float:
        return max(o for _, o in self.oscillation)


def probe_points(space: DiffSpace, probe: Probe, tail: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate the last `tail` schedule indices: the indices n, the
    parameter values, and the ambient matrix (one row per index).  A
    tail longer than the schedule is refused.

    Only single-parameter carriers take probes; the index must land inside
    the parameter box, openness included.  A domain error carries the
    position in the tail as its `index`.  When several indices fail, the
    smallest wins, and at one index the probe expression fails before the
    box, and the box before the chart, as in a walk through the tail.
    """
    carrier = space.carrier
    if len(carrier.params) != 1:
        raise ValueError("probes require a single-parameter carrier")
    if tail < 2:
        raise ValueError("tail must be at least 2")
    probe.check_tail(tail)
    ns = np.arange(probe.stop - tail + 1, probe.stop + 1)
    box = carrier.box[0]
    # each stage runs on the indices before the earliest failure so far, so
    # a later stage can only raise at a smaller index
    values, (failure,) = sweep([probe.expr], {"n": ns})
    values = values[: failure.index if failure else None, 0]
    outside = np.flatnonzero(~box.contains(values))
    if outside.size:
        k = int(outside[0])
        message = f"probe {probe.name} leaves the box at n={ns[k]}: {values[k].item()!r} not in {box}"
        failure = DomainError(message, probe.expr, k)
        values = values[:k]
    ambient = chart_columns(carrier, values[:, None])
    if failure is not None:
        raise failure
    return ns, values, ambient


def probe_cauchy(space: DiffSpace, probe: Probe, tol: float = 1e-6, tail: int = 50) -> CauchyVerdict:
    """Classify the probe over its tail window.

    cauchy: every generator coordinate stays within tol across the tail;
    the limit is the clamped coordinate-wise tail mean.  escaping: some
    coordinate's running oscillation grows strictly with every new tail
    point and ends beyond 10*tol.  That is monotone flight within the
    tail, not divergence: a probe converging slowly and monotonically
    escapes at an early stop (``3/n`` under ``f = x`` with tol 1e-6 and
    tail 50 escapes at stop 400, is undecided at 10^4 and cauchy at
    10^6).  Anything else is undecided.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    _, _, ambient = probe_points(space, probe, tail)
    coords = generator_columns(space, ambient)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    spread = hi - lo
    oscillation = tuple(zip(space.family.names, spread.tolist()))
    if (spread <= tol).all():
        # summed in tail order, as a running sum does; np.mean sums pairwise
        mean = np.cumsum(coords, axis=0)[-1] / len(coords)
        limit = np.minimum(np.maximum(mean, lo), hi)
        return CauchyVerdict(probe.name, "cauchy", oscillation, tuple(limit.tolist()))
    # a coordinate grows strictly when each new value lies outside the
    # range of the values before it
    lo_before = np.minimum.accumulate(coords, axis=0)[:-1]
    hi_before = np.maximum.accumulate(coords, axis=0)[:-1]
    grows = ((coords[1:] < lo_before) | (coords[1:] > hi_before)).all(axis=0)
    if (grows & (spread > 10.0 * tol)).any():
        return CauchyVerdict(probe.name, "escaping", oscillation, None)
    return CauchyVerdict(probe.name, "undecided", oscillation, None)
