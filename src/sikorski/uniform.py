"""Uniform structures induced by generator families.

Each finite tuple of generators and each eps > 0 give a basic entourage:
the pairs of points whose images under every listed generator differ by
strictly less than eps.  Comparing the uniformities of two families is a
counterexample search over the sampled cloud; probe sequences supply the
Cauchy data that completion consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import DomainError, Expr, eval_array, eval_expr, variables
from .space import DiffSpace, chart_columns, embed, generator_columns

__all__ = [
    "Entourage",
    "Probe",
    "CauchyVerdict",
    "RefinementRow",
    "RefinementReport",
    "entourage_contains",
    "pseudometric",
    "compare_uniformities",
    "probe_points",
    "probe_cauchy",
]


@dataclass(frozen=True)
class Entourage:
    """V(f1..fk, eps): the basic entourage carved out by finitely many
    generators at width eps (strict inequality)."""

    names: tuple[str, ...]
    eps: float

    def __post_init__(self):
        if not self.names:
            raise ValueError("an entourage needs at least one generator")
        if not (self.eps > 0.0):
            raise ValueError("entourage width must be positive")

    def describe(self) -> str:
        return f"V({','.join(self.names)};{self.eps!r})"


def _family_values(space: DiffSpace, names: Sequence[str], point: Sequence[float]) -> list[float]:
    env = dict(zip(space.carrier.ambient, point))
    return [eval_expr(space.family.get(n).expr, env) for n in names]


def entourage_contains(space: DiffSpace, v: Entourage, x: Sequence[float], y: Sequence[float]) -> bool:
    fx = _family_values(space, v.names, x)
    fy = _family_values(space, v.names, y)
    return all(abs(a - b) < v.eps for a, b in zip(fx, fy))


def pseudometric(space: DiffSpace, names: Sequence[str], x: Sequence[float], y: Sequence[float]) -> float:
    """Largest generator gap over the listed family; the finite-family
    pseudometric whose balls are the basic entourages."""
    names = tuple(names)
    if not names:
        raise ValueError("pseudometric needs at least one generator")
    fx = _family_values(space, names, x)
    fy = _family_values(space, names, y)
    return max(abs(a - b) for a, b in zip(fx, fy))


@dataclass(frozen=True)
class RefinementRow:
    target: str
    candidate_eps: float
    refines: bool
    # the witness samples' parameter values, as the refinement.csv header names them
    witness_x: tuple[float, ...] | None
    witness_y: tuple[float, ...] | None
    d_g: float | None
    violated: str | None


@dataclass(frozen=True)
class RefinementReport:
    g_names: tuple[str, ...]
    h_names: tuple[str, ...]
    sample_count: int
    rows: tuple[RefinementRow, ...]
    # sample pairs whose d_G and d_H the search computed: the scan of each
    # width's first flagged row, plus every pair of the offset sweep
    pairs_examined: int

    def all_refine(self) -> bool:
        return all(row.refines for row in self.rows)


def compare_uniformities(
    space: DiffSpace,
    g_names: Sequence[str],
    h_names: Sequence[str],
    eps_grid: Sequence[float],
    target_eps: float = 1.0,
) -> RefinementReport:
    """Ask whether the G-uniformity refines the H-entourage of width
    `target_eps` at each candidate width in `eps_grid`.

    Verdicts are relative to the sampled cloud: a witness is a genuine
    counterexample pair, while "refines" says no sampled pair violates the
    target.  The search is exhaustive over sampled pairs: every pair it
    does not compute is excluded by an exact bound.  The first witness in
    lexicographic sample order wins, which keeps reports reproducible.
    """
    g_names = tuple(g_names)
    h_names = tuple(h_names)
    if not g_names:
        raise ValueError("the G family needs at least one generator")
    if not (target_eps > 0.0) or any(not (e > 0.0) for e in eps_grid):
        raise ValueError("entourage widths must be positive")
    all_names = g_names + tuple(n for n in h_names if n not in g_names)
    cloud = embed(space.with_generators(all_names))
    coords = cloud.coords
    n_pts = coords.shape[0]
    g_idx = [all_names.index(n) for n in g_names]
    h_idx = [all_names.index(n) for n in h_names]
    target = Entourage(h_names, target_eps)

    # fixed-radius near neighbours (Bentley, Stanat & Williams 1977) in rows
    # sorted on the lead G coordinate: a row's partners whose lead gap is
    # below eps form one contiguous range, and d_G is at least that gap.
    # Step 1 flags each row whose range holds a partner at d_H >= target,
    # from range maxima and minima of each H column; every row with a
    # witness is flagged, and with one G coordinate only those are.  Step 2
    # scans the range of the flagged row with the smallest sample index.
    # The witness relation is symmetric, so a hit there is the first
    # witness in lexicographic order.  A miss (possible only when G has
    # more coordinates) leaves the width to the offset sweep.
    order = np.argsort(coords[:, g_idx[0]], kind="stable")
    g_cols = [coords[order, k] for k in g_idx]
    h_cols = [coords[order, k] for k in h_idx]
    witnesses, examined, unconfirmed = [], 0, []
    for w, eps in enumerate(eps_grid):
        flagged, witness, scanned = _range_search(order, g_cols, h_cols, eps, target_eps)
        witnesses.append(witness)
        examined += scanned
        if flagged and witness is None:
            unconfirmed.append(w)
    if unconfirmed:
        swept, scanned = _offset_sweep(order, g_cols, h_cols, [eps_grid[w] for w in unconfirmed], target_eps)
        for w, witness in zip(unconfirmed, swept):
            witnesses[w] = witness
        examined += scanned

    rows = []
    for eps, witness in zip(map(float, eps_grid), witnesses):
        if witness is None:
            rows.append(RefinementRow(target.describe(), eps, True, None, None, None, None))
        else:
            i, j = witness
            d_g = float(max(abs(coords[i, k] - coords[j, k]) for k in g_idx))
            violated = next(
                n for n, k in zip(h_names, h_idx) if abs(coords[i, k] - coords[j, k]) >= target_eps
            )
            x, y = (tuple(cloud.params[k].tolist()) for k in (i, j))
            rows.append(RefinementRow(target.describe(), eps, False, x, y, d_g, violated))
    return RefinementReport(g_names, h_names, n_pts, tuple(rows), examined)


def _upper_edges(lead: np.ndarray, eps: float) -> np.ndarray:
    """For each row r of the ascending `lead`, one past the last row j with
    fl(lead[j] - lead[r]) < eps.  Rounding is monotone, so the test holds
    on a prefix of the rows."""
    n_pts = lead.size
    hi = np.searchsorted(lead, lead + eps, side="left")
    # lead + eps is rounded, so the edge can sit a few values off: move it
    # over a whole run of equal values per round, up and then down
    rows = np.flatnonzero(hi < n_pts)
    while rows.size:
        rows = rows[lead[hi[rows]] - lead[rows] < eps]
        hi[rows] = np.searchsorted(lead, lead[hi[rows]], side="right")
        rows = rows[hi[rows] < n_pts]
    rows = np.flatnonzero(lead[hi - 1] - lead >= eps)
    while rows.size:
        hi[rows] = np.searchsorted(lead, lead[hi[rows] - 1], side="left")
        rows = rows[lead[hi[rows] - 1] - lead[rows] >= eps]
    return hi


def _flag_rows(lo: np.ndarray, length: np.ndarray, h_cols: list[np.ndarray], target_eps: float) -> np.ndarray:
    """flag[r]: some row of the range lo[r] .. lo[r] + length[r] - 1 is at
    least `target_eps` from row r in some H column.

    fl(h_j - h_r) is monotone in h_j, so the range maximum m gives
    fl(m - h_r) >= target exactly when some partner does; the minimum is
    the maximum of -h.  The maxima are a sparse table (Bender &
    Farach-Colton 2000) built one doubling level at a time: at level k,
    ext[i] = max(h[i:i + 2^k]), and the rows whose range length lies in
    [2^k, 2^(k+1)) read it at both ends of their range.
    """
    flag = np.zeros(lo.size, dtype=bool)
    levels = int(length.max(initial=0)).bit_length()
    for col in h_cols:
        for sign in (1.0, -1.0):
            ext = sign * col
            for k in range(1, levels):  # a range of length 1 holds only its own row
                half = 1 << (k - 1)
                np.maximum(ext[:-half], ext[half:], out=ext[:-half])
                rows = np.flatnonzero((length >> k) == 1)
                own = sign * col[rows]
                at = lo[rows]
                hit = ext[at] - own >= target_eps
                at += length[rows] - 2 * half
                hit |= ext[at] - own >= target_eps
                flag[rows] |= hit
    return flag


def _range_search(
    order: np.ndarray,
    g_cols: list[np.ndarray],
    h_cols: list[np.ndarray],
    eps: float,
    target_eps: float,
) -> tuple[bool, tuple[int, int] | None, int]:
    """Steps 1 and 2 at one width: whether any row is flagged, the first
    witness (i, j) if the first flagged row has one, and the pairs scanned."""
    # the rows j with |fl(lead[j] - lead[r])| < eps: fl(-a - -b) is
    # fl(b - a), so the lower edges are the upper edges of -lead reversed
    lead = g_cols[0]
    lo = lead.size - _upper_edges(-lead[::-1], eps)[::-1]
    length = _upper_edges(lead, eps)
    length -= lo
    flagged = np.flatnonzero(_flag_rows(lo, length, h_cols, target_eps))
    if not flagged.size:
        return False, None, 0
    p = flagged[np.argmin(order[flagged])]
    partners = np.r_[lo[p]:p, p + 1 : lo[p] + length[p]]
    d_g = np.max([np.abs(col[partners] - col[p]) for col in g_cols], axis=0)
    d_h = np.max([np.abs(col[partners] - col[p]) for col in h_cols], axis=0)
    hits = order[partners[(d_g < eps) & (d_h >= target_eps)]]
    witness = (int(order[p]), int(hits.min())) if hits.size else None
    return True, witness, partners.size


def _offset_sweep(
    order: np.ndarray,
    g_cols: list[np.ndarray],
    h_cols: list[np.ndarray],
    widths: list[float],
    target_eps: float,
) -> tuple[list[tuple[int, int] | None], int]:
    """The first witness at each width by comparing rows k apart in lead
    order, k = 1, 2, ...; and the pairs whose gaps it computed.  The lead
    gap between rows k apart never shrinks as k grows, so the sweep ends
    at the first offset where no lead gap is below the widest width."""
    n_pts = order.size
    lead = g_cols[0]
    widest = max(widths)
    unset = n_pts * n_pts  # the witness (i, j) is kept as the key i * n_pts + j
    best = [unset] * len(widths)
    examined = 0
    for k in range(1, n_pts):
        d_g = lead[k:] - lead[:-k]  # never negative: the rows are sorted on it
        if not (d_g < widest).any():
            break
        examined += n_pts - k
        for col in g_cols[1:]:
            np.maximum(d_g, np.abs(col[k:] - col[:-k]), out=d_g)
        d_h = np.abs(h_cols[0][k:] - h_cols[0][:-k])
        for col in h_cols[1:]:
            np.maximum(d_h, np.abs(col[k:] - col[:-k]), out=d_h)
        p = np.flatnonzero((d_g < widest) & (d_h >= target_eps))
        i, j, d_g = order[p], order[p + k], d_g[p]
        keys = np.minimum(i, j) * n_pts + np.maximum(i, j)
        best = [int(keys[d_g < eps].min(initial=b)) for b, eps in zip(best, widths)]
    return [None if key == unset else divmod(key, n_pts) for key in best], examined


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
        if self.start > self.stop:
            raise ValueError(f"probe {self.name} has an empty schedule")
        # one index is a single point, which no tail can judge Cauchy
        if self.start == self.stop:
            raise ValueError(f"probe {self.name} needs at least two schedule indices, got {self.start} .. {self.stop}")


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
    parameter values, and the ambient matrix (one row per index).

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
    ns = np.arange(max(probe.start, probe.stop - tail + 1), probe.stop + 1)
    box = carrier.box[0]
    # each stage runs on the indices before the earliest failure so far, so
    # a later stage can only raise at a smaller index
    failure = None
    try:
        values = eval_array(probe.expr, {"n": ns})
    except DomainError as err:
        failure = err
        values = eval_array(probe.expr, {"n": ns[: err.index]})
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
