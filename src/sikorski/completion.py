"""Probe-based completion of an embedded space.

A probe whose generator coordinates settle within tolerance contributes
its limit tuple as a new point; every generator extends to the new points
by reading off its coordinate.  Completions over nested families are
connected by coordinate projection, which is the desk-scale form of the
canonical map between completions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import BinOp, Expr, Pow
from .space import DiffSpace, EmbeddedCloud, Generator, GeneratorFamily, embed
from .uniform import CauchyVerdict, Probe, probe_cauchy

__all__ = [
    "AdjoinedPoint",
    "CompletedSpace",
    "IotaEntry",
    "IotaReport",
    "DEDUP_TOL",
    "complete",
    "iota",
    "maximal_family",
]

# two limit tuples (or a limit and a sample) closer than this in every
# coordinate are the same completion point
DEDUP_TOL = 1e-9
MAX_MONOMIALS = 1000  # the largest family `maximal_family` builds


@dataclass(frozen=True)
class AdjoinedPoint:
    probe: str
    coords: tuple[float, ...]


@dataclass(frozen=True)
class CompletedSpace:
    base: EmbeddedCloud
    adjoined: tuple[AdjoinedPoint, ...]
    verdicts: tuple[CauchyVerdict, ...]
    duplicates: tuple[str, ...]  # probes whose limit was already present

    @property
    def names(self) -> tuple[str, ...]:
        return self.base.names

    def all_coords(self) -> np.ndarray:
        """Base coordinates, then adjoined ones: one row per point."""
        adjoined = np.array([a.coords for a in self.adjoined], dtype=float)
        return np.vstack([self.base.coords, adjoined.reshape(-1, len(self.names))])


def _near(rows: np.ndarray, point: Sequence[float]) -> np.ndarray:
    """Which rows lie within DEDUP_TOL of `point` in every coordinate."""
    return np.all(np.abs(rows - np.asarray(point, dtype=float)) <= DEDUP_TOL, axis=1)


def complete(space: DiffSpace, probes: Sequence[Probe], tol: float = 1e-6, tail: int = 50) -> CompletedSpace:
    """Adjoin the limit of every Cauchy probe, deduplicating against the
    embedded samples (for probes settled within DEDUP_TOL) and earlier
    probes in declaration order."""
    names = [p.name for p in probes]
    if len(set(names)) != len(names):
        raise ValueError("duplicate probe names")
    base = embed(space)
    verdicts = []
    adjoined: list[AdjoinedPoint] = []
    duplicates: list[str] = []
    for probe in probes:
        verdict = probe_cauchy(space, probe, tol=tol, tail=tail)
        verdicts.append(verdict)
        if verdict.status != "cauchy":
            continue
        assert verdict.limit is not None
        # a sample realizes the limit only if the probe has settled: the tail
        # mean of a probe still moving by more than DEDUP_TOL can pass within
        # DEDUP_TOL of a sample it is not converging to
        settled = verdict.max_oscillation() <= DEDUP_TOL
        earlier = np.array([a.coords for a in adjoined], dtype=float).reshape(-1, len(verdict.limit))
        known = (settled and _near(base.coords, verdict.limit).any()) or _near(earlier, verdict.limit).any()
        if known:
            duplicates.append(probe.name)
        else:
            adjoined.append(AdjoinedPoint(probe.name, verdict.limit))
    return CompletedSpace(base, tuple(adjoined), tuple(verdicts), tuple(duplicates))


@dataclass(frozen=True)
class IotaEntry:
    """Where one adjoined point of the larger completion lands."""

    source: str  # "adjoined:<probe>"
    target: str  # "base:<index>" or "adjoined:<probe>"
    coords: tuple[float, ...]  # projected coordinates in the smaller family


@dataclass(frozen=True, eq=False)
class IotaReport:
    sub_names: tuple[str, ...]
    base: np.ndarray  # projected coordinates of base point i, which lands on base point i
    entries: tuple[IotaEntry, ...]
    residuals: tuple[tuple[str, float], ...]  # per sub-family generator
    uncovered: tuple[str, ...]  # sub-completion points outside the image

    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)


def iota(cs_full: CompletedSpace, cs_sub: CompletedSpace) -> IotaReport:
    """The canonical map from the completion over the larger family to the
    completion over a subfamily: identity on base points, coordinate
    projection on adjoined points.

    The report records where each point lands, the worst disagreement
    between the projected extension values and the subfamily's own
    extension, and which subfamily completion points the map misses.
    """
    sub_names = cs_sub.names
    missing = set(sub_names) - set(cs_full.names)
    if missing:
        raise ValueError(f"subfamily is not contained in the full family: {sorted(missing)}")
    if not np.array_equal(cs_full.base.ambient, cs_sub.base.ambient):
        raise ValueError("completions were built over different sample clouds")
    projection = [cs_full.names.index(n) for n in sub_names]

    base = cs_full.base.coords[:, projection]
    gaps = np.max(np.abs(base - cs_sub.base.coords), axis=0, initial=0.0).tolist()
    residual = dict(zip(sub_names, gaps))
    entries: list[IotaEntry] = []
    covered: set[str] = set()
    sub_by_probe = {a.probe: a for a in cs_sub.adjoined}
    sub_rows = cs_sub.all_coords()
    n_base = len(cs_sub.base.coords)
    for adj in cs_full.adjoined:
        projected = tuple(adj.coords[k] for k in projection)
        if adj.probe in sub_by_probe:
            target_label, target_coords = f"adjoined:{adj.probe}", sub_by_probe[adj.probe].coords
        else:
            # the probe's limit was realized in the subfamily completion by
            # an embedded sample (or an earlier probe); the first one wins
            hits = np.flatnonzero(_near(sub_rows, projected))
            if not hits.size:
                raise ValueError(
                    f"no target for probe {adj.probe}: run both completions with the same probes"
                )
            i = int(hits[0])
            if i < n_base:
                target_label, target_coords = f"base:{i}", tuple(sub_rows[i].tolist())
            else:
                target = cs_sub.adjoined[i - n_base]
                target_label, target_coords = f"adjoined:{target.probe}", target.coords
        if target_label.startswith("adjoined:"):
            covered.add(target_label.split(":", 1)[1])
        for n, a, b in zip(sub_names, projected, target_coords):
            residual[n] = max(residual[n], abs(a - b))
        entries.append(IotaEntry(f"adjoined:{adj.probe}", target_label, projected))
    uncovered = tuple(a.probe for a in cs_sub.adjoined if a.probe not in covered)
    residuals = tuple((n, residual[n]) for n in sub_names)
    return IotaReport(sub_names, base, tuple(entries), residuals, uncovered)


def maximal_family(family: GeneratorFamily, degree: int) -> GeneratorFamily:
    """All monomials in the base generators up to the given total degree,
    as a stand-in for the full structure: the richest family this package
    can write down from a finite basis.  Its size, C(degree + k, k) - 1
    for k base generators, is checked against MAX_MONOMIALS before any
    monomial is built."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    base = family.generators
    size = math.comb(degree + len(base), len(base)) - 1
    if size > MAX_MONOMIALS:
        raise ValueError(
            f"degree {degree} over {len(base)} generator(s) gives {size} monomials,"
            f" more than {MAX_MONOMIALS}"
        )
    out = []
    # by degree, then reverse-lex exponent vector: f, g, f^2, f*g, g^2, ...
    for total in range(1, degree + 1):
        for picks in itertools.combinations_with_replacement(range(len(base)), total):
            name_parts = []
            expr: Expr | None = None
            for i, run in itertools.groupby(picks):
                gen, k = base[i], len(list(run))
                name_parts.append(gen.name if k == 1 else f"{gen.name}^{k}")
                factor = gen.expr if k == 1 else Pow(gen.expr, k)
                expr = factor if expr is None else BinOp("*", expr, factor)
            assert expr is not None
            out.append(Generator("*".join(name_parts), expr))
    return GeneratorFamily(tuple(out))
