"""Machine checks of the family's structural guarantees: unique midpoint
paths for parity-matching endpoint pairs, and the closure-counting bound for
arbitrary valid labelings."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .family_gen import KIND_G, KIND_H, FamilyInstance, unique_path_length
from .graph_core import (
    WeightedGraph,
    all_pairs,
    count_shortest_paths,
    distances_from,
)
from .hub_labeling import CoverReport, HubLabeling, monotone_closure, verify_cover


@dataclass(frozen=True)
class TripletReport:
    checked: int
    unique_ok: int
    midpoint_ok: int
    failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.failures and self.checked == self.unique_ok == self.midpoint_ok


def parity_pairs(params) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (x, z) coordinate pairs whose difference is even in every
    coordinate; there are s^ell * (s/2)^ell of them."""
    s = params.s
    for x in itertools.product(range(s), repeat=params.ell):
        steps = [range(xk % 2, s, 2) for xk in x]
        for z in itertools.product(*steps):
            yield x, z


def _audit_one_pair(g: WeightedGraph, inst: FamilyInstance, x, z, dists_from):
    params = inst.params
    u = inst.id_of(0, x)
    v = inst.id_of(2 * params.ell, z)
    mid_coords = tuple((xk + zk) // 2 for xk, zk in zip(x, z))
    mid = inst.id_of(params.ell, mid_coords)
    du = dists_from(u)
    dv = dists_from(v)
    problems = []
    duv = int(du[v])
    if duv != unique_path_length(params, x, z):
        problems.append("length")
    count = count_shortest_paths(g, u, v, dists_u=du, dists_v=dv)
    unique = count == 1
    if not unique:
        problems.append(f"count={count}")
    midpoint = int(du[mid]) >= 0 and int(dv[mid]) >= 0 and int(du[mid]) + int(dv[mid]) == duv
    if not midpoint:
        problems.append("midpoint")
    return unique, midpoint, problems


def audit_lemma1(
    inst: FamilyInstance,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> TripletReport:
    """Check uniqueness and midpoint membership for parity-matching endpoint
    pairs, exhaustively or on a seeded sample of at least one pair."""
    if inst.kind not in (KIND_H, KIND_G):
        raise ValueError("audit applies to H or G instances, not deleted variants")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    pairs = list(parity_pairs(inst.params))
    if sample is not None and sample < len(pairs):
        rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), 7]))
        picks = rng.choice(len(pairs), size=sample, replace=False)
        pairs = [pairs[int(i)] for i in sorted(picks)]
    g = inst.graph
    # Pairs share endpoints: search from each distinct endpoint once.
    dists: dict[int, np.ndarray] = {}

    def dists_from(v: int) -> np.ndarray:
        if v not in dists:
            dists[v] = distances_from(g, v)
        return dists[v]

    checked = unique_ok = midpoint_ok = 0
    failures = []
    for x, z in pairs:
        checked += 1
        unique, midpoint, problems = _audit_one_pair(g, inst, x, z, dists_from)
        unique_ok += unique
        midpoint_ok += midpoint
        if problems:
            failures.append((x, z, tuple(problems)))
    failures.sort()
    return TripletReport(
        checked=checked,
        unique_ok=unique_ok,
        midpoint_ok=midpoint_ok,
        failures=tuple(failures),
    )


class InvalidCoverError(ValueError):
    """The labeling handed to the counting audit is not a valid cover;
    `report` is its CoverReport."""

    def __init__(self, report: CoverReport):
        self.report = report
        super().__init__(
            f"labeling is not a valid cover ({report.uncovered_total} uncovered pairs)"
        )


@dataclass(frozen=True)
class CountingReport:
    lhs: int
    rhs: int
    triplets: int
    membership_failures: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return self.lhs >= self.rhs and not self.membership_failures


def counting_rhs(params) -> int:
    """(s^ell)^2 / 2^ell, the closure-size floor forced by the triplets."""
    return (params.level_size**2) >> params.ell


def audit_counting(inst: FamilyInstance, hl: HubLabeling) -> CountingReport:
    """Closure-counting audit: every triplet's midpoint must sit in the closure
    of one endpoint, and total closure size must reach the counting floor.

    The labeling must pass cover verification first; an invalid labeling
    raises InvalidCoverError, not a reported failure.
    """
    g = inst.graph
    dm = all_pairs(g)
    report = verify_cover(hl, dm)
    if not report.valid:
        raise InvalidCoverError(report)
    closed = monotone_closure(hl, dm)
    params = inst.params
    triplets, ends = [], []
    for x, z in parity_pairs(params):
        y = tuple((xk + zk) // 2 for xk, zk in zip(x, z))
        triplets.append((x, y, z))
        ends.append((inst.id_of(0, x), inst.id_of(params.ell, y), inst.id_of(2 * params.ell, z)))
    xv, yv, zv = np.array(ends, dtype=np.int64).reshape(-1, 3).T
    held = closed.owners() * g.n + closed.hub
    missed = ~np.isin(xv * g.n + yv, held) & ~np.isin(zv * g.n + yv, held)
    failures = [t for t, bad in zip(triplets, missed.tolist()) if bad]
    return CountingReport(
        lhs=closed.total_size,
        rhs=counting_rhs(params),
        triplets=len(triplets),
        membership_failures=tuple(sorted(failures)),
    )
