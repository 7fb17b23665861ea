"""Constructive hub-labeling pipeline for sparse graphs.

Stages: a random cover set for pairs with many hub candidates, a random
coloring whose conflicts are stored outright, per-(a,b,h) bucket matchings
whose endpoints collect hubs, and final assembly. Includes the average-degree
to max-degree reduction via zero-weight vertex splitting. The stages only
build; build_for_graph checks the size ledger and the cover once.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    DEFAULT_PAIR_CAP,
    WeightedGraph,
    all_pairs,
    shortest_path_hits,
)
from .hub_labeling import CoverReport, HubLabeling, verify_cover

#: Rows per block of the membership masks in assemble.
_ASSEMBLE_ROWS = 256


class ResampleExhausted(RuntimeError):
    """No sample met its size budget within max_resamples attempts."""


class CoverVerificationError(RuntimeError):
    """An assembled or projected labeling failed cover verification.

    Indicates an implementation bug, not an input condition.
    """


class InducedMatchingViolation(RuntimeError):
    """A bucket matching failed the induced-matching invariant."""

    def __init__(self, a, b, h, other, u, v):
        self.bucket = (a, b, h)
        self.other = other
        self.pair = (u, v)
        super().__init__(
            f"matching of bucket (a={a}, b={b}, h={h}) is not induced: "
            f"pair ({u},{v}) from h'={other} joins its endpoint sides"
        )


@dataclass(frozen=True)
class BuilderConfig:
    """Threshold D (None selects max(2, ceil(sqrt(ln n)))), RNG seed, and the
    resampling budget."""

    D: int | None = None
    seed: int = 0
    max_resamples: int = 32

    def __post_init__(self):
        if self.D is not None and self.D < 1:
            raise ValueError("D must be >= 1")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be >= 1")


@dataclass
class BuilderArtifacts:
    S: frozenset[int]
    Q: dict[int, frozenset[int]]
    R: dict[int, frozenset[int]]
    F: dict[int, frozenset[int]]
    colors: tuple[int, ...]
    matchings_log: dict[tuple[int, int, int], int]


def resolve_threshold(n: int, D: int | None) -> int:
    if D is not None:
        return D
    if n < 2:
        return 2
    return max(2, math.ceil(math.sqrt(math.log(n))))


def _rng(seed: int, stage: int, attempt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), stage, attempt]))


def _resample(cfg: BuilderConfig, stage: int, name: str, n: int, D: int, draw):
    """Call draw(rng) on the stage's per-attempt streams until the sample size
    it returns with its result meets the 2 n^2 / D budget; returns
    (result, attempts)."""
    for attempt in range(cfg.max_resamples):
        result, sample_size = draw(_rng(cfg.seed, stage, attempt))
        if sample_size * D <= 2 * n * n:
            return result, attempt + 1
    raise ResampleExhausted(
        f"{name} stage missed the {2 * n * n}/{D} budget {cfg.max_resamples} times"
    )


# -- shared pair classification ----------------------------------------------


@dataclass
class PairIndex:
    """Per-graph classification of vertex pairs by candidate-set size.

    small holds the explicit candidate set for every pair with |H_uv| <= D
    (keys u < v). big[u, v] (upper triangle only) marks the reachable pairs
    with |H_uv| >= D. A path of length d has at least ceil(d / wmax) edges,
    so |H_uv| > D whenever d(u,v) > r = (D - 1) * wmax, and only the pairs
    within r need explicit counts. "Forced" pairs (|H_uv| < D at distance
    > D, possible only with weights above 1) are left to the cover stage.
    """

    n: int
    D: int
    small: dict[tuple[int, int], tuple[int, ...]]
    small_dist: dict[tuple[int, int], int]
    forced: tuple[tuple[int, int], ...]
    big: np.ndarray


def build_pair_index(dm, D: int, *, zero_one: bool = False) -> PairIndex:
    # zero_one selects nothing; perfbench's composed build still passes it.
    n = dm.n
    mat = dm.matrix()
    w = dm.graph.edge_arrays()[2]
    r = (D - 1) * (int(w.max()) if w.size else 1)
    big = np.triu(mat > r, 1)
    small: dict[tuple[int, int], tuple[int, ...]] = {}
    small_dist: dict[tuple[int, int], int] = {}
    for u in range(n):
        ru = mat[u]
        ball = np.flatnonzero((ru >= 0) & (ru <= r))
        close = ball[ball > u]
        if close.size == 0:
            continue
        # every candidate of a pair within r lies in u's ball
        mask = mat[ball[:, None], close] + ru[ball, None] == ru[close]
        counts = mask.sum(axis=0)
        big[u, close[counts >= D]] = True
        for j in np.flatnonzero(counts <= D).tolist():
            v = int(close[j])
            small[(u, v)] = tuple(ball[mask[:, j]].tolist())
            small_dist[(u, v)] = int(ru[v])
    forced = tuple(
        sorted(
            (u, v)
            for (u, v), H in small.items()
            if len(H) < D and small_dist[(u, v)] > D
        )
    )
    return PairIndex(n, D, small, small_dist, forced, big)


def _given_or_built(dm, cfg: BuilderConfig, index: PairIndex | None) -> PairIndex:
    if index is None:
        index = build_pair_index(dm, resolve_threshold(dm.n, cfg.D))
    return index


# -- stage 1: random cover set ------------------------------------------------


def _sample_cover(dm, cfg: BuilderConfig, index: PairIndex):
    """(S, Q, attempts); Q holds the big pairs S misses plus the forced pairs."""
    n = dm.n
    D = index.D
    if D == 1 or n == 0:
        # Degenerate threshold: the stage is skipped and all pairs flow to the
        # coloring and matching stages.
        return frozenset(), {}, 0
    s_size = math.ceil((n / D) * math.log(D))

    def draw(rng):
        s_arr = np.sort(rng.choice(n, size=s_size, replace=False))
        s_mask = np.zeros(n, dtype=bool)
        s_mask[s_arr] = True
        miss = index.big & ~shortest_path_hits(dm, s_mask)
        return (s_arr, miss), int(miss.sum())

    (s_arr, miss), attempts = _resample(cfg, 1, "cover-set", n, D, draw)
    rows = np.flatnonzero(miss.any(axis=1)).tolist()
    out = {u: set(np.flatnonzero(miss[u]).tolist()) for u in rows}
    for (u, v) in index.forced:
        out.setdefault(u, set()).add(v)
    final = {u: frozenset(vs) for u, vs in out.items()}
    return frozenset(int(x) for x in s_arr), final, attempts


def sample_cover_set(dm, cfg: BuilderConfig, *, index: PairIndex | None = None):
    """(S, Q): a uniform cover set of size ceil((n/D) ln D) plus the pairs it
    leaves uncovered, resampled until sum |Q_v| <= 2 n^2 / D."""
    return _sample_cover(dm, cfg, _given_or_built(dm, cfg, index))[:2]


# -- stage 2: random coloring --------------------------------------------------


def _has_conflict(colors: list[int], H) -> bool:
    seen = set()
    for h in H:
        c = colors[h]
        if c in seen:
            return True
        seen.add(c)
    return False


def _sample_colors(dm, cfg: BuilderConfig, index: PairIndex):
    """(colors, R, attempts)."""
    n = dm.n
    D = index.D
    if D == 1:
        # One color: every candidate set of two or more vertices conflicts, so
        # every reachable pair is stored outright.
        mat = dm.matrix()
        r = {}
        for u in range(n):
            vs = np.flatnonzero(mat[u] >= 0)
            vs = vs[vs > u]
            if vs.size:
                r[u] = frozenset(int(v) for v in vs)
        return (1,) * n, r, 1

    def draw(rng):
        colors = rng.integers(1, D**3 + 1, size=n).tolist()
        r: dict[int, set[int]] = {}
        for (u, v), H in index.small.items():
            if _has_conflict(colors, H):
                r.setdefault(u, set()).add(v)
        return (colors, r), sum(len(vs) for vs in r.values())

    (colors, r), attempts = _resample(cfg, 2, "coloring", n, D, draw)
    return tuple(colors), {u: frozenset(vs) for u, vs in r.items()}, attempts


def sample_coloring(dm, cfg: BuilderConfig, *, index: PairIndex | None = None):
    """(colors, R): uniform colors in [1, D^3] and, for every pair with a
    small candidate set, the partners whose set got a repeated color."""
    return _sample_colors(dm, cfg, _given_or_built(dm, cfg, index))[:2]


# -- stage 3: bucket matchings --------------------------------------------------


def _check_induced(groups):
    for (a, b, _color), items in groups.items():
        union: dict[tuple[int, int], int] = {}
        for h, mm in items:
            for e in mm:
                union.setdefault(e, h)
        for h, mm in items:
            mmset = set(mm)
            left = {x for x, _ in mm}
            right = {y for _, y in mm}
            for (x, y), origin in union.items():
                if x in left and y in right and (x, y) not in mmset:
                    raise InducedMatchingViolation(a, b, h, origin, x, y)


def build_matchings(dm, colors, cfg: BuilderConfig, *, index: PairIndex | None = None):
    """(F, matchings_log): greedy maximal matchings per (a, b, h) bucket over
    conflict-free small pairs; matched endpoints collect h, and every vertex
    holds itself. Runtime-checks the induced-matching invariant."""
    n = dm.n
    index = _given_or_built(dm, cfg, index)
    D = index.D
    colors = list(colors)
    mat = dm.matrix()
    buckets: dict[tuple[int, int, int], list[tuple[int, int]]] = defaultdict(list)
    for (u, v) in sorted(index.small):
        d = index.small_dist[(u, v)]
        if d > D:
            continue  # routed through the cover stage as a forced pair
        H = index.small[(u, v)]
        if _has_conflict(colors, H):
            continue
        for h in H:
            a = int(mat[u, h])
            b = int(mat[h, v])
            buckets[(a, b, h)].append((u, v))
            buckets[(b, a, h)].append((v, u))
    F: dict[int, set[int]] = {v: {v} for v in range(n)}
    log: dict[tuple[int, int, int], int] = {}
    groups: dict[tuple[int, int, int], list] = defaultdict(list)
    for key in sorted(buckets):
        a, b, h = key
        left_used: set[int] = set()
        right_used: set[int] = set()
        mm = []
        for x, y in sorted(buckets[key]):
            if x not in left_used and y not in right_used:
                mm.append((x, y))
                left_used.add(x)
                right_used.add(y)
        log[key] = len(mm)
        for x, y in mm:
            F[x].add(h)
            F[y].add(h)
        groups[(a, b, colors[h])].append((h, mm))
    _check_induced(groups)
    return {v: frozenset(s) for v, s in F.items()}, log


# -- stage 4: assembly -----------------------------------------------------------


def _entries(sets: dict) -> tuple[np.ndarray, np.ndarray]:
    """(owner, member) int64 arrays of a dict of vertex sets."""
    owner = np.repeat(np.fromiter(sets, dtype=np.int64), [len(s) for s in sets.values()])
    member = np.fromiter(itertools.chain(*sets.values()), dtype=np.int64, count=owner.size)
    return owner, member


def _closed_neighborhoods(F, g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(owner, hub) of N(F_v), F_v and the neighbours of its vertices, for
    every v, sorted; F_v = {v} where F lacks v."""
    n = g.n
    indptr, nbr, _ = g.in_edges()
    owner, x = _entries({**{v: (v,) for v in range(n)}, **F})
    deg = indptr[x + 1] - indptr[x]
    at = np.arange(int(deg.sum())) + np.repeat(indptr[x] - (np.cumsum(deg) - deg), deg)
    key = np.concatenate([owner * n + x, np.repeat(owner, deg) * n + nbr[at]])
    return np.divmod(np.unique(key), max(n, 1))


@dataclass
class SizeLedger:
    total_size: int
    n_times_s: int
    sum_q: int
    sum_r: int
    sum_nf: int
    sum_f: int
    degree_bound: int | None  # (max degree + 1) * sum_f, positive weights only

    @property
    def bound_ok(self) -> bool:
        ok = self.total_size <= self.n_times_s + self.sum_q + self.sum_r + self.sum_nf
        if self.degree_bound is not None:
            ok = ok and self.sum_nf <= self.degree_bound
        return ok


def size_ledger(S, Q, R, F, g: WeightedGraph, hl: HubLabeling) -> SizeLedger:
    sum_f = sum(len(s) for s in F.values())
    return SizeLedger(
        total_size=hl.total_size,
        n_times_s=g.n * len(S),
        sum_q=sum(len(s) for s in Q.values()),
        sum_r=sum(len(s) for s in R.values()),
        sum_nf=_closed_neighborhoods(F, g)[0].size,
        sum_f=sum_f,
        degree_bound=None if g.has_zero_weights else (g.max_degree + 1) * sum_f,
    )


def assemble(S, Q, R, F, g: WeightedGraph, dm) -> HubLabeling:
    """hubs(v) = S union Q_v union R_v union N(F_v), distances filled from the
    matrix. Builds only; build_for_graph checks the result."""
    mat = dm.matrix()
    n = g.n
    parts = (_entries(Q), _entries(R), _closed_neighborhoods(F, g))
    own_v, own_h = map(np.concatenate, zip(*parts))
    order = np.argsort(own_v, kind="stable")
    own_v, own_h = own_v[order], own_h[order]
    shared = np.fromiter(S, dtype=np.int64, count=len(S))
    owners, hubs = [], []
    for lo in range(0, n, _ASSEMBLE_ROWS):
        hi = min(lo + _ASSEMBLE_ROWS, n)
        member = np.zeros((hi - lo, n), dtype=bool)
        member[:, shared] = True
        a, b = np.searchsorted(own_v, [lo, hi])
        member[own_v[a:b] - lo, own_h[a:b]] = True
        member &= mat[lo:hi] >= 0
        rows, cols = np.nonzero(member)
        owners.append(rows + lo)
        hubs.append(cols)
    owner, hub = np.concatenate(owners), np.concatenate(hubs)
    return HubLabeling.from_entries(n, owner, hub, mat[owner, hub])


# -- degree reduction -------------------------------------------------------------


def reduce_degree(g: WeightedGraph):
    """Split high-degree vertices of a unit-weight graph into zero-weight
    chains of clones, each taking t = ceil(m/n) of the neighbours in id order,
    so that every clone has degree at most 2 + t.

    Returns (reduced graph, representative, origin): int64 arrays of the first
    clone of every vertex and the vertex of every clone. Distances between
    representatives equal the original distances.
    """
    if g.weight_kind != "unit":
        raise ValueError("degree reduction expects a unit-weight graph")
    n, m, deg = g.n, g.m, g.degrees
    t = max(-(-m // n) if n else 0, 1)
    counts = np.where(deg <= 2 + t, 1, -(-deg // t))
    starts = np.cumsum(counts) - counts
    origin = np.repeat(np.arange(n), counts)
    indptr, nbr, _ = g.in_edges()
    head = np.repeat(np.arange(n), deg)
    clone = starts[head] + np.where(counts[head] > 1, (np.arange(nbr.size) - indptr[head]) // t, 0)
    back = np.searchsorted(head * n + nbr, nbr * n + head)  # the same edge seen from nbr
    ends = np.flatnonzero(head < nbr)
    chain = np.flatnonzero(origin[1:] == origin[:-1])
    split = np.c_[clone[ends], clone[back[ends]], np.ones(m, int)]
    edges = np.concatenate([split, np.c_[chain, chain + 1, np.zeros_like(chain)]])
    return WeightedGraph(origin.size, edges), starts, origin


def project_back(hl_reduced: HubLabeling, representative, origin, dm) -> HubLabeling:
    """Pull a labeling of the reduced graph back to the original vertices,
    recomputing distances from the original matrix. Builds only;
    build_for_graph checks the result."""
    n = dm.n
    mat = dm.matrix()
    rep, orig = np.asarray(representative), np.asarray(origin)
    start = hl_reduced.offsets[rep]
    size = hl_reduced.offsets[rep + 1] - start
    # positions of the representatives' entries, row after row
    at = np.arange(int(size.sum())) + np.repeat(start - (np.cumsum(size) - size), size)
    key = np.sort(np.repeat(np.arange(n), size) * n + orig[hl_reduced.hub[at]])
    key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0
    owner, hub = np.divmod(key, max(n, 1))
    reach = mat[owner, hub] >= 0
    owner, hub = owner[reach], hub[reach]
    return HubLabeling.from_entries(n, owner, hub, mat[owner, hub])


# -- driver -----------------------------------------------------------------------


@dataclass
class BuildReport:
    n: int
    m: int
    max_degree: int
    D: int
    seed: int
    reduced: dict | None
    s_size: int
    q_total: int
    q_random: int
    q_forced: int
    r_total: int
    f_total: int
    cover_resamples: int
    color_resamples: int
    bucket_count: int
    matching_hist: dict[int, int]
    ledger: SizeLedger
    cover: CoverReport
    diameter: int

    def to_dict(self) -> dict:
        return {
            "graph": {"n": self.n, "m": self.m, "max_degree": self.max_degree},
            "D": self.D,
            "seed": self.seed,
            "reduced": self.reduced,
            "stages": {
                "S_size": self.s_size,
                "Q_total": self.q_total,
                "Q_random": self.q_random,
                "Q_forced": self.q_forced,
                "R_total": self.r_total,
                "F_total": self.f_total,
                "cover_resamples": self.cover_resamples,
                "color_resamples": self.color_resamples,
                "bucket_count": self.bucket_count,
                "matching_size_hist": {str(k): v for k, v in sorted(self.matching_hist.items())},
            },
            "ledger": {
                "total_size": self.ledger.total_size,
                "n_times_S": self.ledger.n_times_s,
                "sum_Q": self.ledger.sum_q,
                "sum_R": self.ledger.sum_r,
                "sum_NF": self.ledger.sum_nf,
                "sum_F": self.ledger.sum_f,
                "degree_bound": self.ledger.degree_bound,
                "bound_ok": self.ledger.bound_ok,
            },
            "labeling": {
                "valid": self.cover.valid,
                "total_size": self.cover.total_size,
                "avg_hub_size": str(self.cover.avg_hub_size),
                "avg_hub_size_float": float(self.cover.avg_hub_size),
                "bit_estimate": self.cover.bit_estimate,
                "diameter": self.diameter,
            },
        }


@dataclass
class BuildResult:
    graph: WeightedGraph
    labeling: HubLabeling
    artifacts: BuilderArtifacts
    report: BuildReport
    dm: object


def needs_reduction(g: WeightedGraph) -> bool:
    if g.weight_kind != "unit" or g.m == 0:
        return False
    return g.max_degree > 2 + (-(-g.m // g.n))


def build_for_graph(
    g: WeightedGraph,
    cfg: BuilderConfig | None = None,
    *,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> BuildResult:
    """Run the full pipeline, inserting the degree reduction when the graph's
    maximum degree exceeds 2 + ceil(m/n), and certify the result: the size
    ledger bound, then the cover of the returned labeling (the projected one
    in reduced builds, whose stage labeling is verified only to tell which
    side broke). A failed check raises CoverVerificationError."""
    cfg = cfg or BuilderConfig()
    # The verifier's own search, so certification never trusts reduce_degree's distances.
    dm = all_pairs(g, pair_cap=pair_cap)
    stage_graph, stage_dm, reduced_info = g, dm, None
    if needs_reduction(g):
        stage_graph, representative, origin = reduce_degree(g)
        stage_dm = all_pairs(stage_graph, pair_cap=pair_cap)
        reduced_info = {"n": stage_graph.n, "m": stage_graph.m, "t": -(-g.m // g.n)}
    D = resolve_threshold(stage_graph.n, cfg.D)
    index = build_pair_index(stage_dm, D)
    S, Q, cover_attempts = _sample_cover(stage_dm, cfg, index)
    colors, R, color_attempts = _sample_colors(stage_dm, cfg, index)
    F, log = build_matchings(stage_dm, colors, cfg, index=index)
    stage_hl = assemble(S, Q, R, F, stage_graph, stage_dm)
    ledger = size_ledger(S, Q, R, F, stage_graph, stage_hl)
    if not ledger.bound_ok:
        raise CoverVerificationError(f"size ledger bound violated: {ledger}")
    hl = stage_hl
    if reduced_info is not None:
        hl = project_back(stage_hl, representative, origin, dm)
    cover = verify_cover(hl, dm)
    if not cover.valid:
        # say which side broke: the stage labeling, or only its projection
        stage_cover = cover if reduced_info is None else verify_cover(stage_hl, stage_dm)
        if not stage_cover.valid:
            raise CoverVerificationError(
                f"assembled labeling fails cover verification on "
                f"{stage_cover.uncovered_total} pairs, first {stage_cover.uncovered[:5]}"
            )
        raise CoverVerificationError(
            f"projected labeling fails cover verification on {cover.uncovered_total} pairs"
        )
    artifacts = BuilderArtifacts(S=S, Q=Q, R=R, F=F, colors=colors, matchings_log=log)
    hist: dict[int, int] = defaultdict(int)
    for size in log.values():
        hist[size] += 1
    q_total = sum(len(s) for s in Q.values())
    report = BuildReport(
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        D=D,
        seed=cfg.seed,
        reduced=reduced_info,
        s_size=len(S),
        q_total=q_total,
        q_random=q_total - len(index.forced),
        q_forced=len(index.forced),
        r_total=sum(len(s) for s in R.values()),
        f_total=sum(len(s) for s in F.values()),
        cover_resamples=cover_attempts,
        color_resamples=color_attempts,
        bucket_count=len(log),
        matching_hist=dict(hist),
        ledger=ledger,
        cover=cover,
        diameter=dm.diameter(),
    )
    return BuildResult(graph=g, labeling=hl, artifacts=artifacts, report=report, dm=dm)
