"""Shared test helpers: brute-force oracles and hypothesis strategies."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hublab.corpus import erdos_renyi_m, grid_graph, path_graph, random_regular_graph
from hublab.family_gen import FamilyParams, build_H, expand_to_G
from hublab.graph_core import (
    DEFAULT_PAIR_CAP,
    UNREACHABLE,
    ResourceLimitError,
    UnreachablePairError,
    WeightedGraph,
)
from hublab.hub_labeling import CoverReport, bit_estimate
from hublab.upperbound_builder import BuilderConfig, PairIndex, build_for_graph

settings.register_profile(
    "hublab",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("hublab")


# -- brute-force oracles -------------------------------------------------------


def oracle_distances(g: WeightedGraph) -> list[list[int]]:
    """All-pairs distances by exhaustive enumeration of simple paths.

    Independent of the search code under test. -1 means unreachable. Only for
    tiny graphs.
    """
    n = g.n
    best = [[-1] * n for _ in range(n)]

    def dfs(start: int, v: int, used: list[bool], wsum: int):
        if best[start][v] < 0 or wsum < best[start][v]:
            best[start][v] = wsum
        for y, w in g.adj(v):
            if not used[y]:
                used[y] = True
                dfs(start, y, used, wsum + w)
                used[y] = False

    for s in range(n):
        used = [False] * n
        used[s] = True
        dfs(s, s, used, 0)
    return best


def oracle_simple_paths(g: WeightedGraph, u: int, v: int) -> list[tuple[int, list[int]]]:
    """(weight, vertex list) of every simple u-v path."""
    out = []

    def dfs(x: int, used: list[bool], wsum: int, trail: list[int]):
        if x == v:
            out.append((wsum, list(trail)))
            return
        for y, w in g.adj(x):
            if not used[y]:
                used[y] = True
                trail.append(y)
                dfs(y, used, wsum + w, trail)
                trail.pop()
                used[y] = False

    used = [False] * g.n
    used[u] = True
    dfs(u, used, 0, [u])
    return out


def oracle_count_shortest(g: WeightedGraph, u: int, v: int) -> int:
    """Number of minimum-weight simple u-v paths. Positive weights only."""
    paths = oracle_simple_paths(g, u, v)
    if not paths:
        return 0
    lo = min(w for w, _ in paths)
    return sum(1 for w, _ in paths if w == lo)


def verify_metric(dm) -> bool:
    """Symmetry and the triangle inequality of a dense distance matrix (-1 for
    unreachable): whenever d(u,x) and d(x,v) are finite, d(u,v) is finite and
    at most their sum."""
    mat = dm.matrix()
    if not (mat == mat.T).all():
        return False
    for x in range(dm.n):
        finite = (mat[:, x] >= 0)[:, None] & (mat[x, :] >= 0)[None, :]
        via = mat[:, x][:, None] + mat[x, :][None, :]
        if (finite & ((mat < 0) | (mat > via))).any():
            return False
    return True


def hub_candidates(dm, u: int, v: int) -> set[int]:
    """All x with d(u,x) + d(x,v) = d(u,v). Always contains u and v."""
    ru = dm.row(u)
    duv = int(ru[v])
    if duv < 0:
        raise UnreachablePairError(f"{u} and {v} are not mutually reachable")
    rv = dm.row(v)
    mask = (ru >= 0) & (rv >= 0) & (ru + rv == duv)
    return {int(x) for x in np.flatnonzero(mask)}


def check_stored_distances(hl, dm) -> list[tuple[int, int, int]]:
    """Label entries whose stored distance differs from the true distance."""
    bad = []
    for v in range(hl.n):
        row = dm.row(v)
        for h, d in hl.hubs[v]:
            if int(row[h]) != d:
                bad.append((v, h, d))
    return bad


def oracle_hits(dm, mask) -> np.ndarray:
    """hit[u, v] iff v is reachable from u and d(u,c) + d(c,v) == d(u,v) for
    some c in the bool vertex mask, by a min-plus scan over the mask."""
    mat = dm.matrix()
    hit = np.zeros((dm.n, dm.n), dtype=bool)
    for c in np.flatnonzero(mask):
        to_c, from_c = mat[:, c][:, None], mat[c, :][None, :]
        hit |= (to_c >= 0) & (from_c >= 0) & (to_c + from_c == mat)
    return hit & (mat >= 0)


def oracle_pair_index(dm, D: int, *, zero_one: bool = False) -> PairIndex:
    """The pair index by the two branches the builder used before the ball
    rule: with zero_one, explicit counts for pairs at distance below D (valid
    for {0,1} weights only); otherwise exact counts over all n candidates for
    every pair."""
    n = dm.n
    mat = dm.matrix()
    small: dict[tuple[int, int], tuple[int, ...]] = {}
    small_dist: dict[tuple[int, int], int] = {}
    if zero_one:
        big = np.triu(mat >= D, 1)
        for u in range(n):
            ru = mat[u]
            close = np.flatnonzero((ru >= 0) & (ru <= D - 1))
            close = close[close > u]
            if close.size == 0:
                continue
            # -1 marks unreachable: a vertex unreachable from u is unreachable
            # from v too, so its sum is -2 and never matches d(u,v) >= 0.
            sums = mat[:, close] + ru[:, None]
            mask = sums == ru[close][None, :]
            counts = mask.sum(axis=0)
            for j, v in enumerate(close.tolist()):
                c = int(counts[j])
                if c <= D:
                    small[(u, v)] = tuple(int(x) for x in np.flatnonzero(mask[:, j]))
                    small_dist[(u, v)] = int(ru[v])
                if c >= D:
                    big[u, v] = True
        return PairIndex(n, D, small, small_dist, (), big)
    inf = np.where(mat < 0, np.int64(1 << 40), mat)
    big = np.zeros((n, n), dtype=bool)
    ids = np.arange(n)
    for u in range(n):
        ru = mat[u]
        sums = inf[u][:, None] + inf
        mask = sums == inf[u][None, :]
        counts = mask.sum(axis=0)
        reach = (ru >= 0) & (ids > u)
        big[u] = reach & (counts >= D)
        for v in np.flatnonzero(reach & (counts <= D)).tolist():
            small[(u, v)] = tuple(int(x) for x in np.flatnonzero(mask[:, v]))
            small_dist[(u, v)] = int(ru[v])
    forced = tuple(
        sorted(
            (u, v)
            for (u, v), H in small.items()
            if len(H) < D and small_dist[(u, v)] > D
        )
    )
    return PairIndex(n, D, small, small_dist, forced, big)


_INF32 = np.int32(1 << 29)


def dense_verify_cover(
    hl, dm, *, truncate: int = 1000, pair_cap: int = DEFAULT_PAIR_CAP
) -> CoverReport:
    """Reference cover check: evaluates query(u, v) for every pair from a
    dense n x n matrix of stored hub distances and compares it with d(u, v).
    Same report, guards and messages as hub_labeling.verify_cover."""
    n = hl.n
    if n != dm.n:
        raise ValueError("labeling and distance matrix disagree on n")
    if n * n > pair_cap:
        raise ResourceLimitError(f"verification needs {n * n} comparisons, cap is {pair_cap}")
    mat = dm.matrix()
    diam = int(mat.max(initial=0))
    if diam >= int(_INF32) // 4:
        raise ResourceLimitError("distances too large for vectorized verification")
    hub_mat = np.full((n, n), _INF32, dtype=np.int32)
    for v in range(n):
        ent = hl.hubs[v]
        if ent:
            ids = np.fromiter((h for h, _ in ent), dtype=np.int64, count=len(ent))
            ds = np.fromiter((d for _, d in ent), dtype=np.int32, count=len(ent))
            if ds.size and int(ds.max()) >= int(_INF32) // 4:
                raise ResourceLimitError("stored distances too large for vectorized verification")
            hub_mat[v, ids] = ds
    uncovered = []
    total_bad = 0
    for u in range(n):
        ent = hl.hubs[u]
        row_true = mat[u]
        if ent:
            ids = np.fromiter((h for h, _ in ent), dtype=np.int64, count=len(ent))
            ds = np.fromiter((d for _, d in ent), dtype=np.int32, count=len(ent))
            q = (hub_mat[:, ids] + ds[None, :]).min(axis=1)
        else:
            q = np.full(n, 2 * _INF32, dtype=np.int32)
        reachable = row_true >= 0
        bad = reachable & (q.astype(np.int64) != row_true)
        bad[: u + 1] = False
        total_bad += int(bad.sum())
        if len(uncovered) < truncate:
            for v in np.flatnonzero(bad):
                if len(uncovered) >= truncate:
                    break
                uncovered.append((u, int(v)))
    total = hl.total_size
    return CoverReport(
        valid=(total_bad == 0),
        uncovered=tuple(uncovered),
        uncovered_total=total_bad,
        avg_hub_size=Fraction(total, n) if n else Fraction(0),
        total_size=total,
        bit_estimate=bit_estimate(hl, diam),
    )


def oracle_label_rows(n: int, hubs) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows HubLabeling(n, hubs) must hold, by the tuple normaliser the
    labeling used before it stored arrays; raises the same ValueError."""
    norm = []
    for v, entries in enumerate(hubs):
        seen = {}
        for h, d in entries:
            h, d = int(h), int(d)
            if not 0 <= h < n:
                raise ValueError(f"vertex {v}: hub {h} out of range")
            if d < 0:
                raise ValueError(f"vertex {v}: negative stored distance")
            if h in seen and seen[h] != d:
                raise ValueError(f"vertex {v}: conflicting distances for hub {h}")
            seen[h] = d
        norm.append(tuple(sorted(seen.items())))
    if len(norm) != n:
        raise ValueError("hub sets must cover every vertex id")
    return tuple(norm)


def oracle_query(rows, u: int, v: int):
    """query() on normalised tuple rows by a merge of the two sorted rows."""
    a, b = rows[u], rows[v]
    i = j = 0
    best = None
    while i < len(a) and j < len(b):
        ha, hb = a[i][0], b[j][0]
        if ha == hb:
            s = a[i][1] + b[j][1]
            if best is None or s < best:
                best = s
            i += 1
            j += 1
        elif ha < hb:
            i += 1
        else:
            j += 1
    return UNREACHABLE if best is None else best


# -- the acceptance corpus -------------------------------------------------------


def corpus_entries():
    """(name, graph factory, D) of the 51 graphs of the acceptance corpus."""
    entries = []
    for i, n in enumerate((20, 40, 60, 80, 120, 160, 200, 300, 400, 600)):
        entries.append((f"3reg-{n}", lambda n=n, s=i: random_regular_graph(n, 3, seed=s + 1), None))
    entries.append(("3reg-50b", lambda: random_regular_graph(50, 3, seed=21), 2))
    entries.append(("3reg-50c", lambda: random_regular_graph(50, 3, seed=22), 4))
    entries.append(("3reg-100b", lambda: random_regular_graph(100, 3, seed=23), None))
    entries.append(("3reg-200-D5", lambda: random_regular_graph(200, 3, seed=42), 5))
    entries.append(("3reg-2000", lambda: random_regular_graph(2000, 3, seed=7), None))
    for i, n in enumerate((20, 50, 80, 120, 200, 300, 400, 600)):
        entries.append((f"er-{n}", lambda n=n, s=i: erdos_renyi_m(n, 2 * n, seed=s + 1), None))
    for i, n in enumerate((20, 50, 80, 120)):
        entries.append((f"er-{n}b", lambda n=n, s=i: erdos_renyi_m(n, 2 * n, seed=s + 31), None))
    entries.append(("er-100-D2", lambda: erdos_renyi_m(100, 200, seed=9), 2))
    entries.append(("er-2000", lambda: erdos_renyi_m(2000, 4000, seed=5), None))
    for r in (3, 4, 5, 6, 7, 8, 10, 12, 15, 20):
        entries.append((f"grid-{r}x{r}", lambda r=r: grid_graph(r, r), 2 if r == 10 else None))
    for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
        entries.append((f"path-{n}", lambda n=n: path_graph(n), 4 if n == 144 else None))
    entries.append(("G11", lambda: expand_to_G(build_H(FamilyParams(1, 1))).graph, None))
    entries.append(("G21", lambda: expand_to_G(build_H(FamilyParams(2, 1))).graph, None))
    return entries


@pytest.fixture(scope="session")
def corpus_results():
    """(name, config, BuildResult) of every corpus graph, built once per session."""
    results = []
    for idx, (name, factory, d) in enumerate(corpus_entries()):
        g = factory()
        cfg = BuilderConfig(D=d, seed=13 * idx + 1)
        res = build_for_graph(g, cfg)
        results.append((name, cfg, res))
    return results


# -- strategies ----------------------------------------------------------------


@st.composite
def small_graphs(draw, max_n: int = 8, min_weight: int = 0, max_weight: int = 4):
    """Sparse-ish random graph with weights in [min_weight, max_weight]."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 2 * n))
        if pairs
        else st.just([])
    )
    edges = [
        (u, v, draw(st.integers(min_value=min_weight, max_value=max_weight)))
        for u, v in chosen
    ]
    return WeightedGraph(n, edges)


def seeded_sparse_graph(n: int, m: int, seed: int, *, min_w: int = 0, max_w: int = 4) -> WeightedGraph:
    """Deterministic random sparse weighted graph for fixed-size cases."""
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    m = min(m, total)
    picks = sorted(rng.choice(total, size=m, replace=False).tolist())
    edges = []
    k = 0
    idx = 0
    for u in range(n):
        for v in range(u + 1, n):
            if idx < len(picks) and picks[idx] == k:
                edges.append((u, v, int(rng.integers(min_w, max_w + 1))))
                idx += 1
            k += 1
    return WeightedGraph(n, edges)
