"""Shared test helpers: brute-force oracles and hypothesis strategies."""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hublab.corpus import erdos_renyi_m, grid_graph, path_graph, random_regular_graph
from hublab.family_gen import FamilyParams, build_H, expand_to_G
from hublab.graph_core import (
    UNREACHABLE,
    UnreachablePairError,
    WeightedGraph,
    ZeroWeightError,
    count_shortest_paths,
    distances_from,
)
from hublab.hub_labeling import CoverReport, HubLabeling, bit_estimate
from hublab.upperbound_builder import (
    BuilderConfig,
    InducedMatchingViolation,
    _conflicts,
    build_for_graph,
    needs_reduction,
)

settings.register_profile(
    "hublab",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("hublab")


# -- brute-force oracles -------------------------------------------------------


def oracle_adjacency(g: WeightedGraph) -> list[list[tuple[int, int]]]:
    """(neighbour, weight) lists per vertex, built from g.edges alone."""
    adj = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def oracle_distances(g: WeightedGraph) -> list[list[int]]:
    """All-pairs distances by exhaustive enumeration of simple paths.

    Independent of the search code under test. -1 means unreachable. Only for
    tiny graphs.
    """
    n = g.n
    best = [[-1] * n for _ in range(n)]
    adj = oracle_adjacency(g)

    def dfs(start: int, v: int, used: list[bool], wsum: int):
        if best[start][v] < 0 or wsum < best[start][v]:
            best[start][v] = wsum
        for y, w in adj[v]:
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
    adj = oracle_adjacency(g)

    def dfs(x: int, used: list[bool], wsum: int, trail: list[int]):
        if x == v:
            out.append((wsum, list(trail)))
            return
        for y, w in adj[x]:
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


def oracle_assign_parents(g: WeightedGraph, dists: np.ndarray, root: int) -> list[int]:
    """Parents of the shortest-path tree rooted at root, by the per-root rule
    the trees were built with before they became one matrix; -1 marks
    unreachable vertices."""
    # Positive weights: every valid parent is strictly closer to the root, so
    # the lowest-id tight neighbor of each reached vertex yields a tree. With
    # 0-weight ties the lowest-id rule can create parent cycles, so those
    # graphs fall back to a deterministic fixpoint that only attaches to
    # already-rooted vertices.
    n = g.n
    if not g.has_zero_weights:
        eu, ev, ew = g.edge_arrays()
        a, b = np.concatenate([eu, ev]), np.concatenate([ev, eu])
        da = dists[a]
        tight = (da >= 0) & (da + np.concatenate([ew, ew]) == dists[b])
        best = np.full(n, n, dtype=np.int64)
        np.minimum.at(best, b[tight], a[tight])
        best[best == n] = -1
        best[root] = root
        return best.tolist()
    adj = oracle_adjacency(g)
    dists = dists.tolist()
    parents = [-1] * n
    parents[root] = root
    pending = [v for v in range(n) if v != root and dists[v] >= 0]
    pending.sort(key=lambda v: (dists[v], v))
    while pending:
        rest = []
        changed = False
        for v in pending:
            dv = dists[v]
            best = -1
            for u, w in adj[v]:
                if dists[u] >= 0 and dists[u] + w == dv and parents[u] != -1:
                    if best < 0 or u < best:
                        best = u
            if best >= 0:
                parents[v] = best
                changed = True
            else:
                rest.append(v)
        if not changed:
            break
        pending = rest
    return parents


def oracle_shortest_paths_from(g: WeightedGraph, src: int) -> tuple[list[int], list[int]]:
    """(parents, dists) of the tree rooted at src, from one single-source
    search; -1 marks unreachable vertices in both."""
    dists = distances_from(g, src)
    return oracle_assign_parents(g, dists, src), dists.tolist()


def oracle_reduce_degree(g: WeightedGraph):
    """(reduced graph, representative, origin) by the per-vertex loops the
    degree reduction used before it was vectorised, as lists."""
    n, m = g.n, g.m
    adj = oracle_adjacency(g)
    t = -(-m // n) if n else 0
    counts = [1 if len(adj[v]) <= 2 + t else -(-len(adj[v]) // t) for v in range(n)]
    starts = [sum(counts[:v]) for v in range(n)]
    origin = [v for v in range(n) for _ in range(counts[v])]
    slot = {}
    for v in range(n):
        if counts[v] > 1:
            for idx, (u, _) in enumerate(sorted(adj[v])):
                slot[(v, u)] = idx // t
    edges = [
        (starts[u] + slot.get((u, v), 0), starts[v] + slot.get((v, u), 0), 1)
        for u, v, _ in g.edges
    ]
    for v in range(n):
        edges += [(starts[v] + i, starts[v] + i + 1, 0) for i in range(counts[v] - 1)]
    return WeightedGraph(len(origin), edges), starts, origin


def oracle_build_labeling(g: WeightedGraph, artifacts, dm):
    """(labeling, stage total) that build_for_graph must return for its
    artifacts on g, from one Python set per stage row: S, Q_r, R_r, F_r and
    the stage-graph neighbours of F_r, kept where r reaches them in the stage
    graph. The stage labeling's size is the stage total. A reduced build
    returns row representative[v] for each vertex v, mapped through origin,
    with distances from dm.matrix()."""
    n = g.n
    stage, rep, origin = g, list(range(n)), list(range(n))
    if needs_reduction(g):
        stage, rep, origin = oracle_reduce_degree(g)
    adj = oracle_adjacency(stage)
    comp = [-1] * stage.n  # the connected component of every stage vertex
    for root in range(stage.n):
        todo = [root] if comp[root] < 0 else []
        while todo:
            x = todo.pop()
            if comp[x] < 0:
                comp[x] = root
                todo += [y for y, _ in adj[x]]
    rows = [set(artifacts.S.tolist()) for _ in range(stage.n)]
    for owner, hub in artifacts.Q.tolist() + artifacts.R.tolist():
        rows[owner].add(hub)
    for owner, x in artifacts.F.tolist():
        rows[owner] |= {x} | {y for y, _ in adj[x]}
    rows = [{h for h in row if comp[h] == comp[r]} for r, row in enumerate(rows)]
    mat = dm.matrix()
    hubs = [sorted({origin[h] for h in rows[rep[v]]}) for v in range(n)]
    out = labeling(n, [[(h, int(mat[v, h])) for h in hubs[v]] for v in range(n)])
    return out, sum(map(len, rows))


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
    ru = dm.matrix()[u]
    duv = int(ru[v])
    if duv < 0:
        raise UnreachablePairError(f"{u} and {v} are not mutually reachable")
    rv = dm.matrix()[v]
    mask = (ru >= 0) & (rv >= 0) & (ru + rv == duv)
    return {int(x) for x in np.flatnonzero(mask)}


def check_stored_distances(hl, dm) -> list[tuple[int, int, int]]:
    """Label entries whose stored distance differs from the true distance."""
    bad = []
    for v in range(hl.n):
        row = dm.matrix()[v]
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


def oracle_pair_index(dm, D: int, *, zero_one: bool = False):
    """The pair index by the two branches the builder used before the ball
    rule: with zero_one, explicit counts for pairs at distance below D (valid
    for {0,1} weights only); otherwise exact counts over all n candidates for
    every pair. Returns the dict form of index_as_dicts."""
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
        return small, small_dist, (), big
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
    return small, small_dist, forced, big


def index_as_dicts(index, dm):
    """(small, small_dist, forced, big) of a PairIndex of dm's graph: the
    candidate tuple and the distance of every small pair keyed by (u, v), the
    forced pairs as a sorted tuple, and big as the cover stage reads it, the
    reachable pairs u < v minus the small rows with fewer than D candidates."""
    pairs = list(map(tuple, index.small.tolist()))
    ptr = index.cand_ptr.tolist()
    cand = index.cand.tolist()
    small = {p: tuple(cand[ptr[i] : ptr[i + 1]]) for i, p in enumerate(pairs)}
    forced = tuple(map(tuple, index.forced.tolist()))
    big = np.triu(dm.matrix() >= 0, 1)
    thin = index.small[np.diff(index.cand_ptr) < index.D]
    big[thin[:, 0], thin[:, 1]] = False
    return small, dict(zip(pairs, index.small_dist.tolist())), forced, big


def oracle_has_conflict(colors, H) -> bool:
    """Whether two vertices of H share a color, by the per-pair rule the
    coloring stage used before its conflicts were found by one sort."""
    seen = set()
    for h in H:
        c = colors[h]
        if c in seen:
            return True
        seen.add(c)
    return False


def oracle_greedy_matching(rows) -> list[tuple[int, int]]:
    """The (x, y) rows of one bucket that the sequential greedy takes: each
    row, in order, whose x no taken row holds on the left and whose y none
    holds on the right."""
    left_used: set[int] = set()
    right_used: set[int] = set()
    mm = []
    for x, y in rows:
        if x not in left_used and y not in right_used:
            mm.append((x, y))
            left_used.add(x)
            right_used.add(y)
    return mm


def oracle_check_induced(groups):
    """The induced-matching check by the per-group loop the matching stage ran
    before its array join: groups maps (a, b, color) to its (h, matching)
    items; raises InducedMatchingViolation at the first violation."""
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


def induced_rows(groups):
    """The row arrays (group, a, b, h, x, y) of _check_induced for the dict
    form of oracle_check_induced, groups numbered in dict order."""
    rows = [
        (g, a, b, h, x, y)
        for g, ((a, b, _color), items) in enumerate(groups.items())
        for h, mm in items
        for x, y in mm
    ]
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 6).T)


def oracle_matchings(dm, colors, index):
    """(F, matchings_log) by the per-bucket loops the matching stage ran
    before its rounds: the sequential greedy per bucket and the per-group
    induced check."""
    n = dm.n
    colors = np.asarray(colors)
    mat = dm.matrix()
    sizes = np.diff(index.cand_ptr)
    live = (index.small_dist <= index.D) & ~_conflicts(colors, index.cand_ptr, index.cand)
    h = index.cand[np.repeat(live, sizes)]
    u, v = np.repeat(index.small[live], sizes[live], axis=0).T
    a, b = mat[u, h], mat[h, v]
    entries = [np.concatenate(c) for c in ((a, b), (b, a), (h, h), (u, v), (v, u))]
    order = np.lexsort(entries[::-1])
    rows = zip(*(c[order].tolist() for c in entries))
    col = colors.tolist()
    log: dict[tuple[int, int, int], int] = {}
    groups: dict[tuple[int, int, int], list] = defaultdict(list)
    owner, hub = list(range(n)), list(range(n))
    for key, items in itertools.groupby(rows, key=lambda e: e[:3]):
        mm = oracle_greedy_matching((x, y) for *_, x, y in items)
        log[key] = len(mm)
        ends = {x for x, _ in mm} | {y for _, y in mm}
        owner += ends
        hub += [key[2]] * len(ends)
        groups[(key[0], key[1], col[key[2]])].append((key[2], mm))
    oracle_check_induced(groups)
    keys = np.unique(np.array(owner, dtype=np.int64) * n + np.array(hub, dtype=np.int64))
    return np.stack(np.divmod(keys, max(n, 1)), axis=1), log


_I64_MAX = int(np.iinfo(np.int64).max)


def dense_verify_cover(hl, dm, *, truncate: int = 1000) -> CoverReport:
    """Reference cover check: evaluates query(u, v) for every pair from a
    dense n x n int64 matrix of stored hub distances and compares it with
    d(u, v). A missing hub reads as the int64 maximum and sums saturate
    there, which no distance reaches. Same report and messages as
    hub_labeling.verify_cover."""
    n = hl.n
    if n != dm.n:
        raise ValueError("labeling and distance matrix disagree on n")
    mat = dm.matrix()
    diam = int(mat.max(initial=0))
    hub_mat = np.full((n, n), _I64_MAX, dtype=np.int64)
    for v in range(n):
        ent = hl.hubs[v]
        if ent:
            ids = np.fromiter((h for h, _ in ent), dtype=np.int64, count=len(ent))
            hub_mat[v, ids] = np.fromiter((d for _, d in ent), dtype=np.int64, count=len(ent))
    uncovered = []
    total_bad = 0
    for u in range(n):
        ent = hl.hubs[u]
        row_true = mat[u]
        if ent:
            ids = np.fromiter((h for h, _ in ent), dtype=np.int64, count=len(ent))
            ds = np.fromiter((d for _, d in ent), dtype=np.int64, count=len(ent))
            other = hub_mat[:, ids]
            q = (other + np.minimum(ds[None, :], _I64_MAX - other)).min(axis=1)
        else:
            q = np.full(n, _I64_MAX, dtype=np.int64)
        reachable = row_true >= 0
        bad = reachable & (q != row_true)
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


def labeling(n: int, rows) -> HubLabeling:
    """The labeling of n vertices from one iterable of (hub, distance) pairs
    per vertex, the rows past the last given one empty, flattened into the
    constructor's row arrays."""
    rows = [list(row) for row in rows]
    assert len(rows) <= n, "more rows than vertices"
    sizes = [len(row) for row in rows] + [0] * (n - len(rows))
    hub = [h for row in rows for h, _ in row]
    return HubLabeling(sizes, hub, [d for row in rows for _, d in row])


def baseline_full(dm) -> HubLabeling:
    """Trivial upper baseline: every vertex stores all reachable vertices."""
    mat = dm.matrix()
    member = mat >= 0
    return HubLabeling(member.sum(1), np.nonzero(member)[1], mat[member])


def path_weight(g: WeightedGraph, path: list[int]) -> int:
    """Total weight of an explicit vertex path; rejects non-edges."""
    indptr, nbr, w = g.in_edges()
    total = 0
    for a, b in zip(path, path[1:]):
        i = indptr[a] + np.searchsorted(nbr[indptr[a] : indptr[a + 1]], b)
        if i == indptr[a + 1] or nbr[i] != b:
            raise ValueError(f"no edge between {a} and {b}")
        total += int(w[i])
    return total


def is_unique_shortest_path(dm, g: WeightedGraph, u: int, v: int):
    """(True, path) when exactly one shortest u-v path exists, else (False,
    None). dm may be None, and then both rows are searched."""
    du = dm.matrix()[u] if dm is not None else distances_from(g, u)
    if du[v] < 0:
        raise UnreachablePairError(f"{u} and {v} are not mutually reachable")
    if u == v:
        return True, [u]
    if g.has_zero_weights:
        raise ZeroWeightError("path counting requires positive edge weights")
    dv = dm.matrix()[v] if dm is not None else distances_from(g, v)
    if count_shortest_paths(g, u, v, dists_u=du, dists_v=dv) != 1:
        return False, None
    # A single u-v path makes every vertex on a shortest u-v path a vertex of it.
    on = np.flatnonzero((du >= 0) & (dv >= 0) & (du + dv == du[v]))
    return True, on[np.argsort(du[on], kind="stable")].tolist()


def monotone_coordinate_window(i: int, j: int, ell: int) -> set[int]:
    """Coordinates (1-indexed) changeable on a level-monotone walk i -> j:
    the gap coordinate min(g + 1, 2*ell - g) of every level g in [i, j).

    Cross-level distances survive the degree-3 expansion exactly for pairs
    whose differing coordinates lie in this window; other pairs force a
    turning point that the expansion's trees shortcut.
    """
    if not 0 <= i < j <= 2 * ell:
        raise ValueError("need 0 <= i < j <= 2*ell")
    return {min(g + 1, 2 * ell - g) for g in range(i, j)}


def oracle_label_rows(n: int, hubs) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows labeling(n, hubs) must hold, by the tuple normaliser the
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
