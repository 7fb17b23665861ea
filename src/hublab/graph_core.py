"""Weighted graph core: representation, shortest-path searches, distance
matrices, and shortest-path counts used by every other module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

#: Largest number of distance entries a dense all-pairs matrix may hold.
DEFAULT_PAIR_CAP = 250_000_000


class _Unreachable:
    """Sentinel for missing paths.

    Distinct from every integer, so it can never silently wrap into a
    distance sum.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()


class GraphFormatError(ValueError):
    """Malformed graph or label file."""


class ResourceLimitError(RuntimeError):
    """A configured vertex or pair cap would be exceeded."""


class UnreachablePairError(ValueError):
    """Operation requires mutually reachable endpoints."""


class ZeroWeightError(ValueError):
    """Operation requires strictly positive edge weights."""


class WeightedGraph:
    """Immutable undirected graph with nonnegative integer edge weights.

    Vertices are ids 0..n-1. No self loops, at most one edge per unordered
    pair. Edges are normalized to (min, max, w) and kept in sorted order, so
    two graphs built from the same edge multiset compare and serialize
    identically. Instances are never mutated after construction and are safe
    to share across workers.
    """

    __slots__ = ("n", "_eu", "_ev", "_ew", "_degrees", "_kind", "_edges", "_adj", "_nbrs", "_csr")

    def __init__(self, n: int, edges, *, validate: bool = True):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = int(n)
        if isinstance(edges, np.ndarray):
            arr = edges.reshape(-1, 3).astype(np.int64, copy=True)
        else:
            seq = list(edges)
            if seq:
                arr = np.array(seq, dtype=np.int64).reshape(-1, 3)
            else:
                arr = np.zeros((0, 3), dtype=np.int64)
        if arr.shape[0]:
            u = np.minimum(arr[:, 0], arr[:, 1])
            v = np.maximum(arr[:, 0], arr[:, 1])
            w = arr[:, 2]
            order = np.lexsort((w, v, u))
            u, v, w = u[order], v[order], w[order]
        else:
            u = v = w = np.zeros(0, dtype=np.int64)
        if validate and arr.shape[0]:
            if u.min() < 0 or v.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if (u == v).any():
                raise ValueError("self loops are not allowed")
            if (w < 0).any():
                raise ValueError("edge weights must be nonnegative")
            keys = u * self.n + v  # sorted by the lexsort above
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("duplicate edge for an unordered pair")
        for a in (u, v, w):
            a.flags.writeable = False
        self._eu, self._ev, self._ew = u, v, w
        deg = np.zeros(self.n, dtype=np.int64)
        if u.shape[0]:
            np.add.at(deg, u, 1)
            np.add.at(deg, v, 1)
        deg.flags.writeable = False
        self._degrees = deg
        if w.shape[0] == 0 or (w == 1).all():
            self._kind = "unit"
        elif ((w == 0) | (w == 1)).all():
            self._kind = "01"
        else:
            self._kind = "general"
        self._edges = None
        self._adj = None
        self._nbrs = None
        self._csr = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return int(self._eu.shape[0])

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        if self._edges is None:
            self._edges = tuple(
                zip(self._eu.tolist(), self._ev.tolist(), self._ew.tolist())
            )
        return self._edges

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (u, v, w) arrays with u < v, lexicographically sorted."""
        return self._eu, self._ev, self._ew

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    @property
    def degrees(self) -> np.ndarray:
        return self._degrees

    @property
    def max_degree(self) -> int:
        return int(self._degrees.max()) if self.n else 0

    @property
    def weight_kind(self) -> str:
        """One of "unit", "01", "general"."""
        return self._kind

    @property
    def has_zero_weights(self) -> bool:
        return bool(self.m) and bool((self._ew == 0).any())

    def _build_adj(self) -> None:
        adj = [[] for _ in range(self.n)]
        nbrs = [[] for _ in range(self.n)]
        for u, v, w in zip(self._eu.tolist(), self._ev.tolist(), self._ew.tolist()):
            adj[u].append((v, w))
            adj[v].append((u, w))
            nbrs[u].append(v)
            nbrs[v].append(u)
        self._adj = adj
        self._nbrs = nbrs

    def adj(self, v: int) -> list[tuple[int, int]]:
        """Neighbors of v as (neighbor, weight) pairs."""
        if self._adj is None:
            self._build_adj()
        return self._adj[v]

    def neighbors(self, v: int) -> list[int]:
        if self._nbrs is None:
            self._build_adj()
        return self._nbrs[v]

    def edge_weight(self, u: int, v: int) -> int:
        for x, w in self.adj(u):
            if x == v:
                return w
        raise ValueError(f"no edge between {u} and {v}")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, weights={self._kind})"


# -- graph file format -----------------------------------------------------
# Header line "n m", then m lines "u v w". '#' starts a comment.


def write_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in zip(*(a.tolist() for a in g.edge_arrays())):
            fh.write(f"{u} {v} {w}\n")


def read_graph(path) -> WeightedGraph:
    header = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                nums = [int(p) for p in parts]
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer field") from exc
            if header is None:
                if len(nums) != 2:
                    raise GraphFormatError(f"line {lineno}: header must be 'n m'")
                header = nums
            else:
                if len(nums) != 3:
                    raise GraphFormatError(f"line {lineno}: edge must be 'u v w'")
                edges.append(tuple(nums))
    if header is None:
        raise GraphFormatError("empty graph file")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return WeightedGraph(n, edges)


# -- searches --------------------------------------------------------------
# Every search runs scipy's csgraph Dijkstra on one CSR matrix per graph.
# csgraph reads a stored zero as a missing edge and csr_matrix sums duplicate
# entries, so zero-weight components are contracted first and parallel
# quotient edges keep their minimum weight. csgraph distances are float64,
# exact only below 2**53.

#: Total edge weight from which searches refuse to run, because a path length
#: might no longer be exact in float64.
WEIGHT_LIMIT = 1 << 52


def _zero_contracted_components(g: WeightedGraph) -> np.ndarray:
    u, v, w = g.edge_arrays()
    zero = w == 0
    data = np.ones(int(zero.sum()) * 2, dtype=np.int8)
    rows = np.concatenate([u[zero], v[zero]])
    cols = np.concatenate([v[zero], u[zero]])
    mat = csr_matrix((data, (rows, cols)), shape=(g.n, g.n))
    _, labels = connected_components(mat, directed=False)
    return labels


def _search_matrix(g: WeightedGraph):
    """(labels, csr), built once per graph.

    labels maps each vertex to its zero-weight component, or is None when g
    has no zero weights; csr is the symmetric weight matrix of the graph on
    those components.
    """
    if g._csr is None:
        u, v, w = g.edge_arrays()
        # Split sum: exact for any int64 weights, where a plain int64 sum may wrap.
        total = (int((w >> 32).sum()) << 32) + int((w & 0xFFFFFFFF).sum())
        if total >= WEIGHT_LIMIT:
            raise ValueError(
                f"total edge weight {total} reaches the limit 2**52 = {WEIGHT_LIMIT}; "
                "search distances would not be exact"
            )
        labels, k = None, g.n
        if g.has_zero_weights:
            labels = _zero_contracted_components(g)
            k = int(labels.max()) + 1
            cu, cv = labels[u], labels[v]
            keep = cu != cv
            lo = np.minimum(cu[keep], cv[keep])
            hi = np.maximum(cu[keep], cv[keep])
            w = w[keep]
            order = np.lexsort((w, hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            first = np.ones(lo.size, dtype=bool)
            first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            u, v, w = lo[first], hi[first], w[first]
        data = np.concatenate([w, w]).astype(np.float64)
        mat = csr_matrix((data, (np.concatenate([u, v]), np.concatenate([v, u]))), shape=(k, k))
        g._csr = (labels, mat)
    return g._csr


def _distances(g: WeightedGraph, src: int | None = None) -> np.ndarray:
    """int64 distances from src, or all pairs when src is None; -1 marks
    unreachable."""
    if src is not None and not 0 <= src < g.n:
        raise ValueError(f"source {src} out of range")
    labels, mat = _search_matrix(g)
    if src is None:
        dist = dijkstra(mat, directed=True)
        if labels is not None:
            dist = dist[np.ix_(labels, labels)]
    else:
        dist = dijkstra(mat, directed=True, indices=src if labels is None else labels[src])
        if labels is not None:
            dist = dist[labels]
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int64)


def distances_from(g: WeightedGraph, src: int) -> np.ndarray:
    """Exact distances from src as an int64 array, -1 for unreachable."""
    arr = _distances(g, src)
    arr.flags.writeable = False
    return arr


def distance_between(g: WeightedGraph, s: int, t: int):
    """Distance between two vertices, UNREACHABLE when no path exists."""
    if s == t:
        return 0
    d = int(_distances(g, s)[t])
    return UNREACHABLE if d < 0 else d


@dataclass(frozen=True)
class ShortestPathTree:
    """Shortest-path tree with deterministic parents.

    parents[root] == root; unreachable vertices carry -1 in both arrays.
    """

    root: int
    parents: tuple[int, ...]
    dists: tuple[int, ...]

    def dist(self, v: int):
        d = self.dists[v]
        return UNREACHABLE if d < 0 else d

    def parent(self, v: int):
        p = self.parents[v]
        return None if p < 0 else p

    def path_from_root(self, v: int) -> list[int]:
        if self.dists[v] < 0:
            raise UnreachablePairError(f"{v} unreachable from root {self.root}")
        out = [v]
        while v != self.root:
            v = self.parents[v]
            out.append(v)
        out.reverse()
        return out


def _assign_parents(g: WeightedGraph, dists: np.ndarray, root: int) -> list[int]:
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
            for u, w in g.adj(v):
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


def shortest_paths_from(g: WeightedGraph, src: int) -> ShortestPathTree:
    """Single-source shortest paths with lowest-id parent tie-breaks."""
    dists = _distances(g, src)
    parents = _assign_parents(g, dists, src)
    return ShortestPathTree(root=src, parents=tuple(parents), dists=tuple(dists.tolist()))


def canonical_trees(g: WeightedGraph) -> dict[int, ShortestPathTree]:
    """The deterministic shortest-path tree rooted at every vertex."""
    return {v: shortest_paths_from(g, v) for v in range(g.n)}


# -- distance matrices -----------------------------------------------------


class DenseDistanceMatrix:
    """All-pairs distances of `graph` in a dense int64 matrix, -1 for
    unreachable."""

    __slots__ = ("n", "graph", "_mat")

    def __init__(self, mat: np.ndarray, graph: WeightedGraph):
        mat = mat.astype(np.int64, copy=False)
        mat.flags.writeable = False
        self._mat = mat
        self.n = mat.shape[0]
        self.graph = graph

    def d(self, u: int, v: int):
        val = int(self._mat[u, v])
        return UNREACHABLE if val < 0 else val

    def row(self, u: int) -> np.ndarray:
        return self._mat[u]

    def matrix(self) -> np.ndarray:
        return self._mat

    def diameter(self) -> int:
        finite = self._mat[self._mat >= 0]
        return int(finite.max()) if finite.size else 0


def all_pairs(g: WeightedGraph, *, pair_cap: int = DEFAULT_PAIR_CAP) -> DenseDistanceMatrix:
    """All-pairs shortest-path distances as a dense matrix.

    Equals n invocations of shortest_paths_from; raises ResourceLimitError
    when n^2 entries would exceed pair_cap, and ValueError when the total edge
    weight reaches WEIGHT_LIMIT.
    """
    if g.n * g.n > pair_cap:
        raise ResourceLimitError(
            f"all-pairs matrix needs {g.n * g.n} entries, cap is {pair_cap}"
        )
    return DenseDistanceMatrix(_distances(g), g)


#: Sources per block of shortest_path_hits; bounds its temporaries to a few
#: arrays of _HIT_BLOCK * (n + 2m) entries.
_HIT_BLOCK = 32


def shortest_path_hits(dm: DenseDistanceMatrix, mask) -> np.ndarray:
    """n x n bool matrix: hit[u, v] iff v is reachable from u and some vertex
    of the bool vertex mask lies on a shortest u-v path, that is
    d(u,c) + d(c,v) == d(u,v) for some c in mask.

    Brandes-style propagation (Brandes 2001) over tight edges, O(n m) in all:
    hit[u, v] holds iff u or v is in the mask or hit[u, x] holds for a tight
    in-edge x->v, one with d(u,x) + w = d(u,v). Rows are independent and run
    in blocks of _HIT_BLOCK sources. Inside a block the pending pairs are taken
    in bands of d(u,v) // wmin, wmin the least positive weight, so every
    positive tight in-edge leaves an earlier band; zero-weight tight edges
    stay inside a band and are closed by a fixpoint.
    """
    g = dm.graph
    n = dm.n
    mat = dm.matrix()
    mask = np.asarray(mask, dtype=bool)
    hit = np.zeros((n, n), dtype=bool)
    if not mask.any():
        return hit
    eu, ev, ew = g.edge_arrays()
    # In-edges x->v in CSR order by target v.
    heads = np.concatenate([ev, eu])
    order = np.argsort(heads, kind="stable")
    e_src = np.concatenate([eu, ev])[order]
    e_w = np.concatenate([ew, ew])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    positive = ew[ew > 0]
    wmin = int(positive.min()) if positive.size else 1
    for lo in range(0, n, _HIT_BLOCK):
        d = mat[lo : lo + _HIT_BLOCK]
        reach = d >= 0
        h = hit[lo : lo + _HIT_BLOCK]
        # Seeds: v in the mask, and whole rows of sources in the mask (those
        # would follow from hit[u, u], but need no propagation this way).
        np.logical_and(reach, mask[None, :] | mask[lo : lo + _HIT_BLOCK, None], out=h)
        df, hf = d.reshape(-1), h.reshape(-1)
        # Pending pairs as flat ids u * n + v within the block, by band.
        pend = np.flatnonzero(reach & ~h)
        if pend.size == 0:
            continue
        pend = pend[np.argsort(df[pend] // wmin, kind="stable")]
        dv = df[pend]
        pv = pend % n
        # Every in-edge of every pending pair, in pair order; keep the tight ones.
        starts = indptr[pv]
        counts = indptr[pv + 1] - starts
        pair = np.repeat(np.arange(pend.size), counts)
        e = np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(pair.size)
        src = (pend - pv)[pair] + e_src[e]
        tight = df[src] + e_w[e] == dv[pair]
        src, pair, zero = src[tight], pair[tight], e_w[e[tight]] == 0
        dst = pend[pair]
        band = dv[pair] // wmin
        cuts = np.flatnonzero(band[1:] != band[:-1]) + 1
        for a, b in zip(np.concatenate([[0], cuts]), np.concatenate([cuts, [band.size]])):
            hf[dst[a:b][hf[src[a:b]]]] = True
            z = zero[a:b]
            if z.any():
                zs, zd = src[a:b][z], dst[a:b][z]
                while True:
                    new = hf[zs] & ~hf[zd]
                    if not new.any():
                        break
                    hf[zd[new]] = True
    return hit


# -- path uniqueness ---------------------------------------------------------


def _dag_counts(g: WeightedGraph, u: int, v: int, du: np.ndarray, dv: np.ndarray):
    """Shortest-path counts from u to each vertex on a shortest u-v path, and
    those vertices in order of distance from u. Positive weights only.

    Brandes-style accumulation (Brandes 2001) over the tight edges of the u-v
    shortest-path DAG: every edge into a vertex leaves a strictly closer one,
    so each count is final before it is passed on.
    """
    on = (du >= 0) & (dv >= 0) & (du + dv == du[v])
    nodes = np.flatnonzero(on)
    nodes = nodes[np.argsort(du[nodes], kind="stable")].tolist()
    mat = _search_matrix(g)[1]
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    cnt = dict.fromkeys(nodes, 0)
    cnt[u] = 1
    for x in nodes:
        lo, hi = indptr[x], indptr[x + 1]
        ys = indices[lo:hi]
        for y in ys[on[ys] & (du[ys] == du[x] + data[lo:hi])].tolist():
            cnt[y] += cnt[x]
    return cnt, nodes


def count_shortest_paths(
    g: WeightedGraph, u: int, v: int, *, dists_u=None, dists_v=None
) -> int:
    """Exact number of shortest u-v paths via the tight-edge DAG.

    Requires strictly positive weights; counts are exact big integers.
    dists_u and dists_v, when given, are the distances from u and from v.
    """
    if g.has_zero_weights:
        raise ZeroWeightError("path counting requires positive edge weights")
    du = distances_from(g, u) if dists_u is None else np.asarray(dists_u)
    if du[v] < 0:
        raise UnreachablePairError(f"{u} and {v} are not mutually reachable")
    if u == v:
        return 1
    dv = distances_from(g, v) if dists_v is None else np.asarray(dists_v)
    return _dag_counts(g, u, v, du, dv)[0][v]


def is_unique_shortest_path(dm, g: WeightedGraph, u: int, v: int):
    """(True, path) when exactly one shortest u-v path exists, else (False, None)."""
    du = dm.row(u) if dm is not None else distances_from(g, u)
    if du[v] < 0:
        raise UnreachablePairError(f"{u} and {v} are not mutually reachable")
    if u == v:
        return True, [u]
    if g.has_zero_weights:
        raise ZeroWeightError("path counting requires positive edge weights")
    dv = dm.row(v) if dm is not None else distances_from(g, v)
    cnt, nodes = _dag_counts(g, u, v, du, dv)
    # A single u-v path makes every vertex on the DAG a vertex of that path.
    if cnt[v] != 1:
        return False, None
    return True, nodes


def path_weight(g: WeightedGraph, path: list[int]) -> int:
    """Total weight of an explicit vertex path; rejects non-edges."""
    return sum(g.edge_weight(a, b) for a, b in zip(path, path[1:]))
