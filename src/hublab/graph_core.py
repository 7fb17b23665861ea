"""Weighted graph core: representation, shortest-path searches, distance
matrices, shortest-path trees and counts used by every other module."""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

import numpy as np

#: Largest number of distance entries a dense all-pairs matrix may hold.
PAIR_CAP = 250_000_000
#: Vertex rows per block of DenseDistanceMatrix.blocks, the one pass over distance rows.
_ROWS = 64


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


def segment_positions(starts, counts: np.ndarray) -> np.ndarray:
    """The positions starts[i] .. starts[i] + counts[i] - 1, for every i in order."""
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(int(counts.sum()))


def clear_lower(blk: np.ndarray, lo: int) -> None:
    """Clear the entries (u, v), v <= u, of blk, the rows u = lo.. of a square matrix."""
    hi = lo + blk.shape[0]
    blk[:, :lo] = False
    blk[:, lo:hi] = np.triu(blk[:, lo:hi], 1)


def _both_ways(k: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """(indptr, nbr, w) of the symmetric CSR on k vertices of the edges (u, v, w),
    sorted with u < v: a stable sort by row of the entries (v, u), then (u, v),
    lists each row's lower, then upper neighbours; 16-bit rows sort by radix."""
    rows = np.concatenate([v, u])
    order = np.argsort(rows.astype(np.min_scalar_type(k)), kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=k))])
    return indptr, np.concatenate([u, v])[order], np.concatenate([w, w])[order]


class WeightedGraph:
    """Immutable undirected graph with nonnegative integer edge weights.

    Vertices are ids 0..n-1. No self loops, at most one edge per unordered
    pair. Edges are normalized to (min, max, w) and kept in sorted order, so
    two graphs built from the same edge multiset compare and serialize
    identically. Instances are never mutated after construction and are safe
    to share across workers.
    """

    __slots__ = ("n", "_eu", "_ev", "_ew", "_degrees", "_kind", "_edges", "_in", "_csr")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = int(n)
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        arr = arr.reshape(-1, 3)
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        w = arr[:, 2].copy()  # contiguous, and not the caller's memory
        keys = u * self.n + v
        # Strictly increasing keys mean sorted input without duplicates.
        if not (keys[1:] > keys[:-1]).all():
            order = np.lexsort((w, v, u))
            u, v, w, keys = u[order], v[order], w[order], keys[order]
        if (u < 0).any() or (v >= self.n).any():
            raise ValueError("edge endpoint out of range")
        if (u == v).any():
            raise ValueError("self loops are not allowed")
        if (w < 0).any():
            raise ValueError("edge weights must be nonnegative")
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edge for an unordered pair")
        deg = np.bincount(u, minlength=self.n) + np.bincount(v, minlength=self.n)
        for a in (u, v, w, deg):
            a.flags.writeable = False
        self._eu, self._ev, self._ew = u, v, w
        self._degrees = deg
        self._kind = "unit" if (w == 1).all() else "01" if (w <= 1).all() else "general"
        self._edges = None
        self._in = None
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
        return self._kind == "01" or (self._kind == "general" and bool((self._ew == 0).any()))

    def in_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (indptr, nbr, w), built once: the neighbours of v are
        nbr[indptr[v]:indptr[v + 1]], ascending, and w holds the weights of
        those edges at the same positions."""
        if self._in is None:
            self._in = _both_ways(self.n, self._eu, self._ev, self._ew)
            for a in self._in:
                a.flags.writeable = False
        return self._in

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m}, weights={self._kind})"


# -- graph file format -----------------------------------------------------
# Header line "n m", then m lines "u v w". '#' starts a comment. A field is
# an optional "-" and ASCII digits, as write_graph emits it.


def write_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in zip(*(a.tolist() for a in g.edge_arrays())):
            fh.write(f"{u} {v} {w}\n")


def read_graph(path) -> WeightedGraph:
    """Parse a graph file: text of digits, single spaces and newlines alone in
    one step, any other by the line parser, which alone words the errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    raw = np.frombuffer(data, dtype=np.uint8)
    if data.endswith(b"\n") and not data.translate(None, b"0123456789 \n"):
        ends, gaps = np.flatnonzero(raw == ord("\n")), np.flatnonzero(raw == ord(" "))
        fields = np.diff(np.searchsorted(gaps, ends), prepend=0) + 1
        no_empty_field = (raw[gaps - 1] > ord(" ")).all() and (raw[gaps + 1] > ord(" ")).all()
        if no_empty_field and fields[0] == 2 and (fields[1:] == 3).all():
            nums = np.fromstring(data, dtype=np.int64, sep=" ")
            if nums.max() < np.iinfo(np.int64).max and nums[1] == ends.size - 1:
                return WeightedGraph(int(nums[0]), nums[2:].reshape(-1, 3))
    return _read_graph_lines(path)


def _read_graph_lines(path) -> WeightedGraph:
    header = None
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if not all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
                raise GraphFormatError(f"line {lineno}: non-integer field")
            nums = [int(p) for p in parts]
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
# Every search runs on one numpy CSR per graph (_Csr), the graph's quotient by
# its zero-weight components, which stores no zero and keeps the least weight
# of parallel edges; searches are read back through the component labels.
# all_pairs and hit_rows run the first of their searches that pays: the
# bit-parallel BFS (unit quotients of short diameter), then the bucket search
# (few buckets) or csgraph Dijkstra, and _tight_hits. scipy is imported only
# where csgraph runs: Dijkstra, exact below 2**53, and the single-source BFS
# of distances_from, distance_between and CutSearch.

#: Total edge weight from which searches refuse to run, because a path length
#: might no longer be exact in float64.
WEIGHT_LIMIT = 1 << 52


class _Csr:
    """A k x k CSR: row r holds the ascending columns indices[indptr[r]:indptr[r + 1]]
    with float64 weights in data. spread, its _NeighbourOr, and csgraph, a scipy
    csr_matrix of these very arrays (int32 where they fit), are made on first use."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.indptr, self.indices, self.data, self.k = indptr, indices, data, indptr.size - 1

    @cached_property
    def spread(self) -> _NeighbourOr:
        return _NeighbourOr(self)

    @cached_property
    def csgraph(self):
        from scipy.sparse import csr_matrix
        return csr_matrix((self.data, self.indices, self.indptr), shape=(self.k, self.k))


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Components of n vertices under the edges (u[i], v[i]), numbered by
    lowest vertex as scipy numbers them: rounds hook the larger root of each
    edge onto the smaller and jump pointers to the roots, which only fall."""
    root, a, b = np.arange(n), u, v
    while (a != b).any():
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while (root[root] != root).any():
            root = root[root]
        a, b = root[u], root[v]
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def _search_matrix(g: WeightedGraph):
    """(labels, csr), built once per graph.

    labels maps each vertex to its zero-weight component, or is None when g
    has no zero weights; csr is the _Csr of the symmetric weight matrix of the
    graph on those components."""
    if g._csr is None:
        u, v, w = g.edge_arrays()
        total = g.m  # at least the sum of weights of at most 1
        if g.weight_kind == "general":  # split sum: exact where an int64 sum may wrap
            total = (int((w >> 32).sum()) << 32) + int((w & 0xFFFFFFFF).sum())
        if total >= WEIGHT_LIMIT:
            raise ValueError(
                f"total edge weight {total} reaches the limit 2**52 = {WEIGHT_LIMIT}; "
                "search distances would not be exact"
            )
        labels, k = None, g.n
        if g.has_zero_weights:
            labels = _components(g.n, u[w == 0], v[w == 0])
            k = int(labels.max()) + 1
            cu, cv = labels[u], labels[v]
            keep = cu != cv
            lo, hi, w = np.minimum(cu, cv)[keep], np.maximum(cu, cv)[keep], w[keep]
            order = np.lexsort((w, hi, lo))
            key = (lo * k + hi)[order]
            first = order[np.diff(key, prepend=-1) != 0]  # least weight of each pair
            u, v, w = lo[first], hi[first], w[first]
        indptr, cols, w = _both_ways(k, u, v, w)
        ix = np.int32 if max(k, cols.size) <= np.iinfo(np.int32).max else np.int64
        g._csr = (labels, _Csr(indptr.astype(ix), cols.astype(ix), w.astype(np.float64)))
    return g._csr


def _distances(g: WeightedGraph, src: int | None = None):
    """int64 distances from src, -1 for unreachable; or, when src is None,
    (q, diameter) of the zero-weight quotient, q as DenseDistanceMatrix.q."""
    if src is not None and not 0 <= src < g.n:
        raise ValueError(f"source {src} out of range")
    labels, mat = _search_matrix(g)
    if src is None and _bfs_pays(mat, _DIJKSTRA_OPS):
        return _bfs_distances(mat)
    if src is None and (bound := _bucket_bound(mat)) is not None:
        return _bucket_distances(mat, bound)
    qsrc = src if labels is None or src is None else labels[src]
    if src is not None and (mat.data == 1).all():
        dist = _bfs_depths(mat.csgraph, qsrc)
    else:
        from scipy.sparse.csgraph import dijkstra
        dist = dijkstra(mat.csgraph, directed=True, indices=qsrc)
        far = np.isinf(dist)
        dist[far] = 0
        diameter = int(dist.max(initial=0))
        q = dist.astype(np.min_scalar_type(diameter + 1))
        q[far] = np.iinfo(q.dtype).max
        if src is None:
            return q, diameter
        dist = _widen(q)
    return dist if labels is None else dist[labels]


def _bfs_depths(mat, src: int) -> np.ndarray:
    """int64 hop distances from src in the CSR mat, -1 for unreachable. Levels
    are contiguous in csgraph's BFS order and parents' positions never fall, so
    a level ends one past the last vertex whose parent is in the level before."""
    from scipy.sparse.csgraph import breadth_first_order
    order, pred = breadth_first_order(mat, src, return_predecessors=True)
    pos = np.empty(mat.shape[0], dtype=np.int64)
    pos[order] = np.arange(order.size)
    # A memoryview reads Python ints for bisect, with no list of them built.
    parents, ends = memoryview(pos[pred[order[1:]]]), [1]
    while ends[-1] < order.size:
        ends.append(1 + bisect_left(parents, ends[-1]))
    dist = np.full(mat.shape[0], -1, dtype=np.int64)
    dist[order] = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return dist


#: Word operations per source and per vertex or stored entry of the quotient
#: CSR that the bit-parallel BFS's rivals cost at least: csgraph Dijkstra in
#: all_pairs (paths are its cheapest case), and _tight_hits in hit_rows.
#: Fitted on 2 cores to paths, cycles, brooms, lollipops, ladders, grids,
#: random trees and 3-regular graphs of 200 to 2000 vertices, so that no
#: search gets slower than its rival but by a few milliseconds.
_DIJKSTRA_OPS = 8
_BAND_OPS = 1


def _bfs_pays(mat: _Csr, rival_ops: int, levels: int | None = None) -> bool:
    """Whether the bit-parallel BFS should run on the CSR mat in place of a
    search that costs rival_ops word operations per source and per vertex or
    stored entry: the bucket search or Dijkstra, and _tight_hits.

    Only unit weights qualify. The BFS runs a level per distance up to the
    largest diameter D; a level gathers each row of ceil(k / 64) words once
    per neighbour slot and a few more times besides, and once (at about four
    times the cost) per neighbour past the slots. On long paths that
    D k^2 / 64 outgrows the rival's k (k + nnz). levels is D + 1 where the
    caller knows D, and comes from _diameter_estimate, capped, otherwise."""
    if not (mat.data == 1).all():
        return False
    k, deg = mat.k, np.diff(mat.indptr)
    slots = min(int(deg.max(initial=0)), _SLOTS)
    level = ((k + 63) // 64) * ((k + 1) * (slots + 3) + 4 * int(np.maximum(deg - _SLOTS, 0).sum()))
    budget = rival_ops * k * (k + mat.indices.size)
    levels = levels or _diameter_estimate(mat, budget // max(level, 1)) + 1
    return levels * level <= budget


def _diameter_estimate(mat: _Csr, cap: int) -> int:
    """Largest eccentricity a double sweep finds over the components of the CSR
    mat, or cap once a sweep passes cap levels: a BFS from the lowest vertex of
    each, then one from the lowest it reached last. At least half the largest
    diameter, exact on trees; only what the BFS from 0 misses is split up."""
    depth, levels = _sweep(mat.spread, [0], cap)
    comp = np.zeros(mat.k, dtype=np.int64)
    if levels <= cap and (depth < 0).any():
        rows = np.repeat(np.arange(mat.k), np.diff(mat.indptr))
        left = depth[rows] < 0  # the entries between unreached vertices
        comp = np.where(depth < 0, _components(mat.k, rows[left], mat.indices[left]), 0)
        rest, more = _sweep(mat.spread, np.unique(comp, return_index=True)[1][1:], cap)
        depth, levels = np.maximum(depth, rest), max(levels, more)
    if levels <= cap:
        far = np.lexsort((-depth, comp))  # by component, deepest first, then by id
        levels = _sweep(mat.spread, far[np.unique(comp[far], return_index=True)[1]], cap)[1]
    return levels - 1


def _sweep(spread, starts, cap: int) -> tuple[np.ndarray, int]:
    """(depth, levels) of one BFS from all of starts on the graph of spread, up
    to cap + 1 levels: hops from the nearest start, -1 where none reaches.
    A front holds each new neighbour once: at the one position of nb whose
    write to slot landed."""
    depth = np.append(np.full(spread.pad.shape[1] - 1, -1), 0)  # 0 at spread.pad's filler k
    slot = np.empty_like(depth)
    front, levels = np.asarray(starts, dtype=np.int64), 1
    depth[front] = 0
    while front.size and levels <= cap:
        nb = spread.pad.take(front, axis=1).ravel()
        hub = front[spread.more[front] > 0] if spread.big.size else spread.big
        if hub.size:
            nb = np.append(nb, spread.rest[segment_positions(spread.extra[hub], spread.more[hub])])
        nb = nb[depth[nb] < 0]
        at = np.arange(nb.size)
        slot[nb] = at
        front = nb[slot[nb] == at]
        depth[front] = levels
        levels += front.size > 0
    return depth[:-1], levels


#: Word of the bit-parallel searches: bit i of word j of a row stands for
#: source 64 j + i. Little-endian, so a row viewed as bytes unpacks in order.
_WORD = np.dtype("<u8")


#: Neighbour positions that _NeighbourOr gathers one at a time; the
#: neighbours of a vertex past this many go into one reduceat.
_SLOTS = 8


class _NeighbourOr:
    """Callable rows -> out on a k x k CSR matrix, with out[v] the bitwise or of rows[x]
    over the neighbours x of v. rows and out have k + 1 rows, and row k is zero in both.

    The j-th neighbours of all vertices, for j < _SLOTS, are one gather each,
    pad[j], pointing at the zero row k where a vertex has fewer neighbours;
    that runs several times faster than a reduceat over every CSR row while
    degrees are small. The more[v] neighbours past _SLOTS of each v in big,
    rest[extra[v]:], are one reduceat, so hubs cost no loop of their degree.
    pos and rest_pos hold their CSR positions, nnz where pad holds k."""

    def __init__(self, mat: _Csr):
        ip, nbr, k = mat.indptr, mat.indices, mat.k
        deg = np.diff(ip)
        slot = np.arange(min(int(deg.max(initial=0)), _SLOTS))[:, None]
        self.pos = np.where(slot < np.append(deg, 0), np.append(ip[:-1], 0) + slot, nbr.size)
        self.pad = np.append(nbr, k).take(self.pos)
        self.more = np.maximum(deg - _SLOTS, 0)
        self.big, self.extra = np.flatnonzero(self.more), np.cumsum(self.more) - self.more
        self.rest_pos = segment_positions(ip[self.big] + _SLOTS, self.more[self.big])
        self.rest = nbr[self.rest_pos]

    def __call__(self, rows: np.ndarray, tight: np.ndarray | None = None) -> np.ndarray:
        """out; with tight, the or of rows[x] & tight[e], e the CSR position of x."""
        def gather(x, e):
            got = rows.take(x, axis=0)
            return got if tight is None else np.bitwise_and(got, tight.take(e, axis=0), out=got)
        out = gather(self.pad[0], self.pos[0]) if len(self.pad) else np.zeros_like(rows)
        for x, e in zip(self.pad[1:], self.pos[1:]):
            out |= gather(x, e)
        if self.big.size:
            out[self.big] |= np.bitwise_or.reduceat(gather(self.rest, self.rest_pos), self.extra[self.big], axis=0)
        return out


def _bfs_fronts(k: int, spread: _NeighbourOr):
    """Yield (level, front) of one level-synchronous BFS from every vertex of
    a unit-weight graph on k vertices at once, spread being its _NeighbourOr,
    as in the bit-parallel BFS of pruned landmark labeling (Akiba, Iwata,
    Yoshida 2013): front is a (k + 1) x ceil(k / 64) array of _WORD rows,
    with the bit of source s in row v set iff d(s, v) == level. Row k and the
    bits past k stay clear. Callers must not write to front."""
    ids = np.arange(k)
    front = np.zeros((k + 1, (k + 63) // 64), dtype=_WORD)
    front[ids, ids >> 6] = np.uint64(1) << (ids & 63).astype(np.uint64)
    yield from enumerate(_fronts(spread, front))


def _fronts(spread: _NeighbourOr, seen: np.ndarray, tight: np.ndarray | None = None):
    """Yield seen, then the bits new to it that spread carries along tight from the last, ored
    into seen in place, until none is new. Callers must not write to what they get."""
    front = seen
    while front.any():
        yield front
        front = spread(front, tight)
        front |= seen
        front ^= seen  # front & ~seen, without a temporary
        seen |= front


def _spread_out(spread: _NeighbourOr, seen: np.ndarray, tight: np.ndarray) -> np.ndarray:
    """seen, in place, with every bit that _fronts spreads from it."""
    for _ in _fronts(spread, seen, tight):
        pass
    return seen


def _bfs_distances(mat: _Csr):
    """(q, diameter) of the unit-weight CSR mat. Each level ors its front into
    the bit planes of its number, so only the planes are unpacked, once
    each, into q, which starts at its maximum where no front reached."""
    k = mat.k
    planes = []  # planes[p] holds bit p of every distance
    reached = np.zeros((k + 1, (k + 63) // 64), dtype=_WORD)
    diameter = 0
    for diameter, front in _bfs_fronts(k, mat.spread):
        reached |= front
        if diameter >> len(planes):
            planes.append(np.zeros_like(front))
        for p, plane in enumerate(planes):
            if diameter >> p & 1:
                plane |= front
    dtype = np.min_scalar_type(diameter + 1)
    q = _unpack(~reached[:k], k).view(np.uint8).astype(dtype, copy=False)
    np.negative(q, out=q)  # 1 -> the maximum
    for p, plane in enumerate(planes):
        bits = _unpack(plane[:k], k).view(np.uint8).astype(dtype, copy=False)
        bits <<= p
        q |= bits
    return q, diameter


def _unpack(rows: np.ndarray, k: int) -> np.ndarray:
    """The bool matrix of the first k bits of each row, _WORD or bytes."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=k, bitorder="little").view(bool)


#: Sources per block of _bucket_distances, and rows per tile of _tight_hits.
_BLOCK = 128


def _bucket_bound(mat: _Csr) -> int | None:
    """2 e wmax, e from _diameter_estimate, a bound on the CSR mat's distances, if
    _bucket_distances pays on mat, else None: it relaxes as cheaply as Dijkstra, and its
    scans of q, a row per bucket of width wmin, cost at most _DIJKSTRA_OPS words per entry."""
    k, w = mat.k, mat.data
    wmin, wmax = (int(w.min()), int(w.max())) if w.size else (1, 1)
    budget = _DIJKSTRA_OPS * (k + w.size)
    cap = (budget // max(-(-k // 8), 1) - 1) * wmin // (2 * wmax)  # e at one byte per distance
    if cap < 0 or (e := _diameter_estimate(mat, cap + 1)) > cap:
        return None
    row = -(-k * np.min_scalar_type(2 * e * wmax + wmin + wmax).itemsize // 8)
    return 2 * e * wmax if (2 * e * wmax // wmin + 1) * row <= budget else None


def _bucket_distances(mat: _Csr, bound: int):
    """(q, diameter) of the CSR mat of positive weights and distances at most bound, by
    Delta-stepping with Delta = wmin, the least weight (Meyer, Sanders 2003): a bucket of width
    wmin is final once those below are relaxed. Blocks of _BLOCK sources find it with one
    flatnonzero and relax it along mat.spread, a vertex standing in for missing neighbours at
    weight 0, in a dtype that holds bound + wmin + wmax; q is narrowed at the end."""
    k, spread, w = mat.k, mat.spread, mat.data.astype(np.int64)
    wmin, wmax = (int(w.min()), int(w.max())) if w.size else (1, 1)
    dtype, diameter = np.min_scalar_type(bound + wmin + wmax), 0
    pad = np.where(spread.pad < k, spread.pad, np.arange(k + 1))[:, :k]
    pad_w = np.append(w, 0).take(spread.pos)[:, :k].astype(dtype)
    q = np.full((k, k), np.iinfo(dtype).max, dtype=dtype)
    np.fill_diagonal(q, 0)
    for lo in range(0, k, _BLOCK):
        flat, at = q[lo : lo + _BLOCK].reshape(-1), 0
        while at <= diameter + wmax:  # past every tentative distance
            f = np.flatnonzero(np.subtract(flat, at, dtype=dtype) < wmin)
            at += wmin
            d, u = flat[f], f % k
            diameter = max(diameter, int(d.max(initial=0)))
            for x, wx in zip(pad, pad_w):
                np.minimum.at(flat, f - u + x.take(u), d + wx.take(u))
            hub = np.flatnonzero(spread.more.take(u)) if spread.big.size else spread.big
            e = segment_positions(spread.extra[u[hub]], spread.more[u[hub]])
            f = np.repeat(f[hub] - u[hub], spread.more[u[hub]]) + spread.rest[e]
            np.minimum.at(flat, f, np.repeat(d[hub], spread.more[u[hub]]) + w[spread.rest_pos[e]])
    return q.astype(np.min_scalar_type(diameter + 1), copy=False), diameter


def distances_from(g: WeightedGraph, src: int) -> np.ndarray:
    """Exact distances from src as an int64 array, -1 for unreachable."""
    arr = _distances(g, src)
    arr.flags.writeable = False
    return arr


def distance_between(g: WeightedGraph, s: int, t: int):
    """Distance between two vertices, UNREACHABLE when no path exists. On
    unit quotient weights: the steps from t back to s in one BFS tree."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"endpoints ({s}, {t}) out of range for n = {g.n}")
    if s == t:
        return 0
    labels, mat = _search_matrix(g)
    if not (mat.data == 1).all():
        d = int(_distances(g, s)[t])
        return UNREACHABLE if d < 0 else d
    if labels is not None:
        s, t = int(labels[s]), int(labels[t])
    return _bfs_steps(mat.csgraph, s, t)


def _bfs_steps(mat, s: int, t: int):
    """Hops from s to t in the unit-weight scipy CSR mat, UNREACHABLE when t
    is not reached: the steps from t back to s in one BFS tree."""
    from scipy.sparse.csgraph import breadth_first_order
    # A memoryview reads Python ints, several times faster than numpy scalars.
    pred = memoryview(breadth_first_order(mat, s, return_predecessors=True)[1])
    d = 0
    while t != s and t >= 0:  # csgraph marks "no predecessor" negative
        t, d = pred[t], d + 1
    return d if t >= 0 else UNREACHABLE


class CutSearch:
    """Searches of the unit-weight graph g with every vertex outside the bool
    mask kept cut out, in g's vertex ids: the distances of the subgraph that
    kept induces, with no graph of that subgraph built.

    The searches run on a scipy copy of g's own search CSR in which every stored
    column that names a cut vertex points at the search's source. The BFS has
    visited the source before it reads any column, so it never enters a cut
    vertex. (Zeroing those entries instead would not cut them: csgraph
    traverses a stored zero.)"""

    def __init__(self, g: WeightedGraph, kept: np.ndarray):
        labels, mat = _search_matrix(g)
        if labels is not None or not (mat.data == 1).all():
            raise RuntimeError(f"a cut search needs a unit-weight graph, not {g!r}")
        self._kept = kept
        self._cut = np.flatnonzero(~kept.take(mat.indices))
        self._mat = _Csr(mat.indptr, mat.indices.copy(), mat.data).csgraph

    def _from(self, s: int):
        """The scipy CSR, its own indices written, whose cut columns point at s."""
        if not self._kept[s]:
            raise ValueError(f"source {s} is cut")
        self._mat.indices[self._cut] = s
        return self._mat

    def distance(self, s: int, t: int):
        """As distance_between, in the subgraph."""
        return _bfs_steps(self._from(s), s, t)

    def distances_from(self, s: int) -> np.ndarray:
        """As distances_from, in the subgraph: -1 at every cut vertex."""
        dist = _bfs_depths(self._from(s), s)
        dist.flags.writeable = False
        return dist


# -- distance matrices -----------------------------------------------------


def _check_pair_cap(n: int) -> None:
    if n * n > PAIR_CAP:
        raise ResourceLimitError(f"all-pairs matrix needs {n * n} entries, cap is {PAIR_CAP}")


class DenseDistanceMatrix:
    """All-pairs distances of `graph`, held on its zero-weight quotient: q is
    the k x k matrix of the components in the narrowest unsigned dtype whose
    maximum, far, marks unreachable pairs and exceeds every distance;
    labels[v] is the component of vertex v and size[c] the vertex count of
    component c. Members of one component share their distance row, so
    rows, q_rows and at read the vertex matrix through labels, and no n x n
    copy of it is held; rows, at and matrix return int64, -1 for unreachable.
    Without zero weights q is the vertex matrix, labels is None and every
    size is 1. _hits holds the quotient hits of the last search of hit_rows."""

    __slots__ = ("n", "graph", "q", "far", "labels", "size", "_diameter", "_hits")

    def __init__(self, q: np.ndarray, graph: WeightedGraph):
        _check_pair_cap(graph.n)  # consumers allocate n-wide rows
        self.labels = _search_matrix(graph)[0]
        self.size = np.broadcast_to(np.int64(1), graph.n)  # read-only, allocates nothing
        if self.labels is not None:
            self.size = np.bincount(self.labels)
        if q.shape != (self.size.size,) * 2 or q.dtype.kind != "u":
            raise ValueError(f"{q.shape} {q.dtype} matrix; want {self.size.size}-square unsigned")
        q.flags.writeable = False
        self.q = q
        self.far = int(np.iinfo(q.dtype).max)
        self.n, self.graph, self._diameter, self._hits = graph.n, graph, None, (None, None)

    def rows(self, idx) -> np.ndarray:
        """The distance rows of the vertices idx: an index, a slice or an array."""
        return _widen(self.q_rows(idx))

    def q_rows(self, idx) -> np.ndarray:
        """rows(idx) as q codes them; without zero weights a slice is a view of q."""
        return self.q[idx] if self.labels is None else self.q[self.labels[idx]].take(self.labels, -1)

    def blocks(self):
        """Yield (lo, hi, q_rows(slice(lo, hi))) over all rows, _ROWS at a time, in order."""
        for lo in range(0, self.n, _ROWS):
            yield lo, min(lo + _ROWS, self.n), self.q_rows(slice(lo, lo + _ROWS))

    def at(self, u, v):
        """d(u, v), elementwise over vertex indices or arrays u and v."""
        if self.labels is not None:
            u, v = self.labels[u], self.labels[v]
        return _widen(self.q.reshape(-1).take(np.asarray(u, dtype=np.int64) * len(self.q) + v))

    def matrix(self) -> np.ndarray:
        """The whole n x n vertex matrix, a new one on every call."""
        return self.rows(slice(None))

    def diameter(self) -> int:
        """Largest finite distance: from the search in all_pairs, else one scan."""
        if self._diameter is None:
            self._diameter = max(int(np.add(self.q, 1, dtype=self.q.dtype).max(initial=0)) - 1, 0)
        return self._diameter


def _widen(a) -> np.ndarray:
    """Values read from a q as int64, its maximum as -1: that + 1 wraps to 0."""
    return np.subtract(np.add(a, 1, dtype=a.dtype), 1, dtype=np.int64)


def all_pairs(g: WeightedGraph) -> DenseDistanceMatrix:
    """All-pairs shortest-path distances as a dense matrix.

    Equals n invocations of distances_from; raises ResourceLimitError
    when n^2 entries would exceed PAIR_CAP, before it searches, and
    ValueError when the total edge weight reaches WEIGHT_LIMIT. Runs the
    bit-parallel BFS where _bfs_pays, else the bucket search where
    _bucket_bound allows, else csgraph Dijkstra.
    """
    _check_pair_cap(g.n)
    q, diameter = _distances(g)
    dm = DenseDistanceMatrix(q, g)
    dm._diameter = diameter
    return dm


def hit_rows(dm: DenseDistanceMatrix, mask, idx) -> np.ndarray:
    """The rows idx, a slice or an index array, of the n x n bool matrix hit:
    hit[u, v] iff v is reachable from u and some vertex of the bool vertex
    mask lies on a shortest u-v path, that is d(u,c) + d(c,v) == d(u,v) for
    some c in mask.

    Runs on the quotient of the search section: a masked vertex lies on a
    shortest u-v walk iff its zero-weight component lies on a shortest path
    between the components of u and v, so a component counts as masked when
    it holds one, and hits are read back through dm's component labels. There
    Brandes-style propagation (Brandes 2001) decides every pair: hit[u, v]
    iff u or v is masked or hit[u, x] for a tight in-edge x->v, one with
    d(u,x) + w = d(u,v), as bits over all sources at once: in _bfs_hits on
    unit quotients where _bfs_pays, else in _tight_hits. dm keeps the last
    hits, keyed by the quotient mask; an equal mask only unpacks rows.
    """
    mat = _search_matrix(dm.graph)[1]
    k = mat.k
    mask = np.asarray(mask, dtype=bool)
    if dm.labels is not None:
        mask = np.bincount(dm.labels[mask], minlength=k) > 0
    key, packed = dm._hits  # one read: another thread may replace the pair
    if key != mask.tobytes():
        if _bfs_pays(mat, _BAND_OPS, dm.diameter() + 1):
            packed = _bfs_hits(mat, mask)
        else:
            packed = _tight_hits(mat, dm.q, mask, dm.diameter())
        dm._hits = (mask.tobytes(), packed)
    if dm.labels is None:
        return _unpack(packed[:k][idx], k)
    return _unpack(packed[dm.labels[idx]], k).take(dm.labels, -1)


def _bfs_hits(mat, mask) -> np.ndarray:
    """The hits of hit_rows on the unit-weight CSR mat, in _WORD rows. At level l of
    _bfs_fronts, v's hit row holds the sources of its front whose paths to v meet the mask:
    all of them when v is masked, the masked ones, and those in the previous level's hit
    row of a neighbour, which is exactly a tight in-edge of v."""
    k = mat.k
    acc = np.zeros((k + 1, (k + 63) // 64), dtype=_WORD)
    row = np.zeros_like(acc[0])
    row.view(np.uint8)[: (k + 7) // 8] = np.packbits(mask, bitorder="little")
    masked, hit = np.flatnonzero(mask), None
    for _, front in _bfs_fronts(k, mat.spread):
        hit = front & row if hit is None else mat.spread(hit)
        hit |= row
        hit &= front
        hit[masked] = front[masked]
        acc |= hit
    return acc


def _tight_hits(mat, q: np.ndarray, mask, diameter: int) -> np.ndarray:
    """The hits of hit_rows, in _WORD rows, on the CSR mat of positive weights with its
    distances q, coded as DenseDistanceMatrix.q, and their diameter. An in-edge x->v is tight
    for source s iff q[x, s] + w == q[v, s], a compare of two rows as q is symmetric. Per
    block of sources, whose tight bits (a byte row per entry) take no more room than the hits,
    row v starts with its reached sources if v is masked, else its reached masked ones, and
    passes spread the bits new in the last along tight in-edges."""
    k, nnz = mat.k, mat.indices.size
    acc = np.zeros((k + 1, (k + 63) // 64), dtype=_WORD)
    far, out = np.iinfo(q.dtype).max, acc.view(np.uint8)
    dtype = np.promote_types(q.dtype, np.min_scalar_type(2 * diameter + 1))  # holds d + w if tight
    tgt = np.repeat(np.arange(k), np.diff(mat.indptr))
    wt = np.minimum(mat.data, diameter + 1).astype(dtype)  # heavier is never tight either
    block = max(1, out.shape[1] * (k + 1) // (nnz + 1))
    for lo in range(0, (k + 7) // 8, block):
        cols = slice(8 * lo, min(8 * (lo + block), k))
        width = (cols.stop - cols.start + 7) // 8
        hits, tight = np.zeros((k + 1, width), dtype=np.uint8), np.zeros((nnz + 1, width), dtype=np.uint8)
        for a in range(0, max(k, nnz), _BLOCK):
            v, e = slice(a, min(a + _BLOCK, k)), slice(a, min(a + _BLOCK, nnz))
            reach = (q[v, cols] != far) & (mask[v, None] | mask[cols])
            hits[v] = np.packbits(reach, 1, bitorder="little")
            same = np.add(q[mat.indices[e], cols], wt[e, None], dtype=dtype) == q[tgt[e], cols]
            tight[e] = np.packbits(same, 1, bitorder="little")
        out[:, lo : lo + width] = _spread_out(mat.spread, hits, tight)
    return acc


# -- shortest-path trees -----------------------------------------------------


def canonical_trees(dm: DenseDistanceMatrix, lo: int, hi: int) -> np.ndarray:
    """The shortest-path trees rooted at lo .. hi - 1 as an int32 (hi - lo) x n
    parents matrix: row r - lo holds each vertex's parent in the tree of r, r
    at r, and -1 where r does not reach.

    v's parent is the lowest-id x of a tight in-edge x->v (d(r,x) + w = d(r,v)) with
    p(x) + c = p(v). p(v) is the pass in which a fixpoint in (distance, id) order attaches
    v to a rooted neighbour: p(r) = 1, and p(v) is the least p(x) + c over tight x->v,
    c = 1 iff w = 0 and x > v, but 0 on r's own edges, which are tested apart. Without
    zero weights p = 1 and c = 0. The test runs on keys d P + p and weights w P + c, P > p:
    vertices of degree above top read all their in-edges at once, the others their j-th
    for each j < top, which top keeps to the fewest steps.
    """
    g, n = dm.graph, dm.n
    indptr, nbr, w = g.in_edges()
    small = np.min_scalar_type(-2 * dm.diameter() - 2)  # holds d + w for every w that can be tight
    d = _widen(dm.q_rows(slice(lo, hi))).astype(small)  # [i, v]: d(lo + i, v), then its key
    w, nbr, none = np.minimum(w, dm.diameter() + 1).astype(small), nbr.astype(np.int32), np.int32(n)
    e = slice(indptr[lo], indptr[hi])  # the roots' own edges, all with c = 0
    i = np.repeat(np.arange(hi - lo, dtype=np.int32), np.diff(indptr[lo : hi + 1]))
    near = d[i, nbr[e]] == w[e]
    i, x = i[near], nbr[e][near]
    if g.has_zero_weights:
        d, w = _pass_keys(g, d, w, lo, hi)
    order = np.argsort(-g.degrees, kind="stable")
    above = n - np.cumsum(np.bincount(g.degrees, minlength=1))  # [j]: vertices of degree > j
    top = int(np.argmin(above + np.arange(above.size)))
    low = np.full((hi - lo, n), none)  # [i, k]: lowest tight in-neighbour of order[k], or n
    for k, v in enumerate(order[: above[top]]):
        e = slice(indptr[v], indptr[v + 1])
        low[:, k] = (nbr[e] + none * (d.take(nbr[e], 1) + w[e] != d[:, v, None])).min(1)
    for j in range(top):
        k = slice(above[top], above[j])
        e = indptr[order[k]] + j
        miss = d.take(nbr[e], 1) + w[e] != d.take(order[k], 1)
        np.minimum(low[:, k], nbr[e] + none * miss, out=low[:, k])
    parents = np.empty_like(low)
    parents[:, order] = low
    np.minimum.at(parents, (i, x), lo + i)
    parents[(parents == n) | (d < 0)] = -1  # unreached, even where zero edges look tight
    parents[np.arange(hi - lo), np.arange(lo, hi)] = np.arange(lo, hi)
    return parents


def _pass_keys(g: WeightedGraph, d: np.ndarray, w: np.ndarray, lo: int, hi: int):
    """canonical_trees' keys d P + p and weights w P + c from its rows d and weights w. Pass p
    holds, as bits over the roots, the vertices of pass p - 1, those one tight edge on, and
    all that tight edges with c = 0 reach from these; p counts the passes a vertex is not in."""
    indptr, nbr, _ = g.in_edges()
    tgt, dt = np.repeat(np.arange(g.n), np.diff(indptr)), np.ascontiguousarray(d.T)
    c = (w == 0) & (nbr > tgt)
    same = np.packbits(dt[nbr] + w[:, None] == dt[tgt], 1, bitorder="little")
    tight = np.append(same, np.zeros_like(same[:1]), 0)  # row nnz: where spread pads
    spread, flat = _NeighbourOr(_Csr(indptr, nbr, w)), tight * np.append(~c, False)[:, None]
    got = np.packbits(np.eye(g.n + 1, hi - lo, -lo, dtype=bool), 1, bitorder="little")  # pass 0: roots
    p = np.ones(dt.shape, dtype=np.int64)  # [v, i], 1 + the passes v is not in
    while not np.array_equal(nxt := _spread_out(spread, spread(got, tight) | got, flat), got):
        p += ~_unpack(nxt[: g.n], hi - lo)
        got = nxt
    span = int(p.max(initial=0)) + 1
    small = np.min_scalar_type(int(np.iinfo(d.dtype).min) * span)  # holds key + weight if tight
    return (d * np.int64(span) + p.T).astype(small), (w * np.int64(span) + c).astype(small)


# -- path counting -----------------------------------------------------------


def _dag_counts(g: WeightedGraph, u: int, v: int, du: np.ndarray, dv: np.ndarray):
    """Shortest-path counts from u to each vertex on a shortest u-v path.
    Positive weights only.

    Brandes-style accumulation (Brandes 2001) over the tight edges of the u-v
    shortest-path DAG: every edge into a vertex leaves a strictly closer one,
    so each count is final before it is passed on.
    """
    on = (du >= 0) & (dv >= 0) & (du + dv == du[v])
    nodes = np.flatnonzero(on)
    nodes = nodes[np.argsort(du[nodes], kind="stable")]
    indptr, indices, data = g.in_edges()
    # Every edge x-y out of the DAG's nodes, in node order; keep the tight ones.
    counts = indptr[nodes + 1] - indptr[nodes]
    x = np.repeat(nodes, counts)
    e = segment_positions(indptr[nodes], counts)
    y = indices[e]
    tight = on[y] & (du[y] == du[x] + data[e])
    cnt = dict.fromkeys(nodes.tolist(), 0)
    cnt[u] = 1
    for a, b in zip(x[tight].tolist(), y[tight].tolist()):
        cnt[b] += cnt[a]
    return cnt


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
    return _dag_counts(g, u, v, du, dv)[v]
