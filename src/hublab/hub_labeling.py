"""Hub label storage, distance queries, cover verification, size accounting,
and monotone closures along fixed shortest-path trees."""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import (
    DEFAULT_PAIR_CAP,
    UNREACHABLE,
    GraphFormatError,
    ResourceLimitError,
    ShortestPathTree,
    UnreachablePairError,
    shortest_path_hits,
)

_INF32 = np.int32(1 << 29)
_I64_MIN, _I64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_NO_SUM = np.uint64(np.iinfo(np.uint64).max)
#: Rows per block of the verifier's n x n passes.
_ROWS = 256
#: Label entries, or joined entry pairs, per chunk of the verifier.
_CHUNK = 1 << 15


class HubLabeling:
    """Per-vertex hub sets with stored distances, in CSR arrays.

    The entries of vertex v are hub[offsets[v]:offsets[v + 1]] (int32 hub
    ids, strictly increasing) with the stored distances at the same positions
    of dist (int64). Immutable after construction; the stored distance of
    every entry is expected to equal the true graph distance.
    """

    __slots__ = ("n", "offsets", "hub", "dist")

    def __init__(self, n: int, hubs: Iterable[Iterable[tuple[int, int]]]):
        """One iterable of (hub, distance) pairs per vertex, in any order."""
        counts, flat = [], []
        for entries in hubs:
            k = len(flat)
            for h, d in entries:
                flat.append(int(h))
                flat.append(int(d))
            counts.append((len(flat) - k) // 2)
        owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        try:
            pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            i = next(i for i, x in enumerate(flat) if not _I64_MIN <= x <= _I64_MAX)
            what = ("hub id", "stored distance")[i % 2]
            raise ValueError(
                f"vertex {owner[i // 2]}: {what} {flat[i]} does not fit in 64 bits"
            ) from None
        self._set(int(n), len(counts), owner, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_entries(cls, n: int, owner, hub, dist) -> "HubLabeling":
        """The labeling of n vertices with one entry (owner[i], hub[i],
        dist[i]) per i; the same checks and merging as the constructor."""
        hl = cls.__new__(cls)
        hl._set(int(n), int(n), *(np.asarray(a, dtype=np.int64) for a in (owner, hub, dist)))
        return hl

    def _set(self, n: int, rows: int, owner, hub, dist) -> None:
        """Validate flat int64 entries of `rows` rows and store them sorted,
        with equal-distance duplicates merged. The first faulty entry in
        the given order is reported."""
        fault = (hub < 0) | (hub >= n) | (dist < 0)
        key = owner * n + hub
        if rows == n and not fault.any() and bool((key[1:] > key[:-1]).all()):
            first = np.ones(hub.size, dtype=bool)  # already sorted, no duplicates
        else:
            order = np.lexsort((hub, owner))
            owner, hub, dist, fault = owner[order], hub[order], dist[order], fault[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = (owner[1:] != owner[:-1]) | (hub[1:] != hub[:-1])
            fault |= dist != dist[first][np.cumsum(first) - 1]
            if fault.any():
                bad = np.flatnonzero(fault)
                j = bad[np.argmin(order[bad])]
                v, h = owner[j], hub[j]
                if not 0 <= h < n:
                    raise ValueError(f"vertex {v}: hub {h} out of range")
                if dist[j] < 0:
                    raise ValueError(f"vertex {v}: negative stored distance")
                raise ValueError(f"vertex {v}: conflicting distances for hub {h}")
            if rows != n:
                raise ValueError("hub sets must cover every vertex id")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[first], minlength=n), out=offsets[1:])
        self.n = n
        self.offsets, self.hub, self.dist = offsets, hub[first].astype(np.int32), dist[first]
        for a in (self.offsets, self.hub, self.dist):
            a.flags.writeable = False

    def _span(self, v: int) -> tuple[int, int]:
        v = range(self.n)[v]
        return int(self.offsets[v]), int(self.offsets[v + 1])

    @property
    def hubs(self) -> "_Rows":
        """Read-only view of the rows as tuples of (hub, distance) pairs."""
        return _Rows(self)

    def entries(self, v: int) -> tuple[tuple[int, int], ...]:
        a, b = self._span(v)
        return tuple(zip(self.hub[a:b].tolist(), self.dist[a:b].tolist()))

    def size(self, v: int) -> int:
        a, b = self._span(v)
        return b - a

    @property
    def total_size(self) -> int:
        return int(self.offsets[-1])

    def owners(self) -> np.ndarray:
        """The vertex of every entry, in entry order."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.offsets))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HubLabeling)
            and self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.hub, other.hub)
            and np.array_equal(self.dist, other.dist)
        )

    def __repr__(self) -> str:
        return f"HubLabeling(n={self.n}, total={self.total_size})"


class _Rows(Sequence):
    """The rows of a labeling, each built as a tuple of (hub, distance) pairs
    only when it is read; two views are equal iff their labelings are."""

    __slots__ = ("_hl",)

    def __init__(self, hl: HubLabeling):
        self._hl = hl

    def __len__(self) -> int:
        return self._hl.n

    def __getitem__(self, v):
        if isinstance(v, slice):
            return tuple(map(self._hl.entries, range(self._hl.n)[v]))
        return self._hl.entries(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Rows):
            return NotImplemented
        return self._hl == other._hl


@dataclass(frozen=True)
class CoverReport:
    valid: bool
    uncovered: tuple[tuple[int, int], ...]
    uncovered_total: int
    avg_hub_size: Fraction
    total_size: int
    bit_estimate: int


def query(hl: HubLabeling, u: int, v: int):
    """min over common hubs of stored(u,w) + stored(w,v); UNREACHABLE when the
    hub sets are disjoint. Always an over-approximation of the distance."""
    a0, a1 = hl._span(u)
    b0, b1 = hl._span(v)
    a, b = hl.hub[a0:a1], hl.hub[b0:b1]
    if not (a.size and b.size):
        return UNREACHABLE
    at = np.searchsorted(b, a)
    common = b.take(at, mode="clip") == a
    # Stored distances are below 2**63, so their sums fit below _NO_SUM.
    sums = hl.dist[a0:a1][common].astype(np.uint64)
    sums += hl.dist[b0:b1].take(at[common]).astype(np.uint64)
    best = int(sums.min(initial=_NO_SUM))
    return UNREACHABLE if best == _NO_SUM else best


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x >= 1 else 0


def bit_estimate(hl: HubLabeling, diameter: int) -> int:
    """Accounting convention: every entry costs id bits plus distance bits."""
    per_entry = _ceil_log2(hl.n) + _ceil_log2(diameter + 1)
    return hl.total_size * per_entry


def verify_cover(
    hl: HubLabeling,
    dm,
    *,
    truncate: int = 1000,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> CoverReport:
    """Check query(u,v) == d(u,v) for every mutually reachable pair.

    Pairs are enumerated in canonical (u, v) order with u < v; the uncovered
    list is truncated but the total count is exact.

    An entry is exact when its hub is reachable and its stored distance is
    the true one. The core is the set of hubs that every vertex of the hub's
    component stores exactly; through the core, a pair's query reaches d(u,v)
    iff a core hub lies on a shortest u-v path, which shortest_path_hits
    decides. Every other entry goes into a sparse join per hub that gives
    m(u,v), the least stored sum over the remaining common hubs (infinite when
    there is none). A pair is then uncovered iff m < d where the core hits it
    and m != d where it does not.
    """
    n = hl.n
    if n != dm.n:
        raise ValueError("labeling and distance matrix disagree on n")
    if n * n > pair_cap:
        raise ResourceLimitError(f"verification needs {n * n} comparisons, cap is {pair_cap}")
    mat = dm.matrix()
    diam = int(mat.max(initial=0))
    if diam >= int(_INF32) // 4:
        raise ResourceLimitError("distances too large for vectorized verification")
    core, owner, hub, stored = _split_entries(hl, mat)
    keys, m = _min_stored_sums(n, owner, hub, stored)
    hit = shortest_path_hits(dm, core)
    d = mat.reshape(-1)[keys]
    joined = (d >= 0) & np.where(hit.reshape(-1)[keys], m < d, m != d)
    uncovered = []
    total_bad = 0
    cols = np.arange(n)
    for lo in range(0, n, _ROWS):
        bad = hit[lo : lo + _ROWS]
        np.logical_not(bad, out=bad)
        bad &= mat[lo : lo + _ROWS] >= 0
        bad &= cols[None, :] > np.arange(lo, lo + bad.shape[0])[:, None]
        a, b = np.searchsorted(keys, [lo * n, (lo + bad.shape[0]) * n])
        bad.reshape(-1)[keys[a:b] - lo * n] = joined[a:b]
        total_bad += int(np.count_nonzero(bad))
        if len(uncovered) < truncate:
            for i in np.flatnonzero(bad)[: truncate - len(uncovered)].tolist():
                uncovered.append((lo + i // n, i % n))
    total = hl.total_size
    return CoverReport(
        valid=(total_bad == 0),
        uncovered=tuple(uncovered),
        uncovered_total=total_bad,
        avg_hub_size=Fraction(total, n) if n else Fraction(0),
        total_size=total,
        bit_estimate=bit_estimate(hl, diam),
    )


def _split_entries(hl: HubLabeling, mat: np.ndarray):
    """(core, owner, hub, stored): the core hubs as a bool mask and int32
    arrays of the entries that are not exact entries of a core hub.

    The entries are read in chunks of _CHUNK, so no temporary but the int32
    copies grows with the label size.
    """
    n = hl.n
    if hl.dist.size and int(hl.dist.max()) >= int(_INF32) // 4:
        raise ResourceLimitError("stored distances too large for vectorized verification")
    hub, stored = hl.hub, hl.dist.astype(np.int32)
    owner = hl.owners().astype(np.int32)
    reach = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _ROWS):
        reach[lo : lo + _ROWS] = np.count_nonzero(mat[lo : lo + _ROWS] >= 0, axis=1)
    exact = np.zeros(hub.size, dtype=bool)
    held = np.zeros(n, dtype=np.int64)
    chunks = [slice(a, a + _CHUNK) for a in range(0, hub.size, _CHUNK)]
    for c in chunks:
        true = mat[owner[c], hub[c]]
        exact[c] = (true >= 0) & (true == stored[c])
        held += np.bincount(hub[c][exact[c]], minlength=n)
    core = held == reach
    for c in chunks:
        exact[c] &= core[hub[c]]
    rest = ~exact
    return core, owner[rest], hub[rest], stored[rest]


def _min_stored_sums(n: int, owner: np.ndarray, hub: np.ndarray, stored: np.ndarray):
    """(keys, m): for every pair u < v of owners that share a hub, the key
    u * n + v in ascending order and the least stored sum over their common
    hubs.

    The entries come in owner order. Entry i pairs with the entries after it
    in its hub's run of the hub-major order. The pairs are expanded for whole
    owners at a time, about _CHUNK pairs per step, so every step's
    minima are final.
    """
    by_hub = np.lexsort((owner, hub))
    pos = np.empty_like(by_hub)
    pos[by_hub] = np.arange(by_hub.size)
    later = np.searchsorted(hub[by_hub], hub, side="right") - pos - 1
    ends = np.cumsum(later)
    keys, mins = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int32)]
    a = 0
    while a < owner.size:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - later[a] + _CHUNK, side="right")))
        b = int(np.searchsorted(owner, owner[b - 1], side="right"))
        cnt = later[a:b]
        left = np.repeat(np.arange(a, b), cnt)
        step = np.arange(left.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        right = by_hub[pos[left] + 1 + step]
        key = owner[left].astype(np.int64) * n + owner[right]
        m = stored[left] + stored[right]
        order = np.lexsort((m, key))
        key, m = key[order], m[order]
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        keys.append(key[first])
        mins.append(m[first])
        a = b
    return np.concatenate(keys), np.concatenate(mins)


def baseline_full(dm) -> HubLabeling:
    """Trivial upper baseline: every vertex stores all reachable vertices."""
    mat = dm.matrix()
    owner, hub = np.nonzero(mat >= 0)
    return HubLabeling.from_entries(dm.n, owner, hub, mat[owner, hub])


def monotone_closure(hl: HubLabeling, trees: Mapping[int, ShortestPathTree]) -> HubLabeling:
    """Close each hub set upward along the fixed tree rooted at its vertex.

    The closure of S_v is the vertex set of the minimal subtree of T_v rooted
    at v containing S_v; distances come from the tree.
    """
    offsets, ids = hl.offsets.tolist(), hl.hub.tolist()
    counts, hubs, dists = [], [], []
    for v in range(hl.n):
        row = ids[offsets[v] : offsets[v + 1]]
        if not row:
            counts.append(0)
            continue
        tree = trees[v]
        if tree.root != v:
            raise ValueError(f"tree for vertex {v} is rooted at {tree.root}")
        parents = tree.parents
        member = set()
        for h in row:
            if tree.dists[h] < 0:
                raise UnreachablePairError(f"hub {h} unreachable in the tree of {v}")
            x = h
            while x not in member:
                member.add(x)
                if x == v:
                    break
                x = parents[x]
        closed = sorted(member)
        counts.append(len(closed))
        hubs += closed
        dists += [tree.dists[x] for x in closed]
    owner = np.repeat(np.arange(hl.n), counts)
    return HubLabeling.from_entries(hl.n, owner, hubs, dists)


# -- label file format -------------------------------------------------------
# One line per vertex: "v: (h1,d1) (h2,d2) ...". Hubs sorted by id.

# Possessive quantifiers: nothing is given back, so one match over a whole
# file keeps no backtracking state per entry.
_BODY_RE = re.compile(r"\s*+(?:\((?:0|[1-9][0-9]*+),(?:0|[1-9][0-9]*+)\)\s*+)*+")
# A well-formed body holds only ASCII digits, "(),", and whitespace; every
# character but the digits becomes a space before the numbers are parsed.
_NON_DIGIT = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isdigit()})
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")
_LONG_NUMBER_RE = re.compile(r"[0-9]{19,}")


def write_labels(hl: HubLabeling, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_labels(hl))


def format_labels(hl: HubLabeling) -> str:
    sizes = np.diff(hl.offsets).tolist()
    lines = (f"{v}: {('(%d,%d) ' * k)[:-1]}" if k else f"{v}:" for v, k in enumerate(sizes))
    template = "\n".join(lines) + "\n"
    pairs = np.empty((hl.total_size, 2), dtype=np.int64)
    pairs[:, 0], pairs[:, 1] = hl.hub, hl.dist
    return template % tuple(pairs.ravel().tolist())


def read_labels(path) -> HubLabeling:
    """Parse a label file. Every line's syntax is checked first, then that
    every number fits in int64, then the labeling itself."""
    lines, bodies, error = [], [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            head, _, body = line.partition(":")
            try:
                v = int(head)
            except ValueError:
                error = f"line {lineno}: bad vertex id"
                break
            if v != len(bodies):
                error = f"line {lineno}: vertex ids must be consecutive"
                break
            lines.append(lineno)
            bodies.append(body)
    # No body holds a newline, so the joined text is well formed iff every
    # body is; the lines are searched only when it is not.
    if _BODY_RE.fullmatch("\n".join(bodies)) is None:
        bad = next(n for n, body in zip(lines, bodies) if _BODY_RE.fullmatch(body) is None)
        raise GraphFormatError(f"line {bad}: malformed hub entries")
    if error is not None:
        raise GraphFormatError(error)
    counts = [body.count("(") for body in bodies]
    text = "".join(bodies).translate(_NON_DIGIT)
    if not text.isascii():
        text = _NON_ASCII_RE.sub(" ", text)  # only Unicode whitespace is left
    # fromstring reads a number beyond int64 as the int64 maximum, and a text
    # of spaces alone as one 0.
    nums = np.fromstring(text, dtype=np.int64, sep=" ") if sum(counts) else np.zeros(0, np.int64)
    if nums.size and nums.max() == _I64_MAX:
        for lineno, body in zip(lines, bodies):
            if any(int(x) > _I64_MAX for x in _LONG_NUMBER_RE.findall(body)):
                raise GraphFormatError(f"line {lineno}: number does not fit in 64 bits")
    pairs = nums.reshape(-1, 2)
    owner = np.repeat(np.arange(len(bodies)), counts)
    return HubLabeling.from_entries(len(bodies), owner, pairs[:, 0], pairs[:, 1])
