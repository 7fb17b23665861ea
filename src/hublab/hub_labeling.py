"""Hub label storage, distance queries, cover verification, size accounting,
and monotone closures along fixed shortest-path trees."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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
#: Rows per block of the verifier's n x n passes.
_ROWS = 256
#: Label entries, or joined entry pairs, per chunk of the verifier.
_CHUNK = 1 << 15


class HubLabeling:
    """Per-vertex hub sets with stored distances, sorted by hub id.

    Immutable after construction; the stored distance of every entry is
    expected to equal the true graph distance.
    """

    __slots__ = ("n", "hubs")

    def __init__(self, n: int, hubs: Iterable[Iterable[tuple[int, int]]]):
        self.n = int(n)
        norm = []
        for v, entries in enumerate(hubs):
            seen = {}
            for h, d in entries:
                h, d = int(h), int(d)
                if not 0 <= h < self.n:
                    raise ValueError(f"vertex {v}: hub {h} out of range")
                if d < 0:
                    raise ValueError(f"vertex {v}: negative stored distance")
                if h in seen and seen[h] != d:
                    raise ValueError(f"vertex {v}: conflicting distances for hub {h}")
                seen[h] = d
            norm.append(tuple(sorted(seen.items())))
        if len(norm) != self.n:
            raise ValueError("hub sets must cover every vertex id")
        self.hubs = tuple(norm)

    def entries(self, v: int) -> tuple[tuple[int, int], ...]:
        return self.hubs[v]

    def hub_ids(self, v: int) -> tuple[int, ...]:
        return tuple(h for h, _ in self.hubs[v])

    def size(self, v: int) -> int:
        return len(self.hubs[v])

    @property
    def total_size(self) -> int:
        return sum(len(e) for e in self.hubs)

    def __eq__(self, other) -> bool:
        return isinstance(other, HubLabeling) and self.n == other.n and self.hubs == other.hubs

    def __repr__(self) -> str:
        return f"HubLabeling(n={self.n}, total={self.total_size})"


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
    a, b = hl.hubs[u], hl.hubs[v]
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

    The labeling is flattened once into int32 and then read in chunks of
    _CHUNK entries, so no temporary grows with the label size.
    """
    n = hl.n
    sizes = np.fromiter((len(e) for e in hl.hubs), dtype=np.int64, count=n)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.chain.from_iterable(hl.hubs)),
        dtype=np.int32,
        count=2 * int(sizes.sum()),
    ).reshape(-1, 2)
    hub, stored = flat[:, 0], flat[:, 1]
    if stored.size and int(stored.max()) >= int(_INF32) // 4:
        raise ResourceLimitError("stored distances too large for vectorized verification")
    owner = np.repeat(np.arange(n, dtype=np.int32), sizes)
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
    sets = []
    for v in range(dm.n):
        row = dm.row(v)
        reach = np.flatnonzero(row >= 0)
        sets.append([(int(h), int(row[h])) for h in reach])
    return HubLabeling(dm.n, sets)


def monotone_closure(hl: HubLabeling, trees: Mapping[int, ShortestPathTree]) -> HubLabeling:
    """Close each hub set upward along the fixed tree rooted at its vertex.

    The closure of S_v is the vertex set of the minimal subtree of T_v rooted
    at v containing S_v; distances come from the tree.
    """
    out = []
    for v in range(hl.n):
        ent = hl.hubs[v]
        if not ent:
            out.append(())
            continue
        tree = trees[v]
        if tree.root != v:
            raise ValueError(f"tree for vertex {v} is rooted at {tree.root}")
        parents = tree.parents
        dists = tree.dists
        member = set()
        for h, _ in ent:
            if dists[h] < 0:
                raise UnreachablePairError(f"hub {h} unreachable in the tree of {v}")
            x = h
            while x not in member:
                member.add(x)
                if x == v:
                    break
                x = parents[x]
        out.append(sorted((x, dists[x]) for x in member))
    return HubLabeling(hl.n, out)


# -- label file format -------------------------------------------------------
# One line per vertex: "v: (h1,d1) (h2,d2) ...". Hubs sorted by id.

_ENTRY_RE = re.compile(r"\((\d+),(\d+)\)")
_BODY_RE = re.compile(r"\s*(?:\((0|[1-9][0-9]*),(0|[1-9][0-9]*)\)\s*)*")


def write_labels(hl: HubLabeling, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_labels(hl))


def format_labels(hl: HubLabeling) -> str:
    lines = []
    for v in range(hl.n):
        body = " ".join(f"({h},{d})" for h, d in hl.hubs[v])
        lines.append(f"{v}: {body}".rstrip())
    return "\n".join(lines) + "\n"


def read_labels(path) -> HubLabeling:
    sets = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh):
            line = raw.strip()
            if not line:
                continue
            head, _, body = line.partition(":")
            try:
                v = int(head)
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno + 1}: bad vertex id") from exc
            if v != len(sets):
                raise GraphFormatError(f"line {lineno + 1}: vertex ids must be consecutive")
            if _BODY_RE.fullmatch(body) is None:
                raise GraphFormatError(f"line {lineno + 1}: malformed hub entries")
            sets.append([(int(h), int(d)) for h, d in _ENTRY_RE.findall(body)])
    return HubLabeling(len(sets), sets)
