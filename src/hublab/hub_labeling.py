"""Hub label storage, distance queries, cover verification, size accounting,
and monotone closures along fixed shortest-path trees."""

from __future__ import annotations

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
)

_INF32 = np.int32(1 << 29)


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
