"""Hub label storage, distance queries, cover verification, size accounting,
and monotone closures along fixed shortest-path trees."""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph_core import (
    UNREACHABLE,
    GraphFormatError,
    UnreachablePairError,
    canonical_trees,
    clear_lower,
    hit_rows,
    segment_positions,
)

_I32_MAX = int(np.iinfo(np.int32).max)
_I64_MAX = int(np.iinfo(np.int64).max)
_NO_SUM = np.uint64(np.iinfo(np.uint64).max)
#: Joined entry pairs per step of the verifier's join (one entry's pairs may
#: exceed it).
_CHUNK = 1 << 13
#: Uncovered pairs a CoverReport lists; uncovered_total counts them all.
_LISTED = 1000


class HubLabeling:
    """Per-vertex hub sets with stored distances, in CSR arrays.

    The entries of vertex v are hub[offsets[v]:offsets[v + 1]] (int32 hub
    ids, strictly increasing) with the stored distances at the same positions
    of dist (int64). The public arrays are read-only, and query keeps one
    published read-only probe row per labeling (see query); the stored
    distance of every entry is expected to equal the true graph distance.
    """

    __slots__ = ("n", "offsets", "hub", "dist", "_probe")

    def __init__(self, sizes, hub, dist):
        """The labeling whose row v holds the next sizes[v] entries (hub[i],
        dist[i]). Rows whose hubs are in range and strictly increase, with
        nonnegative distances, are kept as given: owned int32 hub and int64
        dist arrays without a copy, views copied. Any other rows go through
        _sorted_rows, which sorts them or raises ValueError."""
        sizes = np.asarray(sizes, dtype=np.int64)
        hub, dist = np.asarray(hub), np.asarray(dist, dtype=np.int64)
        if (sizes < 0).any() or int(sizes.sum()) != hub.size or hub.size != dist.size:
            raise ValueError(f"row sizes sum to {int(sizes.sum())} for {hub.size} entries")
        if not _clean_rows(sizes, hub, dist):
            sizes, hub, dist = _sorted_rows(sizes, hub, dist)
        self.n = sizes.size
        self.offsets = np.concatenate([[0], np.cumsum(sizes)])
        hub = hub.astype(np.int32, copy=False)  # below, no view of the caller's memory is kept
        self.hub, self.dist = (a if a.base is None else a.copy() for a in (hub, dist))
        for a in (self.offsets, self.hub, self.dist):
            a.flags.writeable = False
        self._probe = (-1, None)  # (source, row) of query; -1 is no vertex

    @classmethod
    def from_blocks(cls, dm, block) -> "HubLabeling":
        """The labeling of dm.n rows, made per block of dm.blocks(): block(lo,
        hi, d) returns the bool member mask of the rows lo .. hi - 1, and each
        row holds the columns its member row marks, with distances from d."""
        sizes = np.zeros(dm.n, np.int64)
        parts = [(np.zeros(0, np.int32), np.zeros(0, np.int64))]
        for lo, hi, d in dm.blocks():
            member = block(lo, hi, d)
            at = np.flatnonzero(member)
            sizes[lo:hi] = member.sum(1)
            parts.append(((at % dm.n).astype(np.int32), d.reshape(-1).take(at).astype(np.int64)))
        hub, dist = map(np.concatenate, zip(*parts))
        del parts  # the blocks are freed before the constructor's own temporaries
        return cls(sizes, hub, dist)

    def _span(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range")
        return self.offsets.item(v), self.offsets.item(v + 1)

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


def _clean_rows(sizes: np.ndarray, hub: np.ndarray, dist: np.ndarray) -> bool:
    """Whether rows of the given sizes hold hubs in range, each row's
    strictly increasing, and nonnegative distances."""
    rise, starts = hub[1:] > hub[:-1], np.cumsum(sizes[:-1])
    rise[starts[(starts > 0) & (starts < hub.size)] - 1] = True  # a row may start lower
    return bool(rise.all() and 0 <= hub.min(initial=0) and hub.max(initial=-1) < sizes.size
                and dist.min(initial=0) >= 0)


def _sorted_rows(sizes: np.ndarray, hub: np.ndarray, dist: np.ndarray):
    """(sizes, hub, dist) of the same rows with each row's hubs sorted and
    entries of one hub stored twice with equal distances merged. A hub out of
    range, a negative distance or two distances for one hub raise ValueError,
    which reports the first faulty entry in the given order."""
    n = sizes.size
    owner = np.repeat(np.arange(n), sizes)
    hub = np.asarray(hub, dtype=np.int64)
    fault = (hub < 0) | (hub >= n) | (dist < 0)
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
    return np.bincount(owner[first], minlength=n), hub[first], dist[first]


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
        return self._hl.entries(range(self._hl.n)[v])

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
    hub sets are disjoint. Always an over-approximation of the distance.

    Answers from the probe row of u or v: the stored distances of one source
    at its hubs and _NO_SUM at every other vertex, read at the hubs of the
    other endpoint. When neither is the source, u's row replaces the probe as
    a new (source, row) pair, so a reader never sees a half-built one.
    """
    a0, a1 = hl._span(u)
    b0, b1 = hl._span(v)
    source, row = hl._probe
    if source == v:
        b0, b1 = a0, a1
    elif source != u:
        row = np.full(hl.n, _NO_SUM)
        row[hl.hub[a0:a1]] = hl.dist[a0:a1].view(np.uint64)
        row.flags.writeable = False
        hl._probe = (u, row)
    dv = hl.dist[b0:b1].view(np.uint64)
    sums = row.take(hl.hub[b0:b1])
    # Stored distances are below 2**63, so a sum through a common hub stays
    # below _NO_SUM, and a hub the source lacks sums to exactly _NO_SUM.
    np.minimum(sums, ~dv, out=sums)
    sums += dv
    best = int(sums.min(initial=_NO_SUM))
    return UNREACHABLE if best == _NO_SUM else best


def ceil_log2(x: int) -> int:
    """Bits needed to tell x values apart (0 for x <= 1)."""
    return (x - 1).bit_length() if x >= 1 else 0


def entry_bits(n: int, diameter: int) -> int:
    """Accounting convention: every entry costs id bits plus distance bits."""
    return ceil_log2(n) + ceil_log2(diameter + 1)


def bit_estimate(hl: HubLabeling, diameter: int) -> int:
    """Bits of the whole labeling at entry_bits per entry."""
    return hl.total_size * entry_bits(hl.n, diameter)


def verify_cover(hl: HubLabeling, dm) -> CoverReport:
    """Check query(u,v) == d(u,v) for every mutually reachable pair.

    Pairs are enumerated in canonical (u, v) order with u < v; the uncovered
    list holds the first _LISTED of them but the total count is exact.

    An entry is exact when its hub is reachable and its stored distance is
    the true one, and low when the hub is unreachable or the distance lower.
    The core is the set of hubs that every vertex of the hub's component
    stores exactly; through it, a pair's query never goes below d(u,v) and
    reaches it iff a core hub lies on a shortest u-v path (hit_rows). The
    other entries decide the rest: each block of dm.blocks() joins its
    entries with the later entries of their hubs, O(sum of c_w**2) pairs for
    c_w such entries of hub w, and a step expands at most max(_CHUNK, one
    entry's pairs). A pair the core misses is covered iff a joined sum meets
    d(u,v), and any pair is uncovered if one falls below it, which takes a
    low entry. A stored distance above the diameter can neither equal nor
    undercut any d(u,v), so the join reads those at diameter + 1, and its
    sums stay far inside int64.
    """
    n = hl.n
    if n != dm.n:
        raise ValueError("labeling and distance matrix disagree on n")
    diam = dm.diameter()
    core, owner, hub, stored, any_low = _split_entries(hl, dm)
    stored = np.minimum(stored, diam + 1)
    # entry i pairs with the later[i] entries after its position pos[i] in
    # its hub's run of the (hub, owner) order, whose owners and distances
    # are run_owner and run_stored
    by_hub = np.argsort(hub.astype(np.min_scalar_type(n)), kind="stable")  # radix below 2**16
    pos = np.empty_like(by_hub)
    pos[by_hub] = np.arange(by_hub.size)
    later = np.cumsum(np.bincount(hub, minlength=n)).take(hub) - pos - 1
    ends = np.cumsum(later)
    run_owner, run_stored = owner[by_hub], stored[by_hub]
    uncovered, total_bad = [], 0
    for lo, hi, d in dm.blocks():
        flat = d.reshape(-1)
        pairs = d != dm.far
        clear_lower(pairs, lo)  # v > u
        bad = pairs & ~hit_rows(dm, core, slice(lo, hi))  # the missed pairs, until a sum meets d
        met, under = np.zeros((2, *d.shape), dtype=bool)
        a, last = np.searchsorted(owner, [lo, hi])
        while a < last:
            b = np.searchsorted(ends, ends[a] - later[a] + _CHUNK, side="right")
            b = min(max(a + 1, b), last)
            c, right = later[a:b], segment_positions(pos[a:b] + 1, later[a:b])
            i = np.repeat((owner[a:b] - lo) * n, c) + run_owner[right]
            sums, t = np.repeat(stored[a:b], c) + run_stored[right], flat[i]
            met.reshape(-1)[i[sums == t]] = True
            under.reshape(-1)[i[sums < t] if any_low else []] = True
            a = b
        bad = bad & ~met | under & pairs
        total_bad += int(np.count_nonzero(bad))
        u, v = np.divmod(np.flatnonzero(bad)[: _LISTED - len(uncovered)], n)
        uncovered += zip((u + lo).tolist(), v.tolist())
    total = hl.total_size
    return CoverReport(
        valid=(total_bad == 0),
        uncovered=tuple(uncovered),
        uncovered_total=total_bad,
        avg_hub_size=Fraction(total, n) if n else Fraction(0),
        total_size=total,
        bit_estimate=bit_estimate(hl, diam),
    )


def _split_entries(hl: HubLabeling, dm):
    """(core, owner, hub, stored, any_low): the core hubs as a bool mask, the
    entries that are not exact entries of a core hub, and whether one is low.

    Each block of dm.blocks() compares its entries with its own distance
    rows, so no temporary but two masks outgrows a block.
    """
    n = hl.n
    hub, stored, offsets = hl.hub, hl.dist, hl.offsets
    reach, held = np.zeros((2, n), dtype=np.int64)
    exact = np.zeros(hub.size, dtype=bool)
    for lo, hi, d in dm.blocks():
        reach[lo:hi] = np.count_nonzero(d != dm.far, axis=1)
        a, b = offsets[lo], offsets[hi]
        at = np.repeat(np.arange(hi - lo) * n, np.diff(offsets[lo : hi + 1])) + hub[a:b]
        true = d.reshape(-1).take(at)
        exact[a:b] = (true == stored[a:b]) & (true != dm.far)
        held += np.bincount(hub[a:b][exact[a:b]], minlength=n)
    core = held == reach
    rest = np.flatnonzero(~(exact & core[hub]))
    owner, hub, stored = np.searchsorted(offsets, rest, side="right") - 1, hub[rest], stored[rest]
    true = dm.at(owner, hub)
    return core, owner, hub, stored, bool(((true < 0) | (stored < true)).any())


def monotone_closure(hl: HubLabeling, dm) -> HubLabeling:
    """Close each hub set upward along the tree rooted at its vertex in
    canonical_trees: the closure of S_v is the vertex set of the minimal
    subtree rooted at v that contains S_v, with distances from dm. Per block
    of dm.blocks(), whose trees canonical_trees builds for that block alone,
    hubs walk up one level per step and stop at marked vertices; a block's
    marks are its rows. The first unreachable hub raises UnreachablePairError."""
    n = hl.n
    if n != dm.n:
        raise ValueError("labeling and distance matrix disagree on n")

    def block(lo, hi, d):
        base = np.repeat(np.arange(hi - lo) * n, np.diff(hl.offsets[lo : hi + 1]))
        x = base + hl.hub[hl.offsets[lo] : hl.offsets[hi]]
        far = np.flatnonzero(d.reshape(-1).take(x) == dm.far)
        if far.size:
            v, h = divmod(int(x[far[0]]), n)
            raise UnreachablePairError(f"hub {h} unreachable in the tree of {lo + v}")
        par = canonical_trees(dm, lo, hi).reshape(-1)
        mark = np.full(par.size, -1, dtype=np.int32)  # >= 0 once in the closure
        mark[x] = 0
        while x.size:
            x = base + par[x]
            new = mark[x] < 0
            base, x = base[new], x[new]
            step = np.arange(x.size)
            mark[x] = step
            first = mark[x] == step  # one walker per newly marked vertex
            base, x = base[first], x[first]
        return (mark >= 0).reshape(hi - lo, n)

    return HubLabeling.from_blocks(dm, block)


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
#: Label entries per block of the writer (a block holds at least one row).
_BLOCK_ENTRIES = 1 << 15
#: Bytes per block of the canonical reader, which ends at the next newline.
_READ_BYTES = 1 << 17
#: Distances below this index a token table by value (see _label_blocks).
_VALUE_TABLE = 1 << 20


def write_labels(hl: HubLabeling, path) -> None:
    """Write the canonical text of hl, block by block."""
    with open(path, "wb") as fh:
        for block in _label_blocks(hl):
            fh.write(block)


def format_labels(hl: HubLabeling) -> str:
    """The canonical text of hl, as write_labels writes it."""
    return b"".join(_label_blocks(hl)).decode("ascii")


def _label_blocks(hl: HubLabeling):
    """The canonical text of hl as ASCII bytes, in blocks of rows.

    The tokens are " (h," per hub and "d)" per distance, from tables indexed
    by hub id and by distance value, and "v:" and "\n" per row. Each is
    zero-padded to the width of the widest of its kind; an entry's two
    tokens make one slot, and "v:" and "\n" one slot each. A block of rows
    gathers its slots in file order and drops the zero bytes. When a distance
    reaches _VALUE_TABLE, distance tokens are rendered per entry instead.
    """
    n = hl.n
    if n == 0:
        yield b"\n"
        return
    top = int(hl.dist.max(initial=0))
    hub_table = _tokens(np.arange(n), b" (", b",", 3 + len(str(n - 1)))
    dist_width = 1 + len(str(top))
    by_value = top < _VALUE_TABLE
    if by_value:
        dist_table = _tokens(np.arange(top + 1), b"", b")", dist_width)
    pair = np.dtype([("hub", hub_table.dtype), ("dist", (np.void, dist_width))])
    slot = np.dtype((np.void, pair.itemsize))
    newline = np.frombuffer(b"\n".ljust(slot.itemsize, b"\0"), dtype=slot)
    offsets = hl.offsets
    lo = 0
    while lo < n:
        # rows lo .. hi - 1: at least one, and no more than _BLOCK_ENTRIES
        # entries unless the first row alone has more
        hi = int(np.searchsorted(offsets, offsets[lo] + _BLOCK_ENTRIES, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        a, b = int(offsets[lo]), int(offsets[hi])
        pairs = np.empty(b - a, dtype=pair)
        pairs["hub"] = hub_table.take(hl.hub[a:b])
        if by_value:
            pairs["dist"] = dist_table.take(hl.dist[a:b])
        else:
            pairs["dist"] = _tokens(hl.dist[a:b], b"", b")", dist_width)
        # row lo + i fills the slots heads[i] .. lines[i]
        lines = 2 * np.arange(hi - lo) + (offsets[lo + 1 : hi + 1] - a) + 1
        heads = lines - np.diff(offsets[lo : hi + 1]) - 1
        out = np.empty(2 * (hi - lo) + b - a, dtype=slot)
        entry = np.ones(out.size, dtype=bool)
        entry[heads] = entry[lines] = False
        out[entry] = pairs.view(slot)
        out[heads] = _tokens(np.arange(lo, hi), b"", b":", slot.itemsize)
        out[lines] = newline
        yield out.tobytes().translate(None, b"\0")
        lo = hi


#: 10**k for k = 1 .. 19: a value below 2**64 has one digit more than the
#: powers it reaches.
_POWERS = 10 ** np.arange(1, 20, dtype=np.uint64)


def _tokens(values, prefix: bytes, suffix: bytes, width: int) -> np.ndarray:
    """prefix + decimal value + suffix for each non-negative value, as ASCII
    zero-padded to width bytes, one item of a void array per value."""
    v = np.asarray(values, dtype=np.uint64)
    size = 1 + np.searchsorted(_POWERS, v, side="right")
    buf = np.zeros((v.size, width), dtype=np.uint8)
    buf[:, : len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    end = len(prefix) + size  # one past the last digit
    rows = np.arange(v.size)
    for k in range(1, int(size.max(initial=1)) + 1):
        live = size >= k
        buf[rows[live], end[live] - k] = ord("0") + v[live] % np.uint64(10)
        v = v // np.uint64(10)
    for i, c in enumerate(suffix):
        buf[rows, end + i] = c
    return buf.view(np.dtype((np.void, width))).reshape(-1)


def read_labels(path) -> HubLabeling:
    """Parse a label file. Text in the layout write_labels writes, with
    canonical decimals, is taken by a fast path, which hands the constructor
    the rows the line parser would; any other text goes to the line parser,
    which alone decides what else is well formed and how a fault in the text
    is reported."""
    with open(path, "rb") as fh:
        hl = _read_canonical(fh)
    return _read_lines(path) if hl is None else hl


def _read_canonical(fh) -> HubLabeling | None:
    """The labeling whose canonical text is the binary file fh, or None.

    The file is read in blocks, twice, and never held whole: to count the
    entries, one per "("; then in blocks of whole lines of about _READ_BYTES,
    whose layout is proved from the positions of "(", "," and "\n": each ")"
    or ":" sits two bytes before the next "(" of its row, a space between,
    or just before the row's newline, and every other byte is a digit. The
    digit runs must be canonical decimals. Rows out of order are left to the
    constructor, which sorts them or reports their first fault as the line
    parser would, since it gets the same rows."""
    total = sum(block.count(b"(") for block in iter(lambda: fh.read(_READ_BYTES), b""))
    hub = np.empty(total, dtype=np.int32)
    dist = np.empty(total, dtype=np.int64)
    sizes = [np.zeros(0, dtype=np.int64)]
    a = n = 0
    fh.seek(0)
    while block := fh.read(_READ_BYTES) + fh.readline():
        raw = np.frombuffer(block, dtype=np.uint8)
        ends = np.flatnonzero(raw == ord("\n"))
        opens = np.flatnonzero(raw == ord("("))
        commas = np.flatnonzero(raw == ord(","))
        digits = raw - np.uint8(ord("0"))
        is_digit = digits < 10
        rows, b = ends.size, a + opens.size
        counted = np.count_nonzero(is_digit) + 2 * rows + 4 * opens.size == raw.size
        if raw[-1] != ord("\n") or commas.size != opens.size or not counted:
            return None
        digits *= is_digit  # a digit's value, and 0 at every other byte
        size = np.diff(np.searchsorted(opens, ends), prepend=0)
        lasts, full = np.cumsum(size) - 1, size > 0  # each row's last entry
        closes = np.roll(opens, -1) - 2
        closes[lasts[full]] = ends[full] - 1
        colons = ends - 1
        colons[full] = opens[lasts[full] - size[full] + 1] - 2
        spaced = (raw[opens - 1] == ord(" ")).all() and (raw[closes] == ord(")")).all()
        if not (spaced and (raw[colons] == ord(":")).all()):
            return None
        # ")\n" or ":\n" comes before a vertex id (the block's end before its
        # first), ") (" or ": (" before a hub and "," before a distance
        ids = _numbers(digits, colons, colons - np.append(0, ends[:-1] + 1), _I32_MAX, 2)
        hubs = _numbers(digits, commas, commas - opens - 1, _I32_MAX, 3)
        dists = _numbers(digits, closes, closes - commas - 1, _I64_MAX, 1)
        if ids is None or hubs is None or dists is None or (ids != np.arange(n, n + rows)).any():
            return None
        hub[a:b], dist[a:b] = hubs, dists
        sizes.append(size)
        a, n = b, n + rows
    return HubLabeling(np.concatenate(sizes), hub, dist) if a == total and n > 0 else None


def _numbers(digits: np.ndarray, ends: np.ndarray, width: np.ndarray, limit: int, pad: int):
    """The numbers in digits[ends - width : ends], which holds digit values
    with pad zeros before each number; None unless each is a canonical
    decimal of at most limit (< 10**19). int32 up to 9 digits, else uint64."""
    low, top = int(width.min(initial=1)), int(width.max(initial=1))
    if low < 1 or top > len(str(limit)) or ((digits[ends - width] == 0) & (width > 1)).any():
        return None
    value = np.zeros(ends.size, dtype=np.int32 if top < 10 else np.uint64)
    for k in range(top):
        d = digits[ends - (k + 1)]
        if k >= low + pad:  # beyond the zeros before the shortest numbers
            d *= width > k
        value += d * value.dtype.type(10**k)
    return value if value.max(initial=0) <= limit else None


def _read_lines(path) -> HubLabeling:
    """Parse a label file line by line. Every line's syntax is checked first,
    then that every number fits in int64, then the labeling itself."""
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
    return HubLabeling(counts, pairs[:, 0], pairs[:, 1])
