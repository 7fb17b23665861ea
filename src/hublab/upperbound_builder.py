"""Constructive hub-labeling pipeline for sparse graphs.

Stages: a random cover set for pairs with many hub candidates, a random
coloring whose conflicts are stored outright, per-(a,b,h) bucket matchings
whose endpoints collect hubs, and final assembly. Includes the average-degree
to max-degree reduction via zero-weight vertex splitting. The stages only
build; build_for_graph checks the size ledger and the cover once.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    DenseDistanceMatrix,
    WeightedGraph,
    all_pairs,
    clear_lower,
    hit_rows,
    segment_positions,
)
from .hub_labeling import CoverReport, HubLabeling, verify_cover

#: Distance entries build_pair_index and _stage_total scan per block of rows
#: (at least one row), and ball triples (u, v, x) build_pair_index expands per
#: block of vertices (at least one vertex).
_SCAN = 1 << 20
_TRIPLES = 1 << 16
#: A round of _greedy_matchings that decides less than 1/_ROUND_SHARE of the
#: undecided rows hands them to the sequential greedy.
_ROUND_SHARE = 8
#: Draws each sampling stage may take to meet its size budget.
_MAX_RESAMPLES = 32


class ResampleExhausted(RuntimeError):
    """No sample met its size budget within _MAX_RESAMPLES attempts."""


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
    """Threshold D (None selects max(2, ceil(sqrt(ln n)))) and RNG seed."""

    D: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.D is not None and self.D < 1:
            raise ValueError("D must be >= 1")


@dataclass
class BuilderArtifacts:
    """The stage outputs: S as sorted ids, Q, R and F as ascending (owner,
    member) rows, the colors, and the size of every bucket's matching."""

    S: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    F: np.ndarray
    colors: np.ndarray
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
    for attempt in range(_MAX_RESAMPLES):
        result, sample_size = draw(_rng(cfg.seed, stage, attempt))
        if sample_size * D <= 2 * n * n:
            return result, attempt + 1
    raise ResampleExhausted(
        f"{name} stage missed the {2 * n * n}/{D} budget {_MAX_RESAMPLES} times"
    )


def _rows(keys: np.ndarray, n: int) -> np.ndarray:
    """(owner, member) rows of the keys owner * n + member."""
    return np.stack(np.divmod(keys, max(n, 1)), axis=1)


# -- shared pair classification ----------------------------------------------


@dataclass
class PairIndex:
    """Per-graph classification of vertex pairs by candidate-set size.

    small holds the (u, v) rows, u < v in ascending order, of every pair with
    |H_uv| <= D; small_dist their distances, and cand[cand_ptr[i]:
    cand_ptr[i + 1]] the candidates of row i in ascending order. The other
    reachable pairs u < v and the rows with D candidates are big (|H_uv| >=
    D), which the cover stage reads off the distance rows. A path of length
    d has at least ceil(d / wmax) edges, so |H_uv| > D whenever d(u,v) > r =
    (D - 1) * wmax, and only the pairs within r need explicit counts. The
    forced rows (|H_uv| < D at distance > D, possible only with weights
    above 1) are left to the cover stage. Two vertices of one
    zero-weight component are at distance 0, and that component is their
    candidate set.
    """

    n: int
    D: int
    small: np.ndarray
    small_dist: np.ndarray
    cand_ptr: np.ndarray
    cand: np.ndarray
    forced: np.ndarray


def build_pair_index(dm, D: int, *, zero_one: bool = False) -> PairIndex:
    """The PairIndex of dm's graph, classified on its zero-weight quotient.

    Members of one zero-weight component have identical distance rows, so the
    candidates of (u, v) are the members of the quotient candidates of their
    components, and |H_uv| is the sum of those components' sizes. Two members
    of one component (d = 0) have exactly that component as candidates: a
    component of two or more vertices is its own close pair. Without zero
    weights the quotient is the graph, and nothing is expanded."""
    # zero_one selects nothing; perfbench's composed build still passes it.
    n, mat = dm.n, dm.q
    k = mat.shape[0]
    flat = mat.reshape(-1)
    multi = dm.size > 1
    w = dm.graph.edge_arrays()[2]
    r = (D - 1) * (int(w.max()) if w.size else 1)
    us, vs, dists, sizes, hits, cands = ([np.zeros(0, dtype=np.int64)] for _ in range(6))
    rows = max(1, _SCAN // max(k, 1))
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        # the ball entries (u, x), 0 <= d(u, x) <= r, in ascending order; no distance reaches far
        bu, bx = np.divmod(np.flatnonzero(mat[lo:hi] <= min(r, dm.far - 1)), k)
        bu += lo
        bd = flat[bu * k + bx].astype(np.int64)
        ptr = np.searchsorted(bu, np.arange(lo, hi + 1))
        close = np.flatnonzero(bx + multi[bu] > bu)  # u < v, or u = v of two or more vertices
        cptr = np.searchsorted(bu[close], np.arange(lo, hi + 1))
        # every candidate of a close pair (u, v) lies in u's ball: one triple
        # (u, v, x) per ball entry (u, x), expanded at most _TRIPLES at a time
        triples = np.diff(ptr) * np.diff(cptr)
        ends = np.cumsum(triples)
        a = 0
        while a < hi - lo:
            b = int(np.searchsorted(ends, ends[a] - triples[a] + _TRIPLES, side="right"))
            b = max(a + 1, b)
            pair = close[cptr[a] : cptr[b]]
            u, v, d = bu[pair], bx[pair], bd[pair]
            ball = ptr[u - lo + 1] - ptr[u - lo]
            at = segment_positions(ptr[u - lo], ball)
            # d(u, x) + d(x, v) == d(u, v), reading d(v, x) along row v
            dvx = flat[np.repeat(v * k, ball) + bx[at]].astype(np.int64)
            gap = dvx + bd[at] - np.repeat(d, ball)
            hit = np.flatnonzero(gap == 0)
            of = np.repeat(np.arange(pair.size), ball).take(hit)
            x = bx.take(at.take(hit))
            counts = np.bincount(of, weights=dm.size[x], minlength=pair.size).astype(np.int64)
            keep = counts <= D
            us.append(u[keep])
            vs.append(v[keep])
            dists.append(d[keep])
            sizes.append(counts[keep])
            hits.append(np.bincount(of, minlength=pair.size)[keep])
            cands.append(x[keep[of]])
            a = b
    small = np.stack([np.concatenate(us), np.concatenate(vs)], axis=1)
    small_dist = np.concatenate(dists)
    sizes, cand = np.concatenate(sizes), np.concatenate(cands)
    if dm.labels is not None:
        small, small_dist, sizes, cand = _expand_small(dm, small, small_dist, sizes, hits, cand)
    cand_ptr = np.concatenate([[0], np.cumsum(sizes)])
    forced = small[(np.diff(cand_ptr) < D) & (small_dist > D)]
    return PairIndex(n, D, small, small_dist, cand_ptr, cand, forced)


def _expand_small(dm, small, small_dist, sizes, hits, cand):
    """The small rows of build_pair_index's quotient rows, on the vertices:
    (small, small_dist, sizes, cand) in ascending (u, v) order, each row's
    candidates the ascending members of its candidate components. hits lists
    the quotient candidates of each row, in pieces."""
    n, size = dm.n, dm.size
    members = np.argsort(dm.labels, kind="stable")  # ascending within each component
    first = np.cumsum(size) - size
    # the members of every candidate component, ascending within each row
    row = np.repeat(np.repeat(np.arange(sizes.size), np.concatenate(hits)), size[cand])
    vert = members[segment_positions(first[cand], size[cand])]
    vert = np.sort(row * n + vert) - row * n  # rows ascend, so the sort keeps them in place
    # every pair of members of a row's two components, u < v
    cu, cv = small.T
    span = size[cu] * size[cv]
    row = np.repeat(np.arange(span.size), span)
    i = segment_positions(0, span)  # the rank of each pair in its row
    a = members[first[cu[row]] + i // size[cv[row]]]
    b = members[first[cv[row]] + i % size[cv[row]]]
    pair = (cu[row] != cv[row]) | (a < b)  # one component lists each pair both ways
    a, b, row = a[pair], b[pair], row[pair]
    key = np.minimum(a, b) * n + np.maximum(a, b)
    order = np.argsort(key)
    row = row[order]
    small = np.stack(np.divmod(key[order], n), axis=1)
    at = segment_positions((np.cumsum(sizes) - sizes)[row], sizes[row])
    return small, small_dist[row], sizes[row], vert[at]


# -- stage 1: random cover set ------------------------------------------------


def _pair_keys(d: np.ndarray, lo: int, far: int, drop: np.ndarray, hit=np.False_) -> np.ndarray:
    """Ascending keys u * n + v of the reachable pairs u < v of the block d of
    distance rows u = lo.., coded as q codes them, but for those of the
    ascending keys drop and those the bool block hit marks."""
    n = d.shape[1]
    pairs = (d != far) & ~hit
    clear_lower(pairs, lo)
    a, b = np.searchsorted(drop, [lo * n, (lo + len(d)) * n])
    pairs.reshape(-1)[drop[a:b] - lo * n] = False
    return np.flatnonzero(pairs) + lo * n


def _sample_cover(dm, cfg: BuilderConfig, index: PairIndex):
    """(S, Q, attempts); Q holds the big pairs S misses plus the forced pairs.
    An attempt reads the big pairs, the reachable pairs minus the thin rows
    (fewer than D candidates), and the hits of S per block of dm.blocks()."""
    n = dm.n
    D = index.D
    if D == 1 or n == 0:
        # Degenerate threshold: the stage is skipped and all pairs flow to the
        # coloring and matching stages.
        return np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64), 0
    s_size = math.ceil((n / D) * math.log(D))
    thin = index.small[np.diff(index.cand_ptr) < D] @ [n, 1]

    def draw(rng):
        s_arr = np.sort(rng.choice(n, size=s_size, replace=False))
        s_mask = np.zeros(n, dtype=bool)
        s_mask[s_arr] = True
        parts = [
            _pair_keys(d, lo, dm.far, thin, hit_rows(dm, s_mask, slice(lo, hi)))
            for lo, hi, d in dm.blocks()
        ]
        miss = np.concatenate(parts)
        return (s_arr, miss), miss.size

    (s_arr, miss), attempts = _resample(cfg, 1, "cover-set", n, D, draw)
    keys = _distinct(np.concatenate([miss, index.forced @ [n, 1]]))
    return s_arr, _rows(keys, n), attempts


def sample_cover_set(dm, cfg: BuilderConfig, *, index: PairIndex):
    """(S, Q): a uniform cover set of size ceil((n/D) ln D) plus the pairs it
    leaves uncovered, resampled until |Q| <= 2 n^2 / D."""
    return _sample_cover(dm, cfg, index)[:2]


# -- stage 2: random coloring --------------------------------------------------


def _conflicts(colors: np.ndarray, ptr: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Whether two vertices of the set cand[ptr[i]:ptr[i + 1]] share a color,
    for every i; colors are nonnegative."""
    width = int(colors.max(initial=0)) + 1
    sets = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    key = np.sort(sets * width + colors[cand])
    out = np.zeros(ptr.size - 1, dtype=bool)
    out[key[1:][key[1:] == key[:-1]] // width] = True
    return out


def _sample_colors(dm, cfg: BuilderConfig, index: PairIndex):
    """(colors, R, attempts)."""
    n = dm.n
    D = index.D
    if D == 1:
        # One color: every candidate set of two or more vertices conflicts, so
        # every reachable pair is stored outright.
        none = np.zeros(0, dtype=np.int64)
        keys = [_pair_keys(d, lo, dm.far, none) for lo, _, d in dm.blocks()]
        return np.ones(n, dtype=np.int64), _rows(np.concatenate([none, *keys]), n), 1

    def draw(rng):
        colors = rng.integers(1, D**3 + 1, size=n)
        r = index.small[_conflicts(colors, index.cand_ptr, index.cand)]
        return (colors, r), len(r)

    (colors, r), attempts = _resample(cfg, 2, "coloring", n, D, draw)
    return colors, r, attempts


def sample_coloring(dm, cfg: BuilderConfig, *, index: PairIndex):
    """(colors, R): uniform colors in [1, D^3] and the small pairs whose
    candidate set got a repeated color."""
    return _sample_colors(dm, cfg, index)[:2]


# -- stage 3: bucket matchings --------------------------------------------------


def _run_heads(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of keys differs from the one before it."""
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    return head


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Ascending distinct keys; np.unique hashes wide-ranging keys many times slower."""
    keys = np.sort(keys)
    return keys[_run_heads(keys)]


def _greedy_matchings(bucket: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether each row (bucket, x, y) is in its bucket's greedy matching, for
    rows sorted by (bucket, x, y): the matching that takes each row, in order,
    whose x and y no row it took before holds. A row is taken iff every
    earlier row of its bucket that shares its x or its y is not, so each round
    takes the undecided rows that come first among the undecided rows of
    their (bucket, x) run and of their (bucket, y) run, then drops the
    undecided rows that share an x or a y with a row it took.

    A bucket needs as many rounds as its longest chain of rows that wait on
    each other, and each round rescans the undecided rows, so once a round
    decides less than 1/_ROUND_SHARE of them the rest go through the
    sequential greedy: no undecided row shares an x or a y with a taken row,
    so the rest decide among themselves."""
    width = int(max(x.max(initial=0), y.max(initial=0))) + 1
    kx, ky = bucket * width + x, bucket * width + y
    taken = np.zeros(bucket.size, dtype=bool)
    alive = np.ones(bucket.size, dtype=bool)
    first_y = np.zeros(bucket.size, dtype=bool)
    by_x = np.arange(bucket.size)  # the undecided rows in row order
    by_y = np.argsort(ky, kind="stable")  # the undecided rows in (bucket, y) order
    while by_x.size:
        head_x = _run_heads(kx[by_x])
        head_y = _run_heads(ky[by_y])
        first_y[by_y[head_y]] = True
        take = head_x & first_y[by_x]
        first_y[by_y[head_y]] = False
        taken[by_x[take]] = True
        # a taken row heads its run in both orders: drop its runs
        alive[by_x[take[head_x][np.cumsum(head_x) - 1]]] = False
        alive[by_y[taken[by_y[head_y]][np.cumsum(head_y) - 1]]] = False
        undecided = by_x.size
        by_x, by_y = by_x[alive[by_x]], by_y[alive[by_y]]
        if (undecided - by_x.size) * _ROUND_SHARE < undecided:
            taken[_sequential_greedy(by_x, kx[by_x], ky[by_x])] = True
            break
    return taken


def _sequential_greedy(rows: np.ndarray, kx: np.ndarray, ky: np.ndarray) -> list[int]:
    """The rows the greedy takes, in order, whose (bucket, x) key kx and
    (bucket, y) key ky no row it took before holds."""
    used_x: set[int] = set()
    used_y: set[int] = set()
    out = []
    for row, i, j in zip(rows.tolist(), kx.tolist(), ky.tolist()):
        if i not in used_x and j not in used_y:
            used_x.add(i)
            used_y.add(j)
            out.append(row)
    return out


def _check_induced(group, a, b, h, x, y):
    """Raise InducedMatchingViolation unless every matching of a group is
    induced in the union of the group's matched pairs: no pair (x, y) of the
    union that the matching h did not match has x on h's left side and y on
    its right.

    The rows are the matched pairs (x, y) of the matchings h of the groups
    (a, b, color), each matching's rows together; groups are numbered in
    order of first appearance. The violation raised is the first in group
    order, then in row order of h, then by the first appearance of the union
    pair, whose first matching is named as its origin.
    """
    if not group.size:
        return
    order = np.argsort(group, kind="stable")
    group, a, b, h, x, y = (c[order] for c in (group, a, b, h, x, y))
    width = int(max(x.max(), y.max())) + 1
    matching = np.cumsum(_run_heads(group) | _run_heads(h)) - 1
    # the union pairs of each group, by (group, x, y), at their first row
    gx = group * width + x
    by_x = np.lexsort((y, gx))
    union = by_x[_run_heads(gx[by_x]) | _run_heads(y[by_x])]
    # join each union pair to the rows of its group that hold its x on the left
    lo = np.searchsorted(gx[by_x], gx[union])
    cnt = np.searchsorted(gx[by_x], gx[union], side="right") - lo
    i = np.repeat(union, cnt)
    j = by_x[segment_positions(lo, cnt)]
    # a violation: j's matching holds y(i) on its right side but not (x(i), y(i))
    right = np.sort(matching * width + y)
    want = matching[j] * width + y[i]
    holds = right[np.minimum(np.searchsorted(right, want), right.size - 1)] == want
    bad = np.flatnonzero(holds & (y[j] != y[i]))
    if bad.size:
        k = bad[np.lexsort((i[bad], matching[j[bad]]))[0]]
        at, row = j[k], i[k]
        raise InducedMatchingViolation(
            *(int(c) for c in (a[at], b[at], h[at], h[row], x[row], y[row]))
        )


def build_matchings(dm, colors, cfg: BuilderConfig, *, index: PairIndex):
    """(F, matchings_log): greedy maximal matchings per (a, b, h) bucket over
    conflict-free small pairs; F holds (v, h) for every endpoint v matched in
    a bucket of h, and (v, v) for every v. Runtime-checks the
    induced-matching invariant within every (a, b, color) group."""
    n = dm.n
    colors = np.asarray(colors)
    sizes = np.diff(index.cand_ptr)
    # pairs beyond D are routed through the cover stage as forced pairs
    live = (index.small_dist <= index.D) & ~_conflicts(colors, index.cand_ptr, index.cand)
    h = index.cand[np.repeat(live, sizes)]
    u, v = np.repeat(index.small[live], sizes[live], axis=0).T
    a, b = dm.at(u, h), dm.at(h, v)
    # every pair enters the buckets (a, b, h) as (u, v) and (b, a, h) as (v, u)
    a, b, h, x, y = [np.concatenate(c) for c in ((a, b), (b, a), (h, h), (u, v), (v, u))]
    # (a, b, h, x, y) order, in two int64 keys where they fit: a, b < top <= D + 1
    top = int(a.max(initial=0)) + 1
    keys = (x * n + y, (a * top + b) * n + h) if top * top * n < 1 << 63 else (y, x, h, b, a)
    order = np.lexsort(keys)
    a, b, h, x, y = (c[order] for c in (a, b, h, x, y))
    heads = _run_heads(a) | _run_heads(b) | _run_heads(h)
    bucket = np.cumsum(heads) - 1
    taken = _greedy_matchings(bucket, x, y)
    first = np.flatnonzero(heads)
    names = zip(a[first].tolist(), b[first].tolist(), h[first].tolist())
    log = dict(zip(names, np.bincount(bucket[taken], minlength=first.size).tolist()))
    # groups (a, b, color of h), numbered by first appearance in bucket order
    pair_run = np.cumsum(_run_heads(a[first]) | _run_heads(b[first])) - 1
    width = int(colors.max(initial=0)) + 1
    key = pair_run * width + colors[h[first]]
    _, at, inverse = np.unique(key, return_index=True, return_inverse=True)
    rank = np.empty(at.size, dtype=np.int64)
    rank[np.argsort(at)] = np.arange(at.size)
    group = rank[inverse][bucket]
    _check_induced(*(c[taken] for c in (group, a, b, h, x, y)))
    ends = np.concatenate([x[taken], y[taken]])
    keys = _distinct(np.concatenate([np.arange(n) * (n + 1), ends * n + np.tile(h[taken], 2)]))
    return _rows(keys, n), log


# -- stage 4: assembly -----------------------------------------------------------


def _closed_neighborhoods(F, g: WeightedGraph) -> np.ndarray:
    """Ascending (owner, hub) rows of N(F_v), F_v and the neighbours of its
    vertices, for every v."""
    n = g.n
    indptr, nbr, _ = g.in_edges()
    owner, x = F.T
    deg = indptr[x + 1] - indptr[x]
    at = segment_positions(indptr[x], deg)
    key = np.concatenate([owner * n + x, np.repeat(owner, deg) * n + nbr[at]])
    return _rows(_distinct(key), n)


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


def size_ledger(S, Q, R, F, g: WeightedGraph, sum_nf: int, total_size: int) -> SizeLedger:
    degree_bound = None if g.has_zero_weights else (g.max_degree + 1) * len(F)
    return SizeLedger(total_size, g.n * len(S), len(Q), len(R), sum_nf, len(F), degree_bound)


def assemble(S, Q, R, F, g: WeightedGraph, dm) -> HubLabeling:
    """hubs(v) = S union Q_v union R_v union N(F_v), distances filled from the
    matrix. Builds only; build_for_graph checks the result."""
    return _assemble(S, np.concatenate([Q, R, _closed_neighborhoods(F, g)]), dm)


def _assemble(S, extra, dm) -> HubLabeling:
    """Row v of the labeling: the columns S and v's hubs in the (owner, hub)
    rows extra, each kept where v reaches it in dm, with distances from dm:
    the member mask of a block of rows, read in order, is the next CSR rows."""
    n = dm.n
    own_v, own_h = extra[np.argsort(extra[:, 0], kind="stable")].T

    def block(lo, hi, d):
        member = np.zeros((hi - lo, n), dtype=bool)
        member[:, S] = True
        a, b = np.searchsorted(own_v, [lo, hi])
        member[own_v[a:b] - lo, own_h[a:b]] = True
        member &= d != dm.far
        return member

    return HubLabeling.from_blocks(dm, block)


def _stage_total(S, extra, stage_dm) -> int:
    """total_size of _assemble(S, extra, stage_dm) for distinct rows extra, without
    building it: the S vertices each row reaches, plus the reachable extras outside S."""
    q, far, k = stage_dm.q, stage_dm.far, len(stage_dm.q)
    rows = max(1, _SCAN // k)  # per block of q rows: the lowest vertex of each row's component
    comp = np.concatenate([(q[lo : lo + rows] != far).argmax(1) for lo in range(0, k, rows)])
    outside = ~np.isin(extra[:, 1], S) & (stage_dm.at(*extra.T) >= 0)
    in_reach = np.bincount(comp[stage_dm.labels[S]], minlength=k)[comp]
    return int(stage_dm.size @ in_reach + np.count_nonzero(outside))


# -- degree reduction -------------------------------------------------------------


def _split_width(g: WeightedGraph) -> int:
    """t = ceil(m/n), at least 1: the neighbours each clone of a split vertex
    takes, and the degree excess over 2 that needs no split."""
    return max(-(-g.m // max(g.n, 1)), 1)


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
    t = _split_width(g)
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
    recomputing distances from the original matrix. build_for_graph builds
    the same rows without the stage labeling; this composes the stages."""
    n = dm.n
    rep, orig = np.asarray(representative), np.asarray(origin)
    size = np.diff(hl_reduced.offsets)[rep]
    at = segment_positions(hl_reduced.offsets[rep], size)  # the representatives' entries
    owner, hub = _rows(_distinct(np.repeat(np.arange(n), size) * n + orig[hl_reduced.hub[at]]), n).T
    dist = dm.at(owner, hub)
    reach = dist >= 0
    return HubLabeling(np.bincount(owner[reach], minlength=n), hub[reach], dist[reach])


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
    labeling: HubLabeling
    artifacts: BuilderArtifacts
    report: BuildReport
    dm: object
    timing: dict[str, float]  # seconds per stage that ran, in order


def needs_reduction(g: WeightedGraph) -> bool:
    if g.weight_kind != "unit" or g.m == 0:
        return False
    return g.max_degree > 2 + _split_width(g)


def build_for_graph(g: WeightedGraph, cfg: BuilderConfig | None = None) -> BuildResult:
    """Run the full pipeline, inserting the degree reduction when the graph's
    maximum degree exceeds 2 + ceil(m/n), and certify the result: the size
    ledger bound, then the cover of the returned labeling (the projected one
    in reduced builds, whose stage labeling is built and verified only to
    tell which side broke). A failed check raises CoverVerificationError."""
    cfg = cfg or BuilderConfig()
    timing: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timing[stage] = now - clock
        clock = now

    # The verifier's own search, so certification never trusts reduce_degree's distances.
    dm = all_pairs(g)
    lap("all_pairs")
    stage_graph, stage_dm, reduced_info = g, dm, None
    if needs_reduction(g):
        stage_graph, representative, origin = reduce_degree(g)
        # Each vertex's clones are one consecutive chain, so the stage graph's
        # zero-weight components are numbered by origin and its quotient is g.
        stage_dm = DenseDistanceMatrix(dm.q, stage_graph)
        lap("reduce")
        reduced_info = {"n": stage_graph.n, "m": stage_graph.m, "t": _split_width(g)}
    D = resolve_threshold(stage_graph.n, cfg.D)
    index = build_pair_index(stage_dm, D)
    lap("pair_index")
    S, Q, cover_attempts = _sample_cover(stage_dm, cfg, index)
    lap("cover")
    colors, R, color_attempts = _sample_colors(stage_dm, cfg, index)
    lap("coloring")
    F, log = build_matchings(stage_dm, colors, cfg, index=index)
    lap("matchings")
    nf = _closed_neighborhoods(F, stage_graph)
    extra = np.concatenate([Q, R, nf])
    if reduced_info is None:
        hl = _assemble(S, extra, dm)
    else:
        # row v is row representative[v] of the stage labeling, mapped through origin
        extra = _rows(_distinct(extra[:, 0] * stage_graph.n + extra[:, 1]), stage_graph.n)
        rep_rows = extra[representative[origin[extra[:, 0]]] == extra[:, 0]]
        hl = _assemble(origin[S], origin[rep_rows], dm)
    lap("assemble")
    total = hl.total_size if reduced_info is None else _stage_total(S, extra, stage_dm)
    ledger = size_ledger(S, Q, R, F, stage_graph, len(nf), total)
    lap("ledger")
    if not ledger.bound_ok:
        raise CoverVerificationError(f"size ledger bound violated: {ledger}")
    cover = verify_cover(hl, dm)
    lap("verify")
    if not cover.valid:
        # say which side broke: the stage labeling, built only now, or only its projection
        stage_hl = hl if reduced_info is None else assemble(S, Q, R, F, stage_graph, stage_dm)
        stage_cover = cover if stage_hl is hl else verify_cover(stage_hl, stage_dm)
        if not stage_cover.valid:
            raise CoverVerificationError(
                f"assembled labeling fails cover verification on "
                f"{stage_cover.uncovered_total} pairs, first {stage_cover.uncovered[:5]}"
            )
        raise CoverVerificationError(
            f"projected labeling fails cover verification on {cover.uncovered_total} pairs"
        )
    artifacts = BuilderArtifacts(S=S, Q=Q, R=R, F=F, colors=colors, matchings_log=log)
    report = BuildReport(
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        D=D,
        seed=cfg.seed,
        reduced=reduced_info,
        s_size=len(S),
        q_total=len(Q),
        q_random=len(Q) - len(index.forced),
        q_forced=len(index.forced),
        r_total=len(R),
        f_total=len(F),
        cover_resamples=cover_attempts,
        color_resamples=color_attempts,
        bucket_count=len(log),
        matching_hist=dict(Counter(log.values())),
        ledger=ledger,
        cover=cover,
        diameter=dm.diameter(),
    )
    return BuildResult(labeling=hl, artifacts=artifacts, report=report, dm=dm, timing=timing)
