from dataclasses import astuple
from fractions import Fraction
import math
import re
import sys
import threading

import numpy as np
import pytest
from conftest import (
    baseline_full,
    check_stored_distances,
    dense_verify_cover,
    labeling,
    oracle_label_rows,
    oracle_query,
    oracle_shortest_paths_from,
    seeded_sparse_graph,
    small_graphs,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hublab import graph_core, hub_labeling
from hublab.corpus import random_regular_graph
from hublab.family_gen import FamilyParams, build_H, expand_to_G
from hublab.graph_core import (
    UNREACHABLE,
    GraphFormatError,
    UnreachablePairError,
    WeightedGraph,
    all_pairs,
    hit_rows,
)
from hublab.hub_labeling import (
    HubLabeling,
    bit_estimate,
    format_labels,
    monotone_closure,
    query,
    read_labels,
    verify_cover,
    write_labels,
)
from hublab.upperbound_builder import BuilderConfig, build_for_graph

PATH3 = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
CYCLE4 = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])


def test_labeling_normalization_and_validation():
    hl = HubLabeling([2, 1], [1, 0, 1], [5, 0, 0])
    assert hl.entries(0) == ((0, 0), (1, 5))
    with pytest.raises(ValueError):
        labeling(2, [[(0, 0), (0, 1)], []])
    with pytest.raises(ValueError):
        labeling(2, [[(5, 0)], []])
    # a vertex without entries has an empty row
    assert labeling(2, [[(0, 0)]]).entries(1) == ()


# -- the array layout against the tuple normaliser and merge query ----------------

# Small distances, and distances whose pairwise sums overflow int64.
DISTS = st.one_of(st.integers(0, 5), st.integers(2**62, 2**63 - 1))


@st.composite
def valid_rows(draw, max_n: int = 6):
    """(n, rows) of a valid labeling, rows unsorted with equal-distance
    duplicates."""
    n = draw(st.integers(0, max_n))
    rows = []
    for _ in range(n):
        row = list(draw(st.dictionaries(st.integers(0, n - 1), DISTS, max_size=n)).items())
        rows.append(row + draw(st.lists(st.sampled_from(row), max_size=3)) if row else row)
    return n, rows


@st.composite
def faulty_rows(draw):
    """(n, rows) with out-of-range hubs, negative distances or conflicting
    duplicates."""
    n = draw(st.integers(0, 5))
    entry = st.tuples(st.integers(-1, n), st.integers(-1, 3))
    return n, draw(st.lists(st.lists(entry, max_size=6), min_size=n, max_size=n))


@settings(max_examples=300)
@given(st.one_of(valid_rows(), faulty_rows()))
def test_constructor_matches_tuple_normaliser(case):
    n, rows = case
    try:
        want = oracle_label_rows(n, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            labeling(n, rows)
        assert str(got.value) == str(exc)
        return
    hl = labeling(n, rows)
    assert tuple(hl.hubs) == want
    assert hl.total_size == sum(map(len, want))
    assert [hl.size(v) for v in range(n)] == [len(r) for r in want]


def _row_arrays(n, rows):
    """(sizes, hub, dist) int64 arrays of the constructor for one list of
    (hub, distance) pairs per vertex."""
    sizes = np.array([len(row) for row in rows], dtype=np.int64)
    entries = np.array([e for row in rows for e in row], dtype=np.int64).reshape(-1, 2)
    return sizes, entries[:, 0], entries[:, 1]


# rows strictly increasing in hub: what the constructor keeps without a sort
SORTED_ROWS = valid_rows().map(lambda case: (case[0], oracle_label_rows(*case)))


# The constructor on int64 row arrays, sorted or not, against the
# entry-by-entry tuple normaliser: same rows, same first fault, narrowed
# read-only storage.
@settings(max_examples=300)
@given(st.one_of(valid_rows(), SORTED_ROWS, faulty_rows()))
def test_from_rows_matches_entry_constructor(case):
    n, rows = case
    sizes, hub, dist = _row_arrays(n, rows)
    try:
        want = oracle_label_rows(n, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            HubLabeling(sizes, hub, dist)
        assert str(got.value) == str(exc)
        return
    got = HubLabeling(sizes, hub, dist)
    assert tuple(got.hubs) == want and got == labeling(n, rows)
    assert got.hub.dtype == np.int32 and got.dist.dtype == np.int64
    assert not (got.offsets.flags.writeable or got.hub.flags.writeable or got.dist.flags.writeable)


@pytest.mark.parametrize(
    "sizes, hub, dist, message",
    [
        ([2, 1], [0, 2, 0], [0, 1, 0], "vertex 0: hub 2 out of range"),
        ([1, 1], [0, -1], [0, 0], "vertex 1: hub -1 out of range"),
        ([1, 1], [0, 1], [0, -3], "vertex 1: negative stored distance"),
        ([2, 0], [1, 1], [4, 5], "vertex 0: conflicting distances for hub 1"),
        # the first fault in the given order, not in row order after sorting
        ([3, 1], [1, 0, 0, 9], [0, 2, 3, 0], "vertex 0: conflicting distances for hub 0"),
        ([3, 1], [1, 9, 1, 0], [0, 2, 3, 0], "vertex 0: hub 9 out of range"),
    ],
    ids=[
        "hub_past_n",
        "negative_hub",
        "negative_distance",
        "conflicting_distances",
        "first_conflict_in_given_order",
        "first_range_fault_in_given_order",
    ],
)
def test_constructor_reports_the_first_faulty_entry(sizes, hub, dist, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HubLabeling(sizes, hub, dist)


def test_constructor_keeps_owned_arrays_and_copies_views():
    hub, dist = np.array([0, 1, 1], dtype=np.int32), np.array([0, 1, 0])
    hl = HubLabeling([2, 1], hub, dist)
    assert hl.hub is hub and hl.dist is dist and not dist.flags.writeable
    hubs, base = np.array([0, 1, 1, 5], dtype=np.int32), np.array([0, 1, 0, 7])
    hl = HubLabeling(np.array([2, 1]), hubs[:3], base[:3])
    assert hl.hub.base is None and hl.dist.base is None and base.flags.writeable
    assert hl.entries(0) == ((0, 0), (1, 1)) and hl.entries(1) == ((1, 0),)
    with pytest.raises(ValueError, match="^row sizes sum to 2 for 3 entries$"):
        HubLabeling([1, 1], hub, dist)
    empty = HubLabeling([], [], [])
    assert empty.n == 0 and empty.offsets.tolist() == [0] and empty.hub.dtype == np.int32


def test_vertex_ids_outside_the_labeling_raise_index_error():
    hl = labeling(3, [[(0, 0), (1, 1)], [(1, 0)], [(1, 1), (2, 0)]])
    for v in (-1, -3, 3):
        for call in (lambda: query(hl, v, 2), lambda: query(hl, 2, v), lambda: hl.size(v), lambda: hl.entries(v)):
            with pytest.raises(IndexError):
                call()
    # the sequence view keeps tuple semantics
    assert hl.hubs[-1] == hl.entries(2) == ((1, 1), (2, 0)) and hl.hubs[-3] == hl.entries(0)
    for v in (-4, 3):
        with pytest.raises(IndexError):
            hl.hubs[v]
    assert list(hl.hubs) == [hl.entries(v) for v in range(3)]


@given(valid_rows())
def test_query_matches_merge_oracle(case):
    n, rows = case
    hl, want = labeling(n, rows), oracle_label_rows(n, rows)
    for u in range(n):
        for v in range(n):
            expected = oracle_query(want, u, v)
            got = query(hl, u, v)
            if expected is UNREACHABLE:
                assert got is UNREACHABLE
            else:
                assert type(got) is int and got == expected


@st.composite
def query_runs(draw):
    """One or two labelings (n, rows) and queries [(labeling, u, v), ...] on
    them in a drawn order, so that the probe row of each labeling is kept,
    swapped to v or rebuilt in every sequence."""
    cases = draw(st.lists(valid_rows(), min_size=1, max_size=2))
    calls = [(k, u, v) for k, (n, _) in enumerate(cases) for u in range(n) for v in range(n)]
    return cases, draw(st.lists(st.sampled_from(calls), max_size=12)) if calls else []


_ROWS3 = (3, [[(0, 0), (1, 1)], [(0, 1), (1, 0), (2, 1)], [(1, 1), (2, 0)]])
_EMPTY = (3, [[], [(1, 0)], [(1, 2)]])
_DISJOINT = (4, [[(0, 0), (1, 1)], [(1, 0)], [(2, 0), (3, 1)], [(3, 0)]])
# the largest stored distance: sums through hub 1 reach 2**64 - 2
_TOP = 2**63 - 1
_HUGE = (3, [[(1, _TOP)], [(1, _TOP), (2, 0)], [(0, 0), (2, _TOP)]])
_OTHER = (3, [[(2, 4)], [(0, 3), (2, 5)], [(2, 0)]])


@settings(max_examples=300)
@given(query_runs())
@example(([_ROWS3], [(0, 0, 1), (0, 0, 2), (0, 0, 1)]))  # the same source again
@example(([_ROWS3], [(0, 0, 1), (0, 1, 0), (0, 2, 0), (0, 2, 1)]))  # the source as v
@example(([_ROWS3], [(0, 1, 1), (0, 2, 2), (0, 2, 0)]))  # u == v
@example(([_EMPTY], [(0, 0, 1), (0, 1, 0), (0, 2, 0), (0, 2, 1)]))
@example(([_DISJOINT], [(0, 0, 2), (0, 3, 1), (0, 0, 3)]))
@example(([_HUGE], [(0, 0, 1), (0, 1, 0), (0, 1, 2), (0, 2, 1), (0, 0, 2)]))
@example(([_ROWS3, _OTHER], [(0, 0, 2), (1, 0, 2), (0, 2, 0), (1, 1, 2), (0, 0, 1), (1, 2, 0)]))
def test_query_in_any_order_matches_merge_oracle(run):
    cases, calls = run
    hls = [labeling(*case) for case in cases]
    want = [oracle_label_rows(*case) for case in cases]
    for k, u, v in calls:
        expected, got = oracle_query(want[k], u, v), query(hls[k], u, v)
        if expected is UNREACHABLE:
            assert got is UNREACHABLE
        else:
            assert type(got) is int and got == expected


def test_queries_leave_the_labeling_read_only_and_unchanged():
    hl, twin = labeling(*_ROWS3), labeling(*_ROWS3)
    hubs = tuple(hl.hubs)
    assert query(hl, 0, 2) == query(hl, 2, 0) == 2 and hl._probe[0] == 0  # 0 stays the source
    assert query(hl, 1, 2) == 1 and query(hl, 1, 1) == 0
    probe = hl._probe
    source, row = probe
    assert source == 1 and row.tolist() == [1, 0, 1]
    assert not any(a.flags.writeable for a in (hl.offsets, hl.hub, hl.dist, row))
    assert hl == twin and hl.hubs == twin.hubs and tuple(hl.hubs) == hubs
    # a bad id raises before the probe is read or replaced
    for u, v in [(3, 0), (0, -1), (-1, 1), (2, 5), (1, 3)]:
        with pytest.raises(IndexError):
            query(hl, u, v)
        assert hl._probe is probe


def test_threads_sharing_one_labeling_answer_from_consistent_probes():
    dm = all_pairs(random_regular_graph(40, 3, seed=1))
    hl, want = baseline_full(dm), dm.matrix()
    wrong = []

    def ask(k):
        for _ in range(20):
            for u in range(k, hl.n, 6):
                for v in (0, u, hl.n - 1 - u):
                    if query(hl, u, v) != want[u, v]:
                        wrong.append((u, v))

    threads = [threading.Thread(target=ask, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []


def _old_format(rows) -> str:
    """format_labels as it was on tuple rows."""
    lines = []
    for v, row in enumerate(rows):
        body = " ".join(f"({h},{d})" for h, d in row)
        lines.append(f"{v}: {body}".rstrip())
    return "\n".join(lines) + "\n"


class _Named(list):
    """Rows that hypothesis reports by a short name instead of in full."""

    def __init__(self, name: str, rows):
        super().__init__(rows)
        self.name = name

    def __repr__(self) -> str:
        return self.name


# Every other hub of _WIDE vertices in each row: more entries than one
# writer block holds, so rows lie on both sides of a block boundary.
_WIDE = math.isqrt(2 * hub_labeling._BLOCK_ENTRIES) + 2


@given(valid_rows())
@example((100_001, _Named("hub 100000", [[(100_000, 3)]] + [[]] * 99_999 + [[(0, 3), (100_000, 0)]])))
@example((2, [[(0, 0), (1, 10**7)], [(0, 2**63 - 1), (1, 0)]]))
@example((3, [[], [(0, 1)], []]))
@example((0, []))
@example((_WIDE, _Named("block boundary", [[(h, (v + h) % 9) for h in range(0, _WIDE, 2)] for v in range(_WIDE)])))
def test_label_file_round_trip_matches_old_text(tmp_path_factory, case):
    hl = labeling(*case)
    path = tmp_path_factory.mktemp("labels") / "labels.txt"
    write_labels(hl, path)
    assert path.read_text(encoding="utf-8") == _old_format(oracle_label_rows(*case))
    assert read_labels(path) == hl


@given(valid_rows(max_n=2), valid_rows(max_n=2))
def test_hubs_view_equals_exactly_when_labelings_do(a, b):
    ha, hb = labeling(*a), labeling(*b)
    ra, rb = oracle_label_rows(*a), oracle_label_rows(*b)
    assert tuple(ha.hubs) == ra and len(ha.hubs) == len(ra)
    assert ha.hubs[-1:] == ra[-1:] and list(ha.hubs) == list(ra)
    assert (ha.hubs == hb.hubs) == (ha == hb) == (ra == rb)
    assert ha.hubs == labeling(*a).hubs


def test_query_basic():
    hl = labeling(2, [[(0, 0)], [(0, 5)]])
    assert query(hl, 0, 1) == 5
    hl = labeling(2, [[(0, 0)], [(1, 0)]])
    assert query(hl, 0, 1) is UNREACHABLE


def test_query_single_landmark_cycle():
    dm = all_pairs(CYCLE4)
    hl = labeling(4, [[(0, int(dm.matrix()[x, 0]))] for x in range(4)])
    assert query(hl, 1, 3) == 2 == int(dm.matrix()[1, 3])


@given(small_graphs())
def test_query_over_approximates(g):
    dm = all_pairs(g)
    # hub sets: true distances to an arbitrary prefix of vertices
    sets = []
    for v in range(g.n):
        row = dm.matrix()[v]
        sets.append([(h, int(row[h])) for h in range(0, g.n, 2) if row[h] >= 0])
    hl = labeling(g.n, sets)
    for u in range(g.n):
        for v in range(g.n):
            q = query(hl, u, v)
            d = int(dm.matrix()[u, v])
            if q is not UNREACHABLE and d >= 0:
                assert q >= d


def test_verify_cover_full_sets_valid():
    dm = all_pairs(CYCLE4)
    hl = labeling(4, [[(h, int(dm.matrix()[v, h])) for h in range(4)] for v in range(4)])
    rep = verify_cover(hl, dm)
    assert rep.valid and rep.total_size == 16
    assert rep.avg_hub_size == Fraction(4)


def test_verify_cover_detects_uncovered():
    dm = all_pairs(PATH3)
    hl = labeling(3, [[(v, 0)] for v in range(3)])
    rep = verify_cover(hl, dm)
    assert not rep.valid
    assert (0, 2) in rep.uncovered
    assert rep.uncovered_total == 3


def test_verify_cover_truncation(monkeypatch):
    g = WeightedGraph(60, [(i, i + 1, 1) for i in range(59)])
    dm = all_pairs(g)
    hl = labeling(60, [[(v, 0)] for v in range(60)])
    monkeypatch.setattr(hub_labeling, "_LISTED", 10)
    rep = verify_cover(hl, dm)
    assert len(rep.uncovered) == 10
    assert rep.uncovered_total == 60 * 59 // 2  # no pair shares a hub


def test_baseline_full():
    dm = all_pairs(WeightedGraph(1, []))
    assert baseline_full(dm).total_size == 1
    g = expand_to_G(build_H(FamilyParams(1, 1))).graph
    dm = all_pairs(g)
    hl = baseline_full(dm)
    rep = verify_cover(hl, dm)
    assert rep.valid
    assert rep.avg_hub_size == Fraction(g.n)
    assert not check_stored_distances(hl, dm)


@given(small_graphs())
def test_baseline_always_valid(g):
    dm = all_pairs(g)
    assert verify_cover(baseline_full(dm), dm).valid


def test_check_stored_distances_flags_corruption():
    dm = all_pairs(PATH3)
    hl = labeling(3, [[(2, 1)], [], []])  # true distance is 2
    assert check_stored_distances(hl, dm) == [(0, 2, 1)]


def test_closure_identity_and_path():
    dm = all_pairs(PATH3)
    hl = labeling(3, [[(0, 0)], [], []])
    assert monotone_closure(hl, dm).entries(0) == ((0, 0),)
    hl = labeling(3, [[(2, 2)], [], []])
    closed = monotone_closure(hl, dm)
    assert closed.entries(0) == ((0, 0), (1, 1), (2, 2))


def test_closure_empty_set_stays_empty():
    hl = labeling(3, [[], [(1, 0)], []])
    closed = monotone_closure(hl, all_pairs(PATH3))
    assert closed.entries(0) == ()


def test_closure_unreachable_hub_raises():
    g = WeightedGraph(3, [(0, 1, 1)])
    hl = labeling(3, [[(2, 5)], [], []])
    with pytest.raises(UnreachablePairError):
        monotone_closure(hl, all_pairs(g))


_FIRST_UNREACHABLE = {  # the ids name blocks of two owners
    # owners 1 and 4 fail, in the first and third block
    "two blocks": (
        [[(0, 0)], [(1, 0), (3, 7), (5, 2)], [], [], [(0, 1)], []],
        "hub 3 unreachable in the tree of 1",
    ),
    # the first block is clean
    "first block clean": (
        [[(0, 0)], [(1, 0)], [(2, 0)], [(3, 0), (4, 1), (5, 9)], [(1, 1)], []],
        "hub 5 unreachable in the tree of 3",
    ),
    "last block": ([[]] * 5 + [[(0, 3)]], "hub 0 unreachable in the tree of 5"),
}


@pytest.mark.parametrize(
    "rows, message, block",
    [
        pytest.param(*case, block, id=name + suffix)
        for block, suffix in [(2, ""), (1, ", 1 row"), (7, ", n + 1 rows")]
        for name, case in _FIRST_UNREACHABLE.items()
    ],
)
def test_closure_names_the_first_unreachable_entry(monkeypatch, rows, message, block):
    monkeypatch.setattr(graph_core, "_ROWS", block)
    dm = all_pairs(WeightedGraph(6, [(0, 1, 1), (1, 2, 1), (3, 4, 1)]))
    with pytest.raises(UnreachablePairError, match=f"^{message}$"):
        monotone_closure(labeling(6, rows), dm)


def test_closure_builds_its_trees_one_block_at_a_time(monkeypatch):
    # monotone_closure asks canonical_trees for at most _ROWS roots per
    # call, the calls tile 0 .. n in order, and the closure does not depend
    # on the block size.
    calls = []

    def spy(dm, lo, hi):
        calls.append((lo, hi))
        return graph_core.canonical_trees(dm, lo, hi)

    monkeypatch.setattr(hub_labeling, "canonical_trees", spy)
    for g in (random_regular_graph(150, 3, seed=1), seeded_sparse_graph(70, 100, seed=3)):
        built = build_for_graph(g, BuilderConfig(seed=1))
        want = monotone_closure(built.labeling, built.dm)
        for rows in (graph_core._ROWS, 1, 7, g.n + 1):
            monkeypatch.setattr(graph_core, "_ROWS", rows)
            calls.clear()
            assert monotone_closure(built.labeling, built.dm) == want
            assert all(0 < hi - lo <= rows for lo, hi in calls)
            assert [lo for lo, _ in calls] == [0] + [hi for _, hi in calls[:-1]]
            assert calls[-1][1] == g.n


def test_closure_and_build_of_no_vertices():
    g = WeightedGraph(0, [])
    dm = all_pairs(g)
    assert monotone_closure(labeling(0, []), dm) == labeling(0, [])
    assert build_for_graph(g).labeling == labeling(0, [])


def test_closure_rejects_labels_of_another_vertex_count():
    for n in (2, 4):
        hl = labeling(n, [[(0, 0)]] + [[] for _ in range(n - 1)])
        with pytest.raises(ValueError, match="disagree on n"):
            monotone_closure(hl, all_pairs(PATH3))


def oracle_closure(hl, dm, parents_of) -> list[list[tuple[int, int]]]:
    """Rows of the monotone closure, by walking each hub up the tree of its
    owner; parents_of(v) gives that tree's parents row."""
    rows = []
    for v in range(hl.n):
        member = set()
        for h, _ in hl.entries(v):
            x = h
            while x not in member:
                member.add(x)
                if x == v:
                    break
                x = parents_of(v)[x]
        rows.append([(x, int(dm.matrix()[v, x])) for x in sorted(member)])
    return rows


@given(small_graphs(max_n=10), st.data())
def test_closure_matches_walk_oracle(g, data):
    dm = all_pairs(g)
    picks = st.lists(st.booleans(), min_size=g.n, max_size=g.n)
    sets = []
    for v in range(g.n):
        row = dm.matrix()[v]
        drawn = data.draw(picks)
        sets.append([(h, int(row[h])) for h in range(g.n) if row[h] >= 0 and drawn[h]])
    hl = labeling(g.n, sets)
    closed = monotone_closure(hl, dm)
    want = oracle_closure(hl, dm, lambda v: oracle_shortest_paths_from(g, v)[0])
    assert [list(closed.entries(v)) for v in range(g.n)] == want


@given(small_graphs(min_weight=1))
def test_closure_preserves_validity_and_size_bound(g):
    dm = all_pairs(g)
    sets = []
    for v in range(g.n):
        row = dm.matrix()[v]
        sets.append([(h, int(row[h])) for h in range(g.n) if row[h] >= 0])
    hl = labeling(g.n, sets)
    closed = monotone_closure(hl, dm)
    assert verify_cover(closed, dm).valid
    diam = dm.diameter()
    for v in range(g.n):
        assert closed.size(v) <= max(diam, 1) * max(hl.size(v), 1)
    assert not check_stored_distances(closed, dm)


def test_closure_size_floor_on_figure_instance():
    # minimum total closure size over any valid labeling at b = ell = 2 is 64;
    # the all-hubs baseline clears it by a mile
    inst = build_H(FamilyParams(2, 2))
    dm = all_pairs(inst.graph)
    hl = baseline_full(dm)
    closed = monotone_closure(hl, dm)
    assert closed.total_size >= 64


def test_label_file_round_trip(tmp_path):
    g = seeded_sparse_graph(8, 12, seed=3)
    dm = all_pairs(g)
    hl = baseline_full(dm)
    path = tmp_path / "labels.txt"
    write_labels(hl, path)
    assert read_labels(path) == hl
    # canonical text, byte for byte
    write_labels(hl, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_canonical_file_skips_the_line_parser(tmp_path, monkeypatch):
    hl = baseline_full(all_pairs(seeded_sparse_graph(8, 12, seed=3)))
    path = tmp_path / "labels.txt"
    write_labels(hl, path)
    text = path.read_bytes()
    calls = []
    line_parser = hub_labeling._read_lines

    def counted(path):
        calls.append(path)
        return line_parser(path)

    monkeypatch.setattr(hub_labeling, "_read_lines", counted)
    assert read_labels(path) == hl and calls == []
    # a byte more or less at either end is well formed, but not canonical
    variants = (text + b" ", text + b"\n", b" " + text, b"\n" + text, text[:-1])
    for variant in variants:
        path.write_bytes(variant)
        assert read_labels(path) == hl
    assert len(calls) == len(variants)


_EDIT_CHARS = " (),:\n0123456789\tx\u00a0"


@pytest.mark.parametrize("block", [1, 7, hub_labeling._READ_BYTES], ids=["1", "7", "default"])
@settings(max_examples=200, deadline=None)
@given(valid_rows(max_n=4), st.data())
def test_edited_file_reads_as_the_line_parser_does(tmp_path_factory, block, case, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hub_labeling, "_READ_BYTES", block)
        _edited_file_reads_as_the_line_parser_does(tmp_path_factory, case, data)


def _edited_file_reads_as_the_line_parser_does(tmp_path_factory, case, data):
    text = format_labels(labeling(*case))
    at = data.draw(st.integers(0, len(text)))
    kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    char = data.draw(st.sampled_from(_EDIT_CHARS))
    if kind == "insert":
        text = text[:at] + char + text[at:]
    else:
        text = text[:at] + (char if kind == "replace" else "") + text[at + 1 :]
    path = tmp_path_factory.getbasetemp() / "edited-labels.txt"
    path.write_text(text, encoding="utf-8")
    try:
        want = hub_labeling._read_lines(path)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            read_labels(path)
        assert str(got.value) == str(exc)
        return
    assert read_labels(path) == want


# Well-formed texts that are not canonical: each fails the layout or a
# number's form and goes to the line parser.
NON_CANONICAL = {
    "leading zero in a vertex id": "00: (0,0)\n1: (1,0)\n",
    "leading zero in a hub": "0: (00,0)\n1: (1,0)\n",
    "leading zero in a distance": "0: (0,00) (1,07)\n1: (1,0)\n",
    "no space between entries": "0: (0,0)(1,2)\n1: (1,0)\n",
    "a tab for a space": "0: (0,0)\t(1,2)\n1: (1,0)\n",
    "20-digit distance": f"0: (0,{10**19})\n1: (1,0)\n",
    "distance 2**63": f"0: (0,{2**63})\n1: (1,0)\n",
    "cut after the last vertex id": "".join(f"{v}:\n" for v in range(11))[:-2],
    "newline alone": "\n",
    "empty file": "",
}


@pytest.mark.parametrize("text", NON_CANONICAL.values(), ids=NON_CANONICAL.keys())
def test_non_canonical_file_reads_through_the_line_parser(tmp_path, monkeypatch, text):
    path = tmp_path / "labels.txt"
    path.write_text(text, encoding="ascii")
    try:
        want = hub_labeling._read_lines(path)
    except GraphFormatError as exc:
        want = exc
    calls, line_parser = [], hub_labeling._read_lines
    monkeypatch.setattr(hub_labeling, "_read_lines", lambda p: calls.append(p) or line_parser(p))
    if isinstance(want, Exception):
        with pytest.raises(GraphFormatError, match=f"^{re.escape(str(want))}$"):
            read_labels(path)
    else:
        assert read_labels(path) == want
    assert calls == [path]


# Texts in the canonical layout whose rows the constructor sorts, merges or
# refuses. The fast path hands it the rows the line parser would, so each
# reads to the line parser's labeling or raises its exact message.
UNCLEAN_ROWS = {
    "unsorted row": "0: (1,2) (0,1)\n1: (1,0)\n",
    "repeated hub": "0: (0,1) (0,1)\n1: (1,0)\n",
    "conflicting repeated hub": "0: (1,1) (0,0) (1,2)\n1: (1,0)\n",
    "hub equal to n": "0: (0,0) (2,5)\n1: (1,0)\n",
    "hub beyond n after an unsorted row": "0: (1,1) (0,0)\n1: (1,0) (9,4)\n",
}


@pytest.mark.parametrize("text", UNCLEAN_ROWS.values(), ids=UNCLEAN_ROWS.keys())
def test_canonical_layout_with_unclean_rows_skips_the_line_parser(tmp_path, monkeypatch, text):
    path = tmp_path / "labels.txt"
    path.write_text(text, encoding="ascii")
    try:
        want = hub_labeling._read_lines(path)
    except ValueError as exc:
        want = exc
    monkeypatch.setattr(hub_labeling, "_read_lines", lambda p: pytest.fail("line parser ran"))
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
            read_labels(path)
    else:
        assert read_labels(path) == want


@pytest.mark.parametrize(
    "rows",
    [
        [[(0, hub_labeling._VALUE_TABLE)], [(0, hub_labeling._VALUE_TABLE), (1, 0)]],
        [[(0, 0), (1, 2**63 - 1)], [(1, 0)]],
        [[], [(0, 3)], [], []],
        [[(h, 10**9 + h) for h in range(0, 12, 3)]] + [[]] * 11,
    ],
    ids=["value table", "int64 max", "empty rows", "ten-digit distances"],
)
def test_canonical_file_with_wide_or_empty_rows_skips_the_line_parser(tmp_path, monkeypatch, rows):
    hl = labeling(len(rows), rows)
    path = tmp_path / "labels.txt"
    write_labels(hl, path)
    monkeypatch.setattr(hub_labeling, "_read_lines", None)
    assert read_labels(path) == hl


def test_canonical_numbers_are_bounded():
    text = np.frombuffer(f",{2**63},{2**63 - 1},".encode(), dtype=np.uint8)
    digits = (text - np.uint8(ord("0"))) * (text != ord(","))
    ends, width = np.array([20, 40]), np.array([19, 19])
    assert hub_labeling._numbers(digits, ends[1:], width[1:], 2**63 - 1, 1).tolist() == [2**63 - 1]
    assert hub_labeling._numbers(digits, ends, width, 2**63 - 1, 1) is None


def test_label_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0: (1,2)\n2: (0,1)\n")
    with pytest.raises(GraphFormatError):
        read_labels(path)
    path.write_text("0: (1,2) junk\n")
    with pytest.raises(GraphFormatError):
        read_labels(path)


def test_label_file_rejects_numbers_beyond_int64(tmp_path):
    path = tmp_path / "wide.txt"
    for body in ("(1,99999999999999999999999)", f"(1,{2**63})", f"({2**63},0)"):
        path.write_text(f"0: (0,0)\n\n1: (0,1) {body}\n")
        with pytest.raises(GraphFormatError, match="^line 3: number does not fit in 64 bits$"):
            read_labels(path)
    path.write_text(f"0: (0,0)\n1: (1,{2**63 - 1})\n")
    assert read_labels(path).entries(1) == ((1, 2**63 - 1),)



def test_canonical_reader_reads_in_blocks(tmp_path, monkeypatch):
    # Read blocks of a few bytes end inside a line and run to its newline.
    hl = baseline_full(all_pairs(seeded_sparse_graph(8, 12, seed=3)))
    path = tmp_path / "labels.txt"
    write_labels(hl, path)
    text = path.read_bytes()
    calls, line_parser = [], hub_labeling._read_lines
    monkeypatch.setattr(hub_labeling, "_read_lines", lambda p: calls.append(p) or line_parser(p))
    variants = (text + b" ", text[:-1], text + b"\n", text.replace(b") (", b")  (", 1))
    for size in (1, 7, 64, len(text)):
        monkeypatch.setattr(hub_labeling, "_READ_BYTES", size)
        path.write_bytes(text)
        assert read_labels(path) == hl and calls == []
        for variant in variants:
            path.write_bytes(variant)
            assert read_labels(path) == hl
        assert len(calls) == len(variants)
        calls.clear()

def test_canonical_reader_refuses_hubs_that_wrap_in_int32(tmp_path, monkeypatch):
    # 2**32 + 1 would wrap to hub 1 in the reader's int32 array; the reader
    # refuses a hub beyond int32, and the line parser reports the hub itself.
    path = tmp_path / "wrap.txt"
    path.write_text(f"0: (0,0) ({2**32 + 1},1)\n1: (1,0)\n")
    parsed, line_parser = [], hub_labeling._read_lines
    monkeypatch.setattr(hub_labeling, "_read_lines", lambda p: parsed.append(p) or line_parser(p))
    with pytest.raises(ValueError, match=f"^vertex 0: hub {2**32 + 1} out of range$"):
        read_labels(path)
    assert parsed == [path]


# Bodies of one label line and the entries they parse to; None marks a body
# the reader must reject. Numbers are plain ASCII decimals without leading
# zeros, an entry is "(h,d)" with nothing inside the parentheses but the two
# numbers and the comma, and entries are separated by optional whitespace.
LABEL_BODIES = [
    ("", []),
    ("(0,0)", [(0, 0)]),
    ("(0,0) (1,5)", [(0, 0), (1, 5)]),
    ("(0,0)(1,5)", [(0, 0), (1, 5)]),
    ("(0,0) \t  (1,5)", [(0, 0), (1, 5)]),
    ("(0,0)\u00a0(1,5)", [(0, 0), (1, 5)]),
    ("(10,20) (11,0)", [(10, 20), (11, 0)]),
    ("(01,2)", None),
    ("(1,02)", None),
    ("(00,0)", None),
    ("( 1,2)", None),
    ("(1 ,2)", None),
    ("(1, 2)", None),
    ("(1,2 )", None),
    ("(\u0661,2)", None),
    ("(1,\uff12)", None),
    ("(1,2),(3,4)", None),
    ("(1,2);(3,4)", None),
    ("1,2", None),
    ("(1,2", None),
    ("1,2)", None),
    ("((1,2))", None),
    ("(1,2))", None),
    ("(-1,2)", None),
    ("(+1,2)", None),
    ("(1,2,3)", None),
    ("()", None),
    ("(1,2) x", None),
]


@pytest.mark.parametrize("body,entries", LABEL_BODIES)
def test_label_line_syntax(tmp_path, body, entries):
    path = tmp_path / "labels.txt"
    filler = "".join(f"{v}:\n" for v in range(1, 24))
    path.write_text(f"0: {body}\n{filler}", encoding="utf-8")
    if entries is None:
        with pytest.raises(GraphFormatError):
            read_labels(path)
    else:
        assert list(read_labels(path).entries(0)) == entries


def test_label_file_names_the_first_bad_line(tmp_path):
    path = tmp_path / "labels.txt"
    good = "".join(f"{v}: ({v},0)\n" for v in range(4))
    for body, entries in LABEL_BODIES:
        if entries is None:
            path.write_text(f"{good}\n4: {body}\n5: (1,2) x\n", encoding="utf-8")
            with pytest.raises(GraphFormatError, match="^line 6: malformed hub entries$"):
                read_labels(path)
    # the first fault in file order wins, whichever kind it is
    cases = [
        ("0: (0,0) x\n2: (1,2)\n", "line 1: malformed hub entries"),
        ("0: (0,0)\nq: (1,2) x\n", "line 2: bad vertex id"),
        ("0: (0,0)\n2: (1,2) x\n", "line 2: vertex ids must be consecutive"),
        ("0: (0,0)\n1: (1,2) x\n3: (0,1)\n", "line 2: malformed hub entries"),
    ]
    for text, message in cases:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(GraphFormatError, match=f"^{re.escape(message)}$"):
            read_labels(path)


def test_empty_hub_line_round_trip(tmp_path):
    hl = labeling(2, [[], [(0, 3)]])
    path = tmp_path / "labels.txt"
    write_labels(hl, path)
    assert format_labels(hl) == "0:\n1: (0,3)\n"
    assert read_labels(path) == hl


def test_bit_estimate_formula():
    hl = labeling(8, [[(v, 0)] for v in range(8)])
    # 8 entries, ceil(log2 8) = 3 id bits, diameter 5 -> ceil(log2 6) = 3
    assert bit_estimate(hl, 5) == 8 * (3 + 3)


# -- verify_cover against the dense oracle ---------------------------------------

KINDS = ("drop", "shift", "retarget", "foreign")


def _mutated(hl, dm, kind: str, rng):
    """A copy of hl with one seeded corruption of the given kind, or None when
    no vertex admits it."""
    hubs = [dict(e) for e in hl.hubs]

    def options(v):
        if kind == "retarget":
            return sorted(set(range(hl.n)) - set(hubs[v]))
        if kind == "foreign":
            return [x for x in np.flatnonzero(dm.matrix()[v] < 0).tolist() if x not in hubs[v]]
        return [0]

    owners = [v for v in range(hl.n) if (hubs[v] or kind == "foreign") and options(v)]
    if not owners:
        return None
    v = int(rng.choice(owners))
    target = int(rng.choice(options(v)))
    if kind == "foreign":
        hubs[v][target] = int(rng.integers(0, 4))
    else:
        h = int(rng.choice(sorted(hubs[v])))
        d = hubs[v].pop(h)
        if kind == "shift":
            hubs[v][h] = d + 1 if d == 0 or rng.random() < 0.5 else d - 1
        elif kind == "retarget":
            hubs[v][target] = d
    return labeling(hl.n, [e.items() for e in hubs])


def _assert_same_report(hl, dm):
    for truncate in (1000, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hub_labeling, "_LISTED", truncate)
            got = verify_cover(hl, dm)
        want = dense_verify_cover(hl, dm, truncate=truncate)
        assert astuple(got) == astuple(want)


def _two_component_graph():
    edges = [(i, i + 1, 1) for i in range(11)] + [(12 + i, 13 + i, 1) for i in range(7)]
    return WeightedGraph(20, edges + [(0, 5, 1), (12, 17, 2), (13, 18, 0)])


@pytest.mark.parametrize("kind", KINDS)
def test_verify_cover_matches_dense_oracle_under_mutation(kind):
    graphs = [
        seeded_sparse_graph(40, 70, seed=3, min_w=1, max_w=1),
        seeded_sparse_graph(30, 45, seed=4, min_w=0, max_w=3),
        _two_component_graph(),
        expand_to_G(build_H(FamilyParams(1, 1))).graph,
    ]
    rng = np.random.default_rng(KINDS.index(kind))
    for g in graphs:
        dm = all_pairs(g)
        labelings = [baseline_full(dm)]
        labelings += [build_for_graph(g, BuilderConfig(D=D, seed=2)).labeling for D in (None, 1, 2)]
        for hl in labelings:
            _assert_same_report(hl, dm)
            for _ in range(4):
                bad = _mutated(hl, dm, kind, rng)
                if bad is not None:
                    _assert_same_report(bad, dm)
    if kind == "drop":
        # At the default block sizes: the S hub w of a 3-regular build on 300
        # vertices loses its own entry, so it leaves the core and its joins
        # cross _ROWS-row blocks and several _CHUNK steps.
        built = build_for_graph(random_regular_graph(300, 3, seed=1), BuilderConfig(seed=1))
        hl, w = built.labeling, int(built.artifacts.S[1])
        bad = labeling(hl.n, [[e for e in hl.hubs[v] if (v, e[0]) != (w, w)] for v in range(hl.n)])
        assert bad.total_size == hl.total_size - 1
        _assert_same_report(bad, built.dm)
        assert not verify_cover(bad, built.dm).valid


def test_verify_cover_matches_dense_oracle_across_chunk_boundaries(monkeypatch):
    _check_across_chunk_boundaries(monkeypatch, 3)


@pytest.mark.parametrize("rows", [1, "n + 1"])
def test_verify_cover_matches_dense_oracle_at_1_and_n_plus_1_rows(monkeypatch, rows):
    # Blocks of one row, and one block of every row.
    _check_across_chunk_boundaries(monkeypatch, rows)
    _check_ancestor_labels(monkeypatch, rows)


def _check_across_chunk_boundaries(monkeypatch, rows):
    monkeypatch.setattr(hub_labeling, "_CHUNK", 5)
    monkeypatch.setattr(graph_core, "_BLOCK", 2)
    rng = np.random.default_rng(9)
    for g in (_two_component_graph(), seeded_sparse_graph(25, 40, seed=5, min_w=0, max_w=3)):
        monkeypatch.setattr(graph_core, "_ROWS", g.n + 1 if rows == "n + 1" else rows)
        dm = all_pairs(g)
        for hl in (baseline_full(dm), build_for_graph(g, BuilderConfig(seed=4)).labeling):
            _assert_same_report(hl, dm)
            for kind in KINDS:
                bad = _mutated(hl, dm, kind, rng)
                if bad is not None:
                    _assert_same_report(bad, dm)



def test_verify_cover_finds_an_undercut_of_a_pair_the_core_hits():
    # u and v have a vertex of S on a shortest path, so the core covers
    # them; both also store a hub outside S at distance 0, which undercuts
    # d(u, v) and leaves the pair uncovered.
    built = build_for_graph(random_regular_graph(60, 3, seed=1), BuilderConfig(seed=1))
    hl, dm = built.labeling, built.dm
    in_s = np.zeros(hl.n, dtype=bool)
    in_s[built.artifacts.S] = True
    u, v = map(int, np.argwhere(np.triu(hit_rows(dm, in_s, slice(None)), 1))[0])
    x = int(np.flatnonzero(~in_s)[0])
    rows = [dict(hl.hubs[w]) for w in range(hl.n)]
    rows[u][x] = rows[v][x] = 0
    bad = labeling(hl.n, [row.items() for row in rows])
    assert query(bad, u, v) == 0 < dm.at(u, v)
    _assert_same_report(bad, dm)
    assert (u, v) in verify_cover(bad, dm).uncovered
    # The same through a hub neither of them reaches: every vertex stores
    # all it reaches, so every hub is core, and 0 and 1 also store 12.
    dm = all_pairs(_two_component_graph())
    rows = [dict(e) for e in baseline_full(dm).hubs]
    rows[0][12] = rows[1][12] = 0
    bad = labeling(dm.n, [row.items() for row in rows])
    _assert_same_report(bad, dm)
    assert verify_cover(bad, dm).uncovered == ((0, 1),)


def test_verify_cover_counts_an_inexact_sum_equal_to_d_as_covered():
    # Every vertex of a path stores itself, so no hub is core and the core
    # misses every pair. 0 and 4 also store hub 2, at 1 (below d(0, 2) = 2)
    # and at 3 (above d(4, 2) = 2): the sum is d(0, 4) = 4, so query(0, 4)
    # is exact and the pair is covered.
    g = WeightedGraph(5, [(i, i + 1, 1) for i in range(4)])
    dm = all_pairs(g)
    rows = [[(v, 0)] for v in range(5)]
    rows[0].append((2, 1))
    rows[4].append((2, 3))
    hl = labeling(5, rows)
    assert query(hl, 0, 4) == 4
    _assert_same_report(hl, dm)
    report = verify_cover(hl, dm)
    assert (0, 4) not in report.uncovered and report.uncovered_total == 9


def _ancestor_labeling(levels: int):
    """The complete binary tree of 2**levels - 1 vertices, v's parent being
    (v - 1) // 2, and the labeling in which every vertex stores its
    ancestors and itself; the root is its only core hub."""
    n = 2**levels - 1
    depth = [(v + 1).bit_length() - 1 for v in range(n)]
    rows = []
    for v in range(n):
        up = [v]
        while up[-1]:
            up.append((up[-1] - 1) // 2)
        rows.append([(x, depth[v] - depth[x]) for x in up])
    return WeightedGraph(n, [(v, (v - 1) // 2, 1) for v in range(1, n)]), labeling(n, rows)


@pytest.mark.parametrize("small_blocks", [False, True])
def test_verify_cover_matches_dense_oracle_on_tree_ancestor_labels(monkeypatch, small_blocks):
    _check_ancestor_labels(monkeypatch, 3 if small_blocks else None)


def _check_ancestor_labels(monkeypatch, rows):
    # The core misses every pair whose lowest common ancestor is not the
    # root; each such pair is covered by that ancestor alone, found by the
    # join of the non-core entries.
    g, hl = _ancestor_labeling(6)
    if rows is not None:
        monkeypatch.setattr(graph_core, "_ROWS", g.n + 1 if rows == "n + 1" else rows)
        monkeypatch.setattr(hub_labeling, "_CHUNK", 5)
    dm = all_pairs(g)
    assert verify_cover(hl, dm).valid
    _assert_same_report(hl, dm)
    rng = np.random.default_rng(12)
    for kind in KINDS:
        for _ in range(3):
            bad = _mutated(hl, dm, kind, rng)
            if bad is not None:
                _assert_same_report(bad, dm)


@pytest.mark.parametrize("w", [1, 300, 70_000, 1 << 49], ids=["uint8", "uint16", "uint32", "uint64"])
def test_verify_cover_reads_every_dtype_of_q(w):
    # 0-1-2=3 and 4-5 apart, 2=3 a zero weight; q's dtype follows the diameter 2w.
    g = WeightedGraph(6, [(0, 1, w), (1, 2, w), (2, 3, 0), (4, 5, w)])
    dm = all_pairs(g)
    assert dm.q.dtype == np.min_scalar_type(2 * w + 1)
    hl = baseline_full(dm)
    _assert_same_report(hl, dm)
    assert verify_cover(hl, dm).valid
    rng = np.random.default_rng(w)
    for kind in KINDS:
        bad = _mutated(hl, dm, kind, rng)
        if bad is not None:
            _assert_same_report(bad, dm)
    # 4 and 5 share no hub; an entry (4, far) of vertex 0, which 4 does not
    # reach, must not count as exact and make 4 a core hub that covers them
    # (a stored distance stays below 2**63, so uint64's far is out of reach).
    rows = [list(hl.entries(v)) for v in range(6)]
    rows[0].append((4, min(dm.far, 2**63 - 1)))
    rows[4], rows[5] = [(4, 0)], [(5, 0)]
    bad = labeling(6, rows)
    _assert_same_report(bad, dm)
    assert verify_cover(bad, dm).uncovered == ((4, 5),)

def test_verify_cover_matches_dense_oracle_without_core():
    # Every stored distance is one too large, so no entry is exact and the
    # verdict rests on the join alone.
    for g in (_two_component_graph(), seeded_sparse_graph(30, 50, seed=8, min_w=1, max_w=1)):
        dm = all_pairs(g)
        full = baseline_full(dm)
        shifted = labeling(g.n, [[(h, d + 1) for h, d in full.hubs[v]] for v in range(g.n)])
        _assert_same_report(shifted, dm)
        assert not verify_cover(shifted, dm).valid
        half = labeling(g.n, [[e for e in full.hubs[v] if (e[0] + v) % 2] for v in range(g.n)])
        _assert_same_report(half, dm)
        _assert_same_report(labeling(g.n, [[] for _ in range(g.n)]), dm)


@pytest.mark.parametrize("huge", [1 << 27, 1 << 32, 1 << 62, (1 << 63) - 1])
def test_verify_cover_matches_dense_oracle_on_huge_stored_distances(huge):
    # Stored distances far above the diameter, up to the int64 maximum. Every
    # odd vertex also stores one shared hub at that distance, so the join sums
    # two huge values wherever the core already covers the pair.
    rng = np.random.default_rng(7)
    for g in (PATH3, _two_component_graph(), seeded_sparse_graph(30, 50, seed=8, min_w=0, max_w=3)):
        dm = all_pairs(g)
        for hl in (baseline_full(dm), build_for_graph(g, BuilderConfig(seed=4)).labeling):
            shared = int(rng.integers(g.n))
            rows = [dict(e) for e in hl.hubs]
            extra = [dict(row) for row in rows]
            for v in range(1, g.n, 2):
                extra[v].setdefault(shared, huge)
            extra = labeling(g.n, [row.items() for row in extra])
            _assert_same_report(extra, dm)
            assert verify_cover(extra, dm).valid
            raised = [
                {h: huge if rng.random() < 1 / 3 else d for h, d in row.items()} for row in rows
            ]
            _assert_same_report(labeling(g.n, [row.items() for row in raised]), dm)
            _assert_same_report(labeling(g.n, [{h: huge for h in row}.items() for row in rows]), dm)


@pytest.mark.parametrize("weight", [1 << 27, 1 << 40])
def test_verify_cover_on_distances_beyond_int32(weight):
    g = seeded_sparse_graph(30, 50, seed=8, min_w=1, max_w=3)
    u, v, w = g.edge_arrays()
    heavy = WeightedGraph(g.n, np.stack([u, v, w * weight], axis=1))
    dm = all_pairs(heavy)
    assert dm.diameter() >= weight
    for hl in (baseline_full(dm), build_for_graph(heavy, BuilderConfig(seed=4)).labeling):
        _assert_same_report(hl, dm)
        assert verify_cover(hl, dm).valid
    far = all_pairs(WeightedGraph(2, [(0, 1, weight)]))
    assert verify_cover(labeling(2, [[], []]), far).uncovered == ((0, 1),)
