from dataclasses import astuple
from fractions import Fraction
import re

import numpy as np
import pytest
from conftest import (
    check_stored_distances,
    dense_verify_cover,
    oracle_label_rows,
    oracle_query,
    seeded_sparse_graph,
    small_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab import graph_core, hub_labeling
from hublab.family_gen import FamilyParams, build_H, expand_to_G
from hublab.graph_core import (
    UNREACHABLE,
    GraphFormatError,
    ResourceLimitError,
    UnreachablePairError,
    WeightedGraph,
    all_pairs,
    canonical_trees,
    shortest_paths_from,
)
from hublab.hub_labeling import (
    HubLabeling,
    baseline_full,
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
    hl = HubLabeling(2, [[(1, 5), (0, 0)], [(1, 0)]])
    assert hl.entries(0) == ((0, 0), (1, 5))
    with pytest.raises(ValueError):
        HubLabeling(2, [[(0, 0), (0, 1)], []])
    with pytest.raises(ValueError):
        HubLabeling(2, [[(5, 0)], []])
    with pytest.raises(ValueError):
        HubLabeling(1, [])


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
    """(n, rows) with out-of-range hubs, negative distances, conflicting
    duplicates, or too few or too many rows."""
    n = draw(st.integers(0, 5))
    count = draw(st.sampled_from((n, n, n, max(n - 1, 0), n + 1)))
    entry = st.tuples(st.integers(-1, n), st.integers(-1, 3))
    return n, draw(st.lists(st.lists(entry, max_size=6), min_size=count, max_size=count))


def _flat(rows):
    owner = [v for v, row in enumerate(rows) for _ in row]
    return owner, [h for row in rows for h, _ in row], [d for row in rows for _, d in row]


@settings(max_examples=300)
@given(st.one_of(valid_rows(), faulty_rows()))
def test_constructor_matches_tuple_normaliser(case):
    n, rows = case
    try:
        want = oracle_label_rows(n, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            HubLabeling(n, rows)
        assert str(got.value) == str(exc)
        if len(rows) == n:
            with pytest.raises(ValueError) as got:
                HubLabeling.from_entries(n, *_flat(rows))
            assert str(got.value) == str(exc)
        return
    hl = HubLabeling(n, rows)
    assert tuple(hl.hubs) == want
    assert hl.total_size == sum(map(len, want))
    assert [hl.size(v) for v in range(n)] == [len(r) for r in want]
    assert HubLabeling.from_entries(n, *_flat(rows)) == hl


@given(valid_rows())
def test_query_matches_merge_oracle(case):
    n, rows = case
    hl, want = HubLabeling(n, rows), oracle_label_rows(n, rows)
    for u in range(n):
        for v in range(n):
            expected = oracle_query(want, u, v)
            got = query(hl, u, v)
            if expected is UNREACHABLE:
                assert got is UNREACHABLE
            else:
                assert type(got) is int and got == expected


def _old_format(rows) -> str:
    """format_labels as it was on tuple rows."""
    lines = []
    for v, row in enumerate(rows):
        body = " ".join(f"({h},{d})" for h, d in row)
        lines.append(f"{v}: {body}".rstrip())
    return "\n".join(lines) + "\n"


@given(valid_rows())
def test_label_file_round_trip_matches_old_text(tmp_path_factory, case):
    hl = HubLabeling(*case)
    path = tmp_path_factory.mktemp("labels") / "labels.txt"
    write_labels(hl, path)
    assert path.read_text(encoding="utf-8") == _old_format(oracle_label_rows(*case))
    assert read_labels(path) == hl


@given(valid_rows(max_n=2), valid_rows(max_n=2))
def test_hubs_view_equals_exactly_when_labelings_do(a, b):
    ha, hb = HubLabeling(*a), HubLabeling(*b)
    ra, rb = oracle_label_rows(*a), oracle_label_rows(*b)
    assert tuple(ha.hubs) == ra and len(ha.hubs) == len(ra)
    assert ha.hubs[-1:] == ra[-1:] and list(ha.hubs) == list(ra)
    assert (ha.hubs == hb.hubs) == (ha == hb) == (ra == rb)
    assert ha.hubs == HubLabeling(*a).hubs


def test_numbers_beyond_int64_rejected_by_constructor():
    big = 2**63
    with pytest.raises(ValueError, match=f"^vertex 1: stored distance {big} does not fit in 64"):
        HubLabeling(2, [[(0, 0)], [(1, big)]])
    with pytest.raises(ValueError, match=f"^vertex 0: hub id {-big - 1} does not fit in 64 bits$"):
        HubLabeling(2, [[(-big - 1, 0)], []])
    assert HubLabeling(2, [[], [(1, big - 1)]]).entries(1) == ((1, big - 1),)


def test_query_basic():
    hl = HubLabeling(2, [[(0, 0)], [(0, 5)]])
    assert query(hl, 0, 1) == 5
    hl = HubLabeling(2, [[(0, 0)], [(1, 0)]])
    assert query(hl, 0, 1) is UNREACHABLE


def test_query_single_landmark_cycle():
    dm = all_pairs(CYCLE4)
    hl = HubLabeling(4, [[(0, dm.d(x, 0))] for x in range(4)])
    assert query(hl, 1, 3) == 2 == dm.d(1, 3)


@given(small_graphs())
def test_query_over_approximates(g):
    dm = all_pairs(g)
    # hub sets: true distances to an arbitrary prefix of vertices
    sets = []
    for v in range(g.n):
        row = dm.row(v)
        sets.append([(h, int(row[h])) for h in range(0, g.n, 2) if row[h] >= 0])
    hl = HubLabeling(g.n, sets)
    for u in range(g.n):
        for v in range(g.n):
            q = query(hl, u, v)
            d = dm.d(u, v)
            if q is not UNREACHABLE and d is not UNREACHABLE:
                assert q >= d


def test_verify_cover_full_sets_valid():
    dm = all_pairs(CYCLE4)
    hl = HubLabeling(4, [[(h, dm.d(v, h)) for h in range(4)] for v in range(4)])
    rep = verify_cover(hl, dm)
    assert rep.valid and rep.total_size == 16
    assert rep.avg_hub_size == Fraction(4)


def test_verify_cover_detects_uncovered():
    dm = all_pairs(PATH3)
    hl = HubLabeling(3, [[(v, 0)] for v in range(3)])
    rep = verify_cover(hl, dm)
    assert not rep.valid
    assert (0, 2) in rep.uncovered
    assert rep.uncovered_total == 3


def test_verify_cover_truncation():
    g = WeightedGraph(60, [(i, i + 1, 1) for i in range(59)])
    dm = all_pairs(g)
    hl = HubLabeling(60, [[(v, 0)] for v in range(60)])
    rep = verify_cover(hl, dm, truncate=10)
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
    hl = HubLabeling(3, [[(2, 1)], [], []])  # true distance is 2
    assert check_stored_distances(hl, dm) == [(0, 2, 1)]


def test_closure_identity_and_path():
    trees = canonical_trees(PATH3)
    hl = HubLabeling(3, [[(0, 0)], [], []])
    assert monotone_closure(hl, trees).entries(0) == ((0, 0),)
    hl = HubLabeling(3, [[(2, 2)], [], []])
    closed = monotone_closure(hl, trees)
    assert closed.entries(0) == ((0, 0), (1, 1), (2, 2))


def test_closure_empty_set_stays_empty():
    trees = canonical_trees(PATH3)
    hl = HubLabeling(3, [[], [(1, 0)], []])
    closed = monotone_closure(hl, trees)
    assert closed.entries(0) == ()


def test_closure_unreachable_hub_raises():
    g = WeightedGraph(3, [(0, 1, 1)])
    trees = canonical_trees(g)
    hl = HubLabeling(3, [[(2, 5)], [], []])
    with pytest.raises(UnreachablePairError):
        monotone_closure(hl, trees)


@given(small_graphs(min_weight=1))
def test_closure_preserves_validity_and_size_bound(g):
    dm = all_pairs(g)
    trees = canonical_trees(g)
    sets = []
    for v in range(g.n):
        row = dm.row(v)
        sets.append([(h, int(row[h])) for h in range(g.n) if row[h] >= 0])
    hl = HubLabeling(g.n, sets)
    closed = monotone_closure(hl, trees)
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
    closed = monotone_closure(hl, canonical_trees(inst.graph))
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
    hl = HubLabeling(2, [[], [(0, 3)]])
    path = tmp_path / "labels.txt"
    write_labels(hl, path)
    assert format_labels(hl) == "0:\n1: (0,3)\n"
    assert read_labels(path) == hl


def test_bit_estimate_formula():
    hl = HubLabeling(8, [[(v, 0)] for v in range(8)])
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
            return [x for x in np.flatnonzero(dm.row(v) < 0).tolist() if x not in hubs[v]]
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
    return HubLabeling(hl.n, [e.items() for e in hubs])


def _assert_same_report(hl, dm):
    for truncate in (1000, 2):
        got = verify_cover(hl, dm, truncate=truncate)
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


def test_verify_cover_matches_dense_oracle_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(hub_labeling, "_ROWS", 3)
    monkeypatch.setattr(hub_labeling, "_CHUNK", 5)
    monkeypatch.setattr(graph_core, "_HIT_BLOCK", 2)
    rng = np.random.default_rng(9)
    for g in (_two_component_graph(), seeded_sparse_graph(25, 40, seed=5, min_w=0, max_w=3)):
        dm = all_pairs(g)
        for hl in (baseline_full(dm), build_for_graph(g, BuilderConfig(seed=4)).labeling):
            _assert_same_report(hl, dm)
            for kind in KINDS:
                bad = _mutated(hl, dm, kind, rng)
                if bad is not None:
                    _assert_same_report(bad, dm)


def test_verify_cover_matches_dense_oracle_without_core():
    # Every stored distance is one too large, so no entry is exact and the
    # verdict rests on the join alone.
    for g in (_two_component_graph(), seeded_sparse_graph(30, 50, seed=8, min_w=1, max_w=1)):
        dm = all_pairs(g)
        full = baseline_full(dm)
        shifted = HubLabeling(g.n, [[(h, d + 1) for h, d in full.hubs[v]] for v in range(g.n)])
        _assert_same_report(shifted, dm)
        assert not verify_cover(shifted, dm).valid
        half = HubLabeling(g.n, [[e for e in full.hubs[v] if (e[0] + v) % 2] for v in range(g.n)])
        _assert_same_report(half, dm)
        _assert_same_report(HubLabeling(g.n, [[] for _ in range(g.n)]), dm)


def test_verify_cover_keeps_guards():
    dm = all_pairs(PATH3)
    with pytest.raises(ResourceLimitError, match="verification needs 9 comparisons"):
        verify_cover(baseline_full(dm), dm, pair_cap=8)
    huge = HubLabeling(3, [[(0, 1 << 27)], [], []])
    with pytest.raises(ResourceLimitError, match="stored distances too large"):
        verify_cover(huge, dm)
    far = all_pairs(WeightedGraph(2, [(0, 1, 1 << 27)]))
    with pytest.raises(ResourceLimitError, match="^distances too large"):
        verify_cover(HubLabeling(2, [[], []]), far)
