import math

import numpy as np
import pytest
from conftest import (
    baseline_full,
    dense_verify_cover,
    hub_candidates,
    index_as_dicts,
    induced_rows,
    labeling,
    oracle_build_labeling,
    oracle_check_induced,
    oracle_greedy_matching,
    oracle_has_conflict,
    oracle_hits,
    oracle_matchings,
    oracle_pair_index,
    oracle_reduce_degree,
    seeded_sparse_graph,
    small_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab.corpus import erdos_renyi_m, grid_graph, path_graph, random_regular_graph, star_graph
from hublab.family_gen import FamilyParams, build_H, expand_to_G
from hublab.graph_core import WeightedGraph, all_pairs, hit_rows
from hublab import graph_core, hub_labeling, upperbound_builder
from hublab.hub_labeling import (
    HubLabeling,
    format_labels,
    monotone_closure,
    query,
    read_labels,
    verify_cover,
)
from hublab.upperbound_builder import (
    BuilderConfig,
    CoverVerificationError,
    InducedMatchingViolation,
    ResampleExhausted,
    _check_induced,
    _conflicts,
    _greedy_matchings,
    _resample,
    _rng,
    _sample_colors,
    _sample_cover,
    _stage_total,
    assemble,
    build_for_graph,
    build_matchings,
    build_pair_index,
    needs_reduction,
    project_back,
    reduce_degree,
    resolve_threshold,
    sample_cover_set,
    sample_coloring,
)

PATH5 = WeightedGraph(5, [(i, i + 1, 1) for i in range(4)])


def _index(dm, cfg: BuilderConfig):
    return build_pair_index(dm, resolve_threshold(dm.n, cfg.D))


def _sets(rows) -> dict[int, frozenset[int]]:
    """{owner: members} of ascending (owner, member) rows."""
    out: dict[int, set[int]] = {}
    for u, v in rows.tolist():
        out.setdefault(u, set()).add(v)
    return {u: frozenset(vs) for u, vs in out.items()}


def test_config_validation():
    with pytest.raises(ValueError):
        BuilderConfig(D=0)
    assert resolve_threshold(2000, None) == 3
    assert resolve_threshold(10, 7) == 7


def test_pair_index_path_candidate_sizes():
    # on the 5-path the candidate set of (0, j) has j + 1 vertices
    dm = all_pairs(PATH5)
    for v in range(1, 5):
        assert len(hub_candidates(dm, 0, v)) == v + 1
    small, _, forced, _ = index_as_dicts(build_pair_index(dm, 3), dm)
    assert small[(0, 1)] == (0, 1)
    assert small[(0, 2)] == (0, 1, 2)
    assert (0, 3) not in small  # 4 candidates > D
    assert not forced


def assert_index_arrays(index):
    """The dtypes and shapes every PairIndex has, whatever its graph."""
    rows = len(index.small)
    for name, shape in [
        ("small", (rows, 2)),
        ("small_dist", (rows,)),
        ("cand_ptr", (rows + 1,)),
        ("cand", (int(index.cand_ptr[-1]),)),
        ("forced", (len(index.forced), 2)),
    ]:
        got = getattr(index, name)
        assert got.dtype == np.int64 and got.shape == shape, name


def assert_same_index(got, want, dm):
    assert_index_arrays(got)
    small, small_dist, forced, big = index_as_dicts(got, dm)
    assert small == want[0]
    assert small_dist == want[1]
    assert forced == want[2]
    assert big.shape == want[3].shape
    assert (big == want[3]).all()


def test_pair_index_exact_matches_zero_one():
    graphs = [seeded_sparse_graph(12, 16, seed=seed, min_w=1, max_w=1) for seed in (1, 2)]
    graphs += [
        random_regular_graph(30, 3, seed=2),
        reduce_degree(star_graph(9))[0],
        reduce_degree(erdos_renyi_m(40, 80, seed=1))[0],
        grid_graph(4, 5),
        WeightedGraph(7, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]),
    ]
    for g in graphs:
        assert g.weight_kind in ("unit", "01")
        dm = all_pairs(g)
        for D in (2, 3):
            index = build_pair_index(dm, D)
            assert not len(index.forced)
            assert_same_index(index, oracle_pair_index(dm, D, zero_one=True), dm)
            assert_same_index(index, oracle_pair_index(dm, D), dm)


# Zero-weight components {0, 5}, {1, 3, 7} and {2, 4, 6, 8}: sizes D - 1, D
# and D + 1 at D = 3, with interleaved ids, joined in a chain by unit edges.
ZERO_SIZES = WeightedGraph(
    9,
    [(0, 5, 0), (1, 3, 0), (3, 7, 0), (2, 4, 0), (4, 6, 0), (6, 8, 0), (5, 1, 1), (7, 2, 1)],
)
# Zero-weight components {0, 1} and {3, 4} around vertex 2 and beside vertex
# 5, joined by weights 7, 9 and 1000: at D = 5 each pair across one join has
# 3 candidates at distance above 5, which makes it forced. Vertex 6 is alone.
ZERO_FORCED = WeightedGraph(7, [(0, 1, 0), (1, 2, 7), (2, 3, 9), (3, 4, 0), (4, 5, 1000)])
# A star with six leaves beside a path, reduced: clone chains in one
# component, none in the other.
ZERO_DISCONNECTED = reduce_degree(
    WeightedGraph(10, [(0, i, 1) for i in range(1, 7)] + [(7, 8, 1), (8, 9, 1)])
)[0]

PAIR_INDEX_EDGE_CASES = [
    WeightedGraph(0, []),
    WeightedGraph(1, []),
    WeightedGraph(5, [(0, 1, 0), (1, 2, 0), (3, 4, 7)]),
    WeightedGraph(6, [(0, 1, 1000), (1, 2, 1), (0, 2, 1000), (3, 4, 0), (4, 5, 2)]),
    ZERO_SIZES,
    ZERO_FORCED,
    ZERO_DISCONNECTED,
]


@pytest.mark.parametrize("g", PAIR_INDEX_EDGE_CASES, ids=lambda g: f"n{g.n}-m{g.m}")
@pytest.mark.parametrize("D", [1, 2, 3, 5])
def test_pair_index_edge_cases_match_oracle(g, D):
    dm = all_pairs(g)
    assert_same_index(build_pair_index(dm, D), oracle_pair_index(dm, D), dm)


def test_pair_index_zero_weight_components_by_size():
    # Pairs inside a component of s vertices have that component as their s
    # candidates: small up to D, big from D on. Pairs across components count
    # every member of each component on their shortest paths.
    dm = all_pairs(ZERO_SIZES)
    small, _, forced, big = index_as_dicts(build_pair_index(dm, 3), dm)
    assert small[(0, 5)] == (0, 5)
    assert small[(1, 3)] == small[(3, 7)] == (1, 3, 7)
    assert big[1, 3] and big[3, 7] and not big[0, 5]
    assert not any(p in small for p in [(2, 4), (2, 8), (6, 8)])
    assert big[2, 4] and big[2, 8] and big[6, 8]
    # {0, 5} and {1, 3, 7}: five candidates at distance 1
    assert (0, 1) not in small and big[0, 1]
    assert not forced
    # at D = 5 that pair is small, its candidates the members of both, in order
    small = index_as_dicts(build_pair_index(dm, 5), dm)[0]
    assert small[(0, 1)] == small[(1, 5)] == (0, 1, 3, 5, 7)


ONE_VERTEX_BLOCK_CASES = {
    "n0": (WeightedGraph(0, []), 2),
    "n1": (WeightedGraph(1, []), 2),
    "edgeless": (WeightedGraph(5, []), 2),
    "two-components": (WeightedGraph(7, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 3, 1)]), 2),
    "zero-weight-chains": (reduce_degree(star_graph(9))[0], 3),
    "D1": (random_regular_graph(30, 3, seed=2), 1),
    "D-above-n": (path_graph(6), 8),
    "H11": (build_H(FamilyParams(1, 1)).graph, 3),
    "zero-sizes": (ZERO_SIZES, 3),
    "zero-forced": (ZERO_FORCED, 5),
    "zero-disconnected": (ZERO_DISCONNECTED, 3),
}


@pytest.mark.parametrize("g, D", ONE_VERTEX_BLOCK_CASES.values(), ids=ONE_VERTEX_BLOCK_CASES)
def test_pair_index_one_vertex_blocks(monkeypatch, g, D):
    dm = all_pairs(g)
    default = build_pair_index(dm, D)
    # every block is one row of the scan and one vertex of the expansion
    monkeypatch.setattr(upperbound_builder, "_SCAN", 1)
    monkeypatch.setattr(upperbound_builder, "_TRIPLES", 1)
    blocks = build_pair_index(dm, D)
    for field in ("small", "small_dist", "cand_ptr", "cand", "forced"):
        got, want = getattr(blocks, field), getattr(default, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
    assert_same_index(blocks, oracle_pair_index(dm, D), dm)
    if g is ONE_VERTEX_BLOCK_CASES["H11"][0] or g is ZERO_FORCED:
        assert len(blocks.forced)


@settings(max_examples=200)
@given(
    st.one_of(small_graphs(min_weight=0), small_graphs(min_weight=0, max_weight=1000)),
    st.sampled_from([1, 2, 3, 5]),
)
def test_pair_index_matches_oracle(g, D):
    dm = all_pairs(g)
    index = build_pair_index(dm, D)
    assert_same_index(index, oracle_pair_index(dm, D), dm)
    if g.weight_kind != "general":
        assert_same_index(index, oracle_pair_index(dm, D, zero_one=True), dm)


@settings(max_examples=200)
@given(
    st.lists(st.lists(st.integers(0, 9), max_size=6), max_size=8),
    st.lists(st.integers(0, 4), min_size=10, max_size=10),
)
def test_conflicts_match_per_pair_rule(sets, colors):
    ptr = np.cumsum([0] + [len(H) for H in sets])
    cand = np.array([h for H in sets for h in H], dtype=np.int64)
    got = _conflicts(np.array(colors), ptr, cand)
    assert got.tolist() == [oracle_has_conflict(colors, H) for H in sets]


def test_cover_set_degenerate_threshold():
    dm = all_pairs(PATH5)
    cfg = BuilderConfig(D=1, seed=0)
    S, Q = sample_cover_set(dm, cfg, index=_index(dm, cfg))
    assert S.tolist() == [] and Q.shape == (0, 2)


def test_cover_set_path_end_pair_always_covered():
    # |S| = 2 out of 5 vertices; the end pair's candidate set is the whole
    # path so any sample hits it, while pairs with exactly D candidates may
    # land in Q depending on the draw
    dm = all_pairs(PATH5)
    for seed in range(5):
        cfg = BuilderConfig(D=3, seed=seed)
        S, Q = sample_cover_set(dm, cfg, index=_index(dm, cfg))
        assert len(S) == 2
        assert 4 not in _sets(Q).get(0, frozenset())
        for u, v in Q.tolist():
            assert len(hub_candidates(dm, u, v)) >= 3
            assert not (set(S.tolist()) & hub_candidates(dm, u, v))


def test_cover_and_coloring_bounds_three_regular():
    g = random_regular_graph(200, 3, seed=42)
    dm = all_pairs(g)
    cfg = BuilderConfig(D=5, seed=7)
    index = build_pair_index(dm, 5)
    S, Q = sample_cover_set(dm, cfg, index=index)
    assert len(Q) * 5 <= 2 * 200 * 200
    colors, R = sample_coloring(dm, cfg, index=index)
    assert len(R) * 5 <= 2 * 200 * 200
    assert len(colors) == 200 and all(1 <= c <= 125 for c in colors)


def test_resampling_counts_attempts_and_runs_out(monkeypatch):
    monkeypatch.setattr(upperbound_builder, "_MAX_RESAMPLES", 3)
    cfg = BuilderConfig(seed=0)
    sizes = iter([26, 25])  # budget for n = 5, D = 2: at most 25 pairs
    assert _resample(cfg, 1, "cover-set", 5, 2, lambda rng: ("ok", next(sizes))) == ("ok", 2)
    draws = []

    def over_budget(rng):
        draws.append(rng.integers(1 << 30))
        return None, 26

    with pytest.raises(ResampleExhausted, match=r"^coloring stage missed the 50/2 budget 3 times$"):
        _resample(cfg, 2, "coloring", 5, 2, over_budget)
    assert len(set(draws)) == 3  # a fresh stream per attempt


def test_coloring_single_edge_conflict_rule():
    g = WeightedGraph(2, [(0, 1, 1)])
    dm = all_pairs(g)
    cfg = BuilderConfig(D=2, seed=1)
    colors, R = sample_coloring(dm, cfg, index=_index(dm, cfg))
    conflict = colors[0] == colors[1]
    assert (1 in _sets(R).get(0, frozenset())) == conflict


def test_coloring_injective_means_empty_r():
    g = path_graph(4)
    dm = all_pairs(g)
    for seed in range(20):
        cfg = BuilderConfig(D=4, seed=seed)
        colors, R = sample_coloring(dm, cfg, index=_index(dm, cfg))
        if len(set(colors.tolist())) == len(colors):
            assert _sets(R) == {}
            break
    else:
        pytest.skip("no injective sample drawn")


def test_matchings_single_edge_trace():
    g = WeightedGraph(2, [(0, 1, 1)])
    dm = all_pairs(g)
    cfg = BuilderConfig(D=2, seed=3)
    colors, _ = sample_coloring(dm, cfg, index=_index(dm, cfg))
    F, log = build_matchings(dm, colors, cfg, index=_index(dm, cfg))
    F = _sets(F)
    if colors[0] != colors[1]:
        assert F[0] == frozenset({0, 1}) and F[1] == frozenset({0, 1})
        assert log == {(0, 1, 0): 1, (1, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    else:
        assert F[0] == frozenset({0}) and F[1] == frozenset({1})
        assert log == {}


def test_matchings_no_close_pairs_leaves_self_sets():
    # level-graph distances all exceed the threshold, so no buckets exist
    inst = build_H(FamilyParams(1, 1))
    dm = all_pairs(inst.graph)
    cfg = BuilderConfig(D=3, seed=0)
    colors, _ = sample_coloring(dm, cfg, index=_index(dm, cfg))
    F, log = build_matchings(dm, colors, cfg, index=_index(dm, cfg))
    F = _sets(F)
    assert all(F[v] == frozenset({v}) for v in range(inst.graph.n))
    assert log == {}


def test_matchings_sort_distances_past_the_two_key_range():
    # Distances above 2**31 with D = 2**33: the two sort keys would overflow
    # int64, so the rows are sorted by their five columns. Injective colors
    # keep every pair live.
    g = WeightedGraph(6, [(i, i + 1, 1 << 30) for i in range(5)] + [(0, 5, 3 << 30)])
    dm = all_pairs(g)
    index = build_pair_index(dm, 1 << 33)
    colors = np.arange(1, g.n + 1)
    F, log = build_matchings(dm, colors, BuilderConfig(D=1 << 33), index=index)
    want_F, want_log = oracle_matchings(dm, colors, index)
    assert np.array_equal(F, want_F) and log == want_log


def test_forced_pairs_on_weighted_level_graph():
    # adjacent level-graph pairs have a 2-vertex candidate set at distance
    # around A, far beyond D = 3, so they must flow into Q
    inst = build_H(FamilyParams(1, 1))
    dm = all_pairs(inst.graph)
    index = build_pair_index(dm, 3)
    assert len(index.forced)
    S, Q = sample_cover_set(dm, BuilderConfig(D=3, seed=1), index=index)
    Q = _sets(Q)
    for (u, v) in index.forced.tolist():
        assert v in Q[u]
    res = build_for_graph(inst.graph, BuilderConfig(D=3, seed=1))
    assert res.report.cover.valid
    assert res.report.q_forced == len(index.forced)


def test_assemble_single_vertex():
    g = WeightedGraph(1, [])
    dm = all_pairs(g)
    empty = np.zeros((0, 2), dtype=np.int64)
    hl = assemble(np.zeros(0, dtype=np.int64), empty, empty, np.array([[0, 0]]), g, dm)
    assert hl.entries(0) == ((0, 0),)


def test_assemble_path_valid_and_ledger():
    g = path_graph(5)
    res = build_for_graph(g, BuilderConfig(D=2, seed=9))
    rep = res.report
    assert rep.cover.valid
    led = rep.ledger
    assert led.total_size <= led.n_times_s + led.sum_q + led.sum_r + led.sum_nf
    assert led.sum_nf <= led.degree_bound


def test_check_induced_accepts_and_rejects():
    # two matchings of the same color in one bucket; the cross pair (1, 12)
    # joins h=5's left side to its right side without being matched there
    ok_groups = {(1, 1, 2): [(5, [(1, 10), (2, 11)]), (6, [(3, 12)])]}
    _check_induced(*induced_rows(ok_groups))
    bad_groups = {(1, 1, 2): [(5, [(1, 10), (2, 11)]), (6, [(1, 12), (7, 10)])]}
    with pytest.raises(InducedMatchingViolation):
        _check_induced(*induced_rows({(1, 1, 2): bad_groups[(1, 1, 2)] + [(8, [(2, 12)])]}))


def _staircase(steps: int) -> list[tuple[int, int]]:
    """Rows x_i-y_i, x_i-y_(i+1): each row's turn waits on the row before it."""
    return [(i, i + d) for i in range(steps) for d in (0, 1)]


#: _ROUND_SHARE values that hand the rest to the sequential greedy after the
#: first round, at the default share, and never.
_SHARES = (0, upperbound_builder._ROUND_SHARE, 1 << 40)


def _greedy_at_shares(bucket, x, y) -> list[list[bool]]:
    """_greedy_matchings of the rows at each share of _SHARES."""
    out = []
    for share in _SHARES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(upperbound_builder, "_ROUND_SHARE", share)
            out.append(_greedy_matchings(bucket, x, y).tolist())
    return out


@settings(max_examples=200)
@given(
    st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12), max_size=6),
    st.integers(0, 40),
)
def test_greedy_rounds_match_sequential_greedy(buckets, steps):
    buckets = [sorted(rows) for rows in buckets] + ([_staircase(steps)] if steps else [])
    rows = [(k, x, y) for k, bucket in enumerate(buckets) for x, y in bucket]
    want = [oracle_greedy_matching(rows) for rows in buckets]
    for taken in _greedy_at_shares(*np.array(rows, dtype=np.int64).reshape(-1, 3).T):
        got = [[] for _ in buckets]
        for (k, x, y), t in zip(rows, taken):
            if t:
                got[k].append((x, y))
        assert got == want


def test_greedy_rounds_staircase_takes_every_step():
    steps = 300
    bucket = np.zeros(2 * steps, dtype=np.int64)
    x, y = np.array(_staircase(steps), dtype=np.int64).T
    for taken in _greedy_at_shares(bucket, x, y):
        assert taken == [True, False] * steps


def test_greedy_rounds_hand_long_chains_to_sequential(monkeypatch):
    # a complete bipartite bucket on p vertices takes two rows per round
    p = 60
    rows = [(x, y) for x in range(p) for y in range(p) if x != y]
    x, y = np.array(rows, dtype=np.int64).T
    bucket = np.zeros(x.size, dtype=np.int64)
    calls = []
    sequential = upperbound_builder._sequential_greedy
    monkeypatch.setattr(
        upperbound_builder, "_sequential_greedy", lambda *a: calls.append(a[0].size) or sequential(*a)
    )
    taken = _greedy_matchings(bucket, x, y)
    assert calls == [(p - 2) * (p - 3)]
    assert [r for r, t in zip(rows, taken) if t] == oracle_greedy_matching(rows)


_matching = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    min_size=1,
    max_size=4,
    unique_by=(lambda e: e[0], lambda e: e[1]),
)


@settings(max_examples=300)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 3)),
        st.dictionaries(st.integers(0, 9), _matching, min_size=1, max_size=4),
        max_size=4,
    )
)
def test_check_induced_matches_group_loop(groups):
    groups = {key: sorted(items.items()) for key, items in groups.items()}
    try:
        oracle_check_induced(groups)
    except InducedMatchingViolation as exc:
        want = exc
    else:
        want = None
    if want is None:
        _check_induced(*induced_rows(groups))
        return
    with pytest.raises(InducedMatchingViolation) as got:
        _check_induced(*induced_rows(groups))
    assert type(got.value) is type(want)
    assert (got.value.bucket, got.value.other, got.value.pair) == (want.bucket, want.other, want.pair)
    assert str(got.value) == str(want)


def test_check_induced_names_first_violation():
    # h=5 is induced. h=6 holds 1 and 7 on the left and 10 and 12 on the
    # right, so the union pairs (1, 10) from h=5 and (7, 12) from h=8 both
    # break it; the loop meets (1, 10) first
    groups = {
        (0, 0, 1): [(3, [(4, 4)])],
        (1, 1, 2): [(5, [(1, 10), (2, 11)]), (6, [(1, 12), (7, 10)]), (8, [(7, 12)])],
    }
    with pytest.raises(InducedMatchingViolation) as want:
        oracle_check_induced(groups)
    with pytest.raises(InducedMatchingViolation) as exc:
        _check_induced(*induced_rows(groups))
    assert (exc.value.bucket, exc.value.other, exc.value.pair) == ((1, 1, 6), 5, (1, 10))
    assert str(exc.value) == str(want.value) == (
        "matching of bucket (a=1, b=1, h=6) is not induced: pair (1,10) from h'=5 joins its endpoint sides"
    )


@pytest.mark.parametrize(
    "g, D",
    [
        (random_regular_graph(200, 3, seed=42), 3),
        (reduce_degree(erdos_renyi_m(120, 240, seed=2))[0], 2),
        (reduce_degree(erdos_renyi_m(120, 240, seed=2))[0], 3),
        (grid_graph(8, 8), 4),
        (path_graph(30), 1),
        (expand_to_G(build_H(FamilyParams(1, 1))).graph, 3),
    ],
    ids=["3reg-200", "er-120-reduced-D2", "er-120-reduced-D3", "grid-8x8", "path-30-D1", "G11"],
)
def test_matchings_match_bucket_loop(g, D):
    dm = all_pairs(g)
    cfg = BuilderConfig(D=D, seed=5)
    index = build_pair_index(dm, D)
    colors, _ = sample_coloring(dm, cfg, index=index)
    F, log = build_matchings(dm, colors, cfg, index=index)
    want_F, want_log = oracle_matchings(dm, colors, index)
    assert F.tolist() == want_F.tolist()
    assert list(log.items()) == list(want_log.items())


def test_reduce_degree_requires_unit_weights():
    with pytest.raises(ValueError):
        reduce_degree(WeightedGraph(2, [(0, 1, 2)]))


def test_reduce_degree_three_regular_unchanged():
    g = random_regular_graph(20, 3, seed=1)
    g2, rep, orig = reduce_degree(g)
    assert g2.n == g.n and g2.edges == g.edges
    assert rep.dtype == orig.dtype == np.int64
    assert rep.tolist() == orig.tolist() == list(range(20))


def test_reduce_degree_star():
    g = star_graph(6)
    assert not needs_reduction(star_graph(2)) and needs_reduction(g)
    g2, rep, orig = reduce_degree(g)
    center_clones = [c for c, v in enumerate(orig.tolist()) if v == 0]
    assert len(center_clones) == 6
    assert g2.max_degree <= 3
    assert g2.weight_kind == "01"
    dm, dm2 = all_pairs(g), all_pairs(g2)
    for u in range(g.n):
        for v in range(g.n):
            assert int(dm2.matrix()[rep[u], rep[v]]) == int(dm.matrix()[u, v])
    assert g2.n <= 2 * (g.n + g.m)


def test_reduce_degree_matches_loop_oracle():
    graphs = [
        WeightedGraph(0, []),
        WeightedGraph(1, []),
        WeightedGraph(4, []),
        star_graph(9),
        erdos_renyi_m(60, 120, seed=1),
        erdos_renyi_m(90, 300, seed=2),
        WeightedGraph(8, [(0, v, 1) for v in range(1, 8)] + [(1, 2, 1)]),
    ]
    for g in graphs:
        g2, rep, orig = reduce_degree(g)
        want, want_rep, want_orig = oracle_reduce_degree(g)
        assert (g2.n, g2.edges) == (want.n, want.edges)
        assert rep.tolist() == want_rep and orig.tolist() == want_orig


def test_project_back_identity():
    g = random_regular_graph(16, 3, seed=5)
    dm = all_pairs(g)
    g2, rep, orig = reduce_degree(g)
    res = build_for_graph(g2, BuilderConfig(D=2, seed=4))
    projected = project_back(res.labeling, rep, orig, dm)
    assert projected == res.labeling  # no splits happened


def test_end_to_end_sparse_random():
    g = erdos_renyi_m(500, 1000, seed=3)
    res = build_for_graph(g, BuilderConfig(seed=5))
    assert res.report.cover.valid
    assert res.report.reduced is not None
    assert verify_cover(res.labeling, res.dm).valid


def test_zero_distance_pairs_covered_directly():
    # run the pipeline directly on a reduced graph containing 0-weight chains
    g2, _, _ = reduce_degree(star_graph(9))
    assert g2.has_zero_weights
    res = build_for_graph(g2, BuilderConfig(D=2, seed=6))
    assert res.report.cover.valid
    dm = res.dm
    zero_pairs = [
        (u, v) for u in range(g2.n) for v in range(u + 1, g2.n) if int(dm.matrix()[u, v]) == 0
    ]
    assert zero_pairs
    for u, v in zero_pairs:
        assert query(res.labeling, u, v) == 0


def test_determinism_same_seed_same_labels():
    g = erdos_renyi_m(120, 240, seed=8)
    a = build_for_graph(g, BuilderConfig(D=3, seed=11))
    b = build_for_graph(g, BuilderConfig(D=3, seed=11))
    assert format_labels(a.labeling) == format_labels(b.labeling)
    assert a.report.to_dict() == b.report.to_dict()
    c = build_for_graph(g, BuilderConfig(D=3, seed=12))
    assert format_labels(c.labeling) != format_labels(a.labeling)


def test_grid_and_degenerate_threshold_builds():
    res = build_for_graph(grid_graph(5, 5), BuilderConfig(D=1, seed=2))
    assert res.report.cover.valid
    res = build_for_graph(path_graph(2), BuilderConfig(D=2, seed=2))
    assert res.report.cover.valid


def test_empty_graph_builds_empty_labeling():
    res = build_for_graph(WeightedGraph(0, []), BuilderConfig())
    assert res.labeling.n == 0 and res.labeling.total_size == 0
    assert res.report.cover.valid and res.report.ledger.bound_ok
    assert format_labels(res.labeling) == "\n"


def test_disconnected_graph():
    from hublab.graph_core import UNREACHABLE

    g = WeightedGraph(6, [(0, 1, 1), (2, 3, 1)])
    res = build_for_graph(g, BuilderConfig(D=2, seed=1))
    assert res.report.cover.valid
    assert query(res.labeling, 0, 2) is UNREACHABLE
    assert query(res.labeling, 0, 1) == 1


# -- certification inside build_for_graph -----------------------------------

REG = (random_regular_graph(60, 3, seed=1), BuilderConfig(seed=1))
SPARSE = (erdos_renyi_m(80, 160, seed=2), BuilderConfig(seed=3))


def _only_self_hub(hl: HubLabeling, x: int) -> HubLabeling:
    hubs = [list(entries) for entries in hl.hubs]
    hubs[x] = [(x, 0)]
    return labeling(hl.n, hubs)


def _vertex_outside_cover_set(g, cfg) -> int:
    """Lowest vertex of g that is not (a clone of) a cover-set vertex, so that
    few other labels hold it."""
    res = build_for_graph(g, cfg)
    origin = reduce_degree(g)[2] if res.report.reduced else np.arange(g.n)
    return min(set(range(g.n)) - {origin[s] for s in res.artifacts.S.tolist()})


def _counted_verify(monkeypatch) -> list[int]:
    """Record the n of every labeling build_for_graph verifies."""
    calls = []
    real = upperbound_builder.verify_cover

    def counted(hl, dm, **kwargs):
        calls.append(hl.n)
        return real(hl, dm, **kwargs)

    monkeypatch.setattr(upperbound_builder, "verify_cover", counted)
    return calls


def test_build_verifies_each_labeling_once(monkeypatch):
    calls = _counted_verify(monkeypatch)
    build_for_graph(*REG)
    assert calls == [60]
    calls.clear()
    build_for_graph(*SPARSE)
    # only the projected labeling; the stage labeling is checked on failure
    assert calls == [80]


def test_build_searches_all_pairs_once(monkeypatch):
    # A reduced build classifies on the input graph's matrix: the stage
    # graph's zero-weight quotient is the input graph, component by vertex.
    searches, stages = [], []
    search, index = graph_core._distances, upperbound_builder.build_pair_index

    def counted(g, src=None):
        if src is None:
            searches.append(g.n)
        return search(g, src)

    monkeypatch.setattr(graph_core, "_distances", counted)
    monkeypatch.setattr(
        upperbound_builder, "build_pair_index", lambda dm, D: index(stages.append(dm) or dm, D)
    )
    assert needs_reduction(SPARSE[0]) and not needs_reduction(REG[0])
    for g, cfg in (REG, SPARSE):
        searches.clear()
        stages.clear()
        res = build_for_graph(g, cfg)
        assert searches == [g.n]
        (stage,) = stages
        assert np.shares_memory(stage.q, res.dm.q)
        if res.report.reduced is not None:
            assert stage.n == res.report.reduced["n"] > g.n
            assert stage.labels.tolist() == reduce_degree(g)[2].tolist()


def test_plain_build_searches_its_hits_once(monkeypatch):
    # The verifier's core is S on these builds, so it reads the hits of the
    # cover stage's last attempt from the matrix instead of searching again.
    searches = []
    for name in ("_bfs_hits", "_tight_hits"):
        real = getattr(graph_core, name)
        monkeypatch.setattr(graph_core, name, lambda *a, _real=real: searches.append(1) or _real(*a))
    # bit-parallel hits on the 3-regular graph; the path is long enough for _tight_hits
    for g, cfg in (REG, (path_graph(700), BuilderConfig(seed=1))):
        searches.clear()
        res = build_for_graph(g, cfg)
        attempts = res.report.cover_resamples
        assert len(searches) == attempts >= 1
        mask = np.zeros(g.n, dtype=bool)
        mask[res.artifacts.S] = True
        hit_rows(res.dm, mask, slice(None))
        assert len(searches) == attempts
        mask[np.flatnonzero(~mask)[0]] = True
        assert (hit_rows(res.dm, mask, slice(None)) == oracle_hits(res.dm, mask)).all()
        assert len(searches) == attempts + 1
    # A reduced build covers on the stage matrix, so its verify searches dm.
    searches.clear()
    res = build_for_graph(*SPARSE)
    assert res.report.reduced is not None
    assert len(searches) == res.report.cover_resamples + 1
    assert res.report.cover == dense_verify_cover(res.labeling, res.dm)


def test_build_rejects_corrupted_assembly(monkeypatch):
    x = _vertex_outside_cover_set(*REG)
    real = upperbound_builder._assemble
    monkeypatch.setattr(
        upperbound_builder, "_assemble", lambda *args: _only_self_hub(real(*args), x)
    )
    with pytest.raises(CoverVerificationError, match="assembled labeling fails"):
        build_for_graph(*REG)


def test_build_rejects_corrupted_projection(monkeypatch):
    x = _vertex_outside_cover_set(*SPARSE)
    stage_n = build_for_graph(*SPARSE).report.reduced["n"]
    real = upperbound_builder._assemble

    def projection_only(S, extra, dm):
        # the projected rows are assembled on the input graph's 80 vertices
        hl = real(S, extra, dm)
        return _only_self_hub(hl, x) if dm.n == 80 else hl

    monkeypatch.setattr(upperbound_builder, "_assemble", projection_only)
    calls = _counted_verify(monkeypatch)
    with pytest.raises(CoverVerificationError, match="projected labeling fails"):
        build_for_graph(*SPARSE)
    # the stage labeling is verified only after the projected one failed
    assert calls == [80, stage_n]


def test_reduced_build_rejects_corrupted_assembly(monkeypatch):
    # x's Q, R and F rows dropped: the stage labeling and its projection both fail
    g, cfg = SPARSE
    x = reduce_degree(g)[1][_vertex_outside_cover_set(g, cfg)]
    stage_n = build_for_graph(g, cfg).report.reduced["n"]

    def without_x(name, at):
        stage = getattr(upperbound_builder, name)

        def run(*args, **kwargs):
            out = list(stage(*args, **kwargs))
            out[at] = out[at][out[at][:, 0] != x]
            return tuple(out)

        monkeypatch.setattr(upperbound_builder, name, run)

    without_x("_sample_cover", 1)
    without_x("_sample_colors", 1)
    without_x("build_matchings", 0)
    calls = _counted_verify(monkeypatch)
    with pytest.raises(CoverVerificationError, match="assembled labeling fails"):
        build_for_graph(g, cfg)
    assert calls == [80, stage_n]


def test_build_rejects_ledger_overrun(monkeypatch):
    # every reachable vertex as a hub is a valid cover, but far above the ledger
    monkeypatch.setattr(upperbound_builder, "_assemble", lambda *args: baseline_full(args[-1]))
    with pytest.raises(CoverVerificationError, match="size ledger bound violated"):
        build_for_graph(*REG)


def test_stages_do_not_verify(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a stage ran the cover verifier")

    g = SPARSE[0]
    dm = all_pairs(g)
    g2, rep, orig = reduce_degree(g)
    res = build_for_graph(g2, BuilderConfig(seed=3))
    monkeypatch.setattr(upperbound_builder, "verify_cover", forbidden)
    a = res.artifacts
    assert assemble(a.S, a.Q, a.R, a.F, g2, res.dm) == res.labeling
    project_back(res.labeling, rep, orig, dm)


def test_producers_construct_once_without_a_sort(monkeypatch, tmp_path):
    # Every producer in src makes each labeling it returns with one
    # HubLabeling call on rows that need no sort; only unsorted text reaches
    # _sorted_rows.
    g, cfg = SPARSE
    g2, rep, orig = reduce_degree(g)
    stage = build_for_graph(g2, cfg).labeling
    text = format_labels(stage)
    init, sort = HubLabeling.__init__, hub_labeling._sorted_rows
    built, sorts = [], []

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(HubLabeling, "__init__", counted)
    monkeypatch.setattr(hub_labeling, "_sorted_rows", lambda *a: sorts.append(a) or sort(*a))

    def built_once(hl):
        assert len(built) == 1 and built.pop() is hl
        return hl

    plain = build_for_graph(*REG)
    built_once(plain.labeling)
    reduced = build_for_graph(*SPARSE)
    built_once(reduced.labeling)
    assert reduced.report.reduced is not None
    assert verify_cover(built_once(monotone_closure(plain.labeling, plain.dm)), plain.dm).valid
    dm = all_pairs(g)
    assert built_once(project_back(stage, rep, orig, dm)).total_size > 0
    path = tmp_path / "labels.txt"
    path.write_text(text, encoding="ascii")
    assert built_once(read_labels(path)) == stage
    parsed, line_parser = [], hub_labeling._read_lines
    monkeypatch.setattr(hub_labeling, "_read_lines", lambda p: parsed.append(p) or line_parser(p))
    path.write_text(text.replace(": (", ":  (").replace(") (", ")   ("), encoding="ascii")
    assert built_once(read_labels(path)) == stage and parsed == [path]  # sorted rows, not canonical text
    assert sorts == []
    path.write_text("0: (1,2) (0,1)\n1: (1,0)\n", encoding="ascii")
    assert built_once(read_labels(path)).entries(0) == ((0, 1), (1, 2)) and len(sorts) == 1
    path.write_text("0: (1,2) (0,1) (1,3)\n1: (1,0)\n", encoding="ascii")
    with pytest.raises(ValueError, match="^vertex 0: conflicting distances for hub 1$"):
        read_labels(path)
    assert len(sorts) == 2 and built == []


# -- reduced builds assemble only the returned rows ----------------------------


def _check_against_oracle(g, cfg):
    """The build's labeling equals the per-row set oracle's, and its ledger
    counts the stage labeling that assemble builds on the stage graph."""
    res = build_for_graph(g, cfg)
    want, stage_total = oracle_build_labeling(g, res.artifacts, res.dm)
    assert res.labeling == want
    stage_graph = reduce_degree(g)[0] if res.report.reduced else g
    a = res.artifacts
    stage_hl = assemble(a.S, a.Q, a.R, a.F, stage_graph, all_pairs(stage_graph))
    assert res.report.ledger.total_size == stage_hl.total_size == stage_total


@st.composite
def reducible_graphs(draw):
    """Unit-weight graphs on 6 to 12 vertices that need degree reduction:
    vertex 0 joins every other vertex, and at most n - 1 more edges keep
    ceil(m / n) at 2, below the degree n - 1 >= 5 of vertex 0."""
    n = draw(st.integers(min_value=6, max_value=12))
    pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    more = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n - 1))
    return WeightedGraph(n, [(0, v, 1) for v in range(1, n)] + [(u, v, 1) for u, v in more])


@given(reducible_graphs(), st.sampled_from([None, 1, 2, 3]), st.integers(0, 3))
def test_reduced_build_matches_set_oracle(g, D, seed):
    assert needs_reduction(g)
    _check_against_oracle(g, BuilderConfig(D=D, seed=seed))


def _two_er_components_and_isolated_vertices() -> WeightedGraph:
    a, b = erdos_renyi_m(12, 24, seed=1), erdos_renyi_m(10, 14, seed=11)
    edges = [(u, v, 1) for u, v, _ in a.edges] + [(u + 12, v + 12, 1) for u, v, _ in b.edges]
    return WeightedGraph(25, edges)


def test_build_matches_set_oracle_on_fixed_graphs():
    parts = _two_er_components_and_isolated_vertices()
    assert (parts.degrees == 0).any() and (all_pairs(parts).matrix() < 0).any()
    complete = WeightedGraph(8, [(u, v, 1) for u in range(8) for v in range(u + 1, 8)])
    assert (np.bincount(reduce_degree(complete)[2]) > 1).all()  # every vertex splits
    cases = [
        (star_graph(9), None),
        (parts, None),
        (complete, None),
        (SPARSE[0], 1),
        (SPARSE[0], 2),
        (REG[0], None),  # no reduction: the labeling is the stage labeling
    ]
    for g, D in cases:
        _check_against_oracle(g, BuilderConfig(D=D, seed=3))


def test_valid_reduced_build_constructs_no_stage_labeling(monkeypatch):
    g, cfg = SPARSE
    stage_n = reduce_degree(g)[0].n
    sizes = []
    init = HubLabeling.__init__

    def counted(self, row_sizes, *args):
        sizes.append(len(row_sizes))
        init(self, row_sizes, *args)

    monkeypatch.setattr(HubLabeling, "__init__", counted)
    res = build_for_graph(g, cfg)
    assert res.report.cover.valid and g.n in sizes
    assert stage_n not in sizes


def _min_plus_cover(dm, cfg, index):
    """Reference for _sample_cover: the same draws, with each big pair of the
    oracle pair index tested by a min-plus scan over S."""
    n, D = dm.n, index.D
    big = oracle_pair_index(dm, D)[3]
    mat = dm.matrix()
    inf = np.where(mat < 0, 1 << 40, mat)
    s_size = math.ceil((n / D) * math.log(D))
    for attempt in range(upperbound_builder._MAX_RESAMPLES):
        s_arr = np.sort(_rng(cfg.seed, 1, attempt).choice(n, size=s_size, replace=False))
        q = {}
        for u in range(n):
            idx = np.flatnonzero(big[u])
            hits = (inf[u, s_arr][:, None] + inf[s_arr][:, idx] == inf[u, idx][None, :]).any(axis=0)
            if not hits.all():
                q[u] = set(idx[~hits].tolist())
        if sum(len(vs) for vs in q.values()) * D <= 2 * n * n:
            break
    for u, v in index.forced.tolist():
        q.setdefault(u, set()).add(v)
    return frozenset(s_arr.tolist()), {u: frozenset(vs) for u, vs in q.items()}, attempt + 1


def test_cover_stage_matches_min_plus_reference():
    cases = [
        random_regular_graph(150, 3, seed=7),
        reduce_degree(erdos_renyi_m(90, 220, seed=2))[0],
        build_H(FamilyParams(1, 1)).graph,
    ]
    for g in cases:
        dm = all_pairs(g)
        for D in (2, 3, 5):
            index = build_pair_index(dm, D)
            cfg = BuilderConfig(D=D, seed=D)
            S, Q, attempts = _sample_cover(dm, cfg, index)
            assert S.tolist() == sorted(S.tolist())
            assert Q.tolist() == sorted(Q.tolist())
            got = (frozenset(S.tolist()), _sets(Q), attempts)
            assert got == _min_plus_cover(dm, cfg, index)
            assert len(Q), "every case leaves some big pair to Q"


BLOCK_SIZE_CASES = {
    "3reg-60": (random_regular_graph(60, 3, seed=1), 2),
    "er-80-reduced": (reduce_degree(erdos_renyi_m(80, 160, seed=2))[0], 3),
    "H21": (build_H(FamilyParams(2, 1)).graph, 3),
}


@pytest.mark.parametrize("g, D", BLOCK_SIZE_CASES.values(), ids=BLOCK_SIZE_CASES)
def test_row_block_stages_do_not_depend_on_the_block_size(monkeypatch, g, D):
    # The cover stage and the D = 1 coloring read distance rows one block of
    # dm.blocks() at a time, and the stage total one block of q rows: one
    # row, 7 rows, all rows.
    dm = all_pairs(g)
    index, one = build_pair_index(dm, D), build_pair_index(dm, 1)
    cfg = BuilderConfig(D=D, seed=3)

    def outputs():
        S, Q, attempts = _sample_cover(dm, cfg, index)
        R = _sample_colors(dm, cfg, one)[1]
        total = None if dm.labels is None else _stage_total(S, Q, dm)
        return S.tolist(), Q.tolist(), attempts, R.tolist(), total

    want = outputs()
    assert want[1] and want[3]
    if g is BLOCK_SIZE_CASES["H21"][0]:
        assert len(index.forced)
    for rows in (1, 7, g.n + 1):
        monkeypatch.setattr(graph_core, "_ROWS", rows)
        monkeypatch.setattr(upperbound_builder, "_SCAN", rows * len(dm.q))
        assert outputs() == want, rows


@pytest.mark.parametrize(
    "g",
    [random_regular_graph(2000, 3, seed=1), reduce_degree(erdos_renyi_m(1000, 2000, seed=1))[0]],
    ids=["3reg-2000", "er-1000-reduced"],
)
def test_pair_index_and_cover_hold_no_pair_matrix(g):
    # Past the distance matrix, neither stage holds an n x n array of pairs:
    # each peaks below 1.5 n^2 traced bytes (an n x n bool is n^2).
    import tracemalloc

    dm = all_pairs(g)
    D = resolve_threshold(g.n, None)
    tracemalloc.start()
    try:
        index = build_pair_index(dm, D)
        pair_index_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _sample_cover(dm, BuilderConfig(seed=1), index)
        cover_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair_index_peak < 1.5 * g.n**2 and cover_peak < 1.5 * g.n**2, (pair_index_peak, cover_peak)
