import math

import numpy as np
import pytest
from conftest import hub_candidates, oracle_pair_index, seeded_sparse_graph, small_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab.corpus import erdos_renyi_m, grid_graph, path_graph, random_regular_graph, star_graph
from hublab.family_gen import FamilyParams, build_H, expand_to_G
from hublab.graph_core import WeightedGraph, all_pairs
from hublab import upperbound_builder
from hublab.hub_labeling import HubLabeling, baseline_full, format_labels, query, verify_cover
from hublab.upperbound_builder import (
    BuilderConfig,
    CoverVerificationError,
    InducedMatchingViolation,
    ResampleExhausted,
    _check_induced,
    _resample,
    _rng,
    _sample_cover,
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


def test_config_validation():
    with pytest.raises(ValueError):
        BuilderConfig(D=0)
    with pytest.raises(ValueError):
        BuilderConfig(max_resamples=0)
    assert resolve_threshold(2000, None) == 3
    assert resolve_threshold(10, 7) == 7


def test_pair_index_path_candidate_sizes():
    # on the 5-path the candidate set of (0, j) has j + 1 vertices
    dm = all_pairs(PATH5)
    for v in range(1, 5):
        assert len(hub_candidates(dm, 0, v)) == v + 1
    index = build_pair_index(dm, 3)
    assert index.small[(0, 1)] == (0, 1)
    assert index.small[(0, 2)] == (0, 1, 2)
    assert (0, 3) not in index.small  # 4 candidates > D
    assert not index.forced


def assert_same_index(got, want):
    assert got.small == want.small
    assert got.small_dist == want.small_dist
    assert got.forced == want.forced
    assert got.big.shape == want.big.shape
    assert (got.big == want.big).all()


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
            assert not index.forced
            assert_same_index(index, oracle_pair_index(dm, D, zero_one=True))
            assert_same_index(index, oracle_pair_index(dm, D))


PAIR_INDEX_EDGE_CASES = [
    WeightedGraph(0, []),
    WeightedGraph(1, []),
    WeightedGraph(5, [(0, 1, 0), (1, 2, 0), (3, 4, 7)]),
    WeightedGraph(6, [(0, 1, 1000), (1, 2, 1), (0, 2, 1000), (3, 4, 0), (4, 5, 2)]),
]


@pytest.mark.parametrize("g", PAIR_INDEX_EDGE_CASES, ids=lambda g: f"n{g.n}-m{g.m}")
@pytest.mark.parametrize("D", [1, 2, 3, 5])
def test_pair_index_edge_cases_match_oracle(g, D):
    dm = all_pairs(g)
    assert_same_index(build_pair_index(dm, D), oracle_pair_index(dm, D))


@settings(max_examples=200)
@given(
    st.one_of(small_graphs(min_weight=0), small_graphs(min_weight=0, max_weight=1000)),
    st.sampled_from([1, 2, 3, 5]),
)
def test_pair_index_matches_oracle(g, D):
    dm = all_pairs(g)
    index = build_pair_index(dm, D)
    assert_same_index(index, oracle_pair_index(dm, D))
    if g.weight_kind != "general":
        assert_same_index(index, oracle_pair_index(dm, D, zero_one=True))


def test_cover_set_degenerate_threshold():
    dm = all_pairs(PATH5)
    S, Q = sample_cover_set(dm, BuilderConfig(D=1, seed=0))
    assert S == frozenset() and Q == {}


def test_cover_set_path_end_pair_always_covered():
    # |S| = 2 out of 5 vertices; the end pair's candidate set is the whole
    # path so any sample hits it, while pairs with exactly D candidates may
    # land in Q depending on the draw
    dm = all_pairs(PATH5)
    for seed in range(5):
        S, Q = sample_cover_set(dm, BuilderConfig(D=3, seed=seed))
        assert len(S) == 2
        assert 4 not in Q.get(0, frozenset())
        for u, vs in Q.items():
            for v in vs:
                assert len(hub_candidates(dm, u, v)) >= 3
                assert not (S & hub_candidates(dm, u, v))


def test_cover_and_coloring_bounds_three_regular():
    g = random_regular_graph(200, 3, seed=42)
    dm = all_pairs(g)
    cfg = BuilderConfig(D=5, seed=7)
    index = build_pair_index(dm, 5)
    S, Q = sample_cover_set(dm, cfg, index=index)
    assert sum(len(v) for v in Q.values()) * 5 <= 2 * 200 * 200
    colors, R = sample_coloring(dm, cfg, index=index)
    assert sum(len(v) for v in R.values()) * 5 <= 2 * 200 * 200
    assert len(colors) == 200 and all(1 <= c <= 125 for c in colors)


def test_resampling_counts_attempts_and_runs_out():
    cfg = BuilderConfig(seed=0, max_resamples=3)
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
    colors, R = sample_coloring(dm, BuilderConfig(D=2, seed=1))
    conflict = colors[0] == colors[1]
    assert (1 in R.get(0, frozenset())) == conflict


def test_coloring_injective_means_empty_r():
    g = path_graph(4)
    dm = all_pairs(g)
    for seed in range(20):
        colors, R = sample_coloring(dm, BuilderConfig(D=4, seed=seed))
        if len(set(colors)) == len(colors):
            assert R == {}
            break
    else:
        pytest.skip("no injective sample drawn")


def test_matchings_single_edge_trace():
    g = WeightedGraph(2, [(0, 1, 1)])
    dm = all_pairs(g)
    cfg = BuilderConfig(D=2, seed=3)
    colors, _ = sample_coloring(dm, cfg)
    F, log = build_matchings(dm, colors, cfg)
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
    colors, _ = sample_coloring(dm, cfg)
    F, log = build_matchings(dm, colors, cfg)
    assert all(F[v] == frozenset({v}) for v in range(inst.graph.n))
    assert log == {}


def test_forced_pairs_on_weighted_level_graph():
    # adjacent level-graph pairs have a 2-vertex candidate set at distance
    # around A, far beyond D = 3, so they must flow into Q
    inst = build_H(FamilyParams(1, 1))
    dm = all_pairs(inst.graph)
    index = build_pair_index(dm, 3)
    assert index.forced
    S, Q = sample_cover_set(dm, BuilderConfig(D=3, seed=1), index=index)
    for (u, v) in index.forced:
        assert v in Q[u]
    res = build_for_graph(inst.graph, BuilderConfig(D=3, seed=1))
    assert res.report.cover.valid
    assert res.report.q_forced == len(index.forced)


def test_assemble_single_vertex():
    g = WeightedGraph(1, [])
    dm = all_pairs(g)
    hl = assemble(frozenset(), {}, {}, {0: frozenset({0})}, g, dm)
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
    _check_induced(ok_groups)
    bad_groups = {(1, 1, 2): [(5, [(1, 10), (2, 11)]), (6, [(1, 12), (7, 10)])]}
    with pytest.raises(InducedMatchingViolation):
        _check_induced({(1, 1, 2): bad_groups[(1, 1, 2)] + [(8, [(2, 12)])]})


def test_reduce_degree_requires_unit_weights():
    with pytest.raises(ValueError):
        reduce_degree(WeightedGraph(2, [(0, 1, 2)]))


def test_reduce_degree_three_regular_unchanged():
    g = random_regular_graph(20, 3, seed=1)
    g2, rep, orig = reduce_degree(g)
    assert g2.n == g.n and g2.edges == g.edges
    assert rep == {v: v for v in range(20)}


def test_reduce_degree_star():
    g = star_graph(6)
    assert not needs_reduction(star_graph(2)) and needs_reduction(g)
    g2, rep, orig = reduce_degree(g)
    center_clones = [c for c, v in orig.items() if v == 0]
    assert len(center_clones) == 6
    assert g2.max_degree <= 3
    assert g2.weight_kind == "01"
    dm, dm2 = all_pairs(g), all_pairs(g2)
    for u in range(g.n):
        for v in range(g.n):
            assert dm2.d(rep[u], rep[v]) == dm.d(u, v)
    assert g2.n <= 2 * (g.n + g.m)


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
        (u, v) for u in range(g2.n) for v in range(u + 1, g2.n) if dm.d(u, v) == 0
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
    return HubLabeling(hl.n, hubs)


def _vertex_outside_cover_set(g, cfg) -> int:
    """Lowest vertex of g that is not (a clone of) a cover-set vertex, so that
    few other labels hold it."""
    res = build_for_graph(g, cfg)
    origin = reduce_degree(g)[2] if res.report.reduced else {v: v for v in range(g.n)}
    return min(set(range(g.n)) - {origin[s] for s in res.artifacts.S})


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


def test_build_rejects_corrupted_assembly(monkeypatch):
    x = _vertex_outside_cover_set(*REG)
    real = upperbound_builder.assemble
    monkeypatch.setattr(
        upperbound_builder, "assemble", lambda *args: _only_self_hub(real(*args), x)
    )
    with pytest.raises(CoverVerificationError, match="assembled labeling fails"):
        build_for_graph(*REG)


def test_build_rejects_corrupted_projection(monkeypatch):
    x = _vertex_outside_cover_set(*SPARSE)
    stage_n = build_for_graph(*SPARSE).report.reduced["n"]
    real = upperbound_builder.project_back
    monkeypatch.setattr(
        upperbound_builder, "project_back", lambda *args: _only_self_hub(real(*args), x)
    )
    calls = _counted_verify(monkeypatch)
    with pytest.raises(CoverVerificationError, match="projected labeling fails"):
        build_for_graph(*SPARSE)
    # the stage labeling is verified only after the projected one failed
    assert calls == [80, stage_n]


def test_reduced_build_rejects_corrupted_assembly(monkeypatch):
    g, cfg = SPARSE
    x = reduce_degree(g)[1][_vertex_outside_cover_set(g, cfg)]
    stage_n = build_for_graph(g, cfg).report.reduced["n"]
    real = upperbound_builder.assemble
    monkeypatch.setattr(
        upperbound_builder, "assemble", lambda *args: _only_self_hub(real(*args), x)
    )
    calls = _counted_verify(monkeypatch)
    with pytest.raises(CoverVerificationError, match="assembled labeling fails"):
        build_for_graph(g, cfg)
    assert calls == [80, stage_n]


def test_build_rejects_ledger_overrun(monkeypatch):
    # every reachable vertex as a hub is a valid cover, but far above the ledger
    monkeypatch.setattr(upperbound_builder, "assemble", lambda *args: baseline_full(args[-1]))
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


def _min_plus_cover(dm, cfg, index):
    """Reference for _sample_cover: the same draws, with each big pair tested
    by a min-plus scan over S."""
    n, D = dm.n, index.D
    mat = dm.matrix()
    inf = np.where(mat < 0, 1 << 40, mat)
    s_size = math.ceil((n / D) * math.log(D))
    for attempt in range(cfg.max_resamples):
        s_arr = np.sort(_rng(cfg.seed, 1, attempt).choice(n, size=s_size, replace=False))
        q = {}
        for u in range(n):
            idx = np.flatnonzero(index.big[u])
            hits = (inf[u, s_arr][:, None] + inf[s_arr][:, idx] == inf[u, idx][None, :]).any(axis=0)
            if not hits.all():
                q[u] = set(idx[~hits].tolist())
        if sum(len(vs) for vs in q.values()) * D <= 2 * n * n:
            break
    for u, v in index.forced:
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
            got = _sample_cover(dm, cfg, index)
            assert got == _min_plus_cover(dm, cfg, index)
            assert got[1], "every case leaves some big pair to Q"
