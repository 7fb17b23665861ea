import itertools
import math

import numpy as np
import pytest
from conftest import (
    hub_candidates,
    is_unique_shortest_path,
    oracle_adjacency,
    oracle_count_shortest,
    oracle_distances,
    oracle_hits,
    oracle_shortest_paths_from,
    path_weight,
    seeded_sparse_graph,
    small_graphs,
    verify_metric,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab import graph_core
from hublab.corpus import erdos_renyi_m, grid_graph, path_graph, random_regular_graph, star_graph
from hublab.family_gen import FamilyParams, build_H
from hublab.graph_core import (
    UNREACHABLE,
    WEIGHT_LIMIT,
    CutSearch,
    DenseDistanceMatrix,
    GraphFormatError,
    ResourceLimitError,
    UnreachablePairError,
    WeightedGraph,
    ZeroWeightError,
    all_pairs,
    canonical_trees,
    count_shortest_paths,
    distance_between,
    distances_from,
    hit_rows,
    read_graph,
    write_graph,
)
from hublab.upperbound_builder import reduce_degree

PATH3 = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
CYCLE4 = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 0, 1)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 1, -1)])
    with pytest.raises(ValueError):
        WeightedGraph(2, [(0, 3, 1)])


def test_edge_lists_arrays_and_generators_build_one_graph():
    edges = [(2, 1, 5), (1, 0, 2)]
    for given in ([], edges):
        graphs = [
            WeightedGraph(5, given),
            WeightedGraph(5, np.array(given, dtype=int).reshape(-1, 3)),
            WeightedGraph(5, (e for e in given)),
        ]
        for g in graphs:
            assert g.weight_kind == ("unit" if not given else "general")
            assert g.degrees.tolist() == graphs[0].degrees.tolist()
            assert not g.degrees.flags.writeable
            for a, b in zip(g.edge_arrays(), graphs[0].edge_arrays()):
                assert a.dtype == np.int64 and not a.flags.writeable
                assert a.tolist() == b.tolist()
    assert graphs[0].degrees.tolist() == [1, 2, 1, 0, 0]
    for bad, message in [
        ([(0, 5, 1)], "edge endpoint out of range"),
        ([(-1, 0, 1)], "edge endpoint out of range"),
        ([(1, 1, 1)], "self loops are not allowed"),
        ([(0, 1, -1)], "edge weights must be nonnegative"),
        ([(0, 1, 1), (1, 0, 1)], "duplicate edge for an unordered pair"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightedGraph(5, np.array(bad))


@settings(max_examples=150, deadline=None)
@given(small_graphs(max_n=10, min_weight=0, max_weight=3), st.randoms(use_true_random=False))
def test_sorted_shuffled_and_reversed_edges_build_one_graph(g, rnd):
    """Sorted input skips the sort; every other order of the same edge set
    must still give the same graph, and the same canonical search CSR."""
    from scipy.sparse import csr_matrix

    from hublab.graph_core import _search_matrix

    sorted_edges = list(zip(*(a.tolist() for a in g.edge_arrays())))
    shuffled = rnd.sample(sorted_edges, len(sorted_edges))
    copies = [
        sorted_edges,
        shuffled,
        [(v, u, w) for u, v, w in sorted_edges],
        [(v, u, w) if rnd.random() < 0.5 else (u, v, w) for u, v, w in shuffled],
    ]
    graphs = [WeightedGraph(g.n, c) for c in copies]
    graphs += [WeightedGraph(g.n, np.array(c, dtype=np.int64).reshape(-1, 3)) for c in copies]
    ref_labels, ref = _search_matrix(g)
    # The quotient edges with their least weight, in both directions, through
    # scipy's COO -> CSR conversion, summed and sorted: what the search CSR
    # must equal array by array, dtypes included, so csgraph wraps it uncopied.
    lab = np.arange(g.n) if ref_labels is None else ref_labels
    least = {}
    for a, b, x in g.edges:
        if lab[a] != lab[b]:
            key = (int(lab[a]), int(lab[b]))
            least[key] = min(x, least.get(key, x), least.get(key[::-1], x))
            least[key[::-1]] = least[key]
    keys = sorted(least)
    old = csr_matrix(
        ([float(least[e]) for e in keys], ([a for a, _ in keys], [b for _, b in keys])),
        shape=(ref.k, ref.k),
    )
    old.sum_duplicates()
    assert old.has_canonical_format
    for a, b in ((ref.indptr, old.indptr), (ref.indices, old.indices), (ref.data, old.data)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    for h in graphs:
        for a, b in zip(h.edge_arrays(), g.edge_arrays()):
            assert a.dtype == np.int64 and a.flags.c_contiguous and a.tolist() == b.tolist()
        assert h.degrees.tolist() == g.degrees.tolist() and h.weight_kind == g.weight_kind
        for a, b in zip(h.in_edges(), g.in_edges()):
            assert a.tolist() == b.tolist()
        labels, mat = _search_matrix(h)
        assert (labels is None) == (ref_labels is None)
        if labels is not None:
            assert labels.tolist() == ref_labels.tolist()
        for a, b in ((mat.indptr, ref.indptr), (mat.indices, ref.indices), (mat.data, ref.data)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_sorted_input_is_still_checked():
    """Edges in increasing key order skip the sort but not the checks."""
    for bad, message in [
        ([(0, 1, 1), (0, 1, 2)], "duplicate edge for an unordered pair"),
        ([(0, 1, 1), (1, 5, 1)], "edge endpoint out of range"),
        ([(-1, 0, 1), (0, 1, 1)], "edge endpoint out of range"),
        ([(0, 1, 1), (2, 2, 1)], "self loops are not allowed"),
        ([(0, 1, 1), (1, 2, -1)], "edge weights must be nonnegative"),
    ]:
        for edges in (bad, np.array(bad)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                WeightedGraph(5, edges)


def test_graph_canonical_edges():
    g1 = WeightedGraph(3, [(2, 1, 5), (1, 0, 2)])
    g2 = WeightedGraph(3, [(0, 1, 2), (1, 2, 5)])
    assert g1.edges == g2.edges == ((0, 1, 2), (1, 2, 5))
    assert g1.degrees[1] == 2 and g1.max_degree == 2


def test_weight_kinds():
    assert WeightedGraph(2, [(0, 1, 1)]).weight_kind == "unit"
    assert WeightedGraph(2, [(0, 1, 0)]).weight_kind == "01"
    assert WeightedGraph(2, [(0, 1, 3)]).weight_kind == "general"
    assert WeightedGraph(3, [(0, 1, 0), (1, 2, 5)]).has_zero_weights


def path_from_root(parents: np.ndarray, root: int, v: int) -> list[int]:
    """The vertices from root to v along one row of a parents matrix; fails
    on a parent cycle."""
    out = [v]
    while v != root:
        assert len(out) <= len(parents), "parent cycle"
        v = int(parents[v])
        out.append(v)
    return out[::-1]


def test_single_vertex_tree():
    parents = canonical_trees(all_pairs(WeightedGraph(1, [])), 0, 1)
    assert parents.dtype == np.int32 and parents.tolist() == [[0]]
    assert canonical_trees(all_pairs(WeightedGraph(0, [])), 0, 0).shape == (0, 0)


def test_path_tree():
    dm = all_pairs(PATH3)
    parents = canonical_trees(dm, 0, 3)
    assert parents.tolist() == [[0, 0, 1], [1, 1, 1], [1, 2, 2]]
    assert int(dm.matrix()[0, 2]) == 2
    assert path_from_root(parents[0], 0, 2) == [0, 1, 2]


def test_parent_lowest_id_tie_break():
    # 9 is reachable at distance 3 through both 8 and 3; breadth-first
    # discovery order would pick 8, the contract requires 3.
    g = WeightedGraph(
        10, [(0, 1, 1), (0, 2, 1), (1, 8, 1), (2, 3, 1), (8, 9, 1), (3, 9, 1)]
    )
    dm = all_pairs(g)
    assert int(dm.matrix()[0, 9]) == 3
    assert canonical_trees(dm, 0, 1)[0, 9] == 3


def test_zero_weight_parents_attach_to_rooted_vertices():
    # Every vertex is at distance 0 from 0; the lowest-id tight neighbour
    # rule alone would make 1 and 2 each other's parents.
    g = WeightedGraph(4, [(0, 3, 0), (1, 2, 0), (1, 3, 0)])
    parents = canonical_trees(all_pairs(g), 0, 4)
    assert parents[0].tolist() == [0, 3, 1, 0]
    assert parents[3].tolist() == [3, 3, 1, 3]


def test_figure_path_distance_on_level_graph():
    inst = build_H(FamilyParams(2, 2))
    dist = distances_from(inst.graph, inst.id_of(0, (1, 0)))
    assert dist[inst.id_of(4, (3, 2))] == 388  # 4A + 4 with A = 96


def test_all_pairs_empty_and_triangle():
    dm = all_pairs(WeightedGraph(3, []))
    assert dm.matrix()[0, 1] == -1 and int(dm.matrix()[0, 0]) == 0
    dm = all_pairs(WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
    assert all(int(dm.matrix()[u, v]) == 1 for u in range(3) for v in range(3) if u != v)


def test_all_pairs_level_graph_value():
    inst = build_H(FamilyParams(2, 2))
    dm = all_pairs(inst.graph)
    assert dm.matrix()[inst.id_of(0, (1, 0)), inst.id_of(2, (2, 1))] == 194  # 2A + 2


def test_all_pairs_matches_single_source():
    graphs = [
        PATH3,
        CYCLE4,
        WeightedGraph(5, [(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 4, 3)]),
        seeded_sparse_graph(12, 15, seed=5),
        seeded_sparse_graph(12, 15, seed=6, min_w=1),
    ]
    for g in graphs:
        dm = all_pairs(g)
        for src in range(g.n):
            assert dm.matrix()[src].tolist() == distances_from(g, src).tolist()


def test_all_pairs_pair_cap(monkeypatch):
    import hublab.graph_core as graph_core
    from hublab import upperbound_builder

    monkeypatch.setattr(graph_core, "PAIR_CAP", 99)
    with pytest.raises(ResourceLimitError, match="needs 10000 entries, cap is 99"):
        all_pairs(WeightedGraph(100, []))
    # A reduced build never searches its stage graph, but still refuses one
    # whose n x n rows pass the cap, before any stage reads them.
    g = star_graph(9)
    g2 = reduce_degree(g)[0]
    monkeypatch.setattr(graph_core, "PAIR_CAP", g.n * g.n)
    with pytest.raises(ResourceLimitError) as want:
        all_pairs(g2)
    monkeypatch.setattr(upperbound_builder, "build_pair_index", _refuse)
    with pytest.raises(ResourceLimitError) as got:
        upperbound_builder.build_for_graph(g)
    assert g.n * g.n < g2.n * g2.n and str(got.value) == str(want.value)
    # all_pairs refuses before it searches
    monkeypatch.setattr(graph_core, "_distances", _refuse)
    with pytest.raises(ResourceLimitError, match="needs 10000 entries"):
        all_pairs(WeightedGraph(100, []))


def test_metric_invariants_on_generated_instances():
    for b, ell in [(1, 1), (2, 1), (1, 2)]:
        dm = all_pairs(build_H(FamilyParams(b, ell)).graph)
        assert verify_metric(dm)


@given(small_graphs())
def test_search_matches_enumeration_oracle(g):
    expected = oracle_distances(g)
    for src in range(g.n):
        assert distances_from(g, src).tolist() == expected[src]


def test_search_matches_oracle_at_twelve_vertices():
    for seed in (1, 2, 3):
        g = seeded_sparse_graph(12, 15, seed=seed)
        expected = oracle_distances(g)
        for src in range(g.n):
            assert distances_from(g, src).tolist() == expected[src]


@given(small_graphs())
def test_distance_matrix_symmetry_and_triangle(g):
    assert verify_metric(all_pairs(g))


@given(small_graphs())
def test_tree_parent_edges_are_tight(g):
    dm = all_pairs(g)
    parents = canonical_trees(dm, 0, g.n)
    weight = {(u, v): w for u, v, w in g.edges}
    weight.update({(v, u): w for (u, v), w in weight.items()})
    for root in range(g.n):
        dist = dm.matrix()[root]
        assert parents[root, root] == root
        for v in range(g.n):
            if v == root:
                continue
            p = int(parents[root, v])
            if dist[v] < 0:
                assert p == -1
                continue
            assert dist[p] + weight[(p, v)] == dist[v]
            # the walk up from v reaches the root: no parent cycles
            assert path_from_root(parents[root], root, v)[0] == root


@settings(max_examples=200)
@given(small_graphs(max_n=10))
def test_canonical_trees_match_per_root_oracle(g):
    parents = canonical_trees(all_pairs(g), 0, g.n)
    assert parents.shape == (g.n, g.n) and parents.dtype == np.int32
    for root in range(g.n):
        assert parents[root].tolist() == oracle_shortest_paths_from(g, root)[0]


@settings(max_examples=200)
@given(
    st.one_of(
        st.just(WeightedGraph(0, [])),
        small_graphs(max_n=10),
        small_graphs(max_n=10, min_weight=50, max_weight=130),  # d + w past int8
    ),
    st.data(),
)
def test_canonical_trees_in_blocks_match_one_call_and_oracle(g, data):
    # Weights start at 0, so the passes of zero-weight trees run in blocks too.
    dm = all_pairs(g)
    cuts = sorted(data.draw(st.lists(st.integers(0, g.n), max_size=4)))
    bounds = [0, *cuts, g.n]  # a repeated bound makes an empty block
    blocks = [canonical_trees(dm, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    for (lo, hi), parents in zip(zip(bounds, bounds[1:]), blocks):
        assert parents.shape == (hi - lo, g.n) and parents.dtype == np.int32
    empty = data.draw(st.integers(0, g.n))
    assert canonical_trees(dm, empty, empty).shape == (0, g.n)
    whole = canonical_trees(dm, 0, g.n)
    assert np.array_equal(np.concatenate(blocks), whole)
    for root in range(g.n):
        assert whole[root].tolist() == oracle_shortest_paths_from(g, root)[0]


# (graph, root, parents) of zero-weight trees that hang on the pass p in
# which each vertex joins.
PASS_EDGE_CASES = [
    # The root's zero edge to a lower id counts c = 0: 1 joins in pass 1 and is 0's parent.
    (WeightedGraph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 0)]), 2, [1, 2, 2]),
    # 2 joins in pass 2 and 1 in pass 3.
    (WeightedGraph(4, [(0, 3, 1), (1, 2, 0), (2, 3, 0)]), 0, [0, 2, 3, 0]),
    # Every zero edge leads down in id, so each takes a pass: 9 passes.
    (WeightedGraph(10, [(i, i + 1, 0) for i in range(1, 9)] + [(0, 9, 1)]), 0, [0, 2, 3, 4, 5, 6, 7, 8, 9, 0]),
]


def test_canonical_trees_match_oracle_on_fixed_graphs():
    graphs = [
        WeightedGraph(0, []),
        WeightedGraph(1, []),
        WeightedGraph(9, [(0, 1, 0), (1, 2, 0), (2, 3, 1), (4, 5, 1), (5, 6, 0), (6, 7, 0)]),
        reduce_degree(star_graph(9))[0],
        reduce_degree(erdos_renyi_m(40, 90, seed=3))[0],
        random_regular_graph(40, 3, seed=2),
        seeded_sparse_graph(30, 45, seed=7, min_w=0, max_w=3),
        seeded_sparse_graph(30, 45, seed=8, min_w=1, max_w=9),
        build_H(FamilyParams(2, 1)).graph,
        WeightedGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 65538)]),  # 65538 wraps to 2 in 8 or 16 bits
        *(g for g, _, _ in PASS_EDGE_CASES),
        reduce_degree(erdos_renyi_m(60, 150, seed=4))[0],  # n = 96: the roots span two 64-bit words
    ]
    for g in graphs:
        parents = canonical_trees(all_pairs(g), 0, g.n)
        for root in range(g.n):
            assert parents[root].tolist() == oracle_shortest_paths_from(g, root)[0], g
    for g, root, row in PASS_EDGE_CASES:
        assert canonical_trees(all_pairs(g), 0, g.n)[root].tolist() == row



def test_hub_candidates_identity_and_path():
    dm = all_pairs(PATH3)
    assert hub_candidates(dm, 0, 0) == {0}
    assert hub_candidates(dm, 0, 2) == {0, 1, 2}


def test_hub_candidates_cycle():
    dm = all_pairs(CYCLE4)
    assert hub_candidates(dm, 0, 2) == {0, 1, 2, 3}


def test_hub_candidates_unreachable():
    dm = all_pairs(WeightedGraph(2, []))
    with pytest.raises(UnreachablePairError):
        hub_candidates(dm, 0, 1)


def test_unique_path_on_path_and_cycle():
    dm = all_pairs(PATH3)
    assert is_unique_shortest_path(dm, PATH3, 0, 2) == (True, [0, 1, 2])
    dm = all_pairs(CYCLE4)
    assert is_unique_shortest_path(dm, CYCLE4, 0, 2) == (False, None)


def test_unique_path_level_instance_midpoint():
    inst = build_H(FamilyParams(2, 2))
    dm = all_pairs(inst.graph)
    unique, path = is_unique_shortest_path(dm, inst.graph, inst.id_of(0, (1, 0)), inst.id_of(4, (3, 2)))
    assert unique
    assert inst.id_of(2, (2, 1)) in path


def test_candidates_equal_path_vertices_on_unique_pairs():
    inst = build_H(FamilyParams(2, 2))
    dm = all_pairs(inst.graph)
    u, v = inst.id_of(0, (1, 0)), inst.id_of(4, (3, 2))
    _, path = is_unique_shortest_path(dm, inst.graph, u, v)
    assert hub_candidates(dm, u, v) == set(path)


@given(small_graphs(min_weight=1))
def test_path_count_matches_enumeration(g):
    dm = all_pairs(g)
    for u in range(g.n):
        for v in range(g.n):
            if dm.matrix()[u, v] == -1:
                continue
            expected = oracle_count_shortest(g, u, v) if u != v else 1
            assert count_shortest_paths(g, u, v) == expected
            unique, path = is_unique_shortest_path(dm, g, u, v)
            assert unique == (expected == 1)
            if unique and u != v:
                assert path[0] == u and path[-1] == v
                assert path_weight(g, path) == int(dm.matrix()[u, v])


def test_path_count_exact_beyond_64_bits():
    # a 40 x 40 grid has comb(78, 39) > 2**64 shortest corner-to-corner paths
    assert count_shortest_paths(grid_graph(40, 40), 0, 1599) == math.comb(78, 39)


def test_path_count_rejects_zero_weights():
    g = WeightedGraph(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(ZeroWeightError):
        count_shortest_paths(g, 0, 2)


def test_distance_between_matches_full_search():
    for g in (PATH3, CYCLE4, seeded_sparse_graph(10, 14, seed=9)):
        dm = all_pairs(g)
        for u in range(g.n):
            for v in range(g.n):
                d = int(dm.matrix()[u, v])
                assert distance_between(g, u, v) == (UNREACHABLE if d < 0 else d)


def test_distance_between_rejects_endpoints_out_of_range():
    for s, t in ((0, -1), (-1, 0), (0, 3), (3, 0), (7, 7), (-1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            distance_between(PATH3, s, t)


@given(small_graphs(min_weight=1, max_weight=1), st.data())
def test_cut_search_matches_the_induced_subgraph(g, data):
    kept = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    # The subgraph on the kept vertices, in g's ids; cut vertices are isolated.
    want = oracle_distances(WeightedGraph(g.n, [e for e in g.edges if kept[e[0]] and kept[e[1]]]))
    search = CutSearch(g, np.array(kept, dtype=bool))
    for s in itertools.compress(range(g.n), kept):
        row = search.distances_from(s)
        assert row.tolist() == want[s] and not row.flags.writeable
        for t in range(g.n):
            assert search.distance(s, t) == (UNREACHABLE if row[t] < 0 else row[t])


def test_cut_search_refuses_other_weights_and_cut_sources():
    for g in (WeightedGraph(3, [(0, 1, 0), (1, 2, 1)]), WeightedGraph(3, [(0, 1, 2), (1, 2, 1)])):
        with pytest.raises(RuntimeError, match="unit-weight"):
            CutSearch(g, np.ones(3, dtype=bool))
    search = CutSearch(PATH3, np.array([True, False, True]))
    assert search.distance(0, 2) is UNREACHABLE
    with pytest.raises(ValueError, match="source 1 is cut"):
        search.distances_from(1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_components_match_scipy_label_for_label(data):
    """_components numbers components by lowest vertex exactly as scipy's
    connected_components does: on n = 0 and 1, isolated vertices, edges
    given in either direction, repeated or as loops, and a zero-weight clone
    chain, a run of vertices in shuffled id order."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    from hublab.graph_core import _components

    n = data.draw(st.integers(min_value=0, max_value=40))
    pairs = []
    if n:
        vertex = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=n))
        chain = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
        pairs += list(zip(chain, chain[1:]))
    u, v = (np.array([p[i] for p in pairs], dtype=np.int64) for i in (0, 1))
    want = connected_components(coo_matrix((np.ones(len(pairs)), (u, v)), shape=(n, n)), directed=False)
    got = _components(n, u, v)
    assert got.tolist() == want[1].tolist() and int(got.max(initial=-1)) + 1 == want[0]


def test_reduced_graph_components_match_scipy():
    """The zero-weight clone chains of a degree-reduced sparse graph, with
    isolated vertices: the search labels are scipy's components of them."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    from hublab.graph_core import _search_matrix
    from hublab.upperbound_builder import reduce_degree

    stage = reduce_degree(erdos_renyi_m(300, 600, seed=2))[0]
    u, v, w = stage.edge_arrays()
    zero = coo_matrix((np.ones(int((w == 0).sum())), (u[w == 0], v[w == 0])), shape=(stage.n, stage.n))
    want = connected_components(zero, directed=False)[1]
    assert stage.n > 300 and (stage.degrees == 0).any()
    assert _search_matrix(stage)[0].tolist() == want.tolist()


@given(small_graphs(max_n=10, min_weight=0, max_weight=1))
def test_search_matrix_of_a_zero_one_graph_stores_no_zero(g):
    # csgraph's BFS takes a stored zero for a hop like any other, so the
    # quotient by the zero-weight components must store none.
    from hublab.graph_core import _search_matrix

    mat = _search_matrix(g)[1]
    assert (mat.data == 1).all()
    # csgraph searches read these very arrays: scipy's matrix is no copy
    for name in ("indptr", "indices", "data"):
        ours = getattr(mat, name)
        assert ours.size == 0 or np.shares_memory(getattr(mat.csgraph, name), ours)


def test_graph_file_round_trip(tmp_path):
    g = seeded_sparse_graph(9, 12, seed=2)
    path = tmp_path / "g.txt"
    write_graph(g, path)
    g2 = read_graph(path)
    assert g2.n == g.n and g2.edges == g.edges


def test_graph_file_comments_and_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n3 1\n0 1 2 # trailing\n")
    g = read_graph(path)
    assert g.edges == ((0, 1, 2),)
    path.write_text("3 2\n0 1 2\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)
    path.write_text("3\n")
    with pytest.raises(GraphFormatError):
        read_graph(path)
    # a field is an optional "-" and ASCII digits, as write_graph emits it
    for edge in ("0 1 1_0", "0 1 \uff12", "0 1 +2", "0 1 2.0", "0 1 -", "0 1 --2", "0 1 \u00b2"):
        path.write_text(f"3 1\n{edge}\n", encoding="utf-8")
        with pytest.raises(GraphFormatError, match="^line 2: non-integer field$"):
            read_graph(path)
    path.write_text("3 1\n0 1 -2\n")
    with pytest.raises(ValueError, match="^edge weights must be nonnegative$"):
        read_graph(path)
    path.write_text("-3 0\n")
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        read_graph(path)
    path.write_text("3 1\n0 1 007\n")
    assert read_graph(path).edges == ((0, 1, 7),)


def _read_both_ways(path, monkeypatch):
    """(what read_graph gives, what the line parser gives, the line parser's
    calls from read_graph); a raised error is given as (type, message)."""

    def outcome(read):
        try:
            g = read(path)
        except Exception as exc:
            return type(exc), str(exc)
        return g.n, g.edges, g.weight_kind

    calls, line_parser = [], graph_core._read_graph_lines
    want = outcome(line_parser)
    monkeypatch.setattr(graph_core, "_read_graph_lines", lambda p: calls.append(p) or line_parser(p))
    return outcome(read_graph), want, calls


@pytest.mark.parametrize(
    "g",
    [
        seeded_sparse_graph(9, 12, seed=2),
        path_graph(30),
        WeightedGraph(4, [(0, 3, 2**62), (1, 2, 0)]),
        WeightedGraph(3, []),
        WeightedGraph(0, []),
    ],
    ids=["sparse", "path", "wide weights", "no edges", "no vertices"],
)
def test_written_graph_file_skips_the_line_parser(tmp_path, monkeypatch, g):
    path = tmp_path / "g.txt"
    write_graph(g, path)
    got, want, calls = _read_both_ways(path, monkeypatch)
    assert got == want == (g.n, g.edges, g.weight_kind) and calls == []


def test_plain_graph_file_gives_the_constructors_errors(tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 5 2\n")
    got, want, calls = _read_both_ways(path, monkeypatch)
    assert got == want == (ValueError, "edge endpoint out of range") and calls == []


GRAPH_TEXTS = {
    "comments": "# a comment\n3 1\n0 1 2 # trailing\n",
    "tabs": "3 1\n0\t1\t2\n",
    "minus sign": "3 1\n0 1 -2\n",
    "CRLF": "3 1\r\n0 1 2\r\n",
    "short line": "3 1\n0 1\n",
    "short header": "3\n",
    "two spaces": "3 1\n0  1 2\n",
    "leading space": "3 1\n 0 1\n",
    "blank line": "3 1\n\n0 1 2\n",
    "no final newline": "3 1\n0 1 2",
    "edge count": "3 2\n0 1 2\n",
    "weight 2**63": f"3 1\n0 1 {2**63}\n",
    "empty file": "",
}


@pytest.mark.parametrize("text", GRAPH_TEXTS.values(), ids=GRAPH_TEXTS.keys())
def test_other_graph_text_reads_through_the_line_parser(tmp_path, monkeypatch, text):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    got, want, calls = _read_both_ways(path, monkeypatch)
    assert got == want and calls == [path]


def test_path_weight_rejects_non_edges():
    with pytest.raises(ValueError):
        path_weight(PATH3, [0, 2])


def test_zero_weight_contraction_all_pairs():
    # chain 0 -0- 1 -1- 2 -0- 3, plus (0,4) weight 2
    g = WeightedGraph(5, [(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 4, 2)])
    dm = all_pairs(g)
    assert int(dm.matrix()[0, 3]) == 1
    assert int(dm.matrix()[3, 4]) == 3
    assert int(dm.matrix()[0, 1]) == 0


# -- differential tests against networkx ------------------------------------------


def _differential_graphs():
    """Seeded graphs with zero weights, disconnected parts, general weights,
    and the degenerate sizes n = 0 and n = 1."""
    graphs = [WeightedGraph(0, []), WeightedGraph(1, [])]
    for seed in range(1, 5):
        graphs.append(seeded_sparse_graph(14, 12, seed=seed))  # zero weights, disconnected
        graphs.append(seeded_sparse_graph(24, 34, seed=seed, max_w=1))  # {0,1} weights
        graphs.append(seeded_sparse_graph(14, 22, seed=seed, min_w=1, max_w=9))
        graphs.append(seeded_sparse_graph(16, 24, seed=seed, min_w=1, max_w=1))
    return graphs


def _nx_distances(g, sources=None):
    """The networkx graph of g and its distance rows from sources (default:
    every vertex), -1 for unreachable."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_weighted_edges_from(g.edges)
    rows = []
    for src in range(g.n) if sources is None else sources:
        found = nx.single_source_dijkstra_path_length(G, src)
        rows.append([found.get(v, -1) for v in range(g.n)])
    return G, rows


def test_distances_match_networkx():
    for g in _differential_graphs():
        _, expected = _nx_distances(g)
        dm = all_pairs(g)
        for src in range(g.n):
            assert distances_from(g, src).tolist() == expected[src]
            assert dm.matrix()[src].tolist() == expected[src]
            for t in range(g.n):
                want = expected[src][t]
                assert distance_between(g, src, t) == (UNREACHABLE if want < 0 else want)


def test_path_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    for g in _differential_graphs():
        if g.has_zero_weights:
            continue
        G, dist = _nx_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][v] < 0:
                    continue
                expected = len(list(nx.all_shortest_paths(G, u, v, weight="weight")))
                assert count_shortest_paths(g, u, v) == expected


def test_tree_parents_are_lowest_id_tight_neighbors():
    for g in _differential_graphs():
        if g.has_zero_weights:
            continue
        _, dist = _nx_distances(g)
        adj = oracle_adjacency(g)
        parents = canonical_trees(all_pairs(g), 0, g.n)
        for root in range(g.n):
            d = dist[root]
            for v in range(g.n):
                tight = [x for x, w in adj[v] if d[x] >= 0 and d[x] + w == d[v]]
                want = root if v == root else min(tight, default=-1)
                assert parents[root, v] == want


@given(small_graphs(min_weight=1, max_weight=3))
def test_unique_shortest_path_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    G, dist = _nx_distances(g)
    dm = all_pairs(g)
    for u in range(g.n):
        for v in range(g.n):
            if dist[u][v] < 0:
                with pytest.raises(UnreachablePairError):
                    is_unique_shortest_path(dm, g, u, v)
                continue
            paths = list(nx.all_shortest_paths(G, u, v, weight="weight"))
            unique, path = is_unique_shortest_path(dm, g, u, v)
            assert unique == (len(paths) == 1)
            assert path == (paths[0] if unique else None)


def test_unique_shortest_path_rejects_zero_weights():
    g = WeightedGraph(3, [(0, 1, 0), (1, 2, 1)])
    assert is_unique_shortest_path(all_pairs(g), g, 1, 1) == (True, [1])
    with pytest.raises(ZeroWeightError):
        is_unique_shortest_path(all_pairs(g), g, 0, 2)


@given(small_graphs(max_n=10, max_weight=2))
def test_zero_weight_all_pairs_match_networkx(g):
    _, expected = _nx_distances(g)
    dm = all_pairs(g)
    assert [dm.matrix()[src].tolist() for src in range(g.n)] == expected


def test_search_rejects_total_weight_at_limit():
    half = WEIGHT_LIMIT // 2
    below = WeightedGraph(3, [(0, 1, half), (1, 2, half - 1)])
    assert all_pairs(below).matrix()[0, 2] == WEIGHT_LIMIT - 1
    at = WeightedGraph(3, [(0, 1, half), (1, 2, half)])
    with pytest.raises(ValueError, match=r"2\*\*52"):
        all_pairs(at)
    with pytest.raises(ValueError, match=r"2\*\*52"):
        distances_from(at, 0)


@given(small_graphs(min_weight=0), st.data())
def test_shortest_path_hits_match_min_plus_oracle(g, data):
    dm = all_pairs(g)
    drawn = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
    for mask in (drawn, np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool)):
        assert (hit_rows(dm, mask, slice(None)) == oracle_hits(dm, mask)).all()


def _weights_025(g: WeightedGraph, seed: int) -> WeightedGraph:
    """g with each edge weight drawn from {0, 2, 5}: general weights with
    zero-weight components."""
    rng = np.random.default_rng(seed)
    u, v, _ = g.edge_arrays()
    return WeightedGraph(g.n, np.stack([u, v, rng.choice([0, 2, 5], size=u.size)], axis=1))


def test_shortest_path_hits_on_fixed_graphs():
    graphs = [
        WeightedGraph(0, []),
        WeightedGraph(1, []),
        # two zero-weight chains in separate components, one isolated vertex
        WeightedGraph(9, [(0, 1, 0), (1, 2, 0), (2, 3, 1), (4, 5, 1), (5, 6, 0), (6, 7, 0)]),
        reduce_degree(erdos_renyi_m(60, 140, seed=4))[0],
        random_regular_graph(70, 3, seed=5),
        seeded_sparse_graph(50, 90, seed=6, min_w=0, max_w=4),
        _weights_025(random_regular_graph(60, 3, seed=8), seed=1),
        _weights_025(erdos_renyi_m(50, 70, seed=9), seed=2),
        build_H(FamilyParams(2, 2)).graph,
    ]
    rng = np.random.default_rng(11)
    for g in graphs:
        dm = all_pairs(g)
        masks = [np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool)]
        masks += [rng.random(g.n) < p for p in (0.05, 0.3)]
        for mask in masks:
            hit = hit_rows(dm, mask, slice(None))
            assert hit.shape == (g.n, g.n) and hit.dtype == bool
            assert (hit == oracle_hits(dm, mask)).all(), g


# -- the 64-source words of the unit-weight searches -----------------------------


def _word_boundary_graphs():
    """Unit and {0,1} graphs around the 64-source words of the unit-weight
    searches. For n in {0, 1, 63, 64, 65, 129}, the last word of n sources is
    empty, full or partial: two random parts with no edge between them and an
    isolated last vertex, with unit weights, then with {0,1} weights. A third
    graph adds to the unit one 64 vertices tied to it by zero-weight edges,
    so its quotient has exactly n vertices, one word less than the graph."""
    graphs = []
    for n in (0, 1, 63, 64, 65, 129):
        half = max(n - 1, 0) // 2
        for min_w in (1, 0):
            edges = []
            for lo, size in ((0, half), (half, max(n - 1, 0) - half)):
                part = seeded_sparse_graph(size, size + size // 2, seed=n + lo, min_w=min_w, max_w=1)
                edges += [(a + lo, b + lo, w) for a, b, w in part.edges]
            graphs.append(WeightedGraph(n, edges))
        if n:
            pendants = [(i % n, n + i, 0) for i in range(64)]
            graphs.append(WeightedGraph(n + 64, list(graphs[-2].edges) + pendants))
    return graphs


def _word_boundary_masks(n: int, rng) -> list[np.ndarray]:
    masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    masks += [rng.random(n) < p for p in (0.03, 0.3)]
    for v in (0, 62, 63, 64, 65, 127, 128, n - 1):
        if 0 <= v < n:
            single = np.zeros(n, dtype=bool)
            single[v] = True
            masks.append(single)
    return masks


def _refuse(*args, **kwargs):
    raise AssertionError("rival search called")


def test_word_boundary_all_pairs_match_networkx(monkeypatch):
    import hublab.graph_core as graph_core

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", _refuse)
    for g in _word_boundary_graphs():
        _, expected = _nx_distances(g)
        dm = all_pairs(g)
        assert dm.matrix().shape == (g.n, g.n)
        assert [dm.matrix()[src].tolist() for src in range(g.n)] == expected, g


def test_word_boundary_hits_match_oracle():
    """hit_rows matches the oracle, and both hit kernels give the same words."""
    rng = np.random.default_rng(5)
    for g in _word_boundary_graphs():
        dm = all_pairs(g)
        labels, mat = graph_core._search_matrix(g)
        for mask in _word_boundary_masks(g.n, rng):
            hit = hit_rows(dm, mask, slice(None))
            assert hit.shape == (g.n, g.n) and hit.dtype == bool
            assert (hit == oracle_hits(dm, mask)).all(), (g, np.flatnonzero(mask))
            qmask = mask if labels is None else np.bincount(labels[mask], minlength=mat.k) > 0
            bits = graph_core._tight_hits(mat, dm.q, qmask, dm.diameter())
            assert (bits == graph_core._bfs_hits(mat, qmask)).all(), (g, np.flatnonzero(mask))


def test_short_unit_quotients_never_run_dijkstra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dijkstra called")

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", refuse)
    unit = random_regular_graph(70, 3, seed=3)
    zero_one = seeded_sparse_graph(70, 90, seed=4, min_w=0, max_w=1)
    # general weights, all inside one zero-weight component: the quotient
    # has no edge at all
    inside = WeightedGraph(3, [(0, 1, 0), (1, 2, 0), (0, 2, 5)])
    # two components each, so that some pairs are unreachable
    split = WeightedGraph(4, [(0, 1, 1), (2, 3, 1)])
    split_zero_one = WeightedGraph(5, [(0, 1, 0), (1, 2, 1), (3, 4, 0)])
    for g in (unit, zero_one, inside, split, split_zero_one):
        dm = all_pairs(g)
        hit_rows(dm, np.ones(g.n, dtype=bool), slice(None))
        for s in (0, g.n - 1):
            row = [distance_between(g, s, t) for t in range(g.n)]
            assert row == [UNREACHABLE if d < 0 else d for d in dm.matrix()[s].tolist()], g
    assert zero_one.weight_kind == "01" and inside.weight_kind == "general"
    assert all_pairs(inside).matrix()[0, 2] == 0
    # weights 1..2 take the bucket search; a weight of 1000 takes Dijkstra
    general = WeightedGraph(3, [(0, 1, 2), (1, 2, 1)])
    assert all_pairs(general).matrix()[0].tolist() == [0, 2, 3]
    with pytest.raises(AssertionError, match="dijkstra called"):
        all_pairs(WeightedGraph(3, [(0, 1, 1000), (1, 2, 1)]))
    with pytest.raises(AssertionError, match="dijkstra called"):
        distance_between(general, 0, 2)
    with pytest.raises(AssertionError, match="dijkstra called"):
        distances_from(general, 0)
    for g in (unit, zero_one, inside, split, split_zero_one):
        assert distances_from(g, g.n - 1).tolist() == all_pairs(g).matrix()[g.n - 1].tolist(), g


def test_unit_distances_from_runs_one_bfs(monkeypatch):
    """distances_from on unit quotients reads depths off one BFS order: on
    two components, on a 1200-vertex path (depth 1199) and on G(2,2)."""
    from hublab.family_gen import expand_to_G

    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", _refuse)
    reg = random_regular_graph(40, 3, seed=5)
    u, v, w = reg.edge_arrays()
    tail = [(40 + i, 41 + i, 1) for i in range(29)]
    two = WeightedGraph(70, [*zip(u.tolist(), v.tolist(), w.tolist()), *tail])
    ws = (np.arange(1199) % 3 != 2).astype(int).tolist()
    graphs = [
        two,
        WeightedGraph(70, [(a, b, int(c != 1)) for a, b, c in two.edges]),  # {0,1}
        seeded_sparse_graph(60, 70, seed=6, max_w=1),
        path_graph(1200),
        WeightedGraph(1200, [(i, i + 1, x) for i, x in enumerate(ws)]),
    ]
    assert two.weight_kind == "unit" and graphs[1].weight_kind == "01"
    for g in graphs:
        sources = sorted({0, 1, g.n // 2, g.n - 1})
        for s, want in zip(sources, _nx_distances(g, sources)[1]):
            got = distances_from(g, s)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == want, (g, s)
    assert distances_from(graphs[3], 0).max() == 1199
    # G(2,2) has 24,400 vertices, past the all-pairs cap: check rows against
    # networkx there, and every row of G(2,1) against all_pairs.
    g22 = expand_to_G(build_H(FamilyParams(2, 2))).graph
    sources = [0, 15, 79, 80, g22.n - 1]
    for s, want in zip(sources, _nx_distances(g22, sources)[1]):
        assert distances_from(g22, s).tolist() == want
    g21 = expand_to_G(build_H(FamilyParams(2, 1))).graph
    monkeypatch.undo()
    dm = all_pairs(g21).matrix()
    for s in range(g21.n):
        assert distances_from(g21, s).tolist() == dm[s].tolist()


def test_long_unit_quotients_run_dijkstra_and_tight_hits(monkeypatch):
    """On a path, whose diameter is its size, the bit-parallel BFS would
    cost D k^2 / 64 word operations and the bucket search D buckets;
    all_pairs runs Dijkstra and hit_rows _tight_hits instead, for unit and
    {0,1} weights. distance_between runs neither: it walks one BFS."""
    import scipy.sparse.csgraph as csgraph

    import hublab.graph_core as graph_core

    calls = []
    for mod, name in ((csgraph, "dijkstra"),) + tuple(
        (graph_core, name) for name in ("_bfs_distances", "_bucket_distances", "_bfs_hits", "_tight_hits")
    ):
        def record(*args, _real=getattr(mod, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, name, record)
    n = 1200
    for ws in (np.ones(n - 1, dtype=np.int64), (np.arange(n - 1) % 3 != 2).astype(np.int64)):
        g = WeightedGraph(n, [(i, i + 1, int(w)) for i, w in enumerate(ws)])
        calls.clear()
        pos = np.concatenate([[0], np.cumsum(ws)])
        assert distance_between(g, 0, n - 1) == pos[-1]
        dm = all_pairs(g)
        assert (dm.matrix() == np.abs(pos[:, None] - pos[None, :])).all()
        mask = np.zeros(n, dtype=bool)
        mask[[0, 63, 64, 700]] = True
        assert (hit_rows(dm, mask, slice(None)) == oracle_hits(dm, mask)).all()
        assert calls == ["dijkstra", "_tight_hits"], g


def _hop_diameter(mat) -> int:
    from scipy.sparse.csgraph import dijkstra

    hops = dijkstra(mat.csgraph, unweighted=True)
    return int(hops[np.isfinite(hops)].max(initial=0))


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=12, min_weight=0, max_weight=1))
def test_diameter_estimate_within_a_factor_two(g):
    from hublab.graph_core import _diameter_estimate, _search_matrix

    _, mat = _search_matrix(g)
    est = _diameter_estimate(mat, g.n)
    assert est <= _hop_diameter(mat) <= 2 * est
    # A cap ends the sweeps early, and the estimate reads the cap instead.
    for cap in range(g.n + 1):
        assert _diameter_estimate(mat, cap) == min(cap, est)


def test_diameter_estimate_exact_on_forests():
    from hublab.graph_core import _diameter_estimate, _search_matrix

    rng = np.random.default_rng(3)
    for n in (1, 2, 40, 300):
        for _ in range(5):
            # two random trees and an isolated vertex, under shuffled ids
            ids = rng.permutation(n + 1)
            half = n // 2
            edges = [(int(ids[rng.integers(0, i)]), int(ids[i]), 1) for i in range(1, half)]
            edges += [
                (int(ids[half + rng.integers(0, i - half)]), int(ids[i]), 1) for i in range(half + 1, n)
            ]
            _, mat = _search_matrix(WeightedGraph(n + 1, edges))
            assert _diameter_estimate(mat, n + 1) == _hop_diameter(mat)


def test_diameter_estimate_stops_past_its_cap(monkeypatch):
    """A sweep that passes cap levels stops there: on a 300-vertex path the
    first sweep, from vertex 0, alone rules out any cap below 300 levels. On
    a short path beside a long one, the components' sweep stops instead."""
    import hublab.graph_core as graph_core
    from hublab.graph_core import _diameter_estimate, _search_matrix

    sweeps = []
    real = graph_core._sweep
    monkeypatch.setattr(graph_core, "_sweep", lambda *a: sweeps.append(real(*a)) or sweeps[-1])
    _, mat = _search_matrix(path_graph(300))
    for cap in (0, 1, 10, 298, 299, 300, 1000):
        sweeps.clear()
        assert _diameter_estimate(mat, cap) == min(cap, 299)
        assert [levels for _, levels in sweeps] == ([cap + 1] if cap < 300 else [300, 300]), cap
    two = WeightedGraph(310, [(i, i + 1, 1) for i in range(309) if i != 9])
    _, mat = _search_matrix(two)
    for cap, est, want in ((50, 50, [10, 51]), (310, 299, [10, 300, 300])):
        sweeps.clear()
        assert _diameter_estimate(mat, cap) == est
        assert [levels for _, levels in sweeps] == want


@settings(max_examples=100)
@given(small_graphs(max_n=10, min_weight=0, max_weight=2))
def test_quotient_rows_and_expand_round_trip(g):
    dm = all_pairs(g)
    want = np.array([distances_from(g, s) for s in range(g.n)]).reshape(g.n, g.n)
    k = dm.q.shape[0]
    assert dm.q.shape == (k, k) and not dm.q.flags.writeable
    assert dm.size.dtype == np.int64 and dm.size.shape == (k,) and dm.size.sum() == g.n
    mat = dm.matrix()
    assert mat.dtype == np.int64 and mat.flags.c_contiguous and (mat == want).all()
    for s in range(g.n):
        assert dm.rows(s).shape == (g.n,) and (dm.rows(s) == want[s]).all()
    picks = np.arange(g.n)[::-1].repeat(2)
    assert (dm.rows(picks) == want[picks]).all()
    assert (dm.rows(slice(1, None)) == want[1:]).all()
    u, v = np.divmod(np.arange(g.n * g.n), g.n)
    assert (dm.at(u, v) == want[u, v]).all() and dm.at(0, g.n - 1) == want[0, -1]
    with pytest.raises(ValueError):
        DenseDistanceMatrix(np.zeros((k + 1, k + 1)), g)
    with pytest.raises(ValueError, match="int64 matrix; want .*unsigned"):
        DenseDistanceMatrix(np.zeros((k, k), dtype=np.int64), g)
    coded = np.where(want < 0, dm.far, want)  # q's code of the vertex matrix
    if not g.has_zero_weights:
        assert dm.labels is None and (dm.size == 1).all()
        assert (dm.q == coded).all() and (dm.q_rows(slice(None)) == coded).all()
        assert not np.shares_memory(mat, dm.q) and dm.rows(slice(1, None)).dtype == np.int64
        return
    assert dm.size.tolist() == np.bincount(dm.labels).tolist()
    # the quotient is the matrix at the lowest member of each component
    rep = np.unique(dm.labels, return_index=True)[1]
    assert (coded[np.ix_(rep, rep)] == dm.q).all()
    back = dm.q_rows(slice(None))
    assert back.dtype == dm.q.dtype and back.flags.c_contiguous and (back == coded).all()
    assert ((back != dm.far) == (want >= 0)).all()
    assert (dm.q_rows(rep[0]) == coded[rep[0]]).all()



@settings(max_examples=100)
@given(small_graphs(max_n=10, min_weight=0, max_weight=2))
def test_q_rows_code_the_rows_as_q_does(g):
    dm = all_pairs(g)
    want = np.array([distances_from(g, s) for s in range(g.n)]).reshape(g.n, g.n)
    coded = np.where(want < 0, dm.far, want)
    picks = np.arange(g.n)[::-1].repeat(2)
    for idx in (0, g.n - 1, picks, slice(1, None)):
        got = dm.q_rows(idx)
        assert got.dtype == dm.q.dtype and (got == coded[idx]).all()
        assert (dm.rows(idx) == want[idx]).all()
    if not g.has_zero_weights:
        assert np.shares_memory(dm.q_rows(slice(None)), dm.q)

def _with_isolated_vertex(g):
    return WeightedGraph(g.n + 1, g.edges)


@pytest.mark.parametrize(
    "g, dtype",
    [
        (_with_isolated_vertex(path_graph(255)), np.uint8),  # diameter 254
        (_with_isolated_vertex(path_graph(256)), np.uint16),  # diameter 255
        (WeightedGraph(3, [(0, 1, 70_000)]), np.uint32),
        (WeightedGraph(3, [(0, 1, WEIGHT_LIMIT - 1)]), np.uint64),
        (WeightedGraph(4, [(0, 1, 0), (1, 2, 1)]), np.uint8),  # a zero weight
    ],
    ids=["uint8", "uint16", "uint32", "uint64", "uint8-zero-weight"],
)
def test_quotient_dtype_boundaries_and_unreachable_pairs(g, dtype):
    dm = all_pairs(g)
    want = np.array([distances_from(g, s) for s in range(g.n)])
    far = g.n - 1  # the last vertex reaches no other
    assert dm.q.dtype == dtype and dm.far == np.iinfo(dtype).max
    assert dm.diameter() == want.max() and (dm.q[-1, :-1] == dm.far).all()
    assert (dm.matrix() == want).all() and dm.matrix()[0, far] == -1
    assert (dm.rows(far)[:far] == -1).all() and (dm.rows([0, far]) == want[[0, far]]).all()
    u, v = np.divmod(np.arange(g.n * g.n), g.n)
    assert (dm.at(u, v) == want[u, v]).all() and dm.at(far, 0) == -1 == dm.at(0, far)
    assert dm.rows(far).dtype == dm.at(u, v).dtype == np.int64


@settings(max_examples=200, deadline=None)
@given(small_graphs(max_n=9, min_weight=0, max_weight=300))
def test_quotient_dtype_is_the_narrowest_that_fits(g):
    dm = all_pairs(g)
    mat = dm.matrix()
    diameter = int(mat.max(initial=0))
    assert dm.diameter() == diameter
    # the diameter a matrix made from the same q scans for
    assert DenseDistanceMatrix(dm.q, g).diameter() == diameter
    codes = [np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)]
    fits = [t for t in codes if np.iinfo(t).max > diameter]
    assert dm.q.dtype == fits[0]
    assert ((dm.q_rows(slice(None)) == dm.far) == (mat < 0)).all()


# -- the bucket search and the tight-edge hits -----------------------------------


def _weighted(g: WeightedGraph, lo: int, hi: int, seed: int) -> WeightedGraph:
    u, v, _ = g.edge_arrays()
    w = np.random.default_rng(seed).integers(lo, hi + 1, size=g.m)
    return WeightedGraph(g.n, np.stack([u, v, w], 1))


@settings(max_examples=60, deadline=None)
@given(
    small_graphs(max_n=14, min_weight=0, max_weight=3),
    st.sampled_from([(1, 1), (1, 3), (50, 130), (1, 1000)]),
    st.sampled_from([1, 7, "k + 1"]),
    st.integers(0, 3),
)
def test_bucket_search_and_tight_hits_match_oracles(g, weights, block, seed):
    """On the quotient of graphs with zero weights, disconnected parts and
    n = 1, with weights redrawn from 1, 50..130 or 1..1000: the bucket search
    equals csgraph Dijkstra in values, dtype and diameter, and _tight_hits
    equals the oracle, for source blocks of 1, 7 and k + 1."""
    from scipy.sparse.csgraph import dijkstra

    u, v, w = g.edge_arrays()
    w = np.where(w > 0, np.random.default_rng(seed).integers(*weights, endpoint=True, size=g.m), 0)
    g = WeightedGraph(g.n, np.stack([u, v, w], 1))
    labels, mat = graph_core._search_matrix(g)
    want = dijkstra(mat.csgraph, directed=True)
    bound = 2 * graph_core._diameter_estimate(mat, mat.k + 1) * int(mat.data.max(initial=1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_core, "_BLOCK", mat.k + 1 if block == "k + 1" else block)
        q, diameter = graph_core._bucket_distances(mat, bound)
        masks = [np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool)]
        masks.append(np.random.default_rng(seed).random(g.n) < 0.3)
        hits = [(mask, _quotient_hits(g, mat, labels, q, diameter, mask)) for mask in masks]
    assert diameter == int(want[np.isfinite(want)].max(initial=0))
    assert q.dtype == np.min_scalar_type(diameter + 1)
    assert (graph_core._widen(q) == np.where(np.isfinite(want), want, -1)).all()
    dm = DenseDistanceMatrix(q, g)
    for mask, hit in hits:
        assert (hit == oracle_hits(dm, mask)).all()


def _quotient_hits(g, mat, labels, q, diameter, mask) -> np.ndarray:
    """_tight_hits of a vertex mask, read back as the n x n bool matrix."""
    qmask = mask if labels is None else np.bincount(labels[mask], minlength=mat.k) > 0
    hit = graph_core._unpack(graph_core._tight_hits(mat, q, qmask, diameter)[: mat.k], mat.k)
    return hit if labels is None else hit[labels][:, labels]


def test_bucket_search_where_buckets_are_few(monkeypatch):
    """H(2,2) and weights 1..2 take the bucket search and load no Dijkstra;
    weights 1..1000 on the same 3-regular graph still reach Dijkstra. The
    n = 0 graph and a weighted graph with no edge give empty searches."""
    calls = []
    monkeypatch.setattr("scipy.sparse.csgraph.dijkstra", lambda *a, **kw: calls.append(1) or _refuse())
    reg = random_regular_graph(200, 3, seed=1)
    for g in (build_H(FamilyParams(2, 2)).graph, _weighted(reg, 1, 2, 1)):
        _, mat = graph_core._search_matrix(g)
        assert graph_core._bucket_bound(mat) is not None
        dm = all_pairs(g)
        mask = np.arange(g.n) % 5 == 0
        assert (hit_rows(dm, mask, slice(None)) == oracle_hits(dm, mask)).all()
    with pytest.raises(AssertionError, match="rival search called"):
        all_pairs(_weighted(reg, 1, 1000, 1))
    assert calls == [1]
    assert all_pairs(WeightedGraph(0, [])).q.shape == (0, 0)
    assert all_pairs(WeightedGraph(2, [(0, 1, 0)])).matrix().tolist() == [[0, 0], [0, 0]]


def _traced_peak(call) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hit_kernels_hold_few_temporaries():
    """_bfs_hits keeps no (k + 1) x words seed matrix, and _tight_hits holds
    its compares to row blocks and no k x k bool matrix."""
    g = random_regular_graph(2000, 3, seed=1)
    dm = all_pairs(g)
    mask = np.arange(g.n) % 20 == 0
    assert _traced_peak(lambda: hit_rows(dm, mask, slice(0, 64))) <= 0.8 * g.n**2
    h = build_H(FamilyParams(2, 4)).graph
    dm = all_pairs(h)
    _, mat = graph_core._search_matrix(h)
    mask = np.arange(h.n) % 20 == 0
    assert _traced_peak(lambda: graph_core._tight_hits(mat, dm.q, mask, dm.diameter())) <= 0.5 * h.n**2
