import itertools
import json

import numpy as np
import pytest
from conftest import monotone_coordinate_window

from hublab.family_gen import (
    KIND_G,
    KIND_G_PRIME,
    ROLE_AUX,
    ROLE_LEVEL,
    ROLE_TREE_INTERNAL,
    ROLE_TREE_LEAF,
    ROLES,
    FamilyParams,
    LevelCoord,
    build_H,
    coords_of_index,
    delete_level_mid,
    digits_value,
    expand_to_G,
    instance_from_files,
    read_metadata,
    write_metadata,
)
from hublab.graph_core import (
    ResourceLimitError,
    all_pairs,
    distance_between,
    distances_from,
    read_graph,
    write_graph,
)


def test_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(0, 1)
    with pytest.raises(ValueError):
        FamilyParams(1, 0)
    p = FamilyParams(2, 2)
    assert p.s == 4 and p.base_weight == 96 and p.level_size == 16


def test_coord_index_round_trip():
    p = FamilyParams(2, 3)
    for idx in range(p.level_size):
        assert digits_value(coords_of_index(idx, p), p.s) == idx


def test_build_H_smallest():
    inst = build_H(FamilyParams(1, 1))
    assert inst.graph.n == 6 and inst.graph.m == 8
    weights = sorted(w for _, _, w in inst.graph.edges)
    assert weights == [12, 12, 12, 12, 13, 13, 13, 13]
    assert inst.roles.tolist() == [ROLES.index(ROLE_LEVEL)] * 6


def test_build_H_figure_instance():
    inst = build_H(FamilyParams(2, 2))
    assert inst.graph.n == 5 * 16 == 80
    assert inst.params.base_weight == 96


@pytest.mark.parametrize("b,ell", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_edge_weight_envelope(b, ell):
    p = FamilyParams(b, ell)
    inst = build_H(p)
    A, s = p.base_weight, p.s
    for _, _, w in inst.graph.edges:
        assert A <= w <= A + (s - 1) ** 2 <= (3 * ell + 1) * s * s


@pytest.mark.parametrize("b,ell", [(1, 1), (2, 1), (1, 2)])
def test_edge_rule_neighbor_counts(b, ell):
    p = FamilyParams(b, ell)
    inst = build_H(p)
    g = inst.graph
    per = p.level_size
    above, below = [0] * g.n, [0] * g.n
    for u, v, _ in g.edges:  # u < v, so u's level is at most v's
        if v // per == u // per + 1:
            above[u] += 1
            below[v] += 1
    for v in range(g.n):
        level = v // per
        assert above[v] == (p.s if level < 2 * ell else 0)
        assert below[v] == (p.s if level > 0 else 0)


def test_level_zero_to_top_paths_stay_below_extra_level_cost():
    # Any 2*ell-edge crossing costs < (2*ell+1) * A, so shortest crossings
    # never take extra edges.
    for b, ell in [(1, 1), (2, 1), (1, 2)]:
        p = FamilyParams(b, ell)
        inst = build_H(p)
        dm = all_pairs(inst.graph)
        bound = (2 * ell + 1) * p.base_weight
        for x in range(p.level_size):
            for z in range(p.level_size):
                u = inst.id_of(0, coords_of_index(x, p))
                v = inst.id_of(2 * ell, coords_of_index(z, p))
                assert int(dm.matrix()[u, v]) < bound


def test_expand_has_max_degree_three():
    for b, ell in [(1, 1), (2, 1), (1, 2)]:
        g = expand_to_G(build_H(FamilyParams(b, ell)))
        assert g.graph.max_degree == 3
        assert g.graph.weight_kind == "unit"
        assert g.kind == KIND_G


def test_expand_tree_depths():
    p = FamilyParams(2, 1)
    inst = expand_to_G(build_H(p))
    g = inst.graph
    # every level vertex reaches its tree leaves at distance b + 1
    for coord, vid in inst.coord_to_id.items():
        dists = distances_from(g, vid)
        leaves = [
            x
            for x in range(g.n)
            if ROLES[inst.roles[x]] == "tree-leaf" and dists[x] == p.b + 1
        ]
        expected = p.s * (2 if 0 < coord.level < 2 * p.ell else 1)
        assert len(leaves) == expected


@pytest.mark.parametrize("b,ell", [(1, 1), (2, 1), (1, 2)])
def test_expansion_preserves_monotone_reachable_distances(b, ell):
    # Cross-level distances survive the expansion exactly when the differing
    # coordinates fit the monotone window; with ell = 1 that is every
    # cross-level pair.
    p = FamilyParams(b, ell)
    h = build_H(p)
    g = expand_to_G(h)
    dmh = all_pairs(h.graph)
    inv = {i: c for c, i in h.coord_to_id.items()}
    checked = 0
    for u in sorted(h.coord_to_id.values()):
        dg = distances_from(g.graph, u)
        cu = inv[u]
        for v in sorted(h.coord_to_id.values()):
            cv = inv[v]
            if cu.level >= cv.level:
                continue
            diff = {k + 1 for k in range(ell) if cu.coords[k] != cv.coords[k]}
            if diff <= monotone_coordinate_window(cu.level, cv.level, ell):
                assert int(dg[v]) == int(dmh.matrix()[u, v])
                checked += 1
    assert checked > 0


def test_turning_point_pairs_shortcut_through_trees():
    # With two coordinates, a level-0 to level-1 pair differing on the second
    # coordinate has no monotone route; the expansion undercuts the level
    # graph by exactly the two tree edges saved at the turning point.
    p = FamilyParams(1, 2)
    h = build_H(p)
    g = expand_to_G(h)
    u, v = h.id_of(0, (0, 0)), h.id_of(1, (0, 1))
    dh = int(all_pairs(h.graph).matrix()[u, v])
    dgv = distance_between(g.graph, u, v)
    assert dh == 3 * p.base_weight + 1
    assert dgv == dh - 2


def test_expansion_restores_edge_weights():
    h = build_H(FamilyParams(1, 1))
    g = expand_to_G(h)
    for u, v, w in h.graph.edges:
        assert distance_between(g.graph, u, v) == w


def test_vertex_count_bound():
    for b, ell in [(1, 1), (2, 1), (1, 2)]:
        p = FamilyParams(b, ell)
        g = expand_to_G(build_H(p))
        s = p.s
        bound = 4 * s * s**ell * (2 * ell + 1) + (3 * ell + 1) * s * s * s**ell * 2 * ell * s
        assert g.graph.n <= bound


def test_vertex_cap_enforced():
    with pytest.raises(ResourceLimitError):
        build_H(FamilyParams(3, 3), vertex_cap=100)
    h = build_H(FamilyParams(2, 1))
    with pytest.raises(ResourceLimitError):
        expand_to_G(h, vertex_cap=100)


def test_delete_keep_all_is_noop():
    g = expand_to_G(build_H(FamilyParams(1, 1)))
    g2 = delete_level_mid(g, lambda c: True)
    assert g2.kind == KIND_G_PRIME
    assert g2.graph.n == g.graph.n and g2.graph.edges == g.graph.edges
    assert not g2.removed


def test_delete_midpoint_strictly_increases_distance():
    p = FamilyParams(2, 1)
    g = expand_to_G(build_H(p))
    u = g.id_of(0, (1,))
    v = g.id_of(2, (3,))
    before = distance_between(g.graph, u, v)
    assert before == 2 * p.base_weight + 2  # symmetric split of delta 2
    gp = delete_level_mid(g, lambda c: c.coords != (2,))
    after = distance_between(gp.graph, gp.id_of(0, (1,)), gp.id_of(2, (3,)))
    assert after == 2 * p.base_weight + 4
    assert after > before
    assert LevelCoord(1, (2,)) in gp.removed


def test_delete_single_survivor_keeps_connectivity():
    p = FamilyParams(2, 1)
    g = expand_to_G(build_H(p))
    gp = delete_level_mid(g, lambda c: c.coords == (0,))
    assert len(gp.removed) == p.level_size - 1
    u = gp.id_of(0, (3,))
    v = gp.id_of(2, (3,))
    d = distance_between(gp.graph, u, v)
    assert d == 2 * p.base_weight + 2 * 9  # forced through coordinate 0


def test_delete_removes_trees_and_paths():
    p = FamilyParams(1, 1)
    g = expand_to_G(build_H(p))
    gp = delete_level_mid(g, lambda c: c.coords != (0,))
    # level vertex, two trees of 3 nodes each, and the aux vertices of its
    # 4 incident edges disappear
    aux_gone = sum(
        w - 2 * p.b - 3
        for u, v, w in build_H(p).graph.edges
        if g.id_of(1, (0,)) in (u, v)
    )
    assert gp.graph.n == g.graph.n - 1 - 6 - aux_gone
    assert LevelCoord(1, (0,)) not in gp.coord_to_id
    assert LevelCoord(1, (1,)) in gp.coord_to_id


def test_metadata_round_trip(tmp_path):
    g = expand_to_G(build_H(FamilyParams(1, 1)))
    gp = delete_level_mid(g, lambda c: c.coords != (1,))
    gpath, mpath = tmp_path / "g.txt", tmp_path / "g.meta.json"
    write_graph(gp.graph, gpath)
    write_metadata(gp, mpath)
    loaded = instance_from_files(read_graph(gpath), read_metadata(mpath))
    assert loaded.kind == KIND_G_PRIME
    assert loaded.coord_to_id == gp.coord_to_id
    assert loaded.removed == gp.removed
    assert loaded.roles.dtype == np.uint8 and not loaded.roles.flags.writeable
    assert loaded.roles.tolist() == gp.roles.tolist()
    assert loaded.params == gp.params


def _role_names(inst) -> list[str]:
    return [ROLES[c] for c in inst.roles.tolist()]


@pytest.mark.parametrize("b,ell", [(1, 1), (2, 1), (1, 2)])
def test_roles_follow_the_expansion_layout(b, ell):
    """Level vertices, then tree after tree (s - 1 internal nodes, then s
    leaves), then the auxiliary path vertices; a deletion keeps the roles of
    the vertices it keeps, in order."""
    p = FamilyParams(b, ell)
    g = expand_to_G(build_H(p))
    n_level = p.num_levels * p.level_size
    n_trees = 2 * n_level - 2 * p.level_size
    tree = [ROLE_TREE_INTERNAL] * (p.s - 1) + [ROLE_TREE_LEAF] * p.s
    n_aux = g.graph.n - n_level - n_trees * len(tree)
    assert _role_names(g) == [ROLE_LEVEL] * n_level + tree * n_trees + [ROLE_AUX] * n_aux
    assert g.roles.dtype == np.uint8 and not g.roles.flags.writeable
    gp = delete_level_mid(g, lambda c: sum(c.coords) % 2 == 0)
    assert gp.removed and not gp.roles.flags.writeable
    # Each vertex survives iff its anchor, the level vertex that owns it, does.
    gone = np.zeros(g.graph.n, dtype=bool)
    gone[[g.coord_to_id[c] for c in gp.removed]] = True
    kept = list(itertools.compress(_role_names(g), (~gone[g.anchor]).tolist()))
    assert _role_names(gp) == kept and len(kept) == gp.graph.n


@pytest.mark.parametrize(
    "runs",
    [
        "drop-last",
        "past-n",
        "gap",
        "overlap",
        "empty-run",
        "late-start",
        "unknown-role",
        "short-run",
        "not-a-list",
    ],
)
def test_metadata_roles_must_cover_every_vertex_once(tmp_path, runs):
    g = expand_to_G(build_H(FamilyParams(1, 1)))
    write_metadata(g, tmp_path / "g.meta.json")
    meta = read_metadata(tmp_path / "g.meta.json")
    good = meta["roles_rle"]
    n = g.graph.n
    assert good[0][0] == 0 and good[-1][1] == n and len(good) >= 3
    bad = {
        "drop-last": good[:-1],
        "past-n": good[:-1] + [[good[-1][0], n + 1, good[-1][2]]],
        "gap": [good[0]] + good[2:],
        "overlap": [good[0], [good[1][0] - 1, *good[1][1:]]] + good[2:],
        "empty-run": [good[0], [good[1][0], good[1][0], ROLE_AUX]] + good[1:],
        "late-start": [[1, *good[0][1:]]] + good[1:],
        "unknown-role": [good[0], [*good[1][:2], "hub"]] + good[2:],
        "short-run": [good[0], good[1][:2]] + good[2:],
        "not-a-list": [good[0], 7] + good[2:],
    }[runs]
    meta["roles_rle"] = json.loads(json.dumps(bad))
    with pytest.raises(ValueError, match="roles_rle"):
        instance_from_files(g.graph, meta)


def test_delete_rejects_instance_read_from_files(tmp_path):
    g = expand_to_G(build_H(FamilyParams(1, 1)))
    gpath, mpath = tmp_path / "g.txt", tmp_path / "g.meta.json"
    write_graph(g.graph, gpath)
    write_metadata(g, mpath)
    loaded = instance_from_files(read_graph(gpath), read_metadata(mpath))
    assert loaded.kind == KIND_G
    with pytest.raises(ValueError, match="expand_to_G"):
        delete_level_mid(loaded, lambda c: True)


def test_deterministic_rebuild():
    a = build_H(FamilyParams(2, 2))
    b = build_H(FamilyParams(2, 2))
    assert a.graph.edges == b.graph.edges
    assert a.coord_to_id == b.coord_to_id
    ga = expand_to_G(a)
    gb = expand_to_G(b)
    assert ga.graph.edges == gb.graph.edges
