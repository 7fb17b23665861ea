"""Layered hard-instance families: the weighted level graph, its max-degree-3
expansion, and mid-level deletion variants, all with coordinate-addressable
vertices."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .graph_core import ResourceLimitError, WeightedGraph

DEFAULT_VERTEX_CAP = 5_000_000

ROLE_LEVEL = "level"
ROLE_TREE_INTERNAL = "tree-internal"
ROLE_TREE_LEAF = "tree-leaf"
ROLE_AUX = "path-auxiliary"
#: The role names, indexed by the codes of FamilyInstance.roles.
ROLES = (ROLE_LEVEL, ROLE_TREE_INTERNAL, ROLE_TREE_LEAF, ROLE_AUX)

KIND_H = "H"
KIND_G = "G"
KIND_G_PRIME = "G_prime"


@dataclass(frozen=True)
class FamilyParams:
    """Side-length exponent b (s = 2^b) and level count parameter ell
    (levels 0..2*ell)."""

    b: int
    ell: int

    def __post_init__(self):
        if self.b < 1 or self.ell < 1:
            raise ValueError("b and ell must be >= 1")

    @property
    def s(self) -> int:
        return 1 << self.b

    @property
    def num_levels(self) -> int:
        return 2 * self.ell + 1

    @property
    def level_size(self) -> int:
        return self.s**self.ell

    @property
    def base_weight(self) -> int:
        """The constant additive weight A = 3 * ell * s^2."""
        return 3 * self.ell * self.s * self.s


class LevelCoord(NamedTuple):
    level: int
    coords: tuple[int, ...]


@dataclass
class FamilyInstance:
    """A family graph with its parameters, kind and level-vertex ids. roles is
    a read-only uint8 array, the role of vertex v being ROLES[roles[v]];
    removed holds the mid-level vertices a G' deleted.

    A G' that delete_level_mid made also holds its base, the expanded
    instance it deletes from, and kept, the read-only mask of the base
    vertices it keeps; its graph is built from those the first time it is
    read."""

    params: FamilyParams
    kind: str
    coord_to_id: dict[LevelCoord, int]
    roles: np.ndarray = field(repr=False, compare=False)
    removed: frozenset[LevelCoord] = frozenset()
    # Set by expand_to_G: for every vertex, the level vertex whose removal
    # drops it (see delete_level_mid).
    anchor: np.ndarray | None = field(default=None, repr=False, compare=False)
    base: FamilyInstance | None = field(default=None, repr=False, compare=False)
    kept: np.ndarray | None = field(default=None, repr=False, compare=False)
    _graph: WeightedGraph | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.roles.flags.writeable = False

    @property
    def graph(self) -> WeightedGraph:
        if self._graph is None:
            # The subgraph of the base on the kept vertices, renumbered in order.
            new_ids = np.cumsum(self.kept) - 1
            eu, ev, ew = self.base.graph.edge_arrays()
            emask = self.kept[eu] & self.kept[ev]
            edges = np.stack([new_ids[eu[emask]], new_ids[ev[emask]], ew[emask]], axis=1)
            self._graph = WeightedGraph(self.roles.size, edges)
        return self._graph

    def id_of(self, level: int, coords) -> int:
        return self.coord_to_id[LevelCoord(level, tuple(coords))]


def digits(value: int, base: int, count: int) -> tuple[int, ...]:
    """The count lowest base-`base` digits of value, least significant first."""
    out = []
    for _ in range(count):
        value, digit = divmod(value, base)
        out.append(digit)
    return tuple(out)


def digits_value(vec, base: int) -> int:
    """The number whose base-`base` digits, least significant first, are vec;
    digits at or above the base carry."""
    total = 0
    for digit in reversed(vec):
        total = total * base + digit
    return total


def coords_of_index(idx: int, params: FamilyParams) -> tuple[int, ...]:
    """Coordinates of level index idx: coordinate 1 is the least significant
    base-s digit."""
    return digits(idx, params.s, params.ell)


def unique_path_length(params: FamilyParams, x, z) -> int:
    """Length of the point-symmetric midpoint path between v_{0,x} and
    v_{2*ell,z}, for x and z that differ by even amounts: 2*ell*A plus twice
    the squared half-differences."""
    half = [(zk - xk) // 2 for xk, zk in zip(x, z)]
    return 2 * params.ell * params.base_weight + 2 * sum(d * d for d in half)


def _gap_coordinate(i, ell: int):
    """1-indexed coordinate that may change between level i and i+1, for an
    int or an int array i: min(i + 1, 2*ell - i), written with abs so that
    ints stay ints."""
    return (2 * ell + 1 - abs(2 * i + 1 - 2 * ell)) // 2


def build_H(params: FamilyParams, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> FamilyInstance:
    """The weighted level graph on (2*ell+1) * s^ell vertices.

    An edge joins consecutive-level vertices whose coordinate vectors agree
    except possibly on the gap coordinate; its weight is A + delta^2 where
    delta is the change on that coordinate.
    """
    s = params.s
    ell = params.ell
    per_level = params.level_size
    n = params.num_levels * per_level
    if n > vertex_cap:
        raise ResourceLimitError(f"level graph needs {n} vertices, cap is {vertex_cap}")
    A = params.base_weight

    def vid(level: int, idx: int) -> int:
        return level * per_level + idx

    edges = []
    for i in range(2 * ell):
        c = _gap_coordinate(i, ell)
        stride = s ** (c - 1)
        for idx in range(per_level):
            jc = (idx // stride) % s
            base = vid(i, idx)
            for jc2 in range(s):
                nid = idx + (jc2 - jc) * stride
                delta = jc - jc2
                edges.append((base, vid(i + 1, nid), A + delta * delta))

    coord_to_id = {}
    for level in range(params.num_levels):
        for idx in range(per_level):
            coord_to_id[LevelCoord(level, coords_of_index(idx, params))] = vid(level, idx)
    graph = WeightedGraph(n, edges)
    return FamilyInstance(
        _graph=graph,
        params=params,
        kind=KIND_H,
        coord_to_id=coord_to_id,
        roles=np.zeros(n, dtype=np.uint8),
    )


def expand_to_G(inst: FamilyInstance, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> FamilyInstance:
    """Unit-weight, max-degree-3 realization of the level graph.

    Every level vertex gains balanced fan-in/fan-out binary trees with s
    leaves and depth b; every weighted edge becomes a leaf-to-leaf path whose
    length restores the original weight end to end.
    """
    if inst.kind != KIND_H:
        raise ValueError("expansion starts from a level-graph instance")
    params = inst.params
    b, ell, s = params.b, params.ell, params.s
    per_level = params.level_size
    n_level = params.num_levels * per_level
    tree_size = 2 * s - 1  # perfectly balanced binary tree with s leaves
    path_edge_deficit = 2 * b + 2

    eu, ev, ew = inst.graph.edge_arrays()
    total_w = int(ew.sum())
    n_trees = 2 * n_level - 2 * per_level  # no fan-in at level 0, no fan-out on top
    est = n_level + n_trees * tree_size + (total_w - (path_edge_deficit + 1) * len(ew))
    if est > vertex_cap:
        raise ResourceLimitError(f"expansion needs about {est} vertices, cap is {vertex_cap}")

    # Every vertex above level 0 gets an in-tree, then every vertex below the
    # top an out-tree, tree after tree in vertex order; each tree takes
    # tree_size consecutive ids in heap layout, node c's parent at (c - 1) // 2.
    level = np.arange(n_level) // per_level
    has_in = (level > 0).astype(np.int64)
    per_vertex = has_in + (level < params.num_levels - 1)
    tree_owner = np.repeat(np.arange(n_level), per_vertex)
    block = n_level + np.arange(n_trees) * tree_size
    in_block = n_level + (np.cumsum(per_vertex) - per_vertex) * tree_size
    out_block = in_block + has_in * tree_size
    kid = np.arange(1, tree_size)
    tree_edges = [
        np.c_[tree_owner, block],
        np.c_[(block[:, None] + (kid - 1) // 2).ravel(), (block[:, None] + kid).ravel()],
    ]

    # Every weighted edge (u one level below v, by construction of build_H)
    # becomes a path from the leaf of u's out-tree at v's gap coordinate,
    # through n_aux >= 1 auxiliary vertices with consecutive ids in edge
    # order, to the leaf of v's in-tree at u's gap coordinate.
    i = eu // per_level
    stride = s ** (_gap_coordinate(i, ell) - 1)
    start = out_block[eu] + s - 1 + (ev % per_level) // stride % s
    end = in_block[ev] + s - 1 + (eu % per_level) // stride % s
    n_aux = ew - path_edge_deficit - 1
    aux_base = n_level + n_trees * tree_size
    next_id = aux_base + int(n_aux.sum())
    first_aux = aux_base + np.cumsum(n_aux) - n_aux
    last_aux = first_aux + n_aux - 1
    inner = np.ones(next_id - aux_base, dtype=bool)  # auxiliary vertices but the last of a path
    inner[last_aux - aux_base] = False
    chain = aux_base + np.flatnonzero(inner)
    path_edges = [np.c_[start, first_aux], np.c_[chain, chain + 1], np.c_[last_aux, end]]
    edges = np.concatenate(tree_edges + path_edges)
    edges = np.c_[edges, np.ones(len(edges), dtype=np.int64)]
    roles = np.repeat(
        np.r_[0, np.tile([1, 2], n_trees), 3].astype(np.uint8),
        np.r_[n_level, np.tile([s - 1, s], n_trees), next_id - aux_base],
    )
    # A path dies with its mid-level endpoint; u is never removed when
    # neither endpoint sits on level ell.
    path_anchor = np.where(i + 1 == ell, ev, eu)
    anchor = np.concatenate(
        [np.arange(n_level), np.repeat(tree_owner, tree_size), np.repeat(path_anchor, n_aux)]
    )

    graph = WeightedGraph(next_id, edges)
    return FamilyInstance(
        _graph=graph,
        params=params,
        kind=KIND_G,
        coord_to_id=dict(inst.coord_to_id),
        roles=roles,
        anchor=anchor,
    )


def delete_level_mid(inst: FamilyInstance, keep: Callable[[LevelCoord], bool]) -> FamilyInstance:
    """Remove middle-level vertices failing the keep predicate.

    Each removal drops the level vertex, both of its trees, and every
    auxiliary vertex on its subdivided incident edges. Remaining vertices are
    renumbered compactly; distances can only grow. The result holds inst as
    its base and the mask of the vertices it keeps, with its ids and roles;
    its graph is built only when first read (the oracle searches of
    sumindex_protocol never read it: they search the base with the removed
    vertices cut).
    """
    if inst.kind != KIND_G:
        raise ValueError("deletion applies to expanded instances")
    if inst.anchor is None:
        raise ValueError(
            "deletion needs the instance expand_to_G returned, not one read from files"
        )
    params = inst.params
    mid_coords = (
        LevelCoord(params.ell, coords_of_index(idx, params)) for idx in range(params.level_size)
    )
    removed = frozenset(coord for coord in mid_coords if not keep(coord))
    gone = np.zeros(params.num_levels * params.level_size, dtype=bool)
    gone[[inst.coord_to_id[coord] for coord in removed]] = True
    kept = ~gone[inst.anchor]
    kept.flags.writeable = False
    coords, old = zip(*inst.coord_to_id.items())
    old = np.array(old)
    new_ids = old - np.searchsorted(np.flatnonzero(~kept), old)  # less the dropped ids below it
    coord_to_id = {c: i for c, i, k in zip(coords, new_ids.tolist(), kept[old].tolist()) if k}
    return FamilyInstance(
        params=params,
        kind=KIND_G_PRIME,
        coord_to_id=coord_to_id,
        roles=inst.roles[kept],
        removed=removed,
        base=inst,
        kept=kept,
        _graph=None if removed else inst.graph,
    )


# -- sidecar metadata --------------------------------------------------------
# JSON with the parameters, the coordinate map for level vertices, removals,
# and a run-length encoding of vertex roles.


def coord_key(coord: LevelCoord) -> str:
    return f"{coord.level}:{','.join(str(c) for c in coord.coords)}"


def _parse_coord_key(key: str) -> LevelCoord:
    level, _, rest = key.partition(":")
    return LevelCoord(int(level), tuple(int(c) for c in rest.split(",")))


def _roles_rle(roles: np.ndarray) -> list[list]:
    starts = np.flatnonzero(np.diff(roles.astype(np.int16), prepend=-1))
    ends = np.r_[starts[1:], roles.size].tolist()
    return [[a, b, ROLES[c]] for a, b, c in zip(starts.tolist(), ends, roles[starts].tolist())]


def write_metadata(inst: FamilyInstance, path) -> None:
    payload = {
        "schema": 1,
        "kind": inst.kind,
        "b": inst.params.b,
        "ell": inst.params.ell,
        "s": inst.params.s,
        "base_weight": inst.params.base_weight,
        "n": inst.graph.n,
        "m": inst.graph.m,
        "coord_to_id": {coord_key(c): i for c, i in sorted(inst.coord_to_id.items())},
        "removed": sorted(coord_key(c) for c in inst.removed),
        "roles_rle": _roles_rle(inst.roles),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_metadata(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def instance_from_files(graph: WeightedGraph, meta: dict) -> FamilyInstance:
    params = FamilyParams(b=meta["b"], ell=meta["ell"])
    if graph.n != meta["n"] or graph.m != meta["m"]:
        raise ValueError("graph file does not match metadata")
    try:
        runs = [(a, b, ROLES.index(r)) for a, b, r in meta["roles_rle"]]
        starts, ends, codes = np.array(runs, dtype=np.int64).reshape(-1, 3).T
    except (TypeError, ValueError, OverflowError):
        raise ValueError("roles_rle: every run must be [start, end, known role]") from None
    if (ends <= starts).any() or not np.array_equal(np.r_[0, ends], np.r_[starts, graph.n]):
        raise ValueError(f"roles_rle must cover vertices 0..{graph.n - 1} in order")
    return FamilyInstance(
        _graph=graph,
        params=params,
        kind=meta["kind"],
        coord_to_id={_parse_coord_key(k): v for k, v in meta["coord_to_id"].items()},
        roles=np.repeat(codes.astype(np.uint8), ends - starts),
        removed=frozenset(_parse_coord_key(k) for k in meta["removed"]),
    )
