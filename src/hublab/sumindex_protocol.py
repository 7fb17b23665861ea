"""Simulated three-party sum-index protocol driven by distance labels.

Alice and Bob share a bit string, encode it as mid-level deletions of the
expanded family graph, and send the referee one vertex label plus their index.
The referee compares the measured distance with the ideal unique-path length
to recover the bit at the summed index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

from .family_gen import (
    DEFAULT_VERTEX_CAP,
    KIND_G_PRIME,
    FamilyInstance,
    FamilyParams,
    LevelCoord,
    build_H,
    delete_level_mid,
    digits,
    digits_value,
    expand_to_G,
    unique_path_length,
)
from .graph_core import UNREACHABLE, CutSearch, distance_between, distances_from
from .hub_labeling import ceil_log2, entry_bits, query as hub_query
from .upperbound_builder import BuilderConfig, BuildResult, build_for_graph


@dataclass(frozen=True)
class SumIndexInstance:
    params: FamilyParams
    bits: str

    def __post_init__(self):
        if set(self.bits) - {"0", "1"}:
            raise ValueError("bits must be a 0/1 string")
        if len(self.bits) != self.m:
            raise ValueError(f"bit string must have length m = {self.m}")

    @property
    def m(self) -> int:
        return (self.params.s // 2) ** self.params.ell

    @property
    def index_bits(self) -> int:
        """Bits of the index each player sends with its label."""
        return ceil_log2(self.m) if self.m > 1 else 1


@dataclass(frozen=True)
class SumIndexTranscript:
    a: int
    b: int
    alice_vertex: LevelCoord
    bob_vertex: LevelCoord
    alice_label_bits: int
    bob_label_bits: int
    measured_dist: object
    ideal_dist: int
    decoded: int
    expected: int


def repr_value(vec, params: FamilyParams) -> int:
    """Mixed-radix value of a coordinate vector, digits base s/2, coordinate 1
    least significant, reduced mod m."""
    base = params.s // 2
    return digits_value(vec, base) % base**params.ell


def repr_decode(a: int, params: FamilyParams) -> tuple[int, ...]:
    """The unique vector in [0, s/2 - 1]^ell whose representation equals a."""
    base = params.s // 2
    m = base**params.ell
    if not 0 <= a < m:
        raise ValueError(f"index {a} out of range [0, {m})")
    return digits(a, base, params.ell)


def build_base_graph(params: FamilyParams, *, vertex_cap: int = DEFAULT_VERTEX_CAP) -> FamilyInstance:
    """The undeleted expanded instance the deletions start from."""
    return expand_to_G(build_H(params, vertex_cap=vertex_cap), vertex_cap=vertex_cap)


def build_instance_graph(
    inst: SumIndexInstance, *, base: FamilyInstance | None = None
) -> FamilyInstance:
    """Deleted variant encoding the bit string: mid-level vertex v_{ell,x}
    survives iff bits[repr(x)] is 1. Each bit controls 2^ell mid vertices.
    A caller that needs a vertex cap passes base built with it."""
    params = inst.params
    if base is None:
        base = build_base_graph(params)
    if base.params != params:
        raise ValueError(f"base is built for {base.params}, the instance has {params}")
    bits = inst.bits

    def keep(coord: LevelCoord) -> bool:
        return bits[repr_value(coord.coords, params)] == "1"

    return delete_level_mid(base, keep)


def _endpoints(params: FamilyParams, a: int, b: int) -> tuple[LevelCoord, LevelCoord]:
    """The vertices Alice and Bob send labels of for indices a and b:
    v_{0,2x} with repr(x) = a, and v_{2*ell,2z} with repr(z) = b."""
    alice = LevelCoord(0, tuple(2 * x for x in repr_decode(a, params)))
    bob = LevelCoord(2 * params.ell, tuple(2 * z for z in repr_decode(b, params)))
    return alice, bob


def _message_bits(
    inst: SumIndexInstance, gprime: FamilyInstance, hub_build: BuildResult | None, coord
) -> int:
    """Bits of a player's message about the level vertex at coord of gprime:
    its label plus the index. Hub mode prices the stored entries at
    entry_bits each. Oracle mode, the no-labeling baseline, prices a full
    distance row of gprime's vertices, each entry wide enough for the largest
    finite distance plus a reachability flag."""
    if hub_build is None:
        p = inst.params
        upper = (2 * p.ell + 1) * (p.base_weight + (p.s - 1) ** 2)
        label = gprime.roles.size * (ceil_log2(upper + 1) + 1)
    else:
        hl = hub_build.labeling
        label = hl.size(gprime.coord_to_id[coord]) * entry_bits(hl.n, hub_build.report.diameter)
    return label + inst.index_bits


class _Oracle:
    """The exact distances oracle rounds read on gprime. A gprime that
    delete_level_mid made is searched on its base graph with the deleted
    vertices cut (graph_core.CutSearch), so its own graph is never built; one
    read from files searches its own graph. row_distance keeps the distance
    row of one source until the source changes."""

    def __init__(self, gprime: FamilyInstance):
        if gprime.base is None:
            g = gprime.graph
            self.ids = gprime.coord_to_id
            self._between, self._row_from = partial(distance_between, g), partial(distances_from, g)
        else:
            cut = CutSearch(gprime.base.graph, gprime.kept)
            self.ids = gprime.base.coord_to_id
            self._between, self._row_from = cut.distance, cut.distances_from
        self._src = self._row = None

    def distance(self, alice: LevelCoord, bob: LevelCoord):
        """One search, walked back from bob."""
        return self._between(self.ids[alice], self.ids[bob])

    def row_distance(self, alice: LevelCoord, bob: LevelCoord):
        """Read off the distance row of alice, searched when alice changes."""
        s = self.ids[alice]
        if s != self._src:
            self._src, self._row = s, self._row_from(s)
        d = int(self._row[self.ids[bob]])
        return UNREACHABLE if d < 0 else d


def run_protocol(
    inst: SumIndexInstance,
    a: int,
    b: int,
    *,
    gprime: FamilyInstance,
    hub_build: BuildResult | None = None,
) -> SumIndexTranscript:
    """One protocol round on gprime, the deleted graph build_instance_graph
    returns for inst. The decoded bit is 1 iff the measured distance equals
    the ideal unique-path length; disconnection decodes 0.

    Without hub_build the round measures exact distances (oracle mode) with
    one BFS: on the base graph with the deleted vertices cut, so gprime's own
    graph is not built, or on gprime's graph when gprime was read from files.
    With it, the build_for_graph result for gprime, the round answers the
    query from that hub labeling and prices messages by its bit convention
    (hub mode).
    """
    params = inst.params
    if gprime.kind != KIND_G_PRIME or gprime.params != params:
        raise ValueError(f"protocol runs on G_prime of {params}, not {gprime.kind} {gprime.params}")
    oracle = _Oracle(gprime).distance if hub_build is None else None
    return _play(inst, a, b, gprime, hub_build, oracle)


def _play(
    inst: SumIndexInstance,
    a: int,
    b: int,
    gprime: FamilyInstance,
    hub_build: BuildResult | None,
    oracle,
) -> SumIndexTranscript:
    """run_protocol; in oracle mode, oracle(alice, bob) is the distance the
    referee reads between the vertices whose labels Alice and Bob send."""
    params = inst.params
    m = inst.m
    if not 0 <= a < m or not 0 <= b < m:
        raise ValueError(f"indices must lie in [0, {m})")
    alice, bob = _endpoints(params, a, b)
    if hub_build is None:
        measured = oracle(alice, bob)
    else:
        ids = gprime.coord_to_id
        measured = hub_query(hub_build.labeling, ids[alice], ids[bob])
    ideal = unique_path_length(params, alice.coords, bob.coords)
    decoded = 1 if measured == ideal else 0
    expected = int(inst.bits[(a + b) % m])
    return SumIndexTranscript(
        a=a,
        b=b,
        alice_vertex=alice,
        bob_vertex=bob,
        alice_label_bits=_message_bits(inst, gprime, hub_build, alice),
        bob_label_bits=_message_bits(inst, gprime, hub_build, bob),
        measured_dist=measured,
        ideal_dist=ideal,
        decoded=decoded,
        expected=expected,
    )


def _hub_build(
    gprime: FamilyInstance, mode: str, builder: BuilderConfig | None
) -> BuildResult | None:
    """The labeling of gprime that hub mode answers from; None in oracle mode."""
    if mode not in ("oracle", "hub"):
        raise ValueError(f"unknown labeling mode {mode!r}")
    if mode == "oracle":
        return None
    return build_for_graph(gprime.graph, builder or BuilderConfig())


def sweep(
    inst: SumIndexInstance,
    *,
    mode: str = "oracle",
    base: FamilyInstance | None = None,
    pairs=None,
    builder: BuilderConfig | None = None,
) -> list[SumIndexTranscript]:
    """Run the protocol on every (a, b) pair, or on the given pairs, against a
    single deleted graph. Hub mode builds that graph and its labeling once.
    Oracle mode builds no graph: it searches the base graph with the deleted
    vertices cut, once per run of consecutive pairs with one a, which is
    once per Alice vertex when pairs is None, and reads each pair's distance
    off that search's row."""
    gprime = build_instance_graph(inst, base=base)
    hub_build = _hub_build(gprime, mode, builder)
    if pairs is None:
        pairs = itertools.product(range(inst.m), repeat=2)
    if hub_build is not None:
        return [run_protocol(inst, a, b, gprime=gprime, hub_build=hub_build) for a, b in pairs]
    oracle = _Oracle(gprime).row_distance
    return [_play(inst, a, b, gprime, None, oracle) for a, b in pairs]


def measure_message_size(
    inst: SumIndexInstance, *, mode: str = "oracle", base: FamilyInstance | None = None
) -> tuple[int, float]:
    """(max, average) message size in bits over the 2m vertices whose labels
    a round sends, priced as run_protocol prices them; hub mode answers from
    the default build."""
    gprime = build_instance_graph(inst, base=base)
    hub_build = _hub_build(gprime, mode, None)
    sizes = [
        _message_bits(inst, gprime, hub_build, coord)
        for a in range(inst.m)
        for coord in _endpoints(inst.params, a, a)
    ]
    return max(sizes), sum(sizes) / len(sizes)
