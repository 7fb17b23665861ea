import itertools
import random

import pytest

from hublab import graph_core
from hublab.family_gen import (
    FamilyParams,
    instance_from_files,
    read_metadata,
    unique_path_length,
    write_metadata,
)
from hublab.graph_core import UNREACHABLE, distance_between
from hublab.sumindex_protocol import (
    SumIndexInstance,
    build_base_graph,
    build_instance_graph,
    measure_message_size,
    repr_decode,
    repr_value,
    run_protocol,
    sweep,
)
from hublab.upperbound_builder import BuilderConfig, build_for_graph

P22 = FamilyParams(2, 2)


def test_instance_validation():
    with pytest.raises(ValueError):
        SumIndexInstance(P22, "10")  # m = 4
    with pytest.raises(ValueError):
        SumIndexInstance(P22, "10x0")
    assert SumIndexInstance(P22, "1010").m == 4


def test_instances_for_other_parameters_are_refused():
    inst = SumIndexInstance(FamilyParams(2, 3), "10" * 4)
    base22 = build_base_graph(P22)
    gprime22 = build_instance_graph(SumIndexInstance(P22, "1010"), base=base22)
    for call in (
        lambda: build_instance_graph(inst, base=base22),
        lambda: run_protocol(inst, 0, 1, gprime=gprime22),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert "b=2, ell=2)" in str(err.value) and "b=2, ell=3)" in str(err.value)


def test_repr_decode_values():
    assert repr_decode(0, P22) == (0, 0)
    assert repr_decode(3, P22) == (1, 1)  # 1 * 2^0 + 1 * 2^1
    assert repr_value((1, 1), P22) == 3


def test_repr_round_trip_and_homomorphism():
    for params in (P22, FamilyParams(1, 2), FamilyParams(2, 3)):
        m = (params.s // 2) ** params.ell
        for a in range(m):
            assert repr_value(repr_decode(a, params), params) == a
        half = params.s // 2
        for xs in itertools.product(range(half), repeat=params.ell):
            for zs in itertools.product(range(half), repeat=params.ell):
                s = tuple(x + z for x, z in zip(xs, zs))
                assert repr_value(s, params) == (repr_value(xs, params) + repr_value(zs, params)) % m


def test_repr_decode_range_error():
    with pytest.raises(ValueError):
        repr_decode(4, P22)
    with pytest.raises(ValueError):
        repr_decode(-1, P22)


def test_all_ones_keeps_everything():
    base = build_base_graph(P22)
    gp = build_instance_graph(SumIndexInstance(P22, "1111"), base=base)
    assert gp.graph.n == base.graph.n
    assert not gp.removed


def test_all_zeros_disconnects_endpoints():
    p = FamilyParams(1, 1)
    gp = build_instance_graph(SumIndexInstance(p, "0"))
    assert not any(c.level == 1 for c in gp.coord_to_id)
    u = gp.id_of(0, (0,))
    v = gp.id_of(2, (0,))
    assert distance_between(gp.graph, u, v) is UNREACHABLE


def test_bit_pattern_controls_surviving_mid_coords():
    base = build_base_graph(P22)
    gp = build_instance_graph(SumIndexInstance(P22, "1010"), base=base)
    survivors = {c.coords for c in gp.coord_to_id if c.level == 2}
    expected = {
        coords
        for coords in itertools.product(range(4), repeat=2)
        if repr_value(coords, P22) in (0, 2)
    }
    assert survivors == expected
    assert len(survivors) == 8  # each bit controls 2^ell mid vertices


def test_protocol_all_ones_decodes_one():
    base = build_base_graph(P22)
    inst = SumIndexInstance(P22, "1111")
    gp = build_instance_graph(inst, base=base)
    for a, b in [(0, 0), (1, 2), (3, 3)]:
        t = run_protocol(inst, a, b, gprime=gp)
        assert t.measured_dist == t.ideal_dist
        assert t.decoded == 1 == t.expected


def test_protocol_removed_midpoint_decodes_zero():
    base = build_base_graph(P22)
    inst = SumIndexInstance(P22, "0111")
    t = run_protocol(inst, 0, 0, gprime=build_instance_graph(inst, base=base))
    assert t.ideal_dist == 4 * 96
    assert t.measured_dist is UNREACHABLE or t.measured_dist > t.ideal_dist
    assert t.decoded == 0 == t.expected


def test_protocol_index_range_errors():
    inst = SumIndexInstance(P22, "1111")
    gp = build_instance_graph(inst)
    with pytest.raises(ValueError):
        run_protocol(inst, 4, 0, gprime=gp)
    with pytest.raises(ValueError):
        run_protocol(inst, 0, -1, gprime=gp)


def test_protocol_matches_lemma_length_formula():
    # v_{0,2x} to v_{2*ell,2z}: 2*ell*A + 2 * sum (z_i - x_i)^2
    assert unique_path_length(P22, (0, 2), (2, 2)) == 4 * 96 + 2 * 1
    assert unique_path_length(FamilyParams(1, 1), (0,), (2,)) == 2 * 12 + 2
    inst = SumIndexInstance(P22, "1111")
    t = run_protocol(inst, 2, 3, gprime=build_instance_graph(inst))  # x = (0, 1), z = (1, 1)
    assert t.ideal_dist == t.measured_dist == 4 * 96 + 2 * 1


def test_hub_mode_small_instance():
    p = FamilyParams(1, 1)
    for bits, expected in (("1", 1), ("0", 0)):
        inst = SumIndexInstance(p, bits)
        gp = build_instance_graph(inst)
        hub_build = build_for_graph(gp.graph, BuilderConfig(seed=2))
        t = run_protocol(inst, 0, 0, gprime=gp, hub_build=hub_build)
        assert t.decoded == expected == t.expected
        assert t.alice_label_bits > 0 and t.bob_label_bits > 0


def test_message_size_measurement():
    p = FamilyParams(1, 1)
    inst = SumIndexInstance(p, "1")
    mx, avg = measure_message_size(inst, mode="oracle")
    assert mx >= avg > 0
    mx_hub, avg_hub = measure_message_size(inst, mode="hub")
    assert mx_hub >= avg_hub > 0
    assert mx_hub < mx  # hub labels beat shipping a distance table here
    # Oracle messages cost what every protocol round charges.
    for case in (inst, SumIndexInstance(FamilyParams(2, 1), "10")):
        transcripts = sweep(case)
        p = transcripts[0].alice_label_bits
        assert all(t.alice_label_bits == p for t in transcripts)
        assert measure_message_size(case, mode="oracle") == (p, p)


@pytest.mark.parametrize("b, ell, want", [(1, 1, 445), (2, 1, 10_099), (1, 2, 4_676)])
def test_hub_message_size_prices_only_sent_labels(b, ell, want):
    # A round sends the labels of v_{0,2x} and v_{2ell,2z} only; the other
    # end-level vertices may hold larger labels.
    p = FamilyParams(b, ell)
    inst = SumIndexInstance(p, "1" * (p.s // 2) ** ell)
    sent = max(max(t.alice_label_bits, t.bob_label_bits) for t in sweep(inst, mode="hub"))
    assert measure_message_size(inst, mode="hub")[0] == sent == want


def test_oracle_message_size_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle pricing ran a search")

    monkeypatch.setattr(graph_core, "_distances", refuse)
    assert measure_message_size(SumIndexInstance(FamilyParams(1, 1), "1")) == (631, 631)


def test_sweep_small_exhaustive():
    p = FamilyParams(1, 2)  # m = 1, tiny
    inst = SumIndexInstance(p, "1")
    transcripts = sweep(inst)
    assert len(transcripts) == 1
    assert all(t.decoded == t.expected for t in transcripts)


@pytest.mark.parametrize("run", [sweep, measure_message_size])
def test_unknown_mode_rejected(run):
    with pytest.raises(ValueError, match="unknown labeling mode"):
        run(SumIndexInstance(FamilyParams(1, 1), "1"), mode="exact")


@pytest.mark.parametrize("bits", ["1001", "0000"])  # "0000" disconnects every pair
def test_oracle_sweep_searches_once_per_alice_vertex(monkeypatch, bits):
    inst = SumIndexInstance(P22, bits)
    base = build_base_graph(P22)
    gp = build_instance_graph(inst, base=base)
    want = [run_protocol(inst, a, b, gprime=gp) for a, b in itertools.product(range(4), repeat=2)]
    sources = []
    real = graph_core.CutSearch.distances_from

    def counted(search, src):
        sources.append(src)
        return real(search, src)

    # The sweep searches the base graph, from Alice's base vertex.
    monkeypatch.setattr(graph_core.CutSearch, "distances_from", counted)
    assert sweep(inst, base=base) == want
    assert sorted(sources) == sorted({base.coord_to_id[t.alice_vertex] for t in want})
    # Pairs out of (a, b) order search again when Alice's vertex changes.
    sources.clear()
    pairs = [(0, 1), (1, 1), (0, 2)]
    got = sweep(inst, base=base, pairs=pairs)
    assert got == [want[4 * a + b] for a, b in pairs] and len(sources) == 3


@pytest.mark.parametrize("params", [FamilyParams(2, 1), P22], ids=["G'(2,1)", "G'(2,2)"])
def test_cut_search_rounds_match_the_built_graph(tmp_path, params):
    m = (params.s // 2) ** params.ell
    rng = random.Random(5)
    base = build_base_graph(params)
    pairs = list(itertools.product(range(m), repeat=2))
    for bits in ["0" * m, "1" * m] + ["".join(rng.choices("01", k=m)) for _ in range(4)]:
        inst = SumIndexInstance(params, bits)
        gp = build_instance_graph(inst, base=base)
        rounds = [run_protocol(inst, a, b, gprime=gp) for a, b in pairs]
        assert sweep(inst, base=base) == rounds
        for t in rounds:
            u, v = gp.coord_to_id[t.alice_vertex], gp.coord_to_id[t.bob_vertex]
            assert t.measured_dist == distance_between(gp.graph, u, v)
        if "1" not in bits:
            assert all(t.measured_dist is UNREACHABLE for t in rounds)
        # A G' read from files has no base and searches its own graph.
        write_metadata(gp, tmp_path / "meta.json")
        loaded = instance_from_files(gp.graph, read_metadata(tmp_path / "meta.json"))
        assert loaded.base is None
        assert [run_protocol(inst, a, b, gprime=loaded) for a, b in pairs] == rounds


@pytest.mark.parametrize("bits", ["1001", "1111"])
def test_oracle_mode_builds_no_deleted_graph(monkeypatch, bits):
    inst = SumIndexInstance(P22, bits)
    base = build_base_graph(P22)
    gp = build_instance_graph(inst, base=base)
    search_matrix = graph_core._search_matrix

    def refuse(*args):
        raise AssertionError("oracle mode built a graph")

    # From here on, only the base graph may have its search CSR built.
    monkeypatch.setattr(graph_core.WeightedGraph, "__init__", refuse)
    monkeypatch.setattr(
        graph_core, "_search_matrix", lambda g: search_matrix(g) if g is base.graph else refuse()
    )
    assert run_protocol(inst, 3, 1, gprime=gp).decoded == int(bits[0])
    assert len(sweep(inst, base=base)) == 16
    assert measure_message_size(inst, base=base)[0] > 0
    assert gp.graph is base.graph if bits == "1111" else gp._graph is None
