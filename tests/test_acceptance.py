"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive artifacts
(the b=2, ell=2 expansion and the 51-graph pipeline corpus) are built once
per session.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import (
    baseline_full,
    corpus_entries,
    is_unique_shortest_path,
    monotone_coordinate_window,
    path_weight,
)

from hublab.corpus import erdos_renyi_m
from hublab.family_gen import (
    FamilyParams,
    build_H,
    expand_to_G,
    write_metadata,
)
from hublab.graph_core import (
    all_pairs,
    distance_between,
    distances_from,
    write_graph,
)
from hublab.hub_labeling import format_labels, verify_cover
from hublab.lowerbound_audit import audit_counting, audit_lemma1, counting_rhs
from hublab.sumindex_protocol import (
    SumIndexInstance,
    build_base_graph,
    build_instance_graph,
    run_protocol,
    sweep,
)
from hublab.upperbound_builder import BuilderConfig, build_for_graph


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


# -- shared instances ---------------------------------------------------------


@pytest.fixture(scope="session")
def h22():
    return build_H(FamilyParams(2, 2))


@pytest.fixture(scope="session")
def g22(h22):
    return expand_to_G(h22)


@pytest.fixture(scope="session")
def g11():
    return expand_to_G(build_H(FamilyParams(1, 1)))


# -- criteria -----------------------------------------------------------------


def test_criterion_1_figure_reproduction(h22):
    with criterion(1, "figure instance: 4A+4 unique blue path vs 4A+8 red path"):
        t0 = time.perf_counter()
        g = h22.graph
        u, v = h22.id_of(0, (1, 0)), h22.id_of(4, (3, 2))
        mid = h22.id_of(2, (2, 1))
        dists = distances_from(g, u)
        assert int(dists[v]) == 388 == 4 * 96 + 4
        unique, path = is_unique_shortest_path(None, g, u, v)
        assert unique and mid in path
        red = [
            h22.id_of(0, (1, 0)),
            h22.id_of(1, (3, 0)),
            h22.id_of(2, (3, 2)),
            h22.id_of(3, (3, 2)),
            h22.id_of(4, (3, 2)),
        ]
        assert path_weight(g, red) == 392 == 4 * 96 + 8
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_lemma1_exhaustive(g22):
    with criterion(2, "unique midpoint paths on every instance, zero failures"):
        t0 = time.perf_counter()
        expected_counts = {(1, 1): 2, (1, 2): 4, (2, 1): 8, (2, 2): 64}
        for (b, ell), count in expected_counts.items():
            h = build_H(FamilyParams(b, ell))
            rep = audit_lemma1(h)
            assert rep.checked == count and rep.passed, (b, ell, rep.failures[:3])
            if (b, ell) != (2, 2):
                rep = audit_lemma1(expand_to_G(h))
                assert rep.checked == count and rep.passed
        rep = audit_lemma1(g22, sample=64)
        assert rep.checked == 64 and rep.passed
        assert time.perf_counter() - t0 < 600.0


def test_criterion_3_expansion_fidelity(h22, g22):
    with criterion(3, "expansion preserves edge weights and monotone-window distances"):
        for b, ell in ((1, 1), (2, 1)):
            h = build_H(FamilyParams(b, ell))
            g = expand_to_G(h)
            dmh = all_pairs(h.graph)
            for u, v, w in h.graph.edges:
                assert distance_between(g.graph, u, v) == w
            inv = {i: c for c, i in h.coord_to_id.items()}
            for u in sorted(h.coord_to_id.values()):
                dg = distances_from(g.graph, u)
                for v in sorted(h.coord_to_id.values()):
                    if inv[u].level < inv[v].level:
                        assert int(dg[v]) == int(dmh.matrix()[u, v])
        # b = ell = 2: every subdivided edge plus 500+ cross-level pairs in
        # the monotone window
        dmh = all_pairs(h22.graph)
        inv = {i: c for c, i in h22.coord_to_id.items()}
        ell = 2
        rows = {}
        for u in sorted(h22.coord_to_id.values()):
            rows[u] = distances_from(g22.graph, u)
        for u, v, w in h22.graph.edges:
            assert int(rows[u][v]) == w
        checked = 0
        for u in sorted(h22.coord_to_id.values()):
            cu = inv[u]
            for v in sorted(h22.coord_to_id.values()):
                cv = inv[v]
                if cu.level >= cv.level:
                    continue
                diff = {k + 1 for k in range(ell) if cu.coords[k] != cv.coords[k]}
                if diff <= monotone_coordinate_window(cu.level, cv.level, ell):
                    assert int(rows[u][v]) == int(dmh.matrix()[u, v])
                    checked += 1
        assert checked >= 500


def test_criterion_4_pipeline_validity_on_corpus(corpus_results):
    with criterion(4, "pipeline produces valid covers on the whole corpus"):
        assert len(corpus_results) >= 50
        classes = {name.split("-")[0] for name, _, _ in corpus_results}
        assert {"3reg", "er", "grid", "path", "G11", "G21"} <= classes
        reduced_runs = 0
        for name, cfg, res in corpus_results:
            assert res.report.cover.valid, name
            assert res.report.ledger.bound_ok, name
            assert verify_cover(res.labeling, res.dm).valid, name
            if res.report.reduced:
                reduced_runs += 1
        assert reduced_runs >= 10  # the sparse random class exercises reduction


def test_criterion_5_induced_matching_invariant(corpus_results):
    with criterion(5, "every bucket matching is induced within its color class"):
        # build_matchings re-checks the invariant on every run and raises on
        # violation, so completing all corpus builds certifies zero violations
        for name, _, res in corpus_results:
            assert res.artifacts.matchings_log is not None, name


def test_criterion_6_resampling_bounds(corpus_results):
    with criterion(6, "accepted samples satisfy the 2n^2/D budgets exactly"):
        for name, cfg, res in corpus_results:
            rep = res.report
            stage_n = rep.reduced["n"] if rep.reduced else rep.n
            d = rep.D
            assert rep.q_forced == 0, name
            assert rep.q_random * d <= 2 * stage_n * stage_n, name
            assert rep.q_total * d <= 2 * stage_n * stage_n, name
            assert rep.r_total * d <= 2 * stage_n * stage_n, name


def test_criterion_7_counting_floor(h22, g11):
    with criterion(7, "closure counting floor and 100% triplet membership"):
        # b = ell = 2 level instance: floor is 64
        dm = all_pairs(h22.graph)
        assert counting_rhs(h22.params) == 64
        for hl in (
            baseline_full(dm),
            build_for_graph(h22.graph, BuilderConfig(seed=2)).labeling,
        ):
            rep = audit_counting(h22, hl)
            assert rep.rhs == 64
            assert rep.lhs >= 64
            assert not rep.membership_failures
            assert rep.triplets == 64
        # degree-3 expansion pathway at b = ell = 1
        dm11 = all_pairs(g11.graph)
        for hl in (
            baseline_full(dm11),
            build_for_graph(g11.graph, BuilderConfig(seed=3)).labeling,
        ):
            rep = audit_counting(g11, hl)
            assert rep.passed and rep.rhs == 2


def test_criterion_8_protocol_correctness():
    with criterion(8, "sum-index decoding: 256 exhaustive + 500 sampled runs"):
        t0 = time.perf_counter()
        params = FamilyParams(2, 2)
        base = build_base_graph(params)
        runs = 0
        for bits_tuple in itertools.product("01", repeat=4):
            inst = SumIndexInstance(params, "".join(bits_tuple))
            for t in sweep(inst, base=base):
                assert t.decoded == t.expected, (inst.bits, t.a, t.b)
                runs += 1
        assert runs == 256
        params3 = FamilyParams(2, 3)
        base3 = build_base_graph(params3)
        rng = np.random.default_rng(20260810)
        sampled = 0
        for _ in range(50):
            bits = "".join(rng.choice(["0", "1"], size=8))
            inst = SumIndexInstance(params3, bits)
            gp = build_instance_graph(inst, base=base3)
            for _ in range(10):
                a = int(rng.integers(8))
                b = int(rng.integers(8))
                t = run_protocol(inst, a, b, gprime=gp)
                assert t.decoded == t.expected, (bits, a, b)
                sampled += 1
        assert sampled == 500
        assert time.perf_counter() - t0 < 600.0


def test_criterion_9_determinism(tmp_path, corpus_results):
    with criterion(9, "same seed reproduces byte-identical labels and reports"):
        g = erdos_renyi_m(150, 300, seed=17)
        cfg = BuilderConfig(D=3, seed=23)
        a = build_for_graph(g, cfg)
        b = build_for_graph(g, cfg)
        assert format_labels(a.labeling) == format_labels(b.labeling)
        assert a.report.to_dict() == b.report.to_dict()
        # generated instance files are byte-identical
        inst1 = expand_to_G(build_H(FamilyParams(1, 2)))
        inst2 = expand_to_G(build_H(FamilyParams(1, 2)))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_graph(inst1.graph, p1)
        write_graph(inst2.graph, p2)
        write_metadata(inst1, tmp_path / "a.meta")
        write_metadata(inst2, tmp_path / "b.meta")
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.meta").read_bytes() == (tmp_path / "b.meta").read_bytes()
        # protocol sweeps reproduce transcript for transcript
        inst = SumIndexInstance(FamilyParams(2, 2), "1001")
        assert sweep(inst) == sweep(inst)
        # and one corpus rebuild reproduces its recorded run
        name, cfg0, res0 = corpus_results[2]
        res1 = build_for_graph(corpus_entries()[2][1](), cfg0)
        assert format_labels(res1.labeling) == format_labels(res0.labeling)
