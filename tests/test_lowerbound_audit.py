import pytest
from conftest import baseline_full, labeling

from hublab.family_gen import (
    FamilyParams,
    build_H,
    delete_level_mid,
    expand_to_G,
    unique_path_length,
)
from hublab.graph_core import all_pairs
from hublab.lowerbound_audit import (
    audit_counting,
    audit_lemma1,
    counting_rhs,
    parity_pairs,
)
from hublab.upperbound_builder import BuilderConfig, build_for_graph


def test_parity_pair_counts():
    assert len(list(parity_pairs(FamilyParams(1, 1)))) == 2
    assert len(list(parity_pairs(FamilyParams(2, 1)))) == 8
    assert len(list(parity_pairs(FamilyParams(1, 2)))) == 4
    assert len(list(parity_pairs(FamilyParams(2, 2)))) == 64


def test_expected_length_symmetric_case():
    p = FamilyParams(2, 2)
    assert unique_path_length(p, (1, 3), (1, 3)) == 2 * 2 * 96
    assert unique_path_length(p, (1, 0), (3, 2)) == 4 * 96 + 4


def test_audit_smallest_exhaustive():
    rep = audit_lemma1(build_H(FamilyParams(1, 1)))
    assert rep.checked == 2
    assert rep.passed and not rep.failures


@pytest.mark.parametrize("sample", [0, -3])
def test_audit_rejects_empty_sample(sample):
    with pytest.raises(ValueError, match="sample must be at least 1"):
        audit_lemma1(build_H(FamilyParams(1, 1)), sample=sample)


def test_audit_figure_instance():
    rep = audit_lemma1(build_H(FamilyParams(2, 2)))
    assert rep.checked == 64
    assert rep.passed


def test_audit_expanded_instance():
    rep = audit_lemma1(expand_to_G(build_H(FamilyParams(1, 1))))
    assert rep.checked == 2 and rep.passed


def test_audit_sampled_mode_reproducible():
    inst = build_H(FamilyParams(2, 2))
    a = audit_lemma1(inst, sample=10, seed=3)
    b = audit_lemma1(inst, sample=10, seed=3)
    assert a == b
    assert a.checked == 10 and a.passed


def test_audit_rejects_deleted_instances():
    g = expand_to_G(build_H(FamilyParams(1, 1)))
    gp = delete_level_mid(g, lambda c: True)
    with pytest.raises(ValueError):
        audit_lemma1(gp)


def test_counting_rhs_values():
    assert counting_rhs(FamilyParams(2, 2)) == 64
    assert counting_rhs(FamilyParams(1, 1)) == 2
    assert counting_rhs(FamilyParams(2, 1)) == 8


def test_counting_baseline_trivially_passes():
    inst = expand_to_G(build_H(FamilyParams(1, 1)))
    hl = baseline_full(all_pairs(inst.graph))
    rep = audit_counting(inst, hl)
    assert rep.passed and rep.lhs >= rep.rhs == 2
    assert rep.triplets == 2


def test_counting_pipeline_output_passes():
    inst = expand_to_G(build_H(FamilyParams(1, 1)))
    res = build_for_graph(inst.graph, BuilderConfig(seed=3))
    rep = audit_counting(inst, res.labeling)
    assert rep.passed


def test_counting_rejects_invalid_labeling():
    inst = build_H(FamilyParams(1, 1))
    bad = labeling(inst.graph.n, [[(v, 0)] for v in range(inst.graph.n)])
    with pytest.raises(ValueError):
        audit_counting(inst, bad)
