"""Byte-identity contract for the builder.

SHA-256 digests of the label file text and of the sorted-key JSON report of
six small seeded builds, and of the label file text of every build in the
acceptance corpus. A refactor of the builder must leave every digest
unchanged; a deliberate change of output must update them together with a
note of why the output moved.
"""

import hashlib
import json

import pytest
from conftest import baseline_full

from hublab.corpus import erdos_renyi_m, grid_graph, random_regular_graph, star_graph
from hublab.family_gen import FamilyParams, build_H, expand_to_G, write_metadata
from hublab.graph_core import WeightedGraph, all_pairs, write_graph
from hublab.hub_labeling import format_labels, monotone_closure
from hublab.sumindex_protocol import SumIndexInstance, build_instance_graph
from hublab.upperbound_builder import BuilderConfig, build_for_graph, reduce_degree


def _disconnected() -> WeightedGraph:
    a = random_regular_graph(20, 3, seed=3)
    b = random_regular_graph(16, 3, seed=4)
    edges = list(a.edges) + [(u + 20, v + 20, w) for u, v, w in b.edges]
    return WeightedGraph(38, edges)  # vertices 36 and 37 are isolated


CASES = {
    "3reg": (lambda: random_regular_graph(60, 3, seed=1), BuilderConfig(seed=1)),
    "sparse-reduced": (lambda: erdos_renyi_m(80, 160, seed=2), BuilderConfig(seed=3)),
    "H21-forced": (lambda: build_H(FamilyParams(2, 1)).graph, BuilderConfig(D=3, seed=1)),
    "grid6x6-D1": (lambda: grid_graph(6, 6), BuilderConfig(D=1, seed=2)),
    "disconnected": (_disconnected, BuilderConfig(D=2, seed=5)),
    "G11": (lambda: expand_to_G(build_H(FamilyParams(1, 1))).graph, BuilderConfig(seed=4)),
}

# Recorded before the builder's stages were merged into one implementation
# each: (label file digest, report digest).
GOLDEN = {
    "3reg": (
        "79924bc6add880bac0aa742f89e09a2f539c3ce1e5e8d05e52f72a7e68a2a06d",
        "220302790577d6806b16f65a9b5b03b3751c9be8ce2a1289760f83f028197090",
    ),
    "sparse-reduced": (
        "f2ec2f12779f0965db9133af2bad1c63fb6317bf989419f2d9dbc11df5a508aa",
        "f7c14c622665f154e80ddde770f1308b91e6abcf7896697d108d0b9046aacfa2",
    ),
    "H21-forced": (
        "8306ecd9a46dfc92b115bb87a2ada3671c9569bc6d3de2581a08ce24e0dabd5f",
        "01d48647acefa029dd1c62a4101d418fa44bcf2e857e0277ea87e7290be80a3e",
    ),
    "grid6x6-D1": (
        "73e5e0377a57420ce1acaaa0e3b56200efd06755d0b8438edf9e630bcf68df31",
        "492ace87aafaf34c337ece6ea16fba5bba5296f6d87bd8999c224eb81b5c8f6c",
    ),
    "disconnected": (
        "4ed70cb86532aaf19f50d98ea196953d4e77e2cd3ca06dec3db7f81b919095ab",
        "1e26e39bbccce679fe38638616bbd6c0392d4c204eb379c36d20405fcf0259dd",
    ),
    "G11": (
        "b767558216615406b3e77c9b0d8634e0df8515199438e565658d06a5ac27c6f5",
        "f15e93ffbd26d063bc7a6d8482d2e5554ad4f05059a263ca02e9ce4d377cabd3",
    ),
}


# SHA-256 of the label file text of every build in the acceptance corpus
# (conftest.corpus_entries), recorded before labelings were stored as arrays.
CORPUS_LABELS = {
    "3reg-20": "ea6399f03f7e70a1d878c7cfbae01cd2f39dc0b2fadea83da82e37713b28c852",
    "3reg-40": "0d6035bda1f74f71f224d7517d6ff079b9de5419cd5f1b67b05da366b3aa6e4a",
    "3reg-60": "13743f31b85c8bee79df6b3f125b1271741982eeae2ef35b9fddba47b970b764",
    "3reg-80": "9dccb9a9d9446f7243906f871c19dc221f8a65202d1cb03c51ea170fdf32f2ad",
    "3reg-120": "213499df3a8233dacd6ad0af699a9d49ef3699b540f35d8f99d73a978db486a3",
    "3reg-160": "c86d2ce832a14ecc49ef462d864a632d37b44f6c89072fe5f74e1cb1914ecf94",
    "3reg-200": "500cacdd64b42625a1a7e7937ac7ed90be74c43d261456a7292465189b362466",
    "3reg-300": "5b57a816bfdc4b5b975e1e3f1cfca0ed53ff0e204e12e2f2173b45e318b5de76",
    "3reg-400": "f5ffd5c834879433fa9bb3c9b4f2553c34538004a045c40aa69869948df197f0",
    "3reg-600": "3cc3af67276c137d158c50b45fce97e6f96130ebb4a4f223b18bf21289eb405b",
    "3reg-50b": "b3801d1295a8f5ecbadbcd5b9cca6c8027d0a9b735e88c1d473d83f2d4dbc2e6",
    "3reg-50c": "3f326d59572b3dcfd115fce2acd9c1ad012efb7cda5f05163398b6de50da9dcb",
    "3reg-100b": "2843a39984c543be426481a1fc6750de896378e4026b96cc9f180f417556d6c8",
    "3reg-200-D5": "6f0baf8d6ff8db07fe5ae54d605faff45e37a0626e4aede5d5969d11c89dc38b",
    "3reg-2000": "1048c2dd96526e4e0dddc6ee7ca6073780a5c939f5932cf8035830c295192734",
    "er-20": "d8ba0abe0f35f16f7617ed8e020c9ee6b8f235453f3f6bce225465f23ce5fc7f",
    "er-50": "489e5ef6e3a9809e26abe4c03dd73459c5dfdc5d1d81fbca5a3e1c307a25aa07",
    "er-80": "fc5c3df90217e79a1296b09cc0d7915891e50e4965de213369b5cd32c1b87201",
    "er-120": "6b63d6ed12dd7e4d64c786e0bb708b34b6e037dbad7ec3ad5b6cf3ecfb1f2dc5",
    "er-200": "e239c9390854fb9a76c3b0d8291eb7cf1274a7af87d6b56721d608558e7a54c8",
    "er-300": "a851753c7cba0cb1be81db0512a579ffe4cea4d45afec4214e58f32fb356c269",
    "er-400": "c893bb6c4283df27b7741dac099ead4e236de41e35483e17218d028430846c1f",
    "er-600": "66485673778d0f3acf818acd9a7e69905e369719f053367e7cdc1ecbc0fffe78",
    "er-20b": "894e129cdf31e18392d6c5da780bcc53d693027abc14a1222f8178a545ff67a7",
    "er-50b": "4f2a697954db237c453004fcb980cbdb80764fc755f312399c6dcfcb19591f7e",
    "er-80b": "189e104210a34d08a6f6f6a712fdec3eb514bc57d249e1e5af77cefe748d3ac6",
    "er-120b": "95de1557d10b86fd30699f8dd6eac62243a042935298d2bbebe81b7d6413cc59",
    "er-100-D2": "a436b840a3e377e46bbdd1e2379c6b62e166c6e29db09465360e220bc1b0c7d7",
    "er-2000": "338c94d8382f4aeb7d8ddb63b0b9d8f8d51b24c59bbe7db29fd6bfafc94c96b2",
    "grid-3x3": "9053740ef22bebc9ebc54fa8d7ea237cd0e70a16cbb1e01a9e4745dae14163e4",
    "grid-4x4": "08ab67358ce1018c281a45b02ba706a704a7bea758f63cc35a09fbdfc786617e",
    "grid-5x5": "74298b8d7abbdb8241414f6e15b737edeb85aa16587992998f317a991f31b6f0",
    "grid-6x6": "db9ac893fedeeee3ccc2b1e4edf08f290bbe7313a419525f4e637c3252419222",
    "grid-7x7": "6b39a61753720a65b6a3edfe93690aefbc1677a9e915302a931a12fb9dc6cbfd",
    "grid-8x8": "3809cf8ddd67144b4208ebff4f57f72f4d27426f4847d9c81f4d5aa926bcddb7",
    "grid-10x10": "2774907821e4fa71ae384bbe8f4662ba7c62fbe8d81c26a628a3797ea7d0d2e9",
    "grid-12x12": "c225488c4828d84ec3760cadb46e84ee002a46ba8fbb2cd3cad4f4f78dd61a23",
    "grid-15x15": "345d07d97bbfd4ef32e8d22a6fc21d0cf5a4318e627e5893bf31e075a4bd52b7",
    "grid-20x20": "542726e302295716f416bf0de160bd36ccece71ae4302c75ecd6159fa470ade3",
    "path-2": "572b0e88c986eb7d7b5e3ea478eb268cb469d2fba6c4773a566f0bed22a08e4c",
    "path-3": "cd6bc1e2521feb7ae00f75af5ddbf2c3e522aeccaff52ca0811b267790734db8",
    "path-5": "b96ba81e90f18b8e23d59b6dc89213c22eb5af4c87043eb24d0197e2f27c2fd7",
    "path-8": "ff6aa1f2b0e0b0d79b243ccd7891305c55c5981ea340a07837b21805d3eebca5",
    "path-13": "e8f083da84d2b2b27f7054f18196dd36590bb33ba46143b1c1a65c7a9f3a940b",
    "path-21": "0e24edd1113f0292099677c4c6a4a1d89222e925b96bce2cdae831038456092b",
    "path-34": "d5d566fdad17e5e988c276257dfa2c8bb9fd930490fb3ce96a1dec35e08a41dd",
    "path-55": "d4b537f529db67bcf560864c880528e69ec7502864c8eedd72848d0ea2cdb236",
    "path-89": "c2635016db8fc72340b36406abaadfdb9a942423897558630db73525048528ad",
    "path-144": "f8330083696675eca6530d0eb3778c8eff4a88b579aca4a1592eb33d761e88bb",
    "G11": "2c3186ee925d342657a5d6779f5d60087c2fb7506afedadca5b0b52baeef5282",
    "G21": "2d3bdbf53417b977d99db9883625e7ee293b49ac37b3198c20f63fc2b69ed930",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_digests(name: str) -> tuple[str, str]:
    make, cfg = CASES[name]
    res = build_for_graph(make(), cfg)
    labels = _digest(format_labels(res.labeling))
    report = _digest(json.dumps(res.report.to_dict(), sort_keys=True))
    return labels, report


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_build_digests(name):
    assert build_digests(name) == GOLDEN[name]


def test_golden_cases_cover_their_paths():
    # each case keeps exercising the builder path it was chosen for
    assert build_for_graph(CASES["sparse-reduced"][0](), CASES["sparse-reduced"][1]).report.reduced
    h21 = build_for_graph(CASES["H21-forced"][0](), CASES["H21-forced"][1])
    assert h21.report.q_forced > 0
    assert CASES["grid6x6-D1"][1].D == 1


# SHA-256 of the sorted-key JSON of every build's stage outputs: S, the
# (owner, member) rows of Q, R and F in ascending order, the colors, and the
# matchings log as ascending [a, b, h, size] rows. Recorded while the stages
# still passed dicts of frozensets, so they guard the stage sets themselves,
# not only their union in the labels.
STAGES = {
    "3reg": "e7bf093af345f045c596b5a859b4e23a85c984fafde88b03746cab8b22271cba",
    "G11": "62122eaeaab4dfacbb8da4aaa5bbd839652e6dedaab1156b6b9e6d95a4c837c2",
    "H21-forced": "4bc4c895c7f2b33189326637a7d9fad36121d2d74cd88081101d1b6926953f05",
    "disconnected": "037f0afc9c6276ca99e8ba0c396e671221d654db9c71b2401577cec24f2cc90c",
    "grid6x6-D1": "6eac672ce30b7492019da72cc4d672445558b518017892f47ac0815c06f115c9",
    "sparse-reduced": "97a936bf53e91f0e3c284a6e09e4695cc27ef4a2c03243956d600f24d0d3c25e",
}


def stage_digest(name: str) -> str:
    make, cfg = CASES[name]
    a = build_for_graph(make(), cfg).artifacts
    doc = {key: getattr(a, key).tolist() for key in ("S", "Q", "R", "F", "colors")}
    doc["matchings_log"] = sorted([*key, size] for key, size in a.matchings_log.items())
    return _digest(json.dumps(doc, sort_keys=True))


@pytest.mark.parametrize("name", sorted(STAGES))
def test_golden_stage_digests(name):
    assert stage_digest(name) == STAGES[name]


# SHA-256 of the label file text of monotone closures, recorded while the
# closure still walked one tuple-based tree object per root.
CLOSURES = {
    "3reg": "90ca734887b5f72ec96f496aa049e1c693a74c30c3f724b891478bca8405afe6",
    "disconnected": "4e8ea1bb19f529baa77d904394aaa2b8daed970accd70376bea54ff9df9323f0",
    "baseline-H22": "69d88d32a5b00d665701fdba0ef20e7386b7348d919dcdd23de03569ec6d971c",
    "star9-reduced": "c01803ae6077230509f77c10b1f3b27f4fa7f2e8c841974060ba61ebee23b09b",
}


def closure_digest(name: str) -> str:
    if name == "baseline-H22":
        g = build_H(FamilyParams(2, 2)).graph
        hl = baseline_full(all_pairs(g))
    elif name == "star9-reduced":
        g = reduce_degree(star_graph(9))[0]  # zero-weight chains
        hl = build_for_graph(g, BuilderConfig(seed=1)).labeling
    else:
        make, cfg = CASES[name]
        g = make()
        hl = build_for_graph(g, cfg).labeling
    return _digest(format_labels(monotone_closure(hl, all_pairs(g))))


@pytest.mark.parametrize("name", sorted(CLOSURES))
def test_golden_closure_digests(name):
    assert closure_digest(name) == CLOSURES[name]


def test_golden_corpus_label_digests(corpus_results):
    got = {name: _digest(format_labels(res.labeling)) for name, _, res in corpus_results}
    assert got == CORPUS_LABELS


# SHA-256 of the write_graph and write_metadata text of generated instances,
# recorded while mid-level deletion still looked up each removed vertex's
# trees and subdivided edges in per-vertex and per-edge lists:
# (graph file digest, metadata file digest).
INSTANCES = {
    "G12": (
        "65fd31198e49874c3993a4f89d84b1cfd7cdcfa14d056f5809b74f0b25ea96e7",
        "8fe557c77ececfcd5a5ff07543bc7dccc3cb36d1be13f5447d3d6779f94b233d",
    ),
    "G22": (
        "7f28e209c018ce2eb3d26b0a3a9bf63a76c04159f89e4494617a43cf4cc38bef",
        "7a210ff34777cb048fd0135acef61173a560b35a9f9dd92241b8ca0e51c275d5",
    ),
    "G'22-1111": (
        "7f28e209c018ce2eb3d26b0a3a9bf63a76c04159f89e4494617a43cf4cc38bef",
        "8cd1531169471a4e736d396820055552f2c1b211a53756894f52f3ea3106e221",
    ),
    "G'22-1001": (
        "cc64fa80a68df07a5f058080cbdcb1e497c8c9fa99f299d1710a8f84339a69d5",
        "03618acfae8f1b7f1f7d4dbf4e03d0e26d3f9a195fc4fc94ed89530775803834",
    ),
}


@pytest.fixture(scope="module")
def g22_instance():
    return expand_to_G(build_H(FamilyParams(2, 2)))


def _instance(name: str, g22):
    if name == "G12":
        return expand_to_G(build_H(FamilyParams(1, 2)))
    if name == "G22":
        return g22
    bits = name.rpartition("-")[2]
    return build_instance_graph(SumIndexInstance(FamilyParams(2, 2), bits), base=g22)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_golden_instance_file_digests(name, g22_instance, tmp_path):
    inst = _instance(name, g22_instance)
    write_graph(inst.graph, tmp_path / "g.txt")
    write_metadata(inst, tmp_path / "g.meta.json")
    got = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("g.txt", "g.meta.json")
    )
    assert got == INSTANCES[name]
