"""Byte-identity contract for the builder.

SHA-256 digests of the label file text and of the sorted-key JSON report of
six small seeded builds. A refactor of the builder must leave every digest
unchanged; a deliberate change of output must update them together with a
note of why the output moved.
"""

import hashlib
import json

import pytest

from hublab.corpus import erdos_renyi_m, grid_graph, random_regular_graph
from hublab.family_gen import FamilyParams, build_H, expand_to_G
from hublab.graph_core import WeightedGraph
from hublab.hub_labeling import format_labels
from hublab.upperbound_builder import BuilderConfig, build_for_graph


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
