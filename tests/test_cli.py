import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from conftest import baseline_full

from hublab.cli import build_parser, main
from hublab.corpus import random_regular_graph
from hublab.family_gen import FamilyParams, build_H
from hublab.graph_core import WeightedGraph, all_pairs, read_graph, write_graph
import hublab
from hublab.hub_labeling import read_labels, write_labels
from hublab.upperbound_builder import (
    CoverVerificationError,
    InducedMatchingViolation,
    ResampleExhausted,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_volatile(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out.pop("timestamp", None)
    out.pop("timing", None)
    for row in out.get("rows", []):
        row.pop("wall_time_s", None)
    return out


def test_gen_smallest_instance(capsys, tmp_path):
    out_path = tmp_path / "h.txt"
    code, out = run_cli(capsys, "gen", "--kind", "H", "--b", "1", "--ell", "1", "--out", str(out_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 6 and rep["m"] == 8
    g = read_graph(out_path)
    assert g.n == 6 and g.m == 8
    assert (tmp_path / "h.txt.meta.json").exists()


def test_gen_deleted_variant(capsys, tmp_path):
    remove = tmp_path / "remove.txt"
    remove.write_text("0\n# comment\n1\n")
    out_path = tmp_path / "gp.txt"
    code, out = run_cli(
        capsys, "gen", "--kind", "Gprime", "--b", "1", "--ell", "1",
        "--remove-file", str(remove), "--out", str(out_path),
    )
    assert code == 0
    meta = json.loads((tmp_path / "gp.txt.meta.json").read_text())
    assert meta["kind"] == "G_prime"
    assert sorted(meta["removed"]) == ["1:0", "1:1"]


def test_verify_baseline_labels_exit_zero(capsys, tmp_path):
    inst = build_H(FamilyParams(1, 1))
    gpath, lpath = tmp_path / "g.txt", tmp_path / "l.txt"
    write_graph(inst.graph, gpath)
    write_labels(baseline_full(all_pairs(inst.graph)), lpath)
    code, out = run_cli(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_verify_invalid_labels_exit_one(capsys, tmp_path):
    inst = build_H(FamilyParams(1, 1))
    gpath, lpath = tmp_path / "g.txt", tmp_path / "l.txt"
    write_graph(inst.graph, gpath)
    lpath.write_text("".join(f"{v}: ({v},0)\n" for v in range(inst.graph.n)))
    code, out = run_cli(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_build_verify_round_trip(capsys, tmp_path):
    inst = build_H(FamilyParams(1, 1))
    gpath = tmp_path / "g.txt"
    write_graph(inst.graph, gpath)
    lpath = tmp_path / "labels.txt"
    rpath = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "build", "--graph", str(gpath), "--D", "3", "--seed", "4",
        "--out", str(lpath), "--report", str(rpath),
    )
    assert code == 0
    rep = json.loads(rpath.read_text())
    assert rep["labeling"]["valid"] is True
    code, out = run_cli(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath))
    assert code == 0
    # re-running the verifier reproduces the recorded statistics exactly
    vrep = json.loads(out)
    assert set(vrep["timing"]["stages_s"]) == {"read_graph", "read_labels", "all_pairs", "verify"}
    assert all(isinstance(s, float) and s >= 0 for s in vrep["timing"]["stages_s"].values())
    assert vrep["total_size"] == rep["labeling"]["total_size"]
    assert vrep["avg_hub_size"] == rep["labeling"]["avg_hub_size"]
    assert vrep["bit_estimate"] == rep["labeling"]["bit_estimate"]


def test_build_empty_graph_writes_empty_labels(capsys, tmp_path):
    gpath, lpath = tmp_path / "g.txt", tmp_path / "labels.txt"
    gpath.write_text("0 0\n")
    code, out = run_cli(capsys, "build", "--graph", str(gpath), "--out", str(lpath))
    assert code == 0
    rep = json.loads(out)
    assert rep["labeling"]["valid"] is True and rep["labeling"]["total_size"] == 0
    hl = read_labels(lpath)
    assert hl.n == 0 and hl.total_size == 0
    code, _ = run_cli(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath))
    assert code == 0


def test_build_report_times_every_stage(capsys, tmp_path):
    gpath, lpath = tmp_path / "g.txt", tmp_path / "labels.txt"
    # a graph that needs degree reduction, so that every stage runs
    write_graph(WeightedGraph(8, [(0, v, 1) for v in range(1, 8)] + [(1, 2, 1)]), gpath)
    code, out = run_cli(capsys, "build", "--graph", str(gpath), "--out", str(lpath))
    assert code == 0
    rep = json.loads(out)
    assert rep["reduced"] is not None
    stages = rep["timing"]["stages_s"]
    assert set(stages) == {
        "all_pairs", "reduce", "pair_index", "cover", "coloring", "matchings",
        "assemble", "ledger", "verify", "write_labels",
    }
    assert all(isinstance(s, float) and s >= 0 for s in stages.values())
    assert sum(stages.values()) - stages["write_labels"] <= rep["timing"]["wall_time_s"] + 0.01


def test_build_report_omits_stages_that_did_not_run(capsys, tmp_path):
    gpath, lpath = tmp_path / "g.txt", tmp_path / "labels.txt"
    write_graph(WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]), gpath)
    code, out = run_cli(capsys, "build", "--graph", str(gpath), "--out", str(lpath))
    assert code == 0
    rep = json.loads(out)
    assert rep["reduced"] is None
    assert set(rep["timing"]["stages_s"]) == {
        "all_pairs", "pair_index", "cover", "coloring", "matchings",
        "assemble", "ledger", "verify", "write_labels",
    }


def test_build_determinism_modulo_timing(capsys, tmp_path):
    inst = build_H(FamilyParams(1, 1))
    gpath = tmp_path / "g.txt"
    write_graph(inst.graph, gpath)
    outputs = []
    labels = []
    lpath = tmp_path / "out.labels"
    for _ in ("a", "b"):
        code, out = run_cli(
            capsys, "build", "--graph", str(gpath), "--D", "2", "--seed", "9",
            "--out", str(lpath),
        )
        assert code == 0
        outputs.append(strip_volatile(json.loads(out)))
        labels.append(lpath.read_bytes())
    assert outputs[0] == outputs[1]
    assert labels[0] == labels[1]


def test_closure_and_stats(capsys, tmp_path):
    inst = build_H(FamilyParams(1, 1))
    gpath, lpath, cpath = tmp_path / "g.txt", tmp_path / "l.txt", tmp_path / "c.txt"
    write_graph(inst.graph, gpath)
    lpath.write_text("0: (5,25)\n1:\n2:\n3:\n4:\n5:\n")
    code, out = run_cli(capsys, "closure", "--graph", str(gpath), "--labels", str(lpath), "--out", str(cpath))
    assert code == 0
    assert set(json.loads(out)["timing"]["stages_s"]) == {
        "read_graph", "read_labels", "all_pairs", "closure", "write_labels",
    }
    closed = read_labels(cpath)
    assert closed.size(0) == 3  # path of two edges up to level 2
    code, out = run_cli(capsys, "stats", "--labels", str(cpath))
    assert code == 0
    rep = json.loads(out)
    assert rep["total_size"] == 3


@pytest.mark.parametrize("rows", [2, 4])
def test_closure_rejects_labels_for_another_vertex_count(capsys, tmp_path, rows):
    # the graph has 3 vertices; the label file has one row too few or too many
    gpath, lpath, cpath = tmp_path / "g.txt", tmp_path / "l.txt", tmp_path / "c.txt"
    write_graph(WeightedGraph(3, [(0, 1, 1), (1, 2, 1)]), gpath)
    lpath.write_text("".join(f"{v}: ({v},0)\n" for v in range(rows)))
    code = main(["closure", "--graph", str(gpath), "--labels", str(lpath), "--out", str(cpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == ["hublab: error: labeling and distance matrix disagree on n"]
    assert not cpath.exists()


def test_audit_cli_lemma1_and_counting(capsys, tmp_path):
    code, _ = run_cli(capsys, "gen", "--kind", "G", "--b", "1", "--ell", "1", "--out", str(tmp_path / "g.txt"))
    assert code == 0
    code, out = run_cli(
        capsys, "audit", "lemma1", "--graph", str(tmp_path / "g.txt"),
        "--meta", str(tmp_path / "g.txt.meta.json"),
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    g = read_graph(tmp_path / "g.txt")
    write_labels(baseline_full(all_pairs(g)), tmp_path / "l.txt")
    code, out = run_cli(
        capsys, "audit", "counting", "--graph", str(tmp_path / "g.txt"),
        "--meta", str(tmp_path / "g.txt.meta.json"), "--labels", str(tmp_path / "l.txt"),
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True and rep["rhs"] == 2


def test_sumindex_cli_single_and_sweep(capsys):
    code, out = run_cli(
        capsys, "sumindex", "--b", "1", "--ell", "1", "--bits", "1", "--a", "0", "--b-index", "0",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["mismatches"] == 0 and rep["runs"] == 1
    code, out = run_cli(
        capsys, "sumindex", "--b", "2", "--ell", "2", "--bits", "1010", "--sweep", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 16
    assert all(r["decoded"] == r["expected"] for r in rows)


def assert_timed_run(capsys, argv, code=0):
    """argv, run twice, exits with code and reports its wall time alone
    under timing, and the two reports differ only in what strip_volatile drops."""
    reps = []
    for _ in range(2):
        got, out = run_cli(capsys, *argv)
        assert got == code
        reps.append(json.loads(out))
    assert set(reps[0]["timing"]) == {"wall_time_s"}
    assert reps[0]["timing"]["wall_time_s"] >= 0
    assert strip_volatile(reps[0]) == strip_volatile(reps[1])


def test_sumindex_and_lemma1_reports_time_their_run(capsys, tmp_path):
    code, _ = run_cli(capsys, "gen", "--kind", "G", "--b", "1", "--ell", "1", "--out", str(tmp_path / "g.txt"))
    assert code == 0
    for argv in (
        ["sumindex", "--b", "1", "--ell", "1", "--bits", "1", "--sweep"],
        ["audit", "lemma1", "--graph", str(tmp_path / "g.txt"), "--meta", str(tmp_path / "g.txt.meta.json")],
    ):
        assert_timed_run(capsys, argv)


def test_gen_and_counting_reports_time_their_run(capsys, tmp_path):
    h = str(tmp_path / "h.txt")
    assert_timed_run(capsys, ["gen", "--kind", "H", "--b", "1", "--ell", "1", "--out", h])
    remove = tmp_path / "remove.txt"
    remove.write_text("1\n")
    gp = ["gen", "--kind", "Gprime", "--b", "1", "--ell", "1", "--remove-file", str(remove)]
    assert_timed_run(capsys, gp + ["--out", str(tmp_path / "gp.txt")])
    labels = tmp_path / "l.txt"
    write_labels(baseline_full(all_pairs(read_graph(h))), labels)
    counting = ["audit", "counting", "--graph", h, "--meta", h + ".meta.json", "--labels"]
    assert_timed_run(capsys, counting + [str(labels)])
    # A labeling that is no cover fails the audit, and that report is timed too.
    (tmp_path / "bad.txt").write_text("".join(f"{v}: ({v},0)\n" for v in range(6)))
    assert_timed_run(capsys, counting + [str(tmp_path / "bad.txt")], code=1)


@pytest.mark.parametrize("mode, bits", [("hub", 445), ("oracle", 631)])
def test_sumindex_cli_message_bits(capsys, mode, bits):
    code, out = run_cli(
        capsys, "sumindex", "--b", "1", "--ell", "1", "--bits", "1", "--sweep", "--mode", mode,
    )
    assert code == 0
    assert json.loads(out)["max_message_bits"] == bits


def assert_usage_error(capsys, *argv):
    """argv exits 2 with one error line and no report; returns that line."""
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("hublab: error: ")
    return err


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_audit_lemma1_empty_sample_is_usage_error(capsys, tmp_path, sample):
    code, _ = run_cli(capsys, "gen", "--kind", "G", "--b", "1", "--ell", "1", "--out", str(tmp_path / "g.txt"))
    assert code == 0
    assert_usage_error(
        capsys, "audit", "lemma1", "--graph", str(tmp_path / "g.txt"),
        "--meta", str(tmp_path / "g.txt.meta.json"), "--sample", sample,
    )


@pytest.mark.parametrize(
    "runs",
    [
        [[0, 3, "level"]],  # leaves vertices 3.. without a role
        [[0, 3, "level"], [3, 99, "tree-leaf"]],  # runs past n
        [[0, 3, "level"], [3, 99, "no-such-role"]],
    ],
    ids=["gap", "past-n", "unknown-role"],
)
def test_audit_lemma1_bad_roles_is_usage_error(capsys, tmp_path, runs):
    code, _ = run_cli(capsys, "gen", "--kind", "G", "--b", "1", "--ell", "1", "--out", str(tmp_path / "g.txt"))
    assert code == 0
    meta_path = tmp_path / "g.txt.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["roles_rle"] = runs
    meta_path.write_text(json.dumps(meta))
    err = assert_usage_error(
        capsys, "audit", "lemma1", "--graph", str(tmp_path / "g.txt"), "--meta", str(meta_path),
    )
    assert "roles_rle" in err


def test_bench_empty_threshold_range_is_usage_error(capsys, tmp_path):
    gpath = tmp_path / "g.txt"
    write_graph(build_H(FamilyParams(1, 1)).graph, gpath)
    assert_usage_error(capsys, "bench", "--graph", str(gpath), "--D-range", ",")


def test_sumindex_cli_usage_error(capsys):
    assert_usage_error(capsys, "sumindex", "--b", "1", "--ell", "1", "--bits", "1")


@pytest.mark.parametrize(
    "extra",
    [["--a", "0"], ["--b-index", "0"], ["--sweep", "--a", "0"], ["--sweep", "--b-index", "0"]],
    ids=" ".join,
)
def test_sumindex_cli_index_flags_are_usage_errors(capsys, extra):
    # One index alone names no round, and --sweep runs every round.
    assert_usage_error(capsys, "sumindex", "--b", "1", "--ell", "1", "--bits", "1", *extra)


@pytest.mark.parametrize("bad", ["5", "0,0", "-1", "x", "1,"])
def test_gen_remove_file_line_naming_no_mid_vertex_is_usage_error(capsys, tmp_path, bad):
    # G(1,1) has s = 2 and one coordinate: only "0" and "1" name a mid-level vertex.
    remove = tmp_path / "remove.txt"
    remove.write_text(f"0\n# comment\n{bad}\n")
    out_path = tmp_path / "gp.txt"
    err = assert_usage_error(
        capsys, "gen", "--kind", "Gprime", "--b", "1", "--ell", "1",
        "--remove-file", str(remove), "--out", str(out_path),
    )
    assert f"remove.txt line 3: '{bad}'" in err
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["H", "G"])
def test_gen_remove_file_needs_deleted_kind(capsys, tmp_path, kind):
    remove = tmp_path / "remove.txt"
    remove.write_text("0\n")
    out_path = tmp_path / "g.txt"
    assert_usage_error(
        capsys, "gen", "--kind", kind, "--b", "1", "--ell", "1",
        "--remove-file", str(remove), "--out", str(out_path),
    )
    assert not out_path.exists()


def test_bench_single_threshold(capsys, tmp_path):
    inst = build_H(FamilyParams(1, 1))
    gpath = tmp_path / "g.txt"
    write_graph(inst.graph, gpath)
    code, out = run_cli(capsys, "bench", "--graph", str(gpath), "--D-range", "2")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["rows"]) == 1 and rep["rows"][0]["valid"] is True


def test_bench_csv_rows(capsys, tmp_path):
    inst = build_H(FamilyParams(1, 1))
    gpath = tmp_path / "g.txt"
    write_graph(inst.graph, gpath)
    code, out = run_cli(capsys, "bench", "--graph", str(gpath), "--D-range", "2,4,8", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["D"] for r in rows] == ["2", "4", "8"]
    assert all(r["valid"] == "True" for r in rows)


def test_audit_counting_invalid_labels_exit_one(capsys, tmp_path):
    code, _ = run_cli(capsys, "gen", "--kind", "H", "--b", "1", "--ell", "1", "--out", str(tmp_path / "h.txt"))
    assert code == 0
    g = read_graph(tmp_path / "h.txt")
    (tmp_path / "bad.txt").write_text("".join(f"{v}: ({v},0)\n" for v in range(g.n)))
    code, out = run_cli(
        capsys, "audit", "counting", "--graph", str(tmp_path / "h.txt"),
        "--meta", str(tmp_path / "h.txt.meta.json"), "--labels", str(tmp_path / "bad.txt"),
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_bench_three_regular_rows(capsys, tmp_path):
    from hublab.corpus import random_regular_graph

    g = random_regular_graph(500, 3, seed=6)
    gpath = tmp_path / "g.txt"
    write_graph(g, gpath)
    code, out = run_cli(capsys, "bench", "--graph", str(gpath), "--D-range", "2,4,8")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert all(r["valid"] and r["bound_ok"] for r in rows)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# Each subcommand's required arguments, and the shared flags it does not read.
SUBCOMMANDS_UNREAD_FLAGS = [
    (["gen", "--kind", "H", "--b", "1", "--ell", "1", "--out", "x"], ["--seed", "--format"]),
    (["build", "--graph", "g", "--out", "l"], ["--vertex-cap", "--format"]),
    (["verify", "--graph", "g", "--labels", "l"], ["--seed", "--vertex-cap", "--format"]),
    (["closure", "--graph", "g", "--labels", "l", "--out", "c"], ["--seed", "--vertex-cap", "--format"]),
    (["stats", "--labels", "l"], ["--seed", "--vertex-cap", "--format"]),
    (["audit", "lemma1", "--graph", "g", "--meta", "m"], ["--vertex-cap", "--format"]),
    (
        ["audit", "counting", "--graph", "g", "--meta", "m", "--labels", "l"],
        ["--seed", "--vertex-cap", "--format"],
    ),
    (["bench", "--graph", "g", "--D-range", "2"], ["--vertex-cap"]),
]
FLAG_VALUES = {"--seed": "1", "--vertex-cap": "10", "--format": "json"}


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(argv, flag, id=" ".join(argv[: 2 if argv[0] == "audit" else 1] + [flag]))
        for argv, flags in SUBCOMMANDS_UNREAD_FLAGS
        for flag in flags
    ],
)
def test_unread_flag_is_rejected(argv, flag):
    build_parser().parse_args(argv + ["--report", "r"])  # parses without the flag
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, FLAG_VALUES[flag]])
    assert exc.value.code == 2


def test_missing_file_reports_usage_error(capsys):
    code, _ = run_cli(capsys, "verify", "--graph", "/nonexistent", "--labels", "/nonexistent")
    assert code == 2


def test_audit_counting_verifies_once(capsys, tmp_path, monkeypatch):
    from hublab import cli, lowerbound_audit
    from hublab.upperbound_builder import BuilderConfig, build_for_graph

    inst = build_H(FamilyParams(1, 1))
    gpath, lpath = tmp_path / "h.txt", tmp_path / "l.txt"
    code, _ = run_cli(capsys, "gen", "--kind", "H", "--b", "1", "--ell", "1", "--out", str(gpath))
    assert code == 0
    calls = {"verify_cover": 0, "all_pairs": 0}
    for module in (cli, lowerbound_audit):
        for name in calls:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    argv = ["audit", "counting", "--graph", str(gpath), "--meta", str(gpath) + ".meta.json"]
    write_labels(build_for_graph(inst.graph, BuilderConfig(seed=1)).labeling, lpath)
    code, out = run_cli(capsys, *argv, "--labels", str(lpath))
    assert code == 0 and json.loads(out)["passed"] is True
    assert calls == {"verify_cover": 1, "all_pairs": 1}
    lpath.write_text("".join(f"{v}: ({v},0)\n" for v in range(inst.graph.n)))
    code, out = run_cli(capsys, *argv, "--labels", str(lpath))
    rep = json.loads(out)
    assert code == 1 and rep["passed"] is False
    assert rep["reason"].startswith("labeling is not a valid cover (")
    assert calls == {"verify_cover": 2, "all_pairs": 2}


@pytest.mark.parametrize(
    "exc",
    [
        CoverVerificationError("assembled labeling fails cover verification on 3 pairs"),
        InducedMatchingViolation(1, 2, 3, 4, 5, 6),
        ResampleExhausted("cover-set stage missed the 50/2 budget 32 times"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_internal_check_failures_exit_one(capsys, tmp_path, monkeypatch, exc):
    gpath = tmp_path / "g.txt"
    write_graph(build_H(FamilyParams(1, 1)).graph, gpath)

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr("hublab.cli.build_for_graph", failing)
    code = main(["build", "--graph", str(gpath), "--out", str(tmp_path / "l.txt")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"hublab: error: {exc}\n"
    assert captured.out == ""


def test_verify_huge_stored_distance_reports_uncovered(capsys, tmp_path):
    gpath, lpath = tmp_path / "g.txt", tmp_path / "l.txt"
    gpath.write_text("3 2\n0 1 1\n1 2 1\n")
    lpath.write_text("0: (0,0) (1,4294967296)\n1:\n2:\n")
    code, out = run_cli(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath))
    rep = json.loads(out)
    assert code == 1 and rep["valid"] is False
    assert rep["uncovered_sample"] == [[0, 1], [0, 2], [1, 2]]


def _heavy_regular_graph() -> WeightedGraph:
    g = random_regular_graph(200, 3, seed=1)
    u, v, w = g.edge_arrays()
    return WeightedGraph(g.n, np.stack([u, v, np.full_like(w, 1 << 40)], axis=1))


@pytest.mark.parametrize(
    "graph",
    [WeightedGraph(3, [(0, 1, 300_000_000), (1, 2, 1)]), _heavy_regular_graph()],
    ids=["path", "regular"],
)
def test_build_and_verify_distances_beyond_int32(capsys, tmp_path, graph):
    gpath, lpath = tmp_path / "g.txt", tmp_path / "l.txt"
    write_graph(graph, gpath)
    code, out = run_cli(capsys, "build", "--graph", str(gpath), "--out", str(lpath))
    assert code == 0 and json.loads(out)["labeling"]["valid"] is True
    code, out = run_cli(capsys, "verify", "--graph", str(gpath), "--labels", str(lpath))
    assert code == 0 and json.loads(out)["valid"] is True


def test_stats_rejects_number_beyond_int64(capsys, tmp_path):
    lpath = tmp_path / "l.txt"
    lpath.write_text("0: (1,99999999999999999999999)\n1:\n")
    code = main(["stats", "--labels", str(lpath)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "hublab: error: line 1: number does not fit in 64 bits\n"


def _fresh_interpreter(code: str, cwd) -> dict:
    """Run code in a new Python process that imports hublab from this
    checkout; return the JSON object its last output line prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(hublab.__file__).resolve().parent.parent))
    head = "import json, sys\nscipy = lambda: any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", head + textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_unit_build_verify_and_closure_never_load_scipy(tmp_path):
    """build, verify and closure on a 3-regular graph, on a sparse graph
    (m = 2n, with isolated vertices) that the builder degree-reduces, and on
    H(2,2), whose weights are general, run on numpy alone. An all_pairs with
    weights from 1 to 1000 and a unit distances_from do import scipy, which
    shows the check can fail."""
    got = _fresh_interpreter(
        """
        import contextlib, io
        from hublab import cli, corpus, family_gen, graph_core
        seen = {"import": scipy()}
        graphs = {"reg": corpus.random_regular_graph(60, 3, seed=1),
                  "er": corpus.erdos_renyi_m(80, 160, seed=2),
                  "H": family_gen.build_H(family_gen.FamilyParams(2, 2)).graph}
        seen["isolated"] = int((graphs["er"].degrees == 0).sum())
        for name, g in graphs.items():
            graph_core.write_graph(g, name + ".txt")
            for cmd, extra in (("build", ["--out", name + ".lab"]),
                               ("verify", ["--labels", name + ".lab"]),
                               ("closure", ["--labels", name + ".lab", "--out", name + ".cl"])):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([cmd, "--graph", name + ".txt", *extra])
                report = json.loads(out.getvalue())
                seen[f"{name} {cmd}"] = [code, scipy(), report.get("reduced") is not None]
        print(json.dumps(seen))
        """,
        tmp_path,
    )
    assert got.pop("import") is False and got.pop("isolated") > 0
    assert got == {
        "reg build": [0, False, False], "reg verify": [0, False, False],
        "reg closure": [0, False, False], "er build": [0, False, True],
        "er verify": [0, False, False], "er closure": [0, False, False],
        "H build": [0, False, False], "H verify": [0, False, False],
        "H closure": [0, False, False],
    }
    weighted = """
        from hublab import graph_core
        graph_core.all_pairs(graph_core.WeightedGraph(3, [(0, 1, 1000), (1, 2, 1)]))
        print(json.dumps(scipy()))
        """
    unit = """
        from hublab import corpus, graph_core
        graph_core.distances_from(corpus.random_regular_graph(60, 3, seed=1), 0)
        print(json.dumps(scipy()))
        """
    assert _fresh_interpreter(weighted, tmp_path) is True
    assert _fresh_interpreter(unit, tmp_path) is True
