#!/usr/bin/env python3
"""Time one `hublab build`, `hublab verify`, `hublab closure`, `hublab
sumindex` or `hublab audit lemma1`, the label queries, or the two all-pairs
searches, on a named graph and record it in BENCH_<label>.json.

Usage:
    python scripts/bench.py --label pair_index --side after --graph er:2000:4000:1
    python scripts/bench.py --label closure --command closure --side after --graph reg:2000:3:1
    python scripts/bench.py --label zero_trees --command closure --side after --graph rer:1000:2000:1
    python scripts/bench.py --label unit_search --command verify --side after --graph reg:2000:3:1
    python scripts/bench.py --label query_probe --command query --side after --graph reg:2000:3:1
    python scripts/bench.py --label unit_search --command searches --side after --graph path:2000
    python scripts/bench.py --label family_searches --command sumindex --side after --graph H:2:3
    python scripts/bench.py --label family_searches --command lemma1 --side after --graph H:2:2

Graphs: H:<b>:<ell> (the graph `hublab gen --kind H` writes),
er:<n>:<m>:<seed> (corpus.erdos_renyi_m), reg:<n>:<degree>:<seed>
(corpus.random_regular_graph), wreg:<n>:<degree>:<seed>:<wmax> (that graph
with weights in 1..wmax drawn from numpy seed <seed>), rer:<n>:<m>:<seed>
(upperbound_builder.reduce_degree(corpus.erdos_renyi_m(n, m, seed))[0], the
degree-reduced stage graph of that er graph: its split vertices hang on
zero-weight edges, and `hublab build` labels it as it is), path:<n> (corpus.path_graph),
wstar:<leaves> (corpus.star_graph with a weight-2 edge from its last leaf to
a new vertex: its weights are general, so the build keeps the hub's degree
and most leaf pairs share one bucket at the hub), or the path of a graph
file.

The script imports hublab from the `src` of the checkout that holds it and
updates BENCH_<label>.json in the current directory. To compare two commits,
run a copy of the script from a checkout of each, in the same directory. The
graph is written to a temporary file and built through the CLI entry point in
this process, one build per process, so the peak RSS (resource.getrusage)
belongs to that build. A record holds the command line, the commit, the
graph, the wall time of the build command, the builder's own wall time and
the seconds of each stage (`timing.stages_s`, writing the labels included)
from its report, the peak RSS, whether scipy was loaded when the peak was
read (`scipy_loaded`), and a SHA-256 of the label file, so that two
sides can be checked for identical labels. It replaces any earlier record for
the same graph and side.

With --command verify or --command closure, the labels are built first by
`hublab build` in a child process, outside the timed span; only the command
on them runs in this process and is timed. Its record holds the wall time
and peak RSS of that command, the seconds of each of its stages from its
report (reading the labels is one; null where the report has no timing), and
the input's entry count and digest; a verify record adds the verdict, a
closure record the closure's entry count and SHA-256.

With --command query, the labels are built the same way and read back in
this process; then hub_labeling.query is timed on 20 sources x 100 targets
in source order and on 2,000 random pairs, all drawn with numpy seed 0, each
set run 9 times. The record holds the median and the best microseconds per
call of each set, the peak RSS and a SHA-256 of the answers of both sets.

With --command searches, graph_core.all_pairs and then graph_core.hit_rows
of all rows, with every 20th vertex masked, run in this process; the record holds the time of each, the peak RSS and a SHA-256 of
each result.

With --command sumindex or --command lemma1, the graph spec must be
H:<b>:<ell>, and it names the family parameters. sumindex times `hublab
sumindex --sweep` in oracle mode with the bits 1010... (the command generates
its own G(b, ell)); lemma1 writes G(b, ell) and its metadata first, outside
the timed span, and times the exhaustive `hublab audit lemma1` on them. The
record holds the wall time, the peak RSS and a SHA-256 of the report without
its timestamp and timing, so that two sides can be checked for identical
reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def commit_of(root: str) -> str | None:
    """HEAD of the git checkout at root, suffixed "-dirty" when tracked files
    differ from it; None outside a git checkout."""

    def git(*args):
        return subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True, check=False
        )

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("diff", "--quiet", "HEAD").returncode != 0
    return head.stdout.strip() + ("-dirty" if dirty else "")


def make_graph(spec: str):
    """(graph, description) for a graph spec."""
    import numpy as np

    from hublab import corpus, family_gen, graph_core, upperbound_builder

    kind, _, rest = spec.partition(":")
    args = [int(x) for x in rest.split(":")] if rest else []
    if kind == "H" and len(args) == 2:
        b, ell = args
        inst = family_gen.build_H(family_gen.FamilyParams(b=b, ell=ell))
        return inst.graph, {"generator": "hublab gen --kind H", "b": b, "ell": ell}
    if kind == "er" and len(args) == 3:
        n, m, seed = args
        g = corpus.erdos_renyi_m(n, m, seed=seed)
        return g, {"generator": "corpus.erdos_renyi_m", "n": n, "m": m, "seed": seed}
    if kind == "rer" and len(args) == 3:
        n, m, seed = args
        g = upperbound_builder.reduce_degree(corpus.erdos_renyi_m(n, m, seed=seed))[0]
        return g, {"generator": "upperbound_builder.reduce_degree(corpus.erdos_renyi_m(...))[0]",
                   "er_n": n, "er_m": m, "seed": seed}
    if kind == "reg" and len(args) == 3:
        n, degree, seed = args
        g = corpus.random_regular_graph(n, degree, seed=seed)
        return g, {"generator": "corpus.random_regular_graph", "n": n, "degree": degree, "seed": seed}
    if kind == "wreg" and len(args) == 4:
        n, degree, seed, wmax = args
        u, v, _ = corpus.random_regular_graph(n, degree, seed=seed).edge_arrays()
        w = np.random.default_rng(seed).integers(1, wmax + 1, size=u.size)
        g = graph_core.WeightedGraph(n, np.stack([u, v, w], 1))
        return g, {"generator": "corpus.random_regular_graph, weights 1..wmax", "n": n,
                   "degree": degree, "seed": seed, "wmax": wmax}
    if kind == "wstar" and len(args) == 1:
        star = corpus.star_graph(args[0])
        edges = [*zip(*(a.tolist() for a in star.edge_arrays())), (star.n - 1, star.n, 2)]
        g = graph_core.WeightedGraph(star.n + 1, edges)
        return g, {"generator": "corpus.star_graph plus a weight-2 pendant edge", "leaves": args[0]}
    if kind == "path" and len(args) == 1:
        return corpus.path_graph(args[0]), {"generator": "corpus.path_graph", "n": args[0]}
    if os.path.isfile(spec):
        return graph_core.read_graph(spec), {"file": os.path.abspath(spec)}
    raise SystemExit(f"bench.py: unknown graph spec {spec!r}")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _timed_cli(argv: list[str]) -> tuple[int, float, str]:
    """(exit code, wall seconds, stdout) of one in-process CLI command."""
    from hublab import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, time.perf_counter() - t0, out.getvalue()


def _peak() -> dict:
    """The peak RSS of this process so far, and whether scipy was loaded by then."""
    return {
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "scipy_loaded": any(name.partition(".")[0] == "scipy" for name in sys.modules),
    }


def _build_in_child(spec: str, tmp: str) -> tuple[dict, str, str]:
    """(graph info, graph path, labels path): the graph written to tmp and
    its labels built there by `hublab build` in a child process."""
    from hublab import graph_core

    g, graph_info = make_graph(spec)
    graph_info.update(n=g.n, m=g.m, weight_kind=g.weight_kind)
    graph_path = os.path.join(tmp, "graph.txt")
    labels_path = os.path.join(tmp, "labels.txt")
    graph_core.write_graph(g, graph_path)
    del g
    build = ["build", "--graph", graph_path, "--out", labels_path]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "hublab.cli", *build],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return graph_info, graph_path, labels_path


def run_on_labels(spec: str, command: str) -> dict:
    """Build labels for the graph in a child process, then time `hublab
    verify` or `hublab closure` of them in this one."""
    with tempfile.TemporaryDirectory() as tmp:
        graph_info, graph_path, labels_path = _build_in_child(spec, tmp)
        closure_path = os.path.join(tmp, "closure.txt")
        argv = [command, "--graph", graph_path, "--labels", labels_path]
        if command == "closure":
            argv += ["--out", closure_path]
        code, wall, out = _timed_cli(argv)
        report = json.loads(out)
        record = {
            "graph": graph_info,
            "hublab_command": "hublab " + " ".join(argv).replace(tmp, "<tmp>"),
            "exit_code": code,
            "wall_s": round(wall, 3),
            "stages_s": report.get("timing", {}).get("stages_s"),
            **_peak(),
            "labels_sha256": _digest(labels_path),
        }
        if command == "closure":
            record.update(
                label_entries=report["input_total"],
                closure_entries=report["closure_total"],
                closure_sha256=_digest(closure_path),
            )
        else:
            record.update(label_entries=report["total_size"], valid=report["valid"])
    return record


def run_query(spec: str) -> dict:
    """Build labels for the graph in a child process, read them in this one,
    and time hub_labeling.query on source-grouped and on random pairs."""
    import numpy as np

    from hublab import hub_labeling

    with tempfile.TemporaryDirectory() as tmp:
        graph_info, _, labels_path = _build_in_child(spec, tmp)
        hl = hub_labeling.read_labels(labels_path)
        digest = _digest(labels_path)
    rng = np.random.default_rng(0)
    sources = rng.choice(hl.n, size=20, replace=False).tolist()
    pair_sets = {
        "grouped": [(s, t) for s in sources for t in rng.integers(0, hl.n, size=100).tolist()],
        "random": rng.integers(0, hl.n, size=(2000, 2)).tolist(),
    }
    median_us, best_us, answers = {}, {}, {}
    for name, pairs in pair_sets.items():
        per_call = []
        for _ in range(9):
            t0 = time.perf_counter()
            got = [hub_labeling.query(hl, u, v) for u, v in pairs]
            per_call.append((time.perf_counter() - t0) / len(pairs) * 1e6)
        median_us[name] = round(statistics.median(per_call), 2)
        best_us[name] = round(min(per_call), 2)
        answers[name] = [d if isinstance(d, int) else None for d in got]  # None: UNREACHABLE
    return {
        "graph": graph_info,
        "calls": {name: len(pairs) for name, pairs in pair_sets.items()},
        "us_per_call_median": median_us,
        "us_per_call_best": best_us,
        **_peak(),
        "label_entries": hl.total_size,
        "labels_sha256": digest,
        "answers_sha256": hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest(),
    }


def run_searches(spec: str) -> dict:
    """Time all_pairs and hit_rows of all rows on the graph in this process."""
    import numpy as np

    from hublab import graph_core

    g, graph_info = make_graph(spec)
    graph_info.update(n=g.n, m=g.m, weight_kind=g.weight_kind)
    t0 = time.perf_counter()
    dm = graph_core.all_pairs(g)
    t1 = time.perf_counter()
    hit = graph_core.hit_rows(dm, np.arange(g.n) % 20 == 0, slice(None))
    t2 = time.perf_counter()
    return {
        "graph": graph_info,
        "all_pairs_s": round(t1 - t0, 3),
        "hits_s": round(t2 - t1, 3),
        **_peak(),
        "distances_sha256": hashlib.sha256(dm.matrix().tobytes()).hexdigest(),
        "hits_sha256": hashlib.sha256(hit.tobytes()).hexdigest(),
    }


def run_family(spec: str, command: str) -> dict:
    """Time `hublab sumindex --sweep` or `hublab audit lemma1` on the family
    parameters of an H:<b>:<ell> spec in this process."""
    from hublab import family_gen, graph_core

    kind, _, rest = spec.partition(":")
    args = rest.split(":")
    if kind != "H" or len(args) != 2:
        raise SystemExit(f"bench.py: --command {command} needs H:<b>:<ell>, not {spec!r}")
    b, ell = (int(x) for x in args)
    params = family_gen.FamilyParams(b=b, ell=ell)
    with tempfile.TemporaryDirectory() as tmp:
        if command == "sumindex":
            m = (params.s // 2) ** ell
            argv = ["sumindex", "--b", str(b), "--ell", str(ell), "--bits", ("10" * m)[:m], "--sweep"]
        else:
            graph_path = os.path.join(tmp, "g.txt")
            inst = family_gen.expand_to_G(family_gen.build_H(params))
            graph_core.write_graph(inst.graph, graph_path)
            family_gen.write_metadata(inst, graph_path + ".meta.json")
            argv = ["audit", "lemma1", "--graph", graph_path, "--meta", graph_path + ".meta.json"]
        code, wall, out = _timed_cli(argv)
    report = json.loads(out)
    report.pop("timestamp")
    report.pop("timing", None)
    canonical = json.dumps(report, sort_keys=True).replace(tmp, "<tmp>")
    return {
        "graph": {"generator": "hublab gen --kind G", "b": b, "ell": ell},
        "hublab_command": "hublab " + " ".join(argv).replace(tmp, "<tmp>"),
        "exit_code": code,
        "wall_s": round(wall, 3),
        **_peak(),
        "report_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def run(spec: str) -> dict:
    from hublab import graph_core

    g, graph_info = make_graph(spec)
    graph_info.update(n=g.n, m=g.m, weight_kind=g.weight_kind)
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "graph.txt")
        labels_path = os.path.join(tmp, "labels.txt")
        report_path = os.path.join(tmp, "report.json")
        graph_core.write_graph(g, graph_path)
        argv = ["build", "--graph", graph_path, "--out", labels_path, "--report", report_path]
        code, wall, _ = _timed_cli(argv)
        digest = _digest(labels_path)
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    return {
        "graph": graph_info,
        "hublab_command": "hublab " + " ".join(argv).replace(tmp, "<tmp>"),
        "exit_code": code,
        "wall_s": round(wall, 3),
        "build_wall_time_s": report["timing"]["wall_time_s"],
        "stages_s": report["timing"]["stages_s"],
        **_peak(),
        "label_entries": report["ledger"]["total_size"],
        "labels_sha256": digest,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--side", required=True, help="e.g. before or after")
    ap.add_argument("--graph", required=True, help="graph spec, see above")
    ap.add_argument("--name", help="key of the graph in the file (default: the spec)")
    ap.add_argument(
        "--command",
        choices=("build", "verify", "closure", "query", "searches", "sumindex", "lemma1"),
        default="build",
        help="what to time",
    )
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.command == "build":
        record = run(args.graph)
    elif args.command == "query":
        record = run_query(args.graph)
    elif args.command == "searches":
        record = run_searches(args.graph)
    elif args.command in ("sumindex", "lemma1"):
        record = run_family(args.graph, args.command)
    else:
        record = run_on_labels(args.graph, args.command)
    record.update(
        command=shlex.join(["python", "scripts/bench.py", *sys.argv[1:]]),
        commit=commit_of(ROOT),
        host={
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "scipy": importlib.metadata.version("scipy"),
        },
    )
    path = f"BENCH_{args.label}.json"
    data = {"label": args.label, "graphs": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["graphs"].setdefault(args.name or args.graph, {})[args.side] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({args.side: record}, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
