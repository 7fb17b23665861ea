#!/usr/bin/env python3
"""Time one `hublab build` on a named graph and record it in BENCH_<label>.json.

Usage:
    python scripts/bench.py --label pair_index --side after --graph er:2000:4000:1

Graphs: H:<b>:<ell> (the graph `hublab gen --kind H` writes),
er:<n>:<m>:<seed> (corpus.erdos_renyi_m), reg:<n>:<degree>:<seed>
(corpus.random_regular_graph), or the path of a graph file.

The script imports hublab from the `src` of the checkout that holds it and
updates BENCH_<label>.json in the current directory. To compare two commits,
run a copy of the script from a checkout of each, in the same directory. The
graph is written to a temporary file and built through the CLI entry point in
this process, one build per process, so the peak RSS (resource.getrusage)
belongs to that build. A record holds the command line, the commit, the
graph, the wall time of the build command, the builder's own wall time from
its report, the peak RSS and a SHA-256 of the label file, so that two sides
can be checked for identical labels. It replaces any earlier record for the
same graph and side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
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
    from hublab import corpus, family_gen, graph_core

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
    if kind == "reg" and len(args) == 3:
        n, degree, seed = args
        g = corpus.random_regular_graph(n, degree, seed=seed)
        return g, {"generator": "corpus.random_regular_graph", "n": n, "degree": degree, "seed": seed}
    if os.path.isfile(spec):
        return graph_core.read_graph(spec), {"file": os.path.abspath(spec)}
    raise SystemExit(f"bench.py: unknown graph spec {spec!r}")


def run(spec: str) -> dict:
    from hublab import cli, graph_core

    g, graph_info = make_graph(spec)
    graph_info.update(n=g.n, m=g.m, weight_kind=g.weight_kind)
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "graph.txt")
        labels_path = os.path.join(tmp, "labels.txt")
        report_path = os.path.join(tmp, "report.json")
        graph_core.write_graph(g, graph_path)
        argv = ["build", "--graph", graph_path, "--out", labels_path, "--report", report_path]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        with open(labels_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "graph": graph_info,
        "hublab_command": "hublab " + " ".join(argv).replace(tmp, "<tmp>"),
        "exit_code": code,
        "wall_s": round(wall, 3),
        "build_wall_time_s": report["timing"]["wall_time_s"],
        "peak_rss_mb": round(peak_kb / 1024, 1),
        "label_entries": report["ledger"]["total_size"],
        "labels_sha256": digest,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--side", required=True, help="e.g. before or after")
    ap.add_argument("--graph", required=True, help="graph spec, see above")
    ap.add_argument("--name", help="key of the graph in the file (default: the spec)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    record = run(args.graph)
    record.update(
        command=" ".join(["python", "scripts/bench.py", *sys.argv[1:]]),
        commit=commit_of(ROOT),
        host={
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "scipy": __import__("scipy").__version__,
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
