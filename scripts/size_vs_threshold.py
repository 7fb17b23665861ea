#!/usr/bin/env python3
"""Sweep the builder threshold D over a small corpus and tabulate label sizes.

Usage:
    python scripts/size_vs_threshold.py [--seed N] [--d-values 2,3,4,8]

Runs `hublab bench --format csv` on each corpus graph and prints its rows
under one header, with the graph's name in front, so the tradeoff between the
random cover stage (dominates at small D) and the bucket stage (grows with D)
is visible directly. Exits with the worst exit code of the runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

from hublab import cli
from hublab.corpus import erdos_renyi_m, grid_graph, path_graph, random_regular_graph
from hublab.graph_core import write_graph


def corpus(seed: int):
    return [
        ("3reg-400", random_regular_graph(400, 3, seed=seed)),
        ("er-400", erdos_renyi_m(400, 800, seed=seed)),
        ("grid-20x20", grid_graph(20, 20)),
        ("path-400", path_graph(400)),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--d-values", default="2,3,4,6,8")
    args = ap.parse_args()

    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, g) in enumerate(corpus(args.seed)):
            path = Path(tmp) / f"{name}.txt"
            write_graph(g, path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(
                    ["bench", "--graph", str(path), "--D-range", args.d_values,
                     "--seed", str(args.seed), "--format", "csv"]
                )
            if code == cli.EXIT_USAGE:
                return code
            worst = max(worst, code)
            header, *rows = out.getvalue().splitlines()
            if i == 0:
                print(f"graph,{header}")
            for row in rows:
                print(f"{name},{row}", flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
