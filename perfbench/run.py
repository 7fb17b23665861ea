"""hublab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from src/.
After the set-ups, which also warm the process up, the workload's round
repeats until S seconds have passed. The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
also writes its spans to perfbench/out/trace-NAME-seedN.json. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def measure(wl, seed: int, seconds: float, tracer, workdir: str) -> dict:
    import tracing
    import workloads

    run = workloads.Run(tracer)
    inp = wl.prepare(seed, workdir)
    setup_times = []
    state = None
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        state = None
        t0 = time.perf_counter()
        with tracing.installed(tracer):
            state = wl.setup(inp)
        setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.phase = "round"
    times, traced_times = [], []
    start = time.perf_counter()
    while True:
        run.timing_steps = True
        t0 = time.perf_counter()
        out = wl.round(state, run)
        times.append(time.perf_counter() - t0)
        run.timing_steps = False
        wl.check_round(state, out, run, traced=False)
        out = None
        if tracer is not None:
            with tracing.installed(tracer):
                t0 = time.perf_counter()
                out = wl.traced_round(state, run)
                traced_times.append(time.perf_counter() - t0)
            wl.check_round(state, out, run, traced=True)
            out = None
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.finish(state, run)

    steps = ", ".join(f"{k} {statistics.median(v):.4f} s" for k, v in run.steps.items())
    print(
        f"perfbench: {len(times)} timed rounds, median {statistics.median(times):.4f} s "
        f"({steps}); {len(setup_times)} set-ups, median {statistics.median(setup_times):.4f} s",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "round_s": (statistics.median(times), "s"),
            "label_entries": (wl.label_entries(state), "entries"),
        }
    else:
        metrics = tracing.layer_metrics(tracer, rounds=len(traced_times), setups=len(setup_times))
        overhead = statistics.median(traced_times) / statistics.median(times)
        metrics[tracing.OVERHEAD_METRIC] = (overhead, "ratio")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hublab" / "__init__.py").is_file():
        print(f"perfbench: no hublab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        result = measure(wl, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        overhead = result["metrics"][tracing.OVERHEAD_METRIC]["value"]
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "overhead_ratio": overhead})
        print(f"perfbench: spans in {trace_path}; tracing overhead x{overhead:.3f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
