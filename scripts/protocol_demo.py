#!/usr/bin/env python3
"""Exercise the sum-index simulator: a full decoding sweep plus message-size
accounting for the oracle baseline and hub-label messages.

Usage:
    python scripts/protocol_demo.py [--b 2] [--ell 2] [--runs 64] [--seed N]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from hublab.family_gen import FamilyParams
from hublab.sumindex_protocol import (
    SumIndexInstance,
    build_base_graph,
    build_instance_graph,
    measure_message_size,
    run_protocol,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", type=int, default=2)
    ap.add_argument("--ell", type=int, default=2)
    ap.add_argument("--runs", type=int, default=64)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = FamilyParams(args.b, args.ell)
    m = (params.s // 2) ** params.ell
    base = build_base_graph(params)
    rng = np.random.default_rng(args.seed)
    print(f"instance family: b={args.b} ell={args.ell} m={m} base n={base.graph.n}")

    bad = 0
    done = 0
    while done < args.runs:
        bits = "".join(rng.choice(["0", "1"], size=m))
        inst = SumIndexInstance(params, bits)
        gp = build_instance_graph(inst, base=base)
        for _ in range(min(m * m, args.runs - done)):
            a, b = int(rng.integers(m)), int(rng.integers(m))
            t = run_protocol(inst, a, b, gprime=gp)
            bad += t.decoded != t.expected
            done += 1
    print(f"decoding sweep: {done} runs, {bad} mismatches")

    inst = SumIndexInstance(params, "1" * m)
    mx, avg = measure_message_size(inst, mode="oracle", base=base)
    print(f"oracle message bits: max={mx} avg={avg:.0f}")
    if base.graph.n <= 5000:
        mx, avg = measure_message_size(inst, mode="hub", base=base)
        print(f"hub-label message bits: max={mx} avg={avg:.0f}")
    else:
        print("skipping hub-label accounting (instance too large for the pipeline)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
