"""Command-line entry point wiring generators, the labeling builder,
verifiers, audits, the protocol simulator, and a threshold sweep into
reproducible seeded runs with machine-readable reports."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import family_gen, graph_core, hub_labeling, lowerbound_audit, sumindex_protocol
from .family_gen import FamilyParams, coord_key
from .graph_core import all_pairs, read_graph, write_graph
from .hub_labeling import read_labels, verify_cover, write_labels
from .sumindex_protocol import SumIndexInstance, build_base_graph
from .upperbound_builder import (
    BuilderConfig,
    CoverVerificationError,
    InducedMatchingViolation,
    ResampleExhausted,
    build_for_graph,
)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _report(command: str, config: dict, payload: dict) -> dict:
    out = {"schema": 1, "command": command, "config": config, "timestamp": _timestamp()}
    out.update(payload)
    return out


def _output(text: str, args) -> None:
    """Write text to stdout and, with --report, to that file as well."""
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit(report: dict, args) -> None:
    _output(json.dumps(report, indent=1, sort_keys=True) + "\n", args)


def _csv_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# -- subcommands --------------------------------------------------------------


def _read_removals(path, params: FamilyParams) -> set[tuple[int, ...]]:
    """The coordinate vectors a remove file names, one per line; '#' starts a
    comment. A line that names no mid-level vertex raises ValueError."""
    removed = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                coords = tuple(int(c) for c in line.split(","))
            except ValueError:
                coords = ()
            if len(coords) != params.ell or not all(0 <= c < params.s for c in coords):
                raise ValueError(
                    f"{path} line {lineno}: {line!r} names no mid-level vertex "
                    f"({params.ell} comma-separated coordinates in [0, {params.s}))"
                )
            removed.add(coords)
    return removed


def _cmd_gen(args) -> int:
    t0 = time.perf_counter()
    params = FamilyParams(b=args.b, ell=args.ell)
    if args.remove_file and args.kind != "Gprime":
        raise ValueError("--remove-file applies only to --kind Gprime")
    removed = _read_removals(args.remove_file, params) if args.remove_file else set()
    inst = family_gen.build_H(params, vertex_cap=args.vertex_cap)
    if args.kind in ("G", "Gprime"):
        inst = family_gen.expand_to_G(inst, vertex_cap=args.vertex_cap)
    if args.kind == "Gprime":
        inst = family_gen.delete_level_mid(
            inst, lambda coord: coord.coords not in removed
        )
    write_graph(inst.graph, args.out)
    meta_path = args.out + ".meta.json"
    family_gen.write_metadata(inst, meta_path)
    config = {
        "kind": args.kind,
        "b": args.b,
        "ell": args.ell,
        "remove_file": args.remove_file,
        "vertex_cap": args.vertex_cap,
        "out": args.out,
    }
    payload = {"n": inst.graph.n, "m": inst.graph.m, "meta": meta_path}
    payload["timing"] = {"wall_time_s": round(time.perf_counter() - t0, 3)}
    _emit(_report("gen", config, payload), args)
    return EXIT_OK


def _stage(stages: dict, name: str, fn, *args):
    """fn(*args), with its seconds recorded as stages[name]."""
    t0 = time.perf_counter()
    out = fn(*args)
    stages[name] = time.perf_counter() - t0
    return out


def _timing(wall: float, stages: dict) -> dict:
    return {
        "wall_time_s": round(wall, 3),
        "stages_s": {stage: round(s, 4) for stage, s in stages.items()},
    }


def _cmd_build(args) -> int:
    g = read_graph(args.graph)
    cfg = BuilderConfig(D=args.D, seed=args.seed)
    t0 = time.perf_counter()
    result = build_for_graph(g, cfg)
    wall = time.perf_counter() - t0
    stages = dict(result.timing)
    _stage(stages, "write_labels", write_labels, result.labeling, args.out)
    config = {"graph": args.graph, "D": args.D, "seed": args.seed, "out": args.out}
    payload = result.report.to_dict()
    payload["timing"] = _timing(wall, stages)
    _emit(_report("build", config, payload), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    stages = {}
    g = _stage(stages, "read_graph", read_graph, args.graph)
    hl = _stage(stages, "read_labels", read_labels, args.labels)
    dm = _stage(stages, "all_pairs", all_pairs, g)
    rep = _stage(stages, "verify", verify_cover, hl, dm)
    config = {"graph": args.graph, "labels": args.labels}
    _emit(
        _report(
            "verify",
            config,
            {
                "valid": rep.valid,
                "uncovered_total": rep.uncovered_total,
                "uncovered_sample": [list(p) for p in rep.uncovered[:20]],
                "total_size": rep.total_size,
                "avg_hub_size": str(rep.avg_hub_size),
                "avg_hub_size_float": float(rep.avg_hub_size),
                "bit_estimate": rep.bit_estimate,
                "timing": _timing(time.perf_counter() - t0, stages),
            },
        ),
        args,
    )
    return EXIT_OK if rep.valid else EXIT_FAILED_CHECK


def _cmd_closure(args) -> int:
    t0 = time.perf_counter()
    stages = {}
    g = _stage(stages, "read_graph", read_graph, args.graph)
    hl = _stage(stages, "read_labels", read_labels, args.labels)
    dm = _stage(stages, "all_pairs", all_pairs, g)
    closed = _stage(stages, "closure", hub_labeling.monotone_closure, hl, dm)
    _stage(stages, "write_labels", write_labels, closed, args.out)
    config = {"graph": args.graph, "labels": args.labels, "out": args.out}
    _emit(
        _report(
            "closure",
            config,
            {
                "input_total": hl.total_size,
                "closure_total": closed.total_size,
                "timing": _timing(time.perf_counter() - t0, stages),
            },
        ),
        args,
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    hl = read_labels(args.labels)
    sizes = np.diff(hl.offsets)
    max_stored = int(hl.dist.max(initial=0))
    config = {"labels": args.labels}
    _emit(
        _report(
            "stats",
            config,
            {
                "n": hl.n,
                "total_size": hl.total_size,
                "avg_hub_size": (hl.total_size / hl.n) if hl.n else 0.0,
                "max_hub_size": int(sizes.max(initial=0)),
                "min_hub_size": int(sizes.min()) if hl.n else 0,
                "bit_estimate": hub_labeling.bit_estimate(hl, max_stored),
            },
        ),
        args,
    )
    return EXIT_OK


def _load_instance(args) -> family_gen.FamilyInstance:
    g = read_graph(args.graph)
    meta = family_gen.read_metadata(args.meta)
    return family_gen.instance_from_files(g, meta)


def _cmd_audit_lemma1(args) -> int:
    inst = _load_instance(args)
    t0 = time.perf_counter()
    rep = lowerbound_audit.audit_lemma1(inst, sample=args.sample, seed=args.seed)
    wall = time.perf_counter() - t0
    config = {
        "graph": args.graph,
        "meta": args.meta,
        "sample": args.sample,
        "seed": args.seed,
    }
    _emit(
        _report(
            "audit-lemma1",
            config,
            {
                "checked": rep.checked,
                "unique_ok": rep.unique_ok,
                "midpoint_ok": rep.midpoint_ok,
                "failures": [
                    {"x": list(x), "z": list(z), "problems": list(p)}
                    for x, z, p in rep.failures
                ],
                "passed": rep.passed,
                "timing": {"wall_time_s": round(wall, 3)},
            },
        ),
        args,
    )
    return EXIT_OK if rep.passed else EXIT_FAILED_CHECK


def _cmd_audit_counting(args) -> int:
    inst = _load_instance(args)
    hl = read_labels(args.labels)
    config = {"graph": args.graph, "meta": args.meta, "labels": args.labels}
    t0 = time.perf_counter()
    try:
        rep = lowerbound_audit.audit_counting(inst, hl)
    except lowerbound_audit.InvalidCoverError as exc:
        timing = {"wall_time_s": round(time.perf_counter() - t0, 3)}
        payload = {"passed": False, "reason": str(exc), "timing": timing}
        _emit(_report("audit-counting", config, payload), args)
        return EXIT_FAILED_CHECK
    timing = {"wall_time_s": round(time.perf_counter() - t0, 3)}
    _emit(
        _report(
            "audit-counting",
            config,
            {
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "triplets": rep.triplets,
                "membership_failures": [
                    {"x": list(x), "y": list(y), "z": list(z)}
                    for x, y, z in rep.membership_failures
                ],
                "passed": rep.passed,
                "timing": timing,
            },
        ),
        args,
    )
    return EXIT_OK if rep.passed else EXIT_FAILED_CHECK


def _cmd_sumindex(args) -> int:
    if args.sweep and (args.a is not None or args.b_index is not None):
        raise ValueError("--sweep runs every (a, b) pair; drop --a and --b-index")
    if not args.sweep and (args.a is None or args.b_index is None):
        raise ValueError("sumindex needs --a and --b-index, or --sweep")
    params = FamilyParams(b=args.b, ell=args.ell)
    inst = SumIndexInstance(params, args.bits)
    base = build_base_graph(params, vertex_cap=args.vertex_cap)
    builder = BuilderConfig(seed=args.seed)
    pairs = None if args.sweep else [(args.a, args.b_index)]
    t0 = time.perf_counter()
    transcripts = sumindex_protocol.sweep(
        inst, mode=args.mode, base=base, pairs=pairs, builder=builder
    )
    wall = time.perf_counter() - t0
    rows = [
        {
            "a": t.a,
            "b": t.b,
            "alice_vertex": coord_key(t.alice_vertex),
            "bob_vertex": coord_key(t.bob_vertex),
            "alice_label_bits": t.alice_label_bits,
            "bob_label_bits": t.bob_label_bits,
            "measured_dist": -1 if t.measured_dist is graph_core.UNREACHABLE else t.measured_dist,
            "ideal_dist": t.ideal_dist,
            "decoded": t.decoded,
            "expected": t.expected,
        }
        for t in transcripts
    ]
    mismatches = sum(1 for t in transcripts if t.decoded != t.expected)
    config = {
        "b": args.b,
        "ell": args.ell,
        "bits": args.bits,
        "mode": args.mode,
        "seed": args.seed,
        "sweep": args.sweep,
    }
    max_bits = max(
        (max(r["alice_label_bits"], r["bob_label_bits"]) for r in rows), default=0
    )
    if args.format == "csv":
        _output(_csv_text(rows), args)
        print(
            f"runs={len(rows)} mismatches={mismatches} max_message_bits={max_bits}",
            file=sys.stderr,
        )
    else:
        summary = {
            "runs": len(rows),
            "mismatches": mismatches,
            "max_message_bits": max_bits,
            "transcripts": rows,
            "timing": {"wall_time_s": round(wall, 3)},
        }
        _emit(_report("sumindex", config, summary), args)
    return EXIT_OK if mismatches == 0 else EXIT_FAILED_CHECK


def _cmd_bench(args) -> int:
    g = read_graph(args.graph)
    d_values = [int(x) for x in args.D_range.split(",") if x]
    if not d_values:
        raise ValueError(f"--D-range {args.D_range!r} names no threshold")
    rows = []
    for d in d_values:
        t0 = time.perf_counter()
        result = build_for_graph(g, BuilderConfig(D=d, seed=args.seed))
        wall = time.perf_counter() - t0
        rep = result.report
        rows.append(
            {
                "D": d,
                "valid": rep.cover.valid,
                "total_size": rep.cover.total_size,
                "avg_hub_size": float(rep.cover.avg_hub_size),
                "S_size": rep.s_size,
                "Q_total": rep.q_total,
                "R_total": rep.r_total,
                "F_total": rep.f_total,
                "bucket_count": rep.bucket_count,
                "bound_ok": rep.ledger.bound_ok,
                "wall_time_s": round(wall, 3),
            }
        )
    config = {"graph": args.graph, "D_range": d_values, "seed": args.seed}
    if args.format == "csv":
        _output(_csv_text(rows), args)
    else:
        _emit(_report("bench", config, {"rows": rows}), args)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hublab",
        description="Hub labeling toolkit: generators, builder, verifiers, audits, protocol.",
    )
    # Shared flags, each given only to the subcommands that read it.
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", help="also write the report/table to this path")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed recorded in reports")
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--vertex-cap",
        type=int,
        default=family_gen.DEFAULT_VERTEX_CAP,
        help="refuse to generate instances above this vertex count",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[report, cap], help="generate a family instance")
    p.add_argument("--kind", choices=("H", "G", "Gprime"), required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--remove-file", help="mid-level coordinate vectors to delete, one per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", parents=[report, seed], help="run the labeling pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--D", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", parents=[report], help="verify a labeling against the oracle")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("closure", parents=[report], help="monotone closure of a labeling")
    p.add_argument("--graph", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("stats", parents=[report], help="size statistics of a label file")
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("audit", parents=[], help="structural audits")
    audit_sub = p.add_subparsers(dest="audit_command", required=True)
    pl = audit_sub.add_parser("lemma1", parents=[report, seed], help="unique midpoint paths")
    pl.add_argument("--graph", required=True)
    pl.add_argument("--meta", required=True)
    pl.add_argument("--sample", type=int, default=None)
    pl.set_defaults(func=_cmd_audit_lemma1)
    pc = audit_sub.add_parser("counting", parents=[report], help="closure counting bound")
    pc.add_argument("--graph", required=True)
    pc.add_argument("--meta", required=True)
    pc.add_argument("--labels", required=True)
    pc.set_defaults(func=_cmd_audit_counting)

    p = sub.add_parser(
        "sumindex", parents=[report, seed, cap, fmt], help="run the protocol simulator"
    )
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--bits", required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b-index", type=int, default=None)
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--mode", choices=("oracle", "hub"), default="oracle")
    p.set_defaults(func=_cmd_sumindex)

    p = sub.add_parser("bench", parents=[report, seed, fmt], help="size-vs-threshold sweep")
    p.add_argument("--graph", required=True)
    p.add_argument("--D-range", required=True, help="comma-separated thresholds, e.g. 2,4,8")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CoverVerificationError, InducedMatchingViolation, ResampleExhausted) as exc:
        # Failed internal checks of a run, not bad arguments or files.
        print(f"hublab: error: {exc}", file=sys.stderr)
        return EXIT_FAILED_CHECK
    except (
        graph_core.GraphFormatError,
        graph_core.ResourceLimitError,
        FileNotFoundError,
        ValueError,
    ) as exc:
        print(f"hublab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
