"""Span recorder for the traced benchmark run.

The spans wrap hublab's public functions at run time: every reference to a
traced function in the hublab modules is swapped for a wrapper while a round
runs, and restored afterwards. Nothing under src/ is edited. Spans (name,
start, end, parent, plus the benchmark phase and step that issued them) are
kept in memory and written out when the run ends; the per-layer metrics are
derived from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

# Public functions that get a span, as (module, attribute). The span is named
# "<module>.<attribute>".
TRACED = (
    ("graph_core", "all_pairs"),
    ("graph_core", "distances_from"),
    ("graph_core", "count_shortest_paths"),
    ("graph_core", "distance_between"),
    ("graph_core", "canonical_trees"),
    ("graph_core", "read_graph"),
    ("family_gen", "build_H"),
    ("family_gen", "expand_to_G"),
    ("family_gen", "delete_level_mid"),
    ("hub_labeling", "verify_cover"),
    ("hub_labeling", "read_labels"),
    ("hub_labeling", "format_labels"),
    ("hub_labeling", "monotone_closure"),
    ("hub_labeling", "query"),
    ("upperbound_builder", "build_pair_index"),
    ("upperbound_builder", "sample_cover_set"),
    ("upperbound_builder", "sample_coloring"),
    ("upperbound_builder", "build_matchings"),
    ("upperbound_builder", "assemble"),
    ("upperbound_builder", "reduce_degree"),
    ("upperbound_builder", "project_back"),
    ("upperbound_builder", "build_for_graph"),
    ("lowerbound_audit", "audit_lemma1"),
    ("lowerbound_audit", "audit_counting"),
    ("sumindex_protocol", "run_protocol"),
    ("sumindex_protocol", "build_instance_graph"),
    ("cli", "main"),
)
# The HubLabeling constructor is traced by patching the class's __init__, so
# isinstance checks and equality keep working.
CONSTRUCT = "hub_labeling.HubLabeling"
# Spans that also record resident size before and after the call.
WITH_RSS = frozenset({"graph_core.all_pairs", "hub_labeling.read_labels"})

# Per-layer metrics: name -> (unit, how, source, step). "how" is one of
#   total    summed span time per round, in seconds
#   calls    spans per round
#   self     summed self time (span minus child spans) per round, in seconds
#   setup    summed span time per set-up, in seconds
#   med_ms   median span time, in milliseconds
#   med_us   median span time, in microseconds
#   rss_mb   largest growth in resident size across one span, in MB
#   counter  a count the workload records per round
# A step, when given, keeps only the spans issued during that benchmark step.
LAYER_METRICS = {
    "all_pairs_s": ("s", "total", "graph_core.all_pairs", None),
    "all_pairs_calls": ("count", "calls", "graph_core.all_pairs", None),
    "all_pairs_rss_mb": ("MB", "rss_mb", "graph_core.all_pairs", None),
    "distances_from_s": ("s", "total", "graph_core.distances_from", None),
    "distances_from_calls": ("count", "calls", "graph_core.distances_from", None),
    "count_shortest_paths_s": ("s", "total", "graph_core.count_shortest_paths", None),
    "distance_between_ms": ("ms", "med_ms", "graph_core.distance_between", "oracle"),
    "canonical_trees_s": ("s", "total", "graph_core.canonical_trees", None),
    "read_graph_s": ("s", "total", "graph_core.read_graph", None),
    "build_H_s": ("s", "setup", "family_gen.build_H", None),
    "expand_to_G_s": ("s", "setup", "family_gen.expand_to_G", None),
    "delete_level_mid_s": ("s", "total", "family_gen.delete_level_mid", "oracle"),
    "construct_s": ("s", "total", CONSTRUCT, None),
    "verify_cover_s": ("s", "total", "hub_labeling.verify_cover", None),
    "verify_cover_calls": ("count", "calls", "hub_labeling.verify_cover", None),
    "parse_self_s": ("s", "self", "hub_labeling.read_labels", None),
    "format_labels_s": ("s", "total", "hub_labeling.format_labels", None),
    "labels_rss_mb": ("MB", "rss_mb", "hub_labeling.read_labels", None),
    "monotone_closure_s": ("s", "total", "hub_labeling.monotone_closure", None),
    "query_calls": ("count", "calls", "hub_labeling.query", None),
    "query_us": ("us", "med_us", "hub_labeling.query", None),
    "build_pair_index_s": ("s", "total", "upperbound_builder.build_pair_index", None),
    "small_pairs": ("count", "counter", "small_pairs", None),
    "sample_cover_set_s": ("s", "total", "upperbound_builder.sample_cover_set", None),
    "cover_attempts": ("count", "counter", "cover_attempts", None),
    "sample_coloring_s": ("s", "total", "upperbound_builder.sample_coloring", None),
    "color_attempts": ("count", "counter", "color_attempts", None),
    "build_matchings_s": ("s", "total", "upperbound_builder.build_matchings", None),
    "buckets": ("count", "counter", "buckets", None),
    "assemble_self_s": ("s", "self", "upperbound_builder.assemble", None),
    "S_entries": ("count", "counter", "S_entries", None),
    "reduce_degree_s": ("s", "total", "upperbound_builder.reduce_degree", None),
    "project_back_self_s": ("s", "self", "upperbound_builder.project_back", None),
    "audit_lemma1_self_s": ("s", "self", "lowerbound_audit.audit_lemma1", None),
    "audit_counting_self_s": ("s", "self", "lowerbound_audit.audit_counting", None),
    "run_protocol_ms": ("ms", "med_ms", "sumindex_protocol.run_protocol", "oracle"),
    "build_instance_graph_s": ("s", "total", "sumindex_protocol.build_instance_graph", "oracle"),
    "hub_builds": ("count", "calls", "upperbound_builder.build_for_graph", "hub_sweep"),
    "verify_self_s": ("s", "self", "cli.main", None),
}
OVERHEAD_METRIC = "trace_overhead_ratio"


def rss_bytes() -> int:
    """Resident size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_BYTES


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: list[tuple[str, float]] = []
        self.phase = "setup"
        self.step = None
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "phase": self.phase,
            "step": self.step,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rss = name in WITH_RSS
        if rss:
            rec["rss_before"] = rss_bytes()
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            if rss:
                rec["rss_after"] = rss_bytes()
            self._open.pop()

    def count(self, name: str, value) -> None:
        self.counters.append((name, value))

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans, "counters": self.counters}, fh)


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


@contextmanager
def installed(tracer: Tracer | None):
    """Swap every hublab reference to a traced function for its wrapper."""
    if tracer is None:
        yield
        return
    from hublab import hub_labeling

    modules = [m for k, m in sys.modules.items() if k == "hublab" or k.startswith("hublab.")]
    undo = []
    for modname, attr in TRACED:
        orig = getattr(importlib.import_module(f"hublab.{modname}"), attr)
        wrapped = _wrapper(tracer, f"{modname}.{attr}", orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))
    init = hub_labeling.HubLabeling.__init__
    hub_labeling.HubLabeling.__init__ = _wrapper(tracer, CONSTRUCT, init)
    undo.append((hub_labeling.HubLabeling, "__init__", init))
    try:
        yield
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


def layer_metrics(tracer: Tracer, rounds: int, setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorded spans; zero for layers the
    workload does not reach."""
    child_time: dict[int, float] = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for metric, (unit, how, source, step) in LAYER_METRICS.items():
        if how == "counter":
            value = sum(v for name, v in tracer.counters if name == source) / rounds
            out[metric] = (value, unit)
            continue
        phase = "setup" if how == "setup" else "round"
        spans = [
            s
            for s in tracer.spans
            if s["name"] == source and s["phase"] == phase and (step is None or s["step"] == step)
        ]
        durations = [s["end"] - s["start"] for s in spans]
        if how == "total":
            value = sum(durations) / rounds
        elif how == "setup":
            value = sum(durations) / setups
        elif how == "calls":
            value = len(spans) / rounds
        elif how == "self":
            value = sum(d - child_time.get(s["id"], 0.0) for s, d in zip(spans, durations)) / rounds
        elif how == "med_ms":
            value = statistics.median(durations) * 1e3 if durations else 0.0
        elif how == "med_us":
            value = statistics.median(durations) * 1e6 if durations else 0.0
        elif how == "rss_mb":
            value = max((s["rss_after"] - s["rss_before"] for s in spans), default=0) / 2**20
        else:
            raise ValueError(f"unknown aggregation {how!r} for {metric}")
        out[metric] = (value, unit)
    return out
