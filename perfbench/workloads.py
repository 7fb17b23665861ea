"""The four benchmark workloads.

Each workload has a set-up, a round (the unit of work that is timed and
repeated), a check of every round's outputs, and a final check against
references computed apart from the program. Outputs are checked against
networkx distances, the paper's formulas, or properties the method must have,
never against a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from types import SimpleNamespace

from hublab import (
    cli,
    family_gen,
    graph_core,
    hub_labeling,
    lowerbound_audit,
    sumindex_protocol,
    upperbound_builder,
)
from hublab.family_gen import FamilyParams
from hublab.graph_core import UNREACHABLE, WeightedGraph
from hublab.sumindex_protocol import SumIndexInstance
from hublab.upperbound_builder import BuilderConfig

import inputs

# Input sizes. Each keeps a round at a few seconds, so that a run of ten
# seconds repeats it and the whole benchmark fits its time budget.
REGULAR_N = 800  # build-3reg: 3-regular, 1.5 to 2.5 s per build
SPARSE_N = 400  # build-er-reduced: m = 2n, reduced to n = 751
SERVE_N = 800  # labels-serve: 3-regular, about 246 k label entries
QUERY_SOURCES = 20
QUERY_TARGETS = 100  # per source: 2000 queries per round
CHECK_SOURCES = 6  # build workloads: BFS-checked sources per run
ORACLE_ROUNDS = 8  # family-protocol: oracle rounds per round, half decode 1
LEMMA1_PAIRS = 64


class Run:
    """Operation ledger and step clock of one benchmark run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.steps: dict[str, list[float]] = {}
        self.timing_steps = False

    def op(self, fn, *args, count=1, **kwargs):
        """Call one operation (or `count` operations done by one call); a
        raised exception counts them as failed and the run goes on."""
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += count
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    @contextlib.contextmanager
    def step(self, name: str):
        if self.tracer is not None:
            self.tracer.step = name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if self.timing_steps:
                self.steps.setdefault(name, []).append(time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.step = None


# -- build workloads ------------------------------------------------------------


def composed_build(g: WeightedGraph, cfg: BuilderConfig, tracer):
    """build_for_graph's pipeline made of the public stage functions, so each
    stage gets its own span. Returns the labeling."""
    ub = upperbound_builder
    dm = graph_core.all_pairs(g)
    if ub.needs_reduction(g):
        g2, representative, origin = ub.reduce_degree(g)
        hl2 = _composed_stages(g2, graph_core.all_pairs(g2), cfg, tracer)
        return ub.project_back(hl2, representative, origin, dm)
    return _composed_stages(g, dm, cfg, tracer)


def _composed_stages(g: WeightedGraph, dm, cfg: BuilderConfig, tracer):
    ub = upperbound_builder
    D = ub.resolve_threshold(g.n, cfg.D)
    index = ub.build_pair_index(dm, D, zero_one=g.weight_kind in ("unit", "01"))
    S, Q = ub.sample_cover_set(dm, cfg, index=index)
    colors, R = ub.sample_coloring(dm, cfg, index=index)
    F, log = ub.build_matchings(dm, colors, cfg, index=index)
    hl = ub.assemble(S, Q, R, F, g, dm)
    tracer.count("small_pairs", len(index.small))
    tracer.count("buckets", len(log))
    tracer.count("S_entries", g.n * len(S))
    return hl


class Build:
    """One build_for_graph call per round on a seeded unit-weight graph."""

    def __init__(self, stream: int, n: int, make_edges):
        self.stream = stream
        self.n = n
        self.make_edges = make_edges

    def prepare(self, seed: int, workdir: str):
        edges = self.make_edges(self.n, inputs.rng_for(seed, self.stream))
        path = os.path.join(workdir, "graph.txt")
        inputs.write_graph_file(path, self.n, edges)
        return SimpleNamespace(seed=seed, edges=edges, path=path)

    def setup(self, inp):
        """Read the graph and build the labeling every round is checked
        against."""
        g = graph_core.read_graph(inp.path)
        cfg = BuilderConfig(seed=inp.seed)
        res = upperbound_builder.build_for_graph(g, cfg)
        return SimpleNamespace(
            **vars(inp), graph=g, cfg=cfg, ref=res.labeling, report=res.report, ref_text=None
        )

    def round(self, st, run: Run):
        with run.step("build"):
            res = run.op(upperbound_builder.build_for_graph, st.graph, st.cfg)
        return None if res is None else res.labeling

    def traced_round(self, st, run: Run):
        with run.step("build"):
            hl = run.op(composed_build, st.graph, st.cfg, run.tracer)
        run.tracer.count("cover_attempts", st.report.cover_resamples)
        run.tracer.count("color_attempts", st.report.color_resamples)
        return hl

    def check_round(self, st, hl, run: Run, traced: bool) -> None:
        if hl is None:
            return
        if traced:
            if st.ref_text is None:
                st.ref_text = hub_labeling.format_labels(st.ref)
            run.check(
                hub_labeling.format_labels(hl) == st.ref_text,
                "composed pipeline output differs from build_for_graph",
            )
        else:
            run.check(hl.hubs == st.ref.hubs, "same seed gave a different labeling")

    def finish(self, st, run: Run) -> None:
        rep = st.report
        run.check(rep.cover.valid, "labeling reported invalid")
        run.check(rep.ledger.bound_ok, "size ledger bound not met")
        n_stage = rep.reduced["n"] if rep.reduced else rep.n
        budget = 2 * n_stage * n_stage
        run.check(rep.q_random * rep.D <= budget, "cover sample exceeds the 2n^2/D budget")
        run.check(rep.r_total * rep.D <= budget, "coloring sample exceeds the 2n^2/D budget")
        run.check(rep.n == self.n and rep.m == len(st.edges), "report describes another graph")
        # Every query from each sampled source, and every stored hub distance
        # of the source, must equal the BFS distance on the original graph.
        rng = inputs.rng_for(st.seed, self.stream, 1)
        nxg = inputs.nx_graph(self.n, st.edges)
        hl = st.ref
        for s in sorted(rng.choice(self.n, size=CHECK_SOURCES, replace=False).tolist()):
            dist = inputs.bfs_distances(nxg, s)
            wrong = [t for t in range(hl.n) if hub_labeling.query(hl, s, t) != dist.get(t, UNREACHABLE)]
            run.check(not wrong, f"queries from {s} disagree with BFS at {wrong[:5]}")
            bad_hubs = [(h, d) for h, d in hl.entries(s) if dist.get(h) != d]
            run.check(not bad_hubs, f"stored hub distances of {s} are wrong: {bad_hubs[:5]}")

    def label_entries(self, st) -> int:
        return st.ref.total_size


# -- labels-serve ---------------------------------------------------------------


def cli_verify(graph_path: str, labels_path: str):
    """`hublab verify` run in-process; returns (exit code, parsed report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--graph", graph_path, "--labels", labels_path])
    return code, json.loads(buf.getvalue())


class LabelsServe:
    """A consumer's use of a finished labeling: write it, read it back,
    answer a batch of queries from it, and certify it with `hublab verify`."""
    stream = 2

    def prepare(self, seed: int, workdir: str):
        rng = inputs.rng_for(seed, self.stream)
        edges = inputs.regular_graph_edges(SERVE_N, 3, rng)
        graph_path = os.path.join(workdir, "serve-graph.txt")
        inputs.write_graph_file(graph_path, SERVE_N, edges)
        sources = rng.choice(SERVE_N, size=QUERY_SOURCES, replace=False).tolist()
        pairs = [
            (s, t) for s in sources for t in rng.integers(0, SERVE_N, size=QUERY_TARGETS).tolist()
        ]
        return SimpleNamespace(
            seed=seed,
            edges=edges,
            graph_path=graph_path,
            labels_path=os.path.join(workdir, "serve-labels.txt"),
            pairs=pairs,
        )

    def setup(self, inp):
        g = graph_core.read_graph(inp.graph_path)
        hl = upperbound_builder.build_for_graph(g, BuilderConfig(seed=inp.seed)).labeling
        return SimpleNamespace(**vars(inp), hl=hl, answers=None)

    def round(self, st, run: Run):
        with run.step("write"):
            run.op(hub_labeling.write_labels, st.hl, st.labels_path)
        with run.step("read"):
            back = run.op(hub_labeling.read_labels, st.labels_path)
        served = st.hl if back is None else back
        query = hub_labeling.query
        with run.step("query"):
            answers = [run.op(query, served, u, v) for u, v in st.pairs]
        with run.step("verify"):
            verdict = run.op(cli_verify, st.graph_path, st.labels_path)
        return back, answers, verdict

    traced_round = round

    def check_round(self, st, out, run: Run, traced: bool) -> None:
        back, answers, verdict = out
        if back is not None:
            run.check(back.hubs == st.hl.hubs, "labels read back differ from the labels written")
        if st.answers is None:
            st.answers = answers
        else:
            run.check(answers == st.answers, "the same queries gave different answers")
        if verdict is not None:
            code, report = verdict
            run.check(code == 0, f"hublab verify exited {code}")
            run.check(
                report.get("valid") is True and report.get("uncovered_total") == 0,
                "hublab verify did not report the labeling valid",
            )

    def finish(self, st, run: Run) -> None:
        nxg = inputs.nx_graph(SERVE_N, st.edges)
        dist = {}
        for (s, t), got in zip(st.pairs, st.answers):
            if got is None:
                continue
            if s not in dist:
                dist[s] = inputs.bfs_distances(nxg, s)
            run.check(got == dist[s].get(t, UNREACHABLE), f"query ({s},{t}) gave {got}")

    def label_entries(self, st) -> int:
        return st.hl.total_size


# -- family-protocol ------------------------------------------------------------

P_ORACLE = FamilyParams(b=2, ell=3)  # G(2,3): n = 220,096; each G'(2,3): 183,904
P_HUB = FamilyParams(b=2, ell=1)
P_LEMMA1 = FamilyParams(b=2, ell=2)


def _index_count(params: FamilyParams) -> int:
    return (params.s // 2) ** params.ell


def oracle_round(base, bits: str, a: int, b: int):
    """One oracle-mode protocol round, building G' from the bit string."""
    inst = SumIndexInstance(P_ORACLE, bits)
    gprime = sumindex_protocol.build_instance_graph(inst, base=base)
    return sumindex_protocol.run_protocol(inst, a, b, gprime=gprime)


class FamilyProtocol:
    """The paper's hard family: oracle sum-index rounds on G'(2,3), the
    hub-mode sweep on G'(2,1), the Lemma-1 audit on G(2,2) and the counting
    audit on H(2,3)."""
    stream = 4

    def prepare(self, seed: int, workdir: str):
        rng = inputs.rng_for(seed, self.stream)
        oracle = []
        for i in range(ORACLE_ROUNDS):
            bits = inputs.balanced_bits(_index_count(P_ORACLE), rng)
            oracle.append((bits, *inputs.index_pair(bits, i % 2, rng)))
        return SimpleNamespace(
            seed=seed,
            oracle=oracle,
            hub_bits=inputs.balanced_bits(_index_count(P_HUB), rng),
            audit_seed=int(rng.integers(0, 2**31)),
        )

    def setup(self, inp):
        h23 = family_gen.build_H(P_ORACLE)
        cfg = BuilderConfig(seed=inp.seed)
        return SimpleNamespace(
            **vars(inp),
            h23=h23,
            base23=family_gen.expand_to_G(h23),
            g21=family_gen.expand_to_G(family_gen.build_H(P_HUB)),
            g22=family_gen.expand_to_G(family_gen.build_H(P_LEMMA1)),
            hl_h23=upperbound_builder.build_for_graph(h23.graph, cfg).labeling,
            cfg=cfg,
        )

    def round(self, st, run: Run):
        with run.step("oracle"):
            oracle = [run.op(oracle_round, st.base23, bits, a, b) for bits, a, b in st.oracle]
        m = _index_count(P_HUB)
        with run.step("hub_sweep"):
            sweep = run.op(
                sumindex_protocol.sweep,
                SumIndexInstance(P_HUB, st.hub_bits),
                mode="hub",
                base=st.g21,
                builder=st.cfg,
                count=m * m,
            )
        with run.step("lemma1"):
            lemma = run.op(
                lowerbound_audit.audit_lemma1, st.g22, sample=LEMMA1_PAIRS, seed=st.audit_seed
            )
        with run.step("counting"):
            counting = run.op(lowerbound_audit.audit_counting, st.h23, st.hl_h23)
        return oracle, sweep, lemma, counting

    traced_round = round

    def check_round(self, st, out, run: Run, traced: bool) -> None:
        oracle, sweep, lemma, counting = out
        for (bits, a, b), tr in zip(st.oracle, oracle):
            if tr is not None:
                run.check((tr.a, tr.b) == (a, b), "transcript names other indices")
                self._check_transcript(run, tr, P_ORACLE, bits)
        if sweep is not None:
            m = _index_count(P_HUB)
            run.check(
                sorted((t.a, t.b) for t in sweep) == [(a, b) for a in range(m) for b in range(m)],
                "hub sweep did not run every (a, b) pair",
            )
            for tr in sweep:
                self._check_transcript(run, tr, P_HUB, st.hub_bits)
        if lemma is not None:
            run.check(lemma.checked == LEMMA1_PAIRS, f"Lemma-1 audit checked {lemma.checked} pairs")
            run.check(
                not lemma.failures and lemma.unique_ok == lemma.midpoint_ok == LEMMA1_PAIRS,
                f"Lemma-1 audit failures: {lemma.failures[:3]}",
            )
        if counting is not None:
            p = P_ORACLE
            floor = (p.level_size**2) // 2**p.ell
            run.check(counting.rhs == floor, f"counting floor {counting.rhs}, expected {floor}")
            run.check(counting.lhs >= floor, f"closure total {counting.lhs} below {floor}")
            run.check(
                counting.triplets == p.level_size * (p.s // 2) ** p.ell,
                f"counting audit saw {counting.triplets} triplets",
            )
            run.check(not counting.membership_failures, "counting audit membership failures")

    @staticmethod
    def _check_transcript(run: Run, tr, params: FamilyParams, bits: str) -> None:
        want = int(bits[(tr.a + tr.b) % len(bits)])
        ideal = inputs.unique_path_length(params.b, params.ell, tr.a, tr.b)
        run.check(tr.decoded == want, f"round ({tr.a},{tr.b}) decoded {tr.decoded}, bit is {want}")
        run.check(
            (tr.measured_dist == ideal) == bool(want),
            f"round ({tr.a},{tr.b}) measured {tr.measured_dist}, unique path length {ideal}",
        )

    def finish(self, st, run: Run) -> None:
        pass

    def label_entries(self, st) -> int:
        return st.hl_h23.total_size


WORKLOADS = {
    "build-3reg": lambda: Build(1, REGULAR_N, lambda n, rng: inputs.regular_graph_edges(n, 3, rng)),
    "build-er-reduced": lambda: Build(
        3, SPARSE_N, lambda n, rng: inputs.degree_sequence_edges(inputs.poisson_degrees(n, 4), rng)
    ),
    "labels-serve": LabelsServe,
    "family-protocol": FamilyProtocol,
}
