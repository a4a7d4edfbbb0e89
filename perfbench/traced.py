"""The traced in-process run: spans around public calls of each module.

The benchmark replaces each public function below, in every `critsets`
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent, op).  The program itself is unchanged; the
originals are put back when the run ends.  Spans stay in memory and are
written out once, at the end.

A layer is the module a span's name starts with.  Its self time is the time
its spans cover minus the time covered by their direct children.
"""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager
from time import perf_counter

import workloads
from critsets import coloring, critical, graphs, reductions, scan, sudoku
from critsets.coloring import Coloring

LAYERS = ("graphs", "coloring", "critical", "sudoku", "reductions", "scan")

# (span name, owner, attribute): the public calls the traced run times
INSTRUMENTED = [
    ("graphs.parse_graph6", graphs, "parse_graph6"),
    ("graphs.emit_graph6", graphs, "emit_graph6"),
    ("coloring.chromatic_number", coloring, "chromatic_number"),
    ("coloring.is_uniquely_colorable", coloring, "is_uniquely_colorable"),
    ("coloring.count_colorings_extending", coloring, "count_colorings_extending"),
    ("coloring.sample_proper_coloring", coloring, "sample_proper_coloring"),
    ("coloring.is_proper", Coloring, "is_proper"),
    ("critical.four_params", critical, "four_params"),
    ("critical.scs_lcs_for_coloring", critical, "scs_lcs_for_coloring"),
    ("critical.is_critical", critical, "is_critical"),
    ("sudoku.trial_campaign", sudoku, "trial_campaign"),
    ("sudoku.random_board", sudoku, "random_board"),
    ("sudoku.random_determining_set", sudoku, "random_determining_set"),
    ("sudoku.certify_fair_puzzle", sudoku, "certify_fair_puzzle"),
    ("sudoku.mnc_exhaustive", sudoku, "mnc_exhaustive"),
    ("reductions.reduce_olcs", reductions, "reduce_olcs"),
    ("reductions.reduce_ulcs", reductions, "reduce_ulcs"),
    ("reductions.verify_reduction_small", reductions, "verify_reduction_small"),
    ("scan.record_for_graph", scan, "record_for_graph"),
    ("scan.scan_graph6_lines", scan, "scan_graph6_lines"),
]

COUNT_EXTENDING_SAMPLES = 31


class Tracer:
    """Spans as [name, start, end, parent index, op index]; an op is a root
    span named "op:<name>" and every span below it carries its index."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def op(self, name):
        self._op = len(self.spans)
        try:
            with self.span(f"op:{name}"):
                yield
        finally:
            self._op = -1

    @contextmanager
    def instrumented(self):
        """Swap every instrumented function for its traced wrapper in each
        loaded critsets module (and the Coloring class), then restore."""
        patched = []
        try:
            for name, owner, attr in INSTRUMENTED:
                orig = getattr(owner, attr)
                wrapped = self.wrap(name, orig)
                holders = [owner] + [
                    mod for key, mod in sorted(sys.modules.items())
                    if key.split(".")[0] == "critsets" and mod is not owner
                    and getattr(mod, attr, None) is orig
                ]
                for holder in holders:
                    patched.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)
            yield
        finally:
            for holder, attr, orig in reversed(patched):
                setattr(holder, attr, orig)


# ---------------------------------------------------------------------------
# traced workloads: the CLI ops' computations, called in process; each
# returns (errors, exact counts)


def run_params(t: Tracer, w: workloads.Workload):
    results = []
    with t.instrumented():
        for label, g6, chi, expected in w.inputs["cases"]:
            with t.op(f"params {label}"):
                g = graphs.parse_graph6(g6)
                k = coloring.chromatic_number(g)
                with t.span("coloring.canonical_colorings"):
                    tuples = list(coloring.canonical_colorings(g, k))
                per_coloring = [critical.scs_lcs_for_coloring(g, Coloring(tup, k))
                                for tup in tuples]
            results.append((label, k, chi, expected, per_coloring))
    errors = []
    for label, k, chi, expected, per_coloring in results:
        scs = [r.scs for r in per_coloring]
        lcs = [r.lcs for r in per_coloring]
        quad = (min(scs), max(scs), min(lcs), max(lcs))
        if k != chi or quad != tuple(expected):
            errors.append(f"traced params {label}: chi {k}, quad {quad}")
    n = sum(len(r[4]) for r in results)
    return errors, {"coloring.colorings": n, "critical.calls": n}


def run_scan(t: Tracer, w: workloads.Workload):
    with t.instrumented():
        with t.op("atlas 6"):
            atlas = [graphs.emit_graph6(g) for g in graphs.atlas_graphs(6)]
        with t.op("scan converse"):
            report = scan.scan_graph6_lines(w.inputs["lines"], "converse", jobs=1)
    rows = [(r.graph6, r.n, r.chi, r.quad, r.uniquely_colorable,
             scan.implication_holds("converse", r)) for r in report.records]
    errors = [workloads.atlas_check("\n".join(atlas), ""),
              workloads.check_scan_rows(rows, w.inputs["lines"])]
    if report.counterexamples or report.parse_errors:
        errors.append("traced scan reported counterexamples or parse errors")
    return [e for e in errors if e], {"scan.graphs": report.checked}


def run_sudoku(t: Tracer, w: workloads.Workload):
    with t.instrumented():
        with t.op("sudoku trials 3"):
            stats = sudoku.trial_campaign(3, workloads.TRIAL_COUNT, w.seed)
        with t.op("sudoku mnc"):
            sym = sudoku.mnc_exhaustive(2, symmetry=True)
        with t.op("sudoku mnc --no-symmetry"):
            nosym = sudoku.mnc_exhaustive(2, symmetry=False)
    errors = [] if stats.sizes == workloads.trial_sizes(w.seed) else ["traced trials differ"]
    for r in (sym, nosym):
        clues = {v: r.board.colors[v] for v in graphs.bits(r.clues)}
        errors.append(workloads.check_mnc(r.min_clues, clues))
    return [e for e in errors if e], {"sudoku.surviving_cells": sum(stats.sizes)}


def run_reduce(t: Tracer, w: workloads.Workload):
    l3, k7 = w.inputs["latin3"], w.inputs["complete7"]
    # all-but-one-vertex assignments of the olcs proof coloring, built untimed
    big = reductions.reduce_olcs(l3)
    colors = reductions.proof_coloring_olcs(
        big, Coloring(next(coloring.canonical_colorings(l3, 3)), 3)).colors
    picks = random.Random(w.seed).sample(range(big.graph.n), COUNT_EXTENDING_SAMPLES)
    fixed = [{u: c for u, c in enumerate(colors) if u != v} for v in picks]
    cases = []
    with t.instrumented():
        with t.op("reduce olcs latin:3"):
            inst = reductions.reduce_olcs(l3)
            graphs.emit_graph6(inst.graph)
            report = reductions.verify_reduction_small(l3, "olcs", seed=w.seed)
            cases.append(("olcs", l3, inst, report))
        for label, h in (("complete:7", k7), ("latin:3", l3)):
            with t.op(f"reduce ulcs {label}"):
                inst = reductions.reduce_ulcs(h)
                report = reductions.verify_reduction_small(h, "ulcs", seed=w.seed)
                cases.append(("ulcs", h, inst, report))
        with t.op("count_extending"):
            for f in fixed:
                coloring.count_colorings_extending(big.graph, 3, f, 2)
    errors = []
    for variant, h, inst, report in cases:
        if (inst.graph.n, inst.k) != workloads.closed_form(variant, h) or not report.consistent:
            errors.append(f"traced reduce {variant}: |V(G)|={inst.graph.n} k={inst.k} "
                          f"consistent={report.consistent}")
    return errors, {"reductions.g_vertices": sum(c[2].graph.n for c in cases)}


RUNNERS = {"params": run_params, "scan": run_scan, "sudoku": run_sudoku, "reduce": run_reduce}


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Self time and span count of every layer."""
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[0].split(".")[0] == layer]
        out[f"{layer}.self_s"] = (sum(selfs[i] for i in mine), "s")
        out[f"{layer}.spans"] = (len(mine), "count")
    return out


def op_totals(spans) -> dict[str, float]:
    return {s[0][3:]: s[2] - s[1] for s in spans if s[0].startswith("op:")}


def summarize(prefix: str, values: list[float], unit: str, percentiles) -> dict:
    """p-th percentiles (nearest rank) that have at least ten samples beyond
    them, plus the max and the sample count."""
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
    ordered = sorted(v * scale for v in values)
    out = {}
    for p in percentiles:
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            out[f"{prefix}.p{p}"] = (ordered[rank - 1], unit)
    if ordered:
        out[f"{prefix}.max"] = (ordered[-1], unit)
    out[f"{prefix}.count"] = (len(ordered), "count")
    return out


# (metric, span names, op filter or None, percentiles or None for a sum, unit)
DETAIL = {
    "params": [
        ("coloring.canonical_colorings_s", ("coloring.canonical_colorings",), None, None, "s"),
        ("critical.scs_lcs_ms", ("critical.scs_lcs_for_coloring",), None, (50, 90), "ms"),
    ],
    "scan": [
        ("graphs.parse_graph6_us", ("graphs.parse_graph6",), None, (50, 99), "us"),
        ("coloring.chromatic_number_ms", ("coloring.chromatic_number",), None, (50, 99), "ms"),
        ("coloring.is_uniquely_colorable_ms", ("coloring.is_uniquely_colorable",), None,
         (50, 99), "ms"),
        ("critical.four_params_ms", ("critical.four_params",), None, (50, 99), "ms"),
        ("scan.record_for_graph_ms", ("scan.record_for_graph",), None, (50, 99), "ms"),
    ],
    "sudoku": [
        ("sudoku.random_board_ms", ("sudoku.random_board",), None, (50, 99), "ms"),
        ("sudoku.random_determining_set_ms", ("sudoku.random_determining_set",), None,
         (50, 99), "ms"),
        ("sudoku.certify_fair_puzzle_ms", ("sudoku.certify_fair_puzzle",), None, (50, 99), "ms"),
        ("coloring.is_proper_us", ("coloring.is_proper",), None, (50, 99), "us"),
        ("sudoku.mnc_exhaustive_s.sym", ("sudoku.mnc_exhaustive",), "sudoku mnc", None, "s"),
        ("sudoku.mnc_exhaustive_s.nosym", ("sudoku.mnc_exhaustive",), "sudoku mnc --no-symmetry",
         None, "s"),
    ],
    "reduce": [
        ("graphs.emit_graph6_s.big", ("graphs.emit_graph6",), "reduce olcs latin:3", None, "s"),
        ("coloring.count_extending_ms", ("coloring.count_colorings_extending",),
         "count_extending", (50,), "ms"),
        ("critical.is_critical_s.big", ("critical.is_critical",), "reduce olcs latin:3",
         None, "s"),
        ("reductions.build_s", ("reductions.reduce_olcs", "reductions.reduce_ulcs"), None,
         None, "s"),
        ("reductions.verify_s", ("reductions.verify_reduction_small",), None, None, "s"),
    ],
}


def detail_metrics(workload: str, spans) -> dict[str, tuple[float, str]]:
    """The workload's named per-call metrics, as listed in DETAIL."""
    out = {}
    for metric, names, op, percentiles, unit in DETAIL[workload]:
        values = [s[2] - s[1] for s in spans
                  if s[0] in names and (op is None or spans[s[4]][0] == f"op:{op}")]
        if percentiles is None:
            out[metric] = (sum(values), unit)
        else:
            out.update(summarize(metric, values, unit, percentiles))
    if workload == "scan":
        out["scan.self_s"] = layer_metrics(spans)["scan.self_s"]
    return out
