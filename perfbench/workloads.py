"""Workload inputs, CLI ops and the checks on their outputs.

A workload is a list of timed ops, each one `critsets` child process, plus
untimed probe ops that pin known defects.  Every input comes from the seed:
graphs are relabelled by it and passed as graph6, or it is passed as --seed.
Global CLI flags go before the subcommand, where the parser expects them.

Each check returns None when the output is right and a one-line reason when
it is not.  Where an independent route exists the check uses it: closed
forms from `formulas`, a reference table recorded from the engine and keyed
by this benchmark's own canonical form, or the same computation in process.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass, field
from functools import cache
from math import comb
from pathlib import Path
from typing import Callable

import reference
from critsets import formulas, graphs, reductions, sudoku
from critsets.coloring import Coloring
from critsets.critical import PARAM_NAMES, is_critical

Check = Callable[[str, str], "str | None"]

SCAN_ORDERS = range(1, 8)
TRIAL_COUNT = 3000


@dataclass
class Op:
    """One CLI call: argv after `critsets`, the exit code it must give, and
    the check on (stdout, stderr)."""

    name: str
    argv: list[str]
    check: Check
    expect_code: int = 0
    timeout: float = 150.0


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)


def relabel(g: graphs.Graph, rng: random.Random) -> graphs.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def latin(n: int) -> graphs.Graph:
    return graphs.cartesian_product(graphs.make_complete(n), graphs.make_complete(n))


# ---------------------------------------------------------------------------
# params


def check_quad(g: graphs.Graph, expected: tuple, quad: dict) -> str | None:
    """Values equal `expected`, and every witness is a critical set of the
    stated size for a proper coloring of g."""
    got = tuple(quad[name] for name in PARAM_NAMES)
    if got != tuple(expected):
        return f"quad {got} != expected {tuple(expected)}"
    for name in PARAM_NAMES:
        wit = quad["witnesses"][name]
        coloring = Coloring(tuple(wit["coloring"]), quad["k"])
        mask = graphs.mask_of(wit["set"])
        if len(wit["set"]) != quad[name] or mask.bit_count() != quad[name]:
            return f"{name} witness has {len(wit['set'])} vertices, value is {quad[name]}"
        if not coloring.is_proper(g):
            return f"{name} witness coloring is not proper"
        if not is_critical(g, coloring, mask).minimal:
            return f"{name} witness set is not critical"
    return None


def _params_check(g: graphs.Graph, chi: int, expected: tuple, clues: int | None) -> Check:
    def check(out: str, err: str) -> str | None:
        data = json.loads(out)
        if (data["n"], data["m"], data["chi"], data["k"]) != (g.n, g.m, chi, chi):
            return f"header {data['n'], data['m'], data['chi'], data['k']} is wrong"
        if clues is not None and data["uscs"] != clues:
            return f"uscs {data['uscs']} != minimum clue count {clues}"
        return check_quad(g, expected, data)
    return check


def params_workload(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    # cross-route: uscs of the order-2 Sudoku graph is the minimum clue count
    mnc = sudoku.mnc_exhaustive(2).min_clues
    cases = [
        ("C11", relabel(graphs.make_cycle(11), rng), 3, formulas.cycle_params(11).values(), None),
        ("sudoku:2", relabel(sudoku.sudoku_graph(2).graph, rng), 4, (4, 4, 5, 6), mnc),
    ]
    inputs = [(label, graphs.emit_graph6(g), chi, expected)
              for label, g, chi, expected, _ in cases]
    ops = [
        Op(f"params {label}", ["--format", "json", "params", g6],
           _params_check(g, chi, expected, clues))
        for (label, g, chi, expected, clues), (_, g6, _, _) in zip(cases, inputs)
    ]
    probes = [Op("probe params cycle:19", ["params", "cycle:19"], _one_line_reason,
                 expect_code=2, timeout=5.0)]
    return Workload("params", seed, ops, probes, {"cases": inputs})


def _one_line_reason(out: str, err: str) -> str | None:
    lines = [line for line in err.splitlines() if line.strip()]
    return None if len(lines) == 1 else f"stderr has {len(lines)} lines, expected one"


# ---------------------------------------------------------------------------
# scan


def check_scan_rows(rows: list[tuple], lines: list[str]) -> str | None:
    """rows: (graph6, n, chi, quad, uniquely_colorable, holds) per record."""
    if len(rows) != len(lines):
        return f"{len(rows)} records for {len(lines)} input lines"
    if sorted(r[0] for r in rows) != sorted(lines):
        return "records do not match the input lines"
    table = reference.load()
    for g6, n, chi, quad, uc, holds in rows:
        g = graphs.parse_graph6(g6)
        want = table.get(reference.canonical_key(g.n, g.adj))
        if want is None or g.n != n:
            return f"{g6}: not a graph of the reference table"
        if [chi, *quad, int(uc)] != want:
            return f"{g6}: {[chi, *quad, int(uc)]} != reference {want}"
        if not holds:
            return f"{g6}: reported as a counterexample"
        if graphs.is_bipartite(g) and formulas.bipartite_params(g).values() != tuple(quad):
            return f"{g6}: bipartite closed form disagrees"
    return None


def _scan_check(lines: list[str]) -> Check:
    def check(out: str, err: str) -> str | None:
        reader = list(csv.reader(io.StringIO(out)))
        if not reader or reader[0][0] != "graph6":
            return "no CSV header"
        rows = []
        for r in reader[1:]:
            quad = tuple(int(x) for x in r[3:7])
            rows.append((r[0], int(r[1]), int(r[2]), quad, r[7] == "1", r[9] == "1"))
        return check_scan_rows(rows, lines)
    return check


def atlas_check(out: str, err: str) -> str | None:
    lines = out.split()
    want = {graphs.emit_graph6(g) for g in graphs.atlas_graphs(6)}
    if len(lines) != len(set(lines)) or set(lines) != want:
        return f"atlas 6 printed {len(lines)} lines, not the {len(want)} classes"
    return None


def scan_workload(seed: int, tmp: Path) -> Workload:
    rng = random.Random(seed)
    lines = [graphs.emit_graph6(relabel(g, rng))
             for n in SCAN_ORDERS for g in graphs.atlas_graphs(n)]
    rng.shuffle(lines)
    path = tmp / "scan_input.g6"
    path.write_text("\n".join(lines) + "\n")
    ops = [
        Op("atlas 6", ["atlas", "6"], atlas_check),
        Op("scan converse", ["--format", "csv", "--jobs", "1", "scan", str(path),
                             "--check", "converse"], _scan_check(lines)),
    ]
    return Workload("scan", seed, ops, [], {"lines": lines})


# ---------------------------------------------------------------------------
# sudoku


@cache
def trial_sizes(seed: int) -> tuple[int, ...]:
    """Survivor sizes from the in-process campaign, which certifies every
    survivor set as determining."""
    return sudoku.trial_campaign(3, TRIAL_COUNT, seed).sizes


def _trials_check(seed: int) -> Check:
    def check(out: str, err: str) -> str | None:
        rows = list(csv.reader(io.StringIO(out)))
        want = [["trial", "surviving", "cells"]]
        want += [[str(i), str(s), "81"] for i, s in enumerate(trial_sizes(seed))]
        return None if rows == want else "trial CSV differs from the in-process campaign"
    return check


def check_mnc(min_clues: int, clues: dict[int, int]) -> str | None:
    if min_clues != 4 or len(clues) != 4:
        return f"minimum clues {min_clues} with {len(clues)} clues, expected 4"
    structure = sudoku.sudoku_graph(2)
    if sudoku.count_puzzle_completions(structure, clues) != 1:
        return "the reported puzzle is not fair"
    return None


def _mnc_check(out: str, err: str) -> str | None:
    head, _, board = out.partition("\n")
    m = re.fullmatch(r"minimum clues: (\d+)", head.strip())
    if not m:
        return "no minimum-clues line"
    n, clues = sudoku.parse_board_text(board)
    return check_mnc(int(m.group(1)), clues) if n == 2 else "board is not order 2"


def sudoku_workload(seed: int, tmp: Path) -> Workload:
    s = ["--seed", str(seed)]
    ops = [
        Op("sudoku trials 3", s + ["sudoku", "trials", "3", "--count", str(TRIAL_COUNT)],
           _trials_check(seed)),
        Op("sudoku mnc", ["sudoku", "mnc"], _mnc_check),
        Op("sudoku mnc --no-symmetry", ["sudoku", "mnc", "--no-symmetry"], _mnc_check),
    ]
    return Workload("sudoku", seed, ops)


# ---------------------------------------------------------------------------
# reduce


def closed_form(variant: str, h: graphs.Graph) -> tuple[int, int]:
    """(|V(G)|, k) from the constructions in the `reductions` docstring."""
    n, m = h.n, h.m
    if variant == "ulcs":
        return n + m * (m + n + 1) + 3, m + n + 3
    pairs = sum(comb(h.degree(v), 2) for v in range(n))
    return 2 * m + (2 * m + 2) * pairs + 3, (2 * m + 2) * pairs + 2


@cache
def _olcs_graph(h: graphs.Graph) -> graphs.Graph:
    return reductions.reduce_olcs(h).graph


def _reduce_check(variant: str, h: graphs.Graph, out_prefix: Path | None = None) -> Check:
    def check(out: str, err: str) -> str | None:
        m = re.search(r"variant=(\w+) \|V\(G\)\|=(\d+) \|E\(G\)\|=\d+ k=(\d+)", out)
        if not m or m.group(1) != variant:
            return "no instance line"
        got = (int(m.group(2)), int(m.group(3)))
        if got != closed_form(variant, h):
            return f"(|V(G)|, k) = {got}, closed form gives {closed_form(variant, h)}"
        if "consistent=True" not in out:
            return "verification did not report consistent=True"
        if out_prefix is not None:
            text = Path(f"{out_prefix}.g6").read_text().strip()
            if graphs.parse_graph6(text) != _olcs_graph(h):
                return "--out graph6 does not parse back to reduce_olcs(H).graph"
        return None
    return check


def reduce_workload(seed: int, tmp: Path) -> Workload:
    s = ["--seed", str(seed)]
    prefix = tmp / "olcs_latin3"
    k7, k8, l3 = graphs.make_complete(7), graphs.make_complete(8), latin(3)
    ops = [
        Op("reduce olcs latin:3",
           s + ["reduce", "olcs", "latin:3", "--verify", "--out", str(prefix)],
           _reduce_check("olcs", l3, prefix)),
        Op("reduce ulcs complete:7", s + ["reduce", "ulcs", "complete:7", "--verify"],
           _reduce_check("ulcs", k7)),
        Op("reduce ulcs latin:3", s + ["reduce", "ulcs", "latin:3", "--verify"],
           _reduce_check("ulcs", l3)),
    ]
    probes = [Op("probe reduce ulcs complete:8", s + ["reduce", "ulcs", "complete:8", "--verify"],
                 _reduce_check("ulcs", k8), timeout=60.0)]
    return Workload("reduce", seed, ops, probes, {"latin3": l3, "complete7": k7})


BUILDERS = {"params": params_workload, "scan": scan_workload, "sudoku": sudoku_workload,
            "reduce": reduce_workload}


def setup_op() -> Op:
    """A call that does no work: interpreter start, imports and argparse."""
    def check(out: str, err: str) -> str | None:
        return None if "uscs=0 oscs=0 ulcs=0 olcs=0" in out else "unexpected output"
    return Op("setup", ["params", "empty:1"], check, timeout=30.0)
