"""Atlas scans: per-graph parameter records, implication checks, and a
process pool for the larger catalogs.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import NamedTuple

from .coloring import canonical_colorings
from .critical import CHECKS, four_params
from .errors import Graph6Error
from .graphs import Graph, emit_graph6, parse_graph6


class GraphRecord(NamedTuple):
    graph6: str
    n: int
    chi: int
    quad: tuple[int, int, int, int]
    uniquely_colorable: bool
    uniform: int | None


class ScanReport(NamedTuple):
    check: str
    records: list[GraphRecord]
    counterexamples: list[GraphRecord]
    parse_errors: list[tuple[int, str]]

    @property
    def checked(self) -> int:
        return len(self.records)


def record_for_graph(g: Graph, graph6: str | None = None) -> GraphRecord:
    quad = four_params(g)
    chi = quad.witnesses["uscs"][0].k  # four_params colors with chi colors
    return GraphRecord(
        graph6 if graph6 is not None else emit_graph6(g),
        g.n,
        chi,
        quad.values(),
        len(list(islice(canonical_colorings(g, chi), 2))) == 1,
        quad.uniform_value(),
    )


def implication_holds(check: str, rec: GraphRecord) -> bool:
    """Whether the selected implication holds for one record.

    The empty graph is excluded (chi - 1 would be negative there).
    """
    if rec.n == 0:
        return True
    if check == "prop1":
        return not rec.uniquely_colorable or rec.uniform == rec.chi - 1
    if check == "converse":
        return rec.uniform != rec.chi - 1 or rec.uniquely_colorable
    if check == "uniform":
        return rec.uniform is not None
    raise ValueError(f"unknown check {check!r}")


def _worker(args: tuple[int, str]):
    line_no, line = args
    try:
        return line_no, record_for_graph(parse_graph6(line), line)
    except Graph6Error as exc:
        return line_no, str(exc)


def walk_graph6_lines(lines, jobs: int = 1):
    """Yield (line number, `GraphRecord` or parse error message) for each
    nonblank line, in input order, on `jobs` worker processes when jobs > 1."""
    tasks = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if jobs <= 1:
        yield from map(_worker, tasks)
        return
    import multiprocessing  # only pools pay its import time

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(_worker, tasks, chunksize=16)


def scan_graph6_lines(
    lines,
    check: str,
    jobs: int = 1,
    progress=None,
) -> ScanReport:
    """Run one implication check over graph6 lines.

    Bad lines are recorded and skipped; record order follows input order
    even when distributed over a pool.  Every `progress` records (bad
    lines do not count), one line goes to stderr.
    """
    if check not in CHECKS:
        raise ValueError(f"check must be one of {CHECKS}")
    report = ScanReport(check, [], [], [])
    for line_no, rec in walk_graph6_lines(lines, jobs):
        if isinstance(rec, str):
            report.parse_errors.append((line_no, rec))
            continue
        report.records.append(rec)
        if not implication_holds(check, rec):
            report.counterexamples.append(rec)
        if progress and report.checked % progress == 0:
            print(f"  scanned {report.checked} graphs", file=sys.stderr, flush=True)
    return report
