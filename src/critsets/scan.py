"""Atlas scans: per-graph parameter records, implication checks, and a
process pool for the larger catalogs.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

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
    """One `four_params` run's record of g.

    Unique colorability (one chi-coloring up to palette permutation) is
    read off that run, with no second enumeration:
    - with no edge, g has one chi-coloring (n = 0 included): True;
    - disconnected with an edge, False: chi >= 2, and a component of
      chromatic number chi uses all chi colors, so the only palette
      permutation that keeps its coloring is the identity.  Swapping two
      colors on another component alone keeps the coloring proper and
      changes it, so it gives a second palette orbit;
    - connected, True iff T = 1, with T the palette orbits that
      `four_params` counted (`ParamQuad.palette_orbits`).
    """
    quad = four_params(g)
    chi = quad.witnesses["uscs"][0].k  # four_params colors with chi colors
    return GraphRecord(
        graph6 if graph6 is not None else emit_graph6(g),
        g.n,
        chi,
        quad.values(),
        not any(g.adj) or quad.palette_orbits == 1,
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a mask set by `taskset` or a parent process leaves
    out CPUs that `os.cpu_count` counts), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def walk_graph6_lines(lines, jobs: int = 1):
    """Yield (line number, `GraphRecord` or parse error message) for each
    nonblank line, in input order, on min(jobs, `_usable_cpus()`) worker
    processes when that is above 1.  `lines` is read as records are asked
    for: one line per record in process, and by a pool in chunks of 16
    nonblank lines, with at most 2 x jobs chunks handed out beyond the one
    whose records are being yielded, so a file object is never held
    whole."""
    stripped = ((i, line.strip()) for i, line in enumerate(lines, 1))
    tasks = ((i, line) for i, line in stripped if line)
    jobs = min(jobs, _usable_cpus())
    if jobs <= 1:
        yield from map(_worker, tasks)
        return
    import multiprocessing  # only pools pay its import time
    from collections import deque
    from itertools import islice

    chunks = iter(lambda: list(islice(tasks, 16)), [])
    with multiprocessing.Pool(jobs) as pool:
        handed_out = (pool.map_async(_worker, chunk, len(chunk)) for chunk in chunks)
        pending = deque(islice(handed_out, 2 * jobs))
        while pending:
            done = pending.popleft().get()
            pending.extend(islice(handed_out, 1))
            yield from done


def scan_records(lines, parse_errors: list, jobs: int = 1, progress=None):
    """Yield the `GraphRecord` of each graph6 line in input order, even
    when distributed over a pool.  Bad lines go to `parse_errors` as (line
    number, message) and are skipped.  Every `progress` records (bad lines
    do not count), one line goes to stderr."""
    checked = 0
    for line_no, rec in walk_graph6_lines(lines, jobs):
        if isinstance(rec, str):
            parse_errors.append((line_no, rec))
            continue
        yield rec
        checked += 1
        if progress and checked % progress == 0:
            print(f"  scanned {checked} graphs", file=sys.stderr, flush=True)


def scan_graph6_lines(
    lines,
    check: str,
    jobs: int = 1,
    progress=None,
) -> ScanReport:
    """Run one implication check over graph6 lines (`scan_records`),
    keeping every record."""
    if check not in CHECKS:
        raise ValueError(f"check must be one of {CHECKS}")
    report = ScanReport(check, [], [], [])
    for rec in scan_records(lines, report.parse_errors, jobs, progress):
        report.records.append(rec)
        if not implication_holds(check, rec):
            report.counterexamples.append(rec)
    return report
