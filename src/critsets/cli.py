"""Command-line surface.

Subcommands: params, table, scan, atlas, sudoku (gen/trials/mnc/certify),
and reduce.  Graph sources are graph6 strings, files containing one, or
the generator mini-language cycle:N, complete:N, path:N, empty:N,
sudoku:N, latin:N.

Exit codes: 0 success, 1 input error (undecodable input text and usage
errors too), 2 size limit (memory running out too), 3 invariant breach or
any other exception; every failure prints one line on stderr.

No option moves a size limit.  The exact searches follow the size rule
in `coloring` (`check_search`), and every graph6 output the one limit of
`graphs.check_graph6_order`; `reduce` applies it to a gadget before
building it (and, for a named H, before building H).

Start-up loads graphs, coloring, critical and errors, which every
subcommand runs.  The rest is imported by the code that runs it: scan by
`table` and `scan`, sudoku by `sudoku` and the sudoku:N source, and
reductions by `reduce`.  formulas is never loaded.  From the standard
library, start-up loads argparse (with gettext), base64, random (with
math), typing, functools, itertools, operator and os, and no more: the
records are `typing.NamedTuple`s, and json and csv are imported by the
commands that print them (`reduce --out` writes its role map without
json).
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb

from . import graphs
from .coloring import Coloring, check_search, chromatic_number
from .critical import CHECKS, PARAM_NAMES, ParamQuad, four_params
from .errors import (
    CritsetsError,
    Graph6Error,
    InternalError,
    InvalidParameterError,
    SizeLimitError,
    UnsupportedError,
)
from .graphs import Graph, bits, cartesian_product, make_complete


def _sudoku_graph(n: int) -> Graph:
    from .sudoku import sudoku_graph

    return sudoku_graph(n).graph


GENERATORS = {
    "cycle": graphs.make_cycle,
    "complete": graphs.make_complete,
    "path": graphs.make_path,
    "empty": graphs.make_empty,
    "latin": lambda n: cartesian_product(make_complete(n), make_complete(n)),
    "sudoku": _sudoku_graph,
}


# named sources with closed forms: N -> (vertices, edges, sum over vertices
# of C(degree, 2), order of the largest component) of the graph built
_COUNTS = {
    "cycle": lambda n: (n, n, n, n),
    "path": lambda n: (n, max(n - 1, 0), max(n - 2, 0), n),
    "complete": lambda n: (n, comb(n, 2), 3 * comb(n, 3), n),
    "latin": lambda n: (n * n, n * n * (n - 1), n * n * (n - 1) * (2 * n - 3), n * n),
    "empty": lambda n: (n, 0, 0, min(n, 1)),
}


def load_graph_source(src: str, exact: bool = False, variant: str | None = None) -> Graph:
    """The graph a source names.  A named source is sized from N before it
    is built, since building takes Theta(N^2) bits: with `exact`
    (`params`), it is refused when its largest component is over the exact
    search's cap; with a gadget `variant` (`reduce`, whose H may be larger),
    when that gadget is over what graph6 can write."""
    if ":" in src:
        name, _, arg = src.partition(":")
        if name in GENERATORS:
            # plain decimal: int() would also take "+5", "1_0", " 5" and non-ASCII digits
            digits = arg.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                raise InvalidParameterError(f"bad generator argument in {src!r}")
            n = int(arg)
            if n >= 0 and name in _COUNTS:
                *counts, largest = _COUNTS[name](n)
                if exact:
                    check_search(largest, "vertices per component")
                if variant:
                    from .reductions import gadget_order_of

                    gadget_order_of(*counts, variant)
            return GENERATORS[name](n)
    if os.path.exists(src):
        with open(src) as fh:
            for line in fh:
                if line.strip():
                    return graphs.parse_graph6(line)
        raise InvalidParameterError(f"no graph6 line found in {src}")
    return graphs.parse_graph6(src)


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in bits(mask)) + "}"


def _coloring_str(coloring: Coloring) -> str:
    return ",".join(str(c) for c in coloring.colors)


def _quad_json(quad: ParamQuad) -> dict:
    out = {name: getattr(quad, name) for name in PARAM_NAMES}
    if quad.witnesses:
        out["witnesses"] = {
            name: {"coloring": list(col.colors), "set": bits(mask)}
            for name, (col, mask) in quad.witnesses.items()
        }
    return out


def cmd_params(args) -> int:
    g = load_graph_source(args.source, exact=True)
    quad = four_params(g, args.k)
    k = quad.witnesses["uscs"][0].k  # the palette four_params colored with
    chi = k if args.k is None else chromatic_number(g)
    if args.format == "json":
        import json

        print(json.dumps({"source": args.source, "n": g.n, "m": g.m, "chi": chi,
                          "k": k, **_quad_json(quad)}))
    elif args.format == "csv":
        import csv

        w = csv.writer(sys.stdout)
        w.writerow(["source", "n", "m", "chi", "k", *PARAM_NAMES])
        w.writerow([args.source, g.n, g.m, chi, k, *quad.values()])
    else:
        print(f"graph: {args.source} (n={g.n}, m={g.m}, chi={chi}, palette={k})")
        print(" ".join(f"{name}={getattr(quad, name)}" for name in PARAM_NAMES))
        for name in PARAM_NAMES:
            col, mask = quad.witnesses[name]
            print(f"{name} witness: set={_set_str(mask)} coloring={_coloring_str(col)}")
    return 0


_RECORD_HEADER = ["graph6", "n", "chi", *PARAM_NAMES, "uniquely_colorable", "uniform"]


def _record_row(rec) -> list:
    return [rec.graph6, rec.n, rec.chi, *rec.quad,
            int(rec.uniquely_colorable), "" if rec.uniform is None else rec.uniform]


def _jobs(args) -> int:
    if args.jobs < 1:
        raise InvalidParameterError(f"--jobs must be at least 1 (got {args.jobs})")
    return args.jobs


def cmd_table(args) -> int:
    from .scan import walk_graph6_lines

    jobs = _jobs(args)
    lines = [graphs.emit_graph6(g) for g in graphs.atlas_graphs(args.n)
             if not (args.nonbipartite and graphs.is_bipartite(g))]
    records = [rec for _, rec in walk_graph6_lines(lines, jobs)]
    if args.format == "json":
        import json

        print(json.dumps([rec._asdict() for rec in records]))
        return 0
    import csv

    w = csv.writer(sys.stdout)
    w.writerow(_RECORD_HEADER)
    w.writerows(map(_record_row, records))
    return 0


def cmd_scan(args) -> int:
    from . import scan

    if args.progress < 0:
        raise InvalidParameterError(f"--progress must be nonnegative (got {args.progress})")
    jobs = _jobs(args)
    with open(args.file) as fh:
        if args.format == "csv":
            # each row is written as its record arrives: no record is kept
            import csv

            w = csv.writer(sys.stdout)
            w.writerow([*_RECORD_HEADER, "holds"])
            for rec in scan.scan_records(fh, [], jobs, args.progress):
                w.writerow([*_record_row(rec), int(scan.implication_holds(args.check, rec))])
            return 0
        report = scan.scan_graph6_lines(fh, args.check, jobs=jobs, progress=args.progress)
    if args.format == "json":
        import json

        print(json.dumps({
            "check": report.check,
            "checked": report.checked,
            "counterexamples": [rec._asdict() for rec in report.counterexamples],
            "parse_errors": report.parse_errors,
        }))
        return 0
    print(f"check={report.check} graphs={report.checked} "
          f"counterexamples={len(report.counterexamples)} parse_errors={len(report.parse_errors)}")
    for line_no, msg in report.parse_errors:
        print(f"  line {line_no}: {msg}")
    for rec in report.counterexamples:
        print(f"  counterexample: {rec.graph6} chi={rec.chi} quad={rec.quad} "
              f"uniquely_colorable={rec.uniquely_colorable}")
    return 0


def cmd_atlas(args) -> int:
    graphs.check_atlas_order(args.n)
    # opened after the n check, before the enumeration: a bad n leaves an
    # existing file alone, and a path that cannot be written costs no work
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        out.write("".join(graphs.emit_graph6(g) + "\n" for g in graphs.atlas_graphs(args.n)))
    finally:
        if args.out:
            out.close()
    return 0


def cmd_sudoku(args) -> int:
    from . import sudoku

    if args.action == "gen":
        structure = sudoku.sudoku_graph(args.n)
        g = structure.graph
        print(graphs.emit_graph6(g))
        degrees = {g.degree(v) for v in range(g.n)}
        print(f"cells={g.n} edges={g.m} degree={sorted(degrees)}", file=sys.stderr)
        return 0
    if args.action == "trials":
        import csv

        sudoku.check_trial_inputs(args.n, args.count)
        # opened before the campaign: a path that cannot be written costs no work
        out = open(args.out, "w", newline="") if args.out else sys.stdout
        try:
            stats = sudoku.trial_campaign(args.n, args.count, seed=args.seed)
            w = csv.writer(out)
            w.writerow(["trial", "surviving", "cells"])
            for i, size in enumerate(stats.sizes):
                w.writerow([i, size, args.n ** 4])
        finally:
            if args.out:
                out.close()
        if stats.trials:
            print(f"trials={stats.trials} mean={stats.mean:.3f} "
                  f"min={stats.min_size} max={stats.max_size} seed={stats.seed}",
                  file=sys.stderr)
        return 0
    if args.action == "mnc":
        result = sudoku.mnc_exhaustive(args.n, symmetry=not args.no_symmetry)
        print(f"minimum clues: {result.min_clues}")
        print(sudoku.format_board(args.n, result.board.colors, result.clues), end="")
        if not sudoku.certify_fair_puzzle(
            sudoku.sudoku_graph(args.n), result.board, result.clues
        ):
            raise InternalError("reported witness failed certification")
        return 0
    if args.action == "certify":
        cap = args.cap_extensions
        if cap < 2:
            raise InvalidParameterError(f"--cap-extensions must be at least 2 (got {cap})")
        with open(args.file) as fh:
            text = fh.read()
        n, clues = sudoku.parse_board_text(text)
        structure = sudoku.sudoku_graph(n)
        count = sudoku.count_puzzle_completions(structure, clues, cap=cap)
        if count == 1:
            print("fair")
        elif count == 0:
            print("unfair (no completion)")
        else:
            more = "+" if count == cap else ""
            print(f"unfair ({count}{more} completions)")
        return 0


def cmd_reduce(args) -> int:
    from . import reductions

    h = load_graph_source(args.source, variant=args.variant)
    # a gadget graph6 cannot write, a bad sample count or an H over the cap
    # fails before the gadget is built
    reductions.gadget_order(h, args.variant)
    if args.verify:
        reductions.check_verify_inputs(h, args.samples)
    outs = []
    try:
        # the outputs open before the build: a path that cannot be written costs no work
        for ext in (".g6", ".roles.json") if args.out else ():
            outs.append(open(args.out + ext, "w"))
        instance = (reductions.reduce_ulcs if args.variant == "ulcs" else reductions.reduce_olcs)(h)
        print(f"variant={instance.variant} |V(G)|={instance.graph.n} "
              f"|E(G)|={instance.graph.m} k={instance.k}")
        if outs:
            outs[0].writelines(graphs.graph6_blocks(instance.graph))
            outs[0].write("\n")
            instance.write_role_map(outs[1])
            print(f"wrote {args.out}.g6 and {args.out}.roles.json", file=sys.stderr)
    finally:
        for fh in outs:
            fh.close()
    if args.verify:
        report = reductions.verify_instance(instance, args.mode, args.samples, args.seed)
        value = "" if report.exact_value is None else f" {args.variant}(G)={report.exact_value}"
        print(f"verify mode={report.mode}{value} k={report.k} "
              f"H_3colorable={report.h_three_colorable} "
              f"consistent={report.consistent}: {report.detail}")
        if not report.consistent:
            raise InternalError("reduction verification failed")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2.  A subcommand's flag before
    its subcommand gets its value taken for the subcommand: name the flag."""

    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self.argv, namespace)

    def error(self, message):
        if message.startswith(("argument command: invalid", "argument action: invalid")):
            for flag in (arg.partition("=")[0] for arg in self.argv if arg[:1] == "-"):
                if not any(s.startswith(flag) for s in self._option_string_actions):
                    message = f"unrecognized argument before the subcommand: {flag}"
                    break
        raise InvalidParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="critsets",
        description="Exact critical-set computations for graph colorings",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized steps")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for table and scan, capped at the usable CPUs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="four extremal parameters of one graph")
    p.add_argument("source")
    p.add_argument("--k", type=int, default=None,
                   help="palette size for the parametrized variants (default chi)")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("table", help="parameter table over all isomorphism classes")
    p.add_argument("n", type=int, help=f"vertex count, at most {graphs.CANONICAL_CAP}")
    p.add_argument("--nonbipartite", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("scan", help="implication checks over a graph6 file")
    p.add_argument("file")
    p.add_argument("--check", choices=CHECKS, required=True)
    p.add_argument("--progress", type=int, default=0,
                   help="report every N graphs on stderr (0: never)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("atlas", help="emit graph6 lines for all classes on n vertices")
    p.add_argument("n", type=int, help=f"vertex count, at most {graphs.CANONICAL_CAP}")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("sudoku", help="sudoku graph commands")
    action = p.add_subparsers(dest="action", required=True)
    q = action.add_parser("gen", help="emit the order-n graph as graph6")
    q.add_argument("n", type=int)
    q.set_defaults(func=cmd_sudoku)
    q = action.add_parser("trials", help="seeded thinning-process campaign (CSV)")
    q.add_argument("n", type=int)
    q.add_argument("--count", type=int, default=50)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_sudoku)
    q = action.add_parser("mnc", help="exhaustive minimum clue count (order 2)")
    q.add_argument("n", type=int, nargs="?", default=2)
    q.add_argument("--no-symmetry", action="store_true")
    q.set_defaults(func=cmd_sudoku)
    q = action.add_parser("certify", help="fair/unfair check for a puzzle file")
    q.add_argument("file")
    q.add_argument("--cap-extensions", type=int, default=2,
                   help="extension-count truncation, at least 2 (default 2)")
    q.set_defaults(func=cmd_sudoku)

    p = sub.add_parser("reduce", help="build a hardness gadget instance")
    p.add_argument("variant", choices=("ulcs", "olcs"))
    p.add_argument("source")
    p.add_argument("--out", default=None, help="prefix for .g6 and .roles.json outputs")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--mode", choices=("auto", "full", "certificate"), default="auto")
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidParameterError, UnsupportedError, Graph6Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not {exc.encoding} text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("size limit: out of memory", file=sys.stderr)
        return 2
    except CritsetsError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug outside the package's own errors
        print(f"invariant breach: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
