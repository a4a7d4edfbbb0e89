"""Dump the exact engine's answers, to compare two versions of the package.

usage: python tools/engine_answers.py SRC_DIR OUT_JSON [SECTION ...]

SRC_DIR is the `src` directory of the checkout to run (so two commits can
be compared side by side); sections default to all of:

  atlas     four_params values and all four witnesses, every graph <= 7 vertices
  coloring  scs_lcs_for_coloring on every palette-orbit coloring of every
            graph <= 6 vertices at k = chi and chi + 1, plus one
            non-canonical relabelling of each
  cycles    four_params(C_n) == cycle_params(n) for n = 3..13
  mnc       mnc_exhaustive(2, symmetry=s) for both values of s

Two versions agree when their JSON files are byte-identical.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
from critsets import graphs, sudoku  # noqa: E402
from critsets.coloring import Coloring, canonical_colorings, chromatic_number  # noqa: E402
from critsets.critical import PARAM_NAMES, four_params, scs_lcs_for_coloring  # noqa: E402
from critsets.formulas import cycle_params  # noqa: E402


def atlas():
    rows = []
    for n in range(8):
        for g in graphs.atlas_graphs(n):
            q = four_params(g)
            wit = [[list(q.witnesses[p][0].colors), q.witnesses[p][0].k, q.witnesses[p][1]]
                   for p in PARAM_NAMES]
            rows.append([graphs.emit_graph6(g), q.values(), wit])
    return rows


def coloring():
    rows = []
    for n in range(7):
        for g in graphs.enumerate_graphs(n):
            chi = chromatic_number(g)
            for k in (chi, chi + 1):
                for tup in canonical_colorings(g, k):
                    for colors in (tup, tuple(k - 1 - c for c in tup)):
                        r = scs_lcs_for_coloring(g, Coloring(colors, k))
                        rows.append([graphs.emit_graph6(g), k, list(colors),
                                     r.scs, r.lcs, r.scs_witness, r.lcs_witness])
    return rows


def cycles():
    return {n: four_params(graphs.make_cycle(n)).values() == cycle_params(n).values()
            for n in range(3, 14)}


def mnc():
    out = {}
    for s in (True, False):
        r = sudoku.mnc_exhaustive(2, symmetry=s)
        out[str(s)] = [r.min_clues, list(r.board.colors), r.clues, r.boards_checked]
    return out


SECTIONS = {"atlas": atlas, "coloring": coloring, "cycles": cycles, "mnc": mnc}

if __name__ == "__main__":
    out = {}
    for name in sys.argv[3:] or SECTIONS:
        t0 = time.perf_counter()
        out[name] = SECTIONS[name]()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    with open(sys.argv[2], "w") as fh:
        json.dump(out, fh, sort_keys=True)
