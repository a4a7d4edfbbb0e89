"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The optional 8-vertex scan is skipped unless CRITSETS_N8_ATLAS
is set.
"""

import os
import random
from math import comb

import pytest

from critsets.coloring import Coloring, colorful_vertices, enumerate_optimal_colorings
from critsets.critical import four_params, is_determining
from critsets.errors import InternalError
from critsets.formulas import bipartite_params, cycle_params
from critsets.graphs import (
    add_pendant_to_each,
    atlas_graphs,
    cartesian_product,
    emit_graph6,
    enumerate_graphs,
    make_complete,
    make_cycle,
)
from critsets.reductions import reduce_olcs, reduce_ulcs, verify_reduction_small
from critsets.scan import implication_holds, record_for_graph, scan_graph6_lines
from critsets.sudoku import (
    all_boards,
    canonical_board,
    certify_fair_puzzle,
    mnc_exhaustive,
    neighbor_color_counts,
    random_board,
    sudoku_graph,
    trial_campaign,
)
from test_sudoku import product_formula_graph


def test_c01_cycle_formulas_vs_brute_force():
    for n in range(4, 12):
        engine = four_params(make_cycle(n)).values()
        formula = cycle_params(n).values()
        assert engine == formula, (n, engine, formula)
    print("ACCEPTANCE C1 PASS: cycle formulas match exact search for n=4..11")


def test_c02_four_vertex_table(four_vertex_table):
    from conftest import PAW_NAME, PAW_TRUE_QUAD, PLAIN_NAMED, brute_force_four_params

    for name in PLAIN_NAMED:  # the criterion's 11 named graphs
        g, expected = four_vertex_table[name]
        assert four_params(g).values() == (expected,) * 4, name
    pendant = add_pendant_to_each(make_complete(3))
    assert four_params(pendant).values() == (4, 4, 4, 4)
    # the composite entries also match as printed, except the paw: its
    # printed group (2) contradicts inclusion-minimal criticality, which the
    # cycle theorems force; the definitional brute force pins (2, 2, 3, 3)
    for name, (g, expected) in four_vertex_table.items():
        if name in PLAIN_NAMED or name == PAW_NAME:
            continue
        assert four_params(g).values() == (expected,) * 4, name
    paw = four_vertex_table[PAW_NAME][0]
    assert brute_force_four_params(paw) == PAW_TRUE_QUAD
    assert four_params(paw).values() == PAW_TRUE_QUAD
    print("ACCEPTANCE C2 PASS: printed groups reproduced for the 11 named "
          "graphs plus the pendant triangle (and 6 of the 7 composite entries; "
          "the paw is provably (2,2,3,3))")


def test_c03_ordering_and_bound_up_to_six_vertices():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            q = four_params(g)
            assert q.uscs <= q.oscs <= q.olcs, (g.adj, q.values())
            assert q.uscs <= q.ulcs <= q.olcs, (g.adj, q.values())
            if n >= 1:
                assert q.olcs <= n - 1, (g.adj, q.values())
            checked += 1
    assert checked == 208
    print(f"ACCEPTANCE C3 PASS: ordering and |S|<=n-1 hold for all {checked} "
          "graphs on <=6 vertices")


def test_c04_prop1_and_converse_up_to_seven_vertices():
    lines = []
    for n in range(1, 7):
        lines += [emit_graph6(g) for g in enumerate_graphs(n)]
    lines += [emit_graph6(g) for g in atlas_graphs(7)]
    report = scan_graph6_lines(lines, "converse", jobs=2)
    assert report.checked == 1252
    assert not report.counterexamples
    assert not report.parse_errors
    prop1_bad = [r for r in report.records if not implication_holds("prop1", r)]
    assert not prop1_bad
    print("ACCEPTANCE C4 PASS: proposition and converse hold for all 1252 "
          "isomorphism classes on <=7 vertices")


@pytest.mark.skipif(
    not os.environ.get("CRITSETS_N8_ATLAS"),
    reason="optional flagged run (about a minute); set CRITSETS_N8_ATLAS=1",
)
def test_c04_optional_eight_vertex_scan():
    lines = [emit_graph6(g) for g in enumerate_graphs(8)]
    report = scan_graph6_lines(lines, "converse", jobs=os.cpu_count() or 2)
    assert report.checked == 12346
    assert not report.counterexamples
    assert not report.parse_errors
    prop1_bad = [r for r in report.records if not implication_holds("prop1", r)]
    assert not prop1_bad
    print(f"ACCEPTANCE C4(opt) PASS: {report.checked} graphs on 8 vertices")


def test_c05_colorful_vertex_lemma():
    for n in (5, 7, 9, 11):
        g = make_cycle(n)
        count = 0
        for coloring in enumerate_optimal_colorings(g):
            assert colorful_vertices(g, coloring) != 0, (n, coloring.colors)
            count += 1
        assert count
    print("ACCEPTANCE C5 PASS: every optimal coloring of C5,C7,C9,C11 has a "
          "colorful vertex")


def test_c06_sudoku_structure():
    for n in (1, 2, 3):
        direct = sudoku_graph(n).graph
        assert direct == product_formula_graph(n), n
        expected = 3 * n * n - 2 * n - 1
        assert all(direct.degree(v) == expected for v in range(direct.n))
    # Per-color witness split: every foreign color is carried by 2 or 3
    # neighbors, with exactly (n-1)^2 threes.  That forces 2(n-1) twos; the
    # stated 2n-1 twos cannot hold (2n-1 + (n-1)^2 = n^2 exceeds the n^2 - 1
    # foreign colors).
    for n in (2, 3):
        s = sudoku_graph(n)
        boards = list(all_boards(2)) if n == 2 else [
            canonical_board(3).colors,
            random_board(3, random.Random(1)).colors,
            random_board(3, random.Random(2)).colors,
        ]
        for colors in boards:
            board = Coloring(tuple(colors), s.side)
            for v in range(s.cells):
                counts = list(neighbor_color_counts(s, board, v).values())
                assert set(counts) <= {2, 3}
                assert counts.count(3) == (n - 1) ** 2
                assert counts.count(2) == 2 * (n - 1)
    print("ACCEPTANCE C6 PASS: product formula, regularity, and the per-color "
          "neighbor split (2(n-1) twos, (n-1)^2 threes) verified at n=1,2,3")


def test_c07_randomized_process_at_order_three():
    stats = trial_campaign(3, 100, seed=42)  # certification inside
    assert stats.trials == 100
    assert stats.mean < 81
    replay = trial_campaign(3, 100, seed=42)
    assert replay.sizes == stats.sizes
    print(f"ACCEPTANCE C7 PASS: 100 certified trials, mean |S|={stats.mean:.2f} < 81, "
          "seeded replay identical")


def test_c08_minimum_clues_exhaustive():
    result = mnc_exhaustive(2, symmetry=False)  # sizes 1..3 exhausted over all 288 boards
    assert result.min_clues == 4
    assert result.boards_checked == 288
    s = sudoku_graph(2)
    assert certify_fair_puzzle(s, result.board, result.clues)
    sym = mnc_exhaustive(2, symmetry=True)
    assert sym.min_clues == 4
    # cross-route: the generic engine agrees there is no fair 3-clue puzzle
    # on a sample board and confirms the witness
    from itertools import combinations

    board = Coloring(all_boards(2)[0], 4)
    for combo in combinations(range(16), 3):
        assert not is_determining(s.graph, board, sum(1 << v for v in combo))
    assert is_determining(s.graph, result.board, result.clues)
    print("ACCEPTANCE C8 PASS: minimum clue count is 4 (no 3-clue fair puzzle "
          "across all 288 boards; certified 4-clue witness)")


def test_c09_reductions():
    for n in range(7):
        for h in enumerate_graphs(n):
            m = h.m
            inst = reduce_ulcs(h)
            assert inst.graph.n == n + m * (m + n + 1) + 3
            assert inst.graph.m == 2 * m * (m + n + 1) + 3
            assert inst.k == m + n + 3
            pair_sum = sum(comb(h.degree(v), 2) for v in range(n))
            inst = reduce_olcs(h)
            assert inst.graph.n == 2 * m + (2 * m + 2) * pair_sum + 3
            assert inst.k == (2 * m + 2) * pair_sum + 2

    rep = verify_reduction_small(make_complete(2), "ulcs")
    assert rep.mode == "full" and rep.consistent and rep.exact_value < rep.k
    from critsets.graphs import make_path

    rep = verify_reduction_small(make_path(3), "olcs")
    assert rep.mode == "full" and rep.consistent and rep.exact_value >= rep.k
    rep = verify_reduction_small(make_complete(4), "ulcs", samples=20, seed=5)
    assert rep.mode == "certificate" and rep.consistent
    print("ACCEPTANCE C9 PASS: size/threshold formulas on all H<=6 vertices; "
          "exact biconditional on K2/ulcs and P3/olcs; 20-sample forced-vertex "
          "certificates on K4/ulcs")


def test_c10_latin_square_generators():
    latin3 = cartesian_product(make_complete(3), make_complete(3))
    quad = four_params(latin3)
    assert quad.uscs <= quad.oscs <= quad.olcs
    assert quad.uscs <= quad.ulcs <= quad.olcs
    assert quad.olcs <= latin3.n - 1
    latin2 = cartesian_product(make_complete(2), make_complete(2))
    assert bipartite_params(latin2).uscs == 1
    print(f"ACCEPTANCE C10 PASS: K3#K3 parameters {quad.values()} satisfy all "
          "invariants; uscs(K2#K2)=1 by the bipartite rule")
