import hashlib
import random
import sys

import pytest

from critsets.coloring import Coloring, count_colorings_extending
from critsets.critical import (
    _critical_sets,
    four_params,
    is_determining,
)
from critsets.errors import InvalidParameterError, SizeLimitError, UnsupportedError
from critsets.graphs import (
    bits,
    cartesian_product,
    disjoint_union,
    edge_union,
    make_complete,
    strong_product,
)
from critsets.sudoku import (
    _mirrored_steps,
    all_boards,
    canonical_board,
    certify_fair_puzzle,
    count_puzzle_completions,
    format_board,
    mnc_exhaustive,
    neighbor_color_counts,
    parse_board_text,
    random_board,
    random_determining_set,
    sudoku_graph,
    trial_campaign,
)


def product_formula_graph(n: int):
    side = n * n
    rook = cartesian_product(make_complete(side), make_complete(side))
    blocks = make_complete(n)
    nkn = blocks
    for _ in range(n - 1):
        nkn = disjoint_union(nkn, blocks)
    return edge_union(rook, strong_product(nkn, nkn))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_matches_product_formula(n):
    direct = sudoku_graph(n).graph
    assert direct == product_formula_graph(n)
    expected_degree = 3 * n * n - 2 * n - 1
    assert all(direct.degree(v) == expected_degree for v in range(direct.n))


def test_structure_stats():
    assert (sudoku_graph(1).graph.n, sudoku_graph(1).graph.m) == (1, 0)
    assert (sudoku_graph(2).graph.n, sudoku_graph(2).graph.m) == (16, 56)
    assert (sudoku_graph(3).graph.n, sudoku_graph(3).graph.m) == (81, 810)
    with pytest.raises(InvalidParameterError):
        sudoku_graph(0)
    with pytest.raises(SizeLimitError):
        sudoku_graph(9)


def test_rows_columns_blocks_are_cliques():
    s = sudoku_graph(2)
    g = s.graph
    for unit in range(4):
        row = [s.cell_index(unit, c) for c in range(4)]
        col = [s.cell_index(r, unit) for r in range(4)]
        box = [v for v in range(16) if s.box_index(v) == unit]
        for cells in (row, col, box):
            assert all(g.has_edge(u, w) for u in cells for w in cells if u != w)


@pytest.mark.parametrize("n", [2, 3])
def test_neighbor_color_count_split(n):
    # For each color other than the cell's own there are three witnesses
    # (row, column, block), of which row/block or column/block coincide for
    # the 2(n-1) colors inside the cell's block.  The counts 2(n-1) and
    # (n-1)^2 partition the n^2 - 1 foreign colors; a 2n-1/(n-1)^2 split
    # would sum to n^2 and is impossible.
    s = sudoku_graph(n)
    boards = [canonical_board(n), random_board(n, random.Random(4))]
    for board in boards:
        for v in range(s.cells):
            counts = sorted(neighbor_color_counts(s, board, v).values())
            twos = counts.count(2)
            threes = counts.count(3)
            assert twos + threes == s.side - 1
            assert twos == 2 * (n - 1), (n, v)
            assert threes == (n - 1) ** 2, (n, v)


def test_boards_enumeration_matches_extension_count():
    boards = all_boards(2)
    assert len(boards) == 288
    g = sudoku_graph(2).graph
    assert count_colorings_extending(g, 4, {}, cap=1000) == 288
    for colors in boards[::48]:
        assert Coloring(colors, 4).is_proper(g)


def _board_search_recursive(n, rng, collect):
    """Reference board fill: the recursive backtracking search, one call
    per cell, trying candidates in the same (shuffled) order."""
    side = n * n
    cells = side * side
    full = (1 << side) - 1
    row_used = [0] * side
    col_used = [0] * side
    box_used = [0] * side
    colors = [0] * cells

    def rec(v):
        if v == cells:
            if collect is not None:
                collect.append(tuple(colors))
                return None
            return tuple(colors)
        r, c = divmod(v, side)
        b = (r // n) * n + c // n
        cands = bits(full & ~(row_used[r] | col_used[c] | box_used[b]))
        if rng is not None:
            rng.shuffle(cands)
        for col in cands:
            bit = 1 << col
            row_used[r] |= bit
            col_used[c] |= bit
            box_used[b] |= bit
            colors[v] = col
            got = rec(v + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit
            box_used[b] ^= bit
            if got is not None:
                return got
        return None

    return rec(0)


def test_board_search_matches_recursive_reference():
    # same boards, and the rng left in the same state: forced cells and
    # dead ends draw nothing, as rng.shuffle on one or no color draws nothing
    for n in (1, 2, 3):
        for seed in range(40):
            theirs, ours = random.Random(seed), random.Random(seed)
            expected = _board_search_recursive(n, theirs, None)
            assert random_board(n, ours).colors == expected, (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)
    theirs, ours = random.Random(7), random.Random(7)
    for i in range(200):
        assert random_board(3, ours).colors == _board_search_recursive(3, theirs, None), i
    assert ours.getstate() == theirs.getstate()
    # pinned: the row-major board, 1-based
    board = random_board(3, random.Random(0))
    assert "".join(str(c + 1) for c in board.colors) == (
        "872593146346271598915846327567928431439157862128364975784619253653482719291735684")
    for n in (1, 2):
        boards = []
        _board_search_recursive(n, None, boards)
        assert all_boards(n) == tuple(boards)
    # pinned: the boards of seeds 0-99, sha256 of their colors as bytes
    h = hashlib.sha256()
    for seed in range(100):
        h.update(bytes(random_board(3, random.Random(seed)).colors))
    assert h.hexdigest() == "08624fccf086189199f1cf181556506f2bdfc2bef51f191c8a6d385fd89bfed2"


def test_mirrored_steps_make_random_shuffle_draws():
    # run on the reversed list, the mirrored steps leave rng.shuffle's
    # order reversed, after the same draws
    for length in range(13):
        steps = _mirrored_steps(length)
        assert [~i for i, _, _ in steps] == list(range(length - 1, 0, -1))
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            x = list(range(length))[::-1]
            for i, bound, nbits in steps:
                j = ours.getrandbits(nbits)
                while j >= bound:
                    j = ours.getrandbits(nbits)
                x[i], x[~j] = x[~j], x[i]
            y = list(range(length))
            theirs.shuffle(y)
            assert x[::-1] == y and ours.getstate() == theirs.getstate(), (length, seed)


def test_random_board_needs_no_recursion_depth():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)  # fewer frames than the 81 cells
    try:
        with pytest.raises(RecursionError):
            _board_search_recursive(3, random.Random(5), None)
        board = random_board(3, random.Random(5))
    finally:
        sys.setrecursionlimit(old)
    assert board.colors == _board_search_recursive(3, random.Random(5), None)
    assert board.is_proper(sudoku_graph(3).graph)


def _thinning_by_class_masks(s, board, seed):
    """Reference thinning: cell v drops when, for each other color, its
    surviving neighbors meet that color's class."""
    classes = board.class_masks
    order = list(range(s.cells))
    random.Random(seed).shuffle(order)
    survivors = (1 << s.cells) - 1
    for v in order:
        row = s.graph.adj[v] & survivors
        if all(row & mask for c, mask in enumerate(classes) if c != board.colors[v]):
            survivors ^= 1 << v
    return survivors


def test_thinning_matches_class_mask_reference():
    # the per-unit color masks give the neighbour-color rule's survivors
    s = sudoku_graph(2)
    for i, colors in enumerate(all_boards(2)):
        board = Coloring(colors, 4)
        assert random_determining_set(s, board, seed=i) == _thinning_by_class_masks(s, board, i)
    for n in (1, 3):
        s = sudoku_graph(n)
        for seed in range(100):
            board = random_board(n, random.Random(seed))
            for order_seed in (seed, seed + 1000):
                got = random_determining_set(s, board, seed=order_seed)
                assert got == _thinning_by_class_masks(s, board, order_seed), (n, seed)


def test_random_determining_set_order_one():
    s = sudoku_graph(1)
    assert random_determining_set(s, canonical_board(1), seed=0) == 0


def test_random_determining_set_certified_and_seeded():
    s = sudoku_graph(2)
    boards = all_boards(2)
    rng = random.Random(0)
    for _ in range(5):
        board = Coloring(boards[rng.randrange(288)], 4)
        seed = rng.getrandbits(16)
        survivors = random_determining_set(s, board, seed=seed)
        assert survivors.bit_count() <= 16
        assert certify_fair_puzzle(s, board, survivors)
        assert random_determining_set(s, board, seed=seed) == survivors
    bad = Coloring((0,) * 16, 4)
    with pytest.raises(InvalidParameterError):
        random_determining_set(s, bad, seed=0)


def test_trial_campaign():
    stats = trial_campaign(2, 50, seed=1)
    assert stats.trials == 50 and len(stats.sizes) == 50
    assert stats.mean < 16
    assert trial_campaign(2, 50, seed=1) == stats
    # pinned: any rewrite of the board search or the thinning must keep these
    assert trial_campaign(3, 20, seed=1).sizes == (
        45, 45, 44, 42, 40, 45, 40, 41, 45, 38, 44, 43, 42, 43, 37, 41, 49, 41, 41, 42)
    assert trial_campaign(2, 20, seed=1).sizes == (
        6, 8, 8, 11, 5, 6, 6, 6, 8, 6, 6, 6, 6, 5, 7, 8, 7, 7, 8, 6)
    # pinned longer streams: one master rng feeds every trial, so a draw
    # that drifts shows after a few hundred boards (sha256 of bytes(sizes))
    for seed, digest in enumerate((
            "0894b77e19e5da72db4bb51eed532ef1b9f006138c0da6490cabf261a60b5c13",
            "3e666f053a90b8cdf665fc15c6e740863483c0f6f87cdcb2ed16115c3c6c25af",
            "97d9fc11fac3711afa3868bd2e1b37e2c47c8216f8cfec02cf068c35dc3a5cae")):
        assert hashlib.sha256(bytes(trial_campaign(3, 300, seed=seed).sizes)).hexdigest() == digest
    empty = trial_campaign(2, 0, seed=1)
    assert empty.trials == 0 and empty.sizes == () and empty.mean is None
    with pytest.raises(InvalidParameterError):
        trial_campaign(4, 1)


def test_certify_fair_puzzle_examples():
    s = sudoku_graph(2)
    board = Coloring(all_boards(2)[0], 4)
    assert certify_fair_puzzle(s, board, (1 << 16) - 1)
    assert not certify_fair_puzzle(s, board, 0)
    assert not certify_fair_puzzle(s, board, 0b111)  # any 3 clues are unfair


def test_board_checks_reject_a_wrong_shape_or_an_improper_board():
    s = sudoku_graph(2)
    board = all_boards(2)[0]
    short = Coloring(board[:-1], 4)
    clash = Coloring((board[1],) + board[1:], 4)  # cells 0 and 1 share a row
    for check in (random_determining_set, lambda s, b: neighbor_color_counts(s, b, 0)):
        with pytest.raises(InvalidParameterError, match="board shape does not match"):
            check(s, short)
        with pytest.raises(InvalidParameterError, match="board shape does not match"):
            check(s, Coloring(board, 5))
        with pytest.raises(InvalidParameterError, match="board violates a row/column/box"):
            check(s, clash)
    with pytest.raises(InvalidParameterError, match="board shape does not match"):
        certify_fair_puzzle(s, Coloring(board, 5), 0)


def test_mnc_exhaustive():
    sym = mnc_exhaustive(2, symmetry=True)
    full = mnc_exhaustive(2, symmetry=False)
    assert sym.min_clues == full.min_clues == 4
    s = sudoku_graph(2)
    for result in (sym, full):
        assert result.clues.bit_count() == 4
        assert certify_fair_puzzle(s, result.board, result.clues)
    # cross-route: the generic engine's smallest critical set over all
    # boards is the minimum clue count, and its witness is a fair puzzle
    quad = four_params(s.graph)
    assert quad.uscs == sym.min_clues
    board, clues = quad.witnesses["uscs"]
    assert clues.bit_count() == 4
    assert certify_fair_puzzle(s, board, clues)
    with pytest.raises(UnsupportedError):
        mnc_exhaustive(3)


def test_mnc_reads_boards_off_one_pass_over_representatives(monkeypatch):
    # one kernel pass over the owners forms one lattice of critical sets
    # each: the 2 orbit leaders, or all 12 palette-orbit representatives
    # without symmetry, however many of the 288 boards are compared
    formed = []

    def counted(undetermined, n):
        formed.append(n)
        return _critical_sets(undetermined, n)

    monkeypatch.setattr("critsets.critical._critical_sets", counted)
    for symmetry, owners, boards in ((True, 2, 2), (False, 12, 288)):
        del formed[:]
        result = mnc_exhaustive(2, symmetry=symmetry)
        assert (result.min_clues, result.boards_checked) == (4, boards)
        assert formed == [16] * owners, symmetry


def test_mnc_agrees_with_generic_engine():
    # cross-route: the hitting-set search and the propagation counter must
    # agree on determining status
    from itertools import combinations

    s = sudoku_graph(2)
    board = Coloring(all_boards(2)[17], 4)
    rng = random.Random(2)
    subsets = [sum(1 << v for v in rng.sample(range(16), rng.randrange(3, 7))) for _ in range(30)]
    boards = all_boards(2)
    for subset in subsets:
        via_engine = is_determining(s.graph, board, subset)
        via_boards = all(
            any(other[v] != board.colors[v] for v in bits(subset))
            for other in boards
            if other != board.colors
        )
        assert via_engine == via_boards
    # no 3-clue subset determines this board (exhaustive for one board)
    for combo in combinations(range(16), 3):
        assert not is_determining(s.graph, board, sum(1 << v for v in combo))


def test_board_text_round_trip():
    board = canonical_board(2)
    text = format_board(2, board.colors)
    n, clues = parse_board_text(text)
    assert n == 2 and len(clues) == 16
    assert all(clues[v] == board.colors[v] for v in range(16))
    assert format_board(2, [clues[v] for v in range(16)]) == text

    puzzle = format_board(2, board.colors, clues=0b1001000000110)
    n, partial = parse_board_text(puzzle)
    assert set(partial) == {1, 2, 9, 12}
    reparsed = format_board(2, board.colors, clues=sum(1 << v for v in partial))
    assert reparsed == puzzle


def test_board_text_errors():
    with pytest.raises(InvalidParameterError):
        parse_board_text("1 2\n2 1\n")  # 2 lines is not a square side
    with pytest.raises(InvalidParameterError):
        parse_board_text("1 2 3\n3 1 2\n2 3 1\n")  # side 3 is not a square
    bad = format_board(2, canonical_board(2).colors).replace("1", "9", 1)
    with pytest.raises(InvalidParameterError):
        parse_board_text(bad)
    for blank in ("", "\n \n"):
        with pytest.raises(InvalidParameterError, match="no board rows"):
            parse_board_text(blank)


def test_count_puzzle_completions():
    s = sudoku_graph(2)
    assert count_puzzle_completions(s, {}, cap=500) == 288
    board = canonical_board(2)
    clues = {v: board.colors[v] for v in range(8)}
    assert count_puzzle_completions(s, clues, cap=5) >= 1
    conflicting = {0: 0, 1: 0}
    assert count_puzzle_completions(s, conflicting, cap=5) == 0
