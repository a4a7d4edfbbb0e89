"""Sudoku graphs and their determining sets.

The order-n Sudoku graph has n^4 cells; rows, columns, and n x n boxes
each induce cliques of size n^2.  Boards are proper n^2-colorings.  A
puzzle's clue set is fair exactly when it is a determining set of the
board, which ties the minimum-number-of-clues question to the smallest
critical set over all boards.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations
from math import isqrt
from typing import NamedTuple

from .coloring import (
    Coloring,
    _orbit_leaders,
    _shuffle,
    canonical_colorings,
    count_colorings_extending,
)
from .critical import _determines, _difference_masks, _transversal_extremes, is_determining
from .errors import InternalError, InvalidParameterError, SizeLimitError, UnsupportedError
from .graphs import Graph, VertexSet, bits

MAX_CELLS = 4096


class SudokuStructure(NamedTuple):
    """The graph plus the cell <-> (row, col, box) indexing for order n."""

    n: int
    graph: Graph

    @property
    def side(self) -> int:
        return self.n * self.n

    @property
    def cells(self) -> int:
        return self.n ** 4

    def cell_index(self, row: int, col: int) -> int:
        return row * self.side + col

    def box_index(self, v: int) -> int:
        return _board_slots(self.n)[v][2] - 2 * self.side


@lru_cache(maxsize=None)
def _board_slots(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per cell of an order-n board, its row, column and box slots among
    3n^2 units (rows, then columns, then boxes): the one cell layout, read
    by `sudoku_graph`, `box_index` and `_board_search`'s `used` list."""
    side = n * n
    return tuple((r, side + c, 2 * side + (r // n) * n + c // n)
                 for r, c in (divmod(v, side) for v in range(side * side)))


def sudoku_graph(n: int) -> SudokuStructure:
    """Build the order-n Sudoku graph directly from row/column/box cliques,
    the units of `_board_slots`."""
    if n < 1:
        raise InvalidParameterError("box order must be at least 1")
    cells = n ** 4
    if cells > MAX_CELLS:
        raise SizeLimitError(f"sudoku graph with {cells} cells exceeds cap {MAX_CELLS}")
    slots = _board_slots(n)
    units = [0] * (3 * n * n)  # vertex mask of each row, column and box slot
    for v, cell in enumerate(slots):
        for unit in cell:
            units[unit] |= 1 << v
    rows = tuple((units[r] | units[c] | units[b]) & ~(1 << v) for v, (r, c, b) in enumerate(slots))
    return SudokuStructure(n, Graph(cells, rows))


def canonical_board(n: int) -> Coloring:
    """The shifted base board, a valid coloring for every order."""
    side = n * n
    colors = tuple(
        (n * (r % n) + r // n + c) % side for r in range(side) for c in range(side)
    )
    return Coloring(colors, side)


def _check_board(structure: SudokuStructure, board: Coloring):
    if len(board.colors) != structure.cells or board.k != structure.side:
        raise InvalidParameterError("board shape does not match the structure")
    if not board.is_proper(structure.graph):
        raise InvalidParameterError("board violates a row/column/box constraint")


# free-color mask -> its colors in ascending order, shared by all searches
_MASK_COLORS: dict[int, tuple[int, ...]] = {}


def _board_search(n: int, rng: random.Random) -> tuple[int, ...] | None:
    """Backtracking board fill with rng-shuffled candidate orders; the
    first board found, or None.  Cells are filled in index order from an
    explicit stack, so no board size meets the recursion limit.

    Draw contract: each cell entry lists the free colors in ascending
    order and shuffles that list with `_shuffle` on `rng.getrandbits`,
    which makes exactly `rng.shuffle`'s draws; the cell then tries the
    colors in shuffled order.  The rng is touched nowhere else, so a seed
    gives the same board, and leaves the rng in the same state, as a
    search that calls `rng.shuffle` on those lists.
    """
    side = n * n
    cells = side * side
    full = (1 << side) - 1
    slots = _board_slots(n)
    memo = _MASK_COLORS
    getrandbits = rng.getrandbits
    used = [0] * (3 * side)
    colors = [-1] * cells
    untried: list[list[int]] = [[]] * cells  # set on entry; next color last
    v = 0
    while True:
        if v < cells:
            r, c, b = slots[v]
            free = full & ~(used[r] | used[c] | used[b])
            cands = memo.get(free)
            if cands is None:
                cands = memo[free] = tuple(bits(free))
            cands = list(cands)
            if len(cands) > 1:
                _shuffle(cands, getrandbits)
                cands.reverse()
            untried[v] = cands
        else:
            return tuple(colors)
        # the deepest entered cell with an untried color takes it;
        # exhausted cells are cleared on the way up
        while v >= 0:
            r, c, b = slots[v]
            col = colors[v]
            if col >= 0:
                bit = 1 << col
                used[r] ^= bit
                used[c] ^= bit
                used[b] ^= bit
            cands = untried[v]
            if cands:
                col = cands.pop()
                bit = 1 << col
                used[r] |= bit
                used[c] |= bit
                used[b] |= bit
                colors[v] = col
                v += 1
                break
            colors[v] = -1
            v -= 1
        else:
            return None


@lru_cache(maxsize=None)
def all_boards(n: int) -> tuple[tuple[int, ...], ...]:
    """Every valid board of order n, sorted; only enumerable at n <= 2.
    They are the palette relabellings of the engine's palette-orbit
    representatives."""
    if n > 2:
        raise SizeLimitError("board enumeration is only feasible for n <= 2")
    side = n * n
    return tuple(sorted({tuple(p[c] for c in colors)
                         for colors in canonical_colorings(sudoku_graph(n).graph, side)
                         for p in permutations(range(side))}))


def random_board(n: int, rng: random.Random) -> Coloring:
    """A board found by randomized backtracking (seeded, not uniform).

    The rng's only use is `rng.getrandbits`, with exactly the draws of one
    `rng.shuffle` of the ascending free colors per cell entry (see
    `_board_search`), so a board stream from one rng is fixed by its seed.
    """
    colors = _board_search(n, rng)
    if colors is None:
        raise InternalError("board search failed")
    return Coloring(colors, n * n)


# ---------------------------------------------------------------------------
# the randomized thinning process


def random_determining_set(
    structure: SudokuStructure, board: Coloring, seed: int = 0
) -> VertexSet:
    """Run the birth-order thinning process and return the surviving cells.

    Cells are processed in a seeded uniform random order (equivalent to
    i.i.d. continuous birth times).  A cell is dropped when, for every
    color other than its own, some still-surviving neighbor carries that
    color; the survivors form a determining set for the board.
    """
    _check_board(structure, board)
    side = structure.side
    colors = board.colors
    adj = structure.graph.adj
    class_mask = board.class_masks  # built by _check_board's properness scan
    order = list(range(structure.cells))
    _shuffle(order, random.Random(seed).getrandbits)
    # per color: the class masks of the other colors
    others = [class_mask[:own] + class_mask[own + 1:] for own in range(side)]
    survivors = (1 << structure.cells) - 1
    for v in order:
        row = adj[v] & survivors
        for mask in others[colors[v]]:
            if not row & mask:
                break
        else:
            survivors ^= 1 << v
    return survivors


def neighbor_color_counts(structure: SudokuStructure, board: Coloring, v: int) -> dict[int, int]:
    """For each color other than the cell's own: how many neighbors carry it."""
    _check_board(structure, board)
    own = board.colors[v]
    counts: dict[int, int] = {c: 0 for c in range(structure.side) if c != own}
    for w in structure.graph.neighbor_lists[v]:
        counts[board.colors[w]] += 1
    return counts


def certify_fair_puzzle(structure: SudokuStructure, board: Coloring, clues: VertexSet) -> bool:
    """True iff the clue cells extend to exactly one board: the clues are
    a determining set of the board."""
    if board.k != structure.side:
        raise InvalidParameterError("board shape does not match the structure")
    # is_determining rejects an improper board: one properness scan
    return is_determining(structure.graph, board, clues)


def count_puzzle_completions(structure: SudokuStructure, clues: dict[int, int], cap: int = 2) -> int:
    """Completions of an arbitrary partial board, truncated at cap."""
    return count_colorings_extending(structure.graph, structure.side, clues, cap)


# ---------------------------------------------------------------------------
# trial campaigns


class TrialStats(NamedTuple):
    """Certified surviving-set sizes across seeded process trials."""

    trials: int
    sizes: tuple[int, ...]
    mean: float | None
    min_size: int | None
    max_size: int | None
    seed: int


def check_trial_inputs(n: int, trials: int) -> None:
    """Raise InvalidParameterError unless `trial_campaign(n, trials)` can run."""
    if n not in (2, 3):
        raise InvalidParameterError("trial campaigns support orders 2 and 3")
    if trials < 0:
        raise InvalidParameterError("trial count must be nonnegative")


def trial_campaign(n: int, trials: int, seed: int = 0) -> TrialStats:
    """Run the thinning process across seeded random boards.

    Order 2 draws boards from the full enumeration; order 3 samples by
    randomized backtracking.  Every output is certified determining; a
    non-determining output raises InternalError.
    """
    check_trial_inputs(n, trials)
    structure = sudoku_graph(n)
    master = random.Random(seed)
    sizes = []
    for _ in range(trials):
        if n == 2:
            boards = all_boards(2)
            board = Coloring(boards[master.randrange(len(boards))], 4)
        else:
            board = random_board(3, master)
        survivors = random_determining_set(structure, board, seed=master.getrandbits(32))
        # random_determining_set has just checked the board: count unchecked
        if not _determines(structure.graph, board, survivors):
            raise InternalError("thinning process produced a non-determining set")
        sizes.append(survivors.bit_count())
    if not sizes:
        return TrialStats(0, (), None, None, None, seed)
    return TrialStats(
        trials, tuple(sizes), sum(sizes) / len(sizes), min(sizes), max(sizes), seed
    )


# ---------------------------------------------------------------------------
# minimum number of clues, order 2


class MncResult(NamedTuple):
    min_clues: int
    board: Coloring
    clues: VertexSet
    boards_checked: int


def mnc_exhaustive(n: int = 2, symmetry: bool = True) -> MncResult:
    """Exhaustive minimum clue count over all order-2 boards.

    A clue set is fair iff it hits every difference mask of the board
    against the other 287 boards, so a board's smallest fair puzzle is the
    minimum transversal of its masks: the mask kernel behind uscs in
    `critical.four_params`, bounded by the best clue count so far.  Boards
    in one Aut x S_4 orbit have the same minimum, so with `symmetry` on only
    the earliest palette-orbit representative of each orbit is searched (2
    boards, chosen as in `four_params`); with it off, all 288 boards are.
    Both modes return the same minimum.  A given clue set is checked by
    `certify_fair_puzzle`, the propagation counter that also runs at order 3.
    """
    if n != 2:
        raise UnsupportedError("exhaustive minimum-clue search is only supported at order 2")
    side, cells = 4, 16
    graph = sudoku_graph(2).graph
    orbit_reps = list(canonical_colorings(graph, side))
    if symmetry:
        candidates = [orbit_reps[i] for i in _orbit_leaders(graph, orbit_reps)]
    else:
        candidates = all_boards(2)
    best = None
    for board, masks in zip(candidates, _difference_masks(candidates, orbit_reps, side, cells)):
        got = _transversal_extremes(masks, cells, None if best is None else best[0] - 1)
        if got is not None:
            best = (got[0], board, got[1])
    if best is None:
        raise InternalError("no fair puzzle found at any size")
    return MncResult(best[0], Coloring(best[1], side), best[2], len(candidates))


# ---------------------------------------------------------------------------
# board/puzzle text format


def format_board(n: int, colors, clues: VertexSet | None = None) -> str:
    """n^2 lines of n^2 tokens: 1..n^2 for given cells, '.' elsewhere."""
    side = n * n
    lines = []
    for r in range(side):
        row = []
        for c in range(side):
            v = r * side + c
            if clues is not None and not clues >> v & 1:
                row.append(".")
            else:
                row.append(str(colors[v] + 1))
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def parse_board_text(text: str) -> tuple[int, dict[int, int]]:
    """Parse the puzzle format back to (order, {cell: color})."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    side = len(rows)
    if not side:
        raise InvalidParameterError("text has no board rows")
    n = isqrt(side)
    if n * n != side:
        raise InvalidParameterError(f"{side} lines is not a square side length")
    clues: dict[int, int] = {}
    for r, tokens in enumerate(rows):
        if len(tokens) != side:
            raise InvalidParameterError(f"line {r + 1} has {len(tokens)} tokens, expected {side}")
        for c, tok in enumerate(tokens):
            if tok == ".":
                continue
            try:
                value = int(tok)
            except ValueError:
                raise InvalidParameterError(f"bad token {tok!r} at line {r + 1}") from None
            if not 1 <= value <= side:
                raise InvalidParameterError(f"value {value} out of range at line {r + 1}")
            clues[r * side + c] = value - 1
    return n, clues
