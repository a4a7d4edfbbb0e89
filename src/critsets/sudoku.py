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
    _palette_form,
    _shuffle,
    canonical_colorings,
    count_colorings_extending,
)
from .critical import _determines, _kernel_rows, is_determining
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
    by `sudoku_graph`, `box_index`, `_board_search`'s `used` list and the
    thinning's `present` list."""
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


# free-color mask with two or more colors -> its one-bit masks in
# ascending order, shared by all searches
_MASK_BITS: dict[int, tuple[int, ...]] = {}


def _board_search(n: int, rng: random.Random) -> tuple[int, ...] | None:
    """Backtracking board fill with rng-drawn tries; the first board
    found, or None.  Cells are filled in index order from an explicit
    stack, so no board size meets the recursion limit.

    Draw contract: a try at a cell with c >= 2 untried free colors takes
    the `rng.randrange(c)`-th of them in ascending order, drawn as
    `randrange` draws it (`rng.getrandbits(c.bit_length())`, redrawn while
    it is c or more).  A try with one untried color takes it with no
    draw, and a cell with none steps back.  The rng is touched nowhere
    else, so a seed gives the same board, and leaves the rng in the same
    state, as the recursive search that makes these tries.

    Drawing each try without replacement orders a visit's free colors
    uniformly at random, as shuffling them on entry does (Knuth, TAOCP
    Vol. 2, 3.4.2), and each visit draws afresh.  Depth-first search is
    complete, so in both contracts the color that wins at a cell is
    uniform among those that complete: the law over boards is that of a
    shuffle on every cell entry; only the board a seed maps to differs.

    Each filled cell holds its color as a one-bit mask and its untried
    colors as one mask; the colors are decoded when the board is returned.
    """
    side = n * n
    cells = side * side
    full = (1 << side) - 1
    slots = _board_slots(n)
    memo = _MASK_BITS
    getrandbits = rng.getrandbits
    used = [0] * (3 * side)
    colors = [0] * cells  # one-bit masks
    untried = [0] * cells
    v = 0
    r, c, b = slots[0]
    left = full  # the untried colors of cell v
    while True:
        if left & (left - 1):
            tries = memo.get(left)
            if tries is None:
                tries = memo[left] = tuple(1 << col for col in bits(left))
            m = len(tries)
            k = m.bit_length()
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            bit = tries[j]
        elif left:
            bit = left
        else:
            # a dead end: clear the cell before v and try its next color
            v -= 1
            if v < 0:
                return None
            r, c, b = slots[v]
            bit = colors[v]
            used[r] ^= bit
            used[c] ^= bit
            used[b] ^= bit
            left = untried[v]
            continue
        untried[v] = left ^ bit
        used[r] |= bit
        used[c] |= bit
        used[b] |= bit
        colors[v] = bit
        v += 1
        if v == cells:
            return tuple([bit.bit_length() - 1 for bit in colors])
        r, c, b = slots[v]
        left = full & ~(used[r] | used[c] | used[b])


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
    `rng.randrange(c)` per try at a cell with c >= 2 untried free colors
    (see `_board_search`); a try with one color left draws nothing.  So a
    board stream from one rng is fixed by its seed.  The law over boards
    is that of a search that shuffles each cell's free colors on entry.
    """
    if n < 1:
        raise InvalidParameterError("box order must be at least 1")
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

    The rule runs on one color mask per unit (the units of `_board_slots`)
    holding the colors of its surviving cells.  On a proper board each
    unit holds each color once, so the neighbors of v with color c are the
    c-cells of v's row, column and box: v drops iff the masks of its three
    units cover the palette (v's own color is there, as v survives until
    its turn), and dropping it clears its color in those units.
    """
    _check_board(structure, board)
    side = structure.side
    colors = board.colors
    slots = _board_slots(structure.n)
    full = (1 << side) - 1
    present = [full] * (3 * side)  # per unit: colors of its surviving cells
    order = list(range(structure.cells))
    _shuffle(order, random.Random(seed).getrandbits)
    survivors = (1 << structure.cells) - 1
    for v in order:
        r, c, b = slots[v]
        if present[r] | present[c] | present[b] == full:
            own = 1 << colors[v]
            present[r] ^= own
            present[c] ^= own
            present[b] ^= own
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
    randomized backtracking (`random_board`, one draw per try with two or
    more colors left, the law of a shuffle on every cell entry).  One
    master rng feeds each trial's board and then its thinning seed.  Every
    board is validated by the thinning and every output certified
    determining; a non-determining output raises InternalError.
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

    A fair puzzle is a determining set, so a board's smallest one is its
    smallest critical set, from the mask kernel behind uscs in
    `critical.four_params`.  A board has the agreement sets of its palette
    form, so one kernel pass over palette-orbit representatives gives each
    board the (scs, least set) of its own.  With `symmetry` on, the pass
    and the minimum take the earliest representative of each Aut x S_4
    orbit (2 boards, chosen as in `four_params`), as an orbit shares its
    minimum; with it off, the pass takes all 12 and the minimum all 288
    sorted boards.  The first board to reach it wins, so both modes give
    the same puzzle.  A given clue set is checked by `certify_fair_puzzle`,
    the propagation counter that also runs at order 3.
    """
    if n != 2:
        raise UnsupportedError("exhaustive minimum-clue search is only supported at order 2")
    side, cells = 4, 16
    graph = sudoku_graph(2).graph
    reps = list(canonical_colorings(graph, side))
    owns = _orbit_leaders(graph, reps) if symmetry else range(len(reps))
    smallest = {row[0]: row[1:3] for row in _kernel_rows(owns, reps, side, cells)}
    boards = list(smallest) if symmetry else all_boards(2)
    board = min(boards, key=lambda b: smallest[_palette_form(b)][0])
    scs, clues = smallest[_palette_form(board)]
    return MncResult(scs, Coloring(board, side), clues, len(boards))


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
