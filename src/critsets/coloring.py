"""Exact coloring computations: chromatic number, palette-orbit coloring
enumeration, and capped extension counting for partial assignments.

Size rule: every exact search is exponential, so each refuses through
`check_search` what it would walk past `MAX_VERTICES` (exit 2 through the
CLI), before it starts: `chromatic_number`'s count per component, the
enumeration here on the whole graph, `critical.four_params` per component
before chi, the per-coloring route per component on its colorful
vertices, `params` on a named source's largest component before building
it, and `reductions` on H before verifying.  No option moves the cap.

Colorings are quotiented by palette permutation throughout; the canonical
orbit representative assigns colors in first-use order by vertex index.
Every vertex walk here, the extension counter `_count` included, reads
`Graph.neighbor_lists`, which each graph builds once.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import islice
from typing import Iterator, Mapping

from .errors import InvalidParameterError, SizeLimitError
from .graphs import (
    Graph,
    VertexSet,
    _read_only,
    automorphism_generators,
    bits,
    connected_components,
    induced_subgraph,
)

MAX_VERTICES = 20  # most vertices one exponential search walks


def check_search(size: int, what: str):
    """Refuse an exact search over `size` of `what` past `MAX_VERTICES`: the
    one place the size rule (module docstring) raises `SizeLimitError`."""
    if size > MAX_VERTICES:
        raise SizeLimitError(f"exact search capped at {MAX_VERTICES} {what} (got {size})")


class Coloring:
    """Total color assignment into {0..k-1}; a value like `Graph`, equal and
    hashed by (colors, k)."""

    def __init__(self, colors: tuple[int, ...], k: int):
        if colors and (min(colors) < 0 or max(colors) >= k):
            raise InvalidParameterError("color out of palette range")
        fields = self.__dict__
        fields["colors"] = colors
        fields["k"] = k

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.colors == other.colors and self.k == other.k

    def __hash__(self):
        return hash((self.colors, self.k))

    def __repr__(self):
        return f"Coloring(colors={self.colors!r}, k={self.k!r})"

    @cached_property
    def class_masks(self) -> tuple[int, ...]:
        """Vertex mask of each color class, built once per coloring (kept
        in the instance __dict__, which equality and hashing ignore)."""
        return tuple(_class_masks(self.colors, self.k))

    def is_proper(self, g: Graph) -> bool:
        """True iff the coloring covers g's vertices and no neighbor of a
        vertex shares its color."""
        if len(self.colors) != g.n:
            return False
        classes = self.class_masks
        return not any(row & classes[c] for row, c in zip(g.adj, self.colors))


def _shuffle(x: list, getrandbits) -> None:
    """Shuffle x in place exactly as `random.Random.shuffle` does, given
    that generator's `getrandbits`: the same Fisher-Yates swaps, each index
    drawn by `_randbelow`'s rejection loop (k = m.bit_length() bits, drawn
    again until below m), so the generator sees the same calls and ends in
    the same state."""
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _class_masks(colors, k: int) -> list[int]:
    """Vertex mask of each color class; unused colors get an empty class."""
    classes = [0] * k
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    return classes


def _count(nbrs, allowed: list[int], fixed: bytearray, queue: list[int], cap: int,
           found: list | None = None) -> int:
    """Count completions of `allowed` (bitmask per vertex), truncated at cap;
    each completion found is appended to `found` when given, as its list of
    one-bit domains.

    Unit propagation first (a singleton vertex removes its color from all
    neighbors), then MRV branching, depth first from an explicit stack so
    that no search depth meets the recursion limit; a branch vertex tries
    its colors in ascending order.  `fixed` flags the propagated vertices.
    The call owns `allowed` and `fixed`: each open branch vertex keeps its
    state on the stack, each of its colors but the last branches on a copy
    and the last on that state itself, so memory grows as depth times n,
    as in a recursive search.
    """
    total = 0
    stack = []  # per open branch vertex: (allowed, fixed, vertex, untried colors)
    while True:
        while queue:
            v = queue.pop()
            if fixed[v]:
                continue
            fixed[v] = 1
            b = allowed[v]
            for w in nbrs[v]:
                aw = allowed[w]
                if aw & b:
                    aw &= ~b
                    if not aw:
                        break
                    allowed[w] = aw
                    if not aw & (aw - 1) and not fixed[w]:
                        queue.append(w)
            else:
                continue
            break  # a domain ran empty: this branch has no completion
        else:
            best = v = fixed.find(0)
            if best < 0:
                total += 1
                if found is not None:
                    found.append(allowed)
                if total >= cap:
                    return cap
            else:
                best_count = allowed[best].bit_count()
                while best_count > 2:
                    v = fixed.find(0, v + 1)
                    if v < 0:
                        break
                    c = allowed[v].bit_count()
                    if c < best_count:
                        best_count = c
                        best = v
                stack.append((allowed, fixed, best, allowed[best]))
        if not stack:
            return total
        allowed, fixed, best, m = stack.pop()
        b = m & -m
        if m ^ b:
            stack.append((allowed, fixed, best, m ^ b))
            allowed = allowed.copy()
            fixed = fixed.copy()
        allowed[best] = b
        queue = [best]


def count_colorings_extending(g: Graph, k: int, fixed_colors: Mapping[int, int], cap: int) -> int:
    """Proper colorings of g into [k] agreeing with fixed_colors, up to cap."""
    if cap < 1:
        raise InvalidParameterError("cap must be at least 1")
    if k == 0:
        return 1 if g.n == 0 else 0
    full = (1 << k) - 1
    allowed = [full] * g.n
    queue = []
    for v, c in fixed_colors.items():
        if not 0 <= c < k or not 0 <= v < g.n:
            raise InvalidParameterError(f"assignment {v}->{c} out of range")
        allowed[v] = 1 << c
        queue.append(v)
    return _count(g.neighbor_lists, allowed, bytearray(g.n), queue, cap)


# ---------------------------------------------------------------------------
# chromatic number


def _greedy_clique(g: Graph, order: list[int], enough: int) -> VertexSet:
    """A maximal clique found greedily from each start vertex of `order`;
    the largest kept, and the first to reach `enough` vertices returned."""
    best = 0
    for start in order:
        clique = 1 << start
        cand = g.adj[start]
        while cand:
            v = max(bits(cand), key=lambda w: (g.adj[w] & cand).bit_count())
            clique |= 1 << v
            cand &= g.adj[v]
        if clique.bit_count() > best.bit_count():
            best = clique
            if clique.bit_count() >= enough:
                break
    return best


def _greedy_color_count(g: Graph, order: list[int]) -> int:
    """Colors used by first-fit coloring in `order`."""
    nbrs = g.neighbor_lists
    colors: dict[int, int] = {}
    used = 0
    for v in order:
        taken = 0
        for w in nbrs[v]:
            if w in colors:
                taken |= 1 << colors[w]
        c = 0
        while taken >> c & 1:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
    return used


def chromatic_number(g: Graph) -> int:
    """Minimum k admitting a proper k-coloring; 0 for the empty graph.

    First-fit coloring in descending degree order gives an upper bound hi,
    and a greedy clique from each start vertex, in the same order, a lower
    bound and a pin.  The clique search stops at a clique of hi vertices,
    which proves chi = hi with no count at all; otherwise each k from the
    clique size up to hi - 1 is tried by `count_colorings_extending`, with
    the clique pinned to distinct colors.  Above `MAX_VERTICES` vertices
    that count is refused (`check_search`), unless g is disconnected: then
    chi is the largest chi of a component, and each component answers (or
    refuses) on its own.
    """
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    hi = _greedy_color_count(g, order)
    clique = _greedy_clique(g, order, hi)
    if clique.bit_count() < hi and g.n > MAX_VERTICES:
        comps = connected_components(g)
        if len(comps) > 1:
            return max(chromatic_number(induced_subgraph(g, comp)[0]) for comp in comps)
        check_search(g.n, "vertices per component")
    # pin a clique to distinct colors: breaks palette symmetry
    pins = {v: i for i, v in enumerate(bits(clique))}
    for k in range(clique.bit_count(), hi):
        if count_colorings_extending(g, k, pins, 1):
            return k
    return hi


# ---------------------------------------------------------------------------
# orbit-canonical enumeration


def canonical_colorings(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Proper colorings into [k] with colors in first-use order by vertex
    index: exactly one representative per palette-permutation orbit,
    yielded lazily in lexicographic order.

    A depth-first loop over vertices with an explicit stack: vertex v keeps
    the mask of its untried colors, (1 << min(used + 1, k)) - 1 minus the
    colors of its lower neighbours, where `used` counts the colors of
    vertices 0..v-1; it takes them lowest bit first, and steps back to
    v - 1 when none is left.
    """
    n = g.n
    if n == 0:
        yield ()
        return
    if k == 0:
        return
    lower = [[u for u in nbrs if u < v] for v, nbrs in enumerate(g.neighbor_lists)]
    opened = [(1 << min(u + 1, k)) - 1 for u in range(min(k, n) + 1)]  # colors open after u used
    colors = [0] * n
    shown = [0] * n  # 1 << colors[v]
    used = [0] * n  # colors used by the vertices below v
    untried = [0] * n
    untried[0] = 1
    last = n - 1
    v = 0
    while v >= 0:
        m = untried[v]
        if not m:
            v -= 1
            continue
        b = m & -m
        untried[v] = m ^ b
        c = b.bit_length() - 1
        colors[v] = c
        if v == last:
            yield tuple(colors)
            continue
        shown[v] = b
        u = used[v]
        if c == u:  # c opens a new color
            u += 1
        v += 1
        used[v] = u
        forbid = 0
        for w in lower[v]:
            forbid |= shown[w]
        untried[v] = opened[u] & ~forbid


def _palette_form(colors) -> tuple[int, ...]:
    """`colors` renamed in first-use order: its palette-orbit representative."""
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(c, len(relabel)) for c in colors])


def _orbit_leaders(g: Graph, tuples: list[tuple[int, ...]]) -> list[int]:
    """Indices into `tuples`, the output of `canonical_colorings(g, k)` in
    its order, of the earliest member of each Aut(g) x S_k orbit.

    A generator s of Aut(g) moves a coloring c to c o s^-1 (vertex s(v)
    takes c(v)); putting that back in first-use palette form names its
    palette orbit.  `tuples` is walked in order: an index not seen yet is
    a leader, and a depth-first walk under the generators marks its whole
    orbit seen.
    """
    generators = automorphism_generators(g) if len(tuples) > 1 else []
    if not generators:
        return list(range(len(tuples)))
    inverses = []
    for perm in generators:
        inverse = [0] * g.n
        for v, w in enumerate(perm):
            inverse[w] = v
        inverses.append(inverse)
    index = {tup: i for i, tup in enumerate(tuples)}
    seen = bytearray(len(tuples))
    leaders = []
    for i, tup in enumerate(tuples):
        if seen[i]:
            continue
        seen[i] = 1
        leaders.append(i)
        stack = [tup]
        while stack:
            member = stack.pop()
            for inverse in inverses:
                relabel: dict[int, int] = {}
                j = index[tuple([relabel.setdefault(member[v], len(relabel)) for v in inverse])]
                if not seen[j]:
                    seen[j] = 1
                    stack.append(tuples[j])
    return leaders


def enumerate_optimal_colorings(g: Graph) -> Iterator[Coloring]:
    """One canonical representative per orbit of proper chi(g)-colorings."""
    check_search(g.n, "vertices")
    k = chromatic_number(g)
    for tup in canonical_colorings(g, k):
        yield Coloring(tup, k)


def is_uniquely_colorable(g: Graph) -> bool:
    """True iff g has exactly one optimal coloring up to palette permutation."""
    return len(list(islice(enumerate_optimal_colorings(g), 2))) == 1


def colorful_vertices(g: Graph, coloring: Coloring, among=None) -> VertexSet:
    """Vertices whose closed neighborhood shows all k palette colors, out
    of the vertices `among` (all of V when None)."""
    nbrs = g.neighbor_lists
    colors = coloring.colors
    out = 0
    for v in range(g.n) if among is None else among:
        seen = 1 << colors[v]
        for w in nbrs[v]:
            seen |= 1 << colors[w]
        if seen.bit_count() == coloring.k:
            out |= 1 << v
    return out


def sample_proper_coloring(g: Graph, k: int, rng: random.Random) -> Coloring:
    """One proper k-coloring found by randomized backtracking (any size).

    Not uniform over colorings; used for seeded spot checks on instances
    too large for exhaustive enumeration.  High-degree vertices are colored
    first (random order within a degree class), which keeps backtracking
    shallow on graphs with many low-degree pendants.
    """
    getrandbits = rng.getrandbits
    nbrs = g.neighbor_lists
    order = list(range(g.n))
    _shuffle(order, getrandbits)
    degree = [len(row) for row in nbrs]  # one list per call, not a bit count per comparison
    order.sort(key=degree.__getitem__, reverse=True)
    colors = [-1] * g.n
    # each palette is `_shuffle`d in place: the same Fisher-Yates steps,
    # (index, bound, bits per draw) computed once per call
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(k - 1, 0, -1)]
    base = list(range(k))
    palettes = []
    for _ in order:
        p = base.copy()
        for i, m, b in steps:
            j = getrandbits(b)
            while j >= m:
                j = getrandbits(b)
            p[i], p[j] = p[j], p[i]
        palettes.append(p)

    tried = [0] * g.n  # per level: how many colors of palettes[i] are used up
    i = 0
    while 0 <= i < g.n:
        v = order[i]
        colors[v] = -1
        taken = 0
        for w in nbrs[v]:
            if colors[w] >= 0:
                taken |= 1 << colors[w]
        p = palettes[i]
        j = tried[i]
        while j < k and taken >> p[j] & 1:
            j += 1
        if j < k:
            colors[v] = p[j]
            tried[i] = j + 1
            i += 1
        else:
            tried[i] = 0
            i -= 1
    if i < 0:
        raise InvalidParameterError(f"graph admits no proper {k}-coloring")
    return Coloring(tuple(colors), k)
