"""Determining and critical sets, per-coloring extremes, and the four
extremal parameters.

A subset S determines a coloring c when c restricted to S has exactly one
proper extension; criticality is inclusion-minimality of that property.
Equivalently, S meets every difference mask {v : c(v) != c'(v)} over the
other proper colorings c' (Sudoku's "unavoidable sets"), and S is critical
iff moreover each of its vertices has a private mask that S meets nowhere
else: the critical sets of c are the minimal transversals of its minimal
difference masks M, Tr(M).  Two routes give their extremes for
`scs_lcs_for_coloring` and `four_params`, chosen per component:

- The mask kernel (`_difference_masks`, then the walk in
  `_transversal_extremes`) lists M by comparing c with every palette-orbit
  coloring, so its cost is (colorings searched) x (palette orbits) pairs.
  The maximal color matchings behind the masks depend only on the palette
  size and on which color cells meet, so one table per process
  (`_MATCHINGS`) serves every call.  `sudoku.mnc_exhaustive` uses it too.
- The lazy route (`_lazy_extremes`) grows a family F of true difference
  masks, seeded by c's Kempe chains.  A minimal transversal T of F that
  does not determine c adds to F the difference mask of the extension of
  c|T other than c that its point check finds, a mask T misses (the
  implicit hitting-set scheme of Moreno-Centeno and Karp, on the
  unavoidable sets of McGuire, Tugemann and Civario).  It stops when
  every T in Tr(F) determines c, and then Tr(F) = Tr(M), though masks of
  F need not be minimal: each contains one of M, so every transversal of
  M is one of F; and every transversal of F contains some T in Tr(F),
  which hits all of M.  So values and lexicographically least witnesses
  are the kernel's.

The lazy route runs when a component's pairs exceed `LAZY_PAIRS`.  A sweep
over C5-C13 at k = 3 and 4, `latin:3`, `latin:4`, `sudoku:2` and 60 random
graphs on 8-12 vertices at chi and chi + 1, timing both routes up to 60000
pairs (2 vCPU, Python 3.11.7), found the kernel faster on some inputs up
to 2304 pairs (20x on `latin:4`, 48 pairs, where F needs many rounds) and
the lazy route faster on every input above that (2.6x at 2704 pairs, 5x on
C11's 7161, 10x at 57600).

Point checks on one given set go through `_determines` (behind
`is_determining`, `is_critical` and the fair-puzzle certificate), which
needs no enumeration and so also runs on order-3 boards and on the large
gadget graphs.  Because the coloring extends its own restriction,
propagation from the set can only fix each vertex to its own color, so it
first closes the set on color-class bitsets: a round fixes every free
vertex of color c whose fixed neighbors show the other k-1 colors, with
O(k) mask operations.
When the closure is all of V the set determines; otherwise the
propagation counter `_count` branches on what is left, capped at 2.
Dropping one vertex v from a set already known to determine the coloring
goes through `_still_determines`, which counts on v's free region alone:
the minimality loop of `is_critical` and every step of
`prune_to_critical` hold that precondition, so a certificate on a gadget
graph costs about linear time instead of one whole-graph count per
vertex.  When every neighbor of v is fixed it needs no count: v is
forced iff they show the other k-1 colors, one AND per color class.
Otherwise the region grows by one row OR per vertex, and each region
vertex reads its domain from k class masks of subset - {v}; v itself is
not fixed there, or every drop would look safe.  Both checks need a
proper coloring, so every point check rejects an improper one.  The
vertices in every determining set need no count at all: they are the
vertices that are not colorful (`forced_vertices`).

Everything decomposes over connected components: a set determines a
coloring iff its trace on every component does, so the four parameters of
a disconnected graph are sums of per-component extremes.  Palette size is
the whole graph's, since components may not use all colors.  The size
cap, `coloring.MAX_VERTICES`, is per component; point checks have none.

Per component, the extremes run once per Aut x S_k orbit of colorings, not
once per palette orbit: an automorphism s maps the critical sets of c to
critical sets of c o s^-1 of the same sizes, so a whole orbit shares scs
and lcs.  Either route runs on the earliest member of each orbit in
`canonical_colorings` order (`coloring._orbit_leaders`, on the generators
from `graphs.automorphism_generators`); the kernel still compares it with
every palette-orbit representative.  The witnesses do not move: `min` and
`max` keep the first coloring that attains an extreme, and that coloring
is the earliest of its orbit, so it is among those searched, with its own
least set.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .coloring import (
    MAX_VERTICES,
    Coloring,
    _class_masks,
    _count,
    _orbit_leaders,
    canonical_colorings,
    chromatic_number,
    colorful_vertices,
)
from .errors import InternalError, InvalidParameterError, SizeLimitError
from .graphs import Graph, VertexSet, bits, connected_components, induced_subgraph, reach

PARAM_NAMES = ("uscs", "oscs", "ulcs", "olcs")
# the implications about a quad that `scan.implication_holds` tests
CHECKS = ("prop1", "converse", "uniform")


class ParamQuad(NamedTuple):
    """The four extremal critical-set sizes, with optional witnesses.

    witnesses maps a parameter name to a (coloring, vertex set) pair that
    attains it.
    """

    uscs: int
    oscs: int
    ulcs: int
    olcs: int
    witnesses: dict[str, tuple[Coloring, VertexSet]] | None = None

    def values(self) -> tuple[int, int, int, int]:
        return (self.uscs, self.oscs, self.ulcs, self.olcs)

    def uniform_value(self) -> int | None:
        return self.uscs if self.uscs == self.oscs == self.ulcs == self.olcs else None


class CriticalCertificate(NamedTuple):
    coloring: Coloring
    subset: VertexSet
    determining: bool
    minimal: bool


class ScsLcs(NamedTuple):
    scs: int
    lcs: int
    scs_witness: VertexSet
    lcs_witness: VertexSet


# a binary digit string read as per-vertex flags: b"1" -> 1, b"0" -> 0
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: VertexSet, n: int) -> bytes:
    """Byte v is 1 iff bit v of mask is set: one pass over the mask's
    digits, where testing `mask >> v & 1` per vertex would shift the whole
    mask n times."""
    return f"{mask:0{n}b}"[::-1].encode().translate(_DIGIT_FLAGS)


def _determines(g: Graph, coloring: Coloring, subset: VertexSet, found: list | None = None) -> bool:
    """True iff the proper coloring restricted to `subset` has exactly one
    proper extension.  When `_count` runs, the extensions it finds go to
    `found` (see `_count`).

    Unit propagation from `subset` only ever fixes a vertex to its own
    color, since the coloring is an extension and propagation keeps every
    extension.  So its fixpoint is the closure F of `subset` under adding
    each free vertex whose fixed neighbors show all k-1 other colors, and
    the closure grows in rounds on color-class bitsets.  With seen[c] the
    neighbors of the fixed vertices of color c, a round fixes
    class[c] & free & AND(seen[c'] for c' != c) for every c at once, from
    prefix and suffix ANDs of seen.  F = V decides True.

    A round costs O(k) operations on n-bit masks however few vertices it
    fixes, so on a long chain, which fixes one or two vertices per round,
    the rounds would be quadratic.  They stop at a round that fixes fewer
    than n/64 vertices (below 128 vertices: at one that fixes none), and
    `_count` goes on from the residual domains, capped at 2: each free
    vertex is allowed the palette minus the colors seen at it, so that
    round's vertices come out as singletons, which `_count` propagates
    before it branches.
    """
    n = g.n
    k = coloring.k
    colors = coloring.colors
    adj = g.adj
    classes = coloring.class_masks
    seen = [0] * k
    enough = max(1, n >> 6)  # a round fixing fewer stops the rounds
    free = ((1 << n) - 1) ^ subset
    fresh = subset  # fixed vertices whose rows are not in seen yet
    while free:
        for v in compress(range(n), _flags(fresh, n)):
            seen[colors[v]] |= adj[v]
        suffix = [-1] * (k + 1)  # suffix[c]: AND of seen[c:]
        for c in range(k - 1, 0, -1):
            suffix[c] = suffix[c + 1] & seen[c]
        prefix = free  # free & AND of seen[:c]
        fresh = 0
        for c in range(k):
            fresh |= classes[c] & prefix & suffix[c + 1]
            prefix &= seen[c]
        if fresh != free and fresh.bit_count() < enough:
            break  # fresh stays free: exactly its domains are singletons
        free ^= fresh
    else:
        return True
    full = (1 << k) - 1
    allowed = [full] * n
    for c in range(k):
        for v in compress(range(n), _flags(classes[c] & ~free, n)):
            allowed[v] = 1 << c
        drop = full ^ 1 << c
        for v in compress(range(n), _flags(seen[c] & free, n)):
            allowed[v] &= drop
    queue = list(compress(range(n), _flags(fresh, n)))  # the singletons
    fixed = bytearray(_flags(((1 << n) - 1) ^ free, n))
    return _count(g.neighbor_lists, allowed, fixed, queue, 2, found) == 1


def _still_determines(g: Graph, coloring: Coloring, subset: VertexSet, v: int) -> bool:
    """For a `subset` that determines the coloring: whether subset - {v}
    still does.

    Only the free region around v can gain a second extension: every free
    component of `subset` that v does not touch keeps the unique extension
    it already had.  When every neighbor of v is fixed, the region is v
    alone, which is forced exactly when its neighbors show the other k-1
    colors.  Otherwise the region grows on bitsets, one row OR per vertex,
    and the count runs on it alone, each vertex allowed the palette minus
    the colors of its neighbors in subset - {v}.
    """
    adj = g.adj
    row = adj[v]
    classes = coloring.class_masks
    if not row & ~subset:
        return sum(1 for cls in classes if row & cls) == coloring.k - 1
    region = reach(g, 1 << v, ~subset)
    rest = subset ^ 1 << v  # the fixed set once v is dropped
    fixed = [cls & rest for cls in classes]
    verts = bits(region)
    index = {u: i for i, u in enumerate(verts)}
    full = (1 << coloring.k) - 1
    local = []
    allowed = []
    for u in verts:
        row = adj[u]
        dom = full
        for c, cls in enumerate(fixed):
            if row & cls:
                dom ^= 1 << c
        local.append([index[w] for w in bits(row & region)])
        allowed.append(dom)
    queue = [i for i, dom in enumerate(allowed) if not dom & (dom - 1)]
    return _count(local, allowed, bytearray(len(local)), queue, 2) == 1


def is_determining(g: Graph, coloring: Coloring, subset: VertexSet) -> bool:
    """True iff the coloring restricted to `subset` extends uniquely."""
    _check_point(g, coloring, subset)
    return _determines(g, coloring, subset)


def is_critical(g: Graph, coloring: Coloring, subset: VertexSet) -> CriticalCertificate:
    """Determining plus minimality flags for (g, coloring, subset)."""
    _check_point(g, coloring, subset)
    det = _determines(g, coloring, subset)
    minimal = det and not any(_still_determines(g, coloring, subset, v) for v in bits(subset))
    return CriticalCertificate(coloring, subset, det, minimal)


def prune_to_critical(g: Graph, coloring: Coloring, order: list[int]) -> VertexSet:
    """Greedy single-pass pruning from the full vertex set; the survivor
    set is inclusion-minimal determining (monotonicity) once `order` has
    named every vertex."""
    _check_proper(g, coloring)
    subset = (1 << g.n) - 1
    for v in order:
        if subset >> v & 1 and _still_determines(g, coloring, subset, v):
            subset ^= 1 << v
    return subset


def forced_vertices(g: Graph, coloring: Coloring) -> VertexSet:
    """Vertices that belong to every determining set of a proper coloring.
    V - {v} determines it exactly when the neighbors of v show the other
    k-1 colors, so these are the vertices that are not colorful."""
    return ((1 << g.n) - 1) & ~colorful_vertices(g, coloring)


# palette size -> {occupied cells: their maximal matchings}, shared by every
# call in the process; each distinct matching is stored once (_INTERNED)
_MATCHINGS: dict[int, dict[int, tuple[tuple[int, ...], ...]]] = {}
_INTERNED: dict[tuple[int, ...], tuple[int, ...]] = {}


def _maximal_matchings(k: int, occupied: int) -> tuple[tuple[int, ...], ...]:
    """Every inclusion-maximal matching of the bipartite graph on [k] x [k]
    whose edges (a, b) are the set bits a*k + b of `occupied`, as lists of
    edge indices."""
    rows = [occupied >> (a * k) & ((1 << k) - 1) for a in range(k)]
    later = [0] * (k + 1)  # later[a]: columns adjacent to some row >= a
    for a in range(k - 1, -1, -1):
        later[a] = later[a + 1] | rows[a]
    out = []
    # (row, used columns, owed columns, matching so far); owed columns sit
    # next to an unmatched row, so maximality needs a later row to take them
    stack = [(0, 0, 0, ())]
    while stack:
        a, used, owed, picked = stack.pop()
        if owed & ~used & ~later[a]:
            continue
        if a == k:
            out.append(picked)
            continue
        free = rows[a] & ~used
        if not free & ~later[a + 1]:
            stack.append((a + 1, used, owed | free, picked))
        for b in bits(free):
            stack.append((a + 1, used | 1 << b, owed, picked + (a * k + b,)))
    return tuple(out)


def _difference_masks(
    owns: Iterable[tuple[int, ...]], reps: list[tuple[int, ...]], k: int, n: int
) -> Iterator[list[int]]:
    """For each coloring c in `owns` (as color tuples), its minimal
    difference masks against every other proper k-coloring of the graph.

    `reps` holds one coloring per palette orbit.  With own and rep the color
    classes of c and of a representative, the relabelled representative
    agrees with c on the cells own[a] & rep[b] of a matching of colors, so
    the largest agreements come from the maximal matchings of the non-empty
    cells.  c's own relabellings differ from it on own[a] | own[b] for a
    swap, or on a superset of such a union.

    The matchings depend only on k and the occupied cells, so they live in
    the process-wide `_MATCHINGS` table: an atlas scan meets a few thousand
    patterns across tens of thousands of own x rep pairs, and their
    matchings hold a few hundred distinct tuples, which are interned.
    """
    full = (1 << n) - 1
    matchings = _MATCHINGS.setdefault(k, {})
    reps = [_class_masks(rep, k) for rep in reps]
    for own in (_class_masks(c, k) for c in owns):
        masks = {own[a] | own[b] for a in range(k) for b in range(a + 1, k)}
        for rep in reps:
            cell = [ca & rb for ca in own for rb in rep]
            occupied = 0
            for i, m in enumerate(cell):
                if m:
                    occupied |= 1 << i
            found = matchings.get(occupied)
            if found is None:
                found = matchings[occupied] = tuple(
                    _INTERNED.setdefault(m, m) for m in _maximal_matchings(k, occupied))
            for matching in found:
                agree = 0
                for i in matching:
                    agree |= cell[i]
                masks.add(full ^ agree)
        masks.discard(0)
        minimal: list[int] = []
        for m in sorted(masks, key=int.bit_count):
            for s in minimal:
                if not s & ~m:
                    break
            else:
                minimal.append(m)
        yield minimal


def _minimal_transversals(masks: list[int], n: int, bound: int | None = None) -> list[int]:
    """The minimal transversals of `masks` of size at most `bound` (all
    when None).

    Murakami-Uno's MMCS walk visits each minimal transversal once: branch
    on the unhit mask with the fewest candidate vertices, forbid the
    earlier siblings, and cut when a chosen vertex has no private mask
    left.
    """
    hits = [0] * n  # per vertex: indices of the masks containing it
    for i, m in enumerate(masks):
        for v in bits(m):
            hits[v] |= 1 << i
    found = []
    # (chosen set, private masks of its vertices, unhit masks, candidates)
    stack = [(0, [], (1 << len(masks)) - 1, (1 << n) - 1)]
    while stack:
        chosen, private, unhit, cand = stack.pop()
        if not unhit:
            found.append(chosen)
        elif bound is None or len(private) < bound:
            for v in bits(min((masks[i] & cand for i in bits(unhit)), key=int.bit_count)):
                cand ^= 1 << v
                kept = [p & ~hits[v] for p in private]
                if all(kept):
                    stack.append((chosen | 1 << v, kept + [unhit & hits[v]], unhit & ~hits[v], cand))
    return found


def _extremes(found: list[int]):
    """(scs, scs_set, lcs, lcs_set) over the sets `found`, or None if there
    are none.  Witnesses are the lexicographically least vertex lists at
    their size: of two distinct sets of one size, that is the one holding
    the lowest bit of their symmetric difference, so one pass picks both.
    """
    if not found:
        return None
    scs = lcs = found[0]
    low = high = scs.bit_count()
    for m in found:
        size = m.bit_count()
        d = m ^ scs
        if size < low or size == low and m & d & -d:
            scs, low = m, size
        d = m ^ lcs
        if size > high or size == high and m & d & -d:
            lcs, high = m, size
    return low, scs, high, lcs


def _transversal_extremes(masks: list[int], n: int, bound: int | None = None):
    """`_extremes` of the minimal transversals of `masks` of size at most
    `bound` (all when None)."""
    return _extremes(_minimal_transversals(masks, n, bound))


def _lazy_extremes(g: Graph, coloring: Coloring):
    """`_transversal_extremes` of the minimal difference masks M of
    `coloring`, from a family F of difference masks grown lazily.

    F starts with the Kempe chains: swapping colors a and b on one
    component of the subgraph on classes a and b gives another proper
    coloring that differs exactly there.  While some minimal transversal
    t of F does not determine the coloring c, the count behind
    `_determines` stops at two extensions of c restricted to t, and F
    gains the difference mask of one that is not c: it agrees with c on
    t, so t misses it.  Sets already checked stay checked.

    No mask of F need be minimal.  Each contains one of M, so every
    transversal of M is one of F.  Once every T in Tr(F) determines c,
    each T hits all of M, and so does every transversal of F, which
    contains some T.  So the two families of transversals are equal,
    Tr(F) = Tr(M), with the same least witnesses.
    """
    classes = coloring.class_masks
    k = coloring.k
    own = [1 << c for c in coloring.colors]
    masks = list(dict.fromkeys(
        chain for a in range(k) for b in range(a + 1, k)
        for chain in connected_components(g, classes[a] | classes[b])))
    checked: set[VertexSet] = set()
    while True:
        found = _minimal_transversals(masks, g.n)
        for t in found:
            if t not in checked:
                exts: list = []
                if not _determines(g, coloring, t, exts):
                    # the count stopped at two extensions, so one of them is not c
                    masks.append(max(sum(1 << v for v, (a, b) in enumerate(zip(ext, own)) if a != b)
                                     for ext in exts))
                    break
                checked.add(t)
        else:
            return _extremes(found)


def _check_proper(g: Graph, coloring: Coloring):
    if len(coloring.colors) != g.n:
        raise InvalidParameterError("coloring length must equal vertex count")
    if not coloring.is_proper(g):
        raise InvalidParameterError("coloring is not proper")


def _check_point(g: Graph, coloring: Coloring, subset: VertexSet):
    if subset >> g.n:
        raise InvalidParameterError("subset has bits beyond vertex range")
    _check_proper(g, coloring)


# most (own, palette-orbit) pairs a component gives the mask kernel; above
# this the lazy route runs (the crossover measured in the module docstring)
LAZY_PAIRS = 2500


def _component_extremes(g: Graph, k: int, coloring: Coloring | None = None):
    """Per connected component: its vertices, and (colors, scs, scs set,
    lcs, lcs set) for the earliest palette-orbit representative of each
    Aut x S_k orbit of its proper k-colorings, or only for the restriction
    of `coloring` when given.  Colors and sets are in the component's own
    indices."""
    for comp in connected_components(g):
        if (size := comp.bit_count()) > MAX_VERTICES:
            raise SizeLimitError(
                f"exact search capped at {MAX_VERTICES} vertices per component (got {size})")
        sub, verts = induced_subgraph(g, comp)
        tuples = list(canonical_colorings(sub, k))
        if coloring is None:
            owns = [tuples[i] for i in _orbit_leaders(sub, tuples)]
        else:
            owns = [tuple(coloring.colors[v] for v in verts)]
        if len(owns) * len(tuples) > LAZY_PAIRS:
            rows = [(tup, *_lazy_extremes(sub, Coloring(tup, k))) for tup in owns]
        else:
            masks = _difference_masks(owns, tuples, k, sub.n)
            rows = [(tup, *_transversal_extremes(m, sub.n)) for tup, m in zip(owns, masks)]
        if not rows:
            raise InternalError(f"component admits no proper {k}-coloring")
        yield verts, rows


def _lift(n: int, chosen, i: int) -> tuple[int, tuple[int, ...], VertexSet]:
    """Sum of field i over one chosen row per component, with the rows'
    colorings and their sets in field i + 1 mapped back to the whole graph."""
    total = 0
    colors = [0] * n
    mask = 0
    for verts, row in chosen:
        total += row[i]
        for j, v in enumerate(verts):
            colors[v] = row[0][j]
        for j in bits(row[i + 1]):
            mask |= 1 << verts[j]
    return total, tuple(colors), mask


_SCS, _LCS = 1, 3  # fields of a _component_extremes row
# each parameter is the min or the max over colorings of one of them
_EXTREMES = (("uscs", min, _SCS), ("oscs", max, _SCS), ("ulcs", min, _LCS), ("olcs", max, _LCS))


def scs_lcs_for_coloring(g: Graph, coloring: Coloring) -> ScsLcs:
    """Smallest and largest critical-set sizes for one fixed coloring."""
    _check_proper(g, coloring)
    chosen = [(verts, rows[0]) for verts, rows in _component_extremes(g, coloring.k, coloring)]
    scs, _, scs_set = _lift(g.n, chosen, _SCS)
    lcs, _, lcs_set = _lift(g.n, chosen, _LCS)
    return ScsLcs(scs, lcs, scs_set, lcs_set)


def four_params(g: Graph, k: int | None = None) -> ParamQuad:
    """Exact (uscs, oscs, ulcs, olcs) with witnesses, over the proper
    colorings into [k] for a given k >= chi(g) (default chi).

    Above chi, colorings need not use every color, so values can differ
    from the k = chi case and the n-1 upper bound need not apply.
    """
    chi = chromatic_number(g)
    if k is None:
        k = chi
    elif k < chi:
        raise InvalidParameterError(f"k={k} below chromatic number {chi}")
    components = list(_component_extremes(g, k))
    values = []
    witnesses = {}
    for name, pick, i in _EXTREMES:
        chosen = [(verts, pick(rows, key=itemgetter(i))) for verts, rows in components]
        value, colors, mask = _lift(g.n, chosen, i)
        values.append(value)
        witnesses[name] = (Coloring(colors, k), mask)
    quad = ParamQuad(*values, witnesses)
    if not (quad.uscs <= quad.oscs <= quad.olcs and quad.uscs <= quad.ulcs <= quad.olcs):
        raise InternalError(f"parameter ordering violated: {quad.values()}")
    if k == chi and g.n and quad.olcs > g.n - 1:
        raise InternalError(f"critical set of size {quad.olcs} exceeds n-1")
    return quad
