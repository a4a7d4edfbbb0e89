"""Determining and critical sets, per-coloring extremes, and the four
extremal parameters.

A subset S determines a coloring c when c restricted to S has exactly one
proper extension; criticality is inclusion-minimality of that property.
Equivalently, S meets every difference mask {v : c(v) != c'(v)} over the
other proper colorings c' (Sudoku's "unavoidable sets"), and S is critical
iff moreover each of its vertices has a private mask that S meets nowhere
else: the critical sets of c are the minimal transversals of its minimal
difference masks M, Tr(M).  `four_params` picks one of two routes per
component; `scs_lcs_for_coloring`, for a given c, takes the second alone:

- The mask kernel (`_agreements`, `_critical_sets`, then
  `_lattice_extremes`) compares c with every palette-orbit coloring, so its
  cost is (colorings searched) x (palette orbits) pairs.  It marks each
  agreement set {v : c(v) == c'(v)}, the complement of a difference mask,
  in one integer with a bit per subset of V.  n shift steps close that
  family downward, to the sets that do not determine c; n more keep the
  minimal members of its complement, the critical sets, and per-size layer
  masks give scs and lcs.  That integer is whole at every size; only the
  shift and layer masks of at most `_SLICE` (16) positions are kept, and a
  larger lattice builds its shift masks one at a time and is read in
  2^16-bit slices.  The maximal color matchings behind the agreements
  depend only on the palette size and on which color cells meet, so one
  table per process (`_MATCHINGS`) serves every call.  It works
  palette-orbit representatives only.
- The lazy route (`_lazy_extremes`) compares c with no other coloring.
  The vertices that are not colorful lie in every determining set
  (`forced_vertices`), so it works on the lattice above with one position
  per colorful vertex.  There it grows a family F of true difference
  masks, seeded by Kempe chains, and reads Tr(F) off the lattice; a T in
  Tr(F) whose point check fails adds to F the difference mask of the other
  extension that the check finds, a mask T misses (the implicit
  hitting-set scheme of Moreno-Centeno and Karp, on the unavoidable sets
  of McGuire, Tugemann and Civario).  At the fixpoint Tr(F) = Tr(M), so
  values and lexicographically least witnesses are the kernel's, at a
  cost set by r = |colorful(c)|, not by n.

`four_params` takes the lazy route when a component's pairs exceed
`LAZY_PAIRS`.  A sweep over C5-C13 and P8-P10 at k = 3, `latin:3`,
`latin:4`, `sudoku:2`, K3 x K4, K4 x K5 and 60 random graphs on 5-12
vertices at chi and chi + 1 below Delta + 2, timing both routes in process
up to 300000 pairs (2 vCPU, Python 3.11.7), found that pair count separates
them poorly: the kernel was faster on some inputs up to 4096 pairs (36x on
`latin:4`, 48 pairs, where F needs many rounds; 2x on K4 x K5, 4032 pairs,
20 positions on either route) and the lazy route on some from 384 pairs up
(3.4x on C9's 680) and on every input above 4096 (10x on C11's 7161).

Point checks on one given set go through `_determines` (behind
`is_determining`, `is_critical` and the fair-puzzle certificate), which
needs no enumeration and so also runs on order-3 boards and on the large
gadget graphs.  Because the coloring extends its own restriction,
propagation from the set can only fix each vertex to its own color, so it
first closes the set on color-class bitsets: a round fixes every free
vertex of color c whose fixed neighbors show the other k-1 colors, with
O(k) mask operations.  When the closure is all of V the set determines;
otherwise `_free_count` counts the extensions onto what is left, capped
at 2, with every other vertex keeping its own color.
Dropping one vertex v from a set already known to determine the coloring
goes through `_still_determines`, which counts on v's free region alone:
the minimality loop of `is_critical` and every step of
`prune_to_critical` hold that precondition, so a certificate on a gadget
graph costs about linear time instead of one whole-graph count per
vertex.  When every neighbor of v is fixed it needs no count: v is
forced iff they show the other k-1 colors, one AND per color class.
Otherwise the region grows by one row OR per vertex, and `_free_count`
runs on it; v itself is free there, or every drop would look safe.  Both
checks need a proper coloring, so every point check rejects an improper
one.  The vertices in every determining set need no count at all: they
are the vertices that are not colorful (`forced_vertices`).

Everything decomposes over connected components: a set determines a
coloring iff its trace on every component does, so the four parameters of
a disconnected graph are sums of per-component extremes.  Palette size is
the whole graph's, since components may not use all colors.  The size
rule is `coloring.check_search`'s; point checks have none.

In `four_params` the extremes run once per Aut x S_k orbit of colorings,
not once per palette orbit: an automorphism s maps the critical sets of c
to critical sets of c o s^-1 of the same sizes, so a whole orbit shares
scs and lcs.  Either route runs on the earliest member of each orbit in
`canonical_colorings` order (`coloring._orbit_leaders`, on the generators
from `graphs.automorphism_generators`); the kernel still compares it with
every palette-orbit representative.  That search pays only where orbits
are large or many: a component whose T palette orbits and n vertices give
T x 2^n <= `LATTICE_BUDGET` skips it and runs the kernel on all T
colorings, each unordered pair of them worked once (`_agreements`).  On
the <= 7 atlas that is 1480 of 1610 components; every component above 10
vertices, and `sudoku:2`, keeps the search.  The witnesses do not move:
`min` and `max` keep the first coloring that attains an extreme, and that
coloring is the earliest of its orbit, so it is among those searched,
with its own least set, on either side of the budget.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, compress
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .coloring import (
    Coloring,
    _class_masks,
    _count,
    _orbit_leaders,
    canonical_colorings,
    check_search,
    chromatic_number,
    colorful_vertices,
)
from .errors import InternalError, InvalidParameterError
from .graphs import Graph, VertexSet, bits, connected_components, induced_subgraph, mask_of, reach

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
    proper extension.  When `_free_count` runs, the difference masks of the
    extensions it finds go to `found`.

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
    `_free_count` goes on from the vertices still free, capped at 2; that
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
    return _free_count(g, coloring, free, found) == 1


def _still_determines(g: Graph, coloring: Coloring, subset: VertexSet, v: int) -> bool:
    """For a `subset` that determines the coloring: whether subset - {v}
    still does.

    Only the free region around v can gain a second extension: every free
    component of `subset` that v does not touch keeps the unique extension
    it already had.  When every neighbor of v is fixed, the region is v
    alone, which is forced exactly when its neighbors show the other k-1
    colors.  Otherwise the region grows on bitsets, one row OR per vertex,
    and `_free_count` runs on it alone.
    """
    row = g.adj[v]
    if not row & ~subset:
        return sum(1 for cls in coloring.class_masks if row & cls) == coloring.k - 1
    return _free_count(g, coloring, reach(g, 1 << v, ~subset)) == 1


def _free_count(g: Graph, coloring: Coloring, free: VertexSet, found: list | None = None) -> int:
    """The proper extensions onto the vertices of `free` of the coloring on
    all others, counted up to 2 by `_count` on the subgraph induced on
    `free`, each vertex allowed the palette minus the colors of its
    neighbors outside `free`.  Each extension found goes to `found` as its
    difference mask with the coloring."""
    adj = g.adj
    colors = coloring.colors
    fixed = [cls & ~free for cls in coloring.class_masks]
    verts = bits(free)
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
        local.append([index[w] for w in bits(row & free)])
        allowed.append(dom)
    queue = [i for i, dom in enumerate(allowed) if not dom & (dom - 1)]
    exts = None if found is None else []
    total = _count(local, allowed, bytearray(len(verts)), queue, 2, exts)
    if exts:
        found.extend(mask_of(u for u, b in zip(verts, ext) if b != 1 << colors[u]) for ext in exts)
    return total


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


def _agreements(owns: Sequence[int], reps: Sequence[tuple[int, ...]], k: int, n: int) -> Iterator[int]:
    """For each coloring c of `reps` that `owns` indexes, a 2^n-bit integer
    with a 1 at the lattice index of agreement sets {v : c(v) == c'(v)} of
    c with proper k-colorings c' != c: of every maximal one, and of no set
    that is not one.

    The lattice indexes a vertex set by its n bits reversed (vertex v at
    bit n-1-v), so that of two sets of one size, the higher index holds
    the lowest vertex of their symmetric difference.

    `reps` holds one coloring per palette orbit.  With own and rep the color
    classes of c and of a representative, the relabelled representative
    agrees with c on the cells own[a] & rep[b] of a matching of colors, so
    the largest agreements come from the maximal matchings of the non-empty
    cells.  c's own relabellings agree with it off own[a] | own[b] for a
    swap, or on a subset of that.

    Agreement is symmetric: {v : c(v) == p(c'(v))} is the same set seen
    from c' under the inverse of p, and the cells of (c', c) are those of
    (c, c') transposed, with the same maximal matchings.  So a pair of two
    owners is worked once, by the earlier owner, and its sets go to both;
    the pair of an owner with itself holds only the identity matching, the
    all-agree set, and is skipped.  Owners' sets wait in memory until their
    turn.

    The matchings depend only on k and the occupied cells, so they live in
    the process-wide `_MATCHINGS` table: an atlas scan meets a few thousand
    patterns across tens of thousands of own x rep pairs, and their
    matchings hold a few hundred distinct tuples, which are interned.
    """
    full = (1 << n) - 1
    matchings = _MATCHINGS.setdefault(k, {})
    owner = [-1] * len(reps)  # per rep: the owner that is it, if any
    for i, j in enumerate(owns):
        owner[j] = i
    reps = [_class_masks(rep[::-1], k) for rep in reps]
    pending = [set() for _ in owns]  # sets that earlier owners' pairs found
    for i, j in enumerate(owns):
        own = reps[j]
        agrees = pending[i]
        pending[i] = None  # else every owner's sets stay alive to the end
        agrees.update(full ^ (own[a] | own[b]) for a in range(k) for b in range(a + 1, k))
        for rep, other in zip(reps, owner):
            if 0 <= other <= i:
                continue  # worked by owner `other`, or the pair of c with itself
            theirs = agrees if other < 0 else pending[other]
            cell = [ca & rb for ca in own for rb in rep]
            occupied = 0
            for e, m in enumerate(cell):
                if m:
                    occupied |= 1 << e
            found = matchings.get(occupied)
            if found is None:
                found = matchings[occupied] = tuple(
                    _INTERNED.setdefault(m, m) for m in _maximal_matchings(k, occupied))
            for matching in found:
                agree = 0
                for e in matching:
                    agree |= cell[e]
                agrees.add(agree)
                theirs.add(agree)
        agrees.discard(full)  # c itself
        lattice = 0
        for agree in agrees:
            lattice |= 1 << agree
        yield lattice


# positions of the largest lattice table kept (`_lattice_tables`, about 0.3
# MB), and of the slices `_lattice_extremes` reads a larger lattice in
_SLICE = 16


@cache
def _lattice_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """As 2^n-bit integers, for n <= `_SLICE`: per lattice position p, the
    sets holding p; per size s, the sets of size s."""
    holds, layers = [], [1]
    for p in range(n):  # a set skips position p, or holds it at index + 2^p
        half = 1 << p
        holds = [h | h << half for h in holds] + [((1 << half) - 1) << half]
        layers = [a | b << half for a, b in zip(layers + [0], [0] + layers)]
    return tuple(holds), tuple(layers)


def _holding(n: int) -> Iterator[int]:
    """Per lattice position p, the 2^n-bit integer of the sets holding p,
    for n above `_SLICE`: each built as it is read, a block of 2^p sets
    without p, then 2^p with it, doubled up to 2^n bits, so that no table
    of that size is kept."""
    for p in range(n):
        holding = ((1 << (1 << p)) - 1) << (1 << p)
        for q in range(p + 1, n):
            holding |= holding << (1 << q)
        yield holding


def _undetermined(agree: int, n: int) -> int:
    """The down-closure of the lattice integer `agree`: the sets inside some
    agreement set, which are the sets that do not determine c."""
    for p, holding in enumerate(_lattice_tables(n)[0] if n <= _SLICE else _holding(n)):
        agree |= (agree & holding) >> (1 << p)
    return agree


def _critical_sets(agree: int, n: int) -> int:
    """The critical sets of the agreement lattice `agree` over n positions:
    the minimal members of the determining sets, which lie outside its
    down-closure and form an up-closed family.  Shifting that family by 2^p
    moves each set S without position p onto S + {p}; kept where p is held,
    these are the sets that are not minimal because of p."""
    determining = ((1 << (1 << n)) - 1) ^ _undetermined(agree, n)
    above = 0
    for p, holding in enumerate(_lattice_tables(n)[0] if n <= _SLICE else _holding(n)):
        above |= (determining << (1 << p)) & holding
    return determining ^ above


def _lattice_extremes(critical: int, n: int):
    """(scs, scs set, lcs, lcs set) over the sets of the lattice integer
    `critical` over n positions, which holds at least one; the sets are
    plain masks, position v at bit v, not lattice indices.

    The lattice is read in slices of 2^m bits, m = min(n, `_SLICE`),
    against the m-position layer table: slice j holds the sets whose
    positions from m up are the bits of j, so its layer s - |j| holds the
    sets of size s.  Per slice, one scan goes up from the smallest layer
    and stops at the first non-empty one, and one goes down from the
    largest the same way; no other layer is read.  The highest index in a
    layer is its lexicographically least set.  Slices come highest j
    first, so on a size tie the set found first has the higher index, and
    it is kept.  Each slice is cut out whole: reading the shifted lattice
    instead left copies of up to 2^20 bits, which raised the peak RSS of
    `params` on K4 x K5 by 1.6 MB on some runs (2 of 16 source-path
    lengths, 2 vCPU, Python 3.11.7).

    Two other cuts of the kernel were measured and dropped (2 vCPU, Python
    3.11.7): marking the agreement bits of `_agreements` with
    `sum(map((1).__lshift__, agrees))` is 5x slower than its `|=` loop at
    16 positions (62.5 against 13.3 us for 60 marks) and raised `sudoku mnc
    --no-symmetry` from 0.15-0.17 to 0.19-0.22 s normalised; packing the
    k^2 cells of an own x rep pair into one integer AND (SWAR) gained
    nothing measurable on top of this read."""
    m = min(n, _SLICE)
    window = (1 << (1 << m)) - 1
    layers = _lattice_tables(m)[1]
    low, high = n + 1, -1  # the sizes of the sets kept so far
    for j in range((1 << n - m) - 1, -1, -1):
        part = critical >> (j << m) & window
        held = j.bit_count()
        sizes = range(held, held + m + 1)
        for s in sizes:
            if h := (part & layers[s - held]).bit_length():
                if s < low:
                    low, scs = s, j << m | h - 1
                break
        for s in reversed(sizes):
            if h := (part & layers[s - held]).bit_length():
                if s > high:
                    high, lcs = s, j << m | h - 1
                break
    # a lattice index is a mask's n bits reversed
    return (low, int(bin(scs)[:1:-1], 2) << n - scs.bit_length(),
            high, int(bin(lcs)[:1:-1], 2) << n - lcs.bit_length())


def _lazy_extremes(g: Graph, coloring: Coloring):
    """(scs, scs set, lcs, lcs set) over the minimal transversals of the
    minimal difference masks M of `coloring` c, from a family F of
    difference masks grown lazily, on a lattice with one position per
    colorful vertex.

    A vertex that is not colorful is a mask of M on its own, so the masks of
    M are these singletons, which make up `forced_vertices`, and the masks
    that lie inside colorful(c): Tr(M) is forced(c) plus the minimal
    transversals of the latter.  `coloring.check_search` caps c's colorful
    vertices, before any lattice.  F starts with the Kempe chains that miss
    forced(c): swapping colors a and b on one component of the subgraph on
    classes a and b gives another proper coloring that differs exactly
    there.  Such a chain holds both colors on colorful vertices, so only
    pairs of colors held there are searched.  Each mask marks the lattice
    bit of its complement in colorful(c), and Tr(F) is read off the lattice
    as its critical sets, one integer walked as one index range.  While
    some T in Tr(F) does not determine c with forced(c) added, the count
    behind `_determines` stops at two extensions and reports their
    difference masks, and F gains the one that is not empty: that extension
    agrees with c on T and on forced(c), so its mask lies inside
    colorful(c) and T misses it.  A round lists Tr(F) once: a member that
    misses a mask added in the round has left Tr(F), and one that hits them
    all is still in it (its private masks stay), so only those are
    checked.  Sets checked stay checked.  The round that adds no mask lists
    Tr(F) = Tr(M), so the extremes are read off that round's critical sets,
    with no second closure of the lattice.

    No mask of F need be minimal.  Each contains one of M, so every
    transversal of M is one of F.  Once every T in Tr(F) determines c,
    each T hits all of M, and so does every transversal of F, which
    contains some T.  So the two families of transversals are equal,
    Tr(F) = Tr(M), with the same least witnesses: forced(c) is in every
    set, and the positions keep vertex order.
    """
    n = g.n
    classes = coloring.class_masks
    colorful = colorful_vertices(g, coloring)
    forced = ((1 << n) - 1) ^ colorful
    verts = bits(colorful)
    r = len(verts)
    check_search(r, "colorful vertices per component")
    spots = verts[::-1]  # lattice position p holds vertex spots[p]
    everywhere = (1 << r) - 1
    agree = 0  # the lattice bit of the positions outside each mask of F
    for a, b in combinations(sorted({coloring.colors[v] for v in verts}), 2):
        for chain in connected_components(g, classes[a] | classes[b]):
            if not chain & forced:
                agree |= 1 << sum(1 << p for p, v in enumerate(spots) if not chain >> v & 1)
    checked: set[int] = set()
    while True:
        added = []  # masks found this round, as positions
        critical = _critical_sets(agree, r)
        for t in compress(range(1 << r), _flags(critical, 1 << r)):
            if t in checked or not all(t & m for m in added):
                continue  # checked, or gone from Tr(F) with a mask added
            diffs: list = []
            if _determines(g, coloring, forced | mask_of(spots[p] for p in bits(t)), diffs):
                checked.add(t)
                continue
            # the count stopped at two extensions, so one mask is not empty
            m = max(sum(1 << p for p, v in enumerate(spots) if d >> v & 1) for d in diffs)
            added.append(m)
            agree |= 1 << (everywhere ^ m)
        if not added:
            low, scs, high, lcs = _lattice_extremes(critical, r)
            scs, lcs = (forced | mask_of(verts[i] for i in bits(s)) for s in (scs, lcs))
            return low + n - r, scs, high + n - r, lcs


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
# this the lazy route runs (the sweep in the module docstring: no input
# above it ran faster on the kernel)
LAZY_PAIRS = 4096
# most palette orbits x lattice positions (T x 2^n) of a component that
# skips the orbit search and owns all T colorings, pairs shared.  A sweep
# over the 1610 components of the <= 7 atlas at chi (`_component_extremes`
# in process, best of 20, three rounds, 2 vCPU, Python 3.11.7) read
# 0.24-0.28 s at 0 (always search), 0.23-0.27 at 320, 0.22-0.24 at 640,
# 0.20-0.23 at 1280, 0.23-0.25 at 2560 and 5120, 0.22-0.26 with no limit
LATTICE_BUDGET = 1280


def _component_extremes(g: Graph, k: int, comps: list[VertexSet]):
    """Per connected component in `comps`: its vertices, and (colors, scs,
    scs set, lcs, lcs set) for the earliest palette-orbit representative of
    each Aut x S_k orbit of its proper k-colorings.  Colors and sets are in
    the component's own indices.

    A component within `LATTICE_BUDGET` gets a row for every palette-orbit
    representative instead, with no automorphism search: its lattices are
    small, so the shared pairs of `_agreements` cost less than the search.
    Each orbit's rows are equal in value, and the earliest is its leader.

    A component with k >= Delta + 2 needs no enumeration: no vertex there
    is colorful, so V is the only critical set of every coloring, and its
    one row holds the first palette-orbit coloring."""
    for comp in comps:
        sub, verts = induced_subgraph(g, comp)
        if k >= max(map(len, sub.neighbor_lists)) + 2:
            everything = (1 << sub.n) - 1
            yield verts, [(next(canonical_colorings(sub, k)), sub.n, everything, sub.n, everything)]
            continue
        tuples = list(canonical_colorings(sub, k))
        if len(tuples) << sub.n <= LATTICE_BUDGET:
            owns = range(len(tuples))
        else:
            owns = _orbit_leaders(sub, tuples)
        if len(owns) * len(tuples) > LAZY_PAIRS:
            rows = [(tuples[j], *_lazy_extremes(sub, Coloring(tuples[j], k))) for j in owns]
        else:
            lattices = _agreements(owns, tuples, k, sub.n)
            rows = [(tuples[j], *_lattice_extremes(_critical_sets(a, sub.n), sub.n))
                    for j, a in zip(owns, lattices)]
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
    """Smallest and largest critical-set sizes for one fixed coloring, with
    least witnesses, from the lazy route on each component's restriction."""
    _check_proper(g, coloring)
    chosen = []
    for comp in connected_components(g):
        sub, verts = induced_subgraph(g, comp)
        part = Coloring(tuple(coloring.colors[v] for v in verts), coloring.k)
        chosen.append((verts, (part.colors, *_lazy_extremes(sub, part))))
    scs, _, scs_set = _lift(g.n, chosen, _SCS)
    lcs, _, lcs_set = _lift(g.n, chosen, _LCS)
    return ScsLcs(scs, lcs, scs_set, lcs_set)


def four_params(g: Graph, k: int | None = None) -> ParamQuad:
    """Exact (uscs, oscs, ulcs, olcs) with witnesses, over the proper
    colorings into [k] for a given k >= chi(g) (default chi).

    Above chi, colorings need not use every color, so values can differ
    from the k = chi case and the n-1 upper bound need not apply.
    """
    comps = connected_components(g)
    for comp in comps:  # each refused before any search starts
        check_search(comp.bit_count(), "vertices per component")
    chi = chromatic_number(g)
    if k is None:
        k = chi
    elif k < chi:
        raise InvalidParameterError(f"k={k} below chromatic number {chi}")
    components = list(_component_extremes(g, k, comps))
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
