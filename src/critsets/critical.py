"""Determining and critical sets, per-coloring extremes, and the four
extremal parameters.

A subset S determines a coloring c when c restricted to S has exactly one
proper extension; criticality is inclusion-minimality of that property.
Equivalently, S meets every difference mask {v : c(v) != c'(v)} over the
other proper colorings c' (Sudoku's "unavoidable sets"), and S is critical
iff moreover each of its vertices has a private mask that S meets nowhere
else: the critical sets of c are the minimal transversals of its minimal
difference masks.  The mask kernel (`_difference_masks`, then the walk in
`_transversal_extremes`) gives the extremes for `scs_lcs_for_coloring`,
`four_params` and `sudoku.mnc_exhaustive`.  Point checks on one given set
(`is_determining`, `is_critical`, fair-puzzle and reduction certificates)
use the propagation counter `_count` instead, which needs no enumeration
and so also runs on order-3 boards and on the large gadget graphs.

Everything decomposes over connected components: a set determines a
coloring iff its trace on every component does, so the four parameters of
a disconnected graph are sums of per-component extremes.  Palette size is
the whole graph's, since components may not use all colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .coloring import (
    DEFAULT_MAX_VERTICES,
    Coloring,
    _count,
    _neighbor_lists,
    canonical_colorings,
    chromatic_number,
)
from .errors import InternalError, InvalidParameterError, SizeLimitError
from .graphs import Graph, VertexSet, bits, connected_components, induced_subgraph

PARAM_NAMES = ("uscs", "oscs", "ulcs", "olcs")


@dataclass(frozen=True)
class ParamQuad:
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


@dataclass(frozen=True)
class CriticalCertificate:
    coloring: Coloring
    subset: VertexSet
    determining: bool
    minimal: bool


@dataclass(frozen=True)
class ScsLcs:
    scs: int
    lcs: int
    scs_witness: VertexSet
    lcs_witness: VertexSet


def _extensions_capped(nbrs, colors, k: int, subset: VertexSet, cap: int = 2) -> int:
    full = (1 << k) - 1
    allowed = []
    queue = []
    for v in range(len(nbrs)):
        if subset >> v & 1:
            allowed.append(1 << colors[v])
            queue.append(v)
        else:
            allowed.append(full)
    return _count(nbrs, allowed, 0, queue, cap)


def is_determining(g: Graph, coloring: Coloring, subset: VertexSet) -> bool:
    """True iff the coloring restricted to `subset` extends uniquely."""
    if subset >> g.n:
        raise InvalidParameterError("subset has bits beyond vertex range")
    nbrs = _neighbor_lists(g)
    return _extensions_capped(nbrs, coloring.colors, coloring.k, subset) == 1


def is_critical(g: Graph, coloring: Coloring, subset: VertexSet) -> CriticalCertificate:
    """Determining plus minimality flags for (g, coloring, subset)."""
    nbrs = _neighbor_lists(g)
    det = _extensions_capped(nbrs, coloring.colors, coloring.k, subset) == 1
    minimal = det and all(
        _extensions_capped(nbrs, coloring.colors, coloring.k, subset ^ (1 << v)) != 1
        for v in bits(subset)
    )
    return CriticalCertificate(coloring, subset, det, minimal)


def _class_masks(colors, k: int) -> list[int]:
    """Vertex mask of each color class; unused colors get an empty class."""
    classes = [0] * k
    for v, c in enumerate(colors):
        classes[c] |= 1 << v
    return classes


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
    owns: Iterable[list[int]], reps: list[list[int]], n: int
) -> Iterator[list[int]]:
    """For each coloring c in `owns` (as color classes), its minimal
    difference masks against every other proper k-coloring of the graph.

    `reps` holds the color classes of one coloring per palette orbit.  A
    relabelled representative agrees with c on the cells own[a] & rep[b] of
    a matching of colors, so the largest agreements come from the maximal
    matchings of the non-empty cells.  c's own relabellings differ from it
    on own[a] | own[b] for a swap, or on a superset of such a union.
    """
    full = (1 << n) - 1
    matchings: dict[int, tuple[tuple[int, ...], ...]] = {}
    for own in owns:
        k = len(own)
        masks = {own[a] | own[b] for a in range(k) for b in range(a + 1, k)}
        for rep in reps:
            cell = [ca & rb for ca in own for rb in rep]
            occupied = 0
            for i, m in enumerate(cell):
                if m:
                    occupied |= 1 << i
            if occupied not in matchings:
                matchings[occupied] = _maximal_matchings(k, occupied)
            for matching in matchings[occupied]:
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


def _transversal_extremes(masks: list[int], n: int, bound: int | None = None):
    """(scs, scs_set, lcs, lcs_set) over the minimal transversals of `masks`
    of size at most `bound` (all when None), or None if there are none.

    Murakami-Uno's MMCS walk visits each minimal transversal once: branch
    on the unhit mask with the fewest candidate vertices, forbid the
    earlier siblings, and cut when a chosen vertex has no private mask
    left.  Witnesses are the lexicographically least at their size.
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
    if not found:
        return None
    scs = min(found, key=lambda m: (m.bit_count(), bits(m)))
    lcs = min(found, key=lambda m: (-m.bit_count(), bits(m)))
    return scs.bit_count(), scs, lcs.bit_count(), lcs


def _check_proper(g: Graph, coloring: Coloring):
    if len(coloring.colors) != g.n:
        raise InvalidParameterError("coloring length must equal vertex count")
    if not coloring.is_proper(g):
        raise InvalidParameterError("coloring is not proper")


def scs_lcs_for_coloring(
    g: Graph, coloring: Coloring, max_vertices: int = DEFAULT_MAX_VERTICES
) -> ScsLcs:
    """Smallest and largest critical-set sizes for one fixed coloring."""
    if g.n > max_vertices:
        raise SizeLimitError(f"exact search capped at {max_vertices} vertices")
    _check_proper(g, coloring)
    scs = lcs = 0
    scs_mask = lcs_mask = 0
    for comp in connected_components(g):
        sub, verts = induced_subgraph(g, comp)
        sub_colors = tuple(coloring.colors[v] for v in verts)
        reps = [_class_masks(r, coloring.k) for r in canonical_colorings(sub, coloring.k)]
        masks = next(_difference_masks([_class_masks(sub_colors, coloring.k)], reps, sub.n))
        s, s_set, l, l_set = _transversal_extremes(masks, sub.n)
        scs += s
        lcs += l
        for i in bits(s_set):
            scs_mask |= 1 << verts[i]
        for i in bits(l_set):
            lcs_mask |= 1 << verts[i]
    return ScsLcs(scs, lcs, scs_mask, lcs_mask)


def _four_params_engine(g: Graph, k: int, max_vertices: int, at_chi: bool) -> ParamQuad:
    if g.n > max_vertices:
        raise SizeLimitError(f"exact search capped at {max_vertices} vertices")
    if g.n == 0:
        empty = Coloring((), 0)
        return ParamQuad(0, 0, 0, 0, {name: (empty, 0) for name in PARAM_NAMES})

    # per component and parameter: (value, coloring tuple, witness mask)
    per_component = []
    for comp in connected_components(g):
        sub, verts = induced_subgraph(g, comp)
        tuples = list(canonical_colorings(sub, k))
        reps = [_class_masks(tup, k) for tup in tuples]
        ext: dict[str, tuple[int, tuple[int, ...], int]] = {}
        for tup, masks in zip(tuples, _difference_masks(reps, reps, sub.n)):
            scs, scs_set, lcs, lcs_set = _transversal_extremes(masks, sub.n)
            for name, value, mask, better in (
                ("uscs", scs, scs_set, lambda a, b: a < b),
                ("oscs", scs, scs_set, lambda a, b: a > b),
                ("ulcs", lcs, lcs_set, lambda a, b: a < b),
                ("olcs", lcs, lcs_set, lambda a, b: a > b),
            ):
                if name not in ext or better(value, ext[name][0]):
                    ext[name] = (value, tup, mask)
        if not ext:
            raise InternalError(f"component admits no proper {k}-coloring")
        per_component.append((verts, ext))

    values = {}
    witnesses = {}
    for name in PARAM_NAMES:
        total = 0
        colors = [0] * g.n
        mask = 0
        for verts, ext in per_component:
            value, tup, sub_mask = ext[name]
            total += value
            for i, v in enumerate(verts):
                colors[v] = tup[i]
            for i in bits(sub_mask):
                mask |= 1 << verts[i]
        values[name] = total
        witnesses[name] = (Coloring(tuple(colors), k), mask)

    quad = ParamQuad(values["uscs"], values["oscs"], values["ulcs"], values["olcs"], witnesses)
    if not (quad.uscs <= quad.oscs <= quad.olcs and quad.uscs <= quad.ulcs <= quad.olcs):
        raise InternalError(f"parameter ordering violated: {quad.values()}")
    if at_chi and g.n >= 1 and quad.olcs > g.n - 1:
        raise InternalError(f"critical set of size {quad.olcs} exceeds n-1")
    return quad


def four_params(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> ParamQuad:
    """Exact (uscs, oscs, ulcs, olcs) over optimal colorings, with witnesses."""
    k = chromatic_number(g, max_vertices)
    return _four_params_engine(g, k, max_vertices, at_chi=True)


def four_params_k(g: Graph, k: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> ParamQuad:
    """Same extremes over all proper colorings into [k], k >= chi(g).

    Colorings need not use every color, so values can differ from (and the
    n-1 upper bound need not apply beyond) the k = chi case.
    """
    chi = chromatic_number(g, max_vertices)
    if k < chi:
        raise InvalidParameterError(f"k={k} below chromatic number {chi}")
    return _four_params_engine(g, k, max_vertices, at_chi=(k == chi))
