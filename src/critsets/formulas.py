"""Closed-form parameter values for cycles, bipartite graphs, and uniquely
colorable graphs, plus the explicit witness constructions for odd cycles.

These are evaluated from formulas and direct constructions, never by
calling the exact search engine, so the two sides can cross-check each
other in tests.
"""

from __future__ import annotations

import itertools

from .coloring import Coloring, chromatic_number, enumerate_optimal_colorings, is_uniquely_colorable
from .critical import PARAM_NAMES, ParamQuad, is_critical
from .errors import InternalError, InvalidParameterError
from .graphs import Graph, VertexSet, bits, bipartition, connected_components, make_cycle, mask_of


def cycle_params(n: int) -> ParamQuad:
    """The four parameters of the n-cycle.

    Even cycles are connected bipartite, so every critical set is a single
    vertex.  Odd cycles follow the closed forms, except n = 3: the
    triangle is uniquely colorable and all four values are 2 (the general
    odd formulas only apply from n = 5 up).
    """
    if n < 3:
        raise InvalidParameterError("cycles need at least 3 vertices")
    if n % 2 == 0:
        return ParamQuad(1, 1, 1, 1)
    if n == 3:
        return ParamQuad(2, 2, 2, 2)
    ulcs = (n + 3) // 2 if n % 4 == 1 else (n + 1) // 2
    return ParamQuad((n + 1) // 2, n - 2, ulcs, n - 1)


def bipartite_params(g: Graph) -> ParamQuad:
    """All four parameters of a bipartite graph equal its component count;
    edgeless graphs need no clues at all, so their parameters are 0."""
    sides = bipartition(g)
    if sides is None:
        raise InvalidParameterError("graph is not bipartite")
    if g.m == 0:
        coloring = Coloring((0,) * g.n, 1 if g.n else 0)
        return ParamQuad(0, 0, 0, 0, {p: (coloring, 0) for p in PARAM_NAMES})
    comps = connected_components(g)
    k = len(comps)
    side0 = sides[0]
    colors = tuple(0 if side0 >> v & 1 else 1 for v in range(g.n))
    witness_set = mask_of(bits(comp)[0] for comp in comps)
    witness = (Coloring(colors, 2), witness_set)
    return ParamQuad(k, k, k, k, {p: witness for p in PARAM_NAMES})


def uniquely_colorable_params(g: Graph) -> ParamQuad:
    """All four parameters of a uniquely colorable graph equal chi - 1.

    Witness: pin one vertex of every color class but the last; the unique
    partition forces the rest.
    """
    if g.n == 0:
        return ParamQuad(0, 0, 0, 0, {p: (Coloring((), 0), 0) for p in PARAM_NAMES})
    if not is_uniquely_colorable(g):
        raise InvalidParameterError("graph is not uniquely colorable")
    coloring = next(iter(enumerate_optimal_colorings(g)))
    chi = coloring.k
    picked = 0
    seen = set()
    for v, c in enumerate(coloring.colors):
        if c < chi - 1 and c not in seen:
            seen.add(c)
            picked |= 1 << v
    witness = (coloring, picked)
    return ParamQuad(chi - 1, chi - 1, chi - 1, chi - 1, {p: witness for p in PARAM_NAMES})


def _cycle_coloring_for_smallest(n: int) -> tuple[tuple[int, ...], VertexSet]:
    """Witness coloring and determining set of size (n+1)/2, by n mod 3."""
    if n % 3 == 0:
        colors = tuple(j % 3 for j in range(n))
        subset = mask_of(range(0, n, 2))
    elif n % 3 == 1:
        colors = tuple(j % 3 for j in range(n - 1)) + (1,)
        subset = mask_of(range(0, n - 2, 2)) | 1 << (n - 2)
    else:
        colors = tuple(j % 3 for j in range(n))
        subset = mask_of(range(0, n, 2))
    return colors, subset


def _cycle_coloring_for_largest(n: int) -> tuple[tuple[int, ...], VertexSet]:
    """Alternating 0/1 with one 2 at the end; all but the 2-vertex determine."""
    colors = tuple(i % 2 for i in range(n - 1)) + (2,)
    return colors, ((1 << n) - 1) ^ (1 << (n - 1))


def _cycle_coloring_min_lcs(n: int) -> tuple[int, ...]:
    colors = []
    for i in range(n - 1):
        if i % 2 == 0:
            colors.append(0)
        elif i % 4 == 1:
            colors.append(1)
        else:
            colors.append(2)
    colors.append(3 - colors[n - 2])
    return tuple(colors)


def proof_coloring_cycle(n: int, which: str) -> tuple[Coloring, VertexSet]:
    """The odd-cycle witness (coloring, critical set) behind each formula.

    `which` selects the parameter: "uscs" and "olcs" return the explicit
    constructions; "ulcs" returns the mod-4 coloring whose largest critical
    set has the formula's size, completing the forced odd-index skeleton by
    a certified search over the four boundary vertices.
    """
    if n < 5 or n % 2 == 0:
        raise InvalidParameterError("proof colorings are defined for odd n >= 5")
    g = make_cycle(n)
    if which == "uscs":
        colors, subset = _cycle_coloring_for_smallest(n)
        return Coloring(colors, 3), subset
    if which == "olcs":
        colors, subset = _cycle_coloring_for_largest(n)
        return Coloring(colors, 3), subset
    if which == "ulcs":
        coloring = Coloring(_cycle_coloring_min_lcs(n), 3)
        skeleton = mask_of(range(1, n - 3, 2))
        pool = sorted((0, n - 3, n - 2, n - 1))
        want = 3 if n % 4 == 1 else 2
        for extra in itertools.combinations(pool, want):
            subset = skeleton | mask_of(extra)
            if is_critical(g, coloring, subset).minimal:
                return coloring, subset
        raise InternalError(f"no boundary completion found for n={n}")
    raise InvalidParameterError(f"unknown parameter {which!r}")
