"""Shared builders and dumb oracles for the test suite.

The oracles deliberately avoid the package's search machinery: proper
colorings are counted by checking every assignment against every edge.
"""

from itertools import product

import pytest

from critsets.graphs import Graph, complement, disjoint_union, make_complete, make_empty, make_path


def brute_force_proper_count(g: Graph, k: int) -> int:
    edges = g.edges()
    return sum(
        1
        for assignment in product(range(k), repeat=g.n)
        if all(assignment[u] != assignment[v] for u, v in edges)
    )


def brute_force_four_params(g: Graph, k: int | None = None) -> tuple[int, int, int, int]:
    """(uscs, oscs, ulcs, olcs) over proper k-colorings (default k = chi),
    straight from the definitions.

    Enumerates every proper k-coloring (no orbit quotient), tests
    determining by counting agreeing colorings, and takes inclusion-minimal
    sets as critical.  Exponential everywhere; fine up to 6 vertices at
    chi, and up to 5 at chi + 1.
    """
    edges = g.edges()

    def proper(k):
        return [c for c in product(range(k), repeat=g.n) if all(c[u] != c[v] for u, v in edges)]

    if k is None:
        k = 0
        while not (colorings := proper(k)) and g.n:
            k += 1
    else:
        colorings = proper(k)

    def determining(c):
        # per subset S (as a bitmask): c is the only coloring agreeing with
        # c on S, i.e. every other coloring differs from c somewhere in S
        agree = {sum(1 << v for v in range(g.n) if d[v] == c[v]) for d in colorings if d != c}
        return [all(s & ~a for a in agree) for s in range(1 << g.n)]

    scs_values, lcs_values = [], []
    for c in colorings or [()]:
        det = determining(c)
        sizes = [
            s.bit_count()
            for s in range(1 << g.n)
            if det[s] and not any(det[s ^ 1 << v] for v in range(g.n) if s >> v & 1)
        ]
        scs_values.append(min(sizes))
        lcs_values.append(max(sizes))
    return (min(scs_values), max(scs_values), min(lcs_values), max(lcs_values))


def is_automorphism(g: Graph, perm) -> bool:
    """Whether perm (the tuple of vertex images) is an automorphism of g."""
    return sorted(perm) == list(range(g.n)) and all(
        g.adj[perm[v]] == sum(1 << perm[w] for w in range(g.n) if row >> w & 1)
        for v, row in enumerate(g.adj))


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def cycle_chromatic_poly(n: int, k: int) -> int:
    return (k - 1) ** n + (-1) ** n * (k - 1)


# The one printed group entry that inclusion-minimal criticality refutes:
# the complement of K1 u P3 (the paw) has critical sets of sizes 2 and 3
# for the same coloring, so its true quad is (2, 2, 3, 3), not uniform 2.
# Verified by brute_force_four_params, which uses nothing but definitions.
PAW_NAME = "co_K1uP3"
PAW_TRUE_QUAD = (2, 2, 3, 3)

# the 11 entries named as single standard graphs (no union/complement)
PLAIN_NAMED = ("K1", "2K1", "3K1", "4K1", "K2", "P3", "K13", "P4", "C4", "K3", "K4")


@pytest.fixture(scope="session")
def four_vertex_table():
    """The printed parameter groups for every class on at most 4 vertices."""
    k1 = make_complete(1)
    k2 = make_complete(2)
    k3 = make_complete(3)
    p3 = make_path(3)
    return {
        "K1": (k1, 0),
        "2K1": (make_empty(2), 0),
        "3K1": (make_empty(3), 0),
        "4K1": (make_empty(4), 0),
        "K2": (k2, 1),
        "P3": (p3, 1),
        "K13": (star(3), 1),
        "P4": (make_path(4), 1),
        "C4": (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 1),
        "K1uK2": (disjoint_union(make_empty(1), k2), 2),
        "K3": (k3, 2),
        "2K2": (disjoint_union(k2, k2), 2),
        "K1uP3": (disjoint_union(make_empty(1), p3), 2),
        "co_K1uP3": (complement(disjoint_union(make_empty(1), p3)), 2),
        "co_2K1uK2": (complement(disjoint_union(make_empty(2), k2)), 2),
        "2K1uK2": (disjoint_union(make_empty(2), k2), 3),
        "K1uK3": (disjoint_union(make_empty(1), k3), 3),
        "K4": (make_complete(4), 3),
    }
