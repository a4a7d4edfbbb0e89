import itertools
import pickle
import random

import networkx as nx
import pytest

from conftest import is_automorphism
from critsets.coloring import Coloring, _orbit_leaders, canonical_colorings
from critsets.critical import ParamQuad
from critsets.errors import Graph6Error, InvalidParameterError, SizeLimitError
from critsets.graphs import (
    Graph,
    _augmentation_roots,
    add_pendant_to_each,
    atlas_graphs,
    automorphism_generators,
    bipartition,
    bits,
    canonical_form,
    cartesian_product,
    complement,
    connected_components,
    disjoint_union,
    edge_union,
    emit_graph6,
    enumerate_graphs,
    induced_subgraph,
    is_bipartite,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
    mask_of,
    parse_graph6,
    strong_product,
)
from critsets.reductions import reduce_olcs, reduce_ulcs, verify_reduction_small
from critsets.scan import record_for_graph
from critsets.sudoku import sudoku_graph


def test_cycle_constructor():
    assert make_cycle(3).m == 3
    assert is_bipartite(make_cycle(4))
    c5 = make_cycle(5)
    assert c5.m == 5 and not is_bipartite(c5)
    with pytest.raises(InvalidParameterError):
        make_cycle(2)


def test_basic_constructors():
    assert make_complete(4).m == 6
    assert make_path(4).m == 3
    assert make_empty(3).m == 0
    assert make_complete(0).n == 0


def test_validation_rejects_broken_adjacency():
    with pytest.raises(InvalidParameterError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(InvalidParameterError):
        Graph(1, (0b1,))  # loop
    with pytest.raises(InvalidParameterError):
        Graph(1, (0b10,))  # out of range


def test_union_complement_pendant():
    g = add_pendant_to_each(make_complete(3))
    assert (g.n, g.m) == (6, 6)
    assert complement(make_empty(3)) == make_complete(3)
    u = disjoint_union(make_complete(1), make_complete(3))
    assert (u.n, u.m) == (4, 3)
    assert len(connected_components(u)) == 2
    for g in enumerate_graphs(5):
        assert complement(complement(g)) == g
        parts = sum(len(connected_components(h)) for h in (g, g))
        assert len(connected_components(disjoint_union(g, g))) == parts


def test_products():
    k2 = make_complete(2)
    square = cartesian_product(k2, k2)
    assert (square.n, square.m) == (4, 4)
    assert canonical_form(square) == canonical_form(make_cycle(4))
    assert canonical_form(strong_product(k2, k2)) == canonical_form(make_complete(4))
    rook = cartesian_product(make_complete(3), make_complete(3))
    assert rook.n == 9 and rook.m == 18
    assert all(rook.degree(v) == 4 for v in range(9))


def test_edge_union():
    g = make_cycle(5)
    assert edge_union(g, g) == g
    assert edge_union(g, make_empty(5)) == g
    a = Graph.from_edges(3, [(0, 1)])
    b = Graph.from_edges(3, [(1, 2)])
    assert edge_union(a, b) == make_path(3)
    with pytest.raises(InvalidParameterError):
        edge_union(make_cycle(3), make_cycle(4))


def test_graph6_round_trip_families():
    graphs = [make_empty(0), make_complete(1), make_path(2)]
    graphs += [make_cycle(n) for n in range(3, 21)]
    graphs += [make_complete(n) for n in range(2, 15)]
    rng = random.Random(11)
    for n in (10, 17, 20):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        graphs.append(Graph.from_edges(n, edges))
    for g in graphs:
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_known_encodings():
    assert emit_graph6(make_complete(1)) == "@"
    assert emit_graph6(make_empty(0)) == "?"
    # cross-check against networkx for a spread of graphs
    rng = random.Random(23)
    samples = [make_cycle(6), make_complete(5), make_path(9), make_empty(4)]
    for n in (8, 12):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        samples.append(Graph.from_edges(n, edges))
    for g in samples:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert emit_graph6(g) == theirs
        back = nx.from_graph6_bytes(emit_graph6(g).encode())
        assert back.number_of_nodes() == g.n and back.number_of_edges() == g.m
        assert parse_graph6(theirs) == g


def _emit_graph6_bitwise(g):
    """Reference graph6 emitter: one upper-triangle bit at a time."""
    n = g.n
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    buf = []
    acc = filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = acc << 1 | (g.adj[j] >> i & 1)
            filled += 1
            if filled == 6:
                buf.append(chr(63 + acc))
                acc = filled = 0
    if filled:
        buf.append(chr(63 + (acc << (6 - filled))))
    return head + "".join(buf)


def test_graph6_emit_matches_bitwise_reference():
    graphs = [g for n in range(8) for g in atlas_graphs(n)]
    rng = random.Random(29)
    # 62-64 straddle the long header; at 49 and 97 the last block of 48
    # columns needs no padding
    for n in (49, 62, 63, 64, 97):
        for p in (0.0, 0.5, 1.0):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            graphs.append(Graph.from_edges(n, edges))
    graphs.append(reduce_olcs(cartesian_product(make_complete(3), make_complete(3))).graph)
    for g in graphs:
        assert emit_graph6(g) == _emit_graph6_bitwise(g), g.n


def test_neighbor_lists_are_cached_rows():
    graphs = [g for n in range(7) for g in atlas_graphs(n)]
    graphs.append(sudoku_graph(3).graph)
    graphs.append(reduce_olcs(cartesian_product(make_complete(3), make_complete(3))).graph)
    for g in graphs:
        key = hash(g)
        copy = Graph(g.n, g.adj)
        lists = g.neighbor_lists
        assert [list(nbrs) for nbrs in lists] == [bits(row) for row in g.adj]
        assert g.neighbor_lists is lists
        assert g.edges() == [(v, w) for v in range(g.n) for w in bits(g.adj[v]) if w > v]
        # the cache is not a field: equality and hashing ignore it
        assert g == copy and hash(g) == key == hash(copy)
        # the path graphs take to scan's worker processes
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == key
        assert back.neighbor_lists == lists


def test_graphs_colorings_and_records_are_values():
    g, col = make_cycle(5), Coloring((0, 1, 0, 1, 2), 3)
    # read-only: no field or new attribute can be set, and no field deleted
    for obj, field in ((g, "n"), (g, "adj"), (col, "colors"), (col, "k")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.extra = 1
    assert (g.n, col.k) == (5, 3) and not hasattr(g, "extra")
    # equal fields: equal values with equal hashes; nothing else is equal
    assert g == Graph(5, g.adj) and hash(g) == hash(Graph(5, g.adj))
    assert col == Coloring((0, 1, 0, 1, 2), 3) and hash(col) == hash(Coloring(col.colors, 3))
    assert g != make_path(5) and g != (g.n, g.adj) and col != Coloring(col.colors, 4)
    assert len({g, Graph(5, g.adj), col, Coloring(col.colors, 3)}) == 2
    # a pickle round trip keeps the value and restores the cache it carried
    for obj, cache in ((g, "neighbor_lists"), (col, "class_masks")):
        built = getattr(obj, cache)
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
        assert vars(back)[cache] == built
    # records pickle too: scan's worker processes send GraphRecords
    for rec in (record_for_graph(make_cycle(5)), verify_reduction_small(make_complete(2), "ulcs")):
        assert pickle.loads(pickle.dumps(rec)) == rec
    assert ParamQuad(1, 1, 1, 1).witnesses is None


def test_graph6_long_form():
    for g in (make_cycle(81), reduce_ulcs(make_complete(8)).graph):
        text = emit_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("D?")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6("D??????")  # trailing characters
    with pytest.raises(Graph6Error) as info:
        parse_graph6("C" + chr(30))
    assert info.value.offset == 1
    # nonzero padding: K1 body must be empty, '@@' adds a spurious group
    with pytest.raises(Graph6Error):
        parse_graph6("@@")
    bad_pad = "B" + chr(63 + 1)  # n=3 needs 3 bits; the low bit is padding
    with pytest.raises(Graph6Error):
        parse_graph6(bad_pad)


def test_canonical_form_collapses_isomorphs(monkeypatch):
    base = make_path(3)
    forms = {canonical_form(base.relabel(p)).adj for p in itertools.permutations(range(3))}
    assert len(forms) == 1
    two_c4 = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert canonical_form(two_c4) == canonical_form(make_cycle(4))
    assert canonical_form(make_path(4)) != canonical_form(
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    )
    # every 7-vertex class twice, and the most symmetric 8-vertex graphs,
    # where stabilizer orbits prune the most children, four times each
    k2 = make_complete(2)
    cube = cartesian_product(k2, cartesian_product(k2, k2))
    two_k4 = disjoint_union(make_complete(4), make_complete(4))
    cases = [(g, 2) for g in enumerate_graphs(7)]
    cases += [(g, 4) for g in (make_cycle(8), make_complete(8), cube, complement(two_k4), two_k4)]
    for i, (g, times) in enumerate(cases):
        form = canonical_form(g)
        for seed in range(times):
            assert canonical_form(_relabelled(g, 100 * i + seed)) == form, (g.adj, seed)
    with pytest.raises(SizeLimitError):
        canonical_form(make_cycle(9))
    # beyond the cap: in the Shrikhande graph the cell after one
    # individualization holds two orbits of that vertex's stabilizer, which
    # Aut(g) joins, so pruning there by the orbits of Aut(g) would drop leaves
    monkeypatch.setattr("critsets.graphs.CANONICAL_CAP", 16)
    form = canonical_form(_shrikhande())
    for seed in range(4):
        assert canonical_form(_relabelled(_shrikhande(), seed)) == form, seed


def test_enumeration_counts():
    assert [len(enumerate_graphs(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]
    with pytest.raises(SizeLimitError):
        enumerate_graphs(9)
    with pytest.raises(SizeLimitError):
        atlas_graphs(9)


def test_pruned_augmentation_matches_unpruned():
    # every neighbourhood of the new vertex, duplicates merged by
    # canonical_form alone, gives the same classes in the same order
    for n in range(1, 7):
        seen = {}
        for g in enumerate_graphs(n - 1):
            for nb in range(1 << (n - 1)):
                rows = [row | (nb >> v & 1) << (n - 1) for v, row in enumerate(g.adj)]
                cand = canonical_form(Graph(n, tuple(rows) + (nb,)))
                seen[cand.adj] = cand
        assert enumerate_graphs(n) == tuple(sorted(seen.values(), key=lambda h: h.adj)), n


def test_augmentation_roots_are_orbit_minima():
    # the least mask of each orbit of Aut(g) on vertex subsets, with the
    # group found by brute force over all n! orders
    for n in range(6):
        for i, g in enumerate(enumerate_graphs(n)):
            for h in (g, _relabelled(g, 100 * n + i)):
                aut = [p for p in itertools.permutations(range(n)) if is_automorphism(h, p)]
                least = {min(mask_of(p[v] for v in bits(nb)) for p in aut)
                         for nb in range(1 << n)}
                assert _augmentation_roots(h) == sorted(least), h.adj


def test_atlas_matches_networkx_atlas():
    # the Read-Wilson atlas shipped with networkx: every graph on 0-7
    # vertices, one per class
    codes = {n: set() for n in range(8)}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        codes[n].add(canonical_form(Graph.from_edges(n, h.edges())).adj)
    for n in range(8):
        assert codes[n] == {g.adj for g in enumerate_graphs(n)}, n


def test_components_and_bipartition():
    g = disjoint_union(make_cycle(4), make_path(3))
    comps = connected_components(g)
    assert [c.bit_count() for c in comps] == [4, 3]
    sides = bipartition(g)
    assert sides is not None and sides[0] | sides[1] == (1 << 7) - 1
    assert bipartition(make_cycle(5)) is None
    sub, verts = induced_subgraph(g, comps[1])
    assert sub == make_path(3) and verts == [4, 5, 6]


def _group_order(n, generators):
    """Size of the permutation group the generators generate (closure)."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        grown = []
        for p in frontier:
            for s in generators:
                q = tuple(s[p[v]] for v in range(n))
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    return len(seen)


def _shrikhande():
    def vertex(a, b):
        return a % 4 * 4 + b % 4

    return Graph.from_edges(16, [(vertex(a, b), vertex(a + da, b + db))
                                 for a in range(4) for b in range(4)
                                 for da, db in ((1, 0), (0, 1), (1, 1))])


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def test_automorphism_generators_generate_aut():
    # every generator is an automorphism, and together they generate the
    # whole group: its order is the brute-force count over all n! orders
    for n in range(7):
        for i, g in enumerate(enumerate_graphs(n)):
            h = _relabelled(g, 1000 * n + i)
            gens = automorphism_generators(h)
            assert all(is_automorphism(h, s) for s in gens), h.adj
            brute = sum(is_automorphism(h, p) for p in itertools.permutations(range(n)))
            assert _group_order(n, gens) == brute, h.adj
            if brute == 1:
                assert gens == []
    # dihedral groups of relabelled odd cycles; the rook's graph K4 x K4
    # and the Shrikhande graph share the parameters srg(16, 6, 2, 2), so
    # refinement cell sizes alone leave wrong leaves in the search
    rook = cartesian_product(make_complete(4), make_complete(4))
    cases = [(make_cycle(11), 22), (make_cycle(13), 26), (_shrikhande(), 192), (rook, 1152)]
    for g, order in cases:
        for seed in range(4):
            h = _relabelled(g, seed)
            gens = automorphism_generators(h)
            assert all(is_automorphism(h, s) for s in gens), (h.adj, seed)
            assert _group_order(h.n, gens) == order


def test_coloring_orbits_under_automorphisms():
    # earliest palette-orbit representative of each Aut x S_k orbit
    for g, k, orbits in ((sudoku_graph(2).graph, 4, 2), (make_cycle(11), 3, 21),
                         (make_cycle(13), 3, 63)):
        for h in (g, _relabelled(g, 7)):
            tuples = list(canonical_colorings(h, k))
            leaders = _orbit_leaders(h, tuples)
            assert len(leaders) == orbits
            assert leaders[0] == 0 and leaders == sorted(leaders)
