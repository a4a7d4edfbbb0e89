import hashlib
import math
import random
from itertools import product

import pytest

from conftest import brute_force_proper_count, cycle_chromatic_poly, star
from critsets.coloring import (
    Coloring,
    _shuffle,
    chromatic_number,
    colorful_vertices,
    count_colorings_extending,
    enumerate_optimal_colorings,
    is_uniquely_colorable,
    sample_proper_coloring,
)
from critsets.errors import InvalidParameterError, SizeLimitError
from critsets.graphs import (
    Graph,
    bits,
    disjoint_union,
    enumerate_graphs,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
)
from critsets.reductions import reduce_olcs, reduce_ulcs
from critsets.sudoku import sudoku_graph


def test_chromatic_number_examples(monkeypatch):
    assert chromatic_number(make_cycle(5)) == 3
    assert chromatic_number(make_path(4)) == 2
    assert chromatic_number(make_complete(4)) == 4
    assert chromatic_number(make_empty(0)) == 0
    assert chromatic_number(make_empty(3)) == 1
    assert chromatic_number(sudoku_graph(2).graph) == 4
    # above 20 vertices chi is given only when it needs no count: a clique
    # as large as the first-fit bound settles K21, C21 needs a count, and
    # is refused before it starts
    assert chromatic_number(make_complete(21)) == 21
    with monkeypatch.context() as patched:
        def no_count(*args):
            raise AssertionError("chi was counted past the cap")

        patched.setattr("critsets.coloring.count_colorings_extending", no_count)
        with pytest.raises(SizeLimitError,
                           match=r"^exact search capped at 20 vertices per component \(got 21\)$"):
            chromatic_number(make_cycle(21))
    # a disconnected graph counts per component: five C5 answer, and a
    # component over the cap is refused by its own size
    five_c5 = make_cycle(5)
    for _ in range(4):
        five_c5 = disjoint_union(five_c5, make_cycle(5))
    assert chromatic_number(five_c5) == 3
    with pytest.raises(SizeLimitError,
                       match=r"^exact search capped at 20 vertices per component \(got 21\)$"):
        chromatic_number(disjoint_union(make_cycle(21), make_complete(2)))


def test_chromatic_number_against_brute_force():
    # every graph on at most 6 vertices: a proper chi-coloring exists (first
    # found by scanning all assignments) and no proper (chi-1)-coloring does
    assert chromatic_number(make_empty(0)) == 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            chi = chromatic_number(g)
            edges = g.edges()
            assert any(all(c[u] != c[v] for u, v in edges)
                       for c in product(range(chi), repeat=n)), g.adj
            assert brute_force_proper_count(g, chi - 1) == 0, g.adj


def test_enumerate_optimal_coloring_counts():
    assert sum(1 for _ in enumerate_optimal_colorings(make_complete(3))) == 1
    assert sum(1 for _ in enumerate_optimal_colorings(make_cycle(5))) == 5
    assert sum(1 for _ in enumerate_optimal_colorings(make_path(3))) == 1


def test_orbit_representatives_cover_all_colorings():
    # representatives x k! must equal the raw proper coloring count
    for g in enumerate_graphs(5):
        chi = chromatic_number(g)
        reps = list(enumerate_optimal_colorings(g))
        if chi:
            assert len(reps) * math.factorial(chi) == brute_force_proper_count(g, chi)
        for c in reps:
            assert c.is_proper(g)
            assert len(set(c.colors)) == chi  # surjective at chi
            # first-use canonical labeling
            seen = []
            for col in c.colors:
                if col not in seen:
                    seen.append(col)
            assert seen == sorted(seen)


def restrict(coloring: Coloring, subset: int) -> dict[int, int]:
    return {v: coloring.colors[v] for v in bits(subset)}


def test_count_extensions_examples():
    c5 = make_cycle(5)
    coloring = Coloring((0, 1, 0, 1, 2), 3)
    full = restrict(coloring, (1 << 5) - 1)
    assert count_colorings_extending(c5, 3, full, cap=5) == 1
    assert count_colorings_extending(c5, 3, {}, cap=100) == 30
    assert count_colorings_extending(c5, 3, {}, cap=100) == cycle_chromatic_poly(5, 3)
    two_edges = disjoint_union(make_complete(2), make_complete(2))
    assert count_colorings_extending(two_edges, 2, {0: 0}, cap=10) == 2


def test_count_extensions_rejects_a_bad_cap_or_assignment():
    c5 = make_cycle(5)
    for cap in (0, -2):
        with pytest.raises(InvalidParameterError, match="cap must be at least 1"):
            count_colorings_extending(c5, 3, {}, cap)
    for v, c in ((0, 3), (0, -1), (5, 0), (-1, 0)):
        with pytest.raises(InvalidParameterError, match=f"assignment {v}->{c} out of range"):
            count_colorings_extending(c5, 3, {v: c}, cap=2)


def test_count_extensions_monotone_in_support():
    rng = random.Random(3)
    for g in enumerate_graphs(5)[::7]:
        chi = chromatic_number(g)
        if chi == 0:
            continue
        coloring = next(iter(enumerate_optimal_colorings(g)))
        subset = 0
        last = count_colorings_extending(g, chi, restrict(coloring, 0), cap=10**6)
        order = list(range(g.n))
        rng.shuffle(order)
        for v in order:
            subset |= 1 << v
            now = count_colorings_extending(g, chi, restrict(coloring, subset), cap=10**6)
            assert now <= last
            last = now
        assert last == 1


def test_empty_support_never_determines_when_two_colors_needed():
    for g in enumerate_graphs(5):
        chi = chromatic_number(g)
        if chi >= 2:
            assert count_colorings_extending(g, chi, {}, cap=2) == 2


def test_is_uniquely_colorable(monkeypatch):
    assert is_uniquely_colorable(make_complete(4))
    assert is_uniquely_colorable(make_path(4))
    assert not is_uniquely_colorable(make_cycle(5))
    # enumeration caps the whole graph, though P21's chi needs no count,
    # and refuses it before chi
    def no_chi(g):
        raise AssertionError("chromatic_number ran on an over-cap input")

    monkeypatch.setattr("critsets.coloring.chromatic_number", no_chi)
    with pytest.raises(SizeLimitError, match=r"^exact search capped at 20 vertices \(got 21\)$"):
        is_uniquely_colorable(make_path(21))


def test_colorful_vertices():
    c5 = make_cycle(5)
    got = colorful_vertices(c5, Coloring((0, 1, 0, 1, 2), 3))
    assert bits(got) == [0, 3, 4]
    for k in (2, 3, 4):
        kk = make_complete(k)
        coloring = next(iter(enumerate_optimal_colorings(kk)))
        assert colorful_vertices(kk, coloring) == (1 << k) - 1


def test_odd_cycles_always_have_a_colorful_vertex():
    for n in (5, 7, 9, 11):
        g = make_cycle(n)
        for coloring in enumerate_optimal_colorings(g):
            assert colorful_vertices(g, coloring) != 0


def test_sample_proper_coloring_is_seeded_and_proper():
    g = disjoint_union(make_cycle(5), star(4))
    a = sample_proper_coloring(g, 3, random.Random(9))
    b = sample_proper_coloring(g, 3, random.Random(9))
    assert a == b
    assert a.is_proper(g)
    # a coloring of the wrong length is not a coloring of g
    assert not Coloring(a.colors[:-1], 3).is_proper(g)
    assert not Coloring(a.colors + (0,), 3).is_proper(g)


def test_sample_proper_coloring_backtracks_and_refuses():
    # C10 has two proper 2-colorings, and most seeds meet a dead end on the
    # way to one of them; K4 has no proper 3-coloring at all
    c10 = make_cycle(10)
    for seed in range(20):
        c = sample_proper_coloring(c10, 2, random.Random(seed))
        assert c.k == 2 and c.colors in ((0, 1) * 5, (1, 0) * 5), seed
    with pytest.raises(InvalidParameterError, match="admits no proper 3-coloring"):
        sample_proper_coloring(make_complete(4), 3, random.Random(0))


def test_coloring_palette_check_and_class_masks():
    for colors, k in (((0, 3), 3), ((-1, 0), 2), ((0,), 0)):
        with pytest.raises(InvalidParameterError, match="color out of palette range"):
            Coloring(colors, k)
    assert Coloring((), 0).colors == ()
    c = Coloring((0, 2, 0), 3)
    assert c.class_masks == (0b101, 0, 0b010)
    # the cached masks take no part in equality or hashing
    assert c == Coloring((0, 2, 0), 3) and hash(c) == hash(Coloring((0, 2, 0), 3))


def test_shuffle_makes_random_shuffle_draws():
    for length in range(13):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            x = list(range(length))
            y = list(range(length))
            _shuffle(x, ours.getrandbits)
            theirs.shuffle(y)
            assert x == y, (length, seed)
            assert ours.getrandbits(32) == theirs.getrandbits(32), (length, seed)


# sha256 of bytes(colors), first 16 hex digits, of sample_proper_coloring on
# each gadget instance at seeds 0-4; recorded before the sampler's shuffles
# were routed through _shuffle
SAMPLED_COLORINGS = {
    ("ulcs", "K3"): ("004debcc234f3637", "aebd9608425db793", "065b1db1124d9b0b",
                     "803504e906df32d8", "74298c1a37200d76"),
    ("olcs", "K3"): ("3d1c54665b591a3d", "9fd68e7578a69290", "9ef9f700e700a2f6",
                     "31720a1ef4be09f0", "f4acb3e6ed569630"),
    ("ulcs", "K4"): ("4b40b9aa063223d0", "2f8d44e18e321b88", "188f6862276e2402",
                     "973b4e1200b06593", "45849752a05d7616"),
    ("olcs", "K4"): ("13577c1ba2de95bb", "72b3d7bbbc799ddf", "fa471531b54df988",
                     "d611941403301a72", "67c63c2c00361d5f"),
    ("ulcs", "C5"): ("40246dd1cbe8a975", "4d1f7c02df09a585", "94b90cba02de3a80",
                     "db3231f985eddedd", "5e113138e412e0dc"),
    ("olcs", "C5"): ("769fed9dc058ed1a", "83ed03a3ecd88c0d", "73776f5c697a3f91",
                     "b3004b221407aa8d", "6f947cab23d0e831"),
}


def test_sample_proper_coloring_pinned():
    sources = {"K3": make_complete(3), "K4": make_complete(4), "C5": make_cycle(5)}
    reducers = {"ulcs": reduce_ulcs, "olcs": reduce_olcs}
    for (variant, name), expected in SAMPLED_COLORINGS.items():
        g = reducers[variant](sources[name]).graph
        for seed, digest in enumerate(expected):
            c = sample_proper_coloring(g, 3, random.Random(seed))
            assert c.is_proper(g)
            assert hashlib.sha256(bytes(c.colors)).hexdigest()[:16] == digest, (variant, name, seed)


def _reference_sample(g, k, rng):
    """`sample_proper_coloring` written with `random.Random.shuffle` for
    the vertex order and for each palette: the reference for its inlined
    draws."""
    nbrs = g.neighbor_lists
    order = list(range(g.n))
    rng.shuffle(order)
    order.sort(key=lambda v: len(nbrs[v]), reverse=True)
    palettes = []
    for _ in order:
        p = list(range(k))
        rng.shuffle(p)
        palettes.append(p)
    colors = [-1] * g.n
    tried = [0] * g.n
    i = 0
    while 0 <= i < g.n:
        v = order[i]
        colors[v] = -1
        taken = {colors[w] for w in nbrs[v]}
        p = palettes[i]
        j = tried[i]
        while j < k and p[j] in taken:
            j += 1
        if j < k:
            colors[v] = p[j]
            tried[i] = j + 1
            i += 1
        else:
            tried[i] = 0
            i -= 1
    return tuple(colors) if i >= 0 else None


def test_sample_proper_coloring_matches_reference_draws():
    # the same coloring and the same generator state after, at every
    # palette size, including those the gadget's triangle rules out
    gadgets = (reduce_ulcs(make_complete(4)).graph, reduce_olcs(make_complete(3)).graph,
               reduce_olcs(make_cycle(5)).graph)
    for g in gadgets:
        for k in range(1, 6):
            for seed in range(3):
                ours, theirs = random.Random(seed), random.Random(seed)
                expected = _reference_sample(g, k, theirs)
                if expected is None:
                    with pytest.raises(InvalidParameterError, match="admits no proper"):
                        sample_proper_coloring(g, k, ours)
                else:
                    assert sample_proper_coloring(g, k, ours) == Coloring(expected, k), (g.n, k)
                assert ours.getstate() == theirs.getstate(), (g.n, k, seed)


def test_count_extensions_match_brute_force():
    rng = random.Random(11)
    for n in range(6):
        for g in enumerate_graphs(n):
            edges = g.edges()
            chi = chromatic_number(g)
            for k in (chi, chi + 1):
                proper = [c for c in product(range(k), repeat=n)
                          if all(c[u] != c[w] for u, w in edges)]
                partials = [{}]
                if k:
                    for _ in range(3):
                        base = rng.choice(proper)
                        partials.append({v: base[v] for v in range(n) if rng.random() < 0.4})
                        partials.append({v: rng.randrange(k) for v in range(n) if rng.random() < 0.5})
                    partials += [{u: 0, w: 0} for u, w in edges[:2]]  # conflicting: no extension
                for partial in partials:
                    exact = sum(all(c[v] == col for v, col in partial.items()) for c in proper)
                    if any(partial.get(u, -1) == partial.get(w, -2) for u, w in edges):
                        assert exact == 0
                    for cap in (1, 2, 10**6):
                        got = count_colorings_extending(g, k, partial, cap)
                        assert got == min(cap, exact), (g, k, partial, cap)
