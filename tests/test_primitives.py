"""The engine's three hot primitives against plain references kept here:
`canonical_colorings` against the recursive generator it replaced, `bits`
against the lowest-bit loop, and `_orbit_leaders` against a closure of the
palette orbits under the whole automorphism group."""

import random
from itertools import islice, permutations

from conftest import is_automorphism
from critsets.coloring import _orbit_leaders, canonical_colorings, chromatic_number
from critsets.graphs import bits, enumerate_graphs, make_cycle, make_empty


def _recursive_canonical_colorings(g, k):
    """First-use palette representatives in lexicographic order, one
    recursion level per vertex."""
    n = g.n
    if n == 0:
        yield ()
        return
    if k == 0:
        return
    lower = [[u for u in nbrs if u < v] for v, nbrs in enumerate(g.neighbor_lists)]
    colors = [0] * n

    def rec(v, used):
        if v == n:
            yield tuple(colors)
            return
        forbid = 0
        for u in lower[v]:
            forbid |= 1 << colors[u]
        for c in range(min(used + 1, k)):
            if not forbid >> c & 1:
                colors[v] = c
                yield from rec(v + 1, max(used, c + 1))

    yield from rec(0, 0)


def _loop_bits(mask):
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm), perm


def _first_use(colors):
    relabel = {}
    return tuple(relabel.setdefault(c, len(relabel)) for c in colors)


def _reference_leaders(g, tuples, group):
    """Earliest index of each orbit of `tuples` under `group` (every
    automorphism, listed) acting with the palette permutations."""
    index = {tup: i for i, tup in enumerate(tuples)}
    seen, leaders = set(), []
    for i, tup in enumerate(tuples):
        if i in seen:
            continue
        leaders.append(i)
        for s in group:
            moved = [0] * g.n
            for v, c in enumerate(tup):
                moved[s[v]] = c  # vertex s(v) takes c(v)
            seen.add(index[_first_use(moved)])
    return leaders


def _small_graphs():
    for n in range(7):
        yield from enumerate_graphs(n)


def test_canonical_colorings_match_the_recursive_generator():
    for g in _small_graphs():
        chi = chromatic_number(g)
        for k in sorted({0, 1, chi, chi + 1}):
            assert list(canonical_colorings(g, k)) == list(_recursive_canonical_colorings(g, k)), \
                (g.adj, k)
    for seed in range(3):
        h, _ = _relabelled(make_cycle(9), seed)
        for k in (3, 4):
            got = list(canonical_colorings(h, k))
            assert got == list(_recursive_canonical_colorings(h, k))
            assert got == sorted(got) and len(got) == len(set(got))


def test_canonical_colorings_stay_lazy_at_the_ends():
    assert list(canonical_colorings(make_empty(0), 0)) == [()]
    assert list(canonical_colorings(make_empty(3), 0)) == []
    # 3^39 / 3! first-use strings: only a lazy walk gives the first two
    g = make_empty(40)
    assert list(islice(canonical_colorings(g, 3), 2)) == [(0,) * 40, (0,) * 39 + (1,)]


def test_bits_match_the_loop():
    for mask in range(1 << 10):
        assert bits(mask) == _loop_bits(mask), mask
    rng = random.Random(11)
    for _ in range(300):
        mask = rng.getrandbits(rng.randrange(1, 5001))
        assert bits(mask) == _loop_bits(mask)
    # each call hands back a fresh list
    for mask in (0b1011, 1 << 300 | 5):
        first = bits(mask)
        first.append(99)
        first[0] = -1
        assert bits(mask) == _loop_bits(mask)


def test_orbit_leaders_match_the_whole_group_closure():
    for g in _small_graphs():
        group = [p for p in permutations(range(g.n)) if is_automorphism(g, p)]
        chi = chromatic_number(g)
        for k in (chi, chi + 1):
            tuples = list(canonical_colorings(g, k))
            assert _orbit_leaders(g, tuples) == _reference_leaders(g, tuples, group), (g.adj, k)
    # the dihedral group of C11, conjugated onto each relabelling
    c11 = make_cycle(11)
    dihedral = [tuple((s * v + r) % 11 for v in range(11)) for s in (1, -1) for r in range(11)]
    for seed in range(2):
        h, perm = _relabelled(c11, seed)
        pos = [0] * 11
        for i, v in enumerate(perm):
            pos[v] = i
        group = [tuple(pos[d[perm[i]]] for i in range(11)) for d in dihedral]
        assert all(is_automorphism(h, s) for s in group)
        tuples = list(canonical_colorings(h, 3))
        leaders = _orbit_leaders(h, tuples)
        assert leaders == _reference_leaders(h, tuples, group)
        assert len(leaders) == 21
