import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critsets.coloring import (
    Coloring,
    _class_masks,
    _count,
    _orbit_leaders,
    _palette_form,
    canonical_colorings,
    chromatic_number,
    colorful_vertices,
    enumerate_optimal_colorings,
    is_uniquely_colorable,
    sample_proper_coloring,
)
from critsets.critical import (
    PARAM_NAMES,
    _agreements,
    _component_extremes,
    _critical_sets,
    _determines,
    _lattice_extremes,
    _lattice_tables,
    _lazy_extremes,
    _maximal_matchings,
    _still_determines,
    _undetermined,
    four_params,
    is_critical,
    is_determining,
    prune_to_critical,
    scs_lcs_for_coloring,
)
from critsets.errors import InvalidParameterError, SizeLimitError
from critsets.graphs import (
    Graph,
    add_pendant_to_each,
    bits,
    cartesian_product,
    connected_components,
    enumerate_graphs,
    induced_subgraph,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
    mask_of,
)
from critsets.reductions import proof_coloring_olcs, proof_coloring_ulcs, reduce_olcs, reduce_ulcs
from critsets.scan import implication_holds, record_for_graph
from critsets.sudoku import all_boards, random_board, random_determining_set, sudoku_graph

C4_COLORING = Coloring((0, 1, 0, 1), 2)


def test_is_determining_examples():
    c4 = make_cycle(4)
    assert is_determining(c4, C4_COLORING, (1 << 4) - 1)
    assert is_determining(c4, C4_COLORING, 0b0001)
    c5 = make_cycle(5)
    for coloring in enumerate_optimal_colorings(c5):
        for i in range(5):
            gap = ((1 << 5) - 1) ^ (1 << i) ^ (1 << ((i + 1) % 5))
            assert not is_determining(c5, coloring, gap)


def test_is_critical_examples():
    c4 = make_cycle(4)
    cert = is_critical(c4, C4_COLORING, 0b0001)
    assert cert.determining and cert.minimal
    cert = is_critical(c4, C4_COLORING, 0b0011)
    assert cert.determining and not cert.minimal
    for g in (make_cycle(5), make_complete(3)):
        coloring = next(iter(enumerate_optimal_colorings(g)))
        cert = is_critical(g, coloring, 0)
        assert not cert.determining and not cert.minimal


def test_point_checks_reject_malformed_colorings():
    # too short, too long, and improper colorings of P3: the drop check's
    # precondition (the coloring extends the subset) needs a proper one
    p3 = make_path(3)
    for bad in (Coloring((0, 1), 2), Coloring((0, 1, 0, 1), 2), Coloring((0, 0, 1), 2)):
        with pytest.raises(InvalidParameterError):
            is_determining(p3, bad, 0b001)
        with pytest.raises(InvalidParameterError):
            is_critical(p3, bad, 0b001)
        with pytest.raises(InvalidParameterError):
            prune_to_critical(p3, bad, [0, 1, 2])


def test_point_checks_reject_a_subset_beyond_the_graph():
    p3 = make_path(3)
    good = Coloring((0, 1, 0), 2)
    for check in (is_determining, is_critical):
        with pytest.raises(InvalidParameterError, match="subset has bits beyond vertex range"):
            check(p3, good, 0b1001)


def _count_determines(g, coloring, subset):
    """The whole-graph check without class-bitset rounds: singletons on
    `subset`, the full palette elsewhere, `_count` capped at 2."""
    full = (1 << coloring.k) - 1
    allowed = [1 << c if subset >> v & 1 else full for v, c in enumerate(coloring.colors)]
    queue = [v for v in range(g.n) if subset >> v & 1]
    return _count(g.neighbor_lists, allowed, bytearray(g.n), queue, 2) == 1


def test_drop_check_matches_full_check():
    # the whole-graph check (class rounds, then `_count`) agrees with
    # `_count` alone on every subset; for a determining subset, counting on
    # v's free region alone decides whether subset - {v} still determines,
    # as the whole-graph count does
    for n in range(6):
        for g in enumerate_graphs(n):
            chi = chromatic_number(g)
            for k in (chi, chi + 1):
                for tup in canonical_colorings(g, k):
                    coloring = Coloring(tup, k)
                    for subset in range(1 << g.n):
                        det = _determines(g, coloring, subset)
                        assert det == _count_determines(g, coloring, subset), (g.adj, tup, subset)
                        if not det:
                            continue
                        for v in bits(subset):
                            expected = _determines(g, coloring, subset ^ 1 << v)
                            assert _still_determines(g, coloring, subset, v) == expected, (
                                g.adj, tup, subset, v)


def test_drop_check_matches_full_check_on_gadgets():
    # at gadget scale, on the proof coloring and sampled colorings: dropping
    # each vertex of the full set, of a pruned critical set and of seeded
    # supersets of it, the region count agrees with the whole-graph check
    # (both of its branches run: v with every neighbor fixed, and v with a
    # free region around it)
    rng = random.Random(17)
    branches = set()  # (answer, every neighbor of v fixed)
    for h in (make_path(3), make_complete(3), make_cycle(5)):
        c3 = Coloring(next(canonical_colorings(h, 3)), 3)
        for inst in (reduce_ulcs(h), reduce_olcs(h)):
            g = inst.graph
            full = (1 << g.n) - 1
            lifted = (proof_coloring_ulcs if inst.variant == "ulcs" else proof_coloring_olcs)(
                inst, c3)
            for coloring in [lifted] + [sample_proper_coloring(g, 3, rng) for _ in range(2)]:
                order = list(range(g.n))
                rng.shuffle(order)
                critical = prune_to_critical(g, coloring, order)
                subsets = [full, critical] + [critical | rng.getrandbits(g.n) for _ in range(3)]
                for subset in subsets:
                    assert _determines(g, coloring, subset)
                    for v in bits(subset):
                        expected = _determines(g, coloring, subset ^ 1 << v)
                        assert _still_determines(g, coloring, subset, v) == expected, (
                            inst.variant, h.adj, coloring.colors, subset, v)
                        branches.add((expected, not g.adj[v] & ~subset))
    # each answer comes from each branch somewhere
    assert branches == {(a, b) for a in (False, True) for b in (False, True)}


def test_class_rounds_match_count_check_near_survivor_sets():
    # the rounds close a survivor set to all 81 cells; subsets and
    # supersets of it leave free cells for `_count` to branch on
    structure = sudoku_graph(3)
    g = structure.graph
    rng = random.Random(8)
    outcomes = set()
    for _ in range(30):
        board = random_board(3, rng)
        survivors = random_determining_set(structure, board, seed=rng.getrandbits(32))
        assert _determines(g, board, survivors)
        cells = bits(survivors)
        for _ in range(8):
            lose = mask_of(rng.sample(cells, rng.randrange(1, 4)))
            extra = mask_of(rng.sample(range(81), 10))
            for subset in (survivors ^ lose, survivors ^ lose | extra,
                           survivors & rng.getrandbits(81)):
                got = _determines(g, board, subset)
                assert got == _count_determines(g, board, subset), (board.colors, subset)
                outcomes.add((got, subset.bit_count() < survivors.bit_count()))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_class_rounds_hand_long_chains_to_count():
    # rounds that fix fewer than n/64 vertices stop and leave the rest to
    # `_count`, whose queue then holds the last round's vertices
    rng = random.Random(4)
    cases = []
    for n in (300, 301):
        for g in (make_path(n), make_cycle(n)):
            for k in (2, 3):
                colors = [v % k for v in range(n)]
                if g.m == n and colors[-1] == 0:  # the cycle closes on color 0
                    if k == 2:
                        continue
                    colors[-1] = 3 - colors[-2]
                coloring = Coloring(tuple(colors), k)
                assert coloring.is_proper(g)
                subsets = [1, 1 | 1 << (n - 1), mask_of(range(0, n, 7)),
                           rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)]
                cases += [(g, coloring, s) for s in subsets]
    for h in (make_cycle(5), make_complete(3)):
        g = reduce_ulcs(h).graph
        for _ in range(2):
            coloring = sample_proper_coloring(g, 3, rng)
            order = list(range(g.n))
            rng.shuffle(order)
            critical = prune_to_critical(g, coloring, order)
            drop = 1 << rng.choice(bits(critical))
            cases += [(g, coloring, critical), (g, coloring, critical ^ drop)]
            cases += [(g, coloring, rng.getrandbits(g.n) | critical) for _ in range(2)]
    answers = []
    for g, coloring, subset in cases:
        got = _determines(g, coloring, subset)
        assert got == _count_determines(g, coloring, subset), (g.n, coloring.colors, subset)
        answers.append(got)
    assert True in answers and False in answers


def test_is_critical_on_olcs_certificate():
    # the 2091-vertex certificate that `reduce olcs latin:3 --verify` checks
    h = cartesian_product(make_complete(3), make_complete(3))
    inst = reduce_olcs(h)
    g = inst.graph
    lifted = proof_coloring_olcs(inst, Coloring(next(canonical_colorings(h, 3)), 3))
    order = [v for kind in ("V1", "V3", "V2") for v in inst.vertices_with_kind(kind)]
    subset = prune_to_critical(g, lifted, order)
    cert = is_critical(g, lifted, subset)
    assert cert.determining and cert.minimal
    assert _count_determines(g, lifted, subset)
    rng = random.Random(2)
    for v in rng.sample(bits(subset), 20):
        assert not _determines(g, lifted, subset ^ 1 << v)
        assert not _count_determines(g, lifted, subset ^ 1 << v)


def test_deep_branching_needs_no_recursion_depth():
    # a 3-colored path fixed at one end branches once per vertex
    assert not is_determining(make_path(3000), Coloring(tuple(v % 3 for v in range(3000)), 3), 1)
    assert is_determining(make_path(3000), Coloring(tuple(v % 2 for v in range(3000)), 2), 1)


def _reference_prune(g, coloring, order):
    subset = (1 << g.n) - 1
    for v in order:
        if is_determining(g, coloring, subset ^ 1 << v):
            subset ^= 1 << v
    return subset


def test_prune_to_critical_matches_whole_graph_checks():
    rng = random.Random(3)
    cases = []
    structure = sudoku_graph(3)
    for _ in range(5):
        cases.append((structure.graph, random_board(3, rng)))
    for h in (make_complete(3), make_path(3), make_cycle(5)):
        for reduce in (reduce_ulcs, reduce_olcs):
            g = reduce(h).graph
            cases += [(g, sample_proper_coloring(g, 3, rng)) for _ in range(2)]
    for g, coloring in cases:
        order = list(range(g.n))
        rng.shuffle(order)
        subset = prune_to_critical(g, coloring, order)
        assert subset == _reference_prune(g, coloring, order)
        assert is_critical(g, coloring, subset).minimal
        # a vertex named twice stays dropped
        assert prune_to_critical(g, coloring, order + order) == subset


def test_scs_lcs_for_coloring():
    k3 = make_complete(3)
    res = scs_lcs_for_coloring(k3, Coloring((0, 1, 2), 3))
    assert (res.scs, res.lcs) == (2, 2)

    c5 = make_cycle(5)
    c0 = Coloring((0, 1, 0, 1, 2), 3)
    res = scs_lcs_for_coloring(c5, c0)
    assert res.scs == 3 and res.lcs == 4
    assert res.lcs_witness == mask_of([0, 1, 2, 3])  # all but the 2-colored vertex
    for witness in (res.scs_witness, res.lcs_witness):
        cert = is_critical(c5, c0, witness)
        assert cert.determining and cert.minimal
    with pytest.raises(InvalidParameterError):
        scs_lcs_for_coloring(c5, Coloring((0, 0, 1, 0, 1), 3))


def test_scs_lcs_for_coloring_on_relabelled_colorings():
    # the lazy route compares a coloring with no other one, so a coloring
    # outside the palette-orbit representatives runs as itself: every
    # palette-orbit coloring and a relabelling of it must give the mask
    # kernel's row for its palette form, from agreements with every
    # representative, and the witnesses must be critical sets of the
    # relabelled coloring itself.  Disconnected graphs give components
    # whose restriction is not in palette form even when the whole
    # coloring is
    rng = random.Random(25)
    latin3 = cartesian_product(make_complete(3), make_complete(3))
    latin4 = cartesian_product(make_complete(4), make_complete(4))
    cases = [(g, k) for n in range(7) for g in enumerate_graphs(n)
             for k in (chromatic_number(g), chromatic_number(g) + 1)]
    cases += [(make_cycle(9), 3), (latin3, 3), (latin4, 4), (sudoku_graph(2).graph, 4)]
    for g, k in cases:
        components = _kernel_components(g, k)
        for tup in canonical_colorings(g, k):
            palette = list(range(k))
            rng.shuffle(palette)
            for coloring in (Coloring(tup, k), Coloring(tuple(palette[c] for c in tup), k)):
                got = scs_lcs_for_coloring(g, coloring)
                assert got == _kernel_scs_lcs(components, coloring), (g.adj, coloring)
                for witness in (got.scs_witness, got.lcs_witness):
                    assert is_critical(g, coloring, witness).minimal, (g.adj, coloring)


def test_scs_lcs_for_coloring_enumerates_no_other_coloring(monkeypatch):
    # a given coloring takes the lazy route alone: neither the palette-orbit
    # enumeration nor the mask kernel runs, and no component is refused for
    # its vertex count.  C19's first coloring has 3 colorful vertices; at
    # k = 4 no vertex of C25 is colorful, so V is its one critical set
    c19 = make_cycle(19)
    first = Coloring(next(canonical_colorings(c19, 3)), 3)

    def refuse(*args):
        raise AssertionError("a given coloring reached the enumeration or the kernel")

    monkeypatch.setattr("critsets.critical.canonical_colorings", refuse)
    monkeypatch.setattr("critsets.critical._agreements", refuse)
    res = scs_lcs_for_coloring(c19, first)
    assert (res.scs, res.lcs) == (17, 18)
    for witness in (res.scs_witness, res.lcs_witness):
        assert is_critical(c19, first, witness).minimal
    c25 = make_cycle(25)
    res = scs_lcs_for_coloring(c25, Coloring(tuple(v % 3 for v in range(24)) + (3,), 4))
    assert (res.scs, res.lcs) == (25, 25)


def test_per_coloring_cap_counts_colorful_vertices_before_any_lattice(monkeypatch):
    # a min-lcs gadget sample of latin:3 has 289 colorful vertices in one
    # component: it is refused (exit 2 through the CLI) before a lattice is
    # built
    def no_lattice(agree, n):
        raise AssertionError("a lattice was built past the cap")

    monkeypatch.setattr("critsets.critical._critical_sets", no_lattice)
    g = reduce_ulcs(cartesian_product(make_complete(3), make_complete(3))).graph
    coloring = sample_proper_coloring(g, 3, random.Random(0))
    with pytest.raises(SizeLimitError,
                       match=r"^exact search capped at 20 colorful vertices per component \(got 289\)$"):
        scs_lcs_for_coloring(g, coloring)


def test_kempe_chains_only_between_colors_on_colorful_vertices(monkeypatch):
    # a chain that misses forced(c) holds both its colors on colorful
    # vertices, so only those color pairs are searched: at k = 100000 no
    # vertex of path:2 is colorful, and the lazy route runs but searches no
    # chain (a search over all k^2 / 2 pairs would not end, so the first
    # one fails the test)
    runs = []

    def components(g, within=None):
        if runs and runs[-1] is None:
            raise AssertionError("the lazy route searched a Kempe chain")
        return connected_components(g, within)

    def lazy(g, coloring):
        runs.append(None)  # open while the route runs
        runs[-1] = _lazy_extremes(g, coloring)
        return runs[-1]

    monkeypatch.setattr("critsets.critical.connected_components", components)
    monkeypatch.setattr("critsets.critical._lazy_extremes", lazy)
    res = scs_lcs_for_coloring(make_path(2), Coloring((0, 1), 100000))
    assert (res.scs, res.lcs, res.scs_witness, res.lcs_witness) == (2, 2, 0b11, 0b11)
    assert len(runs) == 1


def test_four_params_named_graphs():
    assert four_params(make_path(4)).values() == (1, 1, 1, 1)
    assert four_params(make_complete(4)).values() == (3, 3, 3, 3)
    # K14 has one coloring orbit of 14! colorings: its difference masks
    # must come from the 91 class swaps, not from palette permutations
    assert four_params(make_complete(14)).values() == (13,) * 4
    assert four_params(add_pendant_to_each(make_complete(3))).values() == (4, 4, 4, 4)
    assert four_params(make_cycle(5)).values() == (3, 3, 4, 4)
    assert four_params(make_empty(0)).values() == (0, 0, 0, 0)


def test_four_params_witnesses_are_critical_and_sane():
    for g in [make_cycle(5), make_cycle(7), make_complete(4),
              add_pendant_to_each(make_complete(3))] + list(enumerate_graphs(5)[::6]):
        quad = four_params(g)
        for name, (coloring, subset) in quad.witnesses.items():
            assert coloring.is_proper(g)
            cert = is_critical(g, coloring, subset)
            assert cert.determining and cert.minimal, (name, g.adj)
            assert subset.bit_count() == getattr(quad, name)
            # no witness holds a colorful vertex plus its entire neighborhood
            rainbow = colorful_vertices(g, coloring)
            for v in bits(rainbow & subset):
                assert g.adj[v] & ~subset, (name, v)


def test_odd_cycle_witnesses_hit_consecutive_pairs():
    for n in (5, 7, 9):
        g = make_cycle(n)
        quad = four_params(g)
        for coloring, subset in quad.witnesses.values():
            for i in range(n):
                pair = 1 << i | 1 << ((i + 1) % n)
                assert subset & pair, (n, i)


def test_determining_is_monotone_upward():
    rng = random.Random(17)
    for g in enumerate_graphs(5)[::5]:
        if chromatic_number(g) == 0:
            continue
        coloring = next(iter(enumerate_optimal_colorings(g)))
        for _ in range(10):
            s = rng.randrange(1 << g.n)
            t = s | rng.randrange(1 << g.n)
            if is_determining(g, coloring, s):
                assert is_determining(g, coloring, t)


def test_is_critically_uniform():
    assert four_params(make_path(4)).uniform_value() == 1
    assert four_params(make_complete(4)).uniform_value() == 3
    assert four_params(make_cycle(5)).uniform_value() is None
    assert four_params(add_pendant_to_each(make_complete(3))).uniform_value() == 4


def test_four_params_k():
    c5 = make_cycle(5)
    assert four_params(c5, 3).values() == four_params(c5).values()
    k2 = make_complete(2)
    quad = four_params(k2, 3)
    assert quad.uscs >= 1
    assert quad.values() == (2, 2, 2, 2)
    quad4 = four_params(c5, 4)
    assert quad4.uscs <= quad4.oscs <= quad4.olcs
    assert quad4.uscs <= quad4.ulcs <= quad4.olcs
    with pytest.raises(InvalidParameterError):
        four_params(c5, 2)


def test_four_params_k_matches_definition_on_atlas():
    for g in enumerate_graphs(4):
        chi = chromatic_number(g)
        if chi == 0:
            continue
        assert four_params(g, chi).values() == four_params(g).values()


def test_engine_matches_definitional_brute_force():
    # dual route: the search engine against raw definition enumeration on
    # every isomorphism class up to 5 vertices plus a few named 5-vertex graphs
    from conftest import brute_force_four_params

    small = [g for n in range(5) for g in enumerate_graphs(n)]
    small += [make_cycle(5), make_path(5), enumerate_graphs(5)[20]]
    small += enumerate_graphs(5)
    for g in small:
        assert four_params(g).values() == brute_force_four_params(g), g.adj


def test_engine_matches_definitions_with_a_spare_color():
    # the same dual route at k = chi + 1, on every class up to 5 vertices
    from conftest import brute_force_four_params

    for n in range(6):
        for g in enumerate_graphs(n):
            k = chromatic_number(g) + 1
            assert four_params(g, k).values() == brute_force_four_params(g, k), g.adj


def _lattice_index(subset, n):
    """The subset lattice's index of a vertex set: its n bits reversed."""
    return int(f"{subset:0{n}b}"[::-1], 2)


def _lattice_sets(lattice, n):
    """The vertex sets whose lattice index bits are set in `lattice`."""
    return {_lattice_index(i, n) for i in bits(lattice)}


def test_difference_masks_match_determining_point_checks():
    # a set fails to determine the coloring iff it lies inside an agreement
    # set; the agreements come from palette-orbit representatives and
    # matchings, the point check from the propagation counter
    for n in range(6):
        for g in enumerate_graphs(n):
            chi = chromatic_number(g)
            for k in (chi, chi + 1):
                reps = list(canonical_colorings(g, k))
                for j, tup in enumerate(reps):
                    coloring = Coloring(tup, k)
                    agree = next(_agreements([j], reps, k, g.n))
                    undetermined = _lattice_sets(_undetermined(agree, g.n), g.n)
                    for subset in range(1 << g.n):
                        determining = is_determining(g, coloring, subset)
                        assert (subset in undetermined) != determining, (g.adj, tup, subset)


def _brute_maximal_matchings(k, occupied):
    """Every edge subset of `occupied` that is a matching no edge of
    `occupied` extends, as sorted edge indices."""
    edges = bits(occupied)

    def matching(sub):
        rows = [i // k for i in sub]
        cols = [i % k for i in sub]
        return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)

    subsets = [sub for r in range(len(edges) + 1)
               for sub in itertools.combinations(edges, r) if matching(sub)]
    return sorted(sub for sub in subsets
                  if not any(matching(sub + (e,)) for e in edges if e not in sub))


def test_maximal_matchings_match_brute_force():
    cases = [(k, occupied) for k in range(1, 4) for occupied in range(1 << (k * k))]
    rng = random.Random(5)
    for k in (4, 5, 6):
        for _ in range(40):
            cells = rng.sample(range(k * k), rng.randint(0, 12))
            cases.append((k, mask_of(cells)))
    for k, occupied in cases:
        got = _maximal_matchings(k, occupied)
        assert sorted(got) == _brute_maximal_matchings(k, occupied), (k, occupied)
        assert len(set(got)) == len(got), (k, occupied)


def _brute_minimal_masks(g, k):
    """(coloring, its minimal masks) for every palette-orbit coloring of g
    into [k]: the minimal sets {v : c(v) != d(v)} over every other proper
    coloring d, listed by brute force."""
    n = g.n
    proper = [d for d in itertools.product(range(k), repeat=n)
              if all(d[u] != d[v] for u, v in g.edges())]
    for tup in canonical_colorings(g, k):
        diffs = {mask_of(v for v in range(n) if tup[v] != d[v]) for d in proper} - {0}
        yield tup, sorted(m for m in diffs if not any(s != m and not s & ~m for s in diffs))


def _brute_transversals(masks, n):
    """The minimal transversals of `masks`, by brute force over all vertex
    subsets."""
    hitting = {s for s in range(1 << n) if all(s & m for m in masks)}
    return [s for s in hitting if not any(s ^ 1 << v in hitting for v in bits(s))]


def test_difference_masks_match_definition(monkeypatch):
    # the lattice's critical sets are the minimal transversals of the
    # brute-force minimal masks; palettes shrink from an empty matching
    # table, so a cell pattern met first at a larger k is met again at a
    # smaller one
    monkeypatch.setattr("critsets.critical._MATCHINGS", {})
    small = [g for n in range(6) for g in enumerate_graphs(n)]
    for k in (4, 3, 2, 1):
        for g in small:
            if chromatic_number(g) > k:
                continue
            reps = list(canonical_colorings(g, k))
            for (tup, minimal), agree in zip(_brute_minimal_masks(g, k),
                                             _agreements(range(len(reps)), reps, k, g.n)):
                critical = _lattice_sets(_critical_sets(agree, g.n), g.n)
                assert critical == set(_brute_transversals(minimal, g.n)), (g.adj, k, tup)


def _old_transversal_witnesses(masks, n):
    """(scs, scs set, lcs, lcs set) over the minimal transversals of
    `masks`, listed by brute force over all vertex subsets and picked by
    the (size, sorted vertex list) key."""
    found = _brute_transversals(masks, n)
    scs = min(found, key=lambda m: (m.bit_count(), bits(m)))
    lcs = min(found, key=lambda m: (-m.bit_count(), bits(m)))
    return scs.bit_count(), scs, lcs.bit_count(), lcs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, (1 << n) - 1), max_size=7))))
def test_transversal_witnesses_are_lexicographically_least(case):
    # the agreement sets of masks M are their complements, so the lattice
    # gives the extremes of Tr(M); the reference MMCS walk gives them too
    n, masks = case
    expected = _old_transversal_witnesses(masks, n)
    assert _lattice_extremes(_critical_sets(_agreement_lattice(masks, n), n), n) == expected
    assert _extremes(_minimal_transversals(masks, n)) == expected


def _agreement_lattice(masks, n):
    """The lattice integer marking the complement of each mask."""
    agree = 0
    for m in masks:
        agree |= 1 << _lattice_index(((1 << n) - 1) ^ m, n)
    return agree


def _minimal_transversals(masks, n):
    """The minimal transversals of `masks`, by Murakami-Uno's MMCS walk:
    branch on the unhit mask with the fewest candidate vertices, forbid the
    earlier siblings, and cut when a chosen vertex has no private mask
    left."""
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
        else:
            for v in bits(min((masks[i] & cand for i in bits(unhit)), key=int.bit_count)):
                cand ^= 1 << v
                kept = [p & ~hits[v] for p in private]
                if all(kept):
                    stack.append((chosen | 1 << v, kept + [unhit & hits[v]], unhit & ~hits[v], cand))
    return found


def _extremes(found):
    """(scs, scs set, lcs, lcs set) over the sets `found`, or None if there
    are none; of two sets of one size, the lexicographically least vertex
    list is the one holding the lowest bit of their symmetric difference."""
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


def test_lattice_extremes_match_the_walk_at_and_above_16_positions():
    # up to 16 positions the shift masks come from the cached table and the
    # layers are read in one slice (at 16 exactly one full 2^16-bit slice);
    # past 16 the shift masks are built one at a time and the layers read in
    # 2^16-bit slices, which the hypothesis cases above never reach.  The
    # reference MMCS walk is the oracle here
    rng = random.Random(20)
    for n in (12, 16, 17, 18, 19, 20):
        for dense in (True, False) * 4:
            masks = [(rng.getrandbits(n) if dense else rng.getrandbits(n) & rng.getrandbits(n))
                     | 1 << rng.randrange(n) for _ in range(rng.randint(1, 7))]
            critical = _critical_sets(_agreement_lattice(masks, n), n)
            expected = _extremes(_minimal_transversals(masks, n))
            assert _lattice_extremes(critical, n) == expected, (n, masks)


def test_lazy_route_matches_brute_force_masks():
    # on every palette-orbit coloring of every graph on <= 5 vertices, at
    # k = chi and chi + 1, the lazy route's extremes and witnesses are those
    # of the minimal transversals of the brute-force minimal masks
    for n in range(6):
        for g in enumerate_graphs(n):
            chi = chromatic_number(g)
            for k in (chi, chi + 1):
                for tup, masks in _brute_minimal_masks(g, k):
                    expected = _old_transversal_witnesses(masks, g.n)
                    assert _lazy_extremes(g, Coloring(tup, k)) == expected, (g.adj, k, tup)


def test_lazy_route_closes_each_round_lattice_once(monkeypatch):
    # the round that adds no mask reads the extremes off its own critical
    # sets, so each lattice the route builds is closed and cut to its
    # critical sets once: one _critical_sets call per round, not rounds + 1.
    # Every C11 leader needs one round; latin:3 needs two on some leader
    lattices = []

    def critical_sets(agree, n):
        lattices.append(agree)
        return _critical_sets(agree, n)

    monkeypatch.setattr("critsets.critical._critical_sets", critical_sets)
    latin3 = cartesian_product(make_complete(3), make_complete(3))
    for g, k, most in ((make_cycle(11), 3, 1), (latin3, 3, 2)):
        tuples = list(canonical_colorings(g, k))
        counts = []
        for i in _orbit_leaders(g, tuples):
            del lattices[:]
            _lazy_extremes(g, Coloring(tuples[i], k))
            rounds = len(set(lattices))  # each round adds a mask, so its lattice is new
            assert len(lattices) == rounds, (g.adj, tuples[i])
            counts.append(rounds)
        assert max(counts) == most, (g.adj, counts)


def _differing(got, expected):
    """Positions where two lists of lattices differ (the lattices are too
    large to print)."""
    return [i for i, (a, b) in enumerate(zip(got, expected, strict=True)) if a != b]


def test_shared_pairs_give_each_owner_its_own_lattice():
    # a pair of two owners is worked once and its sets go to both; each
    # owner's lattice must be the one it gets alone, with every
    # representative owning (no orbit search) and with the orbit leaders
    # owning
    rng = random.Random(22)
    cases = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            k = chromatic_number(g)
            for comp in connected_components(g):
                sub = induced_subgraph(g, comp)[0]
                perm = list(range(sub.n))
                rng.shuffle(perm)
                cases.append((sub.relabel(perm), k))
    latin3 = cartesian_product(make_complete(3), make_complete(3))
    cases += [(sudoku_graph(2).graph, 4), (latin3, 3)]
    for g, k in cases:
        reps = list(canonical_colorings(g, k))
        alone = [next(_agreements([j], reps, k, g.n)) for j in range(len(reps))]
        assert _differing(_agreements(range(len(reps)), reps, k, g.n), alone) == [], (g.adj, k)
        leaders = _orbit_leaders(g, reps)
        assert _differing(_agreements(leaders, reps, k, g.n),
                          [alone[i] for i in leaders]) == [], (g.adj, k)


def test_every_board_has_its_representatives_critical_sets():
    # by definition: each of the 288 order-2 boards marks its agreement set
    # with each of the 287 other boards, which are all the other proper
    # 4-colorings, and its critical sets must be those of the kernel's
    # lattice for its palette form, the one the kernel works
    g = sudoku_graph(2).graph
    reps = list(canonical_colorings(g, 4))
    kernel = [_critical_sets(agree, 16)
              for agree in _agreements(range(len(reps)), reps, 4, 16)]
    boards = all_boards(2)
    assert len(boards) == 288
    classes = [_class_masks(board[::-1], 4) for board in boards]  # lattice order
    for board, own in zip(boards, classes):
        direct = 0
        for other in classes:
            if other is not own:
                direct |= 1 << (own[0] & other[0] | own[1] & other[1]
                                | own[2] & other[2] | own[3] & other[3])
        critical = _critical_sets(direct, 16)
        assert critical == kernel[reps.index(_palette_form(board))], board


def test_orbit_search_budget_changes_no_answer(monkeypatch):
    # a budget of 0 searches every component with more than one palette
    # orbit; a huge one searches none and owns every palette orbit
    searched = []

    def leaders(g, tuples):
        searched.append(g.n)
        return _orbit_leaders(g, tuples)

    monkeypatch.setattr("critsets.critical._orbit_leaders", leaders)
    cases = [(g, k) for n in range(7) for g in enumerate_graphs(n)
             for k in (chromatic_number(g), chromatic_number(g) + 1)]
    quads = []
    for budget in (0, 10**9):
        monkeypatch.setattr("critsets.critical.LATTICE_BUDGET", budget)
        searched.clear()
        quads.append([four_params(g, k) for g, k in cases])
        assert bool(searched) == (budget == 0)
    for (g, k), forced, free in zip(cases, *quads):
        assert forced.values() == free.values(), (g.adj, k)
        assert forced.witnesses == free.witnesses, (g.adj, k)


def test_lazy_and_kernel_routes_give_identical_rows(monkeypatch):
    # four_params' route is chosen by pair count alone, so each is forced in
    # turn (a given coloring takes the lazy route alone, and is checked
    # against the kernel in test_scs_lcs_for_coloring_on_relabelled_colorings);
    # sudoku:2, latin:3 and latin:4 need two lazy rounds, the cycles one;
    # latin:4 with a pendant vertex has 17 vertices, so the kernel's
    # lattice is past the cached tables and read in two slices, and with a
    # vertex joined to three cells of a row all 17 are colorful, so the
    # lazy route's lattice is too
    latin3 = cartesian_product(make_complete(3), make_complete(3))
    latin4 = cartesian_product(make_complete(4), make_complete(4))
    pendant = Graph(17, (latin4.adj[0] | 1 << 16, *latin4.adj[1:], 1))
    joined = Graph(17, (*(row | 1 << 16 for row in latin4.adj[:3]), *latin4.adj[3:], 0b111))
    rng = random.Random(14)
    cases = [(g, k) for n in range(7) for g in enumerate_graphs(n)
             for k in (chromatic_number(g), chromatic_number(g) + 1)]
    cases += [(make_cycle(9), 3), (make_cycle(11), 3), (make_cycle(13), 3),
              (sudoku_graph(2).graph, 4), (latin3, 3), (latin4, 4), (pendant, 4), (joined, 4)]
    for g, k in cases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = g.relabel(perm)
        rows = []
        for pairs in (-1, 10**9):
            monkeypatch.setattr("critsets.critical.LAZY_PAIRS", pairs)
            rows.append(list(_component_extremes(g, k, connected_components(g))))
        assert rows[0] == rows[1], (g.adj, k)


def test_no_lattice_table_above_16_positions_is_kept(monkeypatch):
    # a 20-position kernel run (K4 x K5, every vertex colorful) and a
    # 17-position lazy run (latin:4 joined as above) build their shift masks
    # one at a time, so afterwards the table cache holds no entry above 16
    sizes = []

    def critical_sets(agree, n):
        sizes.append(n)
        return _critical_sets(agree, n)

    monkeypatch.setattr("critsets.critical._critical_sets", critical_sets)
    latin4 = cartesian_product(make_complete(4), make_complete(4))
    joined = Graph(17, (*(row | 1 << 16 for row in latin4.adj[:3]), *latin4.adj[3:], 0b111))
    _lattice_tables.cache_clear()
    four_params(cartesian_product(make_complete(4), make_complete(5)))
    scs_lcs_for_coloring(joined, Coloring(next(canonical_colorings(joined, 4)), 4))
    assert set(sizes) == {20, 17}
    for n in range(17):  # every size the cache may hold, so it holds no other
        _lattice_tables(n)
    assert _lattice_tables.cache_info().currsize == 17


def _kernel_components(g, k):
    """Per connected component of g: its vertices, and {colors: (colors,
    scs, scs set, lcs, lcs set)} by the lattice kernel on every
    palette-orbit coloring, in enumeration order, each from its agreements
    with all of them: no orbit pruning and no lazy route."""
    components = []
    for comp in connected_components(g):
        sub, verts = induced_subgraph(g, comp)
        tuples = list(canonical_colorings(sub, k))
        lattices = _agreements(range(len(tuples)), tuples, k, sub.n)
        rows = {tup: (tup, *_lattice_extremes(_critical_sets(agree, sub.n), sub.n))
                for tup, agree in zip(tuples, lattices)}
        components.append((verts, rows))
    return components


def _kernel_scs_lcs(components, coloring):
    """(scs, lcs, scs set, lcs set) of `coloring` by the kernel: per
    `_kernel_components` component, the row of the palette form of its
    restriction, which has the same agreement sets, lifted to g."""
    scs = lcs = scs_set = lcs_set = 0
    for verts, rows in components:
        _, low, low_set, high, high_set = rows[_palette_form(coloring.colors[v] for v in verts)]
        scs += low
        lcs += high
        scs_set |= mask_of(verts[j] for j in bits(low_set))
        lcs_set |= mask_of(verts[j] for j in bits(high_set))
    return scs, lcs, scs_set, lcs_set


def _unpruned_four_params(g, k):
    """{name: (value, coloring, set)} by the lattice kernel on every
    palette-orbit coloring of each component, with no orbit pruning: per
    component the first coloring attaining each extreme, with its least
    set, lifted to g."""
    components = _kernel_components(g, k)
    out = {}
    for name, pick, i in zip(PARAM_NAMES, (min, max, min, max), (1, 1, 3, 3)):
        total, colors, subset = 0, [0] * g.n, 0
        for verts, rows in components:
            row = pick(rows.values(), key=lambda r: r[i])
            total += row[i]
            for j, v in enumerate(verts):
                colors[v] = row[0][j]
            for j in bits(row[i + 1]):
                subset |= 1 << verts[j]
        out[name] = (total, Coloring(tuple(colors), k), subset)
    return out


def test_orbit_pruning_changes_no_answer():
    # one coloring per Aut x S_k orbit gives the values and all four
    # witnesses of the walk over every palette-orbit coloring
    # k = Delta + 2 takes the closed form, with no enumeration
    cases = [(g, k) for n in range(7) for g in enumerate_graphs(n)
             for k in (chromatic_number(g), chromatic_number(g) + 1,
                       max(map(len, g.neighbor_lists), default=0) + 2)]
    rng = random.Random(11)
    for g in (make_cycle(9), make_cycle(11), sudoku_graph(2).graph):
        perm = list(range(g.n))
        rng.shuffle(perm)
        cases.append((g.relabel(perm), chromatic_number(g)))
    for g, k in cases:
        quad = four_params(g, k)
        for name, (value, coloring, subset) in _unpruned_four_params(g, k).items():
            assert getattr(quad, name) == value, (g.adj, k, name)
            assert quad.witnesses[name] == (coloring, subset), (g.adj, k, name)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, kept in zip(pairs, keep) if kept])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_graphs())
def test_four_params_matches_definitions_on_random_graphs(g):
    from conftest import brute_force_four_params

    assert four_params(g).values() == brute_force_four_params(g)


def test_paw_is_the_small_nonuniform_exception():
    # complement(K1 u P3): the one graph on <=4 vertices whose critical sets
    # are not all the same size; coloring (0,1,1,2) has criticals {2,3} and
    # {0,1,2}
    from conftest import PAW_TRUE_QUAD, brute_force_four_params
    from critsets.graphs import complement, disjoint_union

    paw = complement(disjoint_union(make_empty(1), make_path(3)))
    assert brute_force_four_params(paw) == PAW_TRUE_QUAD
    assert four_params(paw).values() == PAW_TRUE_QUAD
    assert four_params(paw).uniform_value() is None
    coloring = Coloring((0, 1, 1, 2), 3)
    assert is_critical(paw, coloring, mask_of([2, 3])).minimal
    assert is_critical(paw, coloring, mask_of([0, 1, 2])).minimal


def test_prop1_and_converse_on_small_atlas():
    for n in range(6):
        for g in enumerate_graphs(n):
            rec = record_for_graph(g)
            assert rec.chi == chromatic_number(g)
            assert rec.uniquely_colorable == is_uniquely_colorable(g)
            assert implication_holds("prop1", rec)
            assert implication_holds("converse", rec)


def test_pendant_triangle_is_uniform_but_not_uniquely_colorable():
    g = add_pendant_to_each(make_complete(3))
    assert four_params(g).uniform_value() == 4
    assert not is_uniquely_colorable(g)
    assert chromatic_number(g) == 3
    # uniform value 4 != chi - 1, so the converse implication is not tested by it
    assert implication_holds("converse", record_for_graph(g))


def test_size_limit_and_override():
    # C21's chi needs a count on 21 vertices; K21's does not, but its one
    # component is over the per-component cap
    with pytest.raises(SizeLimitError):
        four_params(make_cycle(21))
    k21 = make_complete(21)
    with pytest.raises(SizeLimitError, match="20 vertices per component"):
        four_params(k21)
    # a given coloring is capped by its colorful vertices, here all 21
    with pytest.raises(SizeLimitError,
                       match=r"^exact search capped at 20 colorful vertices per component \(got 21\)$"):
        scs_lcs_for_coloring(k21, Coloring(tuple(range(21)), 21))
    from critsets.graphs import disjoint_union

    # the cap is per component, so 21 vertices in seven triangles need no override
    seven_triangles = make_complete(3)
    for _ in range(6):
        seven_triangles = disjoint_union(seven_triangles, make_complete(3))
    assert seven_triangles.n == 21
    assert four_params(seven_triangles).values() == (14, 14, 14, 14)
    # chi of five disjoint C5 (25 vertices) needs a count: per component
    five_c5 = make_cycle(5)
    for _ in range(4):
        five_c5 = disjoint_union(five_c5, make_cycle(5))
    assert four_params(five_c5).values() == (15, 15, 20, 20)


def test_over_cap_component_is_refused_before_chi(monkeypatch):
    # the cap is checked on every component before chromatic_number runs, so
    # an input such as latin:100 is refused on its size, not after greedy
    # passes over 10000 vertices
    def no_chi(g):
        raise AssertionError("chromatic_number ran on an over-cap input")

    monkeypatch.setattr("critsets.critical.chromatic_number", no_chi)
    with pytest.raises(SizeLimitError, match=r"20 vertices per component \(got 21\)"):
        four_params(make_complete(21))
