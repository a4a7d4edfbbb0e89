import pytest

from critsets.critical import four_params, is_critical, scs_lcs_for_coloring
from critsets.errors import InvalidParameterError
from critsets.formulas import (
    bipartite_params,
    cycle_params,
    proof_coloring_cycle,
    uniquely_colorable_params,
)
from critsets.graphs import (
    atlas_graphs,
    cartesian_product,
    disjoint_union,
    is_bipartite,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
)


def test_cycle_values():
    assert cycle_params(5).values() == (3, 3, 4, 4)
    assert cycle_params(7).values() == (4, 5, 4, 6)
    assert cycle_params(6).values() == (1, 1, 1, 1)
    assert cycle_params(3).values() == (2, 2, 2, 2)
    with pytest.raises(InvalidParameterError):
        cycle_params(2)


def test_cycle_formulas_match_engine():
    for n in range(3, 18):
        assert cycle_params(n).values() == four_params(make_cycle(n)).values(), n


def test_bipartite_values():
    assert bipartite_params(make_path(4)).values() == (1, 1, 1, 1)
    two_k2 = disjoint_union(make_complete(2), make_complete(2))
    assert bipartite_params(two_k2).values() == (2, 2, 2, 2)
    assert bipartite_params(make_empty(3)).values() == (0, 0, 0, 0)
    mixed = disjoint_union(make_empty(1), make_complete(2))
    assert bipartite_params(mixed).values() == (2, 2, 2, 2)
    with pytest.raises(InvalidParameterError):
        bipartite_params(make_cycle(5))


def test_bipartite_rule_matches_engine_up_to_seven_vertices():
    for n in range(8):
        for g in atlas_graphs(n):
            if is_bipartite(g):
                assert bipartite_params(g).values() == four_params(g).values(), g.adj


def test_bipartite_witnesses_certify():
    for g in [make_path(4), disjoint_union(make_empty(1), make_complete(2)),
              disjoint_union(make_cycle(4), make_path(3))]:
        quad = bipartite_params(g)
        coloring, subset = quad.witnesses["uscs"]
        cert = is_critical(g, coloring, subset)
        assert cert.determining and cert.minimal


def test_uniquely_colorable_values():
    assert uniquely_colorable_params(make_complete(4)).values() == (3, 3, 3, 3)
    assert uniquely_colorable_params(make_complete(2)).values() == (1, 1, 1, 1)
    assert uniquely_colorable_params(make_path(5)).values() == (1, 1, 1, 1)
    with pytest.raises(InvalidParameterError):
        uniquely_colorable_params(make_cycle(5))
    quad = uniquely_colorable_params(make_complete(4))
    coloring, subset = quad.witnesses["olcs"]
    cert = is_critical(make_complete(4), coloring, subset)
    assert cert.determining and cert.minimal


def test_uniquely_colorable_rule_matches_engine():
    from critsets.coloring import is_uniquely_colorable

    for n in range(7):
        for g in atlas_graphs(n):
            if g.n and is_uniquely_colorable(g):
                assert uniquely_colorable_params(g).values() == four_params(g).values()


def test_latin_square_generator_values():
    latin2 = cartesian_product(make_complete(2), make_complete(2))
    assert bipartite_params(latin2).uscs == 1
    latin3 = cartesian_product(make_complete(3), make_complete(3))
    quad = four_params(latin3)
    assert quad.uscs <= quad.oscs <= quad.olcs
    assert quad.uscs <= quad.ulcs <= quad.olcs


def test_proof_coloring_examples():
    coloring, subset = proof_coloring_cycle(5, "olcs")
    assert coloring.colors == (0, 1, 0, 1, 2)
    assert subset == 0b01111
    coloring, subset = proof_coloring_cycle(9, "uscs")
    assert coloring.colors == tuple(j % 3 for j in range(9))
    assert subset.bit_count() == 5
    coloring, subset = proof_coloring_cycle(7, "ulcs")
    res = scs_lcs_for_coloring(make_cycle(7), coloring)
    assert res.lcs == 4 and subset.bit_count() == 4


def test_proof_colorings_are_critical_with_theorem_sizes():
    for n in (5, 7, 9, 11, 13, 15):
        quad = cycle_params(n)
        expected = {"uscs": quad.uscs, "olcs": quad.olcs, "ulcs": quad.ulcs}
        g = make_cycle(n)
        for which, size in expected.items():
            coloring, subset = proof_coloring_cycle(n, which)
            assert coloring.is_proper(g)
            assert subset.bit_count() == size, (n, which)
            cert = is_critical(g, coloring, subset)
            assert cert.determining and cert.minimal, (n, which)


def test_proof_coloring_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        proof_coloring_cycle(4, "uscs")
    with pytest.raises(InvalidParameterError):
        proof_coloring_cycle(3, "olcs")
    with pytest.raises(InvalidParameterError):
        proof_coloring_cycle(7, "oscs")
