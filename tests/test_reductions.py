import io
import json
import random
from math import comb

import pytest

from critsets.coloring import (
    Coloring,
    canonical_colorings,
    chromatic_number,
    colorful_vertices,
    sample_proper_coloring,
)
from critsets.critical import forced_vertices, four_params, is_determining
from critsets.errors import InvalidParameterError, SizeLimitError
from critsets.graphs import (
    Graph,
    bits,
    cartesian_product,
    enumerate_graphs,
    is_bipartite,
    make_complete,
    make_cycle,
    make_empty,
    make_path,
)
from critsets.reductions import (
    ReductionInstance,
    proof_coloring_olcs,
    proof_coloring_ulcs,
    reduce_olcs,
    gadget_order,
    reduce_ulcs,
    verify_instance,
    verify_reduction_small,
)


def test_ulcs_instance_sizes():
    inst = reduce_ulcs(make_complete(3))
    assert (inst.graph.n, inst.k) == (27, 9)
    inst = reduce_ulcs(make_complete(2))
    assert (inst.graph.n, inst.k) == (9, 6)
    inst = reduce_ulcs(make_empty(3))
    assert inst.graph.n == 6 and inst.graph.m == 3  # isolated vertices plus triangle
    assert not inst.vertices_with_kind("V2")


def test_olcs_instance_sizes():
    inst = reduce_olcs(make_path(3))
    assert (inst.graph.n, inst.k) == (13, 8)
    assert len(inst.vertices_with_kind("V1")) == 4
    assert len(inst.vertices_with_kind("V2")) == 6
    inst = reduce_olcs(make_complete(3))
    assert (inst.graph.n, inst.k) == (33, 26)
    inst = reduce_olcs(make_complete(2))
    assert inst.k == 2 and not inst.vertices_with_kind("V2")


def test_size_formulas_small_inputs():
    for h in enumerate_graphs(5):
        n, m = h.n, h.m
        inst = reduce_ulcs(h)
        assert inst.graph.n == gadget_order(h, "ulcs") == n + m * (m + n + 1) + 3
        assert inst.graph.m == 2 * m * (m + n + 1) + 3
        assert inst.k == m + n + 3
        pair_sum = sum(comb(h.degree(v), 2) for v in range(n))
        inst = reduce_olcs(h)
        assert inst.graph.n == gadget_order(h, "olcs") == 2 * m + (2 * m + 2) * pair_sum + 3
        assert inst.graph.m == m + (2 * m + 2) * pair_sum + 3
        assert inst.k == (2 * m + 2) * pair_sum + 2


def test_instance_structure():
    inst = reduce_ulcs(make_complete(3))
    g = inst.graph
    v1 = inst.vertices_with_kind("V1")
    assert all(not g.has_edge(u, w) for u in v1 for w in v1 if u != w)
    v3 = inst.vertices_with_kind("V3")
    assert all(g.has_edge(u, w) for u in v3 for w in v3 if u != w)
    core = sum(1 << v for v in v1 + inst.vertices_with_kind("V2"))
    from critsets.graphs import induced_subgraph

    sub, _ = induced_subgraph(g, core)
    assert is_bipartite(sub)
    assert chromatic_number(g) == 3
    # the 619-vertex gadget of K7: its triangle matches first-fit, so chi
    # needs no count and no cap applies
    assert chromatic_number(reduce_ulcs(make_complete(7)).graph) == 3

    inst = reduce_olcs(make_path(3))
    for y in inst.vertices_with_kind("V2"):
        assert inst.graph.degree(y) == 1


def test_proof_coloring_ulcs():
    inst = reduce_ulcs(make_complete(3))
    c3 = Coloring((0, 1, 2), 3)
    lifted = proof_coloring_ulcs(inst, c3)
    assert lifted.is_proper(inst.graph)
    rainbow = colorful_vertices(inst.graph, lifted)
    v2 = inst.vertices_with_kind("V2")
    assert all(rainbow >> v & 1 for v in v2)
    corners = [lifted.colors[v] for v in inst.vertices_with_kind("V3")]
    assert sorted(corners) == [0, 1, 2]
    with pytest.raises(InvalidParameterError):
        proof_coloring_ulcs(inst, Coloring((0, 0, 1), 3))
    with pytest.raises(InvalidParameterError):
        proof_coloring_olcs(inst, c3)


def test_proof_coloring_olcs():
    inst = reduce_olcs(make_path(3))
    c3 = Coloring((1, 0, 1), 3)  # center vertex 1 colored 0
    lifted = proof_coloring_olcs(inst, c3)
    assert lifted.is_proper(inst.graph)
    rainbow = colorful_vertices(inst.graph, lifted)
    for y in inst.vertices_with_kind("V2"):
        _, fields = inst.roles[y]
        assert fields[0] == 1  # all replicas sit at the degree-2 center
        assert lifted.colors[y] == 1  # least color other than 0
        assert not rainbow >> y & 1  # degree-1 vertices see only two colors


def test_proof_colorings_check_variant_and_source_coloring():
    ulcs, olcs = reduce_ulcs(make_path(3)), reduce_olcs(make_path(3))
    c3 = Coloring((1, 0, 1), 3)
    with pytest.raises(InvalidParameterError, match="not the min-lcs variant"):
        proof_coloring_ulcs(olcs, c3)
    with pytest.raises(InvalidParameterError, match="not the max-lcs variant"):
        proof_coloring_olcs(ulcs, c3)
    for inst, lift in ((ulcs, proof_coloring_ulcs), (olcs, proof_coloring_olcs)):
        for bad in (Coloring((1, 0), 3), Coloring((1, 0, 1, 0), 3), Coloring((1, 0, 1), 2)):
            with pytest.raises(InvalidParameterError, match="expected a 3-coloring"):
                lift(inst, bad)
        with pytest.raises(InvalidParameterError, match="source coloring is not proper"):
            lift(inst, Coloring((1, 1, 0), 3))


def test_forced_vertices():
    k4 = make_complete(4)
    coloring = Coloring((0, 1, 2, 3), 4)
    assert forced_vertices(k4, coloring) == 0

    inst = reduce_olcs(make_path(3))
    lifted = proof_coloring_olcs(inst, Coloring(next(canonical_colorings(make_path(3), 3)), 3))
    forced = forced_vertices(inst.graph, lifted)
    for y in inst.vertices_with_kind("V2"):
        assert forced >> y & 1

    # a coloring of the min-lcs instance whose induced assignment makes an
    # H-edge monochromatic forces every replica of that edge
    inst = reduce_ulcs(make_complete(2))
    replicas = inst.vertices_with_kind("V2")
    colors = [0, 0] + [1] * len(replicas) + [0, 1, 2]
    coloring = Coloring(tuple(colors), 3)
    assert coloring.is_proper(inst.graph)
    forced = forced_vertices(inst.graph, coloring)
    for r in replicas:
        assert forced >> r & 1

    # v is forced exactly when the rest of V does not determine the coloring
    cases = [
        (g, Coloring(tup, k))
        for n in range(6)
        for g in enumerate_graphs(n)
        for k in (chromatic_number(g), chromatic_number(g) + 1)
        for tup in canonical_colorings(g, k)
    ]
    rng = random.Random(0)
    for h in (make_complete(3), make_complete(4), make_path(3), make_cycle(5)):
        for g in (reduce_ulcs(h).graph, reduce_olcs(h).graph):
            cases += [(g, sample_proper_coloring(g, 3, rng)) for _ in range(3)]
    for g, coloring in cases:
        full = (1 << g.n) - 1
        expected = sum(1 << v for v in range(g.n)
                       if not is_determining(g, coloring, full ^ 1 << v))
        assert forced_vertices(g, coloring) == expected


def test_forced_vertices_lie_in_every_witness():
    inst = reduce_ulcs(make_complete(2))
    quad = four_params(inst.graph)
    for coloring, subset in quad.witnesses.values():
        assert forced_vertices(inst.graph, coloring) & ~subset == 0


def test_verify_full_mode():
    rep = verify_reduction_small(make_complete(2), "ulcs")
    assert rep.mode == "full" and rep.consistent
    assert rep.h_three_colorable and rep.exact_value < rep.k
    rep = verify_reduction_small(make_path(3), "olcs")
    assert rep.mode == "full" and rep.consistent
    assert rep.h_three_colorable and rep.exact_value >= rep.k


def test_verify_certificate_modes():
    rep = verify_reduction_small(make_complete(4), "ulcs", samples=20, seed=1)
    assert rep.mode == "certificate" and rep.consistent
    assert not rep.h_three_colorable

    rep = verify_reduction_small(make_path(3), "olcs", mode="certificate", seed=1)
    assert rep.consistent and rep.h_three_colorable

    rep = verify_reduction_small(make_complete(3), "ulcs", mode="certificate")
    assert rep.consistent and rep.h_three_colorable

    rep = verify_reduction_small(make_complete(4), "olcs", mode="certificate", samples=5, seed=2)
    assert rep.consistent and not rep.h_three_colorable

    # G has 1047 vertices, more than the interpreter's recursion limit, so
    # sampling a coloring must not recurse once per vertex
    rep = verify_reduction_small(make_complete(8), "ulcs")
    assert rep.g_vertices == 1047 and rep.consistent

    # the 2091-vertex gadget of K3 x K3: pruning the lifted coloring must
    # leave a certified critical set of 2079 vertices, above k = 2054
    rep = verify_reduction_small(cartesian_product(make_complete(3), make_complete(3)), "olcs")
    assert rep.mode == "certificate" and rep.consistent
    assert (rep.g_vertices, rep.k) == (2091, 2054)
    assert rep.detail.startswith("certified critical set of size 2079 ")


def _ulcs_by_hand(h, replicas, triangle=True):
    """The min-lcs gadget of h with `replicas` replicas per edge and the
    theorem's k = m + n + 3."""
    roles = [("V1", (v,)) for v in range(h.n)]
    edges = []
    for e in h.edges():
        for j in range(1, replicas + 1):
            edges += [(e[0], len(roles)), (e[1], len(roles))]
            roles.append(("V2", (e, j)))
    if triangle:
        t = len(roles)
        edges += [(t, t + 1), (t, t + 2), (t + 1, t + 2)]
        roles += [("V3", (j,)) for j in (1, 2, 3)]
    return ReductionInstance("ulcs", h, Graph.from_edges(len(roles), edges),
                             h.m + h.n + 3, tuple(roles))


def test_ulcs_certificate_counts_forced_replicas_against_k():
    # H = K4 is not 3-colorable; m + n + 1 = 11 forced replicas of a
    # monochromatic edge and 2 triangle corners reach k = 13
    h = make_complete(4)
    assert _ulcs_by_hand(h, 11) == reduce_ulcs(h)
    assert verify_instance(_ulcs_by_hand(h, 11), "certificate", samples=5).consistent
    rep = verify_instance(_ulcs_by_hand(h, 10), "certificate", samples=5)
    assert not rep.consistent
    assert rep.detail.startswith("10 forced replicas of edge (")
    assert rep.detail.endswith(" and 2 triangle corners fall short of k=13")
    rep = verify_instance(_ulcs_by_hand(h, 11, triangle=False), "certificate", samples=5)
    assert not rep.consistent and " and 0 triangle corners " in rep.detail


def test_verify_caps_h_at_max_vertices():
    # H is capped at MAX_VERTICES (20) even when its chi needs no count
    instance = reduce_ulcs(make_complete(21))
    with pytest.raises(SizeLimitError, match="caps H at 20 vertices"):
        verify_instance(instance)
    assert verify_instance(reduce_ulcs(make_complete(5))).consistent


def test_verify_auto_runs_full_mode_up_to_the_cap():
    # the 18-vertex gadget of P3 is the only one with 15-20 vertices
    rep = verify_reduction_small(make_path(3), "ulcs")
    assert rep.g_vertices == 18 and rep.mode == "full" and rep.consistent
    assert (rep.exact_value, rep.k) == (5, 8)


def test_gadget_order_refuses_graph6_overflow():
    # K31's min-lcs gadget has 231139 vertices and K32's 262419, over the
    # 258047 that graph6 can write; K14's max-lcs gadget 201113, K15's 289593
    assert gadget_order(make_complete(31), "ulcs") == 231139
    assert gadget_order(make_complete(14), "olcs") == 201113
    for h, variant in ((make_complete(32), "ulcs"), (make_complete(15), "olcs")):
        with pytest.raises(SizeLimitError, match="over the graph6 limit of 258047"):
            gadget_order(h, variant)
    with pytest.raises(InvalidParameterError):
        gadget_order(make_complete(3), "xlcs")


def test_role_map_json():
    inst = reduce_olcs(make_path(3))
    data = inst.role_map_json()
    assert data["variant"] == "olcs" and data["k"] == 8
    assert len(data["roles"]) == 13
    kinds = {info["kind"] for info in data["roles"].values()}
    assert kinds == {"V1", "V2", "V3"}
    sample = data["roles"][str(inst.vertices_with_kind("V2")[0])]
    assert {"kind", "vertex", "edge", "other_edge", "replica"} <= set(sample)


def test_role_map_writer_matches_json_dump():
    for h in (make_empty(1), make_path(3), make_complete(4), make_cycle(5)):
        for inst in (reduce_ulcs(h), reduce_olcs(h)):
            out = io.StringIO()
            inst.write_role_map(out)
            assert out.getvalue() == json.dumps(inst.role_map_json(), indent=2), (
                inst.variant, h.adj)


def test_sampled_colorings_on_gadgets_are_proper():
    inst = reduce_ulcs(make_complete(4))
    rng = random.Random(0)
    for _ in range(3):
        c = sample_proper_coloring(inst.graph, 3, rng)
        assert c.is_proper(inst.graph)
