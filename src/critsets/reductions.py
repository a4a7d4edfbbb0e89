"""Gadget instances reducing 3-colorability to threshold questions about
the smallest-maximum and largest-maximum critical set parameters.

Both constructions take an input graph H with n vertices and m edges and
emit (G, k) plus per-vertex role labels:

* min-lcs variant: V1 is a copy of V(H) as an independent set, V2 holds
  m+n+1 replicas per edge of H (each replica adjacent to the edge's two
  endpoints), V3 is a disjoint triangle; k = m + n + 3.  The threshold
  k is reached iff H is not 3-colorable.
* max-lcs variant: V1 holds one vertex per (vertex, incident edge) pair of
  H, joined across each edge; V2 holds 2m+2 degree-1 replicas per
  unordered pair of distinct edges at a common vertex, each hanging off
  the pair's first incidence vertex; V3 is a disjoint triangle;
  k = (2m+2) * sum_v C(deg v, 2) + 2.  The threshold is reached iff H is
  3-colorable.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import NamedTuple

from .coloring import (
    MAX_VERTICES,
    Coloring,
    canonical_colorings,
    chromatic_number,
    colorful_vertices,
    sample_proper_coloring,
)
from .critical import four_params, is_critical, prune_to_critical
from .errors import InvalidParameterError, SizeLimitError
from .graphs import _G6_MAX_LONG, Graph

ULCS = "ulcs"
OLCS = "olcs"


# The field names of each role kind, per variant.  A role is a plain
# (kind, fields) tuple; `role_map_json` pairs its fields with these names.
_ROLE_KEYS = {
    ULCS: {"V1": ("vertex",), "V2": ("edge", "replica"), "V3": ("corner",)},
    OLCS: {"V1": ("vertex", "edge"), "V2": ("vertex", "edge", "other_edge", "replica"),
           "V3": ("corner",)},
}


class ReductionInstance(NamedTuple):
    variant: str
    source: Graph
    graph: Graph
    k: int
    roles: tuple[tuple[str, tuple], ...]  # (kind V1/V2/V3, fields) per vertex

    def vertices_with_kind(self, kind: str) -> list[int]:
        return [v for v, role in enumerate(self.roles) if role[0] == kind]

    def role_map_json(self) -> dict:
        keys = _ROLE_KEYS[self.variant]
        return {
            "variant": self.variant,
            "k": self.k,
            "source_vertices": self.source.n,
            "source_edges": self.source.m,
            "roles": {str(v): {"kind": kind, **dict(zip(keys[kind], fields))}
                      for v, (kind, fields) in enumerate(self.roles)},
        }

    def write_role_map(self, fh) -> None:
        """Write `role_map_json()` to fh byte for byte as
        `json.dump(..., fh, indent=2)` does, one `fh.write` per role,
        without building the map or running json's pure-Python encoder
        (the one `indent` selects)."""
        fh.write(f'{{\n  "variant": "{self.variant}",\n  "k": {self.k},\n'
                 f'  "source_vertices": {self.source.n},\n'
                 f'  "source_edges": {self.source.m},\n  "roles": {{')
        heads = {kind: [f',\n      "{key}": ' for key in names]
                 for kind, names in _ROLE_KEYS[self.variant].items()}
        lists: dict[tuple, str] = {}  # each tuple field's text, built once
        sep = "\n"
        for v, (kind, fields) in enumerate(self.roles):
            parts = [f'{sep}    "{v}": {{\n      "kind": "{kind}"']
            for head, x in zip(heads[kind], fields):
                if x.__class__ is tuple:
                    text = lists.get(x)
                    if text is None:
                        text = lists[x] = "[\n        " + ",\n        ".join(map(str, x)) + "\n      ]"
                    parts += (head, text)
                else:
                    parts += (head, str(x))
            parts.append("\n    }")
            fh.write("".join(parts))
            sep = ",\n"
        fh.write("\n  }\n}")


def _add_triangle(num: int, edges: list, roles: list):
    roles += [("V3", (j,)) for j in (1, 2, 3)]
    edges += [(num, num + 1), (num, num + 2), (num + 1, num + 2)]


def gadget_order(h: Graph, variant: str) -> int:
    """|V(G)| of the `variant` instance of h from the closed forms, without
    building it; `SizeLimitError` above what graph6 can write."""
    n, m = h.n, h.m
    if variant == ULCS:
        order = n + m * (m + n + 1) + 3
    elif variant == OLCS:
        order = 2 * m + (2 * m + 2) * sum(comb(len(row), 2) for row in h.neighbor_lists) + 3
    else:
        raise InvalidParameterError(f"unknown variant {variant!r}")
    if order > _G6_MAX_LONG:
        raise SizeLimitError(
            f"{variant} gadget of {order} vertices is over the graph6 limit of {_G6_MAX_LONG}")
    return order


def reduce_ulcs(h: Graph) -> ReductionInstance:
    """Instance whose min-lcs reaches k = m+n+3 iff h is not 3-colorable."""
    n, m = h.n, h.m
    replicas = m + n + 1
    roles = [("V1", (v,)) for v in range(n)]
    edges: list[tuple[int, int]] = []
    idx = n
    for e in h.edges():
        u, w = e
        for j in range(1, replicas + 1):
            roles.append(("V2", (e, j)))
            edges.append((u, idx))
            edges.append((w, idx))
            idx += 1
    _add_triangle(idx, edges, roles)
    return ReductionInstance(ULCS, h, Graph.from_edges(idx + 3, edges), m + n + 3, tuple(roles))


def reduce_olcs(h: Graph) -> ReductionInstance:
    """Instance whose max-lcs reaches k iff h is 3-colorable."""
    m = h.m
    replicas = 2 * m + 2
    incident = [sorted((min(u, w), max(u, w)) for w in ws) for u, ws in enumerate(h.neighbor_lists)]
    roles = []
    x_index: dict[tuple[int, tuple[int, int]], int] = {}
    idx = 0
    for v in range(h.n):
        for e in incident[v]:
            x_index[(v, e)] = idx
            roles.append(("V1", (v, e)))
            idx += 1
    edges = [(x_index[(u, (u, w))], x_index[(w, (u, w))]) for u, w in h.edges()]
    for v in range(h.n):
        for e, f in combinations(incident[v], 2):
            for j in range(1, replicas + 1):
                roles.append(("V2", (v, e, f, j)))
                edges.append((x_index[(v, e)], idx))
                idx += 1
    _add_triangle(idx, edges, roles)
    k = replicas * sum(comb(len(incident[v]), 2) for v in range(h.n)) + 2
    return ReductionInstance(OLCS, h, Graph.from_edges(idx + 3, edges), k, tuple(roles))


def _check_h_coloring(h: Graph, c3: Coloring):
    if c3.k != 3 or len(c3.colors) != h.n:
        raise InvalidParameterError("expected a 3-coloring of the source graph")
    if not c3.is_proper(h):
        raise InvalidParameterError("source coloring is not proper")


def _proof_coloring(instance: ReductionInstance, c3: Coloring, variant: str,
                    replica_color) -> Coloring:
    """V1 vertices copy their source vertex (field 0), replicas take
    `replica_color(colors, fields)`, and the triangle takes 0,1,2."""
    if instance.variant != variant:
        name = "min-lcs" if variant == ULCS else "max-lcs"
        raise InvalidParameterError(f"instance is not the {name} variant")
    _check_h_coloring(instance.source, c3)
    cs = c3.colors
    return Coloring(tuple(
        cs[f[0]] if kind == "V1" else replica_color(cs, f) if kind == "V2" else f[0] - 1
        for kind, f in instance.roles), 3)


def proof_coloring_ulcs(instance: ReductionInstance, c3: Coloring) -> Coloring:
    """Lift a proper 3-coloring of H: each edge replica takes the color
    missing from its endpoints (3 minus their sum); the triangle takes
    0,1,2."""
    return _proof_coloring(instance, c3, ULCS, lambda cs, f: 3 - cs[f[0][0]] - cs[f[0][1]])


def proof_coloring_olcs(instance: ReductionInstance, c3: Coloring) -> Coloring:
    """Lift a proper 3-coloring of H: incidence vertices copy their source
    vertex; each replica takes the least color different from it."""
    return _proof_coloring(instance, c3, OLCS, lambda cs, f: 1 if cs[f[0]] == 0 else 0)


class ReductionReport(NamedTuple):
    variant: str
    h_vertices: int
    h_edges: int
    g_vertices: int
    g_edges: int
    k: int
    h_three_colorable: bool
    mode: str
    exact_value: int | None
    consistent: bool
    detail: str


def verify_reduction_small(h: Graph, variant: str, mode: str = "auto", samples: int = 20,
                           seed: int = 0) -> ReductionReport:
    """Build the `variant` instance of h and check it with `verify_instance`."""
    gadget_order(h, variant)  # rejects an unknown variant, and a gadget graph6 cannot write
    instance = reduce_ulcs(h) if variant == ULCS else reduce_olcs(h)
    return verify_instance(instance, mode, samples, seed)


def check_verify_inputs(h: Graph, samples: int) -> bool:
    """Whether h is 3-colorable, after rejecting a sample count below 1 and
    an h over `MAX_VERTICES`.  `verify_instance` starts with this; it needs
    no gadget, so the CLI calls it before building one."""
    if samples < 1:
        raise InvalidParameterError(f"samples must be at least 1 (got {samples})")
    if h.n > MAX_VERTICES:
        raise SizeLimitError(f"verification caps H at {MAX_VERTICES} vertices (got {h.n})")
    return h.n == 0 or chromatic_number(h) <= 3


def verify_instance(instance: ReductionInstance, mode: str = "auto", samples: int = 20,
                    seed: int = 0) -> ReductionReport:
    """Check a built instance against its theorem at feasible scale.

    Full mode computes the exact parameter of G and tests the biconditional
    against 3-colorability of H; "auto" picks it when G has at most
    `MAX_VERTICES` vertices.  Certificate mode checks the direction the
    construction proves explicitly: on each sample, the forced (not
    colorful) replicas of a monochromatic edge plus the 2 corners of the
    triangle component, all held by every determining set, reach k
    (min-lcs variant, H not 3-colorable), or a certified critical set of
    size >= k containing all replicas (max-lcs variant, H 3-colorable).
    The sampled checks take `samples` seeded colorings, at least one.
    """
    variant, h, g = instance.variant, instance.source, instance.graph
    three_col = check_verify_inputs(h, samples)
    if mode == "auto":
        mode = "full" if g.n <= MAX_VERTICES else "certificate"
    value = None
    rng = random.Random(seed)

    if mode == "full":
        quad = four_params(g)
        value = quad.ulcs if variant == ULCS else quad.olcs
        reaches = value >= instance.k
        ok = reaches == ((not three_col) if variant == ULCS else three_col)
        detail = f"exact {variant}={value}, threshold k={instance.k}, reaches={reaches}"

    elif mode != "certificate":
        raise InvalidParameterError(f"unknown mode {mode!r}")

    elif variant == ULCS and not three_col:
        replicas_by_edge: dict[tuple[int, int], list[int]] = {}
        for v, (kind, fields) in enumerate(instance.roles):
            if kind == "V2":
                replicas_by_edge.setdefault(fields[0], []).append(v)
        triangle = instance.vertices_with_kind("V3")
        whole = sum(1 << v for v in triangle)
        corners = 2 if len(triangle) == 3 and all(g.adj[v] | 1 << v == whole for v in triangle) else 0
        ok, detail = True, f"{samples} sampled colorings: monochromatic-edge replicas all forced"
        for _ in range(samples):
            c = sample_proper_coloring(g, 3, rng)
            mono = next(((u, w) for u, w in h.edges() if c.colors[u] == c.colors[w]), None)
            if mono is None:
                ok, detail = False, "sampled coloring induced a proper 3-coloring of H"
                break
            replicas = replicas_by_edge.get(mono, [])
            forced = len(replicas) - colorful_vertices(g, c, replicas).bit_count()
            if forced + corners < instance.k:
                ok, detail = False, (f"{forced} forced replicas of edge {mono} and {corners} "
                                     f"triangle corners fall short of k={instance.k}")
                break

    elif variant == OLCS and three_col:
        c3 = Coloring(next(canonical_colorings(h, 3)), 3)
        lifted = proof_coloring_olcs(instance, c3)
        v1 = instance.vertices_with_kind("V1")
        v2 = instance.vertices_with_kind("V2")
        v3 = instance.vertices_with_kind("V3")
        subset = prune_to_critical(g, lifted, v1 + v3 + v2)
        ok = (
            is_critical(g, lifted, subset).minimal
            and subset.bit_count() >= instance.k
            and all(subset >> v & 1 for v in v2)
            and sum(subset >> v & 1 for v in v3) == 2
        )
        detail = (f"certified critical set of size {subset.bit_count()} >= k={instance.k} "
                  "containing every replica and two triangle corners")

    elif variant == ULCS:  # and H 3-colorable
        c3 = Coloring(next(canonical_colorings(h, 3)), 3)
        rainbow = colorful_vertices(g, proof_coloring_ulcs(instance, c3))
        ok = all(rainbow >> v & 1 for v in instance.vertices_with_kind("V2"))
        detail = ("proof coloring checked: every edge replica is colorful (the upper-bound "
                  "direction is universal and only verified exactly in full mode)")

    else:
        # OLCS with H not 3-colorable: sampled colorings must split some
        # incidence group, which is what caps critical sets below k.
        groups: list[list[int]] = [[] for _ in range(h.n)]
        for i, (kind, fields) in enumerate(instance.roles):
            if kind == "V1":
                groups[fields[0]].append(i)
        ok, detail = True, f"{samples} sampled colorings all split some incidence pair"
        for _ in range(samples):
            c = sample_proper_coloring(g, 3, rng)
            if not any(len({c.colors[i] for i in group}) > 1 for group in groups):
                ok, detail = False, "a sampled coloring left every incidence group monochromatic"
                break

    return ReductionReport(variant, h.n, h.m, g.n, g.m, instance.k, three_col, mode, value,
                           ok, detail)
