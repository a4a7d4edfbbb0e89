"""Immutable simple undirected graphs with bitmask adjacency rows.

Vertex subsets are plain ints used as bitmasks (bit v set <=> vertex v in
the set).  Graphs are hashable values; all constructors and operators
return fresh graphs and never mutate.
"""

from __future__ import annotations

import base64
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import Graph6Error, InternalError, InvalidParameterError, SizeLimitError

VertexSet = int

CANONICAL_CAP = 8


# _BYTE_BITS[m]: the set bit positions of m < 256, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


def bits(mask: VertexSet) -> list[int]:
    """Set bit positions of `mask`, ascending, as a fresh list the caller
    may change.  A mask in [0, 256) is read from `_BYTE_BITS`; any other
    is walked lowest bit first."""
    if 0 <= mask < 256:
        return list(_BYTE_BITS[mask])
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def mask_of(vertices) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _read_only(self, name, *value):
    raise AttributeError(f"{type(self).__name__} attribute {name!r} is read-only")


class Graph:
    """Graph on vertices 0..n-1; adj[v] has bit w set iff {v,w} is an edge.

    A value: equal and hashed by (n, adj), and assigning or deleting an
    attribute raises AttributeError.
    """

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0 or len(adj) != n:
            raise InvalidParameterError("adjacency length must equal vertex count")
        for v, row in enumerate(adj):
            if row >> n:
                raise InvalidParameterError(f"row {v} has bits beyond vertex range")
            if row >> v & 1:
                raise InvalidParameterError(f"loop at vertex {v}")
            for w in bits(row):
                if not adj[w] >> v & 1:
                    raise InvalidParameterError(f"asymmetric edge ({v},{w})")
        fields = self.__dict__
        fields["n"] = n
        fields["adj"] = adj

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"bad edge ({u},{v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's neighbors, ascending, built once per graph (kept in
        the instance __dict__, which equality and hashing ignore).  Every
        vertex walk reads these lists; the rows `adj` serve set algebra."""
        return tuple(tuple(bits(row)) for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (v, w) with v < w, by v and then w ascending."""
        return [(v, w) for v, nbrs in enumerate(self.neighbor_lists) for w in nbrs if w > v]

    def relabel(self, perm) -> "Graph":
        """Graph with new vertex i = old vertex perm[i]."""
        pos = [0] * self.n
        for i, v in enumerate(perm):
            pos[v] = i
        rows = []
        for v in perm:
            r = 0
            for w in bits(self.adj[v]):
                r |= 1 << pos[w]
            rows.append(r)
        return Graph(self.n, tuple(rows))


# ---------------------------------------------------------------------------
# basic constructors


def make_empty(n: int) -> Graph:
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    return Graph(n, (0,) * n)


def make_complete(n: int) -> Graph:
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def make_path(n: int) -> Graph:
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise InvalidParameterError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# operators


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Union with h's vertices relabelled by offset g.n."""
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(g.n + h.n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def add_pendant_to_each(g: Graph) -> Graph:
    """Attach one new degree-1 neighbor to every original vertex."""
    n = g.n
    edges = g.edges() + [(v, n + v) for v in range(n)]
    return Graph.from_edges(2 * n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product on U x V with row-major indexing (u*h.n + v)."""
    n = g.n * h.n
    g_nbrs, h_nbrs = g.neighbor_lists, h.neighbor_lists
    edges = []
    for u in range(g.n):
        for v in range(h.n):
            a = u * h.n + v
            for w in h_nbrs[v]:
                if w > v:
                    edges.append((a, u * h.n + w))
            for x in g_nbrs[u]:
                if x > u:
                    edges.append((a, x * h.n + v))
    return Graph.from_edges(n, edges)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product on U x V: adjacency in each factor allows equality."""
    n = g.n * h.n
    edges = []
    for u in range(g.n):
        gu = g.adj[u] | (1 << u)
        for v in range(h.n):
            a = u * h.n + v
            hv = h.adj[v] | (1 << v)
            for x in bits(gu):
                for w in bits(hv):
                    b = x * h.n + w
                    if b > a:
                        edges.append((a, b))
    return Graph.from_edges(n, edges)


def edge_union(g: Graph, h: Graph) -> Graph:
    """Union of edge sets over a common vertex set."""
    if g.n != h.n:
        raise InvalidParameterError("edge_union needs equal vertex counts")
    return Graph(g.n, tuple(a | b for a, b in zip(g.adj, h.adj)))


# ---------------------------------------------------------------------------
# structure queries


def reach(g: Graph, start: VertexSet, within: VertexSet) -> VertexSet:
    """The vertices reachable from `start` through vertices of `within`,
    `start` included, grown one row OR per vertex."""
    comp = frontier = start
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= g.adj[v]
        frontier = grow & within & ~comp
        comp |= frontier
    return comp


def connected_components(g: Graph, within: VertexSet | None = None) -> list[VertexSet]:
    """Vertex masks of the connected components, by least vertex, of g or
    of its subgraph induced on `within`."""
    remaining = (1 << g.n) - 1 if within is None else within
    comps = []
    while remaining:
        comp = reach(g, remaining & -remaining, remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps


def bipartition(g: Graph) -> tuple[VertexSet, VertexSet] | None:
    """A 2-coloring (side0, side1) if g is bipartite, else None."""
    side = [None] * g.n
    nbrs = g.neighbor_lists
    for comp in connected_components(g):
        root = bits(comp)[0]
        side[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in nbrs[v]:
                if side[w] is None:
                    side[w] = side[v] ^ 1
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    a = mask_of(v for v in range(g.n) if side[v] == 0)
    return a, ((1 << g.n) - 1) ^ a


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def induced_subgraph(g: Graph, vertex_mask: VertexSet) -> tuple[Graph, Sequence[int]]:
    """Induced subgraph plus the sequence mapping new index -> original
    vertex.  The full mask gives g itself and `range(g.n)`: no copy, and
    whatever g has cached (neighbour lists, symmetry) is kept."""
    if vertex_mask == (1 << g.n) - 1:
        return g, range(g.n)
    verts = bits(vertex_mask)
    pos = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        r = 0
        for w in bits(g.adj[v] & vertex_mask):
            r |= 1 << pos[w]
        rows.append(r)
    return Graph(len(verts), tuple(rows)), verts


# ---------------------------------------------------------------------------
# graph6 interchange format

_G6_MAX_LONG = 258047  # largest n encodable with the single '~' header
_G6_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def check_graph6_order(n: int, what: str):
    """Refuse a `what` of n vertices that graph6 cannot write: the one
    output check of `_G6_MAX_LONG`, for `emit_graph6` and for the gadgets
    `reductions` sizes before building them."""
    if n > _G6_MAX_LONG:
        raise SizeLimitError(f"{what} of {n} vertices is over the graph6 limit of {_G6_MAX_LONG}")


def graph6_blocks(g: Graph):
    """The graph6 encoding of g as consecutive strings: the size header,
    then one string per block of 48 columns of the upper triangle.  A
    writer can write each as it is made, so a large graph's text is never
    held whole; `emit_graph6` joins them.  The vertex count is checked
    before the first string."""
    n = g.n
    check_graph6_order(n, "graph")
    yield chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    # Columns 1..48m hold 24m(48m + 1) bits, whole 24-bit base64 groups, so
    # each block of 48 columns packs on its own and the bit string stays
    # small; only the last block needs zero padding, whose characters
    # beyond the block's own 6-bit chunks are dropped.
    for start in range(1, n, 48):
        cols = range(start, min(start + 48, n))
        # rows 0..j-1 of column j, row 0 first
        block = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in cols)
        size = (len(block) + 5) // 6
        block += "0" * (-len(block) % 24)
        packed = base64.b64encode(int(block, 2).to_bytes(len(block) // 8, "big"))
        yield packed[:size].translate(_G6_FROM_BASE64).decode("ascii")


def emit_graph6(g: Graph) -> str:
    """Standard graph6 encoding: size header, then the upper triangle in
    column-major order packed into 6-bit printable chunks
    (`graph6_blocks`, joined)."""
    return "".join(graph6_blocks(g))


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string (optional '>>graph6<<' prefix allowed)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range", off)
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
        body_off = 1
    else:
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph6 inputs beyond 258047 vertices unsupported", 1)
        if len(s) < 4:
            raise Graph6Error("truncated long-form size header", len(s))
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
        body = s[4:]
        body_off = 4
    nbits = n * (n - 1) // 2
    expect = (nbits + 5) // 6
    if len(body) < expect:
        raise Graph6Error(f"body too short for n={n}", body_off + len(body))
    if len(body) > expect:
        raise Graph6Error(f"trailing characters after n={n} body", body_off + expect)
    rows = [0] * n
    i, j = 0, 1  # next pair of the upper triangle, in column-major order
    for bidx, ch in enumerate(body):
        v = ord(ch) - 63
        for t in range(5, -1, -1):
            if j >= n:
                if v & ((2 << t) - 1):
                    raise Graph6Error("nonzero padding bits", body_off + bidx)
                break
            if v >> t & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# canonical forms and small-order enumeration


def _equitable(g: Graph, cells: list[VertexSet]) -> list[VertexSet]:
    """Coarsest equitable refinement of the ordered partition `cells`:
    split every cell by its vertices' neighbor counts in each cell, pieces
    in ascending order of those counts, until no cell splits.  Nothing
    depends on vertex labels, so refinement commutes with relabelling."""
    adj = g.adj
    width = g.n.bit_length()
    while True:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            pieces: dict[int, VertexSet] = {}
            for v in bits(cell):
                key = 0  # the counts as fixed-width digits, first cell highest
                for c in cells:
                    key = key << width | (adj[v] & c).bit_count()
                pieces[key] = pieces.get(key, 0) | 1 << v
            out.extend(pieces[key] for key in sorted(pieces))
        if len(out) == len(cells):
            return out
        cells = out


def _target(cells: list[VertexSet]) -> int:
    """Position of the first non-singleton cell: the cell to branch on."""
    return next(i for i, cell in enumerate(cells) if cell & (cell - 1))


def _individualize(cells: list[VertexSet], t: int, v: int) -> list[VertexSet]:
    """Split v off cell t, the singleton first."""
    return cells[:t] + [1 << v, cells[t] ^ 1 << v] + cells[t + 1:]


def _leaf_automorphism(g: Graph, first: list[int], leaf: list[VertexSet]):
    """The permutation sending the first leaf's i-th vertex to this
    discrete partition's i-th vertex, if it preserves adjacency."""
    perm = [0] * g.n
    for v, cell in zip(first, leaf):
        perm[v] = cell.bit_length() - 1
    for v, row in enumerate(g.adj):
        image = 0
        for w in bits(row):
            image |= 1 << perm[w]
        if image != g.adj[perm[v]]:
            return None
    return tuple(perm)


def _orbit_roots(size: int, maps) -> list[int]:
    """Per element of range(size): the least element of its orbit under the
    group generated by the permutations `maps` (union-find).  Serves vertex
    orbits and neighbourhood masks; coloring orbits are marked by
    `coloring._orbit_leaders`'s own walk."""
    root = list(range(size))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for m in maps:
        for i, j in enumerate(m):
            a, b = find(i), find(j)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(i) for i in range(size)]


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), each as the tuple of vertex images.

    Individualization-refinement (McKay-Piperno, Practical graph
    isomorphism II, 2014), without canonical labelling: the first path
    individualizes the least vertex of the first non-singleton cell until
    the equitable partition is discrete.  Then, deepest level first, each
    other vertex w of that level's cell whose orbit under the generators
    found so far is new is individualized instead, and its subtree is
    searched for a leaf that maps the first leaf by an automorphism.
    Nodes whose cell sizes differ from the first path's at the same depth
    are cut.  Every generator found fixes the path above its level, so a
    new one is needed exactly when w's orbit under the stabilizer is not
    reached yet, and the generators found generate Aut(g).  Every leaf is
    accepted only after an adjacency check.  An asymmetric graph whose
    first refinement is already discrete returns at once.
    """
    return _first_path_search(g)[2]


def _first_path_search(g: Graph):
    """The search behind `automorphism_generators`: the first path, its
    leaf's vertex order, the generators, and per level the orbit roots
    (as `_orbit_roots`) of the generators found at that level or deeper,
    which generate the stabilizer of the vertices the first path
    individualized above that level."""
    n = g.n
    cells = _equitable(g, [(1 << n) - 1] if n else [])
    path = []  # per level: the partition branched on, its target, the shape after
    while len(cells) < n:
        t = _target(cells)
        before = cells
        cells = _equitable(g, _individualize(cells, t, bits(cells[t])[0]))
        path.append((before, t, [cell.bit_count() for cell in cells]))
    first = [cell.bit_length() - 1 for cell in cells]

    def search(cells: list[VertexSet], level: int):
        cells = _equitable(g, cells)
        if [cell.bit_count() for cell in cells] != path[level][2]:
            return None
        if len(cells) == n:
            return _leaf_automorphism(g, first, cells)
        t = _target(cells)
        for w in bits(cells[t]):
            found = search(_individualize(cells, t, w), level + 1)
            if found is not None:
                return found
        return None

    generators: list[tuple[int, ...]] = []
    roots = list(range(n))  # _orbit_roots(n, generators), kept current
    stab_roots = [None] * len(path)
    for level in range(len(path) - 1, -1, -1):
        before, t, _ = path[level]
        tried = [bits(before[t])[0]]
        for w in bits(before[t])[1:]:
            if roots[w] in {roots[u] for u in tried}:
                continue
            tried.append(w)
            found = search(_individualize(before, t, w), level)
            if found is not None:
                generators.append(found)
                # roots, read as a map v -> root, carries the orbits so far
                roots = _orbit_roots(n, (roots, found))
        stab_roots[level] = roots
    return path, first, generators, stab_roots


def _encode(g: Graph, order: list[int]) -> int:
    """Upper-triangle bit string of g relabelled by `order`, MSB first."""
    code = 0
    for i in range(g.n):
        row = g.adj[order[i]]
        for j in range(i + 1, g.n):
            code = code << 1 | (row >> order[j] & 1)
    return code


def _canonical_order(g: Graph) -> tuple[list[int], list[int]]:
    """The vertex order of the leaf of g's individualization-refinement
    tree with the least `_encode` code, and the Aut(g) orbit roots (as
    `_orbit_roots`), both from one `_first_path_search`.

    The tree (equitable refinement, branching on every vertex of the first
    non-singleton cell) commutes with relabelling, so its least leaf code
    is an isomorphism invariant.  Two children that an automorphism fixing
    their parent's individualized vertices maps onto each other hold the
    same leaf codes.  So at each node of the first path only one child per
    orbit of that level's stabilizer is searched, with the orbits that
    `_first_path_search` reports, and below every other child each leaf
    is visited.  The stabilizer at the root is Aut(g) itself.  Capped at
    CANONICAL_CAP vertices.
    """
    if g.n > CANONICAL_CAP:
        raise SizeLimitError(f"canonical_form capped at {CANONICAL_CAP} vertices (got {g.n})")
    n = g.n
    path, first, _, stab_roots = _first_path_search(g)

    def leaves(cells: list[VertexSet]):
        if len(cells) == n:
            yield [cell.bit_length() - 1 for cell in cells]
            return
        t = _target(cells)
        for w in bits(cells[t]):
            yield from leaves(_equitable(g, _individualize(cells, t, w)))

    orders = [first]
    for (before, t, _), roots in zip(path, stab_roots):
        for w in bits(before[t])[1:]:
            if roots[w] == w:
                orders.extend(leaves(_equitable(g, _individualize(before, t, w))))
    order = min(orders, key=lambda order: _encode(g, order))
    return order, stab_roots[0] if path else list(range(n))


def canonical_form(g: Graph) -> Graph:
    """The relabelling of g by its `_canonical_order`; isomorphic graphs
    coincide.  Capped at CANONICAL_CAP vertices."""
    return g.relabel(_canonical_order(g)[0])


def _augmentation_roots(g: Graph) -> list[int]:
    """The neighbourhoods a new vertex can take in g (as masks), one per
    orbit under Aut(g): those that are the least mask of their orbit."""
    size = 1 << g.n
    maps = []
    for perm in automorphism_generators(g):
        image = [0] * size  # image[nb]: the mask nb mapped by perm
        for nb in range(1, size):
            low = nb & -nb
            image[nb] = image[nb ^ low] | 1 << perm[low.bit_length() - 1]
        maps.append(image)
    return [nb for nb, root in enumerate(_orbit_roots(size, maps)) if root == nb]


def check_atlas_order(n: int):
    """Reject a vertex count the atlas does not cover."""
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    if n > CANONICAL_CAP:
        raise SizeLimitError(f"atlases are computed up to {CANONICAL_CAP} vertices (got {n}); "
                             "larger catalogs can be scanned from graph6 files")


def _canonical_child(g: Graph) -> Graph | None:
    """The canonical form of g (n >= 1) if its last vertex is g's canonical
    deletion, else None.  The canonical deletion is the first vertex of
    maximum degree in `_canonical_order(g)`, up to Aut(g).  A last vertex
    below the maximum degree is rejected with no search, since an
    automorphism keeps degrees."""
    degrees = [row.bit_count() for row in g.adj]
    top = max(degrees)
    if degrees[-1] < top:
        return None
    order, roots = _canonical_order(g)
    first = next(v for v in order if degrees[v] == top)
    return g.relabel(order) if roots[first] == roots[-1] else None


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on n vertices as canonical forms, sorted by
    adjacency rows.

    Built by canonical construction path (McKay, Isomorph-free exhaustive
    generation, 1998).  Each class g on n - 1 vertices gets a new vertex
    joined to one neighbourhood per orbit of Aut(g) on vertex subsets, and
    the candidate is kept iff its new vertex is its canonical deletion
    (`_canonical_child`).  Each class G then arrives exactly once:
    - at least once: delete G's canonical deletion v.  G - v is some class
      g on n - 1 vertices, and an isomorphism G - v -> g followed by an
      automorphism of g sends N(v) to the orbit root nb that g is
      augmented by.  That candidate is isomorphic to G by a map sending v
      to the new vertex, and isomorphisms carry canonical deletions into
      each other's Aut orbits, so it is kept;
    - at most once: two kept candidates of G both delete to G - v, so they
      come from one class g, and an isomorphism between them that maps new
      vertex to new vertex restricts to an automorphism of g sending one
      neighbourhood onto the other, so the two orbit roots are one.
    The new vertex must have the maximum degree, so most candidates are
    rejected before any search.  A duplicate after the sort would break
    this argument and raises InternalError.  Candidates are symmetric by
    construction, so only the canonical relabelling checks them.  Capped
    at CANONICAL_CAP vertices (12346 classes on 8).
    """
    check_atlas_order(n)
    if n == 0:
        return (Graph(0, ()),)
    kept = []
    for g in enumerate_graphs(n - 1):
        for nb in _augmentation_roots(g):
            rows = [row | (nb >> v & 1) << (n - 1) for v, row in enumerate(g.adj)]
            rows.append(nb)
            cand = object.__new__(Graph)  # skips Graph.__init__'s checks
            object.__setattr__(cand, "n", n)
            object.__setattr__(cand, "adj", tuple(rows))
            child = _canonical_child(cand)
            if child is not None:
                kept.append(child)
    kept.sort(key=lambda h: h.adj)
    for a, b in zip(kept, kept[1:]):
        if a.adj == b.adj:
            raise InternalError(f"class {emit_graph6(a)} generated twice on {n} vertices")
    return tuple(kept)


atlas_graphs = enumerate_graphs  # the name the CLI and the benchmark call
