"""Reference table for the scan workload, keyed by a canonical form.

The table maps every graph on 1 to 7 vertices to (chi, uscs, oscs, ulcs,
olcs, uniquely_colorable) as the engine computed them when the table was
recorded.  The key is this file's own canonical form, not the package's, so
a later rewrite of `graphs.canonical_form` cannot break the lookup.

Regenerate (slow: it runs the engine on all 1252 graphs):

    python3 perfbench/reference.py
"""

from __future__ import annotations

import itertools
import json
import sys
from functools import cache
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "reference_n7.json"


def canonical_key(n: int, adj) -> str:
    """Lexicographically least upper-triangle bit string over the vertex
    orders that respect an iterated degree refinement, prefixed by n."""
    nbrs = [[w for w in range(n) if adj[v] >> w & 1] for v in range(n)]
    cls = [len(nb) for nb in nbrs]
    while True:
        sigs = [(cls[v], tuple(sorted(cls[w] for w in nbrs[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == cls:
            break
        cls = new
    cells = [[v for v in range(n) if cls[v] == c] for c in sorted(set(cls))]
    best = None
    for parts in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        order = [v for part in parts for v in part]
        code = "".join(
            "1" if adj[order[i]] >> order[j] & 1 else "0"
            for j in range(1, n) for i in range(j)
        )
        if best is None or code < best:
            best = code
    return f"{n}:{best}"


@cache
def load() -> dict[str, list[int]]:
    with open(TABLE) as fh:
        return json.load(fh)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from critsets import graphs, scan

    table = {}
    for n in range(1, 8):
        for g in graphs.atlas_graphs(n):
            rec = scan.record_for_graph(g)
            table[canonical_key(g.n, g.adj)] = [rec.chi, *rec.quad, int(rec.uniquely_colorable)]
    with open(TABLE, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(table.items())) + "\n}\n")
    print(f"wrote {len(table)} entries to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
