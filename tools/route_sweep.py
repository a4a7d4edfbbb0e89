"""Time both exact routes of `four_params` on every component of a fixed
input set, beside the route the engine picks.

usage: python tools/route_sweep.py SRC_DIR [REPEATS]

SRC_DIR is the `src` directory of the checkout to run, so that two commits
can be swept side by side.  The inputs are C5-C13 and P8-P10 at k = 3,
`latin:3`, `latin:4`, `sudoku:2`, K3 x K4 and K4 x K5, and 48 random graphs
on 5-12 vertices from a fixed seed (each keeps every edge with one
probability drawn from [0.3, 0.7]), each at chi and chi + 1.  A component
with k >= Delta + 2 takes the closed form, with no route, and is left out.

Per component it prints the palette orbits T, the owners (every orbit
within `LATTICE_BUDGET`, else the orbit leaders), the vertices n, the mean
colorful vertices r over the owners, the time per run of each route on
those owners (`per_run`: the best of REPEATS samples, default 3), and the
route the engine picks, with a `*` where that is the slower one.  The engine's pick is read by running
`_component_extremes` with `_agreements` and `_lazy_extremes` wrapped to
stop at the first call, so no route runs there.  Both routes must give the
same rows, or the sweep stops.  It ends with the count of components on
the slower route, and the total time of the picked routes against the best
possible.  It times, so CI does not run it.
"""

import random
import sys
import time

sys.path.insert(0, sys.argv[1])
from critsets import critical, graphs, sudoku  # noqa: E402
from critsets.coloring import (  # noqa: E402
    Coloring,
    _orbit_leaders,
    canonical_colorings,
    chromatic_number,
    colorful_vertices,
)
from critsets.critical import (  # noqa: E402
    LATTICE_BUDGET,
    _agreements,
    _critical_sets,
    _lattice_extremes,
    _lazy_extremes,
)

SEED = 2013
REPEATS = int(sys.argv[2]) if len(sys.argv) > 2 else 3


def inputs():
    def grid(a, b):
        return graphs.cartesian_product(graphs.make_complete(a), graphs.make_complete(b))

    for n in range(5, 14):
        yield f"C{n}", graphs.make_cycle(n), 3
    for n in (8, 9, 10):
        yield f"P{n}", graphs.make_path(n), 3
    yield "latin:3", grid(3, 3), 3
    yield "latin:4", grid(4, 4), 4
    yield "sudoku:2", sudoku.sudoku_graph(2).graph, 4
    yield "K3xK4", grid(3, 4), 4
    yield "K4xK5", grid(4, 5), 5
    rng = random.Random(SEED)
    for i in range(48):
        n = rng.randint(5, 12)
        p = rng.uniform(0.3, 0.7)
        g = graphs.Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < p])
        chi = chromatic_number(g)
        for k in (chi, chi + 1):
            yield f"random{i}", g, k


class Picked(Exception):
    pass


def picked_route(sub, k):
    """The route `_component_extremes` takes on the component `sub`,
    stopped before that route runs."""
    def stop(route):
        def wrapper(*args):
            raise Picked(route)
        return wrapper

    kernel, lazy = critical._agreements, critical._lazy_extremes
    critical._agreements, critical._lazy_extremes = stop("kernel"), stop("lazy")
    try:
        list(critical._component_extremes(sub, k, [(1 << sub.n) - 1]))
    except Picked as route:
        return route.args[0]
    finally:
        critical._agreements, critical._lazy_extremes = kernel, lazy


def per_run(run):
    """Seconds per call of `run`, and its last result: the least of REPEATS
    samples, each of as many calls as take 20 ms (doubled from one), so
    that sub-millisecond routes are not read off one call.  A call that
    takes a second on its own is timed once, which keeps the sweep to
    minutes where one kernel run takes tens of seconds."""
    samples = []
    calls = 1
    while len(samples) < REPEATS:
        start = time.perf_counter()
        for _ in range(calls):
            rows = run()
        took = time.perf_counter() - start
        if took < 0.02:
            calls *= 2
            continue
        samples.append(took / calls)
        if took >= 1:
            break
    return min(samples), rows


def main():
    print("input          k      T  owners   n      r   kernel_s     lazy_s  route")
    slower = 0
    total = best = 0.0
    count = 0
    for label, g, k in inputs():
        for comp in graphs.connected_components(g):
            sub, _ = graphs.induced_subgraph(g, comp)
            if k >= max(map(len, sub.neighbor_lists)) + 2:
                continue  # the closed form
            route = picked_route(sub, k)
            n = sub.n
            tuples = list(canonical_colorings(sub, k))
            owns = range(len(tuples)) if len(tuples) << n <= LATTICE_BUDGET else _orbit_leaders(sub, tuples)
            r = sum(colorful_vertices(sub, Coloring(tuples[j], k)).bit_count() for j in owns) / len(owns)
            kernel_s, kernel_rows = per_run(lambda: [
                _lattice_extremes(_critical_sets(a, n), n) for a in _agreements(owns, tuples, k, n)])
            lazy_s, lazy_rows = per_run(lambda: [
                _lazy_extremes(sub, Coloring(tuples[j], k)) for j in owns])
            if kernel_rows != lazy_rows:
                sys.exit(f"{label} at k = {k}: the two routes give different rows")
            took = kernel_s if route == "kernel" else lazy_s
            mark = "*" if took > min(kernel_s, lazy_s) else ""
            slower += bool(mark)
            total += took
            best += min(kernel_s, lazy_s)
            count += 1
            print(f"{label:<12} {k:>3} {len(tuples):>6} {len(owns):>7} {n:>3} {r:>6.2f} "
                  f"{kernel_s:>10.5f} {lazy_s:>10.5f}  {route}{mark}")
    print(f"{slower} of {count} components on the slower route; "
          f"total {total:.3f} s against a best possible {best:.3f} s")


if __name__ == "__main__":
    main()
