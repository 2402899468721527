"""Hash what searches return, to show that a change leaves them identical.

    python3 tools/identity_hash.py                  # this checkout's src/
    python3 tools/identity_hash.py --src OTHER/src  # another checkout

For each index kind (ball-tree, LAESA and pm-tree over 2,000 uniform points
in [0,1]^8, 8 pivots where a kind takes them, and AESA over 500), each seed
(1 and 7), each form (as built, and after `save_index` and `load_index`) and
each heuristic (the default, FIFO, LIFO, "bound" and a priority key), it
runs 40 range queries at the exact 1%-NN radius and 40 kNN queries with
k = 10, and prints a SHA-256 over every result's members, traversal order,
`traversed`, `distance_computations` and `region_evaluations`. The
ball-tree is also run with its ball rows as explicit single-facet `Edge`s,
the shape a format-2 index file loads as. Three groups follow: 400
searches over `random_small_sprawl`s; 200 exact fan-only trees over 2-14
points of a 4 x 4 dyadic grid (duplicate points, exact ties), whose
shuffled rows split one source's rows into several fans, under every
heuristic; a 60-point AESA with a ball-tree's fans beside its shells,
under every heuristic; and 200 sprawls over random asymmetric
`MatrixSpace`s (quasimetrics), each a tree of explicit-set edges with
roots, eliminating edges and lazy ones beside it, under 6 range queries
and every heuristic. These sprawls are built with `Fans`, `Edge` and
`Sprawl` directly, not with the tests' helpers, so any checkout's `src/`
runs them. The line `all` hashes every line before it.

A non-ball group follows: over each of the four kinds built on 300
uniform points in [0,1]^8, 2 pairs of points give each a single-focus and
a two-focus `AmbitQuery` and an `ExplicitSetQuery` of its first point's 6
nearest, beside an `ExplicitSetQuery` of 5 random points, and the last
pair gives a mixed-sign two-focus `AmbitQuery`, weights (1.0, -0.5) at
its 6-point radius, whose shell rows a sign rule lets rule out by their
upper bound alone; all under every heuristic. The warnings that rule
logs are silenced. Each of its lines is followed by a count-free one, the same
digest without `distance_computations`, so a change that lowers the
non-ball counts on purpose can show that nothing else moved. The final
line hashes every line before it, this group included, so two checkouts
whose last lines match returned the same results everywhere.

A lab group follows: over each of the four kinds built on 300
uniform points in [0,1]^8, it hashes the edges `reduce_to_signed` gives,
sources, target and sign in order, for 20 range queries at the exact
1%-NN radius and 20 balls whose radius is a fan row's bound (10 about the
row's target, 10 about random points), and the `check_responsibility`
report on the built assignment, on it with one member removed and on it
with one member added to a random logical edge. A report's region reprs
are hashed without the object addresses they hold. Its last line hashes
every line before it.

A scan group follows: it hashes `linear_scan`'s answer to every
query of the classic, non-ball and asymmetric-tree groups, over the nodes
as a range and as a reversed tuple, one line per index of the classic and
non-ball groups and one for the 200 asymmetric trees. Its last line
hashes every line before it, this group included.

A build group follows: it hashes the `index_document` JSON of the
ball-tree and pm-tree indexes of the classic group (2,000 points, seeds 1
and 7) and of the lab group (300 points), so two checkouts whose lines
match build byte-identical indexes. Its last line hashes every line
before it, this group included.

A dense group ends the run: 200 all-root sprawls over 2-24 points of an
8 x 8 dyadic grid whose only other edges are shell fans, as AESA and
LAESA build them (`dense_sprawl`: fans that skip some targets, some lazy,
sphere rows and shell rows lo < hi, no target named twice in one fan),
each under 2 range and 6 kNN queries and every heuristic. Its last line
hashes every line before it, this group included. A run takes about 40
seconds on one core of a 2-core x86 host.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = (("ball-tree", 2000), ("laesa", 2000), ("pm-tree", 2000), ("aesa", 500))
SEEDS = (1, 7)
CENTRES = 40
NON_BALL = 300  # the points of each index that the non-ball queries search
LAB = 300  # the points of each index of the lab group


def heuristics(Heuristic):
    return {
        "default": None,
        "fifo": Heuristic.fifo(),
        "lifo": Heuristic.lifo(),
        "bound": Heuristic("bound"),
        "priority": Heuristic.priority(lambda v: v * 7919 % 2003),
    }


def digest(results, counted: bool = True) -> str:
    """SHA-256 over each result's fields; without `counted`, over all but
    `distance_computations`."""
    h = hashlib.sha256()
    for r in results:
        fields = (r.members, r.order, r.traversed, r.distance_computations, r.region_evaluations)
        h.update(repr(fields if counted else fields[:3] + fields[4:]).encode())
    return h.hexdigest()


def fan_tree(rng, np, EuclideanSpace, Edge, Fans, Sprawl):
    """An exact tree of discovering fans over 2-14 points of a 4 x 4 dyadic
    grid: each child's radius is the largest distance from its parent to
    its subtree, and the rows are shuffled, so a fan is a run of rows from
    one source and a source may have several."""
    n = int(rng.integers(2, 15))
    grid = np.array([(x, y) for x in range(4) for y in range(4)]) / 4
    space = EuclideanSpace(grid[rng.integers(0, 16, n)])
    order = rng.permutation(n).tolist()
    parent = {v: order[int(rng.integers(0, i))] for i, v in enumerate(order) if i}
    subtree = {v: [v] for v in order}
    for v in reversed(order[1:]):  # a child joins after its parent, so its subtree is whole here
        subtree[parent[v]] += subtree[v]
    rows = [(parent[v], v, float(space.distances_from(parent[v], subtree[v]).max())) for v in order[1:]]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    firsts = [j for j in range(len(rows)) if not j or rows[j - 1][0] != rows[j][0]]
    fans = Fans(
        [rows[j][0] for j in firsts],
        firsts + [len(rows)],
        [t for _, t, _ in rows],
        [r for _, _, r in rows],
        discovers=np.ones(len(firsts), dtype=bool),
    )
    return Sprawl(space, range(n), [Edge((), order[0])], fans)


def dense_sprawl(rng, np, EuclideanSpace, Edge, Fans, Sprawl):
    """An all-root sprawl over 2-24 of 30 points of an 8 x 8 dyadic grid
    (duplicate points, exact ties), its root edges in shuffled order, whose
    only other edges are shell fans from some of its nodes, as AESA and
    LAESA build them: each fan skips some targets and names none twice, a
    few fans are lazy, and its rows are all spheres or, in about half the
    sprawls, spheres and shells lo < hi that hold each target's distance."""
    grid = np.array([(x, y) for x in range(8) for y in range(8)]) / 8
    space = EuclideanSpace(grid[rng.integers(0, 64, 30)])
    nodes = np.sort(rng.choice(30, size=int(rng.integers(2, 25)), replace=False))
    spheres = rng.random() < 0.5
    source, start, target, lo, hi, lazy = [], [0], [], [], [], []
    for u in rng.permutation(nodes)[: int(rng.integers(1, len(nodes) + 1))].tolist():
        targets = nodes[(nodes != u) & (rng.random(len(nodes)) < 0.7)]
        d = space.distances_from(u, targets)
        wide = np.zeros(len(d)) if spheres else (rng.random(len(d)) < 0.6) * rng.random(len(d)) / 4
        source.append(u)
        start.append(start[-1] + len(targets))
        target += targets.tolist()
        lo += (d - wide * rng.random(len(d))).tolist()
        hi += (d + wide).tolist()
        lazy.append(bool(rng.random() < 0.15))
    fans = Fans(source, start, target, lo, None if spheres else hi, lazy=lazy)
    return Sprawl(space, nodes.tolist(), [Edge((), v) for v in rng.permutation(nodes).tolist()], fans)


def asymmetric_tree(rng, np, MatrixSpace, Edge, ExplicitRegion, EMPTY, Sprawl):
    """A tree of explicit-set edges over 3-11 points of a random
    quasimetric (the shortest-path closure of random arc weights), each
    edge's region its target's subtree, with up to n eliminating edges of
    0-2 sources beside it, some lazy, whose regions hold their target's
    subtree and up to two other points."""
    n = int(rng.integers(3, 12))
    d = rng.random((n, n)) * 9.0 + 1.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    space = MatrixSpace(d, symmetric=False)
    order = rng.permutation(n).tolist()
    parent = {v: order[int(rng.integers(0, i))] for i, v in enumerate(order) if i}
    subtree = {v: {v} for v in order}
    for v in reversed(order[1:]):
        subtree[parent[v]] |= subtree[v]
    edges = [Edge((), order[0])]
    edges += [Edge((parent[v],), v, (ExplicitRegion(subtree[v]),)) for v in order[1:]]
    for _ in range(int(rng.integers(0, n))):
        t = int(rng.integers(0, n))
        sources = tuple(int(u) for u in rng.choice(n, size=int(rng.integers(0, 3)), replace=False))
        extra = {int(u) for u in rng.choice(n, size=int(rng.integers(0, 3)), replace=False)}
        lazy = bool(sources) and rng.random() < 0.3
        edges.append(Edge(sources, t, (EMPTY,), (ExplicitRegion(subtree[t] | extra),), lazy=lazy))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an edge into one of its own sources
        return Sprawl(space, range(n), edges)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import sprawl from")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    logging.getLogger("sprawl").setLevel(logging.ERROR)  # the sign rule's warnings
    import numpy as np

    from sprawl import storage
    from sprawl.comparison import AmbitQuery, Ball, EuclideanSpace, ExplicitSetQuery, MatrixSpace, Workload
    from sprawl.engine import (
        EMPTY,
        Edge,
        ExplicitRegion,
        Fans,
        ResponsibilityAssignment,
        Sprawl,
        build_classic,
        check_responsibility,
        linear_scan,
        random_small_sprawl,
        reduce_to_signed,
        search,
    )
    from sprawl.hypergraph import Heuristic

    lines = []
    scans = []  # (label, space, n, queries): what the scan group scans
    builds = []  # (label, sprawl, responsibilities): what the build group hashes

    def emit(label: str, results, counted: bool = True) -> None:
        lines.append(f"{label} {digest(results, counted)}")
        print(lines[-1], flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.json"
        for kind, n in KINDS:
            for seed in SEEDS:
                rng = np.random.default_rng(seed)
                space = EuclideanSpace(rng.random((n, 8)))
                queries = []
                for c in rng.random((CENTRES, 8)):
                    radius = float(np.partition(space.distances_from(c, range(n)), n // 100 - 1)[n // 100 - 1])
                    queries += [Ball(tuple(c), radius), Ball(tuple(c), 0.0, k=10)]
                scans.append((f"{kind} seed={seed}", space, n, queries))
                sprawl, res = build_classic(space, range(n), kind, arity=2, pivots=8)
                if kind in ("ball-tree", "pm-tree"):
                    builds.append((f"{kind} seed={seed} n={n}", sprawl, res))
                storage.save_index(path, sprawl, res)
                loaded, _ = storage.load_index(path)
                forms = [("built", sprawl), ("loaded", loaded)]
                if kind == "ball-tree":
                    balls = tuple(sprawl.fans.edge(j) for j in range(len(sprawl.fans)))
                    forms.append(("explicit", Sprawl(space, sprawl.nodes, sprawl.edges + balls)))
                for form, index in forms:
                    for name, h in heuristics(Heuristic).items():
                        emit(f"{kind} seed={seed} {form} {name}", [search(index, q, h) for q in queries])
    rng = np.random.default_rng(20240817)
    results = []
    for _ in range(100):
        sprawl = random_small_sprawl(rng)
        centre = tuple(rng.random(2))
        for q in (Ball(centre, float(rng.random() * 0.9)), Ball(centre, 0.0, k=int(rng.integers(1, 4)))):
            results += [search(sprawl, q, h) for h in (None, Heuristic.fifo() if q.k else Heuristic("bound"))]
    emit("random_small_sprawl x400", results)
    grid = [(x / 8, y / 8) for x in range(8) for y in range(8)]
    results = {name: [] for name in heuristics(Heuristic)}
    for _ in range(200):
        sprawl = fan_tree(rng, np, EuclideanSpace, Edge, Fans, Sprawl)
        n = len(sprawl.nodes)
        centres = [grid[int(rng.integers(0, len(grid)))], tuple(rng.random(2))]
        queries = [Ball(c, float(rng.integers(0, 4)) / 4) for c in centres]
        queries += [Ball(c, 0.0, k=k) for c in centres for k in (1, 2, n)]
        for name, h in heuristics(Heuristic).items():
            results[name] += [search(sprawl, q, h) for q in queries]
    for name, found in results.items():
        emit(f"fan trees x200 {name}", found)
    space = EuclideanSpace(np.random.default_rng(60).random((60, 8)))
    aesa, _ = build_classic(space, range(60), "aesa")
    tree, _ = build_classic(space, range(60), "ball-tree", arity=2)
    b, s = tree.fans, aesa.fans
    fans = Fans(
        np.concatenate([b.source, s.source]),
        np.concatenate([b.start, s.start[1:] + len(b)]),
        np.concatenate([b.target, s.target]),
        np.concatenate([b.lo, s.lo]),
        discovers=np.arange(len(b.source) + len(s.source)) < len(b.source),
    )
    both = Sprawl(space, aesa.nodes, aesa.edges, fans)
    queries = []
    for c in rng.random((CENTRES, 8)):
        radius = float(np.partition(space.distances_from(c, range(60)), 5)[5])
        queries += [Ball(tuple(c), radius), Ball(tuple(c), 0.0, k=10)]
    for name, h in heuristics(Heuristic).items():
        emit(f"aesa with ball fans n=60 {name}", [search(both, q, h) for q in queries])
    rng = np.random.default_rng(25)
    results = {name: [] for name in heuristics(Heuristic)}
    trees = []
    for _ in range(200):
        sprawl = asymmetric_tree(rng, np, MatrixSpace, Edge, ExplicitRegion, EMPTY, Sprawl)
        n = len(sprawl.nodes)
        queries = []
        for c in rng.choice(n, size=2, replace=False).tolist():
            row = np.sort(sprawl.space.distances_from(c, range(n)))
            queries += [Ball(c, float(row[int(rng.integers(0, n))])), Ball(c, float(rng.random() * 5.0)), Ball(c, 0.0)]
        trees.append((sprawl.space, n, queries))
        for name, h in heuristics(Heuristic).items():
            results[name] += [search(sprawl, q, h) for q in queries]
    for name, found in results.items():
        emit(f"asymmetric trees x200 {name}", found)
    print("all", hashlib.sha256("\n".join(lines).encode()).hexdigest())
    rng = np.random.default_rng(26)
    for kind, _ in KINDS:
        space = EuclideanSpace(rng.random((NON_BALL, 8)))
        index, _ = build_classic(space, range(NON_BALL), kind, arity=2, pivots=8)
        queries = []
        for f, g in rng.choice(NON_BALL, size=(2, 2), replace=False).tolist():
            near, other = space.distances_from(f, range(NON_BALL)), space.distances_from(g, range(NON_BALL))
            radius = float(np.partition(near, 5)[5])
            queries += [
                AmbitQuery((f,), (1.0,), radius),
                AmbitQuery((f, g), (1.0, 1.0), float(np.partition(near + other, 5)[5])),
                ExplicitSetQuery(rng.choice(NON_BALL, size=5, replace=False).tolist()),
                ExplicitSetQuery(np.flatnonzero(near <= radius).tolist()),
            ]
        queries.append(AmbitQuery((f, g), (1.0, -0.5), float(np.partition(near - 0.5 * other, 5)[5])))
        scans.append((f"non-ball {kind} n={NON_BALL}", space, NON_BALL, queries))
        for name, h in heuristics(Heuristic).items():
            results = [search(index, q, h) for q in queries]
            emit(f"non-ball {kind} n={NON_BALL} {name}", results)
            emit(f"non-ball {kind} n={NON_BALL} {name} count-free", results, counted=False)
    print("all with non-ball", hashlib.sha256("\n".join(lines).encode()).hexdigest())

    def record(label: str, items) -> None:
        h = hashlib.sha256()
        for item in items:
            h.update(repr(item).encode())
        lines.append(f"{label} {h.hexdigest()}")
        print(lines[-1], flush=True)

    rng = np.random.default_rng(1)
    for kind, _ in KINDS:
        space = EuclideanSpace(rng.random((LAB, 8)))
        index, res = build_classic(space, range(LAB), kind, arity=2, pivots=8)
        if kind in ("ball-tree", "pm-tree"):
            builds.append((f"{kind} n={LAB}", index, res))
        fans, logical = index.fans, len(index.edges) + len(index.fans)
        queries = []
        for c in rng.random((CENTRES // 2, 8)):
            radius = float(np.partition(space.distances_from(c, range(LAB)), LAB // 100 - 1)[LAB // 100 - 1])
            queries.append(Ball(tuple(c), radius))
        for j in rng.choice(len(fans), size=CENTRES // 4, replace=False).tolist():
            queries += [Ball(int(fans.target[j]), float(fans.lo[j])), Ball(tuple(rng.random(8)), float(fans.hi[j]))]
        graphs = (reduce_to_signed(index, q).edges for q in queries)
        record(f"lab reduce {kind} n={LAB}", ([(sorted(e.sources), e.target, e.sign) for e in g] for g in graphs))
        owned = {k: sorted(v) for k, v in res.edge_to_nodes.items()}
        listed = sorted(k for k, v in owned.items() if v)
        key = listed[int(rng.integers(len(listed)))]
        extra = int(rng.integers(logical))
        assignments = {
            "built": owned,
            "removed": {**owned, key: owned[key][:-1]},
            "added": {**owned, extra: sorted({*owned.get(extra, []), int(rng.integers(LAB))})},
        }
        workload = Workload(tuple(ExplicitSetQuery(frozenset({v})) for v in index.nodes), atomistic=True)
        for name, assignment in assignments.items():
            report = check_responsibility(index, ResponsibilityAssignment(assignment), workload)
            violations = [(*v[:3], re.sub(r" at 0x[0-9a-f]+", "", v[3])) for v in report.violations]
            record(f"lab responsibility {kind} n={LAB} {name}", [report.passed, *violations])
    print("all with lab", hashlib.sha256("\n".join(lines).encode()).hexdigest())

    def scanned(space, n, queries):
        for nodes in (range(n), tuple(range(n - 1, -1, -1))):
            yield from (linear_scan(space, nodes, q) for q in queries)

    for label, space, n, queries in scans:
        record(f"scan {label}", scanned(space, n, queries))
    record("scan asymmetric trees x200", (found for tree in trees for found in scanned(*tree)))
    print("all with scan", hashlib.sha256("\n".join(lines).encode()).hexdigest())

    for label, sprawl, res in builds:
        record(f"build {label}", [json.dumps(storage.index_document(sprawl, res))])
    print("all with build", hashlib.sha256("\n".join(lines).encode()).hexdigest())

    rng = np.random.default_rng(27)
    results = {name: [] for name in heuristics(Heuristic)}
    for _ in range(200):
        sprawl = dense_sprawl(rng, np, EuclideanSpace, Edge, Fans, Sprawl)
        n = len(sprawl.nodes)
        centres = [tuple(rng.integers(0, 8, 2) / 8), tuple(rng.random(2))]
        queries = [Ball(c, float(rng.integers(0, 4)) / 8) for c in centres]
        queries += [Ball(c, 0.0, k=k) for c in centres for k in (1, 3, n)]
        for name, h in heuristics(Heuristic).items():
            results[name] += [search(sprawl, q, h) for q in queries]
    for name, found in results.items():
        emit(f"dense x200 {name}", found)
    print("all with dense", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
