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
heuristic; and a 60-point AESA with a ball-tree's fans beside its shells,
under every heuristic. These sprawls are built with `Fans` and `Sprawl`
directly, not with the tests' helpers, so any checkout's `src/` runs them.
The final line hashes every line before it, so two checkouts whose last
lines match returned the same results everywhere. A run takes about a
minute.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = (("ball-tree", 2000), ("laesa", 2000), ("pm-tree", 2000), ("aesa", 500))
SEEDS = (1, 7)
CENTRES = 40


def heuristics(Heuristic):
    return {
        "default": None,
        "fifo": Heuristic.fifo(),
        "lifo": Heuristic.lifo(),
        "bound": Heuristic("bound"),
        "priority": Heuristic.priority(lambda v: v * 7919 % 2003),
    }


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.members, r.order, r.traversed, r.distance_computations, r.region_evaluations)).encode())
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import sprawl from")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from sprawl import storage
    from sprawl.comparison import Ball, EuclideanSpace
    from sprawl.engine import Edge, Fans, Sprawl, build_classic, random_small_sprawl, search
    from sprawl.hypergraph import Heuristic

    lines = []

    def emit(label: str, results) -> None:
        lines.append(f"{label} {digest(results)}")
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
                sprawl, res = build_classic(space, range(n), kind, arity=2, pivots=8)
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
    print("all", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
