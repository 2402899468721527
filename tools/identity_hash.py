"""Hash what searches return, to show that a change leaves them identical.

    python3 tools/identity_hash.py                  # this checkout's src/
    python3 tools/identity_hash.py --src OTHER/src  # another checkout

For each index kind (ball-tree, LAESA and pm-tree over 2,000 uniform points
in [0,1]^8, 8 pivots where a kind takes them, and AESA over 500), each seed
(1 and 7), each form (as built, and after `save_index` and `load_index`) and
each heuristic (the default, FIFO, LIFO, "bound" and a priority key), it
runs 40 range queries at the exact 1%-NN radius and 40 kNN queries with
k = 10, and prints a SHA-256 over every result's members, traversal order,
`traversed`, `distance_computations` and `region_evaluations`. A last
group runs 400 searches over `random_small_sprawl`s. The final line hashes
every line before it, so two checkouts whose last lines match returned the
same results everywhere. A run takes about a minute.
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import sprawl from")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from sprawl import storage
    from sprawl.comparison import Ball, EuclideanSpace
    from sprawl.engine import build_classic, random_small_sprawl, search
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
                for form, index in (("built", sprawl), ("loaded", loaded)):
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
    print("all", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
