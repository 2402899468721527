"""Seeded workloads: a dataset, an index kind and the queries run against it.

Every input is drawn from ``numpy.random.default_rng(seed)``, so one seed
always gives the same points and query centres. With seed 1 the
uniform-cube points and the first 100 range queries are exactly the data of
acceptance criterion 1 (2,000 points in [0,1]^8, radius = exact 20-NN
distance).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sprawl.comparison import Ball, EuclideanSpace

KNN_K = 10


@dataclass
class Case:
    """Everything one workload run needs; built before any timing starts."""

    name: str
    space: object
    kind: str
    params: dict
    range_queries: list
    knn_queries: list

    @property
    def nodes(self) -> range:
        return range(len(self.space))


def uniform8(seed: int, n: int = 2000, centres: int = 40):
    """n uniform points in [0,1]^8 under L2; one range and one kNN query per centre.

    The range radius is the exact distance to the (n/100)-th nearest point,
    which fixes selectivity at 1%.
    """
    rng = np.random.default_rng(seed)
    space = EuclideanSpace(rng.random((n, 8)))
    kth = max(1, n // 100)
    range_queries, knn_queries = [], []
    for c in rng.random((centres, 8)):
        radius = float(np.partition(space.distances_from(c, range(n)), kth - 1)[kth - 1])
        range_queries.append(Ball(tuple(c), radius))
        knn_queries.append(Ball(tuple(c), 0.0, k=KNN_K))
    return space, range_queries, knn_queries


# name -> (index kind, build parameters, data size and query centres); why each
# workload was chosen is recorded beside its name in BENCHMARK.json
WORKLOADS = {
    "balltree-uniform8": ("ball-tree", {"arity": 2}, {"n": 2000, "centres": 40}),
    "aesa-uniform8": ("aesa", {}, {"n": 500, "centres": 100}),
}


def make_case(name: str, seed: int, **overrides) -> Case:
    """Build the inputs of workload `name` for `seed`; overrides resize the data."""
    kind, params, sizes = WORKLOADS[name]
    space, range_queries, knn_queries = uniform8(seed, **{**sizes, **overrides})
    return Case(name, space, kind, dict(params), range_queries, knn_queries)
