"""Shared generators for the test batteries."""
from __future__ import annotations

import warnings
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from sprawl.ambit import Ambit, LinearMap, MetaballMap, PowerMap, table1_region
from sprawl.comparison import AmbitQuery, Ball, EuclideanSpace, MatrixSpace, feature_map
from sprawl.engine import (
    EMPTY,
    Edge,
    Fans,
    ResponsibilityReport,
    Sprawl,
    _QueryEval,
    _refuse_unsound,
    region_member_mask,
)
from sprawl.errors import StructureError
from sprawl.hypergraph import HyperEdge, SignedHyperdigraph

# Property tests draw their examples from a seed derived from each test, so
# every run tries the same inputs, and write no example database; no deadline,
# since a shared host's clock varies more than any one example's cost.
settings.register_profile("tier1", max_examples=150, deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


# a coordinate on the dyadic grid of step 1/8, where distances tie exactly
DYADIC = st.integers(0, 8).map(lambda i: i / 8)


@st.composite
def point_sets(draw, most: int = 20):
    """4 to `most` points in [0, 1]^d, d = 1-3: uniform, on the dyadic grid
    of step 1/8, or a few such points each repeated."""
    dims = draw(st.integers(1, 3))
    coordinate = draw(st.sampled_from([st.floats(0.0, 1.0), DYADIC]))
    point = st.lists(coordinate, min_size=dims, max_size=dims)
    if draw(st.booleans()):
        pts = draw(st.lists(point, min_size=4, max_size=most))
    else:
        distinct = draw(st.lists(point, min_size=1, max_size=6))
        picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=4, max_size=most))
        pts = [distinct[i] for i in picks]
    return np.array(pts, dtype=float)


def make_fans(balls=(), groups=()) -> Fans:
    """Fans from ball rows, (source, target, radius) each, one fan per run
    of one source, then from shell groups, (source, targets, lo, hi) each
    with an optional fifth item, lazy; hi is lo when every group passes its
    lo as its hi."""
    source, ends, target, lo, hi, lazy = [], [], [], [], [], []
    for u, t, r in balls:
        if not source or source[-1] != u:
            source.append(u)
            ends.append(0)
            lazy.append(False)
        target.append(t)
        lo.append(r)
        hi.append(r)
        ends[-1] = len(target)
    found, spheres = len(source), True
    for u, targets, group_lo, group_hi, *rest in groups:
        source.append(u)
        lazy.append(bool(rest and rest[0]))
        target += list(targets)
        lo += list(group_lo)
        hi += list(group_hi)
        ends.append(len(target))
        spheres = spheres and group_hi is group_lo
    return Fans(source, [0] + ends, target, lo, None if spheres else hi, np.arange(len(source)) < found, lazy)


class Group(NamedTuple):
    """One shell fan, its row columns as slices; hi is lo when the fans' are."""

    source: int
    targets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lazy: bool


def shell_groups(fans: Fans) -> list[Group]:
    """Each shell fan as a `Group`, in fan order."""
    out = []
    for f in range(fans.found, len(fans.source)):
        rows = slice(fans.start[f], fans.start[f + 1])
        lo = fans.lo[rows]
        hi = lo if fans.hi is fans.lo else fans.hi[rows]
        out.append(Group(int(fans.source[f]), fans.target[rows], lo, hi, bool(fans.lazy[f])))
    return out


def ball_rows(fans: Fans) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The discovering rows as (source, target, radius) columns."""
    rows = slice(0, fans.found_rows)
    source = np.repeat(fans.source[: fans.found], np.diff(fans.start[: fans.found + 1]))
    return source, fans.target[rows], fans.hi[rows]


def random_quasimetric(rng: np.random.Generator, n: int) -> MatrixSpace:
    """Random asymmetric distance matrix closed under shortest paths.

    Shortest-path closure of positive arc weights gives zero diagonal,
    non-negative entries, and the oriented triangle inequality.
    """
    w = rng.random((n, n)) * 9.0 + 1.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    np.fill_diagonal(d, 0.0)
    return MatrixSpace(d, symmetric=False)


def random_metric(rng: np.random.Generator, n: int) -> MatrixSpace:
    w = rng.random((n, n)) * 9.0 + 1.0
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    np.fill_diagonal(d, 0.0)
    return MatrixSpace(d, symmetric=True)


def uniform_space(rng: np.random.Generator, n: int, dims: int) -> EuclideanSpace:
    return EuclideanSpace(rng.random((n, dims)))


def random_labeled_sprawl(rng: np.random.Generator, n_max: int = 12) -> Sprawl:
    """Random sprawl with mixed region kinds; includes irresponsible ones."""
    n = int(rng.integers(3, n_max + 1))
    space = EuclideanSpace(rng.random((n, 2)))
    edges = [Edge((), int(v)) for v in rng.choice(n, size=max(1, n // 3), replace=False)]
    for _ in range(int(rng.integers(2, 3 * n))):
        srcs = tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
        tgt = int(rng.integers(0, n))
        kind = rng.random()
        focus = srcs[int(rng.integers(0, len(srcs)))]
        if kind < 0.3:
            region = Ambit((focus,), LinearMap([[1.0]]), (float(rng.random() * 1.2),))
        elif kind < 0.5:
            lo = float(rng.random() * 0.4)
            region = table1_region("shell", (focus,), lo=lo, hi=lo + float(rng.random()))
        elif kind < 0.65:
            region = Ambit((focus,), PowerMap([1.0], 0.5), (float(rng.random() * 1.1),))
        elif kind < 0.8:
            region = Ambit((focus,), MetaballMap([1.5]), (float(rng.random() * 0.8),))
        else:
            region = EMPTY
        if rng.random() < 0.45:
            edges.append(Edge(srcs, tgt, (EMPTY,), (region,)))
        else:
            positive = (region,) if not isinstance(region, type(EMPTY)) else ()
            edges.append(Edge(srcs, tgt, positive, ()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return Sprawl(space, range(n), edges)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def radients(space, region: Ambit, u) -> np.ndarray:
    """u's distances to the region's foci, one `compare` each, uncounted:
    delta(u, p) where the region is backward on an asymmetric space, else
    delta(p, u)."""
    fv = feature_map(space, region.foci, u)
    if region.orientation == "backward" and fv.backward is not None:
        return np.asarray(fv.backward, dtype=float)
    return fv.as_array()


def membership(space, region: Ambit, u, tol: float = 0.0) -> bool:
    """Whether the region holds u, from its `radients`: the one-point
    oracle of `membership_mask`."""
    return region.contains_features(radients(space, region, u), tol=tol)


def reference_scan(space, nodes, query) -> tuple[int, ...]:
    """`linear_scan` node by node: a range ball zips the nodes with their
    distance row, a kNN ball sorts (distance, ref) pairs, and an ambit or
    explicit set tests one node at a time. The oracle of its array path."""
    nodes = tuple(nodes)
    if isinstance(query, Ball):
        dists = space.distances_from(query.center, nodes)
        if query.k is not None:
            ranked = sorted(zip(dists, nodes))[: query.k]
            return tuple(v for _, v in ranked)
        return tuple(v for v, d in zip(nodes, dists) if d <= query.radius)
    ev = _QueryEval(space, query)  # refuses a query ref outside the space
    if isinstance(query, AmbitQuery):
        return tuple(v for v in nodes if membership(space, ev.query_region, v))
    return tuple(v for v in nodes if ev.member(v))


def reduce_rows(sprawl: Sprawl, query) -> SignedHyperdigraph:
    """`reduce_to_signed` edge by edge: every logical edge, each fan row
    as the `Edge` it stands for, through `_QueryEval.intersects`. The
    oracle of its column path over the fans."""
    _refuse_unsound(sprawl, query)
    ev = _QueryEval(sprawl.space, query)
    pos = sprawl._node_pos
    out = []
    for _, e in sprawl.iter_logical_edges():
        neg_hits = [ev.intersects(r) for r in e.negative]
        if not all(neg_hits):
            out.append(HyperEdge(frozenset(pos[s] for s in e.sources), pos[e.target], -1))
        elif all(ev.intersects(r) for r in e.positive):
            out.append(HyperEdge(frozenset(pos[s] for s in e.sources), pos[e.target], +1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SignedHyperdigraph(len(sprawl.nodes), out)


def row_missed(sprawl: Sprawl, query) -> np.ndarray:
    """Whether each fan row misses the query, as a search once tested it:
    the row's `Fans.edge(j)` region, its positive ball or its negative
    shell, through `_QueryEval.intersects`. The oracle of
    `_QueryEval.missed`, which takes a fan's rows as columns."""
    ev, fans = _QueryEval(sprawl.space, query), sprawl.fans
    edges = [fans.edge(j) for j in range(len(fans))]
    regions = [e.positive[0] if j < fans.found_rows else e.negative[0] for j, e in enumerate(edges)]
    return np.array([not ev.intersects(r) for r in regions], dtype=bool)


def check_rows(sprawl: Sprawl, res, workload) -> ResponsibilityReport:
    """`check_responsibility` edge by edge: every logical edge, each fan
    row as the `Edge` it stands for, its regions tested through
    `region_member_mask`. The oracle of its column path over the fans."""
    if not workload.atomistic:
        raise ValueError("responsibility is defined against an atomistic workload")
    edges = list(sprawl.iter_logical_edges())
    missing = set(sprawl.nodes) - {e.target for _, e in edges}
    if missing:
        raise StructureError(f"nodes {sorted(missing)} are targeted by no edge")
    order = TopologicalSorter()
    for _, e in edges:
        if e.discovers:
            order.add(e.target, *e.sources)
    try:
        order.prepare()
    except CycleError:
        raise StructureError("sprawl discovery edges are cyclic") from None
    node_res: dict[int, set[int]] = {v: {v} for v in sprawl.nodes}
    for idx, e in edges:
        for s in set(e.sources):
            node_res[s] |= res.get(idx)
    violations = []
    in_union: dict[int, set[int]] = {v: set() for v in sprawl.nodes}
    for idx, e in edges:
        in_union[e.target] |= res.get(idx)
        for rule, regions, refs in (("L1", e.positive, res.get(idx)), ("L2", e.negative, node_res[e.target])):
            refs = sorted(refs)
            for r in regions:
                inside = region_member_mask(sprawl.space, r, refs)
                violations.extend((rule, idx, v, repr(r)) for v, ok in zip(refs, inside) if not ok)
    for v in sprawl.nodes:
        for u in sorted(node_res[v] - in_union[v]):
            violations.append(("L3", None, v, f"responsibility {u} not covered by in-edges"))
    return ResponsibilityReport(not violations, violations)
