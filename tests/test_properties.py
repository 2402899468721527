"""Properties against `linear_scan`, under the derandomised profile of
conftest.py (QuickCheck style: Claessen & Hughes, ICFP 2000).

The inputs are the ones that break exact search: duplicate points, and
points on a dyadic grid, whose distances tie exactly, with range radii read
off the scan's own distance row, so that a boundary point lies exactly on
the query sphere; and degenerate regions: shells with lo == hi, zero-width
ones about duplicate points among them, and balls of radius 0. The later
properties also draw the norm, L1, L2, L3 or L-infinity, and run every
heuristic: the default, FIFO, "bound" and LIFO. The last one draws the
non-ball queries: weighted-focal ambits and explicit sets.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sprawl.ambit import LinearMap
from sprawl.comparison import AmbitQuery, Ball, EuclideanSpace, ExplicitSetQuery
from sprawl.engine import Edge, Fans, Sprawl, build_classic, linear_scan, search
from sprawl.hypergraph import Heuristic

from conftest import DYADIC, make_fans, point_sets

HEURISTICS = (None, Heuristic.fifo(), Heuristic("bound"), Heuristic.lifo())  # None: the default


@st.composite
def cases(draw):
    """Points, a centre (a data point's coordinates, a dyadic point or any
    point) and a range radius read off the distance row, or 0."""
    pts = draw(point_sets())
    n, dims = pts.shape
    center = draw(
        st.one_of(
            st.integers(0, n - 1).map(lambda i: tuple(pts[i])),
            st.lists(DYADIC, min_size=dims, max_size=dims).map(tuple),
            st.lists(st.floats(0.0, 1.0), min_size=dims, max_size=dims).map(tuple),
        )
    )
    return pts, center, draw(st.integers(0, n)), draw(st.integers(1, n + 1))


def _queries(space, n, center, rank, k):
    """A range query at the rank-th distance of the row (0: radius 0), a kNN
    query, and the scan's answers to both."""
    row = np.sort(space.distances_from(center, range(n)))
    in_range = Ball(center, float(row[rank - 1]) if rank else 0.0)
    nearest = Ball(center, 0.0, k=k)
    return in_range, nearest, set(linear_scan(space, range(n), in_range)), linear_scan(space, range(n), nearest)


@given(cases())
def test_trees_answer_as_the_scan_does(case):
    pts, center, rank, k = case
    space = EuclideanSpace(pts)
    n = len(pts)
    in_range, nearest, want, want_knn = _queries(space, n, center, rank, k)
    for kind, params in (("ball-tree", {}), ("pm-tree", {"pivots": min(3, n - 1)})):
        sprawl, _ = build_classic(space, range(n), kind, **params)
        assert set(search(sprawl, in_range, Heuristic.fifo()).members) == want, kind
        assert search(sprawl, nearest, Heuristic("bound")).members == want_knn, kind


@given(cases())
def test_dense_plans_answer_as_the_scan_does(case):
    # AESA and LAESA select from the dense bound array of their plan; their
    # shells are spheres, lo == hi, and a twin that holds the same bounds as
    # two separate columns must answer alike
    pts, center, rank, k = case
    space = EuclideanSpace(pts)
    n = len(pts)
    in_range, nearest, want, want_knn = _queries(space, n, center, rank, k)
    for kind, params in (("aesa", {}), ("laesa", {"pivots": min(3, n - 1)})):
        sprawl, _ = build_classic(space, range(n), kind, **params)
        f = sprawl.fans
        assert f.hi is f.lo, kind
        twin = Sprawl(space, sprawl.nodes, sprawl.edges, Fans(f.source, f.start, f.target, f.lo, f.lo.copy(), f.discovers, f.lazy))
        for s in (sprawl, twin):
            assert s._plan()[0].positions is not None, kind  # the plan is dense
            assert set(search(s, in_range, Heuristic.fifo()).members) == want, kind
            assert search(s, nearest, Heuristic("bound")).members == want_knn, kind


@st.composite
def ball_trees(draw):
    """A case whose points hang in a random tree from node 0: node v > 0 has
    one ball row from a parent p < v, of the radius that just covers v's
    subtree, so a leaf on top of its parent (the last node is made one) has
    a ball of radius 0."""
    pts, center, rank, k = draw(cases())
    n = len(pts)
    parent = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    pts = pts.copy()
    pts[n - 1] = pts[parent[n - 1]]
    return pts, parent, center, rank, k


@given(ball_trees())
def test_radius_zero_ball_rows_answer_as_the_scan_does(case):
    pts, parent, center, rank, k = case
    space = EuclideanSpace(pts)
    n = len(pts)
    below = [{v} for v in range(n)]  # each node's subtree
    for v in range(n - 1, 0, -1):
        below[parent[v]] |= below[v]
    rows = sorted((parent[v], v, float(space.distances_from(parent[v], sorted(below[v])).max())) for v in range(1, n))
    assert any(r == 0.0 for _, _, r in rows)
    sprawl = Sprawl(space, range(n), [Edge((), 0)], make_fans(rows))
    in_range, nearest, want, want_knn = _queries(space, n, center, rank, k)
    assert set(search(sprawl, in_range, Heuristic.fifo()).members) == want
    assert search(sprawl, nearest, Heuristic("bound")).members == want_knn


@st.composite
def lp_cases(draw):
    """A case on the Lp space of its points, p in {1, 2, 3, inf}."""
    pts, center, rank, k = draw(cases())
    return EuclideanSpace(pts, p=draw(st.sampled_from([1.0, 2.0, 3.0, np.inf]))), center, rank, k


def _answers_as_the_scan_does(sprawl, center, rank, k, label):
    n = len(sprawl.nodes)
    in_range, nearest, want, want_knn = _queries(sprawl.space, n, center, rank, k)
    for h in HEURISTICS:
        assert set(search(sprawl, in_range, h).members) == want, (label, h)
        assert search(sprawl, nearest, h).members == want_knn, (label, h)


@given(lp_cases())
def test_classic_indexes_answer_as_the_scan_does_under_every_heuristic_and_norm(case):
    space, center, rank, k = case
    n = len(space)
    pivots = {"pivots": min(3, n - 1)}
    for kind, params in (("ball-tree", {}), ("pm-tree", pivots), ("aesa", {}), ("laesa", pivots)):
        sprawl, _ = build_classic(space, range(n), kind, **params)
        _answers_as_the_scan_does(sprawl, center, rank, k, kind)


@st.composite
def widened_shells(draw):
    """An Lp case whose sprawl makes every point a root and hangs an eager
    shell fan from each of 1-3 pivots: a row's lo and hi are the pivot's
    distance to its target, widened by a drawn epsilon >= 0 on each side
    (often 0, so that lo == hi stays among the rows)."""
    space, center, rank, k = draw(lp_cases())
    n = len(space)
    epsilon = st.one_of(st.just(0.0), DYADIC, st.floats(0.0, 0.5))
    groups = []
    for u in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)):
        targets = [v for v in range(n) if v != u]
        d = space.distances_from(u, targets)
        below, above = (np.array(draw(st.lists(epsilon, min_size=n - 1, max_size=n - 1))) for _ in range(2))
        groups.append((u, targets, (d - below).tolist(), (d + above).tolist()))
    sprawl = Sprawl(space, range(n), [Edge((), v) for v in range(n)], make_fans(groups=groups))
    assert not sprawl.fans.lazy.any() and sprawl.fans.found == 0
    return sprawl, center, rank, k


@given(widened_shells())
def test_widened_shells_answer_as_the_scan_does(case):
    sprawl, center, rank, k = case
    _answers_as_the_scan_does(sprawl, center, rank, k, "shells")


@st.composite
def non_ball_cases(draw):
    """4-30 points on L1, L2 or L-infinity, one classic kind built over them,
    and one query: an `AmbitQuery` of 1-3 foci, each weight of either sign,
    at a radius read off the scan's remoteness row (so that a boundary point
    lies exactly on it) or any radius, or an `ExplicitSetQuery` that is
    empty, a singleton or any subset."""
    pts = draw(point_sets(most=30))
    n = len(pts)
    space = EuclideanSpace(pts, p=draw(st.sampled_from([1.0, 2.0, np.inf])))
    kind = draw(st.sampled_from(("ball-tree", "pm-tree", "aesa", "laesa")))
    sprawl, _ = build_classic(space, range(n), kind, pivots=min(3, n - 1))
    ref = st.integers(0, n - 1)
    if draw(st.booleans()):
        foci = draw(st.lists(ref, min_size=1, max_size=3))
        weight = st.one_of(st.sampled_from([-1.0, -0.5, 0.5, 1.0]), st.floats(-2.0, 2.0))
        weights = draw(st.lists(weight, min_size=len(foci), max_size=len(foci)).filter(any))
        row = LinearMap([weights]).remoteness(np.array([space.distances_from(f, range(n)) for f in foci]))[0]
        radius = draw(st.one_of(st.sampled_from(sorted(row.tolist())), st.floats(-2.0, 4.0)))
        return sprawl, AmbitQuery(foci, weights, radius)
    ids = draw(st.one_of(st.just([]), ref.map(lambda i: [i]), st.lists(ref, unique=True)))
    return sprawl, ExplicitSetQuery(ids)


@given(non_ball_cases())
def test_non_ball_queries_answer_as_the_scan_does_and_measure_each_pair_once(case):
    # a search measures a node or region focus against each query ref at
    # most once, and every focus it measures is a node it traverses
    sprawl, query = case
    want = linear_scan(sprawl.space, sprawl.nodes, query)
    refs = len(query.foci) if isinstance(query, AmbitQuery) else len(query.ids)
    for h in HEURISTICS:
        got = search(sprawl, query, h)
        assert got.members == want, h
        assert got.distance_computations <= refs * got.traversed, (h, got)
