"""Properties against `linear_scan`, under the derandomised profile of
conftest.py (QuickCheck style: Claessen & Hughes, ICFP 2000).

The inputs are the ones that break exact search: duplicate points, and
points on a dyadic grid, whose distances tie exactly, with range radii read
off the scan's own distance row, so that a boundary point lies exactly on
the query sphere.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sprawl.comparison import Ball, EuclideanSpace
from sprawl.engine import build_classic, linear_scan, search
from sprawl.hypergraph import Heuristic

DYADIC = st.integers(0, 8).map(lambda i: i / 8)


@st.composite
def point_sets(draw):
    """4-20 points in [0, 1]^d, d = 1-3: uniform, on the dyadic grid of step
    1/8, or a few such points each repeated."""
    dims = draw(st.integers(1, 3))
    coordinate = draw(st.sampled_from([st.floats(0.0, 1.0), DYADIC]))
    point = st.lists(coordinate, min_size=dims, max_size=dims)
    if draw(st.booleans()):
        pts = draw(st.lists(point, min_size=4, max_size=20))
    else:
        distinct = draw(st.lists(point, min_size=1, max_size=6))
        picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=4, max_size=20))
        pts = [distinct[i] for i in picks]
    return np.array(pts, dtype=float)


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


@given(cases())
def test_trees_answer_as_the_scan_does(case):
    pts, center, rank, k = case
    space = EuclideanSpace(pts)
    n = len(pts)
    row = np.sort(space.distances_from(center, range(n)))
    radius = float(row[rank - 1]) if rank else 0.0
    in_range, nearest = Ball(center, radius), Ball(center, 0.0, k=k)
    want = linear_scan(space, range(n), in_range)
    for kind, params in (("ball-tree", {}), ("pm-tree", {"pivots": min(3, n - 1)})):
        sprawl, _ = build_classic(space, range(n), kind, **params)
        assert set(search(sprawl, in_range, Heuristic.fifo()).members) == set(want), kind
        assert search(sprawl, nearest, Heuristic("bound")).members == linear_scan(space, range(n), nearest), kind
