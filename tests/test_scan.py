"""`linear_scan` against `reference_scan`, its node-by-node form in
conftest.py: the same tuple, in the same order, for every query kind over
every kind of space, with nodes given as a range, a shuffled tuple, a
subset or nothing, on points whose distances tie exactly."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sprawl.comparison import (
    AmbitQuery,
    Ball,
    EuclideanSpace,
    ExplicitSetQuery,
    MatrixSpace,
    ProjectionSpace,
    StringSpace,
)
from sprawl.engine import linear_scan

from conftest import DYADIC, point_sets, random_quasimetric, reference_scan

# short strings over two letters, so that edit distances tie
WORDS = st.text("ab", max_size=4)


@st.composite
def spaces(draw):
    """A space and, where it takes raw values, a strategy for them: Lp
    points (L1, L2, L3 or L-infinity) or a projection of them, an
    asymmetric matrix of small whole distances, or strings."""
    kind = draw(st.sampled_from(("lp", "projection", "matrix", "strings")))
    if kind == "matrix":
        n = draw(st.integers(2, 10))
        arcs = draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n))
        d = np.array(arcs, dtype=float).reshape(n, n)
        np.fill_diagonal(d, 0.0)
        for k in range(n):  # the shortest-path closure, a quasimetric
            d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
        return MatrixSpace(d, symmetric=False), None
    if kind == "strings":
        return StringSpace(draw(st.lists(WORDS, min_size=1, max_size=12))), WORDS
    pts = draw(point_sets())
    dims = pts.shape[1]
    raw = st.one_of(
        st.lists(DYADIC, min_size=dims, max_size=dims).map(tuple),
        st.lists(st.floats(0.0, 1.0), min_size=dims, max_size=dims).map(tuple),
    )
    if kind == "projection":
        return ProjectionSpace(pts), raw
    return EuclideanSpace(pts, p=draw(st.sampled_from([1.0, 2.0, 3.0, np.inf]))), raw


def below(r: float) -> float:
    """The float just below r: a node at r lies outside, by one ulp."""
    return float(np.nextafter(r, -np.inf))


@st.composite
def scan_cases(draw):
    """A space, its nodes, and a query: a range ball at a radius read off
    the distance row (so that a node lies exactly on it, or one ulp
    outside), 0 or any radius; a kNN ball with k up to n + 2; an
    `AmbitQuery` of 1-2 foci (a projection's axes among them) at a radius
    read off its remoteness row so, or any radius; or an
    `ExplicitSetQuery` of any refs."""
    space, raw = draw(spaces())
    n = len(space)
    ref = st.integers(0, n - 1)
    focus = st.integers(0, n + space.dimension - 1) if isinstance(space, ProjectionSpace) else ref
    nodes = draw(
        st.one_of(
            st.just(range(n)),
            st.tuples(st.integers(0, n), st.integers(0, n), st.integers(1, 3)).map(
                lambda t: range(min(t[:2]), max(t[:2]), t[2])
            ),
            st.permutations(range(n)).map(tuple),
            st.lists(ref, unique=True),
            st.just(()),
        )
    )
    kind = draw(st.sampled_from(("range", "knn", "ambit", "set")))
    if kind in ("range", "knn"):
        center = draw(focus if raw is None else st.one_of(focus, raw))
        if kind == "knn":
            return space, nodes, Ball(center, 0.0, k=draw(st.integers(1, n + 2)))
        row = space.distances_from(center, range(n)).tolist()
        radius = draw(st.one_of(st.sampled_from(row), st.sampled_from(row).map(below), st.just(0.0), st.floats(0.0, 4.0)))
        return space, nodes, Ball(center, max(radius, 0.0))
    if kind == "ambit":
        foci = draw(st.lists(focus, min_size=1, max_size=2))
        weights = draw(st.lists(st.sampled_from([-1.0, 0.5, 1.0, 2.0]), min_size=len(foci), max_size=len(foci)))
        # delta(v, f): what the backward query region reads on any space
        row = sum(w * np.array([space.compare(v, f) for v in range(n)]) for w, f in zip(weights, foci))
        radius = draw(st.one_of(st.sampled_from(row.tolist()), st.sampled_from(row.tolist()).map(below), st.floats(-1.0, 4.0)))
        return space, nodes, AmbitQuery(foci, weights, radius)
    return space, nodes, ExplicitSetQuery(draw(st.lists(ref)))


@given(scan_cases())
def test_linear_scan_is_its_node_by_node_reference(case):
    space, nodes, query = case
    got = linear_scan(space, nodes, query)
    assert got == reference_scan(space, nodes, query)
    assert all(type(v) is int for v in got)


def _spaces_of_each_kind(rng, n):
    points = rng.random((n, 2))
    return (
        EuclideanSpace(points),
        ProjectionSpace(points),
        StringSpace(["".join(rng.choice(list("abc"), size=3)) for _ in range(n)]),
        MatrixSpace(EuclideanSpace(points).pairwise(range(n), range(n))),
        random_quasimetric(rng, n),
    )


def test_linear_scan_refuses_a_negative_node_ref(rng):
    # numpy indexing would read -1 as the last point, on the asymmetric
    # matrix's block of backward distances too
    n = 12
    for space in _spaces_of_each_kind(rng, n):
        for q in (Ball(3, 1.0), Ball(3, 0.0, k=2), AmbitQuery((3,), (1.0,), 1.0), AmbitQuery((3, 5), (1.0, -1.0), 0.5)):
            for nodes in ([0, -1, 2], (-n,), np.array([4, -3])):
                with pytest.raises(IndexError, match="negative"):
                    linear_scan(space, nodes, q)


def test_linear_scan_refuses_a_node_ref_outside_the_space_for_every_query_kind(rng):
    # an explicit set once answered from a set lookup that never read the
    # refs: `[-1, 3, 7, 1]` over 3 points gave (1,)
    assert linear_scan(EuclideanSpace([[0.0], [1.0], [2.0]]), [1, 0], ExplicitSetQuery({1})) == (1,)
    with pytest.raises(IndexError):
        linear_scan(EuclideanSpace([[0.0], [1.0], [2.0]]), [-1, 3, 7, 1], ExplicitSetQuery({1}))
    n = 12
    for space in _spaces_of_each_kind(rng, n):
        queries = (Ball(3, 1.0), Ball(3, 0.0, k=2), AmbitQuery((3, 5), (1.0, -1.0), 0.5), ExplicitSetQuery({3}))
        for q in queries:
            for nodes in ([0, -1, 2], (n,), np.array([4, n + 5]), range(n + 1)):
                with pytest.raises(IndexError):
                    linear_scan(space, nodes, q)


def test_linear_scan_refuses_a_query_ref_outside_the_space_before_any_distance(rng):
    n = 12
    out = n + 2  # past the points, and past the two axes of the projection space
    for space in _spaces_of_each_kind(rng, n):
        measured = []
        space._row = lambda a, refs: measured.append(refs)
        space.pairwise = lambda a, b: measured.append((a, b))
        for q in (ExplicitSetQuery({3, out}), ExplicitSetQuery({-1}), AmbitQuery((3, out), (1.0, 1.0), 1.0), AmbitQuery((-1,), (1.0,), 1.0)):
            for nodes in (range(n), tuple(range(n - 1, -1, -1)), ()):
                with pytest.raises(IndexError):
                    linear_scan(space, nodes, q)
        assert not measured, space.kind


def test_linear_scan_breaks_distance_ties_by_ref_in_any_node_order():
    # points 1, 2 and 4 lie at distance 1 from point 0, and 3 at 2
    space = EuclideanSpace([[0.0], [1.0], [-1.0], [2.0], [1.0]])
    assert linear_scan(space, range(5), Ball(0, 0.0, k=3)) == (0, 1, 2)
    assert linear_scan(space, (4, 3, 2, 1, 0), Ball(0, 0.0, k=3)) == (0, 1, 2)
    assert linear_scan(space, (2, 4, 1), Ball(0, 0.0, k=2)) == (1, 2)
    assert linear_scan(space, range(5), Ball(0, 0.0, k=9)) == (0, 1, 2, 4, 3)
    assert linear_scan(space, (4, 3, 2, 1, 0), Ball(0, 1.0)) == (4, 2, 1, 0)
