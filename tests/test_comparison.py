import dataclasses
import dis
import itertools
import pickle

import numpy as np
import pytest

from sprawl.comparison import (
    PAIR_MAX_D,
    PAIR_PS,
    AmbitQuery,
    Ball,
    CostSession,
    EuclideanSpace,
    ExplicitSetQuery,
    MatrixSpace,
    ProjectionSpace,
    StringSpace,
    Workload,
    build_hardness_gadget,
    check_triangle,
    feature_map,
    _pair_sum,
    levenshtein,
    lp_norm,
)
from sprawl.engine import build_classic, linear_scan, reduce_to_signed, search
from sprawl.hypergraph import Heuristic

from conftest import random_quasimetric


def test_euclidean_pythagorean():
    space = EuclideanSpace([[0.0, 0.0], [3.0, 4.0]])
    assert space.compare(0, 1) == 5.0


def test_self_distance_zero_everywhere():
    spaces = [
        EuclideanSpace([[0.5, 0.5], [1.0, 0.0]]),
        EuclideanSpace([[2.0], [3.0]], p=1.0),
        StringSpace(["abc", "abd"]),
        MatrixSpace([[0.0, 1.0], [1.0, 0.0]]),
    ]
    for space in spaces:
        for v in range(len(space)):
            assert space.compare(v, v) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_lp_compare_equals_distances_from_rows(rng, p):
    # one distance, three call shapes: search compares one pair at a time,
    # linear_scan takes a row, and a k-NN radius read off a row must admit
    # the point that sits on it
    for dims in (1, 2, 3, 8, 9, 17):
        space = EuclideanSpace(rng.random((300, dims)), p=p)
        for c in list(rng.random((5, dims))) + [space.points[7]]:
            row = space.distances_from(tuple(c), range(300))
            assert [space.compare(tuple(c), i) for i in range(300)] == row.tolist()
            assert [space.compare(i, tuple(c)) for i in range(300)] == row.tolist()
            assert space.pairwise(range(300), [0])[:, 0].tolist() == space.distances_from(0, range(300)).tolist()
    space = EuclideanSpace(rng.random((200, 8)), p=p)
    sprawl, _ = build_classic(space, range(200), "aesa")
    for c in rng.random((5, 8)):
        row = space.distances_from(tuple(c), range(200))
        kth = int(np.argsort(row, kind="stable")[9])
        got = search(sprawl, Ball(tuple(c), float(row[kth])))
        assert kth in got.members
        assert got.members == linear_scan(space, range(200), Ball(tuple(c), float(row[kth])))
        assert search(sprawl, Ball(tuple(c), 0.0, k=10)).members[-1] == kth


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_lp_pair_kernel_matches_rows_bit_for_bit(p):
    # a search measures traversed nodes as plain float pairs; each pair must
    # be the float that compare, a row and a block give, to the last bit,
    # over mixed magnitudes, -0.0, subnormal differences and terms, and every
    # branch of the summation order (below 8 terms, 8 lanes, halves split
    # at a multiple of 8)
    rng = np.random.default_rng(19)
    for d in [*range(1, 18), 31, 64, 129, 300]:
        pts = rng.choice([-1.0, 1.0], size=(24, d)) * rng.random((24, d)) * 10.0 ** rng.uniform(-3, 3, size=(24, d))
        pts[::5, 0] = -0.0
        pts[12:15] = rng.integers(-3, 4, size=(3, d)) * 5e-324  # subnormal coordinates and differences
        pts[15:18] = pts[12:15] + rng.integers(-3, 4, size=(3, d)) * 5e-324
        pts[18:21] = rng.random((3, d)) * 1e-160  # squares that are subnormal
        space = EuclideanSpace(pts, p=p)
        plain = [space.plain(space.value(i)) for i in range(24)]
        assert isinstance(plain[0], tuple) == (p in PAIR_PS and d <= PAIR_MAX_D)
        floats = [tuple(row) for row in pts.tolist()]
        block = space.pairwise(range(24), range(24))
        for i in range(24):
            row = space.distances_from(i, range(24))
            for j in range(24):
                want = float(row[j]).hex()
                assert space.compare(i, j).hex() == want, (d, i, j)
                assert float(block[i, j]).hex() == want, (d, i, j)
                assert space.measurer(plain[i])(plain[j]).hex() == want, (d, i, j)
                if p in PAIR_PS:  # the kernel itself, also past PAIR_MAX_D
                    assert lp_norm(floats[i], p, floats[j]).hex() == want, (d, i, j)


@pytest.mark.parametrize("p", [*PAIR_PS, 3.0])
def test_a_space_pickles_with_its_pair_kernel(p):
    # the space holds its generated pair kernel, which pickle cannot name
    space = EuclideanSpace(np.random.default_rng(5).random((6, 8)), p=p)
    copy = pickle.loads(pickle.dumps(space))
    a, b = (copy.plain(copy.value(i)) for i in (1, 4))
    assert copy.measurer(a)(b) == space.compare(1, 4) and copy.p == p


@pytest.mark.parametrize(
    "space",
    [EuclideanSpace([[0.0, 0.0], [3.0, 4.0]], p=3.0), EuclideanSpace(np.eye(2, PAIR_MAX_D + 1))],
    ids=["p3", "past-max-d"],
)
def test_a_space_without_the_pair_form_never_reaches_the_pair_kernel(space):
    # points stay arrays, and a pair of tuples is refused as before, not
    # measured under another norm
    a, b = space.value(0), space.value(1)
    assert space.plain(a) is a
    with pytest.raises(TypeError):
        space.measurer(tuple(a.tolist()))(tuple(b.tolist()))
    with pytest.raises(ValueError):
        _pair_sum(2, 3.0)


@pytest.mark.parametrize("p", PAIR_PS)
def test_lp_pair_kernel_source_holds_only_products_and_sums(p):
    # the pair kernel takes no root and calls nothing that rounds apart from
    # numpy's rows: no sum (compensated from Python 3.12), fsum, dist, hypot,
    # sqrt, pow or **
    for d in (1, 7, 8, 9, 129):
        code = _pair_sum(d, p).__code__
        assert set(code.co_names) <= {"abs", "max"}, code.co_names
        assert not [i for i in dis.get_instructions(code) if "POWER" in i.opname or i.argrepr in ("**", "**=")]


@pytest.mark.parametrize("kind", ["ball-tree", "aesa", "laesa", "pm-tree"])
def test_range_at_the_exact_knn_radius_under_l3(kind):
    # a radius read off distances_from puts a point exactly on the boundary;
    # search must see that point at the same distance as linear_scan does
    rng = np.random.default_rng(3)
    space = EuclideanSpace(rng.random((400, 8)), p=3.0)
    sprawl, _ = build_classic(space, range(400), kind)
    for c in rng.random((40, 8)):
        row = space.distances_from(tuple(c), range(400))
        q = Ball(tuple(c), float(np.partition(row, 3)[3]))
        assert search(sprawl, q).members == linear_scan(space, range(400), q)


def test_compare_counts_on_session():
    space = EuclideanSpace([[0.0], [1.0], [2.0]])
    session = CostSession()
    space.compare(0, 1, session)
    space.distances_from(0, [0, 1, 2], session)
    assert session.distance_computations == 4


def test_raw_value_comparisons():
    space = EuclideanSpace([[0.0, 0.0], [1.0, 1.0]])
    assert space.compare((3.0, 4.0), 0) == 5.0
    with pytest.raises(ValueError):
        space.compare((1.0,), 0)


@pytest.mark.parametrize("centre", [(float("nan"), 0.5), (0.5, float("inf")), (-float("inf"), 0.0)])
def test_non_finite_raw_point_refused(rng, centre):
    # every distance to such a centre is NaN or inf: kNN used to return one
    # member of three and a range query none, without an error
    pts = rng.random((30, 2))
    for space in (EuclideanSpace(pts), ProjectionSpace(pts)):
        with pytest.raises(ValueError, match="finite"):
            space.compare(centre, 0)
        sprawl, _ = build_classic(space, range(30), "ball-tree")
        for query in (Ball(centre, 0.3), Ball(centre, 0.0, k=3)):
            with pytest.raises(ValueError, match="finite"):
                search(sprawl, query)
            with pytest.raises(ValueError, match="finite"):
                linear_scan(space, range(30), query)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("d", [3, 8, PAIR_MAX_D, PAIR_MAX_D + 1])
def test_a_measurer_is_measure_uncounted(rng, p, d):
    # a search measures every node it takes alone through its centre's
    # measurer and charges the session itself: the measurer must give the
    # float of `compare` and of a `distances_from` row to the last bit, in
    # the pair form and in the array form past PAIR_MAX_D, and count nothing
    pts = rng.random((30, d)) * 10.0 ** rng.uniform(-3, 3, size=(30, d))
    space = EuclideanSpace(pts, p=p)
    session = CostSession()
    raw = tuple(rng.random(d))
    dist = space.measurer(space.plain(space.resolve(raw)))
    row = space.distances_from(raw, range(30), session)
    for v in range(30):
        got = dist(space.plain(space.value(v))).hex()
        assert got == space.compare(raw, v, session).hex() == float(row[v]).hex(), v
    assert session.distance_computations == 60  # the row's and compare's charges alone


@pytest.mark.parametrize(
    "space, centre",
    [
        (MatrixSpace([[0.0, 1.0, 2.5], [1.0, 0.0, 0.5], [2.5, 0.5, 0.0]]), 1),
        (StringSpace(["kitten", "sitting", "", "mitten"]), "sitting"),
        (ProjectionSpace([[0.0, 0.5], [3.0, 4.0], [1.0, 1.0]]), (1.0, 2.0)),
    ],
    ids=["matrix", "strings", "projection"],
)
def test_every_space_has_a_measurer(space, centre):
    dist = space.measurer(space.plain(space.resolve(centre)))
    row = space.distances_from(centre, range(len(space)))
    for v in range(len(space)):
        assert dist(space.plain(space.value(v))) == space.compare(centre, v) == row[v]


@pytest.mark.parametrize("cls", [EuclideanSpace, ProjectionSpace, MatrixSpace])
def test_a_space_leaves_the_caller_array_writable(cls):
    # a space freezes a copy of its array: the caller's array stays
    # writable, and writing to it changes no distance
    x = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 4.0], [2.0, 4.0, 0.0]])  # a metric's matrix too
    space = cls(x)
    before = space.pairwise(range(3), range(3)).tolist()
    assert x.flags.writeable
    x[:] = 9.0
    assert space.pairwise(range(3), range(3)).tolist() == before


def _bits(a) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def test_coerced_point_is_a_checked_read_only_copy():
    # a space keeps no raw point: every raw value is checked and copied
    # again, so a caller's array that changes after one check is checked again
    space = EuclideanSpace([[0.0, 0.0], [3.0, 4.0]])
    raw = np.array([0.0, 0.0])
    assert space.compare(raw, 1) == 5.0
    raw[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        space.compare(raw, 1)
    c = space._coerce((3.0, 4.0))
    again = space._coerce(c)
    assert not c.flags.writeable and again is not c and not again.flags.writeable
    assert _bits(again) == _bits(c)
    assert space.compare(c, 1) == 0.0


@pytest.mark.parametrize("kind", ["ball-tree", "aesa", "laesa", "pm-tree"])
@pytest.mark.parametrize("space_type", [EuclideanSpace, ProjectionSpace])
def test_search_resolves_a_raw_centre_once_and_writes_nothing_to_the_space(rng, monkeypatch, kind, space_type):
    space = space_type(rng.random((40, 2)))
    sprawl, _ = build_classic(space, range(40), kind, pivots=4)
    coerce, calls = space_type._coerce, []

    def counted(self, raw):
        calls.append(raw)
        return coerce(self, raw)

    monkeypatch.setattr(space_type, "_coerce", counted)
    state = dict(vars(space))
    for query in (Ball((0.4, 0.6), 0.3), Ball((0.4, 0.6), 0.0, k=5)):
        for heuristic in (None, Heuristic.fifo(), Heuristic("bound"), Heuristic.lifo()):
            calls.clear()
            got = search(sprawl, query, heuristic)
            assert calls == [query.center], (query, heuristic)
            assert got.distance_computations > 1
            want = linear_scan(space, range(40), query)
            assert got.members == (want if query.k else tuple(sorted(want)))
    assert vars(space).keys() == state.keys()
    assert all(vars(space)[key] is value for key, value in state.items())


def test_invalid_ref_raises():
    space = EuclideanSpace([[0.0], [1.0]])
    with pytest.raises(IndexError):
        space.compare(0, 5)


# --- feature maps -------------------------------------------------------------


def test_feature_map_self_distance():
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0]])
    assert feature_map(space, (0,), 0).values == (0.0,)


def test_feature_map_direct_distances():
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0]])
    assert feature_map(space, (0, 1), 1).values == (1.0, 0.0)


def test_feature_map_projection_pseudo_foci():
    space = ProjectionSpace([[0.3, 0.7]])
    axes = (space.axis_ref(0), space.axis_ref(1))
    got = feature_map(space, axes, 0).values
    assert got == (0.3, 0.7)


def test_feature_map_deterministic():
    space = EuclideanSpace(np.random.default_rng(3).random((10, 4)))
    foci = (1, 4, 7)
    assert feature_map(space, foci, 2) == feature_map(space, foci, 2)


def test_feature_map_backward_for_asymmetric(rng):
    space = random_quasimetric(rng, 6)
    fv = feature_map(space, (0, 1), 3)
    assert fv.backward is not None
    assert fv.values == (space.compare(0, 3), space.compare(1, 3))
    assert fv.backward == (space.compare(3, 0), space.compare(3, 1))


# --- the hardness gadget ------------------------------------------------------


def _gadget_oracle(adjacency, eps):
    """Straight transcription of the case split, for cross-checking."""
    n = len(adjacency)
    d = np.zeros((n + 1, n + 1))
    for u in range(n + 1):
        for v in range(n + 1):
            if u == v:
                d[u, v] = 0.0
            elif u == n or v == n:
                d[u, v] = 3.0 + eps
            elif v in adjacency[u]:
                d[u, v] = 2.0
            else:
                d[u, v] = 3.0
    return d


def test_gadget_triangle_k3():
    adjacency = [{1, 2}, {0, 2}, {0, 1}]
    space, q = build_hardness_gadget(adjacency, 0.5)
    assert q == 3
    expected = _gadget_oracle(adjacency, 0.5)
    assert np.array_equal(space.matrix, expected)
    off = space.matrix[~np.eye(4, dtype=bool)]
    assert set(off.tolist()) == {2.0, 3.5}


def test_gadget_single_edge():
    space, q = build_hardness_gadget([{1}, {0}], 1.0)
    assert space.compare(0, 1) == 2.0
    assert space.compare(0, q) == 4.0
    assert space.compare(1, q) == 4.0


def test_gadget_empty_graph():
    space, _ = build_hardness_gadget([set(), set()], 0.5)
    assert space.compare(0, 1) == 3.0


def test_gadget_metric_exhaustive(rng):
    for _ in range(5):
        n = int(rng.integers(2, 9))
        adjacency = [set() for _ in range(n)]
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.4:
                adjacency[u].add(v)
                adjacency[v].add(u)
        space, _ = build_hardness_gadget(adjacency, float(rng.random() * 0.9 + 0.1))
        ok, witness = check_triangle(space, exhaustive_limit=n + 1)
        assert ok, witness


def test_gadget_epsilon_bounds():
    with pytest.raises(ValueError):
        build_hardness_gadget([set()], 0.0)
    with pytest.raises(ValueError):
        build_hardness_gadget([set()], 1.5)


# --- metric properties --------------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
def test_metric_triples_euclidean(rng, p):
    space = EuclideanSpace(rng.random((40, 5)), p=p)
    for _ in range(10_000):
        u, v, w = rng.integers(0, 40, size=3)
        assert space.compare(u, w) <= space.compare(u, v) + space.compare(v, w) + 1e-9


def test_metric_triples_levenshtein(rng):
    alphabet = "ab"
    words = ["".join(rng.choice(list(alphabet), size=rng.integers(0, 6))) for _ in range(30)]
    space = StringSpace(words)
    d = space.pairwise(range(30), range(30))  # precomputed, then 10k triples
    for _ in range(10_000):
        u, v, w = rng.integers(0, 30, size=3)
        assert d[u, w] <= d[u, v] + d[v, w]


def test_levenshtein_known_value():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abc") == 0


def test_quasimetric_generator_oriented_triangle(rng):
    space = random_quasimetric(rng, 12)
    for u, v, w in itertools.product(range(12), repeat=3):
        assert space.matrix[u, w] <= space.matrix[u, v] + space.matrix[v, w] + 1e-9


# --- matrix validation --------------------------------------------------------


def test_matrix_space_validation():
    with pytest.raises(ValueError):
        MatrixSpace([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        MatrixSpace([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        MatrixSpace([[0.0, 1.0], [2.0, 0.0]], symmetric=True)
    asym = MatrixSpace([[0.0, 1.0], [2.0, 0.0]])
    assert not asym.symmetric
    # NaN != NaN, so a NaN entry used to pass as a merely asymmetric one
    for symmetric in (None, False, True):
        with pytest.raises(ValueError, match="non-negative and not NaN"):
            MatrixSpace([[0.0, np.nan], [np.nan, 0.0]], symmetric=symmetric)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spaces_refuse_non_finite_data(bad):
    # every distance to such a point is NaN or inf, which no index can
    # order or bound: a kNN search over an infinite point gave a different
    # answer than the scan
    pts = [[0.0, 0.5], [bad, 1.0], [1.0, 0.0]]
    for make in (EuclideanSpace, ProjectionSpace, lambda p: EuclideanSpace(p, p=1.0)):
        with pytest.raises(ValueError, match="must be finite, not NaN or inf"):
            make(pts)
        with pytest.raises(ValueError, match="must be finite, not NaN or inf"):
            make([0.0, bad, 1.0, 2.0])
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    m[0, 2] = bad
    for symmetric in (None, False):
        with pytest.raises(ValueError, match="not NaN or inf"):
            MatrixSpace(m, symmetric=symmetric)
    # the largest finite values are data, where no distance between them overflows
    assert len(EuclideanSpace([[1e308], [1e308]])) == 2
    assert len(EuclideanSpace([[1e308], [0.0]], p=1.0)) == 2


def test_overflowing_distances_are_refused(rng):
    # the differences of +-1e308 overflow to an infinite distance: ball-tree
    # answered (0, 1, 2), AESA (0, 3) and the scan (0, 3, 1, 2) to the same
    # kNN query, so such data is refused when a space is made
    pts = [[0.0], [1e308], [-1e308], [1.0]]
    for make in (EuclideanSpace, ProjectionSpace, lambda p: EuclideanSpace(p, p=1.0)):
        with pytest.raises(ValueError, match="span too far"):
            make(pts)
    # L2 squares each difference: a span of 1e160 overflows there, not in L1
    with pytest.raises(ValueError, match="span too far"):
        EuclideanSpace([[0.0], [1e160]])
    assert len(EuclideanSpace([[0.0], [1e160]], p=1.0)) == 2
    # a raw centre is refused where its distance to some point would
    # overflow, and only there: the farthest corner of the points' box
    # decides, on either side of the box and in every call shape
    for d, p in ((1, 2.0), (3, 2.0), (20, 2.0), (3, 1.0), (3, 3.0)):
        space = EuclideanSpace(rng.random((30, d)), p=p)
        sprawls = [build_classic(space, range(30), kind, pivots=4)[0] for kind in ("ball-tree", "aesa")]
        edge = (np.finfo(float).max / d) ** (1.0 / p)  # the sum of d terms edge ** p overflows
        for sign in (1.0, -1.0):
            assert len(linear_scan(space, range(30), Ball((sign * edge / 2,) * d, 0.0, k=30))) == 30
            query = Ball((sign * edge * 2,) * d, 0.0, k=4)
            with pytest.raises(ValueError, match="too far"):
                linear_scan(space, range(30), query)
            for sprawl in sprawls:
                with pytest.raises(ValueError, match="too far"):
                    search(sprawl, query)
    projection = ProjectionSpace(rng.random((5, 2)))
    with pytest.raises(ValueError, match="too far"):
        projection.compare((1.4e154, 0.0), 0)


def test_queries_validate():
    with pytest.raises(ValueError):
        Ball((0.0,), -1.0)
    with pytest.raises(ValueError):
        Ball((0.0,), float("nan"))
    with pytest.raises(ValueError):
        Ball((0.0,), 0.0, k=0)
    assert Ball((0.0,), float("inf")).radius == float("inf")
    w = Workload([Ball((0.0,), 1.0)], atomistic=False)
    assert len(w.queries) == 1


@pytest.mark.parametrize("kind, n", [("ball-tree", 40), ("aesa", 20)])
def test_ball_k_is_a_whole_number(rng, kind, n):
    # a k of 2.5 would never fill the k nearest, a NaN k would read an
    # empty heap of them, and True would read as 1: each is refused before
    # any search runs
    space = EuclideanSpace(rng.random((n, 2)))
    sprawl, _ = build_classic(space, range(n), kind)
    centre = tuple(rng.random(2))
    for k, error in ((2.5, TypeError), (float("nan"), TypeError), (True, TypeError), (0, ValueError), (-1, ValueError)):
        with pytest.raises(error, match="k must be"):
            search(sprawl, Ball(centre, 0.0, k=k))
        with pytest.raises(error, match="k must be"):
            linear_scan(space, range(n), Ball(centre, 0.0, k=k))
    # a numpy integer is a whole number, and is read as the int it holds
    for k in (np.int64(3), np.int32(1), np.uint8(n)):
        q = Ball(centre, 0.0, k=k)
        assert type(q.k) is int and q.k == k
        want = linear_scan(space, range(n), Ball(centre, 0.0, k=int(k)))
        assert search(sprawl, q).members == want and len(want) == k


def test_queries_are_frozen():
    # a query is checked once, when it is built: `q.k = 2.5` after that
    # would make a search fill the k nearest with a k it never checked
    queries = (
        Ball(np.array([0.5, 0.5]), 1.0),
        Ball(3, 0.0, k=np.int64(2)),
        AmbitQuery([np.int64(0), 1], [1, 2], 2.0),
        ExplicitSetQuery([np.int64(1), 2]),
    )
    for q in queries:
        for f in dataclasses.fields(q):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(q, f.name, getattr(q, f.name))
    # the coercions still hold
    assert queries[0].center == (0.5, 0.5) and type(queries[1].k) is int
    assert queries[2].foci == (0, 1) and queries[2].weights == (1.0, 2.0)
    assert queries[3].ids == frozenset({1, 2}) and all(type(i) is int for i in queries[3].ids)


def _spaces_of_each_kind(rng, n: int) -> tuple:
    """Euclidean, projection, string and matrix spaces of n points each."""
    points = rng.random((n, 2))
    strings = ["".join(rng.choice(list("abc"), size=int(rng.integers(1, 8)))) for _ in range(n)]
    return (
        EuclideanSpace(points),
        ProjectionSpace(points),
        StringSpace(strings),
        MatrixSpace(EuclideanSpace(points).pairwise(range(n), range(n))),
    )


def test_paired_gives_the_floats_of_rows_and_blocks(rng):
    n = 30
    points = rng.random((n, 2))
    extra = tuple(EuclideanSpace(points, p) for p in (1.0, np.inf, 3.0))
    a, b = rng.integers(0, n, 200), rng.integers(0, n, 200)
    for space in _spaces_of_each_kind(rng, n) + extra:
        got = space.paired(a, b)
        assert got.dtype == float and got.shape == (200,)
        rows = np.array([space.distances_from(int(x), [int(y)])[0] for x, y in zip(a, b)])
        block = space.pairwise(range(n), range(n))
        assert got.view(np.uint64).tolist() == rows.view(np.uint64).tolist(), space.kind
        assert got.view(np.uint64).tolist() == block[a, b].view(np.uint64).tolist(), space.kind
        assert space.paired([], []).shape == (0,)
        for refs in (([0, -1], [1, 2]), ([1, 2], [3, -2])):
            with pytest.raises(IndexError):
                space.paired(*refs)
        with pytest.raises(ValueError):
            space.paired([0, 1], [2])


def test_a_negative_ref_is_refused(rng):
    # a sequence reads a negative index from its end: Ball(-1, r) would
    # search about the last point of the space, and a row of refs would
    # measure it
    n = 40
    spaces = _spaces_of_each_kind(rng, n)
    points = spaces[1].points
    for space in spaces:
        sprawl, _ = build_classic(space, range(n), "ball-tree")
        with pytest.raises(IndexError):
            space.compare(-1, n - 1)
        with pytest.raises(IndexError):
            space.distances_from(n - 1, [-1])
        with pytest.raises(IndexError):
            linear_scan(space, [-1, 3], Ball(n - 1, 0.0))
        for q in (Ball(-1, 1.0), Ball(-1, 0.0, k=3), AmbitQuery((-1,), (1.0,), 1.0)):
            with pytest.raises(IndexError):
                search(sprawl, q)
            with pytest.raises(IndexError):
                linear_scan(space, range(n), q)
        q = Ball(n - 1, 1.0)
        assert search(sprawl, q).members == linear_scan(space, range(n), q), space.kind
    # axis pseudo-foci lie past the points, and stay valid refs
    space = spaces[1]
    assert space.compare(space.axis_ref(1), 3) == points[3, 1]


def test_a_query_ref_outside_the_space_is_refused_before_any_distance(rng):
    # the refs of an ambit or explicit-set query are checked when the search
    # starts, not when the search first measures one
    n = 40
    out = n + 2  # past the points, and past the two axis pseudo-foci of the projection space
    for space in _spaces_of_each_kind(rng, n):
        measured = []
        dist = space._dist
        space._dist = lambda a, b: measured.append((a, b)) or dist(a, b)
        for kind in ("ball-tree", "aesa", "laesa", "pm-tree"):
            sprawl, _ = build_classic(space, range(n), kind, pivots=3)
            measured.clear()
            for q in (ExplicitSetQuery({3, out}), ExplicitSetQuery({-1, 3}), AmbitQuery((3, out), (1.0, 1.0), 1.0)):
                for run in (search, reduce_to_signed):
                    with pytest.raises(IndexError):
                        run(sprawl, q)
                with pytest.raises(IndexError):
                    linear_scan(space, range(n), q)
            assert not measured, (space.kind, kind)
            q = ExplicitSetQuery({3, n - 1})
            assert search(sprawl, q).members == linear_scan(space, range(n), q) == (3, n - 1)
    # an axis pseudo-focus of a projection space is a query ref like any other
    space = ProjectionSpace(rng.random((n, 2)))
    sprawl, _ = build_classic(space, range(n), "ball-tree")
    q = AmbitQuery((space.axis_ref(0),), (1.0,), 0.5)
    assert search(sprawl, q).members == linear_scan(space, range(n), q) != ()
