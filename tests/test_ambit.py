import numpy as np
import pytest

from sprawl.ambit import (
    BALL_MAP,
    Ambit,
    HamacherMap,
    LinearMap,
    MetaballMap,
    PowerMap,
    ball_radius,
    ball_reach,
    bound_cutoff,
    _corner,
    membership_mask,
    overlap_facet_columns,
    overlap_facet_pairs,
    overlap_linear,
    overlap_radients,
    table1_region,
)
from sprawl.comparison import TOL, EuclideanSpace, MatrixSpace
from sprawl.errors import CapabilityError

from conftest import membership, radients, random_quasimetric


# --- remoteness values ----------------------------------------------------------


def test_remoteness_linear_identity():
    m = LinearMap([[1.0]])
    assert m.remoteness(np.array([4.2]))[0] == 4.2


def test_remoteness_power_alpha_one_is_linear():
    m = PowerMap([1.0, 1.0], alpha=1.0)
    assert m.remoteness(np.array([2.0, 3.0]))[0] == 5.0


def test_remoteness_metaball_zero_at_origin():
    m = MetaballMap([1.0], [1.0])
    assert m.remoteness(np.array([0.0]))[0] == 0.0


def test_remoteness_hamacher():
    m = HamacherMap()
    assert m.remoteness(np.array([0.0, 0.0]))[0] == 0.0
    assert m.remoteness(np.array([0.5, 0.5]))[0] == pytest.approx(1.0 / 3.0)


def test_linear_remoteness_rounds_a_column_alike_alone_and_in_a_batch():
    # radii at each row's largest matrix-product value put some points on a
    # facet, where a rounding that depends on the batch would flip the
    # zero-slack verdict of a lone column
    rng = np.random.default_rng(20)
    for i in range(600):
        m = 2 + i % 2
        n = int(rng.integers(4, 20))
        space = EuclideanSpace(rng.random((m + n, m)) * 10.0 ** rng.uniform(-1, 2))
        foci, refs = tuple(range(m)), list(range(m, m + n))
        rows = rng.normal(size=(int(rng.integers(3, 9)), m))
        X = np.vstack([space.distances_from(p, refs) for p in foci])
        region = Ambit(foci, LinearMap(rows), (rows @ X).max(axis=1))
        batch = membership_mask(space, region, refs, tol=0.0)
        assert [membership(space, region, u) for u in refs] == batch.tolist(), i
        assert [region.contains_features(x) for x in X.T] == region.contains_features(X).tolist(), i


def test_metaball_offset_flag():
    with pytest.raises(ValueError):
        MetaballMap([1.0], [0.5])
    m = MetaballMap([1.0], [0.5], offset=True)
    assert m.remoteness(np.array([0.0]))[0] == pytest.approx(0.5)


def test_zero_linear_row_rejected():
    with pytest.raises(ValueError):
        LinearMap([[0.0, 0.0]])


# a NaN parameter compares false against every bound, so "== 0" and "<= 0"
# checks let it through and the region is then empty or unbounded everywhere
def test_nan_linear_row_rejected():
    with pytest.raises(ValueError, match="NaN"):
        LinearMap([[1.0], [float("nan")]])


def test_nan_radius_rejected():
    # every overlap check with a NaN radius misses, so no query would meet the region
    with pytest.raises(ValueError, match="NaN"):
        Ambit((0,), LinearMap([[1.0], [-1.0]]), (1.0, float("nan")))
    assert Ambit((0,), LinearMap([[1.0]]), (float("inf"),)).radii == (float("inf"),)


@pytest.mark.parametrize("a, b", [([float("nan")], None), ([1.0], [float("nan")])])
def test_nan_metaball_parameters_rejected(a, b):
    with pytest.raises(ValueError, match="positive"):
        MetaballMap(a, b, offset=True)


def test_nan_power_weights_rejected():
    with pytest.raises(ValueError, match="NaN"):
        PowerMap([1.0, float("nan")], 0.5)


# an infinite parameter makes the remoteness inf or NaN (inf * 0) at every
# point, so the region is again empty or unbounded everywhere
@pytest.mark.parametrize("rows", [[[float("inf")]], [[1.0, -float("inf")]]])
def test_infinite_linear_row_rejected(rows):
    with pytest.raises(ValueError, match="finite"):
        LinearMap(rows)


def test_infinite_power_weights_rejected():
    with pytest.raises(ValueError, match="finite"):
        PowerMap([1.0, float("inf")], 0.5)


@pytest.mark.parametrize("a, b", [([float("inf")], None), ([1.0], [float("inf")])])
def test_infinite_metaball_parameters_rejected(a, b):
    with pytest.raises(ValueError, match="finite"):
        MetaballMap(a, b, offset=True)


# --- ball overlap (unnormalized facet check) -------------------------------------


def _line_space(*coords):
    return EuclideanSpace([[float(c)] for c in coords])


def _ball_check(space, region, center, s):
    # the dispatcher on the radients of a ball's centre, as a search runs it
    return overlap_radients(region, radients(space, region, center), s)


def test_overlap_ball_ellipse_boundary():
    # foci 1 apart, query center at distance 3 from each, radius r=4, s=1
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0]])
    region = Ambit((0, 1), LinearMap([[1.0, 1.0]]), (4.0,))
    x = 0.5
    y = np.sqrt(9.0 - 0.25)
    assert _ball_check(space, region, (x, y), 1.0)
    assert overlap_radients(region, [3.0, 3.0], 1.0)


def test_overlap_ball_hyperbola_false():
    assert not overlap_radients(table1_region("plane", (0, 1)), [5.0, 1.0], 1.0)


def test_overlap_ball_cut_region_is_shellwise():
    region = table1_region("cut", (0, 1), lo=[1.0, 2.0], hi=[3.0, 4.0])
    assert overlap_radients(region, [3.5, 1.5], 0.6)
    assert not overlap_radients(region, [3.7, 1.5], 0.6)
    # conjunction: both pivots' shells must admit the query
    assert not overlap_radients(region, [2.0, 5.1], 1.0)


@pytest.mark.parametrize("r,s,z", [(a, b, c) for a in (0.0, 0.5, 1.0, 2.0)
                                   for b in (0.0, 0.3, 1.0)
                                   for c in (0.0, 0.5, 1.4, 2.5, 3.0)])
def test_table1_closed_forms(r, s, z):
    ball = table1_region("ball", (0,), r=r)
    assert overlap_radients(ball, [z], s) == (s >= z - r - 1e-9)
    sphere = table1_region("sphere", (0,), r=r)
    assert overlap_radients(sphere, [z], s) == (s >= abs(z - r) - 1e-9)


@pytest.mark.parametrize("z1", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("z2", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("s", [0.0, 0.4, 1.5])
def test_plane_closed_form(z1, z2, s):
    plane = table1_region("plane", (0, 1))
    got = overlap_radients(plane, [z1, z2], s)
    assert got == (s >= (z1 - z2) / 2.0 - 1e-9)


def _random_linear_ambits(rng):
    """Random linear ambits (1-4 foci, 1-6 mixed-sign rows) and every table-1 shape."""
    for _ in range(300):
        m, k = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        rows = rng.normal(size=(k, m)) * (rng.random((k, m)) < 0.8)
        rows[np.sum(np.abs(rows), axis=1) == 0.0, 0] = 1.0
        yield Ambit(tuple(range(m)), LinearMap(rows), tuple(rng.normal(size=k)))
    yield table1_region("ball", (0,), r=0.7)
    yield table1_region("sphere", (0,), r=0.7)
    yield table1_region("shell", (0,), lo=0.3, hi=0.9)
    yield table1_region("plane", (0, 1))
    yield table1_region("ellipse", (0, 1), r=1.6)
    yield table1_region("hyperbola", (0, 1), r=0.4)
    yield table1_region("voronoi", (0, 1, 2), cell=1)
    yield table1_region("cut", (0, 1, 2), lo=[0.1, 0.2, 0.3], hi=[0.5, 0.9, 1.2])


def _numpy_overlap(region, z, s):
    # the facet test as one numpy expression, for parity with the float kernel
    a, radii = region.map.matrix, np.asarray(region.radii)
    return bool(np.all((a @ np.asarray(z) - radii) / np.sum(np.abs(a), axis=1) <= bound_cutoff(s)))


def test_float_kernel_matches_numpy_facet_test(rng):
    for region in _random_linear_ambits(rng):
        for _ in range(10):
            z = (rng.random(region.degree) * 2.0).tolist()
            s = float(rng.choice([0.0, rng.random(), 3.0 * rng.random()]))
            assert overlap_radients(region, z, s) == _numpy_overlap(region, z, s)
            a, radii = region.map.matrix, np.asarray(region.radii)
            want = np.max((a @ np.asarray(z) - radii) / np.sum(np.abs(a), axis=1))
            assert ball_reach(region, z) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_float_kernel_matches_numpy_on_the_slack_boundary(rng):
    # single-focus facets with z on (a z - r) / |a| = bound_cutoff(s) and one ulp to each
    # side: the float kernel keeps numpy's order of operations, so the verdicts agree bit for bit
    regions = [r for r in _random_linear_ambits(rng) if r.degree == 1]
    assert len(regions) > 50
    for region in regions:
        for (a,), r in zip(region.map.matrix, region.radii):
            s = float(rng.random())
            z0 = (r + abs(a) * bound_cutoff(s)) / a
            for z in (z0, np.nextafter(z0, np.inf), np.nextafter(z0, -np.inf)):
                z = [float(z)]
                assert overlap_radients(region, z, s) == _numpy_overlap(region, z, s)


def _unit_radii(rng) -> list[float]:
    """Radii of unit balls delta(0, .) <= r: the radii of the random linear
    ambits, negative ones too, and a few fixed ones, 0 and tiny among them."""
    radii = [r for region in _random_linear_ambits(rng) if region.degree == 1 for r in region.radii]
    return radii + [0.7, -0.3, 0.0, 1e-12]


def test_facet_columns_match_the_float_kernel_on_the_slack_boundary(rng):
    # the column kernel of the wave form against `overlap_radients` on each
    # unit ball as its own region: z on z - r = bound_cutoff(s), one ulp to
    # each side, and NaN; the verdicts must agree bit for bit
    rows = []
    for r in _unit_radii(rng):
        s = float(rng.choice([0.0, rng.random()]))
        region = table1_region("ball", (0,), r=r)
        assert ball_radius(region, 0) == r
        z0 = r + bound_cutoff(s)
        for z in (z0, np.nextafter(z0, np.inf), np.nextafter(z0, -np.inf), np.nan):
            rows.append((r, float(z), s, overlap_radients(region, [float(z)], s)))
    r, z, s, want = (np.array(col) for col in zip(*rows))
    assert want.any() and not want.all() and not want[np.isnan(z)].any()
    assert overlap_facet_columns(r, z, s).tolist() == want.tolist()
    at_zero = s == 0.0  # and with one scalar s, as a search calls it
    assert overlap_facet_columns(r[at_zero], z[at_zero], 0.0).tolist() == want[at_zero].tolist()


def test_facet_bound_is_the_float_verdict_and_the_reach(rng):
    # the verdict and bound of one ball row against `overlap_radients` and
    # the bound a kNN search took from `ball_reach`: on the slack boundary,
    # one ulp to each side, NaN z, and s = inf as at a kNN search's start
    radii = [0.7, -0.3, 0.0, 1e-12] + [float(rng.normal()) for _ in range(30)]
    hits = misses = 0
    for r in radii:
        region = table1_region("ball", (0,), r=r)
        for s in (0.0, float(rng.random()), np.inf):
            z0 = r + bound_cutoff(s) if s < np.inf else float(rng.random())
            for z in (z0, np.nextafter(z0, np.inf), np.nextafter(z0, -np.inf), np.nan, 0.0):
                got = overlap_facet_pairs([r], [7], float(z), s)
                if not overlap_radients(region, [float(z)], s):
                    assert got == []
                    misses += 1
                    continue
                want = max(0.0, ball_reach(region, [float(z)]))
                ((bound, target),) = got
                assert target == 7 and bound == want and np.signbit(bound) == np.signbit(want)
                hits += 1
    assert hits > 50 and misses > 50


def test_facet_bounds_of_a_fan_are_its_rows_one_at_a_time(rng):
    # one call per fan: the rows share z, and each row that meets the
    # query gives the (bound, target) pair it would give alone, in row
    # order, and each that misses gives none
    for _ in range(3):
        z = float(rng.random())
        radii = [z - TOL, z + 0.1, -1.0, float(rng.random()), np.nan, 0.0]
        targets = list(range(10, 10 + len(radii)))
        for s in (0.0, float(rng.random()), np.inf):
            alone = [overlap_facet_pairs([r], [t], z, s) for r, t in zip(radii, targets)]
            want = [pair for pairs in alone for pair in pairs]
            got = overlap_facet_pairs(radii, targets, z, s)
            assert [(b.hex(), t) for b, t in got] == [(b.hex(), t) for b, t in want]
            assert [] in alone and 0 < len(got) < len(radii)
    assert overlap_facet_pairs([], [], 0.5, 0.1) == []


def test_facet_pairs_are_the_bounds_of_the_rows_that_meet(rng):
    # a node's ball rows fired one node at a time and in a wave: the pairs
    # are the rows `overlap_facet_columns` keeps, in row order, each with
    # the clamped `ball_reach` of its unit ball
    for _ in range(3):
        z = float(rng.random())
        radii = [z - TOL, z + 0.1, -1.0, float(rng.random()), np.nan, 0.0]
        targets = list(range(10, 10 + len(radii)))
        for s in (0.0, float(rng.random()), np.inf):
            hit = overlap_facet_columns(np.array(radii), z, s)
            want = [
                (max(0.0, ball_reach(Ambit((0,), BALL_MAP, (r,)), [z])), t)
                for r, t, h in zip(radii, targets, hit.tolist())
                if h
            ]
            got = overlap_facet_pairs(radii, targets, z, s)
            assert [(b.hex(), t) for b, t in got] == [(b.hex(), t) for b, t in want]
            assert 0 < len(got) < len(radii)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda x: LinearMap(x), "rows"),
        (lambda x: PowerMap(x[0], 0.5), "weights"),
        (lambda x: MetaballMap(x[0], x[0]), "a and b"),  # b sums to 2, so f(0) = 0
    ],
    ids=["linear", "power", "metaball"],
)
def test_a_map_leaves_the_caller_array_writable(build, field):
    # a map freezes a copy of its parameters: the caller's array stays
    # writable, and writing to it changes no remoteness and no verdict
    x = np.array([[0.5, 1.5]])
    m = build(x)
    region = Ambit((0, 1), m, (1.0,) * m.rows)
    z = np.array([0.4, 0.3])
    before = m.remoteness(z).tolist(), overlap_radients(region, z, 0.1)
    assert x.flags.writeable, field
    x[:] = [[7.0, 9.0]]
    assert (m.remoteness(z).tolist(), overlap_radients(region, z, 0.1)) == before


def test_ball_radius_only_reads_unit_balls():
    assert ball_radius(table1_region("ball", (3,), r=0.5), 3) == 0.5
    assert ball_radius(Ambit((3,), LinearMap([[1.0]]), (-0.25,)), 3) == -0.25  # an equal map, not the shared one
    assert ball_radius(table1_region("ball", (3,), r=0.5), 2) is None  # not about this source
    assert ball_radius(table1_region("sphere", (3,), r=0.5), 3) is None
    assert ball_radius(table1_region("ellipse", (3, 4), r=1.0), 3) is None
    for a in (2.0, -1.0, 0.5):  # a single facet a * delta(3, .) <= r that is not a unit ball
        assert ball_radius(Ambit((3,), LinearMap([[a]]), (0.5,)), 3) is None, a
    assert ball_radius(Ambit((3, 3), LinearMap([[1.0, 0.0]]), (0.5,)), 3) is None  # two foci
    assert ball_radius(Ambit((3,), PowerMap([1.0], 0.5), (0.5,)), 3) is None
    assert ball_radius(Ambit((3,), PowerMap([1.0], 1.0), (0.5,)), 3) is None  # the ball's values, not its map


# --- normalized two-region check -------------------------------------------------


def test_overlap_linear_reduces_to_ball_sum():
    region = Ambit((0,), LinearMap([[1.0]]), (2.0,))
    query = Ambit((1,), LinearMap([[1.0]]), (1.5,), "backward")
    assert overlap_linear(region, query, [[3.4]])
    assert not overlap_linear(region, query, [[3.6]])


def test_overlap_linear_sphere_rows():
    r = 2.0
    region = Ambit((0,), LinearMap([[1.0], [-1.0]]), (r, -r))
    for z in (0.5, 1.5, 2.0, 3.1, 4.0):
        for s in (0.2, 1.0, 1.3):
            query = Ambit((1,), LinearMap([[1.0]]), (s,), "backward")
            assert overlap_linear(region, query, [[z]]) == (s >= abs(z - r) - 1e-9)


def test_overlap_linear_plane_row():
    region = Ambit((0, 1), LinearMap([[1.0, -1.0]]), (0.0,))
    for z1, z2, s in [(5.0, 1.0, 1.0), (5.0, 1.0, 2.1), (1.0, 5.0, 0.0)]:
        query = Ambit((2,), LinearMap([[1.0]]), (s,), "backward")
        got = overlap_linear(region, query, [[z1], [z2]])
        assert got == (s >= (z1 - z2) / 2.0 - 1e-9)


def test_overlap_linear_sign_precondition():
    region = Ambit((0, 1), LinearMap([[1.0, -1.0]]), (0.0,))
    query = Ambit((2, 3), LinearMap([[1.0, -1.0]]), (1.0,), "backward")
    with pytest.raises(CapabilityError):
        overlap_linear(region, query, [[1.0, 2.0], [2.0, 1.0]])


def _weighted_triangle_sides(space, p, q, u, a, c):
    x = np.array([space.matrix[pi, u] for pi in p])
    y = np.array([space.matrix[u, qj] for qj in q])
    Z = np.array([[space.matrix[pi, qj] for qj in q] for pi in p])
    lhs = np.sum(np.abs(c)) * (a @ x) + np.sum(np.abs(a)) * (c @ y)
    return lhs, a @ Z @ c


def test_weighted_triangle_inequality(rng):
    """||c||1 ax + ||a||1 cy >= a Z c^T, the weighted-triangle bound.

    Holds on quasimetrics with both weight vectors non-negative, and on
    symmetric metrics with only one side non-negative; the quasimetric
    mixed-sign combination genuinely fails (see the counterexample test).
    """
    from conftest import random_metric

    for _ in range(100):
        qspace = random_quasimetric(rng, 8)
        mspace = random_metric(rng, 8)
        for _ in range(50):
            m, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            ids = rng.choice(8, size=m + k + 1, replace=False)
            p, q, u = ids[:m], ids[m : m + k], int(ids[-1])
            a = rng.normal(size=m)
            c = rng.normal(size=k)
            lhs, rhs = _weighted_triangle_sides(qspace, p, q, u, np.abs(a), np.abs(c))
            assert lhs >= rhs - 1e-9
            if rng.random() < 0.5:
                a = np.abs(a)
            else:
                c = np.abs(c)
            lhs, rhs = _weighted_triangle_sides(mspace, p, q, u, a, c)
            assert lhs >= rhs - 1e-9


def test_mixed_sign_bound_fails_on_quasimetrics():
    """Directed witness: all six oriented triangles hold, yet the bound breaks
    for a = (-1), c = (1); mixed signs need symmetry."""
    d = np.array([[0.0, 10.0, 1.0], [2.0, 0.0, 1.0], [1.0, 9.0, 0.0]])  # p, u, q
    space = MatrixSpace(d, symmetric=False)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-12
    lhs, rhs = _weighted_triangle_sides(space, [0], [2], 1, np.array([-1.0]), np.array([1.0]))
    assert lhs < rhs - 1e-9
    region = Ambit((0,), LinearMap([[-1.0]]), (1.0,))
    query = Ambit((2,), LinearMap([[1.0]]), (1.0,), "backward")
    with pytest.raises(CapabilityError):
        overlap_linear(region, query, [[1.0]], symmetric=False)


# --- monotone and corner checks, through the dispatcher -------------------------


def test_overlap_monotone_power_boundary():
    space = _line_space(0.0, 9.0)
    region = Ambit((0,), PowerMap([1.0], 0.5), (2.0,))
    assert _ball_check(space, region, (9.0,), 1.0)
    assert not _ball_check(space, region, (9.3,), 0.09)


def test_overlap_monotone_alpha_one_matches_ball(rng):
    space = EuclideanSpace(rng.random((20, 3)))
    for _ in range(300):
        foci = tuple(int(v) for v in rng.choice(20, size=2, replace=False))
        w = rng.random(2) + 0.05
        r = float(rng.random() * 2.0)
        s = float(rng.random())
        center = rng.random(3)
        lin = Ambit(foci, LinearMap([w]), (r,))
        pw = Ambit(foci, PowerMap(w, 1.0), (r,))
        assert _ball_check(space, lin, center, s) == _ball_check(space, pw, center, s)


def test_overlap_monotone_requires_subadditive():
    space = _line_space(0.0)
    bad = Ambit((0,), PowerMap([-1.0], 0.5), (1.0,))
    with pytest.raises(CapabilityError):
        _ball_check(space, bad, (1.0,), 0.5)


def test_overlap_corner_hamacher_origin():
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0]])
    region = Ambit((0, 1), HamacherMap(), (0.0,))
    center = (0.5, 0.0)
    s = 0.5  # corner of the feature box sits at the origin
    assert _ball_check(space, region, center, s)


def test_corner_at_least_as_tight_as_ball(rng):
    """For non-negative linear rows, corner-pass implies facet-pass. The
    dispatcher never runs the corner kernel on a linear map, so this calls
    the kernel itself."""
    space = EuclideanSpace(rng.random((30, 4)))
    for _ in range(500):
        m = int(rng.integers(1, 4))
        foci = tuple(int(v) for v in rng.choice(30, size=m, replace=False))
        w = rng.random(m) + 0.01
        r = float(rng.random() * 1.5)
        s = float(rng.random())
        center = rng.random(4)
        region = Ambit(foci, LinearMap([w]), (r,))
        if _corner(region, radients(space, region, center), s):
            assert _ball_check(space, region, center, s)


# --- planted-point soundness -------------------------------------------------------


def _planted_case(rng, space, kind):
    n = len(space)
    u = int(rng.integers(0, n))
    m = int(rng.integers(1, 4)) if kind != "hamacher" else 2
    foci = tuple(int(v) for v in rng.choice(n, size=m, replace=False))
    x = np.array([space.compare(p, u) for p in foci])
    s = float(rng.random() * 0.8)
    direction = rng.normal(size=space.dimension)
    direction /= np.linalg.norm(direction)
    center = space.value(u) + direction * (s * rng.random())
    if kind == "linear":
        rows = rng.normal(size=(int(rng.integers(1, 4)), m))
        radii = rows @ x + rng.random(rows.shape[0]) * 0.5
        region = Ambit(foci, LinearMap(rows), tuple(radii))
    elif kind == "power":
        w = rng.random(m) + 0.05
        alpha = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        pm = PowerMap(w, alpha)
        region = Ambit(foci, pm, (float(pm.remoteness(x)[0]) + rng.random() * 0.3,))
    elif kind == "metaball":
        a = rng.random(m) + 0.2
        mm = MetaballMap(a)
        region = Ambit(foci, mm, (float(mm.remoteness(x)[0]) + rng.random() * 0.2,))
    else:
        hm = HamacherMap()
        region = Ambit(foci, hm, (float(hm.remoteness(x)[0]) + rng.random() * 0.2,))
    return region, center, s, u


def test_planted_soundness_sampled(rng):
    from sprawl.comparison import Ball
    from sprawl.engine import _QueryEval

    space = EuclideanSpace(rng.random((50, 3)))
    for kind in ("linear", "power", "metaball", "hamacher"):
        for _ in range(800):
            region, center, s, u = _planted_case(rng, space, kind)
            assert membership(space, region, u, tol=1e-12)
            assert space.compare(center, u) <= s + 1e-12
            assert _ball_check(space, region, center, s), (kind, region, center, s)
            assert _QueryEval(space, Ball(center, s)).intersects(region), (kind, region, center, s)


def test_membership_plus_containment_implies_overlap(rng):
    space = EuclideanSpace(rng.random((40, 2)))
    for _ in range(500):
        region, center, s, u = _planted_case(rng, space, "linear")
        if membership(space, region, u) and space.compare(center, u) <= s:
            assert _ball_check(space, region, center, s)
            if np.all(region.map.matrix >= 0.0):  # the corner kernel, which the dispatcher runs on other maps
                assert _corner(region, radients(space, region, center), s)


def test_normalization_invariance(rng):
    space = EuclideanSpace(rng.random((30, 3)))
    for _ in range(300):
        m = int(rng.integers(1, 4))
        foci = tuple(int(v) for v in rng.choice(30, size=m, replace=False))
        rows = rng.normal(size=(2, m))
        radii = rng.normal(size=2)
        lam = float(rng.random() * 9.0 + 0.1)
        r1 = Ambit(foci, LinearMap(rows), tuple(radii))
        r2 = Ambit(foci, LinearMap(rows * lam), tuple(radii * lam))
        u = int(rng.integers(0, 30))
        center, s = rng.random(3), float(rng.random())
        # avoid razor-edge cases where scaling could flip a float compare
        x = np.array([space.compare(p, u) for p in foci])
        margins = np.abs(rows @ x - radii)
        z = np.array([space.compare(p, center) for p in foci])
        margins2 = np.abs(radii + np.abs(rows).sum(axis=1) * s - rows @ z)
        if np.min(margins) < 1e-6 or np.min(margins2) < 1e-6:
            continue
        assert membership(space, r1, u) == membership(space, r2, u)
        assert _ball_check(space, r1, center, s) == _ball_check(space, r2, center, s)


# --- metric preservation -----------------------------------------------------------


def _composed(space, mapping, tup_a, tup_b):
    feats = np.array([space.compare(a, b) for a, b in zip(tup_a, tup_b)])
    return float(mapping.remoteness(feats)[0])


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_power_map_preserves_triangle(rng, alpha):
    space = EuclideanSpace(rng.random((30, 2)))
    mapping = PowerMap(rng.random(2) + 0.1, alpha)
    for _ in range(2000):
        ids = rng.integers(0, 30, size=(3, 2))
        duw = _composed(space, mapping, ids[0], ids[2])
        duv = _composed(space, mapping, ids[0], ids[1])
        dvw = _composed(space, mapping, ids[1], ids[2])
        assert duw <= duv + dvw + 1e-9


def test_metaball_map_preserves_triangle(rng):
    space = EuclideanSpace(rng.random((30, 2)))
    mapping = MetaballMap(rng.random(2) + 0.2)
    for _ in range(2000):
        ids = rng.integers(0, 30, size=(3, 2))
        duw = _composed(space, mapping, ids[0], ids[2])
        duv = _composed(space, mapping, ids[0], ids[1])
        dvw = _composed(space, mapping, ids[1], ids[2])
        assert duw <= duv + dvw + 1e-9


def test_hamacher_violates_triangle():
    space = EuclideanSpace([[0.0], [0.5], [1.0]])
    mapping = HamacherMap()
    duw = _composed(space, mapping, (0, 0), (2, 2))
    duv = _composed(space, mapping, (0, 0), (1, 1))
    dvw = _composed(space, mapping, (1, 1), (2, 2))
    assert duw > duv + dvw + 1e-9


# --- classic shapes ------------------------------------------------------------------


def test_table1_ball_and_sphere_rows():
    ball = table1_region("ball", (0,), r=2.0)
    assert np.array_equal(ball.map.matrix, [[1.0]])
    assert ball.radii == (2.0,)
    sphere = table1_region("sphere", (0,), r=2.0)
    assert np.array_equal(sphere.map.matrix, [[1.0], [-1.0]])
    assert sphere.radii == (2.0, -2.0)


def test_table1_voronoi_rows():
    cell = table1_region("voronoi", (0, 1, 2), cell=0)
    assert np.array_equal(cell.map.matrix, [[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
    assert cell.radii == (0.0, 0.0)
    space = EuclideanSpace([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert membership(space, cell, 0)
    assert not membership(space, cell, 1)


def test_table1_bad_arity():
    with pytest.raises(ValueError):
        table1_region("plane", (0,))
    with pytest.raises(IndexError):
        table1_region("voronoi", (0, 1), cell=5)


def test_backward_orientation_uses_reverse_distances(rng):
    space = random_quasimetric(rng, 6)
    fwd = Ambit((0,), LinearMap([[1.0]]), (float(space.matrix[0, 3]),))
    bwd = Ambit((0,), LinearMap([[1.0]]), (float(space.matrix[3, 0]),), "backward")
    assert membership(space, fwd, 3)
    assert membership(space, bwd, 3)
    tight_fwd = Ambit((0,), LinearMap([[1.0]]), (float(space.matrix[0, 3]) - 1e-6,))
    assert not membership(space, tight_fwd, 3)


# --- the dispatcher and the batch kernels -------------------------------------------


def test_shells_missed_matches_shell_regions(rng):
    from sprawl.ambit import overlap_radients, shells_missed

    lo = rng.random(200)
    hi = lo + rng.random(200)
    for _ in range(50):
        z, s = float(rng.random() * 2.0), float(rng.random() * 0.5)
        miss = shells_missed(z, lo, hi, s)
        want = [
            not overlap_radients(table1_region("shell", (0,), lo=a, hi=b), [z], s)
            for a, b in zip(lo, hi)
        ]
        assert miss.tolist() == want
        assert all(shells_missed(z, a, b, s) == w for a, b, w in zip(lo[:5], hi[:5], want))


SCALES = (1.0, 1e-6, 1e-8, 1e-12)


def _ulps_about(z0, ulps: int = 3) -> list[float]:
    """z0 and the `ulps` floats to each side of it, in order."""
    below, above = [z0], [z0]
    for _ in range(ulps):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[:0:-1] + above


def test_sphere_kernels_are_the_shell_kernels_at_lo_equal_hi(rng):
    # a dense plan fires a sphere fan as one row by seed position, NaN where
    # the fan has no row: |z - d| is shell_bounds(z, d, d) and its verdict
    # shells_missed(z, d, d, s), at the cutoff and 1 ulp to each side, at
    # every scale, with d = z and NaN entries, which neither bounds nor misses
    from sprawl.ambit import shell_bounds, shells_missed, sphere_bounds, spheres_missed

    for scale in SCALES:
        for _ in range(150):
            z, s = float(rng.random()) * scale, float(rng.random()) * scale
            cut = bound_cutoff(s)
            d = np.array(_ulps_about(z - cut, 1) + _ulps_about(z + cut, 1) + [z, np.nan, 0.0, np.nan])
            bounds = sphere_bounds(z, d)
            assert np.array_equal(bounds, shell_bounds(z, d, d), equal_nan=True), scale
            assert not np.signbit(bounds[~np.isnan(bounds)]).any()
            missed = spheres_missed(z, d, s)
            assert missed.tolist() == shells_missed(z, d, d, s).tolist() == (bounds > cut).tolist(), scale
            assert not missed[np.isnan(d)].any() and np.isnan(bounds[np.isnan(d)]).all()


def test_linear_verdicts_are_one_bound_against_the_cutoff(rng):
    # at distances of every scale, z on a facet's boundary (a z - r) / |a| =
    # bound_cutoff(s) and 3 ulps to each side: the shell mask and the column
    # kernel give `overlap_radients`'s verdict on the region each row stands
    # for, and each verdict is the region's `ball_reach` against `bound_cutoff`
    from sprawl.ambit import shell_bounds, shells_missed

    for scale in SCALES:
        for _ in range(150):
            lo, s = float(rng.random()) * scale, float(rng.random()) * scale
            hi = lo + float(rng.random()) * scale
            region, cut = table1_region("shell", (0,), lo=lo, hi=hi), bound_cutoff(s)
            zs = _ulps_about(hi + cut) + _ulps_about(lo - cut)
            reach = [ball_reach(region, [z]) for z in zs]
            want = [not overlap_radients(region, [z], s) for z in zs]
            assert want == [b > cut for b in reach], scale
            assert shells_missed(np.array(zs), lo, hi, s).tolist() == want, scale
            assert shell_bounds(np.array(zs), lo, hi).tolist() == reach
            assert [bool(shells_missed(z, lo, hi, s)) for z in zs] == want

            a, r = float(rng.normal()) or 1.0, float(rng.normal()) * scale
            region = Ambit((0,), LinearMap([[a]]), (r,))
            zs = _ulps_about((r + abs(a) * cut) / a)
            want = [overlap_radients(region, [z], s) for z in zs]
            assert want == [ball_reach(region, [z]) <= cut for z in zs], scale

            region = table1_region("ball", (0,), r=r)
            zs = _ulps_about(r + cut)
            want = [overlap_radients(region, [z], s) for z in zs]
            assert want == [ball_reach(region, [z]) <= cut for z in zs], scale
            assert overlap_facet_columns(r, np.array(zs), s).tolist() == want, scale


def test_facet_pairs_keep_a_row_where_the_knn_cut_keeps_its_bound(rng):
    # a ball row is queued exactly when `ball_reach` <= `bound_cutoff(s)`, so
    # exactly when a kNN cut at that limit would keep its bound, max(0, ball_reach)
    kept = dropped = 0
    for scale in SCALES:
        for _ in range(100):
            r, s = float(rng.normal()) * scale, float(rng.random()) * scale
            region = table1_region("ball", (0,), r=r)
            for z in _ulps_about(r + bound_cutoff(s)):
                reach = ball_reach(region, [z])
                want = [(max(0.0, reach), 7)] if reach <= bound_cutoff(s) else []
                got = overlap_facet_pairs([r], [7], z, s)
                assert [(b.hex(), t) for b, t in got] == [(b.hex(), t) for b, t in want], scale
                kept, dropped = kept + len(want), dropped + (not want)
    assert kept > 500 and dropped > 500


def test_shells_hold_is_membership_mask_on_the_boundary(rng):
    # a bound 3 ulps either side of where a point's distance meets the
    # membership slack: `shells_hold` holds exactly the points that
    # `membership_mask` holds in the ball or shell region
    from sprawl.ambit import shells_hold

    for scale in SCALES:
        space = EuclideanSpace(rng.random((12, 1)) * scale)
        d = space.distances_from(0, range(12))
        for j in range(1, 12):
            for hi in _ulps_about(float(d[j]) - TOL):
                want = membership_mask(space, table1_region("ball", (0,), r=hi), range(12))
                assert shells_hold(d, -np.inf, hi).tolist() == want.tolist(), scale
            for lo in _ulps_about(float(d[j]) + TOL):
                want = membership_mask(space, table1_region("shell", (0,), lo=lo, hi=lo + scale), range(12))
                assert shells_hold(d, lo, lo + scale).tolist() == want.tolist(), scale


def test_membership_mask_matches_pointwise_membership(rng):
    from sprawl.ambit import membership_mask

    space = EuclideanSpace(rng.random((40, 3)))
    qspace = random_quasimetric(rng, 9)
    for kind in ("linear", "power", "metaball", "hamacher"):
        for _ in range(20):
            region, _, _, _ = _planted_case(rng, space, kind)
            want = [membership(space, region, v) for v in range(40)]
            assert membership_mask(space, region, range(40), tol=0.0).tolist() == want
    for orientation in ("forward", "backward"):
        region = Ambit((2, 5), PowerMap([0.7, 0.3], 0.5), (2.0,), orientation)
        want = [membership(qspace, region, v) for v in range(9)]
        assert membership_mask(qspace, region, range(9), tol=0.0).tolist() == want
    assert membership_mask(qspace, region, [], tol=0.0).shape == (0,)
    # a backward region on an asymmetric space reads a block of distances,
    # whose numpy indexing once read ref -1 as the last point
    for orientation in ("forward", "backward"):
        region = Ambit((2,), LinearMap([[1.0]]), (10.0,), orientation)
        with pytest.raises(IndexError, match="negative"):
            membership_mask(qspace, region, [3, -1])
