import numpy as np
import pytest

from sprawl.ambit import (
    Ambit,
    HamacherMap,
    LinearMap,
    MetaballMap,
    PowerMap,
    ball_facet,
    ball_reach,
    _corner,
    membership,
    membership_mask,
    overlap_facet_bounds,
    overlap_facet_columns,
    overlap_linear,
    overlap_radients,
    radients,
    table1_region,
)
from sprawl.comparison import TOL, EuclideanSpace, MatrixSpace
from sprawl.errors import CapabilityError

from conftest import random_quasimetric


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
    return bool(np.all(radii + np.sum(np.abs(a), axis=1) * s >= a @ np.asarray(z) - TOL))


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
    # single-focus facets with z on r + |a| s = a z - TOL and one ulp to each side:
    # the float kernel keeps numpy's order of operations, so the verdicts agree bit for bit
    regions = [r for r in _random_linear_ambits(rng) if r.degree == 1]
    assert len(regions) > 50
    for region in regions:
        for (a,), r in zip(region.map.matrix, region.radii):
            s = float(rng.random())
            z0 = (r + abs(a) * s + TOL) / a
            for z in (z0, np.nextafter(z0, np.inf), np.nextafter(z0, -np.inf)):
                z = [float(z)]
                assert overlap_radients(region, z, s) == _numpy_overlap(region, z, s)


def test_facet_columns_match_the_float_kernel_on_the_slack_boundary(rng):
    # the column kernel of the wave form against `overlap_radients` on each
    # single-focus facet as its own region: z on r + |a| s = a z - TOL, one
    # ulp to each side, and NaN; the verdicts must agree bit for bit
    facets = [
        (a, r)
        for region in _random_linear_ambits(rng)
        if region.degree == 1
        for (a,), r in zip(region.map.matrix, region.radii)
    ]
    facets += [(1.0, 0.7), (-1.0, -0.3), (2.0, 0.0), (0.5, 1e-12)]
    rows = []
    for a, r in facets:
        s = float(rng.choice([0.0, rng.random()]))
        z0 = (r + abs(a) * s + TOL) / a
        for z in (z0, np.nextafter(z0, np.inf), np.nextafter(z0, -np.inf), np.nan):
            region = Ambit((0,), LinearMap([[a]]), (r,))
            assert ball_facet(region, 0) == (a, abs(a), r)
            rows.append((r, abs(a), a, float(z), s, overlap_radients(region, [float(z)], s)))
    r, l1, a, z, s, want = (np.array(col) for col in zip(*rows))
    assert want.any() and not want.all() and not want[np.isnan(z)].any()
    assert overlap_facet_columns(r, l1, a, z, s).tolist() == want.tolist()
    at_zero = s == 0.0  # and with one scalar s, as a search calls it
    assert overlap_facet_columns(r[at_zero], l1[at_zero], a[at_zero], z[at_zero], 0.0).tolist() == want[at_zero].tolist()


def test_facet_bound_is_the_float_verdict_and_the_reach(rng):
    # the heap path's verdict and bound per ball row against `overlap_radients`
    # and the bound a kNN search took from `ball_reach`: on the slack boundary,
    # one ulp to each side, NaN z, and s = inf as at a kNN search's start
    facets = [(1.0, 0.7), (-1.0, -0.3), (2.0, 0.0), (0.5, 1e-12), (1.0, 0.0)]
    facets += [(float(rng.normal()) or 1.0, float(rng.normal())) for _ in range(30)]
    hits = misses = 0
    for a, r in facets:
        region = Ambit((0,), LinearMap([[a]]), (r,))
        for s in (0.0, float(rng.random()), np.inf):
            z0 = (r + abs(a) * s + TOL) / a if s < np.inf else float(rng.random())
            for z in (z0, np.nextafter(z0, np.inf), np.nextafter(z0, -np.inf), np.nan, 0.0):
                (got,) = overlap_facet_bounds([r], abs(a), a, float(z), s)
                if not overlap_radients(region, [float(z)], s):
                    assert got is None
                    misses += 1
                    continue
                want = max(max(0.0, ball_reach(region, [float(z)])), 0.0)
                assert got is not None and got == want and np.signbit(got) == np.signbit(want)
                hits += 1
    assert hits > 50 and misses > 50


def test_facet_bounds_of_a_fan_are_its_rows_one_at_a_time(rng):
    # one call per fan: the rows share a, ||a||_1 and z, and each gets the
    # verdict and bound it would get alone, hits and misses in row order
    for a in (1.0, -2.0, 0.5):
        z = float(rng.random())
        radii = [z * abs(a) - TOL, z * abs(a) + 0.1, -1.0, float(rng.random()), np.nan, 0.0]
        for s in (0.0, float(rng.random()), np.inf):
            alone = [overlap_facet_bounds([r], abs(a), a, z, s)[0] for r in radii]
            assert overlap_facet_bounds(radii, abs(a), a, z, s) == alone
            assert None in alone and any(b is not None for b in alone)
    assert overlap_facet_bounds([], 1.0, 1.0, 0.5, 0.1) == []


def test_ball_facet_only_reads_single_facet_regions():
    assert ball_facet(table1_region("ball", (3,), r=0.5), 3) == (1.0, 1.0, 0.5)
    assert ball_facet(table1_region("ball", (3,), r=0.5), 2) is None  # not about this source
    assert ball_facet(table1_region("sphere", (3,), r=0.5), 3) is None
    assert ball_facet(table1_region("ellipse", (3, 4), r=1.0), 3) is None
    assert ball_facet(Ambit((3,), PowerMap([1.0], 0.5), (0.5,)), 3) is None


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
