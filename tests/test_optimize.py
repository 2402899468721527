import itertools

import numpy as np
import pytest

from sprawl.comparison import EuclideanSpace, build_hardness_gadget
from sprawl.errors import CapabilityError
from sprawl.optimize import (
    TrainingSet,
    alpha_search,
    build_training_set,
    cluster_facets,
    gift_wrap_2d,
    hull_ambit,
    kmeans,
    min_radius,
    optimal_facet,
    runoff_foci,
    two_approx_foci,
)

from conftest import membership


# --- oracles -------------------------------------------------------------------


def oracle_best_ell(X: np.ndarray, zhat: np.ndarray) -> float:
    """Exact enumeration oracle for max_{||a||_1=1} (a.zhat - max_j a.x_j).

    The objective is min_j a.(zhat - x_j), a minimum of linear functions,
    so per sign-orthant (a = diag(s) w, w in the probability simplex) the
    optimum sits at a simplex vertex, at a single tie along a simplex
    edge, or (m = 3) at a double tie in the interior. All candidates are
    enumerated and evaluated.
    """
    m, n = X.shape
    G = (zhat[:, None] - X).T  # g_j(a) = a @ G[j]
    best = -np.inf

    def value(w, H):
        return float(np.min(H @ w))

    for signs in itertools.product((1.0, -1.0), repeat=m):
        H = G * np.asarray(signs)[None, :]  # g_j(w) = w @ H[j], w in simplex
        cands = [np.eye(m)[i] for i in range(m)]
        for i1, i2 in itertools.combinations(range(m), 2):
            for j1, j2 in itertools.combinations(range(n), 2):
                # tie g_j1 = g_j2 along the (i1, i2) edge: linear in t
                a1 = H[j1, i1] - H[j2, i1]
                a2 = H[j1, i2] - H[j2, i2]
                denom = a1 - a2
                if abs(denom) < 1e-14:
                    continue
                t = -a2 / denom
                if -1e-12 <= t <= 1 + 1e-12:
                    w = np.zeros(m)
                    w[i1], w[i2] = t, 1.0 - t
                    cands.append(w)
        if m == 3:
            for j1, j2, j3 in itertools.combinations(range(n), 3):
                # double tie in the interior, with w3 = 1 - w1 - w2
                rows = np.array([H[j1] - H[j2], H[j1] - H[j3]])
                A = rows[:, :2] - rows[:, 2:3].repeat(2, axis=1)
                b = -rows[:, 2]
                det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
                if abs(det) < 1e-14:
                    continue
                w1 = (b[0] * A[1, 1] - b[1] * A[0, 1]) / det
                w2 = (A[0, 0] * b[1] - A[1, 0] * b[0]) / det
                w = np.array([w1, w2, 1.0 - w1 - w2])
                if np.all(w >= -1e-12):
                    cands.append(np.clip(w, 0.0, None))
        for w in cands:
            s = w.sum()
            if s <= 0:
                continue
            best = max(best, value(w / s, H))
    return best


def dense_grid_ell(X: np.ndarray, zhat: np.ndarray, step: float = 1e-5) -> float:
    """Literal dense grid over the L1 sphere, for m <= 2."""
    m, n = X.shape
    if m == 1:
        return max(float(zhat[0] - np.max(X)), float(-zhat[0] - np.max(-X)))
    best = -np.inf
    ts = np.arange(0.0, 1.0 + step, step)
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            a1 = s1 * ts
            a2 = s2 * (1.0 - ts)
            vals = a1 * zhat[0] + a2 * zhat[1] - np.max(
                np.outer(a1, X[0]) + np.outer(a2, X[1]), axis=1
            )
            best = max(best, float(np.max(vals)))
    return best


def random_training(rng, m, n, dominate=False):
    X = rng.random((m, n)) * 2.0 + 0.1
    if dominate:
        zhat = np.max(X, axis=1) + rng.random(m) + 0.05
    else:
        zhat = rng.random(m) * 3.0
    return TrainingSet(X, zhat)


# --- optimal_facet ----------------------------------------------------------------


def test_facet_matches_enumeration_oracle(rng):
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 21))
        t = random_training(rng, m, n)
        got = optimal_facet(t)
        want = max(oracle_best_ell(t.X, t.zhat), 0.0)
        assert got.ell == pytest.approx(want, abs=1e-7)


def test_facet_matches_dense_grid_m2(rng):
    for _ in range(10):
        t = random_training(rng, 2, int(rng.integers(2, 7)))
        got = optimal_facet(t)
        want = max(dense_grid_ell(t.X, t.zhat), 0.0)
        assert got.ell == pytest.approx(want, abs=1e-4)


def test_facet_nonnegative_when_zhat_dominates(rng):
    for _ in range(100):
        t = random_training(rng, int(rng.integers(1, 4)), int(rng.integers(2, 15)), dominate=True)
        got = optimal_facet(t)
        assert np.min(got.a) >= -1e-9


def test_facet_degenerate_when_zhat_is_a_column(rng):
    t = random_training(rng, 3, 8)
    t = TrainingSet(t.X, t.X[:, 4])
    got = optimal_facet(t)
    assert got.degenerate
    assert got.ell == pytest.approx(0.0, abs=1e-9)


def test_facet_solution_contract(rng):
    for _ in range(40):
        t = random_training(rng, int(rng.integers(1, 4)), int(rng.integers(2, 15)))
        got = optimal_facet(t)
        assert np.all(got.a @ t.X <= got.r + 1e-7)
        if not got.degenerate:
            assert np.sum(np.abs(got.a)) == pytest.approx(1.0, abs=1e-7)


def test_training_set_rejects_zero_column():
    with pytest.raises(ValueError):
        TrainingSet(np.array([[0.0, 1.0], [0.0, 2.0]]), np.array([1.0, 1.0]))


# --- min_radius -------------------------------------------------------------------


def test_min_radius_single_focus(rng):
    x = rng.random(9) + 0.1
    got = min_radius(TrainingSet(x.reshape(1, -1), np.zeros(1)))
    assert got.radius == pytest.approx(float(np.max(x)), abs=1e-9)


def test_min_radius_formulations_agree(rng):
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 15))
        t = random_training(rng, m, n)
        got = min_radius(t)
        assert got.radius == pytest.approx(got.packing_radius, abs=1e-9)
        assert np.all(got.a >= -1e-9)
        assert np.all(got.a @ t.X <= got.radius + 1e-7)


def test_min_radius_dominating_foci():
    # star: node 0 dominates everyone
    n = 5
    adjacency = [set(range(1, n))] + [{0} for _ in range(1, n)]
    space, q = build_hardness_gadget(adjacency, 0.5)
    for dom in ([0], [0, 1]):
        m = len(dom)
        rest = [v for v in range(n) if v not in dom]
        X = np.array([space.distances_from(p, rest) for p in dom])
        got = min_radius(TrainingSet(X, np.zeros(m)))
        assert got.radius <= 3.0 - 1.0 / m + 1e-9


# --- hulls ------------------------------------------------------------------------


def _oracle_facets(points: np.ndarray):
    """Half-planes from the gift-wrapping vertex cycle, outward by containment."""
    idx = gift_wrap_2d(points)
    verts = points[idx]
    k = len(verts)
    facets = []
    for i in range(k):
        p, q = verts[i], verts[(i + 1) % k]
        d = q - p
        normal = np.array([d[1], -d[0]])
        if np.max(points @ normal) > normal @ p + 1e-9:
            normal = -normal
        norm = np.linalg.norm(normal)
        facets.append((tuple(np.round(normal / norm, 9)), round(float(normal @ p) / norm, 9)))
    return set(facets)


def test_hull_m1_interval(rng):
    x = rng.random(12)
    region = hull_ambit(TrainingSet(x.reshape(1, -1), np.zeros(1)))
    assert np.array_equal(region.map.matrix, [[1.0], [-1.0]])
    assert region.radii == (float(np.max(x)), -float(np.min(x)))


def test_hull_m2_unit_square():
    X = np.array([[0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]]) + 1.0
    region = hull_ambit(TrainingSet(X, np.zeros(2)))
    assert region.map.rows == 4


def test_hull_m2_matches_gift_wrapping(rng):
    for _ in range(30):
        n = int(rng.integers(4, 21))
        X = rng.random((2, n)) * 3.0 + 0.2
        region = hull_ambit(TrainingSet(X, np.zeros(2)))
        got = set()
        for row, r in zip(region.map.matrix, region.radii):
            norm = np.linalg.norm(row)
            got.add((tuple(np.round(row / norm, 9)), round(float(r) / norm, 9)))
        assert got == _oracle_facets(X.T)


def test_hull_m2_contains_and_is_minimal(rng):
    for _ in range(20):
        n = int(rng.integers(4, 15))
        X = rng.random((2, n)) + 0.1
        region = hull_ambit(TrainingSet(X, np.zeros(2)))
        A, r = region.map.matrix, np.asarray(region.radii)
        assert np.all(A @ X <= r[:, None] + 1e-9)
        verts = X.T[gift_wrap_2d(X.T)]
        for _ in range(50):
            k = int(rng.integers(1, 5))
            rows = rng.normal(size=(k, 2))
            radii = np.max(rows @ X, axis=1) + rng.random(k) * 0.5
            # competitor contains every responsibility, so it must contain the hull
            assert np.all(rows @ verts.T <= radii[:, None] + 1e-9)


def test_hull_m2_collinear_doubles_facets():
    X = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]) + 0.5
    region = hull_ambit(TrainingSet(X, np.zeros(2)))
    assert region.map.rows == 4
    assert np.all(region.map.matrix @ X <= np.asarray(region.radii)[:, None] + 1e-9)


def test_hull_m3_contains_all(rng):
    X = rng.random((3, 15)) + 0.1
    region = hull_ambit(TrainingSet(X, np.zeros(3)))
    assert np.all(region.map.matrix @ X <= np.asarray(region.radii)[:, None] + 1e-7)
    # a point well outside the cloud is excluded
    far = np.max(X, axis=1) * 3.0 + 1.0
    assert not region.contains_features(far)


def test_hull_holds_its_responsibilities_at_zero_slack(rng):
    # a facet's equation can round against a hull vertex, and a lone column
    # can round apart from a batch; the region must hold every
    # responsibility with no slack both ways
    for i in range(30):
        m = 2 + i % 2
        n = int(rng.integers(4, 20))
        space = EuclideanSpace(rng.random((m + n, 2)) * 10.0 ** rng.uniform(-1, 2))
        resp = range(m, m + n)
        t = build_training_set(space, range(m), resp, [0])
        region = hull_ambit(t)
        assert region.contains_features(t.X).all(), i
        assert all(membership(space, region, u) for u in resp), i


def test_hull_m4_routes_to_clustering(rng):
    with pytest.raises(CapabilityError):
        hull_ambit(random_training(rng, 4, 10))


# --- facet clustering --------------------------------------------------------------


def test_cluster_k1_equals_single_facet(rng):
    t = random_training(rng, 2, 12)
    queries = rng.random((10, 2)) + 4.0  # far from the responsibilities
    region = cluster_facets(TrainingSet(t.X, np.mean(queries, axis=0)), queries, 1)
    facet = optimal_facet(TrainingSet(t.X, np.mean(queries, axis=0)))
    assert not facet.degenerate
    assert region.map.rows == 1
    assert np.allclose(region.map.matrix[0], facet.a, atol=1e-9)
    assert region.radii[0] == pytest.approx(facet.r, abs=1e-9)


def test_cluster_three_query_clusters(rng):
    # two foci on the x-axis, responsibilities between them,
    # three well-separated query clouds
    foci_pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    resp = rng.random((30, 2)) * np.array([2.0, 0.6]) + np.array([0.0, -0.3])
    clouds = [np.array([6.0, 0.0]), np.array([-4.0, 3.0]), np.array([1.0, -6.0])]
    queries = np.vstack([c + rng.normal(scale=0.2, size=(12, 2)) for c in clouds])

    def feats(pts):
        return np.stack(
            [np.hypot(pts[:, 0] - f[0], pts[:, 1] - f[1]) for f in foci_pts], axis=1
        )

    X = feats(resp).T
    qf = feats(queries)
    t = TrainingSet(X, np.mean(qf, axis=0))
    region = cluster_facets(t, qf, 3)
    assert region.map.rows == 3
    A, r = region.map.matrix, np.asarray(region.radii)
    assert np.all(A @ X <= r[:, None] + 1e-7)
    # each cluster centroid is cut off by at least one facet
    for c in clouds:
        z = feats(c.reshape(1, 2))[0]
        assert np.any(A @ z > r + 1e-6)


def test_cluster_region_contains_responsibilities(rng):
    for _ in range(10):
        t = random_training(rng, 3, 20)
        queries = rng.random((15, 3)) * 2.0
        k = int(rng.integers(1, 5))
        region = cluster_facets(t, queries, k, mode=str(rng.choice(["lp25", "minrad"])))
        A, r = region.map.matrix, np.asarray(region.radii)
        assert np.all(A @ t.X <= r[:, None] + 1e-7)


def test_cluster_reduces_excess_k(rng):
    t = random_training(rng, 2, 8)
    queries = np.array([[1.0, 1.0]] * 5)
    with pytest.warns(UserWarning):
        region = cluster_facets(t, queries, 3)
    assert region.map.rows == 1


@pytest.mark.parametrize("mode", ["lp25", "minrad"])
def test_cluster_solves_the_covering_lp_once(rng, monkeypatch, mode):
    # every centroid that takes the min-radius facet (all of them in minrad
    # mode, those whose optimal facet is degenerate in lp25 mode) takes the
    # same one, as it depends on the training set alone: one solve per call
    import sprawl.optimize as optimize

    t = random_training(rng, 2, 12)
    # query features at responsibilities, which no facet separates, and a far cloud
    queries = np.vstack([t.X.T[:8], t.X.T[:3] + 5.0])
    covering = min_radius(t)
    centroids, _ = kmeans(queries, 3, np.random.default_rng(0))
    want = []
    for zhat in centroids:  # the region as one solve per centroid gives it
        facet = optimal_facet(TrainingSet(t.X, zhat))
        degenerate = float(np.sum(np.abs(facet.a))) <= 1e-9
        want.append((covering.a, covering.radius) if mode == "minrad" or degenerate else (facet.a, facet.r))
    assert sum(a is covering.a for a, _ in want) == (3 if mode == "minrad" else 2)
    calls = []
    monkeypatch.setattr(optimize, "min_radius", lambda t_: calls.append(t_) or min_radius(t_))
    region = cluster_facets(t, queries, 3, mode=mode)
    assert len(calls) == 1
    assert region.map.rows == 3
    for row, r, (a, radius) in zip(region.map.matrix, region.radii, want):
        assert row.tolist() == a.tolist() and r == radius


@pytest.mark.parametrize("mode", ["lp25", "minrad"])
def test_cluster_refuses_empty_query_features(rng, mode):
    t = random_training(rng, 2, 8)
    with pytest.raises(ValueError, match="query features"):
        cluster_facets(t, np.empty((0, 2)), 2, mode=mode)


def test_kmeans_refuses_fewer_than_one_cluster(rng):
    with pytest.raises(ValueError, match="at least 1"):
        kmeans(rng.random((5, 2)), 0, np.random.default_rng(0))


def test_kmeans_deterministic_and_total(rng):
    pts = rng.random((40, 2))
    c1, l1 = kmeans(pts, 5, np.random.default_rng(9))
    c2, l2 = kmeans(pts, 5, np.random.default_rng(9))
    assert np.array_equal(c1, c2) and np.array_equal(l1, l2)
    assert set(l1) <= set(range(5))


# --- focus selection -----------------------------------------------------------------


def _brute_force_min_radius(space, refs, m):
    best = np.inf
    for foci in itertools.combinations(refs, m):
        rest = [v for v in refs if v not in foci]
        X = np.array([space.distances_from(p, rest) for p in foci])
        if np.any(np.all(X == 0.0, axis=0)):
            continue
        got = min_radius(TrainingSet(X, np.zeros(m)))
        best = min(best, got.radius)
    return best


def test_two_approx_single_focus(rng):
    for _ in range(10):
        space = EuclideanSpace(rng.random((9, 2)))
        got = two_approx_foci(space, range(9), 1)
        assert got.radius <= 2.0 * _brute_force_min_radius(space, list(range(9)), 1) + 1e-9


@pytest.mark.parametrize("m", [2, 3])
def test_two_approx_small_instances(rng, m):
    for _ in range(15):
        n_total = int(rng.integers(m + 2, 11))
        space = EuclideanSpace(rng.random((n_total, 3)))
        got = two_approx_foci(space, range(n_total), m)
        best = _brute_force_min_radius(space, list(range(n_total)), m)
        assert got.radius <= 2.0 * best + 1e-9


def test_two_approx_identical_points():
    space = EuclideanSpace(np.ones((6, 2)))
    got = two_approx_foci(space, range(6), 2)
    assert got.radius == pytest.approx(0.0, abs=1e-12)


def test_two_approx_dominating_gadget():
    adjacency = [set(range(1, 6))] + [{0} for _ in range(1, 6)]
    space, _ = build_hardness_gadget(adjacency, 0.5)
    rest = list(range(1, 6))
    X = np.array([space.distances_from(0, rest)])
    got = min_radius(TrainingSet(X, np.zeros(1)))
    assert got.radius <= 3.0 - 1.0


def test_runoff_exact_candidate_count(rng):
    space = EuclideanSpace(rng.random((12, 2)))
    cands = [0, 1, 2]
    resp = list(range(3, 12))
    queries = [tuple(rng.random(2) * 2.0) for _ in range(6)]
    foci, sol = runoff_foci(space, cands, resp, queries, 3)
    direct = optimal_facet(build_training_set(space, cands, resp, queries))
    assert set(foci) == set(cands)
    assert sol.ell == pytest.approx(direct.ell, abs=1e-7)


def test_runoff_round2_beats_restricted_round1(rng):
    for _ in range(10):
        space = EuclideanSpace(rng.random((16, 3)))
        cands = list(range(6))
        resp = list(range(6, 16))  # disjoint: no responsibility is dropped
        queries = [tuple(rng.random(3) * 2.0 + 1.0) for _ in range(8)]
        m = 3
        foci, sol = runoff_foci(space, cands, resp, queries, m)
        t1 = build_training_set(space, cands, resp, queries)
        r1 = optimal_facet(t1)
        keep = [cands.index(f) for f in foci]
        restricted = r1.a[keep]
        norm = np.sum(np.abs(restricted))
        if norm <= 1e-12:
            continue
        t2 = build_training_set(space, list(foci), resp, queries)
        restricted_obj = float(restricted @ t2.zhat - np.max(restricted @ t2.X)) / norm
        assert sol.ell >= restricted_obj - 1e-7


def test_runoff_gadget_separation():
    # planted dominating set of size 2: {0, 1} cover everyone
    adjacency = [ {2, 3}, {4, 5}, {0}, {0}, {1}, {1} ]
    eps = 0.5
    space, q = build_hardness_gadget(adjacency, eps)
    n = 6
    m = 2
    best = -np.inf
    for foci in itertools.combinations(range(n), m):
        rest = [v for v in range(n) if v not in foci]
        sol = optimal_facet(build_training_set(space, list(foci), rest, [q]))
        best = max(best, sol.ell)
    assert best >= eps + 1.0 / m - 1e-7
    # empty graph: no dominating set of size 2 among 6 nodes
    space2, q2 = build_hardness_gadget([set() for _ in range(6)], eps)
    best2 = -np.inf
    for foci in itertools.combinations(range(n), m):
        rest = [v for v in range(n) if v not in foci]
        sol = optimal_facet(build_training_set(space2, list(foci), rest, [q2]))
        best2 = max(best2, sol.ell)
    assert best2 == pytest.approx(eps, abs=1e-7)


# --- alpha search -----------------------------------------------------------------------


def _alpha_builder(space, foci, resp, queries):
    base = build_training_set(space, foci, resp, queries)

    def at(alpha: float) -> TrainingSet:
        return TrainingSet(base.X**alpha, base.zhat**alpha, base.foci)

    return at


def test_alpha_search_never_worse_than_linear(rng):
    for _ in range(5):
        space = EuclideanSpace(rng.random((14, 2)) * 2.0)
        builder = _alpha_builder(space, [0, 1], list(range(2, 14)),
                                 [tuple(rng.random(2) * 4.0 + 2.0) for _ in range(6)])
        alpha, bound = alpha_search(builder)
        lin = max(optimal_facet(builder(1.0)).ell, 0.0)
        assert bound >= lin - 1e-9


def test_alpha_search_matches_grid(rng):
    space = EuclideanSpace(rng.random((12, 2)) * 2.0)
    builder = _alpha_builder(space, [0, 1], list(range(2, 12)),
                             [tuple(rng.random(2) * 4.0 + 2.0) for _ in range(5)])
    alpha, bound = alpha_search(builder)
    grid = [max(optimal_facet(builder(a)).ell, 0.0) ** (1.0 / a) for a in np.linspace(0.05, 1.0, 20)]
    assert bound >= max(grid) - 1e-3


def test_alpha_search_degenerate_falls_back():
    X = np.array([[1.0, 2.0], [2.0, 1.0]])
    zhat = X[:, 0]  # a perfect fit exists at every power

    def at(alpha):
        return TrainingSet(X**alpha, zhat**alpha)

    alpha, bound = alpha_search(at)
    assert alpha == 1.0
    assert bound == 0.0
