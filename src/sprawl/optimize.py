"""Region-shape and focus-selection optimization.

Single facets come from a linear program that maximizes the expected
filtering lower bound E[a.z - r] over coefficients with unit L1 norm;
multi-facet regions cluster training queries and solve one facet per
centroid; minimum-radius fitting has an equivalent packing form; focus
selection gets a radius 2-approximation and a two-round runoff.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ambit import Ambit, LinearMap, table1_region
from .comparison import ComparisonSpace, feature_map
from .errors import CapabilityError, SolverError
from .lp import LpProblem, LpResult, solve_lp

DEGENERACY_TOL = 1e-9


@dataclass
class TrainingSet:
    """Responsibility feature columns X (m x n) and mean query features zhat."""

    X: np.ndarray
    zhat: np.ndarray
    foci: tuple[int, ...] | None = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.zhat = np.asarray(self.zhat, dtype=float)
        m, n = self.X.shape
        if self.zhat.shape != (m,):
            raise ValueError("zhat must have one entry per focus")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.zhat))):
            raise ValueError("training data must be finite")
        if n and np.any(np.all(self.X == 0.0, axis=0)):
            raise ValueError("X has an all-zero column: a focus coincides with a responsibility")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def focus_refs(self) -> tuple[int, ...]:
        return self.foci if self.foci is not None else tuple(range(self.m))


def build_training_set(space: ComparisonSpace, foci, responsibilities, queries) -> TrainingSet:
    """Assemble X from responsibilities and zhat as the mean query feature."""
    foci = tuple(int(f) for f in foci)
    X = np.array(
        [[space.compare(p, u) for u in responsibilities] for p in foci], dtype=float
    ).reshape(len(foci), -1)
    zs = np.array([feature_map(space, foci, q).values for q in queries], dtype=float)
    return TrainingSet(X, np.mean(zs, axis=0), foci)


@dataclass
class FacetSolution:
    a: np.ndarray
    r: float
    ell: float
    degenerate: bool


def optimal_facet(t: TrainingSet) -> FacetSolution:
    """Best single facet by LP: max u.zhat - v.zhat - r with (u+v).1 = 1,
    (u-v)X <= r, u, v >= 0; a = u - v. Degenerate when the optimum is ~0,
    meaning no facet can ever filter a mean-like query.
    """
    m, n = t.m, t.n
    c = np.concatenate([t.zhat, -t.zhat, [-1.0]])
    rows = [np.concatenate([np.ones(m), np.ones(m), [0.0]])]
    senses = ["="]
    rhs = [1.0]
    for j in range(n):
        rows.append(np.concatenate([t.X[:, j], -t.X[:, j], [-1.0]]))
        senses.append("<=")
        rhs.append(0.0)
    free = np.zeros(2 * m + 1, dtype=bool)
    free[-1] = True
    result: LpResult = solve_lp(LpProblem(c, np.array(rows), tuple(senses), np.array(rhs), free))
    if result.status != "optimal":
        raise SolverError(f"facet LP came back {result.status}")
    u, v, r = result.x[:m], result.x[m : 2 * m], float(result.x[-1])
    ell = float(result.objective)
    return FacetSolution(a=u - v, r=r, ell=ell, degenerate=ell <= DEGENERACY_TOL)


@dataclass
class MinRadius:
    a: np.ndarray
    radius: float
    packing_radius: float


def min_radius(t: TrainingSet) -> MinRadius:
    """Smallest radius covering all responsibilities with a >= 0, a.1 = 1.

    Solved directly and in the inverse packing form max a.1 s.t. aX <= 1;
    the two optima agree via r = 1 / (a.1).
    """
    m, n = t.m, t.n
    direct = solve_lp(
        LpProblem(
            np.concatenate([np.zeros(m), [-1.0]]),
            np.vstack(
                [
                    np.concatenate([np.ones(m), [0.0]]),
                    np.hstack([t.X.T, -np.ones((n, 1))]),
                ]
            ),
            ("=",) + ("<=",) * n,
            np.concatenate([[1.0], np.zeros(n)]),
        )
    )
    if direct.status != "optimal":
        raise SolverError(f"radius LP came back {direct.status}")
    a = direct.x[:m]
    r_direct = float(direct.x[-1])
    packing = solve_lp(
        LpProblem(np.ones(m), t.X.T, ("<=",) * n, np.ones(n))
    )
    if packing.status != "optimal":
        raise SolverError(f"packing LP came back {packing.status}")
    r_packing = 1.0 / float(np.sum(packing.x))
    return MinRadius(a=a, radius=r_direct, packing_radius=r_packing)


# --- inclusion-wise minimum ambits (convex hulls) ----------------------------


def _cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def gift_wrap_2d(points: np.ndarray) -> list[int]:
    """Jarvis march: indices of hull vertices in counter-clockwise order."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 3:
        return list(range(n))
    start = int(min(range(n), key=lambda i: (pts[i, 0], pts[i, 1])))
    hull = [start]
    while True:
        cur = hull[-1]
        cand = (cur + 1) % n
        for j in range(n):
            if j == cur:
                continue
            cross = _cross2(pts[cand] - pts[cur], pts[j] - pts[cur])
            if cross < 0 or (cross == 0 and
                             np.dot(pts[j] - pts[cur], pts[j] - pts[cur])
                             > np.dot(pts[cand] - pts[cur], pts[cand] - pts[cur])):
                cand = j
        if cand == start:
            break
        hull.append(cand)
        if len(hull) > n:
            raise RuntimeError("gift wrapping failed to close")
    return hull


def hull_ambit(t: TrainingSet) -> Ambit:
    """Inclusion-wise minimum linear ambit: the feature-space convex hull.

    Exact for one to three foci: one focus gives the interval, two or
    three the facets that Qhull finds (Barber, Dobkin & Huhdanpaa, 1996).
    Where Qhull finds no hull, two foci over collinear responsibilities
    get doubled facets along and across their line, and a single point or
    three foci over coplanar responsibilities the bounding box, which
    doubles facets but still contains every responsibility. The region
    holds every column of X at zero slack (`contains_features(X)`). Beyond
    three foci the facet count explodes combinatorially, so callers are
    pointed at cluster_facets instead.
    """
    from scipy.spatial import ConvexHull, QhullError

    m, X, foci = t.m, t.X, t.focus_refs()
    if m > 3:
        raise CapabilityError("exact hulls are limited to m <= 3; use cluster_facets for more foci")
    pts = X.T
    try:
        equations = ConvexHull(pts).equations if m > 1 else None
    except QhullError:
        equations = None
    if equations is not None:
        rows, radii = equations[:, :m], -equations[:, m]
    else:
        distinct = np.unique(pts, axis=0)  # in lexicographic order
        if m != 2 or len(distinct) < 2:  # the box's rows read X's own entries, so it holds every column
            return table1_region("cut", foci, lo=np.min(X, axis=1), hi=np.max(X, axis=1))
        d = distinct[-1] - distinct[0]
        norm = np.array([-d[1], d[0]])
        rows, radii = [d, -d, norm, -norm], None
    linear = LinearMap(rows)
    # a facet's equation can round against a hull vertex, so each radius is
    # at least its row's largest remoteness over the responsibilities: the
    # region then holds all of them at zero slack, as a batch and one at a
    # time, which `LinearMap.remoteness` rounds alike
    reach = linear.remoteness(X).max(axis=1)
    return Ambit(foci, linear, reach if radii is None else np.maximum(radii, reach))


# --- k-means and facet clustering -------------------------------------------


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Lloyd iterations from k-means++ seeds; returns (centroids, labels).

    Stops after 100 iterations, or once no centroid coordinate moves more
    than 1e-6."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError("more clusters than points")
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[int(rng.integers(0, n))]
    closest = np.sum((pts - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(np.sum(closest))
        if total <= 0.0:
            centroids[i:] = centroids[0]
            break
        probs = closest / total
        centroids[i] = pts[int(rng.choice(n, p=probs))]
        closest = np.minimum(closest, np.sum((pts - centroids[i]) ** 2, axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        d = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d, axis=1)
        moved = 0.0
        for i in range(k):
            members = pts[labels == i]
            if len(members) == 0:  # classic fix: reseed on the farthest point
                far = int(np.argmax(np.min(d, axis=1)))
                new = pts[far]
            else:
                new = np.mean(members, axis=0)
            moved = max(moved, float(np.max(np.abs(new - centroids[i]), initial=0.0)))
            centroids[i] = new
        if moved <= 1e-6:
            break
    return centroids, labels


def cluster_facets(
    t: TrainingSet,
    query_features: np.ndarray,
    k: int,
    mode: str = "lp25",
    seed: int = 0,
) -> Ambit:
    """One facet per query cluster: cluster the z-vectors, then optimize a
    facet against each centroid. Every facet keeps all responsibilities
    inside, so the stacked region always contains them."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if mode not in ("lp25", "minrad"):
        raise ValueError("mode must be lp25 or minrad")
    q = np.atleast_2d(np.asarray(query_features, dtype=float))
    if q.shape[0] == 0:
        raise ValueError("clustering needs training query features")
    distinct = len({tuple(row) for row in q})
    if k > distinct:
        warnings.warn(f"reducing k from {k} to {distinct} distinct query features")
        k = distinct
    rng = np.random.default_rng(seed)
    centroids, _ = kmeans(q, k, rng)
    covering = None  # the min-radius facet, which depends on t alone: solved once
    rows, radii = [], []
    for zhat in centroids:
        if mode == "lp25":
            facet = optimal_facet(TrainingSet(t.X, zhat, t.foci))
            a, r = facet.a, facet.r
        if mode == "minrad" or float(np.sum(np.abs(a))) <= DEGENERACY_TOL:  # a degenerate facet falls back too
            if covering is None:
                mr = min_radius(t)
                covering = mr.a, mr.radius
            a, r = covering
        rows.append(a)
        radii.append(float(r))
    return Ambit(t.focus_refs(), LinearMap(np.array(rows)), tuple(radii))


# --- focus selection ---------------------------------------------------------


@dataclass
class FocusSelection:
    foci: tuple[int, ...]
    weights: np.ndarray
    radius: float


def two_approx_foci(space: ComparisonSpace, points, m: int) -> FocusSelection:
    """Radius 2-approximation: the first focus is a point whose n-radius is
    beaten by at most m others; the rest are the m-1 points farthest from
    it. Remaining points become the responsibilities."""
    refs = [int(v) for v in points]
    total = len(refs)
    if not 1 <= m <= total - 1:
        raise ValueError("need 1 <= m < point count")
    n = total - m
    nradius = np.empty(total)
    for i, u in enumerate(refs):
        d = space.distances_from(u, [v for v in refs if v != u])
        nradius[i] = np.partition(d, n - 1)[n - 1]  # selection, no full sort
    p1 = refs[int(np.argmin(nradius))]
    d1 = space.distances_from(p1, refs)
    order = np.argsort(-d1, kind="stable")
    rest = [refs[int(i)] for i in order if refs[int(i)] != p1]
    foci = tuple([p1] + rest[: m - 1])
    responsibilities = [v for v in refs if v not in foci]
    X = np.array([space.distances_from(p, responsibilities) for p in foci])
    nonzero = ~np.all(X == 0.0, axis=0)
    if not np.any(nonzero):  # every responsibility coincides with a focus
        return FocusSelection(foci, np.full(m, 1.0 / m), 0.0)
    mr = min_radius(TrainingSet(X[:, nonzero], np.zeros(m), foci))
    return FocusSelection(foci, mr.a, mr.radius)


def runoff_foci(space: ComparisonSpace, candidates, responsibilities, queries, m: int):
    """Two-round focus selection: solve the facet LP over all candidates,
    keep the m largest |a_i| (ties by index), then re-solve with the
    chosen foci, dropping them from the responsibilities."""
    candidates = [int(v) for v in candidates]
    responsibilities = [int(v) for v in responsibilities]
    if len(candidates) < m:
        raise ValueError("need at least m candidate foci")
    round1 = optimal_facet(build_training_set(space, candidates, responsibilities, queries))
    order = sorted(range(len(candidates)), key=lambda i: (-abs(round1.a[i]), i))
    foci = tuple(candidates[i] for i in order[:m])
    remaining = [v for v in responsibilities if v not in foci]
    if not remaining:
        raise ValueError("every responsibility was promoted to a focus")
    round2 = optimal_facet(build_training_set(space, foci, remaining, queries))
    return foci, round2


# --- blobbiness search -------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def alpha_search(training_at):
    """Pick the power-transform exponent maximizing the comparable bound.

    `training_at(alpha)` must build a TrainingSet with features already
    raised to alpha; the objective is ell'_opt ** (1/alpha), the bound
    mapped back to the untransformed comparisons. A grid of 20 exponents
    over [0.05, 1] locates the best bracket and golden-section refines it
    to a width of 1e-3; alpha = 1 is always a candidate, so the result
    never loses to plain linear remoteness.
    """
    cache: dict[float, float] = {}

    def objective(alpha: float) -> float:
        alpha = float(alpha)
        got = cache.get(alpha)
        if got is None:
            ell = max(optimal_facet(training_at(alpha)).ell, 0.0)
            got = cache[alpha] = float(ell ** (1.0 / alpha))
        return got

    alphas = list(np.linspace(0.05, 1.0, 20))  # ends at alpha = 1
    values = [objective(a) for a in alphas]
    if max(values) <= DEGENERACY_TOL:
        return 1.0, 0.0
    best_i = int(np.argmax(values))
    a = alphas[max(best_i - 1, 0)]
    b = alphas[min(best_i + 1, len(alphas) - 1)]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > 1e-3:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
    best = max([alphas[best_i], x1, x2, 1.0], key=objective)
    return float(best), objective(best)
