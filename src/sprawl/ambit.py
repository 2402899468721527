"""Ambit regions: remoteness maps, membership, and overlap checks.

An ambit is the preimage of a ball under a remoteness map applied to the
focal comparisons (radients) of a point. This module alone decides
whether a region contains points (`Ambit.contains_features`,
`membership_mask`) or meets a query. `overlap_radients` is the one
ball-overlap dispatcher: by map kind it runs the facet check (linear
maps), the subadditive check (power with w >= 0, metaball) or the
near-corner check (other non-decreasing maps). It has two forms for a
plan's ball rows, unit balls delta(p, .) <= r (`ball_radius`): over
columns, `overlap_facet_columns`, which a wave fires its ball rows with,
and over the balls of one focus,
`overlap_facet_pairs`, which gives the (kNN bound, target) pairs of
those that may meet the query, and which is how a `Ball` search fires
one node's ball rows. `overlap_linear` is the check of a linear region
against a linear ambit query, which meets it as the ball that
`linear_query` gives, under its sign rule, as a search's fan rows do;
`overlap_refs` is that of a region against the radients of an explicit
set of points. `shells_missed` is the vectorised shell test,
`shells_hold` the vectorised shell and ball membership, `shell_bounds`
the lower bounds that shells give a kNN search, `spheres_missed` and
`sphere_bounds` the same two for spheres (lo = hi) as one absolute
difference, which a dense plan's full-width rows take, and `ball_reach` the
radius at which a linear ambit's facets stop excluding a ball. A
`LinearMap` also keeps its facet rows as plain floats, so both linear
checks run as a float loop: on the small rows of tree regions, numpy's
per-call overhead would cost more than the arithmetic. All
overlap checks are conservative: they may report overlap for disjoint
sets, but never miss a real overlap. A linear facet a.x <= r rules B[c, s]
out exactly when (a.z - r) / ||a||_1 > `bound_cutoff(s)`, given c's
radients z, as a kNN cut does. The one slack is `TOL`, always on the
permissive side; no overlap check takes a slack of its own, and none
measures a distance: each is a verdict on distances its caller gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .comparison import TOL, ComparisonSpace, ref_array
from .errors import CapabilityError


class RemotenessMap:
    """Combines an m-vector of radients (or m x n columns) into d (d x n) remoteness values."""

    arity: int  # m
    rows: int  # d

    def remoteness(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def _key(self):
        def freeze(v):
            return tuple(freeze(x) for x in v) if isinstance(v, list) else v

        return tuple(sorted((k, freeze(v)) for k, v in self.describe().items()))

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class LinearMap(RemotenessMap):
    def __init__(self, rows):
        a = np.atleast_2d(np.array(rows, dtype=float))  # a copy: freezing it leaves the caller's array writable
        self._facets = _facets(a)
        if not all(0.0 < l1 < math.inf for _, l1 in self._facets):  # a NaN or inf entry makes ||row||_1 NaN or inf
            raise ValueError("linear remoteness rows must be non-zero and finite, free of NaN and inf")
        self.matrix = a
        self.matrix.setflags(write=False)

    @property
    def arity(self) -> int:
        return self.matrix.shape[1]

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def nondecreasing(self) -> bool:
        return not np.any(self.matrix < 0.0)

    def remoteness(self, x: np.ndarray) -> np.ndarray:
        """matrix @ x, summed column by column in order and elementwise, so
        that a column of a batch rounds as it does alone: a matrix product
        orders its sums by the shape of its operands."""
        x = np.asarray(x, dtype=float)
        cols = x.reshape(self.arity, -1)
        total = self.matrix[:, :1] * cols[0]
        for j in range(1, self.arity):
            total = total + self.matrix[:, j : j + 1] * cols[j]
        return total.reshape((self.rows,) + x.shape[1:])

    def describe(self) -> dict:
        return {"kind": "linear", "rows": [[float(v) for v in row] for row in self.matrix]}


class PowerMap(RemotenessMap):
    """f(x) = sum_i a_i * x_i**alpha, alpha in (0, 1].

    Non-decreasing and subadditive for a >= 0, hence metric-preserving.
    """

    rows = 1

    def __init__(self, weights, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        self.weights = np.array(weights, dtype=float)  # a copy, frozen below
        if not np.isfinite(self.weights).all():
            raise ValueError("power weights must be finite, not NaN or inf")
        self.weights.setflags(write=False)
        self.alpha = float(alpha)

    @property
    def arity(self) -> int:
        return self.weights.shape[0]

    @property
    def nondecreasing(self) -> bool:
        return bool(np.all(self.weights >= 0.0))

    subadditive = nondecreasing

    def remoteness(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.weights @ np.asarray(x, dtype=float) ** self.alpha)[None]

    def describe(self) -> dict:
        return {"kind": "power", "weights": [float(w) for w in self.weights], "alpha": self.alpha}


class MetaballMap(RemotenessMap):
    """f(x) = sum_i (1 - b_i * exp(-a_i * x_i)), a, b > 0.

    With all b_i = 1 (the default) f(0) = 0, which is what the
    metric-preservation guarantee requires; other offsets need the
    explicit `offset` flag and are excluded from that guarantee.
    """

    rows = 1

    def __init__(self, a, b=None, offset: bool = False):
        self.a = np.array(a, dtype=float)  # copies, frozen below
        self.b = np.ones_like(self.a) if b is None else np.array(b, dtype=float)
        if not all(np.all((v > 0.0) & (v < np.inf)) for v in (self.a, self.b)):  # NaN fails both tests
            raise ValueError("metaball parameters must be positive and finite")
        if not offset and abs(float(np.sum(1.0 - self.b))) > TOL:
            raise ValueError("metaball with f(0) != 0 requires offset=True")
        self.a.setflags(write=False)
        self.b.setflags(write=False)
        self.offset = bool(offset)

    @property
    def arity(self) -> int:
        return self.a.shape[0]

    nondecreasing = subadditive = True

    def remoteness(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        column = (slice(None),) + (None,) * (x.ndim - 1)
        return np.sum(1.0 - self.b[column] * np.exp(-self.a[column] * x), axis=0, keepdims=True)

    def describe(self) -> dict:
        return {
            "kind": "metaball",
            "a": [float(v) for v in self.a],
            "b": [float(v) for v in self.b],
            "offset": self.offset,
        }


class HamacherMap(RemotenessMap):
    """f(x1, x2) = x1*x2 / (x1 + x2 - x1*x2), with f(0, 0) = 0.

    Bifocal only, intended for radients in [0, 1]. Non-decreasing there,
    but not subadditive, so only the corner overlap check applies.
    """

    arity = 2
    rows = 1
    nondecreasing = True

    def remoteness(self, x: np.ndarray) -> np.ndarray:
        x1, x2 = np.asarray(x, dtype=float)
        denom = x1 + x2 - x1 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            degenerate = np.where((x1 == 0.0) & (x2 == 0.0), 0.0, np.inf)
            return np.asarray(np.where(denom <= 0.0, degenerate, x1 * x2 / denom))[None]

    def describe(self) -> dict:
        return {"kind": "hamacher"}


@dataclass(frozen=True)
class Ambit:
    """A region: foci refs, a remoteness map, and one radius per map row."""

    foci: tuple[int, ...]
    map: RemotenessMap
    radii: tuple[float, ...]
    orientation: str = "forward"

    def __post_init__(self):
        object.__setattr__(self, "foci", tuple(int(f) for f in self.foci))
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        if len(self.foci) != self.map.arity:
            raise ValueError("focus count must match the remoteness map arity")
        if len(self.radii) != self.map.rows:
            raise ValueError("need one radius per remoteness row")
        if any(map(math.isnan, self.radii)):  # every overlap check with NaN misses, so its subtree would vanish
            raise ValueError("an ambit radius must not be NaN")
        if self.orientation not in ("forward", "backward"):
            raise ValueError("orientation must be forward or backward")

    @property
    def degree(self) -> int:
        return len(self.foci)

    def contains_features(self, x, tol: float = 0.0):
        """remoteness <= radius + tol on every row: one verdict for one
        point's radients, or a bool array for an m x n batch of columns."""
        x = np.asarray(x, dtype=float)
        radii = np.asarray(self.radii).reshape((-1,) + (1,) * (x.ndim - 1))
        inside = np.all(self.map.remoteness(x) <= radii + tol, axis=0)
        return inside if x.ndim > 1 else bool(inside)


def overlap_refs(ambit: Ambit, radients) -> bool:
    """Whether the region holds, with the overlap slack `TOL`, any point of
    an explicit set query, given each one's radients in turn (stopping at
    the first inside, so a lazy iterable measures no point after it)."""
    return any(ambit.contains_features(x, tol=TOL) for x in radients)


def membership_mask(space: ComparisonSpace, ambit: Ambit, refs, tol: float = TOL) -> np.ndarray:
    """Membership of each ref, honoring orientation, from uncounted bulk
    distances; the default slack is TOL, as in the overlap checks. An
    int64 array of refs is read as it is; a negative ref is refused."""
    refs = ref_array(refs)
    if ambit.orientation == "backward" and not space.symmetric:
        x = space.pairwise(refs, ambit.foci).reshape(len(refs), ambit.degree).T
    else:
        x = np.vstack([space.distances_from(p, refs) for p in ambit.foci])
    return ambit.contains_features(x, tol=tol)


# --- overlap checks ---------------------------------------------------------


def _facets(rows: np.ndarray) -> tuple:
    """The rows of a 2-d coefficient array as plain floats: one
    (row as a float tuple, ||row||_1) pair per facet."""
    return tuple(zip(map(tuple, rows.tolist()), np.sum(np.abs(rows), axis=1).tolist()))


def _facets_meet(facets, radii, z, s: float) -> bool:
    """(a.z - r) / ||a||_1 <= bound_cutoff(s) on every facet, in plain
    floats; `not ... <=` makes a NaN bound rule the facet out."""
    cut = bound_cutoff(s)
    for (row, l1), r in zip(facets, radii):
        if not (sum(map(mul, row, z)) - r) / l1 <= cut:
            return False
    return True


def ball_radius(region, focus: int) -> float | None:
    """r when the region is the unit ball delta(focus, .) <= r, the form of
    a tree's ball edge; None for any other region."""
    if not isinstance(region, Ambit) or region.foci != (focus,):
        return None
    m = region.map
    return region.radii[0] if isinstance(m, LinearMap) and m._facets == BALL_MAP._facets else None


def overlap_facet_columns(r, z, s: float) -> np.ndarray:
    """`_facets_meet` for many unit balls delta(p, .) <= r at once, one per
    column entry: z - r <= bound_cutoff(s), elementwise, with z - r bit for
    bit the scalar bound (1.0 * z - r) / 1.0 (NaN misses)."""
    return z - r <= bound_cutoff(s)


def overlap_facet_pairs(radii, targets, z: float, s: float) -> list:
    """Unit balls delta(p, .) <= r, one per radius in radii, each leading
    to the target at its place in targets, against B[c, s], given
    z = delta(p, c), in plain floats: a (bound, target) pair, in order, for
    each ball that `_facets_meet` does not rule out (NaN misses), its bound
    z - r, the ball's `ball_reach`, clamped at 0: kept exactly where a kNN
    cut at `bound_cutoff(s)` keeps the bound, so one bound orders and prunes
    a best-first search (Hjaltason & Samet, TODS 28(4), 2003)."""
    cut = bound_cutoff(s)
    return [(max(0.0, b), t) for r, t in zip(radii, targets) if (b := z - r) <= cut]


def ball_reach(region: Ambit, z) -> float:
    """max_k (a_k.z - r_k) / ||a_k||_1 for a linear ambit: the ball radius
    below which `overlap_radients` rules the ball out (up to its slack)."""
    return max(
        (sum(map(mul, row, z)) - r) / l1 for (row, l1), r in zip(region.map._facets, region.radii)
    )


def _monotone(region: Ambit, z: np.ndarray, s: float) -> bool:
    """r + f(s, .., s) >= f(z) - TOL on every row."""
    f_s = region.map.remoteness(np.full(region.degree, float(s)))
    return bool(np.all(np.asarray(region.radii) + f_s >= region.map.remoteness(z) - TOL))


def _corner(region: Ambit, z: np.ndarray, s: float) -> bool:
    """f(max(z - s, 0)) <= r + TOL: the near corner of the feature box."""
    corner = np.maximum(z - float(s), 0.0)
    return bool(np.all(region.map.remoteness(corner) <= np.asarray(region.radii) + TOL))


def overlap_radients(region: Ambit, z, s: float) -> bool:
    """Does the ambit possibly meet a ball of radius s whose centre has radients z?

    By map kind: linear maps check their facet rows; non-decreasing
    subadditive ones (power with w >= 0, metaball) r + f(s,..,s) >= f(z);
    other non-decreasing ones the near corner; the rest raise CapabilityError.
    """
    m = region.map
    if isinstance(m, LinearMap):
        return _facets_meet(m._facets, region.radii, z, s)
    z = np.asarray(z, dtype=float)
    if getattr(m, "subadditive", False):
        return _monotone(region, z, s)
    if getattr(m, "nondecreasing", False):
        return _corner(region, z, s)
    raise CapabilityError(f"no sound ball overlap check for a {type(m).__name__} map")


def shells_missed(z, lo, hi, s: float):
    """Which shells lo <= delta(p, .) <= hi (arrays or scalars) surely miss
    B[c, s], given z = delta(p, c): `shell_bounds` > `bound_cutoff(s)`, facet
    by facet, so a scalar call needs no numpy (NaN misses none)."""
    cut = bound_cutoff(s)
    return (z - hi > cut) | (lo - z > cut)


def spheres_missed(z, d, s: float):
    """`shells_missed(z, d, d, s)` for spheres delta(p, .) = d, bit for bit:
    |z - d| > `bound_cutoff(s)`, since fl(d - z) = -fl(z - d). A NaN entry
    misses nothing. It takes a dense plan's full-width rows; the scalar
    calls on lazy rows keep `shells_missed`, which needs no numpy."""
    return np.abs(z - d) > bound_cutoff(s)


def shells_hold(d, lo, hi) -> np.ndarray:
    """Which shells lo <= delta(p, .) <= hi hold a point u, given the
    array d = delta(p, u), with the membership slack `TOL`, in membership's
    arithmetic: bit for bit what `membership_mask` gives for each shell's
    region. A ball of radius r is the shell from lo = -inf."""
    return (d <= hi + TOL) & (d >= lo - TOL)


def shell_bounds(z, lo, hi):
    """max(z - hi, lo - z): a lower bound on delta(c, u) for every u in the
    shell lo <= delta(p, u) <= hi, given z = delta(p, c). The shell surely
    misses B[c, s] where the bound exceeds `bound_cutoff(s)`."""
    return np.maximum(z - hi, lo - z)


def sphere_bounds(z, d):
    """`shell_bounds(z, d, d)` for spheres, |z - d|, equal to it bit for bit
    (but for the sign of a zero); a NaN entry stays NaN."""
    return np.abs(z - d)


def bound_cutoff(s: float) -> float:
    """The largest lower bound that may still belong to a point of B[c, s]."""
    return s + TOL


def linear_query(query: Ambit, symmetric: bool) -> tuple[np.ndarray, float, bool, bool]:
    """(c^, s^, upper, lower): a region meets the query as the ball of
    radius s^ at z = Z c^ (its row and radius L1-normalized, Z the distances
    from the region's foci to its own). Its sign rule: a facet with a >= 0
    may rule it out only where c >= 0 or the space is symmetric (`upper`),
    one with a < 0 only where both hold (`lower`), as with mixed signs the
    weighted-triangle bound needs delta(p,u) <= delta(u,q) + delta(p,q)."""
    if not isinstance(query.map, LinearMap) or query.map.rows != 1:
        raise CapabilityError("a linear query needs one linear remoteness row")
    c = query.map.matrix[0]
    norm, nonneg = float(np.sum(np.abs(c))), bool(np.all(c >= 0.0))
    return c / norm, query.radii[0] / norm, symmetric or nonneg, symmetric and nonneg


def overlap_linear(region: Ambit, query: Ambit, Z, symmetric: bool = True) -> bool:
    """Normalized overlap check between a linear ambit and a linear query.

    Z is the m x k matrix of comparisons from region foci to query foci. A
    facet rules the query out as in every linear check, at the z and s of
    `linear_query`, where its sign rule allows; else CapabilityError.
    """
    if not isinstance(region.map, LinearMap):
        raise CapabilityError("overlap_linear requires linear remoteness on both sides")
    c, s, upper, lower = linear_query(query, symmetric)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (region.degree, query.degree):
        raise ValueError("cross-distance matrix has the wrong shape")
    z, cut = (Z @ c).tolist(), bound_cutoff(s)
    for (row, l1), r in zip(region.map._facets, region.radii):
        if not (upper if min(row) >= 0.0 else lower):
            raise CapabilityError("weights must be non-negative on one side (both, for asymmetric comparisons)")
        if (sum(map(mul, row, z)) - r) / l1 > cut:
            return False
    return True


# --- classic region shapes --------------------------------------------------


def table1_region(kind: str, foci, **params) -> Ambit:
    """Classic comparison-based region shapes expressed as linear ambits."""
    foci = tuple(int(f) for f in foci)
    m = len(foci)

    def need(n):
        if m != n:
            raise ValueError(f"{kind} region needs exactly {n} focus/foci, got {m}")

    if kind == "ball":
        need(1)
        return Ambit(foci, BALL_MAP, (float(params["r"]),))
    if kind == "sphere":
        need(1)
        r = float(params["r"])
        return Ambit(foci, SHELL_MAP, (r, -r))
    if kind == "shell":
        need(1)
        lo, hi = float(params["lo"]), float(params["hi"])
        if lo > hi:
            raise ValueError("shell needs lo <= hi")
        return Ambit(foci, SHELL_MAP, (hi, -lo))
    if kind == "plane":
        need(2)
        return Ambit(foci, LinearMap([[1.0, -1.0]]), (0.0,))
    if kind == "ellipse":
        need(2)
        return Ambit(foci, LinearMap([[1.0, 1.0]]), (float(params["r"]),))
    if kind == "hyperbola":
        need(2)
        return Ambit(foci, LinearMap([[1.0, -1.0]]), (float(params["r"]),))
    if kind == "voronoi":
        cell = int(params.get("cell", 0))
        if m < 2:
            raise ValueError("voronoi needs at least 2 foci")
        if not 0 <= cell < m:
            raise IndexError("voronoi cell index out of range")
        rows = []
        for j in range(m):
            if j == cell:
                continue
            row = np.zeros(m)
            row[cell] = 1.0
            row[j] = -1.0
            rows.append(row)
        return Ambit(foci, LinearMap(rows), tuple(0.0 for _ in rows))
    if kind == "cut":
        lo = np.asarray(params["lo"], dtype=float)
        hi = np.asarray(params["hi"], dtype=float)
        if lo.shape != (m,) or hi.shape != (m,):
            raise ValueError("cut region needs per-focus lo and hi radii")
        if np.any(lo > hi):
            raise ValueError("cut region needs lo <= hi per focus")
        rows = np.vstack([np.eye(m), -np.eye(m)])
        radii = tuple(float(v) for v in np.concatenate([hi, -lo]))
        return Ambit(foci, LinearMap(rows), radii)
    raise ValueError(f"unknown region kind {kind!r}")


# The maps of the ball delta(p, .) <= r and of the shell
# lo <= delta(p, .) <= hi, immutable and so shared by every such region
BALL_MAP = LinearMap([[1.0]])
SHELL_MAP = LinearMap([[1.0], [-1.0]])
