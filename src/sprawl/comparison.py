"""Point universes, comparison functions, feature maps, queries and workloads.

Every distance used anywhere in the package is computed here, so the
per-query cost metric (number of comparison evaluations) has a single home:
`compare` and `distances_from` charge it around uncounted subclass kernels,
a search charges each call of its centre's uncounted `measurer` itself,
and every Lp distance, in every call shape, goes through `lp_norm`.

Lp distances come in three shapes, which must give one float per pair: a
row (`distances_from`) and a block (`pairwise`) over numpy arrays, and a
pair of points as plain float tuples at low dimension (see
`ComparisonSpace.plain`), which a search's `measurer` measures one node at
a time. numpy's `add.reduce` sums the terms of a row in pairwise order, and
`_sum_order` spells the same order out for the pair kernel: below 8 terms
in turn, from 0.0; from 8 to 128 terms in 8 lanes, lane j adding terms j,
j + 8, j + 16, ... in turn, the lanes combined as
((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the terms past the
last multiple of 8 added after in turn; above 128 terms, the first n // 2
rounded down to a multiple of 8 and the rest, each summed so, then added.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

#: Ordering tolerance for all comparison-valued checks. Comparisons are
#: 64-bit floats; every ">=" test elsewhere gets this much slack on the
#: permissive side so rounding can only create false positives.
TOL = 1e-9


#: The exponents whose pair distance is one generated expression: their
#: terms are IEEE products and absolute values, which plain floats round as
#: numpy does. Any other p keeps numpy's `power`, which a scalar `**` may
#: not match in the last bit.
PAIR_PS = (1.0, 2.0, math.inf)

#: The largest dimension whose points a Euclidean space makes plain. The
#: generated kernel grows by a few statements per coordinate while numpy's
#: three calls barely grow, so the two cost the same near d = 48 (timeit of
#: one `measurer` call, at each p of `PAIR_PS`); up to 16 the kernel takes at most
#: half the time. Larger d keep the arrays.
PAIR_MAX_D = 16


def _sum_order(terms: list[str]) -> str:
    """The source of an expression adding `terms` in numpy's pairwise order
    (see the module docstring)."""
    n = len(terms)
    if n < 8:
        return " + ".join(["0.0", *terms])
    if n <= 128:
        whole = n - n % 8
        r = ["(" + " + ".join(terms[j:whole:8]) + ")" for j in range(8)]
        lanes = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
        return " + ".join([f"({lanes})", *terms[whole:]])
    half = n // 2 - n // 2 % 8
    return f"({_sum_order(terms[:half])}) + ({_sum_order(terms[half:])})"


@functools.cache
def _pair_sum(d: int, p: float):
    """The kernel of the plain pair shape at dimension d: a function of two
    float tuples that returns the p-sum of their difference (the max of its
    absolute values at p = inf), unrolled into one expression so that no
    loop or numpy call runs per pair."""
    xs = [f"x{i}" for i in range(d)]
    if p == 2.0:
        body = _sum_order([f"{x} * {x}" for x in xs])
    elif p == 1.0:
        body = _sum_order([f"abs({x})" for x in xs])
    elif p == math.inf:  # max is exact, so its order does not matter
        body = "max(" + ", ".join(["0.0", *(f"abs({x})" for x in xs)]) + ")"
    else:
        raise ValueError(f"no pair kernel for p = {p}; see PAIR_PS")
    lines = [
        "def pair_sum(a, b):",
        "    " + "".join(f"a{i}, " for i in range(d)) + "= a",
        "    " + "".join(f"b{i}, " for i in range(d)) + "= b",
        *(f"    x{i} = a{i} - b{i}" for i in range(d)),
        f"    return {body}",
    ]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["pair_sum"]


def lp_norm(diff, p: float, other=None, kernel=None):
    """The Lp norm of `diff` along its last axis, one float per pair in every
    call shape: roots go through numpy's ufuncs, never scalar `**` (libm's
    `pow` can differ from numpy's `power` in the last bit), and `math.sqrt`
    is correctly rounded, as `np.sqrt` is. Given `other`, `diff` and
    `other` are two points as plain float tuples, p is one of `PAIR_PS`,
    and the norm is that of `diff - other`, summed by `kernel`, which is
    `_pair_sum` of their dimension and p, looked up here if not given."""
    if other is not None:
        total = (kernel or _pair_sum(len(other), p))(diff, other)
        return math.sqrt(total) if p == 2.0 else total
    if p == 2.0:
        total = np.add.reduce(diff * diff, axis=-1)
        return math.sqrt(total) if diff.ndim == 1 else np.sqrt(total)
    diff = np.abs(diff)
    if p == 1.0:
        return np.add.reduce(diff, axis=-1)
    if p == math.inf:
        return np.max(diff, axis=-1)
    return np.power(np.add.reduce(np.power(diff, p), axis=-1), 1.0 / p)


@dataclass
class CostSession:
    """Per-query accumulator of comparison evaluations.

    Spaces are shared and a search writes nothing to one; each search owns
    one of these, so no count is shared between concurrent queries.
    """

    distance_computations: int = 0

    def charge(self, n: int = 1) -> None:
        self.distance_computations += n


class ComparisonSpace:
    """A universe of points plus a comparison function over them.

    Points are addressed by integer refs. `compare` also accepts raw values
    (coordinate tuples / strings) in place of refs, which is how query
    centers that are not dataset members are handled.
    """

    kind: str = "abstract"
    symmetric: bool = True

    def __len__(self) -> int:
        raise NotImplementedError

    def value(self, ref: int):
        """Return the underlying universe element for a ref."""
        raise NotImplementedError

    def resolve(self, u):
        """What `_dist` and `_row` take for a ref or a raw value: the ref's
        `value`, or the raw value coerced (and checked) once. A negative
        ref is refused, where a sequence would read it from the end."""
        if isinstance(u, (int, np.integer)):
            if u < 0:
                raise IndexError(f"ref {u} is negative")
            return self.value(int(u))
        return self._coerce(u)

    def _coerce(self, raw):
        raise TypeError(f"{self.kind} space cannot compare raw value {raw!r}")

    def plain(self, a):
        """The resolved value `a` in the form `measurer` measures fastest:
        `a` itself here. A search keeps the plain values of its nodes
        itself, since it writes nothing to the space."""
        return a

    def _dist(self, a, b) -> float:
        """Uncounted delta(a, b) of two resolved values."""
        raise NotImplementedError

    def compare(self, u, v, session: CostSession | None = None) -> float:
        """delta(u, v); counts one comparison on the session."""
        d = self._dist(self.resolve(u), self.resolve(v))
        if session is not None:
            session.charge()
        return d

    def measurer(self, a):
        """The uncounted delta(a, .) of a resolved value made plain: a
        function of one value made plain, that gives the float `compare`
        and a `distances_from` row give. A search builds one from its
        centre and charges its session for each call itself."""
        return functools.partial(self._dist, a)

    def distances_from(self, u, refs, session: CostSession | None = None) -> np.ndarray:
        """Vector of delta(u, ref) for each ref, a negative one refused; counts len(refs) comparisons."""
        return self.measure_row(self.resolve(u), ref_array(refs), session)

    def measure_row(self, a, refs, session: CostSession | None = None) -> np.ndarray:
        """`distances_from` of a value already resolved; counts len(refs) comparisons."""
        out = self._row(a, refs)
        if session is not None:
            session.charge(len(out))
        return out

    def _row(self, a, refs) -> np.ndarray:
        """Uncounted delta(a, ref) for each ref, with `a` already resolved."""
        return np.array([self._dist(a, self.value(int(r))) for r in refs], dtype=float)

    def pairwise(self, refs_a, refs_b) -> np.ndarray:
        """Uncounted bulk distance block, for index construction."""
        return np.array([self._row(self.value(int(a)), refs_b) for a in refs_a], dtype=float)

    def paired(self, refs_a, refs_b) -> np.ndarray:
        """Uncounted delta(a_i, b_i) for each pair of equal-length ref
        arrays, the float `distances_from(a_i, [b_i])` gives, a negative
        ref refused; for index construction."""
        a, b = ref_array(refs_a), ref_array(refs_b)
        if a.shape != b.shape:
            raise ValueError("paired refs must have one shape")
        return self._paired(a, b)

    def _paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Uncounted delta(a_i, b_i) of two int64 ref arrays of one shape."""
        value = self.value
        return np.array([self._dist(value(x), value(y)) for x, y in zip(a.tolist(), b.tolist())], dtype=float)


def ref_array(refs) -> np.ndarray:
    """Refs as an int64 array, an int64 array taken as it is. A negative
    ref is refused, where numpy indexing would read it from the end."""
    refs = np.asarray(refs, dtype=np.int64)
    if refs.size and refs.min() < 0:
        raise IndexError(f"ref {refs.min()} is negative")
    return refs


#: Why a point with a NaN or infinite coordinate is refused.
NOT_FINITE = "a point's coordinates must be finite, not NaN or inf"


#: Why points are refused whose span has an infinite Lp norm.
SPAN_OVERFLOWS = "the points' coordinates span too far: a distance between two of them would overflow to inf"

#: Why a raw point is refused that lies too far from a space's points.
CENTRE_OVERFLOWS = "the point lies too far from the space's points: a distance to one would overflow to inf"


def _finite_points(points, p: float) -> tuple[np.ndarray, tuple[list, list] | None]:
    """A space's points as a read-only (n, d) copy in floats, a 1-d
    sequence read as n points of one coordinate, and their bounding box as
    two lists of floats (None for no points). A NaN or infinite coordinate
    is refused, as `_finite_point` refuses it in a raw value, and so are
    points whose span, the box's extent on each axis, has an infinite Lp
    norm: two of them would then be at an infinite distance, which no
    index can order or bound. No coordinate difference between two of
    them exceeds the span's, so every distance between them is finite."""
    pts = np.array(points, dtype=float)  # a copy: freezing it leaves the caller's array writable
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError("points must be an (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError(NOT_FINITE)
    pts.setflags(write=False)
    if not len(pts):
        return pts, None
    cols = pts.T.copy()  # a reduction along contiguous rows is several times faster
    low, high = cols.min(axis=1), cols.max(axis=1)
    with np.errstate(over="ignore"):
        if math.isinf(lp_norm(high - low, p)):
            raise ValueError(SPAN_OVERFLOWS)
    return pts, (low.tolist(), high.tolist())


def _finite_point(space, raw) -> np.ndarray:
    """A raw coordinate vector as a read-only copy in floats.

    A NaN or infinite coordinate makes every distance to the point NaN or
    inf, which no region bound can use, so such a point is refused, and so
    is a point whose distance to the farthest corner of the space's
    bounding box overflows to inf. That corner is as far as any of the
    space's points on every axis, so where its distance is finite, so is
    the distance to each of them. A point inside the box is no farther
    from any of them on any axis than the span, whose norm the space
    checked when it was made, and its coordinates are finite: the test of
    that is one comparison per coordinate in plain floats, and only a point
    outside the box is tested for finite coordinates and takes the corner's
    distance, through the space's uncounted `_dist`. A search resolves its
    centre once, so it checks it once.
    """
    a = np.array(raw, dtype=float)
    if a.shape != (space.dimension,):
        raise ValueError(f"expected a point of dimension {space.dimension}")
    a.setflags(write=False)
    coords, box = a.tolist(), space.box
    if box is not None and all(map(operator.le, box[0], coords)) and all(map(operator.le, coords, box[1])):
        return a  # a NaN or inf coordinate fails one of these comparisons
    if not all(map(math.isfinite, coords)):
        raise ValueError(NOT_FINITE)
    if box is not None:
        corner = [lo if x - lo >= hi - x else hi for x, lo, hi in zip(coords, *box)]
        with np.errstate(over="ignore"):
            if math.isinf(space._dist(a, np.array(corner))):
                raise ValueError(CENTRE_OVERFLOWS)
    return a


class EuclideanSpace(ComparisonSpace):
    """R^d under the Lp norm (default L2). Metric for p >= 1."""

    kind = "euclidean-lp"

    def __init__(self, points, p: float = 2.0):
        if not (p >= 1.0 or np.isinf(p)):
            raise ValueError("Lp comparison requires p >= 1")
        pts, self.box = _finite_points(points, float(p))
        self.points = pts
        self.p = float(p)
        # the pair kernel, looked up once, where `plain` makes points float tuples
        self._pair = _pair_sum(pts.shape[1], self.p) if self.p in PAIR_PS and pts.shape[1] <= PAIR_MAX_D else None

    def __len__(self) -> int:
        return self.points.shape[0]

    def __reduce__(self):
        # the pair kernel is generated code, which pickle cannot name: rebuild it
        return type(self), (self.points, self.p)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def value(self, ref: int):
        return self.points[ref]

    def _coerce(self, raw):
        return _finite_point(self, raw)

    def plain(self, a):
        """A point as a tuple of floats, which `_dist` measures with one
        generated expression, where p is one of `PAIR_PS` and the dimension
        at most `PAIR_MAX_D`; else the array."""
        return tuple(a.tolist()) if self._pair is not None else a

    def _dist(self, a, b) -> float:
        return float(lp_norm(a - b, self.p))

    def measurer(self, a):
        if self._pair is not None and type(a) is tuple:  # made plain, see `plain`: the pair kernel
            p, kernel = self.p, self._pair
            return lambda b: lp_norm(a, p, b, kernel)
        return super().measurer(a)

    def _row(self, a, refs) -> np.ndarray:
        return lp_norm(self.points[np.asarray(refs, dtype=int)] - a, self.p)

    def pairwise(self, refs_a, refs_b) -> np.ndarray:
        a = self.points[np.asarray(refs_a, dtype=int)]
        b = self.points[np.asarray(refs_b, dtype=int)]
        return lp_norm(a[:, None, :] - b[None, :, :], self.p)

    def _paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return lp_norm(self.points[b] - self.points[a], self.p)


class ProjectionSpace(ComparisonSpace):
    """Coordinate projection: delta(axis_i, u) = u_i.

    Provides one pseudo-focus per dimension (refs n..n+d-1 for n data
    points), so polytopes in the indexed space itself can be expressed as
    linear regions. Between two data points the comparison falls back to
    L2 so that ball queries keep their usual meaning.
    """

    kind = "coordinate-projection"

    def __init__(self, points):
        self.points, self.box = _finite_points(points, 2.0)  # L2 between two points

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def axis_ref(self, i: int) -> int:
        if not 0 <= i < self.dimension:
            raise IndexError(f"axis {i} out of range")
        return self.points.shape[0] + i

    def value(self, ref: int):
        n = self.points.shape[0]
        if ref < n:
            return self.points[ref]
        axis = ref - n
        if axis >= self.dimension:
            raise IndexError(f"ref {ref} out of range")
        return ("axis", axis)

    def _coerce(self, raw):
        return _finite_point(self, raw)

    def _dist(self, a, b) -> float:
        a_axis = isinstance(a, tuple) and a[0] == "axis"
        b_axis = isinstance(b, tuple) and b[0] == "axis"
        if a_axis and b_axis:
            if a[1] == b[1]:
                return 0.0
            raise ValueError("two distinct axis pseudo-foci are incomparable")
        if a_axis:
            return float(b[a[1]])
        if b_axis:
            return float(a[b[1]])
        return float(lp_norm(a - b, 2.0))


class MatrixSpace(ComparisonSpace):
    """Comparison given by an explicit n x n matrix over abstract ids."""

    kind = "explicit-matrix"

    def __init__(self, matrix, symmetric: bool | None = None):
        m = np.array(matrix, dtype=float)  # a copy: freezing it leaves the caller's array writable
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if np.any(np.diag(m) != 0.0):
            raise ValueError("matrix diagonal must be zero")
        if not np.all((m >= 0.0) & (m < np.inf)):  # NaN fails both, which would also read as asymmetric
            raise ValueError("matrix entries must be non-negative and not NaN or inf")
        detected = bool(np.array_equal(m, m.T))
        if symmetric is None:
            symmetric = detected
        elif symmetric and not detected:
            raise ValueError("matrix declared symmetric but is not equal to its transpose")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.symmetric = symmetric

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def value(self, ref: int):
        if not 0 <= ref < len(self):
            raise IndexError(f"ref {ref} out of range")
        return ref

    def _coerce(self, raw):
        raise TypeError("explicit-matrix spaces only compare point refs")

    def _dist(self, a, b) -> float:
        return float(self.matrix[a, b])

    def _row(self, a, refs) -> np.ndarray:
        return self.matrix[a, np.asarray(refs, dtype=int)].astype(float)

    def pairwise(self, refs_a, refs_b) -> np.ndarray:
        return self.matrix[np.ix_(np.asarray(refs_a, int), np.asarray(refs_b, int))].astype(float)

    def _paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.matrix[a, b]


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute), O(len(a)*len(b))."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class StringSpace(ComparisonSpace):
    """Strings under Levenshtein distance; metric by construction."""

    kind = "levenshtein-strings"

    def __init__(self, strings):
        self.strings = tuple(str(s) for s in strings)

    def __len__(self) -> int:
        return len(self.strings)

    def value(self, ref: int):
        return self.strings[ref]

    def _coerce(self, raw):
        if not isinstance(raw, str):
            raise TypeError("string spaces only compare strings")
        return raw

    def _dist(self, a, b) -> float:
        return float(levenshtein(a, b))


@dataclass(frozen=True)
class FeatureVector:
    """Forward (and, for asymmetric spaces, backward) focal comparisons."""

    values: tuple[float, ...]
    backward: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def feature_map(space: ComparisonSpace, foci, u) -> FeatureVector:
    """Map a point to its comparisons with the given foci, uncounted.

    The backward tuple is filled only for asymmetric spaces, where
    delta(u, p) need not equal delta(p, u).
    """
    foci = tuple(foci)
    if not foci:
        raise ValueError("feature_map needs at least one focus")
    values = tuple(space.compare(p, u) for p in foci)
    backward = None
    if not space.symmetric:
        backward = tuple(space.compare(u, p) for p in foci)
    return FeatureVector(values=values, backward=backward)


# --- queries and workloads -------------------------------------------------


@dataclass(frozen=True)
class Ball:
    """All points within `radius` of `center`; `k` turns it into a kNN query."""

    center: object
    radius: float = 0.0
    k: int | None = None

    def __post_init__(self):
        if self.k is None and not self.radius >= 0:  # NaN fails this too
            raise ValueError("ball radius must be non-negative")
        if self.k is not None:
            # a bool is an int, and a float k would never fill the k nearest
            if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
                raise TypeError(f"k must be an integer, not {self.k!r}")
            if self.k < 1:
                raise ValueError("k must be a positive integer")
            object.__setattr__(self, "k", int(self.k))
        if isinstance(self.center, np.ndarray):
            object.__setattr__(self, "center", tuple(float(c) for c in self.center))


@dataclass(frozen=True)
class AmbitQuery:
    """A weighted-focal query: points whose combined remoteness is <= radius."""

    foci: tuple[int, ...]
    weights: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "foci", tuple(int(f) for f in self.foci))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights or len(self.weights) != len(self.foci):
            raise ValueError("need one weight per focus, at least one focus")
        if not any(self.weights):
            raise ValueError("ambit query weights must not all be zero")


@dataclass(frozen=True)
class ExplicitSetQuery:
    """A query given extensionally by node ids."""

    ids: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "ids", frozenset(int(i) for i in self.ids))


Query = Ball | AmbitQuery | ExplicitSetQuery


@dataclass
class Workload:
    queries: tuple
    atomistic: bool = False

    def __post_init__(self):
        self.queries = tuple(self.queries)


# --- gadget and verification helpers ---------------------------------------


def build_hardness_gadget(adjacency, epsilon: float) -> tuple[MatrixSpace, int]:
    """Build the focus-selection test metric from a simple undirected graph.

    Distances over V plus one extra query point q: 0 on the diagonal, 2
    across graph edges, 3 across non-edges, 3+epsilon to q. Returns the
    space and the ref of q (the last point). The metric axioms are checked
    before returning.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    n = len(adjacency)
    adj = [set(int(v) for v in row) for row in adjacency]
    for u, row in enumerate(adj):
        if u in row:
            raise ValueError("graph must be simple (no self-loops)")
        for v in row:
            if not 0 <= v < n:
                raise IndexError(f"adjacency refers to unknown node {v}")
            if u not in adj[v]:
                raise ValueError("graph must be undirected (symmetric adjacency)")
    m = np.full((n + 1, n + 1), 3.0)
    for u in range(n):
        for v in range(n):
            if u == v:
                m[u, v] = 0.0
            elif v in adj[u]:
                m[u, v] = 2.0
    m[n, :] = 3.0 + epsilon
    m[:, n] = 3.0 + epsilon
    m[n, n] = 0.0
    space = MatrixSpace(m, symmetric=True)
    ok, witness = check_triangle(space, exhaustive_limit=max(n + 1, 12))
    if not ok:  # cannot happen: off-diagonal entries lie in [2, 3+eps], eps <= 1
        raise AssertionError(f"gadget metric violates the triangle inequality at {witness}")
    return space, n


def check_triangle(space: ComparisonSpace, exhaustive_limit: int = 12):
    """Test delta(u,w) <= delta(u,v) + delta(v,w) + TOL on triples.

    Exhaustive when the space has at most `exhaustive_limit` points,
    otherwise on 10,000 triples drawn with seed 0. Returns (ok, witness)
    where witness is a violating (u, v, w) triple or None.
    """
    n = len(space)
    if n < 3:
        return True, None
    if n <= exhaustive_limit:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = np.random.default_rng(0)
        triples = (tuple(int(x) for x in rng.integers(0, n, size=3)) for _ in range(10_000))
    for u, v, w in triples:
        if space.compare(u, w) > space.compare(u, v) + space.compare(v, w) + TOL:
            return False, (u, v, w)
    return True, None
