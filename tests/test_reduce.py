"""The verification lab's column paths against their per-row oracles,
`reduce_rows` and `check_rows` of conftest.py, under the derandomised
profile there.

`reduce_to_signed` runs a ball whose radius is a fan bound, exactly or
1e-9 either side, about a data point, a dyadic point or any point, so
that a row's verdict sits on its slack boundary. `check_responsibility`
runs the sprawl's own assignment and that assignment with one member
added to or dropped from one logical edge. The sprawls come from the four
classic builders and from shuffled multi-fan trees: a random tree whose
ball rows are shuffled, so one source's rows fall into several fans, with
sphere and shell fans, some lazy, beside it.

Each fan row's verdict, as a search and a reduction take it through
`_QueryEval.missed`, is checked against `row_missed` of conftest.py, the
row's own region through `_QueryEval.intersects`, for every query kind:
balls and `AmbitQuery`s of either sign whose radius is a point's exact
distance or remoteness or 1 ulp either side, and `ExplicitSetQuery`s,
over L1, L2 and L-infinity points and asymmetric matrices.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sprawl.comparison import TOL, AmbitQuery, Ball, EuclideanSpace, ExplicitSetQuery, Workload
from sprawl.engine import (
    Edge,
    ResponsibilityAssignment,
    Sprawl,
    _QueryEval,
    build_classic,
    check_responsibility,
    reduce_to_signed,
)

from conftest import DYADIC, check_rows, make_fans, point_sets, random_quasimetric, reduce_rows, row_missed

KINDS = ("ball-tree", "aesa", "laesa", "pm-tree", "shuffled")


def shuffled_tree(draw, space, n: int):
    """A tree hung from node 0, its ball rows (each the radius that covers
    the child's subtree) in shuffled order, and a sphere or shell fan, lazy
    or eager, from a few nodes to a few others; with the tree's
    responsibilities, each row's the subtree of its target."""
    parent = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    below = [[v] for v in range(n)]
    for v in range(n - 1, 0, -1):
        below[parent[v]] += below[v]
    rows = [(parent[v], v, float(space.distances_from(parent[v], below[v]).max())) for v in range(1, n)]
    rows = [rows[i] for i in draw(st.permutations(range(n - 1)))]
    groups = []
    for u in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        targets = draw(st.lists(st.integers(0, n - 1).filter(lambda t: t != u), min_size=1, max_size=n))
        d = space.distances_from(u, targets)
        widen = draw(st.sampled_from([0.0, 0.125]))
        lo = d if not widen else np.maximum(d - widen, 0.0)
        groups.append((u, targets, lo, d + widen if widen else lo, draw(st.booleans())))
    res = {0: tuple(below[0])}
    res.update({1 + j: tuple(below[t]) for j, (_, t, _) in enumerate(rows)})
    return Sprawl(space, range(n), [Edge((), 0)], make_fans(rows, groups)), ResponsibilityAssignment(res)


@st.composite
def lab_cases(draw):
    """A sprawl with fans, its responsibility assignment, and a ball whose
    radius is one fan row's bound, exactly or 1e-9 either side."""
    pts = draw(point_sets())
    n, dims = pts.shape
    space = EuclideanSpace(pts)
    kind = draw(st.sampled_from(KINDS))
    if kind == "shuffled":
        sprawl, res = shuffled_tree(draw, space, n)
    else:
        params = {"arity": draw(st.integers(2, 3)), "pivots": min(3, n - 2)}  # a pm-tree keeps a fan
        sprawl, res = build_classic(space, range(n), kind, **params)
    fans = sprawl.fans
    j = draw(st.integers(0, len(fans) - 1))
    bound = float(draw(st.sampled_from([fans.lo[j], fans.hi[j]])))
    radius = max(0.0, bound + draw(st.sampled_from([0.0, 1e-9, -1e-9])))
    center = draw(
        st.one_of(
            st.integers(0, n - 1).map(lambda i: tuple(pts[i])),
            st.lists(DYADIC, min_size=dims, max_size=dims).map(tuple),
            st.lists(st.floats(0.0, 1.0), min_size=dims, max_size=dims).map(tuple),
        )
    )
    return sprawl, res, Ball(center, radius)


@given(lab_cases())
def test_reduce_to_signed_matches_the_per_row_oracle(case):
    sprawl, _, query = case
    assert reduce_to_signed(sprawl, query).edges == reduce_rows(sprawl, query).edges


@given(lab_cases(), st.data())
def test_check_responsibility_matches_the_per_row_oracle(case, data):
    sprawl, res, _ = case
    n, logical = len(sprawl.nodes), len(sprawl.edges) + len(sprawl.fans)
    workload = Workload(tuple(ExplicitSetQuery(frozenset({v})) for v in sprawl.nodes), atomistic=True)
    added = {k: set(res.get(k)) for k in res.members}
    added.setdefault(data.draw(st.integers(0, logical - 1)), set()).add(data.draw(st.integers(0, n - 1)))
    dropped = {k: set(res.get(k)) for k in res.members}
    key = data.draw(st.sampled_from(sorted(k for k, vs in dropped.items() if vs)))
    dropped[key].discard(data.draw(st.sampled_from(sorted(dropped[key]))))
    for owned in (res, ResponsibilityAssignment(added), ResponsibilityAssignment(dropped)):
        got, want = check_responsibility(sprawl, owned, workload), check_rows(sprawl, owned, workload)
        assert (got.passed, got.violations) == (want.passed, want.violations)


def test_reduce_to_signed_matches_the_oracle_at_small_distances():
    # an AESA over 12 uniform points scaled by 1e-8, where TOL is a tenth of
    # a distance: balls about a random point whose radius puts a shell row on
    # the cut, `shell_bounds` = `bound_cutoff(radius)`, and 1 ulp to each side
    rng = np.random.default_rng(3)
    space = EuclideanSpace(rng.random((12, 8)) * 1e-8)
    sprawl, _ = build_classic(space, range(12), "aesa")
    fans, center = sprawl.fans, tuple(rng.random(8) * 1e-8)
    z = space.measure_row(space.resolve(center), np.repeat(fans.source, np.diff(fans.start)))
    cuts = np.concatenate([z - fans.hi, fans.lo - z]) - TOL  # the radii whose cutoff is a row's shell bound
    radii = [r for b in cuts if b > 0.0 for r in (b, *np.nextafter(b, [0.0, 1.0]))]
    assert len(radii) > 200
    for radius in radii:
        query = Ball(center, float(radius))
        assert reduce_to_signed(sprawl, query).edges == reduce_rows(sprawl, query).edges


@st.composite
def row_cases(draw):
    """A sprawl with fans, over L1, L2 or L-infinity points (a classic
    kind or a shuffled tree) or over an asymmetric `MatrixSpace` (a
    shuffled tree), and a query: a ball (symmetric spaces only) or an
    `AmbitQuery` of 1-2 foci and weights of either sign, whose radius is a
    point's exact distance or remoteness or 1 ulp either side (or, for an
    `AmbitQuery`, any radius in [-16, 8]), or an `ExplicitSetQuery` that is
    empty, a singleton or any subset."""
    pts = draw(point_sets(most=12))
    n = len(pts)
    p = draw(st.sampled_from((1.0, 2.0, np.inf, None, None)))  # None: an asymmetric matrix
    if p is None:
        space = random_quasimetric(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
        kind = "shuffled"
    else:
        space, kind = EuclideanSpace(pts, p=p), draw(st.sampled_from(KINDS))
    if kind == "shuffled":
        sprawl, _ = shuffled_tree(draw, space, n)
    else:
        sprawl, _ = build_classic(space, range(n), kind, arity=draw(st.integers(2, 3)), pivots=min(3, n - 2))
    ref = st.integers(0, n - 1)
    query = draw(st.sampled_from(("ball", "ambit", "set") if p else ("ambit", "set")))
    if query == "set":
        return sprawl, ExplicitSetQuery(draw(st.one_of(st.just(set()), ref.map(lambda v: {v}), st.sets(ref))))
    nudge = draw(st.sampled_from((0.0, -np.inf, np.inf)))  # onto the point, or 1 ulp below or above
    v = draw(ref)

    def at(x: float) -> float:
        return float(np.nextafter(x, nudge)) if nudge else x

    if query == "ball":
        centre = draw(ref)
        return sprawl, Ball(centre, max(0.0, at(space.compare(centre, v))))
    foci = draw(st.lists(ref, min_size=1, max_size=2))
    weights = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0]), min_size=len(foci), max_size=len(foci)))
    # v's remoteness in the query region's own arithmetic, over delta(v, f)
    remote = sum(w * space.compare(v, f) for w, f in zip(weights, foci))
    return sprawl, AmbitQuery(foci, weights, draw(st.one_of(st.just(at(remote)), st.floats(-16.0, 8.0))))


@given(row_cases())
def test_fan_row_verdicts_match_the_per_row_oracle(case):
    # every fan's rows in one verdict, as a search fires them and a
    # reduction reads them, and each shell row alone, as a lazy row is
    # refused: each verdict is the row region's own through `intersects`
    sprawl, query = case
    fans, want = sprawl.fans, row_missed(sprawl, query)
    lo = np.where(np.arange(len(fans)) < fans.found_rows, -np.inf, fans.lo)  # a ball row is the shell from -inf
    ev, start = _QueryEval(sprawl.space, query), fans.start.tolist()
    for f, u in enumerate(fans.source.tolist()):
        rows = slice(start[f], start[f + 1])
        assert ev.missed(u, lo[rows], fans.hi[rows]).tolist() == want[rows].tolist()
    source = np.repeat(fans.source, np.diff(fans.start)).tolist()
    for j in range(fans.found_rows, len(fans)):
        assert bool(ev.missed(source[j], float(fans.lo[j]), float(fans.hi[j]))) == want[j]
    assert reduce_to_signed(sprawl, query).edges == reduce_rows(sprawl, query).edges
