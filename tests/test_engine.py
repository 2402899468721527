import warnings

import numpy as np
import pytest

from sprawl.ambit import Ambit, LinearMap, table1_region
from sprawl.comparison import (
    AmbitQuery,
    Ball,
    EuclideanSpace,
    ExplicitSetQuery,
    MatrixSpace,
    ProjectionSpace,
    Workload,
)
from sprawl.engine import (
    EMPTY,
    UNIVERSE,
    Edge,
    ExplicitRegion,
    Fans,
    ResponsibilityAssignment,
    Sprawl,
    brute_force_sprawl,
    build_classic,
    build_dnf_gadget,
    check_correct_small,
    check_responsibility,
    emulate_from_traces,
    is_tautology,
    linear_scan,
    parse_dnf,
    random_small_sprawl,
    reduce_to_signed,
    search,
    sprawl_trace_oracle,
)
from sprawl.errors import CapabilityError, EmulationError, SizeLimitError, StructureError
from sprawl.hypergraph import Heuristic, enumerate_repertoire, traverse

from conftest import ball_rows, make_fans, membership, shell_groups


def root_targets(sprawl):
    """Targets of the sprawl's root edges, in edge order."""
    return tuple(e.target for e in sprawl.edges if e.is_root_edge)


def toy_space(n=6, dims=2, seed=0):
    return EuclideanSpace(np.random.default_rng(seed).random((n, dims)))


# --- reduction ------------------------------------------------------------------


def test_reduce_universe_edge_positive():
    space = toy_space()
    s = Sprawl(space, range(3), [Edge((), 0), Edge((0,), 1, (UNIVERSE,), ())])
    g = reduce_to_signed(s, Ball((0.5, 0.5), 0.1))
    assert any(e.sign > 0 and e.target == 1 for e in g.edges)


def test_reduce_unconditional_negative():
    space = toy_space()
    s = Sprawl(space, range(2), [Edge((), 0), Edge((0,), 1, (), (EMPTY,))])
    for q in (Ball((0.5, 0.5), 10.0), ExplicitSetQuery(frozenset({0, 1}))):
        g = reduce_to_signed(s, q)
        assert any(e.sign < 0 and e.target == 1 for e in g.edges)


def test_reduce_multi_region_labels():
    # the general form: discovery needs *every* positive region hit,
    # elimination fires as soon as *some* negative region is missed
    space = EuclideanSpace([[0.0, 0.0], [4.0, 0.0], [2.0, 0.0]])
    ball_a = Ambit((0,), LinearMap([[1.0]]), (1.0,))
    ball_b = Ambit((0,), LinearMap([[1.0]]), (3.0,))
    s = Sprawl(space, range(3), [Edge((), 0), Edge((0,), 2, (ball_a, ball_b), ())])
    hits_both = Ball((0.5, 0.0), 0.6)
    hits_one = Ball((2.0, 0.0), 0.2)  # meets ball_b only
    assert any(e.sign > 0 and e.target == 2 for e in reduce_to_signed(s, hits_both).edges)
    assert not any(e.target == 2 for e in reduce_to_signed(s, hits_one).edges)

    neg = Sprawl(space, range(3), [Edge((), 0), Edge((0,), 2, (EMPTY,), (ball_a, ball_b))])
    assert any(e.sign < 0 for e in reduce_to_signed(neg, hits_one).edges)
    assert not any(e.sign < 0 for e in reduce_to_signed(neg, hits_both).edges)


def test_reduce_shell_protects_target():
    # pivot-filter edge: target at distance z from source; ball with
    # s >= |z - r| must not turn the edge negative
    space = EuclideanSpace([[0.0, 0.0], [3.0, 0.0]])
    shell = table1_region("sphere", (0,), r=3.0)
    s = Sprawl(space, range(2), [Edge((), 0), Edge((), 1), Edge((0,), 1, (EMPTY,), (shell,))])
    near = Ball((5.0, 0.0), 2.1)  # z = 5, |z - r| = 2
    far = Ball((5.0, 0.0), 1.9)
    g_near = reduce_to_signed(s, near)
    g_far = reduce_to_signed(s, far)
    assert not any(e.sign < 0 for e in g_near.edges)
    assert any(e.sign < 0 and e.target == 1 for e in g_far.edges)


# --- basic search ------------------------------------------------------------------


def test_brute_force_exact_and_counts(rng):
    space = EuclideanSpace(rng.random((50, 3)))
    s = brute_force_sprawl(space, range(50))
    q = Ball(tuple(rng.random(3)), 0.4)
    got = search(s, q)
    assert got.members == tuple(sorted(linear_scan(space, range(50), q)))
    assert got.distance_computations == 50
    assert got.traversed == 50


def test_explicit_set_query():
    space = toy_space(5)
    s = brute_force_sprawl(space, range(5))
    got = search(s, ExplicitSetQuery(frozenset({1, 3})))
    assert got.members == (1, 3)


def test_explicit_set_query_meets_a_region_on_its_facet():
    # point 2 lies on the region's facet, which rounds against it, so
    # membership at zero slack misses it; the overlap check of an explicit
    # set has the slack of every other overlap check and must not
    space = EuclideanSpace([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]])
    linear = LinearMap([[0.6, 0.4]])
    x = np.array([space.compare(0, 2), space.compare(1, 2)])
    region = Ambit((0, 1), linear, (np.nextafter(float(linear.remoteness(x)[0]), -np.inf),))
    assert not membership(space, region, 2)
    s = Sprawl(space, range(3), [Edge((), 0), Edge((), 1), Edge((0, 1), 2, positive=(region,))])
    q = ExplicitSetQuery(frozenset({2}))
    got = search(s, q)
    assert got.members == linear_scan(space, range(3), q) == (2,)
    assert got.distance_computations == 2  # the radients of 2, charged to the search


def test_ambit_query_membership(rng):
    space = EuclideanSpace(rng.random((30, 2)))
    s = brute_force_sprawl(space, range(30))
    q = AmbitQuery((0, 1), (0.6, 0.4), 0.5)
    got = search(s, q)
    want = linear_scan(space, range(30), q)
    assert got.members == tuple(sorted(want))


def test_radius_zero_returns_duplicates():
    space = EuclideanSpace([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    s = brute_force_sprawl(space, range(3))
    got = search(s, Ball((0.0, 0.0), 0.0))
    assert got.members == (0, 2)


# --- classic builders ----------------------------------------------------------------


@pytest.mark.parametrize("kind,params", [
    ("ball-tree", {}),
    ("aesa", {}),
    ("laesa", {"pivots": 4}),
    ("pm-tree", {"pivots": 3}),
])
def test_builders_exact_on_ball_queries(rng, kind, params):
    space = EuclideanSpace(rng.random((120, 4)))
    sprawl, res = build_classic(space, range(120), kind, **params)
    for _ in range(25):
        center = rng.random(4)
        radius = float(rng.random() * 0.4)
        q = Ball(center, radius)
        got = search(sprawl, q)
        assert set(got.members) == set(linear_scan(space, range(120), q))


def test_ball_tree_prunes(rng):
    space = EuclideanSpace(rng.random((300, 2)))
    sprawl, _ = build_classic(space, range(300), "ball-tree")
    q = Ball((0.1, 0.1), 0.05)
    got = search(sprawl, q)
    assert set(got.members) == set(linear_scan(space, range(300), q))
    assert got.distance_computations < 300


def test_aesa_three_points_has_six_shell_edges(rng):
    space = EuclideanSpace(rng.random((3, 2)))
    sprawl, res = build_classic(space, range(3), "aesa")
    logical = list(sprawl.iter_logical_edges())
    shell_edges = [e for _, e in logical if e.negative]
    assert len(shell_edges) == 6  # complete directed graph
    for e in shell_edges:
        assert e.positive == (EMPTY,)
        d = space.compare(e.sources[0], e.target)
        region = e.negative[0]
        assert region.radii == (d, -d)


def test_shell_rows_share_one_map_and_reduce_as_before(rng):
    # every shell row's region reads one immutable map; a twin whose rows
    # are explicit edges, each with a map of its own, reduces to the same
    # signed graph for every query
    space = EuclideanSpace(rng.random((12, 2)))
    sprawl, _ = build_classic(space, range(12), "laesa", pivots=3)
    rows = [e for _, e in sprawl.iter_logical_edges()][len(sprawl.edges) :]
    assert len(rows) == 27 and len({id(e.negative[0].map) for e in rows}) == 1
    assert table1_region("sphere", (0,), r=0.5).map is rows[0].negative[0].map
    own = [
        Edge(e.sources, e.target, e.positive, (Ambit(e.sources, LinearMap([[1.0], [-1.0]]), e.negative[0].radii),))
        for e in rows
    ]
    twin = Sprawl(space, sprawl.nodes, sprawl.edges + tuple(own))
    for q in [Ball(tuple(rng.random(2)), float(rng.random() * 0.5)) for _ in range(5)] + [Ball((0.5, 0.5), 0.0, k=3)]:
        assert reduce_to_signed(sprawl, q).edges == reduce_to_signed(twin, q).edges


def test_sprawls_without_fans_share_one_empty_store():
    space = toy_space(4)
    a, b = Sprawl(space, range(4), [Edge((), 0)]), Sprawl(space, range(4), [])
    assert a.fans is b.fans and len(a.fans) == 0 and not a.fans.start.flags.writeable


def test_aesa_filters_hard(rng):
    space = EuclideanSpace(rng.random((200, 2)))
    sprawl, _ = build_classic(space, range(200), "aesa")
    q = Ball((0.5, 0.5), 0.05)
    got = search(sprawl, q)
    assert set(got.members) == set(linear_scan(space, range(200), q))
    assert got.distance_computations < 100


def test_laesa_structure(rng):
    space = EuclideanSpace(rng.random((40, 2)))
    sprawl, _ = build_classic(space, range(40), "laesa", pivots=5)
    assert len(root_targets(sprawl)) == 40  # everyone unconditionally discovered
    groups = shell_groups(sprawl.fans)
    assert len(groups) == 5 and sprawl.fans.found == 0
    assert all(not lazy for *_, lazy in groups)
    assert all(len(targets) == 35 for _, targets, *_ in groups)


def test_pm_tree_lazy_groups(rng):
    space = EuclideanSpace(rng.random((60, 2)))
    sprawl, _ = build_classic(space, range(60), "pm-tree", pivots=4)
    groups = shell_groups(sprawl.fans)
    assert len(groups) == 4
    assert all(lazy for *_, lazy in groups)


@pytest.mark.parametrize("kind", ["ball-tree", "pm-tree"])
@pytest.mark.parametrize("arity", [1, 0, -3])
def test_trees_refuse_arity_below_two(rng, kind, arity):
    # an arity below 2 used to give pm-tree one flat fan instead of a tree
    space = EuclideanSpace(rng.random((30, 2)))
    with pytest.raises(ValueError, match="arity must be at least 2"):
        build_classic(space, range(30), kind, arity=arity, pivots=4)


def test_sorted_interval_tree_on_1_to_7():
    space = ProjectionSpace([[float(v)] for v in range(1, 8)])
    sprawl, res = build_classic(space, range(7), "sorted-interval-tree")
    assert root_targets(sprawl) == (3,)  # the median key 4 sits at ref 3
    axis = space.axis_ref(0)
    for i, e in enumerate(sprawl.edges):
        if e.is_root_edge:
            continue
        assert 1 <= len(e.sources) <= 2
        region = e.positive[0]
        assert region.foci == (axis,)
        # interval delimited by the source keys
        values = sorted(float(space.points[s, 0]) for s in e.sources)
        for v in res.get(i):
            assert values[0] - 1e-9 <= space.points[v, 0] <= values[-1] + 1e-9 or len(e.sources) == 1
    for center in (0.2, 3.0, 4.5, 7.9):
        q = Ball((center,), 1.3)
        got = search(sprawl, q)
        assert set(got.members) == set(linear_scan(space, range(7), q))


def test_sorted_interval_tree_requires_projection(rng):
    with pytest.raises(ValueError):
        build_classic(toy_space(), range(6), "sorted-interval-tree")


def test_aesa_over_one_point():
    sprawl, _ = build_classic(toy_space(1), [0], "aesa")
    assert search(sprawl, Ball((0.0, 0.0), 0.0, k=2)).members == (0,)


def test_builder_validates():
    with pytest.raises(ValueError):
        build_classic(toy_space(), [], "ball-tree")
    with pytest.raises(ValueError):
        build_classic(toy_space(4), range(4), "laesa", pivots=9)
    for m in (0, -3):
        with pytest.raises(ValueError, match="pivot count out of range"):
            build_classic(toy_space(6), range(6), "pm-tree", pivots=m)
    with pytest.raises(ValueError):
        build_classic(toy_space(4), range(4), "nonsense")


# --- kNN -------------------------------------------------------------------------------


def test_knn_k1_true_nearest(rng):
    space = EuclideanSpace(rng.random((150, 3)))
    for kind in ("ball-tree", "aesa"):
        sprawl, _ = build_classic(space, range(150), kind)
        for _ in range(10):
            center = rng.random(3)
            got = search(sprawl, Ball(center, 0.0, k=1))
            want = linear_scan(space, range(150), Ball(center, 0.0, k=1))
            assert got.members == want


def test_knn_k10_matches_scan(rng):
    space = EuclideanSpace(rng.random((200, 4)))
    sprawl, _ = build_classic(space, range(200), "ball-tree")
    for _ in range(10):
        center = rng.random(4)
        got = search(sprawl, Ball(center, 0.0, k=10))
        want = linear_scan(space, range(200), Ball(center, 0.0, k=10))
        assert got.members == want


def test_knn_ties_break_by_node_id():
    pts = [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]
    space = EuclideanSpace(pts)
    sprawl, _ = build_classic(space, range(5), "ball-tree")
    got = search(sprawl, Ball((0.0, 0.0), 0.0, k=3))
    assert got.members == (0, 1, 2)


def test_knn_k_larger_than_dataset(rng):
    space = toy_space(4)
    sprawl, _ = build_classic(space, range(4), "ball-tree")
    got = search(sprawl, Ball((0.0, 0.0), 0.0, k=10))
    assert len(got.members) == 4


def test_knn_on_lazy_and_pivot_indexes(rng):
    g = np.arange(5) / 4
    grid = np.array([(x, y, 0.5) for x in g for y in g])  # distances tie exactly
    inputs = [rng.random((120, 3)), np.repeat(rng.random((12, 3)), 3, axis=0), grid]
    for pts in inputs:
        space = EuclideanSpace(pts)
        n = len(pts)
        centers = [tuple(rng.random(3)), (0.375, 0.375, 0.5), tuple(pts[1])]
        for kind, params in (("aesa", {}), ("laesa", {"pivots": 4}), ("pm-tree", {"pivots": 4})):
            sprawl, _ = build_classic(space, range(n), kind, **params)
            for c in centers:
                for k in range(1, n + 3):
                    q = Ball(c, 0.0, k=k)
                    assert search(sprawl, q).members == linear_scan(space, range(n), q), (kind, k)


def test_pivot_knn_selects_by_shell_bounds():
    # AESA and LAESA take the candidate with the smallest pivot lower bound
    # and drop every candidate whose bound exceeds the k-th distance; in
    # FIFO order AESA computes about 250 distances here and LAESA all 2,000
    rng = np.random.default_rng(1)
    for kind, n, params, most in (("aesa", 500, {}, 150), ("laesa", 2000, {"pivots": 8}, 1000)):
        space = EuclideanSpace(rng.random((n, 8)))
        sprawl, _ = build_classic(space, range(n), kind, **params)
        counts = []
        for _ in range(20):
            q = Ball(tuple(rng.random(8)), 0.0, k=10)
            got = search(sprawl, q)
            assert got.members == linear_scan(space, range(n), q)
            counts.append(got.distance_computations)
        assert np.mean(counts) < most, (kind, np.mean(counts))


def test_dense_selection_only_where_every_node_is_a_seed(rng):
    # only a sprawl whose nodes are all seeds and whose eager edges are all
    # shell groups (AESA, LAESA) gets a dense plan. Eager shell groups over
    # a tree, whose nodes are discovered after the seeds, keep the heap:
    # shells that never give a positive bound leave the tree's order, and
    # the pm-tree's shells made eager still give the exact answer.
    for _ in range(12):
        n = int(rng.integers(5, 60))
        pts = np.round(rng.random((n, 2)) * 4) / 4  # duplicates and exact ties
        space = EuclideanSpace(pts)
        tree, _ = build_classic(space, range(n), "ball-tree")
        wide = [
            (v, [u for u in range(n) if u != v], np.zeros(n - 1), np.full(n - 1, 1e9))
            for v in range(0, n, 3)
        ]
        inert = Sprawl(space, tree.nodes, tree.edges, make_fans(zip(*ball_rows(tree.fans)), wide))
        pm, _ = build_classic(space, range(n), "pm-tree", pivots=3)
        eager = [(u, t, lo, hi) for u, t, lo, hi, _ in shell_groups(pm.fans)]
        pm_eager = Sprawl(space, pm.nodes, pm.edges, make_fans(zip(*ball_rows(pm.fans)), eager))
        assert inert._plan()[0].positions is None and pm_eager._plan()[0].positions is None
        for kind in ("aesa", "laesa"):
            assert build_classic(space, range(n), kind, pivots=3)[0]._plan()[0].positions is not None
        for k in range(1, n + 3):
            q = Ball(tuple(rng.random(2) * 1.2), 0.0, k=k)
            assert search(inert, q).order == search(tree, q).order
            assert search(pm_eager, q).members == linear_scan(space, range(n), q)


def test_knn_on_interval_tree(rng):
    values = np.sort(rng.random(60) * 5.0).reshape(-1, 1)
    space = ProjectionSpace(values)
    sprawl, _ = build_classic(space, range(60), "sorted-interval-tree")
    for _ in range(10):
        q = Ball((float(rng.random() * 6.0),), 0.0, k=int(rng.integers(1, 6)))
        assert search(sprawl, q).members == linear_scan(space, range(60), q)


def test_exactness_invariant_under_heuristic(rng):
    space = EuclideanSpace(rng.random((80, 2)))
    sprawl, _ = build_classic(space, range(80), "pm-tree", pivots=3)
    q = Ball(tuple(rng.random(2)), 0.25)
    want = set(linear_scan(space, range(80), q))
    for h in (Heuristic.fifo(), Heuristic.lifo(), Heuristic.priority(lambda v: (v * 7919) % 101)):
        assert set(search(sprawl, q, heuristic=h).members) == want


def test_ball_center_as_point_ref(rng):
    space = EuclideanSpace(rng.random((20, 2)))
    s = brute_force_sprawl(space, range(20))
    got = search(s, Ball(5, 0.3))
    want = linear_scan(space, range(20), Ball(tuple(space.points[5]), 0.3))
    assert got.members == tuple(sorted(want))


def test_string_index_end_to_end(rng):
    from sprawl.comparison import StringSpace

    alphabet = list("abcd")
    words = ["".join(rng.choice(alphabet, size=rng.integers(1, 8))) for _ in range(50)]
    space = StringSpace(words)
    for kind in ("ball-tree", "laesa"):
        sprawl, _ = build_classic(space, range(50), kind, pivots=4)
        for _ in range(10):
            center = words[int(rng.integers(0, 50))]
            q = Ball(center, float(rng.integers(0, 4)))
            got = search(sprawl, q)
            assert set(got.members) == set(linear_scan(space, range(50), q))


# --- lazy vs eager ----------------------------------------------------------------------


def _eager_clone(sprawl: Sprawl) -> Sprawl:
    edges = [
        Edge(e.sources, e.target, e.positive, e.negative, lazy=False) for e in sprawl.edges
    ]
    f = sprawl.fans
    fans = Fans(f.source, f.start, f.target, f.lo, f.hi, f.discovers, np.zeros_like(f.lazy))
    return Sprawl(sprawl.space, sprawl.nodes, edges, fans)


def test_lazy_matches_eager_and_saves_evaluations(rng):
    space = EuclideanSpace(rng.random((150, 3)))
    lazy_sprawl, _ = build_classic(space, range(150), "pm-tree", pivots=4)
    eager_sprawl = _eager_clone(lazy_sprawl)
    total_lazy = total_eager = 0
    for _ in range(20):
        q = Ball(tuple(rng.random(3)), float(rng.random() * 0.3))
        a = search(lazy_sprawl, q)
        b = search(eager_sprawl, q)
        assert a.members == b.members
        total_lazy += a.region_evaluations
        total_eager += b.region_evaluations
    assert total_lazy <= total_eager


# --- DNF gadget -------------------------------------------------------------------------


def test_parse_dnf():
    formula, names = parse_dnf("(x&y)|(!x)|(!y&x)")
    assert names == ("x", "y")
    assert len(formula) == 3
    assert is_tautology(formula, 2)


def test_dnf_tautology_gadget_correct():
    formula, names = parse_dnf("x|!x")
    sprawl, workload = build_dnf_gadget(formula)
    assert check_correct_small(sprawl, workload).correct


def test_dnf_single_clause_incorrect():
    formula, names = parse_dnf("x&y")
    sprawl, workload = build_dnf_gadget(formula)
    report = check_correct_small(sprawl, workload)
    assert not report.correct
    qi, traversal, missing = report.certificate
    assert missing == (sprawl.nodes[-1],)


def test_dnf_verdicts_match_truth_table_small(rng):
    lits = [(v, pol) for v in range(2) for pol in (True, False)]
    for _ in range(40):
        clause_count = int(rng.integers(1, 4))
        formula = []
        for _ in range(clause_count):
            size = int(rng.integers(1, 4))
            picks = rng.choice(len(lits), size=size, replace=False)
            formula.append(frozenset(lits[int(i)] for i in picks))
        formula = tuple(formula)
        sprawl, workload = build_dnf_gadget(formula)
        assert check_correct_small(sprawl, workload).correct == is_tautology(formula, 2)


def test_gadget_cap():
    formula, _ = parse_dnf("a|b|c|d|e")
    with pytest.raises(SizeLimitError):
        build_dnf_gadget(formula, cap=8)


# --- correctness checker ------------------------------------------------------------------


def test_correct_small_eliminated_root_certificate():
    space = toy_space(2)
    s = Sprawl(space, range(2), [Edge((), 0), Edge((), 0, (), (EMPTY,)), Edge((), 1)])
    workload = Workload((ExplicitSetQuery(frozenset({0})),))
    report = check_correct_small(s, workload)
    assert not report.correct
    _, traversal, missing = report.certificate
    assert missing == (0,)
    assert 0 not in traversal


def test_correct_small_cap():
    space = toy_space(9, seed=2)
    s = brute_force_sprawl(space, range(9))
    with pytest.raises(SizeLimitError):
        check_correct_small(s, Workload((ExplicitSetQuery(frozenset({0})),)), cap=8)


def test_correct_small_refuses_knn_up_front():
    # a kNN query's members are its k nearest, which no radius-0 reduction
    # can require; the check refuses the workload before reducing anything
    space = toy_space(3)
    s = brute_force_sprawl(space, range(3))
    in_range = Ball((0.5, 0.5), 0.3)
    assert check_correct_small(s, Workload((in_range,))).correct
    with pytest.raises(CapabilityError):
        check_correct_small(s, Workload((in_range, Ball((0.5, 0.5), 0.0, k=2))))


def test_monotonicity_on_random_sprawls(rng):
    for _ in range(15):
        sprawl = random_small_sprawl(rng)
        center = tuple(rng.random(2))
        r1 = float(rng.random() * 0.5)
        r2 = r1 + float(rng.random())
        small = enumerate_repertoire(reduce_to_signed(sprawl, Ball(center, r1)))
        big = enumerate_repertoire(reduce_to_signed(sprawl, Ball(center, r2)))
        assert small <= big


# --- responsibility --------------------------------------------------------------------------


def _atomistic_workload(sprawl, extra=()):
    singles = tuple(ExplicitSetQuery(frozenset({v})) for v in sprawl.nodes)
    return Workload(singles + tuple(extra), atomistic=True)


def test_ball_tree_responsibility_passes(rng):
    space = EuclideanSpace(rng.random((40, 3)))
    sprawl, res = build_classic(space, range(40), "ball-tree")
    report = check_responsibility(sprawl, res, _atomistic_workload(sprawl))
    assert report.passed, report.violations[:3]


def test_shrunk_radius_fails_l1(rng):
    space = EuclideanSpace(rng.random((20, 2)))
    sprawl, res = build_classic(space, range(20), "ball-tree")
    # the tree's child edges are rows of its fans, edge j of the sprawl row j - len(edges)
    fans, first = sprawl.fans, len(sprawl.edges)
    idx = next(i for i, e in sprawl.iter_logical_edges() if e.positive and isinstance(e.positive[0], Ambit)
               and res.get(i) and max(
        space.compare(e.positive[0].foci[0], v) for v in res.get(i)) > 0.01)
    radius = fans.hi.copy()
    radius[idx - first] = radius[idx - first] * 0.25 - 1e-6
    shrunk = Fans(fans.source, fans.start, fans.target, radius, None, fans.discovers)
    broken = Sprawl(space, sprawl.nodes, sprawl.edges, shrunk)
    report = check_responsibility(broken, res, _atomistic_workload(broken))
    assert not report.passed
    assert any(rule == "L1" and e == idx for rule, e, _, _ in report.violations)


def test_enlarged_regions_still_pass(rng):
    space = EuclideanSpace(rng.random((25, 2)))
    sprawl, res = build_classic(space, range(25), "ball-tree")
    assert not any(e.positive for e in sprawl.edges)  # every ball is a fan row
    f = sprawl.fans
    grown = Sprawl(space, sprawl.nodes, sprawl.edges, Fans(f.source, f.start, f.target, f.hi + 1.0, None, f.discovers))
    report = check_responsibility(grown, res, _atomistic_workload(grown))
    assert report.passed


def test_aesa_and_pm_responsibility(rng):
    space = EuclideanSpace(rng.random((25, 2)))
    for kind, params in (("aesa", {}), ("pm-tree", {"pivots": 3}), ("laesa", {"pivots": 4})):
        sprawl, res = build_classic(space, range(25), kind, **params)
        report = check_responsibility(sprawl, res, _atomistic_workload(sprawl))
        assert report.passed, (kind, report.violations[:3])


def test_a_key_naming_no_logical_edge_is_refused(rng):
    # the built assignment passes; one more key, past the last fan row or
    # negative, names no edge of the sprawl and is refused before any check
    space = EuclideanSpace(rng.random((10, 2)))
    sprawl, res = build_classic(space, range(10), "ball-tree")
    workload = _atomistic_workload(sprawl)
    assert check_responsibility(sprawl, res, workload).passed
    for key in (999, -1, len(sprawl.edges) + len(sprawl.fans)):
        stray = ResponsibilityAssignment({**res.members, key: [0]})
        with pytest.raises(ValueError, match="no logical edge"):
            check_responsibility(sprawl, stray, workload)


def test_cyclic_sprawl_rejected():
    space = toy_space(2)
    ball0 = Ambit((0,), LinearMap([[1.0]]), (2.0,))
    ball1 = Ambit((1,), LinearMap([[1.0]]), (2.0,))
    s = Sprawl(space, range(2), [Edge((0,), 1, (ball0,), ()), Edge((1,), 0, (ball1,), ())])
    with pytest.raises(StructureError):
        check_responsibility(s, ResponsibilityAssignment({}), _atomistic_workload(s))


def test_untargeted_node_rejected():
    space = toy_space(2)
    s = Sprawl(space, range(2), [Edge((), 0)])
    with pytest.raises(StructureError):
        check_responsibility(s, ResponsibilityAssignment({}), _atomistic_workload(s))


def _negative_edge_sprawl(radius):
    # roots 0 and 1, and an edge from 0 that eliminates 1 outside delta(0, .) <= radius
    space = EuclideanSpace([[0.0], [1.0]])
    region = table1_region("ball", (0,), r=radius)
    return Sprawl(space, range(2), [Edge((), 0), Edge((), 1), Edge((0,), 1, (EMPTY,), (region,))]), region


def test_negative_region_missing_the_target_fails_l2():
    # L2: the node shorthand res(1) = {1} must lie in every negative region of an edge into 1
    res = ResponsibilityAssignment({0: {0}, 1: {1}})
    sprawl, _ = _negative_edge_sprawl(2.0)
    assert check_responsibility(sprawl, res, _atomistic_workload(sprawl)).passed
    sprawl, region = _negative_edge_sprawl(0.5)
    report = check_responsibility(sprawl, res, _atomistic_workload(sprawl))
    assert not report.passed
    assert report.violations == [("L2", 2, 1, repr(region))]


def test_uncovered_responsibility_fails_l3():
    # L3: node 1 is responsible for itself, but none of its in-edges carries it
    sprawl, _ = _negative_edge_sprawl(2.0)
    report = check_responsibility(sprawl, ResponsibilityAssignment({0: {0}}), _atomistic_workload(sprawl))
    assert not report.passed
    assert report.violations == [("L3", None, 1, "responsibility 1 not covered by in-edges")]


def test_violations_of_all_three_rules_keep_their_order():
    # points 0..5 on a line; edge 1's ball misses three of its
    # responsibilities (L1), both negative regions of edge 2 miss points that
    # node 2 answers for through edge 3 (L2), and nodes 0, 2, 3, 4 and 5
    # answer for points no in-edge carries (L3)
    space = EuclideanSpace([[float(x)] for x in range(6)])
    near, wide, listed = table1_region("ball", (0,), r=1.5), table1_region("ball", (0,), r=2.5), ExplicitRegion({2, 3})
    far = [table1_region("ball", (f,), r=10.0) for f in range(4)]
    edges = [
        Edge((), 0),
        Edge((0,), 1, (near,), ()),
        Edge((0,), 2, (far[0],), (wide, listed)),
        Edge((2,), 3, (far[2],), ()),
        Edge((3,), 4, (far[3],), ()),
        Edge((3,), 5, (far[3],), ()),
    ]
    sprawl = Sprawl(space, range(6), edges)
    res = ResponsibilityAssignment({1: {1, 2, 3, 4}, 3: {3, 4, 5}, 4: {1}})
    report = check_responsibility(sprawl, res, _atomistic_workload(sprawl))
    uncovered = [(0, u) for u in range(5)] + [(2, u) for u in range(2, 6)] + [(3, 1), (4, 4), (5, 5)]
    assert report.violations == (
        [("L1", 1, v, repr(near)) for v in (2, 3, 4)]
        + [("L2", 2, v, repr(wide)) for v in (3, 4, 5)]
        + [("L2", 2, v, repr(listed)) for v in (4, 5)]
        + [("L3", None, v, f"responsibility {u} not covered by in-edges") for v, u in uncovered]
    )


def test_non_atomistic_workload_rejected():
    space = toy_space(2)
    s = brute_force_sprawl(space, range(2))
    with pytest.raises(ValueError):
        check_responsibility(s, ResponsibilityAssignment({}), Workload((), atomistic=False))


def test_responsibility_implies_correct(rng):
    for i in range(10):
        space = EuclideanSpace(rng.random((6, 2)))
        kind = ("ball-tree", "aesa", "pm-tree")[i % 3]
        params = {"pivots": 2} if kind == "pm-tree" else {}
        sprawl, res = build_classic(space, range(6), kind, **params)
        workload = _atomistic_workload(
            sprawl, extra=[Ball(tuple(rng.random(2)), float(rng.random() * 0.8))]
        )
        assert check_responsibility(sprawl, res, workload).passed
        assert check_correct_small(sprawl, workload).correct


# --- emulation ---------------------------------------------------------------------------------


def test_emulate_flat_oracle_gives_roots():
    space = toy_space(4)

    def oracle(traversed, v):
        return {0, 1, 2, 3}, set()  # root edges stay ready for every set

    got = emulate_from_traces(space, range(4), oracle)
    assert sorted(root_targets(got)) == [0, 1, 2, 3]
    assert all(e.is_root_edge for e in got.edges)


@pytest.mark.parametrize("kind,params", [
    ("ball-tree", {}),
    ("aesa", {}),
    ("laesa", {"pivots": 3}),
    ("pm-tree", {"pivots": 3}),
])
def test_emulate_round_trip_per_kind(rng, kind, params):
    space = EuclideanSpace(rng.random((14, 2)))
    original, _ = build_classic(space, range(14), kind, **params)
    emulated = emulate_from_traces(space, range(14), sprawl_trace_oracle(original))
    for v in range(14):
        q = Ball(tuple(space.points[v]), 0.0)
        assert search(emulated, q).members == search(original, q).members


def test_emulate_aesa_three_points(rng):
    space = EuclideanSpace(rng.random((3, 2)))
    original, _ = build_classic(space, range(3), "aesa")
    emulated = emulate_from_traces(space, range(3), sprawl_trace_oracle(original))
    neg = [e for e in emulated.edges if e.negative and not e.is_root_edge]
    assert len(neg) == 6
    for e in neg:
        region = e.negative[0]
        assert isinstance(region, Ambit)
        # shell grown around the source, containing the target
        d = space.compare(e.sources[0], e.target)
        rem = region.map.remoteness(np.array([d]))
        assert np.all(rem <= np.asarray(region.radii) + 1e-12)


def test_emulate_interval_tree_round_trip():
    space = ProjectionSpace([[float(v)] for v in range(1, 8)])
    original, _ = build_classic(space, range(7), "sorted-interval-tree")
    emulated = emulate_from_traces(space, range(7), sprawl_trace_oracle(original))
    for v in range(7):
        q = Ball((float(v + 1),), 0.0)
        assert search(emulated, q).members == search(original, q).members


def test_emulate_detects_non_monotone_oracle():
    space = toy_space(3)

    def oracle(traversed, v):
        t = set(traversed)
        if not t:
            return {0, 1, 2}, set()
        if t == {0}:
            return {1}, set()
        return (set(), set())  # discovery vanished for supersets of {0}

    with pytest.raises(EmulationError):
        emulate_from_traces(space, range(3), oracle)


# --- heuristics --------------------------------------------------------------------------------


def test_search_explicit_order_stops_early(rng):
    space = toy_space(5)
    s = brute_force_sprawl(space, range(5))
    got = search(s, Ball((0.5, 0.5), 2.0), heuristic=Heuristic.explicit([2, 0]))
    assert got.order == (2, 0)


def test_search_matches_reduction_repertoire(rng):
    for _ in range(10):
        sprawl = random_small_sprawl(rng)
        q = Ball(tuple(rng.random(2)), float(rng.random()))
        rep = enumerate_repertoire(reduce_to_signed(sprawl, q))
        got = search(sprawl, q)
        local = tuple(sprawl.nodes.index(v) for v in got.order)
        assert local in rep


def test_group_member_edge_view(rng):
    space = EuclideanSpace(rng.random((5, 2)))
    sprawl, _ = build_classic(space, range(5), "aesa")
    idx, edge = next(
        (i, e) for i, e in sprawl.iter_logical_edges() if not e.is_root_edge
    )
    assert sprawl.logical_edge(idx) == edge
    assert edge.positive == (EMPTY,)
    assert len(edge.negative) == 1


def test_validate_foci_must_be_sources():
    space = toy_space(3)
    stray = Ambit((2,), LinearMap([[1.0]]), (1.0,))
    with pytest.raises(ValueError):
        Sprawl(space, range(3), [Edge((0,), 1, (stray,), ())])


def test_lazy_edge_validation():
    with pytest.raises(ValueError):
        Edge((0,), 1, (UNIVERSE,), (EMPTY,), lazy=True)
    with pytest.raises(ValueError):
        Edge((0,), 1, (), (), lazy=True)


def test_member_node_ball():
    space = EuclideanSpace([[0.0, 0.0], [3.0, 4.0]])
    assert 1 in linear_scan(space, range(2), Ball((0.0, 0.0), 5.0))
    assert 1 not in linear_scan(space, range(2), Ball((0.0, 0.0), 4.9))


def test_validate_atomistic():
    from sprawl.engine import validate_atomistic

    space = toy_space(3)
    singles = tuple(ExplicitSetQuery(frozenset({v})) for v in range(3))
    big = Ball((0.5, 0.5), 5.0)
    good = Workload(singles + (big,), atomistic=True)
    assert validate_atomistic(space, range(3), good)
    missing = Workload(singles[:2] + (big,), atomistic=True)
    assert not validate_atomistic(space, range(3), missing)
    assert not validate_atomistic(space, range(3), Workload(singles, atomistic=False))
    # a radius-0 ball about a point is that point's singleton query
    point = Ball(tuple(space.value(2)), 0.0)
    assert validate_atomistic(space, range(3), Workload(singles[:2] + (point, big), atomistic=True))
    elsewhere = Ball(tuple(space.value(2) + 0.25), 0.0)
    assert not validate_atomistic(space, range(3), Workload(singles[:2] + (elsewhere, big), atomistic=True))


def test_validate_atomistic_reads_knn_members_as_the_k_nearest():
    from sprawl.engine import validate_atomistic

    space = EuclideanSpace([[0.0], [1.0], [3.0]])
    singles = tuple(ExplicitSetQuery(frozenset({v})) for v in range(2))
    # the two nearest to 0.4 are points 0 and 1, both singletons; the three
    # nearest take in point 2, which is not, though no point is at distance 0
    assert validate_atomistic(space, range(3), Workload(singles + (Ball((0.4,), 0.0, k=2),), atomistic=True))
    assert not validate_atomistic(space, range(3), Workload(singles + (Ball((0.4,), 0.0, k=3),), atomistic=True))


def test_builders_reject_asymmetric_spaces(rng):
    from conftest import random_quasimetric

    space = random_quasimetric(rng, 8)
    with pytest.raises(ValueError, match="symmetric"):
        build_classic(space, range(8), "aesa")


def test_ambit_query_on_quasimetric_brute_force(rng):
    # directed query: membership uses the backward features throughout
    from conftest import random_quasimetric

    space = random_quasimetric(rng, 12)
    s = brute_force_sprawl(space, range(12))
    q = AmbitQuery((0, 3), (0.5, 0.5), float(np.median(space.matrix)))
    got = search(s, q)
    want = tuple(
        v for v in range(12)
        if 0.5 * space.matrix[v, 0] + 0.5 * space.matrix[v, 3] <= q.radius
    )
    assert got.members == want


def test_ball_search_fails_closed_on_quasimetric_regions():
    # the ball bound needs delta(u, c) <= s, but membership only gives delta(c, u) <= s
    space = MatrixSpace([[0, 3, 1], [3, 0, 1], [3, 5, 0]], symmetric=False)
    roots = [Edge((), 0), Edge((), 1)]
    region = Ambit((0,), LinearMap([[1.0]]), (1.0,))
    with_region = Sprawl(space, range(3), roots + [Edge((0,), 2, (region,), ())])
    with_group = Sprawl(space, range(3), roots + [Edge((), 2)], make_fans(groups=[(0, [2], [1.0], [1.0])]))
    # the same ball as a discovering fan row, with no explicit ambit edge left to flag it
    with_table = Sprawl(space, range(3), roots, make_fans([(0, 2, 1.0)]))
    assert not any(e.positive for e in with_table.edges)
    q = Ball(1, 1.0)
    assert linear_scan(space, range(3), q) == (1, 2)
    for s in (with_region, with_group, with_table):
        with pytest.raises(CapabilityError):
            search(s, q)
        with pytest.raises(CapabilityError):
            reduce_to_signed(s, q)
    assert search(brute_force_sprawl(space, range(3)), q).members == (1, 2)


def test_pm_tree_explicit_set_query():
    space = toy_space(40, 3, seed=4)
    s, _ = build_classic(space, range(40), "pm-tree", pivots=4)
    q = ExplicitSetQuery(frozenset({3, 17, 30}))
    assert search(s, q).members == (3, 17, 30)


@pytest.mark.parametrize("kind", ["aesa", "laesa"])
@pytest.mark.parametrize(
    "heuristic", [None, Heuristic.fifo(), Heuristic("bound")], ids=["default", "fifo", "bound"]
)
def test_set_and_ambit_queries_over_shell_groups(rng, kind, heuristic):
    # a group fires edge by edge for queries that are not balls; under
    # "bound" the plan is dense, so its eliminations go through the dense frontier
    space = toy_space(40, 3, seed=int(rng.integers(1 << 30)))
    sprawl, _ = build_classic(space, range(40), kind, pivots=6)
    pruned = 0
    for _ in range(20):
        ids = frozenset(int(v) for v in rng.choice(40, size=int(rng.integers(1, 6)), replace=False))
        foci = tuple(int(v) for v in rng.choice(40, size=2, replace=False))
        weights = tuple(float(w) for w in rng.random(2) + 0.1)
        remoteness = np.asarray(weights) @ space.pairwise(foci, range(40))
        radius = float(np.quantile(remoteness, rng.random() * 0.3))
        for q in (ExplicitSetQuery(ids), AmbitQuery(foci, weights, radius)):
            got = search(sprawl, q, heuristic)
            assert got.members == linear_scan(space, range(40), q)
            pruned += 40 - got.traversed
    assert pruned > 0


def test_lazy_negative_edges_into_leaves(rng):
    # a lazy edge is consulted once all its sources are traversed, just
    # before its target would be; a shell holding the target never refuses a member
    space = toy_space(50, 2, seed=int(rng.integers(1 << 30)))
    tree, _ = build_classic(space, range(50), "ball-tree")
    sources = {v for _, e in tree.iter_logical_edges() for v in e.sources}
    leaves = [v for v in tree.nodes if v not in sources]
    refused = 0
    for trial in range(6):
        lazy = []
        for leaf in leaves:
            picks = [int(v) for v in rng.choice(50, size=2, replace=False) if v != leaf]
            src = tuple(picks[: 1 + trial % 2])
            d = space.compare(src[0], leaf)
            slack = float(rng.random()) * 0.1 * (trial % 3)  # 0: a sphere
            shell = table1_region("shell", (src[0],), lo=max(d - slack, 0.0), hi=d + slack)
            lazy.append(Edge(src, leaf, (EMPTY,), (shell,), lazy=True))
        s = Sprawl(space, range(50), list(tree.edges) + lazy, tree.fans)
        for c in rng.random((5, 2)):
            row = space.distances_from(tuple(c), range(50))
            for q in (Ball(tuple(c), float(np.partition(row, 4)[4])), Ball(tuple(c), 0.0, k=4)):
                got = search(s, q)
                assert set(got.members) == set(linear_scan(space, range(50), q))
                if q.k is not None:
                    assert got.members == linear_scan(space, range(50), q)
                refused += search(tree, q).traversed - got.traversed
    assert refused > 0


def _paired_heuristics(s):
    """The same four policies for search (on refs) and traverse (on positions)."""
    pos = {v: i for i, v in enumerate(s.nodes)}
    order = list(s.nodes[::-1][: 2 * len(s.nodes) // 3])

    def key(v):
        return (v * 7) % 5

    return [
        (Heuristic.fifo(), Heuristic.fifo()),
        (Heuristic.lifo(), Heuristic.lifo()),
        (Heuristic.priority(key), Heuristic.priority(lambda i: key(s.nodes[i]))),
        (Heuristic.explicit(order), Heuristic.explicit([pos[v] for v in order])),
    ]


@pytest.mark.parametrize("kind", ["random", "ball-tree", "aesa", "laesa", "pm-tree"])
def test_search_order_matches_traverse_of_reduction(rng, kind):
    from conftest import random_labeled_sprawl

    cases = []
    if kind == "random":
        for _ in range(15):
            s = random_labeled_sprawl(rng)
            cases += [(s, Ball(tuple(rng.random(2)), float(rng.random() * 0.6))) for _ in range(2)]
    else:
        space = toy_space(40, 3, seed=int(rng.integers(1 << 30)))
        s, _ = build_classic(space, range(40), kind, pivots=4)
        for c in rng.random((4, 3)):
            radius = float(np.partition(space.distances_from(c, range(40)), 3)[3])
            cases.append((s, Ball(tuple(c), radius)))
    for s, q in cases:
        g = reduce_to_signed(s, q)
        for h_search, h_traverse in _paired_heuristics(s):
            want = tuple(s.nodes[i] for i in traverse(g, h_traverse))
            assert search(s, q, h_search).order == want


def test_interval_tree_exactness_randomized(rng):
    values = np.sort(rng.random(200) * 10.0).reshape(-1, 1)
    space = ProjectionSpace(values)
    sprawl, res = build_classic(space, range(200), "sorted-interval-tree")
    for _ in range(100):
        q = Ball((float(rng.random() * 12.0 - 1.0),), float(rng.random() * 2.0))
        got = search(sprawl, q)
        assert set(got.members) == set(linear_scan(space, range(200), q))
    workload = _atomistic_workload(sprawl)
    assert check_responsibility(sprawl, res, workload).passed


def test_ambit_query_rejects_all_zero_weights():
    # every point would "match": linear_scan used to answer the whole set
    # while tree and pivot searches crashed mid-traversal
    with pytest.raises(ValueError, match="zero"):
        AmbitQuery((0,), (0.0,), 1.0)
    with pytest.raises(ValueError, match="zero"):
        AmbitQuery((0, 1), (0.0, -0.0), 1.0)
    assert AmbitQuery((0, 1), (0.0, 1.0), 1.0).weights == (0.0, 1.0)


def test_logical_edge_rejects_negative_index(rng):
    space = EuclideanSpace(rng.random((6, 2)))
    for kind in ("aesa", "ball-tree", "pm-tree"):
        sprawl, _ = build_classic(space, range(6), kind, pivots=2)
        count = len(sprawl.edges) + len(sprawl.fans)
        assert [i for i, _ in sprawl.iter_logical_edges()] == list(range(count))
        for idx in (-1, count):
            with pytest.raises(IndexError):
                sprawl.logical_edge(idx)


def test_region_member_mask_of_plain_regions():
    from sprawl.engine import region_member_mask

    space = toy_space(3)
    assert region_member_mask(space, UNIVERSE, range(3)).tolist() == [True, True, True]
    assert region_member_mask(space, EMPTY, range(3)).tolist() == [False, False, False]
    assert region_member_mask(space, ExplicitRegion(frozenset({0, 2})), range(3)).tolist() == [True, False, True]
    assert region_member_mask(space, UNIVERSE, []).shape == (0,)


def test_region_member_mask_honors_backward_orientation():
    from sprawl.engine import region_member_mask

    space = MatrixSpace([[0, 3, 1], [1, 0, 1], [3, 5, 0]], symmetric=False)
    backward = Ambit((0,), LinearMap([[1.0]]), (1.5,), "backward")
    forward = Ambit((0,), LinearMap([[1.0]]), (1.5,))
    want = [membership(space, backward, v) for v in range(3)]
    assert want == [True, True, False]  # delta(v, 0) <= 1.5
    assert region_member_mask(space, backward, range(3)).tolist() == want
    assert region_member_mask(space, forward, range(3)).tolist() == [True, False, True]
    # the trace oracle reads the same masks: a backward edge 0 -> 2 discovers
    # its target for the singleton queries 0 and 1 only
    s = Sprawl(space, range(3), [Edge((), 0), Edge((0,), 2, (backward,), ())])
    oracle = sprawl_trace_oracle(s)
    assert [2 in oracle({0}, v)[0] for v in range(3)] == want


def test_unsupported_map_assumes_overlap(caplog):
    from sprawl.ambit import PowerMap, overlap_radients
    from sprawl.engine import _QueryEval

    space = toy_space(4)
    region = Ambit((0,), PowerMap([-1.0], 0.5), (0.0,))
    with pytest.raises(CapabilityError):  # neither monotone nor subadditive
        overlap_radients(region, [0.5], 0.1)
    with caplog.at_level("WARNING", logger="sprawl.engine"):
        assert _QueryEval(space, Ball((9.0, 9.0), 0.1)).intersects(region)
    assert "assuming overlap" in caplog.text


def test_the_sign_rule_warns_once_per_search(caplog):
    # a mixed-sign ambit query on a symmetric space lets a shell row rule
    # it out by its upper bound alone, and so does a non-negative one on an
    # asymmetric space: each search logs that fallback once, not once per
    # row, and still answers as the scan does
    from conftest import random_quasimetric

    space = toy_space(30, 3, seed=5)
    aesa, _ = build_classic(space, range(30), "aesa")
    matrix = random_quasimetric(np.random.default_rng(5), 12)
    groups = []
    for u in range(12):
        targets = [t for t in range(12) if t != u]
        d = matrix.distances_from(u, targets)
        groups.append((u, targets, d, d))
    dense = Sprawl(matrix, range(12), [Edge((), v) for v in range(12)], make_fans((), groups))
    for sprawl, weights in ((aesa, (1.0, -0.5)), (dense, (1.0, 1.0))):
        n = len(sprawl.nodes)
        remote = sorted(sum(w * sprawl.space.compare(v, f) for w, f in zip(weights, (0, 1))) for v in range(n))
        query = AmbitQuery((0, 1), weights, remote[4])
        for h in (None, Heuristic.fifo(), Heuristic("bound")):
            caplog.clear()
            with caplog.at_level("WARNING", logger="sprawl.engine"):
                found = search(sprawl, query, h)
            assert [r.getMessage().startswith("the sign rule") for r in caplog.records] == [True]
            assert found.members == linear_scan(sprawl.space, sprawl.nodes, query)


@pytest.mark.parametrize("nodes", [range(6), [0, 2, 3, 5, 7, 9], [0, 3, 300, 97, 8, 1]])
def test_validate_refuses_group_and_ball_refs_outside_the_ground_set(nodes):
    # the whole space, one with gaps and a sparse one, each over a space
    # whose last ref is the largest node; each gap and each end is probed,
    # and so are refs outside the space, which a lookup table would wrap
    nodes = list(nodes)
    space = toy_space(max(nodes) + 1)
    edges = [Edge((), v) for v in nodes]
    outside = sorted({min(nodes) - 1, max(nodes) + 1, 1, 4, -1, 10**12, -(10**15)} - set(nodes))
    for ref in (-1, -(10**15), len(space), 10**12):
        with pytest.raises(IndexError, match="node refs"):
            Sprawl(space, nodes + [ref], edges)

    def sprawl(targets=nodes[1:], ball_targets=nodes[2:4], ball_sources=nodes[:2]):
        group = (nodes[0], targets, np.zeros(len(targets)), np.ones(len(targets)))
        return Sprawl(space, nodes, edges, make_fans(zip(ball_sources, ball_targets, [1.0, 1.0]), [group]))

    sprawl()
    for ref in outside:
        with pytest.raises(IndexError, match="fan"):
            sprawl(targets=nodes[1:] + [ref])
        with pytest.raises(IndexError, match="fan"):
            sprawl(ball_targets=[nodes[2], ref])
        with pytest.raises(IndexError, match="fan"):
            sprawl(ball_sources=[ref, nodes[1]])
