"""The wave and dense forms of FIFO search against the node-at-a-time heap.

Each search runs twice: on the sprawl's own plan, and on a twin whose
cached plan has its `Waves` and its dense seed positions stripped, so that
the frontier steps node by node through the heap as it does for every
other heuristic. Members, traversal order, distance computations and
region evaluations must all agree.
"""
import copy
import warnings

import numpy as np
import pytest
from hypothesis import given

from sprawl.ambit import table1_region
from sprawl.comparison import AmbitQuery, Ball, EuclideanSpace, ExplicitSetQuery, StringSpace
from sprawl.engine import (
    EMPTY,
    Edge,
    ExplicitRegion,
    Sprawl,
    build_classic,
    linear_scan,
    random_small_sprawl,
    search,
)
from sprawl.hypergraph import Frontier, Heuristic

from conftest import make_fans, random_labeled_sprawl, random_quasimetric
from test_differential import reference_search
from test_properties import lp_cases


def heap_twin(sprawl: Sprawl) -> Sprawl:
    twin = copy.copy(sprawl)
    compiled = sprawl._plan()
    twin._plan_cache = compiled._replace(plan=compiled.plan._replace(waves=None, positions=None))
    return twin


def assert_waves_match_heap(sprawl: Sprawl, queries, heuristic=None) -> None:
    twin = heap_twin(sprawl)
    for q in queries:
        got, want = search(sprawl, q, heuristic), search(twin, q, heuristic)
        assert got.members == want.members, q
        assert got.order == want.order, q
        assert got.distance_computations == want.distance_computations, q
        assert got.region_evaluations == want.region_evaluations, q


@pytest.fixture
def wave_sizes(monkeypatch):
    """The size of every wave taken (0 for a node stepping alone)."""
    sizes = []
    take = Frontier._take_wave

    def counted(self, waves):
        wave, alone = take(self, waves)
        if wave:
            sizes.append(0 if alone else len(wave))
        return wave, alone

    monkeypatch.setattr(Frontier, "_take_wave", counted)
    return sizes


def point_sets(rng):
    """Uniform points, points repeated three times, and a dyadic grid whose
    distances tie exactly."""
    g = np.arange(4) / 4
    yield rng.random((60, 3))
    yield np.repeat(rng.random((20, 3)), 3, axis=0)
    yield np.array([(x, y, z) for x in g for y in g for z in g])[:60]


def ball_queries(rng, space, n):
    """Radius 0 on a data point, a random radius, and radii read off a
    `distances_from` row, so that points lie exactly on the boundary."""
    for _ in range(3):
        c = tuple(rng.random(space.dimension))
        row = np.sort(space.distances_from(c, range(n)))
        yield Ball(c, float(row[int(rng.integers(1, 8))]))
        yield Ball(c, float(rng.random() * 0.5))
        yield Ball(int(rng.integers(0, n)), 0.0)
        yield Ball(int(rng.integers(0, n)), float(row[5]))


def test_which_plans_carry_waves(rng):
    space = EuclideanSpace(rng.random((40, 3)))
    sprawls = {
        kind: build_classic(space, range(40), kind, pivots=4)[0] for kind in ("ball-tree", "laesa", "pm-tree", "aesa")
    }
    plans = {kind: sprawl._plan()[0] for kind, sprawl in sprawls.items()}
    assert plans["ball-tree"].waves is not None and plans["laesa"].waves is not None
    assert plans["pm-tree"].waves is not None
    # every AESA node is the source of an eager shell fan: its waves would all be one node
    assert plans["aesa"].waves is None
    # a tree's waves need no per-node check at all
    tree = plans["ball-tree"].waves
    assert not tree.alone and not tree.after and not tree.marked.any()
    # LAESA's pivots, the sources of its shell fans, step alone, and nothing waits
    pivots = set(sprawls["laesa"].fans.source.tolist())
    assert len(pivots) == 4 and plans["laesa"].waves.alone == pivots and plans["laesa"].waves.after == {}
    # pm-tree's pivot rings are lazy: its targets wait, and no node steps alone
    assert not plans["pm-tree"].waves.alone and plans["pm-tree"].waves.after


def assert_marked_are_the_cutters(plan) -> None:
    """`Waves.marked` holds, by ref, exactly the nodes that step alone or
    wait for lazy sources, and is compiled once with the plan."""
    alone, after, marked = plan.waves
    assert marked.dtype == bool and marked.shape == (plan.span,)
    assert set(np.flatnonzero(marked).tolist()) == alone | after.keys()


def test_wave_marks_are_compiled_with_the_plan(rng):
    space = EuclideanSpace(rng.random((40, 3)))
    for kind in ("ball-tree", "laesa", "pm-tree", "aesa"):
        sprawl = build_classic(space, range(40), kind, pivots=4)[0]
        plan = sprawl._plan()[0]
        if kind == "aesa":  # no waves at all
            assert plan.waves is None
            continue
        assert_marked_are_the_cutters(plan)
        assert sprawl._plan()[0].waves.marked is plan.waves.marked  # not rebuilt per search
    # both kinds of marked node: 1 steps alone, as the source of an eliminating
    # edge, and 3 waits for 1, the source of a lazy edge into it
    ball = (table1_region("ball", (0,), r=5.0),)
    edges = [
        Edge((), 0),
        Edge((0,), 1, ball),
        Edge((0,), 2, ball),
        Edge((0,), 3, ball),
        Edge((1,), 2, (EMPTY,), (table1_region("ball", (1,), r=0.2),)),
        Edge((1,), 3, (EMPTY,), (table1_region("ball", (1,), r=0.2),), lazy=True),
    ]
    sprawl = Sprawl(EuclideanSpace([[0.0], [1.0], [1.1], [0.9], [4.0]]), range(5), edges)
    plan = sprawl._plan()[0]
    assert plan.waves.alone == {1} and plan.waves.after == {3: {1}}
    assert_marked_are_the_cutters(plan)
    assert plan.waves.marked.tolist() == [False, True, False, True, False]
    assert_waves_match_heap(sprawl, [Ball((3.0,), 0.5), Ball((1.05,), 0.1), Ball((0.9,), 0.0), Ball(4, 5.0)])


def random_asymmetric_sprawl(rng) -> Sprawl:
    """A tree of explicit-set balls over a random quasimetric, with roots,
    eliminating edges and lazy ones beside it: the labels a `Ball` search
    on an asymmetric space accepts. A tree edge into t holds t's subtree,
    and a negative region holds its target's subtree too, so the search is
    exact."""
    n = int(rng.integers(3, 12))
    space = random_quasimetric(rng, n)
    order = rng.permutation(n).tolist()
    parent = {v: order[int(rng.integers(0, i))] for i, v in enumerate(order) if i}
    subtree = {v: {v} for v in order}
    for v in reversed(order[1:]):
        subtree[parent[v]] |= subtree[v]
    edges = [Edge((), order[0])]
    edges += [Edge((parent[v],), v, (ExplicitRegion(subtree[v]),)) for v in order[1:]]
    for _ in range(int(rng.integers(0, n))):
        t = int(rng.integers(0, n))
        sources = tuple(int(u) for u in rng.choice(n, size=int(rng.integers(0, 3)), replace=False))
        extra = {int(u) for u in rng.choice(n, size=int(rng.integers(0, 3)), replace=False)}
        negative = (ExplicitRegion(subtree[t] | extra),)
        edges.append(Edge(sources, t, (EMPTY,), negative, lazy=bool(sources) and rng.random() < 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an edge into one of its own sources
        return Sprawl(space, range(n), edges)


def test_asymmetric_range_searches_go_in_waves(rng, monkeypatch):
    # a wave measures delta(c, .) in one row, as `dist_to_center` does one
    # node at a time, so a FIFO range search on a quasimetric takes the
    # wave form and gives what its heap twin and `linear_scan` give
    forms, waves = [], []  # per search, whether it took the wave form; the size of each wave
    run = Frontier.run

    def spy(self, fire, visit=None, wave=None):
        def counted(vs):
            waves.append(len(vs))
            return wave(vs)

        forms.append(wave is not None)
        return run(self, fire, visit, counted if wave else None)

    monkeypatch.setattr(Frontier, "run", spy)
    for _ in range(150):
        sprawl = random_asymmetric_sprawl(rng)
        space, n = sprawl.space, len(sprawl.nodes)
        assert not space.symmetric
        queries = []
        for c in rng.choice(n, size=2, replace=False).tolist():
            row = np.sort(space.distances_from(c, range(n)))
            queries += [Ball(c, float(row[int(rng.integers(0, n))])), Ball(c, float(rng.random() * 5.0)), Ball(c, 0.0)]
        forms.clear()
        assert_waves_match_heap(sprawl, queries)
        assert forms == [True, False] * len(queries)  # each search in waves, its heap twin not
        for q in queries:
            assert search(sprawl, q).members == linear_scan(space, range(n), q), q
    assert len(waves) > 500 and max(waves) > 1


@pytest.mark.parametrize("kind", ["ball-tree", "laesa", "pm-tree", "aesa"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_classic_indexes_match_the_heap(rng, wave_sizes, kind, p):
    for pts in point_sets(rng):
        space = EuclideanSpace(pts, p=p)
        n = len(pts)
        sprawl, _ = build_classic(space, range(n), kind, pivots=4)
        queries = list(ball_queries(rng, space, n))
        assert_waves_match_heap(sprawl, queries)
        for q in queries:
            assert search(sprawl, q).members == linear_scan(space, range(n), q)
    if kind == "aesa":
        assert not wave_sizes
    else:
        assert max(wave_sizes) > 10


def test_random_sprawls_match_the_heap(rng, wave_sizes):
    for _ in range(150):
        for sprawl in (random_labeled_sprawl(rng), random_small_sprawl(rng)):
            queries = [Ball(tuple(rng.random(2)), float(rng.random() * 0.9)) for _ in range(3)]
            queries.append(Ball(int(rng.integers(0, len(sprawl.nodes))), 0.0))
            assert_waves_match_heap(sprawl, queries)
    assert sum(size > 1 for size in wave_sizes) > 50
    assert 0 in wave_sizes  # some nodes stepped alone


@given(lp_cases())
def test_classic_waves_match_the_heap_on_ties_and_boundaries(case):
    # duplicate points and dyadic ties, every norm of the battery, and range
    # radii read off the scan's row, so that points lie on the query sphere
    space, center, rank, _ = case
    n = len(space)
    row = np.sort(space.distances_from(center, range(n)))
    queries = [Ball(center, float(r)) for r in {0.0, row[rank - 1] if rank else 0.0, row[-1]}]
    for kind in ("ball-tree", "laesa", "pm-tree"):
        sprawl, _ = build_classic(space, range(n), kind, pivots=min(3, n - 1))
        assert_waves_match_heap(sprawl, queries)


def test_members_and_order_are_python_ints(rng):
    # a wave's arrays become plain ints once, at the end, so that results
    # print and serialise as the node-at-a-time form's do
    space = EuclideanSpace(rng.random((80, 3)))
    for kind in ("ball-tree", "aesa", "laesa", "pm-tree"):
        sprawl, _ = build_classic(space, range(80), kind, pivots=4)
        for q in (Ball((0.5, 0.5, 0.5), 0.3), Ball((0.5, 0.5, 0.5), 0.0, k=5), Ball(3, 0.2)):
            got = search(sprawl, q)
            assert got.members and got.order, (kind, q)
            assert {type(v) for v in got.members + got.order} == {int}, (kind, q)


def test_a_wave_that_finds_one_node_twice_queues_it_once(wave_sizes):
    # 1 and 2 share a wave and each has a ball into 3, so no node has a sole
    # finder; 3 joins the queue once, at its first finder's place (ahead of
    # 1's next child 5), and 3's ball back into the seed 0 finds 0 done and
    # is not evaluated. Found twice, 0 and 3 step alone
    space = EuclideanSpace([[0.0], [1.0], [1.2], [1.1], [1.15], [0.9]])
    balls = [(0, 1, 5.0), (0, 2, 5.0), (1, 3, 5.0), (1, 5, 5.0), (2, 3, 5.0), (3, 4, 5.0), (3, 0, 5.0)]
    sprawl = Sprawl(space, range(6), [Edge((), 0)], make_fans(balls))
    plan = sprawl._plan()[0]
    assert not plan.sole_finder and plan.waves.alone == {0, 3}
    got = search(sprawl, Ball((1.1,), 5.0))
    assert got.order == (0, 1, 2, 3, 5, 4) and wave_sizes == [0, 2, 0, 2]
    assert got.region_evaluations == 6
    assert_waves_match_heap(sprawl, [Ball((1.1,), 5.0), Ball((1.1,), 0.06), Ball((3.0,), 0.5), Ball(3, 0.0)])


def test_string_index_matches_the_heap(rng):
    words = ["".join(rng.choice(list("abcd"), size=int(rng.integers(1, 6)))) for _ in range(60)]
    space = StringSpace(words)
    for kind in ("ball-tree", "laesa", "pm-tree"):
        sprawl, _ = build_classic(space, range(60), kind, pivots=3)
        queries = [Ball(w, r) for w in ("abc", "d", words[7]) for r in (0.0, 1.0, 2.0)]
        assert_waves_match_heap(sprawl, queries)


def test_wave_splits_before_a_node_its_sibling_eliminates(wave_sizes):
    # a tree on a line: root 0 with children 1 and 2 in one level, and 1
    # carries an eager negative edge into its sibling 2; taking 1 and 2 in
    # one wave would traverse 2 before 1 could eliminate it
    space = EuclideanSpace([[0.0], [1.0], [1.1], [2.0], [0.9]])

    def ball(u, r):
        return (table1_region("ball", (u,), r=r),)

    edges = [
        Edge((), 0),
        Edge((0,), 1, ball(0, 5.0)),
        Edge((0,), 2, ball(0, 5.0)),
        Edge((1,), 2, (EMPTY,), ball(1, 0.2)),
        Edge((1,), 4, ball(1, 0.5)),
        Edge((2,), 3, ball(2, 1.0)),
    ]
    sprawl = Sprawl(space, range(5), edges)
    assert sprawl._plan()[0].waves.alone == {1}  # the source of an eliminating edge
    far = Ball((3.0,), 0.5)
    got = search(sprawl, far)
    assert got.order == (0, 1) and wave_sizes == [1, 0]
    near = Ball((1.05,), 0.1)
    assert search(sprawl, near).order == (0, 1, 2, 4, 3)
    assert_waves_match_heap(sprawl, [far, near, Ball(2, 0.0), Ball(4, 1.0)])


def test_wave_splits_between_a_ball_and_an_eliminator_of_its_target(wave_sizes):
    # siblings 1 and 2: 1's ball edge and 2's eager negative edge both go
    # into 3. The heap tests 1's ball before 2 eliminates 3; a wave that
    # fired 2's edge first would skip that test
    space = EuclideanSpace([[0.0], [1.0], [1.1], [1.5]])
    edges = [
        Edge((), 0),
        Edge((0,), 1, (table1_region("ball", (0,), r=5.0),)),
        Edge((0,), 2, (table1_region("ball", (0,), r=5.0),)),
        Edge((1,), 3, (table1_region("ball", (1,), r=5.0),)),
        Edge((2,), 3, (EMPTY,), (table1_region("ball", (2,), r=0.5),)),
    ]
    sprawl = Sprawl(space, range(4), edges)
    assert sprawl._plan()[0].waves.alone == {2}  # the source of an eliminating edge
    far = Ball((3.0,), 0.1)
    got = search(sprawl, far)
    assert got.order == (0, 1, 2) and got.region_evaluations == 4 and wave_sizes == [1, 1, 0]
    assert_waves_match_heap(sprawl, [far, Ball((1.4,), 0.2), Ball(3, 0.0)])


def test_wave_waits_for_the_sources_of_a_lazy_edge(wave_sizes):
    # siblings 1 and 2, with a lazy negative edge from 1 into 2: the heap
    # checks it when 2 comes up, 1 being traversed by then, so 2 may not
    # share 1's wave
    space = EuclideanSpace([[0.0], [1.0], [1.1]])
    edges = [
        Edge((), 0),
        Edge((0,), 1, (table1_region("ball", (0,), r=5.0),)),
        Edge((0,), 2, (table1_region("ball", (0,), r=5.0),)),
        Edge((1,), 2, (EMPTY,), (table1_region("ball", (1,), r=0.2),), lazy=True),
    ]
    sprawl = Sprawl(space, range(3), edges)
    assert sprawl._plan()[0].waves.after[2] == {1}
    far = Ball((3.0,), 0.5)
    assert search(sprawl, far).order == (0, 1) and wave_sizes == [1, 1, 1]
    assert_waves_match_heap(sprawl, [far, Ball((1.05,), 0.1), Ball(2, 0.0)])


def test_a_seed_eliminated_before_the_first_wave_is_skipped():
    # a sourceless negative edge fires before the first selection and
    # eliminates seed 1, which is still in the queue
    space = EuclideanSpace([[0.0], [1.0], [2.0]])
    edges = [
        Edge((), 0),
        Edge((), 1),
        Edge((), 1, (EMPTY,), (EMPTY,)),
        Edge((0,), 2, (table1_region("ball", (0,), r=5.0),)),
    ]
    sprawl = Sprawl(space, range(3), edges)
    q = Ball((1.0,), 5.0)
    assert search(sprawl, q).order == (0, 2)
    assert_waves_match_heap(sprawl, [q, Ball(1, 0.0)])


def test_wave_reuses_distances_cached_before_it():
    # the sourceless edge tests membership of 1 and 2 before the first
    # selection, so the waves find some or all of their distances cached
    space = EuclideanSpace([[0.0], [1.0], [2.0], [3.0]])
    edges = [
        Edge((), 0),
        Edge((), 2, (ExplicitRegion(frozenset({1, 2})),)),
        Edge((0,), 1, (table1_region("ball", (0,), r=5.0),)),
        Edge((2,), 3, (table1_region("ball", (2,), r=5.0),)),
    ]
    sprawl = Sprawl(space, range(4), edges)
    q = Ball((1.5,), 0.6)
    got = search(sprawl, q)
    assert got.order == (0, 2, 1, 3) and got.members == (1, 2) and got.distance_computations == 4
    assert_waves_match_heap(sprawl, [q, Ball((0.0,), 0.1), Ball(3, 1.0)])


@pytest.fixture
def dense_selections(monkeypatch):
    """The heuristic kind of every frontier that selected densely."""
    kinds = []
    init = Frontier.__init__

    def counted(self, plan, h):
        init(self, plan, h)
        if self.dense:
            kinds.append(h.kind)

    monkeypatch.setattr(Frontier, "__init__", counted)
    return kinds


def all_seed_groups(rng, n: int = 14) -> Sprawl:
    """Every node a seed and the source of an eager sphere group into a
    random half of the others, plus one lazy group from node 0 into all of
    them: a dense plan with no `Waves`."""
    pts = rng.random((n, 2))
    space = EuclideanSpace(pts)
    d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
    groups = []
    for v in range(n):
        others = [u for u in range(n) if u != v]
        targets = sorted(rng.choice(others, size=len(others) // 2, replace=False).tolist())
        groups.append((v, targets, d[v, targets], d[v, targets]))
    rest = list(range(1, n))
    groups.append((0, rest, d[0, rest], d[0, rest], True))
    return Sprawl(space, range(n), [Edge((), v) for v in range(n)], make_fans(groups=groups))


def dense_queries(rng, space, n):
    """Ball range, Ball kNN, explicit-set and ambit queries."""
    for _ in range(4):
        c = tuple(rng.random(2))
        row = np.sort(space.distances_from(c, range(n)))
        yield Ball(c, float(row[int(rng.integers(1, 6))]))
        yield Ball(c, 0.0, k=int(rng.integers(1, 6)))
        yield ExplicitSetQuery(frozenset(int(v) for v in rng.choice(n, size=3, replace=False)))
        yield AmbitQuery((int(rng.integers(0, n)),), (1.0,), float(rng.random() * 0.4))


def test_dense_fifo_matches_the_heap_and_the_reference(rng, dense_selections):
    for _ in range(4):
        aesa, _ = build_classic(EuclideanSpace(rng.random((30, 2))), range(30), "aesa")
        for sprawl in (aesa, all_seed_groups(rng)):
            plan = sprawl._plan()[0]
            assert plan.positions is not None and plan.waves is None
            n = len(sprawl.nodes)
            queries = list(dense_queries(rng, sprawl.space, n))
            assert_waves_match_heap(sprawl, queries, Heuristic.fifo())
            for q in queries:
                got = search(sprawl, q, Heuristic.fifo())
                assert got.members == linear_scan(sprawl.space, range(n), q), q
                # the eager reference may drop more where a lazy group meets a shrinking kNN radius
                if sprawl is aesa or getattr(q, "k", None) is None:
                    assert (got.members, got.order) == reference_search(sprawl, q), q
    assert dense_selections and set(dense_selections) == {"fifo"}
