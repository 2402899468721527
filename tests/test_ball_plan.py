"""Best-first kNN on the compiled ball plan.

Two twins pin what the plan changes. A ball twin holds every discovering
fan row as an explicit ball `Edge` after the explicit edges, numbered as
before, which a node-at-a-time search fires through the general region
path, so members, order and both counts must agree with the sprawl's
own. A twin whose plan lacks `sole_finder` never cuts, so a kNN search on
the sprawl must traverse a prefix of the twin's order and return the same
neighbours wherever the index is exact. Which plans take the lean
best-first step, where one callback measures a node and returns what it
discovers, is pinned by spies on the general path.
"""
import copy
import warnings

import numpy as np
import pytest

from sprawl.ambit import table1_region
from sprawl.comparison import Ball, EuclideanSpace
from sprawl.engine import (
    EMPTY,
    UNIVERSE,
    Edge,
    Sprawl,
    build_classic,
    linear_scan,
    random_small_sprawl,
    search,
)
from sprawl.hypergraph import Frontier, Heuristic
from sprawl.storage import load_index, save_index

from conftest import make_fans, random_labeled_sprawl, shell_groups
from test_differential import _tabled


def twin(sprawl: Sprawl, sole_finder: bool) -> Sprawl:
    """The sprawl on a copy of its plan with `sole_finder` forced."""
    out = copy.copy(sprawl)
    compiled = sprawl._plan()
    out._plan_cache = compiled._replace(plan=compiled.plan._replace(sole_finder=sole_finder))
    return out


def ball_twin(sprawl: Sprawl) -> Sprawl:
    """The sprawl with each discovering fan row moved to an explicit ball
    `Edge` after the explicit edges, so every logical edge keeps its
    number, and its shell fans kept."""
    balls = tuple(sprawl.fans.edge(j) for j in range(sprawl.fans.found_rows))
    shells = make_fans(groups=shell_groups(sprawl.fans))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fuzzed sprawls may carry self-loop edges
        return Sprawl(sprawl.space, sprawl.nodes, sprawl.edges + balls, shells)


def assert_same(got, want, q):
    assert got.members == want.members, q
    assert got.order == want.order, q
    assert got.distance_computations == want.distance_computations, q
    assert got.region_evaluations == want.region_evaluations, q


def assert_ball_fans_are_exact(sprawl: Sprawl, queries) -> None:
    """Range searches under LIFO, "bound" and FIFO, and kNN searches under
    the default, agree with the ball twin."""
    general = ball_twin(sprawl)
    assert [e for _, e in general.iter_logical_edges()] == [e for _, e in sprawl.iter_logical_edges()]
    for q in queries:
        heuristics = [None] if q.k is not None else [Heuristic.lifo(), Heuristic("bound"), Heuristic.fifo()]
        for h in heuristics:
            assert_same(search(sprawl, q, h), search(general, q, h), (q, h))


def assert_cut_is_a_prefix(sprawl: Sprawl, q) -> tuple:
    """The cut only stops selection early: a prefix of the uncut order, at
    no more distance computations. Returns both results."""
    got, uncut = search(sprawl, q), search(twin(sprawl, sole_finder=False), q)
    assert got.order == uncut.order[: len(got.order)], q
    assert got.distance_computations <= uncut.distance_computations, q
    return got, uncut


def point_sets(rng):
    """Uniform points, points repeated three times, and a dyadic grid whose
    distances tie exactly."""
    g = np.arange(4) / 4
    yield rng.random((60, 3))
    yield np.repeat(rng.random((20, 3)), 3, axis=0)
    yield np.array([(x, y, z) for x in g for y in g for z in g])[:60]


def random_fan_tree(rng) -> Sprawl:
    """An exact tree of discovering fans over 2-14 points of a 4 x 4 dyadic
    grid, so points repeat and distances tie exactly: each child's radius
    is the largest distance from its parent to its subtree, and the rows
    are shuffled, so one source's rows may split into several fans."""
    n = int(rng.integers(2, 15))
    grid = np.array([(x, y) for x in range(4) for y in range(4)]) / 4
    space = EuclideanSpace(grid[rng.integers(0, 16, n)])
    order = rng.permutation(n).tolist()
    parent = {v: order[int(rng.integers(0, i))] for i, v in enumerate(order) if i}
    subtree = {v: [v] for v in order}
    for v in reversed(order[1:]):  # a child joins after its parent, so its subtree is whole here
        subtree[parent[v]] += subtree[v]
    rows = [(parent[v], v, float(space.distances_from(parent[v], subtree[v]).max())) for v in order[1:]]
    return Sprawl(space, range(n), [Edge((), order[0])], make_fans([rows[i] for i in rng.permutation(len(rows))]))


def guard_sprawl() -> Sprawl:
    # root 0 at 3.0; a, b and w at 2.5, 4.0 and 1.0; v at 2.2 and x at 0.1.
    # v has two discovering edges, from a and from b; x hangs off v alone
    space = EuclideanSpace([[3.0], [2.5], [4.0], [1.0], [2.2], [0.1]])
    root, a, b, w, v, x = range(6)

    def ball(u, r):
        return (table1_region("ball", (u,), r=r),)

    edges = [
        Edge((), root),
        Edge((root,), a, ball(root, 10.0)),
        Edge((root,), b, ball(root, 10.0)),
        Edge((root,), w, ball(root, 10.0)),
        Edge((a,), v, ball(a, 0.5)),
        Edge((b,), v, ball(b, 4.0)),
        Edge((v,), x, ball(v, 2.1)),
    ]
    return Sprawl(space, range(6), edges)


def test_no_cut_where_a_node_has_two_discovering_edges():
    # a's ball about 2.5 bounds v at 2.0, b's ball about 4.0 at 0; the key
    # keeps the larger, but x, which only v discovers, lies at 0.1. Cutting
    # once w sets the radius to 1.0 would drop v and with it x
    sprawl = guard_sprawl()
    q = Ball((0.0,), 0.0, k=1)
    assert linear_scan(sprawl.space, sprawl.nodes, q) == (5,)
    assert not sprawl._plan()[0].sole_finder
    assert search(sprawl, q).members == (5,)
    assert search(twin(sprawl, sole_finder=True), q).members == (3,)


def test_ball_rows_into_eliminated_targets_are_not_evaluated():
    # pivot 0's eager shell fan rules out node 2 before root 1's ball fan
    # fires its rows into 2 and 3; only the live row counts, as in the twin
    space = EuclideanSpace([[0.0], [1.0], [3.0], [1.2]])
    fans = make_fans(balls=[(1, 2, 5.0), (1, 3, 5.0)], groups=[(0, [2], [3.0], [3.0])])
    sprawl = Sprawl(space, range(4), [Edge((), 0), Edge((), 1)], fans)
    q = Ball((1.0,), 0.5)
    got = search(sprawl, q, Heuristic("bound"))
    assert got.members == (1, 3) and got.order == (0, 1, 3) and got.region_evaluations == 2
    assert_ball_fans_are_exact(sprawl, [q, Ball((1.0,), 0.0, k=2)])


def test_which_plans_may_cut(rng):
    space = EuclideanSpace(rng.random((40, 3)))
    for kind in ("ball-tree", "pm-tree", "laesa", "aesa"):
        assert build_classic(space, range(40), kind, pivots=4)[0]._plan()[0].sole_finder, kind
    # a root edge into a node that a ball edge also discovers is a second finder
    tree, _ = build_classic(space, range(40), "ball-tree")
    again = Sprawl(space, tree.nodes, tree.edges + (Edge((), 7),), tree.fans)
    assert not again._plan()[0].sole_finder


@pytest.mark.parametrize("kind", ["ball-tree", "pm-tree", "laesa", "aesa"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_classic_knn_is_exact_and_the_ball_map_changes_nothing(rng, kind, p):
    for pts in point_sets(rng):
        space = EuclideanSpace(pts, p=p)
        n = len(pts)
        sprawl, _ = build_classic(space, range(n), kind, pivots=4)
        queries = []
        for c in [tuple(rng.random(3)), (0.375, 0.375, 0.375), tuple(pts[1])]:
            row = np.sort(space.distances_from(c, range(n)))
            queries += [Ball(c, float(row[int(rng.integers(1, 8))])), Ball(c, 0.0)]
            queries += [Ball(c, 0.0, k=k) for k in (1, 2, 5, 10, n, n + 2)]
        assert_ball_fans_are_exact(sprawl, queries)
        for q in queries:
            if q.k is not None:
                got, _ = assert_cut_is_a_prefix(sprawl, q)
                assert got.members == linear_scan(space, range(n), q), (kind, q)
                # the cut runs under "bound" only
                fifo = Heuristic.fifo()
                assert_same(search(sprawl, q, fifo), search(twin(sprawl, sole_finder=False), q, fifo), q)
            else:
                # and only for kNN: a range search never calls it
                bound = Heuristic("bound")
                assert_same(search(sprawl, q, bound), search(twin(sprawl, sole_finder=False), q, bound), q)


def test_random_sprawls_keep_their_searches(rng):
    # random sprawls need not be exact indexes, so they are held to their
    # own uncut searches and ball twins rather than to `linear_scan`; with
    # their unit ball edges moved into fans, the twin moves them back
    may_cut = 0
    for _ in range(120):
        labeled, small = random_labeled_sprawl(rng), random_small_sprawl(rng)
        for sprawl in (labeled, small, _tabled(labeled), _tabled(small)):
            n = len(sprawl.nodes)
            queries = [Ball(tuple(rng.random(2)), float(rng.random() * 0.9)) for _ in range(2)]
            queries += [Ball(int(rng.integers(0, n)), 0.0)]
            queries += [Ball(tuple(rng.random(2)), 0.0, k=int(rng.integers(1, 4))) for _ in range(2)]
            assert_ball_fans_are_exact(sprawl, queries)
            for q in queries[3:]:
                assert_cut_is_a_prefix(sprawl, q)
            may_cut += sprawl._plan()[0].sole_finder
    assert may_cut > 40
    # exact fan-only trees all take the lean step, many with several fans
    # on one node, and are held to `linear_scan` too
    split = 0
    for _ in range(600):
        sprawl = random_fan_tree(rng)
        n = len(sprawl.nodes)
        c = tuple(rng.integers(0, 8, 2) / 8)  # a grid point or a point between them
        queries = [Ball(c, float(rng.integers(0, 4)) / 4), Ball(int(rng.integers(0, n)), 0.0)]
        queries += [Ball(c, 0.0, k=k) for k in (1, 2, n)]
        assert_ball_fans_are_exact(sprawl, queries)
        for q in queries:
            if q.k is not None:
                assert_cut_is_a_prefix(sprawl, q)
            assert search(sprawl, q).members == linear_scan(sprawl.space, sprawl.nodes, q), q
        assert lean_step(pytest.MonkeyPatch, sprawl, queries[2])
        sources = sprawl.fans.source[: sprawl.fans.found].tolist()
        split += len(set(sources)) < len(sources)
    assert split > 300


def test_ball_tree_knn_costs_no_more_than_a_range_search_at_its_radius():
    # best-first search stopped at the bound traverses only nodes whose ball
    # meets the final k-th-neighbour ball, as that range search must
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        space = EuclideanSpace(rng.random((2000, 8)))
        sprawl, _ = build_classic(space, range(2000), "ball-tree", arity=2)
        for c in rng.random((40, 8)):
            c = tuple(c)
            knn = search(sprawl, Ball(c, 0.0, k=10))
            radius = float(np.partition(space.distances_from(c, range(2000)), 9)[9])
            assert space.compare(c, knn.members[-1]) == radius
            assert knn.distance_computations <= search(sprawl, Ball(c, radius)).distance_computations


def lean_step(monkeypatch, sprawl, q, h=None):
    """Search, and say whether the lean step ran: then `Frontier.run` gets
    no `fire` callback, the frontier discovers only the seeds through
    `discover_all` (which queues them through `discover_at` at bound 0),
    and the centre's measurer measures each traversed node once, which is
    all the search is charged for. Every search of a `Ball` builds that
    measurer, so a measurer call does not tell the step."""
    calls = {"lean": False, "discover": 0, "discover_at": 0, "measured": 0}
    run, discover, measurer = Frontier.run, Frontier.discover_all, type(sprawl.space).measurer
    discover_at = Frontier.discover_at

    def spy_run(self, fire, *args):
        calls["lean"] = fire is None
        return run(self, fire, *args)

    def spy_discover(self, *args):
        calls["discover"] += 1
        return discover(self, *args)

    def spy_discover_at(self, *args):
        calls["discover_at"] += 1
        return discover_at(self, *args)

    def spy_measurer(self, a):
        dist = measurer(self, a)

        def counted(b):
            calls["measured"] += 1
            return dist(b)

        return counted

    with monkeypatch.context() as m:
        m.setattr(Frontier, "run", spy_run)
        m.setattr(Frontier, "discover_all", spy_discover)
        m.setattr(Frontier, "discover_at", spy_discover_at)
        m.setattr(type(sprawl.space), "measurer", spy_measurer)
        got = search(sprawl, q, h)
    if not calls["lean"]:
        return False
    assert calls["discover"] == calls["discover_at"] == 1, calls
    assert calls["measured"] == got.traversed == got.distance_computations, (calls, got)
    return True


def test_which_plans_take_the_lean_step(monkeypatch, rng, tmp_path):
    space = EuclideanSpace(rng.random((300, 3)))
    tree, res = build_classic(space, range(300), "ball-tree")
    save_index(tmp_path / "tree.json", tree, res)
    loaded, _ = load_index(tmp_path / "tree.json")
    q = Ball(tuple(rng.random(3)), 0.0, k=5)
    for sprawl in (tree, loaded):
        for h in (None, Heuristic("bound")):
            assert lean_step(monkeypatch, sprawl, q, h)
        assert_same(search(sprawl, q), search(ball_twin(sprawl), q), q)
        for h in (Heuristic.fifo(), Heuristic.lifo(), Heuristic.priority(lambda v: -v)):
            assert not lean_step(monkeypatch, sprawl, q, h), h
        # a range search, under "bound" too
        assert not lean_step(monkeypatch, sprawl, Ball(q.center, 0.2), Heuristic("bound"))
    a, b = tree.fans.target[:2].tolist()
    joined = Sprawl(space, tree.nodes, tree.edges + (Edge((a, b), 7, (EMPTY,), (UNIVERSE,)),), tree.fans)
    labelled = Sprawl(space, tree.nodes, tree.edges + (Edge((), 7, (EMPTY,), (UNIVERSE,)),), tree.fans)
    assert not joined._plan()[0].sourceless and joined._plan()[0].joins
    assert labelled._plan()[0].sourceless
    never = {
        kind: build_classic(space, range(300), kind, pivots=4)[0] for kind in ("pm-tree", "laesa", "aesa")
    }
    never.update(
        ball_twin=ball_twin(tree),
        uncut=twin(tree, sole_finder=False),
        joined=joined,
        labelled=labelled,
    )
    for name, sprawl in never.items():
        assert sprawl._plan()[0].sole_finder or name == "uncut", name
        assert not lean_step(monkeypatch, sprawl, q), name
        assert search(sprawl, q).members == search(tree, q).members, name


def test_a_node_with_two_ball_fans_steps_once(monkeypatch):
    # a fan is a run of one source's rows, so node 0 fires two fans, and
    # its lean step returns the rows of both, in the order they fire
    space = EuclideanSpace([[0.0], [1.0], [0.5], [0.7], [-0.4], [2.0]])
    fans = make_fans(balls=[(0, 1, 2.0), (0, 2, 1.5), (2, 3, 0.3), (0, 4, 0.5), (1, 5, 1.0)])
    sprawl = Sprawl(space, range(6), [Edge((), 0)], fans)
    assert sprawl.fans.source[: sprawl.fans.found].tolist().count(0) == 2 and sprawl._plan()[0].out[0] == [1]
    for c in (-0.5, 0.45, 0.8, 1.9):
        for k in (1, 2, 4, 6):
            q = Ball((c,), 0.0, k=k)
            assert lean_step(monkeypatch, sprawl, q), q
            assert_same(search(sprawl, q), search(ball_twin(sprawl), q), q)
            assert search(sprawl, q).members == linear_scan(space, range(6), q), q
