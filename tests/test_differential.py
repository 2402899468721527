"""Differential battery: the optimized engine vs a literal reference loop.

The reference expands every fan into ordinary edges, ignores all
caching, treats lazy edges eagerly, and walks the traversal loop
directly. At a fixed radius eager elimination only removes queue entries
earlier than lazy does, so for identical discovery ordering the two must
produce the same FIFO traversal order, not just the same members; a kNN
radius shrinks, so there lazy checks may drop more. It shares the region
overlap code with the engine on purpose: the overlap math has its own
oracles, this battery targets the queue/activation/laziness bookkeeping.
"""
import heapq
import math
import warnings
from collections import Counter

import numpy as np

from sprawl.ambit import (
    Ambit,
    LinearMap,
    MetaballMap,
    PowerMap,
    ball_radius,
    ball_reach,
    bound_cutoff,
    table1_region,
)
from sprawl.comparison import AmbitQuery, Ball, EuclideanSpace, ExplicitSetQuery
from sprawl.engine import (
    EMPTY,
    Edge,
    Sprawl,
    _QueryEval,
    build_classic,
    linear_scan,
    random_small_sprawl,
    search,
)
from sprawl.hypergraph import Heuristic

from conftest import make_fans, random_labeled_sprawl, shell_groups, uniform_space


def reference_search(sprawl: Sprawl, query):
    """Direct transcription of the traversal loop, FIFO, everything eager.

    Activation order matches the engine's: a node's out-edges in logical
    edge order, so explicit edges, then fan rows in row order.
    """
    knn = isinstance(query, Ball) and query.k is not None
    best: list[tuple[float, int]] = []
    s = math.inf if knn else None

    def fresh_eval():
        return _QueryEval(sprawl.space, query)

    status: dict[int, str] = {}
    seq: dict[int, int] = {}
    counter = 0
    used: set[int] = set()
    all_edges = [e for _, e in sprawl.iter_logical_edges()]
    order = []
    members = []
    traversed = set()

    def fire(i):
        e = all_edges[i]
        t = e.target
        nonlocal counter
        if status.get(t) in ("trav", "elim"):
            return
        ev = fresh_eval()
        for r in e.negative:
            if not ev.intersects(r, s):
                status[t] = "elim"
                return
        if all(ev.intersects(r, s) for r in e.positive):
            if status.get(t) is None:
                status[t] = "avail"
                seq[t] = counter
                counter += 1

    for i, e in enumerate(all_edges):
        if not e.sources:
            fire(i)
    while True:
        avail = [v for v, st in status.items() if st == "avail"]
        if not avail:
            break
        v = min(avail, key=lambda u: (seq[u], u))
        status[v] = "trav"
        traversed.add(v)
        order.append(v)
        if knn:
            d = sprawl.space.compare(query.center, v)
            item = (-d, -v)
            if len(best) < query.k:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)
            if len(best) == query.k:
                s = -best[0][0]
        else:
            if fresh_eval().member(v):
                members.append(v)
        for i, e in enumerate(all_edges):
            if i in used or not e.sources:
                continue
            if set(e.sources) <= traversed:
                used.add(i)
                fire(i)
    if knn:
        members = [r for _, r in sorted((-d, -r) for d, r in best)]
        return tuple(members), tuple(order)
    return tuple(sorted(members)), tuple(order)


def reference_best_first(sprawl: Sprawl, query):
    """Best-first kNN, the "bound" order, transcribed directly (Hjaltason &
    Samet, *Distance browsing in spatial databases*, ACM TODS 24(2), 1999).

    Every logical edge is an ordinary edge, fired in logical order once its
    last source is traversed, at the radius of the moment: the k-th best
    distance so far, inf until k are found. An edge into a selected or
    eliminated node does nothing. A node's key is the largest lower bound
    among the discovering edges fired into it (`ball_reach` of each
    positive linear region, clamped at 0), ties by first discovery. The
    live node of smallest key is selected, then refused if an armed lazy
    edge into it misses. Where no node has two discovering eager in-edges,
    each key bounds all its node leads to, so selection stops once the
    smallest key is beyond the radius. One evaluator caches every distance,
    as a search does, so the distance counts compare.

    Returns the ranked neighbours, the traversal order and the distance count.
    """
    ev = _QueryEval(sprawl.space, query)
    edges = [e for _, e in sprawl.iter_logical_edges()]
    finders = Counter(e.target for e in edges if not e.lazy and e.discovers)
    stops = max(finders.values(), default=0) <= 1
    key: dict[int, float] = {}
    seq: dict[int, int] = {}
    decided: set[int] = set()
    traversed: set[int] = set()
    order = []
    best: list[tuple[float, int]] = []
    s = math.inf

    def fire(e):
        t = e.target
        if t in decided:
            return
        if not all(ev.intersects(r, s) for r in e.negative):
            decided.add(t)
        elif all(ev.intersects(r, s) for r in e.positive):
            linear = [r for r in e.positive if isinstance(r, Ambit) and isinstance(r.map, LinearMap)]
            bound = max([0.0] + [ball_reach(r, [ev.z(p) for p in r.foci]) for r in linear])
            seq.setdefault(t, len(seq))
            key[t] = max(key.get(t, bound), bound)

    for e in edges:
        if not e.sources and not e.lazy:
            fire(e)
    while True:
        live = [v for v in seq if v not in decided]
        if not live:
            break
        v = min(live, key=lambda u: (key[u], seq[u]))
        if stops and key[v] > bound_cutoff(s):
            break
        decided.add(v)
        armed = [e for e in edges if e.lazy and e.target == v and set(e.sources) <= traversed]
        if any(not all(ev.intersects(r, s) for r in e.negative) for e in armed):
            continue
        traversed.add(v)
        order.append(v)
        item = (-ev.dist_to_center(v), -v)
        if len(best) < query.k:
            heapq.heappush(best, item)
        elif item > best[0]:
            heapq.heapreplace(best, item)
        if len(best) == query.k:
            s = -best[0][0]
        for e in edges:
            if not e.lazy and v in e.sources and set(e.sources) <= traversed:
                fire(e)
    members = tuple(r for _, r in sorted((-d, -r) for d, r in best))
    return members, tuple(order), ev.session.distance_computations


def assert_best_first(sprawl: Sprawl, query):
    got = search(sprawl, query, Heuristic("bound"))
    assert (got.members, got.order, got.distance_computations) == reference_best_first(sprawl, query), query
    return got


def test_engine_matches_reference_on_random_sprawls(rng):
    nonempty = eliminations = 0
    for i in range(120):
        sprawl = random_labeled_sprawl(rng)
        n = len(sprawl.nodes)
        roll = rng.random()
        if roll < 0.6:
            query = Ball(tuple(rng.random(2)), float(rng.random() * 0.9))
        elif roll < 0.8:
            query = ExplicitSetQuery(frozenset(int(v) for v in rng.choice(n, size=2)))
        else:
            query = AmbitQuery((0,), (1.0,), float(rng.random()))
        want_members, want_order = reference_search(sprawl, query)
        got = search(sprawl, query)
        assert got.order == want_order, f"instance {i}: traversal orders diverge"
        assert got.members == want_members, f"instance {i}: members diverge"
        nonempty += bool(want_order)
        eliminations += len(want_order) < n
    # the battery must exercise real traversals and real eliminations
    assert nonempty > 80
    assert eliminations > 30


def _tabled(sprawl: Sprawl) -> Sprawl:
    """The sprawl with its unit single-source ball edges moved into discovering fans."""
    keep, rows = [], []
    for e in sprawl.edges:
        r = None
        if len(e.sources) == 1 and len(e.positive) == 1 and not e.negative and not e.lazy:
            r = ball_radius(e.positive[0], e.sources[0])
        if r is not None:
            rows.append((e.sources[0], e.target, r))
        else:
            keep.append(e)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fuzzed sprawls may carry self-loop edges
        return Sprawl(sprawl.space, sprawl.nodes, keep, make_fans(rows, shell_groups(sprawl.fans)))


def test_engine_matches_reference_with_ball_tables(rng):
    # fan rows fire after every explicit edge of their source, which moves
    # them in activation order; the reference walks the same logical order
    rows = 0
    for i in range(120):
        sprawl = _tabled(random_labeled_sprawl(rng))
        rows += sprawl.fans.found_rows
        n = len(sprawl.nodes)
        roll = rng.random()
        if roll < 0.6:
            query = Ball(tuple(rng.random(2)), float(rng.random() * 0.9))
        elif roll < 0.8:
            query = ExplicitSetQuery(frozenset(int(v) for v in rng.choice(n, size=2)))
        else:
            query = AmbitQuery((0,), (1.0,), float(rng.random()))
        want_members, want_order = reference_search(sprawl, query)
        got = search(sprawl, query)
        assert got.order == want_order, f"instance {i}: traversal orders diverge"
        assert got.members == want_members, f"instance {i}: members diverge"
    assert rows > 60


def test_engine_matches_reference_on_builders(rng):
    space = uniform_space(rng, 40, 3)
    for kind, params in [
        ("ball-tree", {}),
        ("aesa", {}),
        ("laesa", {"pivots": 4}),
        ("pm-tree", {"pivots": 3}),
    ]:
        sprawl, _ = build_classic(space, range(40), kind, **params)
        for _ in range(6):
            query = Ball(tuple(rng.random(3)), float(rng.random() * 0.5))
            want_members, want_order = reference_search(sprawl, query)
            got = search(sprawl, query)
            assert got.order == want_order, kind
            assert got.members == want_members, kind


def knn_inputs(rng, n):
    """Uniform points, points repeated three times, and a dyadic grid whose
    distances tie exactly, each with centres that include a data point and
    a point equidistant from grid points."""
    g = np.arange(4) / 4
    grid = np.array([(x, y) for x in g for y in g])[:n]
    for pts in (rng.random((n, 2)), np.repeat(rng.random((n // 3, 2)), 3, axis=0), grid):
        yield pts, [tuple(rng.random(2)), (0.375, 0.375), tuple(pts[0])]


def test_engine_matches_reference_knn(rng):
    space = uniform_space(rng, 30, 2)
    for kind, params in [("aesa", {}), ("laesa", {"pivots": 3})]:
        sprawl, _ = build_classic(space, range(30), kind, **params)
        for _ in range(6):
            k = int(rng.integers(1, 6))
            query = Ball(tuple(rng.random(2)), 0.0, k=k)
            want_members, _ = reference_search(sprawl, query)
            got = search(sprawl, query)
            assert got.members == want_members, kind
            assert got.members == linear_scan(space, range(30), query)
    for pts, centers in knn_inputs(rng, 15):
        space = EuclideanSpace(pts)
        n = len(pts)
        for kind, params in [("aesa", {}), ("laesa", {"pivots": 3}), ("pm-tree", {"pivots": 3})]:
            sprawl, _ = build_classic(space, range(n), kind, **params)
            for c in centers:
                for k in range(1, n + 3):
                    query = Ball(c, 0.0, k=k)
                    want_members, want_order = reference_search(sprawl, query)
                    assert search(sprawl, query).members == want_members, kind
                    assert want_members == linear_scan(space, range(n), query)
                    fifo = search(sprawl, query, Heuristic.fifo())
                    assert fifo.members == want_members, kind
                    # the heap path keeps FIFO order; pm-tree's lazy groups are
                    # checked at the radius of the moment, which the eager
                    # reference has not reached yet, so they may drop more
                    if kind != "pm-tree":
                        assert fifo.order == want_order, kind


def test_random_small_sprawl_reference(rng):
    for _ in range(60):
        sprawl = random_small_sprawl(rng)
        query = Ball(tuple(rng.random(2)), float(rng.random()))
        want_members, want_order = reference_search(sprawl, query)
        got = search(sprawl, query)
        assert got.order == want_order
        assert got.members == want_members


def test_best_first_matches_reference_on_trees(rng):
    # ball-tree and pm-tree (lazy pivot shells) on uniform points, points
    # repeated three times and a dyadic grid, under L2 and L3
    for p in (2.0, 3.0):
        for pts, centers in knn_inputs(rng, 15):
            space = EuclideanSpace(pts, p=p)
            n = len(pts)
            for kind in ("ball-tree", "pm-tree"):
                sprawl, _ = build_classic(space, range(n), kind, pivots=3)
                assert sprawl._plan()[0].sole_finder
                for c in centers:
                    for k in (1, 2, 5, n, n + 2):
                        q = Ball(c, 0.0, k=k)
                        assert assert_best_first(sprawl, q).members == linear_scan(space, range(n), q), (kind, q)


def test_best_first_matches_reference_on_random_sprawls(rng):
    # random sprawls need not be exact indexes, so only the traversal is held
    # to the reference; where a node has two discovering edges the search
    # must not stop at its bound, and raised keys must order it
    sole = shared = 0
    for _ in range(80):
        labeled, small = random_labeled_sprawl(rng), random_small_sprawl(rng)
        for sprawl in (labeled, small, _tabled(labeled), _tabled(small)):
            for _ in range(2):
                assert_best_first(sprawl, Ball(tuple(rng.random(2)), 0.0, k=int(rng.integers(1, 4))))
            if sprawl._plan()[0].sole_finder:
                sole += 1
            else:
                shared += 1
    assert sole > 40 and shared > 40


def test_rediscovery_raises_a_key_and_selects_once():
    # root r discovers a, b and w; a finds v at bound 0, then b finds it
    # again at 1.5, which lifts v past w (bound 1.0). A plan without
    # `sole_finder` keeps the live key, so v is selected once, after w
    space = EuclideanSpace([[5.0], [4.0], [3.0], [2.0], [1.0]])
    r, a, b, v, w = range(5)

    def ball(u, radius):
        return (table1_region("ball", (u,), r=radius),)

    edges = [
        Edge((), r),
        Edge((r,), a, ball(r, 10.0)),
        Edge((r,), b, ball(r, 10.0)),
        Edge((r,), w, ball(r, 4.0)),
        Edge((a,), v, ball(a, 10.0)),
        Edge((b,), v, ball(b, 1.5)),
    ]
    sprawl = Sprawl(space, range(5), edges)
    assert not sprawl._plan()[0].sole_finder
    q = Ball((0.0,), 0.0, k=5)
    got = assert_best_first(sprawl, q)
    assert got.order == (r, a, b, w, v)
    assert got.members == linear_scan(space, range(5), q) == (w, v, b, a, r)


def test_a_dense_fan_that_names_a_target_twice_keeps_the_rows_intersection(rng):
    # all-root sprawls whose shell fans name some targets twice, each row a
    # shell or a sphere that holds the target, over points with exact ties.
    # Each searches as the sprawl whose fans name each target once, by the
    # intersection of its rows (the largest lo, the smallest hi): FIFO rules
    # a target out where either row misses, and "bound" raises it to the
    # larger of the two bounds, whichever row comes last. Both agree with
    # the scan and the references.
    widened = 0
    for _ in range(40):
        n = int(rng.integers(3, 13))
        space = EuclideanSpace(np.round(rng.random((n, 2)) * 4) / 4)
        edges = [Edge((), v) for v in rng.permutation(n).tolist()]
        twice, once = [], []
        for u in range(n):
            targets = np.array([t for t in range(n) if t != u and rng.random() < 0.8], dtype=np.int64)
            d = space.distances_from(u, targets)

            def rows():  # a shell about each distance, a sphere where both widths are 0
                wide = rng.random(len(d)) < 0.6
                return d - wide * rng.random(len(d)) * 0.5, d + wide * rng.random(len(d)) * 0.5

            (lo, hi), (lo2, hi2) = rows(), rows()
            again = rng.random(len(d)) < 0.5
            extra = (targets[again], lo2[again], hi2[again])
            twice.append((u, *(np.concatenate([a, b]) for a, b in zip((targets, lo, hi), extra))))
            lo[again], hi[again] = np.maximum(lo[again], lo2[again]), np.minimum(hi[again], hi2[again])
            once.append((u, targets, lo, hi))
            widened += int(np.count_nonzero(again))
        repeated, merged = (Sprawl(space, range(n), edges, make_fans((), groups)) for groups in (twice, once))
        assert repeated._plan().plan.positions is not None
        for _ in range(3):
            c = tuple(rng.random(2) * 1.2)
            for q in (Ball(c, float(rng.integers(0, 4)) / 4), Ball(c, 0.0, k=int(rng.integers(1, n + 2)))):
                want = linear_scan(space, range(n), q)
                for h in (None, Heuristic.fifo(), Heuristic("bound")):
                    got, same = search(repeated, q, h), search(merged, q, h)
                    assert (got.members, got.order, got.distance_computations) == (
                        same.members, same.order, same.distance_computations
                    ), (q, h)
                    assert got.members == want
                if q.k is None:
                    assert reference_search(repeated, q) == (want, search(repeated, q, Heuristic.fifo()).order)
                else:
                    assert reference_best_first(repeated, q)[0] == want
    assert widened > 100
