import numpy as np
import pytest

from sprawl import hypergraph
from sprawl.comparison import Ball
from sprawl.engine import random_small_sprawl, reduce_to_signed
from sprawl.errors import SizeLimitError
from sprawl.hypergraph import (
    Frontier,
    Heuristic,
    HyperEdge,
    SignedHyperdigraph,
    Waves,
    activation,
    check_traversal_axioms,
    enumerate_repertoire,
    random_hyperdigraph,
    successors,
    traverse,
)


def graph(n, *edges):
    return SignedHyperdigraph(n, [HyperEdge(frozenset(s), t, sign) for s, t, sign in edges])


def test_chain_fifo():
    g = graph(3, ((), 0, 1), ((0,), 1, 1), ((1,), 2, 1))
    assert traverse(g, Heuristic.fifo()) == [0, 1, 2]


def test_elimination_beats_discovery_same_round():
    # after traversing the root, a positive and a negative edge both fire at b
    g = graph(2, ((), 0, 1), ((0,), 1, 1), ((0,), 1, -1))
    assert traverse(g) == [0]
    # hand simulation: round 1 discovers a; traversing a activates both
    # edges, elimination wins before the next selection, so b never runs
    assert enumerate_repertoire(g) == {(), (0,)}


def test_mutual_elimination_explicit_order():
    edges = [((), v, 1) for v in range(3)]
    for u in range(3):
        for v in range(3):
            if u != v:
                edges.append(((u,), v, -1))
    g = graph(3, *edges)
    assert traverse(g, Heuristic.explicit([0])) == [0]
    assert traverse(g, Heuristic.explicit([2, 1])) == [2]


def test_enumerate_two_roots():
    g = graph(2, ((), 0, 1), ((), 1, 1))
    assert enumerate_repertoire(g) == {(), (0,), (1,), (0, 1), (1, 0)}


def test_enumerate_single_root():
    g = graph(1, ((), 0, 1))
    assert enumerate_repertoire(g) == {(), (0,)}


def test_enumerate_cap():
    g = graph(9, *[((), v, 1) for v in range(9)])
    with pytest.raises(SizeLimitError):
        enumerate_repertoire(g, cap=8)


def test_axioms_on_enumerated_repertoires(rng):
    for _ in range(60):
        g = random_hyperdigraph(rng)
        rep = enumerate_repertoire(g)
        verdict = check_traversal_axioms(rep, g.node_count)
        assert verdict.passed, verdict.failures


def feasible_after(g, traversed: frozenset) -> frozenset:
    """Oracle of `successors` over frozensets: the nodes some edge whose
    sources are all traversed discovers and none eliminates, less those
    traversed."""
    discovered, eliminated = set(), set()
    for e in g.edges:
        if e.sources <= traversed:
            (eliminated if e.sign < 0 else discovered).add(e.target)
    return frozenset((discovered - eliminated) - traversed)


def oracle_repertoire(g) -> set:
    """Every traversal and prefix, by depth-first search over `feasible_after`."""
    out, stack = set(), [()]
    while stack:
        prefix = stack.pop()
        out.add(prefix)
        stack.extend(prefix + (x,) for x in feasible_after(g, frozenset(prefix)))
    return out


def test_successors_match_the_frozenset_oracle_on_every_set(rng):
    for _ in range(100):
        g = random_hyperdigraph(rng)
        after = successors(g)
        for state in range(1 << g.node_count):
            traversed = frozenset(v for v in range(g.node_count) if state >> v & 1)
            assert after(state) == sum(1 << v for v in feasible_after(g, traversed)), (g.edges, sorted(traversed))


def test_enumeration_matches_the_oracle_search(rng):
    for _ in range(200):
        g = random_hyperdigraph(rng)
        assert enumerate_repertoire(g) == oracle_repertoire(g), g.edges
    for _ in range(60):
        sprawl = random_small_sprawl(rng)
        g = reduce_to_signed(sprawl, Ball(tuple(rng.random(2)), float(rng.random())))
        assert enumerate_repertoire(g) == oracle_repertoire(g), g.edges


def test_axioms_small_examples():
    assert check_traversal_axioms({(), (0,), (0, 1)}, 2).passed
    bad = check_traversal_axioms({(0,)}, 1)
    assert not bad.passed
    assert bad.failures[0][0] == "T1"


def test_axioms_detect_interval_violation():
    # x continues the smallest and largest sets but not the middle one
    lang = {(), (0,), (1,), (0, 1), (1, 0), (2,), (0, 2), (0, 1, 2), (1, 0, 2)}
    lang.discard((0, 2))
    verdict = check_traversal_axioms(lang, 3)
    assert not verdict.passed
    assert any(tag == "T4" for tag, _ in verdict.failures)


def test_positive_only_traversals_cover_reachable(rng):
    import warnings

    for _ in range(40):
        g = random_hyperdigraph(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = SignedHyperdigraph(g.node_count, [e for e in g.edges if e.sign > 0])
        # fixpoint closure oracle for hyperpath reachability
        reach = set()
        changed = True
        while changed:
            changed = False
            for e in g.edges:
                if e.sources <= reach and e.target not in reach:
                    reach.add(e.target)
                    changed = True
        rep = enumerate_repertoire(g)
        maximal = [t for t in rep if not [o for o in rep if len(o) == len(t) + 1 and o[:-1] == t]]
        for t in maximal:
            assert set(t) == reach
        assert sorted(traverse(g)) == sorted(reach)


def test_explicit_order_reproduces_enumeration(rng):
    for _ in range(25):
        g = random_hyperdigraph(rng, max_nodes=5, max_edges=8)
        rep = enumerate_repertoire(g)
        for t in rep:
            assert tuple(traverse(g, Heuristic.explicit(t))) == t
        # and full explicit orders land inside the repertoire
        order = list(rng.permutation(g.node_count))
        assert tuple(traverse(g, Heuristic.explicit(order))) in rep


def test_priority_and_lifo():
    g = graph(3, ((), 0, 1), ((), 1, 1), ((), 2, 1))
    assert traverse(g, Heuristic.priority(lambda v: -v)) == [2, 1, 0]
    assert traverse(g, Heuristic.lifo()) == [2, 1, 0]
    assert traverse(g, Heuristic.fifo()) == [0, 1, 2]


def test_self_loop_warns():
    with pytest.warns(UserWarning):
        graph(2, ((0,), 0, 1))


def test_explicit_order_rejects_duplicates():
    with pytest.raises(ValueError):
        Heuristic.explicit([0, 0])


def test_debug_format_round_trip(rng):
    from sprawl.hypergraph import format_graph, parse_graph

    g = graph(4, ((), 0, 1), ((0,), 1, 1), ((0, 1), 2, -1), ((), 3, 1))
    text = format_graph(g)
    assert "+ 0 <-" in text and "- 2 <- 0 1" in text
    back = parse_graph(text)
    assert back.node_count == 4
    assert {(e.sources, e.target, e.sign) for e in back.edges} == {
        (e.sources, e.target, e.sign) for e in g.edges
    }
    assert traverse(g) == [0, 3, 1]
    with pytest.raises(ValueError):
        parse_graph("x 1 <- 2\n")


def _dense_fifo_run(plan, kills, **wave_callbacks):
    """Run FIFO over plan, where traversing v eliminates kills.get(v, ()).
    Given only `visit_wave`, the wave form fires each kept node's edge."""
    frontier = Frontier(plan, Heuristic.fifo())

    def fire(edge_ids):
        for i in edge_ids:
            frontier.eliminate(kills.get(i, ()))

    if "visit_wave" in wave_callbacks:
        wave_callbacks.setdefault("fire_wave", lambda vs: fire(vs.tolist()))  # edge i's source is i
    return frontier, frontier.run(fire, **wave_callbacks)


def test_dense_fifo_without_waves_never_touches_the_heap(monkeypatch):
    # five seeds; edge i has source i and eliminates kills[i], as a shell
    # group would: 0 rules out 1 and 3, then 2 rules out 4
    kills = {0: (1, 3), 2: (4,), 3: (4,)}
    edges = [(i, (i,)) for i in range(5)]
    heap_order = _dense_fifo_run(activation(edges, 5, range(5)), kills)[1]
    assert heap_order == [0, 2]

    class NoHeap:
        def __getattr__(self, name):
            raise AssertionError(f"a dense FIFO frontier called heapq.{name}")

    monkeypatch.setattr(hypergraph, "heapq", NoHeap())
    plan = activation(edges, 5, range(5), dense=True)
    assert plan.waves is None
    frontier, order = _dense_fifo_run(plan, kills)
    assert frontier.dense and order == heap_order and not frontier._heap
    frontier.cut(-1.0)  # FIFO has no bounds to cut by
    assert frontier._limit == np.inf


def test_dense_fifo_with_waves_keeps_the_wave_form():
    edges = [(i, (i,)) for i in range(4)]
    plan = activation(edges, 4, range(4), dense=True)._replace(waves=Waves(frozenset(), {}, {}), span=4)
    waves = []

    def visit_wave(vs):
        waves.append(list(vs))
        return vs

    frontier, order = _dense_fifo_run(plan, {}, visit=None, visit_wave=visit_wave, fire_wave=lambda vs: None)
    assert not frontier.dense and waves == [[0, 1, 2, 3]] and order == [0, 1, 2, 3]
    # "bound" still selects densely over the same plan
    assert Frontier(plan, Heuristic("bound")).dense


def test_every_form_keeps_one_status_store():
    # the plan above in the heap, dense and wave forms: each selects its own
    # way, but done and traversed read the same status bytes, and agree
    kills = {0: (1, 3), 2: (4,), 3: (4,)}
    plan = activation([(i, (i,)) for i in range(5)], 5, range(5), dense=True)
    apart = {0: {1, 3}, 1: {0}, 2: {4}, 3: {0, 4}, 4: {2, 3}}  # who eliminates whom, both ways
    waves = Waves(frozenset(), {v: frozenset(vs) for v, vs in apart.items()}, {})
    runs = {
        "heap": _dense_fifo_run(plan._replace(positions=None), kills),
        "dense": _dense_fifo_run(plan, kills),
        "wave": _dense_fifo_run(plan._replace(waves=waves), kills, visit_wave=lambda vs: vs),
    }
    forms = {name: (f.dense, f._queue is not None) for name, (f, _) in runs.items()}
    assert forms == {"heap": (False, False), "dense": (True, False), "wave": (False, True)}
    for frontier, order in runs.values():
        assert order == [0, 2]
        assert [v for v in range(5) if v in frontier.done] == [0, 1, 2, 3, 4]
        assert [v for v in range(5) if v in frontier.traversed] == [0, 2]


def test_traverse_keeps_status_for_nodes_no_edge_names(monkeypatch):
    # nodes 2..5 appear in no edge; the status bytes still cover them
    g = graph(6, ((), 0, 1), ((0,), 1, 1))
    frontiers = []
    run = Frontier.run

    def kept(self, *args, **kwargs):
        frontiers.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Frontier, "run", kept)
    assert traverse(g) == [0, 1]
    (frontier,) = frontiers
    assert [v for v in range(6) if v in frontier.done] == [0, 1]
    assert [v for v in range(6) if v in frontier.traversed] == [0, 1]
