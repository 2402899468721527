"""The verification-lab battery: the code paths that never call `search`.

Each family checks its verdicts against an oracle of its own:

(a) random signed hyperdigraphs: `enumerate_repertoire`, then the axiom
    checker `check_traversal_axioms` must pass;
(b) DNF gadgets over at most three variables: `check_correct_small` must
    agree with the truth table (`is_tautology`);
(c) random small sprawls: the repertoire for a smaller ball must be a
    subset of the one for a larger ball around the same centre;
(d) ball-tree indexes of a few hundred uniform points: a FIFO `traverse`
    of the `reduce_to_signed` graph must cover every `linear_scan` member;
(e) training sets on foci of those points: `build_training_set`,
    `optimal_facet`, `hull_ambit`, `cluster_facets`, and `min_radius`,
    whose radius must equal its packing-form twin within 1e-9.

The battery is the same in every run: its inputs come from a constant
seed, not from the workload's, so that `lab_s` compares equal work across
runs and seeds. Every call goes through the module attribute so the tracer
sees it.
"""
from __future__ import annotations

import itertools

import numpy as np

from sprawl import engine, hypergraph, optimize
from sprawl.comparison import Ball, EuclideanSpace, feature_map

HYPERDIGRAPHS = 200
DNF_FORMULAS = 300
MONOTONE_SPRAWLS = 60
TREE_POINTS = 300
TREE_QUERIES = 20
TRAINING_SETS = 20
LAB_SEED = 7


class Tally:
    """Verdicts checked and verdicts that disagree with their oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.states = 0  # traversal sequences enumerated in (a) and (c)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _dnf_clauses():
    lits = [(v, pol) for v in range(3) for pol in (True, False)]
    return [frozenset(c) for size in (1, 2, 3) for c in itertools.combinations(lits, size)]


def run_lab() -> Tally:
    rng = np.random.default_rng(LAB_SEED)
    tally = Tally()

    for _ in range(HYPERDIGRAPHS):
        g = hypergraph.random_hyperdigraph(rng, max_nodes=6, max_edges=10)
        rep = hypergraph.enumerate_repertoire(g)
        tally.states += len(rep)
        tally.check(hypergraph.check_traversal_axioms(rep, g.node_count).passed)

    clauses = _dnf_clauses()
    for _ in range(DNF_FORMULAS):
        picks = rng.choice(len(clauses), size=int(rng.integers(1, 4)), replace=False)
        formula = tuple(clauses[i] for i in sorted(picks))
        sprawl, workload = engine.build_dnf_gadget(formula)
        verdict = engine.check_correct_small(sprawl, workload).correct
        tally.check(verdict == engine.is_tautology(formula, 3))

    for _ in range(MONOTONE_SPRAWLS):
        sprawl = engine.random_small_sprawl(rng)
        centre = tuple(rng.random(2))
        r1 = float(rng.random() * 0.6)
        r2 = r1 + float(rng.random())
        small = hypergraph.enumerate_repertoire(engine.reduce_to_signed(sprawl, Ball(centre, r1)))
        big = hypergraph.enumerate_repertoire(engine.reduce_to_signed(sprawl, Ball(centre, r2)))
        tally.states += len(small) + len(big)
        tally.check(small <= big)

    space = EuclideanSpace(rng.random((TREE_POINTS, 8)))
    nodes = range(TREE_POINTS)
    tree, _ = engine.build_classic(space, nodes, "ball-tree")
    kth = max(1, TREE_POINTS // 100)
    for c in rng.random((TREE_QUERIES, 8)):
        radius = float(np.partition(space.distances_from(c, nodes), kth - 1)[kth - 1])
        query = Ball(tuple(c), radius)
        order = hypergraph.traverse(engine.reduce_to_signed(tree, query))
        covered = {tree.nodes[i] for i in order}
        tally.check(set(engine.linear_scan(space, nodes, query)) <= covered)

    for i in range(TRAINING_SETS):
        m = 2 + i % 2
        picked = [int(v) for v in rng.choice(TREE_POINTS, size=m + 20, replace=False)]
        foci, responsibilities = picked[:m], picked[m : m + 20]
        queries = [tuple(c) for c in rng.random((20, 8))]
        t = optimize.build_training_set(space, foci, responsibilities, queries[:10])
        optimize.optimal_facet(t)
        optimize.hull_ambit(t)
        features = np.array([feature_map(space, foci, q).values for q in queries])
        optimize.cluster_facets(t, features, k=3, seed=i)
        mr = optimize.min_radius(t)
        tally.check(abs(mr.radius - mr.packing_radius) <= 1e-9)
    return tally
