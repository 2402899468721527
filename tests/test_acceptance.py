"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""
import itertools
import json
import time

import numpy as np
import pytest

from sprawl.ambit import (
    Ambit,
    HamacherMap,
    LinearMap,
    MetaballMap,
    PowerMap,
    overlap_linear,
    overlap_radients,
    table1_region,
)
from sprawl.comparison import Ball, EuclideanSpace, ExplicitSetQuery, Workload, build_hardness_gadget
from sprawl.engine import (
    build_classic,
    build_dnf_gadget,
    check_correct_small,
    check_responsibility,
    emulate_from_traces,
    is_tautology,
    linear_scan,
    random_small_sprawl,
    reduce_to_signed,
    search,
    sprawl_trace_oracle,
)
from sprawl.hypergraph import check_traversal_axioms, enumerate_repertoire, random_hyperdigraph
from sprawl.optimize import (
    TrainingSet,
    gift_wrap_2d,
    hull_ambit,
    min_radius,
    optimal_facet,
    two_approx_foci,
)
from sprawl.storage import index_document, index_from_document

from conftest import radients


def report(num: int, name: str, detail: str = ""):
    print(f"ACCEPTANCE {num} ({name}): PASS{' — ' + detail if detail else ''}")


# --- 1. exactness -----------------------------------------------------------------


def test_criterion_1_exactness():
    t_start = time.monotonic()
    rng = np.random.default_rng(1)
    n = 2000
    space = EuclideanSpace(rng.random((n, 8)))
    centers = rng.random((100, 8))
    # radius = exact 20th-NN distance: selectivity 20/2000 = 1% per query
    radii = [float(np.partition(space.distances_from(c, range(n)), 19)[19]) for c in centers]
    oracle = [set(linear_scan(space, range(n), Ball(tuple(c), r))) for c, r in zip(centers, radii)]
    mean_dc = {}
    for kind, params in [
        ("ball-tree", {}),
        ("aesa", {}),
        ("laesa", {"pivots": 8}),
        ("pm-tree", {"pivots": 8}),
    ]:
        sprawl, _ = build_classic(space, range(n), kind, **params)
        dcs = []
        for c, r, want in zip(centers, radii, oracle):
            got = search(sprawl, Ball(tuple(c), r))
            assert set(got.members) == want, f"{kind} differs from the scan oracle"
            dcs.append(got.distance_computations)
        mean_dc[kind] = float(np.mean(dcs))
    assert mean_dc["aesa"] < 0.5 * n, mean_dc
    assert mean_dc["laesa"] < 0.5 * n, mean_dc
    elapsed = time.monotonic() - t_start
    assert elapsed < 60.0, f"criterion took {elapsed:.1f}s"
    report(
        1,
        "exactness",
        f"4 kinds x 100 queries exact; mean distance computations "
        f"{ {k: round(v, 1) for k, v in mean_dc.items()} }; {elapsed:.1f}s",
    )


# --- 2. overlap soundness ----------------------------------------------------------


def test_criterion_2_overlap_soundness():
    rng = np.random.default_rng(2)
    space = EuclideanSpace(rng.random((60, 3)))
    trials = 10_000

    def planted_ball(kind):
        u = int(rng.integers(0, 60))
        m = 2 if kind == "hamacher" else int(rng.integers(1, 4))
        foci = tuple(int(v) for v in rng.choice(60, size=m, replace=False))
        x = np.array([space.compare(p, u) for p in foci])
        s = float(rng.random() * 0.8)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        center = space.value(u) + direction * (s * rng.random())
        return u, foci, x, center, s

    def overlaps(region, center, s):
        return overlap_radients(region, radients(space, region, center), s)

    failures = 0
    for _ in range(trials):
        u, foci, x, center, s = planted_ball("linear")
        rows = rng.normal(size=(int(rng.integers(1, 4)), len(foci)))
        radii = rows @ x + rng.random(rows.shape[0])
        region = Ambit(foci, LinearMap(rows), tuple(radii))
        failures += not overlaps(region, center, s)
    for _ in range(trials):
        u, foci, x, center, s = planted_ball("power")
        w = rng.random(len(foci)) + 0.05
        pm = PowerMap(w, float(rng.choice([0.25, 0.5, 0.75, 1.0])))
        region = Ambit(foci, pm, (float(pm.remoteness(x)[0]) + rng.random() * 0.3,))
        failures += not overlaps(region, center, s)
        mm = MetaballMap(rng.random(len(foci)) + 0.2)
        region = Ambit(foci, mm, (float(mm.remoteness(x)[0]) + rng.random() * 0.2,))
        failures += not overlaps(region, center, s)
    for _ in range(trials):
        u, foci, x, center, s = planted_ball("hamacher")
        hm = HamacherMap()
        region = Ambit(foci, hm, (float(hm.remoteness(x)[0]) + rng.random() * 0.2,))
        failures += not overlaps(region, center, s)
    for _ in range(trials):
        # common point of a linear region and a linear (non-ball) query
        u = int(rng.integers(0, 60))
        m, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ids = rng.choice(60, size=m + k, replace=False)
        rfoci = tuple(int(v) for v in ids[:m])
        qfoci = tuple(int(v) for v in ids[m:])
        x = np.array([space.compare(p, u) for p in rfoci])
        y = np.array([space.compare(u, q) for q in qfoci])
        rows = rng.normal(size=(int(rng.integers(1, 3)), m))
        radii = rows @ x + rng.random(rows.shape[0]) * 0.5
        region = Ambit(rfoci, LinearMap(rows), tuple(radii))
        c = rng.random(k) + 0.05  # non-negative query side
        qradius = float(c @ y) + float(rng.random() * 0.4)
        query = Ambit(qfoci, LinearMap([c]), (qradius,), "backward")
        Z = np.array([[space.compare(p, q) for q in qfoci] for p in rfoci])
        failures += not overlap_linear(region, query, Z)
    assert failures == 0
    report(2, "overlap soundness", f"{4 * trials + trials} planted pairs, 0 false negatives")


# --- 3. Table-1 closed forms ---------------------------------------------------------


def test_criterion_3_table1_reductions():
    grid = np.linspace(0.0, 3.0, 10)
    cases = 0
    for r in grid:
        for s in grid:
            for z in grid:
                ball = table1_region("ball", (0,), r=r)
                assert overlap_radients(ball, [z], s) == (r + s >= z - 1e-9)
                sphere = table1_region("sphere", (0,), r=r)
                assert overlap_radients(sphere, [z], s) == (s >= abs(z - r) - 1e-9)
                cases += 1
    plane = table1_region("plane", (0, 1))
    for z1 in grid:
        for z2 in grid:
            for s in grid[:5]:
                assert overlap_radients(plane, [z1, z2], s) == (s >= (z1 - z2) / 2.0 - 1e-9)
                cases += 1
    assert cases >= 1000
    report(3, "table-1 reductions", f"{cases} grid cases, exact agreement")


# --- 4. traversal theory ----------------------------------------------------------------


def test_criterion_4_traversal_theory():
    rng = np.random.default_rng(4)
    for i in range(200):
        g = random_hyperdigraph(rng, max_nodes=6, max_edges=10)
        verdict = check_traversal_axioms(enumerate_repertoire(g), g.node_count)
        assert verdict.passed, (i, verdict.failures[:2])
    violations = 0
    for i in range(50):
        sprawl = random_small_sprawl(rng)
        center = tuple(rng.random(2))
        r1 = float(rng.random() * 0.6)
        r2 = r1 + float(rng.random())
        small = enumerate_repertoire(reduce_to_signed(sprawl, Ball(center, r1)))
        big = enumerate_repertoire(reduce_to_signed(sprawl, Ball(center, r2)))
        assert small <= big, f"sprawl {i}: monotonicity violated"
    report(4, "traversal theory", "200 graphs pass T1-T4; 50 sprawls monotone")


# --- 5. DNF gadget ------------------------------------------------------------------------


def test_criterion_5_dnf_gadget():
    lits = [(v, pol) for v in range(3) for pol in (True, False)]
    clauses = []
    for size in (1, 2, 3):
        clauses.extend(frozenset(c) for c in itertools.combinations(lits, size))
    checked = 0
    for k in (1, 2, 3):
        for combo in itertools.combinations(range(len(clauses)), k):
            formula = tuple(clauses[i] for i in combo)
            sprawl, workload = build_dnf_gadget(formula)
            want = is_tautology(formula, 3)
            got = check_correct_small(sprawl, workload).correct
            assert got == want, formula
            checked += 1
    report(5, "dnf gadget", f"{checked} formulas, verdicts match the truth table")


# --- 6. responsibility implies correctness ---------------------------------------------------


def test_criterion_6_responsibility_implies_correct():
    rng = np.random.default_rng(6)
    kinds = [("ball-tree", {}), ("aesa", {}), ("pm-tree", {"pivots": 2}), ("laesa", {"pivots": 2})]
    for i in range(50):
        n = int(rng.integers(4, 7))
        space = EuclideanSpace(rng.random((n, 2)))
        kind, params = kinds[i % len(kinds)]
        sprawl, res = build_classic(space, range(n), kind, **params)
        singles = tuple(ExplicitSetQuery(frozenset({v})) for v in sprawl.nodes)
        extra = (Ball(tuple(rng.random(2)), float(rng.random())),)
        workload = Workload(singles + extra, atomistic=True)
        assert check_responsibility(sprawl, res, workload).passed, (i, kind)
        assert check_correct_small(sprawl, workload).correct, (i, kind)
    report(6, "responsibility => correctness", "50 responsible instances all correct")


# --- 7. LP suite ------------------------------------------------------------------------------


def test_criterion_7_lp_suite():
    # oracles: exact candidate enumeration for every m (the objective is a
    # min of linear functions, so all candidate optima can be listed), plus
    # a literal dense grid where one is feasible (m <= 2; at m = 3 a grid
    # fine enough for 1e-4 would need ~1e9 points)
    from test_optimize import dense_grid_ell, oracle_best_ell

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 21))
        X = rng.random((m, n)) * 2.0 + 0.1
        zhat = rng.random(m) * 3.0
        t = TrainingSet(X, zhat)
        got = optimal_facet(t).ell
        want = max(oracle_best_ell(X, zhat), 0.0)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-4, (got, want)
        if m <= 2:
            grid = max(dense_grid_ell(X, zhat, step=1e-5), 0.0)
            assert abs(got - grid) <= 1e-4, (got, grid)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 15))
        t = TrainingSet(rng.random((m, n)) * 2.0 + 0.1, np.zeros(m))
        mr = min_radius(t)
        assert abs(mr.radius - mr.packing_radius) <= 1e-9
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 15))
        X = rng.random((m, n)) * 2.0 + 0.1
        zhat = np.max(X, axis=1) + rng.random(m) + 0.01
        got = optimal_facet(TrainingSet(X, zhat))
        assert np.min(got.a) >= -1e-9
    report(7, "lp suite", f"50 grid matches (max gap {worst:.2e}); 100+100 radius/sign checks")


# --- 8. hull ------------------------------------------------------------------------------------


def _oracle_facets(points: np.ndarray):
    idx = gift_wrap_2d(points)
    verts = points[idx]
    k = len(verts)
    facets = set()
    for i in range(k):
        p, q = verts[i], verts[(i + 1) % k]
        d = q - p
        normal = np.array([d[1], -d[0]])
        if np.max(points @ normal) > normal @ p + 1e-9:
            normal = -normal
        norm = np.linalg.norm(normal)
        facets.add((tuple(np.round(normal / norm, 9)), round(float(normal @ p) / norm, 9)))
    return facets


def test_criterion_8_hull():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(4, 25))
        X = rng.random((2, n)) * 3.0 + 0.2
        region = hull_ambit(TrainingSet(X, np.zeros(2)))
        got = set()
        for row, r in zip(region.map.matrix, region.radii):
            norm = np.linalg.norm(row)
            got.add((tuple(np.round(row / norm, 9)), round(float(r) / norm, 9)))
        assert got == _oracle_facets(X.T)
    # minimality: the hull sits inside every valid competitor ambit
    X = rng.random((2, 30)) + 0.1
    region = hull_ambit(TrainingSet(X, np.zeros(2)))
    verts = X.T[gift_wrap_2d(X.T)]
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        rows = rng.normal(size=(k, 2))
        radii = np.max(rows @ X, axis=1) + rng.random(k) * 0.5
        assert np.all(rows @ verts.T <= radii[:, None] + 1e-9)
    report(8, "hull", "100 gift-wrapping matches; 1000 competitor inclusions")


# --- 9. 2-approximation ---------------------------------------------------------------------------


def test_criterion_9_two_approximation():
    rng = np.random.default_rng(9)
    for i in range(50):
        m = 2 if i % 2 == 0 else 3
        total = int(rng.integers(m + 2, 11))
        space = EuclideanSpace(rng.random((total, 3)))
        got = two_approx_foci(space, range(total), m)
        best = np.inf
        for foci in itertools.combinations(range(total), m):
            rest = [v for v in range(total) if v not in foci]
            X = np.array([space.distances_from(p, rest) for p in foci])
            if np.any(np.all(X == 0.0, axis=0)):
                continue
            best = min(best, min_radius(TrainingSet(X, np.zeros(m))).radius)
        assert got.radius <= 2.0 * best + 1e-9
    # planted dominating set {0, 1}: each remaining node adjacent to one of them
    adjacency = [{2, 3}, {4, 5}, {0}, {0}, {1}, {1}]
    space, _ = build_hardness_gadget(adjacency, 0.5)
    for dom in ([0, 1],):
        m = len(dom)
        rest = [v for v in range(6) if v not in dom]
        X = np.array([space.distances_from(p, rest) for p in dom])
        got = min_radius(TrainingSet(X, np.zeros(m)))
        assert got.radius <= 3.0 - 1.0 / m + 1e-9
    report(9, "2-approximation", "50 instances within 2x; gadget radius <= 3 - 1/m")


# --- 10. metric preservation ------------------------------------------------------------------------


def test_criterion_10_metric_preservation():
    rng = np.random.default_rng(10)
    space = EuclideanSpace(rng.random((40, 2)))

    def composed(mapping, ta, tb):
        feats = np.array([space.compare(a, b) for a, b in zip(ta, tb)])
        return float(mapping.remoteness(feats)[0])

    for alpha in (0.25, 0.5, 0.75, 1.0):
        mapping = PowerMap(rng.random(2) + 0.1, alpha)
        for _ in range(2500):
            ids = rng.integers(0, 40, size=(3, 2))
            assert composed(mapping, ids[0], ids[2]) <= composed(
                mapping, ids[0], ids[1]
            ) + composed(mapping, ids[1], ids[2]) + 1e-9
    mapping = MetaballMap(rng.random(2) + 0.2)
    for _ in range(10_000):
        ids = rng.integers(0, 40, size=(3, 2))
        assert composed(mapping, ids[0], ids[2]) <= composed(
            mapping, ids[0], ids[1]
        ) + composed(mapping, ids[1], ids[2]) + 1e-9
    # Hamacher: find and record a violating triple
    hspace = EuclideanSpace(rng.random((40, 2)) * 0.5)
    hm = HamacherMap()
    witness = None
    for _ in range(20_000):
        ids = rng.integers(0, 40, size=(3, 2))
        duw = composed_h = None
        duw = float(hm.remoteness(np.array([hspace.compare(ids[0][0], ids[2][0]),
                                            hspace.compare(ids[0][1], ids[2][1])]))[0])
        duv = float(hm.remoteness(np.array([hspace.compare(ids[0][0], ids[1][0]),
                                            hspace.compare(ids[0][1], ids[1][1])]))[0])
        dvw = float(hm.remoteness(np.array([hspace.compare(ids[1][0], ids[2][0]),
                                            hspace.compare(ids[1][1], ids[2][1])]))[0])
        if duw > duv + dvw + 1e-9:
            witness = (ids.tolist(), duw, duv, dvw)
            break
    assert witness is not None, "expected a Hamacher triangle violation"
    report(
        10,
        "metric preservation",
        f"power/metaball pass 10k triples at 1e-9; hamacher violation recorded: "
        f"pairs {witness[0]}, {witness[1]:.4f} > {witness[2]:.4f} + {witness[3]:.4f}",
    )


# --- 11. round trips -----------------------------------------------------------------------------------


def test_criterion_11_round_trips():
    rng = np.random.default_rng(11)
    space = EuclideanSpace(rng.random((40, 2)))
    for kind, params in [
        ("ball-tree", {}),
        ("aesa", {}),
        ("laesa", {"pivots": 4}),
        ("pm-tree", {"pivots": 4}),
    ]:
        sprawl, res = build_classic(space, range(40), kind, **params)
        doc = json.loads(json.dumps(index_document(sprawl, res)))
        loaded, loaded_res = index_from_document(doc)
        assert loaded.nodes == sprawl.nodes
        for (_, a), (_, b) in zip(sprawl.iter_logical_edges(), loaded.iter_logical_edges()):
            assert a == b  # region parameters compare bit-exactly
        assert loaded_res.edge_to_nodes == res.edge_to_nodes
    original, _ = build_classic(space, range(40), "ball-tree")
    emulated = emulate_from_traces(space, range(40), sprawl_trace_oracle(original))
    for v in range(40):
        q = Ball(tuple(space.points[v]), 0.0)
        assert search(emulated, q).members == search(original, q).members
    report(11, "round trips", "4 index kinds bit-exact; emulated ball-tree matches on 40 singletons")
