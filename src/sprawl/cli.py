"""Command-line surface: build, query, bench, verify, optimize, plot, gen.

Exit codes: 0 success, 1 verification failure, 2 usage (including a
request beyond a size cap or one an index cannot serve soundly), 3 IO/parse.
Every subcommand is deterministic for a fixed --seed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import engine, optimize, plotting, storage
from .ambit import Ambit, HamacherMap, LinearMap, MetaballMap, PowerMap, table1_region
from .comparison import Ball, EuclideanSpace, MatrixSpace, ProjectionSpace, StringSpace, Workload
from .errors import CapabilityError, FormatError, SizeLimitError
from .hypergraph import (
    check_traversal_axioms,
    enumerate_repertoire,
    parse_graph,
    random_hyperdigraph,
)


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.replace(",", " ").split()], dtype=float)
    except ValueError:
        raise FormatError(f"bad point {text!r}") from None


def _parse_foci_xy(text: str) -> np.ndarray:
    foci = np.array([_parse_point(part) for part in text.split(";")], dtype=float)
    if not np.isfinite(foci).all():  # no point is at a finite distance from such a focus: a blank plot
        raise FormatError("--foci must be finite numbers")
    return foci


def _load_space(args):
    fmt = getattr(args, "format", "points")
    if fmt == "strings":
        strings = storage.load_strings(args.dataset)
        return StringSpace(strings), len(strings)
    if fmt == "matrix":
        matrix = storage.load_matrix(args.dataset)
        return MatrixSpace(matrix), matrix.shape[0]
    pts = storage.load_points(args.dataset)
    if args.kind == "sorted-interval-tree":
        if pts.shape[1] != 1:
            raise FormatError("sorted-interval-tree needs a 1-d dataset")
        return ProjectionSpace(pts), pts.shape[0]
    return EuclideanSpace(pts, p=args.p), pts.shape[0]


def cmd_gen(args) -> int:
    pts = storage.gen_points(args.kind, args.count, args.dims, args.seed, args.clusters, args.spread)
    storage.save_points(args.out, pts)
    print(f"wrote {pts.shape[0]} x {pts.shape[1]} {args.kind} points to {args.out}")
    return 0


def cmd_build(args) -> int:
    space, count = _load_space(args)
    params = {}
    if args.kind in ("laesa", "pm-tree"):
        params["pivots"] = args.pivots
    if args.kind in ("ball-tree", "pm-tree"):
        params["arity"] = args.arity
    sprawl, res = engine.build_classic(space, range(count), args.kind, **params)
    storage.save_index(args.out, sprawl, res)
    fans = sprawl.fans
    print(
        f"built {args.kind} over {len(sprawl.nodes)} points: {len(sprawl.edges)} edges + "
        f"{fans.found_rows} ball edges + {len(fans) - fans.found_rows} grouped shell edges -> {args.out}"
    )
    return 0


def _query_from_args(args, space) -> Ball:
    def center_of(spec: str):
        if isinstance(space, StringSpace):
            return spec
        if isinstance(space, MatrixSpace):  # no coordinates: the centre is an indexed point
            if not spec.isdecimal() or int(spec) >= len(space):
                raise FormatError(f"centre {spec!r} is not a point ref of this matrix index")
            return int(spec)
        return _parse_point(spec)

    if args.ball:
        spec, _, radius = args.ball.rpartition(":")
        if not spec:
            raise FormatError("--ball needs the form c1,c2,...:radius")
        return Ball(center_of(spec), float(radius))
    if args.knn:
        if not args.center:
            raise FormatError("--knn needs --center")
        return Ball(center_of(args.center), 0.0, k=args.knn)
    raise FormatError("need --ball or --knn")


def cmd_query(args) -> int:
    sprawl, _ = storage.load_index(args.index)
    query = _query_from_args(args, sprawl.space)
    result = engine.search(sprawl, query)
    print(f"members: {' '.join(str(v) for v in result.members)}")
    print(
        f"traversed {result.traversed} nodes, "
        f"{result.distance_computations} distance computations, "
        f"{result.region_evaluations} region evaluations"
    )
    return 0


@dataclass
class BenchReport:
    """Per-query counts and wall-clock times plus aggregates, checked
    against the scan oracle."""

    sizes: np.ndarray
    traversed: np.ndarray
    distance_computations: np.ndarray
    oracle_agreement: bool
    false_negatives: int  # scan-oracle members the exact search missed, over all queries
    search_ms: np.ndarray
    scan_ms: np.ndarray

    def lines(self):
        yield f"queries: {len(self.sizes)}  oracle agreement: {str(self.oracle_agreement).lower()}"
        for name, col in (
            ("result size", self.sizes),
            ("traversed", self.traversed),
            ("distance comps", self.distance_computations),
        ):
            yield (
                f"{name}: mean {col.mean():.2f}  median {np.median(col):.2f}  "
                f"p95 {np.percentile(col, 95):.2f}"
            )

    def clock_lines(self):
        """The times of `search` and of the `linear_scan` baseline, which
        differ from run to run, unlike `lines`."""
        for name, col in (("search ms", self.search_ms), ("scan ms", self.scan_ms)):
            yield f"{name}: p50 {np.median(col):.3f}  p95 {np.percentile(col, 95):.3f}"


def run_bench(sprawl, queries, knn: bool) -> BenchReport:
    rows = []
    agree = True
    missed = 0
    for query in queries:
        t0 = perf_counter()
        got = engine.search(sprawl, query)
        t1 = perf_counter()
        want = engine.linear_scan(sprawl.space, sprawl.nodes, query)
        t2 = perf_counter()
        ok = tuple(got.members) == tuple(want) if knn else set(got.members) == set(want)
        missed += len(set(want) - set(got.members))
        agree = agree and ok
        rows.append((len(got.members), got.traversed, got.distance_computations, 1e3 * (t1 - t0), 1e3 * (t2 - t1)))
    sizes, traversed, dists_, search_ms, scan_ms = (np.array(col, dtype=float) for col in zip(*rows))
    return BenchReport(sizes, traversed, dists_, agree, missed, search_ms, scan_ms)


def cmd_bench(args) -> int:
    sprawl, _ = storage.load_index(args.index)
    space = sprawl.space
    rng = np.random.default_rng(args.seed)
    if isinstance(space, (EuclideanSpace, ProjectionSpace)):
        pts = np.asarray([space.value(v) for v in sprawl.nodes], dtype=float)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        centers = [lo + rng.random(pts.shape[1]) * (hi - lo) for _ in range(args.queries)]
    else:
        # matrix and string spaces have no coordinates to sample: centre on indexed points
        centers = [int(v) for v in rng.choice(sprawl.nodes, size=args.queries)]
    queries = []
    for center in centers:
        if args.knn:
            queries.append(Ball(center, 0.0, k=args.knn))
        else:
            dists = space.distances_from(center, sprawl.nodes)
            k = max(1, int(round(args.selectivity * len(sprawl.nodes))))
            queries.append(Ball(center, float(np.partition(dists, k - 1)[k - 1])))
    report = run_bench(sprawl, queries, knn=bool(args.knn))
    for line in report.lines():
        print(line)
    for line in report.clock_lines():  # on stderr, so that stdout stays the same for a seed
        print(line, file=sys.stderr)
    if report.false_negatives:
        print(
            f"error: exact search missed {report.false_negatives} points the scan oracle found",
            file=sys.stderr,
        )
    return 0 if report.oracle_agreement else 1


def _dnf_verdicts(text: str, cap: int):
    """(variable names, gadget sprawl, truth-table verdict, correctness
    report) for a DNF formula: the two verdicts agree on a sound gadget."""
    formula, names = engine.parse_dnf(text)
    sprawl, workload = engine.build_dnf_gadget(formula, cap=cap)
    taut = engine.is_tautology(formula, len(names))
    return names, sprawl, taut, engine.check_correct_small(sprawl, workload, cap=cap)


def cmd_verify(args) -> int:
    if args.dnf:
        _, _, taut, report = _dnf_verdicts(args.dnf, args.cap)
        print(f"tautology: {str(taut).lower()}  sprawl-correct: {str(report.correct).lower()}")
        if taut != report.correct:
            print("MISMATCH between truth table and traversal verdicts")
            return 1
        return 0
    if args.graph:
        with open(args.graph) as fh:
            g = parse_graph(fh.read())
        verdict = check_traversal_axioms(enumerate_repertoire(g, cap=args.cap), g.node_count)
        print(f"graph axioms: {'pass' if verdict.passed else 'fail'}")
        for failure in verdict.failures[:5]:
            print(f"  {failure}")
        return 0 if verdict.passed else 1
    if args.axioms:
        rng = np.random.default_rng(args.seed)
        for i in range(args.count):
            g = random_hyperdigraph(rng)
            rep = enumerate_repertoire(g)
            verdict = check_traversal_axioms(rep, g.node_count)
            if not verdict.passed:
                print(f"graph {i}: axiom failures {verdict.failures[:3]}")
                return 1
        print(f"axioms: pass ({args.count} random signed hyperdigraphs)")
        return 0
    if args.responsibility:
        if not args.index:
            raise FormatError("--responsibility needs --index")
        sprawl, res = storage.load_index(args.index)
        if res is None:
            print("index file carries no responsibility assignment")
            return 1
        queries = tuple(engine.ExplicitSetQuery(frozenset({v})) for v in sprawl.nodes)
        report = engine.check_responsibility(sprawl, res, Workload(queries, atomistic=True))
        print(f"responsibility: {'pass' if report.passed else 'fail'}")
        for violation in report.violations[:5]:
            print(f"  {violation}")
        return 0 if report.passed else 1
    if args.properties:
        rng = np.random.default_rng(args.seed)
        for i in range(args.count):
            sprawl = engine.random_small_sprawl(rng)
            center = rng.random(2)
            r1 = float(rng.random())
            r2 = r1 + float(rng.random())
            small = enumerate_repertoire(engine.reduce_to_signed(sprawl, Ball(center, r1)))
            big = enumerate_repertoire(engine.reduce_to_signed(sprawl, Ball(center, r2)))
            if not small <= big:
                print(f"sprawl {i}: monotonicity violated")
                return 1
        print(f"monotonicity: pass ({args.count} random sprawls)")
        return 0
    raise FormatError("choose one of --axioms, --dnf, --responsibility, --properties, --graph")


def cmd_optimize(args) -> int:
    pts = storage.load_points(args.dataset)
    space = EuclideanSpace(pts, p=args.p)
    foci = [int(v) for v in args.foci.split(",")]
    for f in foci:
        if not 0 <= f < pts.shape[0]:
            raise FormatError(f"focus {f} is not a point of this {pts.shape[0]}-point dataset")
    refs = [v for v in range(pts.shape[0]) if v not in foci]
    if not refs:
        raise FormatError("the foci are every point of the dataset; none is left to train the region on")
    rng = np.random.default_rng(args.seed)
    if args.queries_file:
        queries = [tuple(q) for q in storage.load_points(args.queries_file)]
    else:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        queries = [tuple(lo + rng.random(pts.shape[1]) * (hi - lo)) for _ in range(args.sample_queries)]
    training = optimize.build_training_set(space, foci, refs, queries)
    if args.facets > 1:
        feats = np.array([[space.compare(p, q) for p in foci] for q in queries], dtype=float)
        region = optimize.cluster_facets(training, feats, args.facets, mode=args.mode, seed=args.seed)
        facet = None
    else:
        facet = optimize.optimal_facet(training)
        if float(np.sum(np.abs(facet.a))) <= 1e-9:
            mr = optimize.min_radius(training)  # degenerate: report a covering facet
            region = Ambit(tuple(foci), LinearMap([mr.a]), (mr.radius,))
        else:
            region = Ambit(tuple(foci), LinearMap([facet.a]), (facet.r,))
    doc = storage.describe_region(region)
    report = {
        "facets": len(region.radii),
        "ell_opt": None if facet is None else facet.ell,
        "degenerate": None if facet is None else facet.degenerate,
    }
    print(json.dumps({"region": doc, "report": report}, indent=1))
    return 0


def cmd_plot(args) -> int:
    if args.index:
        sprawl, _ = storage.load_index(args.index)
        space = sprawl.space
        if not isinstance(space, EuclideanSpace) or space.dimension != 2:
            raise FormatError("plotting an index needs a 2-d euclidean space")
        try:
            edge = sprawl.logical_edge(args.edge)
        except IndexError:
            raise FormatError(f"edge {args.edge} is out of range") from None
        regions = [r for r in edge.positive + edge.negative if isinstance(r, Ambit)]
        if not regions:
            raise FormatError(f"edge {args.edge} carries no ambit region")
        region = regions[0]
        foci_xy = np.array([space.points[f] for f in region.foci])
    else:
        if not args.foci:
            raise FormatError("need --foci (or --index)")
        foci_xy = _parse_foci_xy(args.foci)
        region = _region_from_args(args, foci_xy.shape[0])
    bounds = tuple(float(v) for v in args.bounds.split(","))
    finite = len(bounds) == 4 and np.isfinite(bounds).all()
    if not (finite and bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        raise FormatError("--bounds needs finite xmin,xmax,ymin,ymax with each max above its min")
    svg = plotting.region_svg(region, foci_xy, bounds, args.resolution)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(svg)
    return 0


def _region_from_args(args, m: int) -> Ambit:
    if not math.isfinite(args.radius):  # a NaN or infinite radius leaves the plot without a boundary
        raise FormatError("--radius must be a finite number, not nan or inf")
    foci = tuple(range(m))
    weights = [float(w) for w in args.weights.split(",")] if args.weights else [1.0] * m
    if args.map == "power":
        return Ambit(foci, PowerMap(weights, args.alpha), (args.radius,))
    if args.map == "metaball":
        return Ambit(foci, MetaballMap([args.a] * m), (args.radius,))
    if args.map == "hamacher":
        return Ambit(foci, HamacherMap(), (args.radius,))
    if args.map in ("ball", "sphere", "ellipse", "plane", "hyperbola"):
        params = {} if args.map == "plane" else {"r": args.radius}
        return table1_region(args.map, foci, **params)
    return Ambit(foci, LinearMap([weights]), (args.radius,))


def cmd_demo_dnf(args) -> int:
    names, sprawl, taut, report = _dnf_verdicts(args.formula, args.cap)
    print(f"variables: {' '.join(names)}")
    print(f"nodes: {len(sprawl.nodes)} (one per literal plus the formula node)")
    print(f"edges: {len(sprawl.edges)}")
    print(f"tautology (truth table): {str(taut).lower()}")
    print(f"correct (every maximal traversal reaches the formula node): {str(report.correct).lower()}")
    if not report.correct:
        qi, trail, missing = report.certificate
        print(f"certificate: traversal {trail} misses {missing}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts: anything but an integer >= 1 is a usage error."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _grid_size(text: str) -> int:
    """argparse type for a plot resolution: a grid needs at least two samples a side."""
    if not text.isdecimal() or int(text) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 2")
    return int(text)


def _fraction(text: str) -> float:
    """argparse type for a selectivity: anything but a number in (0, 1] is a usage error."""
    value = float(text)  # argparse reports a ValueError here as a usage error too
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a fraction in (0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sprawl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=["uniform", "clustered"], default="uniform")
    p.add_argument("--count", type=_positive_int, default=1000)
    p.add_argument("--dims", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--spread", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build an index over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", choices=["points", "strings", "matrix"], default="points")
    p.add_argument(
        "--kind",
        choices=["ball-tree", "aesa", "laesa", "pm-tree", "sorted-interval-tree"],
        default="ball-tree",
    )
    p.add_argument("--pivots", type=int, default=8)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="run one query against an index")
    p.add_argument("--index", required=True)
    p.add_argument("--ball", help="c1,c2,...:radius")
    p.add_argument("--knn", type=_positive_int)
    p.add_argument("--center", help="c1,c2,... (for --knn)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="compare an index against the linear-scan oracle")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--selectivity", type=_fraction, default=0.01)
    p.add_argument("--knn", type=_positive_int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the verification batteries")
    p.add_argument("--axioms", action="store_true")
    p.add_argument("--dnf")
    p.add_argument("--responsibility", action="store_true")
    p.add_argument("--properties", action="store_true")
    p.add_argument("--graph", help="line-oriented hyperdigraph file: sign target <- sources")
    p.add_argument("--index")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=_positive_int, default=200)
    p.add_argument("--cap", type=int, default=12)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="fit a region to foci and training queries")
    p.add_argument("--dataset", required=True)
    p.add_argument("--foci", required=True, help="comma-separated point indices")
    p.add_argument("--queries-file")
    p.add_argument("--sample-queries", type=_positive_int, default=64)
    p.add_argument("--facets", type=_positive_int, default=1)
    p.add_argument("--mode", choices=["lp25", "minrad"], default="lp25")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("plot", help="render a 2-d region as SVG")
    p.add_argument("--map", default="linear",
                   choices=["linear", "ball", "sphere", "ellipse", "plane", "hyperbola",
                            "power", "metaball", "hamacher"])
    p.add_argument("--index", help="render a region straight from an index file")
    p.add_argument("--edge", type=int, default=1, help="logical edge to render with --index")
    p.add_argument("--foci", help="x,y;x,y;...")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--weights", help="comma-separated row for linear/power maps")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--bounds", default="-1.5,2.5,-1.5,1.5")
    p.add_argument("--resolution", type=_grid_size, default=512,
                   help=f"grid samples a side, 2 to {plotting.MAX_RESOLUTION}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("demo-dnf", help="show the tautology gadget on a formula")
    p.add_argument("formula")
    p.add_argument("--cap", type=int, default=12)
    p.set_defaults(func=cmd_demo_dnf)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SizeLimitError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
