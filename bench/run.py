"""Run one benchmark workload of the sprawl engine and print its metrics.

    python3 bench/run.py --workload balltree-uniform8 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/`` of that checkout and nowhere else. One process, one client, a
closed loop with no think time and no threads. ``linear_scan`` answers
every kNN query once; then rounds run until ``--seconds`` have passed and
at least three ran. Each round

1. sets up: ``build_classic`` then ``save_index``, what ``sprawl build``
   pays; the median over rounds is ``setup_s``;
2. loads: ``load_index``, what every ``sprawl query`` pays, five times;
   the median over all loads is ``load_s``. One untimed warm-up query
   follows, so that the lazily built traversal plan is not charged to a
   timed query;
3. for every query pair, runs ``linear_scan`` on the range query (the
   ``scan_ms_p50`` baseline and the range oracle), then the range and the
   kNN query through ``search``, and compares each answer with the
   oracle's (range as a set, kNN as an ordered tuple). A query's time is
   the median of its rounds; p50 and tail are taken over the distinct
   queries;
4. runs the verification-lab battery (``lab.py``) twice; the median over
   all batteries is ``lab_s``.

The reference task of ``speed.py`` runs right after each set-up, load and
lab battery and after every five query pairs. Each timing is multiplied by
``speed.NOMINAL_S`` over the reference time that follows it (for set-up,
the mean of the one before and the one after), which gives it at one host
speed, before any median is taken. The provenance line holds
the median reference time and every end-to-end timing as measured.

With ``--trace 0`` the last line holds the end-to-end metrics, measured
with no tracing installed. With ``--trace 1`` the same steps run with
timed wrappers around the program's entry points (``tracing.py``) and the
last line holds the per-layer metrics; untraced rounds then fill the first
half of ``--seconds`` and traced rounds the second half, and the
difference between their range p50s is ``trace.overhead_frac``.

A range answer that misses a point of the scan, or a kNN answer that
misses a true neighbour, is a false negative: the run stops with exit
code 1 and prints no result. Any other disagreement counts as failed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
# Other processes on a shared host slow this one down: the same work takes
# anywhere from 0.7x to 2x its usual time, in spells of seconds to minutes.
# Every timing is therefore repeated in rounds spread over the run and
# reported as a median, and each is first brought to one host speed by the
# reference task of speed.py, timed right after it.
MIN_ROUNDS = 3
LOADS = 5  # per round
LABS = 2  # per round
REFERENCE_EVERY = 5  # query pairs between two timings of the reference task


class FalseNegative(Exception):
    """The index missed a point that the scan oracle returns."""


def import_program():
    """Import the engine from this checkout's src/, or stop with exit code 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sprawl
    except ImportError as exc:
        sys.exit(f"bench: cannot import sprawl from {src}: {exc}")
    if Path(sprawl.__file__).resolve().parent != (src / "sprawl").resolve():
        sys.exit(f"bench: sprawl was imported from {sprawl.__file__}, not from {src}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per(total: float, count: int) -> float:
    return total / count if count else 0.0


class Rounds:
    """Timings and results of the rounds of one run, untraced or traced.

    Every timing is kept as (seconds, seconds of the reference task timed
    right after it).
    """

    def __init__(self, pairs: int):
        self.count = 0
        self.setup: list[tuple[float, float]] = []
        self.load: list[tuple[float, float]] = []
        self.lab: list[tuple[float, float]] = []
        self.warmup: list[float] = []
        self.lab_states = 0
        # kind -> query -> one timing per round
        self.times = {kind: [[] for _ in range(pairs)] for kind in ("range", "knn", "scan")}
        self.first: dict[str, list] = {"range": [], "knn": []}  # first round's results

    def query_ms(self, kind: str, scaled: bool = True) -> list[float]:
        """Each query's median time over the rounds, in ms."""
        return [1e3 * median(t, scaled) for t in self.times[kind]]

    def references(self) -> list[float]:
        return [ref for step in (self.setup, self.load, self.lab) for _, ref in step] + [
            ref for kind in self.times.values() for query in kind for _, ref in query
        ]


def median(timings: list[tuple[float, float]], scaled: bool = True) -> float:
    """The median of the timings, at the nominal host speed or as measured."""
    if scaled:
        return statistics.median(t * speed.NOMINAL_S / ref for t, ref in timings)
    return statistics.median(t for t, _ in timings)


class Run:
    """One workload run: its inputs, the oracle's answers, and the verdict counts."""

    def __init__(self, case, path: Path):
        self.case = case
        self.path = path
        self.attempted = 0
        self.failed = 0

    def check(self, got, want, knn: bool) -> None:
        self.attempted += 1
        if knn:
            if set(got.members) != set(want):
                raise FalseNegative(f"kNN answer {got.members} lacks a true neighbour of {want}")
            self.failed += tuple(got.members) != tuple(want)
        else:
            if not set(want) <= set(got.members):
                raise FalseNegative(f"range answer misses {sorted(set(want) - set(got.members))}")
            self.failed += set(got.members) != set(want)

    def knn_oracle(self, engine) -> None:
        """linear_scan's answer to every kNN query, computed once before the rounds."""
        case = self.case
        self.want_knn = [engine.linear_scan(case.space, case.nodes, q) for q in case.knn_queries]

    def rounds(self, seconds: float, engine, storage, lab, tracer=None) -> Rounds:
        """Rounds until `seconds` have passed and at least MIN_ROUNDS ran.

        A round sets up, saves and loads the index (loading LOADS times),
        runs one untimed warm-up query, then for every query pair the range
        scan, the range search and the kNN search, and last the lab battery.
        With a tracer, each step but the warm-up is traced under its own
        phase.
        """
        case = self.case
        phase = tracer.phase if tracer else lambda name, space: nullcontext()
        pairs = list(zip(case.range_queries, case.knn_queries, self.want_knn))
        out = Rounds(len(pairs))
        start = perf_counter()
        while out.count < MIN_ROUNDS or perf_counter() - start < seconds:
            before = speed.reference()  # set-up is long: take the mean of two
            with phase("setup", case.space):
                t0 = perf_counter()
                sprawl, res = engine.build_classic(case.space, case.nodes, case.kind, **case.params)
                storage.save_index(self.path, sprawl, res)
                seconds_taken = perf_counter() - t0
            out.setup.append((seconds_taken, (before + speed.reference()) / 2))
            for _ in range(LOADS):
                sprawl = res = None  # free the previous copy first
                with phase("load", case.space):
                    t0 = perf_counter()
                    sprawl, _ = storage.load_index(self.path)
                    seconds_taken = perf_counter() - t0
                out.load.append((seconds_taken, speed.reference()))
            t0 = perf_counter()
            engine.search(sprawl, case.range_queries[0])
            out.warmup.append(perf_counter() - t0)
            # the scans use the workload's own space, which is never traced
            with phase("query", sprawl.space):
                pending = []  # (kind, query, seconds) since the last reference
                for i, (rq, kq, want_knn) in enumerate(pairs):
                    t0 = perf_counter()
                    want_range = engine.linear_scan(case.space, case.nodes, rq)
                    pending.append(("scan", i, perf_counter() - t0))
                    for kind, query, want in (("range", rq, want_range), ("knn", kq, want_knn)):
                        t0 = perf_counter()
                        got = engine.search(sprawl, query)
                        pending.append((kind, i, perf_counter() - t0))
                        self.check(got, want, kind == "knn")
                        if out.count == 0:
                            out.first[kind].append(got)
                    if i % REFERENCE_EVERY == REFERENCE_EVERY - 1 or i == len(pairs) - 1:
                        ref = speed.reference()
                        for kind, j, seconds_taken in pending:
                            out.times[kind][j].append((seconds_taken, ref))
                        pending.clear()
            sprawl = None
            for _ in range(LABS):
                with phase("lab", case.space):
                    t0 = perf_counter()
                    tally = lab.run_lab()
                    seconds_taken = perf_counter() - t0
                out.lab.append((seconds_taken, speed.reference()))
                self.attempted += tally.attempted
                self.failed += tally.failed
            out.lab_states = tally.states
            out.count += 1
        return out


def timings(rounds: Rounds, scaled: bool) -> dict[str, float]:
    """The end-to-end timings, at the nominal host speed or as measured."""
    out = {}
    for kind in ("range", "knn"):
        ms = rounds.query_ms(kind, scaled)
        out[f"{kind}_ms_p50"] = statistics.median(ms)
        out[f"{kind}_ms_tail"] = tail(ms)[0]
    out["scan_ms_p50"] = statistics.median(rounds.query_ms("scan", scaled))
    out["setup_s"] = median(rounds.setup, scaled)
    out["load_s"] = median(rounds.load, scaled)
    out["lab_s"] = median(rounds.lab, scaled)
    return out


def end_to_end(rounds: Rounds, index_bytes: int):
    """The end-to-end metrics, per metric its sample count and tail percentile,
    and the timings as measured, before scaling to the nominal host speed."""
    metrics, samples = timings(rounds, scaled=True), {}
    for kind in ("range", "knn"):
        n, pct = len(rounds.times[kind]), tail(rounds.query_ms(kind))[1]
        samples[f"{kind}_ms_p50"] = {"n": n, "repeats": rounds.count}
        samples[f"{kind}_ms_tail"] = {"n": n, "repeats": rounds.count, "percentile": round(pct, 2)}
        dists = [r.distance_computations for r in rounds.first[kind]]
        metrics[f"{kind}_dists_per_q"] = statistics.fmean(dists)
        samples[f"{kind}_dists_per_q"] = {"n": len(dists)}
    samples["scan_ms_p50"] = {"n": len(rounds.times["scan"]), "repeats": rounds.count}
    samples.update(setup_s={"n": len(rounds.setup)}, load_s={"n": len(rounds.load)}, lab_s={"n": len(rounds.lab)})
    metrics["index_mb"] = index_bytes / 1e6
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics, samples, timings(rounds, scaled=False)


def layer_metrics(tracer, traced: Rounds, untraced: Rounds, case, index_bytes: int):
    """Per-layer metrics of the traced rounds: per query, per set-up, per load or per lab battery."""
    st = tracer.stat
    n = traced.count
    loads, labs = len(traced.load), len(traced.lab)
    q = n * (len(case.range_queries) + len(case.knn_queries))
    results = untraced.first["range"] + untraced.first["knn"]
    comparison, ambit = st("query", "comparison"), st("query", "ambit")
    out = {
        "comparison.ms_per_q": 1e3 * per(comparison.total, q),
        "comparison.calls_per_q": per(comparison.calls, q),
        "comparison.us_per_call": 1e6 * per(comparison.total, comparison.calls),
        "comparison.build_s": st("setup", "comparison").total / n,
        "ambit.ms_per_q": 1e3 * per(ambit.self_time, q),
        "ambit.calls_per_q": per(ambit.calls, q),
        "ambit.us_per_call": 1e6 * per(ambit.self_time, ambit.calls),
        "engine.self_ms_per_q": 1e3 * per(st("query", "engine.search").self_time, q),
        "engine.region_evals_per_q": statistics.fmean(r.region_evaluations for r in results),
        "engine.traversed_per_q": statistics.fmean(r.traversed for r in results),
        "engine.hit_frac": per(
            sum(len(r.members) for r in untraced.first["range"]),
            sum(r.traversed for r in untraced.first["range"]),
        ),
        "engine.build_s": st("setup", "engine.build").self_time / n,
        "engine.warmup_ms": 1e3 * statistics.median(untraced.warmup + traced.warmup),
        "engine.reduce_ms": 1e3 * st("lab", "engine.reduce").self_time / labs,
        "engine.check_correct_ms": 1e3 * st("lab", "engine.check_correct").self_time / labs,
        "storage.encode_s": st("setup", "storage.encode").total / n,
        "storage.write_s": st("setup", "storage.save").self_time / n,
        "storage.parse_s": st("load", "storage.load").self_time / loads,
        "storage.decode_s": st("load", "storage.decode").total / loads,
        "storage.bytes_per_point": index_bytes / len(case.space),
        "hypergraph.enumerate_ms": 1e3 * st("lab", "hypergraph.enumerate").self_time / labs,
        "hypergraph.axioms_ms": 1e3 * st("lab", "hypergraph.axioms").self_time / labs,
        "hypergraph.traverse_ms": 1e3 * st("lab", "hypergraph.traverse").self_time / labs,
        "hypergraph.states": float(traced.lab_states),
        "lp.solve_ms": 1e3 * st("lab", "lp").total / labs,
        "lp.calls": st("lab", "lp").calls / labs,
        "optimize.self_ms": 1e3 * st("lab", "optimize").self_time / labs,
        "trace.overhead_frac": statistics.median(traced.query_ms("range"))
        / statistics.median(untraced.query_ms("range"))
        - 1.0,
    }
    return drop_absent(out, tracer.absent)


# metric-name prefix -> the traced layers it is computed from
LAYER_SOURCES = {
    "ambit.": ("ambit",),
    "engine.self": ("engine.search",),
    "engine.build": ("engine.build",),
    "engine.reduce": ("engine.reduce",),
    "engine.check": ("engine.check_correct",),
    "storage.encode": ("storage.encode",),
    "storage.write": ("storage.save", "storage.encode"),
    "storage.parse": ("storage.load", "storage.decode"),
    "storage.decode": ("storage.decode",),
    "hypergraph.enumerate": ("hypergraph.enumerate",),
    "hypergraph.axioms": ("hypergraph.axioms",),
    "hypergraph.traverse": ("hypergraph.traverse",),
    "lp.": ("lp",),
    "optimize.": ("optimize", "lp"),
    "trace.": ("engine.search",),
}


def drop_absent(metrics: dict, absent) -> dict:
    """The metrics whose layers all still have an entry point in the program."""
    gone = set(absent)
    return {
        name: value
        for name, value in metrics.items()
        if not any(name.startswith(p) and gone.intersection(ls) for p, ls in LAYER_SOURCES.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy
    import scipy

    import lab
    import tracing
    import workloads
    from sprawl import engine, storage

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(why)}")
    case = workloads.make_case(args.workload, args.seed)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    path = scratch / f"{case.name}-{args.seed}-{os.getpid()}.json"
    run = Run(case, path)
    tracer = tracing.Tracer() if args.trace else None
    seconds = args.seconds / 2 if tracer else args.seconds
    try:
        run.knn_oracle(engine)
        untraced = run.rounds(seconds, engine, storage, lab)
        index_bytes = path.stat().st_size
        if tracer:
            traced = run.rounds(seconds, engine, storage, lab, tracer)
    except FalseNegative as exc:
        print(f"bench: false negative on {case.name} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        path.unlink(missing_ok=True)

    if tracer:
        metrics, samples, wall = layer_metrics(tracer, traced, untraced, case, index_bytes), {}, {}
    else:
        metrics, samples, wall = end_to_end(untraced, index_bytes)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}
    absent = sorted(set(units) - set(metrics))
    provenance = {
        "workload": case.name,
        "why": why[case.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "failed_frac": run.failed / run.attempted,
        "samples": samples,
        "host": {
            "reference_ms": 1e3 * statistics.median(untraced.references()),
            "nominal_ms": 1e3 * speed.NOMINAL_S,
            "wall": wall,
        },
        "absent": absent,
        "absent_entry_points": tracer.absent if tracer else [],
    }
    print(json.dumps({"provenance": provenance}))
    for name in units:
        if name in metrics:
            note = samples.get(name, {})
            extra = "".join(f"  {k}={v}" for k, v in note.items())
            print(f"{name:28s} {metrics[name]:14.6g} {units[name]}{extra}")
        else:
            print(f"{name:28s} {'absent':>14s} {units[name]}")
    print(f"{'failed_frac':28s} {run.failed / run.attempted:14.6g} ratio  "
          f"({run.failed} of {run.attempted} answers and verdicts)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
