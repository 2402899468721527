"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sprawl import engine, optimize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "name, overrides, kind, want",
    [
        ("balltree-uniform8", {}, "ball-tree", 1142.7),
        ("aesa-uniform8", {"n": 2000}, "aesa", 183.7),
    ],
)
def test_seed_1_reproduces_acceptance_1_distance_counts(name, overrides, kind, want):
    case = workloads.make_case(name, 1, centres=100, **overrides)
    assert len(case.space) == 2000 and case.kind == kind
    sprawl, _ = engine.build_classic(case.space, case.nodes, case.kind, **case.params)
    dists = [engine.search(sprawl, q).distance_computations for q in case.range_queries[:100]]
    assert round(sum(dists) / len(dists), 1) == want


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_second_seed_prints_every_named_metric_with_its_unit(trace, key):
    proc = run_bench(ROOT, "--workload", "aesa-uniform8", "--seed", "2", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    provenance = json.loads(lines[0])["provenance"]
    assert provenance["seed"] == 2 and provenance["nproc"] >= 1
    assert {"python", "numpy", "scipy", "commit", "why", "samples"} <= set(provenance)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_same_inputs():
    a, b, c = (workloads.make_case("aesa-uniform8", seed) for seed in (5, 5, 6))
    assert (a.space.points == b.space.points).all() and a.range_queries == b.range_queries
    assert a.knn_queries == b.knn_queries and a.range_queries != c.range_queries


def test_false_negative_is_an_explicit_error_and_extras_count_as_failed():
    r = run.Run(case=None, path=Path("unused"))
    with pytest.raises(run.FalseNegative):
        r.check(SimpleNamespace(members=(1, 2)), (1, 2, 3), knn=False)
    with pytest.raises(run.FalseNegative):
        r.check(SimpleNamespace(members=(1, 4)), (1, 2), knn=True)
    r.check(SimpleNamespace(members=(1, 2, 9)), (1, 2), knn=False)
    r.check(SimpleNamespace(members=(2, 1)), (1, 2), knn=True)
    assert (r.attempted, r.failed) == (4, 2)


def test_tail_keeps_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)


def test_timings_are_scaled_by_the_reference_that_follows_them():
    timings = [(2.0, 2 * speed.NOMINAL_S), (1.0, speed.NOMINAL_S), (3.0, speed.NOMINAL_S)]
    assert run.median(timings) == 1.0
    assert run.median(timings, scaled=False) == 2.0


def test_tracer_restores_entry_points_and_reports_missing_ones(monkeypatch):
    case = workloads.make_case("balltree-uniform8", 3, n=200, centres=2)
    originals = (engine.search, optimize.solve_lp)
    tracer = tracing.Tracer()
    with tracer.phase("query", case.space):
        sprawl, _ = engine.build_classic(case.space, case.nodes, case.kind)
        engine.search(sprawl, case.range_queries[0])
    assert (engine.search, optimize.solve_lp) == originals
    assert "compare" not in vars(case.space)
    assert tracer.stat("query", "engine.search").calls == 1
    assert tracer.stat("query", "ambit").calls > 0
    assert tracer.stat("query", "comparison").calls > 0

    monkeypatch.delattr(optimize, "solve_lp")
    assert tracing.Tracer().absent == ["lp"]
    kept = run.drop_absent(dict.fromkeys(m["name"] for m in SPEC["per_layer"]), ["lp"])
    assert not any(n.startswith(("lp.", "optimize.")) for n in kept)
    assert "hypergraph.traverse_ms" in kept


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "balltree-uniform8", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
