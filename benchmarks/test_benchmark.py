"""Tests of the benchmark itself: python3 -m pytest benchmarks

Smoke runs use --size tiny, which runs each workload's calls at small
sizes against their own recorded reference outputs.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=1, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_run(workload, trace=0))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    # Twice with one seed, and once with another: a traced run covers every
    # input, so its counts do not depend on the seed either.
    first, second, other = (_result(_run(workload, trace=1, seed=s)) for s in (7, 7, 8))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert "em_nr.item_score.calls" in counts and "expectation.q1.calls" in counts
    assert any(name.endswith(".iterations") for name in counts)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name] == other["metrics"][name], name


def test_pool_workers_spans_reach_the_trace():
    result = _result(_run("study-acceptance-both", trace=1))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # Fits only run inside the two pool workers for this workload.
    assert metrics["em_nr.fit_nr.calls"] > 0 and metrics["em_ols.fit.calls"] > 0
    assert 0 < metrics["simgen.pool.efficiency"] <= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [[1, 1], None, "outer", 0.0, 10.0, None],
        [[2, 1], [1, 1], "child", 1.0, 4.0, None],  # another process
        [[3, 1], [1, 1], "child", 2.0, 6.0, None],  # overlaps the first child
        [[1, 2], [1, 1], "child", 9.0, 12.0, None],  # runs past the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0, 4.0, 3.0])
