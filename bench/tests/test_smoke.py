"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/tests

Checks the shape of the result line, the metric names and units against
BENCHMARK.json, that no analysis fails the correctness gate, and that the
traced counters repeat exactly. It checks no timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace",
         str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, done.stdout
    assert result["correct"] is True
    return result


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result(workload):
    result = result_of(run(workload, 0))
    check_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result_and_counts_repeat(workload):
    first = result_of(run(workload, 1))
    second = result_of(run(workload, 1))
    check_metrics(first, BENCHMARK["per_layer"])
    for name in tracer.COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["report.build_report_self_s"]["value"] > 0


def test_layer_names_agree():
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {**tracer.METRIC_UNITS,
                         "trace.overhead_ratio": "ratio"}
    assert set(spec["layer_map"]) == set(per_layer)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program():
    bare = BENCH / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(WORKLOADS[0], 0, cwd=bare)
        assert done.returncode != 0
        assert "{" not in done.stdout
    finally:
        shutil.rmtree(bare)
