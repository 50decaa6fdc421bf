"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    out = run_benchmark(ROOT, workload, trace, "--small")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    table = {line.split()[0] for line in lines[:-1] if line and not line.startswith("#")}
    assert set(emitted) | {"error_rate"} <= table


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_benchmark(tmp_path, "suite_eval", 0)
    assert out.returncode != 0
    assert "correct" not in out.stdout


@pytest.mark.parametrize("workload, corrupted_call", [
    ("suite_eval", 2),      # a later pass disagrees with the first one
    ("suite_parallel", 2),  # the serial reference pass disagrees with the parallel one
])
def test_injected_record_mismatch_is_counted(tmp_path, capsys, monkeypatch, workload,
                                             corrupted_call):
    workload = bench.make_workload(workload, seed=3, workdir=tmp_path, small=True)
    evaluate = workload._evaluate
    calls = []

    def evaluate_with_one_wrong_record(jobs):
        records = evaluate(jobs)
        calls.append(jobs)
        if len(calls) == corrupted_call:
            records = (dataclasses.replace(records[0], detected=-1.0),) + records[1:]
        return records

    monkeypatch.setattr(workload, "_evaluate", evaluate_with_one_wrong_record)
    result = bench.measure(workload, seconds=0.1, trace=False, import_s=0.0)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == len(calls)
    error_rate = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("error_rate"))
    assert float(error_rate.split()[1]) == pytest.approx(1 / len(calls), rel=1e-5)


def test_stage_replay_that_disagrees_with_detect_is_counted(tmp_path, monkeypatch):
    import replay

    replay_stages = replay.replay

    def replay_losing_the_season(series, config, span):
        outcome, counts = replay_stages(series, config, span)
        return (None, *outcome[1:]), counts

    monkeypatch.setattr(replay, "replay", replay_losing_the_season)
    workload = bench.make_workload("long_series", seed=3, workdir=tmp_path, small=True)
    result = bench.measure(workload, seconds=0.1, trace=True, import_s=0.0)
    assert result["correct"] is False
    assert result["failed"] >= 1
