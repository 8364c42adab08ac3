"""Smoke check of the benchmark harness.

    python3 -m pytest perfbench/smoke_check.py

Runs every workload once end to end and once traced, at a tiny size (the tune
workloads shrink under ``--tiny``; walker2_replay cannot, its replay fixtures
pin the run), and asserts that every metric BENCHMARK.json names is present,
in its unit, and finite. A plain ``pytest`` run does not collect this file,
because it trains each workload and takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "interaction_map.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_present_and_finite(workload, trace):
    proc = _bench(ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_interaction_map_uses_benchmark_names():
    layer_metrics = {m["name"] for m in BENCH["per_layer"]}
    assert set(run.METRIC_SPAN) == layer_metrics
    assert set(MAP["workloads"]) == set(WORKLOADS)
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for row in MAP["layers"]:
        assert set(row["metrics"]) <= layer_metrics, row["metrics"]
        assert set(row["moves"]) <= e2e
        assert set(row["moves_on"]) | set(row["no_change_on"]) <= set(WORKLOADS)


def test_traced_run_fails_when_a_predicted_layer_has_no_calls():
    spans = {span: {"calls": 1} for span in run.METRIC_SPAN.values() if span}
    for workload in WORKLOADS:
        assert run.predicted_layers_missing(workload, spans, MAP) == []
    del spans["env.desk_walker_step"]
    missing = run.predicted_layers_missing("walker2_replay", spans, MAP)
    assert missing and all("env.desk_walker_step" in m for m in missing)
    assert run.predicted_layers_missing("tune_desk64", spans, MAP) == []


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
