"""Self-test of the benchmark: one short run of each workload.

    python3 -m pytest -q bench

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
reported with its unit, that no op fails on any workload, and that per-layer
call counts repeat exactly across two traced runs with the same seed.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_and_no_failed_op(workload):
    result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads((HERE / "out" / f"report-{workload}-s{SEED}-trace0.json").read_text())
    assert report["metrics"]["failed_ops_ratio"]["value"] == 0


def test_traced_call_counts_repeat():
    first, second = run("verify-fixtures", 1), run("verify-fixtures", 1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    calls = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(".calls")}
             for r in (first, second)]
    assert calls[0] == calls[1]
    assert calls[0]["cli.main.calls"] == 1
