"""Smoke test of the benchmark: every workload, untraced and traced, at the
--smoke size. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {"gradcheck", "model_finite", "rerun_identical", "cache_consistent",
          "groundtruth_exact", "topk_oracle"}
SEED = 3


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_declared_metrics(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
        print(f"{name} = {metric['value']} {metric['unit']}")
    for m in declared:
        assert m["name"] in proc.stdout.split("{", 1)[0], m["name"]  # table line

    record = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}-smoke.json"
    checks = json.loads(record.read_text())["checks"]
    expected = CHECKS | ({"trace_transparent"} if trace else set())
    assert set(checks) == expected
    assert all(c["passed"] > 0 and c["failed"] == 0 for c in checks.values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
               "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
