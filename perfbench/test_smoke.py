"""Smoke test of the benchmark on 300-patient cohorts.

    python3 -m pytest perfbench/test_smoke.py

Each workload, including those BENCHMARK.json leaves out, runs untraced and
traced; every metric that BENCHMARK.json names must be printed with its unit,
and the same seed must give the same inputs and artifacts.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(script: Path, workload: str, trace: int, cwd: Path):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _digest_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith(("input ", "artifact "))]


def test_benchmark_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload):
    runs = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(HERE / "run.py", workload, trace, HERE.parent)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        runs[trace] = done.stdout

    lines = runs[0].splitlines()
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
        assert any(line.startswith(f"{name}: median ") and " n=" in line for line in lines), name
    assert any(line.startswith("runs_failed: 0 of ") for line in lines)
    assert _digest_lines(runs[0]) and _digest_lines(runs[0]) == _digest_lines(runs[1])


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path / HERE.name / "run.py", SPEC["workloads"][0]["name"], 0, tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
