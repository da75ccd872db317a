"""Small-size tests of the benchmark itself.

    python3 -m pytest bench -q

Each test runs bench/run.py on small generated inputs from the repository
root, as the full benchmark would be run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              seconds: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def summary_value(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + " "):
            return line.split()[1]
    raise AssertionError(f"no {key} line in output")


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced run of every workload with seed 3."""
    return {(w, t): run_bench(w, 3, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(runs, workload, trace):
    proc = runs[(workload, trace)]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_the_digests(runs, workload):
    untraced, traced = runs[(workload, 0)].stdout, runs[(workload, 1)].stdout
    for key in ("inputs_digest", "output_digest"):
        assert summary_value(untraced, key) == summary_value(traced, key)


def test_another_seed_changes_the_inputs(runs):
    other = run_bench("similarity", 4, 0)
    assert other.returncode == 0, other.stdout + other.stderr
    assert summary_value(other.stdout, "inputs_digest") != summary_value(
        runs[("similarity", 0)].stdout, "inputs_digest"
    )


def test_rounds_repeat_the_same_work():
    proc = run_bench("screen", 3, 0, seconds=6)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rounds = int(re.search(r"(\d+) rounds of", proc.stdout).group(1))
    assert rounds >= 2, proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("screen", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
