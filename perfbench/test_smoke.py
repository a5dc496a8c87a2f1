"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import rankregret as rr  # noqa: E402

import checks  # noqa: E402


def _run(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", range(6))
def test_worst_rank_2d_matches_exact_chain_rank(seed):
    rng = np.random.default_rng(seed)
    n = 40
    values = rng.random((n, 2))
    if seed % 2:
        values = np.round(values, 1)  # exact ties and duplicate tuples
    D = rr.Dataset(values, normalized=False)
    S = rng.choice(np.arange(1, n + 1), size=3, replace=False)
    for interval in ((0.0, 1.0), (0.5, 1.0)):
        want = rr.exact_chain_rank(S, D, interval)
        assert checks.worst_rank_2d(D.values, S, interval) == want
        assert checks.worst_rank_2d(D.values, S, interval, max_cells=n) == want
