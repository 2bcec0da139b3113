"""Smoke tests of the benchmark harness.

Run from the repository root with ``python -m pytest bench/tests``. Each test
starts ``bench/run.py --smoke``: tiny inputs, every phase and check, and
every metric named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_checks_and_reports_every_metric(workload, trace, kind):
    done = _run(
        ROOT, "--workload", workload, "--seed", "2", "--seconds", "0",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in SPEC[kind]}


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "refresh", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
