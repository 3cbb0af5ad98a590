"""Smoke test of the benchmark at tiny sizes.

Runs every workload and the traced pass in well under a minute each:

    python3 -m pytest perfbench/test_smoke.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.lru_cache(maxsize=None)
def run_all(trace: int, seed: int) -> tuple[dict, ...]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = tuple(json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{"))
    assert len(results) == len(SPEC["workloads"])
    return results


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed(trace, section):
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    for result in run_all(trace, 1):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_layer_counts_repeat_across_seeds():
    for first, second in zip(run_all(1, 1), run_all(1, 2)):
        calls = {k: m["value"] for k, m in first["metrics"].items() if k.endswith(".calls")}
        assert calls == {k: second["metrics"][k]["value"] for k in calls}


def test_fails_without_the_library_sources():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "replicate-fixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
