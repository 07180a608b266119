"""Harness checks for the benchmark, on its short smoke mode.

    python3 -m pytest perfbench

Each test runs perfbench/run.py from a checkout root, with --smoke so every
workload finishes in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1
          ) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict[str, str]]:
    lines = proc.stdout.strip().splitlines()
    hashes = {}
    for line in lines:
        if line.startswith("outcome "):
            _, kind, payload = line.split(" ", 2)
            hashes[kind] = json.loads(payload)["sha256"]
    return json.loads(lines[-1]), hashes


@pytest.fixture(scope="module")
def runs() -> dict[tuple[str, int], tuple[dict, dict[str, str]]]:
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = parse(proc)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_no_slot_failed(runs, workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
        for m in SPEC[group]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for name in (m["name"] for m in SPEC["end_to_end"]):
        assert runs[workload, 0][0]["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_is_transparent_and_runs_reproduce(runs, workload):
    _, plain = runs[workload, 0]
    _, both = runs[workload, 1]
    assert both["traced"] == both["untraced"] == plain["untraced"]


def test_counts_repeat_exactly_for_a_seed(runs):
    first, _ = runs["drlh64_s1_i8", 1]
    again, _ = parse(bench("drlh64_s1_i8", 1))
    for name in COUNTS + ["actor.candidate_unique_ratio"]:
        assert again["metrics"][name] == first["metrics"][name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
