import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), "--slots", "20",
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_run_scenarios_writes_a_run_per_scenario_and_policy(tmp_path):
    _run_script("run_scenarios.py", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{scenario}_{policy}" for scenario in ("scenario1", "scenario2")
        for policy in ("exhaustive", "drlh64", "drlh16", "drlh8", "random"))
    for run in tmp_path.iterdir():
        assert (run / "metrics.csv").exists() and (run / "summary.json").exists()


def test_run_sweeps_writes_the_four_sweep_tables(tmp_path):
    _run_script("run_sweeps.py", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "sweep_arrival.csv", "sweep_users.csv", "sweep_v_scenario1.csv", "sweep_v_scenario2.csv"]
