"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py [--workloads A,B] [--seeds 1-10] [--out FILE]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and
BENCHMARK.json's run_seconds, then reports, per metric, the median of the
values and their quartile spread (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives the quartiles. A spread at or above
a third of the metric's bound is flagged. --out writes the same table, the
run environment and every value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict[str, Any], dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                           f"{proc.stdout}\n{proc.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env, elapsed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict[str, Any] = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        elapsed = []
        for seed in parse_seeds(args.seeds):
            result, env, secs = one_run(workload, seed, spec["run_seconds"])
            report["env"] = env
            elapsed.append(secs)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: output checks failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"{workload}  ({len(elapsed)} runs, {max(elapsed):.1f} s longest)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < bounds[name] / 3
            steady &= ok or name == "setup_s"
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
            print(f"  {name:18s} median {med:12.6g}  spread {spread:7.2%}  "
                  f"bound/3 {bounds[name] / 3:6.2%}  {'ok' if ok else 'WIDE'}")
        report["workloads"][workload] = {"metrics": rows, "run_wall_s": elapsed}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
