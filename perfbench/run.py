"""semoff benchmark: one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload NAME [--seed 1] [--seconds 10] [--trace 0|1] [--smoke]

Run from the root of a source checkout. semoff is pure Python, so nothing is
built: each measurement runs perfbench/worker.py in a fresh interpreter that
imports semoff from the checkout's src/, with SEMOFF_THREADS removed from
its environment so candidate scoring stays on one thread (the CLI default).
BLAS thread settings are left as the caller has them.

Times are host times scaled to a fixed host speed: a fixed reference chunk
(perfbench/reference.py) runs after every timed slot, set-up and write, and
each time is multiplied by reference.CHUNK_S over the mean of the chunk
times just before and after it. Shared hosts change speed by up to 2x for
minutes at a time; the scaled times do not. Each slot then counts at its
median over the same-seed repetitions of the run.

--trace 0 runs the workload untraced for --seconds and reports the
end-to-end metrics. --trace 1 spends half the budget on an untraced run and
half on a traced one, and reports the per-layer metrics plus trace.overhead.
Both check every slot: the run completes, queues stay finite and >= 0, power
is finite, the drift-plus-penalty bound holds, every repetition with the
seed writes the same metrics.csv bytes, and (--trace 1) the traced run
writes the same bytes as the untraced one. --smoke runs far fewer slots.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only if every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 160   # shared by the workers of one call, which must end within 180 s


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, seconds: float, traced: bool,
               smoke: bool, timeout: float) -> dict[str, Any]:
    env = dict(os.environ)
    env.pop("SEMOFF_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if traced else "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = ROOT / "src" / "semoff"
    if Path(result["semoff_file"]).resolve().parent != expected.resolve():
        raise RuntimeError(f"worker imported semoff from {result['semoff_file']}, "
                           f"not from {expected}")
    return result


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="far fewer slots per run, to check the harness")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "semoff" / "__init__.py").is_file():
        print(f"error: no semoff sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    if args.trace:
        half = args.seconds / 2
        timeout = CHILD_TIMEOUT_S / 2
        plain = run_worker(args.workload, args.seed, half, False, args.smoke, timeout)
        traced = run_worker(args.workload, args.seed, half, True, args.smoke, timeout)
        runs = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead"] = (traced["metrics"]["slots_per_s"]
                                    / plain["metrics"]["slots_per_s"])
        wanted = spec["per_layer"]
        values = layers
    else:
        runs = [run_worker(args.workload, args.seed, args.seconds, False, args.smoke,
                           CHILD_TIMEOUT_S)]
        wanted = spec["end_to_end"]
        values = runs[0]["metrics"]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    hashes = {r["outcome"]["sha256"] for r in runs}
    if len(hashes) != 1:
        errors.append(f"traced and untraced runs wrote different outputs: {sorted(hashes)}")
        failed = max(failed, runs[-1]["attempted"])
    correct = not errors and failed == 0

    env = dict(runs[0]["env"], git_commit=git_commit())
    print(f"env {json.dumps(env, sort_keys=True)}")
    for r in runs:
        kind = "traced" if r["traced"] else "untraced"
        print(f"outcome {kind} {json.dumps(r['outcome'], sort_keys=True)}")
        print(f"samples {kind}: {r['reps']} runs, {r['attempted']} slots, "
              f"{r['slot_samples']} slots timed in each, {r['setup_samples']} set-ups, "
              f"host at {r['host_speed']:.3f} of the reference speed")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
    print(f"{'failed_share':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} slots)")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
