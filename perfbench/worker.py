"""One benchmark workload in one process; prints one JSON result line.

Started by run.py in a fresh interpreter with SEMOFF_THREADS removed from the
environment and PYTHONPATH set to the checkout's src/. Each repetition
builds a fresh Simulation with the same seed and runs a fixed number of
slots, so every repetition must write the same output bytes (metrics.csv, or
the sweep's CSV). Repetitions continue while the next one fits the time
budget (at least two). Every timed call is followed by a reference chunk
(reference.py), and reported times are scaled to the reference host speed.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

import reference  # noqa: E402  (this file's directory is on sys.path)
import semoff  # noqa: E402  (PYTHONPATH is set by run.py)
from semoff import actor, channel, config, critic, engine, oracle, power, queueing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    scenario: str            # engine.SCENARIO_PRESETS key
    policy: str
    devices: int
    slots: int               # slots per run (per sweep value on a sweep)
    smoke_slots: int
    setups_per_rep: int      # timed Simulation constructions per repetition
    writes_per_rep: int      # timed output writes per repetition
    sweep_values: tuple[float, ...] = ()   # non-empty: one engine.sweep("v", ...)


# At least 1000 slots per repetition, so slot_ms_p99 has ten slots beyond it.
WORKLOADS = {
    "drlh64_s1_i8": Workload("1", "drlh:64", 8, slots=1000, smoke_slots=300,
                             setups_per_rep=20, writes_per_rep=8),
    "exhaustive_s2_i12": Workload("2", "exhaustive", 12, slots=1000, smoke_slots=20,
                                  setups_per_rep=6, writes_per_rep=8),
    "vsweep_s1_exhaustive_i8": Workload("1", "exhaustive", 8, slots=200,
                                        smoke_slots=20, setups_per_rep=0,
                                        writes_per_rep=20,
                                        sweep_values=(0.5, 1, 2, 4, 8)),
}

QUEUES = ("q_local", "q_edge", "z_local", "z_edge")


def resolved_config(wl: Workload, seed: int, slots: int
                    ) -> tuple[config.SystemConfig, engine.Scenario]:
    base = config.SystemConfig()
    base = dataclasses.replace(base, system=dataclasses.replace(
        base.system, num_devices=wl.devices))
    scenario = engine.SCENARIO_PRESETS[wl.scenario](
        policy=wl.policy, seed=seed, total_slots=slots)
    return scenario.apply(base), scenario


def failed_slots(log: engine.MetricsLog, final: dict[str, np.ndarray],
                 completed: int) -> int:
    """Slots among the first `completed` whose post-slot queues or power are
    non-finite (queues also negative) or whose drift-plus-penalty broke the
    bound, plus every slot the run never reached."""
    ok = np.isfinite(log.p_total[:completed])
    ok &= ~(log.dpp[:completed] > log.bound[:completed] + 1e-9)
    for name in QUEUES:
        after = np.vstack([getattr(log, name)[1:completed], final[name][None]])
        ok &= np.all(np.isfinite(after) & (after >= 0), axis=1)
    return int(np.count_nonzero(~ok)) + (log.total_slots - completed)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Clock:
    """Wall and process-CPU time of each slot, set-up and write of one
    repetition, each with the host speed measured next to it: a reference
    chunk runs after every timed call, and a call's reference time is the
    mean of the chunks just before and just after it."""

    def __init__(self) -> None:
        self.samples: dict[str, list[tuple[float, float, float]]] = {
            "slot": [], "setup": [], "write": []}
        self.chunk_total = 0.0        # chunk seconds since the last reset
        self.last_chunk = self.chunk()

    def chunk(self) -> float:
        dt = reference.timed_chunk()
        self.chunk_total += dt
        return dt

    def timed(self, kind: str, fn, *args, **kwargs):
        c0, w0 = time.process_time(), time.perf_counter()
        out = fn(*args, **kwargs)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        after = self.chunk()
        self.samples[kind].append((wall, cpu, (self.last_chunk + after) / 2))
        self.last_chunk = after
        return out

    def arrays(self) -> dict[str, np.ndarray]:
        return {kind: np.array(rows, dtype=float).reshape(-1, 3)
                for kind, rows in self.samples.items()}


def run_single(wl: Workload, seed: int, slots: int, tmp: Path) -> dict[str, Any]:
    cfg, scenario = resolved_config(wl, seed, slots)
    clock = Clock()
    for _ in range(wl.setups_per_rep):
        sim = clock.timed("setup", engine.Simulation, cfg, wl.policy, seed)
    log = engine.MetricsLog(slots, wl.devices)
    completed, errors = 0, []
    clock.chunk_total = 0.0
    wall0 = time.perf_counter()
    try:
        for t in range(slots):
            clock.timed("slot", sim.run_slot, t, log)
            completed = t + 1
    except Exception as exc:  # a failed slot is a measured outcome, not a crash
        errors.append(f"slot {completed}: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - wall0 - clock.chunk_total
    failed = failed_slots(log, {q: getattr(sim, q) for q in QUEUES}, completed)
    for k in range(wl.writes_per_rep):
        clock.timed("write", engine.write_run_outputs, tmp / f"run{k}", log, cfg, scenario)
    csv_path = tmp / "run0" / "metrics.csv"
    result = {"slots": slots, "failed": failed, "errors": errors, "wall": wall,
              **clock.arrays(),
              "sha256": sha256(csv_path), "csv_bytes": csv_path.stat().st_size,
              "train_steps": log.train_steps,
              "tail_power_w": log.tail_mean("p_total"),
              "tail_queue_tasks": float(np.mean(log.sum_queue()[log.tail_start:]))}
    for k in range(wl.writes_per_rep):
        shutil.rmtree(tmp / f"run{k}")
    return result


def run_sweep(wl: Workload, seed: int, slots: int, tmp: Path) -> dict[str, Any]:
    cfg, _ = resolved_config(wl, seed, slots)
    clock = Clock()
    runs: list[tuple[engine.MetricsLog, dict[str, np.ndarray]]] = []
    original = engine.Simulation

    class Probe(original):
        """Times construction and each slot of the sweep's runs, keeps their logs."""

        def __init__(self, *args, **kwargs):
            clock.timed("setup", super().__init__, *args, **kwargs)

        def run_slot(self, t, log):
            return clock.timed("slot", super().run_slot, t, log)

        def run(self, progress=None):
            log = super().run(progress)
            runs.append((log, {q: getattr(self, q).copy() for q in QUEUES}))
            return log

    engine.Simulation = Probe
    errors = []
    rows: list[dict[str, Any]] = []
    clock.chunk_total = 0.0
    wall0 = time.perf_counter()
    try:
        rows = engine.sweep("v", list(wl.sweep_values), cfg, policy=wl.policy,
                            seed=seed, total_slots=slots)
    except Exception as exc:  # a failed sweep fails all of its slots
        errors.append(f"sweep: {type(exc).__name__}: {exc}")
    finally:
        engine.Simulation = original
    wall = time.perf_counter() - wall0 - clock.chunk_total
    total = slots * len(wl.sweep_values)
    if errors or len(runs) != len(wl.sweep_values):
        failed = total
    else:
        failed = sum(failed_slots(log, final, slots) for log, final in runs)
    path = tmp / "sweep_v.csv"
    for _ in range(wl.writes_per_rep):
        clock.timed("write", engine.sweep_to_csv, rows, path)
    runs.clear()   # Probe is freed only by the cycle collector; its logs now
    result = {"slots": total, "failed": failed, "errors": errors, "wall": wall,
              **clock.arrays(),
              "sha256": sha256(path) if rows else "",
              "csv_bytes": 0, "train_steps": 0,
              "tail_power_w": [r["tail_mean_power_w"] for r in rows],
              "tail_queue_tasks": [r["tail_mean_sum_queue"] for r in rows]}
    path.unlink(missing_ok=True)
    return result


# ---------------------------------------------------------------------------
# Tracing: spans around the calls into each layer
# ---------------------------------------------------------------------------

def install_spans(tracer) -> None:
    w = tracer.wrap
    w(engine.Simulation, "run_slot", "engine.run_slot", slot_arg=1)
    w(engine.Simulation, "__init__", "engine.Simulation.init")
    w(engine.MetricsLog, "to_csv", "engine.MetricsLog.to_csv")
    w(channel, "slot_rng", "channel.slot_rng")
    w(channel, "draw_channels", "channel.draw_channels")
    w(critic.PolicyBatch, "best", "critic.search",
      on_return=lambda args, _: tracer.count("policies_scored", len(args[0])))
    w(critic, "best_policy", "critic.search")
    w(critic, "device_g_table", "critic.device_g_table")
    w(critic, "evaluate_policy", "critic.evaluate_policy")
    w(oracle, "policy_table", "oracle.policy_table")
    w(actor, "featurize", "actor.featurize")
    w(actor, "relaxed_policy", "actor.relaxed_policy")

    def candidates(args, result):
        tracer.count("candidates_requested", args[1])
        tracer.count("candidates_distinct", result[0].shape[0])
    w(actor, "generate_candidates", "actor.generate_candidates", on_return=candidates)
    w(actor.ActorNetwork, "loss", "actor.ActorNetwork.loss")
    w(actor, "train_step", "actor.train_step", cpu=True)
    w(power, "total_power", "power.total_power")
    for fn in ("update_local_queue", "update_edge_queue", "update_virtual_queue",
               "drift_plus_penalty"):
        w(queueing, fn, "queueing.update")
    w(queueing, "drift_penalty_bound", "queueing.drift_penalty_bound")
    w(config.SlotState, "check", "config.SlotState.check")
    w(config.Policy, "key", "config.Policy.key")


SELF_US = ("channel.slot_rng", "channel.draw_channels", "critic.search",
           "critic.device_g_table", "critic.evaluate_policy", "actor.featurize",
           "actor.relaxed_policy", "actor.generate_candidates",
           "actor.ActorNetwork.loss", "actor.train_step", "power.total_power",
           "queueing.update", "queueing.drift_penalty_bound",
           "config.SlotState.check", "config.Policy.key", "engine.run_slot")
CALLS_PER_SLOT = ("channel.slot_rng", "critic.evaluate_policy", "power.total_power")
MEDIAN_S = ("oracle.policy_table", "engine.Simulation.init",
            "engine.MetricsLog.to_csv")


def layer_metrics(tracer, slots: int, reps: list[dict[str, Any]],
                  speed: float) -> dict[str, float]:
    """Per-layer metrics over all traced slots; counts are exact integers or
    ratios of exact integers, so they repeat bit for bit for a seed. Times
    are scaled by `speed`, the run's median host speed (reference.py)."""
    spans = tracer.arrays()
    in_slot = spans["slot"] >= 0
    out: dict[str, float] = {}
    for name in SELF_US:
        mask = tracer.name_mask(spans, name) & in_slot
        out[f"{name}.self_us"] = float(spans["self"][mask].sum() / slots * 1e6 * speed)
    for name in CALLS_PER_SLOT:
        mask = tracer.name_mask(spans, name) & in_slot
        out[f"{name}.calls_per_slot"] = int(mask.sum()) / slots
    for name in MEDIAN_S:
        durs = spans["dur"][tracer.name_mask(spans, name)]
        out[f"{name}.s"] = float(np.median(durs) * speed) if durs.size else 0.0
    train = np.flatnonzero(tracer.name_mask(spans, "actor.train_step"))
    wall = float(spans["dur"][train].sum())
    out["actor.train_step.cpu_per_wall"] = (
        sum(tracer.cpu[i] for i in train) / wall if wall > 0 else 0.0)
    counts = tracer.counts
    out["critic.policies_scored_per_slot"] = counts.get("policies_scored", 0) / slots
    requested = counts.get("candidates_requested", 0)
    out["actor.candidate_unique_ratio"] = (
        counts.get("candidates_distinct", 0) / requested if requested else 0.0)
    out["actor.train_steps"] = reps[0]["train_steps"]
    out["engine.metrics_csv.bytes"] = reps[0]["csv_bytes"]
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def openblas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict[str, Any]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": openblas_threads(),
            "blas_thread_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                if k in os.environ} or "library default",
            "semoff_threads_env": os.environ.get("SEMOFF_THREADS"),
            "nproc": os.cpu_count()}


# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool) -> dict[str, Any]:
    wl = WORKLOADS[name]
    slots = wl.smoke_slots if smoke else wl.slots
    runner = run_sweep if wl.sweep_values else run_single
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        install_spans(tracer)
    for _ in range(50):     # first calls into numpy run slow; keep them untimed
        reference.chunk()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        reps: list[dict[str, Any]] = []
        deadline = time.perf_counter() + seconds
        rep_s = 0.0      # the last repetition's length; the next one must fit
        while len(reps) < 2 or time.perf_counter() + rep_s < deadline:
            t0 = time.perf_counter()
            reps.append(runner(wl, seed, slots, tmp))
            rep_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        shutil.rmtree(tmp, ignore_errors=True)
        if scratch.exists() and not any(scratch.iterdir()):
            scratch.rmdir()

    hashes = [r["sha256"] for r in reps]
    errors = [e for r in reps for e in r["errors"]]
    failed = sum(r["failed"] for r in reps)
    for r in reps[1:]:
        if r["sha256"] != hashes[0]:   # same seed must give the same bytes
            failed += r["slots"] - r["failed"]
            errors.append(f"metrics hash {r['sha256'][:12]} differs from "
                          f"first repetition's {hashes[0][:12]}")
    # Every timed call is scaled to the reference host speed (reference.py);
    # then, as every repetition repeats the same work, each slot counts at
    # its median over the repetitions.
    done = min(len(r["slot"]) for r in reps)
    per_slot = np.array([r["slot"][:done] for r in reps])   # rep, slot, (wall, cpu, chunk)
    speed = reference.CHUNK_S / per_slot[..., 2]
    wall = np.median(per_slot[..., 0] * speed, axis=0)
    cpu = np.median(per_slot[..., 1] * speed, axis=0)
    # The rest of the timed call: loop glue, and the sweep's set-ups and summaries.
    rest = np.median([(r["wall"] - r["slot"][:, 0].sum()) * reference.CHUNK_S
                      / np.median(r["slot"][:, 2]) for r in reps])

    def scaled(kind: str) -> np.ndarray:
        rows = np.concatenate([r[kind] for r in reps])
        return rows[:, 0] * reference.CHUNK_S / rows[:, 2]

    setups = scaled("setup")
    host_speed = float(reference.CHUNK_S / np.median(per_slot[..., 2]))
    metrics = {
        "slots_per_s": float(reps[0]["slots"] / (wall.sum() + max(rest, 0.0))),
        "slot_ms_p50": float(np.percentile(wall, 50) * 1e3),
        "slot_ms_p99": float(np.percentile(wall, 99) * 1e3),
        "cpu_ms_per_slot": float(cpu.mean() * 1e3),
        "setup_s": float(np.median(setups)),
        "write_s": float(np.median(scaled("write"))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    total_slots = sum(r["slots"] for r in reps)
    result = {
        "workload": name,
        "traced": traced, "reps": len(reps), "attempted": total_slots,
        "failed": failed, "errors": errors, "metrics": metrics,
        "slot_samples": done, "setup_samples": len(setups),
        "host_speed": host_speed,
        "outcome": {"sha256": hashes[0], "tail_power_w": reps[0]["tail_power_w"],
                    "tail_queue_tasks": reps[0]["tail_queue_tasks"]},
        "env": environment(),
        "semoff_file": semoff.__file__,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, total_slots, reps, host_speed)
    return result


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
