"""Command-line front end: simulate, sweep, enumerate, verify.

Flag precedence is flag > config file > built-in default.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from . import channel, critic, engine, oracle, power
from .config import (ConfigError, SlotState, SystemConfig, SystemParams, config_from_dict,
                     read_config_file, validate_config)


def _resolve(args, default: engine.Scenario = engine.Scenario(), check_config: bool = True
             ) -> tuple[SystemConfig, engine.Scenario]:
    """The config and scenario a command runs: the `--config` file's groups
    and run settings (its `scenario` group, else `default`), a `--scenario`
    preset's values over the groups, the flags over both. Raises ConfigError
    with every problem of its run settings and (with `check_config`) config."""
    cfg, scenario = SystemConfig(), default
    if args.config is not None:
        raw = read_config_file(args.config)
        cfg = config_from_dict(raw)
        if "scenario" in raw:
            scenario = engine.scenario_from_dict(raw["scenario"])
    if getattr(args, "scenario", None) is not None:
        scenario = engine.SCENARIO_PRESETS[args.scenario](
            policy=scenario.policy, seed=scenario.seed)
    updates = {}
    if getattr(args, "policy", None) is not None:
        updates["policy"] = args.policy
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "slots", None) is not None:
        updates["total_slots"] = args.slots
    scenario = dataclasses.replace(scenario, **updates)
    resolved = scenario.apply(cfg)
    problems = engine.validate_scenario(scenario) + (
        validate_config(resolved) if check_config else [])
    if problems:
        raise ConfigError("\n".join(problems))
    return resolved, scenario


def cmd_simulate(args) -> int:
    cfg, scenario = _resolve(args)

    def progress(done: int, total: int) -> None:
        print(f"  slot {done}/{total}", file=sys.stderr)

    log = engine.Simulation(cfg, scenario.policy, scenario.seed).run(
        progress=progress if args.verbose else None)
    outdir = Path(args.out)
    engine.write_run_outputs(outdir, log, cfg, scenario)
    print(f"run complete: {scenario.policy}, {log.total_slots} slots, "
          f"tail mean power {log.tail_mean('p_total'):.4f} W -> {outdir}")
    return 0


def cmd_sweep(args) -> int:
    # resolved as `simulate` resolves its run, the policy defaulting to
    # exhaustive; `engine.sweep` checks the config at each swept value
    cfg, scenario = _resolve(args, engine.Scenario(policy="exhaustive"), check_config=False)
    values = [float(v) for v in args.values.split(",")]
    rows = engine.sweep(args.param, values, cfg, policy=scenario.policy, seed=scenario.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    engine.sweep_to_csv(rows, outdir / f"sweep_{args.param}.csv")
    for row in rows:
        print(f"{args.param}={row['value']}: "
              f"q_local={row['tail_mean_q_local_per_device']:.4f} "
              f"q_edge={row['tail_mean_q_edge_per_device']:.4f} "
              f"power={row['tail_mean_power_w']:.4f} W "
              f"search_space={row['search_space_size']}")
    return 0


_ENUMERATE_FLAGS = {"num_devices": "--users", "chi_edge": "--chi-e", "chi_cloud": "--chi-c"}


def cmd_enumerate(args) -> int:
    # the device count and association caps, by `validate_config`'s rules
    system = SystemParams(num_devices=args.users, chi_edge=args.chi_e, chi_cloud=args.chi_c)
    problems = validate_config(SystemConfig(system))
    for p in problems:   # each message names its field first: name its flag with it
        print("error: " + re.sub(r"^\w+", lambda m: f"{_ENUMERATE_FLAGS[m[0]]} ({m[0]})", p),
              file=sys.stderr)
    if problems:
        return 2
    count = oracle.count_policies(args.users, args.chi_e, args.chi_c)
    if args.count_only:
        print(count)
        return 0
    for pol in oracle.enumerate_policies(args.users, args.chi_e, args.chi_c):
        edge = "".join("1" if b else "0" for b in pol.rho_edge)
        cloud = "".join("1" if b else "0" for b in pol.rho_cloud)
        print(f"{edge} {cloud}")
    return 0


# ---------------------------------------------------------------------------
# verify: the closed-form solver stages against dense grids of their own
# objectives, at the `--config` file's coefficients
# ---------------------------------------------------------------------------

def _random_state(cfg: SystemConfig, rng: np.random.Generator,
                  geom: channel.LinkGeometry) -> SlotState:
    n = cfg.system.num_devices
    draw = channel.draw_channels(geom, cfg, [rng])
    return channel.slot_state(cfg, draw.h2_edge[0], draw.h2_cloud[0],
                              q_local=rng.uniform(0.0, 15.0, n),
                              q_edge=rng.uniform(0.0, 5.0, n),
                              z_local=rng.uniform(0.0, 5.0, n),
                              z_edge=rng.uniform(0.0, 3.0, n))


def _stage_grid_rows(cfg: SystemConfig, state: SlotState, sample: int,
                     grid_points: int) -> tuple[list[dict], float]:
    """Compare each stage's closed form against a dense grid of its own
    objective; returns audit rows and the worst objective shortfall."""
    s = cfg.system
    v = s.lyapunov_v
    tau = s.slot_length

    # combo 3 (edge and cloud) of the slot's combo solve
    combos = critic.device_g_table(state, cfg)[1]
    u_e, u_c, f_l, f_e = combos.u_edge[3], combos.u_cloud[3], combos.f_local[3], combos.f_edge

    rows: list[dict] = []
    worst = 0.0
    for i in range(s.num_devices):
        w_edge = (state.q_local[i] + state.z_local[i]
                  - state.q_edge[i] - state.z_edge[i])
        w_local = state.q_local[i] + state.z_local[i]   # also the cloud stage's
        w_decode = state.q_edge[i] + state.z_edge[i]

        stages = []
        hi = min(state.q_local[i], float(cfg.coefficients.u_encode),
                 float(power.semantic_volume_cap(state.h2_edge[i], cfg)))

        def j_edge(u):
            f_en = u * s.task_flops_encode / (tau * s.flops_per_cycle_local)
            return -w_edge * u + v * s.alpha_local * f_en ** 3

        stages.append(("edge_volume", u_e[i], max(hi, 0.0), j_edge))

        hi_c = max(min(state.q_local[i] - u_e[i],
                       float(power.cloud_offload_cap(state.h2_cloud[i], cfg))), 0.0)
        bits = cfg.semantic.sentence_len * cfg.semantic.bits_per_word

        def j_cloud(u):
            exp = u * bits / (tau * cfg.bandwidth_cloud)
            p = (2.0 ** exp - 1.0) * cfg.channel.noise_psd * cfg.bandwidth_cloud / state.h2_cloud[i]
            return -w_local * u + v * p

        stages.append(("cloud_volume", u_c[i], hi_c, j_cloud))

        f_en_i = u_e[i] * s.task_flops_encode / (tau * s.flops_per_cycle_local)
        hi_f = max(min(s.f_local_max - f_en_i,
                       (state.q_local[i] - u_e[i] - u_c[i]) * s.task_flops_total
                       / (tau * s.flops_per_cycle_local)), 0.0)

        def j_local(f):
            rate = tau * s.flops_per_cycle_local * f / s.task_flops_total
            return -w_local * rate + v * s.alpha_local * f ** 3

        stages.append(("local_freq", f_l[i], hi_f, j_local))

        hi_fe = max(min(s.f_edge_max,
                        state.q_edge[i] * s.task_flops_decode
                        / (tau * s.flops_per_cycle_edge)), 0.0)

        def j_decode(f):
            rate = tau * s.flops_per_cycle_edge * f / s.task_flops_decode
            return -w_decode * rate + v * s.alpha_edge_weighted * f ** 3

        stages.append(("edge_freq", f_e[i], hi_fe, j_decode))

        for name, analytic, upper, objective in stages:
            grid = np.linspace(0.0, upper, grid_points) if upper > 0 else np.zeros(1)
            grid_obj = objective(grid)
            k = int(np.argmin(grid_obj))
            gap = float(objective(analytic) - grid_obj[k])
            worst = max(worst, gap)
            rows.append({"sample": sample, "device": i, "stage": name,
                         "analytic_value": analytic, "analytic_objective": float(objective(analytic)),
                         "grid_value": float(grid[k]), "grid_objective": float(grid_obj[k]),
                         "objective_gap": gap})
    return rows, worst


def cmd_verify(args) -> int:
    cfg, _ = _resolve(args)   # the seed below is `--seed`, 0 without it
    rng = channel.run_rng(args.seed or 0, 99)
    geom = channel.place_devices(cfg, rng)
    audit_rows: list[dict] = []
    worst_gap = 0.0
    for sample in range(200):
        state = _random_state(cfg, rng, geom)
        rows, worst = _stage_grid_rows(cfg, state, sample, grid_points=10001)
        audit_rows.extend(rows)
        worst_gap = max(worst_gap, worst)
    ok = worst_gap <= 1e-9
    print(f"solver-vs-grid: worst objective gap {worst_gap:.3e} "
          f"({'ok' if ok else 'FAIL'})")

    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "solver_audit.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(audit_rows[0].keys()))
            writer.writeheader()
            for row in audit_rows:
                writer.writerow(row)
        print(f"audit table -> {outdir / 'solver_audit.csv'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semoff",
        description="Simulator and per-slot solvers for semantic-aware "
                    "cloud-edge-end computational offloading.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, slots: bool = True) -> None:
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (see README for the schema)")
        p.add_argument("--seed", type=int, default=None)
        if slots:
            p.add_argument("--slots", type=int, default=None)

    sim = sub.add_parser("simulate", help="run one scenario and write outputs")
    add_common(sim)
    sim.add_argument("--scenario", choices=["1", "2"], default=None,
                     help="apply a preset scenario")
    sim.add_argument("--policy", type=str, default=None,
                     help="drlh:N | exhaustive | random")
    sim.add_argument("--out", type=str, default="runs/latest")
    sim.add_argument("--verbose", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="run a parameter sweep")
    add_common(sw)
    sw.add_argument("--param", choices=list(engine.SWEEPABLE), required=True)
    sw.add_argument("--values", type=str, required=True,
                    help="comma-separated values")
    sw.add_argument("--policy", type=str, default=None)
    sw.add_argument("--out", type=str, default="runs/sweep")
    sw.set_defaults(func=cmd_sweep)

    en = sub.add_parser("enumerate", help="enumerate (or count) feasible policies")
    en.add_argument("--users", type=int, required=True)
    en.add_argument("--chi-e", type=int, required=True)
    en.add_argument("--chi-c", type=int, required=True)
    en.add_argument("--count-only", action="store_true")
    en.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="audit the closed-form solver stages against dense grids")
    add_common(ver, slots=False)
    ver.add_argument("--out", type=str, default=None,
                     help="write the per-stage audit table here")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in str(exc).splitlines():
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
