"""Command-line front end: simulate, sweep, enumerate, verify.

Flag precedence is flag > config file > built-in default.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import actor, channel, critic, engine, oracle, power, queueing
from .config import (ConfigError, SlotState, SystemConfig, load_config,
                     validate_config)


def _load(args) -> tuple[SystemConfig, engine.Scenario | None]:
    cfg = SystemConfig()
    scenario = None
    if args.config is not None:
        cfg = load_config(args.config)
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if "scenario" in raw:
            scenario = engine.scenario_from_dict(raw["scenario"])
    return cfg, scenario


def _resolve_scenario(args, file_scenario: engine.Scenario | None) -> engine.Scenario:
    scenario = file_scenario or engine.Scenario()
    if getattr(args, "scenario", None) is not None:
        preset = engine.SCENARIO_PRESETS[str(args.scenario)]
        scenario = preset(policy=scenario.policy, seed=scenario.seed,
                          total_slots=scenario.total_slots)
    updates = {}
    if getattr(args, "policy", None) is not None:
        engine.parse_policy_spec(args.policy)  # fail fast on bad specs
        updates["policy"] = args.policy
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "slots", None) is not None:
        updates["total_slots"] = args.slots
    return dataclasses.replace(scenario, **updates) if updates else scenario


def cmd_simulate(args) -> int:
    cfg, file_scenario = _load(args)
    scenario = _resolve_scenario(args, file_scenario)
    resolved = scenario.apply(cfg)
    problems = validate_config(resolved)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2

    def progress(done: int, total: int) -> None:
        print(f"  slot {done}/{total}", file=sys.stderr)

    log = engine.run_scenario(cfg, scenario,
                              progress=progress if args.verbose else None)
    outdir = Path(args.out)
    engine.write_run_outputs(outdir, log, resolved, scenario,
                             channel_trace=args.channel_trace)
    print(f"run complete: {scenario.policy}, {log.total_slots} slots, "
          f"tail mean power {log.tail_mean('p_total'):.4f} W -> {outdir}")
    return 0


def cmd_sweep(args) -> int:
    cfg, file_scenario = _load(args)
    seed = args.seed if args.seed is not None else (file_scenario.seed if file_scenario else 1)
    policy = args.policy if args.policy is not None else "exhaustive"
    slots = args.slots if args.slots is not None else engine.INHERIT
    values = [float(v) for v in args.values.split(",")]
    rows = engine.sweep(args.param, values, cfg, policy=policy, seed=seed,
                        total_slots=slots)
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


def cmd_enumerate(args) -> int:
    try:
        count = oracle.count_policies(args.users, args.chi_e, args.chi_c)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.count_only:
        print(count)
        return 0
    for pol in oracle.enumerate_policies(args.users, args.chi_e, args.chi_c):
        edge = "".join("1" if b else "0" for b in pol.rho_edge)
        cloud = "".join("1" if b else "0" for b in pol.rho_cloud)
        print(f"{edge} {cloud}")
    return 0


# ---------------------------------------------------------------------------
# verify: independent cross-checks of the solver stages, gradients, and the
# drift bound
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
    b_e, b_c = cfg.bandwidth_edge, cfg.bandwidth_cloud
    ones = np.ones(s.num_devices, dtype=bool)

    u_e = critic.solve_edge_volume(state, ones, cfg)
    u_c = critic.solve_cloud_volume(state, ones, u_e, cfg)
    f_l = critic.solve_local_frequency(state, u_e, u_c, cfg)
    f_e = critic.solve_edge_frequency(state, cfg)

    rows: list[dict] = []
    worst = 0.0
    for i in range(s.num_devices):
        w_edge = (state.q_local[i] + state.z_local[i]
                  - state.q_edge[i] - state.z_edge[i])
        w_local = state.q_local[i] + state.z_local[i]   # also the cloud stage's
        w_decode = state.q_edge[i] + state.z_edge[i]

        stages = []
        hi = min(state.q_local[i], float(power.encode_rate(s.f_local_max, cfg)),
                 float(power.semantic_volume_cap(state.h2_edge[i], b_e, cfg)))

        def j_edge(u):
            f_en = u * s.task_flops_encode / (tau * s.flops_per_cycle_local)
            return -w_edge * u + v * s.alpha_local * f_en ** 3

        stages.append(("edge_volume", u_e[i], max(hi, 0.0), j_edge))

        hi_c = max(min(state.q_local[i] - u_e[i],
                       float(power.cloud_offload_cap(state.h2_cloud[i], b_c, cfg))), 0.0)
        bits = cfg.semantic.sentence_len * cfg.semantic.bits_per_word

        def j_cloud(u):
            exp = u * bits / (tau * b_c)
            p = (2.0 ** exp - 1.0) * cfg.channel.noise_psd * b_c / state.h2_cloud[i]
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
    cfg, _ = _load(args)
    problems = validate_config(cfg)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    rng = channel.run_rng(args.seed or 0, 99)
    geom = channel.place_devices(cfg, rng)
    failures = 0
    n_samples = 20 if args.quick else 200
    grid_points = 2001 if args.quick else 10001

    # 1. closed forms against per-stage grids
    audit_rows: list[dict] = []
    worst_gap = 0.0
    for sample in range(n_samples):
        state = _random_state(cfg, rng, geom)
        rows, worst = _stage_grid_rows(cfg, state, sample, grid_points)
        audit_rows.extend(rows)
        worst_gap = max(worst_gap, worst)
    ok = worst_gap <= 1e-9
    failures += 0 if ok else 1
    print(f"solver-vs-grid: worst objective gap {worst_gap:.3e} "
          f"({'ok' if ok else 'FAIL'})")

    # 2. gradient check on a small network
    grad_rng = channel.run_rng(args.seed or 0, 98)
    net = actor.ActorNetwork.create(4, (16, 12), grad_rng)
    x = grad_rng.normal(size=(6, 24))
    y = (grad_rng.random(size=(6, 8)) > 0.5).astype(float)
    _, gw, gb = net.loss_and_grad(x, y)
    worst_rel = 0.0
    h = 1e-6
    for arrs, grads in ((net.weights, gw), (net.biases, gb)):
        for arr, grad in zip(arrs, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            idx = grad_rng.choice(flat.size, size=min(40, flat.size), replace=False)
            for j in idx:
                old = flat[j]
                flat[j] = old + h
                up = net.loss(x, y)
                flat[j] = old - h
                dn = net.loss(x, y)
                flat[j] = old
                fd = (up - dn) / (2 * h)
                worst_rel = max(worst_rel, abs(fd - gflat[j]) / max(abs(fd), 1e-8))
    ok = worst_rel <= 1e-4
    failures += 0 if ok else 1
    print(f"gradient-vs-finite-difference: worst relative error {worst_rel:.3e} "
          f"({'ok' if ok else 'FAIL'})")

    # 3. drift bound on random transitions
    caps = queueing.rate_caps(cfg)
    violations = 0
    n_trans = 500 if args.quick else 5000
    for _ in range(n_trans):
        state = _random_state(cfg, rng, geom)
        pol = oracle.random_policy(rng, cfg.system.num_devices,
                                   cfg.system.chi_edge, cfg.system.chi_cloud)
        sol, _ = critic.gather(*critic.device_g_table(state, cfg), pol)
        arrivals = rng.poisson(cfg.mean_arrivals_per_slot,
                               cfg.system.num_devices).astype(float)
        terms = queueing.bound_terms(state.cloud_cap[None], arrivals[None], cfg, caps)
        _, _, _, dpp, bound = engine.step(state, queueing.lyapunov_value(state), sol,
                                          arrivals, cfg, caps, terms, 0)
        if dpp > bound + engine.BOUND_TOL:
            violations += 1
    ok = violations == 0
    failures += 0 if ok else 1
    print(f"drift-bound: {violations}/{n_trans} violations ({'ok' if ok else 'FAIL'})")

    # 4. enumeration counts
    expected = {4: 6, 6: 225, 8: 1960, 10: 9450, 12: 32670}
    counts_ok = all(oracle.count_policies(n, 4, 2) == c for n, c in expected.items())
    failures += 0 if counts_ok else 1
    print(f"enumeration-counts: {'ok' if counts_ok else 'FAIL'}")

    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "solver_audit.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(audit_rows[0].keys()))
            writer.writeheader()
            for row in audit_rows:
                writer.writerow(row)
        print(f"audit table -> {outdir / 'solver_audit.csv'}")

    print("verify:", "all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semoff",
        description="Simulator and per-slot solvers for semantic-aware "
                    "cloud-edge-end computational offloading.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (see README for the schema)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--slots", type=int, default=None)

    sim = sub.add_parser("simulate", help="run one scenario and write outputs")
    add_common(sim)
    sim.add_argument("--scenario", choices=["1", "2"], default=None,
                     help="apply a preset scenario")
    sim.add_argument("--policy", type=str, default=None,
                     help="drlh:N | exhaustive | random")
    sim.add_argument("--out", type=str, default="runs/latest")
    sim.add_argument("--channel-trace", action="store_true",
                     help="also write per-slot channel gains")
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

    ver = sub.add_parser("verify", help="run solver/gradient/bound cross-checks")
    add_common(ver)
    ver.add_argument("--out", type=str, default=None,
                     help="write the per-stage audit table here")
    ver.add_argument("--quick", action="store_true")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
