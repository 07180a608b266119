"""Time-slot simulation loop binding channels, policy selection, solving,
queue updates, training, and metric collection.

RNG discipline: every random ingredient draws from its own named stream
derived from the master seed, and the per-slot streams (channel, arrivals,
random policy) are keyed by slot index, so replays are order-independent
and toggling one feature never perturbs another stream. Gains, link caps and
arrivals are drawn per block of slots (`Simulation.channels`), one stream per
slot, with what needs no queue: the drift bound's queue-free terms and the
actor's gain features, whose rows have the bits of per-slot calls.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import actor, channel, critic, oracle, queueing
from .config import (ConfigError, Policy, SlotState, SystemConfig, config_to_dict,
                     validate_config)

# Named RNG streams (master seed, stream id[, slot]).
STREAM_PLACEMENT = 0
STREAM_ACTOR_INIT = 1
STREAM_ACTOR_NOISE = 2
STREAM_MEMORY = 3
STREAM_CHANNEL = 4
STREAM_ARRIVALS = 5
STREAM_RANDOM_POLICY = 6

INHERIT: Any = object()  # scenario fields left at the base config

BOUND_TOL = 1e-9   # a slot breaks the drift bound when dpp > bound + BOUND_TOL


def parse_policy_spec(spec: str) -> tuple[str, int]:
    """Parse 'drlh:N' | 'exhaustive' | 'random' into (kind, candidates)."""
    if spec.startswith("drlh"):
        parts = spec.split(":")
        if len(parts) == 2 and parts[1].isdigit() and int(parts[1]) >= 1:
            return "drlh", int(parts[1])
        raise ValueError(f"bad policy spec {spec!r}; expected drlh:N with N >= 1")
    if spec in ("exhaustive", "random"):
        return spec, 0
    raise ValueError(f"unknown policy spec {spec!r}")


@dataclass(frozen=True)
class Scenario:
    """Named bundle of run settings layered over a base config."""

    name: str = "custom"
    policy: str = "drlh:64"
    seed: int = 1
    arrival_rate_per_sec: Any = INHERIT
    q_max_local: Any = INHERIT   # None = unbounded
    q_max_edge: Any = INHERIT
    total_slots: Any = INHERIT

    def apply(self, cfg: SystemConfig) -> SystemConfig:
        sys_updates: dict[str, Any] = {}
        for name in ("arrival_rate_per_sec", "q_max_local", "q_max_edge"):
            value = getattr(self, name)
            if value is not INHERIT:
                sys_updates[name] = value
        tr_updates: dict[str, Any] = {}
        if self.total_slots is not INHERIT:
            tr_updates["total_slots"] = self.total_slots
        out = cfg
        if sys_updates:
            out = dataclasses.replace(out, system=dataclasses.replace(out.system, **sys_updates))
        if tr_updates:
            out = dataclasses.replace(out, training=dataclasses.replace(out.training, **tr_updates))
        return out

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "policy": self.policy,
                               "seed": self.seed}
        for name in ("arrival_rate_per_sec", "q_max_local", "q_max_edge",
                     "total_slots"):
            value = getattr(self, name)
            if value is not INHERIT:
                out[name] = value
        return out


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """A config file's 'scenario' group. Checks the run settings here; the
    values it layers over the config are checked by `validate_config`."""
    if not isinstance(data, dict):
        raise ConfigError("'scenario' must be an object")
    unknown = set(data) - {f.name for f in dataclasses.fields(Scenario)}
    if unknown:
        raise ConfigError(f"unknown key(s) in 'scenario': {sorted(unknown)}")
    scenario = Scenario(**data)
    for name in ("name", "policy"):
        if type(getattr(scenario, name)) is not str:
            raise ConfigError(f"scenario.{name}: must be a string, "
                              f"got {getattr(scenario, name)!r}")
    if type(scenario.seed) is not int or scenario.seed < 0:
        raise ConfigError(f"scenario.seed: must be an integer >= 0, got {scenario.seed!r}")
    try:
        parse_policy_spec(scenario.policy)
    except ValueError as exc:
        raise ConfigError(f"scenario.policy: {exc}") from None
    return scenario


def scenario_one(policy: str = "drlh:64", seed: int = 1,
                 total_slots: Any = INHERIT) -> Scenario:
    """Moderate load: 100 tasks/s, queue caps 5 (device) and 1 (edge)."""
    return Scenario(name="scenario1", policy=policy, seed=seed,
                    arrival_rate_per_sec=100.0, q_max_local=5.0,
                    q_max_edge=1.0, total_slots=total_slots)


def scenario_two(policy: str = "drlh:64", seed: int = 1,
                 total_slots: Any = INHERIT) -> Scenario:
    """High load: 750 tasks/s, unbounded queue caps."""
    return Scenario(name="scenario2", policy=policy, seed=seed,
                    arrival_rate_per_sec=750.0, q_max_local=None,
                    q_max_edge=None, total_slots=total_slots)


SCENARIO_PRESETS = {"1": scenario_one, "2": scenario_two,
                    "scenario1": scenario_one, "scenario2": scenario_two}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_PER_DEVICE_SERIES = ("arrivals", "q_local", "q_edge", "z_local", "z_edge",
                      "u_edge", "u_cloud", "mu_local", "mu_edge",
                      "h2_edge", "h2_cloud")
_SCALAR_SERIES = ("p_local", "p_edge", "p_tx_edge", "p_tx_cloud", "p_total",
                  "g_value", "dpp", "bound", "test_loss", "train_loss")


class MetricsLog:
    """Per-slot records of one run plus windowed/tail reductions."""

    def __init__(self, total_slots: int, num_devices: int):
        self.total_slots = total_slots
        self.num_devices = num_devices
        for name in _PER_DEVICE_SERIES:
            setattr(self, name, np.zeros((total_slots, num_devices)))
        for name in _SCALAR_SERIES:
            setattr(self, name, np.full(total_slots, np.nan))
        # Python ints: the masks need I bits, more than int64 holds at I >= 64,
        # and C(I, chi_e) * C(I, chi_c) candidates pass 2**63 at I = 40, chi = (20, 10)
        self.policy_edge = np.zeros(total_slots, dtype=object)
        self.policy_cloud = np.zeros(total_slots, dtype=object)
        self.num_candidates = np.zeros(total_slots, dtype=object)
        self.bound_violations = 0
        self.train_steps = 0

    @property
    def tail_start(self) -> int:
        """First slot of the stabilized tail: the final third of the run, and
        at least the last slot."""
        return self.total_slots - max(self.total_slots // 3, 1)

    def tail_mean(self, name: str) -> float:
        """Mean over the stabilized tail (see `tail_start`)."""
        return float(np.nanmean(getattr(self, name)[self.tail_start:]))

    def tail_mean_per_device(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name)[self.tail_start:]).mean(axis=0)

    def sum_queue(self) -> np.ndarray:
        """System total backlog (local plus edge) per slot."""
        return self.q_local.sum(axis=1) + self.q_edge.sum(axis=1)

    def to_csv(self, path: str | Path) -> None:
        header = ["slot"]
        cols = [np.arange(self.total_slots)]
        for name in _PER_DEVICE_SERIES:
            header += [f"{name}_{i}" for i in range(self.num_devices)]
            cols += list(getattr(self, name).T)
        header += list(_SCALAR_SERIES)
        cols += [getattr(self, name) for name in _SCALAR_SERIES]
        header += ["policy_edge_mask", "policy_cloud_mask", "num_candidates"]
        cols += [self.policy_edge, self.policy_cloud, self.num_candidates]
        _write_columns(path, header, cols)

    def loss_to_csv(self, path: str | Path) -> None:
        _write_columns(path, ["slot", "train_loss", "test_loss"],
                       [np.arange(self.total_slots), self.train_loss, self.test_loss])

    def channels_to_csv(self, path: str | Path) -> None:
        _write_columns(path, ["slot", "device", "h2_edge", "h2_cloud"],
                       [np.repeat(np.arange(self.total_slots), self.num_devices),
                        np.tile(np.arange(self.num_devices), self.total_slots),
                        self.h2_edge.reshape(-1), self.h2_cloud.reshape(-1)])


_CSV_BLOCK_ROWS = 16   # rows formatted at a time, so the text held stays small


def _write_columns(path: str | Path, header: list[str], cols: list[np.ndarray]) -> None:
    """Write equal-length 1-D columns as CSV rows, byte for byte as
    `csv.writer` writes them (no field here needs quoting; rows end in
    CRLF): floats as `repr`, the shortest text that reads back exactly,
    integers (also Python ints in object arrays) as `str`."""
    text = [repr if col.dtype.kind == "f" else str for col in cols]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            block = [map(fmt, col[lo:lo + _CSV_BLOCK_ROWS].tolist())
                     for fmt, col in zip(text, cols)]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*block))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def step(state: SlotState, l_state: float, sol: critic.Solution, arrivals: np.ndarray,
         cfg: SystemConfig, caps: queueing.RateCaps, terms: tuple, k: int
         ) -> tuple[SlotState, float, tuple[float, float, float, float, float], float, float]:
    """One slot's queue transition under a solved allocation.

    Checks the clock budgets and the backlog (`critic.check_clocks_and_backlog`),
    updates the real and then the virtual queues. Takes and returns the
    Lyapunov values of `state` and of the next state (the slot's channels
    carried over; the slot is row k of its block's `queueing.bound_terms`);
    also returns the power sums (local, edge, edge transmit, cloud transmit,
    total), the realised drift-plus-penalty and its upper bound. Pure:
    `state` and `sol` are not modified.
    """
    s = cfg.system
    critic.check_clocks_and_backlog(sol, state, cfg)
    sums = [float(p.sum()) for p in (sol.p_local, sol.p_edge, sol.p_tx_edge, sol.p_tx_cloud)]
    p_total = sums[0] + sums[1] + sums[2] + sums[3]   # `power.total_power`'s order
    q_local = queueing.update_local_queue(state.q_local, sol.mu_local, arrivals)
    q_edge = queueing.update_edge_queue(state.q_edge, sol.mu_edge, sol.alloc.u_edge)
    nxt = SlotState(h2_edge=state.h2_edge, h2_cloud=state.h2_cloud,
                    edge_cap=state.edge_cap, cloud_cap=state.cloud_cap,
                    q_local=q_local, q_edge=q_edge,
                    z_local=queueing.update_virtual_queue(state.z_local, q_local,
                                                          s.q_max_local),
                    z_edge=queueing.update_virtual_queue(state.z_edge, q_edge,
                                                         s.q_max_edge))
    l_nxt = queueing.lyapunov_value(nxt)
    dpp = queueing.drift_plus_penalty(l_state, l_nxt, p_total, s.lyapunov_v)
    bound = queueing.drift_penalty_bound(state, sol.mu_local, sol.mu_edge, sol.alloc.u_edge,
                                         arrivals, p_total, cfg, caps, terms, k)
    return nxt, l_nxt, (*sums, p_total), dpp, bound


@dataclass
class SlotBlock(channel.ChannelDraw):
    """A block of slots' channels plus what each slot draws or computes
    before any queue is known, one row per slot."""

    arrivals: np.ndarray          # Poisson arrivals, as floats
    bound_terms: tuple            # `queueing.bound_terms`
    gains: Optional[np.ndarray]   # `actor.gain_features`, for drlh only


class Simulation:
    """One run: a config, a policy source, a seed, and the slot loop."""

    def __init__(self, cfg: SystemConfig, policy_spec: str, seed: int):
        problems = validate_config(cfg)
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        self.cfg = cfg
        self.seed = seed
        self.policy_spec = policy_spec
        self.kind, self.n_candidates = parse_policy_spec(policy_spec)
        n = cfg.system.num_devices

        self.geometry = channel.place_devices(cfg, channel.run_rng(seed, STREAM_PLACEMENT))
        self.caps = queueing.rate_caps(cfg)

        self.q_local = np.zeros(n)
        self.q_edge = np.zeros(n)
        self.z_local = np.zeros(n)
        self.z_edge = np.zeros(n)
        self.lyapunov = 0.0   # `queueing.lyapunov_value` of the queues above
        self.block: Optional[SlotBlock] = None   # see `channels`
        self.block_start = 0

        if self.kind == "exhaustive":
            self.n_policies = oracle.count_policies(
                n, cfg.system.chi_edge, cfg.system.chi_cloud)
        elif self.kind == "drlh":
            self.net = actor.ActorNetwork.create(n, cfg.training.hidden_sizes,
                                                 channel.run_rng(seed, STREAM_ACTOR_INIT))
            self.opt = actor.AdaptiveMomentState()
            self.memory = actor.ReplayMemory(cfg.training.memory_size, 6 * n, 2 * n)
            self.noise_rng = channel.run_rng(seed, STREAM_ACTOR_NOISE)
            self.memory_rng = channel.run_rng(seed, STREAM_MEMORY)

    def run(self, progress: Optional[Callable[[int, int], None]] = None) -> MetricsLog:
        total = self.cfg.training.total_slots
        log = MetricsLog(total, self.cfg.system.num_devices)
        for t in range(total):
            self.run_slot(t, log)
            if progress is not None and (t + 1) % 1000 == 0:
                progress(t + 1, total)
        return log

    def _choose(self, t: int, state: SlotState, gains: Optional[np.ndarray],
                log: MetricsLog) -> tuple[Policy, critic.Solution, float]:
        """The slot's policy plus its solution and objective value, all read
        from the slot's one combo solve (`critic.device_g_table`)."""
        cfg = self.cfg
        table, tiled = critic.device_g_table(state, cfg)
        if self.kind == "random":
            rng = channel.slot_rng(self.seed, STREAM_RANDOM_POLICY, t)
            chosen = oracle.random_policy(rng, cfg.system.num_devices,
                                          cfg.system.chi_edge, cfg.system.chi_cloud)
            log.num_candidates[t] = 1
        elif self.kind == "exhaustive":
            chosen = critic.best_association(table, cfg.system.chi_edge,
                                             cfg.system.chi_cloud)
            log.num_candidates[t] = self.n_policies
        else:
            feats = actor.featurize(gains, state, cfg)
            relaxed = actor.relaxed_policy(self.net, feats, cfg.system.num_devices)
            edge_masks, cloud_masks = actor.generate_candidates(
                relaxed, self.n_candidates, self.noise_rng, cfg)
            idx, _ = critic.best_policy(edge_masks, cloud_masks, table)
            chosen = Policy(rho_edge=edge_masks[idx].copy(),
                            rho_cloud=cloud_masks[idx].copy())
            log.num_candidates[t] = edge_masks.shape[0]

            label = np.concatenate([chosen.rho_edge, chosen.rho_cloud]).astype(float)
            # the relaxed scores are this slot's forward pass on `feats`
            log.test_loss[t] = actor.cross_entropy(relaxed.scores, label)
            self.memory.add(feats, label)
            tr = cfg.training
            if (t >= tr.train_start_slot
                    and (t - tr.train_start_slot) % tr.train_interval == 0):
                loss = actor.train_step(self.net, self.opt, self.memory,
                                        tr.batch_size, tr.learning_rate,
                                        self.memory_rng)
                if loss is not None:
                    log.train_loss[t] = loss
                    log.train_steps += 1
        sol, g_value = critic.gather(table, tiled, chosen)
        return chosen, sol, g_value

    def channels(self, t: int) -> tuple[SlotBlock, int]:
        """The block of slots holding slot t, and t's row in it. Block b holds
        slots [1024 b, 1024 (b + 1)) cut at the run's end (past it, at t + 1),
        each slot's channels and arrivals from its own streams; drawn on first
        use, one kept at a time."""
        start = t - t % 1024
        if self.block is None or start != self.block_start or t - start >= len(self.block.h2_edge):
            slots = range(start, max(min(start + 1024, self.cfg.training.total_slots), t + 1))
            self.block = None   # freed before its successor is drawn
            draw = channel.draw_channels(self.geometry, self.cfg, (
                channel.slot_rng(self.seed, STREAM_CHANNEL, u) for u in slots), len(slots))
            arrivals = np.empty(draw.h2_edge.shape)
            for u, row in zip(slots, arrivals):
                row[:] = channel.slot_rng(self.seed, STREAM_ARRIVALS, u).poisson(
                    self.cfg.mean_arrivals_per_slot, len(row))
            self.block = SlotBlock(
                **vars(draw), arrivals=arrivals,
                bound_terms=queueing.bound_terms(draw.cloud_cap, arrivals, self.cfg, self.caps),
                gains=actor.gain_features(draw.h2_edge, draw.h2_cloud, self.cfg)
                if self.kind == "drlh" else None)
            self.block_start = start
        return self.block, t - start

    def run_slot(self, t: int, log: MetricsLog) -> None:
        """Advance one slot: read channels, decide, execute, update queues."""
        cfg = self.cfg
        block, k = self.channels(t)
        state = SlotState(h2_edge=block.h2_edge[k], h2_cloud=block.h2_cloud[k],
                          edge_cap=block.edge_cap[k], cloud_cap=block.cloud_cap[k],
                          q_local=self.q_local, q_edge=self.q_edge,
                          z_local=self.z_local, z_edge=self.z_edge)
        state.check()

        chosen, sol, g_value = self._choose(
            t, state, None if block.gains is None else block.gains[k], log)
        arrivals = block.arrivals[k]
        try:
            nxt, l_nxt, powers, dpp, bound = step(state, self.lyapunov, sol, arrivals,
                                                  cfg, self.caps, block.bound_terms, k)
        except critic.FeasibilityError as exc:
            raise critic.FeasibilityError(f"slot {t}: {exc}") from exc
        if dpp > bound + BOUND_TOL:
            log.bound_violations += 1

        log.arrivals[t] = arrivals
        log.q_local[t] = self.q_local
        log.q_edge[t] = self.q_edge
        log.z_local[t] = self.z_local
        log.z_edge[t] = self.z_edge
        log.u_edge[t] = sol.alloc.u_edge
        log.u_cloud[t] = sol.alloc.u_cloud
        log.mu_local[t] = sol.mu_local
        log.mu_edge[t] = sol.mu_edge
        log.h2_edge[t] = state.h2_edge
        log.h2_cloud[t] = state.h2_cloud
        (log.p_local[t], log.p_edge[t], log.p_tx_edge[t], log.p_tx_cloud[t],
         log.p_total[t]) = powers
        log.g_value[t] = g_value
        log.dpp[t] = dpp
        log.bound[t] = bound
        e_key, c_key = chosen.key()
        log.policy_edge[t] = e_key
        log.policy_cloud[t] = c_key

        self.q_local = nxt.q_local
        self.q_edge = nxt.q_edge
        self.z_local = nxt.z_local
        self.z_edge = nxt.z_edge
        self.lyapunov = l_nxt


def run_scenario(cfg: SystemConfig, scenario: Scenario,
                 progress: Optional[Callable[[int, int], None]] = None) -> MetricsLog:
    resolved = scenario.apply(cfg)
    sim = Simulation(resolved, scenario.policy, scenario.seed)
    return sim.run(progress=progress)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEPABLE = {"arrival": ("arrival_rate_per_sec", float),
             "v": ("lyapunov_v", float),
             "users": ("num_devices", int)}


def sweep_config(cfg: SystemConfig, parameter: str, value: float) -> SystemConfig:
    """The config `sweep` runs for one value of `parameter`."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {tuple(SWEEPABLE)}, "
                         f"got {parameter!r}")
    name, cast = SWEEPABLE[parameter]
    return dataclasses.replace(
        cfg, system=dataclasses.replace(cfg.system, **{name: cast(value)}))


def sweep(parameter: str, values: list[float], cfg: SystemConfig,
          policy: str = "exhaustive", seed: int = 1,
          total_slots: Any = INHERIT,
          progress: Optional[Callable[[int, int], None]] = None) -> list[dict[str, Any]]:
    """Run one scenario per value; emit plot-ready summary rows.

    Every run shares the same master seed, so channel and arrival draws are
    comparable across values wherever dimensions match.
    """
    rows: list[dict[str, Any]] = []
    for value in values:
        run_cfg = sweep_config(cfg, parameter, value)
        scenario = Scenario(name=f"sweep_{parameter}_{value}", policy=policy,
                            seed=seed, total_slots=total_slots)
        log = run_scenario(run_cfg, scenario, progress=progress)
        resolved = scenario.apply(run_cfg)
        row = {
            "parameter": parameter,
            "value": value,
            "policy": policy,
            "seed": seed,
            "slots": resolved.training.total_slots,
            "tail_mean_q_local_per_device": log.tail_mean("q_local"),
            "tail_mean_q_edge_per_device": log.tail_mean("q_edge"),
            "tail_mean_sum_queue": float(np.mean(log.sum_queue()[log.tail_start:])),
            "tail_mean_power_w": log.tail_mean("p_total"),
            "search_space_size": oracle.count_policies(
                resolved.system.num_devices, resolved.system.chi_edge,
                resolved.system.chi_cloud),
        }
        rows.append(row)
    return rows


def sweep_to_csv(rows: list[dict[str, Any]], path: str | Path) -> None:
    if not rows:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


# ---------------------------------------------------------------------------
# Run directory outputs
# ---------------------------------------------------------------------------

def summarize(log: MetricsLog, cfg: SystemConfig, scenario: Scenario) -> dict[str, Any]:
    tail = {
        "q_local_per_device": log.tail_mean("q_local"),
        "q_edge_per_device": log.tail_mean("q_edge"),
        "z_local_per_device": log.tail_mean("z_local"),
        "z_edge_per_device": log.tail_mean("z_edge"),
        "sum_queue": float(np.mean(log.sum_queue()[log.tail_start:])),
        "power_w": log.tail_mean("p_total"),
        "power_local_w": log.tail_mean("p_local"),
        "power_edge_w": log.tail_mean("p_edge"),
        "power_tx_edge_w": log.tail_mean("p_tx_edge"),
        "power_tx_cloud_w": log.tail_mean("p_tx_cloud"),
        "g_value": log.tail_mean("g_value"),
    }
    slack = np.sort(log.bound - log.dpp)
    n = len(slack)
    broken = np.flatnonzero(log.dpp > log.bound + BOUND_TOL)
    # null where the tail holds no loss (no actor, or no training step in it)
    test_tail, train_tail = (float(np.nanmean(tail)) if np.any(np.isfinite(tail)) else None
                             for tail in (log.test_loss[log.tail_start:],
                                          log.train_loss[log.tail_start:]))
    return {
        "scenario": scenario.to_dict(),
        "seed": scenario.seed,
        "policy": scenario.policy,
        "total_slots": log.total_slots,
        "tail_start": log.tail_start,
        "tail_means": tail,
        "bound_violations": log.bound_violations,
        "drift_bound_slack": {   # q01: the lower-rank 1% quantile
            "min": float(slack[0]), "q01": float(slack[(n - 1) // 100]),
            "median": float((slack[(n - 1) // 2] + slack[n // 2]) / 2),
            "first_violation_slot": int(broken[0]) if broken.size else None},
        "train_steps": log.train_steps,
        "tail_mean_test_loss": test_tail,
        "tail_mean_train_loss": train_tail,
        "config": config_to_dict(cfg),
    }


def write_run_outputs(outdir: str | Path, log: MetricsLog, cfg: SystemConfig,
                      scenario: Scenario, channel_trace: bool = False) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    from .config import save_config

    save_config(cfg, out / "config.json", scenario_dict=scenario.to_dict())
    log.to_csv(out / "metrics.csv")
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summarize(log, cfg, scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if np.any(np.isfinite(log.test_loss)):
        log.loss_to_csv(out / "loss.csv")
    if channel_trace:
        log.channels_to_csv(out / "channels.csv")
