"""Time-slot simulation loop binding channels, policy selection, solving,
queue updates, training, and metric collection.

RNG discipline: every random ingredient draws from its own named stream
derived from the master seed, and the per-slot streams (channel, arrivals,
random policy) are keyed by slot index, so replays are order-independent
and toggling one feature never perturbs another stream. Gains, link caps and
arrivals are drawn per block of slots (`Simulation.channels`), one stream per
slot, with what needs no queue: the actor's gain features, whose rows have
the bits of per-slot calls.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import actor, channel, critic, oracle, power, queueing
from .config import (ConfigError, Policy, SlotState, SystemConfig, queue_row,
                     save_config, validate_config)

# Named RNG streams (master seed, stream id[, slot]).
STREAM_PLACEMENT = 0
STREAM_ACTOR_INIT = 1
STREAM_ACTOR_NOISE = 2
STREAM_MEMORY = 3
STREAM_CHANNEL = 4
STREAM_ARRIVALS = 5
STREAM_RANDOM_POLICY = 6

INHERIT: Any = object()  # scenario fields left at the base config
RUN_SETTINGS = ("name", "policy", "seed")   # a scenario's fields a config file may set

BOUND_TOL = 1e-9   # a slot breaks the drift bound when dpp > bound + BOUND_TOL


def parse_policy_spec(spec: str) -> tuple[str, int]:
    """Parse 'drlh:N' (N a positive integer in ASCII digits) | 'exhaustive' |
    'random' into (kind, candidates)."""
    if spec in ("exhaustive", "random"):
        return spec, 0
    match = re.fullmatch(r"drlh:([0-9]+)", spec)
    if match is None or int(match[1]) < 1:
        raise ValueError(f"unknown policy spec {spec!r}; expected drlh:N with N >= 1, "
                         "exhaustive or random")
    return "drlh", int(match[1])


@dataclass(frozen=True)
class Scenario:
    """Named bundle of run settings (`RUN_SETTINGS`) plus config values that
    code layers over a base config (`apply`)."""

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
        """The run settings; the values `apply` layers are in the config."""
        return {name: getattr(self, name) for name in RUN_SETTINGS}


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """A config file's 'scenario' group: run settings only, as every config
    value has its own group; `validate_scenario` checks them."""
    if not isinstance(data, dict):
        raise ConfigError("'scenario' must be an object")
    unknown = set(data) - set(RUN_SETTINGS)
    if unknown:
        raise ConfigError(f"unknown key(s) in 'scenario': {sorted(unknown)}")
    return Scenario(**data)


def validate_scenario(scenario: Scenario) -> list[str]:
    """The run settings' problems (name, policy, seed), as `validate_config` reports."""
    bad = [f"scenario.{name}: must be a string, got {getattr(scenario, name)!r}"
           for name in ("name", "policy") if type(getattr(scenario, name)) is not str]
    if type(scenario.seed) is not int or scenario.seed < 0:
        bad.append(f"scenario.seed: must be an integer >= 0, got {scenario.seed!r}")
    if type(scenario.policy) is str:
        try:
            parse_policy_spec(scenario.policy)
        except ValueError as exc:
            bad.append(f"scenario.policy: {exc}")
    return bad


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


SCENARIO_PRESETS = {"1": scenario_one, "2": scenario_two}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_CSV_BLOCK_ROWS = 16   # rows `to_csv` formats at a time, so the text held stays small
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
        self.train_steps = 0

    @property
    def tail_start(self) -> int:
        """First slot of the stabilized tail: the final third of the run, and
        at least the last slot."""
        return self.total_slots - max(self.total_slots // 3, 1)

    def tail_mean(self, name: str) -> float:
        """Mean over the stabilized tail (see `tail_start`)."""
        return float(np.nanmean(getattr(self, name)[self.tail_start:]))

    def sum_queue(self) -> np.ndarray:
        """System total backlog (local plus edge) per slot."""
        return self.q_local.sum(axis=1) + self.q_edge.sum(axis=1)

    def tail_queue_power(self) -> dict[str, float]:
        """Tail means (see `tail_start`) of the per-device local and edge
        queues, the total backlog (`sum_queue`) and the total power."""
        return {"q_local_per_device": self.tail_mean("q_local"),
                "q_edge_per_device": self.tail_mean("q_edge"),
                "sum_queue": float(np.mean(self.sum_queue()[self.tail_start:])),
                "power_w": self.tail_mean("p_total")}

    def broken_slots(self) -> np.ndarray:
        """The logged slots that broke the drift bound: dpp > bound + BOUND_TOL."""
        return np.flatnonzero(self.dpp > self.bound + BOUND_TOL)

    @property
    def bound_violations(self) -> int:
        return len(self.broken_slots())

    def to_csv(self, path: str | Path) -> None:
        """The slot, scalar and mask columns, byte for byte as `csv.writer`
        writes them (no field here needs quoting; rows end in CRLF) and
        faster: floats as `repr`, the shortest text that reads back exactly,
        integers (also Python ints in object arrays) as `str`.
        `write_run_outputs` writes the per-device series as `.npy` arrays
        beside it."""
        header = ["slot", *_SCALAR_SERIES, "policy_edge_mask", "policy_cloud_mask",
                  "num_candidates"]
        cols = [np.arange(self.total_slots), *(getattr(self, name) for name in _SCALAR_SERIES),
                self.policy_edge, self.policy_cloud, self.num_candidates]
        text = [repr if col.dtype.kind == "f" else str for col in cols]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, self.total_slots, _CSV_BLOCK_ROWS):
                fh.writelines(",".join(row) + "\r\n" for row in zip(
                    *(map(fmt, col[lo:lo + _CSV_BLOCK_ROWS].tolist())
                      for fmt, col in zip(text, cols))))


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def step(state: SlotState, l_state: float, sol: critic.Solution, arrivals: np.ndarray,
         cfg: SystemConfig
         ) -> tuple[np.ndarray, float, tuple[float, float, float, float, float], float, float]:
    """One slot's queue transition under the chosen policy's solution, as
    `critic.gather` reads it from the slot's combo solve.

    Checks the clock budgets and the backlog (`critic.check_clocks_and_backlog`)
    and sums the powers (`power.total_power`). Then it works on row pairs of
    the state's (4, I) queue array: with the served volumes (mu_local,
    mu_edge) and inflows (arrivals, u_edge) stacked as (2, I), both real
    queues update in one call, then both virtual queues against the (2, 1)
    cap column of `cfg.coefficients`. Returns the next (4, I) queue array
    and its Lyapunov value (it takes `state`'s), the power sums (local,
    edge, edge transmit, cloud transmit, total), the realised
    drift-plus-penalty and its upper bound, which reads the slot's own
    served volumes and inflows (`queueing.drift_penalty_bound`). Pure:
    `state` and `sol` are not modified.
    """
    critic.check_clocks_and_backlog(sol, state, cfg)
    powers = power.total_power(sol)
    p_total = powers[4]
    flows = np.array((sol.mu_local, sol.mu_edge, arrivals, sol.u_edge))
    served, inflow = flows[:2], flows[2:]
    queues = state.queues
    real = queueing.update_local_queue(queues[:2], served, inflow)
    coef = cfg.coefficients
    nxt = np.concatenate((real, queueing.update_virtual_queue(queues[2:], real,
                                                              coef.q_max, coef.q_max_set)))
    l_nxt = queueing.lyapunov_value(nxt)
    dpp = queueing.drift_plus_penalty(l_state, l_nxt, p_total, cfg.system.lyapunov_v)
    bound = queueing.drift_penalty_bound(queues, served, inflow, p_total, cfg)
    return nxt, l_nxt, powers, dpp, bound


@dataclass
class SlotBlock(channel.ChannelDraw):
    """A block of slots' channels plus what each slot draws or computes
    before any queue is known, one row per slot."""

    arrivals: np.ndarray          # Poisson arrivals, as floats
    gains: Optional[np.ndarray]   # `actor.gain_features`, for drlh only


class Simulation:
    """One run: a config, a policy source, a seed, and the slot loop."""

    q_local, q_edge, z_local, z_edge = map(queue_row, range(4))   # rows of `queues`

    def __init__(self, cfg: SystemConfig, policy_spec: str, seed: int):
        problems = (validate_scenario(Scenario(policy=policy_spec, seed=seed))
                    + validate_config(cfg))
        if problems:
            raise ConfigError("\n".join(problems))
        self.cfg = cfg
        self.seed = seed
        self.policy_spec = policy_spec
        self.kind, self.n_candidates = parse_policy_spec(policy_spec)
        n = cfg.system.num_devices

        self.geometry = channel.place_devices(cfg, channel.run_rng(seed, STREAM_PLACEMENT))

        self.queues = np.zeros((4, n))   # rows q_local, q_edge, z_local, z_edge
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
            scores = actor.relaxed_policy(self.net, feats)
            edge_masks, cloud_masks = actor.generate_candidates(
                scores, self.n_candidates, self.noise_rng, cfg)
            idx, _ = critic.best_policy(edge_masks, cloud_masks, table)
            # read-only views into the candidate masks: a write would raise
            chosen = Policy(rho_edge=edge_masks[idx], rho_cloud=cloud_masks[idx])
            log.num_candidates[t] = edge_masks.shape[0]

            label = np.concatenate([chosen.rho_edge, chosen.rho_cloud]).astype(float)
            # the scores are this slot's forward pass on `feats`
            log.test_loss[t] = actor.cross_entropy(scores, label)
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
        slots [B b, B (b + 1)), B = `channel.BLOCK_SLOTS`, cut at the run's end
        (past it, at t + 1), each slot's channels and arrivals from its own
        streams; drawn on first use, one kept at a time."""
        size = channel.BLOCK_SLOTS
        start = t - t % size
        if self.block is None or start != self.block_start or t - start >= len(self.block.h2_edge):
            slots = range(start, max(min(start + size, self.cfg.training.total_slots), t + 1))
            self.block = None   # freed before its successor is drawn
            draw = channel.draw_channels(self.geometry, self.cfg, (
                channel.slot_rng(self.seed, STREAM_CHANNEL, u) for u in slots), len(slots))
            arrivals = np.empty(draw.h2_edge.shape)
            for u, row in zip(slots, arrivals):
                row[:] = channel.slot_rng(self.seed, STREAM_ARRIVALS, u).poisson(
                    self.cfg.mean_arrivals_per_slot, len(row))
            self.block = SlotBlock(
                **vars(draw), arrivals=arrivals,
                gains=actor.gain_features(draw.h2_edge, draw.h2_cloud, self.cfg)
                if self.kind == "drlh" else None)
            self.block_start = start
        return self.block, t - start

    def run_slot(self, t: int, log: MetricsLog) -> None:
        """Advance one slot: read channels, decide, execute, update queues."""
        cfg = self.cfg
        block, k = self.channels(t)
        queues = self.queues
        state = SlotState(h2_edge=block.h2_edge[k], h2_cloud=block.h2_cloud[k],
                          edge_cap=block.edge_cap[k], cloud_cap=block.cloud_cap[k],
                          queues=queues)
        state.check()

        chosen, sol, g_value = self._choose(
            t, state, None if block.gains is None else block.gains[k], log)
        arrivals = block.arrivals[k]
        try:
            nxt, l_nxt, powers, dpp, bound = step(state, self.lyapunov, sol, arrivals, cfg)
        except critic.FeasibilityError as exc:
            raise critic.FeasibilityError(f"slot {t}: {exc}") from exc

        log.arrivals[t] = arrivals
        log.q_local[t], log.q_edge[t], log.z_local[t], log.z_edge[t] = queues
        log.u_edge[t] = sol.u_edge
        log.u_cloud[t] = sol.u_cloud
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

        self.queues = nxt
        self.lyapunov = l_nxt


def run_scenario(cfg: SystemConfig, scenario: Scenario) -> MetricsLog:
    return Simulation(scenario.apply(cfg), scenario.policy, scenario.seed).run()


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEPABLE = {"arrival": ("arrival_rate_per_sec", float),
             "v": ("lyapunov_v", float),
             "users": ("num_devices", int)}


def sweep_config(cfg: SystemConfig, parameter: str, value: float) -> SystemConfig:
    """The config `sweep` runs for one value of `parameter`; an integer
    parameter takes only integral values."""
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {tuple(SWEEPABLE)}, "
                         f"got {parameter!r}")
    name, cast = SWEEPABLE[parameter]
    if cast is int and not float(value).is_integer():
        raise ValueError(f"{parameter}: {name} must be an integer, got {value!r}")
    return dataclasses.replace(
        cfg, system=dataclasses.replace(cfg.system, **{name: cast(value)}))


def sweep(parameter: str, values: list[float], cfg: SystemConfig,
          policy: str = "exhaustive", seed: int = 1,
          total_slots: Any = INHERIT) -> list[dict[str, Any]]:
    """Run `cfg`, its slot count set to `total_slots`, once per value of
    `parameter`; emit plot-ready summary rows.

    Every run shares the same master seed, so channel and arrival draws are
    comparable across values wherever dimensions match. The run settings
    and every value's config are checked before the first run, so a bad
    one fails early with a ConfigError; a value's problems name the value.
    """
    scenario = Scenario(policy=policy, seed=seed, total_slots=total_slots)
    problems = validate_scenario(scenario)
    if problems:
        raise ConfigError("\n".join(problems))
    base = scenario.apply(cfg)
    for value in values:
        problems = validate_config(sweep_config(base, parameter, value))
        if problems:
            raise ConfigError("\n".join(f"{parameter}={value!r}: {p}" for p in problems))
    rows: list[dict[str, Any]] = []
    for value in values:
        # made again just before its run: handing each run the config
        # validated above measured about 10% slower `Simulation` set-ups
        run_cfg = sweep_config(base, parameter, value)
        log = Simulation(run_cfg, policy, seed).run()
        s = run_cfg.system
        rows.append({
            "parameter": parameter,
            "value": value,
            "policy": policy,
            "seed": seed,
            "slots": run_cfg.training.total_slots,
            **{f"tail_mean_{k}": v for k, v in log.tail_queue_power().items()},
            "search_space_size": oracle.count_policies(s.num_devices, s.chi_edge, s.chi_cloud),
        })
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

def summarize(log: MetricsLog, scenario: Scenario) -> dict[str, Any]:
    tail = {
        **log.tail_queue_power(),
        "z_local_per_device": log.tail_mean("z_local"),
        "z_edge_per_device": log.tail_mean("z_edge"),
        "power_local_w": log.tail_mean("p_local"),
        "power_edge_w": log.tail_mean("p_edge"),
        "power_tx_edge_w": log.tail_mean("p_tx_edge"),
        "power_tx_cloud_w": log.tail_mean("p_tx_cloud"),
        "g_value": log.tail_mean("g_value"),
    }
    slack = np.sort(log.bound - log.dpp)
    n = len(slack)
    broken = log.broken_slots()
    # null where the tail holds no loss (no actor, or no training step in it)
    test_tail, train_tail = (float(np.nanmean(tail)) if np.any(np.isfinite(tail)) else None
                             for tail in (log.test_loss[log.tail_start:],
                                          log.train_loss[log.tail_start:]))
    return {
        "scenario": scenario.to_dict(),
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
    }


def write_run_outputs(outdir: str | Path, log: MetricsLog, cfg: SystemConfig,
                      scenario: Scenario) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.json", scenario_dict=scenario.to_dict())
    log.to_csv(out / "metrics.csv")
    for name in _PER_DEVICE_SERIES:   # (slots, I) float64, exact and unformatted
        np.save(out / f"{name}.npy", getattr(log, name), allow_pickle=False)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summarize(log, scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")
