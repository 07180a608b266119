"""The slot's queue transition as it ran before the queues were held in one
(4, I) array, kept as the tests' reference for the stacked transition
(`engine.step` and what it calls).

Each queue is its own (I,) array: the clock and backlog guard, the four
per-queue updates, the Lyapunov value and the drift bound run queue by
queue, and the four power components are summed one by one. The bodies
are those earlier functions', with module names qualified; `SlotState` is
the earlier state type with its four queue fields, so the reference shares
no queue code with the simulator. The tests compare the two bit for bit,
guard failures included, except for the drift bound: this one is the
a-priori bound the simulator logged before it read the slot's realised
rates (`drift_penalty_bound`), and the tests check that the simulator's
bound never exceeds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from semoff import critic, power
from semoff.config import SystemConfig


@dataclass
class SlotState:
    """Observable state at the start of a slot: channels plus queue backlog."""

    h2_edge: np.ndarray   # channel gains |h|^2, edge links
    h2_cloud: np.ndarray  # channel gains |h|^2, cloud links
    edge_cap: np.ndarray  # tasks/slot the links carry at the power ceiling:
    cloud_cap: np.ndarray  # `channel.link_caps` of the gains
    q_local: np.ndarray  # tasks
    q_edge: np.ndarray   # tasks
    z_local: np.ndarray  # virtual queue enforcing the mean local-queue cap
    z_edge: np.ndarray   # virtual queue enforcing the mean edge-queue cap

    def check(self) -> None:
        n = len(self.h2_edge)
        for name in ("h2_cloud", "edge_cap", "cloud_cap", "q_local", "q_edge",
                     "z_local", "z_edge"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"SlotState.{name}: expected length {n}")
        q = np.concatenate((self.q_local, self.q_edge, self.z_local, self.z_edge))
        # a NaN minimum fails the first test, +inf the second
        if q.min() >= 0 and q.max() < np.inf:
            return
        for name in ("q_local", "q_edge", "z_local", "z_edge"):
            v = getattr(self, name)
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                raise ValueError(f"SlotState.{name}: queues must be finite and >= 0")


_REL_TOL = 1e-9


def check_clocks_and_backlog(sol: critic.Solution, state: SlotState, cfg: SystemConfig) -> None:
    """Raise FeasibilityError if the clocks exceed their budgets or the
    served volumes exceed the backlog, beyond rounding: 1e-9 relative,
    plus 1e-9 tasks for the volumes."""
    s = cfg.system
    tol = 1 + _REL_TOL
    if (sol.f_local + sol.f_encode > s.f_local_max * tol).any():
        raise critic.FeasibilityError("f_local + f_encode exceeds f_local_max")
    if (sol.f_edge > s.f_edge_max * tol).any():
        raise critic.FeasibilityError("f_edge exceeds f_edge_max")
    if (sol.mu_local > state.q_local * tol + _REL_TOL).any():
        raise critic.FeasibilityError("served local volume exceeds local backlog")
    if (sol.mu_edge > state.q_edge * tol + _REL_TOL).any():
        raise critic.FeasibilityError("edge decode volume exceeds edge backlog")


def _require_nonneg(**values) -> None:
    """Raise ValueError naming the first argument with a negative entry. One
    fused test; fmin skips NaN, so a NaN cannot hide a negative elsewhere."""
    a, b, c = values.values()
    if (np.fmin(np.fmin(a, b), c) < 0).any():
        name = next(k for k, v in values.items() if (np.asarray(v) < 0).any())
        raise ValueError(f"{name} must be >= 0")


def update_local_queue(q, mu, arrivals):
    """Next local queue: unserved backlog plus fresh arrivals."""
    _require_nonneg(q=q, mu=mu, arrivals=arrivals)
    return np.maximum(q - mu, 0.0) + arrivals


def update_edge_queue(q, mu_edge, u_edge):
    """Next edge queue: undecoded backlog plus newly offloaded volume."""
    _require_nonneg(q=q, mu_edge=mu_edge, u_edge=u_edge)
    return np.maximum(q - mu_edge, 0.0) + u_edge


def update_virtual_queue(z, q_next, q_max: Optional[float]):
    """Virtual queue absorbing the excess of the real queue over its cap.

    An unbounded cap (None) keeps the virtual queue pinned at zero.
    """
    if q_max is None:
        return np.zeros(np.shape(z))
    return np.maximum(z + q_next - q_max, 0.0)


def lyapunov_value(state: SlotState) -> float:
    """Quadratic energy of the total backlog (real plus virtual queues)."""
    return 0.5 * float((state.q_local ** 2).sum() + (state.q_edge ** 2).sum()
                       + (state.z_local ** 2).sum() + (state.z_edge ** 2).sum())


def drift_plus_penalty(l_t: float, l_t1: float, power_w: float, v: float) -> float:
    """Realised one-slot drift plus weighted power, from the two `lyapunov_value`s."""
    return l_t1 - l_t + v * power_w


def poisson_quantile(q: float, mean: float) -> int:
    """Smallest k with P(X <= k) >= q for X ~ Poisson(mean), summed from
    k = 0; exp(-mean) underflows past a mean of about 745."""
    if not 0.0 <= mean <= 700.0:
        raise ValueError(f"mean must lie in [0, 700], got {mean!r}")
    k, p = 0, math.exp(-mean)
    cdf = p
    while cdf < q:
        k += 1
        p *= mean / k
        cdf += p
    return k


def a_priori_ceilings(cfg: SystemConfig) -> tuple[float, float, float, float]:
    """The rate ceilings of one config: the local, encode and edge rates at
    the full clocks and the 0.9999 quantile of the per-slot arrivals."""
    s = cfg.system
    return (float(power.local_exec_rate(s.f_local_max, cfg)),
            float(power.encode_rate(s.f_local_max, cfg)),
            float(power.edge_exec_rate(s.f_edge_max, cfg)),
            float(poisson_quantile(0.9999, cfg.mean_arrivals_per_slot)))


def drift_penalty_bound(state: SlotState, mu_local, mu_edge, u_edge,
                        arrivals, power_w: float, cfg: SystemConfig) -> float:
    """The a-priori upper bound on the realised drift-plus-penalty for one
    transition: the four per-queue drift bounds with every rate replaced by
    its ceiling (`a_priori_ceilings`), the cloud-offload cap by the slot's
    (`state.cloud_cap`), and the arrival cap by the 0.9999 quantile widened
    to the realised draw whenever a slot exceeds it. Valid per sample as
    long as the executed rates respect the queue-backlog constraints
    (mu_local <= q_local, mu_edge <= q_edge), which the solvers guarantee.
    """
    q_l, z_l = state.q_local, state.z_local
    q_e, z_e = state.q_edge, state.z_edge
    v = cfg.system.lyapunov_v
    u_local, u_e_cap, mu_e_cap, arrivals_cap = a_priori_ceilings(cfg)

    mu_l_cap = u_local + u_e_cap + state.cloud_cap
    lam_cap = np.maximum(arrivals_cap, arrivals)

    b1 = 0.5 * (mu_l_cap ** 2 + lam_cap ** 2).sum()
    b3 = 0.5 * len(q_e) * (mu_e_cap ** 2 + u_e_cap ** 2)

    b2 = 0.0
    b4 = 0.0
    cross = 0.0
    q_max_l = cfg.system.q_max_local
    q_max_e = cfg.system.q_max_edge
    if q_max_l is not None:
        b2 = float((0.5 * (mu_l_cap ** 2 + arrivals ** 2 + q_l ** 2 + q_max_l ** 2)
                    + mu_l_cap * q_max_l + arrivals * q_l).sum())
        cross += float((z_l * (q_l - q_max_l)).sum())
    if q_max_e is not None:
        b4 = float((0.5 * (mu_e_cap ** 2 + u_edge ** 2 + q_e ** 2 + q_max_e ** 2)
                    + mu_e_cap * q_max_e + u_e_cap * q_e).sum())
        cross += float((z_e * (q_e - q_max_e)).sum())

    b_hat = float(b1 + b2 + b3 + b4 + cross)
    linear = float(((q_l + z_l) * (mu_local - arrivals)).sum()
                   + ((q_e + z_e) * (mu_edge - u_edge)).sum())
    return b_hat - linear + v * power_w


def total_power(sol: critic.Solution) -> tuple[float, float, float, float, float]:
    """The four power components of a policy's solution (local, edge, edge
    transmit, cloud transmit), each summed over devices, and their total,
    added in that order."""
    sums = [float(p.sum()) for p in (sol.p_local, sol.p_edge, sol.p_tx_edge, sol.p_tx_cloud)]
    p_total = sums[0] + sums[1] + sums[2] + sums[3]
    return (*sums, p_total)


def step(state: SlotState, l_state: float, sol: critic.Solution, arrivals: np.ndarray,
         cfg: SystemConfig
         ) -> tuple[SlotState, float, tuple[float, float, float, float, float], float, float]:
    """One slot's queue transition under the chosen policy's solution, as
    `critic.gather` reads it from the slot's combo solve.

    Checks the clock budgets and the backlog (`critic.check_clocks_and_backlog`),
    sums the powers (`power.total_power`), updates the real and then the
    virtual queues. Takes and returns the Lyapunov values of `state` and of
    the next state (the slot's channels carried over); also returns the
    power sums (local, edge, edge transmit, cloud transmit, total), the
    realised drift-plus-penalty and its a-priori upper bound
    (`drift_penalty_bound`). Pure: `state` and `sol` are not modified.
    """
    s = cfg.system
    check_clocks_and_backlog(sol, state, cfg)
    powers = total_power(sol)
    p_total = powers[4]
    q_local = update_local_queue(state.q_local, sol.mu_local, arrivals)
    q_edge = update_edge_queue(state.q_edge, sol.mu_edge, sol.u_edge)
    nxt = SlotState(h2_edge=state.h2_edge, h2_cloud=state.h2_cloud,
                    edge_cap=state.edge_cap, cloud_cap=state.cloud_cap,
                    q_local=q_local, q_edge=q_edge,
                    z_local=update_virtual_queue(state.z_local, q_local, s.q_max_local),
                    z_edge=update_virtual_queue(state.z_edge, q_edge, s.q_max_edge))
    l_nxt = lyapunov_value(nxt)
    dpp = drift_plus_penalty(l_state, l_nxt, p_total, s.lyapunov_v)
    bound = drift_penalty_bound(state, sol.mu_local, sol.mu_edge, sol.u_edge,
                                arrivals, p_total, cfg)
    return nxt, l_nxt, powers, dpp, bound
