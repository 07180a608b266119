"""The per-policy solve, kept as the tests' reference for the one the
simulator runs (`critic.device_g_table` gathered at a policy).

It runs the four solver stages for one policy's masks, then recomputes
the rates, the transmit powers (re-masked by the policy) and the power
total from that allocation alone, as the simulator did before every policy
was read from the combo solve. The bodies are those earlier functions',
with module names qualified. Elementwise it computes the same values as
the combo solve, so the tests compare the two bit for bit; it also
scores policies independently of that solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from semoff import critic, power
from semoff.config import Policy, SlotState, SystemConfig


@dataclass
class Allocation:
    """One policy's five continuous decisions, which the reference solve
    makes and scores from alone (`critic.Solution` holds them flat, with
    the rates and powers they imply)."""

    u_edge: np.ndarray    # tasks/slot offloaded to the edge server
    u_cloud: np.ndarray   # tasks/slot offloaded to the cloud server
    f_local: np.ndarray   # Hz spent executing tasks locally
    f_encode: np.ndarray  # Hz spent encoding edge-bound tasks
    f_edge: np.ndarray    # Hz spent decoding at the edge server


@dataclass
class CriticResult:
    """Solved allocation plus its objective value and per-device breakdown."""

    alloc: Allocation
    g_value: float
    local_terms: np.ndarray   # -(q_l + z_l) * (mu_local - mean arrivals)
    edge_terms: np.ndarray    # -(q_e + z_e) * (mu_edge - u_edge)
    power_terms: np.ndarray   # v * (all four power components)


def weights(state: SlotState) -> np.ndarray:
    """The (2, I) queue weights q + z, local row then edge row."""
    return state.queues[:2] + state.queues[2:]


# The four solver stages from the state alone: each computes the shared
# inputs that `critic.device_g_table` computes once and hands the stages.

def solve_edge_volume(state: SlotState, edge_mask, cfg: SystemConfig) -> np.ndarray:
    return critic.solve_edge_volume(state, weights(state)[0], edge_mask, cfg)


def solve_cloud_volume(state: SlotState, cloud_mask, u_edge, cfg: SystemConfig) -> np.ndarray:
    return critic.solve_cloud_volume(state, np.maximum(weights(state)[0], 0.0),
                                     state.q_local - u_edge, cloud_mask, cfg)


def solve_local_frequency(state: SlotState, u_edge, u_cloud, cfg: SystemConfig) -> np.ndarray:
    return critic.solve_local_frequency(np.maximum(weights(state)[0], 0.0),
                                        power.encode_frequency(u_edge, cfg),
                                        state.q_local - u_edge - u_cloud, cfg)


def solve_edge_frequency(state: SlotState, cfg: SystemConfig) -> np.ndarray:
    return critic.solve_edge_frequency(state, np.maximum(weights(state)[1], 0.0), cfg)


def assemble_allocation(state: SlotState, edge_mask: np.ndarray,
                        cloud_mask: np.ndarray, cfg: SystemConfig) -> Allocation:
    """Run the four solver stages in sequence for one policy."""
    u_edge = solve_edge_volume(state, edge_mask, cfg)
    u_cloud = solve_cloud_volume(state, cloud_mask, u_edge, cfg)
    f_local = solve_local_frequency(state, u_edge, u_cloud, cfg)
    f_edge = solve_edge_frequency(state, cfg)
    return Allocation(u_edge=u_edge, u_cloud=u_cloud, f_local=f_local,
                      f_encode=np.asarray(power.encode_frequency(u_edge, cfg)),
                      f_edge=f_edge)


def transmit_powers(alloc: Allocation, state: SlotState, cfg: SystemConfig
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-device semantic and cloud transmit powers; zero for zero volume."""
    eps_req = power.required_accuracy(alloc.u_edge, cfg)
    p_tx_e = np.where(alloc.u_edge > 0,
                      power.semantic_tx_power(eps_req, state.h2_edge, cfg), 0.0)
    p_tx_c = np.where(alloc.u_cloud > 0,
                      power.shannon_tx_power(alloc.u_cloud, state.h2_cloud, cfg), 0.0)
    return p_tx_e, p_tx_c


def total_power(alloc: Allocation, policy: Policy, state: SlotState,
                cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """All four per-device power components plus the slot total.

    Transmit terms are zero for devices without the matching association
    (their volumes are zero by contract).
    """
    p_l = power.local_power(alloc.f_local, alloc.f_encode, cfg)
    p_e = power.edge_power(alloc.f_edge, cfg)
    p_tx_e, p_tx_c = transmit_powers(alloc, state, cfg)
    p_tx_e = np.where(policy.rho_edge, p_tx_e, 0.0)
    p_tx_c = np.where(policy.rho_cloud, p_tx_c, 0.0)
    total = float(p_l.sum() + p_e.sum() + p_tx_e.sum() + p_tx_c.sum())
    return p_l, p_e, p_tx_e, p_tx_c, total


def rates_and_powers(alloc: Allocation, policy: Policy, state: SlotState,
                     cfg: SystemConfig) -> critic.Solution:
    """Rates and powers of an allocation under a policy."""
    mu_local = (np.asarray(power.local_exec_rate(alloc.f_local, cfg))
                + alloc.u_edge + alloc.u_cloud)
    mu_edge = np.asarray(power.edge_exec_rate(alloc.f_edge, cfg))
    p_l, p_e, p_tx_e, p_tx_c, _ = total_power(alloc, policy, state, cfg)
    return critic.Solution(u_edge=alloc.u_edge, u_cloud=alloc.u_cloud, f_local=alloc.f_local,
                           f_encode=alloc.f_encode, f_edge=alloc.f_edge,
                           mu_local=mu_local, mu_edge=mu_edge,
                           p_local=np.asarray(p_l), p_edge=np.asarray(p_e),
                           p_tx_edge=p_tx_e, p_tx_cloud=p_tx_c)


def evaluate_policy(policy: Policy, state: SlotState,
                    cfg: SystemConfig) -> CriticResult:
    """Solve the continuous allocation for one policy and score it."""
    alloc = assemble_allocation(state, policy.rho_edge.astype(bool),
                                policy.rho_cloud.astype(bool), cfg)
    local_terms, edge_terms, power_terms = critic.g_terms(
        rates_and_powers(alloc, policy, state, cfg), weights(state), cfg)
    g_value = float(np.sum(local_terms + edge_terms + power_terms))
    return CriticResult(alloc=alloc, g_value=g_value, local_terms=local_terms,
                        edge_terms=edge_terms, power_terms=power_terms)


_TX_POWER_TOL = 1e-5


def check_allocation(alloc, policy, state, cfg):
    """Raise FeasibilityError naming the first violated per-slot constraint."""
    if np.any(alloc.u_edge[~policy.rho_edge] != 0):
        raise critic.FeasibilityError("u_edge must be zero without edge association")
    if np.any(alloc.u_cloud[~policy.rho_cloud] != 0):
        raise critic.FeasibilityError("u_cloud must be zero without cloud association")
    for name, v in (("u_edge", alloc.u_edge), ("u_cloud", alloc.u_cloud),
                    ("f_local", alloc.f_local), ("f_encode", alloc.f_encode),
                    ("f_edge", alloc.f_edge)):
        if np.any(np.asarray(v) < 0):
            raise critic.FeasibilityError(f"{name} must be >= 0")
    sol = rates_and_powers(alloc, policy, state, cfg)
    critic.check_clocks_and_backlog(sol, state, cfg)
    # the accuracy-curve inversion near its ceiling round-trips to ~1e-6
    # relative in float64, so the power guard is correspondingly looser
    if np.any(sol.p_tx_edge > cfg.channel.p_tx_max * (1 + _TX_POWER_TOL)):
        raise critic.FeasibilityError("semantic transmit power exceeds p_tx_max")
    if np.any(sol.p_tx_cloud > cfg.channel.p_tx_max * (1 + _TX_POWER_TOL)):
        raise critic.FeasibilityError("cloud transmit power exceeds p_tx_max")


def evaluate_g(alloc, policy, state, cfg):
    """Exact per-slot objective of a feasible allocation (error if infeasible)."""
    check_allocation(alloc, policy, state, cfg)
    local_terms, edge_terms, power_terms = critic.g_terms(
        rates_and_powers(alloc, policy, state, cfg), weights(state), cfg)
    return float(np.sum(local_terms + edge_terms + power_terms))
