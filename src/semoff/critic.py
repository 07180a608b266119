"""Model-based per-slot optimizer.

Given a binary association policy and the observed state, the continuous
allocation is solved by a fixed sequence of four one-dimensional convex
subproblems, each admitting a closed-form stationary point clamped into its
feasible interval:

1. edge offload volume,
2. cloud offload volume (given the edge volume),
3. local execution frequency (given both volumes),
4. edge decode frequency.

Each subproblem drops the coupling terms the sequence has not fixed yet;
notably the edge-volume stage ignores the semantic transmit power, which is
orders of magnitude below the compute power it trades against. The
assembled allocation is then scored with the full per-slot objective,
transmit powers included. Every stationary point weighs the backlog by its
real plus virtual queue, as the per-slot objective implies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import Allocation, Policy, SlotState, SystemConfig
from . import power


LN2 = float(np.log(2.0))


class FeasibilityError(ValueError):
    """An allocation violates one of the per-slot constraints."""


@dataclass
class CriticResult:
    """Solved allocation plus its objective value and per-device breakdown."""

    alloc: Allocation
    g_value: float
    local_terms: np.ndarray   # -(q_l + z_l) * (mu_local - mean arrivals)
    edge_terms: np.ndarray    # -(q_e + z_e) * (mu_edge - u_edge)
    power_terms: np.ndarray   # v * (all four power components)


def solve_edge_volume(state: SlotState, edge_mask: np.ndarray,
                      cfg: SystemConfig) -> np.ndarray:
    """Edge offload volume: clamped stationary point of the encode tradeoff.

    Zero whenever the backlog differential (local minus edge, real plus
    virtual) is non-positive or the device is not edge-associated. The
    upper clamp is the tightest of the local backlog, the full-clock encode
    rate, and the semantic-link volume reachable at the power ceiling.
    """
    s = cfg.system
    w = state.q_local + state.z_local - state.q_edge - state.z_edge
    rate_per_hz = s.slot_length * s.flops_per_cycle_local / s.task_flops_encode
    stationary = np.sqrt(rate_per_hz ** 3 * np.maximum(w, 0.0)
                         / (3.0 * s.lyapunov_v * s.alpha_local))
    cap = np.minimum(state.q_local,
                     np.minimum(power.encode_rate(s.f_local_max, cfg), state.edge_cap))
    out = np.where((w > 0) & edge_mask, np.minimum(stationary, cap), 0.0)
    return np.maximum(out, 0.0)


def solve_cloud_volume(state: SlotState, cloud_mask: np.ndarray,
                       u_edge: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Cloud offload volume: clamped stationary point of the Shannon-power tradeoff."""
    s, sem = cfg.system, cfg.semantic
    w = state.q_local + state.z_local
    b_c = cfg.bandwidth_cloud
    bits_per_task = sem.sentence_len * sem.bits_per_word
    scale = s.slot_length * b_c / bits_per_task
    arg = (np.maximum(w, 0.0) * s.slot_length * state.h2_cloud
           / (LN2 * s.lyapunov_v * bits_per_task * cfg.channel.noise_psd))
    stationary = np.where(arg > 0, scale * np.log2(np.maximum(arg, 1e-300)), 0.0)
    cap = np.minimum(state.q_local - u_edge, state.cloud_cap)
    out = np.where(cloud_mask, np.clip(stationary, 0.0, np.maximum(cap, 0.0)), 0.0)
    return out


def solve_local_frequency(state: SlotState, u_edge: np.ndarray,
                          u_cloud: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Local execution clock: cubic-power stationary point under the clock
    budget left by encoding and the backlog left by offloading."""
    s = cfg.system
    w_local = state.q_local + state.z_local
    stationary = np.sqrt(s.slot_length * np.maximum(w_local, 0.0) * s.flops_per_cycle_local
                         / (3.0 * s.lyapunov_v * s.task_flops_total * s.alpha_local))
    f_encode = power.encode_frequency(u_edge, cfg)
    budget = np.maximum(s.f_local_max - f_encode, 0.0)
    left = np.maximum(state.q_local - u_edge - u_cloud, 0.0)
    queue_clamp = left * s.task_flops_total / (s.slot_length * s.flops_per_cycle_local)
    return np.minimum(stationary, np.minimum(budget, queue_clamp))


def solve_edge_frequency(state: SlotState, cfg: SystemConfig) -> np.ndarray:
    """Edge decode clock; solved for every device with edge backlog, since
    the edge queue drains regardless of the current slot's association."""
    s = cfg.system
    w = state.q_edge + state.z_edge
    stationary = np.sqrt(s.slot_length * np.maximum(w, 0.0) * s.flops_per_cycle_edge
                         / (3.0 * s.lyapunov_v * s.task_flops_decode * s.alpha_edge_weighted))
    queue_clamp = state.q_edge * s.task_flops_decode / (s.slot_length * s.flops_per_cycle_edge)
    return np.minimum(stationary, np.minimum(s.f_edge_max, queue_clamp))


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


_REL_TOL = 1e-9
_TX_POWER_TOL = 1e-5


def check_clocks_and_backlog(sol: Solution, state: SlotState, cfg: SystemConfig) -> None:
    """Raise FeasibilityError if the clocks exceed their budgets or the
    served volumes exceed the backlog, beyond rounding: 1e-9 relative,
    plus 1e-9 tasks for the volumes."""
    s, alloc = cfg.system, sol.alloc
    tol = 1 + _REL_TOL
    if (alloc.f_local + alloc.f_encode > s.f_local_max * tol).any():
        raise FeasibilityError("f_local + f_encode exceeds f_local_max")
    if (alloc.f_edge > s.f_edge_max * tol).any():
        raise FeasibilityError("f_edge exceeds f_edge_max")
    if (sol.mu_local > state.q_local * tol + _REL_TOL).any():
        raise FeasibilityError("served local volume exceeds local backlog")
    if (sol.mu_edge > state.q_edge * tol + _REL_TOL).any():
        raise FeasibilityError("edge decode volume exceeds edge backlog")


def check_allocation(alloc: Allocation, policy: Policy, state: SlotState,
                     cfg: SystemConfig) -> None:
    """Raise FeasibilityError naming the first violated per-slot constraint."""
    if np.any(alloc.u_edge[~policy.rho_edge] != 0):
        raise FeasibilityError("u_edge must be zero without edge association")
    if np.any(alloc.u_cloud[~policy.rho_cloud] != 0):
        raise FeasibilityError("u_cloud must be zero without cloud association")
    for name, v in (("u_edge", alloc.u_edge), ("u_cloud", alloc.u_cloud),
                    ("f_local", alloc.f_local), ("f_encode", alloc.f_encode),
                    ("f_edge", alloc.f_edge)):
        if np.any(np.asarray(v) < 0):
            raise FeasibilityError(f"{name} must be >= 0")
    sol = rates_and_powers(alloc, policy, state, cfg)
    check_clocks_and_backlog(sol, state, cfg)
    # the accuracy-curve inversion near its ceiling round-trips to ~1e-6
    # relative in float64, so the power guard is correspondingly looser
    if np.any(sol.p_tx_edge > cfg.channel.p_tx_max * (1 + _TX_POWER_TOL)):
        raise FeasibilityError("semantic transmit power exceeds p_tx_max")
    if np.any(sol.p_tx_cloud > cfg.channel.p_tx_max * (1 + _TX_POWER_TOL)):
        raise FeasibilityError("cloud transmit power exceeds p_tx_max")


@dataclass
class Solution:
    """A solved allocation with the execution rates and the four power
    components it implies, per device (or per device and combo)."""

    alloc: Allocation
    mu_local: np.ndarray    # tasks served locally: executed plus offloaded
    mu_edge: np.ndarray     # tasks decoded at the edge server
    p_local: np.ndarray
    p_edge: np.ndarray
    p_tx_edge: np.ndarray
    p_tx_cloud: np.ndarray


def rates_and_powers(alloc: Allocation, policy: Policy, state: SlotState,
                     cfg: SystemConfig) -> Solution:
    """Rates and powers of an allocation under a policy."""
    mu_local = (np.asarray(power.local_exec_rate(alloc.f_local, cfg))
                + alloc.u_edge + alloc.u_cloud)
    mu_edge = np.asarray(power.edge_exec_rate(alloc.f_edge, cfg))
    p_l, p_e, p_tx_e, p_tx_c, _ = power.total_power(alloc, policy, state, cfg)
    return Solution(alloc=alloc, mu_local=mu_local, mu_edge=mu_edge,
                    p_local=np.asarray(p_l), p_edge=np.asarray(p_e),
                    p_tx_edge=p_tx_e, p_tx_cloud=p_tx_c)


def g_terms(sol: Solution, state: SlotState,
            cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-device contributions to the per-slot objective.

    The arrival term uses the distribution mean (arrivals are not observed
    at decision time).
    """
    v = cfg.system.lyapunov_v
    lam = cfg.mean_arrivals_per_slot
    local_terms = -(state.q_local + state.z_local) * (sol.mu_local - lam)
    edge_terms = -(state.q_edge + state.z_edge) * (sol.mu_edge - sol.alloc.u_edge)
    power_terms = v * (sol.p_local + sol.p_edge + sol.p_tx_edge + sol.p_tx_cloud)
    return local_terms, edge_terms, power_terms


def evaluate_g(alloc: Allocation, policy: Policy, state: SlotState,
               cfg: SystemConfig) -> float:
    """Exact per-slot objective of a feasible allocation (error if infeasible)."""
    check_allocation(alloc, policy, state, cfg)
    local_terms, edge_terms, power_terms = g_terms(
        rates_and_powers(alloc, policy, state, cfg), state, cfg)
    return float(np.sum(local_terms + edge_terms + power_terms))


def evaluate_policy(policy: Policy, state: SlotState,
                    cfg: SystemConfig) -> CriticResult:
    """Solve the continuous allocation for one policy and score it."""
    alloc = assemble_allocation(state, policy.rho_edge.astype(bool),
                                policy.rho_cloud.astype(bool), cfg)
    local_terms, edge_terms, power_terms = g_terms(
        rates_and_powers(alloc, policy, state, cfg), state, cfg)
    g_value = float(np.sum(local_terms + edge_terms + power_terms))
    return CriticResult(alloc=alloc, g_value=g_value, local_terms=local_terms,
                        edge_terms=edge_terms, power_terms=power_terms)


# ---------------------------------------------------------------------------
# The per-slot combo solve and the searches that read it
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _combo_policy(n: int) -> Policy:
    """`device_g_table`'s four combos as one read-only 4n-long policy."""
    edge = np.repeat(np.array([False, False, True, True]), n)
    cloud = np.repeat(np.array([False, True, False, True]), n)
    edge.flags.writeable = cloud.flags.writeable = False
    return Policy(rho_edge=edge, rho_cloud=cloud)


def device_g_table(state: SlotState, cfg: SystemConfig) -> tuple[np.ndarray, Solution]:
    """(4, I) objective contributions for each per-device association combo,
    plus the 4I-long solution (allocation, rates, powers) they came from.

    Combo index is 2*edge_bit + cloud_bit; entry `combo * I + i` of each
    solution array belongs to device i under that combo. Valid because
    the per-slot objective decomposes across devices once the bandwidth
    split is fixed, which the equal split by the association cap
    guarantees. All four combos are solved in one pass over a 4x-tiled
    state; elementwise results are identical to solving each combo
    separately, so `gather` reproduces `evaluate_policy` and
    `power.total_power` bit for bit.
    """
    n = cfg.system.num_devices
    tiled = SlotState(*(np.concatenate((x, x, x, x)) for x in (
        state.h2_edge, state.h2_cloud, state.edge_cap, state.cloud_cap,
        state.q_local, state.q_edge, state.z_local, state.z_edge)))
    combos = _combo_policy(n)
    alloc = assemble_allocation(tiled, combos.rho_edge, combos.rho_cloud, cfg)
    sol = rates_and_powers(alloc, combos, tiled, cfg)
    lt, et, pt = g_terms(sol, tiled, cfg)
    return (lt + et + pt).reshape(4, n), sol


def gather(table: np.ndarray, tiled: Solution,
           policy: Policy) -> tuple[Solution, float]:
    """A policy's solution and objective value, read from the combo solve.

    Equal to `evaluate_policy(policy, ...)`'s `alloc` and `g_value`, and to
    `power.total_power` and the execution rates on that allocation, bit for
    bit: the same elementwise values, summed in the same order.
    """
    n = table.shape[1]
    idx = (2 * policy.rho_edge.astype(np.intp) + policy.rho_cloud) * n + np.arange(n)
    a = tiled.alloc
    alloc = Allocation(u_edge=a.u_edge[idx], u_cloud=a.u_cloud[idx],
                       f_local=a.f_local[idx], f_encode=a.f_encode[idx],
                       f_edge=a.f_edge[idx])
    sol = Solution(alloc=alloc, mu_local=tiled.mu_local[idx],
                   mu_edge=tiled.mu_edge[idx], p_local=tiled.p_local[idx],
                   p_edge=tiled.p_edge[idx], p_tx_edge=tiled.p_tx_edge[idx],
                   p_tx_cloud=tiled.p_tx_cloud[idx])
    return sol, float(table.reshape(-1)[idx].sum())


def _bits(key: int, n: int) -> np.ndarray:
    """The n low bits of `key` as a bool mask, most significant bit first."""
    raw = np.frombuffer(key.to_bytes((n + 7) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[raw.size * 8 - n:].astype(bool)


def best_association(table: np.ndarray, chi_e: int, chi_c: int) -> Policy:
    """Minimum-objective association for a (4, I) combo table, exactly.

    A forward dynamic program over devices on the state (#edge, #cloud):
    O(I * chi_e * chi_c) steps instead of scoring all C(I, chi_e) *
    C(I, chi_c) policies. Each state keeps its best path's value g (summed
    device by device) and its path key K = E * 2**I + C, where E and C are
    the edge and cloud bit strings, device 0 first, so a path is its own
    policy; device bits (e, c) extend K to 2K + e * 2**I + c.

    Exact ties resolve as a first-index argmin over `oracle.policy_table`
    does: enumeration lists policies with the larger E first, then the
    larger C, so an exact value tie keeps the larger K (C < 2**I). The keys
    are Python ints and cannot overflow at any I.
    """
    n = table.shape[1]
    ke, kc = min(chi_e, n), min(chi_c, n)
    w = kc + 1
    size = (ke + 1) * w
    edge = 1 << n   # an edge bit's term in the key extension
    inf = float("inf")
    g_old, k_old = [inf] * size, [0] * size
    g_old[0] = 0.0
    for i, (t0, t1, t2, t3) in enumerate(table.T.tolist()):
        # states (a, b) reachable after device i that can still end feasible
        left = n - 1 - i
        lo_e = max(ke - left, 0)
        lo_c = max(kc - left, 0)
        hi_e, hi_c = min(ke, i + 1), min(kc, i + 1)
        g_new, k_new = [inf] * size, [0] * size
        for a in range(lo_e, hi_e + 1):
            row = a * w
            for s in range(row + lo_c, row + hi_c + 1):
                # predecessors: s (no server), s - 1 (cloud), s - w (edge),
                # s - w - 1 (both); unrolled, as this loop is the hot path
                g, k = g_old[s] + t0, 2 * k_old[s]
                if s > row:
                    x = g_old[s - 1] + t1
                    if x <= g:
                        xk = 2 * k_old[s - 1] + 1
                        if x < g or xk > k:
                            g, k = x, xk
                if a:
                    r = s - w
                    x = g_old[r] + t2
                    if x <= g:
                        xk = 2 * k_old[r] + edge
                        if x < g or xk > k:
                            g, k = x, xk
                    if s > row:
                        x = g_old[r - 1] + t3
                        if x <= g:
                            xk = 2 * k_old[r - 1] + edge + 1
                            if x < g or xk > k:
                                g, k = x, xk
                g_new[s], k_new[s] = g, k
        g_old, k_old = g_new, k_new
    return Policy(rho_edge=_bits(k_old[-1] >> n, n), rho_cloud=_bits(k_old[-1] & (edge - 1), n))


class PolicyBatch:
    """A fixed set of candidate policies scored against combo tables."""

    def __init__(self, edge_masks: np.ndarray, cloud_masks: np.ndarray):
        self.edge_masks = edge_masks
        self.cloud_masks = cloud_masks
        self.combo = 2 * edge_masks.astype(np.int64) + cloud_masks.astype(np.int64)
        self._device_idx = np.arange(self.combo.shape[1])[None, :]

    def __len__(self) -> int:
        return self.combo.shape[0]

    def evaluate(self, table: np.ndarray) -> np.ndarray:
        """Objective values for every policy in the batch, given
        `device_g_table`'s (4, I) table."""
        per_device = table.T[self._device_idx, self.combo]  # (P, I)
        return per_device.sum(axis=1)

    def best(self, table: np.ndarray) -> tuple[int, np.ndarray]:
        """Index of the minimum-objective policy (first on ties) plus all values."""
        g = self.evaluate(table)
        return int(np.argmin(g)), g


def best_policy(edge_masks: np.ndarray, cloud_masks: np.ndarray,
                table: np.ndarray) -> tuple[int, np.ndarray]:
    """One-shot form of PolicyBatch.best for ad-hoc candidate sets."""
    return PolicyBatch(edge_masks, cloud_masks).best(table)
