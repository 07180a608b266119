"""Model-based per-slot optimizer.

Each slot solves the continuous allocation once, for all four per-device
association combos at once (`device_g_table`), by a fixed sequence of four
one-dimensional convex subproblems, each admitting a closed-form stationary
point clamped into its feasible interval:

1. edge offload volume,
2. cloud offload volume (given the edge volume),
3. local execution frequency (given both volumes),
4. edge decode frequency.

Each subproblem drops the coupling terms the sequence has not fixed yet;
notably the edge-volume stage ignores the semantic transmit power, which is
orders of magnitude below the compute power it trades against. Each
combo's allocation is then scored with the full per-slot objective,
transmit powers included. Every stationary point weighs the backlog by its
real plus virtual queue, as the per-slot objective implies; the combo solve
adds those weights once per slot and hands them to the stages.

The stages run on the untiled (I,) state against (4, 1) combo masks, and
numpy broadcasts each term only as far as it depends on the combo. Every
policy is read from that one solve: `gather` (and `evaluate_policy`, which
solves and gathers) reads one policy's solution, `best_association` finds
the best policy with a dynamic program that walks a plan computed once per
shape (I, chi_e, chi_c), and `best_policy` scores a candidate set. The
stages and the power formulas take their scalar operands from
`cfg.coefficients` (`power.Coefficients`), built once per config.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import Policy, SlotState, SystemConfig
from . import power
from .power import TINY, ZERO


class FeasibilityError(ValueError):
    """An allocation violates one of the per-slot constraints."""


def solve_edge_volume(state: SlotState, w_local: np.ndarray, edge_mask: np.ndarray,
                      cfg: SystemConfig) -> np.ndarray:
    """Edge offload volume: clamped stationary point of the encode tradeoff.

    Zero whenever the backlog differential (local minus edge, real plus
    virtual; `w_local` = q_local + z_local) is non-positive or the device is
    not edge-associated. The upper clamp is the tightest of the local
    backlog, the full-clock encode rate, and the semantic-link volume
    reachable at the power ceiling.
    """
    k = cfg.coefficients
    w = w_local - state.q_edge - state.z_edge
    stationary = np.sqrt(k.edge_volume_num * np.maximum(w, ZERO) / k.edge_volume_den)
    cap = np.minimum(state.q_local, np.minimum(k.u_encode, state.edge_cap))
    out = np.where((w > ZERO) & edge_mask, np.minimum(stationary, cap), ZERO)
    return np.maximum(out, ZERO)


def solve_cloud_volume(state: SlotState, w_local_pos: np.ndarray, room: np.ndarray,
                       cloud_mask: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Cloud offload volume: clamped stationary point of the Shannon-power
    tradeoff, clipped to [0, max(cap, 0)] (with `np.clip`'s values); the cap
    is the link's or `room` = q_local - u_edge, whichever is smaller.
    `w_local_pos` = max(q_local + z_local, 0)."""
    k = cfg.coefficients
    arg = w_local_pos * k.slot_length * state.h2_cloud / k.cloud_volume_den
    stationary = np.where(arg > ZERO, k.cloud_volume_scale * np.log2(np.maximum(arg, TINY)), ZERO)
    cap = np.minimum(room, state.cloud_cap)
    return np.where(cloud_mask, np.minimum(np.maximum(stationary, ZERO), np.maximum(cap, ZERO)),
                    ZERO)


def solve_local_frequency(w_local_pos: np.ndarray, f_encode: np.ndarray, room: np.ndarray,
                          cfg: SystemConfig) -> np.ndarray:
    """Local execution clock: cubic-power stationary point under the clock
    budget left by encoding and the backlog left by offloading (`room` =
    q_local - u_edge - u_cloud). `w_local_pos` = max(q_local + z_local, 0)."""
    k = cfg.coefficients
    stationary = np.sqrt(k.slot_length * w_local_pos * k.flops_per_cycle_local
                         / k.local_clock_den)
    budget = np.maximum(k.f_local_max - f_encode, ZERO)
    queue_clamp = np.maximum(room, ZERO) * k.task_flops_total / k.slot_flops_local
    return np.minimum(stationary, np.minimum(budget, queue_clamp))


def solve_edge_frequency(state: SlotState, w_edge_pos: np.ndarray,
                         cfg: SystemConfig) -> np.ndarray:
    """Edge decode clock; solved for every device with edge backlog, since
    the edge queue drains regardless of the current slot's association
    (`w_edge_pos` = max(q_edge + z_edge, 0))."""
    k = cfg.coefficients
    stationary = np.sqrt(k.slot_length * w_edge_pos * k.flops_per_cycle_edge
                         / k.edge_clock_den)
    queue_clamp = state.q_edge * k.task_flops_decode / k.slot_flops_edge
    return np.minimum(stationary, np.minimum(k.f_edge_max, queue_clamp))


_REL_TOL = 1e-9


def check_clocks_and_backlog(sol: Solution, state: SlotState, cfg: SystemConfig) -> None:
    """Raise FeasibilityError if the clocks exceed their budgets or the
    served volumes exceed the backlog, beyond rounding: 1e-9 relative,
    plus 1e-9 tasks for the volumes."""
    s = cfg.system
    tol = 1 + _REL_TOL
    if np.logical_or.reduce(sol.f_local + sol.f_encode > s.f_local_max * tol, axis=None):
        raise FeasibilityError("f_local + f_encode exceeds f_local_max")
    if np.logical_or.reduce(sol.f_edge > s.f_edge_max * tol, axis=None):
        raise FeasibilityError("f_edge exceeds f_edge_max")
    # the served volumes against the real queues, local and edge rows at once
    over = np.array((sol.mu_local, sol.mu_edge)) > state.queues[:2] * tol + _REL_TOL
    if np.logical_or.reduce(over, axis=None):
        raise FeasibilityError("served local volume exceeds local backlog" if over[0].any()
                               else "edge decode volume exceeds edge backlog")


@dataclass
class Solution:
    """A solved allocation (volumes and clocks) with the execution rates and
    the four power components it implies, per device; from `device_g_table`,
    the fields that depend on the association are per combo and device, (4, I)."""

    u_edge: np.ndarray      # tasks/slot offloaded to the edge server
    u_cloud: np.ndarray     # tasks/slot offloaded to the cloud server
    f_local: np.ndarray     # Hz spent executing tasks locally
    f_encode: np.ndarray    # Hz spent encoding edge-bound tasks
    f_edge: np.ndarray      # Hz spent decoding at the edge server
    mu_local: np.ndarray    # tasks served locally: executed plus offloaded
    mu_edge: np.ndarray     # tasks decoded at the edge server
    p_local: np.ndarray
    p_edge: np.ndarray
    p_tx_edge: np.ndarray
    p_tx_cloud: np.ndarray


def g_terms(sol: Solution, weights: np.ndarray,
            cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-device contributions to the per-slot objective, from the (2, I)
    queue weights: q_local + z_local, then q_edge + z_edge.

    The arrival term uses the distribution mean (arrivals are not observed
    at decision time).
    """
    k = cfg.coefficients
    local_terms = -weights[0] * (sol.mu_local - k.mean_arrivals)
    edge_terms = -weights[1] * (sol.mu_edge - sol.u_edge)
    power_terms = k.lyapunov_v * (sol.p_local + sol.p_edge + sol.p_tx_edge + sol.p_tx_cloud)
    return local_terms, edge_terms, power_terms


# ---------------------------------------------------------------------------
# The per-slot combo solve and the searches that read it
# ---------------------------------------------------------------------------

# combo c = 2 * edge bit + cloud bit, as (4, 1) columns against (I,) devices
_EDGE = np.array([[False], [False], [True], [True]])
_CLOUD = np.array([[False], [True], [False], [True]])
_EDGE.flags.writeable = _CLOUD.flags.writeable = False


def device_g_table(state: SlotState, cfg: SystemConfig) -> tuple[np.ndarray, Solution]:
    """(4, I) objective contributions for each per-device association combo,
    plus the solution (allocation, rates, powers) they came from.

    Row c of the table, combo c = 2*edge_bit + cloud_bit, holds each
    device's contribution under that combo. Valid because the per-slot
    objective decomposes across devices once the bandwidth split is fixed,
    which the equal split by the association cap guarantees.

    The stages run once on the untiled (I,) state against (4, 1) combo
    masks, so numpy broadcasts each term only as far as it depends on the
    combo. The solution's `u_edge`, `u_cloud`, `f_local`, `f_encode`,
    `mu_local`, `p_local`, `p_tx_edge` and `p_tx_cloud` are (4, I);
    `f_edge`, `mu_edge` and `p_edge` depend on no association and are (I,).
    Every combo-free term is computed once per device: the edge-volume
    candidate (rows 2 and 3 of `u_edge`), the edge clock, rate and power,
    and the semantic transmit power of the candidate. What two steps share
    is computed once per slot: the queue weights q + z (both in one call on
    the queue array's row pairs), their positive parts, the local backlog
    left by the edge volume and the encode clock. A transmit power is
    zero where its volume is, and the stages zero each volume off its
    combo's mask. Elementwise the values are those of solving each combo
    separately, so a policy's solution gathered from this one solve is its
    per-policy solution bit for bit (the tests keep that solve as their
    reference).
    """
    queues = state.queues
    weights = queues[:2] + queues[2:]   # q + z, local and edge rows
    weights_pos = np.maximum(weights, ZERO)
    u_edge = solve_edge_volume(state, weights[0], _EDGE, cfg)
    room = queues[0] - u_edge   # local backlog left by the edge volume
    u_cloud = solve_cloud_volume(state, weights_pos[0], room, _CLOUD, cfg)
    f_encode = power.encode_frequency(u_edge, cfg)
    f_local = solve_local_frequency(weights_pos[0], f_encode, room - u_cloud, cfg)
    f_edge = solve_edge_frequency(state, weights_pos[1], cfg)
    u_dev = u_edge[2]   # the edge-volume candidate: each device's volume when edge-associated
    p_tx_dev = power.semantic_tx_power(power.required_accuracy(u_dev, cfg), state.h2_edge, cfg)
    sol = Solution(
        u_edge=u_edge, u_cloud=u_cloud, f_local=f_local, f_encode=f_encode, f_edge=f_edge,
        mu_local=power.local_exec_rate(f_local, cfg) + u_edge + u_cloud,
        mu_edge=power.edge_exec_rate(f_edge, cfg),
        p_local=power.local_power(f_local, f_encode, cfg),
        p_edge=power.edge_power(f_edge, cfg),
        p_tx_edge=np.where(u_edge > ZERO, p_tx_dev, ZERO),
        p_tx_cloud=np.where(u_cloud > ZERO,
                            power.shannon_tx_power(u_cloud, state.h2_cloud, cfg), ZERO))
    lt, et, pt = g_terms(sol, weights, cfg)
    return lt + et + pt, sol


def gather(table: np.ndarray, combos: Solution,
           policy: Policy) -> tuple[Solution, float]:
    """A policy's solution and objective value, read from the combo solve
    (`device_g_table`): each (4, I) field at every device's combo, and the
    per-device (I,) fields `f_edge`, `mu_edge` and `p_edge` as they are.
    The value sums the policy's table entries in device order.
    """
    n = table.shape[1]
    idx = policy.rho_edge * (2 * n) + policy.rho_cloud * n + np.arange(n)
    sol = Solution(u_edge=combos.u_edge.ravel()[idx], u_cloud=combos.u_cloud.ravel()[idx],
                   f_local=combos.f_local.ravel()[idx], f_encode=combos.f_encode.ravel()[idx],
                   f_edge=combos.f_edge, mu_local=combos.mu_local.ravel()[idx],
                   mu_edge=combos.mu_edge, p_local=combos.p_local.ravel()[idx],
                   p_edge=combos.p_edge, p_tx_edge=combos.p_tx_edge.ravel()[idx],
                   p_tx_cloud=combos.p_tx_cloud.ravel()[idx])
    return sol, float(table.ravel()[idx].sum())


def evaluate_policy(policy: Policy, state: SlotState,
                    cfg: SystemConfig) -> tuple[Solution, float]:
    """One policy's solution and objective value: the slot's combo solve
    (`device_g_table`), gathered at the policy (`gather`)."""
    return gather(*device_g_table(state, cfg), policy)


def _bits(key: int, n: int) -> np.ndarray:
    """The n low bits of `key` as a bool mask, most significant bit first."""
    raw = np.frombuffer(key.to_bytes((n + 7) // 8, "big"), dtype=np.uint8)
    return np.unpackbits(raw)[raw.size * 8 - n:].astype(bool)


@functools.lru_cache(maxsize=8)
def _dp_plan(n: int, ke: int, kc: int) -> tuple[tuple[bool, tuple[int, ...], tuple[int, ...],
                                                      tuple[int, ...]], ...]:
    """`best_association`'s walk for one shape: per device i, the states
    s = a * (kc + 1) + b it updates, namely every (a, b) reachable after
    device i that can still end at (ke, kc), split by which predecessors
    they have: (a, b) = (0, 0) or not, then a = 0 < b (none and cloud), then
    b = 0 < a (none and edge), then both > 0 (all four)."""
    w = kc + 1
    plan = []
    for i in range(n):
        left = n - 1 - i
        lo_e, lo_c = max(ke - left, 0), max(kc - left, 0)
        hi_e, hi_c = min(ke, i + 1), min(kc, i + 1)
        edges = range(max(lo_e, 1), hi_e + 1)
        clouds = range(max(lo_c, 1), hi_c + 1)
        plan.append((lo_e == lo_c == 0,
                     tuple(clouds) if lo_e == 0 else (),
                     tuple(a * w for a in edges) if lo_c == 0 else (),
                     tuple(a * w + b for a in edges for b in clouds)))
    return tuple(plan)


def best_association(table: np.ndarray, chi_e: int, chi_c: int) -> Policy:
    """Minimum-objective association for a (4, I) combo table, exactly (chi_e, chi_c <= I).

    A forward dynamic program over devices on the state (#edge, #cloud):
    O(I * chi_e * chi_c) steps instead of scoring all C(I, chi_e) *
    C(I, chi_c) policies. Each state keeps its best path's value g (summed
    device by device) and its path key K = E * 2**I + C, where E and C are
    the edge and cloud bit strings, device 0 first, so a path is its own
    policy; device bits (e, c) extend K to 2K + e * 2**I + c. The states
    each device updates come from `_dp_plan`, computed once per shape.
    Every state compares its predecessors in one order: none, cloud, edge,
    both. Two lists per value swap roles each device; a state a device
    reads was written by the device before it or by none (inf), as the
    window only gains states at its top and loses them at its bottom.

    Exact ties resolve as a first-index argmin over `oracle.policy_table`
    does: enumeration lists policies with the larger E first, then the
    larger C, so an exact value tie keeps the larger K (C < 2**I). The keys
    are Python ints and cannot overflow at any I.
    """
    n = table.shape[1]
    w = chi_c + 1
    size = (chi_e + 1) * w
    edge = 1 << n   # an edge bit's term in the key extension
    inf = float("inf")
    g_old, k_old, g_new, k_new = [inf] * size, [0] * size, [inf] * size, [0] * size
    g_old[0] = 0.0
    for (t0, t1, t2, t3), (origin, cloud_only, edge_only, both) in zip(
            table.T.tolist(), _dp_plan(n, chi_e, chi_c)):
        # predecessors of s: s (no server), s - 1 (cloud), s - w (edge),
        # s - w - 1 (both); unrolled per kind, as these loops are the hot path
        if origin:
            g_new[0], k_new[0] = g_old[0] + t0, 2 * k_old[0]
        for s in cloud_only:
            g, k = g_old[s] + t0, 2 * k_old[s]
            x = g_old[s - 1] + t1
            if x <= g:
                xk = 2 * k_old[s - 1] + 1
                if x < g or xk > k:
                    g, k = x, xk
            g_new[s], k_new[s] = g, k
        for s in edge_only:
            g, k = g_old[s] + t0, 2 * k_old[s]
            r = s - w
            x = g_old[r] + t2
            if x <= g:
                xk = 2 * k_old[r] + edge
                if x < g or xk > k:
                    g, k = x, xk
            g_new[s], k_new[s] = g, k
        for s in both:
            g, k = g_old[s] + t0, 2 * k_old[s]
            x = g_old[s - 1] + t1
            if x <= g:
                xk = 2 * k_old[s - 1] + 1
                if x < g or xk > k:
                    g, k = x, xk
            r = s - w
            x = g_old[r] + t2
            if x <= g:
                xk = 2 * k_old[r] + edge
                if x < g or xk > k:
                    g, k = x, xk
            x = g_old[r - 1] + t3
            if x <= g:
                xk = 2 * k_old[r - 1] + edge + 1
                if x < g or xk > k:
                    g, k = x, xk
            g_new[s], k_new[s] = g, k
        g_old, k_old, g_new, k_new = g_new, k_new, g_old, k_old
    bits = _bits(k_old[-1], 2 * n)
    return Policy(rho_edge=bits[:n], rho_cloud=bits[n:])


@functools.lru_cache(maxsize=8)
def _device_index(n: int) -> np.ndarray:
    return np.broadcast_to(np.arange(n), (1, n))   # a read-only view


class PolicyBatch:
    """A fixed set of candidate policies scored against combo tables."""

    def __init__(self, edge_masks: np.ndarray, cloud_masks: np.ndarray):
        self.combo = 2 * edge_masks + cloud_masks   # int64
        self._device_idx = _device_index(self.combo.shape[1])

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
        return int(g.argmin()), g


def best_policy(edge_masks: np.ndarray, cloud_masks: np.ndarray,
                table: np.ndarray) -> tuple[int, np.ndarray]:
    """One-shot form of PolicyBatch.best for ad-hoc candidate sets."""
    return PolicyBatch(edge_masks, cloud_masks).best(table)
