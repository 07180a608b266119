"""Execution rates, computation power, the accuracy curve, transmit power,
and a solution's power sums.

All formulas are pure and accept scalars or numpy arrays. Rates are in
tasks/slot, frequencies in Hz, powers in W. Most formulas the slot's combo
solve (`critic.device_g_table`) runs take their scalar operands from
`Coefficients`, built once per config on first use. Of the execution
rates only `encode_rate` reads the config's Python floats, as
`Coefficients` calls it while it is being built, before
`cfg.coefficients` exists. Each link formula reads its own link's
per-device bandwidth from the config.
`total_power` sums the four power components of one policy's solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import SystemConfig

if TYPE_CHECKING:
    from .critic import Solution   # critic imports this module


def operand(x: float) -> np.ndarray:
    """`x` as a read-only 0-d float64 array. numpy combines an array with a
    0-d array faster than with a Python float, which it wraps anew on every
    call (about 0.4 of 1.7 us per ufunc call on 12 elements, numpy 2.4 on a
    2-vCPU x86-64 guest); the arithmetic, and so every result bit, is the same."""
    a = np.array(float(x))
    a.flags.writeable = False
    return a


ZERO, ONE, TWO, THREE, TEN, INF, TINY = map(operand, (0.0, 1.0, 2.0, 3.0, 10.0, np.inf, 1e-300))
# Link SNRs at the power ceiling saturate at the largest float: `validate_config`
# keeps them finite at the pathloss gain, but a fading peak can still pass it.
_SNR_MAX = np.finfo(float).max


# ---------------------------------------------------------------------------
# Accuracy-vs-SNR surrogate curve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogisticAccuracyCurve:
    """Monotone logistic accuracy curve epsilon(snr_db), invertible on (0, ceiling)."""

    ceiling: float
    slope_per_db: float
    midpoint_db: float

    def accuracy(self, snr_db):
        z = self.slope_per_db * (np.asarray(snr_db, dtype=float) - self.midpoint_db)
        ez = np.exp(-np.abs(z))  # overflow-safe in both tails
        return np.where(z >= 0, self.ceiling / (1.0 + ez), self.ceiling * ez / (1.0 + ez))

    def snr_db_for(self, epsilon):
        """Inverse curve; epsilon must lie strictly inside (0, ceiling)."""
        eps = np.asarray(epsilon, dtype=float)
        return self.midpoint_db - np.log(self.ceiling / eps - ONE) / self.slope_per_db


# ---------------------------------------------------------------------------
# Execution rates and computation power
# ---------------------------------------------------------------------------

def local_exec_rate(f_local, cfg: SystemConfig):
    """Tasks/slot finished locally at clock f_local."""
    k = cfg.coefficients
    return k.slot_flops_local * f_local / k.task_flops_total


def encode_rate(f_encode, cfg: SystemConfig):
    """Tasks/slot encoded for edge offloading at clock f_encode."""
    s = cfg.system
    return s.slot_length * s.flops_per_cycle_local * f_encode / s.task_flops_encode


def encode_frequency(u_edge, cfg: SystemConfig):
    """Clock needed to encode u_edge tasks within the slot (inverse of encode_rate)."""
    k = cfg.coefficients
    return u_edge * k.task_flops_encode / k.slot_flops_local


def edge_exec_rate(f_edge, cfg: SystemConfig):
    """Tasks/slot decoded and finished at the edge server at clock f_edge."""
    k = cfg.coefficients
    return k.slot_flops_edge * f_edge / k.task_flops_decode


def local_power(f_local, f_encode, cfg: SystemConfig):
    """Cubic dynamic power of the device GPU split across execute and encode."""
    return cfg.coefficients.alpha_local * (f_local ** THREE + f_encode ** THREE)


def edge_power(f_edge, cfg: SystemConfig):
    """Weighted cubic dynamic power of the edge server GPU."""
    return cfg.coefficients.alpha_edge_weighted * f_edge ** THREE


# ---------------------------------------------------------------------------
# Transmit power models
# ---------------------------------------------------------------------------

def required_accuracy(u_edge, cfg: SystemConfig):
    """Accuracy the semantic link must achieve to move u_edge tasks/slot.

    Values above the curve ceiling are physically unreachable; callers cap
    the volume with `semantic_volume_cap` (or treat the resulting transmit
    power, which is infinite, as a link-infeasible marker).
    """
    k, bandwidth = cfg.coefficients, cfg.bandwidth_edge
    return u_edge * k.sentence_len * k.symbols_per_word / (cfg.system.slot_length * bandwidth)


def semantic_tx_power(eps_required, h2_edge, cfg: SystemConfig):
    """Transmit power for the semantic uplink at the given required accuracy.

    The effective accuracy is floored at epsilon_min; accuracies at or
    beyond the curve ceiling return inf (link-infeasible). Compare against
    p_tx_max to detect infeasible links.
    """
    k = cfg.coefficients
    eps_eff = np.maximum(eps_required, k.epsilon_min)
    snr_db = np.where(eps_eff >= k.curve.ceiling, INF,
                      k.curve.snr_db_for(np.minimum(eps_eff, k.epsilon_invertible)))
    snr = TEN ** (snr_db / TEN)
    return snr * k.noise_psd * cfg.bandwidth_edge / np.asarray(h2_edge, dtype=float)


def shannon_tx_power(u_cloud, h2_cloud, cfg: SystemConfig):
    """Transmit power to push u_cloud tasks/slot of source bits to the cloud."""
    k, bandwidth = cfg.coefficients, cfg.bandwidth_cloud
    exponent = u_cloud * k.bits_per_task / (cfg.system.slot_length * bandwidth)
    return (TWO ** exponent - ONE) * k.noise_psd * bandwidth / np.asarray(h2_cloud, dtype=float)


def cloud_offload_cap(h2_cloud, cfg: SystemConfig):
    """Largest cloud offload volume reachable at the transmit-power ceiling
    (at most 1,024 bits per second per hertz: the SNR saturates)."""
    with np.errstate(over="ignore"):   # a fading peak may pass the float range: see `_SNR_MAX`
        snr = np.minimum(cfg.channel.p_tx_max * np.asarray(h2_cloud, dtype=float)
                         / (cfg.bandwidth_cloud * cfg.channel.noise_psd), _SNR_MAX)
    return cfg.coefficients.cloud_volume_scale * np.log2(1.0 + snr)


# Accuracies this close to the curve ceiling are numerically
# indistinguishable from it when inverted in float64; capping the volume a
# hair earlier keeps the required transmit power finite and well-conditioned
# while giving up a ~1e-9 fraction of volume.
_CEILING_BACKOFF = 1e-9


def semantic_volume_cap(h2_edge, cfg: SystemConfig):
    """Largest edge offload volume the semantic link supports.

    Strictly below the volume whose required accuracy is the curve ceiling:
    the binding limit is either the transmit-power ceiling (weak channels)
    or the invertible part of the accuracy curve just under its ceiling
    (strong channels).
    """
    sem, bandwidth = cfg.semantic, cfg.bandwidth_edge
    curve = cfg.coefficients.curve
    with np.errstate(divide="ignore", over="ignore"):
        snr_cap = (cfg.channel.p_tx_max * np.asarray(h2_edge, dtype=float)
                   / (bandwidth * cfg.channel.noise_psd))
        snr_cap_db = 10.0 * np.log10(np.minimum(snr_cap, _SNR_MAX))
    eps_cap = np.minimum(curve.accuracy(snr_cap_db),
                         curve.ceiling * (1.0 - _CEILING_BACKOFF))
    return (cfg.system.slot_length * bandwidth / (sem.sentence_len * sem.symbols_per_word)) * eps_cap


# ---------------------------------------------------------------------------
# Scalar operands of the formulas the combo solve runs
# ---------------------------------------------------------------------------

_LN2 = float(np.log(2.0))


class Coefficients:
    """The per-config constants: the scalar operands of the formulas above
    and of the solver stages in `critic`, and the queue caps as columns over
    the real queues, for one config, each computed as the formula computed
    it inline (the same float64 operations in the same order), so every
    result keeps its bits. The scalars are `operand`s.
    `SystemConfig.coefficients` builds one per config object, on first use."""

    def __init__(self, cfg: SystemConfig):
        s, ch, sem = cfg.system, cfg.channel, cfg.semantic
        v = s.lyapunov_v
        bits_per_task = sem.sentence_len * sem.bits_per_word
        # config fields
        self.lyapunov_v = operand(v)
        self.slot_length = operand(s.slot_length)
        self.flops_per_cycle_local = operand(s.flops_per_cycle_local)
        self.flops_per_cycle_edge = operand(s.flops_per_cycle_edge)
        self.task_flops_encode = operand(s.task_flops_encode)
        self.task_flops_decode = operand(s.task_flops_decode)
        self.task_flops_total = operand(s.task_flops_total)
        self.f_local_max = operand(s.f_local_max)
        self.f_edge_max = operand(s.f_edge_max)
        self.alpha_local = operand(s.alpha_local)
        self.alpha_edge_weighted = operand(s.alpha_edge_weighted)
        self.sentence_len = operand(sem.sentence_len)
        self.symbols_per_word = operand(sem.symbols_per_word)
        self.epsilon_min = operand(sem.epsilon_min)
        self.noise_psd = operand(ch.noise_psd)
        self.mean_arrivals = operand(cfg.mean_arrivals_per_slot)
        # the accuracy curve with operand parameters, and the largest
        # accuracy `semantic_tx_power` inverts
        self.curve = LogisticAccuracyCurve(ceiling=operand(sem.accuracy_ceiling),
                                           slope_per_db=operand(sem.accuracy_slope_per_db),
                                           midpoint_db=operand(sem.accuracy_midpoint_db))
        self.epsilon_invertible = operand(sem.accuracy_ceiling * (1 - 1e-15))
        # FLOP per Hz of clock in one slot; bits per task sent to the cloud
        self.slot_flops_local = operand(s.slot_length * s.flops_per_cycle_local)
        self.slot_flops_edge = operand(s.slot_length * s.flops_per_cycle_edge)
        self.bits_per_task = operand(bits_per_task)
        # `critic.solve_edge_volume`: the stationary point's numerator
        # factor (encode rate per Hz, cubed) and denominator
        self.edge_volume_num = operand((s.slot_length * s.flops_per_cycle_local
                                        / s.task_flops_encode) ** 3)
        self.edge_volume_den = operand(3.0 * v * s.alpha_local)
        # `critic.solve_edge_volume`'s cap: the encode rate at the full clock
        self.u_encode = operand(encode_rate(s.f_local_max, cfg))
        # `critic.solve_cloud_volume`: tasks per bit/s/Hz, and the
        # denominator of the log's argument
        self.cloud_volume_scale = operand(s.slot_length * cfg.bandwidth_cloud / bits_per_task)
        self.cloud_volume_den = operand(_LN2 * v * bits_per_task * ch.noise_psd)
        # `critic.solve_local_frequency` and `solve_edge_frequency`:
        # the stationary points' denominators
        self.local_clock_den = operand(3.0 * v * s.task_flops_total * s.alpha_local)
        self.edge_clock_den = operand(3.0 * v * s.task_flops_decode * s.alpha_edge_weighted)
        # `engine.step` and `queueing.drift_penalty_bound`: per real queue
        # (local row, then edge row) the mean-queue cap, whether it is set,
        # and the cap squared, as read-only (2, 1) columns; 0.0 where unset
        columns = np.array([(0.0, 0.0, 0.0) if c is None else (c, 1.0, c ** 2)
                            for c in (s.q_max_local, s.q_max_edge)])
        self.q_max_set = columns[:, 1:2] > 0.0
        columns.flags.writeable = self.q_max_set.flags.writeable = False
        self.q_max, self.q_max_sq = columns[:, :1], columns[:, 2:]


# ---------------------------------------------------------------------------
# Slot power sums
# ---------------------------------------------------------------------------

def total_power(sol: Solution) -> tuple[float, float, float, float, float]:
    """The four power components of a policy's solution (local, edge, edge
    transmit, cloud transmit), each summed over devices, and their total,
    added in that order. The components are summed as the rows of one (4, I)
    array; a C-contiguous row sum is the 1-D sum."""
    sums = np.add.reduce(np.array((sol.p_local, sol.p_edge, sol.p_tx_edge, sol.p_tx_cloud)),
                         axis=1).tolist()
    return (*sums, sums[0] + sums[1] + sums[2] + sums[3])
