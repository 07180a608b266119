"""Execution rates, computation power, the accuracy curve, and transmit power.

All functions are pure and accept scalars or numpy arrays. Rates are in
tasks/slot, frequencies in Hz, powers in W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Allocation, Policy, SlotState, SystemConfig


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
        out = np.where(z >= 0, self.ceiling / (1.0 + ez), self.ceiling * ez / (1.0 + ez))
        return out if out.ndim else float(out)

    def snr_db_for(self, epsilon):
        """Inverse curve; epsilon must lie strictly inside (0, ceiling)."""
        eps = np.asarray(epsilon, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.midpoint_db - np.log(self.ceiling / eps - 1.0) / self.slope_per_db
        return out if out.ndim else float(out)


def accuracy_curve(cfg: SystemConfig) -> LogisticAccuracyCurve:
    sem = cfg.semantic
    return LogisticAccuracyCurve(ceiling=sem.accuracy_ceiling,
                                 slope_per_db=sem.accuracy_slope_per_db,
                                 midpoint_db=sem.accuracy_midpoint_db)


# ---------------------------------------------------------------------------
# Execution rates and computation power
# ---------------------------------------------------------------------------

def local_exec_rate(f_local, cfg: SystemConfig):
    """Tasks/slot finished locally at clock f_local."""
    s = cfg.system
    return s.slot_length * s.flops_per_cycle_local * f_local / s.task_flops_total


def encode_rate(f_encode, cfg: SystemConfig):
    """Tasks/slot encoded for edge offloading at clock f_encode."""
    s = cfg.system
    return s.slot_length * s.flops_per_cycle_local * f_encode / s.task_flops_encode


def encode_frequency(u_edge, cfg: SystemConfig):
    """Clock needed to encode u_edge tasks within the slot (inverse of encode_rate)."""
    s = cfg.system
    return u_edge * s.task_flops_encode / (s.slot_length * s.flops_per_cycle_local)


def edge_exec_rate(f_edge, cfg: SystemConfig):
    """Tasks/slot decoded and finished at the edge server at clock f_edge."""
    s = cfg.system
    return s.slot_length * s.flops_per_cycle_edge * f_edge / s.task_flops_decode


def local_power(f_local, f_encode, cfg: SystemConfig):
    """Cubic dynamic power of the device GPU split across execute and encode."""
    a = cfg.system.alpha_local
    return a * (np.asarray(f_local, dtype=float) ** 3 + np.asarray(f_encode, dtype=float) ** 3)


def edge_power(f_edge, cfg: SystemConfig):
    """Weighted cubic dynamic power of the edge server GPU."""
    return cfg.system.alpha_edge_weighted * np.asarray(f_edge, dtype=float) ** 3


# ---------------------------------------------------------------------------
# Transmit power models
# ---------------------------------------------------------------------------

def required_accuracy(u_edge, bandwidth, cfg: SystemConfig):
    """Accuracy the semantic link must achieve to move u_edge tasks/slot.

    Values above the curve ceiling are physically unreachable; callers cap
    the volume with `semantic_volume_cap` (or treat the resulting transmit
    power, which is infinite, as a link-infeasible marker).
    """
    sem = cfg.semantic
    return (np.asarray(u_edge, dtype=float) * sem.sentence_len * sem.symbols_per_word
            / (cfg.system.slot_length * bandwidth))


def semantic_tx_power(eps_required, h2_edge, bandwidth, cfg: SystemConfig):
    """Transmit power for the semantic uplink at the given required accuracy.

    The effective accuracy is floored at epsilon_min; accuracies at or
    beyond the curve ceiling return inf (link-infeasible). Compare against
    p_tx_max to detect infeasible links.
    """
    sem = cfg.semantic
    curve = accuracy_curve(cfg)
    eps_eff = np.maximum(np.asarray(eps_required, dtype=float), sem.epsilon_min)
    snr_db = np.where(eps_eff >= curve.ceiling, np.inf, curve.snr_db_for(
        np.minimum(eps_eff, curve.ceiling * (1 - 1e-15))))
    snr = 10.0 ** (np.asarray(snr_db) / 10.0)
    p = snr * cfg.channel.noise_psd * bandwidth / np.asarray(h2_edge, dtype=float)
    return p if np.ndim(p) else float(p)


def shannon_tx_power(u_cloud, h2_cloud, bandwidth, cfg: SystemConfig):
    """Transmit power to push u_cloud tasks/slot of source bits to the cloud."""
    sem = cfg.semantic
    bits_per_task = sem.sentence_len * sem.bits_per_word
    exponent = np.asarray(u_cloud, dtype=float) * bits_per_task / (cfg.system.slot_length * bandwidth)
    p = ((2.0 ** exponent - 1.0) * cfg.channel.noise_psd * bandwidth
         / np.asarray(h2_cloud, dtype=float))
    return p if np.ndim(p) else float(p)


def cloud_offload_cap(h2_cloud, bandwidth, cfg: SystemConfig):
    """Largest cloud offload volume reachable at the transmit-power ceiling."""
    sem = cfg.semantic
    bits_per_task = sem.sentence_len * sem.bits_per_word
    snr = cfg.channel.p_tx_max * np.asarray(h2_cloud, dtype=float) / (bandwidth * cfg.channel.noise_psd)
    cap = (cfg.system.slot_length * bandwidth / bits_per_task) * np.log2(1.0 + snr)
    return cap if np.ndim(cap) else float(cap)


# Accuracies this close to the curve ceiling are numerically
# indistinguishable from it when inverted in float64; capping the volume a
# hair earlier keeps the required transmit power finite and well-conditioned
# while giving up a ~1e-9 fraction of volume.
_CEILING_BACKOFF = 1e-9


def semantic_volume_cap(h2_edge, bandwidth, cfg: SystemConfig):
    """Largest edge offload volume the semantic link supports.

    Strictly below the volume whose required accuracy is the curve ceiling:
    the binding limit is either the transmit-power ceiling (weak channels)
    or the invertible part of the accuracy curve just under its ceiling
    (strong channels).
    """
    sem = cfg.semantic
    curve = accuracy_curve(cfg)
    snr_cap = cfg.channel.p_tx_max * np.asarray(h2_edge, dtype=float) / (bandwidth * cfg.channel.noise_psd)
    with np.errstate(divide="ignore"):
        snr_cap_db = 10.0 * np.log10(snr_cap)
    eps_cap = np.minimum(curve.accuracy(snr_cap_db),
                         curve.ceiling * (1.0 - _CEILING_BACKOFF))
    cap = (cfg.system.slot_length * bandwidth / (sem.sentence_len * sem.symbols_per_word)) * eps_cap
    return cap if np.ndim(cap) else float(cap)


# ---------------------------------------------------------------------------
# Slot power assembly
# ---------------------------------------------------------------------------

def transmit_powers(alloc: Allocation, state: SlotState, cfg: SystemConfig
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-device semantic and cloud transmit powers; zero for zero volume."""
    b_e, b_c = cfg.bandwidth_edge, cfg.bandwidth_cloud
    eps_req = required_accuracy(alloc.u_edge, b_e, cfg)
    p_tx_e = np.where(alloc.u_edge > 0,
                      semantic_tx_power(eps_req, state.h2_edge, b_e, cfg), 0.0)
    p_tx_c = np.where(alloc.u_cloud > 0,
                      shannon_tx_power(alloc.u_cloud, state.h2_cloud, b_c, cfg), 0.0)
    return p_tx_e, p_tx_c


def total_power(alloc: Allocation, policy: Policy, state: SlotState,
                cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """All four per-device power components plus the slot total.

    Transmit terms are zero for devices without the matching association
    (their volumes are zero by contract).
    """
    p_l = local_power(alloc.f_local, alloc.f_encode, cfg)
    p_e = edge_power(alloc.f_edge, cfg)
    p_tx_e, p_tx_c = transmit_powers(alloc, state, cfg)
    p_tx_e = np.where(policy.rho_edge, p_tx_e, 0.0)
    p_tx_c = np.where(policy.rho_cloud, p_tx_c, 0.0)
    total = float(p_l.sum() + p_e.sum() + p_tx_e.sum() + p_tx_c.sum())
    return p_l, p_e, p_tx_e, p_tx_c, total
