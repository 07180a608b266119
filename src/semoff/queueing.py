"""Queue dynamics, virtual queues, Lyapunov drift, and the drift bound.

All update operators are pure and work elementwise on scalars or arrays.
Ordering within a slot: observe -> decide -> execute -> update real queues
-> update virtual queues (the virtual update consumes the post-slot real
queue values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import SlotState, SystemConfig
from . import power


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


@dataclass(frozen=True)
class RateCaps:
    """A-priori per-slot rate ceilings used by the drift bound constants."""

    u_local: float    # local execution at the full device clock
    u_encode: float   # edge offloading at the full device clock
    mu_edge: float    # edge decoding at the full server clock
    arrivals: float   # high quantile of the per-slot Poisson arrivals


def poisson_quantile(q: float, mean: float) -> int:
    """Smallest k with P(X <= k) >= q for X ~ Poisson(mean), 0 < q < 1.

    Sums the pmf upward from k0 = mean - 12 sd (k0 = 0 for means up to
    144), where the mass left out is below 1e-30. The first term comes from
    the log pmf, so exp(-mean) cannot underflow, and the loop takes
    O(sqrt(mean)) steps.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q!r}")
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean!r}")
    if mean <= 0:
        return 0
    sd = math.sqrt(mean)
    k = max(int(mean - 12.0 * sd), 0)
    p = math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
    cdf = p
    # past mean + 40 sd the remaining mass is below float64 resolution of q
    k_max = mean + 40.0 * sd + 40.0
    while cdf < q and k < k_max:
        k += 1
        p *= mean / k
        cdf += p
    return k


def rate_caps(cfg: SystemConfig, quantile: float = 0.9999) -> RateCaps:
    return RateCaps(
        u_local=float(power.local_exec_rate(cfg.system.f_local_max, cfg)),
        u_encode=float(power.encode_rate(cfg.system.f_local_max, cfg)),
        mu_edge=float(power.edge_exec_rate(cfg.system.f_edge_max, cfg)),
        arrivals=float(poisson_quantile(quantile, cfg.mean_arrivals_per_slot)),
    )


def drift_penalty_bound(state: SlotState, mu_local, mu_edge, u_edge,
                        arrivals, power_w: float, cfg: SystemConfig,
                        caps: RateCaps, u_cloud_cap) -> float:
    """Upper bound on the realised drift-plus-penalty for one transition.

    Assembled from the four per-queue drift bounds: the squared-rate
    constants, the virtual-queue cross terms, the linear backlog terms, and
    the weighted power. Valid per sample as long as the executed rates
    respect the queue-backlog constraints (mu_local <= q_local,
    mu_edge <= q_edge), which the solvers guarantee.

    Poisson arrivals have no a-priori maximum, so the arrival cap is the
    configured high quantile, widened to the realised draw whenever a slot
    exceeds it; the cloud-offload cap depends on the slot's channel and is
    supplied by the caller.
    """
    q_l, z_l = state.q_local, state.z_local
    q_e, z_e = state.q_edge, state.z_edge
    v = cfg.system.lyapunov_v

    mu_l_cap = caps.u_local + caps.u_encode + u_cloud_cap
    lam_cap = np.maximum(caps.arrivals, arrivals)
    u_e_cap = caps.u_encode
    mu_e_cap = caps.mu_edge

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
