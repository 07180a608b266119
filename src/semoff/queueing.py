"""Queue dynamics, virtual queues, Lyapunov drift, and the drift bound.

The update operators are pure and work elementwise. A run holds its four
queues as the rows of one (4, I) array (`SlotState.queues`): q_local,
q_edge, z_local, z_edge. The local and edge queues follow the same law, so
`engine.step` updates both real queues in one call on the stacked (2, I)
rows, then both virtual queues in one call against a (2, 1) cap column; the
Lyapunov value and the drift bound read the same row pairs. Ordering within
a slot: observe -> decide -> execute -> update real queues -> update virtual
queues (the virtual update consumes the post-slot real queue values).
"""

from __future__ import annotations

import math

import numpy as np

from .config import SystemConfig
from .power import ZERO

# the update arguments' names, per row of the stacked real queues
_LOCAL_NAMES = ("q", "mu", "arrivals")
_EDGE_NAMES = ("q", "mu_edge", "u_edge")


def _require_nonneg(names, q, served, inflow) -> None:
    """Raise ValueError naming the first argument with a negative entry (on
    (2, I) rows stacked local then edge, by the local names, then the edge
    ones). One fused test; fmin skips NaN, so a NaN cannot hide a negative."""
    if (np.fmin(np.fmin(q, served), inflow) < 0).any():
        rows = (names, _EDGE_NAMES) if np.ndim(q) == 2 else (names,)
        values = [np.atleast_2d(v) for v in np.broadcast_arrays(q, served, inflow)]
        for r, row_names in enumerate(rows):
            for name, v in zip(row_names, values):
                if (v[r] < 0).any():
                    raise ValueError(f"{name} must be >= 0")


def update_local_queue(q, mu, arrivals):
    """Next local queue: unserved backlog plus fresh arrivals. The edge queue
    follows the same law, so `engine.step` updates both at once on (2, I)
    rows stacked local then edge."""
    _require_nonneg(_LOCAL_NAMES, q, mu, arrivals)
    return np.maximum(q - mu, ZERO) + arrivals


def update_edge_queue(q, mu_edge, u_edge):
    """Next edge queue: undecoded backlog plus newly offloaded volume."""
    _require_nonneg(_EDGE_NAMES, q, mu_edge, u_edge)
    return np.maximum(q - mu_edge, ZERO) + u_edge


def update_virtual_queue(z, q_next, q_max, bounded=True):
    """Virtual queue absorbing the excess of the real queue over its cap.

    An unbounded cap (False in `bounded`) keeps the virtual queue pinned at
    zero. On stacked rows, `q_max` and `bounded` are columns, one entry per
    row (`Coefficients.q_max`, `Coefficients.q_max_set`).
    """
    return np.where(bounded, np.maximum(z + q_next - q_max, ZERO), ZERO)


def lyapunov_value(queues: np.ndarray) -> float:
    """Quadratic energy of the total backlog: half the sum of squares of a
    (4, I) queue array, summed row by row and the row sums in row order."""
    q_l, q_e, z_l, z_e = (queues ** 2).sum(axis=1).tolist()
    return 0.5 * (q_l + q_e + z_l + z_e)


def drift_plus_penalty(l_t: float, l_t1: float, power_w: float, v: float) -> float:
    """Realised one-slot drift plus weighted power, from the two `lyapunov_value`s."""
    return l_t1 - l_t + v * power_w


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


def bound_terms(cloud_cap, arrivals, cfg: SystemConfig) -> tuple:
    """`drift_penalty_bound`'s queue-free terms for (slots, I) cloud caps and
    arrivals: b1, and with a queue cap set three (slots, 2, I) arrays over
    the local and edge rows (else None): the squared rate caps, the rate
    caps times the queue caps (0.0 where unset) and the backlog factors
    (arrivals, u_e_cap). The rate ceilings are those of `cfg.coefficients`.
    Row k has the bits of slot k alone: elementwise operations, and a
    C-contiguous row sum is the 1-D sum."""
    c = cfg.coefficients
    mu_l_cap = c.u_local + c.u_encode + cloud_cap
    b1 = 0.5 * (mu_l_cap ** 2 + np.maximum(c.arrivals, arrivals) ** 2).sum(axis=1)
    q_max_l, q_max_e = cfg.system.q_max_local, cfg.system.q_max_edge
    if q_max_l is None and q_max_e is None:
        return b1, None, None, None
    shape = (len(arrivals), 2, arrivals.shape[1])
    rate_sq, rate_cap, factor = np.empty(shape), np.empty(shape), np.empty(shape)
    rate_sq[:, 0], rate_sq[:, 1] = mu_l_cap ** 2, c.mu_edge ** 2
    rate_cap[:, 0] = 0.0 if q_max_l is None else mu_l_cap * q_max_l
    rate_cap[:, 1] = 0.0 if q_max_e is None else c.mu_edge * q_max_e
    factor[:, 0], factor[:, 1] = arrivals, c.u_encode
    return b1, rate_sq, rate_cap, factor


def drift_penalty_bound(queues: np.ndarray, served: np.ndarray, inflow: np.ndarray,
                        power_w: float, cfg: SystemConfig, terms: tuple, k: int) -> float:
    """Upper bound on the realised drift-plus-penalty for one transition.

    Assembled from the four per-queue drift bounds: the squared-rate
    constants, the virtual-queue cross terms, the linear backlog terms, and
    the weighted power. Valid per sample as long as the executed rates
    respect the queue-backlog constraints (mu_local <= q_local,
    mu_edge <= q_edge), which the solvers guarantee.

    Takes the slot's (4, I) queues and the (2, I) served volumes and
    inflows; each term runs once on the local and edge rows together.

    Poisson arrivals have no a-priori maximum, so the arrival cap is the
    configured high quantile, widened to the realised draw whenever a slot
    exceeds it; the cloud-offload cap depends on the slot's channel. Both
    enter only the queue-free terms, computed per block of slots: the slot
    is row k of `terms`, its block's `bound_terms`. The constants (b3, the
    queue caps) are those of `cfg.coefficients`.
    """
    real, virtual = queues[:2], queues[2:]
    b1, rate_sq, rate_cap, factor = terms
    c = cfg.coefficients
    # per real queue: the linear backlog term, then with a queue cap its
    # squared-rate term and its cross term; all row sums in one call
    parts = [(real + virtual) * (served - inflow)]
    if rate_sq is not None:
        parts += [0.5 * (rate_sq[k] + inflow ** 2 + real ** 2 + c.q_max_sq) + rate_cap[k]
                  + factor[k] * real,
                  virtual * (real - c.q_max)]
    sums = np.concatenate(parts).sum(axis=1).tolist()

    b2 = 0.0
    b4 = 0.0
    cross = 0.0
    if cfg.system.q_max_local is not None:
        b2 = sums[2]
        cross += sums[4]
    if cfg.system.q_max_edge is not None:
        b4 = sums[3]
        cross += sums[5]

    b_hat = float(b1[k] + b2 + c.b3 + b4 + cross)
    return b_hat - (sums[0] + sums[1]) + cfg.system.lyapunov_v * power_w
