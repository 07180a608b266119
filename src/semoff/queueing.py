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
    if np.logical_or.reduce(np.fmin(np.fmin(q, served), inflow) < 0, axis=None):
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
    q_l, q_e, z_l, z_e = np.add.reduce(queues ** 2, axis=1).tolist()
    return 0.5 * (q_l + q_e + z_l + z_e)


def drift_plus_penalty(l_t: float, l_t1: float, power_w: float, v: float) -> float:
    """Realised one-slot drift plus weighted power, from the two `lyapunov_value`s."""
    return l_t1 - l_t + v * power_w


def drift_penalty_bound(queues: np.ndarray, served: np.ndarray, inflow: np.ndarray,
                        power_w: float, cfg: SystemConfig) -> float:
    """Upper bound on the realised drift-plus-penalty for one transition.

    Assembled from the four per-queue drift bounds: the squared-rate
    terms, the virtual-queue cross terms, the linear backlog terms, and
    the weighted power. Each rate is the slot's own (Neely 2010): a real
    queue q' = max(q - mu, 0) + a has q'^2 <= q^2 + mu^2 + a^2 - 2 q (mu - a)
    for any mu, a >= 0. The virtual-queue terms hold as long as the executed
    rates respect the queue-backlog constraints (mu_local <= q_local,
    mu_edge <= q_edge), which the solvers guarantee.

    Takes the slot's (4, I) queues and the (2, I) served volumes and
    inflows; each term runs once on the local and edge rows together. With
    a queue cap set, the capped terms run on both rows, a row without a cap
    against the zero cap of `cfg.coefficients`, and are summed for the
    capped rows only: one more row costs less than cutting it out.
    """
    s, c = cfg.system, cfg.coefficients
    capped_local, capped_edge = s.q_max_local is not None, s.q_max_edge is not None
    real, virtual = queues[:2], queues[2:]
    rate_sq = served ** 2 + inflow ** 2
    # per real queue: the squared rates and the linear backlog term, then with
    # a queue cap its squared-rate term and its cross term; all row sums in
    # one call
    parts = [rate_sq, (real + virtual) * (served - inflow)]
    if capped_local or capped_edge:
        parts += [0.5 * (rate_sq + real ** 2 + c.q_max_sq) + served * c.q_max + inflow * real,
                  virtual * (real - c.q_max)]
    sums = np.add.reduce(np.concatenate(parts), axis=1).tolist()

    b2 = 0.0
    b4 = 0.0
    cross = 0.0
    if capped_local:
        b2 = sums[4]
        cross += sums[6]
    if capped_edge:
        b4 = sums[5]
        cross += sums[7]

    b_hat = 0.5 * sums[0] + b2 + 0.5 * sums[1] + b4 + cross
    return b_hat - (sums[2] + sums[3]) + s.lyapunov_v * power_w
