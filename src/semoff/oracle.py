"""Ground-truth baselines: full policy enumeration and the uniform-random
policy.

Enumeration is a test oracle and the `enumerate` command's output; the
exhaustive search itself is the exact dynamic program in
`critic.best_association`.

Association counts follow the exact-cardinality convention by default:
exactly min(chi_edge, I) edge slots and exactly chi_cloud cloud slots are
filled, which reproduces the binomial-product search-space sizes. The
at-most variant is available for sensitivity runs.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .config import Policy


def _subset_sizes(chi: int, n: int, at_most: bool) -> list[int]:
    eff = min(chi, n)
    return list(range(eff + 1)) if at_most else [eff]


def count_policies(num_devices: int, chi_edge: int, chi_cloud: int,
                   at_most: bool = False) -> int:
    """Closed-form size of the feasible policy set."""
    if chi_cloud > num_devices:
        raise ValueError(f"chi_cloud ({chi_cloud}) exceeds device count ({num_devices})")
    n = num_devices
    e = sum(math.comb(n, k) for k in _subset_sizes(chi_edge, n, at_most))
    c = sum(math.comb(n, k) for k in _subset_sizes(chi_cloud, n, at_most))
    return e * c


def enumerate_policies(num_devices: int, chi_edge: int, chi_cloud: int,
                       at_most: bool = False) -> Iterator[Policy]:
    """Stream every feasible policy in lexicographic (edge, cloud) order."""
    if chi_cloud > num_devices:
        raise ValueError(f"chi_cloud ({chi_cloud}) exceeds device count ({num_devices})")
    n = num_devices
    for e_size in _subset_sizes(chi_edge, n, at_most):
        for e_subset in itertools.combinations(range(n), e_size):
            rho_e = np.zeros(n, dtype=bool)
            rho_e[list(e_subset)] = True
            for c_size in _subset_sizes(chi_cloud, n, at_most):
                for c_subset in itertools.combinations(range(n), c_size):
                    rho_c = np.zeros(n, dtype=bool)
                    rho_c[list(c_subset)] = True
                    yield Policy(rho_edge=rho_e.copy(), rho_cloud=rho_c)


def policy_table(num_devices: int, chi_edge: int, chi_cloud: int,
                 at_most: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Materialise the enumeration as two (P, I) boolean mask arrays."""
    edges, clouds = [], []
    for pol in enumerate_policies(num_devices, chi_edge, chi_cloud, at_most):
        edges.append(pol.rho_edge)
        clouds.append(pol.rho_cloud)
    return np.array(edges, dtype=bool), np.array(clouds, dtype=bool)


def random_policy(rng: np.random.Generator, num_devices: int, chi_edge: int,
                  chi_cloud: int, at_most: bool = False) -> Policy:
    """Uniform draw over the feasible policy set."""
    if chi_cloud > num_devices:
        raise ValueError(f"chi_cloud ({chi_cloud}) exceeds device count ({num_devices})")
    n = num_devices

    def draw(chi: int) -> np.ndarray:
        sizes = _subset_sizes(chi, n, at_most)
        if at_most:
            # weight sizes by subset count so the joint draw is uniform
            weights = np.array([math.comb(n, k) for k in sizes], dtype=float)
            size = int(rng.choice(sizes, p=weights / weights.sum()))
        else:
            size = sizes[0]
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=size, replace=False)] = True
        return mask

    return Policy(rho_edge=draw(chi_edge), rho_cloud=draw(chi_cloud))
