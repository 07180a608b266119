"""Ground-truth baselines: full policy enumeration and the uniform-random
policy.

Enumeration is a test oracle and the `enumerate` command's output; the
exhaustive search itself is the exact dynamic program in
`critic.best_association`.

Every policy associates exactly chi_edge <= I devices with the edge server
and exactly chi_cloud <= I with the cloud server, which reproduces the
binomial-product search-space sizes.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .config import Policy


def count_policies(num_devices: int, chi_edge: int, chi_cloud: int) -> int:
    """Closed-form size of the feasible policy set, chi_* <= I."""
    return math.comb(num_devices, chi_edge) * math.comb(num_devices, chi_cloud)


def enumerate_policies(num_devices: int, chi_edge: int,
                       chi_cloud: int) -> Iterator[Policy]:
    """Stream every feasible policy in (edge, cloud) lexicographic order, chi_* <= I."""
    n = num_devices
    for e_subset in itertools.combinations(range(n), chi_edge):
        rho_e = np.zeros(n, dtype=bool)
        rho_e[list(e_subset)] = True
        for c_subset in itertools.combinations(range(n), chi_cloud):
            rho_c = np.zeros(n, dtype=bool)
            rho_c[list(c_subset)] = True
            yield Policy(rho_edge=rho_e.copy(), rho_cloud=rho_c)


def policy_table(num_devices: int, chi_edge: int,
                 chi_cloud: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialise the enumeration as two (P, I) boolean mask arrays."""
    edges, clouds = [], []
    for pol in enumerate_policies(num_devices, chi_edge, chi_cloud):
        edges.append(pol.rho_edge)
        clouds.append(pol.rho_cloud)
    return np.array(edges, dtype=bool), np.array(clouds, dtype=bool)


def random_policy(rng: np.random.Generator, num_devices: int, chi_edge: int,
                  chi_cloud: int) -> Policy:
    """Uniform draw over the feasible policy set, chi_* <= I."""
    n = num_devices

    def draw(chi: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=chi, replace=False)] = True
        return mask

    return Policy(rho_edge=draw(chi_edge), rho_cloud=draw(chi_cloud))
