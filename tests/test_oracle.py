import itertools
import math

import numpy as np
import pytest

from semoff import channel, critic, oracle
from semoff.config import Policy, SystemConfig
from semoff.config import SystemParams

CFG = SystemConfig()


@pytest.mark.parametrize("devices,expected", [(4, 6), (6, 225), (8, 1960),
                                              (10, 9450), (12, 32670)])
def test_counts_match_reported_search_spaces(devices, expected):
    assert oracle.count_policies(devices, 4, 2) == expected
    assert sum(1 for _ in oracle.enumerate_policies(devices, 4, 2)) == expected


def test_count_closed_form_matches_enumeration():
    for n in range(1, 7):
        for chi_e in range(0, n + 1):
            for chi_c in range(0, n + 1):
                count = sum(1 for _ in oracle.enumerate_policies(n, chi_e, chi_c))
                assert count == oracle.count_policies(n, chi_e, chi_c)
                assert count == math.comb(n, min(chi_e, n)) * math.comb(n, chi_c)


def test_everyone_associated_is_single_policy():
    policies = list(oracle.enumerate_policies(2, 2, 2))
    assert len(policies) == 1
    assert np.all(policies[0].rho_edge) and np.all(policies[0].rho_cloud)


def test_chi_cloud_above_devices_raises():
    with pytest.raises(ValueError, match="chi_cloud"):
        list(oracle.enumerate_policies(4, 2, 5))
    with pytest.raises(ValueError, match="chi_cloud"):
        oracle.count_policies(4, 2, 5)


def test_chi_edge_above_devices_clamps():
    assert oracle.count_policies(4, 9, 2) == math.comb(4, 4) * math.comb(4, 2)


def test_enumeration_is_lexicographic_and_streaming():
    it = oracle.enumerate_policies(4, 2, 1)
    first = next(it)
    assert list(np.nonzero(first.rho_edge)[0]) == [0, 1]
    assert list(np.nonzero(first.rho_cloud)[0]) == [0]
    second = next(it)
    assert list(np.nonzero(second.rho_edge)[0]) == [0, 1]
    assert list(np.nonzero(second.rho_cloud)[0]) == [1]


def _state(rng, cfg=CFG):
    n = cfg.system.num_devices
    geom = channel.place_devices(cfg, rng)
    draw = channel.draw_channels(geom, cfg, [rng])
    return channel.slot_state(cfg, draw.h2_edge[0], draw.h2_cloud[0],
                              q_local=rng.uniform(0, 10, n), q_edge=rng.uniform(0, 3, n),
                              z_local=rng.uniform(0, 3, n), z_edge=rng.uniform(0, 2, n))


def _exhaustive_best(state, cfg=CFG):
    """The exhaustive search as the simulator runs it, scored independently."""
    table, _ = critic.device_g_table(state, cfg)
    pol = critic.best_association(table, cfg.system.chi_edge, cfg.system.chi_cloud)
    return pol, critic.evaluate_policy(pol, state, cfg)


def test_exhaustive_best_zero_state_returns_first_policy():
    n = 8
    state = channel.slot_state(CFG, np.full(n, 1e-10), np.full(n, 1e-12),
                               q_local=np.zeros(n), q_edge=np.zeros(n),
                               z_local=np.zeros(n), z_edge=np.zeros(n))
    pol, res = _exhaustive_best(state)
    first = next(oracle.enumerate_policies(8, 4, 2))
    assert np.array_equal(pol.rho_edge, first.rho_edge)
    assert np.array_equal(pol.rho_cloud, first.rho_cloud)
    assert res.g_value == 0.0


def test_exhaustive_best_dominates_random_policies():
    rng = np.random.default_rng(17)
    state = _state(rng)
    _, best = _exhaustive_best(state)
    for _ in range(100):
        pol = oracle.random_policy(rng, 8, 4, 2)
        assert best.g_value <= critic.evaluate_policy(pol, state, CFG).g_value + 1e-12


def test_exhaustive_best_matches_independent_reenumeration():
    # small instance, re-enumerated with itertools directly
    cfg = SystemConfig(system=SystemParams(num_devices=4))
    rng = np.random.default_rng(23)
    state = _state(rng, cfg)
    pol, res = _exhaustive_best(state, cfg)
    best_g, best_masks = None, None
    for e_subset in itertools.combinations(range(4), 4):
        for c_subset in itertools.combinations(range(4), 2):
            rho_e = np.zeros(4, dtype=bool)
            rho_e[list(e_subset)] = True
            rho_c = np.zeros(4, dtype=bool)
            rho_c[list(c_subset)] = True
            g = critic.evaluate_policy(Policy(rho_e, rho_c), state, cfg).g_value
            if best_g is None or g < best_g:
                best_g, best_masks = g, (rho_e, rho_c)
    assert res.g_value == best_g
    assert np.array_equal(pol.rho_edge, best_masks[0])
    assert np.array_equal(pol.rho_cloud, best_masks[1])


def test_random_policy_uniform_over_search_space():
    rng = np.random.default_rng(99)
    counts: dict[tuple[int, int], int] = {}
    draws = 100_000
    for _ in range(draws):
        pol = oracle.random_policy(rng, 8, 4, 2)
        counts[pol.key()] = counts.get(pol.key(), 0) + 1
    assert len(counts) == 1960
    mean = draws / 1960
    sigma = math.sqrt(draws * (1 / 1960) * (1 - 1 / 1960))
    lo, hi = mean - 5 * sigma, mean + 5 * sigma
    assert all(lo <= c <= hi for c in counts.values())


def test_random_policy_seeded_and_degenerate():
    a = oracle.random_policy(np.random.default_rng(5), 8, 4, 2)
    b = oracle.random_policy(np.random.default_rng(5), 8, 4, 2)
    assert np.array_equal(a.rho_edge, b.rho_edge)
    assert np.array_equal(a.rho_cloud, b.rho_cloud)
    only = oracle.random_policy(np.random.default_rng(0), 2, 2, 2)
    assert np.all(only.rho_edge) and np.all(only.rho_cloud)
