import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semoff import channel, critic, engine, oracle, queueing
from semoff.config import SystemConfig

CFG = SystemConfig()

nonneg = st.floats(0, 50, allow_nan=False)


def test_local_queue_update_examples():
    assert queueing.update_local_queue(5, 3, 2) == 4
    assert queueing.update_local_queue(2, 7, 1) == 1  # clamp before adding
    assert queueing.update_local_queue(0, 0, 0) == 0


def test_edge_queue_update_examples():
    assert queueing.update_edge_queue(3, 1, 2) == 4
    assert queueing.update_edge_queue(1, 5, 0) == 0
    assert queueing.update_edge_queue(0, 0, 2.5) == 2.5  # fluid tasks


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        queueing.update_local_queue(-1, 0, 0)
    with pytest.raises(ValueError):
        queueing.update_edge_queue(1, -2, 0)


@settings(max_examples=100, deadline=None)
@given(q=nonneg, mu=nonneg, a1=nonneg, a2=nonneg)
def test_update_monotone_in_arrivals_and_nonnegative(q, mu, a1, a2):
    lo, hi = sorted((a1, a2))
    assert queueing.update_local_queue(q, mu, lo) <= queueing.update_local_queue(q, mu, hi)
    assert queueing.update_local_queue(q, mu, lo) >= 0


def test_virtual_queue_examples():
    assert queueing.update_virtual_queue(2, 7, 5) == 4
    assert queueing.update_virtual_queue(0, 3, 5) == 0
    assert np.all(queueing.update_virtual_queue(np.array([3.0, 9.0]),
                                                np.array([50.0, 0.0]), None) == 0)


def _state(q_l, q_e=0.0, z_l=0.0, z_e=0.0, n=1):
    ones = np.ones(n)
    return channel.slot_state(CFG, ones, ones,
                              q_local=np.full(n, float(q_l)), q_edge=np.full(n, float(q_e)),
                              z_local=np.full(n, float(z_l)), z_edge=np.full(n, float(z_e)))


def test_lyapunov_value_examples():
    assert queueing.lyapunov_value(_state(0)) == 0.0
    assert queueing.lyapunov_value(_state(2)) == 2.0
    assert queueing.lyapunov_value(_state(3, 4)) == 12.5


def test_drift_plus_penalty_examples():
    l_s = queueing.lyapunov_value(_state(2, 1))
    assert queueing.drift_plus_penalty(l_s, l_s, 0.0, 2.0) == 0.0
    assert queueing.drift_plus_penalty(l_s, l_s, 2.0, 2.0) == 4.0


def test_drift_plus_penalty_matches_independent_recompute():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = _state(rng.uniform(0, 9), rng.uniform(0, 4), rng.uniform(0, 3), rng.uniform(0, 2))
        b = _state(rng.uniform(0, 9), rng.uniform(0, 4), rng.uniform(0, 3), rng.uniform(0, 2))
        p = rng.uniform(0, 5)
        # recompute both Lyapunov values by hand
        def energy(s):
            return 0.5 * (s.q_local[0] ** 2 + s.q_edge[0] ** 2
                          + s.z_local[0] ** 2 + s.z_edge[0] ** 2)
        expected = energy(b) - energy(a) + CFG.system.lyapunov_v * p
        assert queueing.drift_plus_penalty(queueing.lyapunov_value(a),
                                           queueing.lyapunov_value(b), p,
                                           CFG.system.lyapunov_v) == \
            pytest.approx(expected, rel=1e-12)


def test_poisson_quantile_basics():
    assert queueing.poisson_quantile(0.9999, 0.0) == 0
    q = queueing.poisson_quantile(0.9999, 1.0)
    assert 4 <= q <= 8
    assert queueing.poisson_quantile(0.9999, 7.5) >= 15


def _poisson_quantile_linear(q, mean):
    """Direct summation from k = 0; exp(-mean) underflows past mean ~745."""
    if mean <= 0:
        return 0
    k, p = 0, math.exp(-mean)
    cdf = p
    while cdf < q:
        k += 1
        p *= mean / k
        cdf += p
    return k


def test_poisson_quantile_matches_direct_summation_up_to_700():
    means = np.concatenate([np.linspace(0.0, 20.0, 2001), np.linspace(20.0, 700.0, 3401)])
    for q in (0.9999, 0.5):
        for mean in means:
            mean = float(mean)
            assert queueing.poisson_quantile(q, mean) == _poisson_quantile_linear(q, mean), (q, mean)


@pytest.mark.parametrize("mean", [1e3, 745.5, 800.0, 1e4, 1e5, 1e6])
def test_poisson_quantile_large_means_fast_and_correct(mean):
    t0 = time.perf_counter()
    k = queueing.poisson_quantile(0.9999, mean)
    assert time.perf_counter() - t0 < 0.5
    # 0.9999 is 3.719 sd above the mean in the normal limit, and the Poisson
    # skew adds about (z^2 - 1) / 6 = 2.14 tasks at any mean
    expected = mean + 3.719 * math.sqrt(mean) + 2.14
    assert abs(k - expected) <= 2.0
    # the defining property, checked with an independent log-space cdf
    def cdf(x):
        ks = np.arange(x + 1)
        logp = ks * math.log(mean) - mean - np.array([math.lgamma(j + 1) for j in ks])
        return float(np.exp(logp).sum())
    assert cdf(k) >= 0.9999 > cdf(k - 1)


def test_poisson_quantile_rejects_bad_arguments():
    for q in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="quantile"):
            queueing.poisson_quantile(q, 3.0)
    with pytest.raises(ValueError, match="mean"):
        queueing.poisson_quantile(0.9, float("inf"))


def _one_slot_terms(state, arrivals, cfg, caps):
    """`queueing.bound_terms` of a block of one slot."""
    return queueing.bound_terms(state.cloud_cap[None], arrivals[None], cfg, caps)


def test_bound_trivial_cases():
    caps = queueing.rate_caps(CFG)
    # a zero cloud offload cap gives the smallest bound
    zero = dataclasses.replace(_state(0, n=8), cloud_cap=np.zeros(8))
    b = queueing.drift_penalty_bound(zero, np.zeros(8), np.zeros(8), np.zeros(8),
                                     np.zeros(8), 0.0, CFG, caps,
                                     _one_slot_terms(zero, np.zeros(8), CFG, caps), 0)
    assert b >= 0.0
    # one-device hand case: q=1, mu=1, arrivals=1 -> drift 0 <= bound
    one = dataclasses.replace(_state(1, n=8), cloud_cap=np.zeros(8))
    mu = np.zeros(8); mu[0] = 1.0
    arr = np.zeros(8); arr[0] = 1.0
    nxt = _state(1, n=8)
    dpp = queueing.drift_plus_penalty(queueing.lyapunov_value(one),
                                      queueing.lyapunov_value(nxt), 0.0, CFG.system.lyapunov_v)
    bound = queueing.drift_penalty_bound(one, mu, np.zeros(8), np.zeros(8),
                                         arr, 0.0, CFG, caps, _one_slot_terms(one, arr, CFG, caps), 0)
    assert dpp == 0.0
    assert bound >= dpp


def _random_transition(cfg, rng, geom, caps):
    n = cfg.system.num_devices
    draw = channel.draw_channels(geom, cfg, [rng])
    state = channel.slot_state(cfg, draw.h2_edge[0], draw.h2_cloud[0],
                               q_local=rng.uniform(0, 15, n), q_edge=rng.uniform(0, 5, n),
                               z_local=rng.uniform(0, 5, n), z_edge=rng.uniform(0, 3, n))
    pol = oracle.random_policy(rng, n, cfg.system.chi_edge, cfg.system.chi_cloud)
    sol, _ = critic.gather(*critic.device_g_table(state, cfg), pol)
    arrivals = rng.poisson(cfg.mean_arrivals_per_slot, n).astype(float)
    _, _, _, dpp, bound = engine.step(state, queueing.lyapunov_value(state), sol, arrivals,
                                      cfg, caps, _one_slot_terms(state, arrivals, cfg, caps), 0)
    return dpp, bound


def test_bound_holds_on_random_transitions():
    rng = np.random.default_rng(77)
    geom = channel.place_devices(CFG, rng)
    caps = queueing.rate_caps(CFG)
    for _ in range(2000):
        dpp, bound = _random_transition(CFG, rng, geom, caps)
        assert dpp <= bound + 1e-9


@pytest.mark.parametrize("update,names", [
    (queueing.update_local_queue, ("q", "mu", "arrivals")),
    (queueing.update_edge_queue, ("q", "mu_edge", "u_edge")),
])
def test_queue_update_names_the_negative_argument(update, names):
    fine = np.array([1.0, 2.0, 0.0])
    for k, name in enumerate(names):
        args = [fine, fine, fine]
        args[k] = np.array([1.0, -1e-12, 0.0])
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            update(*args)
        # a NaN in another argument does not hide the negative entry
        args[(k + 1) % 3] = np.full(3, np.nan)
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            update(*args)
        args[k] = -2.0     # scalars too
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            update(*args)


def _reference_drift_penalty_bound(state, mu_local, mu_edge, u_edge,
                                   arrivals, power_w, cfg, caps):
    """`queueing.drift_penalty_bound` as it was before its queue-free terms
    moved to `queueing.bound_terms`, verbatim: every term from the slot's
    own state."""
    q_l, z_l = state.q_local, state.z_local
    q_e, z_e = state.q_edge, state.z_edge
    v = cfg.system.lyapunov_v

    mu_l_cap = caps.u_local + caps.u_encode + state.cloud_cap
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


@pytest.mark.parametrize("n", [1, 8, 13])
@pytest.mark.parametrize("preset", [engine.scenario_one, engine.scenario_two])
def test_block_bound_terms_give_the_per_slot_bound_bit_for_bit(preset, n):
    # 1,100 slots cross the first 1,024-slot block boundary; every logged
    # bound equals the reference's on the slot's logged inputs, bit for bit
    cfg = dataclasses.replace(CFG, system=dataclasses.replace(
        CFG.system, num_devices=n, chi_edge=min(4, n), chi_cloud=min(2, n)))
    resolved = preset(policy="random", seed=3, total_slots=1100).apply(cfg)
    sim = engine.Simulation(resolved, "random", 3)
    log = sim.run()
    caps = queueing.rate_caps(resolved)
    for t in range(1100):
        block, k = sim.channels(t)
        state = dataclasses.replace(_state(0, n=n), cloud_cap=block.cloud_cap[k],
                                    q_local=log.q_local[t], q_edge=log.q_edge[t],
                                    z_local=log.z_local[t], z_edge=log.z_edge[t])
        ref = _reference_drift_penalty_bound(state, log.mu_local[t], log.mu_edge[t],
                                             log.u_edge[t], log.arrivals[t],
                                             log.p_total[t], resolved, caps)
        assert log.bound[t].tobytes() == np.float64(ref).tobytes(), t
