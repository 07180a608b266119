import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_policy
from semoff import channel, critic, engine, power
from semoff.config import Policy, SlotState, SystemConfig
from semoff.config import SemanticParams

CFG = SystemConfig()
B_EDGE = CFG.bandwidth_edge    # 250 kHz
B_CLOUD = CFG.bandwidth_cloud  # 25 kHz


# --- execution rates ---------------------------------------------------------

def test_local_rate_at_full_clock():
    # 0.01 * 2048 * 1.2e9 / 4.8e9
    assert power.local_exec_rate(1.2e9, CFG) == pytest.approx(5.12, rel=1e-12)
    assert power.local_exec_rate(0.0, CFG) == 0.0
    assert power.local_exec_rate(2e8, CFG) == pytest.approx(
        2 * power.local_exec_rate(1e8, CFG), rel=1e-12)


def test_encode_rate_and_inverse():
    assert power.encode_rate(1.2e9, CFG) == pytest.approx(20.48, rel=1e-12)
    assert power.encode_rate(0.0, CFG) == 0.0
    f = 3.7e8
    assert power.encode_frequency(power.encode_rate(f, CFG), CFG) == pytest.approx(f, rel=1e-12)


def test_edge_rate_scales_with_processor_count():
    assert power.edge_exec_rate(1.41e9, CFG) == pytest.approx(27.072, rel=1e-12)
    assert power.edge_exec_rate(0.0, CFG) == 0.0
    cfg2 = replace(CFG, system=replace(CFG.system, flops_per_cycle_edge=2 * 6912.0))
    assert power.edge_exec_rate(1e9, cfg2) == pytest.approx(
        2 * power.edge_exec_rate(1e9, CFG), rel=1e-12)


# --- computation power -------------------------------------------------------

def test_local_power_value():
    # alpha_local * f^3 evaluated by hand: 5.787e-26 * (1.2e9)^3 = 99.99936 W
    assert power.local_power(1.2e9, 0.0, CFG) == pytest.approx(99.99936, rel=1e-12)
    assert power.local_power(0.0, 0.0, CFG) == 0.0
    f = 4.4e8
    assert power.local_power(f, f, CFG) == pytest.approx(
        2 * power.local_power(f, 0.0, CFG), rel=1e-12)


def test_edge_power_value_and_cubic_scaling():
    # 4.45e-26 * (1.41e9)^3 = 124.7433345 W
    assert power.edge_power(1.41e9, CFG) == pytest.approx(124.7433345, rel=1e-9)
    assert power.edge_power(0.0, CFG) == 0.0
    assert power.edge_power(2e8, CFG) == pytest.approx(8 * power.edge_power(1e8, CFG), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(f1=st.floats(0, 1.2e9), f2=st.floats(0, 1.2e9))
def test_local_power_strictly_convex_midpoint(f1, f2):
    if f1 == f2:
        return
    mid = power.local_power((f1 + f2) / 2, 0.0, CFG)
    avg = (power.local_power(f1, 0.0, CFG) + power.local_power(f2, 0.0, CFG)) / 2
    assert mid < avg + 1e-12 * max(1.0, avg)


# --- accuracy model ----------------------------------------------------------

def test_required_accuracy_example():
    # 5 tasks * 10 words * 24 symbols / (0.01 s * 250 kHz) = 0.48
    assert power.required_accuracy(5.0, CFG) == pytest.approx(0.48, rel=1e-12)
    assert power.required_accuracy(0.0, CFG) == 0.0


def test_required_accuracy_ceiling_boundary():
    u = CFG.system.slot_length * B_EDGE * 0.985 / (10 * 24)
    assert power.required_accuracy(u, CFG) == pytest.approx(0.985, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(eps=st.floats(0.5, 0.985, exclude_max=True))
def test_accuracy_curve_inversion_identity(eps):
    curve = CFG.coefficients.curve
    assert curve.accuracy(curve.snr_db_for(eps)) == pytest.approx(eps, abs=1e-9)


def _float_curve_volume_cap(h2_edge, bandwidth, cfg):
    """`power.semantic_volume_cap` on the accuracy curve with the config's
    float parameters, as it was before it read `cfg.coefficients.curve`."""
    sem = cfg.semantic
    curve = power.LogisticAccuracyCurve(ceiling=sem.accuracy_ceiling,
                                        slope_per_db=sem.accuracy_slope_per_db,
                                        midpoint_db=sem.accuracy_midpoint_db)
    with np.errstate(divide="ignore", over="ignore"):
        snr_cap = (cfg.channel.p_tx_max * np.asarray(h2_edge, dtype=float)
                   / (bandwidth * cfg.channel.noise_psd))
        snr_cap_db = 10.0 * np.log10(np.minimum(snr_cap, np.finfo(float).max))
    eps_cap = np.minimum(curve.accuracy(snr_cap_db),
                         curve.ceiling * (1.0 - power._CEILING_BACKOFF))
    cap = (cfg.system.slot_length * bandwidth / (sem.sentence_len * sem.symbols_per_word)) * eps_cap
    return cap if np.ndim(cap) else float(cap), curve


def test_accuracy_curve_operands_keep_every_bit():
    # the curve on `operand` parameters gives the float-parameter curve's
    # accuracies and backed-off ceiling bit for bit, at gains from a
    # subnormal 1e-320 to the largest float
    gains = np.append(10.0 ** np.linspace(-320.0, 308.0, 199_999), np.finfo(float).max)
    ref, floats = _float_curve_volume_cap(gains, B_EDGE, CFG)
    curve = CFG.coefficients.curve
    snr_db = 10.0 * np.log10(gains)
    assert curve.accuracy(snr_db).tobytes() == floats.accuracy(snr_db).tobytes()
    backoff = 1.0 - power._CEILING_BACKOFF
    assert float(curve.ceiling * backoff) == floats.ceiling * backoff
    assert power.semantic_volume_cap(gains, CFG).tobytes() == ref.tobytes()
    for h2 in (1e-320, 10 ** (-90.5 / 10), 10 ** (-110.0 / 10), 1.0):
        assert power.semantic_volume_cap(h2, CFG) == _float_curve_volume_cap(
            h2, B_EDGE, CFG)[0]


# --- semantic transmit power -------------------------------------------------

def test_semantic_tx_power_hand_derivation():
    # gamma = 4 - ln(0.985/0.9 - 1)/0.5 dB; p = 10^(gamma/10) * noise * b / h2
    h2 = 10 ** (-90.5 / 10)
    gamma_db = 4.0 - math.log(0.985 / 0.9 - 1.0) / 0.5
    expected = 10 ** (gamma_db / 10) * CFG.channel.noise_psd * B_EDGE / h2
    assert gamma_db == pytest.approx(8.7195, abs=1e-3)
    got = power.semantic_tx_power(0.9, h2, CFG)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(8.32e-6, rel=0.01)
    # feeding the power back through the forward curve recovers the accuracy
    snr_db = 10 * math.log10(got * h2 / (CFG.channel.noise_psd * B_EDGE))
    assert CFG.coefficients.curve.accuracy(snr_db) == pytest.approx(0.9, abs=1e-9)


def test_semantic_tx_power_floor_behavior():
    h2 = 10 ** (-90.5 / 10)
    at_floor = power.semantic_tx_power(0.9, h2, CFG)
    below_floor = power.semantic_tx_power(0.85, h2, CFG)
    assert below_floor == at_floor


def test_semantic_tx_power_halves_when_gain_doubles():
    h2 = 10 ** (-90.5 / 10)
    assert power.semantic_tx_power(0.95, 2 * h2, CFG) == pytest.approx(
        power.semantic_tx_power(0.95, h2, CFG) / 2, rel=1e-12)


def test_semantic_tx_power_infeasible_beyond_ceiling():
    assert power.semantic_tx_power(0.985, 1e-9, CFG) == np.inf


# --- cloud transmit power ----------------------------------------------------

def test_shannon_tx_power_zero_volume_zero_power():
    h2 = 10 ** (-116.8 / 10)
    assert power.shannon_tx_power(0.0, h2, CFG) == 0.0


def test_shannon_tx_power_unit_exponent():
    # exponent 1 => (2^1 - 1) = 1 => p = noise * b / h2
    h2 = 10 ** (-116.8 / 10)
    u = CFG.system.slot_length * B_CLOUD / (10 * 40)
    assert power.shannon_tx_power(u, h2, CFG) == pytest.approx(
        CFG.channel.noise_psd * B_CLOUD / h2, rel=1e-12)


def test_shannon_tx_power_hand_derivation():
    # u=4 -> exponent 4*400/250 = 6.4; p = (2^6.4 - 1) * noise*b / h2
    h2 = 10 ** (-116.8 / 10)
    expected = (2 ** 6.4 - 1) * CFG.channel.noise_psd * B_CLOUD / h2
    got = power.shannon_tx_power(4.0, h2, CFG)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(4.0e-3, rel=0.01)
    # cross-check: capacity at that power moves exactly 4 tasks in a slot
    snr = got * h2 / (CFG.channel.noise_psd * B_CLOUD)
    tasks = CFG.system.slot_length * B_CLOUD * math.log2(1 + snr) / 400.0
    assert tasks == pytest.approx(4.0, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(u=st.floats(0.01, 6.0), du=st.floats(0.01, 1.0))
def test_tx_powers_strictly_increasing_in_volume(u, du):
    h2e, h2c = 1e-9, 2e-12
    assert power.shannon_tx_power(u + du, h2c, CFG) > \
        power.shannon_tx_power(u, h2c, CFG)
    e1 = power.required_accuracy(u, CFG)
    e2 = power.required_accuracy(u + du, CFG)
    if 0.9 < e1 and e2 < 0.985:  # inside the invertible, un-floored band
        assert power.semantic_tx_power(e2, h2e, CFG) > \
            power.semantic_tx_power(e1, h2e, CFG)


# --- offload caps -------------------------------------------------------------

def test_cloud_offload_cap_hand_value():
    h2 = 10 ** (-116.8 / 10)
    snr = 0.1 * h2 / (B_CLOUD * CFG.channel.noise_psd)
    expected = 0.625 * math.log2(1 + snr)
    assert power.cloud_offload_cap(h2, CFG) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(6.9, abs=0.05)


def test_cloud_offload_cap_vanishing_gain():
    assert power.cloud_offload_cap(0.0, CFG) == 0.0


def test_cloud_offload_cap_monotone_in_bandwidth():
    h2 = 10 ** (-116.8 / 10)
    # 5 to 200 kHz per device at chi_cloud = 2
    configs = [replace(CFG, channel=replace(CFG.channel, bw_cloud_total=b))
               for b in np.linspace(1e4, 4e5, 25)]
    caps = [power.cloud_offload_cap(h2, cfg) for cfg in configs]
    assert np.all(np.diff(caps) > 0)


def test_semantic_volume_cap_strong_channel():
    # strong link: the invertible band just under the curve ceiling binds
    h2 = 10 ** (-90.5 / 10)
    cap = power.semantic_volume_cap(h2, CFG)
    sem = CFG.semantic
    ceiling = (CFG.system.slot_length * B_EDGE * sem.accuracy_ceiling
               / (sem.sentence_len * sem.symbols_per_word))
    assert cap < ceiling
    assert cap == pytest.approx(ceiling, rel=1e-6)
    eps = power.required_accuracy(cap, CFG)
    p = power.semantic_tx_power(eps, h2, CFG)
    assert np.isfinite(p)
    assert p <= CFG.channel.p_tx_max * (1 + 1e-5)


def test_semantic_volume_cap_weak_channel_power_binds():
    # weak link: the transmit-power ceiling binds before the curve saturates
    h2 = 10 ** (-110.0 / 10)
    cap = power.semantic_volume_cap(h2, CFG)
    eps = power.required_accuracy(cap, CFG)
    p = power.semantic_tx_power(eps, h2, CFG)
    assert p == pytest.approx(CFG.channel.p_tx_max, rel=1e-6)
    # one task more than the cap would need more power than the radio has
    eps_over = power.required_accuracy(cap * 1.01, CFG)
    assert power.semantic_tx_power(eps_over, h2, CFG) > CFG.channel.p_tx_max


# --- slot power assembly -----------------------------------------------------

def _random_feasible(rng, n=4):
    state = channel.slot_state(
        CFG, np.full(n, (10 ** (-90.5 / 20)) ** 2), np.full(n, (10 ** (-116.8 / 20)) ** 2),
        q_local=rng.uniform(0, 10, n), q_edge=rng.uniform(0, 4, n),
        z_local=np.zeros(n), z_edge=np.zeros(n))
    rho_e = rng.random(n) < 0.5
    rho_c = rng.random(n) < 0.5
    u_e = np.where(rho_e, rng.uniform(0, 2, n), 0.0)
    u_c = np.where(rho_c, rng.uniform(0, 2, n), 0.0)
    alloc = per_policy.Allocation(u_edge=u_e, u_cloud=u_c,
                                  f_local=rng.uniform(0, 2e8, n),
                                  f_encode=np.asarray(power.encode_frequency(u_e, CFG)),
                                  f_edge=rng.uniform(0, 2e8, n))
    return state, Policy(rho_edge=rho_e, rho_cloud=rho_c), alloc


def test_total_power_zero_allocation():
    n = 4
    state, policy, _ = _random_feasible(np.random.default_rng(0), n)
    zeros = np.zeros(n)
    alloc = per_policy.Allocation(u_edge=zeros, u_cloud=zeros, f_local=zeros,
                                  f_encode=zeros, f_edge=zeros)
    assert per_policy.total_power(alloc, policy, state, CFG)[4] == 0.0


def test_total_power_recomposition_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        state, policy, alloc = _random_feasible(rng)
        p_l, p_e, p_tx_e, p_tx_c, total = per_policy.total_power(alloc, policy, state, CFG)
        # independent recomputation, term by term, straight from the formulas
        expected = 0.0
        for i in range(4):
            expected += CFG.system.alpha_local * (alloc.f_local[i] ** 3 + alloc.f_encode[i] ** 3)
            expected += CFG.system.alpha_edge_weighted * alloc.f_edge[i] ** 3
            if policy.rho_edge[i] and alloc.u_edge[i] > 0:
                eps = max(alloc.u_edge[i] * 240 / (0.01 * B_EDGE), 0.9)
                gamma = 10 ** ((4 - math.log(0.985 / eps - 1) / 0.5) / 10)
                expected += gamma * CFG.channel.noise_psd * B_EDGE / state.h2_edge[i]
            if policy.rho_cloud[i] and alloc.u_cloud[i] > 0:
                exp = alloc.u_cloud[i] * 400 / (0.01 * B_CLOUD)
                expected += (2 ** exp - 1) * CFG.channel.noise_psd * B_CLOUD / state.h2_cloud[i]
        assert total == pytest.approx(expected, rel=1e-9)
        assert total == pytest.approx(
            float(np.sum(p_l) + np.sum(p_e) + np.sum(p_tx_e) + np.sum(p_tx_c)), rel=1e-12)


def test_single_active_device_additivity():
    n = 4
    rng = np.random.default_rng(9)
    state, _, _ = _random_feasible(rng, n)
    zeros = np.zeros(n)
    policy = Policy(rho_edge=np.array([True, False, False, False]),
                    rho_cloud=np.array([False, False, False, False]))
    u_e = np.array([1.5, 0, 0, 0.0])
    alloc = per_policy.Allocation(u_edge=u_e, u_cloud=zeros,
                                  f_local=np.array([1e8, 0, 0, 0.0]),
                                  f_encode=np.asarray(power.encode_frequency(u_e, CFG)),
                                  f_edge=np.array([2e8, 0, 0, 0.0]))
    p_l, p_e, p_tx_e, p_tx_c, total = per_policy.total_power(alloc, policy, state, CFG)
    assert total == pytest.approx(p_l[0] + p_e[0] + p_tx_e[0] + p_tx_c[0], rel=1e-12)


@pytest.mark.parametrize("policy", ["exhaustive", "random", "drlh:8"])
def test_total_power_of_the_solution_is_the_logged_power(policy):
    # every slot's logged power columns are `power.total_power` of the chosen
    # policy's solution, and its total is the per-policy solve's
    sc = engine.scenario_two(policy=policy, seed=3, total_slots=60)
    cfg = sc.apply(CFG)
    sim = engine.Simulation(cfg, sc.policy, sc.seed)
    log = engine.MetricsLog(60, cfg.system.num_devices)
    bits = 1 << np.arange(cfg.system.num_devices)
    for t in range(60):
        sim.run_slot(t, log)
        block, k = sim.channels(t)
        state = SlotState(h2_edge=block.h2_edge[k], h2_cloud=block.h2_cloud[k],
                          edge_cap=block.edge_cap[k], cloud_cap=block.cloud_cap[k],
                          queues=np.array((log.q_local[t], log.q_edge[t],
                                           log.z_local[t], log.z_edge[t])))
        pol = Policy(rho_edge=(log.policy_edge[t] & bits) > 0,
                     rho_cloud=(log.policy_cloud[t] & bits) > 0)
        sol, g = critic.evaluate_policy(pol, state, cfg)
        assert g == log.g_value[t]
        assert power.total_power(sol) == (log.p_local[t], log.p_edge[t], log.p_tx_edge[t],
                                          log.p_tx_cloud[t], log.p_total[t])
        assert per_policy.total_power(sol, pol, state, cfg)[4] == log.p_total[t]
    assert log.p_tx_edge.max() > 0 and log.p_tx_cloud.max() > 0
