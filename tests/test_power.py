import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semoff import channel, power
from semoff.config import Allocation, Policy, SystemConfig
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
    assert power.required_accuracy(5.0, B_EDGE, CFG) == pytest.approx(0.48, rel=1e-12)
    assert power.required_accuracy(0.0, B_EDGE, CFG) == 0.0


def test_required_accuracy_ceiling_boundary():
    u = CFG.system.slot_length * B_EDGE * 0.985 / (10 * 24)
    assert power.required_accuracy(u, B_EDGE, CFG) == pytest.approx(0.985, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(eps=st.floats(0.5, 0.985, exclude_max=True))
def test_accuracy_curve_inversion_identity(eps):
    curve = power.accuracy_curve(CFG)
    assert curve.accuracy(curve.snr_db_for(eps)) == pytest.approx(eps, abs=1e-9)


# --- semantic transmit power -------------------------------------------------

def test_semantic_tx_power_hand_derivation():
    # gamma = 4 - ln(0.985/0.9 - 1)/0.5 dB; p = 10^(gamma/10) * noise * b / h2
    h2 = 10 ** (-90.5 / 10)
    gamma_db = 4.0 - math.log(0.985 / 0.9 - 1.0) / 0.5
    expected = 10 ** (gamma_db / 10) * CFG.channel.noise_psd * B_EDGE / h2
    assert gamma_db == pytest.approx(8.7195, abs=1e-3)
    got = power.semantic_tx_power(0.9, h2, B_EDGE, CFG)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(8.32e-6, rel=0.01)
    # feeding the power back through the forward curve recovers the accuracy
    snr_db = 10 * math.log10(got * h2 / (CFG.channel.noise_psd * B_EDGE))
    assert power.accuracy_curve(CFG).accuracy(snr_db) == pytest.approx(0.9, abs=1e-9)


def test_semantic_tx_power_floor_behavior():
    h2 = 10 ** (-90.5 / 10)
    at_floor = power.semantic_tx_power(0.9, h2, B_EDGE, CFG)
    below_floor = power.semantic_tx_power(0.85, h2, B_EDGE, CFG)
    assert below_floor == at_floor


def test_semantic_tx_power_halves_when_gain_doubles():
    h2 = 10 ** (-90.5 / 10)
    assert power.semantic_tx_power(0.95, 2 * h2, B_EDGE, CFG) == pytest.approx(
        power.semantic_tx_power(0.95, h2, B_EDGE, CFG) / 2, rel=1e-12)


def test_semantic_tx_power_infeasible_beyond_ceiling():
    assert power.semantic_tx_power(0.985, 1e-9, B_EDGE, CFG) == np.inf


# --- cloud transmit power ----------------------------------------------------

def test_shannon_tx_power_zero_volume_zero_power():
    h2 = 10 ** (-116.8 / 10)
    assert power.shannon_tx_power(0.0, h2, B_CLOUD, CFG) == 0.0


def test_shannon_tx_power_unit_exponent():
    # exponent 1 => (2^1 - 1) = 1 => p = noise * b / h2
    h2 = 10 ** (-116.8 / 10)
    u = CFG.system.slot_length * B_CLOUD / (10 * 40)
    assert power.shannon_tx_power(u, h2, B_CLOUD, CFG) == pytest.approx(
        CFG.channel.noise_psd * B_CLOUD / h2, rel=1e-12)


def test_shannon_tx_power_hand_derivation():
    # u=4 -> exponent 4*400/250 = 6.4; p = (2^6.4 - 1) * noise*b / h2
    h2 = 10 ** (-116.8 / 10)
    expected = (2 ** 6.4 - 1) * CFG.channel.noise_psd * B_CLOUD / h2
    got = power.shannon_tx_power(4.0, h2, B_CLOUD, CFG)
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
    assert power.shannon_tx_power(u + du, h2c, B_CLOUD, CFG) > \
        power.shannon_tx_power(u, h2c, B_CLOUD, CFG)
    e1 = power.required_accuracy(u, B_EDGE, CFG)
    e2 = power.required_accuracy(u + du, B_EDGE, CFG)
    if 0.9 < e1 and e2 < 0.985:  # inside the invertible, un-floored band
        assert power.semantic_tx_power(e2, h2e, B_EDGE, CFG) > \
            power.semantic_tx_power(e1, h2e, B_EDGE, CFG)


# --- offload caps -------------------------------------------------------------

def test_cloud_offload_cap_hand_value():
    h2 = 10 ** (-116.8 / 10)
    snr = 0.1 * h2 / (B_CLOUD * CFG.channel.noise_psd)
    expected = 0.625 * math.log2(1 + snr)
    assert power.cloud_offload_cap(h2, B_CLOUD, CFG) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(6.9, abs=0.05)


def test_cloud_offload_cap_vanishing_gain():
    assert power.cloud_offload_cap(0.0, B_CLOUD, CFG) == 0.0


def test_cloud_offload_cap_monotone_in_bandwidth():
    h2 = 10 ** (-116.8 / 10)
    caps = [power.cloud_offload_cap(h2, b, CFG) for b in np.linspace(5e3, 2e5, 25)]
    assert np.all(np.diff(caps) > 0)


def test_semantic_volume_cap_strong_channel():
    # strong link: the invertible band just under the curve ceiling binds
    h2 = 10 ** (-90.5 / 10)
    cap = power.semantic_volume_cap(h2, B_EDGE, CFG)
    sem = CFG.semantic
    ceiling = (CFG.system.slot_length * B_EDGE * sem.accuracy_ceiling
               / (sem.sentence_len * sem.symbols_per_word))
    assert cap < ceiling
    assert cap == pytest.approx(ceiling, rel=1e-6)
    eps = power.required_accuracy(cap, B_EDGE, CFG)
    p = power.semantic_tx_power(eps, h2, B_EDGE, CFG)
    assert np.isfinite(p)
    assert p <= CFG.channel.p_tx_max * (1 + 1e-5)


def test_semantic_volume_cap_weak_channel_power_binds():
    # weak link: the transmit-power ceiling binds before the curve saturates
    h2 = 10 ** (-110.0 / 10)
    cap = power.semantic_volume_cap(h2, B_EDGE, CFG)
    eps = power.required_accuracy(cap, B_EDGE, CFG)
    p = power.semantic_tx_power(eps, h2, B_EDGE, CFG)
    assert p == pytest.approx(CFG.channel.p_tx_max, rel=1e-6)
    # one task more than the cap would need more power than the radio has
    eps_over = power.required_accuracy(cap * 1.01, B_EDGE, CFG)
    assert power.semantic_tx_power(eps_over, h2, B_EDGE, CFG) > CFG.channel.p_tx_max


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
    alloc = Allocation(u_edge=u_e, u_cloud=u_c,
                       f_local=rng.uniform(0, 2e8, n),
                       f_encode=np.asarray(power.encode_frequency(u_e, CFG)),
                       f_edge=rng.uniform(0, 2e8, n))
    return state, Policy(rho_edge=rho_e, rho_cloud=rho_c), alloc


def test_total_power_zero_allocation():
    n = 4
    state, policy, _ = _random_feasible(np.random.default_rng(0), n)
    zeros = np.zeros(n)
    alloc = Allocation(u_edge=zeros, u_cloud=zeros, f_local=zeros,
                       f_encode=zeros, f_edge=zeros)
    assert power.total_power(alloc, policy, state, CFG)[4] == 0.0


def test_total_power_recomposition_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        state, policy, alloc = _random_feasible(rng)
        p_l, p_e, p_tx_e, p_tx_c, total = power.total_power(alloc, policy, state, CFG)
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
    alloc = Allocation(u_edge=u_e, u_cloud=zeros,
                       f_local=np.array([1e8, 0, 0, 0.0]),
                       f_encode=np.asarray(power.encode_frequency(u_e, CFG)),
                       f_edge=np.array([2e8, 0, 0, 0.0]))
    p_l, p_e, p_tx_e, p_tx_c, total = power.total_power(alloc, policy, state, CFG)
    assert total == pytest.approx(p_l[0] + p_e[0] + p_tx_e[0] + p_tx_c[0], rel=1e-12)
