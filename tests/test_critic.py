import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import per_policy
from semoff import channel, critic, oracle, power
from semoff.config import Policy, SystemConfig

CFG = SystemConfig()
TAU = 0.01
ALPHA_L = 5.787e-26
ALPHA_E = 4.45e-26
N_L, N_E = 2048.0, 6912.0
L_EN, L_DE, L_TOT = 1.2e9, 3.6e9, 4.8e9
B_E, B_C = 250e3, 25e3
NOISE = CFG.channel.noise_psd


def _state(q_l, q_e=0.0, z_l=0.0, z_e=0.0, n=8, pl_edge_db=90.5, pl_cloud_db=116.8):
    h2e = np.full(n, (10 ** (-pl_edge_db / 20)) ** 2)
    h2c = np.full(n, (10 ** (-pl_cloud_db / 20)) ** 2)
    return channel.slot_state(CFG, h2e, h2c,
                              q_local=np.full(n, float(q_l)), q_edge=np.full(n, float(q_e)),
                              z_local=np.full(n, float(z_l)), z_edge=np.full(n, float(z_e)))


def _random_state(rng, cfg=CFG, geom=None):
    n = cfg.system.num_devices
    if geom is None:
        geom = channel.place_devices(cfg, rng)
    draw = channel.draw_channels(geom, cfg, [rng])
    return channel.slot_state(cfg, draw.h2_edge[0], draw.h2_cloud[0],
                              q_local=rng.uniform(0, 15, n), q_edge=rng.uniform(0, 5, n),
                              z_local=rng.uniform(0, 5, n), z_edge=rng.uniform(0, 3, n))


ALL = np.ones(8, dtype=bool)


# --- closed forms against the worked numbers ---------------------------------

def test_edge_volume_stationary_and_caps():
    # backlog differential 10 with a huge local queue: the power-capped
    # semantic volume (just under tau*b*eps_ceiling/(S*k) = 10.2604) binds
    st = _state(50.0, 40.0)
    u = per_policy.solve_edge_volume(st, ALL, CFG)
    stationary = math.sqrt((TAU * N_L / L_EN) ** 3 * 10.0 / (3 * 2 * ALPHA_L))
    assert stationary == pytest.approx(11.9652, abs=1e-3)
    cap = TAU * B_E * 0.985 / 240.0
    assert u[0] == pytest.approx(cap, rel=1e-6)
    assert u[0] < cap
    # the local queue clamps when it is the smallest bound
    st2 = _state(0.5)
    assert per_policy.solve_edge_volume(st2, ALL, CFG)[0] == pytest.approx(0.5)


def test_edge_volume_zero_when_differential_nonpositive():
    st = _state(3.0, 4.0)  # q_e > q_l
    assert np.all(per_policy.solve_edge_volume(st, ALL, CFG) == 0.0)
    st_eq = _state(3.0, 3.0)
    assert np.all(per_policy.solve_edge_volume(st_eq, ALL, CFG) == 0.0)


def test_edge_volume_respects_association_mask():
    st = _state(10.0)
    mask = np.zeros(8, dtype=bool)
    assert np.all(per_policy.solve_edge_volume(st, mask, CFG) == 0.0)


def test_cloud_volume_stationary_and_cap():
    st = _state(8.0)
    u = per_policy.solve_cloud_volume(st, ALL, np.zeros(8), CFG)
    h2 = 10 ** (-116.8 / 10)
    stationary = (TAU * B_C / 400.0) * math.log2(
        8.0 * TAU * h2 / (math.log(2) * 2 * 400.0 * NOISE))
    cap = (TAU * B_C / 400.0) * math.log2(1 + 0.1 * h2 / (B_C * NOISE))
    assert stationary == pytest.approx(10.13, abs=0.01)
    assert u[0] == pytest.approx(cap, rel=1e-12)
    # zero weight and empty queue cases
    assert np.all(per_policy.solve_cloud_volume(_state(0.0), ALL, np.zeros(8), CFG) == 0.0)
    st3 = _state(2.0)
    u3 = per_policy.solve_cloud_volume(st3, ALL, np.full(8, 2.0), CFG)
    assert np.all(u3 == 0.0)  # nothing left after the edge volume


def test_local_frequency_stationary_and_clamps():
    st = _state(10.0)
    f = per_policy.solve_local_frequency(st, np.zeros(8), np.zeros(8), CFG)
    expected = math.sqrt(TAU * 10.0 * N_L / (3 * 2 * L_TOT * ALPHA_L))
    assert f[0] == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(3.5054e8, rel=1e-3)
    # tiny remaining backlog binds the queue clamp
    st2 = _state(0.1)
    f2 = per_policy.solve_local_frequency(st2, np.zeros(8), np.zeros(8), CFG)
    assert f2[0] == pytest.approx(0.1 * L_TOT / (TAU * N_L), rel=1e-12)
    assert np.all(per_policy.solve_local_frequency(_state(0.0), np.zeros(8), np.zeros(8), CFG) == 0.0)


def test_edge_frequency_stationary_and_clamps():
    st = _state(0.0, 3.0)
    f = per_policy.solve_edge_frequency(st, CFG)
    queue_clamp = 3.0 * L_DE / (TAU * N_E)
    stationary = math.sqrt(TAU * 3.0 * N_E / (3 * 2 * L_DE * ALPHA_E))
    assert stationary == pytest.approx(4.6447e8, rel=1e-3)
    assert f[0] == pytest.approx(queue_clamp, rel=1e-12)
    assert queue_clamp == pytest.approx(1.5625e8, rel=1e-12)
    assert np.all(per_policy.solve_edge_frequency(_state(0.0), CFG) == 0.0)
    st_big = _state(0.0, 1000.0)
    assert per_policy.solve_edge_frequency(st_big, CFG)[0] == pytest.approx(1.41e9)


def test_solver_outputs_shrink_with_larger_v():
    # per stage with fixed inputs: a larger penalty weight never increases
    # the returned volume or clock (the chained outputs can still grow when
    # an earlier stage shrinks and frees budget)
    rng = np.random.default_rng(3)
    geom = channel.place_devices(CFG, rng)
    zeros = np.zeros(8)
    for _ in range(10):
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), CFG, geom)
        for lo, hi in ((0.5, 2.0), (2.0, 8.0)):
            cfg_lo = replace(CFG, system=replace(CFG.system, lyapunov_v=lo))
            cfg_hi = replace(CFG, system=replace(CFG.system, lyapunov_v=hi))
            assert np.all(per_policy.solve_edge_volume(st, ALL, cfg_hi)
                          <= per_policy.solve_edge_volume(st, ALL, cfg_lo) + 1e-12)
            assert np.all(per_policy.solve_cloud_volume(st, ALL, zeros, cfg_hi)
                          <= per_policy.solve_cloud_volume(st, ALL, zeros, cfg_lo) + 1e-12)
            assert np.all(per_policy.solve_local_frequency(st, zeros, zeros, cfg_hi)
                          <= per_policy.solve_local_frequency(st, zeros, zeros, cfg_lo) + 1e-12)
            assert np.all(per_policy.solve_edge_frequency(st, cfg_hi)
                          <= per_policy.solve_edge_frequency(st, cfg_lo) + 1e-12)


def test_unassociated_device_local_clock_is_per_slot_optimum():
    # a device with neither edge nor cloud association decides one variable,
    # its local clock, so the clamped stationary point must minimise that
    # device's full objective; with one task of backlog it serves most of it
    # at v=0.5 and under a quarter at v=8, deferring the rest to a later
    # slot (the mechanism behind scenario-I power falling with v)
    st = _state(1.0)
    unassociated = Policy(rho_edge=np.zeros(8, dtype=bool),
                          rho_cloud=np.zeros(8, dtype=bool))
    lam = CFG.mean_arrivals_per_slot
    grid = np.linspace(0.0, min(1.2e9, 1.0 * L_TOT / (TAU * N_L)), 200_001)
    served = {}
    for v in (0.5, 8.0):
        cfg = replace(CFG, system=replace(CFG.system, lyapunov_v=v))

        def device_g(f):
            return -1.0 * (TAU * N_L * f / L_TOT - lam) + v * ALPHA_L * f ** 3

        sol, _ = critic.evaluate_policy(unassociated, st, cfg)
        f = sol.f_local[0]
        local_terms, edge_terms, power_terms = critic.g_terms(sol, per_policy.weights(st), cfg)
        g_critic = local_terms[0] + edge_terms[0] + power_terms[0]
        assert g_critic == pytest.approx(device_g(f), rel=1e-12)
        assert device_g(f) <= np.min(device_g(grid)) + 1e-12
        assert f == pytest.approx(grid[np.argmin(device_g(grid))], abs=grid[1])
        served[v] = TAU * N_L * f / L_TOT
    assert served[0.5] == pytest.approx(0.946, abs=1e-3)
    assert served[8.0] == pytest.approx(0.237, abs=1e-3)


# --- objective evaluation ------------------------------------------------------

def _zero_alloc(n=8):
    z = np.zeros(n)
    return per_policy.Allocation(u_edge=z.copy(), u_cloud=z.copy(), f_local=z.copy(),
                                 f_encode=z.copy(), f_edge=z.copy())


def test_evaluate_g_zero_state_zero_alloc():
    st = _state(0.0)
    pol = Policy(rho_edge=ALL.copy(), rho_cloud=ALL.copy())
    assert per_policy.evaluate_g(_zero_alloc(), pol, st, CFG) == 0.0


def test_evaluate_g_arrival_term_isolation():
    # zero allocation leaves only the +sum((q+z) * mean_arrivals) term
    st = _state(5.0)
    pol = Policy(rho_edge=np.zeros(8, dtype=bool), rho_cloud=np.zeros(8, dtype=bool))
    g = per_policy.evaluate_g(_zero_alloc(), pol, st, CFG)
    assert g == pytest.approx(8 * 5.0 * CFG.mean_arrivals_per_slot, rel=1e-12)


def test_evaluate_g_matches_term_by_term_recompute():
    rng = np.random.default_rng(8)
    geom = channel.place_devices(CFG, rng)
    for _ in range(20):
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), CFG, geom)
        pol = oracle.random_policy(rng, 8, 4, 2)
        sol, g_value = critic.evaluate_policy(pol, st, CFG)
        a = sol
        lam = CFG.mean_arrivals_per_slot
        expected = 0.0
        for i in range(8):
            mu_l = TAU * N_L * a.f_local[i] / L_TOT + a.u_edge[i] + a.u_cloud[i]
            mu_e = TAU * N_E * a.f_edge[i] / L_DE
            expected -= (st.q_local[i] + st.z_local[i]) * (mu_l - lam)
            expected -= (st.q_edge[i] + st.z_edge[i]) * (mu_e - a.u_edge[i])
            p = ALPHA_L * (a.f_local[i] ** 3 + a.f_encode[i] ** 3) + ALPHA_E * a.f_edge[i] ** 3
            if a.u_edge[i] > 0:
                eps = max(a.u_edge[i] * 240 / (TAU * B_E), 0.9)
                p += 10 ** ((4 - math.log(0.985 / eps - 1) / 0.5) / 10) * NOISE * B_E \
                    / st.h2_edge[i]
            if a.u_cloud[i] > 0:
                p += (2 ** (a.u_cloud[i] * 400 / (TAU * B_C)) - 1) * NOISE * B_C \
                    / st.h2_cloud[i]
            expected += 2.0 * p
        assert g_value == pytest.approx(expected, rel=1e-9)
        assert per_policy.evaluate_g(a, pol, st, CFG) == pytest.approx(g_value, rel=1e-12)


def test_evaluate_g_rejects_infeasible():
    st = _state(1.0)
    pol = Policy(rho_edge=np.zeros(8, dtype=bool), rho_cloud=np.zeros(8, dtype=bool))
    bad = _zero_alloc()
    bad.u_edge[0] = 1.0
    with pytest.raises(critic.FeasibilityError, match="edge association"):
        per_policy.evaluate_g(bad, pol, st, CFG)
    over = _zero_alloc()
    over.f_local[0] = 2e9
    with pytest.raises(critic.FeasibilityError, match="f_local"):
        per_policy.evaluate_g(over, pol, st, CFG)
    drain = _zero_alloc()
    drain.f_edge[0] = 1e9  # decodes more than the edge backlog holds
    with pytest.raises(critic.FeasibilityError, match="edge backlog"):
        per_policy.evaluate_g(drain, pol, st, CFG)
    serve = _zero_alloc()
    serve.f_local[0] = 5e8  # executes 2.13 tasks of a 1-task backlog
    with pytest.raises(critic.FeasibilityError, match="local backlog"):
        per_policy.evaluate_g(serve, pol, st, CFG)
    fast = _zero_alloc()
    fast.f_edge[0] = 1.5e9
    with pytest.raises(critic.FeasibilityError, match="f_edge_max"):
        per_policy.evaluate_g(fast, pol, st, CFG)


def test_evaluate_policy_pure_and_deterministic():
    st = _random_state(np.random.default_rng(4))
    pol = oracle.random_policy(np.random.default_rng(5), 8, 4, 2)
    a, g_a = critic.evaluate_policy(pol, st, CFG)
    b, g_b = critic.evaluate_policy(pol, st, CFG)
    assert g_a == g_b
    assert np.array_equal(a.u_edge, b.u_edge)
    assert np.array_equal(a.f_local, b.f_local)


def test_batch_evaluation_matches_single_bit_exact():
    rng = np.random.default_rng(12)
    st = _random_state(rng)
    em, cm = oracle.policy_table(8, 4, 2)
    table, _ = critic.device_g_table(st, CFG)
    g = critic.PolicyBatch(em, cm).evaluate(table)
    for idx in rng.choice(len(em), 40, replace=False):
        pol = Policy(rho_edge=em[idx], rho_cloud=cm[idx])
        assert per_policy.evaluate_policy(pol, st, CFG).g_value == g[idx]


@pytest.mark.parametrize("n", [1, 8, 13, 70])
def test_gathered_allocation_matches_evaluate_policy_bit_exact(n):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=n,
                                      chi_edge=min(4, n), chi_cloud=min(2, n)))
    rng = np.random.default_rng(50 + n)
    geom = channel.place_devices(cfg, rng)
    for _ in range(30):
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), cfg, geom)
        st.q_local[rng.random(n) < 0.3] = 0.0   # idle devices tie their combos
        table, combos = critic.device_g_table(st, cfg)
        # the association-free fields are per device, the rest per combo
        assert table.shape == (4, n)
        for f in ("u_edge", "u_cloud", "f_local", "f_encode", "mu_local", "p_local",
                  "p_tx_edge", "p_tx_cloud"):
            assert getattr(combos, f).shape == (4, n), f
        assert combos.f_edge.shape == combos.mu_edge.shape == combos.p_edge.shape == (n,)
        pol = oracle.random_policy(rng, n, cfg.system.chi_edge, cfg.system.chi_cloud)
        ref = per_policy.evaluate_policy(pol, st, cfg)
        # rates and powers as the per-policy solve recomputes them
        a = ref.alloc
        mu_local = np.asarray(power.local_exec_rate(a.f_local, cfg)) + a.u_edge + a.u_cloud
        *parts, total = per_policy.total_power(a, pol, st, cfg)
        for sol, g in (critic.gather(table, combos, pol), critic.evaluate_policy(pol, st, cfg)):
            assert g == ref.g_value
            for f in ("u_edge", "u_cloud", "f_local", "f_encode", "f_edge"):
                assert np.array_equal(getattr(sol, f), getattr(ref.alloc, f)), f
            assert np.array_equal(sol.mu_local, mu_local)
            assert np.array_equal(sol.mu_edge, power.edge_exec_rate(a.f_edge, cfg))
            for f, part in zip(("p_local", "p_edge", "p_tx_edge", "p_tx_cloud"), parts):
                assert np.array_equal(getattr(sol, f), part), f
            assert power.total_power(sol)[4] == total


# --- exact association search against enumeration ----------------------------

@functools.lru_cache(maxsize=None)
def _batch(n, chi_e, chi_c):
    """The enumeration's masks and a batch scoring them."""
    em, cm = oracle.policy_table(n, chi_e, chi_c)
    return em, cm, critic.PolicyBatch(em, cm)


@hs.composite
def _tables(draw):
    """Combo tables with many exact ties. Entries are small integers, so
    every policy sum is exact in float64 whatever the summation order: the
    DP and enumeration then see the same values and the same ties, and only
    the tie-break rule can tell them apart."""
    n = draw(hs.integers(1, 10))
    chi_e = draw(hs.integers(0, n))
    chi_c = draw(hs.integers(0, n))
    values = hs.integers(-3, 3).map(float)
    table = np.array(draw(hs.lists(hs.lists(values, min_size=n, max_size=n),
                                   min_size=4, max_size=4)))
    kind = draw(hs.sampled_from(["plain", "zero_columns", "duplicate_columns",
                                 "all_zero"]))
    if kind == "all_zero":
        table[:] = 0.0
    elif kind == "zero_columns":
        table[:, draw(hs.lists(hs.integers(0, n - 1), max_size=n))] = 0.0
    elif kind == "duplicate_columns":
        src = draw(hs.integers(0, n - 1))
        table[:, draw(hs.lists(hs.integers(0, n - 1), max_size=n))] = table[:, [src]]
    return table, chi_e, chi_c


@settings(max_examples=300, deadline=None)
@given(case=_tables())
def test_best_association_equals_enumeration_argmin(case):
    table, chi_e, chi_c = case
    n = table.shape[1]
    em, cm, batch = _batch(n, chi_e, chi_c)
    idx, _ = batch.best(table)
    pol = critic.best_association(table, chi_e, chi_c)
    assert np.array_equal(pol.rho_edge, em[idx])
    assert np.array_equal(pol.rho_cloud, cm[idx])


@pytest.mark.parametrize("n", [8, 10])
def test_best_association_equals_enumeration_on_solved_tables(n):
    # real combo tables: idle devices make whole columns tie exactly
    cfg = replace(CFG, system=replace(CFG.system, num_devices=n))
    em, cm, batch = _batch(n, 4, 2)
    rng = np.random.default_rng(60 + n)
    geom = channel.place_devices(cfg, rng)
    for _ in range(25):
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), cfg, geom)
        idle = rng.random(n) < 0.4
        for name in ("q_local", "q_edge", "z_local", "z_edge"):
            getattr(st, name)[idle] = 0.0
        table, _ = critic.device_g_table(st, cfg)
        idx, g = batch.best(table)
        pol = critic.best_association(table, 4, 2)
        assert np.array_equal(pol.rho_edge, em[idx])
        assert np.array_equal(pol.rho_cloud, cm[idx])


def test_best_association_large_population_is_feasible_and_beats_samples():
    # I=256 is far past enumeration (and past int64 bit masks); the DP result
    # must have the exact cardinalities and beat every sampled policy
    n = 256
    cfg = replace(CFG, system=replace(CFG.system, num_devices=n))
    rng = np.random.default_rng(70)
    st = _random_state(rng, cfg)
    table, tiled = critic.device_g_table(st, cfg)
    pol = critic.best_association(table, 4, 2)
    assert pol.rho_edge.sum() == 4 and pol.rho_cloud.sum() == 2
    _, g_best = critic.gather(table, tiled, pol)
    for _ in range(200):
        other = oracle.random_policy(rng, n, 4, 2)
        assert g_best <= critic.gather(table, tiled, other)[1] + 1e-9 * abs(g_best)


# --- the DP against its earlier loop, on float tables -------------------------

def _reference_best_association(table, chi_e, chi_c):
    """`critic.best_association` as it was before it walked a per-shape plan,
    verbatim: the window of each device's states recomputed per device and
    per row, boundary tests inline, fresh lists per device."""
    n = table.shape[1]
    ke, kc = min(chi_e, n), min(chi_c, n)
    w = kc + 1
    size = (ke + 1) * w
    edge = 1 << n   # an edge bit's term in the key extension
    inf = float("inf")
    g_old, k_old = [inf] * size, [0] * size
    g_old[0] = 0.0
    for i, (t0, t1, t2, t3) in enumerate(table.T.tolist()):
        # states (a, b) reachable after device i that can still end feasible
        left = n - 1 - i
        lo_e = max(ke - left, 0)
        lo_c = max(kc - left, 0)
        hi_e, hi_c = min(ke, i + 1), min(kc, i + 1)
        g_new, k_new = [inf] * size, [0] * size
        for a in range(lo_e, hi_e + 1):
            row = a * w
            for s in range(row + lo_c, row + hi_c + 1):
                # predecessors: s (no server), s - 1 (cloud), s - w (edge),
                # s - w - 1 (both); unrolled, as this loop is the hot path
                g, k = g_old[s] + t0, 2 * k_old[s]
                if s > row:
                    x = g_old[s - 1] + t1
                    if x <= g:
                        xk = 2 * k_old[s - 1] + 1
                        if x < g or xk > k:
                            g, k = x, xk
                if a:
                    r = s - w
                    x = g_old[r] + t2
                    if x <= g:
                        xk = 2 * k_old[r] + edge
                        if x < g or xk > k:
                            g, k = x, xk
                    if s > row:
                        x = g_old[r - 1] + t3
                        if x <= g:
                            xk = 2 * k_old[r - 1] + edge + 1
                            if x < g or xk > k:
                                g, k = x, xk
                g_new[s], k_new[s] = g, k
        g_old, k_old = g_new, k_new
    return Policy(rho_edge=critic._bits(k_old[-1] >> n, n),
                  rho_cloud=critic._bits(k_old[-1] & (edge - 1), n))


def _same_association(table, chi_e, chi_c):
    got = critic.best_association(table, chi_e, chi_c)
    ref = _reference_best_association(table, chi_e, chi_c)
    assert got.rho_edge.dtype == got.rho_cloud.dtype == bool
    assert np.array_equal(got.rho_edge, ref.rho_edge)
    assert np.array_equal(got.rho_cloud, ref.rho_cloud)


@pytest.mark.parametrize("n", [1, 8, 13, 40, 64])
def test_best_association_equals_reference_loop_on_solved_tables(n):
    # real combo tables, whose sums round differently in every order, with
    # idle devices (whole columns tie exactly) and caps drawn per table
    rng = np.random.default_rng(80 + n)
    for _ in range(6 if n > 13 else 20):
        chi_e, chi_c = (int(c) for c in rng.integers(0, n + 1, size=2))
        cfg = replace(CFG, system=replace(CFG.system, num_devices=n,
                                          chi_edge=chi_e, chi_cloud=chi_c))
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), cfg)
        idle = rng.random(n) < 0.3
        for name in ("q_local", "q_edge", "z_local", "z_edge"):
            getattr(st, name)[idle] = 0.0
        _same_association(critic.device_g_table(st, cfg)[0], chi_e, chi_c)


@hs.composite
def _float_tables(draw):
    """Combo tables of arbitrary floats, some columns copies of another
    (exact ties between policies that swap those devices) and some with
    all four combos equal (as an idle device's)."""
    n = draw(hs.integers(1, 12))
    chi_e = draw(hs.integers(0, n))
    chi_c = draw(hs.integers(0, n))
    values = hs.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    table = np.array(draw(hs.lists(hs.lists(values, min_size=n, max_size=n),
                                   min_size=4, max_size=4)))
    src = draw(hs.integers(0, n - 1))
    table[:, draw(hs.lists(hs.integers(0, n - 1), max_size=n))] = table[:, [src]]
    for i in draw(hs.lists(hs.integers(0, n - 1), max_size=2)):
        table[:, i] = table[0, i]
    return table, chi_e, chi_c


@settings(max_examples=300, deadline=None)
@given(case=_float_tables())
def test_best_association_equals_reference_loop_on_float_tables(case):
    _same_association(*case)


def test_best_association_equals_reference_loop_on_tie_heavy_tables():
    # small-integer tables sum exactly in any order, so many states meet
    # exact ties, and only the tie rule decides; a rule off in one
    # predecessor's comparison shows in about 1 of 400 such tables
    rng = np.random.default_rng(90)
    for _ in range(10_000):
        n = int(rng.integers(1, 8))
        chi_e, chi_c = (int(c) for c in rng.integers(0, n + 1, size=2))
        _same_association(rng.integers(-2, 3, size=(4, n)).astype(float), chi_e, chi_c)


def test_dp_plan_cache_is_bounded():
    assert critic._dp_plan.cache_info().maxsize is not None


# --- per-stage grid dominance -------------------------------------------------
# Independent oracle: each stage objective transcribed from the model
# formulas and minimised on a dense grid of its own feasible interval.

def _stage_objectives(st, cfg, u_edge, u_cloud, i):
    h2e = st.h2_edge[i]
    h2c = st.h2_cloud[i]
    v = cfg.system.lyapunov_v
    w_edge = st.q_local[i] + st.z_local[i] - st.q_edge[i] - st.z_edge[i]
    w_cloud = st.q_local[i] + st.z_local[i]
    w_local = st.q_local[i] + st.z_local[i]
    w_dec = st.q_edge[i] + st.z_edge[i]

    snr_cap = 0.1 * h2e / (B_E * NOISE)
    eps_cap = min(0.985 / (1 + math.exp(-0.5 * (10 * math.log10(snr_cap) - 4.0))),
                  0.985 * (1 - 1e-9))
    hi_e = min(st.q_local[i], TAU * 1.2e9 * N_L / L_EN, TAU * B_E * eps_cap / 240.0)

    def j_edge(u):
        return -w_edge * u + v * ALPHA_L * (u * L_EN / (TAU * N_L)) ** 3

    hi_c = max(min(st.q_local[i] - u_edge[i],
                   (TAU * B_C / 400.0) * math.log2(1 + 0.1 * h2c / (B_C * NOISE))), 0.0)

    def j_cloud(u):
        return -w_cloud * u + v * (2 ** (u * 400 / (TAU * B_C)) - 1) * NOISE * B_C / h2c

    f_en = u_edge[i] * L_EN / (TAU * N_L)
    hi_f = max(min(1.2e9 - f_en,
                   (st.q_local[i] - u_edge[i] - u_cloud[i]) * L_TOT / (TAU * N_L)), 0.0)

    def j_local(f):
        return -w_local * TAU * N_L * f / L_TOT + v * ALPHA_L * f ** 3

    hi_fe = min(1.41e9, st.q_edge[i] * L_DE / (TAU * N_E))

    def j_dec(f):
        return -w_dec * TAU * N_E * f / L_DE + v * ALPHA_E * f ** 3

    return [(j_edge, hi_e), (j_cloud, hi_c), (j_local, hi_f), (j_dec, hi_fe)]


def test_stage_grid_dominance():
    rng = np.random.default_rng(21)
    geom = channel.place_devices(CFG, rng)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(60):
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), CFG, geom)
        pol = oracle.random_policy(rng, 8, 4, 2)
        u_e = per_policy.solve_edge_volume(st, pol.rho_edge, CFG)
        u_c = per_policy.solve_cloud_volume(st, pol.rho_cloud, u_e, CFG)
        f_l = per_policy.solve_local_frequency(st, u_e, u_c, CFG)
        f_e = per_policy.solve_edge_frequency(st, CFG)
        for i in range(8):
            stages = _stage_objectives(st, CFG, u_e, u_c, i)
            solutions = [u_e[i], u_c[i], f_l[i], f_e[i]]
            active = [bool(pol.rho_edge[i]), bool(pol.rho_cloud[i]), True, True]
            for (objective, hi), x, on in zip(stages, solutions, active):
                if not on or hi <= 0:
                    continue
                best = np.min(objective(grid * hi))
                assert objective(x) <= best + 1e-9


def test_random_allocation_never_beats_stage_solution():
    # stage-wise optimality: perturbing one stage, holding the others at the
    # solver values, never improves the stage objective
    rng = np.random.default_rng(31)
    geom = channel.place_devices(CFG, rng)
    for _ in range(40):
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), CFG, geom)
        pol = oracle.random_policy(rng, 8, 4, 2)
        u_e = per_policy.solve_edge_volume(st, pol.rho_edge, CFG)
        u_c = per_policy.solve_cloud_volume(st, pol.rho_cloud, u_e, CFG)
        f_l = per_policy.solve_local_frequency(st, u_e, u_c, CFG)
        f_e = per_policy.solve_edge_frequency(st, CFG)
        for i in range(8):
            stages = _stage_objectives(st, CFG, u_e, u_c, i)
            active = [bool(pol.rho_edge[i]), bool(pol.rho_cloud[i]), True, True]
            for (objective, hi), x, on in zip(stages, [u_e[i], u_c[i], f_l[i], f_e[i]], active):
                if not on or hi <= 0:
                    continue
                trials = rng.uniform(0, hi, 25)
                assert objective(x) <= np.min(objective(trials)) + 1e-9


def test_solution_within_feasible_intervals():
    rng = np.random.default_rng(41)
    geom = channel.place_devices(CFG, rng)
    for _ in range(40):
        st = _random_state(np.random.default_rng(rng.integers(1 << 30)), CFG, geom)
        pol = oracle.random_policy(rng, 8, 4, 2)
        sol, _ = critic.evaluate_policy(pol, st, CFG)
        # raises on violation, transmit powers within p_tx_max included
        per_policy.check_allocation(sol, pol, st, CFG)


_QUEUE = hs.one_of(hs.just(0.0), hs.floats(1e-3, 1e12))
_GAIN = hs.one_of(hs.just(0.0), hs.floats(1e-100, 1e-3))


@settings(max_examples=300, deadline=None)
@given(data=hs.data(), n=hs.integers(1, 6))
def test_volume_stages_raise_no_floating_point_error(data, n):
    # zero and very large queues, zero and tiny gains: no invalid value,
    # division by zero, overflow or underflow inside the two volume stages
    def arr(elements):
        return np.array(data.draw(hs.lists(elements, min_size=n, max_size=n)))
    h2_edge, h2_cloud = arr(_GAIN), arr(_GAIN)
    queues = [arr(_QUEUE) for _ in range(4)]
    edge, cloud = arr(hs.booleans()), arr(hs.booleans())
    with np.errstate(all="raise"):
        state = channel.slot_state(CFG, h2_edge, h2_cloud, *queues)
        u_edge = per_policy.solve_edge_volume(state, edge, CFG)
        u_cloud = per_policy.solve_cloud_volume(state, cloud, u_edge, CFG)
    for u, mask in ((u_edge, edge), (u_cloud, cloud)):
        assert np.all(np.isfinite(u)) and np.all(u >= 0)
        assert np.all(u[~mask] == 0)
    assert np.all(u_edge + u_cloud <= state.q_local * (1 + 1e-12))
