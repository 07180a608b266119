import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_queue
from semoff import channel, critic, engine, oracle, queueing
from semoff.config import QUEUE_ROWS, SystemConfig

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
                                                np.array([50.0, 0.0]), 0.0, False) == 0)


def _state(q_l, q_e=0.0, z_l=0.0, z_e=0.0, n=1):
    ones = np.ones(n)
    return channel.slot_state(CFG, ones, ones,
                              q_local=np.full(n, float(q_l)), q_edge=np.full(n, float(q_e)),
                              z_local=np.full(n, float(z_l)), z_edge=np.full(n, float(z_e)))


def test_lyapunov_value_examples():
    assert queueing.lyapunov_value(_state(0).queues) == 0.0
    assert queueing.lyapunov_value(_state(2).queues) == 2.0
    assert queueing.lyapunov_value(_state(3, 4).queues) == 12.5


def test_drift_plus_penalty_examples():
    l_s = queueing.lyapunov_value(_state(2, 1).queues)
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
        assert queueing.drift_plus_penalty(queueing.lyapunov_value(a.queues),
                                           queueing.lyapunov_value(b.queues), p,
                                           CFG.system.lyapunov_v) == \
            pytest.approx(expected, rel=1e-12)


def test_bound_trivial_cases():
    # an idle slot on empty queues: nothing moves, and the bound holds the
    # queue caps' squares alone
    zero = _state(0, n=8)
    b = queueing.drift_penalty_bound(zero.queues, np.zeros((2, 8)), np.zeros((2, 8)),
                                     0.0, CFG)
    assert b == 0.5 * 8 * (CFG.system.q_max_local ** 2 + CFG.system.q_max_edge ** 2)
    # one-device hand case: q=1, mu=1, arrivals=1 -> drift 0 <= bound
    one = _state(1, n=8)
    mu = np.zeros(8); mu[0] = 1.0
    arr = np.zeros(8); arr[0] = 1.0
    nxt = _state(1, n=8)
    dpp = queueing.drift_plus_penalty(queueing.lyapunov_value(one.queues),
                                      queueing.lyapunov_value(nxt.queues), 0.0,
                                      CFG.system.lyapunov_v)
    bound = queueing.drift_penalty_bound(one.queues, np.array((mu, np.zeros(8))),
                                         np.array((arr, np.zeros(8))), 0.0, CFG)
    assert dpp == 0.0
    assert bound >= dpp


def _per_queue_state(state):
    """`state` as the per-queue reference's state type."""
    return per_queue.SlotState(state.h2_edge, state.h2_cloud, state.edge_cap, state.cloud_cap,
                               *state.queues)


def _random_transition(cfg, rng, geom):
    """A random slot's realised drift-plus-penalty, its logged bound and
    the per-queue reference's a-priori bound."""
    n = cfg.system.num_devices
    draw = channel.draw_channels(geom, cfg, [rng])
    state = channel.slot_state(cfg, draw.h2_edge[0], draw.h2_cloud[0],
                               q_local=rng.uniform(0, 15, n), q_edge=rng.uniform(0, 5, n),
                               z_local=rng.uniform(0, 5, n), z_edge=rng.uniform(0, 3, n))
    pol = oracle.random_policy(rng, n, cfg.system.chi_edge, cfg.system.chi_cloud)
    sol, _ = critic.gather(*critic.device_g_table(state, cfg), pol)
    arrivals = rng.poisson(cfg.mean_arrivals_per_slot, n).astype(float)
    _, _, powers, dpp, bound = engine.step(state, queueing.lyapunov_value(state.queues), sol,
                                           arrivals, cfg)
    a_priori = per_queue.drift_penalty_bound(_per_queue_state(state), sol.mu_local, sol.mu_edge,
                                             sol.u_edge, arrivals, powers[4], cfg)
    return dpp, bound, a_priori


def test_bound_holds_on_random_transitions():
    rng = np.random.default_rng(77)
    geom = channel.place_devices(CFG, rng)
    for _ in range(2000):
        dpp, bound, a_priori = _random_transition(CFG, rng, geom)
        assert dpp <= bound + 1e-9
        assert bound <= a_priori


def test_the_bound_counts_one_task_too_many(monkeypatch):
    # slot 0 of scenario II starts on empty queues, where the bound has no
    # slack: a queue update that adds one task more than the arrivals the
    # bound reads breaks it, and does not break the a-priori bound
    cfg = engine.scenario_two(policy="exhaustive", seed=1).apply(CFG)
    n = cfg.system.num_devices
    honest = engine.MetricsLog(1, n)
    engine.Simulation(cfg, "exhaustive", 1).run_slot(0, honest)
    assert honest.bound_violations == 0 and honest.dpp[0] == honest.bound[0]

    update = queueing.update_local_queue
    extra = np.zeros((2, n))
    extra[0, 0] = 1.0   # one task on the first device's local queue
    monkeypatch.setattr(queueing, "update_local_queue",
                        lambda q, served, inflow: update(q, served, inflow + extra))
    log = engine.MetricsLog(1, n)
    sim = engine.Simulation(cfg, "exhaustive", 1)
    sim.run_slot(0, log)
    assert sim.q_local[0] == log.arrivals[0, 0] + 1.0
    assert log.bound_violations == 1
    block, k = sim.channels(0)
    state = channel.slot_state(cfg, block.h2_edge[k], block.h2_cloud[k], *np.zeros((4, n)))
    a_priori = per_queue.drift_penalty_bound(_per_queue_state(state), log.mu_local[0],
                                             log.mu_edge[0], log.u_edge[0], log.arrivals[0],
                                             log.p_total[0], cfg)
    assert log.dpp[0] <= a_priori + engine.BOUND_TOL


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


def _realised_rate_bound(queues, mu_local, mu_edge, u_edge, arrivals, power_w, cfg):
    """`queueing.drift_penalty_bound` transcribed device by device: the
    a-priori bound's terms with each ceiling replaced by the slot's own
    rate."""
    q_l, q_e, z_l, z_e = queues
    v = cfg.system.lyapunov_v

    b1 = 0.5 * (mu_local ** 2 + arrivals ** 2).sum()
    b3 = 0.5 * (mu_edge ** 2 + u_edge ** 2).sum()

    b2 = 0.0
    b4 = 0.0
    cross = 0.0
    q_max_l = cfg.system.q_max_local
    q_max_e = cfg.system.q_max_edge
    if q_max_l is not None:
        b2 = float((0.5 * (mu_local ** 2 + arrivals ** 2 + q_l ** 2 + q_max_l ** 2)
                    + mu_local * q_max_l + arrivals * q_l).sum())
        cross += float((z_l * (q_l - q_max_l)).sum())
    if q_max_e is not None:
        b4 = float((0.5 * (mu_edge ** 2 + u_edge ** 2 + q_e ** 2 + q_max_e ** 2)
                    + mu_edge * q_max_e + u_edge * q_e).sum())
        cross += float((z_e * (q_e - q_max_e)).sum())

    b_hat = float(b1 + b2 + b3 + b4 + cross)
    linear = float(((q_l + z_l) * (mu_local - arrivals)).sum()
                   + ((q_e + z_e) * (mu_edge - u_edge)).sum())
    return b_hat - linear + v * power_w


@pytest.mark.parametrize("n", [1, 8, 13])
@pytest.mark.parametrize("preset", [engine.scenario_one, engine.scenario_two])
def test_block_bound_terms_give_the_per_slot_bound_bit_for_bit(preset, n):
    # 1,100 slots cross the first 1,024-slot block boundary; every logged
    # bound equals the transcription's on the slot's logged inputs, bit for
    # bit, and lies at or below the per-queue reference's a-priori bound
    cfg = dataclasses.replace(CFG, system=dataclasses.replace(
        CFG.system, num_devices=n, chi_edge=min(4, n), chi_cloud=min(2, n)))
    resolved = preset(policy="random", seed=3, total_slots=1100).apply(cfg)
    sim = engine.Simulation(resolved, "random", 3)
    log = sim.run()
    for t in range(1100):
        queues = np.array((log.q_local[t], log.q_edge[t], log.z_local[t], log.z_edge[t]))
        inputs = (log.mu_local[t], log.mu_edge[t], log.u_edge[t], log.arrivals[t],
                  log.p_total[t], resolved)
        expected = _realised_rate_bound(queues, *inputs)
        assert log.bound[t].tobytes() == np.float64(expected).tobytes(), t
        block, k = sim.channels(t)
        state = per_queue.SlotState(block.h2_edge[k], block.h2_cloud[k], block.edge_cap[k],
                                    block.cloud_cap[k], *queues)
        assert log.bound[t] <= per_queue.drift_penalty_bound(state, *inputs), t


# --- the stacked transition against the per-queue reference ------------------

# (q_max_local, q_max_edge): both caps, neither, and the two mixed cases
_CAP_MODES = [(5.0, 1.0), (None, None), (5.0, None), (None, 1.0)]


def _transition_inputs(n, q_max, rng, queue_modes, served_mode, clock_over=False):
    """A config with I=n and the given caps, the slot's queues (one mode per
    row: zero, idle (zero save one device), random, or with a third of the
    devices zero), served volumes (zero, a fraction of the backlog, all of
    it, exactly at the guard's 1e-9 tolerance, or one step past it), inflows
    and a solution carrying them."""
    cfg = dataclasses.replace(CFG, system=dataclasses.replace(
        CFG.system, num_devices=n, chi_edge=min(4, n), chi_cloud=min(2, n),
        arrival_rate_per_sec=100.0, q_max_local=q_max[0], q_max_edge=q_max[1]))
    queues = []
    for mode, scale in zip(queue_modes, (15.0, 5.0, 5.0, 3.0)):
        row = rng.uniform(0, scale, n)
        if mode == "zero":
            row[:] = 0.0
        elif mode == "idle":
            row[1:] = 0.0
        elif mode == "sparse":
            row[rng.random(n) < 1 / 3] = 0.0
        queues.append(row)
    real = np.array(queues[:2])
    if served_mode == "zero":
        served = np.zeros((2, n))
    elif served_mode == "fraction":
        served = real * rng.random((2, n))
    elif served_mode == "full":
        served = real.copy()
    else:   # the guard admits served <= q * (1 + 1e-9) + 1e-9
        served = real * (1 + 1e-9) + 1e-9
        if served_mode == "past":
            served[rng.integers(2), rng.integers(n)] = np.nextafter(served.max(), np.inf)
    arrivals = rng.poisson(1.0, n).astype(float) * (rng.random(n) < 0.8)
    u_edge = np.minimum(rng.uniform(0, 3, n) * (rng.random(n) < 0.5), served[0])
    s = cfg.system
    f_local = rng.uniform(0, 0.5, n) * s.f_local_max
    f_edge = rng.uniform(0, 1.0, n) * s.f_edge_max
    if clock_over:
        f_edge[rng.integers(n)] = s.f_edge_max * 1.01
    sol = critic.Solution(u_edge=u_edge, u_cloud=np.zeros(n), f_local=f_local,
                          f_encode=rng.uniform(0, 0.5, n) * s.f_local_max, f_edge=f_edge,
                          mu_local=served[0], mu_edge=served[1],
                          p_local=rng.uniform(0, 1, n), p_edge=rng.uniform(0, 2, n),
                          p_tx_edge=rng.uniform(0, 0.1, n), p_tx_cloud=rng.uniform(0, 0.1, n))
    h2 = rng.uniform(1e-12, 1e-9, (2, n))
    return cfg, h2, queues, sol, arrivals


def _both_steps(cfg, h2, queues, sol, arrivals):
    """The outcome of the stacked `engine.step` and of the reference on the
    same slot: (next queues, Lyapunov values, powers, dpp, bound) as arrays,
    or the error each raised."""
    state = channel.slot_state(cfg, *h2, *queues)
    ref_state = _per_queue_state(state)
    outcomes = []
    for module, st_, l_state in ((engine, state, queueing.lyapunov_value(state.queues)),
                                 (per_queue, ref_state, per_queue.lyapunov_value(ref_state))):
        try:
            nxt, l_nxt, powers, dpp, bound = module.step(st_, l_state, sol, arrivals, cfg)
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        if module is per_queue:
            nxt = np.array([getattr(nxt, name) for name in QUEUE_ROWS])
        outcomes.append((nxt, np.array([l_state, l_nxt, *powers, dpp, bound])))
    return outcomes


def _realised_rate_bound_of(values, cfg, queues, sol, arrivals):
    """`_realised_rate_bound` on a slot's inputs and the power of its outcome."""
    return np.float64(_realised_rate_bound(np.array(queues), sol.mu_local, sol.mu_edge,
                                           sol.u_edge, arrivals, values[6], cfg))


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 8, 13, 256]), q_max=st.sampled_from(_CAP_MODES),
       queue_modes=st.lists(st.sampled_from(["zero", "idle", "random", "sparse"]),
                            min_size=4, max_size=4),
       served_mode=st.sampled_from(["zero", "fraction", "full", "tolerance", "past"]),
       clock_over=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_transition_matches_the_per_queue_reference(n, q_max, queue_modes,
                                                            served_mode, clock_over, seed):
    # next queues, both Lyapunov values, the five power sums and the
    # realised drift-plus-penalty equal the reference's bit for bit, the
    # bound equals its transcription's bit for bit and lies at or below the
    # reference's a-priori bound, and a guard refuses exactly what the
    # reference refuses, with its words
    inputs = _transition_inputs(n, q_max, np.random.default_rng(seed), queue_modes,
                                served_mode, clock_over)
    new, ref = _both_steps(*inputs)
    if isinstance(ref[0], type):
        assert new == ref
        return
    assert not isinstance(new[0], type), new
    assert new[0].shape == (4, n) and new[0].flags.c_contiguous
    assert new[0].tobytes() == ref[0].tobytes()
    assert new[1][:-1].tobytes() == ref[1][:-1].tobytes()
    cfg, _, queues, sol, arrivals = inputs
    assert new[1][-1].tobytes() == _realised_rate_bound_of(new[1], cfg, queues, sol,
                                                           arrivals).tobytes()
    assert new[1][-1] <= ref[1][-1]
    for row, cap in zip(new[0][2:], q_max):
        assert cap is not None or not row.any()   # an unbounded row stays at zero


@pytest.mark.parametrize("value", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("field", list(QUEUE_ROWS) + ["mu_local", "mu_edge", "arrivals",
                                                      "u_edge"])
def test_bad_entries_are_refused_as_before(field, value):
    # a NaN, -1 or +inf in any queue row fails the state check with the
    # row's name; in any queue row, served volume or inflow, the stacked
    # step ends as the reference does (the same error, or the same values
    # but the bound, which is its transcription's and not above the
    # reference's)
    cfg, h2, queues, sol, arrivals = _transition_inputs(
        8, (5.0, 1.0), np.random.default_rng(11), ["random"] * 4, "fraction")
    if field in QUEUE_ROWS:
        queues[QUEUE_ROWS.index(field)][3] = value
        state = channel.slot_state(cfg, *h2, *queues)
        with pytest.raises(ValueError, match=f"^SlotState.{field}: queues must be finite"):
            state.check()
    elif field == "arrivals":
        arrivals[3] = value
    else:
        getattr(sol, field)[3] = value
    with np.errstate(all="ignore"):
        new, ref = _both_steps(cfg, h2, queues, sol, arrivals)
        if isinstance(ref[0], type):
            assert new == ref
        else:
            assert np.array_equal(new[0], ref[0], equal_nan=True)
            assert np.array_equal(new[1][:-1], ref[1][:-1], equal_nan=True)
            assert np.array_equal(new[1][-1], _realised_rate_bound_of(
                new[1], cfg, queues, sol, arrivals), equal_nan=True)
            assert not new[1][-1] > ref[1][-1]
    if value == -1.0:
        expected = {"q_local": "served local volume exceeds local backlog",
                    "q_edge": "edge decode volume exceeds edge backlog",
                    "mu_local": "mu must be >= 0", "mu_edge": "mu_edge must be >= 0",
                    "arrivals": "arrivals must be >= 0", "u_edge": "u_edge must be >= 0"}
        assert isinstance(new[0], type) == (field in expected)
        if field in expected:
            assert new[1] == expected[field]
