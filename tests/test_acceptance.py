"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Full-length runs are shared across criteria through module-scoped fixtures;
expect several minutes of wall time. Run with `pytest tests/test_acceptance.py
-v -s` to watch the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest

import per_policy
from semoff import actor, channel, critic, engine, oracle
from semoff.cli import main as cli_main
from semoff.config import Policy, SystemConfig, SystemParams

CFG = SystemConfig()

TAU = 0.01
N_L, N_E = 2048.0, 6912.0
L_EN, L_DE, L_TOT = 1.2e9, 3.6e9, 4.8e9
ALPHA_L, ALPHA_E = 5.787e-26, 4.45e-26
B_E, B_C = 250e3, 25e3
NOISE = CFG.channel.noise_psd
V = 2.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared full-length runs
# ---------------------------------------------------------------------------

def _run(preset, policy, seed=1):
    return engine.run_scenario(CFG, preset(policy=policy, seed=seed))


def _tail_mean_per_device(log, name):
    """Each device's mean of a per-device series over the stabilized tail."""
    return np.asarray(getattr(log, name)[log.tail_start:]).mean(axis=0)


@pytest.fixture(scope="module")
def scen1():
    return {pol: _run(engine.scenario_one, pol)
            for pol in ("exhaustive", "drlh:64", "drlh:16", "drlh:8", "random")}


@pytest.fixture(scope="module")
def scen2():
    return {pol: _run(engine.scenario_two, pol)
            for pol in ("exhaustive", "drlh:64", "drlh:16", "drlh:8", "random")}


# ---------------------------------------------------------------------------
# 1. enumeration counts
# ---------------------------------------------------------------------------

def test_criterion_01_enumeration_counts(capsys):
    expected = {4: 6, 6: 225, 8: 1960, 10: 9450, 12: 32670}
    t0 = time.time()
    got = {}
    for users in expected:
        rc = cli_main(["enumerate", "--users", str(users), "--chi-e", "4",
                       "--chi-c", "2", "--count-only"])
        assert rc == 0
        got[users] = int(capsys.readouterr().out.strip())
    elapsed = time.time() - t0
    ok = got == expected and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, f"counts {got} in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. solver-oracle equivalence
# ---------------------------------------------------------------------------

def _random_state(rng, cfg, geom):
    n = cfg.system.num_devices
    draw = channel.draw_channels(geom, cfg, [rng])
    return channel.slot_state(cfg, draw.h2_edge[0], draw.h2_cloud[0],
                              q_local=rng.uniform(0, 15, n), q_edge=rng.uniform(0, 5, n),
                              z_local=rng.uniform(0, 5, n), z_edge=rng.uniform(0, 3, n))


def _stage_specs(st, i, u_edge, u_cloud):
    """Independent transcription of each stage's objective and interval."""
    h2e = st.h2_edge[i]
    h2c = st.h2_cloud[i]
    w_edge = st.q_local[i] + st.z_local[i] - st.q_edge[i] - st.z_edge[i]
    w_cloud = st.q_local[i] + st.z_local[i]
    w_dec = st.q_edge[i] + st.z_edge[i]

    snr_cap = 0.1 * h2e / (B_E * NOISE)
    eps_cap = min(0.985 / (1 + math.exp(-0.5 * (10 * math.log10(snr_cap) - 4.0))),
                  0.985 * (1 - 1e-9)) if snr_cap > 0 else 0.0
    hi_e = min(st.q_local[i], TAU * 1.2e9 * N_L / L_EN, TAU * B_E * eps_cap / 240.0)
    hi_c = max(min(st.q_local[i] - u_edge,
                   (TAU * B_C / 400.0) * math.log2(1 + 0.1 * h2c / (B_C * NOISE))), 0.0)
    f_en = u_edge * L_EN / (TAU * N_L)
    hi_f = max(min(1.2e9 - f_en,
                   (st.q_local[i] - u_edge - u_cloud) * L_TOT / (TAU * N_L)), 0.0)
    hi_fe = min(1.41e9, st.q_edge[i] * L_DE / (TAU * N_E))
    return [
        (lambda u: -w_edge * u + V * ALPHA_L * (u * L_EN / (TAU * N_L)) ** 3, hi_e),
        (lambda u: -w_cloud * u + V * (2 ** (u * 400 / (TAU * B_C)) - 1) * NOISE * B_C / h2c, hi_c),
        (lambda f: -w_cloud * TAU * N_L * f / L_TOT + V * ALPHA_L * f ** 3, hi_f),
        (lambda f: -w_dec * TAU * N_E * f / L_DE + V * ALPHA_E * f ** 3, hi_fe),
    ]


def _device_g(st, i, u_e, u_c, f_l, f_e):
    """Full per-device objective, transcribed from the model formulas."""
    lam = CFG.mean_arrivals_per_slot
    mu_l = TAU * N_L * f_l / L_TOT + u_e + u_c
    mu_edge = TAU * N_E * f_e / L_DE
    f_en = u_e * L_EN / (TAU * N_L)
    g = -(st.q_local[i] + st.z_local[i]) * (mu_l - lam)
    g -= (st.q_edge[i] + st.z_edge[i]) * (mu_edge - u_e)
    p = ALPHA_L * (f_l ** 3 + f_en ** 3) + ALPHA_E * f_e ** 3
    if u_e > 0:
        eps = max(u_e * 240 / (TAU * B_E), 0.9)
        p += 10 ** ((4 - math.log(0.985 / eps - 1) / 0.5) / 10) * NOISE * B_E \
            / st.h2_edge[i]
    if u_c > 0:
        p += (2 ** (u_c * 400 / (TAU * B_C)) - 1) * NOISE * B_C / st.h2_cloud[i]
    return g + V * p


def test_criterion_02_solver_oracle_equivalence(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    geom = channel.place_devices(CFG, rng)
    grid = np.linspace(0.0, 1.0, 10_001)
    worst_gap = 0.0
    for _ in range(1000):
        st = _random_state(rng, CFG, geom)
        pol = oracle.random_policy(rng, 8, 4, 2)
        u_e = per_policy.solve_edge_volume(st, pol.rho_edge, CFG)
        u_c = per_policy.solve_cloud_volume(st, pol.rho_cloud, u_e, CFG)
        f_l = per_policy.solve_local_frequency(st, u_e, u_c, CFG)
        f_e = per_policy.solve_edge_frequency(st, CFG)
        for i in range(8):
            specs = _stage_specs(st, i, u_e[i], u_c[i])
            values = [u_e[i], u_c[i], f_l[i], f_e[i]]
            active = [bool(pol.rho_edge[i]), bool(pol.rho_cloud[i]), True, True]
            for (objective, hi), x, on in zip(specs, values, active):
                if not on or hi <= 0:
                    continue
                gap = objective(x) - np.min(objective(grid * hi))
                worst_gap = max(worst_gap, float(gap))

    # joint chained-grid oracle on 4-device instances: each stage solved by
    # dense grid search in the same sequence, then the assembled allocation
    # scored with the full objective
    cfg4 = SystemConfig(system=SystemParams(num_devices=4))
    geom4 = channel.place_devices(cfg4, rng)
    fine = np.linspace(0.0, 1.0, 20_001)
    worst_rel = 0.0
    for _ in range(60):
        st = _random_state(rng, cfg4, geom4)
        st.q_local = np.maximum(st.q_local, 0.5)  # keep |g| away from zero
        pol = oracle.random_policy(rng, 4, 4, 2)
        _, g_value = critic.evaluate_policy(pol, st, cfg4)
        g_grid_total = 0.0
        for i in range(4):
            u_e = u_c = f_l = f_e = 0.0
            specs = _stage_specs(st, i, 0.0, 0.0)
            if pol.rho_edge[i] and specs[0][1] > 0:
                obj, hi = specs[0]
                u_e = float(fine[np.argmin(obj(fine * hi))] * hi)
            specs = _stage_specs(st, i, u_e, 0.0)
            if pol.rho_cloud[i] and specs[1][1] > 0:
                obj, hi = specs[1]
                u_c = float(fine[np.argmin(obj(fine * hi))] * hi)
            specs = _stage_specs(st, i, u_e, u_c)
            if specs[2][1] > 0:
                obj, hi = specs[2]
                f_l = float(fine[np.argmin(obj(fine * hi))] * hi)
            if specs[3][1] > 0:
                obj, hi = specs[3]
                f_e = float(fine[np.argmin(obj(fine * hi))] * hi)
            g_grid_total += _device_g(st, i, u_e, u_c, f_l, f_e)
        rel = abs(g_value - g_grid_total) / max(abs(g_grid_total), 1e-9)
        worst_rel = max(worst_rel, rel)

    elapsed = time.time() - t0
    ok = worst_gap <= 1e-9 and worst_rel <= 0.005 and elapsed < 120
    with capsys.disabled():
        _report(2, ok, f"stage gap {worst_gap:.2e} (<=1e-9), joint rel "
                       f"{worst_rel:.5f} (<=0.005), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3. gradient check
# ---------------------------------------------------------------------------

def test_criterion_03_gradient_check(capsys):
    t0 = time.time()
    rng = np.random.default_rng(42)
    net = actor.ActorNetwork.create(4, CFG.training.hidden_sizes, rng)
    x = rng.normal(size=(5, 24))
    y = (rng.random(size=(5, 8)) > 0.5).astype(float)
    _, gw, gb = net.loss_and_grad(x, y)
    h = 1e-5
    worst = 0.0
    for arrs, grads in ((net.weights, gw), (net.biases, gb)):
        for arr, grad in zip(arrs, grads):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for j in range(flat.size):
                old = flat[j]
                flat[j] = old + h
                up = net.loss(x, y)
                flat[j] = old - h
                dn = net.loss(x, y)
                flat[j] = old
                fd = (up - dn) / (2 * h)
                worst = max(worst, abs(fd - gflat[j]) / max(abs(fd), 1e-6))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10
    with capsys.disabled():
        _report(3, ok, f"worst relative gradient error {worst:.2e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. drift bound holds on every slot of a full run
# ---------------------------------------------------------------------------

def test_criterion_04_drift_bound_full_run(scen1, capsys):
    log = scen1["exhaustive"]
    violations = int(np.sum(log.dpp > log.bound + 1e-9))
    ok = violations == 0 and log.bound_violations == 0 and log.total_slots == 15000
    with capsys.disabled():
        _report(4, ok, f"{violations}/15000 violations (exhaustive, scenario I)")


# ---------------------------------------------------------------------------
# 5. queue stability in scenario I
# ---------------------------------------------------------------------------

def test_criterion_05_queue_stability_scenario1(scen1, capsys):
    msgs = []
    ok = True
    for pol in ("exhaustive", "drlh:64"):
        log = scen1[pol]
        q_l = _tail_mean_per_device(log, "q_local").max()
        q_e = _tail_mean_per_device(log, "q_edge").max()
        ok = ok and q_l <= 5.0 and q_e <= 1.0
        msgs.append(f"{pol}: qL {q_l:.3f}<=5, qE {q_e:.3f}<=1")
    with capsys.disabled():
        _report(5, ok, "; ".join(msgs))


# ---------------------------------------------------------------------------
# 6. near-optimality of the learned search
# ---------------------------------------------------------------------------

def test_criterion_06_near_optimal_power(scen1, scen2, capsys):
    msgs = []
    ok = True
    for name, runs in (("I", scen1), ("II", scen2)):
        p_ex = runs["exhaustive"].tail_mean("p_total")
        p64 = runs["drlh:64"].tail_mean("p_total")
        p16 = runs["drlh:16"].tail_mean("p_total")
        p8 = runs["drlh:8"].tail_mean("p_total")
        within = abs(p64 / p_ex - 1) <= 0.05
        ordered = (p16 >= 0.98 * p64) and (p8 >= 0.98 * p16)
        ok = ok and within and ordered
        msgs.append(f"scen {name}: drlh64 {100 * (p64 / p_ex - 1):+.2f}% of "
                    f"exhaustive; 16/8 gaps {100 * (p16 / p64 - 1):+.2f}%/"
                    f"{100 * (p8 / p16 - 1):+.2f}%")
    with capsys.disabled():
        _report(6, ok, "; ".join(msgs))


# ---------------------------------------------------------------------------
# 7. learning dynamics in scenario II
# ---------------------------------------------------------------------------

def _stabilization_window(log, width=1000):
    series = log.sum_queue()
    n_windows = len(series) // width
    means = np.array([series[w * width:(w + 1) * width].mean()
                      for w in range(n_windows)])
    final = means[-1]
    first = next(w for w, m in enumerate(means)
                 if abs(m - final) <= 0.1 * max(final, 1e-9))
    return first, means


def test_criterion_07_learning_dynamics_scenario2(scen2, capsys):
    stab = {}
    shapes_ok = True
    msg = []
    for pol in ("drlh:64", "drlh:16", "drlh:8"):
        log = scen2[pol]
        w, means = _stabilization_window(log)
        stab[pol] = w
        series = log.sum_queue()
        fine = np.array([series[k * 250:(k + 1) * 250].mean()
                         for k in range(len(series) // 250)])
        final = means[-1]
        # rises from the empty start past the stable level, then falls back
        overshoots = series[0] < final and fine.max() >= 1.08 * final
        settles = abs(fine[-1] - final) <= 0.1 * final
        shapes_ok = shapes_ok and overshoots and settles
        msg.append(f"{pol}: window {w}, peak {fine.max():.0f} -> final {final:.0f}")
    ordered = stab["drlh:64"] <= stab["drlh:16"] <= stab["drlh:8"]
    ok = shapes_ok and ordered
    with capsys.disabled():
        _report(7, ok, "; ".join(msg) + f"; ordering {ordered}")


# ---------------------------------------------------------------------------
# 8. learned policy beats the random baseline
# ---------------------------------------------------------------------------

def test_criterion_08_baseline_dominance(scen1, scen2, capsys):
    ok = True
    msg = []
    for name, runs in (("I", scen1), ("II", scen2)):
        q64 = runs["drlh:64"].tail_mean("q_local") + runs["drlh:64"].tail_mean("q_edge")
        qr = runs["random"].tail_mean("q_local") + runs["random"].tail_mean("q_edge")
        p64 = runs["drlh:64"].tail_mean("p_total")
        pr = runs["random"].tail_mean("p_total")
        ok = ok and q64 < qr and p64 < pr
        msg.append(f"scen {name}: queue {q64:.3f}<{qr:.3f}, power {p64:.3f}<{pr:.3f}")
    with capsys.disabled():
        _report(8, ok, "; ".join(msg))


# ---------------------------------------------------------------------------
# 9. trend reproduction across sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweeps():
    arrival = engine.sweep("arrival", [50, 100, 200, 500, 750], CFG,
                           policy="exhaustive", seed=1)
    cfg2 = engine.scenario_two(policy="exhaustive", seed=1).apply(CFG)
    v_scen2 = engine.sweep("v", [0.5, 1, 2, 4, 8], cfg2,
                           policy="exhaustive", seed=1)
    # scenario I keeps whole logs for the per-device queue check; each run is
    # the one engine.sweep makes for that value (same config, seed and slots)
    cfg1 = engine.scenario_one(policy="exhaustive", seed=1).apply(CFG)
    v_scen1 = [engine.run_scenario(engine.sweep_config(cfg1, "v", v),
                                   engine.Scenario(policy="exhaustive", seed=1))
               for v in [0.5, 1, 2, 4, 8]]
    return arrival, v_scen2, v_scen1


def test_criterion_09_sweep_trends(sweeps, capsys):
    arrival, v_scen2, v_scen1 = sweeps
    q = [r["tail_mean_sum_queue"] for r in arrival]
    p = [r["tail_mean_power_w"] for r in arrival]
    queues_up = all(b >= a for a, b in zip(q, q[1:]))
    power_up = all(b >= a for a, b in zip(p, p[1:]))
    # saturation: relative growth over the top step far below the first step
    first_growth = (p[1] - p[0]) / p[0]
    last_growth = (p[-1] - p[-2]) / p[-2]
    saturates = last_growth < first_growth / 2

    q2 = [r["tail_mean_sum_queue"] for r in v_scen2]
    p2 = [r["tail_mean_power_w"] for r in v_scen2]
    v2_ok = all(b <= a for a, b in zip(p2, p2[1:])) and \
        all(b >= a for a, b in zip(q2, q2[1:]))

    # Scenario I: power is non-increasing in v, and every device's tail
    # queues stay within the caps (5 local, 1 edge) at every v. Energy is not
    # flat: the caps are slack at this load (the local virtual queue stays
    # near zero), so no virtual queue pins the decisions, and drift-plus-
    # penalty then trades power down against backlog as v grows. The drop is
    # devices without an association serving less locally and deferring to a
    # slot where they offload (README, "Known model caveats").
    p1 = [log.tail_mean("p_total") for log in v_scen1]
    v1_down = all(b <= a for a, b in zip(p1, p1[1:]))
    q_l1 = max(_tail_mean_per_device(log, "q_local").max() for log in v_scen1)
    q_e1 = max(_tail_mean_per_device(log, "q_edge").max() for log in v_scen1)
    v1_caps = q_l1 <= 5.0 and q_e1 <= 1.0

    ok = queues_up and power_up and saturates and v2_ok and v1_down and v1_caps
    with capsys.disabled():
        _report(9, ok,
                f"arrival: queues up {queues_up}, power up {power_up}, "
                f"growth {100*first_growth:.1f}%->{100*last_growth:.1f}%; "
                f"v scen II monotone {v2_ok}; scen I power non-increasing "
                f"{v1_down} (spread {100 * (max(p1) / min(p1) - 1):.2f}%), "
                f"qL {q_l1:.3f}<=5, qE {q_e1:.3f}<=1")


# ---------------------------------------------------------------------------
# 10. loss convergence
# ---------------------------------------------------------------------------

def test_criterion_10_loss_convergence(scen1, scen2, capsys):
    # Both scenarios must train cleanly and descend from the chance-level
    # baseline. The 0.15-per-component gate applies to the high-load run:
    # under moderate load roughly a third of device-slots are idle
    # (Poisson(1) zero draws on empty queues), and an idle device's
    # association bits are objective-indifferent, which puts an
    # irreducible entropy floor around 0.3 on those labels.
    ok = True
    msg = []
    for name, runs in (("I", scen1), ("II", scen2)):
        log = runs["drlh:64"]
        finite_train = log.train_loss[np.isfinite(log.train_loss)]
        test_first = float(np.nanmean(log.test_loss[:1000]))
        test_tail = float(np.nanmean(log.test_loss[log.tail_start:]))
        train_first = float(finite_train[:20].mean())
        train_tail = float(np.nanmean(log.train_loss[log.tail_start:]))
        clean = (np.all(np.isfinite(log.test_loss))
                 and np.all(np.isfinite(finite_train)))
        baseline_ok = test_first < math.log(2) + 0.05
        ok = ok and test_tail < test_first and train_tail < train_first \
            and clean and baseline_ok
        if name == "II":
            ok = ok and test_tail < 0.15
        msg.append(f"scen {name}: test {test_first:.3f}->{test_tail:.3f}"
                   f"{' (<0.15)' if name == 'II' else ''}, "
                   f"train {train_first:.3f}->{train_tail:.3f}")
    with capsys.disabled():
        _report(10, ok, "; ".join(msg))


# ---------------------------------------------------------------------------
# 11. bit-identical replay
# ---------------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, capsys):
    args = ["simulate", "--scenario", "1", "--policy", "drlh:8",
            "--seed", "77", "--slots", "2000"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    files1, files2 = ({p.name: p.read_bytes() for p in out.iterdir()} for out in (out1, out2))
    # config, metrics and summary, and the 11 per-device series
    same = files1 == files2 and len(files1) == 14
    with capsys.disabled():
        _report(11, same, f"repeated run produced a byte-identical run directory "
                          f"({len(files1)} files)")
