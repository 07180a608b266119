import csv
import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from semoff import channel, critic, engine, oracle, power, queueing
from semoff.config import ConfigError, SystemConfig, SystemParams, TrainingParams, validate_config


CFG = SystemConfig()
# The per-device series, each written as `<name>.npy`.
NPY_SERIES = ("arrivals", "q_local", "q_edge", "z_local", "z_edge", "u_edge", "u_cloud",
              "mu_local", "mu_edge", "h2_edge", "h2_cloud")
PINNED_FILES = ("metrics.csv", *(f"{name}.npy" for name in NPY_SERIES))
RUN_FILES = {"config.json", "summary.json", *PINNED_FILES}


def _short(policy, slots=120, seed=5, scenario=1):
    preset = engine.scenario_one if scenario == 1 else engine.scenario_two
    return engine.run_scenario(CFG, preset(policy=policy, seed=seed,
                                           total_slots=slots))


def test_smoke_run_has_expected_record_count():
    log = _short("random", slots=100)
    assert log.total_slots == 100
    assert log.q_local.shape == (100, 8)
    assert np.all(np.isfinite(log.p_total))


def test_zero_arrivals_keeps_everything_at_zero():
    cfg = replace(CFG, system=replace(CFG.system, arrival_rate_per_sec=0.0))
    sc = engine.Scenario(name="idle", policy="exhaustive", seed=1, total_slots=50)
    log = engine.run_scenario(cfg, sc)
    assert np.all(log.q_local == 0)
    assert np.all(log.q_edge == 0)
    assert np.all(log.p_total == 0)


def test_replay_is_bit_identical():
    for policy in ("exhaustive", "drlh:8", "random"):
        a = _short(policy, slots=80, seed=9)
        b = _short(policy, slots=80, seed=9)
        for name in ("q_local", "q_edge", "z_local", "z_edge", "p_total",
                     "g_value", "dpp", "bound", "u_edge", "u_cloud"):
            assert np.array_equal(getattr(a, name), getattr(b, name),
                                  equal_nan=True), (policy, name)
        assert np.array_equal(a.policy_edge, b.policy_edge)


def test_different_seeds_differ():
    a = _short("random", slots=60, seed=1)
    b = _short("random", slots=60, seed=2)
    assert not np.array_equal(a.arrivals, b.arrivals)


def _window_means(log, name, width=1000):
    """Means of consecutive full windows; device series average devices too."""
    series = getattr(log, name)
    n_windows = len(series) // width
    out = np.empty(n_windows)
    for w in range(n_windows):
        chunk = series[w * width:(w + 1) * width]
        out[w] = np.nanmean(chunk)
    return out


def test_windowed_means_recomputable_bit_exact():
    log = _short("random", slots=100)
    means = _window_means(log, "p_total", width=25)
    assert means.shape == (4,)
    for w in range(4):
        assert means[w] == np.nanmean(log.p_total[w * 25:(w + 1) * 25])


def test_scenario_presets_apply_overrides():
    sc1 = engine.scenario_one(policy="random", seed=1)
    resolved = sc1.apply(CFG)
    assert resolved.system.arrival_rate_per_sec == 100.0
    assert resolved.system.q_max_local == 5.0
    assert resolved.system.q_max_edge == 1.0
    sc2 = engine.scenario_two(policy="random", seed=1)
    resolved2 = sc2.apply(CFG)
    assert resolved2.system.arrival_rate_per_sec == 750.0
    assert resolved2.system.q_max_local is None
    assert resolved2.system.q_max_edge is None
    # scenario two pins the virtual queues at zero
    log = _short("random", slots=60, scenario=2)
    assert np.all(log.z_local == 0) and np.all(log.z_edge == 0)


def test_scenario_dict_roundtrip():
    # the dict holds the run settings only: the values a preset layers over
    # the config are the config's, in its own groups
    sc = engine.scenario_two(policy="drlh:16", seed=4, total_slots=100)
    assert sc.to_dict() == {"name": "scenario2", "policy": "drlh:16", "seed": 4}
    again = engine.scenario_from_dict(sc.to_dict())
    assert again == engine.Scenario(name="scenario2", policy="drlh:16", seed=4)
    for key in ("bogus", "arrival_rate_per_sec", "q_max_local", "q_max_edge", "total_slots"):
        with pytest.raises(ConfigError, match=rf"^unknown key\(s\) in 'scenario': \['{key}'\]$"):
            engine.scenario_from_dict({"name": "x", key: 1})


def test_parse_policy_spec():
    assert engine.parse_policy_spec("drlh:64") == ("drlh", 64)
    assert engine.parse_policy_spec("exhaustive") == ("exhaustive", 0)
    assert engine.parse_policy_spec("random") == ("random", 0)
    # only one ASCII full match: not an Arabic-Indic three or a superscript two
    for bad in ("drlh", "drlh:0", "drlh:x", "greedy", "drlhfoo:4", "drlh:\u0663", "drlh:\u00b2",
                "drlh:4\n", " drlh:4", "drlh:+4", "drlh:4:1", "Exhaustive"):
        with pytest.raises(ValueError):
            engine.parse_policy_spec(bad)


def test_queue_constraints_hold_every_slot():
    log = _short("exhaustive", slots=200)
    assert np.all(log.mu_local <= log.q_local + 1e-6)
    assert np.all(log.mu_edge <= log.q_edge + 1e-6)
    assert log.bound_violations == 0
    assert np.all(log.dpp <= log.bound + 1e-9)


def test_energy_accounting_components_sum():
    log = _short("drlh:8", slots=100)
    total = log.p_local + log.p_edge + log.p_tx_edge + log.p_tx_cloud
    assert np.allclose(total, log.p_total, rtol=1e-12, atol=1e-15)


def test_chosen_policy_has_required_cardinality():
    log = _short("drlh:8", slots=60)
    for t in range(60):
        assert bin(int(log.policy_edge[t])).count("1") == 4
        assert bin(int(log.policy_cloud[t])).count("1") == 2


def test_single_value_sweep_matches_run_scenario():
    rows = engine.sweep("arrival", [100.0], CFG, policy="random", seed=3,
                        total_slots=80)
    cfg = replace(CFG, system=replace(CFG.system, arrival_rate_per_sec=100.0))
    log = engine.run_scenario(cfg, engine.Scenario(
        name="x", policy="random", seed=3, total_slots=80))
    assert rows[0]["tail_mean_power_w"] == pytest.approx(log.tail_mean("p_total"), rel=1e-12)
    assert rows[0]["tail_mean_q_local_per_device"] == pytest.approx(
        log.tail_mean("q_local"), rel=1e-12)


def test_users_sweep_reports_search_space_sizes():
    rows = engine.sweep("users", [4, 6, 8], CFG, policy="random", seed=1,
                        total_slots=30)
    assert [r["search_space_size"] for r in rows] == [6, 225, 1960]


def test_sweep_validates_every_value_before_the_first_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "Simulation", no_run)
    with pytest.raises(ConfigError, match=r"^v=-1\.0: lyapunov_v: must lie in \(0, inf\), "
                                          r"got -1\.0$"):
        engine.sweep("v", [1.0, 2.0, -1.0], CFG, total_slots=3000)


@pytest.mark.parametrize("settings,problem", [
    ({"seed": -1}, "scenario.seed: must be an integer >= 0, got -1"),
    ({"policy": "drlhx"}, "scenario.policy: unknown policy spec 'drlhx'")])
def test_sweep_checks_its_run_settings_before_the_first_run(monkeypatch, settings, problem):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "Simulation", no_run)
    with pytest.raises(ConfigError, match="^" + re.escape(problem)):
        engine.sweep("v", [1.0], CFG, total_slots=3, **settings)


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="parameter"):
        engine.sweep("bandwidth", [1.0], CFG)


def test_run_outputs_written(tmp_path):
    sc = engine.scenario_one(policy="drlh:8", seed=2, total_slots=60)
    log = engine.run_scenario(CFG, sc)
    engine.write_run_outputs(tmp_path, log, sc.apply(CFG), sc)
    assert {p.name for p in tmp_path.iterdir()} == RUN_FILES
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0].split(",")
    assert header == ["slot", "p_local", "p_edge", "p_tx_edge", "p_tx_cloud", "p_total",
                      "g_value", "dpp", "bound", "test_loss", "train_loss",
                      "policy_edge_mask", "policy_cloud_mask", "num_candidates"]
    n_rows = len((tmp_path / "metrics.csv").read_text().splitlines()) - 1
    assert n_rows == 60


@pytest.mark.parametrize("policy,devices", [("drlh:8", 8), ("exhaustive", 13)])
def test_per_device_npy_files_load_to_the_log_arrays(policy, devices, tmp_path):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices))
    sc = engine.scenario_one(policy=policy, seed=4, total_slots=70)
    log = engine.run_scenario(cfg, sc)
    engine.write_run_outputs(tmp_path, log, sc.apply(cfg), sc)
    for name in NPY_SERIES:
        array = np.load(tmp_path / f"{name}.npy", allow_pickle=False)
        assert array.dtype == np.float64 and array.shape == (70, devices), name
        assert array.tobytes() == getattr(log, name).tobytes(), name


def _slack_from_csv(path):
    """bound - dpp per slot, as read back from a run's metrics.csv."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = {name: i for i, name in enumerate(rows[0])}
    return (np.array([float(r[col["bound"]]) for r in rows[1:]])
            - np.array([float(r[col["dpp"]]) for r in rows[1:]]))


@pytest.mark.parametrize("policy,scenario", [("drlh:8", 1), ("exhaustive", 2)])
def test_summary_drift_bound_slack_matches_metrics_csv(policy, scenario, tmp_path):
    preset = engine.scenario_one if scenario == 1 else engine.scenario_two
    sc = preset(policy=policy, seed=3, total_slots=200)
    log = engine.run_scenario(CFG, sc)
    for out in (tmp_path / "a", tmp_path / "b"):
        engine.write_run_outputs(out, log, sc.apply(CFG), sc)
    assert (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    slack = _slack_from_csv(tmp_path / "a" / "metrics.csv")
    assert summary["drift_bound_slack"] == {
        "min": float(slack.min()), "q01": float(np.quantile(slack, 0.01, method="lower")),
        "median": float(np.median(slack)), "first_violation_slot": None}
    assert np.all(slack >= 0)


def test_summary_names_the_first_slot_that_breaks_the_bound():
    sc = engine.scenario_one(policy="random", seed=3, total_slots=40)
    log = engine.run_scenario(CFG, sc)
    # slot 9 within the tolerance, slots 17 and 30 beyond it
    log.dpp[9] = log.bound[9] + 0.5e-9
    log.dpp[17] = log.bound[17] + 1e-6
    log.dpp[30] = log.bound[30] + 5.0
    summary = engine.summarize(log, sc)
    slack = summary["drift_bound_slack"]
    assert slack["first_violation_slot"] == 17
    assert slack["min"] == log.bound[30] - log.dpp[30]
    # the count is read from the same logged columns
    assert summary["bound_violations"] == log.bound_violations == 2
    assert engine.MetricsLog(5, 8).bound_violations == 0   # unreached (NaN) slots count none


def test_invalid_config_refused():
    cfg = SystemConfig(system=SystemParams(chi_edge=9))
    with pytest.raises(ValueError, match="chi_edge"):
        engine.Simulation(cfg, "random", seed=1)


def test_simulation_reports_each_config_problem_on_its_own_line():
    cfg = SystemConfig(system=SystemParams(chi_edge=9, lyapunov_v=-1.0))
    with pytest.raises(ConfigError) as exc:
        engine.Simulation(cfg, "random", seed=1)
    assert str(exc.value).splitlines() == validate_config(cfg)
    assert len(validate_config(cfg)) == 2


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_simulation_refuses_a_bad_seed(seed):
    with pytest.raises(ConfigError, match=r"^scenario\.seed: must be an integer >= 0, got "
                                          + re.escape(repr(seed)) + "$"):
        engine.Simulation(CFG, "exhaustive", seed)


def test_simulation_reports_run_settings_and_config_together():
    cfg = SystemConfig(system=SystemParams(chi_edge=9))
    with pytest.raises(ConfigError) as exc:
        engine.Simulation(cfg, "drlhx", -1)
    assert str(exc.value).splitlines() == engine.validate_scenario(
        engine.Scenario(policy="drlhx", seed=-1)) + validate_config(cfg)
    assert len(str(exc.value).splitlines()) == 3


def test_validate_scenario_reports_every_run_setting():
    assert engine.validate_scenario(engine.Scenario()) == []
    bad = engine.Scenario(name=5, policy="drlh:\u0663", seed=-1)
    assert engine.validate_scenario(bad) == [
        "scenario.name: must be a string, got 5",
        "scenario.seed: must be an integer >= 0, got -1",
        "scenario.policy: unknown policy spec 'drlh:\u0663'; expected drlh:N with N >= 1, "
        "exhaustive or random"]


def test_run_slot_outcome_consistent():
    sc = engine.scenario_one(policy="exhaustive", seed=6, total_slots=5)
    sim = engine.Simulation(sc.apply(CFG), sc.policy, sc.seed)
    log = engine.MetricsLog(5, 8)
    for t in range(5):
        sim.run_slot(t, log)
        # the four components, added in `power.total_power`'s order
        assert log.p_total[t] == (log.p_local[t] + log.p_edge[t]
                                  + log.p_tx_edge[t] + log.p_tx_cloud[t])
        assert np.array_equal(sim.q_local, queueing.update_local_queue(
            log.q_local[t], log.mu_local[t], log.arrivals[t]))
        assert np.array_equal(sim.q_edge, queueing.update_edge_queue(
            log.q_edge[t], log.mu_edge[t], log.u_edge[t]))
        assert np.array_equal(sim.z_local, queueing.update_virtual_queue(
            log.z_local[t], sim.q_local, 5.0))
        assert np.array_equal(sim.z_edge, queueing.update_virtual_queue(
            log.z_edge[t], sim.q_edge, 1.0))


def test_step_guard_tolerates_rounding_only():
    # served volumes may pass the backlog by 1e-9 relative plus 1e-9 tasks
    n = 2
    zeros = np.zeros(n)
    state = channel.slot_state(CFG, np.ones(n), np.ones(n), np.full(n, 3.0), np.full(n, 2.0),
                               zeros, zeros)
    def solution(mu_local, mu_edge):
        return critic.Solution(u_edge=zeros, u_cloud=zeros, f_local=zeros, f_encode=zeros,
                               f_edge=zeros, mu_local=np.full(n, mu_local),
                               mu_edge=np.full(n, mu_edge), p_local=zeros, p_edge=zeros,
                               p_tx_edge=zeros, p_tx_cloud=zeros)

    l_state = queueing.lyapunov_value(state.queues)
    nxt, _, powers, _, _ = engine.step(state, l_state, solution(3.0 + 3.5e-9, 2.0 + 2.5e-9),
                                       zeros, CFG)
    assert np.all(nxt[:2] == 0.0)   # the next q_local and q_edge rows
    assert powers == (0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(critic.FeasibilityError, match="local backlog"):
        engine.step(state, l_state, solution(3.0 + 5e-9, 2.0), zeros, CFG)
    with pytest.raises(critic.FeasibilityError, match="edge backlog"):
        engine.step(state, l_state, solution(3.0, 2.0 + 4e-9), zeros, CFG)


def test_run_slot_names_the_slot_of_a_guard_failure(monkeypatch):
    def refuse(sol, state, cfg):
        raise critic.FeasibilityError("served local volume exceeds local backlog")
    monkeypatch.setattr(critic, "check_clocks_and_backlog", refuse)
    sim = engine.Simulation(CFG, "random", seed=1)
    with pytest.raises(critic.FeasibilityError, match="^slot 3: served local volume"):
        sim.run_slot(3, engine.MetricsLog(4, 8))


def test_virtual_queues_vanish_relative_to_horizon():
    # stable run: the mean-queue caps hold, so the end-of-run virtual
    # backlog is negligible against the horizon
    log = _short("exhaustive", slots=2500)
    horizon = log.total_slots
    assert log.z_local[-1].max() / horizon < 1e-3
    assert log.z_edge[-1].max() / horizon < 1e-3


@pytest.mark.parametrize("policy", ["random", "exhaustive"])
def test_seventy_devices_run_to_completion(policy):
    # 70 devices need 70-bit association masks, past int64
    cfg = replace(CFG, system=replace(CFG.system, num_devices=70))
    sc = engine.scenario_one(policy=policy, seed=3, total_slots=50)
    log = engine.run_scenario(cfg, sc)
    assert np.all(np.isfinite(log.p_total))
    assert max(max(log.policy_edge), max(log.policy_cloud)) >= 1 << 63
    for t in range(50):
        assert bin(log.policy_edge[t]).count("1") == 4
        assert bin(log.policy_cloud[t]).count("1") == 2


def test_exhaustive_at_256_devices_keeps_the_bound():
    cfg = replace(CFG, system=replace(CFG.system, num_devices=256))
    sc = engine.scenario_one(policy="exhaustive", seed=2, total_slots=200)
    log = engine.run_scenario(cfg, sc)
    assert log.bound_violations == 0
    assert np.all(log.dpp <= log.bound + 1e-9)
    assert np.all(log.num_candidates == oracle.count_policies(256, 4, 2))


def test_candidate_count_past_int64_is_written_exactly(tmp_path):
    # C(40, 20) * C(40, 10) policies: more than an int64 holds
    cfg = replace(CFG, system=replace(CFG.system, num_devices=40, chi_edge=20, chi_cloud=10))
    count = oracle.count_policies(40, 20, 10)
    assert count >= 1 << 63
    log = engine.run_scenario(cfg, engine.scenario_one(policy="exhaustive", seed=1,
                                                       total_slots=3))
    log.to_csv(tmp_path / "metrics.csv")
    with open(tmp_path / "metrics.csv", newline="", encoding="utf-8") as fh:
        cells = [row["num_candidates"] for row in csv.DictReader(fh)]
    assert cells == [str(count)] * 3


@pytest.mark.parametrize("slots,tail", [(1, [0]), (2, [1]), (3, [2]), (5, [4]), (6, [4, 5])])
def test_tail_holds_at_least_one_slot(slots, tail):
    log = engine.MetricsLog(slots, 2)
    assert list(range(slots))[log.tail_start:] == tail


def test_summary_loss_is_null_when_no_training_step_falls_in_the_tail(tmp_path):
    # one training step, at slot 256, before the tail that starts at 267
    cfg = replace(CFG, training=replace(CFG.training, train_interval=1000))
    sc = engine.scenario_one(policy="drlh:8", seed=1, total_slots=400)
    log = engine.run_scenario(cfg, sc)
    assert log.train_steps == 1 and log.tail_start == 267
    engine.write_run_outputs(tmp_path, log, sc.apply(cfg), sc)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tail_mean_train_loss"] is None
    assert summary["tail_mean_test_loss"] == log.tail_mean("test_loss")


def test_sweep_config_sets_one_field():
    for parameter, field, value in (("arrival", "arrival_rate_per_sec", 200.0),
                                    ("v", "lyapunov_v", 4.0),
                                    ("users", "num_devices", 6)):
        cfg = engine.sweep_config(CFG, parameter, value)
        assert cfg == replace(CFG, system=replace(CFG.system, **{field: value}))
        assert type(getattr(cfg.system, field)) is type(value)
    assert engine.sweep_config(CFG, "users", 6.0).system.num_devices == 6


@pytest.mark.parametrize("value", [4.7, 6.5, float("inf"), float("nan")])
def test_sweep_config_refuses_a_fractional_integer_parameter(value):
    with pytest.raises(ValueError, match="^users: num_devices must be an integer"):
        engine.sweep_config(CFG, "users", value)
    with pytest.raises(ValueError, match="^users: num_devices"):   # before any run
        engine.sweep("users", [4, value], CFG, policy="random", total_slots=5)


def _pinned_run_sha256(cfg, scenario, outdir):
    """The run's log and the sha256 of each of its pinned files as written."""
    log = engine.run_scenario(cfg, scenario)
    engine.write_run_outputs(outdir, log, scenario.apply(cfg), scenario)
    return log, {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                 for name in PINNED_FILES}


# sha256 of the run directory's files after 300 slots, seed 1 (I=8 on scenario 1,
# I=12 on scenario 2), recorded with Python 3.11 and numpy 2.4 on x86-64.
PINNED_METRICS_SHA256 = {
    ("drlh:64", 8, 1): {
        "metrics.csv": "f51582b84651943154cc0b397f158f950383e6ee23c837f6bdbffa0f5e1ba05a",
        "arrivals.npy": "0b207851a9d0eb48b9436a37914b22c64e61f3ca4e504a8da265a0704c32d054",
        "q_local.npy": "928b054c04460ad794c6212f16b717808c5c978b66dffc8334bf4a3734906763",
        "q_edge.npy": "4567d17d7db4f495c759a4b19562a017710e183bc8c9246f9280422395726de4",
        "z_local.npy": "e079d4a9b89fbb08e08c248fb40b727665b32e4ecc27b56ac11df86f89bcadbc",
        "z_edge.npy": "159b2754dca39e83fbe7fa4f8b0dee5c91337b646ec4af2c9048a7db372bcd43",
        "u_edge.npy": "01c94be5981d3cdc29c9f6c1fbbc7bb2fce1aab5ce5096c4e3126af30f72b5cc",
        "u_cloud.npy": "35cf35862fdc5ff07a265e8f3ed06103bfe570eeecb44bdf7e7c173f47fbadfd",
        "mu_local.npy": "f20d2f5bd0841a26b279762d8eb8cc485cf12b8a97662a8b68672d470d1f27fb",
        "mu_edge.npy": "fc08058de6b942b9b2376f1a697581fe2f4cea94e3852c3a8a1d856f4b2bbaa9",
        "h2_edge.npy": "cc8ea5a6d51b2d6c252dc73363110f8278cfa0fc91cebb79590972c06882cd82",
        "h2_cloud.npy": "6955343915aafd1d4c3f442e114d38757395801b123507415508fd5d55e2c6f7",
    },
    ("exhaustive", 8, 1): {
        "metrics.csv": "ecf9fc5a70666004d205802546807ce8e3c72744db74d67d8a582660b564ff93",
        "arrivals.npy": "0b207851a9d0eb48b9436a37914b22c64e61f3ca4e504a8da265a0704c32d054",
        "q_local.npy": "58bb7c76d77e7778dc51637598e911ed053f368256399d6c41b1af464794636a",
        "q_edge.npy": "71d36a8ca4369b867a256c54856d92571cb4b123aafb9d31316c399801d75313",
        "z_local.npy": "df868fb606ba7c97b600e6237d54b64458c5d287f13cfdf2c8c3f388edbbeb1b",
        "z_edge.npy": "a40b8310b67393e313f0f7dfc7b7422445a7f7a929805abbfc029ddd9a72403e",
        "u_edge.npy": "a73bddca80235a18aaf5e9417c58c7d5993f6f4f0ac2c3bdf599b2b0104b65fe",
        "u_cloud.npy": "7084eb3bf83133c0a32b9331ce7857a2b404eb750cecc99706824d0cf07d9685",
        "mu_local.npy": "542bf9c27e6423c07c47833a250df99d716c1178585d0072da60b839f4e1927c",
        "mu_edge.npy": "1116c26dca94157e747741d3120b080517a1b19cb7eaa17ac401dbae44d0b0ef",
        "h2_edge.npy": "cc8ea5a6d51b2d6c252dc73363110f8278cfa0fc91cebb79590972c06882cd82",
        "h2_cloud.npy": "6955343915aafd1d4c3f442e114d38757395801b123507415508fd5d55e2c6f7",
    },
    ("random", 8, 1): {
        "metrics.csv": "ae0cb949825c132e8968f95eae30798047a1f8b0fd858239de1ee9cb1fb6f98b",
        "arrivals.npy": "0b207851a9d0eb48b9436a37914b22c64e61f3ca4e504a8da265a0704c32d054",
        "q_local.npy": "defa92a9aa0fdc541a717e782cd73be44ca0a7f576294b87ea85c65b86483756",
        "q_edge.npy": "2462ebdfae5d84b560b9863918981cdb8a625d14f4a534ec7ae77793f6e592e5",
        "z_local.npy": "1672798fa0103da2b64ca285f3bcb14182ccad112266ce863a97d53b1e3e6176",
        "z_edge.npy": "a72f1e3641d6eea8153dea8287791447d052b80f5f019f9c8d1a83f23935ae17",
        "u_edge.npy": "7822d5c6c66b24af9a0184e532795f8886c8cc8eeabf45076f93a62dcac44b60",
        "u_cloud.npy": "2352d50b6e102b61b4b4da41cc6f7538ec314e10a4b1ffc50c74c7f648f5ddb7",
        "mu_local.npy": "169bcfd01aa9d8558f6d0bc88113c5e3502c5a5c896596ad7b25e90b6fba4038",
        "mu_edge.npy": "640f94656b869d8c0671b7bb64c7da737b96286f20cc6be6b33b551f0b593458",
        "h2_edge.npy": "cc8ea5a6d51b2d6c252dc73363110f8278cfa0fc91cebb79590972c06882cd82",
        "h2_cloud.npy": "6955343915aafd1d4c3f442e114d38757395801b123507415508fd5d55e2c6f7",
    },
    ("exhaustive", 12, 2): {
        "metrics.csv": "43689e7add48468e4cee41ceea6b7062819f6e5e2e8f07ebdb595a5afb5b7036",
        "arrivals.npy": "ef483c950f5f612b2a2e7978d86529ffb4f0eb28d65e16595497a7fb13e7e329",
        "q_local.npy": "494f9f438af102db1f6387edb4acb0a46799c0392b337cb713e92de15af902c0",
        "q_edge.npy": "57b93fa02a6c85de320c74759f0749d49350daef442537c7b2ecec78e124bd00",
        "z_local.npy": "751bfb153ec0af6d10ee31037cf2c30fae6ace2d1b7f2602577927e5f6148ed4",
        "z_edge.npy": "751bfb153ec0af6d10ee31037cf2c30fae6ace2d1b7f2602577927e5f6148ed4",
        "u_edge.npy": "c20e8713253d088589610bffeecd6003fad388835eba593252376090395d61db",
        "u_cloud.npy": "0019d02a2880cde867a9f3f07ba3032876c8017766d86d0683341b38eb57c5c6",
        "mu_local.npy": "ddd292628a1f4ea6b6592a4c439f677e0d44fad08d07413f70613c22958027e7",
        "mu_edge.npy": "935cbf1b5c664be861ff142104ba9af28a547d916de69d0518e17e172288f729",
        "h2_edge.npy": "b681a33fcc628df2f41314a4aa59f750e153a5c9c30acd2bf1bfb37d0b231525",
        "h2_cloud.npy": "283178d8ff3acc8e48f52e80fab8ee5f1e38f303f79e1b4454903227199b1db8",
    },
}


@pytest.mark.parametrize("policy,devices,scenario", sorted(PINNED_METRICS_SHA256))
def test_metrics_csv_bytes_pinned(policy, devices, scenario, tmp_path):
    """A run's outputs are fixed by its config and seed.

    Hot-path rewrites must leave them unchanged. A hash here changes only
    with a stated reason: a deliberate change of the model, the random
    streams or the output values, recorded in CHANGES.md.
    """
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices))
    preset = engine.scenario_one if scenario == 1 else engine.scenario_two
    _, digests = _pinned_run_sha256(cfg, preset(policy=policy, seed=1, total_slots=300),
                                    tmp_path)
    assert digests == PINNED_METRICS_SHA256[policy, devices, scenario]


# sha256 of the run directory's files after 1,100 slots, seed 1, past the first
# 1,024-slot channel block; the values, the bound aside, of the first two
# runs are unchanged since before channels were drawn a block at a time,
# of the last two since before arrivals and the actor's gain features were.
PINNED_BLOCK_METRICS_SHA256 = {
    ("exhaustive", 12, 2): {
        "metrics.csv": "247b4afc2ea269cdc5c0a80f52f63f767ffe5b6529576e515438149ee95bf7b2",
        "arrivals.npy": "02033a06969e5929c39c8bd4522ca623b64f55f36acfd89b87b6aee21994c424",
        "q_local.npy": "969645f1784bec105eeb4e20ea5c878c7cdf8ec2f8c5b295b29ccf14970e733a",
        "q_edge.npy": "ad328e599a8067ec8027074841e830ac67df1ee8e349c94ad90495aa85c69632",
        "z_local.npy": "cfd529a4275d7543d20fa4ce2c97972fe460f76c503f0a6978c1be8301cc4fd6",
        "z_edge.npy": "cfd529a4275d7543d20fa4ce2c97972fe460f76c503f0a6978c1be8301cc4fd6",
        "u_edge.npy": "a1bd957651f3f728683dde998308c87347f431e63cdfe6a481fc5150680d781c",
        "u_cloud.npy": "39b0dcadd249df73ae79944545e06bc58ce754122644dcae3b28d9a43d0be794",
        "mu_local.npy": "92986e212c9a2526aedb02d8c4578f43a3babfe97db260a4be9982376ce88fe2",
        "mu_edge.npy": "156b2f8987a655b032735728f23568a9e2d40b4ea13d691f69f2db10a73b3c20",
        "h2_edge.npy": "77a7da704b4908e806eb619a8c04d053b4bb19bfc0ddd95134a655271ef53dcf",
        "h2_cloud.npy": "91ba012ba98485551a407b37a9b7bdd732ad7f6123351055cbdd222ac72bfd4d",
    },
    ("drlh:8", 8, 1): {
        "metrics.csv": "e4f36f0eb790c27c7913bf12df0fc08bd144b49ca1fac514502994a49b3bbb75",
        "arrivals.npy": "f29cc6d32b74a6350cc0a20eefca0d40a379da2061abbb38121c28dad4eaa50c",
        "q_local.npy": "59e08e595b2f1e970eab74d586b06f23b17fe81bdb4837e88eb750db9ae78473",
        "q_edge.npy": "61fa80a8a3e50aa7f53aecfa8d6d1db883f85cb8078316442d881bc6439fe1cf",
        "z_local.npy": "03572f6ca6d351f008726e365c87ce24a9282bff7b568b26cba259686566f40d",
        "z_edge.npy": "91f0395f446aeae7d3b8b0eb30e07395668017055c65c0bdb6bb6327ba9d1f37",
        "u_edge.npy": "8696d83026f014ff931c5394a85901a76e1a42384fb2de8e8537db5a13b86701",
        "u_cloud.npy": "ced25ea0d1f2fd5ea4a2bdff8576a095f2e3a4678b66d0a80816b8b7bb06baf2",
        "mu_local.npy": "e6e2e93d285bdd5e524009cbf221ae25964dd443690ef52c13aff83851b44d18",
        "mu_edge.npy": "95ce6665629cd91a379f805e4eefbe34fc56044f94ec2af3e982607f1d680ccb",
        "h2_edge.npy": "36fa5c1ef1e974adeb5b50b15297ccab7606ab7027c0f81c3ef73475ee3a440a",
        "h2_cloud.npy": "d18103f2960644c81736ba40e5af6befc45a4a0b77074ac0121356fc7f71f311",
    },
    ("drlh:64", 8, 1): {
        "metrics.csv": "da628ef81d238262c522b7bd7cee9c0fbbe08806d0d25572d6c5ff3fd3741a69",
        "arrivals.npy": "f29cc6d32b74a6350cc0a20eefca0d40a379da2061abbb38121c28dad4eaa50c",
        "q_local.npy": "0b6c966c2ad522d07fd3867f308a82f2b194002e6c7e9568ab14386291fa72d0",
        "q_edge.npy": "b360f670d06daf0a24d362f7a1efdf1e0dd97beb8163db0acf44d51ed0b77969",
        "z_local.npy": "54d98da0a8fcc21b4738ea84ce05487e96772d41e9136a6ffd7a7e77da3045f4",
        "z_edge.npy": "de04b19cc9cad5f48431bfc242226b11d65218e5be982bca6fb7df111ba064de",
        "u_edge.npy": "2b44c69b9b92ba75ce5cbc1a9f09f9b0d12c6d0965aaf56652f9b92a0e3a07da",
        "u_cloud.npy": "3fdfbee2f8ee18d1a9d3fd4d8c6de9a8854da01249a69d1985a1cfdf41297785",
        "mu_local.npy": "106ef165145199b254a1b04a3f7ff79350e5e3b40503d2bf928efba6cd63eea7",
        "mu_edge.npy": "8add4d6439934581b474882f513a3070eb415dc9ba5821a43de4b76b436564f5",
        "h2_edge.npy": "36fa5c1ef1e974adeb5b50b15297ccab7606ab7027c0f81c3ef73475ee3a440a",
        "h2_cloud.npy": "d18103f2960644c81736ba40e5af6befc45a4a0b77074ac0121356fc7f71f311",
    },
    ("random", 8, 1): {
        "metrics.csv": "bc9f71826cdf0800f1fe94e7946e381e27981e07a74be691c9c58fbf3ed0286a",
        "arrivals.npy": "f29cc6d32b74a6350cc0a20eefca0d40a379da2061abbb38121c28dad4eaa50c",
        "q_local.npy": "96fb7679d2004aa35d441ad8dfa668e5cb4e445a482c42bc5f3ab8b5b6244979",
        "q_edge.npy": "3654e99ddfd29fdf83451754d7e64f6d18d5c249d3c33227325837f529c00ea3",
        "z_local.npy": "c30d21cb7d74b8f3d20070a73c10c4363d76148596af1c99c50852460efe483a",
        "z_edge.npy": "981e9b7c3b2d73b87d6619648e9aaa5111907cf5f8e6c149ca8c7027a3b502fa",
        "u_edge.npy": "a3fbcbf7eb63af5242d33c5009efbf542f9cecbab88780d552316a5c5cfc72e4",
        "u_cloud.npy": "9975d3d3e423ff55e7f36444733daea441cd0344aeb5f9c1731d5baaec48bdf2",
        "mu_local.npy": "7309652a8ef0f2e7b79c7cf42d92fc56636afa310d6ab8380dcb5f2047e37dfa",
        "mu_edge.npy": "31792620715311d2e3dd1610598f3d8be27d333f931a436a066d0a2f308998b3",
        "h2_edge.npy": "36fa5c1ef1e974adeb5b50b15297ccab7606ab7027c0f81c3ef73475ee3a440a",
        "h2_cloud.npy": "d18103f2960644c81736ba40e5af6befc45a4a0b77074ac0121356fc7f71f311",
    },
}


@pytest.mark.parametrize("policy,devices,scenario", sorted(PINNED_BLOCK_METRICS_SHA256))
def test_metrics_csv_bytes_pinned_across_a_block_boundary(policy, devices, scenario, tmp_path):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices))
    preset = engine.scenario_one if scenario == 1 else engine.scenario_two
    _, digests = _pinned_run_sha256(cfg, preset(policy=policy, seed=1, total_slots=1100),
                                    tmp_path)
    assert digests == PINNED_BLOCK_METRICS_SHA256[policy, devices, scenario]


# sha256 of the run directory's files after 300 slots, seed 1, scenario 1, at
# shapes whose association DP walks wider windows than the defaults
# (chi = (16, 8) at I=40) or an odd device count (drlh:64 at I=13); the
# values, the bound aside, are unchanged since before the DP walked a
# per-shape plan and the combos were solved untiled.
PINNED_SHAPE_METRICS_SHA256 = {
    ("exhaustive", 40, 16, 8): {
        "metrics.csv": "ad3b85749581404bd88b0f7026622c9a1fa0d8acc3428af872f6a020b5f3c0cf",
        "arrivals.npy": "5afb39c339dac556adaacb990fad6a867bd4647083a1116eea2034170d51659f",
        "q_local.npy": "5b3c46458efa41fecf2e9fe4bf056710755608e9c5bd8db23d30da22455c011a",
        "q_edge.npy": "28de76acc7285e4e2610937aaff9b2e21e2fa5b2b06f973816dc1782dc6ecb1e",
        "z_local.npy": "e1e9e17298f81f24ae7ab04c71d97441c1327dbe81efefcf5180c0512d5648da",
        "z_edge.npy": "eff0235894ca00a3dd7c7045066dcc7798536f48c90b394c351d2ca719dd4eed",
        "u_edge.npy": "1456ed15148f9386710c707953901019452639fad48dbd815ca5fc1c0e61eb71",
        "u_cloud.npy": "eb97ae9e77f9158a7a1238031cf3ddcb1365cc9d5aded72138ce9866875fa9b9",
        "mu_local.npy": "685465580566dc8faa14c0e586fe58811464ff26af6311d0799ee3cdf9b27047",
        "mu_edge.npy": "0044e7b1e8e2bc1114a39d8d5206304aa1fbdd3cc4a2f8d945d5c1eac5e70b90",
        "h2_edge.npy": "0c720293699ecd017a60a9607b0ab2c0a93511991502831d894df2baad68c5a8",
        "h2_cloud.npy": "e34bc7415b083f583ea40c8d0988610c7e5cf6042249a5d7c8f63878a36de424",
    },
    ("drlh:64", 13, 4, 2): {
        "metrics.csv": "7b430f05bbdacab0350cb6eb72470e327d1e5e71c38cc486f1a98fff2164a1d3",
        "arrivals.npy": "87b57b1b95974e664157c9f32eba0af0de31f7df00882c6afdf7104b5a46d0d9",
        "q_local.npy": "8a9110ac300a694587263e98055580c5800a5dbddeb56c1ecac88b3999b269c2",
        "q_edge.npy": "7ae86ab9e0e98f9e1e29869865d198927dcf0d01d14364cec08e6716f557b884",
        "z_local.npy": "6491e92ab94b689c1381b4d5765863a6767c06393b55291a0ed86112d98ef682",
        "z_edge.npy": "221bb173cc4572681314b891cb94bf42630c641e34bf9d80411f8ab1b96c6b81",
        "u_edge.npy": "9ddfdadb37ac64e76d61bff481089ea47ddb4ea0ed627e8d17c8264a405fbd31",
        "u_cloud.npy": "7a2025aef92a26e7068d052824e7b45bbc820de73ed2c6e90515a6545a910c85",
        "mu_local.npy": "6840efc4734f9cb4c92ff65b1519c9c5d26330e5946b199762f509fbd3790e96",
        "mu_edge.npy": "40e7d2d9901cbf328a12aa3373b4b4a4159ff36a267ae201198eef83ff3f9de9",
        "h2_edge.npy": "af0f4f40ac02af0a7caa3aa9d411f2bccc441ae1661ae13ec80f3c9676d6b3c4",
        "h2_cloud.npy": "28d6e54bc74873d2ced94c6d764854d399ae30a0f674e00b8c37be6e9dabed99",
    },
}


@pytest.mark.parametrize("policy,devices,chi_e,chi_c", sorted(PINNED_SHAPE_METRICS_SHA256))
def test_metrics_csv_bytes_pinned_at_other_shapes(policy, devices, chi_e, chi_c, tmp_path):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices,
                                      chi_edge=chi_e, chi_cloud=chi_c))
    _, digests = _pinned_run_sha256(
        cfg, engine.scenario_one(policy=policy, seed=1, total_slots=300), tmp_path)
    assert digests == PINNED_SHAPE_METRICS_SHA256[policy, devices, chi_e, chi_c]


# sha256 of the run directory's files after 300 slots, seed 1, scenario 1's
# arrivals with one queue cap set and the other unbounded, so one virtual
# queue moves and the other stays at zero; the values, the bound aside, are
# unchanged since before the queues were held in one (4, I) array.
PINNED_MIXED_CAP_METRICS_SHA256 = {
    ("exhaustive", 8, 5.0, None): {
        "metrics.csv": "66e8a59a97dd616fe7660d8b0b212d67564783dbc3985bac35145fd9b62aefc3",
        "arrivals.npy": "0b207851a9d0eb48b9436a37914b22c64e61f3ca4e504a8da265a0704c32d054",
        "q_local.npy": "b22c3dfdcf3200ccd688aa8b30de53faf6aee2d55b03a596a3e439d3dbf45322",
        "q_edge.npy": "cb456aae93dbb9f13e7e596cb0d845332a7ab95aa8c639c6bd4ef4c8cccffe65",
        "z_local.npy": "246acfa15f34e196efd40deb221db728487e9cc8bd2c4b664c0610cb4c566958",
        "z_edge.npy": "5ec0ac111ed634d13eeb56a123aa855954f1f2c267a3bf9c2e0193f4f99fd980",
        "u_edge.npy": "556648d7a1be9e9adab408e7026ad4182de8759c95b8e103d57afcca25a28cf5",
        "u_cloud.npy": "1e4cfbded689a032fc15ca6a2476764e707640e08058a9ba92ffc00667aa77b1",
        "mu_local.npy": "c1e808f1565faadbcc43900322fa890edfe58a1e43321e40cc1e520db6702507",
        "mu_edge.npy": "2cfdfec2ee087c78a54f47b921c52412448ccfe0c8f00ce30e8ba4b065846f1a",
        "h2_edge.npy": "cc8ea5a6d51b2d6c252dc73363110f8278cfa0fc91cebb79590972c06882cd82",
        "h2_cloud.npy": "6955343915aafd1d4c3f442e114d38757395801b123507415508fd5d55e2c6f7",
    },
    ("exhaustive", 8, None, 1.0): {
        "metrics.csv": "0869a39ec27aa9863c7f684aab3c882608e09566cd0e0c0350c31abb186e75bb",
        "arrivals.npy": "0b207851a9d0eb48b9436a37914b22c64e61f3ca4e504a8da265a0704c32d054",
        "q_local.npy": "c32ad25f21aa99c829fbd083f0fcba75f78a305c0b0cab76e164b3c8aa7a395a",
        "q_edge.npy": "4faac3938ebbc149338088df044933b4841a8d43fc32cfe3fcc2f418e2f7cf46",
        "z_local.npy": "5ec0ac111ed634d13eeb56a123aa855954f1f2c267a3bf9c2e0193f4f99fd980",
        "z_edge.npy": "a40b8310b67393e313f0f7dfc7b7422445a7f7a929805abbfc029ddd9a72403e",
        "u_edge.npy": "8496c9c66e801a290a0d578bdb72c008222601999cffba76f4d57112312050a6",
        "u_cloud.npy": "7084eb3bf83133c0a32b9331ce7857a2b404eb750cecc99706824d0cf07d9685",
        "mu_local.npy": "80e1f5ed01158dd324172df5c7b9a751cdd69ff829bf3754561d7fd8c3c13f66",
        "mu_edge.npy": "82ac309c3af71a2db1cc8c27dccae6127363004bd2183321983e4f01fff4854b",
        "h2_edge.npy": "cc8ea5a6d51b2d6c252dc73363110f8278cfa0fc91cebb79590972c06882cd82",
        "h2_cloud.npy": "6955343915aafd1d4c3f442e114d38757395801b123507415508fd5d55e2c6f7",
    },
    ("drlh:8", 13, 5.0, None): {
        "metrics.csv": "925124f5f3e2579bcdcb36576c05b5b15d3921ba1c521ee1bb65d3f5ef0bdd0a",
        "arrivals.npy": "87b57b1b95974e664157c9f32eba0af0de31f7df00882c6afdf7104b5a46d0d9",
        "q_local.npy": "f8e0eb4b953eea23a1e8a7d3cdc691900a8fe5507cee18142eb8307f5c6ab124",
        "q_edge.npy": "24887bc55332f9fd23cfbb9279d0d6f727eb1ffe40e0093ccd57cb998512c6b7",
        "z_local.npy": "b8ff032e1fd0b921c02c742db4ee41b5325f873b7313c8f3d5371dacf9e534f7",
        "z_edge.npy": "cd770ba4816b3b9f4cf219e028530ce1f617680e945640ee44b573f06afed094",
        "u_edge.npy": "96ee50fb6443f20fd76bfdcdb140431d7a0ccb5c0cba9d511b10bd85a07d6465",
        "u_cloud.npy": "7f4c5acc69ac86c9fb3bc60f230b3a250583394a64658487601e855c6bb1f870",
        "mu_local.npy": "55135eeb0db6adf4cd55743caefb956e4e984cb3c0634119b40b5cb19bf9df50",
        "mu_edge.npy": "7c2d28e9ad066a789e31630f7ea40b01f99572161586b4f06ee4a53bf1a7cbd2",
        "h2_edge.npy": "af0f4f40ac02af0a7caa3aa9d411f2bccc441ae1661ae13ec80f3c9676d6b3c4",
        "h2_cloud.npy": "28d6e54bc74873d2ced94c6d764854d399ae30a0f674e00b8c37be6e9dabed99",
    },
    ("drlh:8", 13, None, 1.0): {
        "metrics.csv": "1b0285be254afd344a1823d1f822efde16c47155323b9d880146372f9016a013",
        "arrivals.npy": "87b57b1b95974e664157c9f32eba0af0de31f7df00882c6afdf7104b5a46d0d9",
        "q_local.npy": "dd9d740d0b6e1d1520f9fced75c605be1cd0226e066dd1cd064d7197bacdbe29",
        "q_edge.npy": "de9dc752113d25a89384f5a721d2637a4096d701043198b790008ffab23b9823",
        "z_local.npy": "cd770ba4816b3b9f4cf219e028530ce1f617680e945640ee44b573f06afed094",
        "z_edge.npy": "ccab4d4c9c2e155bfa28d5e68230a3753323728094683a9b8d0705cc0e18b453",
        "u_edge.npy": "38754f58fc634faa32396fe5c7006ee8b3362a2ae8c16b1584ecb9cf68697976",
        "u_cloud.npy": "d0e80e2e6ac8388e3f787e2eef384ff18d19bb940de130b52c90fd23593b30f1",
        "mu_local.npy": "5be78f032988cddd7af061da7a81a63eeca0796e2c47ddf1eb00fe744f2b28bb",
        "mu_edge.npy": "dd0bc19a9c92e171df8f2b6a5518eccf37cd218ab342879b489cb8d440eca443",
        "h2_edge.npy": "af0f4f40ac02af0a7caa3aa9d411f2bccc441ae1661ae13ec80f3c9676d6b3c4",
        "h2_cloud.npy": "28d6e54bc74873d2ced94c6d764854d399ae30a0f674e00b8c37be6e9dabed99",
    },
}


@pytest.mark.parametrize("policy,devices,q_max_local,q_max_edge",
                         list(PINNED_MIXED_CAP_METRICS_SHA256))
def test_metrics_csv_bytes_pinned_with_one_queue_cap(policy, devices, q_max_local,
                                                     q_max_edge, tmp_path):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices))
    sc = engine.Scenario(name="mixed", policy=policy, seed=1, q_max_local=q_max_local,
                         q_max_edge=q_max_edge, total_slots=300)
    log, digests = _pinned_run_sha256(cfg, sc, tmp_path)
    assert log.z_local.any() == (q_max_local is not None)
    assert log.z_edge.any() == (q_max_edge is not None)
    assert digests == PINNED_MIXED_CAP_METRICS_SHA256[policy, devices, q_max_local, q_max_edge]


def _single_slot_draw(sim, t):
    return channel.draw_channels(sim.geometry, sim.cfg,
                                 [channel.slot_rng(sim.seed, engine.STREAM_CHANNEL, t)])


@pytest.mark.parametrize("n", [1, 8, 64])
def test_channel_block_rows_equal_single_slot_draws(n):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=n, chi_edge=min(4, n),
                                      chi_cloud=min(2, n)),
                  training=replace(CFG.training, total_slots=1500))
    sim = engine.Simulation(cfg, "random", seed=9)
    assert sim.block is None   # drawn in the first slot, not at set-up
    log = sim.run()
    # every slot of a 1,500-slot run, across the block boundary at 1,024
    for t in range(1500):
        single = _single_slot_draw(sim, t)
        assert log.h2_edge[t].tobytes() == single.h2_edge[0].tobytes()
        assert log.h2_cloud[t].tobytes() == single.h2_cloud[0].tobytes()
    # slots in any order; a block is cut at the run's end, extended to a slot
    # past it, and kept while it holds the slot asked for
    order = [(t, 1024 if t < 1024 else 476) for t in range(1020, 1031)]
    order += [(1499, 476), (3, 1024), (1500, 477), (1024, 477), (1023, 1024),
              (1502, 479), (2048, 1), (0, 1024)]
    for t, rows in order:
        block, k = sim.channels(t)
        assert (sim.block_start, k, len(block.h2_edge)) == (t - t % 1024, t % 1024, rows)
        single = _single_slot_draw(sim, t)
        for name in ("h2_edge", "h2_cloud", "edge_cap", "cloud_cap"):
            assert getattr(block, name)[k].tobytes() == getattr(single, name)[0].tobytes(), name
        # the carried caps are the link caps of the row's gains
        assert block.edge_cap[k].tobytes() == power.semantic_volume_cap(
            single.h2_edge[0], cfg).tobytes()
        assert block.cloud_cap[k].tobytes() == power.cloud_offload_cap(
            single.h2_cloud[0], cfg).tobytes()


def test_run_slot_reads_its_slot_of_the_block_in_any_order():
    # slots run out of order and past the end log the channels and arrivals
    # of a single-slot draw; a 200-slot run draws 200 slots, not 1,024
    cfg = replace(CFG, training=replace(CFG.training, total_slots=200))
    sim = engine.Simulation(cfg, "exhaustive", seed=4)
    log = engine.MetricsLog(1100, 8)
    for t in (150, 7, 199, 200, 1030, 1029, 0):
        sim.run_slot(t, log)
        single = _single_slot_draw(sim, t)
        assert log.h2_edge[t].tobytes() == single.h2_edge[0].tobytes()
        assert log.h2_cloud[t].tobytes() == single.h2_cloud[0].tobytes()
        arrivals = channel.slot_rng(4, engine.STREAM_ARRIVALS, t).poisson(
            cfg.mean_arrivals_per_slot, 8).astype(float)
        assert log.arrivals[t].tobytes() == arrivals.tobytes()
    assert len(sim.block.h2_edge) == 200 and sim.block_start == 0


def test_metrics_csv_independent_of_the_seed_word_caches(tmp_path):
    # a drlh:8 run whose seed-word caches are emptied before every slot, past
    # the first 1,024-slot block, writes the run directory of a run that
    # reuses them, every file byte for byte
    sc = engine.scenario_one(policy="drlh:8", seed=3, total_slots=1100)
    resolved = sc.apply(CFG)
    for name, clear in (("kept", False), ("cleared", True)):
        if clear:
            channel._run_words.cache_clear()
        sim = engine.Simulation(resolved, "drlh:8", 3)
        log = engine.MetricsLog(1100, resolved.system.num_devices)
        for t in range(1100):
            if clear:
                channel._run_words.cache_clear()
                channel._slot_block_words.cache_clear()
            sim.run_slot(t, log)
        engine.write_run_outputs(tmp_path / name, log, resolved, sc)
    kept, cleared = ({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
                     for name in ("kept", "cleared"))
    assert set(kept) == RUN_FILES and kept == cleared


@hs.composite
def _valid_runs(draw):
    """A short run of a random valid config: up to 16 devices, finite or
    no queue caps, wide v and arrival rates, any policy; the actor trains
    from early slots on."""
    n = draw(hs.integers(1, 16))
    arrival = draw(hs.floats(0.0, 2000.0))
    q_local = draw(hs.none() | hs.floats(0.01, 40.0).map(lambda x: arrival * 0.01 + x))
    system = SystemParams(
        num_devices=n, chi_edge=draw(hs.integers(0, n)), chi_cloud=draw(hs.integers(0, n)),
        arrival_rate_per_sec=arrival,
        q_max_local=q_local, q_max_edge=draw(hs.none() | hs.floats(0.01, 20.0)),
        lyapunov_v=draw(hs.floats(0.01, 200.0)))
    training = TrainingParams(
        total_slots=draw(hs.integers(1, 40)), train_start_slot=draw(hs.integers(0, 20)),
        train_interval=draw(hs.integers(1, 5)), batch_size=draw(hs.integers(1, 8)),
        memory_size=16, hidden_sizes=(16,))
    policy = draw(hs.sampled_from(["exhaustive", "random"])
                  | hs.integers(1, 32).map(lambda k: f"drlh:{k}"))
    return SystemConfig(system=system, training=training), policy, draw(hs.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(run=_valid_runs())
def test_short_runs_on_random_valid_configs(run):
    cfg, policy, seed = run
    assert validate_config(cfg) == []
    sim = engine.Simulation(cfg, policy, seed)
    log = sim.run()
    assert log.bound_violations == 0
    assert np.all(log.dpp <= log.bound + 1e-9)
    assert np.all(np.isfinite(log.p_total)) and np.all(np.isfinite(log.g_value))
    for name in ("q_local", "q_edge", "z_local", "z_edge"):
        for q in (getattr(log, name), getattr(sim, name)):
            assert np.all(np.isfinite(q)) and np.all(q >= 0), name
