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
# The per-device series, each written as `<name>.npy`, in the order of the
# wide metrics.csv that the pinned hashes were recorded from (one column
# `<name>_<i>` per device).
WIDE_SERIES = ("arrivals", "q_local", "q_edge", "z_local", "z_edge", "u_edge", "u_cloud",
               "mu_local", "mu_edge", "h2_edge", "h2_cloud")
RUN_FILES = {"config.json", "metrics.csv", "summary.json",
             *(f"{name}.npy" for name in WIDE_SERIES)}


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
    for name in WIDE_SERIES:
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
    terms = queueing.bound_terms(state.cloud_cap[None], zeros[None], CFG)   # one slot
    nxt, _, powers, _, _ = engine.step(state, l_state, solution(3.0 + 3.5e-9, 2.0 + 2.5e-9),
                                       zeros, CFG, terms, 0)
    assert np.all(nxt[:2] == 0.0)   # the next q_local and q_edge rows
    assert powers == (0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(critic.FeasibilityError, match="local backlog"):
        engine.step(state, l_state, solution(3.0 + 5e-9, 2.0), zeros, CFG, terms, 0)
    with pytest.raises(critic.FeasibilityError, match="edge backlog"):
        engine.step(state, l_state, solution(3.0, 2.0 + 4e-9), zeros, CFG, terms, 0)


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


def _wide_metrics_sha256(outdir):
    """sha256 of the wide metrics.csv rebuilt from a run directory: its
    metrics.csv with the per-device columns of its `.npy` files (floats as
    `repr`) after `slot`, as metrics.csv was written when the hashes below
    were recorded."""
    lines = (outdir / "metrics.csv").read_bytes().decode().split("\r\n")[:-1]
    series = [np.load(outdir / f"{name}.npy") for name in WIDE_SERIES]
    n = series[0].shape[1]
    header = lines[0].split(",")
    wide = [[header[0], *(f"{name}_{i}" for name in WIDE_SERIES for i in range(n)),
             *header[1:]]]
    for line, *rows in zip(lines[1:], *series, strict=True):
        slot, rest = line.split(",", 1)
        wide.append([slot, *(repr(v) for row in rows for v in row.tolist()), rest])
    return hashlib.sha256("".join(",".join(r) + "\r\n" for r in wide).encode()).hexdigest()


def _pinned_run_sha256(cfg, scenario, outdir):
    log = engine.run_scenario(cfg, scenario)
    engine.write_run_outputs(outdir, log, scenario.apply(cfg), scenario)
    return log, _wide_metrics_sha256(outdir)


# sha256 of the wide metrics.csv after 300 slots, seed 1 (I=8 on scenario 1,
# I=12 on scenario 2), recorded with Python 3.11 and numpy 2.4 on x86-64.
PINNED_METRICS_SHA256 = {
    ("drlh:64", 8, 1): "06dbc0c2f263e397f4b34418a3bc5ab3a36363b567ee8c700edb268336aae1ec",
    ("exhaustive", 8, 1): "e4c0378b410976698cba9bd9c74bf39e6fae26e1b8c9bc63f0cad93ca631ad58",
    ("random", 8, 1): "2a44e7393256d3d7dbcff8c8206467c05de009c80b5beb47a7871ba9f7cd5f79",
    ("exhaustive", 12, 2): "d3934b9833d3858587c267d113fef288e199c234b38c930fe290890e717bb456",
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
    _, digest = _pinned_run_sha256(cfg, preset(policy=policy, seed=1, total_slots=300),
                                   tmp_path)
    assert digest == PINNED_METRICS_SHA256[policy, devices, scenario]


# sha256 of the wide metrics.csv after 1,100 slots, seed 1, past the first 1,024-slot
# channel block; the first two recorded, like the hashes above, before
# channels were drawn a block at a time, the last two before arrivals, the
# drift bound's queue-free terms and the actor's gain features were.
PINNED_BLOCK_METRICS_SHA256 = {
    ("exhaustive", 12, 2): "4460c76558b1eafc1130ba2b912672f9a719950a6f773ba8feae8b5d3016a071",
    ("drlh:8", 8, 1): "7f705a128bbe58a31733a326c036fe78e7561de706dfd9d8ed1fd3cb07bc66d4",
    ("drlh:64", 8, 1): "d665a8ae79131a0c567139faa29d08a0ddd5698ad06032af92e69355d2a002cb",
    ("random", 8, 1): "3095614fbac2279e06575c64db35bfa62641b0116676dec22eefe8f31035aba1",
}


@pytest.mark.parametrize("policy,devices,scenario", sorted(PINNED_BLOCK_METRICS_SHA256))
def test_metrics_csv_bytes_pinned_across_a_block_boundary(policy, devices, scenario, tmp_path):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices))
    preset = engine.scenario_one if scenario == 1 else engine.scenario_two
    _, digest = _pinned_run_sha256(cfg, preset(policy=policy, seed=1, total_slots=1100),
                                   tmp_path)
    assert digest == PINNED_BLOCK_METRICS_SHA256[policy, devices, scenario]


# sha256 of the wide metrics.csv after 300 slots, seed 1, scenario 1, at shapes whose
# association DP walks wider windows than the defaults (chi = (16, 8) at
# I=40) or an odd device count (drlh:64 at I=13); recorded before the DP
# walked a per-shape plan and the combos were solved untiled.
PINNED_SHAPE_METRICS_SHA256 = {
    ("exhaustive", 40, 16, 8): "0954b7bc6b768e42c189a8fda00194b1e658d9d035821c0588509ca11fede623",
    ("drlh:64", 13, 4, 2): "65df37f069f960b6e4dbe97ec0ee7889ef6fdccf0631edff261eda2850e76972",
}


@pytest.mark.parametrize("policy,devices,chi_e,chi_c", sorted(PINNED_SHAPE_METRICS_SHA256))
def test_metrics_csv_bytes_pinned_at_other_shapes(policy, devices, chi_e, chi_c, tmp_path):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices,
                                      chi_edge=chi_e, chi_cloud=chi_c))
    _, digest = _pinned_run_sha256(
        cfg, engine.scenario_one(policy=policy, seed=1, total_slots=300), tmp_path)
    assert digest == PINNED_SHAPE_METRICS_SHA256[policy, devices, chi_e, chi_c]


# sha256 of the wide metrics.csv after 300 slots, seed 1, scenario 1's arrivals with
# one queue cap set and the other unbounded, so one virtual queue moves and
# the other stays at zero; recorded before the queues were held in one (4, I)
# array.
PINNED_MIXED_CAP_METRICS_SHA256 = {
    ("exhaustive", 8, 5.0, None): "6d25317cd876ef65017f26b6417eab96486df2958668c06a90585b5838491b69",
    ("exhaustive", 8, None, 1.0): "365707cad628bdf937a52579f3298ebe480a3327e923f8af99da524c9c10cfb3",
    ("drlh:8", 13, 5.0, None): "02322429dcdb9220dbeffdb43f5316e676fdb71fb95ebfa72ee68a192d437dcb",
    ("drlh:8", 13, None, 1.0): "3ecb906e93aa5874c59fa06b8d52c67b08a0491f25f99523736edfbb7f572c74",
}


@pytest.mark.parametrize("policy,devices,q_max_local,q_max_edge",
                         list(PINNED_MIXED_CAP_METRICS_SHA256))
def test_metrics_csv_bytes_pinned_with_one_queue_cap(policy, devices, q_max_local,
                                                     q_max_edge, tmp_path):
    cfg = replace(CFG, system=replace(CFG.system, num_devices=devices))
    sc = engine.Scenario(name="mixed", policy=policy, seed=1, q_max_local=q_max_local,
                         q_max_edge=q_max_edge, total_slots=300)
    log, digest = _pinned_run_sha256(cfg, sc, tmp_path)
    assert log.z_local.any() == (q_max_local is not None)
    assert log.z_edge.any() == (q_max_edge is not None)
    assert digest == PINNED_MIXED_CAP_METRICS_SHA256[policy, devices, q_max_local, q_max_edge]


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
