import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semoff import config
from semoff.config import (ConfigError, Policy, SystemConfig, SystemParams, TrainingParams,
                           config_from_dict, config_to_dict, load_config,
                           save_config, validate_config)


def test_default_config_is_valid():
    assert validate_config(SystemConfig()) == []


def test_chi_edge_above_device_count_is_reported():
    # a cap too large for a float too: the bandwidth split by it is not computed
    for chi in (9, 10 ** 400):
        cfg = SystemConfig(system=SystemParams(num_devices=8, chi_edge=chi))
        problems = validate_config(cfg)
        assert any("chi_edge exceeds device count" in p for p in problems)


def test_task_flops_mismatch_names_the_field():
    # the total derives from encode + decode; a file cannot set it
    with pytest.raises(ConfigError, match="task_flops_total"):
        config_from_dict({"system": {"task_flops_total": 1.0}})


def test_task_flops_total_defaults_to_sum():
    cfg = SystemConfig()
    assert cfg.system.task_flops_total == pytest.approx(4.8e9)
    params = SystemParams(task_flops_encode=2.0e9, task_flops_decode=3.0e9)
    assert params.task_flops_total == 5.0e9


def test_q_max_below_mean_arrivals_is_reported():
    cfg = SystemConfig(system=SystemParams(arrival_rate_per_sec=750.0,
                                           q_max_local=5.0))
    problems = validate_config(cfg)
    assert any("q_max_local" in p for p in problems)


def test_unbounded_queue_caps_pass_validation():
    cfg = SystemConfig(system=SystemParams(q_max_local=None, q_max_edge=None,
                                           arrival_rate_per_sec=750.0))
    assert validate_config(cfg) == []


def test_roundtrip_through_file(tmp_path):
    cfg = SystemConfig()
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_roundtrip_preserves_overrides(tmp_path):
    cfg = SystemConfig(system=SystemParams(num_devices=6, q_max_edge=None,
                                           lyapunov_v=4.0))
    path = tmp_path / "config.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert loaded.system.q_max_edge is None


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        config_from_dict({"nonsense": {}})


def test_unknown_group_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"system": {"num_devices": 8, "power_level": 9000}})


def test_removed_num_candidates_key_is_refused_by_name():
    # the N of drlh:N comes from the policy spec; the old training key is unknown
    with pytest.raises(ConfigError, match=r"^unknown key\(s\) in 'training': \['num_candidates'\]$"):
        config_from_dict({"training": {"num_candidates": 64}})


def test_scenario_group_is_allowed():
    cfg = config_from_dict({"scenario": {"name": "x"}})
    assert cfg == SystemConfig()


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.json"):
        load_config(tmp_path / "nope.json")


@settings(max_examples=40, deadline=None)
@given(devices=st.integers(1, 12),
       v=st.floats(0.1, 16.0, allow_nan=False),
       arrival=st.floats(0.0, 1000.0, allow_nan=False),
       unbounded=st.booleans())
def test_dict_roundtrip_field_by_field(devices, v, arrival, unbounded):
    cfg = SystemConfig(system=SystemParams(
        num_devices=devices, lyapunov_v=v, arrival_rate_per_sec=arrival,
        q_max_local=None if unbounded else 20.0))
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert again == cfg
    for group in ("system", "channel", "semantic", "training"):
        for f in dataclasses.fields(getattr(cfg, group)):
            assert getattr(getattr(again, group), f.name) == \
                getattr(getattr(cfg, group), f.name)


def test_slot_state_check():
    import numpy as np

    from semoff import channel

    def initial():
        return channel.slot_state(SystemConfig(), np.ones(4), np.ones(4),
                                  *(np.zeros(4) for _ in range(4)))

    state = initial()
    state.check()
    state.q_local = state.q_local.copy()
    state.q_local[1] = -0.5
    with pytest.raises(ValueError, match="q_local"):
        state.check()
    for name in ("z_edge", "edge_cap", "cloud_cap"):
        short = initial()
        # refused by the check, or for a queue row as soon as it is set
        with pytest.raises(ValueError, match=name):
            setattr(short, name, getattr(short, name)[:3])
            short.check()
    for name, value in (("q_edge", np.nan), ("z_local", -1e-12),
                        ("z_edge", np.inf), ("q_local", -np.inf)):
        state = initial()
        getattr(state, name)[2] = value
        with pytest.raises(ValueError, match=f"SlotState.{name}:"):
            state.check()


def test_per_device_bandwidth_split():
    cfg = SystemConfig()
    assert cfg.bandwidth_edge == pytest.approx(1e6 / 4)
    assert cfg.bandwidth_cloud == pytest.approx(5e4 / 2)


@pytest.mark.parametrize("n", [1, 8, 63, 64, 70, 256])
def test_policy_key_is_device_zero_lsb_at_any_size(n):
    rng = np.random.default_rng(n)
    edge, cloud = rng.random(n) < 0.5, rng.random(n) < 0.2
    e, c = Policy(rho_edge=edge, rho_cloud=cloud).key()
    assert e == sum(1 << i for i in range(n) if edge[i])
    assert c == sum(1 << i for i in range(n) if cloud[i])
    assert Policy(rho_edge=np.zeros(n, bool), rho_cloud=np.ones(n, bool)).key() \
        == (0, (1 << n) - 1)


@pytest.mark.parametrize("cfg,field", [
    (SystemConfig(training=TrainingParams(hidden_sizes=())), "hidden_sizes"),
    (SystemConfig(training=TrainingParams(hidden_sizes=(120, 0))), "hidden_sizes"),
    (SystemConfig(training=TrainingParams(hidden_sizes=(-3,))), "hidden_sizes"),
    (SystemConfig(training=TrainingParams(candidate_noise_std=-0.1)), "candidate_noise_std"),
    (SystemConfig(training=TrainingParams(candidate_noise_std=float("nan"))),
     "candidate_noise_std"),
    (SystemConfig(system=SystemParams(num_devices=8.5)), "num_devices"),
    (SystemConfig(system=SystemParams(num_devices=True)), "num_devices"),
    (SystemConfig(system=SystemParams(chi_edge=2.0)), "chi_edge"),
    (SystemConfig(system=SystemParams(chi_cloud="2")), "chi_cloud"),
    (SystemConfig(training=TrainingParams(total_slots=100.0)), "total_slots"),
    (SystemConfig(training=TrainingParams(batch_size=64.5)), "batch_size"),
    (SystemConfig(training=TrainingParams(train_start_slot=-1)), "train_start_slot"),
    (SystemConfig(training=TrainingParams(train_interval=False)), "train_interval"),
])
def test_malformed_values_are_reported_not_raised(cfg, field):
    problems = validate_config(cfg)
    assert any(p.startswith(field) for p in problems), problems


def _field_problems(group, name, value):
    """The messages of `value` in field `name` of `group`, all else default."""
    base = SystemConfig()
    params = dataclasses.replace(getattr(base, group), **{name: value})
    return [p for p in validate_config(dataclasses.replace(base, **{group: params}))
            if p.startswith(f"{name}:")]


_GROUP_OF = {f.name: (group, f.type) for group in ("system", "channel", "semantic", "training")
             for f in dataclasses.fields(getattr(SystemConfig(), group))}


@pytest.mark.parametrize("name,interval", list(config._RANGES.items()))
def test_each_field_refuses_just_past_each_end_of_its_range(name, interval):
    # just past a closed end is the next float out (the integer below or
    # above for a count), just past an open end is the end itself, and past
    # no bound (inf) a number field still refuses inf; a closed end passes,
    # and so does a null wherever the type admits one
    group, kind = _GROUP_OF[name]
    integer = kind in ("int", "tuple[int, ...]")
    wrap = (lambda v: (v,)) if kind.startswith("tuple") else (lambda v: v)
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    for end, closed, out in ((lo, interval[0] == "[", -1), (hi, interval[-1] == "]", 1)):
        if closed:
            assert _field_problems(group, name, wrap(int(end) if integer else end)) == []
            past = int(end) + out if integer else math.nextafter(end, out * math.inf)
        elif integer and math.isinf(end):
            continue   # no integer is infinite
        else:
            past = int(end) if integer else end
        assert any(interval in p for p in _field_problems(group, name, wrap(past))), past
    if kind.startswith("Optional"):
        assert _field_problems(group, name, None) == []


@pytest.mark.parametrize("group,name,value,ok", [
    ("system", "num_devices", 1, True), ("system", "num_devices", 0, False),
    ("system", "arrival_rate_per_sec", 0.0, True), ("system", "arrival_rate_per_sec", -5e-324, False),
    ("system", "chi_cloud", 0, True), ("system", "chi_cloud", -1, False),
    ("system", "q_max_edge", 5e-324, True), ("system", "q_max_edge", 0.0, False),
    ("channel", "shadowing_std_db", 0.0, True), ("channel", "shadowing_std_db", -5e-324, False),
    ("semantic", "epsilon_min", 5e-324, True), ("semantic", "epsilon_min", 0.0, False),
    ("semantic", "accuracy_ceiling", 1.0, True), ("semantic", "accuracy_ceiling", 1.0000000000000002, False),
    ("training", "train_start_slot", 0, True), ("training", "train_start_slot", -1, False),
    ("training", "candidate_noise_std", 0.0, True), ("training", "candidate_noise_std", -5e-324, False),
    ("training", "hidden_sizes", (1, 80), True), ("training", "hidden_sizes", (120, 0), False),
])
def test_range_ends_by_hand(group, name, value, ok):
    # the ends of the ranges the config check has always had, written out
    assert (_field_problems(group, name, value) == []) == ok


def _float_fields():
    for group in ("system", "channel", "semantic", "training"):
        for f in dataclasses.fields(getattr(SystemConfig(), group)):
            if "float" in f.type:
                yield group, f.name, f.type.startswith("Optional")


@pytest.mark.parametrize("group,name,optional", list(_float_fields()))
def test_wrong_type_in_any_float_field_is_reported(group, name, optional):
    base = SystemConfig()
    # an integer too large for a float is not a number here either
    for value in ["5", True, float("nan"), float("inf"), -float("inf"), 10 ** 400,
                  -10 ** 400] + ([] if optional else [None]):
        params = dataclasses.replace(getattr(base, group), **{name: value})
        problems = validate_config(dataclasses.replace(base, **{group: params}))
        if type(value) is float:     # a number, but not a finite one
            assert any(name in p for p in problems), (value, problems)
        else:
            assert any(p.startswith(f"{name}: must be a number") for p in problems), \
                (value, problems)


def test_every_field_type_is_checked():
    # every field of every group is typed, bools are not integers, and a
    # null is reported (not raised) where the field cannot be null
    cfg = config_from_dict({
        "system": {"num_devices": True, "slot_length": None},
        "channel": {"rician_k_db": None},
        "semantic": {"sentence_len": "10"},
        "training": {"hidden_sizes": 5, "total_slots": 1.0}})
    problems = validate_config(cfg)
    for name in ("num_devices", "slot_length", "rician_k_db", "sentence_len",
                 "hidden_sizes", "total_slots"):
        assert sum(p.startswith(f"{name}: must be") for p in problems) == 1, (name, problems)
    assert len(problems) == 6


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("group,name,optional", list(_float_fields()))
def test_huge_integer_in_any_float_field_runs_or_is_named(group, name, optional):
    # 10**20 as a JSON integer: an int64 overflow if it reached numpy as an
    # int; a run that passes validation meets no overflow or invalid value
    from semoff import engine

    cfg = config_from_dict({group: {name: 10 ** 20}})
    assert type(getattr(getattr(cfg, group), name)) is float
    problems = validate_config(cfg)
    fields = {f.name for g in ("system", "channel", "semantic", "training")
              for f in dataclasses.fields(getattr(cfg, g))}
    if problems:
        for p in problems:
            assert re.match(r"\w+", p).group() in fields, p
        return
    for policy in ("drlh:4", "exhaustive"):
        sim = engine.Simulation(cfg, policy, seed=1)
        log = engine.MetricsLog(3, cfg.system.num_devices)
        for t in range(3):
            sim.run_slot(t, log)
        assert np.all(np.isfinite(sim.q_local)) and np.all(np.isfinite(sim.q_edge))


@pytest.mark.parametrize("name", ["pathloss_intercept_db", "pathloss_slope_db"])
def test_pathloss_gain_beyond_float_range_is_named(name):
    for value in (1e20, -1e20):
        cfg = config_from_dict({"channel": {name: value}})
        assert [p.split(":")[0] for p in validate_config(cfg)] == \
            ["pathloss_intercept_db, pathloss_slope_db"]
    # a hotspot rim so close that the distance in km rounds to 0
    cfg = config_from_dict({"channel": {"hotspot_radius_min": 5e-324}})
    assert [p.split(":")[0] for p in validate_config(cfg)] == \
        ["pathloss_intercept_db, pathloss_slope_db"]
    # inside the range at every device distance, near and far (a gain of
    # 1e300 at -3000 dB is named by the link-SNR rule instead)
    for channel in ({"pathloss_intercept_db": 3000.0}, {"pathloss_intercept_db": -2800.0},
                    {"pathloss_slope_db": -37.6}, {"cloud_distance": 49.0}):
        assert validate_config(config_from_dict({"channel": channel})) == []
    # a cloud station on or between the rims can have a device next to it,
    # where no slope or intercept keeps the gain finite and > 0
    for cloud_distance in (50.0, 100.0, 150.0):
        cfg = config_from_dict({"channel": {"cloud_distance": cloud_distance}})
        assert [p.split(":")[0] for p in validate_config(cfg)] == ["cloud_distance"]
    # the nearest cloud distance decides (10 m here; 50 m, the edge's, at 200 m) ...
    for cloud_distance, ok in ((160.0, False), (200.0, True)):
        cfg = config_from_dict({"channel": {"cloud_distance": cloud_distance,
                                            "pathloss_slope_db": 2000.0}})
        assert (validate_config(cfg) == []) == ok
    # ... or the farthest, 6 km from the cloud station
    for slope, ok in ((4500.0, False), (3500.0, True)):
        cfg = config_from_dict({"channel": {"hotspot_radius_min": 900.0,
                                            "hotspot_radius_max": 1000.0,
                                            "cloud_distance": 5000.0,
                                            "pathloss_slope_db": slope}})
        assert (validate_config(cfg) == []) == ok


def test_pathloss_rule_is_the_gain_at_every_device_distance():
    # the rule accepts a config exactly when `channel.pathloss_gain`, and the
    # SNR it gives at p_tx_max over either link's per-device bandwidth, are
    # finite and > 0 on the hotspot's inner and outer rims and along the x
    # axis between them (through the cloud station at 100 m), seen from
    # either server
    from semoff import channel

    points = np.concatenate([r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
                           for r in (50.0, 150.0)] + [np.linspace(50.0, 150.0, 101)])
    for cloud_distance in (100.0, 160.0, 500.0, 5000.0):
        distances = np.abs(np.concatenate([points, points - cloud_distance]))
        for a in np.linspace(-4000.0, 4000.0, 21).tolist():
            for b in np.linspace(-6000.0, 6000.0, 31).tolist():
                cfg = config_from_dict({"channel": {"cloud_distance": cloud_distance,
                                                    "pathloss_intercept_db": a,
                                                    "pathloss_slope_db": b}})
                with np.errstate(all="ignore"):
                    gain = channel.pathloss_gain(distances, cfg)
                    snr = [cfg.channel.p_tx_max * gain / (bandwidth * cfg.channel.noise_psd)
                           for bandwidth in (cfg.bandwidth_edge, cfg.bandwidth_cloud)]
                ok = all(np.all((x > 0) & (x < np.inf)) for x in [gain] + snr)
                assert (validate_config(cfg) == []) == ok, (cloud_distance, a, b)


@pytest.mark.parametrize("name,value,links", [("pathloss_intercept_db", -3000.0, ["edge", "cloud"]),
                                              ("bw_cloud_total", 1e-300, ["cloud"]),
                                              ("bw_edge_total", 1e-300, ["edge"])])
def test_link_snr_beyond_float_range_is_named(name, value, links):
    # each passed the pathloss rule and overflowed in the first slot's link
    # caps (`power.semantic_volume_cap`, `power.cloud_offload_cap`)
    problems = validate_config(config_from_dict({"channel": {name: value}}))
    assert [p.split(",")[0] for p in problems] == [f"bw_{link}_total" for link in links]
    assert all("SNR at p_tx_max" in p for p in problems)


def _smallest_admitted(name, channel):
    """The smallest value of `name` that `validate_config` admits next to
    `channel`, to 1 part in 1e12, by bisection on its logarithm."""
    lo, hi = 1e-320, 1.0
    while hi / lo > 1 + 1e-12:
        mid = math.exp((math.log(lo) + math.log(hi)) / 2)
        if validate_config(config_from_dict({"channel": {**channel, name: mid}})):
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("link,channel", [
    pytest.param("edge", {"bw_edge_total": 9.0e-297}, id="edge-9e-297"),
    pytest.param("edge", {"bw_edge_total": None, "pathloss_slope_db": 0.0}, id="edge-flat"),
    pytest.param("cloud", {"bw_cloud_total": None, "pathloss_slope_db": 0.0}, id="cloud-flat")])
def test_fading_past_the_float_range_saturates_the_link_snr(link, channel, seed):
    # at (or near) the smallest bandwidth the link-SNR rule admits, a fading
    # peak carries the SNR at p_tx_max past the float range; both link caps
    # take it saturated (with no pathloss slope, every device sits at the
    # rule's gain, so the cloud link overflows too), and the run stays finite
    from semoff import engine

    name = f"bw_{link}_total"
    if channel[name] is None:
        channel = {**channel, name: _smallest_admitted(name, channel)}
    cfg = config_from_dict({"channel": channel, "training": {"total_slots": 200}})
    assert validate_config(cfg) == []
    log = engine.run_scenario(cfg, engine.Scenario(policy="exhaustive", seed=seed))
    bandwidth = cfg.bandwidth_edge if link == "edge" else cfg.bandwidth_cloud
    with np.errstate(over="ignore"):
        snr = cfg.channel.p_tx_max * getattr(log, f"h2_{link}") / (bandwidth * cfg.channel.noise_psd)
    assert np.isinf(snr).any() or (link, seed) == ("edge", 1)   # seed 1 stays in range
    for name in ("bound", "dpp", "p_total", "g_value", "u_edge", "u_cloud", "q_local"):
        assert np.all(np.isfinite(getattr(log, name))), name
    assert log.bound_violations == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_link_caps_take_an_snr_past_the_float_range():
    from semoff import power

    cfg = SystemConfig()
    # the cloud cap saturates at log2(1 + the largest float) = 1,024 bits/s/Hz
    cap = power.cloud_offload_cap(np.array([1e300, np.inf]), cfg)
    assert cap.tolist() == [cfg.system.slot_length * cfg.bandwidth_cloud / 400.0 * 1024.0] * 2
    # the semantic cap was already at the curve's backed-off ceiling
    strong = power.semantic_volume_cap(1e-3, cfg)
    assert power.semantic_volume_cap(np.array([1e300, np.inf]), cfg).tolist() == [strong] * 2


def test_rician_k_factor_beyond_float_range_is_named():
    for k_db in (1e20, 3083.0):
        cfg = config_from_dict({"channel": {"rician_k_db": k_db}})
        assert [p.split(":")[0] for p in validate_config(cfg)] == ["rician_k_db"]
    # just inside the range: the amplitudes stay finite
    cfg = config_from_dict({"channel": {"rician_k_db": 3080.0}})
    assert validate_config(cfg) == []


@pytest.mark.parametrize("group,name,value", [("channel", "shadowing_std_db", 100.0),
                                              ("semantic", "accuracy_midpoint_db", 3000.0),
                                              ("semantic", "accuracy_midpoint_db", -3000.0)])
def test_extreme_shadowing_and_midpoint_run_without_float_errors(group, name, value):
    from semoff import engine

    cfg = config_from_dict({group: {name: value}})
    assert validate_config(cfg) == []
    for policy in ("exhaustive", "drlh:4"):
        with np.errstate(over="raise", invalid="raise"):
            sim = engine.Simulation(cfg, policy, seed=1)
            log = engine.MetricsLog(50, cfg.system.num_devices)
            for t in range(50):
                sim.run_slot(t, log)
        assert np.all(np.isfinite(sim.q_local)) and np.all(np.isfinite(sim.q_edge))


@pytest.mark.parametrize("group,name,value", [("channel", "shadowing_std_db", 1e20),
                                              ("channel", "shadowing_std_db", 100.5),
                                              ("semantic", "accuracy_midpoint_db", 1e20),
                                              ("semantic", "accuracy_midpoint_db", 3100.0)])
def test_shadowing_and_midpoint_beyond_float_range_are_named(group, name, value):
    cfg = config_from_dict({group: {name: value}})
    assert [p.split(":")[0] for p in validate_config(cfg)] == [name]
