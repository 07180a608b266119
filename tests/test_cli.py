import json
from pathlib import Path

import pytest

from semoff.cli import main
from semoff.config import SystemConfig, save_config


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "--users", "8", "--chi-e", "4", "--chi-c", "2",
                 "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "1960"


def test_enumerate_streams_policies(capsys):
    assert main(["enumerate", "--users", "3", "--chi-e", "2", "--chi-c", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9  # C(3,2) * C(3,1)
    assert lines[0] == "110 100"


def test_enumerate_invalid_chi_cloud(capsys):
    assert main(["enumerate", "--users", "4", "--chi-e", "2", "--chi-c", "9",
                 "--count-only"]) == 2
    assert "chi_cloud" in capsys.readouterr().err


def test_simulate_missing_config_names_path(capsys):
    rc = main(["simulate", "--config", "/no/such/config.json"])
    assert rc == 2
    assert "/no/such/config.json" in capsys.readouterr().err


def test_simulate_rejects_bad_policy_spec(capsys):
    rc = main(["simulate", "--policy", "greedy", "--slots", "10"])
    assert rc == 2


def test_simulate_writes_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--scenario", "1", "--policy", "drlh:8",
               "--seed", "3", "--slots", "50", "--out", str(out)])
    assert rc == 0
    for name in ("config.json", "metrics.csv", "summary.json", "loss.csv"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 3
    assert summary["total_slots"] == 50
    assert summary["bound_violations"] == 0


@pytest.mark.parametrize("slots", [1, 2])
def test_one_and_two_slot_runs_write_strict_json(tmp_path, capsys, slots):
    # the stabilized tail holds at least the last slot, so no mean is NaN
    def no_constant(name):
        raise ValueError(f"summary.json holds {name}")

    for policy in ("exhaustive", "drlh:8"):
        out = tmp_path / policy.replace(":", "_")
        assert main(["simulate", "--scenario", "1", "--policy", policy,
                     "--slots", str(slots), "--out", str(out)]) == 0
        assert "nan" not in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text(), parse_constant=no_constant)
        assert summary["tail_start"] == slots - 1


def test_simulate_rerun_is_bit_identical(tmp_path):
    args = ["simulate", "--scenario", "1", "--policy", "drlh:8",
            "--seed", "11", "--slots", "40"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_simulate_rerun_from_config_echo_is_bit_identical(tmp_path):
    out1 = tmp_path / "a"
    assert main(["simulate", "--scenario", "2", "--policy", "random",
                 "--seed", "7", "--slots", "30", "--out", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(out1 / "config.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_simulate_invalid_scenario_combo(tmp_path, capsys):
    # scenario 1 caps the local queue at 5 tasks; 750 tasks/s violates the
    # mean-arrivals invariant
    cfg_path = tmp_path / "c.json"
    save_config(SystemConfig(), cfg_path)
    data = json.loads(cfg_path.read_text())
    data["system"]["arrival_rate_per_sec"] = 750.0
    data["system"]["q_max_local"] = 5.0
    cfg_path.write_text(json.dumps(data))
    rc = main(["simulate", "--config", str(cfg_path), "--slots", "10"])
    assert rc == 2
    assert "q_max_local" in capsys.readouterr().err


def test_config_with_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"system": {"warp_drive": 1}}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "warp_drive" in capsys.readouterr().err


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "sw"
    rc = main(["sweep", "--param", "users", "--values", "4,6", "--policy",
               "random", "--slots", "20", "--seed", "1", "--out", str(out)])
    assert rc == 0
    text = (out / "sweep_users.csv").read_text()
    assert "search_space_size" in text.splitlines()[0]
    assert len(text.strip().splitlines()) == 3


def test_verify_quick_passes(tmp_path, capsys):
    out = tmp_path / "audit"
    rc = main(["verify", "--quick", "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert (out / "solver_audit.csv").exists()
    assert "all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("group,name,value", [
    ("system", "q_max_local", "5"),
    ("system", "arrival_rate_per_sec", "100"),
    ("semantic", "epsilon_min", "0.9"),
    ("channel", "hotspot_radius_min", "50"),
    ("channel", "shadowing_std_db", "8"),
    ("system", "lyapunov_v", True),
    ("training", "feature_gain_offset_edge_db", "x"),
    ("system", "task_flops_encode", "1.2e9"),   # task_flops_total reads it
    ("training", "hidden_sizes", 5),
    ("system", "slot_length", None),
])
def test_simulate_reports_wrong_types(tmp_path, capsys, group, name, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({group: {name: value}}))
    rc = main(["simulate", "--config", str(path), "--slots", "10",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {name}: must be" in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


@pytest.mark.parametrize("scenario,field", [
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"policy": 5}, "policy"),
    ({"policy": "greedy"}, "policy"),
    ({"name": 5}, "name"),
])
def test_simulate_reports_bad_scenario_values(tmp_path, capsys, scenario, field):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": scenario}))
    rc = main(["simulate", "--config", str(path), "--slots", "10",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: scenario.{field}: " in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


def test_simulate_reports_rician_factor_out_of_float_range(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"channel": {"rician_k_db": 1e20}}))
    rc = main(["simulate", "--config", str(path), "--slots", "10",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: rician_k_db: must keep 10 ** (rician_k_db / 10) finite" in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


@pytest.mark.parametrize("name", ["pathloss_intercept_db", "pathloss_slope_db"])
def test_simulate_reports_pathloss_gain_out_of_float_range(name, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"channel": {name: 10 ** 20}}))
    rc = main(["simulate", "--config", str(path), "--slots", "10",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert ("config error: pathloss_intercept_db, pathloss_slope_db: must keep the "
            "pathloss gain finite and > 0 from 50 to 650 m") in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


@pytest.mark.parametrize("group,name", [("channel", "shadowing_std_db"),
                                        ("semantic", "accuracy_midpoint_db")])
def test_simulate_reports_overflowing_shadowing_and_midpoint(group, name, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({group: {name: 1e20}}))
    rc = main(["simulate", "--config", str(path), "--slots", "10",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {name}:" in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()
