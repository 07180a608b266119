import csv
import hashlib
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


@pytest.mark.parametrize("argv,flag", [
    (["--users", "3", "--chi-e", "5", "--chi-c", "1"], "--chi-e"),
    (["--users", "3", "--chi-e", "-1", "--chi-c", "1"], "--chi-e"),
    (["--users", "3", "--chi-e", "1", "--chi-c", "-1"], "--chi-c"),
    (["--users", "0", "--chi-e", "0", "--chi-c", "0"], "--users"),
])
def test_enumerate_refuses_what_validate_config_refuses(argv, flag, capsys):
    # the rules of `validate_config`, at the flag: no clamped count, no numpy error
    assert main(["enumerate", *argv, "--count-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} (")


def test_verify_offers_no_slots_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--slots", "3"])
    assert exc.value.code == 2
    assert "--slots" in capsys.readouterr().err


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
    assert {p.name for p in out.iterdir()} == {
        "config.json", "metrics.csv", "summary.json", "arrivals.npy", "q_local.npy",
        "q_edge.npy", "z_local.npy", "z_edge.npy", "u_edge.npy", "u_cloud.npy",
        "mu_local.npy", "mu_edge.npy", "h2_edge.npy", "h2_cloud.npy"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == {"name": "scenario1", "policy": "drlh:8", "seed": 3}
    assert summary.keys().isdisjoint({"seed", "policy", "config"})   # said once, elsewhere
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


def _run_files(outdir: Path) -> dict[str, bytes]:
    """Every file of a run directory, by name."""
    files = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert len(files) == 14   # config, metrics, summary and 11 per-device series
    return files


def test_simulate_rerun_is_bit_identical(tmp_path):
    args = ["simulate", "--scenario", "1", "--policy", "drlh:8",
            "--seed", "11", "--slots", "40"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _run_files(out1) == _run_files(out2)


def test_simulate_rerun_from_config_echo_is_bit_identical(tmp_path):
    out1 = tmp_path / "a"
    assert main(["simulate", "--scenario", "2", "--policy", "random",
                 "--seed", "7", "--slots", "30", "--out", str(out1)]) == 0
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(out1 / "config.json"),
                 "--out", str(out2)]) == 0
    assert _run_files(out1) == _run_files(out2)


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


def test_sweep_resolves_the_config_files_scenario_as_simulate_does(tmp_path, capsys):
    # at the file's own v, a sweep runs what `simulate` on the same file runs:
    # the file's policy (drlh:64) over its groups (arrival rate, caps 5 and 1)
    config = str(Path(__file__).resolve().parent.parent / "configs" / "scenario1_drlh64.json")
    assert main(["simulate", "--config", config, "--seed", "2", "--slots", "30",
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--config", config, "--param", "v", "--values", "2", "--seed", "2",
                 "--slots", "30", "--out", str(tmp_path / "sw")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    header, row = (tmp_path / "sw" / "sweep_v.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert row["policy"] == summary["scenario"]["policy"] == "drlh:64"
    assert float(row["tail_mean_power_w"]) == summary["tail_means"]["power_w"]


def _arrival_750_cap_5(tmp_path: Path) -> str:
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"system": {"arrival_rate_per_sec": 750.0,
                                           "q_max_local": 5.0}}))
    return str(path)


def test_sweep_checks_the_config_at_the_swept_values_only(tmp_path, capsys):
    # 750 tasks/s is too many for a local cap of 5, but the sweep replaces it
    out = tmp_path / "sw"
    assert main(["sweep", "--config", _arrival_750_cap_5(tmp_path), "--param", "arrival",
                 "--values", "100", "--policy", "random", "--slots", "5",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len((out / "sweep_arrival.csv").read_text().splitlines()) == 2


def test_sweep_refuses_a_bad_swept_value_of_a_file_before_the_first_run(
        tmp_path, capsys, monkeypatch):
    from semoff import engine

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "Simulation", no_run)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", _arrival_750_cap_5(tmp_path), "--param", "arrival",
                 "--values", "100,750", "--slots", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: arrival=750.0: q_max_local: must be at least the mean arrivals "
        "per slot (5.0 < 7.5)\n")
    assert not out.exists()


def test_sweep_refuses_a_fractional_user_count(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "users", "--values", "4,4.7", "--policy", "random",
                 "--slots", "5", "--out", str(out)]) == 2
    assert "users: num_devices must be an integer, got 4.7" in capsys.readouterr().err
    assert not out.exists()   # refused before the first run


def test_sweep_refuses_a_bad_value_before_the_first_run(tmp_path, capsys, monkeypatch):
    from semoff import engine

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(engine, "Simulation", no_run)
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "v", "--values", "1,2,-1", "--slots", "3000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "config error: v=-1.0: lyapunov_v: must lie in (0, inf), got -1.0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate", "--slots", "5"], ["verify"],
                                     ["sweep", "--param", "users", "--values", "8"]],
                         ids=["simulate", "verify", "sweep"])
def test_every_command_refuses_a_config_value_in_the_scenario_group(command, tmp_path, capsys):
    # the scenario group holds run settings only: a config value has its
    # own group, and set again in `scenario` it is an unknown key
    config = Path(__file__).resolve().parent.parent / "configs" / "scenario1_drlh64.json"
    data = json.loads(config.read_text())
    data["scenario"]["q_max_local"] = 5.0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: unknown key(s) in 'scenario': ['q_max_local']\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_verify_prints_the_audit_line_alone(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    assert capsys.readouterr().out == "solver-vs-grid: worst objective gap 1.421e-14 (ok)\n"


def _audit(tmp_path, capsys, *argv: str) -> list[dict]:
    """Run `verify --seed 0 --out tmp_path` with `argv` and read its audit table."""
    assert main(["verify", "--seed", "0", "--out", str(tmp_path), *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("solver-vs-grid: ") and out[0].endswith(" (ok)")
    assert out[1:] == [f"audit table -> {tmp_path / 'solver_audit.csv'}"]
    with open(tmp_path / "solver_audit.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_verify_audit_table_bytes_are_pinned(tmp_path, capsys):
    # 200 random states x 8 devices x 4 stages, each against a 10,001-point grid
    assert len(_audit(tmp_path, capsys)) == 200 * 8 * 4
    digest = hashlib.sha256((tmp_path / "solver_audit.csv").read_bytes()).hexdigest()
    assert digest == "d232e80049f1add7c876306a38ccb6871af2fe5bd86d6c1b598ae33ec8a0ffe7"


def test_verify_audits_the_config_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"system": {"num_devices": 3, "chi_edge": 2, "chi_cloud": 1,
                                           "lyapunov_v": 5.0}}))
    rows = _audit(tmp_path / "custom", capsys, "--config", str(path))
    default = _audit(tmp_path / "default", capsys)
    assert {row["device"] for row in rows} == {"0", "1", "2"}
    assert len(rows) == 200 * 3 * 4
    # every stage value off its lower bound differs from the default config's
    key = ("sample", "device", "stage")
    default_values = {tuple(r[k] for k in key): r["analytic_value"] for r in default}
    interior = [r for r in rows if float(r["analytic_value"]) != 0.0]
    assert len(interior) > len(rows) / 2
    assert all(default_values[tuple(r[k] for k in key)] != r["analytic_value"] for r in interior)


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
    assert err.startswith(f"config error: scenario.{field}: ")
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


_COMMANDS = {"simulate": ["simulate", "--slots", "5"], "verify": ["verify"],
             "sweep": ["sweep", "--param", "users", "--values", "8"]}


@pytest.mark.parametrize("spec", ["drlhfoo:4", "drlh:٣", "drlh:²"],
                         ids=["prefix", "arabic_indic_digit", "superscript_digit"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_policy_spec_is_refused_alike_as_flag_and_in_a_file(spec, command, tmp_path, capsys):
    # one `config error:` line, exit status 2 and no run, whichever way it comes
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": {"policy": spec}}))
    errors = []
    for given in (["--policy", spec], ["--config", str(path)]):
        assert main([*_COMMANDS[command], *given, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "out").exists()
        errors.append(captured.err)
    assert errors[0] == errors[1] == (f"config error: scenario.policy: unknown policy spec "
                                      f"{spec!r}; expected drlh:N with N >= 1, exhaustive "
                                      "or random\n")


@pytest.mark.parametrize("command", ["simulate", "verify", "sweep"])
def test_a_negative_seed_is_refused_alike_as_flag_and_in_a_file(command, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": {"seed": -1}}))
    for given in (["--seed", "-1"], ["--config", str(path)]):
        assert main([*_COMMANDS[command], *given, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: scenario.seed: must be an integer >= 0, got -1\n"
        assert captured.out == "" and not (tmp_path / "out").exists()


def test_a_flag_overrides_a_bad_run_setting_of_the_file(tmp_path, capsys):
    # the run settings are checked once resolved, the flags applied
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": {"policy": "drlhfoo:4", "seed": -1}}))
    assert main(["simulate", "--config", str(path), "--policy", "random", "--seed", "2",
                 "--slots", "5", "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["scenario"] == {"name": "custom", "policy": "random", "seed": 2}
