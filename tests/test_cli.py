"""End-to-end CLI behavior: subcommands, exit codes, emitted files."""

import os
import subprocess
import sys
from dataclasses import fields

import pytest

import helios
from helios.cli import _PROFILE_FLAGS, cli_main
from helios.config import Config, save_config
from helios.data import (SyntheticProfile, generate_synthetic, load_fit_samples,
                         load_hourly_csv, write_scenario_csv)
from helios.renewable import DEFAULT_COEFFS, fit
from test_io import FLOAT_KEYS, field_name


@pytest.fixture
def fast_config(tmp_path):
    """Small optimizer budgets so CLI runs stay quick."""
    path = tmp_path / "fast.cfg"
    text_overrides = (
        "horizon_steps = 3\n"
        "evo_population = 20\n"
        "evo_generations = 10\n"
        "evo_local_search_budget = 20\n"
        "aco_ants = 10\n"
        "aco_iterations = 10\n"
    )
    save_config(Config(), str(path))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text_overrides)
    return str(path)


def test_generate_then_simulate_smoke(tmp_path):
    csv = tmp_path / "s.csv"
    out = tmp_path / "run"
    assert cli_main(["generate-data", "--days", "1", "--seed", "7",
                     "--out", str(csv)]) == 0
    assert load_hourly_csv(str(csv)).steps == 24
    assert cli_main(["simulate", "--strategy", "renewable_first",
                     "--data", str(csv), "--out-dir", str(out)]) == 0
    trace = (out / "trace_renewable_first.csv").read_text().strip().splitlines()
    assert len(trace) == 25  # header + 24 rows
    assert (out / "summary_renewable_first.kv").exists()
    assert (out / "summary_renewable_first.txt").exists()


def test_unknown_strategy_exits_1_and_echoes_name(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    cli_main(["generate-data", "--days", "1", "--seed", "1", "--out", str(csv)])
    code = cli_main(["simulate", "--strategy", "quantum_annealer",
                     "--data", str(csv), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "quantum_annealer" in capsys.readouterr().err


def test_compare_lists_all_seven_strategies(tmp_path, fast_config):
    csv = tmp_path / "s.csv"
    out = tmp_path / "cmp"
    cli_main(["generate-data", "--days", "1", "--seed", "3", "--out", str(csv)])
    code = cli_main(["compare", "--config", fast_config, "--data", str(csv),
                     "--strategies", "all", "--out-dir", str(out)])
    assert code == 0
    kv = (out / "comparison.kv").read_text()
    totals = [line for line in kv.splitlines() if ".total_cost" in line]
    assert len(totals) == 7


def test_compare_refuses_a_repeated_strategy(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli_main(["compare", "--data", "synthetic", "--out-dir", str(out),
                     "--strategies", "myopic_mpc,renewable_first,MYOPIC_MPC"])
    assert code == 1
    assert "'myopic_mpc' is requested twice" in capsys.readouterr().err
    assert not out.exists()


def test_fit_recovers_default_coefficients(tmp_path):
    csv = tmp_path / "fit.csv"
    frag = tmp_path / "renewable.cfg"
    # varied wind keeps the design full rank; with wind >= 5 m/s the raw
    # model output stays inside the clamp band, so recovery is exact
    cli_main(["generate-data", "--days", "3", "--seed", "5", "--out", str(csv),
              "--wind-jitter", "3.0", "--with-renewable"])
    assert cli_main(["fit", str(csv), "--out", str(frag)]) == 0
    from helios.config import load_config
    fitted = load_config(str(frag)).renewable
    for got, want in zip((fitted.a1, fitted.a2, fitted.a3, fitted.a4),
                         DEFAULT_COEFFS):
        assert got == pytest.approx(want, rel=1e-6)


def test_fit_fragment_is_the_five_renewable_keys(tmp_path, capsys):
    csv, frag = tmp_path / "fit.csv", tmp_path / "renewable.cfg"
    cli_main(["generate-data", "--days", "2", "--wind-jitter", "2", "--with-renewable",
              "--out", str(csv)])
    capsys.readouterr()
    assert cli_main(["fit", str(csv), "--p-rated", "500", "--out", str(frag)]) == 0
    m = fit(load_fit_samples(str(csv)), p_rated=500.0)
    want = ("# fitted renewable model\n"
            f"renewable_a1 = {m.a1!r}\n"
            f"renewable_a2 = {m.a2!r}\n"
            f"renewable_a3 = {m.a3!r}\n"
            f"renewable_a4 = {m.a4!r}\n"
            "renewable_p_rated_kw = 500.0\n")
    assert capsys.readouterr().out == want
    assert frag.read_bytes() == want.encode()


PROFILE_VALUES = {"base_load_kw": 120.5, "bump_load_kw": 200.25, "bump_start_hour": 6,
                  "bump_end_hour": 20, "irradiance_peak": 0.8, "wind_base_ms": 9.5,
                  "wind_jitter_ms": 2.5}


def test_every_profile_field_has_a_flag():
    assert set(_PROFILE_FLAGS) == {f.name for f in fields(SyntheticProfile)}
    assert set(PROFILE_VALUES) == set(_PROFILE_FLAGS)
    assert all(PROFILE_VALUES[k] != v for k, v in vars(SyntheticProfile()).items())


@pytest.mark.parametrize("field", sorted(PROFILE_VALUES))
def test_profile_flag_sets_its_field(tmp_path, field):
    value = PROFILE_VALUES[field]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert cli_main(["generate-data", "--days", "2", "--seed", "7", "--out", str(got),
                     _PROFILE_FLAGS[field], str(value)]) == 0
    write_scenario_csv(str(want), generate_synthetic(
        2, SyntheticProfile(**{field: value}), seed=7))
    assert got.read_bytes() == want.read_bytes()


GENERATE_DATA_HELP = """\
usage: helios generate-data [-h] [--days DAYS] [--seed SEED] --out OUT
                            [--base-load BASE_LOAD] [--bump-load BUMP_LOAD]
                            [--bump-start BUMP_START] [--bump-end BUMP_END]
                            [--irr-peak IRR_PEAK] [--wind-base WIND_BASE]
                            [--wind-jitter WIND_JITTER] [--with-renewable]

options:
  -h, --help            show this help message and exit
  --days DAYS
  --seed SEED
  --out OUT
  --base-load BASE_LOAD
  --bump-load BUMP_LOAD
  --bump-start BUMP_START
  --bump-end BUMP_END
  --irr-peak IRR_PEAK
  --wind-base WIND_BASE
  --wind-jitter WIND_JITTER
  --with-renewable      append a renewable_kw column from the default model
"""


def test_generate_data_help_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["generate-data", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == GENERATE_DATA_HELP


def test_usage_error_exits_1(capsys):
    assert cli_main(["simulate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_file_exits_1(tmp_path):
    assert cli_main(["simulate", "--strategy", "renewable_first",
                     "--data", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "o")]) == 1


def test_env_seed_override(tmp_path, monkeypatch):
    csv = tmp_path / "s.csv"
    cli_main(["generate-data", "--days", "1", "--seed", "1", "--out", str(csv)])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("HELIOS_SEED", "123")
    assert cli_main(["simulate", "--strategy", "renewable_first",
                     "--data", str(csv), "--out-dir", str(out1)]) == 0
    kv = (out1 / "summary_renewable_first.kv").read_text()
    assert "seed = 123" in kv
    monkeypatch.setenv("HELIOS_SEED", "not-a-number")
    assert cli_main(["simulate", "--strategy", "renewable_first",
                     "--data", str(csv), "--out-dir", str(out2)]) == 1


def test_synthetic_data_keyword(tmp_path):
    out = tmp_path / "syn"
    assert cli_main(["simulate", "--strategy", "fifty_fifty",
                     "--data", "synthetic", "--out-dir", str(out),
                     "--seed", "9"]) == 0
    assert (out / "trace_fifty_fifty.csv").exists()


def test_set_overrides_config_keys(tmp_path):
    out = tmp_path / "o"
    code = cli_main(["simulate", "--strategy", "eg_mpc", "--data", "synthetic",
                     "--out-dir", str(out), "--seed", "4",
                     "--set", "horizon_steps=2",
                     "--set", "evo_population=12",
                     "--set", "evo_generations=5",
                     "--set", "evo_local_search_budget=0"])
    assert code == 0
    conv = (out / "convergence_eg_mpc.csv").read_text().strip().splitlines()
    # header + 24 windows x 5 generations
    assert len(conv) == 1 + 24 * 5


def test_set_rejects_unknown_key(tmp_path):
    assert cli_main(["simulate", "--strategy", "eg_mpc", "--data", "synthetic",
                     "--out-dir", str(tmp_path / "o"), "--seed", "1",
                     "--set", "warp_drive=9"]) == 1


def test_fit_on_degenerate_data_exits_1(tmp_path):
    csv = tmp_path / "flat.csv"
    # constant wind: rank-deficient design, a data validation failure
    cli_main(["generate-data", "--days", "1", "--seed", "1", "--out", str(csv),
              "--with-renewable"])
    assert cli_main(["fit", str(csv)]) == 1


@pytest.mark.parametrize("column", ["irradiance_kwh_m2", "wind_ms", "renewable_kw"])
def test_fit_on_a_nan_cell_exits_1_naming_the_sample(tmp_path, capsys, column):
    csv = tmp_path / "fit.csv"
    cli_main(["generate-data", "--days", "2", "--wind-jitter", "2", "--out", str(csv),
              "--with-renewable"])
    lines = csv.read_text().splitlines()
    row = lines[4].split(",")  # sample 3
    row[lines[0].split(",").index(column)] = "nan"
    lines[4] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["fit", str(csv)]) == 1
    assert "[3] = nan is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_first_csv_hour_exits_1_naming_the_column(tmp_path, capsys, raw):
    csv = tmp_path / "s.csv"
    csv.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                   + "".join(f"{h},0.5,8.0,200.0\n" for h in (raw, 1, 2, 3)))
    assert cli_main(["simulate", "--strategy", "renewable_first", "--data", str(csv),
                     "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"error: row 0: column 'hour' has non-finite value '{raw}'" in err


def test_budget_exhaustion_exits_2(tmp_path):
    code = cli_main(["simulate", "--strategy", "standard_mpc",
                     "--data", "synthetic", "--out-dir", str(tmp_path / "o"),
                     "--seed", "1",
                     "--set", "max_enumeration=0",
                     "--set", "soc_grid_step_kwh=0.00001"])
    assert code == 2


@pytest.mark.parametrize("setting,message", [
    ("evo_population=166667", "EG population 166667 x 6 steps"),
    ("aco_ants=43479", "ACO colony 43479 x 23 steps or actions"),
])
def test_search_past_budget_exits_2(tmp_path, capsys, setting, message):
    # One past MAX_SEARCH_TABLE on the default 6 steps and 23 actions.
    code = cli_main(["compare", "--data", "synthetic", "--strategies", "ac_mpc,eg_mpc",
                     "--set", setting, "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# The grid DP table is checked too, as standard_mpc's first window takes the
# DP path (23 ** 6 sequences exceed max_enumeration).
@pytest.mark.parametrize("setting", ["evo_population=200000", "aco_ants=43479",
                                     "soc_grid_step_kwh=1e-6"])
def test_search_past_budget_is_refused_before_any_run(tmp_path, monkeypatch, setting):
    runs = []
    run_closed_loop = helios.engine.run_closed_loop

    def counted(scenario, strategy, *args, **kwargs):
        runs.append(strategy)
        return run_closed_loop(scenario, strategy, *args, **kwargs)

    monkeypatch.setattr(helios.engine, "run_closed_loop", counted)
    code = cli_main(["compare", "--data", "synthetic", "--strategies",
                     "renewable_first,myopic_mpc,standard_mpc,ac_mpc,eg_mpc",
                     "--set", setting, "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert runs == []


def test_dp_budget_is_not_checked_up_front_where_standard_mpc_enumerates(tmp_path):
    # 23 ** 4 sequences fit max_enumeration, so the grid is never built.
    assert cli_main(["compare", "--data", "synthetic", "--strategies", "standard_mpc",
                     "--set", "soc_grid_step_kwh=1e-6", "--set", "horizon_steps=4",
                     "--out-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("overrides", [
    ("cost_c_backup=20", "cost_q_under=30", "cost_r_over=30"),
    ("battery_capacity_kwh=800", "battery_soc_max_kwh=700"),
    ("evo_population=3", "evo_elite=2"),
], ids=["costs", "battery", "evo"])
@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
def test_set_overrides_are_applied_together(tmp_path, overrides, reverse):
    # Each config is valid, but applied one at a time in the given order the
    # first override fails a cross-field check.
    cfg = tmp_path / "pair.cfg"
    cfg.write_text("".join(f"{item.replace('=', ' = ')}\n" for item in overrides))
    run = ["compare", "--data", "synthetic", "--strategies", "renewable_first,eg_mpc"]
    assert cli_main(run + ["--config", str(cfg), "--out-dir", str(tmp_path / "file")]) == 0
    order = overrides[::-1] if reverse else overrides
    sets = [arg for item in order for arg in ("--set", item)]
    assert cli_main(run + sets + ["--out-dir", str(tmp_path / "set")]) == 0
    assert ((tmp_path / "set" / "comparison.kv").read_bytes()
            == (tmp_path / "file" / "comparison.kv").read_bytes())


def test_a_key_set_twice_takes_its_last_value(tmp_path):
    run = ["compare", "--data", "synthetic", "--strategies", "eg_mpc"]
    assert cli_main(run + ["--set", "evo_population=3", "--set", "evo_population=12",
                           "--out-dir", str(tmp_path / "twice")]) == 0
    assert cli_main(run + ["--set", "evo_population=12",
                           "--out-dir", str(tmp_path / "once")]) == 0
    assert ((tmp_path / "twice" / "comparison.kv").read_bytes()
            == (tmp_path / "once" / "comparison.kv").read_bytes())


def run_helios_module(*args):
    """`python -m helios ARGS` in a child process, on this checkout's helios."""
    src = os.path.dirname(os.path.dirname(helios.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "helios", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_grid_past_memory_exits_2_without_a_traceback(tmp_path):
    # 8e11 grid nodes: 5.82 TiB, if the grid were built before the budget check.
    run = run_helios_module(
        "compare", "--data", "synthetic",
        "--strategies", "standard_mpc", "--set", "soc_grid_step_kwh=1e-9",
        "--set", "max_enumeration=0", "--out-dir", str(tmp_path / "o"))
    assert run.returncode == 2
    assert "budget error: DP table" in run.stderr
    assert "Traceback" not in run.stderr


def test_lattice_past_budget_exits_2_without_a_traceback(tmp_path):
    # 1.1e9 actions at 1e-6 kW, if they were built before the budget check;
    # every strategy builds the lattice, the rules included.
    run = run_helios_module(
        "compare", "--data", "synthetic", "--strategies", "renewable_first",
        "--set", "lattice_delta_p_kw=1e-6", "--out-dir", str(tmp_path / "o"))
    assert run.returncode == 2
    assert "budget error: lattice" in run.stderr
    assert "Traceback" not in run.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["compare", "generate-data"])
def test_wind_whose_cube_overflows_exits_1_without_a_traceback(tmp_path, command):
    out = tmp_path / "out"
    if command == "compare":
        csv = tmp_path / "big.csv"
        csv.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n0,0.5,1e103,200.0\n")
        args = ["--data", str(csv), "--strategies", "renewable_first", "--out-dir"]
    else:
        args = ["--wind-base", "1e103", "--with-renewable", "--out"]
    run = run_helios_module(command, *args, str(out))
    assert run.returncode == 1
    assert "error: wind speed 1e+103 m/s" in run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


def test_nan_load_in_csv_exits_1_naming_the_field(tmp_path, capsys):
    csv = tmp_path / "s.csv"
    cli_main(["generate-data", "--days", "1", "--seed", "1", "--out", str(csv)])
    lines = csv.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")  # hour 1
    row[header.index("load_kw")] = "nan"
    lines[2] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    for strategy in ("renewable_first", "battery_first", "fifty_fifty",
                     "myopic_mpc", "standard_mpc", "ac_mpc", "eg_mpc"):
        assert cli_main(["simulate", "--strategy", strategy, "--data", str(csv),
                         "--out-dir", str(tmp_path / strategy)]) == 1
        assert "load[1]" in capsys.readouterr().err


STRATEGIES = ("renewable_first", "battery_first", "fifty_fifty", "myopic_mpc",
              "standard_mpc", "ac_mpc", "eg_mpc")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow warns
def test_overflowing_load_in_csv_exits_1(tmp_path, capsys):
    # 1.7e308 kW is finite, so Scenario accepts it, but the costs overflow.
    csv = tmp_path / "s.csv"
    csv.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                   + "".join(f"{h},0.0,8.0,1.7e308\n" for h in range(6)))
    for strategy in STRATEGIES:
        assert cli_main(["simulate", "--strategy", strategy, "--data", str(csv),
                         "--out-dir", str(tmp_path / strategy)]) == 1
        assert "finite" in capsys.readouterr().err


def test_overflowing_backup_total_exits_1_naming_the_hour(tmp_path, capsys):
    # Two hours of 1.7e308 kW cost a finite 1.02e308, but their backup
    # energy overflows, and the run is refused rather than reported as inf.
    csv = tmp_path / "s.csv"
    csv.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                   "0,0.0,8.0,1.7e308\n1,0.0,8.0,1.7e308\n")
    assert cli_main(["simulate", "--strategy", "renewable_first", "--data", str(csv),
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert "hour 1: booking its backup" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("setting,field", [
    ("horizon_steps=0", "Config.horizon"),
    ("forecast_noise_kw=-1", "Config.forecast_noise_kw"),
    ("soc_grid_step_kwh=0", "Config.soc_grid_step"),
    ("lattice_delta_p_kw=-10", "Config.delta_p"),
    ("terminal_soc_value=nan", "Config.terminal_soc_value"),
    ("terminal_soc_value=-0.2", "Config.terminal_soc_value must be >= 0"),
    ("forecast_noise_kw=inf", "Config.forecast_noise_kw"),
    ("soc_grid_step_kwh=inf", "Config.soc_grid_step"),
    ("aco_alpha=nan", "AcoParams.alpha"),
    ("aco_beta=inf", "AcoParams.beta"),
    ("aco_pheromone_init=inf", "AcoParams.pheromone_init"),
    ("evo_epsilon_fitness=inf", "EvoParams.epsilon_fitness"),
])
def test_bad_config_scalar_exits_1_naming_the_field(tmp_path, capsys, setting, field):
    assert cli_main(["simulate", "--strategy", "renewable_first",
                     "--data", "synthetic", "--out-dir", str(tmp_path / "o"),
                     "--set", setting]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_set_of_every_float_key_exits_1_naming_the_field(tmp_path, capsys,
                                                                      key):
    for raw in ("nan", "-inf"):
        assert cli_main(["simulate", "--strategy", "renewable_first",
                         "--data", "synthetic", "--out-dir", str(tmp_path / "o"),
                         "--set", f"{key}={raw}"]) == 1
        assert f"{field_name(key)} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--wind-base", "nan", "SyntheticProfile.wind_base_ms must be finite"),
    ("--wind-jitter", "nan", "SyntheticProfile.wind_jitter_ms must be finite"),
    ("--wind-jitter", "inf", "SyntheticProfile.wind_jitter_ms must be finite"),
    ("--wind-jitter", "-1", "SyntheticProfile.wind_jitter_ms must be >= 0"),
    ("--wind-base", "-3", "SyntheticProfile.wind_base_ms must be >= 0"),
    ("--bump-start", "30", "0 <= bump_start_hour <= bump_end_hour <= 24"),
])
def test_bad_profile_option_exits_1_naming_the_field(tmp_path, capsys, flag, value,
                                                     message):
    csv = tmp_path / "s.csv"
    assert cli_main(["generate-data", flag, value, "--out", str(csv)]) == 1
    assert message in capsys.readouterr().err
    assert not csv.exists()


def test_negative_seed_with_forecast_noise_runs(tmp_path):
    assert cli_main(["compare", "--data", "synthetic", "--strategies", "renewable_first",
                     "--seed", "-1", "--set", "forecast_noise_kw=5",
                     "--out-dir", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("hours,row", [([0, 1, 3, 4], 2), ([0, 2, 1, 3], 1)],
                         ids=["gap", "swapped"])
def test_non_contiguous_csv_hours_exit_1_naming_the_row(tmp_path, capsys, hours, row):
    csv = tmp_path / "s.csv"
    csv.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                   + "".join(f"{h},0.5,8.0,200.0\n" for h in hours))
    assert cli_main(["simulate", "--strategy", "renewable_first", "--data", str(csv),
                     "--out-dir", str(tmp_path / "o")]) == 1
    assert f"row {row}:" in capsys.readouterr().err
