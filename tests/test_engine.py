"""Closed-loop engine: records, invariants, reproducibility, comparisons."""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem
from helios.baselines import RULE_BASED, StrategyKind, rule_step
from helios.battery import clip_feasible
from helios.config import Config, load_config, parse_config_text
from helios.core import (BatteryParams, ControlAction, CostParams, Scenario,
                         ValidationError)
from helios.data import SyntheticProfile, generate_synthetic
from helios.engine import compare_strategies, run_closed_loop
from helios.horizon import build_lattice, solve_exact
from helios.renewable import RenewableModel
from reference import backup_power, step_cost, step_soc

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")


def reference_scenario():
    profile = SyntheticProfile(base_load_kw=199.0, bump_load_kw=250.0,
                               bump_start_hour=4, bump_end_hour=8)
    return generate_synthetic(days=1, profile=profile, seed=11)


def check_trace_invariants(trace, cfg):
    """Balance, SOC band and total; every applied action is one that
    clip_feasible leaves unchanged, and the backup bill is the booked
    backup power, bit for bit."""
    bp, cp = cfg.battery, cfg.costs
    running_total = 0.0
    soc = trace.soc_start
    for r in trace.records:
        residual = r.renewable_used + r.p_dis + r.backup - r.p_ch - r.load
        assert abs(residual) < 1e-9
        assert r.renewable_used + r.curtailed == pytest.approx(
            r.renewable_available, abs=1e-9)
        assert bp.soc_min <= r.soc <= bp.soc_max
        applied = ControlAction(p_ch=r.p_ch, p_dis=r.p_dis)
        assert clip_feasible(bp, soc, applied, r.load, r.renewable_available,
                             cfg.allow_backup_charging) == applied
        assert r.cost.backup == cp.c_backup * r.backup * bp.dt
        running_total += r.cost.total
        soc = r.soc
    assert trace.total_cost == running_total


class TestRunClosedLoop:
    def test_reference_setup_produces_24_records(self):
        cfg = Config()
        trace = run_closed_loop(reference_scenario(),
                                StrategyKind.RENEWABLE_FIRST, cfg)
        assert len(trace.records) == 24
        assert trace.soc_start == 500.0
        check_trace_invariants(trace, cfg)

    def test_dead_scenario_is_all_idle_and_free(self):
        scenario = Scenario(start_hour=0, steps=6, irradiance=(0.0,) * 6,
                            wind_speed=(0.0,) * 6, load=(0.0,) * 6)
        cfg = replace(Config(), renewable=RenewableModel(1.0, 1.0, 0.0, 0.0))
        for kind in (StrategyKind.RENEWABLE_FIRST, StrategyKind.MYOPIC_MPC,
                     StrategyKind.STANDARD_MPC):
            trace = run_closed_loop(scenario, kind, cfg)
            assert trace.total_cost == 0.0
            assert all(r.p_ch == 0.0 and r.p_dis == 0.0 for r in trace.records)

    def test_initial_soc_must_be_in_bounds(self):
        cfg = replace(Config(), initial_soc=50.0)
        with pytest.raises(ValidationError):
            run_closed_loop(reference_scenario(), StrategyKind.RENEWABLE_FIRST, cfg)

    def test_every_strategy_satisfies_invariants(self):
        cfg = replace(Config(), horizon=4, terminal_soc_value=0.2,
                      soc_grid_step=1.0, seed=5)
        scenario = reference_scenario()
        for kind in StrategyKind:
            trace = run_closed_loop(scenario, kind, cfg, seed=5)
            check_trace_invariants(trace, cfg)

    def test_closed_loop_equals_open_loop_with_perfect_foresight(self):
        # no surplus anywhere, so the optimal plan never charges and the
        # applied actions match the planned ones exactly; re-planning then
        # reproduces the open-loop optimum cost (Bellman)
        bp = BatteryParams(capacity=1000.0, soc_min=100.0, soc_max=900.0,
                           p_ch_max=100.0, p_dis_max=100.0, eta_ch=0.9,
                           eta_dis=0.9, dt=1.0)
        loads = (350.0, 420.0, 390.0, 300.0)
        scenario = Scenario(start_hour=0, steps=4, irradiance=(0.0,) * 4,
                            wind_speed=(0.0,) * 4, load=loads)
        model = RenewableModel(0.0, 0.0, 0.0, 120.0, p_rated=600.0)
        cfg = replace(Config(), battery=bp, renewable=model, horizon=4,
                      delta_p=50.0, initial_soc=400.0)
        trace = run_closed_loop(scenario, StrategyKind.STANDARD_MPC, cfg)
        hp = make_problem(list(loads), [120.0] * 4, soc0=400.0, battery=bp,
                          lattice=build_lattice(100.0, 100.0, 50.0))
        _, open_loop_cost = solve_exact(hp)
        assert trace.total_cost == pytest.approx(open_loop_cost, abs=1e-9)

    def test_identical_runs_are_identical(self):
        cfg = replace(Config(), horizon=3, seed=99)
        scenario = reference_scenario()
        t1 = run_closed_loop(scenario, StrategyKind.EG_MPC, cfg, seed=99)
        t2 = run_closed_loop(scenario, StrategyKind.EG_MPC, cfg, seed=99)
        assert t1 == t2

    def test_forecast_noise_stays_deterministic_and_valid(self):
        cfg = replace(Config(), horizon=4, forecast_noise_kw=30.0, seed=13)
        scenario = reference_scenario()
        t1 = run_closed_loop(scenario, StrategyKind.EG_MPC, cfg, seed=13)
        t2 = run_closed_loop(scenario, StrategyKind.EG_MPC, cfg, seed=13)
        assert t1 == t2
        check_trace_invariants(t1, cfg)

    @pytest.mark.parametrize("kind", [StrategyKind.RENEWABLE_FIRST,
                                      StrategyKind.STANDARD_MPC])
    def test_a_negative_seed_with_forecast_noise_wraps_into_the_unsigned_seeds(
            self, kind):
        # The noise stream of seed -1 is that of 2**64 - 1, as the window seeds are.
        cfg = replace(Config(), horizon=4, forecast_noise_kw=30.0)
        negative = run_closed_loop(reference_scenario(), kind, cfg, seed=-1)
        assert negative == run_closed_loop(reference_scenario(), kind, cfg, seed=2**64 - 1)
        check_trace_invariants(negative, cfg)

    def test_forecast_noise_up_to_half_the_largest_float_runs(self):
        # The noise draw spans 2 * forecast_noise_kw, finite up to max / 2.
        edge = sys.float_info.max / 2
        cfg = replace(Config(), horizon=4, forecast_noise_kw=edge)
        trace = run_closed_loop(reference_scenario(), StrategyKind.STANDARD_MPC, cfg, seed=5)
        check_trace_invariants(trace, cfg)
        with pytest.raises(ValidationError, match="Config.forecast_noise_kw must be <="):
            replace(cfg, forecast_noise_kw=float(np.nextafter(edge, np.inf)))

    def test_window_seeds_wrap_at_2_64(self, monkeypatch):
        import helios.engine
        cfg = parse_config_text(
            "horizon_steps = 3\nevo_population = 8\nevo_generations = 4\n"
            "evo_local_search_budget = 5\naco_ants = 4\naco_iterations = 4\n",
            base=Config())
        scenario = reference_scenario().window(0, 6)
        five = {}
        for kind in (StrategyKind.EG_MPC, StrategyKind.AC_MPC):
            five[kind] = run_closed_loop(scenario, kind, cfg, seed=5)
            assert five[kind] != run_closed_loop(scenario, kind, cfg, seed=5 + 2**63)
            assert five[kind] == run_closed_loop(scenario, kind, cfg, seed=5 + 2**64)
        # Below 2**63 the window seeds are those of the old 63-bit mask.
        monkeypatch.setattr(helios.engine, "_derive_window_seed",
                            lambda seed, t: (seed + 1_000_003 * (t + 1)) & (2**63 - 1))
        for kind, trace in five.items():
            assert run_closed_loop(scenario, kind, cfg, seed=5) == trace

    @pytest.mark.parametrize("noise", [0.0, 30.0])
    def test_renewables_are_predicted_once_per_run(self, monkeypatch, noise):
        import helios.engine
        import helios.horizon
        calls = []
        series = helios.engine.predict_series
        monkeypatch.setattr(helios.engine, "predict_series",
                            lambda *args: calls.append(args) or series(*args))

        def refuse(*args):
            raise AssertionError("a window re-predicted its renewables")
        monkeypatch.setattr(helios.horizon, "predict_series", refuse)
        cfg = replace(Config(), horizon=4, forecast_noise_kw=noise)
        for kind in (StrategyKind.STANDARD_MPC, StrategyKind.MYOPIC_MPC):
            run_closed_loop(reference_scenario(), kind, cfg, seed=5)
        assert len(calls) == 2


class TestBilling:
    def test_battery_first_pays_for_gross_cycling_while_net_charging(self):
        # surplus hour: Battery-First nets to a pure charge action, yet the
        # hour is billed for the discharge the rule asked for
        cfg = Config()
        trace = run_closed_loop(reference_scenario(),
                                StrategyKind.BATTERY_FIRST, cfg)
        first = trace.records[0]
        assert first.p_dis == 0.0 and first.p_ch > 0.0
        assert first.cost.battery == pytest.approx(
            cfg.costs.c_bat * 100.0 * cfg.battery.dt)

    def test_optimizers_are_billed_on_applied_discharge_only(self):
        cfg = replace(Config(), horizon=3)
        trace = run_closed_loop(reference_scenario(), StrategyKind.MYOPIC_MPC,
                                cfg, seed=3)
        for r in trace.records:
            assert r.cost.battery == pytest.approx(
                cfg.costs.c_bat * r.p_dis * cfg.battery.dt)


class TestMyopicWindow:
    def test_myopic_plans_only_the_hour_it_applies(self, monkeypatch):
        import helios.engine
        steps = []
        solve = helios.engine.solve_myopic
        monkeypatch.setattr(helios.engine, "solve_myopic",
                            lambda hp: steps.append(hp.n_steps) or solve(hp))
        cfg = replace(Config(), horizon=4, forecast_noise_kw=30.0)
        run_closed_loop(reference_scenario(), StrategyKind.MYOPIC_MPC, cfg, seed=5)
        assert steps == [1] * 24

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the backup cost overflows
    def test_an_hour_without_a_finite_cost_is_refused_at_its_own_window(self):
        # At 2 per kWh, hour 2's 1.7e308 kW load costs inf whatever the
        # plan. A 4-step window starting at hour 0 already holds it, but
        # myopic_mpc's window is one hour, so hours 0 and 1 are booked first.
        load = (300.0, 300.0, 1.7e308, 300.0, 300.0)
        scenario = Scenario(start_hour=0, steps=5, irradiance=(0.0,) * 5,
                            wind_speed=(8.0,) * 5, load=load)
        cfg = replace(Config(), horizon=4,
                      costs=CostParams(c_backup=2.0, q_under=10.0, r_over=10.0))
        with pytest.raises(ValidationError, match="finite cost.*hour 2"):
            run_closed_loop(scenario, StrategyKind.MYOPIC_MPC, cfg)


def test_scenario_shorter_than_horizon_still_runs():
    scenario = reference_scenario().window(0, 3)
    cfg = replace(Config(), horizon=6)
    for kind in (StrategyKind.EG_MPC, StrategyKind.STANDARD_MPC):
        trace = run_closed_loop(scenario, kind, cfg, seed=1)
        assert len(trace.records) == 3


def test_renewable_first_reference_total_is_stable():
    # characterization guard: the rule-based total is free of randomness,
    # so any drift signals a semantic change in flows or costing
    trace = run_closed_loop(reference_scenario(),
                            StrategyKind.RENEWABLE_FIRST, Config())
    assert trace.total_cost == pytest.approx(168.84491429703868, abs=1e-9)


class TestCompareStrategies:
    def test_single_strategy_table(self):
        cfg = Config()
        scenario = reference_scenario()
        result = compare_strategies(scenario, [StrategyKind.FIFTY_FIFTY], cfg)
        assert len(result.traces) == 1
        solo = run_closed_loop(scenario, StrategyKind.FIFTY_FIFTY, cfg,
                               seed=cfg.seed ^ list(StrategyKind).index(
                                   StrategyKind.FIFTY_FIFTY))
        assert result.traces[0] == solo

    def test_requested_order_does_not_change_results(self):
        cfg = replace(Config(), horizon=3)
        scenario = reference_scenario()
        kinds = [StrategyKind.RENEWABLE_FIRST, StrategyKind.MYOPIC_MPC]
        fwd = compare_strategies(scenario, kinds, cfg)
        rev = compare_strategies(scenario, list(reversed(kinds)), cfg)
        assert fwd.totals() == rev.totals()

    def test_rejects_empty_strategy_list(self):
        with pytest.raises(ValidationError):
            compare_strategies(reference_scenario(), [], Config())

    def test_rejects_a_strategy_named_twice(self, monkeypatch):
        import helios.engine
        monkeypatch.setattr(helios.engine, "run_closed_loop", None)  # runs nothing
        kinds = [StrategyKind.MYOPIC_MPC, StrategyKind.RENEWABLE_FIRST,
                 StrategyKind.MYOPIC_MPC]
        with pytest.raises(ValidationError, match="'myopic_mpc' is requested twice"):
            compare_strategies(reference_scenario(), kinds, Config())

    def test_exact_solver_lower_bounds_heuristics_small_lattice(self):
        # with full per-window enumeration affordable, the exact strategy's
        # closed-loop total cannot exceed the metaheuristics' totals
        bp = BatteryParams(capacity=1000.0, soc_min=100.0, soc_max=900.0,
                           p_ch_max=100.0, p_dis_max=100.0, eta_ch=0.9,
                           eta_dis=0.9, dt=1.0)
        profile = SyntheticProfile(base_load_kw=260.0, bump_load_kw=150.0,
                                   bump_start_hour=3, bump_end_hour=9)
        scenario = generate_synthetic(days=1, profile=profile, seed=2)
        cfg = replace(Config(), battery=bp, horizon=3, delta_p=50.0,
                      terminal_soc_value=0.2, seed=31)
        exact = run_closed_loop(scenario, StrategyKind.STANDARD_MPC, cfg, seed=31)
        eg = run_closed_loop(scenario, StrategyKind.EG_MPC, cfg, seed=31)
        ac = run_closed_loop(scenario, StrategyKind.AC_MPC, cfg, seed=31)
        assert exact.total_cost <= eg.total_cost + 1e-9
        assert exact.total_cost <= ac.total_cost + 1e-9


# The golden jittered day (tests/test_golden.py) and a jittered 3-day input
# that charges from diesel: inputs on which the booked backup power and the
# backup bill once came from two formulas that differ in the last bits.
JITTERED_DAY = (dict(
    days=1, profile=SyntheticProfile(wind_jitter_ms=2.0), seed=5), 7,
    "lattice_delta_p_kw = 25\nterminal_soc_value = 0.02\nmax_enumeration = 0\n"
    "horizon_steps = 4\nforecast_noise_kw = 30\n")
BACKUP_CHARGING_3_DAYS = (dict(
    days=3, profile=SyntheticProfile(wind_jitter_ms=3.0), seed=9), 5,
    "allow_backup_charging = true\nterminal_soc_value = 0.05\n"
    "forecast_noise_kw = 15\nhorizon_steps = 4\nmax_enumeration = 0\n"
    "evo_population = 30\nevo_generations = 20\nevo_local_search_budget = 50\n"
    "aco_ants = 10\naco_iterations = 10\n")


@pytest.mark.parametrize("scenario_args,seed,overrides",
                         [JITTERED_DAY, BACKUP_CHARGING_3_DAYS],
                         ids=["jittered_day", "backup_charging_3_days"])
def test_every_applied_hour_is_one_plant_step(scenario_args, seed, overrides):
    cfg = parse_config_text(overrides, base=load_config(CONFIG))
    scenario = generate_synthetic(**scenario_args)
    result = compare_strategies(scenario, list(StrategyKind), cfg, seed=seed)
    for trace in result.traces:
        check_trace_invariants(trace, cfg)


@st.composite
def closed_loop_cases(draw):
    """A random finite scenario of 6-48 h and a config with small search
    budgets, backup charging and forecast noise each on or off."""
    steps = draw(st.integers(6, 48))

    def series(elements):
        return tuple(draw(st.lists(elements, min_size=steps, max_size=steps)))
    scenario = Scenario(start_hour=draw(st.integers(0, 23)), steps=steps,
                        irradiance=series(st.floats(0.0, 1.0)),
                        wind_speed=series(st.floats(0.0, 25.0)),
                        load=series(st.floats(0.0, 500.0)))
    cfg = parse_config_text(
        "horizon_steps = 3\nevo_population = 8\nevo_generations = 3\n"
        "evo_local_search_budget = 5\naco_ants = 4\naco_iterations = 3\n"
        "soc_grid_step_kwh = 5\n",
        base=replace(Config(),
                     allow_backup_charging=draw(st.booleans()),
                     forecast_noise_kw=draw(st.sampled_from([0.0, 40.0])),
                     initial_soc=draw(st.floats(100.0, 900.0)),
                     terminal_soc_value=draw(st.sampled_from([0.0, 0.2]))))
    return scenario, cfg, draw(st.integers(0, 2**31))


@settings(max_examples=12, deadline=None)
@given(case=closed_loop_cases())
def test_every_strategy_keeps_the_plant_step_invariants(case):
    scenario, cfg, seed = case
    for kind in StrategyKind:
        check_trace_invariants(run_closed_loop(scenario, kind, cfg, seed=seed), cfg)


@settings(max_examples=10, deadline=None)
@given(case=closed_loop_cases())
def test_every_hour_is_billed_as_the_scalar_step_cost(case):
    # The engine bills a run in one vector pass; the scalar step_cost and
    # backup_power, fed each hour's applied action, billed discharge and
    # previous SOC, must give every cost component, flow and total bit for bit.
    scenario, cfg, seed = case
    bp, cp = cfg.battery, cfg.costs
    for kind in StrategyKind:
        trace = run_closed_loop(scenario, kind, cfg, seed=seed)
        soc = trace.soc_start
        total_cost = total_backup = total_curtailed = 0.0
        for r in trace.records:
            applied = ControlAction(p_ch=r.p_ch, p_dis=r.p_dis)
            billed = (rule_step(kind, bp, soc, r.load, r.renewable_available)[1]
                      if kind in RULE_BASED else None)
            cost = step_cost(cp, bp, r.load, r.renewable_available, applied,
                             step_soc(bp, soc, applied), billed_discharge=billed)
            assert r.cost == cost
            backup = backup_power(r.load, r.renewable_available, applied)
            used = r.load + r.p_ch - r.p_dis - backup
            assert (r.backup, r.renewable_used, r.curtailed) == (
                backup, used, max(0.0, r.renewable_available - used))
            total_cost += cost.total
            total_backup += backup * bp.dt
            total_curtailed += r.curtailed * bp.dt
            soc = r.soc
        assert (trace.total_cost, trace.total_backup_kwh, trace.total_curtailed_kwh) == (
            total_cost, total_backup, total_curtailed)
