"""Cost decomposition, energy balance, and the horizon cost J(u)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_optimum, make_problem
from helios.core import (BatteryParams, ControlAction, CostParams, LengthMismatch,
                         NegativeValue, ValidationError)
from helios.battery import clip_feasible, soc_after
from helios.costing import (CostBreakdown, action_terms, book_run, soc_penalty,
                            stage_base_of, terminal_term)
from helios.horizon import build_lattice, solve_exact
from reference import backup_power, sequence_cost, step_cost, step_soc

REFERENCE_BATTERY = BatteryParams(capacity=1000.0, soc_min=100.0, soc_max=900.0,
                                  p_ch_max=1000.0, p_dis_max=100.0,
                                  eta_ch=0.9, eta_dis=0.9, dt=1.0)
# 23 and 111 actions on the reference battery.
LATTICES = {delta: build_lattice(1000.0, 100.0, delta) for delta in (50.0, 10.0)}
COST_PARAMS = (CostParams(), CostParams(c_bat=0.07, c_backup=0.4, q_under=12.0,
                                        r_over=9.0))
# SOC below, inside and above the [100, 900] band.
socs = st.one_of(st.floats(-300.0, 99.0), st.floats(100.0, 900.0),
                 st.floats(901.0, 1500.0))
powers = st.floats(0.0, 700.0)


class TestBackupPower:
    def test_deficit_partially_covered_by_discharge(self):
        assert backup_power(300.0, 200.0, ControlAction(p_dis=50.0)) == 50.0

    def test_surplus_never_needs_backup(self):
        assert backup_power(100.0, 300.0, ControlAction(p_ch=150.0)) == 0.0

    def test_zero_load(self):
        assert backup_power(0.0, 50.0, ControlAction()) == 0.0
        assert backup_power(0.0, 0.0, ControlAction()) == 0.0


class TestCostBreakdown:
    def test_total_is_exact_sum(self):
        cb = CostBreakdown(battery=1.5, backup=2.25, penalty=0.75)
        assert cb.total == 1.5 + 2.25 + 0.75

    def test_rejects_negative_component(self):
        with pytest.raises(NegativeValue):
            CostBreakdown(battery=-1.0, backup=0.0, penalty=0.0)

    def test_total_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            CostBreakdown(1.0, 2.0, 3.0, total=99.0)
        with pytest.raises(TypeError):
            CostBreakdown(1.0, 2.0, 3.0, 99.0)
        cb = replace(CostBreakdown(1.0, 2.0, 3.0), battery=4.0)
        assert (cb.battery, cb.total) == (4.0, 4.0 + 2.0 + 3.0)


class TestStepCost:
    def test_pure_battery_cost(self, costs, battery):
        cb = step_cost(costs, battery, load=100.0, renewable=0.0,
                       a=ControlAction(p_dis=100.0), soc_next=400.0)
        assert cb.battery == pytest.approx(5.0)
        assert cb.backup == 0.0
        assert cb.penalty == 0.0
        assert cb.total == pytest.approx(5.0)

    def test_undershoot_penalty(self, costs, battery):
        cb = step_cost(costs, battery, load=0.0, renewable=0.0,
                       a=ControlAction(), soc_next=50.0)
        assert cb.penalty == pytest.approx(10.0 * 50.0)

    def test_idle_surplus_in_bounds_is_free(self, costs, battery):
        cb = step_cost(costs, battery, load=100.0, renewable=200.0,
                       a=ControlAction(), soc_next=500.0)
        assert cb.total == 0.0

    def test_billed_discharge_overrides_cycling_quantity(self, costs, battery):
        cb = step_cost(costs, battery, load=100.0, renewable=200.0,
                       a=ControlAction(p_ch=50.0), soc_next=500.0,
                       billed_discharge=80.0)
        assert cb.battery == pytest.approx(0.05 * 80.0)

    def test_stage_costs_match_step_cost_bit_for_bit(self, costs, battery):
        # Random finite hours, SOC inside and on both sides of the band, and
        # every action of a 10 kW lattice priced in one broadcast call of the
        # two kernel parts.
        rng = np.random.default_rng(23)
        p_ch = np.concatenate([[0.0], np.arange(10.0, 1001.0, 10.0), np.zeros(10)])
        p_dis = np.concatenate([np.zeros(101), np.arange(10.0, 101.0, 10.0)])
        for cp in (costs, CostParams(c_bat=0.07, c_backup=0.4, q_under=12.0,
                                      r_over=9.0)):
            for _ in range(50):
                load = float(rng.uniform(0.0, 500.0))
                ren = float(rng.uniform(0.0, 600.0))
                soc = float(rng.uniform(-100.0, 1100.0))
                soc_next = soc_after(battery, soc, p_ch, p_dis)
                got = (stage_base_of(cp, battery, load, ren,
                                     *action_terms(cp, battery, p_ch, p_dis))
                       + soc_penalty(cp, battery, soc_next))
                for ch, dis, s_next, g in zip(p_ch, p_dis, soc_next, got):
                    a = ControlAction(p_ch=float(ch), p_dis=float(dis))
                    assert g == step_cost(cp, battery, load, ren, a,
                                          float(s_next)).total


def book(cp, bp, loads, rens, actions, billed=None, soc0=500.0):
    """book_run over hours that apply `actions` in turn from soc0."""
    soc_next, socs, soc = [], [], soc0
    for a in actions:
        soc_next.append(step_soc(bp, soc, a))
        soc = min(max(soc_next[-1], bp.soc_min), bp.soc_max)
        socs.append(soc)
    billed = [a.p_dis for a in actions] if billed is None else billed
    return book_run(cp, bp, 0, loads, rens, [a.p_ch for a in actions],
                    [a.p_dis for a in actions], billed, soc_next, socs)


class TestStepFlows:
    def test_balance_holds_exactly(self, costs, battery):
        rng = np.random.default_rng(2)
        loads, rens, actions = [], [], []
        for _ in range(1000):
            load = float(rng.uniform(0, 500))
            ren = float(rng.uniform(0, 400))
            soc = float(rng.uniform(battery.soc_min, battery.soc_max))
            if rng.random() < 0.5:
                a = ControlAction(p_ch=float(rng.uniform(0, 300)))
            else:
                a = ControlAction(p_dis=float(rng.uniform(0, 150)))
            loads.append(load)
            rens.append(ren)
            actions.append(clip_feasible(battery, soc, a, load, ren,
                                         allow_backup_charging=bool(rng.random() < 0.3)))
        records, *_ = book(costs, battery, loads, rens, actions)
        for r, a in zip(records, actions):
            assert abs(r.renewable_used + r.p_dis + r.backup - r.p_ch - r.load) < 1e-9
            assert r.renewable_used + r.curtailed == pytest.approx(
                r.renewable_available, abs=1e-9)
            for v in (r.renewable_used, r.backup, r.curtailed):
                assert v >= 0.0
            # diesel never burns while renewables are thrown away
            assert not (r.backup > 1e-9 and r.curtailed > 1e-9)
            assert r.backup == backup_power(r.load, r.renewable_available, a)

    def test_surplus_is_curtailed_when_not_stored(self, costs, battery):
        (r,), *_ = book(costs, battery, [100.0], [300.0], [ControlAction()])
        assert r.curtailed == pytest.approx(200.0)
        assert r.backup == 0.0


class TestBookRun:
    def test_every_value_is_a_python_float(self, costs, battery):
        records, *totals = book(costs, battery, [300.0, 100.0], [100.0, 250.0],
                                [ControlAction(p_dis=80.0), ControlAction(p_ch=150.0)])
        for r in records:
            values = [getattr(r, f) for f in ("load", "renewable_available",
                                              "renewable_used", "p_ch", "p_dis",
                                              "backup", "curtailed", "soc")]
            values += [r.cost.battery, r.cost.backup, r.cost.penalty, r.cost.total]
            assert all(type(v) is float for v in values)
        assert [r.hour for r in records] == [0, 1]
        assert all(type(v) is float for v in totals)

    def test_hours_and_totals_match_step_cost_bit_for_bit(self, battery):
        rng = np.random.default_rng(31)
        cp = CostParams(c_bat=0.07, c_backup=0.4, q_under=12.0, r_over=9.0)
        loads = [float(x) for x in rng.uniform(0, 500, 200)]
        rens = [float(x) for x in rng.uniform(0, 600, 200)]
        actions = [ControlAction(p_ch=float(x)) if x >= 0 else ControlAction(p_dis=float(-x))
                   for x in rng.uniform(-200, 400, 200)]
        billed = [a.p_dis + float(x) for a, x in zip(actions, rng.uniform(0, 50, 200))]
        # Starting low, unclipped actions leave the SOC band on both sides.
        records, total_cost, total_backup, _ = book(cp, battery, loads, rens, actions,
                                                    billed, soc0=150.0)
        soc, cost_sum, backup_sum = 150.0, 0.0, 0.0
        for r, a, dis in zip(records, actions, billed):
            cb = step_cost(cp, battery, r.load, r.renewable_available, a,
                           step_soc(battery, soc, a), billed_discharge=dis)
            assert r.cost == cb
            assert r.backup == backup_power(r.load, r.renewable_available, a)
            cost_sum += cb.total
            backup_sum += r.backup * battery.dt
            soc = r.soc
        assert any(r.cost.penalty > 0 for r in records)
        assert (total_cost, total_backup) == (cost_sum, backup_sum)

    def test_an_empty_run_books_nothing(self, costs, battery):
        assert book(costs, battery, [], [], []) == ((), 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("what,loads,rens,hour", [
        # 0.3 per kWh of 1.7e308 kW is finite; the cost sum overflows at hour 5
        ("cost", [1.0, 1.0] + [1.7e308] * 4, [0.0] * 6, 5),
        # 2 x 1.7e308 kWh of backup overflows while the cost stays finite
        ("backup", [1.0, 1.7e308, 1.7e308, 1.0], [0.0] * 4, 2),
        ("curtailment", [0.0] * 4, [1.0, 1.0, 1.7e308, 1.7e308], 3),
    ])
    def test_a_run_total_that_is_not_finite_is_refused_naming_the_hour(
            self, costs, battery, what, loads, rens, hour):
        n = len(loads)
        with pytest.raises(ValidationError,
                           match=f"hour {10 + hour}: booking its {what} .* makes the "
                                 f"run's total {what} inf"):
            book_run(costs, battery, 10, loads, rens, [0.0] * n, [0.0] * n, [0.0] * n,
                     [500.0] * n, [500.0] * n)


class TestSequenceCost:
    def test_all_idle_on_surplus_window_is_free(self, costs, battery):
        idle = [ControlAction()] * 4
        j = sequence_cost(costs, battery, [100.0] * 4, [200.0] * 4, 500.0, idle)
        assert j == 0.0

    def test_single_step_backup_only(self, costs, battery):
        j = sequence_cost(costs, battery, [300.0], [200.0], 500.0,
                          [ControlAction()])
        assert j == pytest.approx(0.30 * 100.0)

    def test_length_mismatch(self, costs, battery):
        with pytest.raises(LengthMismatch):
            sequence_cost(costs, battery, [100.0, 100.0], [0.0, 0.0], 500.0,
                          [ControlAction()])

    def test_two_step_optimum_matches_exhaustive_oracle(self):
        hp = make_problem([300.0, 250.0], [120.0, 60.0], soc0=400.0)
        seq, cost = solve_exact(hp)
        _, oracle_cost = brute_force_optimum(hp)
        assert cost == oracle_cost

    def test_additive_over_split_windows(self, costs, battery):
        rng = np.random.default_rng(9)
        loads = [float(x) for x in rng.uniform(0, 400, 6)]
        rens = [float(x) for x in rng.uniform(0, 300, 6)]
        acts = [ControlAction(p_ch=50.0), ControlAction(), ControlAction(p_dis=80.0),
                ControlAction(p_dis=20.0), ControlAction(p_ch=10.0), ControlAction()]
        whole = sequence_cost(costs, battery, loads, rens, 500.0, acts)
        mid_soc = 500.0
        from reference import step_soc
        for a in acts[:3]:
            mid_soc = step_soc(battery, mid_soc, a)
        first = sequence_cost(costs, battery, loads[:3], rens[:3], 500.0, acts[:3])
        second = sequence_cost(costs, battery, loads[3:], rens[3:], mid_soc, acts[3:])
        assert whole == pytest.approx(first + second, rel=1e-12)

    def test_raising_backup_price_never_lowers_cost(self, battery):
        loads = [300.0, 100.0, 250.0]
        rens = [100.0, 150.0, 0.0]
        acts = [ControlAction(p_dis=50.0), ControlAction(), ControlAction(p_dis=100.0)]
        cheap = CostParams(c_backup=0.2)
        dear = CostParams(c_backup=0.4)
        assert (sequence_cost(dear, battery, loads, rens, 500.0, acts)
                >= sequence_cost(cheap, battery, loads, rens, 500.0, acts))

    def test_batch_matches_scalar_bitwise(self, costs, battery):
        rng = np.random.default_rng(17)
        loads = [float(x) for x in rng.uniform(0, 400, 4)]
        rens = [float(x) for x in rng.uniform(0, 300, 4)]
        lattice = build_lattice(100.0, 40.0, 50.0)  # idle, 50, 100 kW charge, 40 discharge
        hp = make_problem(loads, rens, soc0=500.0, battery=battery, costs=costs,
                          lattice=lattice, terminal_soc_value=0.25)
        idx = rng.integers(0, len(lattice), (32, 4))
        batch = hp.costs_of(idx)
        for i, row in enumerate(idx):
            scalar = sequence_cost(costs, battery, loads, rens, 500.0,
                                   [lattice.actions[int(a)] for a in row],
                                   terminal_soc_value=0.25)
            assert batch[i] == scalar

    @pytest.mark.parametrize("width", [3, 5])
    def test_batch_of_the_wrong_width_raises_length_mismatch(self, width):
        hp = make_problem([100.0] * 4, [50.0] * 4)
        with pytest.raises(LengthMismatch):
            hp.costs_of(np.zeros((2, width), dtype=np.int64))


class TestTerminalTerm:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_weight_adds_zeros_even_at_an_overflowed_soc(self, battery):
        term = terminal_term(0.0, battery, np.array([np.inf, -np.inf, 500.0]))
        assert term.tolist() == [0.0, 0.0, 0.0]

    def test_nonzero_weight_is_the_formula_bit_for_bit(self, battery):
        soc = np.random.default_rng(5).uniform(-300.0, 1500.0, 64)
        assert (terminal_term(0.2, battery, soc).tolist()
                == (0.2 * (battery.soc_max - soc)).tolist())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowed_soc_gets_no_credit(self, battery):
        term = terminal_term(0.2, battery, np.array([np.inf, -np.inf, 500.0]))
        assert term.tolist() == [0.0, 0.0, 0.2 * (battery.soc_max - 500.0)]

    def test_scalar_cost_of_an_overflowed_soc_is_inf_not_nan(self, battery, costs):
        # Two 1.7e308 kW charges take the SOC to +inf: its penalty is inf,
        # and a credit of -inf would have made the cost NaN.
        plan = [ControlAction(p_ch=1.7e308)] * 2
        cost = sequence_cost(costs, battery, [300.0] * 2, [0.0] * 2, 500.0, plan, 0.2)
        assert cost == np.inf


class TestSplitKernel:
    @settings(max_examples=150, deadline=None)
    @given(cp=st.sampled_from(COST_PARAMS), delta=st.sampled_from(sorted(LATTICES)),
           load=powers, ren=powers, soc=socs)
    def test_base_plus_penalty_is_stage_costs_and_step_cost(self, cp, delta, load,
                                                            ren, soc):
        lat = LATTICES[delta]
        bp = REFERENCE_BATTERY
        soc_next = soc_after(bp, soc, lat.p_ch, lat.p_dis)
        split = (stage_base_of(cp, bp, load, ren, *action_terms(cp, bp, lat.p_ch, lat.p_dis))
                 + soc_penalty(cp, bp, soc_next))
        assert split.tolist() == [step_cost(cp, bp, load, ren, a, float(s)).total
                                  for a, s in zip(lat.actions, soc_next)]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), n_steps=st.integers(1, 12),
           cp=st.sampled_from(COST_PARAMS), delta=st.sampled_from(sorted(LATTICES)),
           soc0=socs, terminal=st.sampled_from([0.0, 0.2, 0.0137]),
           rows=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_scalar_sequence_cost_bit_for_bit(
            self, data, n_steps, cp, delta, soc0, terminal, rows, seed):
        # From 8 steps on a pairwise sum would differ in the last bit.
        lat = LATTICES[delta]
        bp = REFERENCE_BATTERY
        loads = data.draw(st.lists(powers, min_size=n_steps, max_size=n_steps))
        rens = data.draw(st.lists(powers, min_size=n_steps, max_size=n_steps))
        idx = np.random.default_rng(seed).integers(0, len(lat), (rows, n_steps))
        hp = make_problem(loads, rens, soc0=soc0, battery=bp, costs=cp, lattice=lat,
                          terminal_soc_value=terminal)
        got = hp.costs_of(idx)
        want = [sequence_cost(cp, bp, loads, rens, soc0,
                              [lat.actions[int(i)] for i in row], terminal)
                for row in idx]
        assert got.tolist() == want
