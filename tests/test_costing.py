"""Cost decomposition, energy balance, and the horizon cost J(u)."""

import numpy as np
import pytest

from conftest import brute_force_optimum, make_problem
from helios.core import ControlAction, CostParams, LengthMismatch, NegativeValue
from helios.battery import soc_after
from helios.costing import (CostBreakdown, backup_power, sequence_cost,
                            sequence_costs_batch, stage_costs, step_cost,
                            step_flows)
from helios.horizon import solve_exact


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
        # every action of a 10 kW lattice priced in one broadcast call.
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
                got = stage_costs(cp, battery, load, ren, soc_next, p_ch, p_dis)
                for ch, dis, s_next, g in zip(p_ch, p_dis, soc_next, got):
                    a = ControlAction(p_ch=float(ch), p_dis=float(dis))
                    assert g == step_cost(cp, battery, load, ren, a,
                                          float(s_next)).total


class TestStepFlows:
    def test_balance_holds_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            load = float(rng.uniform(0, 500))
            ren = float(rng.uniform(0, 400))
            if rng.random() < 0.5:
                a = ControlAction(p_ch=float(rng.uniform(0, 300)))
            else:
                a = ControlAction(p_dis=float(rng.uniform(0, 150)))
            f = step_flows(load, ren, a)
            assert abs(f.renewable_used + f.p_dis + f.backup - f.p_ch - load) < 1e-9
            assert f.renewable_used + f.curtailed == pytest.approx(ren, abs=1e-9)
            for v in (f.renewable_used, f.p_ch, f.p_dis, f.backup, f.curtailed):
                assert v >= 0.0
            # diesel never burns while renewables are thrown away
            assert not (f.backup > 1e-9 and f.curtailed > 1e-9)

    def test_discharge_capped_at_load(self):
        f = step_flows(60.0, 0.0, ControlAction(p_dis=100.0))
        assert f.p_dis == 60.0
        assert f.backup == 0.0

    def test_surplus_is_curtailed_when_not_stored(self):
        f = step_flows(100.0, 300.0, ControlAction())
        assert f.curtailed == pytest.approx(200.0)
        assert f.backup == 0.0


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
        from helios.battery import step_soc
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
        levels_ch = [0.0, 50.0, 100.0]
        levels_dis = [0.0, 40.0]
        pop_actions = []
        for _ in range(32):
            row = []
            for _ in range(4):
                if rng.random() < 0.5:
                    row.append(ControlAction(p_ch=float(rng.choice(levels_ch))))
                else:
                    row.append(ControlAction(p_dis=float(rng.choice(levels_dis))))
            pop_actions.append(row)
        p_ch = np.array([[a.p_ch for a in row] for row in pop_actions])
        p_dis = np.array([[a.p_dis for a in row] for row in pop_actions])
        batch = sequence_costs_batch(costs, battery, loads, rens, 500.0,
                                     p_ch, p_dis, terminal_soc_value=0.25)
        for i, row in enumerate(pop_actions):
            scalar = sequence_cost(costs, battery, loads, rens, 500.0, row,
                                   terminal_soc_value=0.25)
            assert batch[i] == scalar
