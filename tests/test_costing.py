"""Cost decomposition, energy balance, and the horizon cost J(u)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_optimum, make_problem
from helios.core import (BatteryParams, ControlAction, CostParams, LengthMismatch,
                         NegativeValue)
from helios.battery import soc_after
from helios.costing import (CostBreakdown, backup_power, sequence_cost,
                            soc_penalty, stage_base, step_cost, step_flows)
from helios.horizon import build_lattice, solve_exact

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
                got = (stage_base(cp, battery, load, ren, p_ch, p_dis)
                       + soc_penalty(cp, battery, soc_next))
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


class TestSplitKernel:
    @settings(max_examples=150, deadline=None)
    @given(cp=st.sampled_from(COST_PARAMS), delta=st.sampled_from(sorted(LATTICES)),
           load=powers, ren=powers, soc=socs)
    def test_base_plus_penalty_is_stage_costs_and_step_cost(self, cp, delta, load,
                                                            ren, soc):
        lat = LATTICES[delta]
        bp = REFERENCE_BATTERY
        soc_next = soc_after(bp, soc, lat.p_ch, lat.p_dis)
        split = (stage_base(cp, bp, load, ren, lat.p_ch, lat.p_dis)
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
