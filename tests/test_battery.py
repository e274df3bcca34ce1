"""SOC dynamics and feasibility clipping."""

import numpy as np
import pytest

from helios.battery import clip_feasible, max_charge_kw, max_discharge_kw, soc_after
from helios.core import ControlAction
from helios.costing import book_run
from reference import step_soc


def test_charge_step(battery):
    assert step_soc(battery, 500.0, ControlAction(p_ch=100.0)) == pytest.approx(590.0)


def test_discharge_step(battery):
    assert step_soc(battery, 500.0, ControlAction(p_dis=90.0)) == pytest.approx(400.0)


def test_idle_is_identity(battery):
    assert step_soc(battery, 500.0, ControlAction()) == 500.0


def test_soc_after_matches_step_soc_bit_for_bit(battery):
    rng = np.random.default_rng(17)
    socs = rng.uniform(-200.0, 1200.0, 500)
    p_ch = np.where(rng.random(500) < 0.5, rng.uniform(0.0, 1000.0, 500), 0.0)
    p_dis = np.where(p_ch == 0.0, rng.uniform(0.0, 100.0, 500), 0.0)
    batch = soc_after(battery, socs, p_ch, p_dis)
    for soc, ch, dis, got in zip(socs, p_ch, p_dis, batch):
        want = step_soc(battery, float(soc), ControlAction(p_ch=float(ch),
                                                           p_dis=float(dis)))
        assert soc_after(battery, float(soc), float(ch), float(dis)) == want
        assert got == want


def test_step_is_linear_in_action(battery):
    # step(soc, a+b) - step(soc, a) - step(soc, b) + soc == 0 exactly
    a = ControlAction(p_ch=70.0)
    b = ControlAction(p_ch=30.0)
    ab = ControlAction(p_ch=100.0)
    lhs = (step_soc(battery, 500.0, ab) - step_soc(battery, 500.0, a)
           - step_soc(battery, 500.0, b) + 500.0)
    assert lhs == pytest.approx(0.0, abs=1e-9)


def test_round_trip_loss(battery):
    # charging x then discharging back to the start returns eta_ch*eta_dis*x
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = float(rng.uniform(1.0, 300.0))
        soc1 = step_soc(battery, 500.0, ControlAction(p_ch=x))
        stored = soc1 - 500.0
        recovered = stored * battery.eta_dis  # discharge until soc returns to 500
        assert recovered == pytest.approx(battery.eta_ch * battery.eta_dis * x,
                                          rel=1e-12)


class TestClipFeasible:
    def test_fills_exactly_to_soc_max(self, battery):
        clipped = clip_feasible(battery, 890.0, ControlAction(p_ch=100.0),
                                load=50.0, renewable=250.0)
        # solve 890 + 0.9 * x = 900
        assert clipped.p_ch == pytest.approx(10.0 / 0.9, rel=1e-12)
        assert step_soc(battery, 890.0, clipped) == pytest.approx(900.0)

    def test_no_discharge_headroom_at_soc_min(self, battery):
        clipped = clip_feasible(battery, 100.0, ControlAction(p_dis=50.0),
                                load=200.0, renewable=0.0)
        assert clipped.p_dis == 0.0

    def test_feasible_action_unchanged(self, battery):
        a = ControlAction(p_ch=50.0)
        assert clip_feasible(battery, 500.0, a, load=100.0, renewable=180.0) == a
        d = ControlAction(p_dis=50.0)
        assert clip_feasible(battery, 500.0, d, load=80.0, renewable=0.0) == d

    def test_charging_capped_by_surplus(self, battery):
        clipped = clip_feasible(battery, 500.0, ControlAction(p_ch=300.0),
                                load=80.0, renewable=200.0)
        assert clipped.p_ch == 120.0

    def test_backup_charging_flag_lifts_surplus_cap(self, battery):
        clipped = clip_feasible(battery, 500.0, ControlAction(p_ch=300.0),
                                load=100.0, renewable=0.0,
                                allow_backup_charging=True)
        assert clipped.p_ch == 300.0

    def test_discharge_capped_at_load(self, battery, costs):
        # no dump load: discharge beyond the load has nowhere to go
        clipped = clip_feasible(battery, 500.0, ControlAction(p_dis=100.0),
                                load=60.0, renewable=0.0)
        assert clipped.p_dis == 60.0
        soc_next = step_soc(battery, 500.0, clipped)
        (r,), *_ = book_run(costs, battery, 0, [60.0], [0.0], [clipped.p_ch],
                            [clipped.p_dis], [clipped.p_dis], [soc_next], [soc_next])
        assert (r.backup, r.curtailed) == (0.0, 0.0)

    def test_random_actions_always_land_in_bounds(self, battery):
        rng = np.random.default_rng(11)
        for _ in range(500):
            soc = float(rng.uniform(battery.soc_min, battery.soc_max))
            if rng.random() < 0.5:
                a = ControlAction(p_ch=float(rng.uniform(0, battery.p_ch_max)))
            else:
                a = ControlAction(p_dis=float(rng.uniform(0, battery.p_dis_max)))
            load = float(rng.uniform(0.0, 400.0))
            ren = float(rng.uniform(0.0, 800.0))
            clipped = clip_feasible(battery, soc, a, load, ren)
            nxt = step_soc(battery, soc, clipped)
            assert battery.soc_min - 1e-9 <= nxt <= battery.soc_max + 1e-9
            assert clipped.p_ch <= max(0.0, ren - load)
            assert clipped.p_dis <= load
            assert clip_feasible(battery, soc, clipped, load, ren) == clipped


def test_rate_helpers_respect_limits(battery):
    # ample surplus: headroom (900-500)/0.9 binds before the 1000 kW rate
    assert max_charge_kw(battery, 500.0, 5000.0) == pytest.approx(400.0 / 0.9)
    assert max_charge_kw(battery, 899.9999, 5000.0) < 1.0
    assert max_discharge_kw(battery, 900.0) == battery.p_dis_max
    assert max_discharge_kw(battery, 100.0) == 0.0
