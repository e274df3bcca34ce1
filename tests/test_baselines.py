"""Rule-based strategy behavior: branch logic, netting, billing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helios.baselines import _RULES, RULE_BASED, StrategyKind, _share_rule, rule_step
from helios.battery import clip_feasible, max_discharge_kw
from helios.core import BatteryParams, ControlAction, ValidationError
from helios.costing import book_run
from reference import step_soc

RF = StrategyKind.RENEWABLE_FIRST
BF = StrategyKind.BATTERY_FIRST
FF = StrategyKind.FIFTY_FIFTY


def act(kind, battery, soc, load, renewable):
    action, _ = rule_step(kind, battery, soc, load, renewable)
    return action


def test_strategy_parse_round_trip():
    for kind in StrategyKind:
        assert StrategyKind.parse(kind.value) is kind


def test_strategy_parse_rejects_unknown():
    with pytest.raises(ValidationError, match="frobnicate"):
        StrategyKind.parse("frobnicate")


class TestRenewableFirst:
    def test_surplus_charges(self, battery):
        a = act(RF, battery, 500.0, load=200.0, renewable=300.0)
        assert a.p_dis == 0.0
        assert a.p_ch == pytest.approx(100.0)

    def test_deficit_discharges_up_to_rate_limit(self, battery):
        a = act(RF, battery, 500.0, load=300.0, renewable=100.0)
        assert a.p_ch == 0.0
        assert a.p_dis == 100.0  # deficit 200 capped by p_dis_max

    def test_dead_calm_zero_load_idles(self, battery):
        assert act(RF, battery, 500.0, 0.0, 0.0) == ControlAction()

    def test_never_discharges_while_curtailing(self, battery, costs):
        rng = np.random.default_rng(4)
        loads, rens, applied, soc_next = [], [], [], []
        for _ in range(300):
            load = float(rng.uniform(0, 400))
            ren = float(rng.uniform(0, 400))
            soc = float(rng.uniform(100, 900))
            a = clip_feasible(battery, soc, act(RF, battery, soc, load, ren),
                              load, ren)
            loads.append(load)
            rens.append(ren)
            applied.append(a)
            soc_next.append(step_soc(battery, soc, a))
        p_dis = [a.p_dis for a in applied]
        records, *_ = book_run(costs, battery, 0, loads, rens, [a.p_ch for a in applied],
                               p_dis, p_dis, soc_next, soc_next)
        for r in records:
            assert not (r.p_dis > 1e-9 and r.curtailed > 1e-9)


class TestBatteryFirst:
    def test_discharge_intent_bounded_by_load_not_rate(self, battery):
        # load 80 < p_dis_max: the rule wants exactly 80 from the battery
        # regardless of plentiful renewables; netting turns the surplus into
        # a single charge action and billing keeps the gross 80.
        action, billed = rule_step(StrategyKind.BATTERY_FIRST, battery, 500.0,
                                   load=80.0, renewable=300.0)
        assert billed == pytest.approx(80.0)
        assert action.p_dis == 0.0
        assert action.p_ch == pytest.approx(220.0)

    def test_depleted_battery_behaves_like_renewable_only(self, battery):
        a = act(BF, battery, battery.soc_min, load=300.0, renewable=100.0)
        assert a.p_dis == 0.0

    def test_zero_everything_idles(self, battery):
        assert act(BF, battery, 500.0, 0.0, 0.0) == ControlAction()


class TestFiftyFifty:
    def test_even_split_with_ample_battery(self, battery):
        # load 200: renewable serves 100, battery serves 100, surplus stored;
        # netting leaves a single 100 kW charge and bills the 100 kW share.
        action, billed = rule_step(StrategyKind.FIFTY_FIFTY, battery, 500.0,
                                   load=200.0, renewable=300.0)
        assert billed == pytest.approx(100.0)
        assert action.p_ch == pytest.approx(100.0)

    def test_renewable_shortfall_spills_to_battery(self, battery):
        a = act(FF, battery, 500.0, load=200.0, renewable=50.0)
        # renewable 50 + battery min(100, p_dis_max) -> 100; remainder backup
        assert a.p_dis == pytest.approx(100.0)

    def test_zero_load_stores_full_surplus(self, battery):
        a = act(FF, battery, 500.0, load=0.0, renewable=250.0)
        assert a.p_dis == 0.0
        assert a.p_ch == pytest.approx(250.0)


def test_rules_state_intent_and_leave_the_limits_to_clip_feasible(battery):
    # 400 kW of surplus against 50 kWh of headroom: the rule asks for all
    # of it, and only the engine's clip_feasible caps it at the headroom
    action, _ = rule_step(RF, battery, 850.0, load=100.0, renewable=500.0)
    assert action.p_ch == 400.0
    clipped = clip_feasible(battery, 850.0, action, 100.0, 500.0)
    assert clipped.p_ch == pytest.approx(50.0 / 0.9)


def test_policies_are_deterministic(battery):
    for kind in (StrategyKind.RENEWABLE_FIRST, StrategyKind.BATTERY_FIRST,
                 StrategyKind.FIFTY_FIFTY):
        first = rule_step(kind, battery, 437.0, 213.0, 188.0)
        second = rule_step(kind, battery, 437.0, 213.0, 188.0)
        assert first == second


def test_rule_step_rejects_optimizer_kinds(battery):
    with pytest.raises(ValidationError):
        rule_step(StrategyKind.EG_MPC, battery, 500.0, 100.0, 100.0)


@st.composite
def batteries(draw):
    soc_min = draw(st.floats(0.0, 500.0))
    soc_max = draw(st.floats(soc_min + 1.0, 1000.0))
    return BatteryParams(capacity=1000.0, soc_min=soc_min, soc_max=soc_max,
                         p_ch_max=draw(st.floats(1.0, 1000.0)),
                         p_dis_max=draw(st.floats(1.0, 1000.0)),
                         eta_ch=draw(st.floats(0.5, 1.0)),
                         eta_dis=draw(st.floats(0.5, 1.0)),
                         dt=draw(st.sampled_from([1.0, 0.25])))


powers = st.one_of(st.just(0.0), st.floats(0.0, 1000.0))


@pytest.mark.parametrize("kind", RULE_BASED, ids=lambda k: k.value)
@settings(max_examples=300, deadline=None)
@given(battery=batteries(), soc=st.floats(-200.0, 1200.0), load=powers,
       renewable=powers)
def test_share_rule_splits_the_load_within_each_source(kind, battery, soc, load,
                                                       renewable):
    share = _RULES[kind]
    cap = max_discharge_kw(battery, soc)
    gross_ch, gross_dis = _share_rule(share, battery, soc, load, renewable)
    used = renewable - gross_ch  # renewables serving the load
    tol = 1e-12 * (load + renewable + cap)  # the rounding of three sums
    assert 0.0 <= gross_dis <= cap
    assert 0.0 <= gross_ch <= renewable
    assert used + gross_dis <= load + tol
    # Past its share of the load, a source covers only the other's shortfall:
    # the battery once renewables are spent, renewables once the battery is
    # at its limit; together they cover as much of the load as both can.
    if gross_dis > load * share + tol:
        assert gross_ch <= tol
    if used > load * (1.0 - share) + tol:
        assert gross_dis >= cap - tol
    assert used + gross_dis >= min(load, renewable + cap) - tol


def test_battery_first_bills_a_signed_zero_load_as_zero(battery):
    # A -0.0 kW cell passes the CSV checks; the gross discharge
    # bat_share + 0.0 is +0.0, so the bill carries no signed zero.
    action, billed = rule_step(BF, battery, 500.0, load=-0.0, renewable=100.0)
    assert math.copysign(1.0, billed) == 1.0 and billed == 0.0
    assert action.p_ch == 100.0 and action.p_dis == 0.0
