from dataclasses import fields

import pytest

from helios.core import (BatteryParams, ControlAction, CostParams,
                         LengthMismatch, NegativeValue, Scenario,
                         ValidationError)
from helios.renewable import RenewableModel


def _series(n, value=1.0):
    return tuple(value for _ in range(n))


class TestScenario:
    def test_valid_24_step_scenario(self):
        s = Scenario(start_hour=0, steps=24, irradiance=_series(24, 0.5),
                     wind_speed=_series(24, 8.0), load=_series(24, 100.0))
        assert s.steps == 24 and s.load[0] == 100.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            Scenario(start_hour=0, steps=24, irradiance=_series(24),
                     wind_speed=_series(24), load=_series(23))

    def test_negative_wind_entry(self):
        wind = list(_series(24, 8.0))
        wind[3] = -1.0
        with pytest.raises(NegativeValue):
            Scenario(start_hour=0, steps=24, irradiance=_series(24),
                     wind_speed=tuple(wind), load=_series(24))

    def test_window_truncates_at_end(self):
        s = Scenario(start_hour=5, steps=10, irradiance=_series(10),
                     wind_speed=_series(10), load=_series(10))
        w = s.window(8, 6)
        assert w.steps == 2
        assert w.start_hour == 13


class TestBatteryParams:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            BatteryParams(capacity=1000, soc_min=900, soc_max=100,
                          p_ch_max=100, p_dis_max=100, eta_ch=0.9, eta_dis=0.9)

    def test_rejects_bounds_above_capacity(self):
        with pytest.raises(ValidationError):
            BatteryParams(capacity=500, soc_min=100, soc_max=900,
                          p_ch_max=100, p_dis_max=100, eta_ch=0.9, eta_dis=0.9)

    @pytest.mark.parametrize("eta", [0.0, -0.1, 1.2])
    def test_rejects_bad_efficiency(self, eta):
        with pytest.raises(ValidationError):
            BatteryParams(capacity=1000, soc_min=100, soc_max=900,
                          p_ch_max=100, p_dis_max=100, eta_ch=eta, eta_dis=0.9)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError):
            BatteryParams(capacity=1000, soc_min=100, soc_max=900,
                          p_ch_max=100, p_dis_max=100, eta_ch=0.9,
                          eta_dis=0.9, dt=0.0)


class TestControlAction:
    def test_idle_default(self):
        assert ControlAction().is_idle

    def test_rejects_simultaneous_charge_discharge(self):
        with pytest.raises(ValidationError):
            ControlAction(p_ch=10.0, p_dis=10.0)

    def test_rejects_simultaneous_powers_whose_product_underflows(self):
        assert 1e-200 * 1e-200 == 0.0
        with pytest.raises(ValidationError, match="simultaneous"):
            ControlAction(p_ch=1e-200, p_dis=1e-200)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_power(self, bad):
        with pytest.raises(ValidationError):
            ControlAction(p_ch=bad)
        with pytest.raises(ValidationError):
            ControlAction(p_dis=bad)

    def test_rejects_negative_power(self):
        with pytest.raises(NegativeValue):
            ControlAction(p_ch=-5.0)

    def test_single_direction_ok(self):
        assert ControlAction(p_ch=50.0).p_ch == 50.0
        assert ControlAction(p_dis=50.0).p_dis == 50.0


class TestCostParams:
    def test_defaults_valid(self):
        cp = CostParams()
        assert cp.q_under > cp.c_backup
        assert cp.r_over > cp.c_backup

    def test_rejects_negative_price(self):
        with pytest.raises(NegativeValue):
            CostParams(c_bat=-0.01)

    def test_penalties_must_dominate_backup(self):
        with pytest.raises(ValidationError):
            CostParams(c_backup=0.30, q_under=0.10, r_over=10.0)


_BATTERY_KW = dict(capacity=1000.0, soc_min=100.0, soc_max=900.0, p_ch_max=100.0,
                   p_dis_max=100.0, eta_ch=0.9, eta_dis=0.9, dt=1.0)
_MODEL_KW = dict(a1=15.0, a2=50.0, a3=-0.05, a4=-160.0, p_rated=600.0)


class TestNonFiniteInputRefused:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("series", ["irradiance", "wind_speed", "load"])
    def test_scenario_series(self, series, bad):
        kw = {name: list(_series(3, 5.0)) for name in
              ("irradiance", "wind_speed", "load")}
        kw[series][1] = bad
        with pytest.raises(ValidationError, match=rf"{series}\[1\].*not finite"):
            Scenario(start_hour=0, steps=3, **kw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cls, kw", [(CostParams, {}),
                                         (BatteryParams, _BATTERY_KW),
                                         (RenewableModel, _MODEL_KW)])
    def test_every_parameter_field(self, cls, kw, bad):
        cls(**kw)  # the base values are valid
        for f in fields(cls):
            with pytest.raises(ValidationError, match=rf"{cls.__name__}\.{f.name} "):
                cls(**{**kw, f.name: bad})
