from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("start, length", [(30, 6), (24, 1), (-1, 3), (0, 0),
                                               (5, -2)])
    def test_window_refuses_start_outside_steps_or_no_length(self, start, length):
        s = Scenario(start_hour=0, steps=24, irradiance=_series(24),
                     wind_speed=_series(24), load=_series(24))
        with pytest.raises(ValidationError) as excinfo:
            s.window(start, length)
        assert excinfo.type is ValidationError
        assert f"start={start}, length={length}" in str(excinfo.value)
        assert "steps=24" in str(excinfo.value)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), steps=st.integers(1, 30))
    def test_window_equals_a_validated_scenario_of_the_slice(self, data, steps):
        values = st.floats(0.0, 1e6, allow_nan=False)
        s = Scenario(start_hour=data.draw(st.integers(0, 10**6)), steps=steps,
                     irradiance=data.draw(st.lists(values, min_size=steps, max_size=steps)),
                     wind_speed=data.draw(st.lists(values, min_size=steps, max_size=steps)),
                     load=data.draw(st.lists(values, min_size=steps, max_size=steps)))
        start = data.draw(st.integers(0, steps - 1))
        length = data.draw(st.integers(1, steps + 3))
        stop = min(start + length, steps)
        w = s.window(start, length)
        assert w == Scenario(start_hour=s.start_hour + start, steps=stop - start,
                             irradiance=s.irradiance[start:stop],
                             wind_speed=s.wind_speed[start:stop],
                             load=s.load[start:stop])
        assert all(type(getattr(w, name)) is tuple
                   for name in ("irradiance", "wind_speed", "load"))


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

    @pytest.mark.parametrize("p_ch_max, p_dis_max", [(0.0, 100.0), (100.0, -5.0)])
    def test_rejects_nonpositive_rate_limit(self, p_ch_max, p_dis_max):
        with pytest.raises(ValidationError, match="rate limits must be positive"):
            BatteryParams(capacity=1000, soc_min=100, soc_max=900, p_ch_max=p_ch_max,
                          p_dis_max=p_dis_max, eta_ch=0.9, eta_dis=0.9)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError):
            BatteryParams(capacity=1000, soc_min=100, soc_max=900,
                          p_ch_max=100, p_dis_max=100, eta_ch=0.9,
                          eta_dis=0.9, dt=0.0)


class TestControlAction:
    def test_idle_default(self):
        idle = ControlAction()
        assert (idle.p_ch, idle.p_dis) == (0.0, 0.0)

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

    @settings(max_examples=150, deadline=None)
    @given(series=st.sampled_from(["irradiance", "wind_speed", "load"]),
           bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
           values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=48),
           data=st.data())
    def test_any_non_finite_series_entry(self, series, bad, values, data):
        i = data.draw(st.integers(0, len(values) - 1), label="index")
        kw = {name: list(values) for name in ("irradiance", "wind_speed", "load")}
        kw[series][i] = bad
        with pytest.raises(ValidationError, match=rf"{series}\[{i}\] = .* not finite"):
            Scenario(start_hour=0, steps=len(values), **kw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cls, kw", [(CostParams, {}),
                                         (BatteryParams, _BATTERY_KW),
                                         (RenewableModel, _MODEL_KW)])
    def test_every_parameter_field(self, cls, kw, bad):
        cls(**kw)  # the base values are valid
        for f in fields(cls):
            with pytest.raises(ValidationError, match=rf"{cls.__name__}\.{f.name} "):
                cls(**{**kw, f.name: bad})
