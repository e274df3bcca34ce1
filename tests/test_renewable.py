"""Renewable model: reference-coefficient point checks, OLS fit, surface."""

import math
import warnings

import numpy as np
import pytest

from helios.core import NegativeValue, RankDeficient, TooFewSamples, ValidationError
from helios.renewable import (RenewableModel, fit, reference_model, predict,
                              predict_series, surface)

REF = reference_model()


class TestPredict:
    def test_reference_point_full_sun(self):
        # -166.3272 + 15*1.0 + 51.7979*8 - 0.047*512
        assert predict(REF, 1.0, 8.0) == pytest.approx(238.992, abs=1e-6)

    def test_reference_point_half_sun(self):
        assert predict(REF, 0.5, 8.0) == pytest.approx(231.492, abs=1e-6)

    def test_clamps_negative_raw_to_zero(self):
        # calm night: the negative intercept would give -166.3272 raw
        assert predict(REF, 0.0, 0.0) == 0.0

    def test_clamps_to_rated_ceiling(self):
        m = RenewableModel(0.0, 100.0, 0.0, 0.0, p_rated=600.0)
        assert predict(m, 0.0, 50.0) == 600.0

    def test_monotone_in_irradiance_inside_band(self):
        values = [predict(REF, irr, 8.0) for irr in np.linspace(0.0, 1.0, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_wind_whose_cube_overflows_is_refused_naming_it(self):
        assert predict(REF, 0.5, 5e102) == 0.0  # a finite cube of 1.25e308
        with pytest.raises(ValidationError, match=r"wind speed 1e\+103 m/s"):
            predict(REF, 0.5, 1e103)
        with pytest.raises(ValidationError, match=r"wind speed 1e\+103 m/s"):
            predict_series(REF, [0.5, 0.5], [8.0, 1e103])
        with pytest.raises(ValidationError, match=r"wind speed 1e\+103 m/s"):
            surface(REF, [0.5], np.array([8.0, 1e103]))


def _samples(model, rng, n=50, noise=0.0):
    irr = rng.uniform(0.0, 1.2, size=n)
    v = rng.uniform(0.0, 15.0, size=n)
    p = (model.a1 * irr + model.a2 * v + model.a3 * v ** 3 + model.a4
         + rng.uniform(-noise, noise, size=n))
    return list(zip(irr, v, p))


class TestFit:
    def test_recovers_exact_coefficients_from_noiseless_data(self):
        truth = RenewableModel(2.0, 3.0, -0.01, 5.0)
        rng = np.random.default_rng(42)
        fitted = fit(_samples(truth, rng))
        for got, want in [(fitted.a1, 2.0), (fitted.a2, 3.0),
                          (fitted.a3, -0.01), (fitted.a4, 5.0)]:
            assert got == pytest.approx(want, rel=1e-6)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            fit([(0.1, 1.0, 5.0), (0.2, 2.0, 6.0), (0.3, 3.0, 7.0)])

    def test_constant_wind_is_rank_deficient(self):
        # fixed v makes the v and v^3 columns collinear with the intercept;
        # the 4x4 normal matrix drops rank (checked by brute force below)
        rng = np.random.default_rng(1)
        samples = [(float(irr), 8.0, float(3.0 * irr + 7.0))
                   for irr in rng.uniform(0.0, 1.0, size=30)]
        design = np.column_stack([
            np.array([s[0] for s in samples]),
            np.full(30, 8.0),
            np.full(30, 512.0),
            np.ones(30),
        ])
        assert np.linalg.matrix_rank(design.T @ design) < 4
        with pytest.raises(RankDeficient):
            fit(samples)

    @pytest.mark.parametrize("column, value, error, name", [
        (0, math.nan, ValidationError, "irradiance[3] = nan is not finite"),
        (0, -0.1, NegativeValue, "irradiance[3] = -0.1 is negative"),
        (1, math.inf, ValidationError, "wind_speed[3] = inf is not finite"),
        (1, -2.0, NegativeValue, "wind_speed[3] = -2.0 is negative"),
        (1, 1e103, ValidationError, "cube of wind_speed[3] = inf is not finite"),
        (2, math.inf, ValidationError, "p_observed[3] = inf is not finite"),
        (2, math.nan, ValidationError, "p_observed[3] = nan is not finite"),
    ], ids=["nan_irradiance", "negative_irradiance", "inf_wind", "negative_wind",
            "overflowing_wind_cube", "inf_power", "nan_power"])
    def test_bad_sample_is_refused_naming_its_index(self, column, value, error, name):
        samples = [list(s) for s in _samples(REF, np.random.default_rng(3), n=10)]
        samples[3][column] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused without a numpy warning
            with pytest.raises(error) as excinfo:
                fit(samples)
        assert str(excinfo.value) == name

    def test_residuals_orthogonal_to_design_columns(self):
        truth = reference_model()
        rng = np.random.default_rng(7)
        samples = _samples(truth, rng, n=200, noise=10.0)
        fitted = fit(samples)
        irr = np.array([s[0] for s in samples])
        v = np.array([s[1] for s in samples])
        p = np.array([s[2] for s in samples])
        resid = p - (fitted.a1 * irr + fitted.a2 * v + fitted.a3 * v ** 3
                     + fitted.a4)
        design = np.column_stack([irr, v, v ** 3, np.ones_like(irr)])
        dots = design.T @ resid
        assert np.all(np.abs(dots) < 1e-6 * max(np.linalg.norm(resid), 1.0)
                      * np.linalg.norm(design, axis=0))


class TestRefusals:
    @pytest.mark.parametrize("p_rated", [0.0, -600.0])
    def test_nonpositive_rated_power_is_refused(self, p_rated):
        with pytest.raises(ValidationError, match=f"p_rated must be positive, got {p_rated}"):
            RenewableModel(1.0, 1.0, 0.0, 0.0, p_rated=p_rated)

    @pytest.mark.parametrize("irr_grid, v_grid", [([], [8.0]), ([1.0], []), ([], [])])
    def test_empty_surface_grid_is_refused(self, irr_grid, v_grid):
        with pytest.raises(ValidationError, match="surface grids must be nonempty"):
            surface(REF, irr_grid, v_grid)


class TestSurface:
    def test_single_cell_matches_predict(self):
        grid = surface(REF, [1.0], [8.0])
        assert grid.shape == (1, 1)
        assert grid[0, 0] == pytest.approx(238.992, abs=1e-6)

    def test_zero_model_gives_zero_matrix(self):
        m = RenewableModel(0.0, 0.0, 0.0, 0.0)
        assert np.all(surface(m, [0.0, 0.5, 1.0], [0.0, 5.0]) == 0.0)

    def test_rows_monotone_in_irradiance_below_clamp(self):
        grid = surface(REF, [0.2, 0.8], [8.0, 10.0])
        assert np.all(grid[1] >= grid[0])
