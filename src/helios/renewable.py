"""Lumped renewable generation model: power from irradiance and wind speed.

A single linear surrogate P = a1*irr + a2*v + a3*v^3 + a4 stands in for the
combined PV + turbine fleet. Raw predictions can go negative on calm nights
(the fitted intercept is negative), so output is clamped to [0, p_rated].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import (RankDeficient, TooFewSamples, ValidationError, check_finite_fields,
                   check_series)

# Reference coefficients and default clamp ceiling.
DEFAULT_COEFFS = (15.0, 51.7979, -0.047, -166.3272)
DEFAULT_P_RATED = 600.0  # kW


@dataclass(frozen=True)
class RenewableModel:
    """Coefficients of the lumped generation surrogate.

    a1: kW per (kWh/m2)  -- irradiance gain
    a2: kW per (m/s)     -- linear wind gain
    a3: kW per (m/s)^3   -- cubic wind gain
    a4: kW               -- intercept
    p_rated: kW          -- clamp ceiling for predictions
    """

    a1: float
    a2: float
    a3: float
    a4: float
    p_rated: float = DEFAULT_P_RATED

    def __post_init__(self):
        check_finite_fields(self)
        if self.p_rated <= 0:
            raise ValidationError(f"p_rated must be positive, got {self.p_rated}")


def reference_model(p_rated: float = DEFAULT_P_RATED) -> RenewableModel:
    """Model with the package's reference coefficients."""
    a1, a2, a3, a4 = DEFAULT_COEFFS
    return RenewableModel(a1, a2, a3, a4, p_rated)


def predict(m: RenewableModel, irr: float, v: float) -> float:
    """Predicted renewable power in kW, clamped to [0, p_rated].

    irr and v must be nonnegative.
    """
    raw = m.a1 * irr + m.a2 * v + m.a3 * v ** 3 + m.a4
    return min(max(raw, 0.0), m.p_rated)


def fit(samples, p_rated: float = DEFAULT_P_RATED) -> RenewableModel:
    """Ordinary least squares fit of finite (irr >= 0, v >= 0, p_observed) samples.

    The design matrix is [irr, v, v^3, 1]; no regularization. Needs at
    least 4 samples and a full-rank design (constant wind makes the v and
    v^3 columns collinear with the intercept and raises RankDeficient).
    """
    samples = list(samples)
    if len(samples) < 4:
        raise TooFewSamples(f"need at least 4 samples, got {len(samples)}")
    irr, v, p = (np.array([s[k] for s in samples], dtype=float) for k in range(3))
    for name, column in (("irradiance", irr), ("wind_speed", v)):
        check_series(name, column, len(samples))
    bad = np.flatnonzero(~np.isfinite(p))
    if bad.size:
        raise ValidationError(f"p_observed[{bad[0]}] = {p[bad[0]]} is not finite")
    with np.errstate(over="ignore"):  # an overflowing cube is refused just below
        cube = v ** 3
    check_series("cube of wind_speed", cube, len(samples))
    design = np.column_stack([irr, v, cube, np.ones_like(irr)])
    if np.linalg.matrix_rank(design) < 4:
        raise RankDeficient("design matrix [irr, v, v^3, 1] is rank deficient")
    coeffs, *_ = np.linalg.lstsq(design, p, rcond=None)
    a1, a2, a3, a4 = (float(c) for c in coeffs)
    return RenewableModel(a1, a2, a3, a4, p_rated)


def surface(m: RenewableModel, irr_grid, v_grid) -> np.ndarray:
    """Prediction matrix with element [i][j] = predict(m, irr_grid[i], v_grid[j]).

    This is the data behind the generation surface plot; grids must be
    nonempty.
    """
    irr_grid = list(irr_grid)
    v_grid = list(v_grid)
    if not irr_grid or not v_grid:
        raise ValidationError("surface grids must be nonempty")
    return np.array([predict_series(m, repeat(irr), v_grid) for irr in irr_grid])


def predict_series(m: RenewableModel, irradiance, wind_speed) -> list[float]:
    """predict() applied elementwise to paired series."""
    return [predict(m, irr, v) for irr, v in zip(irradiance, wind_speed)]
