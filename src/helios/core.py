"""Core domain types shared by every other module.

Unit conventions used throughout the package:
- Power: kW
- Energy: kWh
- Time: hours (dt converts power to energy exactly once per transition)
- Irradiance: kWh/m2 per hour
- Wind speed: m/s at 10 m height

All types are immutable value objects; constructors reject invalid states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


# =============================================================================
# Errors
# =============================================================================


class HeliosError(Exception):
    """Base class for all package errors."""


class ValidationError(HeliosError):
    """An invariant on a domain type was violated."""


class LengthMismatch(ValidationError):
    """A series or sequence does not have the expected length."""


class NegativeValue(ValidationError):
    """A physically nonnegative quantity was given a negative value."""


class RankDeficient(ValidationError):
    """Regression design matrix is not full column rank."""


class TooFewSamples(ValidationError):
    """Not enough samples to fit the regression model."""


class InvalidStep(ValidationError):
    """Lattice discretization step is not positive."""


class BudgetExceeded(HeliosError):
    """Solver workload exceeds the configured budget caps."""


class ParseError(HeliosError):
    """A CSV or config file could not be parsed; message cites the location."""


# =============================================================================
# Domain types
# =============================================================================


@dataclass(frozen=True)
class Scenario:
    """Hourly time series of irradiance, wind speed and load demand.

    This is the world the controller sees: `steps` hourly samples starting
    at hour index `start_hour`.
    """

    start_hour: int
    steps: int
    irradiance: tuple[float, ...]  # kWh/m2 per hour
    wind_speed: tuple[float, ...]  # m/s
    load: tuple[float, ...]        # kW

    def __post_init__(self):
        object.__setattr__(self, "irradiance", tuple(float(x) for x in self.irradiance))
        object.__setattr__(self, "wind_speed", tuple(float(x) for x in self.wind_speed))
        object.__setattr__(self, "load", tuple(float(x) for x in self.load))
        for name in ("irradiance", "wind_speed", "load"):
            check_series(name, getattr(self, name), self.steps)

    def window(self, start: int, length: int) -> "Scenario":
        """Slice of `length` steps beginning at local index `start` (no wraparound).

        The series were validated at construction, so the slice is not
        validated again; only start and length are checked.
        """
        if not (0 <= start < self.steps and length >= 1):
            raise ValidationError(
                f"window(start={start}, length={length}) needs 0 <= start < "
                f"steps={self.steps} and length >= 1")
        stop = min(start + length, self.steps)
        part = object.__new__(Scenario)
        part.__dict__.update(start_hour=self.start_hour + start, steps=stop - start,
                             irradiance=self.irradiance[start:stop],
                             wind_speed=self.wind_speed[start:stop],
                             load=self.load[start:stop])
        return part


def check_series(name: str, series, steps: int) -> None:
    """Raise unless `series` holds `steps` finite values >= 0; names the index."""
    if len(series) != steps:
        raise LengthMismatch(
            f"{name} has {len(series)} entries, expected steps={steps}")
    for i, v in enumerate(series):
        if not math.isfinite(v):
            raise ValidationError(f"{name}[{i}] = {v} is not finite")
        if v < 0:
            raise NegativeValue(f"{name}[{i}] = {v} is negative")


def check_finite_fields(obj) -> None:
    """Raise ValidationError naming the first float dataclass field that is NaN or inf."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValidationError(
                f"{type(obj).__name__}.{f.name} must be finite, got {v}")


@dataclass(frozen=True)
class BatteryParams:
    """Physical limits and efficiencies of the battery storage."""

    capacity: float   # kWh
    soc_min: float    # kWh
    soc_max: float    # kWh
    p_ch_max: float   # kW
    p_dis_max: float  # kW
    eta_ch: float     # charging efficiency, (0, 1]
    eta_dis: float    # discharging efficiency, (0, 1]
    dt: float = 1.0   # hours per step

    def __post_init__(self):
        check_finite_fields(self)
        if not (0 <= self.soc_min < self.soc_max <= self.capacity):
            raise ValidationError(
                f"need 0 <= soc_min < soc_max <= capacity, got "
                f"({self.soc_min}, {self.soc_max}, {self.capacity})")
        if self.p_ch_max <= 0 or self.p_dis_max <= 0:
            raise ValidationError("charge/discharge rate limits must be positive")
        if self.dt <= 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        for name, eta in (("eta_ch", self.eta_ch), ("eta_dis", self.eta_dis)):
            if not (0 < eta <= 1):
                raise ValidationError(f"{name} must be in (0, 1], got {eta}")


@dataclass(frozen=True)
class ControlAction:
    """One (charge, discharge) power pair, kW.

    Charging and discharging are mutually exclusive: a round trip within a
    single step would burn energy with no physical meaning, so at most one
    of p_ch and p_dis is positive. The vector cost kernels rely on this.
    """

    p_ch: float = 0.0   # kW
    p_dis: float = 0.0  # kW

    def __post_init__(self):
        if not (math.isfinite(self.p_ch) and math.isfinite(self.p_dis)):
            raise ValidationError(
                f"action powers must be finite, got ({self.p_ch}, {self.p_dis})")
        if self.p_ch < 0 or self.p_dis < 0:
            raise NegativeValue(
                f"action powers must be nonnegative, got ({self.p_ch}, {self.p_dis})")
        if self.p_ch > 0 and self.p_dis > 0:
            raise ValidationError(
                f"simultaneous charge and discharge not allowed: "
                f"({self.p_ch}, {self.p_dis})")


@dataclass(frozen=True)
class CostParams:
    """Unit prices and penalty weights, currency per kWh.

    Penalties must strictly dominate the backup price so that constraint
    violations are never cheaper than burning diesel.
    """

    c_bat: float = 0.05      # per kWh discharged (cycling / degradation)
    c_backup: float = 0.30   # per kWh of backup (diesel) energy
    q_under: float = 10.0    # per kWh of SOC shortfall below soc_min
    r_over: float = 10.0     # per kWh of SOC excess above soc_max

    def __post_init__(self):
        check_finite_fields(self)
        for name, v in (("c_bat", self.c_bat), ("c_backup", self.c_backup),
                        ("q_under", self.q_under), ("r_over", self.r_over)):
            if v < 0:
                raise NegativeValue(f"{name} must be nonnegative, got {v}")
        if self.q_under <= self.c_backup or self.r_over <= self.c_backup:
            raise ValidationError(
                "penalty weights q_under and r_over must exceed c_backup")
