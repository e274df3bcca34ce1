"""Hourly CSV ingestion and synthetic scenario generation.

The canonical file is an hourly CSV with header
`hour,irradiance_kwh_m2,wind_ms,load_kw`, one row per hour: hours are
integers, and row i's hour must be row 0's hour + i. Files may carry an extra
`renewable_kw` column with observed generation; the regression fit requires
it, the simulator ignores it. Floats are written with repr() so a write ->
read round trip is bit exact.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (NegativeValue, ParseError, Scenario, ValidationError,
                   check_finite_fields)
from .renewable import RenewableModel, predict_series

SCENARIO_COLUMNS = ("hour", "irradiance_kwh_m2", "wind_ms", "load_kw")
RENEWABLE_COLUMN = "renewable_kw"


def _read_rows(path: str) -> tuple[list[str], list[dict]]:
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open '{path}': {exc}") from None
    with fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        rows = list(reader)
    return list(header), rows


def _parse_float(row: dict, column: str, row_index: int) -> float:
    raw = row.get(column)
    if raw is None or raw == "":
        raise ParseError(f"row {row_index}: missing value for column '{column}'")
    try:
        return float(raw)
    except ValueError:
        raise ParseError(
            f"row {row_index}: column '{column}' has non-numeric value '{raw}'"
        ) from None


def _parse_hour(row: dict, row_index: int) -> int:
    """The hour cell, an integer literal, parsed exactly by int()."""
    raw = row.get("hour")
    try:
        return int(raw)
    except (TypeError, ValueError):
        value = _parse_float(row, "hour", row_index)  # refuses a missing or textual cell
    if not math.isfinite(value):
        raise ParseError(f"row {row_index}: column 'hour' has non-finite value '{raw}'")
    raise ParseError(f"row {row_index}: column 'hour' has value '{raw}', "
                     "which is not an integer literal")


def load_hourly_csv(path: str) -> Scenario:
    """Parse an hourly resource CSV into a validated Scenario."""
    header, rows = _read_rows(path)
    for col in SCENARIO_COLUMNS:
        if col not in header:
            raise ParseError(f"missing column '{col}' in '{path}'")
    if not rows:
        raise ParseError(f"'{path}' contains a header but no data rows")
    start_hour = _parse_hour(rows[0], 0)
    irr, wind, load = [], [], []
    for i, row in enumerate(rows):
        if _parse_hour(row, i) != start_hour + i:
            raise ParseError(f"row {i}: hour {row['hour']} breaks the contiguous "
                             f"hours from {start_hour} (expected {start_hour + i})")
        irr.append(_parse_float(row, "irradiance_kwh_m2", i))
        wind.append(_parse_float(row, "wind_ms", i))
        load.append(_parse_float(row, "load_kw", i))
    return Scenario(start_hour=start_hour, steps=len(rows),
                    irradiance=tuple(irr), wind_speed=tuple(wind),
                    load=tuple(load))


def load_fit_samples(path: str) -> list[tuple[float, float, float]]:
    """(irradiance, wind, observed renewable) triples for the regression fit."""
    header, rows = _read_rows(path)
    for col in ("irradiance_kwh_m2", "wind_ms", RENEWABLE_COLUMN):
        if col not in header:
            raise ParseError(f"missing column '{col}' in '{path}'")
    return [(_parse_float(r, "irradiance_kwh_m2", i),
             _parse_float(r, "wind_ms", i),
             _parse_float(r, RENEWABLE_COLUMN, i)) for i, r in enumerate(rows)]


def write_scenario_csv(path: str, scenario: Scenario,
                       renewable_model: RenewableModel | None = None) -> None:
    """Write a scenario; with a model, append the predicted renewable_kw column.

    The column is predicted before the file is opened, so a wind speed that
    predict refuses leaves no file behind."""
    header = list(SCENARIO_COLUMNS)
    if renewable_model is not None:
        header.append(RENEWABLE_COLUMN)
        renewable = predict_series(renewable_model, scenario.irradiance,
                                   scenario.wind_speed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(scenario.steps):
            row = [str(scenario.start_hour + i), repr(scenario.irradiance[i]),
                   repr(scenario.wind_speed[i]), repr(scenario.load[i])]
            if renewable_model is not None:
                row.append(repr(renewable[i]))
            writer.writerow(row)


@dataclass(frozen=True)
class SyntheticProfile:
    """Shape of the generated day: step load bump plus diurnal irradiance."""

    base_load_kw: float = 150.0
    bump_load_kw: float = 250.0   # added on top of base inside the bump window
    bump_start_hour: int = 8
    bump_end_hour: int = 18
    irradiance_peak: float = 1.0  # kWh/m2 at solar noon
    wind_base_ms: float = 8.0
    wind_jitter_ms: float = 0.0   # uniform +/- amplitude, 0 disables jitter

    def __post_init__(self):
        check_finite_fields(self)
        for name in ("base_load_kw", "bump_load_kw", "irradiance_peak", "wind_base_ms",
                     "wind_jitter_ms"):
            if (v := getattr(self, name)) < 0:
                raise NegativeValue(f"SyntheticProfile.{name} must be >= 0, got {v}")
        if self.wind_jitter_ms > sys.float_info.max / 2:  # the draw spans 2 * jitter
            raise ValidationError(f"SyntheticProfile.wind_jitter_ms must be <= "
                                  f"{sys.float_info.max / 2!r}, got {self.wind_jitter_ms}")
        if not 0 <= self.bump_start_hour <= self.bump_end_hour <= 24:
            raise ValidationError(
                "SyntheticProfile needs 0 <= bump_start_hour <= bump_end_hour <= 24, "
                f"got ({self.bump_start_hour}, {self.bump_end_hour})")


def generate_synthetic(days: int, profile: SyntheticProfile | None = None,
                       seed: int = 0) -> Scenario:
    """Deterministic synthetic scenario: half-sine sun, fixed wind, step load.

    Irradiance follows a clipped half-sine peaking at hour 12 (zero before
    06:00 and after 18:00); wind holds the base value plus optional seeded
    uniform jitter; load is base + bump inside [bump_start, bump_end).
    """
    if days < 1:
        raise ValidationError(f"days must be >= 1, got {days}")
    profile = profile or SyntheticProfile()
    # Seeds in [0, 2**64) keep their stream; a negative one wraps into it, as
    # run_closed_loop's does.
    rng = np.random.default_rng(seed % 2**64)
    steps = 24 * days
    irr, wind, load = [], [], []
    for t in range(steps):
        h = t % 24
        irr.append(profile.irradiance_peak
                   * max(0.0, math.sin(math.pi * (h - 6.0) / 12.0)))
        w = profile.wind_base_ms
        if profile.wind_jitter_ms > 0:
            w += rng.uniform(-profile.wind_jitter_ms, profile.wind_jitter_ms)
        wind.append(max(0.0, w))
        bump = (profile.bump_load_kw
                if profile.bump_start_hour <= h < profile.bump_end_hour else 0.0)
        load.append(profile.base_load_kw + bump)
    return Scenario(start_hour=0, steps=steps, irradiance=tuple(irr),
                    wind_speed=tuple(wind), load=tuple(load))
