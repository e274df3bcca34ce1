"""Run configuration: defaults, flat-file parsing and serialization.

The config file is a flat, line-oriented `key = value` format: trivially
parseable anywhere, diff-friendly, no ecosystem dependency. Lines starting
with `#` are comments. Unknown keys are rejected with the offending key
named. Defaults mirror the reference battery table: 1000 kWh capacity,
SoC0 = 500 kWh, 1000/100 kW rate limits, 0.9 efficiencies, 1 h steps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

from .baselines import StrategyKind
from .core import BatteryParams, CostParams, ParseError, ValidationError, check_finite_fields
from .evo import AcoParams, EvoParams
from .horizon import DEFAULT_DELTA_P, DEFAULT_MAX_ENUMERATION, DEFAULT_SOC_GRID_STEP
from .renewable import RenewableModel, reference_model


def default_battery() -> BatteryParams:
    # 10-90% of capacity is a conventional lithium operating window; the
    # reference table gives no explicit bounds.
    return BatteryParams(capacity=1000.0, soc_min=100.0, soc_max=900.0,
                         p_ch_max=1000.0, p_dis_max=100.0,
                         eta_ch=0.9, eta_dis=0.9, dt=1.0)


@dataclass(frozen=True)
class Config:
    """Everything a closed-loop run needs besides the scenario itself."""

    battery: BatteryParams = field(default_factory=default_battery)
    costs: CostParams = field(default_factory=CostParams)
    initial_soc: float = 500.0          # kWh
    delta_p: float = DEFAULT_DELTA_P    # kW, action lattice step
    horizon: int = 6                    # steps per prediction window
    strategy: StrategyKind = StrategyKind.EG_MPC
    renewable: RenewableModel = field(default_factory=reference_model)
    evo: EvoParams = field(default_factory=EvoParams)
    aco: AcoParams = field(default_factory=AcoParams)
    allow_backup_charging: bool = False
    forecast_noise_kw: float = 0.0      # uniform amplitude on window forecasts
    terminal_soc_value: float = 0.0     # currency/kWh credit for stored energy
    soc_grid_step: float = DEFAULT_SOC_GRID_STEP
    max_enumeration: int = DEFAULT_MAX_ENUMERATION
    seed: int = 42

    def __post_init__(self):
        # Single-field checks only: a caller that replace()s one field at a
        # time could be refused halfway to a valid config by a cross-field one.
        check_finite_fields(self)
        for name, ok, rule in (("horizon", self.horizon >= 1, ">= 1"),
                               ("forecast_noise_kw", self.forecast_noise_kw >= 0, ">= 0"),
                               # the noise draw spans 2 * forecast_noise_kw
                               ("forecast_noise_kw",
                                self.forecast_noise_kw <= sys.float_info.max / 2,
                                f"<= {sys.float_info.max / 2!r}"),
                               ("terminal_soc_value", self.terminal_soc_value >= 0, ">= 0"),
                               ("soc_grid_step", self.soc_grid_step > 0, "> 0"),
                               ("max_enumeration", self.max_enumeration >= 0, ">= 0"),
                               ("delta_p", self.delta_p > 0, "> 0")):
            if not ok:
                raise ValidationError(
                    f"Config.{name} must be {rule}, got {getattr(self, name)}")


# key -> (Config attribute holding the field or None for Config itself,
#         field name, parser); config_to_text writes the keys in this order.
_SCHEMA: dict[str, tuple] = {
    "battery_capacity_kwh": ("battery", "capacity", float),
    "battery_soc_min_kwh": ("battery", "soc_min", float),
    "battery_soc_max_kwh": ("battery", "soc_max", float),
    "battery_p_ch_max_kw": ("battery", "p_ch_max", float),
    "battery_p_dis_max_kw": ("battery", "p_dis_max", float),
    "battery_eta_ch": ("battery", "eta_ch", float),
    "battery_eta_dis": ("battery", "eta_dis", float),
    "battery_dt_h": ("battery", "dt", float),
    "initial_soc_kwh": (None, "initial_soc", float),
    "cost_c_bat": ("costs", "c_bat", float),
    "cost_c_backup": ("costs", "c_backup", float),
    "cost_q_under": ("costs", "q_under", float),
    "cost_r_over": ("costs", "r_over", float),
    "lattice_delta_p_kw": (None, "delta_p", float),
    "horizon_steps": (None, "horizon", int),
    "strategy": (None, "strategy", StrategyKind.parse),
    "renewable_a1": ("renewable", "a1", float),
    "renewable_a2": ("renewable", "a2", float),
    "renewable_a3": ("renewable", "a3", float),
    "renewable_a4": ("renewable", "a4", float),
    "renewable_p_rated_kw": ("renewable", "p_rated", float),
    "evo_population": ("evo", "population", int),
    "evo_generations": ("evo", "generations", int),
    "evo_p_mut": ("evo", "p_mut", float),
    "evo_crossover_points": ("evo", "crossover_points", int),
    "evo_elite": ("evo", "elite", int),
    "evo_local_search_budget": ("evo", "local_search_budget", int),
    "evo_epsilon_fitness": ("evo", "epsilon_fitness", float),
    "aco_ants": ("aco", "ants", int),
    "aco_iterations": ("aco", "iterations", int),
    "aco_evaporation": ("aco", "evaporation", float),
    "aco_pheromone_init": ("aco", "pheromone_init", float),
    "aco_alpha": ("aco", "alpha", float),
    "aco_beta": ("aco", "beta", float),
    "allow_backup_charging": (None, "allow_backup_charging", None),
    "forecast_noise_kw": (None, "forecast_noise_kw", float),
    "terminal_soc_value": (None, "terminal_soc_value", float),
    "soc_grid_step_kwh": (None, "soc_grid_step", float),
    "max_enumeration": (None, "max_enumeration", int),
    "seed": (None, "seed", int),
}


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ParseError(f"key '{key}': expected a boolean, got '{raw}'")


def parse_config_text(text: str, base: Config | None = None) -> Config:
    """Build a Config from `key = value` lines; see module docstring.

    Keys not present fall back to `base` (package defaults when omitted),
    which also lets callers layer override lines on an existing Config.
    """
    # Parsed values per _SCHEMA group; the None group holds Config's own fields.
    groups: dict = {g: {} for g, _, _ in _SCHEMA.values()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ParseError(f"line {lineno}: unknown config key '{key}'")
        group, attr, conv = _SCHEMA[key]
        try:
            value = _parse_bool(raw, key) if conv is None else conv(raw)
        except ParseError:
            raise
        except Exception:
            raise ParseError(
                f"line {lineno}: key '{key}': cannot parse value '{raw}'") from None
        groups[group][attr] = value

    base = base if base is not None else Config()
    kwargs = groups.pop(None)
    for group, values in groups.items():
        if values:
            kwargs[group] = replace(getattr(base, group), **values)
    return replace(base, **kwargs)


def load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _format_value(value, conv) -> str:
    if conv is None:  # boolean
        return "true" if value else "false"
    if conv is float:
        return repr(value)
    return value.value if isinstance(value, StrategyKind) else str(value)


def config_to_text(cfg: Config) -> str:
    """Serialize a Config so that parse_config_text round-trips it exactly.

    Keys are written in _SCHEMA order.
    """
    lines = ["# helios run configuration"]
    for key, (group, attr, conv) in _SCHEMA.items():
        owner = cfg if group is None else getattr(cfg, group)
        lines.append(f"{key} = {_format_value(getattr(owner, attr), conv)}")
    return "\n".join(lines) + "\n"


def save_config(cfg: Config, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))
