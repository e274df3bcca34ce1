"""Rule-based dispatch strategies and the strategy registry.

The three rules act on the current hour only and state gross intents: the
power to store and the power the battery should serve. Battery-First and
50/50 want both in the same hour; since an action cannot charge and
discharge at once, rule_step nets them into one action while the bill keeps
the gross discharge (the cycling the rule asked for). Rules do not clip:
the engine applies the plant's limits with clip_feasible, as for every
strategy.
"""

from __future__ import annotations

import enum

from .battery import max_discharge_kw
from .core import BatteryParams, ControlAction, ValidationError


class StrategyKind(enum.Enum):
    """Every dispatch strategy the engine can run."""

    RENEWABLE_FIRST = "renewable_first"
    BATTERY_FIRST = "battery_first"
    FIFTY_FIFTY = "fifty_fifty"
    MYOPIC_MPC = "myopic_mpc"
    STANDARD_MPC = "standard_mpc"
    AC_MPC = "ac_mpc"
    EG_MPC = "eg_mpc"

    @classmethod
    def parse(cls, name: str) -> "StrategyKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValidationError(
                f"unknown strategy '{name}' (valid: {valid})") from None


def _renewable_first(p: BatteryParams, soc: float, load: float,
                     renewable: float) -> tuple[float, float]:
    """Gross (charge, discharge) intents of the Renewable-First rule: store the
    surplus, discharge on deficit; the rest falls through to backup."""
    deficit = max(0.0, load - renewable)
    return max(0.0, renewable - load), min(deficit, max_discharge_kw(p, soc))


def _battery_first(p: BatteryParams, soc: float, load: float,
                   renewable: float) -> tuple[float, float]:
    """Gross (charge, discharge) intents of the Battery-First rule.

    The battery serves the load up to its limits even when renewables
    suffice; all renewable power not needed for the residual load is stored.
    """
    gross_dis = min(load, max_discharge_kw(p, soc))
    residual = max(0.0, load - gross_dis)
    renewable_to_load = min(renewable, residual)
    gross_ch = renewable - renewable_to_load
    return gross_ch, gross_dis


def _fifty_fifty(p: BatteryParams, soc: float, load: float,
                 renewable: float) -> tuple[float, float]:
    """Gross (charge, discharge) intents of the 50/50 split rule.

    Renewables and battery each target half the load; a shortfall in one
    source spills to the other before falling through to backup. Leftover
    renewable generation is stored.
    """
    dis_cap = max_discharge_kw(p, soc)
    ren_share = min(renewable, load / 2.0)
    bat_share = min(dis_cap, load / 2.0)
    residual = load - ren_share - bat_share
    extra_ren = min(renewable - ren_share, max(0.0, residual))
    residual -= extra_ren
    extra_bat = min(dis_cap - bat_share, max(0.0, residual))
    gross_dis = bat_share + extra_bat
    gross_ch = renewable - ren_share - extra_ren
    return gross_ch, gross_dis


_RULES = {StrategyKind.RENEWABLE_FIRST: _renewable_first,
          StrategyKind.BATTERY_FIRST: _battery_first,
          StrategyKind.FIFTY_FIFTY: _fifty_fifty}
RULE_BASED = tuple(_RULES)


def rule_step(kind: StrategyKind, p: BatteryParams, soc: float, load: float,
              renewable: float) -> tuple[ControlAction, float]:
    """One rule's intents netted into one unclipped action, paired with the
    gross discharge in kW it is billed for: (action, billed_discharge)."""
    rule = _RULES.get(kind)
    if rule is None:
        raise ValidationError(f"{kind} is not a rule-based strategy")
    gross_ch, gross_dis = rule(p, soc, load, renewable)
    net = gross_ch - gross_dis
    action = ControlAction(p_ch=net) if net >= 0 else ControlAction(p_dis=-net)
    return action, gross_dis
