"""Rule-based dispatch strategies and the strategy registry.

The three rules are one policy, the share rule, at three battery shares of
the load: 0 for Renewable-First, 1/2 for 50/50, 1 for Battery-First. The
battery targets its share, renewables the rest; a shortfall in one source
spills to the other, the remainder falls through to backup, and leftover
renewables are stored. The intents are gross: an action cannot charge and
discharge at once, so rule_step nets them into one action while the bill
keeps the gross discharge (the cycling the rule asked for). Rules do not
clip: the engine applies the plant's limits with clip_feasible.
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


def _share_rule(share: float, p: BatteryParams, soc: float, load: float,
                renewable: float) -> tuple[float, float]:
    """Gross (charge, discharge) intents of the rule whose battery targets
    `share` of the load and whose renewables target the rest."""
    dis_cap = max_discharge_kw(p, soc)
    ren_share = min(renewable, load * (1.0 - share))
    bat_share = min(dis_cap, load * share)
    residual = load - ren_share - bat_share
    extra_ren = extra_bat = 0.0  # what the spill lines give on a covered load
    if residual > 0:
        extra_ren = min(renewable - ren_share, residual)
        residual -= extra_ren
        extra_bat = min(dis_cap - bat_share, residual)
    return renewable - ren_share - extra_ren, bat_share + extra_bat


# The battery's share of the load under each rule.
_RULES = {StrategyKind.RENEWABLE_FIRST: 0.0,
          StrategyKind.BATTERY_FIRST: 1.0,
          StrategyKind.FIFTY_FIFTY: 0.5}
RULE_BASED = tuple(_RULES)


def rule_step(kind: StrategyKind, p: BatteryParams, soc: float, load: float,
              renewable: float) -> tuple[ControlAction, float]:
    """One rule's intents netted into one unclipped action, paired with the
    gross discharge in kW it is billed for: (action, billed_discharge)."""
    share = _RULES.get(kind)
    if share is None:
        raise ValidationError(f"{kind} is not a rule-based strategy")
    gross_ch, gross_dis = _share_rule(share, p, soc, load, renewable)
    net = gross_ch - gross_dis
    action = ControlAction(p_ch=net) if net >= 0 else ControlAction(p_dis=-net)
    return action, gross_dis
