"""Rule-based dispatch strategies and the strategy registry.

The three rules act on the current hour only. Battery-First and 50/50 both
want to discharge toward the load and store renewables in the same hour;
since a control action cannot charge and discharge simultaneously, the two
intents are netted into a single feasible action while the cost accounting
keeps the gross discharge (the cycling the rule asked for). That preserves
each rule's cost signature without a physically impossible action.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

from .battery import max_charge_kw, max_discharge_kw
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


RULE_BASED = (StrategyKind.RENEWABLE_FIRST, StrategyKind.BATTERY_FIRST,
              StrategyKind.FIFTY_FIFTY)


class PolicyDecision(NamedTuple):
    """A rule's net action plus the gross discharge it should be billed for."""

    action: ControlAction
    billed_discharge: float  # kW


def _net_action(p: BatteryParams, soc: float, gross_ch: float, gross_dis: float,
                surplus: float, allow_backup_charging: bool) -> ControlAction:
    """Net simultaneous intents into one feasible action."""
    net = gross_ch - gross_dis
    if net >= 0:
        return ControlAction(p_ch=min(net, max_charge_kw(
            p, soc, surplus, allow_backup_charging)))
    return ControlAction(p_dis=min(-net, max_discharge_kw(p, soc)))


def renewable_first_step(p: BatteryParams, soc: float, load: float,
                         renewable: float,
                         allow_backup_charging: bool = False) -> ControlAction:
    """Serve load from renewables, store the surplus, discharge on deficit.

    Any remaining deficit falls through to backup downstream.
    """
    surplus = max(0.0, renewable - load)
    deficit = max(0.0, load - renewable)
    if surplus > 0:
        return ControlAction(p_ch=min(surplus, max_charge_kw(
            p, soc, surplus, allow_backup_charging)))
    if deficit > 0:
        return ControlAction(p_dis=min(deficit, max_discharge_kw(p, soc)))
    return ControlAction()


def _battery_first_parts(p: BatteryParams, soc: float, load: float,
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


def battery_first_step(p: BatteryParams, soc: float, load: float,
                       renewable: float,
                       allow_backup_charging: bool = False) -> ControlAction:
    """Battery serves the load first; renewables are stored for later use."""
    return _netted(_battery_first_parts, p, soc, load, renewable,
                   allow_backup_charging).action


def _fifty_fifty_parts(p: BatteryParams, soc: float, load: float,
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


def fifty_fifty_step(p: BatteryParams, soc: float, load: float,
                     renewable: float,
                     allow_backup_charging: bool = False) -> ControlAction:
    """Split the load evenly between renewables and battery, spill shortfalls."""
    return _netted(_fifty_fifty_parts, p, soc, load, renewable,
                   allow_backup_charging).action


def _netted(parts: Callable, p: BatteryParams, soc: float, load: float,
            renewable: float, allow_backup_charging: bool) -> PolicyDecision:
    """Net a rule's gross intents into one action, billed at the gross discharge."""
    gross_ch, gross_dis = parts(p, soc, load, renewable)
    surplus = max(0.0, renewable - load)
    action = _net_action(p, soc, gross_ch, gross_dis, surplus, allow_backup_charging)
    return PolicyDecision(action=action, billed_discharge=gross_dis)


def rule_step(kind: StrategyKind, p: BatteryParams, soc: float, load: float,
              renewable: float,
              allow_backup_charging: bool = False) -> PolicyDecision:
    """Run one rule-based strategy step and report the billable discharge."""
    if kind is StrategyKind.RENEWABLE_FIRST:
        action = renewable_first_step(p, soc, load, renewable, allow_backup_charging)
        return PolicyDecision(action=action, billed_discharge=action.p_dis)
    if kind is StrategyKind.BATTERY_FIRST:
        return _netted(_battery_first_parts, p, soc, load, renewable,
                       allow_backup_charging)
    if kind is StrategyKind.FIFTY_FIFTY:
        return _netted(_fifty_fifty_parts, p, soc, load, renewable,
                       allow_backup_charging)
    raise ValidationError(f"{kind} is not a rule-based strategy")
