"""Scalar reference of the cost model: one hour and one window in plain floats.

The package prices plans and bills runs with its vector kernel
(helios.battery.soc_after, helios.costing.stage_base_of, soc_penalty,
terminal_term, book_run). These functions write the same formulas one step at
a time, apart from that kernel, so tests check it against them bit for bit.
"""

from __future__ import annotations

import math

from helios.core import BatteryParams, ControlAction, CostParams, LengthMismatch
from helios.costing import CostBreakdown


def step_soc(p: BatteryParams, soc: float, a: ControlAction) -> float:
    """Next SOC in kWh after one action, unclamped:
    soc + eta_ch*p_ch*dt - (p_dis/eta_dis)*dt."""
    return soc + p.eta_ch * a.p_ch * p.dt - (a.p_dis / p.eta_dis) * p.dt


def backup_power(load: float, renewable: float, a: ControlAction) -> float:
    """Diesel power needed to close the balance: max(0, load - (renewable + p_dis - p_ch))."""
    return max(0.0, load - (renewable + a.p_dis - a.p_ch))


def step_cost(cp: CostParams, bp: BatteryParams, load: float, renewable: float,
              a: ControlAction, soc_next: float,
              billed_discharge: float | None = None) -> CostBreakdown:
    """Cost of one step given the unclamped next SOC.

    billed_discharge overrides the cycling quantity: Battery-First and 50/50
    net a charge and a discharge into one action but pay for the gross
    discharge they asked for.
    """
    dis = a.p_dis if billed_discharge is None else billed_discharge
    battery = cp.c_bat * dis * bp.dt
    backup = cp.c_backup * backup_power(load, renewable, a) * bp.dt
    penalty = (cp.q_under * max(0.0, bp.soc_min - soc_next)
               + cp.r_over * max(0.0, soc_next - bp.soc_max))
    return CostBreakdown(battery=battery, backup=backup, penalty=penalty)


def sequence_cost(cp: CostParams, bp: BatteryParams, load_kw, renewable_kw,
                  soc0: float, actions,
                  terminal_soc_value: float = 0.0) -> float:
    """Cumulative cost J(u) of a candidate action sequence over a window.

    Simulates the unclamped SOC forward from soc0; load_kw, renewable_kw and
    actions must have equal length.
    """
    load_kw = list(load_kw)
    renewable_kw = list(renewable_kw)
    actions = list(actions)
    if not (len(load_kw) == len(renewable_kw) == len(actions)):
        raise LengthMismatch(
            f"window lengths differ: load={len(load_kw)} "
            f"renewable={len(renewable_kw)} actions={len(actions)}")
    soc = soc0
    total = 0.0
    for load, ren, a in zip(load_kw, renewable_kw, actions):
        soc_next = step_soc(bp, soc, a)
        total += step_cost(cp, bp, load, ren, a, soc_next).total
        soc = soc_next
    if terminal_soc_value != 0.0 and not math.isinf(soc):  # as terminal_term
        total += terminal_soc_value * (bp.soc_max - soc)
    return total


def cost_of(hp, u) -> float:
    """Window objective J(u) of one candidate (a CandidateSequence or a list of
    ControlActions) on the HorizonProblem hp."""
    return sequence_cost(hp.costs, hp.battery, hp.window.load, hp.forecast,
                         hp.soc0, list(u), hp.terminal_soc_value)
