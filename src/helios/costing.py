"""Cost decomposition, backup power, energy balance and horizon cost.

Per-step cost has three components:
- battery:  c_bat * discharge * dt      (cycling / degradation)
- backup:   c_backup * backup_kw * dt   (diesel generation)
- penalty:  q_under * max(0, soc_min - soc') + r_over * max(0, soc' - soc_max)

where soc' is the unclamped next SOC. The horizon cost J(u) simulates the
unclamped dynamics forward and sums step costs; an optional terminal term
terminal_soc_value * (soc_max - soc_N) rewards plans that end with energy in
the battery (zero by default, and always >= 0 so search methods that weight
by 1/J stay well defined).

The formula has two implementations. step_cost is the scalar one, which the
engine books applied hours with and which sequence_cost sums. stage_costs is
the one vectorised kernel: sequence_costs_batch, the exact DP and myopic
solvers and the ant colony all price their candidates through it, with the
next SOC from battery.soc_after computed by the caller. The two agree bit for
bit on finite input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery import soc_after, step_soc
from .core import BatteryParams, ControlAction, CostParams, LengthMismatch, NegativeValue


@dataclass(frozen=True)
class CostBreakdown:
    """Per-step cost components; total is always their exact sum."""

    battery: float
    backup: float
    penalty: float
    total: float = 0.0

    def __post_init__(self):
        for name, v in (("battery", self.battery), ("backup", self.backup),
                        ("penalty", self.penalty)):
            if v < 0:
                raise NegativeValue(f"cost component {name} is negative: {v}")
        object.__setattr__(self, "total", self.battery + self.backup + self.penalty)


@dataclass(frozen=True)
class StepFlows:
    """Power bookkeeping for one applied hour, all kW.

    Satisfies, by construction in step_flows():
      renewable_used + p_dis + backup - p_ch == load
      renewable_used + curtailed == renewable available
    """

    renewable_used: float
    p_ch: float
    p_dis: float
    backup: float
    curtailed: float


def backup_power(load: float, renewable: float, a: ControlAction) -> float:
    """Diesel power needed to close the balance: max(0, load - (renewable + p_dis - p_ch))."""
    return max(0.0, load - (renewable + a.p_dis - a.p_ch))


def step_flows(load: float, renewable: float, a: ControlAction) -> StepFlows:
    """Resolve an applied action into bus flows.

    Discharge in excess of the load has nowhere to go (no dump load is
    modeled), so the booked discharge is capped at the load; callers must
    apply the same cap to the SOC update. Renewables cover whatever load and
    charging the battery discharge does not, diesel covers the rest, and
    leftover renewable generation is curtailed.
    """
    p_dis = min(a.p_dis, load)
    p_ch = a.p_ch
    backup = max(0.0, load + p_ch - renewable - p_dis)
    renewable_used = load + p_ch - p_dis - backup
    curtailed = renewable - renewable_used
    return StepFlows(renewable_used=renewable_used, p_ch=p_ch, p_dis=p_dis,
                     backup=backup, curtailed=max(0.0, curtailed))


def step_cost(cp: CostParams, bp: BatteryParams, load: float, renewable: float,
              a: ControlAction, soc_next: float,
              billed_discharge: float | None = None) -> CostBreakdown:
    """Cost of one step given the unclamped next SOC.

    billed_discharge overrides the cycling quantity when a strategy's gross
    discharge intent differs from the net applied action (Battery-First and
    50/50 net simultaneous charge/discharge into one action but still pay
    for the cycling they asked for).
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
    if terminal_soc_value != 0.0:
        total += terminal_soc_value * (bp.soc_max - soc)
    return total


def sequence_costs_batch(cp: CostParams, bp: BatteryParams, load_kw, renewable_kw,
                         soc0: float, p_ch: np.ndarray, p_dis: np.ndarray,
                         terminal_soc_value: float = 0.0) -> np.ndarray:
    """Vectorized J(u) for a population of sequences.

    p_ch and p_dis are (n_sequences, n_steps) arrays. Arithmetic mirrors
    sequence_cost step for step so scalar and batch evaluation agree bitwise.
    """
    n_steps = p_ch.shape[1]
    if not (len(load_kw) == len(renewable_kw) == n_steps):
        raise LengthMismatch("window length does not match sequence shape")
    soc = np.full(p_ch.shape[0], soc0, dtype=float)
    total = np.zeros(p_ch.shape[0], dtype=float)
    for t in range(n_steps):
        ch = p_ch[:, t]
        dis = p_dis[:, t]
        soc_next = soc_after(bp, soc, ch, dis)
        total += stage_costs(cp, bp, load_kw[t], renewable_kw[t], soc_next, ch, dis)
        soc = soc_next
    if terminal_soc_value != 0.0:
        total += terminal_soc_value * (bp.soc_max - soc)
    return total


def stage_costs(cp: CostParams, bp: BatteryParams, load: float, renewable: float,
                soc_next, p_ch, p_dis):
    """Vectorized step cost: step_cost(...).total over broadcasting arrays.

    soc_next is the unclamped next SOC of each action, from soc_after. The
    sum order matches step_cost's battery + backup + penalty bit for bit,
    because at most one of the two penalty terms is nonzero.
    """
    return (cp.c_bat * p_dis * bp.dt
            + cp.c_backup * np.maximum(0.0, load - (renewable + p_dis - p_ch)) * bp.dt
            + cp.q_under * np.maximum(0.0, bp.soc_min - soc_next)
            + cp.r_over * np.maximum(0.0, soc_next - bp.soc_max))
