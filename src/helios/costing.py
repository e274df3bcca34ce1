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

The scalar step_cost books applied hours, beside step_flows, which resolves
an action clip_feasible returned into bus flows; both take the backup power
from backup_power, whose formula stage_base vectorizes. sequence_cost sums
step_cost, as the tests' reference. The vector step cost is stage_base
(battery + backup, per step and action) plus soc_penalty (per next SOC).
stage_base is stage_base_of over action_terms, the cycling cost and net
battery power of each action alone: HorizonProblem keeps action_terms once
per run and tabulates stage_base_of once per window. sequence_costs_batch
prices rows of lattice indices by gathering from the window's tables, bit
for bit sequence_cost: actions are exclusive, so
soc + soc_after(bp, 0.0, ...) == soc_after(bp, soc, ...), and the SOC path
and the total are sequential sums along the steps. It works step-major, one
row per step, so each running sum is one np.add.accumulate over the rows
rather than a per-row cumsum, and a step-major caller's transposed view
gathers without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery import step_soc
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
    """Bus flows of one applied hour, all kW; the action holds p_ch and p_dis.

    Satisfies, by construction in step_flows():
      renewable_used + p_dis + backup - p_ch == load
      renewable_used + curtailed == renewable available
    """

    renewable_used: float
    backup: float
    curtailed: float


def backup_power(load: float, renewable: float, a: ControlAction) -> float:
    """Diesel power needed to close the balance: max(0, load - (renewable + p_dis - p_ch))."""
    return max(0.0, load - (renewable + a.p_dis - a.p_ch))


def step_flows(load: float, renewable: float, a: ControlAction) -> StepFlows:
    """Resolve an action clip_feasible returned into bus flows.

    Diesel covers what renewables and the battery do not; renewables cover
    the rest of the load and the charging, and the remainder is curtailed.
    """
    backup = backup_power(load, renewable, a)
    renewable_used = load + a.p_ch - a.p_dis - backup
    return StepFlows(renewable_used=renewable_used, backup=backup,
                     curtailed=max(0.0, renewable - renewable_used))


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


def sequence_costs_batch(cp: CostParams, bp: BatteryParams, base_costs: np.ndarray,
                         soc_steps: np.ndarray, soc0: float, idx: np.ndarray,
                         terminal_soc_value: float = 0.0) -> np.ndarray:
    """J of each row of idx, (n_sequences, n_steps) lattice indices, from the
    window's (n_steps, n_actions) stage_base table and each action's SOC step.

    Summed in step order, as np.cumsum along each row would: the SOC path
    from soc0, then the step costs, then the terminal term."""
    n_steps = base_costs.shape[0]
    if idx.shape[1] != n_steps:
        raise LengthMismatch("window length does not match sequence shape")
    steps = idx.T  # step-major: row t holds every sequence's action at step t
    soc = soc_steps.take(steps)
    soc[0] += soc0
    np.add.accumulate(soc, axis=0, out=soc)
    step_rows = np.arange(0, base_costs.size, base_costs.shape[1])[:, None]  # flat (t, 0)
    cost = base_costs.take(step_rows + steps)
    cost += soc_penalty(cp, bp, soc)
    total = np.add.accumulate(cost, axis=0, out=cost)[-1].copy()
    if terminal_soc_value != 0.0:
        total += terminal_soc_value * (bp.soc_max - soc[-1])
    return total


def stage_base(cp: CostParams, bp: BatteryParams, load, renewable, p_ch, p_dis):
    """Battery + backup part of the step cost, over broadcasting arrays of
    exclusive actions: stage_base_of(action_terms(...))."""
    return stage_base_of(cp, bp, load, renewable, *action_terms(cp, bp, p_ch, p_dis))


def action_terms(cp: CostParams, bp: BatteryParams, p_ch, p_dis):
    """stage_base's terms of the action alone: cycling cost c_bat * p_dis * dt
    and net battery power p_dis - p_ch. Actions are exclusive, so
    renewable + (p_dis - p_ch) == (renewable + p_dis) - p_ch bit for bit."""
    return cp.c_bat * p_dis * bp.dt, p_dis - p_ch


def stage_base_of(cp: CostParams, bp: BatteryParams, load, renewable, cycling, net):
    """stage_base from action_terms: cycling + c_backup * backup power * dt."""
    return cycling + cp.c_backup * np.maximum(0.0, load - (renewable + net)) * bp.dt


def soc_penalty(cp: CostParams, bp: BatteryParams, soc_next):
    """SOC-band part of the step cost, for the unclamped next SOC."""
    return (cp.q_under * np.maximum(0.0, bp.soc_min - soc_next)
            + cp.r_over * np.maximum(0.0, soc_next - bp.soc_max))
