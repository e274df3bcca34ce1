"""Cost decomposition and the package's one pricing path.

Per-step cost has three components:
- battery:  c_bat * discharge * dt      (cycling / degradation)
- backup:   c_backup * backup_kw * dt   (diesel generation)
- penalty:  q_under * max(0, soc_min - soc') + r_over * max(0, soc' - soc_max)

where soc' is the unclamped next SOC. The horizon cost J(u) simulates the
unclamped dynamics forward and sums step costs; an optional terminal term,
terminal_term, credits plans that end with energy in the battery (weight 0
by default, where it adds nothing; a plan whose SOC overflowed gets no credit;
Config refuses a negative weight, which would charge for stored energy
instead of crediting it).

Every plan and every applied hour is priced by one vector kernel: the step
cost is stage_base_of (battery + backup, per step and action, from the
action_terms that HorizonProblem keeps once per run; its backup formula is
backup_of) plus soc_penalty (per next SOC), and terminal_term ends a window.
sequence_costs_batch prices rows of lattice indices from a window's tables:
actions are exclusive, so soc + soc_after(bp, 0.0, ...) == soc_after(bp, soc,
...), and the SOC path and the total are sequential sums along the steps.
book_run books a closed-loop run in one pass: every hour's flows and bill, by
backup_of and soc_penalty, and the run's totals. The scalar reference that
tests check this kernel against bit for bit is tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BatteryParams, CostParams, LengthMismatch, NegativeValue, ValidationError


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Per-step cost components; total is always their exact sum."""

    battery: float
    backup: float
    penalty: float
    total: float = field(init=False)

    def __post_init__(self):
        if self.battery < 0 or self.backup < 0 or self.penalty < 0:
            raise NegativeValue(
                f"cost components must be >= 0, got battery={self.battery}, "
                f"backup={self.backup}, penalty={self.penalty}")
        object.__setattr__(self, "total", self.battery + self.backup + self.penalty)


def sequence_costs_batch(cp: CostParams, bp: BatteryParams, base_costs: np.ndarray,
                         soc_steps: np.ndarray, soc0: float, idx: np.ndarray,
                         terminal_soc_value: float = 0.0) -> np.ndarray:
    """J of each row of idx, (n_sequences, n_steps) lattice indices, from the
    window's (n_steps, n_actions) stage_base_of table and each action's SOC step.

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
    total += terminal_term(terminal_soc_value, bp, soc[-1])
    return total


def terminal_term(terminal_soc_value: float, bp: BatteryParams, soc_end):
    """J's terminal term terminal_soc_value * (soc_max - soc_end) over arrays.

    A soc_end that overflowed to +-inf gets 0: its SOC penalty already prices
    the plan at inf, and a credit of -inf would make it NaN. Weight 0 gives
    zeros (0 * inf would be NaN)."""
    if terminal_soc_value == 0.0:
        return np.zeros_like(soc_end)
    credit = terminal_soc_value * (bp.soc_max - soc_end)
    np.copyto(credit, 0.0, where=np.isinf(soc_end))
    return credit


def action_terms(cp: CostParams, bp: BatteryParams, p_ch, p_dis):
    """stage_base_of's terms of exclusive actions alone, over broadcasting
    arrays: cycling cost c_bat * p_dis * dt and net battery power p_dis - p_ch;
    renewable + (p_dis - p_ch) == (renewable + p_dis) - p_ch bit for bit."""
    return cp.c_bat * p_dis * bp.dt, p_dis - p_ch


def stage_base_of(cp: CostParams, bp: BatteryParams, load, renewable, cycling, net):
    """Battery + backup step cost from action_terms: cycling + c_backup * backup * dt."""
    return cycling + cp.c_backup * backup_of(load, renewable, net) * bp.dt


def backup_of(load, renewable, net):
    """Diesel power max(0, load - (renewable + net)) over arrays, from
    net = p_dis - p_ch of exclusive actions."""
    return np.maximum(0.0, load - (renewable + net))


def soc_penalty(cp: CostParams, bp: BatteryParams, soc_next):
    """SOC-band part of the step cost, for the unclamped next SOC."""
    return (cp.q_under * np.maximum(0.0, bp.soc_min - soc_next)
            + cp.r_over * np.maximum(0.0, soc_next - bp.soc_max))


@dataclass(frozen=True, slots=True)
class HourRecord:
    """Applied flows, state and cost of one simulated hour."""

    hour: int
    load: float                 # kW
    renewable_available: float  # kW
    renewable_used: float       # kW
    p_ch: float                 # kW
    p_dis: float                # kW
    backup: float               # kW
    curtailed: float            # kW
    soc: float                  # kWh, end of hour
    cost: CostBreakdown


def book_run(cp: CostParams, bp: BatteryParams, first_hour: int, load, renewable,
             p_ch, p_dis, billed_discharge, soc_next, soc):
    """(records, total cost, total backup kWh, total curtailed kWh) of a run
    whose hour t applied the exclusive action (p_ch[t], p_dis[t]), is billed for
    billed_discharge[t] and ended at SOC soc_next[t], clamped soc[t].

    Renewables serve load and charging before diesel does and the rest is
    curtailed; flows and costs are the scalar reference's bit for bit,
    totals are sums in hour order, and ValidationError names the first
    hour (first_hour + t) at which a total is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        ld, ren, ch, dis = np.array([load, renewable, p_ch, p_dis], dtype=float)
        backup = backup_of(ld, ren, dis - ch)
        used = ld + ch - dis - backup
        curtailed = np.maximum(0.0, ren - used)
        battery = cp.c_bat * np.asarray(billed_discharge, dtype=float) * bp.dt
        diesel = cp.c_backup * backup * bp.dt
        penalty = soc_penalty(cp, bp, np.asarray(soc_next, dtype=float))
        totals = []
        for what, unit, hourly in (("cost", "", battery + diesel + penalty),
                                   ("backup", " kWh", backup * bp.dt),
                                   ("curtailment", " kWh", curtailed * bp.dt)):
            running = np.add.accumulate(hourly)
            totals.append(float(running[-1]) if running.size else 0.0)
            if not np.isfinite(totals[-1]):  # a NaN or inf stays in every later sum
                t = int(np.argmin(np.isfinite(running)))
                raise ValidationError(
                    f"hour {first_hour + t}: booking its {what} {float(hourly[t])}{unit} "
                    f"makes the run's total {what} {float(running[t])}{unit}, which is "
                    "not finite")
    costs = map(CostBreakdown, battery.tolist(), diesel.tolist(), penalty.tolist())
    records = tuple(map(HourRecord, range(first_hour, first_hour + len(ch)), load,
                        renewable, used.tolist(), p_ch, p_dis, backup.tolist(),
                        curtailed.tolist(), soc, costs))
    return records, *totals
