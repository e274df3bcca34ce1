"""Finite-horizon problem assembly, action lattice, and exact solvers.

solve_exact is the ground-truth optimizer over the discrete action lattice:
full enumeration with exact continuous SOC whenever the sequence count fits
the budget, otherwise backward dynamic programming on a discretized SOC grid
(next-SOC snapped to the nearest node). It doubles as the "standard MPC"
strategy and as the oracle that the metaheuristics are tested against.

HorizonProblem owns a window's objective: the forecast, the tables
base_costs (SOC-free stage costs) and soc_steps, costs_of (gathers from them),
transitions, terminal_credit and require_feasible; solvers only read these.
Enumeration prices _ENUM_CHUNK = 2048 rows per call; with 16384 the block's
temporaries were faulted in anew on every chunk. DP's successor nodes (int32)
and SOC penalties are the same at every stage, so _dp_tables computes them
once; a stage adds only its row of base_costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .battery import soc_after
from .core import (BatteryParams, BudgetExceeded, ControlAction, CostParams,
                   InvalidStep, Scenario, ValidationError, check_series)
from .costing import sequence_cost, sequence_costs_batch, soc_penalty, stage_base
from .renewable import RenewableModel, predict_series

DEFAULT_DELTA_P = 50.0          # kW
DEFAULT_SOC_GRID_STEP = 10.0    # kWh
DEFAULT_MAX_ENUMERATION = 1_000_000   # sequences
MAX_DP_TABLE = 50_000_000       # grid nodes * steps * actions

_ENUM_CHUNK = 2048


@dataclass(frozen=True)
class ActionLattice:
    """Discrete set of control actions: idle, charge levels, discharge levels.

    Mutual exclusivity removes the charge x discharge cross product, so
    len(actions) == levels_ch + levels_dis + 1. Index 0 is always idle;
    charge levels follow in ascending order, then discharge levels. Tie
    breaks everywhere prefer the smallest index, i.e. idle, then the
    smallest charge.
    """

    delta_p: float
    levels_ch: int
    levels_dis: int
    actions: tuple[ControlAction, ...]

    def __len__(self) -> int:
        return len(self.actions)

    @cached_property
    def p_ch(self) -> np.ndarray:
        return _read_only([a.p_ch for a in self.actions])

    @cached_property
    def p_dis(self) -> np.ndarray:
        return _read_only([a.p_dis for a in self.actions])


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def _levels(p_max: float, delta_p: float) -> list[float]:
    """{delta_p, 2*delta_p, ...} up to and always including p_max exactly."""
    levels = []
    k = 1
    while k * delta_p < p_max - 1e-9:
        levels.append(k * delta_p)
        k += 1
    levels.append(p_max)
    return levels


def build_lattice(p_ch_max: float, p_dis_max: float,
                  delta_p: float = DEFAULT_DELTA_P) -> ActionLattice:
    """Enumerate the action set for the given rate limits and step size."""
    if delta_p <= 0:
        raise InvalidStep(f"delta_p must be positive, got {delta_p}")
    ch_levels = _levels(p_ch_max, delta_p)
    dis_levels = _levels(p_dis_max, delta_p)
    actions = [ControlAction()]
    actions += [ControlAction(p_ch=x) for x in ch_levels]
    actions += [ControlAction(p_dis=x) for x in dis_levels]
    return ActionLattice(delta_p=delta_p, levels_ch=len(ch_levels),
                         levels_dis=len(dis_levels), actions=tuple(actions))


@dataclass(frozen=True)
class CandidateSequence:
    """A horizon-length vector of control actions: the optimizer's genome."""

    actions: tuple[ControlAction, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def __getitem__(self, i):
        return self.actions[i]


@dataclass(frozen=True)
class HorizonProblem:
    """One receding-horizon optimization instance.

    renewable_override, when given, replaces the model prediction per step
    and must hold window.steps finite values >= 0; the engine passes each
    window's slice of its one forecast, with noise when configured.
    terminal_soc_value weights terminal_credit, the value of stored energy
    at the window edge in every candidate's cost; zero by default.
    """

    window: Scenario
    soc0: float
    battery: BatteryParams
    costs: CostParams
    lattice: ActionLattice
    renewable_model: RenewableModel
    renewable_override: tuple[float, ...] | None = None
    terminal_soc_value: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.soc0):
            raise ValidationError(f"HorizonProblem.soc0 must be finite, got {self.soc0}")
        if self.window.steps < 1:
            raise ValidationError("horizon window must have at least one step")
        if self.renewable_override is not None:
            check_series("renewable_override", self.renewable_override,
                         self.window.steps)

    @property
    def n_steps(self) -> int:
        return self.window.steps

    @cached_property
    def forecast(self) -> tuple[float, ...]:
        """Per-step renewable power the problem plans against."""
        if self.renewable_override is not None:
            return tuple(self.renewable_override)
        return tuple(predict_series(self.renewable_model, self.window.irradiance,
                                    self.window.wind_speed))

    def renewables(self) -> list[float]:
        """A copy of the forecast."""
        return list(self.forecast)

    @cached_property
    def base_costs(self) -> np.ndarray:
        """costing.stage_base of every (step, action): (n_steps, n_actions)."""
        return stage_base(self.costs, self.battery, np.array(self.window.load)[:, None],
                          np.array(self.forecast)[:, None], self.lattice.p_ch,
                          self.lattice.p_dis)

    @cached_property
    def soc_steps(self) -> np.ndarray:
        """SOC change per action; soc + it is soc_after exactly (exclusive actions)."""
        return soc_after(self.battery, 0.0, self.lattice.p_ch, self.lattice.p_dis)

    def transitions(self, soc):
        """Each action's next SOC from soc (float or (k, 1) column) and SOC penalty."""
        soc_next = soc + self.soc_steps
        return soc_next, soc_penalty(self.costs, self.battery, soc_next)

    def terminal_credit(self, soc_end):
        """The terminal term of J: terminal_soc_value * (soc_max - soc_end)."""
        return self.terminal_soc_value * (self.battery.soc_max - soc_end)

    def cost_of(self, u: CandidateSequence | list[ControlAction]) -> float:
        """Window objective J(u) for one candidate."""
        return sequence_cost(self.costs, self.battery, self.window.load,
                             self.forecast, self.soc0, list(u),
                             self.terminal_soc_value)

    def costs_of(self, idx: np.ndarray) -> np.ndarray:
        """J for each row of an (n_candidates, n_steps) lattice index array."""
        return sequence_costs_batch(self.costs, self.battery, self.base_costs,
                                    self.soc_steps, self.soc0, idx,
                                    self.terminal_soc_value)

    def require_feasible(self) -> None:
        """Refuses, before any search, a window where every candidate costs inf:
        exact, as penalties are >= 0, rounded sums monotone and inf + credit inf."""
        self.require_finite(float(self.base_costs.min(axis=1).cumsum()[-1]))

    def require_finite(self, cost: float) -> float:
        """The best cost a solver found; raises when it is not finite."""
        if not math.isfinite(cost):
            raise ValidationError(
                "no candidate had a finite cost in the window starting at hour "
                f"{self.window.start_hour}")
        return cost


def sequence_from_indices(lattice: ActionLattice, idx) -> CandidateSequence:
    return CandidateSequence(tuple(lattice.actions[int(i)] for i in idx))


# =============================================================================
# Exact solvers
# =============================================================================


def solve_exact(hp: HorizonProblem,
                soc_grid_step: float = DEFAULT_SOC_GRID_STEP,
                max_enumeration: int = DEFAULT_MAX_ENUMERATION
                ) -> tuple[CandidateSequence, float]:
    """Minimum-cost sequence over the lattice.

    Prefers exhaustive enumeration (exact continuous SOC) whenever
    len(lattice) ** n_steps <= max_enumeration; otherwise falls back to
    backward DP on a SOC grid of the given step. Ties prefer smaller action
    indices: exactly lexicographic under enumeration, per DP decision
    otherwise. The returned cost is always the true (continuous-SOC) cost
    of the returned sequence, so enumeration and DP results are comparable.
    """
    hp.require_feasible()
    if float(len(hp.lattice)) ** hp.n_steps <= max_enumeration:
        return _solve_enumeration(hp)
    return _solve_dp(hp, soc_grid_step)


def _solve_enumeration(hp: HorizonProblem) -> tuple[CandidateSequence, float]:
    n_actions = len(hp.lattice)
    n_sequences = n_actions ** hp.n_steps
    # Sequence number k in lexicographic order has digit t equal to
    # (k // n_actions**(n_steps-1-t)) % n_actions.
    radix = n_actions ** np.arange(hp.n_steps - 1, -1, -1, dtype=np.int64)
    best_cost = np.inf
    best_idx: np.ndarray | None = None
    # Chunked lexicographic scan; np.argmin picks the first (smallest) index
    # within a chunk, and strict < keeps the earliest across chunks.
    for start in range(0, n_sequences, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, n_sequences)
        idx = (np.arange(start, stop, dtype=np.int64)[:, None] // radix) % n_actions
        costs = hp.costs_of(idx)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_idx = idx[i]
    best_cost = hp.require_finite(best_cost)
    return sequence_from_indices(hp.lattice, best_idx), best_cost


def _solve_dp(hp: HorizonProblem, soc_grid_step: float
              ) -> tuple[CandidateSequence, float]:
    values, policy, succ = _dp_tables(hp, soc_grid_step)
    # Forward pass: the first step from the exact soc0, then along grid nodes.
    row = values.shape[1] - 1
    idx = []
    for t in range(hp.n_steps):
        a = int(policy[t][row])
        idx.append(a)
        row = int(succ[row, a])
    cost = hp.require_finite(float(hp.costs_of(np.array([idx]))[0]))
    return sequence_from_indices(hp.lattice, idx), cost


def _dp_tables(hp: HorizonProblem, soc_grid_step: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward DP over the SOC grid nodes plus the exact soc0 as a last row.

    Returns (values, policy, succ): each row's optimal cost-to-go per stage,
    its first minimising (smallest) action index, and succ[row, a], the grid
    node action a leads to (nearest, round half up, clamped to the grid).
    Stage 0 is solved for the soc0 row only; its grid rows stay NaN and 0.
    """
    if soc_grid_step <= 0:
        raise InvalidStep(f"soc_grid_step must be positive, got {soc_grid_step}")
    bp = hp.battery
    n = hp.n_steps
    n_actions = len(hp.lattice)
    grid = np.arange(bp.soc_min, bp.soc_max + soc_grid_step / 2, soc_grid_step)
    if len(grid) * n * n_actions > MAX_DP_TABLE:
        raise BudgetExceeded(
            f"DP table {len(grid)}x{n}x{n_actions} exceeds {MAX_DP_TABLE}")
    socs = np.append(grid, hp.soc0)
    soc_next, pen = hp.transitions(socs[:, None])
    k = (soc_next - bp.soc_min) / soc_grid_step + 0.5
    del soc_next
    succ = np.clip(np.floor(k, out=k), 0, len(grid) - 1, out=k).astype(np.int32)
    del k
    values = np.full((n + 1, len(socs)), np.nan)
    values[n] = hp.terminal_credit(socs)
    policy = np.zeros((n, len(socs)), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        live = slice(None) if t else slice(-1, None)  # stage 0 starts at soc0
        q = pen[live] + hp.base_costs[t]
        q += values[t + 1][succ[live]]
        policy[t, live] = np.argmin(q, axis=1)
        values[t, live] = q[np.arange(len(q)), policy[t, live]]
    return values, policy, succ


def solve_myopic(hp: HorizonProblem) -> CandidateSequence:
    """Greedy receding solve: argmin one-step cost at each step of the window.

    Each step is the exact solve of the one-step subproblem (including the
    terminal shaping term, so on a one-step window this coincides with
    solve_exact); the greedy arm simply never looks further ahead.
    """
    hp.require_feasible()
    soc = hp.soc0
    idx = []
    for t in range(hp.n_steps):
        soc_next, pen = hp.transitions(soc)
        stage = hp.base_costs[t] + pen
        if hp.terminal_soc_value != 0.0:
            stage += hp.terminal_credit(soc_next)
        a = int(np.argmin(stage))
        idx.append(a)
        soc = float(soc_next[a])
    return sequence_from_indices(hp.lattice, idx)
