"""Finite-horizon problem assembly, action lattice, and exact solvers.

solve_exact is the ground-truth optimizer over the discrete action lattice:
full enumeration with exact continuous SOC whenever the sequence count fits
the budget, otherwise backward dynamic programming on a discretized SOC grid
(next-SOC snapped to the nearest node). It doubles as the "standard MPC"
strategy and as the oracle that the metaheuristics are tested against.

Every solver here prices candidates with the package's one SOC update,
battery.soc_after, and its one vectorised step cost, costing.stage_costs:
enumeration through costing.sequence_costs_batch, DP and the myopic arm by
calling the kernel on the (node or state) x action grid directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .battery import soc_after
from .core import (BatteryParams, BudgetExceeded, ControlAction, CostParams,
                   InvalidStep, Scenario, ValidationError)
from .costing import sequence_cost, sequence_costs_batch, stage_costs
from .renewable import RenewableModel, predict_series

DEFAULT_DELTA_P = 50.0          # kW
DEFAULT_SOC_GRID_STEP = 10.0    # kWh
DEFAULT_MAX_ENUMERATION = 1_000_000   # sequences
MAX_DP_TABLE = 50_000_000       # grid nodes * steps * actions

_ENUM_CHUNK = 65536


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

    def p_ch_array(self) -> np.ndarray:
        return np.array([a.p_ch for a in self.actions], dtype=float)

    def p_dis_array(self) -> np.ndarray:
        return np.array([a.p_dis for a in self.actions], dtype=float)


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
    (the engine uses it to inject forecast noise). terminal_soc_value adds
    terminal_soc_value * (soc_max - soc_N) to every candidate's cost so that
    plans near the window edge still see the value of stored energy; zero by
    default.
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
        if self.window.steps < 1:
            raise ValidationError("horizon window must have at least one step")

    @property
    def n_steps(self) -> int:
        return self.window.steps

    def renewables(self) -> list[float]:
        """Per-step renewable power the problem plans against."""
        if self.renewable_override is not None:
            return list(self.renewable_override)
        return predict_series(self.renewable_model, self.window.irradiance,
                              self.window.wind_speed)

    def cost_of(self, u: CandidateSequence | list[ControlAction]) -> float:
        """Window objective J(u) for one candidate."""
        return sequence_cost(self.costs, self.battery, self.window.load,
                             self.renewables(), self.soc0, list(u),
                             self.terminal_soc_value)


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
    n_actions = len(hp.lattice)
    n_sequences = float(n_actions) ** hp.n_steps
    if n_sequences <= max_enumeration:
        return _solve_enumeration(hp)
    return _solve_dp(hp, soc_grid_step)


def _solve_enumeration(hp: HorizonProblem) -> tuple[CandidateSequence, float]:
    n_actions = len(hp.lattice)
    n_sequences = n_actions ** hp.n_steps
    loads = hp.window.load
    rens = hp.renewables()
    p_ch = hp.lattice.p_ch_array()
    p_dis = hp.lattice.p_dis_array()
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
        costs = sequence_costs_batch(hp.costs, hp.battery, loads, rens, hp.soc0,
                                     p_ch[idx], p_dis[idx], hp.terminal_soc_value)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_idx = idx[i]
    if best_idx is None:  # no sequence had a finite cost, e.g. a NaN load
        raise ValidationError(
            "no candidate had a finite cost in the window starting at hour "
            f"{hp.window.start_hour}")
    return sequence_from_indices(hp.lattice, best_idx), best_cost


def _solve_dp(hp: HorizonProblem, soc_grid_step: float
              ) -> tuple[CandidateSequence, float]:
    if soc_grid_step <= 0:
        raise InvalidStep(f"soc_grid_step must be positive, got {soc_grid_step}")
    bp = hp.battery
    cp = hp.costs
    n = hp.n_steps
    n_actions = len(hp.lattice)
    grid = np.arange(bp.soc_min, bp.soc_max + soc_grid_step / 2, soc_grid_step)
    if len(grid) * n * n_actions > MAX_DP_TABLE:
        raise BudgetExceeded(
            f"DP table {len(grid)}x{n}x{n_actions} exceeds {MAX_DP_TABLE}")
    loads = hp.window.load
    rens = hp.renewables()
    p_ch = hp.lattice.p_ch_array()
    p_dis = hp.lattice.p_dis_array()

    def snap(soc: np.ndarray) -> np.ndarray:
        # Nearest node, round half up, clamped to the grid.
        k = np.floor((soc - bp.soc_min) / soc_grid_step + 0.5).astype(np.int64)
        return np.clip(k, 0, len(grid) - 1)

    # values[t] is the optimal cost-to-go from each grid node at stage t.
    values = np.empty((n + 1, len(grid)))
    values[n] = hp.terminal_soc_value * (bp.soc_max - grid)
    policy = np.zeros((n, len(grid)), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        # soc_next is the same at every stage, but holding the node x action
        # arrays across stages raises the peak memory on a fine lattice.
        soc_next = soc_after(bp, grid[:, None], p_ch, p_dis)
        q = stage_costs(cp, bp, loads[t], rens[t], soc_next, p_ch, p_dis)
        q += values[t + 1][snap(soc_next)]
        policy[t] = np.argmin(q, axis=1)  # first min = smallest action index
        values[t] = q[np.arange(len(grid)), policy[t]]

    # Forward pass: first step from the exact soc0, then follow grid nodes.
    soc_next0 = soc_after(bp, hp.soc0, p_ch, p_dis)
    q0 = (stage_costs(cp, bp, loads[0], rens[0], soc_next0, p_ch, p_dis)
          + values[1][snap(soc_next0)])
    first = int(np.argmin(q0))
    idx = [first]
    node = int(snap(soc_next0[first:first + 1])[0])
    for t in range(1, n):
        a = int(policy[t][node])
        idx.append(a)
        node = int(snap(np.array([soc_after(bp, grid[node], p_ch[a], p_dis[a])]))[0])
    seq = sequence_from_indices(hp.lattice, idx)
    return seq, sequence_cost(cp, bp, loads, rens, hp.soc0, seq.actions,
                              hp.terminal_soc_value)


def solve_myopic(hp: HorizonProblem) -> CandidateSequence:
    """Greedy receding solve: argmin one-step cost at each step of the window.

    Each step is the exact solve of the one-step subproblem (including the
    terminal shaping term, so on a one-step window this coincides with
    solve_exact); the greedy arm simply never looks further ahead.
    """
    bp = hp.battery
    cp = hp.costs
    loads = hp.window.load
    rens = hp.renewables()
    p_ch = hp.lattice.p_ch_array()
    p_dis = hp.lattice.p_dis_array()
    soc = hp.soc0
    idx = []
    for t in range(hp.n_steps):
        soc_next = soc_after(bp, soc, p_ch, p_dis)
        stage = stage_costs(cp, bp, loads[t], rens[t], soc_next, p_ch, p_dis)
        if hp.terminal_soc_value != 0.0:
            stage = stage + hp.terminal_soc_value * (bp.soc_max - soc_next)
        a = int(np.argmin(stage))
        idx.append(a)
        soc = float(soc_next[a])
    return sequence_from_indices(hp.lattice, idx)
