"""Finite-horizon problem assembly, action lattice, and exact solvers.

solve_exact is the ground-truth optimizer over the discrete action lattice:
full enumeration with exact continuous SOC whenever the sequence count fits
the budget, otherwise backward dynamic programming on a discretized SOC grid
(next-SOC snapped to the nearest node). It doubles as the "standard MPC"
strategy and as the oracle that the metaheuristics are tested against.

HorizonProblem owns a window's objective: the forecast, the tables base_costs
(SOC-free stage costs) and soc_steps, costs_of (gathers from them), transitions,
terminal_credit (costing.terminal_term) and require_feasible; solvers only read
these. What does not change between windows is built once per run: soc_steps
and the action terms of base_costs (cycling cost, net battery power) are
read-only tables on the run's lattice, by (battery, costs); a window prices
only base_costs from its own load and forecast.
Enumeration walks the prefix tree depth first, in lexicographic order, and
prices each shared prefix once, summed as costs_of sums; blocks of at most
_ENUM_CHUNK // n_actions nodes keep memory O(n_steps * _ENUM_CHUNK). DP
sweeps the SOC grid backward in two value rows, then solves stage 0 from the
exact soc0 alone. Grid rows have the same SOC penalties and successor nodes
at every stage of every window, so _dp_tables builds both tables once per
(battery, costs, grid step), read-only on the run's lattice; intp indices
gather about twice as fast as int32 ones (no index cast). A window first
walks forward to the nodes each stage can start from (R_1 = soc0's successor
nodes, R_{t+1} = the successors of R_t). Each stage then prices a list of row
chunks of at most _DP_BLOCK cells (128 KB), every chunk by the same lines:
index chunks of R_t, up to the first stage whose R_t holds more than
_DP_DENSE of the grid, and slices over all rows from that stage on. A row
gets the same arithmetic in any chunk, so plans are those of a full sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .battery import soc_after
from .core import (BatteryParams, BudgetExceeded, ControlAction, CostParams,
                   InvalidStep, Scenario, ValidationError, check_series)
from .costing import (action_terms, sequence_cost, sequence_costs_batch, soc_penalty,
                      stage_base_of, terminal_term)
from .renewable import RenewableModel, predict_series

DEFAULT_DELTA_P = 50.0          # kW
DEFAULT_SOC_GRID_STEP = 10.0    # kWh
DEFAULT_MAX_ENUMERATION = 1_000_000   # sequences
MAX_DP_TABLE = 50_000_000       # grid nodes * steps * actions
MAX_LATTICE_LEVELS = 100_000    # charge + discharge levels, p_max / delta_p each
MAX_SEARCH_TABLE = 1_000_000    # EG population * steps, ACO ants * max(steps, actions)

_ENUM_CHUNK = 2048
_DP_BLOCK = 16384   # cells in a DP stage chunk: 128 KB of float64
_DP_DENSE = 0.5     # share of the grid above which a DP stage sweeps every row


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

    @cached_property
    def dp_rows(self) -> dict:
        """_dp_tables' read-only (succ, pen) by (battery, costs, soc_grid_step)."""
        return {}

    @cached_property
    def action_rows(self) -> dict:
        """HorizonProblem.action_tables' read-only (soc_steps, cycling, net) by
        (battery, costs)."""
        return {}


def _read_only(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
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
    # Counted before any action is built; a quotient that overflows is inf.
    levels = p_ch_max / delta_p + p_dis_max / delta_p
    if not levels <= MAX_LATTICE_LEVELS:
        raise BudgetExceeded(f"lattice of {levels:.3g} levels at delta_p {delta_p} kW "
                             f"exceeds {MAX_LATTICE_LEVELS}")
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
    def action_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each action's SOC change and costing.action_terms (cycling, net),
        read-only on the lattice and built once per (battery, costs)."""
        key = (self.battery, self.costs)
        tables = self.lattice.action_rows.get(key)
        if tables is None:
            p_ch, p_dis = self.lattice.p_ch, self.lattice.p_dis
            tables = tuple(map(_read_only, (soc_after(self.battery, 0.0, p_ch, p_dis),
                                            *action_terms(self.costs, self.battery,
                                                          p_ch, p_dis))))
            self.lattice.action_rows[key] = tables
        return tables

    @cached_property
    def base_costs(self) -> np.ndarray:
        """costing.stage_base_of every (step, action): (n_steps, n_actions)."""
        _, cycling, net = self.action_tables
        return stage_base_of(self.costs, self.battery, np.array(self.window.load)[:, None],
                             np.array(self.forecast)[:, None], cycling, net)

    @property
    def soc_steps(self) -> np.ndarray:
        """SOC change per action; soc + it is soc_after exactly (exclusive actions)."""
        return self.action_tables[0]

    def transitions(self, soc):
        """Each action's next SOC from soc (float or (k, 1) column) and SOC penalty."""
        soc_next = soc + self.soc_steps
        return soc_next, soc_penalty(self.costs, self.battery, soc_next)

    def terminal_credit(self, soc_end):
        """The terminal term of J: costing.terminal_term at this window's weight."""
        return terminal_term(self.terminal_soc_value, self.battery, soc_end)

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
        exact, as penalties are >= 0, rounded sums monotone and inf + credit inf
        (the credit is finite, or 0 where the SOC overflowed). The row minima
        are summed in step order, as costs_of sums."""
        total = 0.0
        for cost in self.base_costs.min(axis=1).tolist():
            total += cost
        self.require_finite(total)

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
    if takes_dp(len(hp.lattice), hp.n_steps, max_enumeration):
        return _solve_dp(hp, soc_grid_step)
    return _solve_enumeration(hp)


def takes_dp(n_actions: int, n_steps: int, max_enumeration: int) -> bool:
    """solve_exact's path rule: grid DP once n_actions ** n_steps sequences
    exceed max_enumeration (also where that count overflows a float)."""
    try:
        return float(n_actions) ** n_steps > max_enumeration
    except OverflowError:
        return True


def require_dp_budget(bp: BatteryParams, soc_grid_step: float, n_steps: int,
                      n_actions: int) -> int:
    """The SOC grid's node count; refuses a step that is not finite and
    positive, and a DP table (nodes x steps x actions) past MAX_DP_TABLE."""
    if not (math.isfinite(soc_grid_step) and soc_grid_step > 0):
        raise InvalidStep(f"soc_grid_step must be finite and positive, got {soc_grid_step}")
    n_nodes = _grid_nodes(bp.soc_min, bp.soc_max, soc_grid_step)
    if n_nodes * n_steps * n_actions > MAX_DP_TABLE:
        raise BudgetExceeded(
            f"DP table {n_nodes}x{n_steps}x{n_actions} exceeds {MAX_DP_TABLE}")
    return n_nodes


def _solve_enumeration(hp: HorizonProblem) -> tuple[CandidateSequence, float]:
    n_actions, last = len(hp.lattice), hp.n_steps - 1
    block = max(1, _ENUM_CHUNK // n_actions)
    best = [np.inf, 0]  # cost and lexicographic number of the earliest minimum

    def expand(t, soc, partial, first):
        # Depth-t nodes first, first+1, ...: child f (flat) is first*n_actions + f.
        soc_next, cost = hp.transitions(soc[:, None])
        cost += hp.base_costs[t]
        cost += partial[:, None]
        if t < last:
            for s in range(0, cost.size, block):
                expand(t + 1, soc_next.ravel()[s:s + block], cost.ravel()[s:s + block],
                       first * n_actions + s)
            return
        cost += hp.terminal_credit(soc_next)
        i = int(np.argmin(cost))  # the block's first minimum; strict < the first block's
        if cost.flat[i] < best[0]:
            best[:] = float(cost.flat[i]), first * n_actions + i

    expand(0, np.array([hp.soc0]), np.zeros(1), 0)
    digits = np.unravel_index(best[1], (n_actions,) * hp.n_steps)
    return sequence_from_indices(hp.lattice, digits), hp.require_finite(best[0])


def _solve_dp(hp: HorizonProblem, soc_grid_step: float
              ) -> tuple[CandidateSequence, float]:
    policy, succ, q0, succ0 = _dp_tables(hp, soc_grid_step)
    # Forward pass: the first step from the exact soc0, then along grid nodes.
    idx = [int(np.argmin(q0))]
    row = int(succ0[idx[0]])
    for stage in policy:
        idx.append(int(stage[row]))
        row = int(succ[row, idx[-1]])
    cost = hp.require_finite(float(hp.costs_of(np.array([idx]))[0]))
    return sequence_from_indices(hp.lattice, idx), cost


def _dp_tables(hp: HorizonProblem, soc_grid_step: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backward DP over the SOC grid nodes reachable from soc0, then stage 0
    from the exact soc0 alone.

    Returns (policy, succ, q0, succ0): each grid node's first minimising
    (smallest) action index at stages 1..n_steps-1, -1 at a node the sweep
    skipped as unreachable at that stage; the node each action leads to from
    each node; then each action's stage-0 cost-to-go from soc0 and the node
    it leads to (nearest, round half up, clamped to the grid).
    """
    bp, n, n_actions = hp.battery, hp.n_steps, len(hp.lattice)
    n_nodes = require_dp_budget(bp, soc_grid_step, n, n_actions)
    grid = np.arange(bp.soc_min, bp.soc_max + soc_grid_step / 2, soc_grid_step)
    key, block = (bp, hp.costs, soc_grid_step), max(1, _DP_BLOCK // n_actions)
    if key not in hp.lattice.dp_rows:  # the grid rows' tables, once per run
        soc_next, pen = hp.transitions(grid[:, None])
        hp.lattice.dp_rows[key] = (
            _read_only(_snap(soc_next, bp.soc_min, soc_grid_step, n_nodes), np.intp),
            _read_only(pen))
    succ, pen = hp.lattice.dp_rows[key]
    soc_next0, q0 = hp.transitions(hp.soc0)
    succ0 = _snap(soc_next0, bp.soc_min, soc_grid_step, n_nodes)
    # Forward: chunks[t - 1] holds the rows stage t prices, at most `block`
    # per chunk: R_t, the nodes stage t can start from, up to the first stage
    # where R_t holds more than _DP_DENSE of the grid; that stage and every
    # later one sweep all rows, a superset of theirs.
    chunks, mask = [], np.zeros(n_nodes, dtype=bool)
    mask[succ0] = True
    for t in range(1, n):
        rows = np.flatnonzero(mask)
        if len(rows) > _DP_DENSE * n_nodes:
            break
        chunks.append([rows[s:s + block] for s in range(0, len(rows), block)])
        if t < n - 1:
            mask[:] = False
            for chunk in chunks[-1]:
                mask[succ[chunk]] = True
    policy = np.empty((n - 1, n_nodes), dtype=np.intp)
    policy[:len(chunks)] = -1
    dense = [slice(s, s + block) for s in range(0, n_nodes, block)]
    chunks += [dense] * (n - 1 - len(chunks))
    value, out = hp.terminal_credit(grid), np.empty(n_nodes)  # stages t + 1 and t
    for t in range(n - 1, 0, -1):
        for rows in chunks[t - 1]:
            q = pen[rows] + hp.base_costs[t]
            q += value[succ[rows]]
            policy[t - 1, rows] = best = np.argmin(q, axis=1)
            out[rows] = q[np.arange(len(q)), best]
        value, out = out, value
    q0 += hp.base_costs[0]
    q0 += value[succ0]
    return policy, succ, q0, succ0


def _grid_nodes(soc_min: float, soc_max: float, soc_grid_step: float) -> int:
    """len(np.arange(soc_min, soc_max + soc_grid_step / 2, soc_grid_step)), as numpy
    counts it, without building the grid."""
    return math.ceil((soc_max + soc_grid_step / 2 - soc_min) / soc_grid_step)


def _snap(soc, soc_min: float, soc_grid_step: float, n_nodes: int) -> np.ndarray:
    """Each SOC's nearest grid node (round half up), clamped to the grid, as intp."""
    k = (soc - soc_min) / soc_grid_step + 0.5
    return np.clip(np.floor(k, out=k), 0, n_nodes - 1, out=k).astype(np.intp)


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
        stage += hp.terminal_credit(soc_next)
        a = int(np.argmin(stage))
        idx.append(a)
        soc = float(soc_next[a])
    return sequence_from_indices(hp.lattice, idx)
