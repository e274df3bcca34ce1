"""Closed-loop receding-horizon simulation.

Each hour the engine predicts renewable power, asks the configured strategy
for an action (rules act on the current hour; optimizers solve the N-step
window and yield its first action), hard-clips the action against the real
state, books the resulting flows and costs, and steps the battery. The
applied trajectory is recorded as a DispatchTrace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baselines import RULE_BASED, PolicyDecision, StrategyKind, rule_step
from .battery import clip_feasible, step_soc
from .config import Config
from .core import ControlAction, Scenario, ValidationError
from .costing import CostBreakdown, step_cost, step_flows
from .evo import aco_solve, eg_solve
from .horizon import HorizonProblem, build_lattice, solve_exact, solve_myopic
from .renewable import predict

# Stride between per-window seeds within one closed-loop run.
_WINDOW_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DispatchTrace:
    """Closed-loop record of one simulation run.

    convergence holds the optimizer's per-window best-cost trace as
    (hour, costs) pairs; empty for rule-based strategies and exact solvers.
    """

    strategy: StrategyKind
    soc_start: float
    records: tuple[HourRecord, ...]
    total_cost: float
    total_backup_kwh: float
    total_curtailed_kwh: float
    convergence: tuple[tuple[int, tuple[float, ...]], ...] = ()


def _derive_window_seed(run_seed: int, t: int) -> int:
    return (run_seed + _WINDOW_SEED_STRIDE * (t + 1)) & 0x7FFFFFFFFFFFFFFF


def _window_problem(cfg: Config, scenario: Scenario, t: int, soc: float,
                    lattice, noise_rng: np.random.Generator | None
                    ) -> HorizonProblem:
    window = scenario.window(t, cfg.horizon)
    override = None
    if noise_rng is not None and window.steps > 1:
        predicted = [predict(cfg.renewable, irr, v)
                     for irr, v in zip(window.irradiance, window.wind_speed)]
        # The current hour is observed; only future steps carry forecast noise.
        noise = noise_rng.uniform(-cfg.forecast_noise_kw, cfg.forecast_noise_kw,
                                  size=window.steps - 1)
        override = tuple([predicted[0]] + [max(0.0, p + w)
                                           for p, w in zip(predicted[1:], noise)])
    return HorizonProblem(window=window, soc0=soc, battery=cfg.battery,
                          costs=cfg.costs, lattice=lattice,
                          renewable_model=cfg.renewable,
                          renewable_override=override,
                          terminal_soc_value=cfg.terminal_soc_value)


def _optimizer_action(kind: StrategyKind, cfg: Config, hp: HorizonProblem,
                      window_seed: int) -> tuple[ControlAction, tuple[float, ...]]:
    trace: tuple[float, ...] = ()
    if kind is StrategyKind.STANDARD_MPC:
        seq, _ = solve_exact(hp, cfg.soc_grid_step, cfg.max_enumeration)
    elif kind is StrategyKind.MYOPIC_MPC:
        seq = solve_myopic(hp)
    elif kind is StrategyKind.EG_MPC:
        seq, _, costs = eg_solve(hp, replace(cfg.evo, seed=window_seed))
        trace = tuple(costs)
    elif kind is StrategyKind.AC_MPC:
        seq, _, costs = aco_solve(hp, replace(cfg.aco, seed=window_seed))
        trace = tuple(costs)
    else:
        raise ValidationError(f"{kind} is not an optimizer strategy")
    return seq[0], trace


def run_closed_loop(scenario: Scenario, strategy: StrategyKind, cfg: Config,
                    seed: int | None = None) -> DispatchTrace:
    """Simulate the whole scenario under one strategy.

    `seed` overrides cfg.seed for this run. Identical (scenario, cfg, seed)
    always produce an identical trace.
    """
    bp = cfg.battery
    if not (bp.soc_min <= cfg.initial_soc <= bp.soc_max):
        raise ValidationError(
            f"initial_soc {cfg.initial_soc} outside [{bp.soc_min}, {bp.soc_max}]")
    run_seed = cfg.seed if seed is None else seed
    lattice = build_lattice(bp.p_ch_max, bp.p_dis_max, cfg.delta_p)
    noise_rng = (np.random.default_rng(run_seed)
                 if cfg.forecast_noise_kw > 0 else None)

    soc = cfg.initial_soc
    records: list[HourRecord] = []
    convergence: list[tuple[int, tuple[float, ...]]] = []
    total_cost = 0.0
    total_backup = 0.0
    total_curtailed = 0.0
    for t in range(scenario.steps):
        load = scenario.load[t]
        renewable = predict(cfg.renewable, scenario.irradiance[t],
                            scenario.wind_speed[t])
        if strategy in RULE_BASED:
            decision = rule_step(strategy, bp, soc, load, renewable,
                                 cfg.allow_backup_charging)
        else:
            hp = _window_problem(cfg, scenario, t, soc, lattice, noise_rng)
            action, window_trace = _optimizer_action(
                strategy, cfg, hp, _derive_window_seed(run_seed, t))
            if window_trace:
                convergence.append((scenario.start_hour + t, window_trace))
            decision = PolicyDecision(action=action,
                                      billed_discharge=action.p_dis)

        surplus = max(0.0, renewable - load)
        clipped = clip_feasible(bp, soc, decision.action, surplus,
                                cfg.allow_backup_charging)
        flows = step_flows(load, renewable, clipped)
        applied = ControlAction(p_ch=flows.p_ch, p_dis=flows.p_dis)
        billed = (decision.billed_discharge if strategy in RULE_BASED
                  else applied.p_dis)
        soc_next = step_soc(bp, soc, applied)
        cost = step_cost(cfg.costs, bp, load, renewable, applied, soc_next,
                         billed_discharge=billed)
        # clip_feasible keeps applied transitions inside the band; the clamp
        # only swallows float residue at the boundaries.
        soc = min(max(soc_next, bp.soc_min), bp.soc_max)
        records.append(HourRecord(
            hour=scenario.start_hour + t, load=load,
            renewable_available=renewable, renewable_used=flows.renewable_used,
            p_ch=flows.p_ch, p_dis=flows.p_dis, backup=flows.backup,
            curtailed=flows.curtailed, soc=soc, cost=cost))
        total_cost += cost.total
        total_backup += flows.backup * bp.dt
        total_curtailed += flows.curtailed * bp.dt

    return DispatchTrace(strategy=strategy, soc_start=cfg.initial_soc,
                         records=tuple(records), total_cost=total_cost,
                         total_backup_kwh=total_backup,
                         total_curtailed_kwh=total_curtailed,
                         convergence=tuple(convergence))


@dataclass(frozen=True)
class ComparisonResult:
    """Closed-loop traces of several strategies on one scenario."""

    traces: tuple[DispatchTrace, ...]

    def totals(self) -> dict[StrategyKind, float]:
        return {tr.strategy: tr.total_cost for tr in self.traces}


def compare_strategies(scenario: Scenario, strategies, cfg: Config,
                       seed: int | None = None) -> ComparisonResult:
    """Run each strategy on the scenario with its own derived RNG stream.

    Streams are derived as seed XOR the strategy's position in StrategyKind,
    so results do not depend on the order strategies are requested in.
    """
    strategies = list(strategies)
    if not strategies:
        raise ValidationError("need at least one strategy to compare")
    base_seed = cfg.seed if seed is None else seed
    order = list(StrategyKind)
    traces = []
    for kind in strategies:
        strategy_seed = base_seed ^ order.index(kind)
        traces.append(run_closed_loop(scenario, kind, cfg, seed=strategy_seed))
    return ComparisonResult(traces=tuple(traces))
