"""Closed-loop receding-horizon simulation.

The engine predicts renewable power once over the scenario. Each hour it
asks the configured strategy for an action (rules net their intents for the
current hour; optimizers solve the N-step window against its slice of the
forecast and yield the first action; myopic_mpc's window is the hour alone,
as its greedy first action reads nothing later). The hour loop only steps
the plant (clip_feasible, step_soc); then costing.book_run books every hour's
flows and bill in one vector pass, the records of the DispatchTrace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .baselines import RULE_BASED, StrategyKind, rule_step
from .battery import clip_feasible, step_soc
from .config import Config
from .core import ControlAction, Scenario, ValidationError
from .costing import HourRecord, book_run
from .evo import aco_solve, eg_solve, require_aco_budget, require_eg_budget
from .horizon import (HorizonProblem, build_lattice, require_dp_budget, solve_exact,
                      solve_myopic, takes_dp)
# predict stays in this namespace for callers that patch helios.engine.predict.
from .renewable import predict, predict_series  # noqa: F401

# Stride between per-window seeds within one closed-loop run.
_WINDOW_SEED_STRIDE = 1_000_003


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
    return (run_seed + _WINDOW_SEED_STRIDE * (t + 1)) % 2**64  # as noise seeds wrap


def _window_problem(cfg: Config, scenario: Scenario, t: int, horizon: int,
                    soc: float, lattice, forecast: list[float],
                    noise_rng: np.random.Generator | None) -> HorizonProblem:
    window = scenario.window(t, horizon)
    predicted = forecast[t:t + window.steps]
    if noise_rng is not None and window.steps > 1:
        # The current hour is observed; only future steps carry forecast noise.
        noise = noise_rng.uniform(-cfg.forecast_noise_kw, cfg.forecast_noise_kw,
                                  size=window.steps - 1)
        predicted = [predicted[0]] + [max(0.0, p + w)
                                      for p, w in zip(predicted[1:], noise)]
    return HorizonProblem(window=window, soc0=soc, battery=cfg.battery,
                          costs=cfg.costs, lattice=lattice,
                          renewable_model=cfg.renewable,
                          renewable_override=tuple(predicted),
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
    # Seeds in [0, 2**64) keep their stream; a negative one wraps into it.
    noise_rng = (np.random.default_rng(run_seed % 2**64)
                 if cfg.forecast_noise_kw > 0 else None)
    forecast = predict_series(cfg.renewable, scenario.irradiance,
                              scenario.wind_speed)
    rule_based = strategy in RULE_BASED
    horizon = 1 if strategy is StrategyKind.MYOPIC_MPC else cfg.horizon

    soc = cfg.initial_soc
    p_ch, p_dis, billed_dis, soc_next, socs = [], [], [], [], []
    convergence: list[tuple[int, tuple[float, ...]]] = []
    for t, (load, renewable) in enumerate(zip(scenario.load, forecast)):
        if rule_based:
            # Rules are billed for the gross discharge they asked for.
            action, billed = rule_step(strategy, bp, soc, load, renewable)
        else:
            hp = _window_problem(cfg, scenario, t, horizon, soc, lattice,
                                 forecast, noise_rng)
            action, window_trace = _optimizer_action(
                strategy, cfg, hp, _derive_window_seed(run_seed, t))
            if window_trace:
                convergence.append((scenario.start_hour + t, window_trace))

        applied = clip_feasible(bp, soc, action, load, renewable,
                                cfg.allow_backup_charging)
        nxt = step_soc(bp, soc, applied)
        # clip_feasible keeps applied transitions inside the band; the clamp
        # only swallows float residue at the boundaries.
        soc = min(max(nxt, bp.soc_min), bp.soc_max)
        p_ch.append(applied.p_ch)
        p_dis.append(applied.p_dis)
        billed_dis.append(billed if rule_based else applied.p_dis)
        soc_next.append(nxt)
        socs.append(soc)

    records, *totals = book_run(cfg.costs, bp, scenario.start_hour, scenario.load,
                                forecast, p_ch, p_dis, billed_dis, soc_next, socs)
    return DispatchTrace(strategy, cfg.initial_soc, records, *totals,
                         convergence=tuple(convergence))


@dataclass(frozen=True)
class ComparisonResult:
    """Closed-loop traces of several strategies on one scenario."""

    traces: tuple[DispatchTrace, ...]

    def totals(self) -> dict[StrategyKind, float]:
        return {tr.strategy: tr.total_cost for tr in self.traces}


def compare_strategies(scenario: Scenario, strategies, cfg: Config,
                       seed: int | None = None) -> ComparisonResult:
    """Run each strategy, named at most once, with its own derived RNG stream;
    an EG, ACO or grid DP table its solver would refuse is refused before any run.

    Streams are derived as seed XOR the strategy's position in StrategyKind,
    so results do not depend on the order strategies are requested in.
    """
    strategies = list(strategies)
    if not strategies:
        raise ValidationError("need at least one strategy to compare")
    for i, kind in enumerate(strategies):
        if kind in strategies[:i]:
            raise ValidationError(f"strategy '{kind.value}' is requested twice")
    n_steps = min(cfg.horizon, scenario.steps)  # the first window, the longest
    bp = cfg.battery
    n_actions = len(build_lattice(bp.p_ch_max, bp.p_dis_max, cfg.delta_p))
    if StrategyKind.EG_MPC in strategies:
        require_eg_budget(cfg.evo, n_steps)
    if StrategyKind.AC_MPC in strategies:
        require_aco_budget(cfg.aco, n_steps, n_actions)
    if (StrategyKind.STANDARD_MPC in strategies
            and takes_dp(n_actions, n_steps, cfg.max_enumeration)):
        require_dp_budget(bp, cfg.soc_grid_step, n_steps, n_actions)
    base_seed = cfg.seed if seed is None else seed
    order = list(StrategyKind)
    traces = []
    for kind in strategies:
        strategy_seed = base_seed ^ order.index(kind)
        traces.append(run_closed_loop(scenario, kind, cfg, seed=strategy_seed))
    return ComparisonResult(traces=tuple(traces))
