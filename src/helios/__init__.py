"""Dispatch simulation and optimization for a hybrid solar/wind/battery/diesel
energy system: battery dynamics, cost model, rule-based strategies, exact
horizon solvers, evolutionary-game and ant-colony optimizers, and a
closed-loop receding-horizon engine with CSV/config tooling.
"""

from .baselines import StrategyKind
from .config import Config, load_config, save_config
from .core import BatteryParams, ControlAction, CostParams, HeliosError, Scenario
from .costing import CostBreakdown
from .data import SyntheticProfile, generate_synthetic, load_hourly_csv
from .engine import ComparisonResult, DispatchTrace, compare_strategies, run_closed_loop
from .evo import AcoParams, EvoParams, aco_solve, eg_solve
from .horizon import (ActionLattice, CandidateSequence, HorizonProblem,
                      build_lattice, solve_exact, solve_myopic)
from .renewable import RenewableModel, fit, reference_model, predict, surface

__version__ = "0.1.0"

__all__ = [
    "AcoParams", "ActionLattice", "BatteryParams", "CandidateSequence",
    "ComparisonResult", "Config", "ControlAction",
    "CostBreakdown", "CostParams", "DispatchTrace", "EvoParams",
    "HeliosError", "HorizonProblem", "RenewableModel", "Scenario",
    "StrategyKind", "SyntheticProfile", "aco_solve",
    "build_lattice", "compare_strategies", "eg_solve", "fit",
    "generate_synthetic", "load_config", "load_hourly_csv", "reference_model",
    "predict", "run_closed_loop", "save_config", "solve_exact",
    "solve_myopic", "surface",
]
