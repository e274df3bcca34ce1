"""Command-line interface.

Subcommands:
  generate-data  write a synthetic hourly CSV
  fit            regress renewable coefficients from an hourly CSV
  simulate       closed-loop run of one strategy, trace + summary to disk
  compare        run several strategies and emit a comparison report

Exit codes: 0 success, 1 usage or validation error, 2 runtime/budget error.
The HELIOS_SEED environment variable overrides the config seed; an explicit
--seed flag overrides both. All paths are taken relative to the CWD.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .baselines import StrategyKind
from .config import Config, config_to_text, load_config, parse_config_text
from .core import BudgetExceeded, HeliosError, ParseError, ValidationError
from .data import (SyntheticProfile, generate_synthetic, load_fit_samples,
                   load_hourly_csv, write_scenario_csv)
from .engine import DispatchTrace, compare_strategies, run_closed_loop
from .renewable import DEFAULT_P_RATED, fit

TRACE_HEADER = ("hour,load_kw,renewable_kw,renewable_used_kw,p_ch_kw,p_dis_kw,"
                "backup_kw,curtailed_kw,soc_kwh,cost_battery,cost_backup,"
                "cost_penalty,cost_total")

# SyntheticProfile field -> generate-data flag, typed and defaulted by SyntheticProfile().
_PROFILE_FLAGS = {"base_load_kw": "--base-load", "bump_load_kw": "--bump-load",
                  "bump_start_hour": "--bump-start", "bump_end_hour": "--bump-end",
                  "irradiance_peak": "--irr-peak", "wind_base_ms": "--wind-base",
                  "wind_jitter_ms": "--wind-jitter"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad usage; raise instead so cli_main can
    # print the synopsis and return exit code 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="helios",
                     description="Hybrid renewable dispatch simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-data", help="write a synthetic hourly CSV")
    gen.add_argument("--days", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    profile = SyntheticProfile()
    for name, flag in _PROFILE_FLAGS.items():
        default = getattr(profile, name)
        gen.add_argument(flag, dest=name, type=type(default), default=default,
                         metavar=flag[2:].replace("-", "_").upper())
    gen.add_argument("--with-renewable", action="store_true",
                     help="append a renewable_kw column from the default model")

    fit_p = sub.add_parser("fit", help="fit renewable coefficients from CSV")
    fit_p.add_argument("csv")
    fit_p.add_argument("--out", help="write coefficients as a config fragment")
    fit_p.add_argument("--p-rated", type=float, default=DEFAULT_P_RATED)

    sim = sub.add_parser("simulate", help="closed-loop run of one strategy")
    _add_run_args(sim)
    sim.add_argument("--strategy", help="defaults to the config's strategy key")

    cmp_p = sub.add_parser("compare", help="run and compare several strategies")
    _add_run_args(cmp_p)
    cmp_p.add_argument("--strategies", default="all",
                       help="comma-separated names, or 'all'")
    return parser


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (defaults used when omitted)")
    p.add_argument("--data", required=True,
                   help="hourly CSV path, or 'synthetic' for the fixed "
                        "default-profile day (--seed does not change it)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="override any config key (repeatable), e.g. "
                        "--set evo_population=200")


def _resolve_seed(args, cfg: Config) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HELIOS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"HELIOS_SEED must be an integer, got '{env}'")
    return cfg.seed


def _load_run_inputs(args):
    cfg = load_config(args.config) if args.config else Config()
    for item in args.overrides:
        if "=" not in item:
            raise ParseError(f"--set expects KEY=VALUE, got '{item}'")
    # Applied together, so cross-field checks see the whole config.
    cfg = parse_config_text("\n".join(args.overrides), base=cfg)
    seed = _resolve_seed(args, cfg)
    if args.data == "synthetic":
        scenario = generate_synthetic(days=1)
    else:
        scenario = load_hourly_csv(args.data)
    return cfg, scenario, seed


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_run_files(out_dir: str, trace: DispatchTrace) -> None:
    """trace_<strategy>.csv, plus convergence_<strategy>.csv for searchers."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(",".join([
            str(r.hour), repr(r.load), repr(r.renewable_available),
            repr(r.renewable_used), repr(r.p_ch), repr(r.p_dis),
            repr(r.backup), repr(r.curtailed), repr(r.soc),
            repr(r.cost.battery), repr(r.cost.backup), repr(r.cost.penalty),
            repr(r.cost.total)]))
    name = trace.strategy.value
    _write_lines(os.path.join(out_dir, f"trace_{name}.csv"), lines)
    if trace.convergence:
        lines = ["hour,generation,best_cost"]
        for hour, costs in trace.convergence:
            for g, c in enumerate(costs):
                lines.append(f"{hour},{g},{c!r}")
        _write_lines(os.path.join(out_dir, f"convergence_{name}.csv"), lines)


def _summary_pairs(trace: DispatchTrace, seed: int) -> list[tuple[str, str]]:
    final_soc = trace.records[-1].soc if trace.records else trace.soc_start
    return [("strategy", trace.strategy.value),
            ("steps", str(len(trace.records))),
            ("seed", str(seed)),
            ("total_cost", repr(trace.total_cost)),
            ("total_backup_kwh", repr(trace.total_backup_kwh)),
            ("total_curtailed_kwh", repr(trace.total_curtailed_kwh)),
            ("final_soc_kwh", repr(final_soc))]


def _cmd_generate_data(args) -> int:
    profile = SyntheticProfile(**{name: getattr(args, name) for name in _PROFILE_FLAGS})
    scenario = generate_synthetic(days=args.days, profile=profile,
                                  seed=args.seed)
    model = Config().renewable if args.with_renewable else None
    write_scenario_csv(args.out, scenario, renewable_model=model)
    print(f"wrote {scenario.steps} rows to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    samples = load_fit_samples(args.csv)
    model = fit(samples, p_rated=args.p_rated)
    lines = config_to_text(replace(Config(), renewable=model)).splitlines()
    fragment = "\n".join(["# fitted renewable model"]
                         + [line for line in lines if line.startswith("renewable_")]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(fragment)
    print(fragment, end="")
    return 0


def _cmd_simulate(args) -> int:
    cfg, scenario, seed = _load_run_inputs(args)
    strategy = cfg.strategy if args.strategy is None else StrategyKind.parse(args.strategy)
    trace = run_closed_loop(scenario, strategy, cfg, seed=seed)
    os.makedirs(args.out_dir, exist_ok=True)
    _write_run_files(args.out_dir, trace)
    pairs = _summary_pairs(trace, seed)
    text_lines = [f"{k:>20}: {v}" for k, v in pairs]
    name = strategy.value
    _write_lines(os.path.join(args.out_dir, f"summary_{name}.kv"),
                 [f"{k} = {v}" for k, v in pairs])
    _write_lines(os.path.join(args.out_dir, f"summary_{name}.txt"), text_lines)
    print("\n".join(text_lines))
    return 0


def _cmd_compare(args) -> int:
    cfg, scenario, seed = _load_run_inputs(args)
    if args.strategies.strip().lower() == "all":
        kinds = list(StrategyKind)
    else:
        kinds = [StrategyKind.parse(s) for s in args.strategies.split(",") if s]
    result = compare_strategies(scenario, kinds, cfg, seed=seed)
    os.makedirs(args.out_dir, exist_ok=True)
    kv_lines = [f"seed = {seed}", f"steps = {scenario.steps}"]
    text_lines = [f"{'strategy':>16} {'total_cost':>14} {'backup_kwh':>12} "
                  f"{'curtailed_kwh':>14}"]
    for trace in result.traces:
        _write_run_files(args.out_dir, trace)
        name = trace.strategy.value
        kv_lines.append(f"{name}.total_cost = {trace.total_cost!r}")
        kv_lines.append(f"{name}.total_backup_kwh = {trace.total_backup_kwh!r}")
        kv_lines.append(
            f"{name}.total_curtailed_kwh = {trace.total_curtailed_kwh!r}")
        text_lines.append(f"{name:>16} {trace.total_cost:>14.4f} "
                          f"{trace.total_backup_kwh:>12.3f} "
                          f"{trace.total_curtailed_kwh:>14.3f}")
    _write_lines(os.path.join(args.out_dir, "comparison.kv"), kv_lines)
    _write_lines(os.path.join(args.out_dir, "comparison.txt"), text_lines)
    print("\n".join(text_lines))
    return 0


_COMMANDS = {
    "generate-data": _cmd_generate_data,
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except HeliosError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
