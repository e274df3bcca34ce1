"""helios benchmark: closed-loop cost and speed per strategy, per layer.

    python3 perfbench/run.py --workload reference_day --seed 1 --seconds 30 --trace 0

Run from the root of a helios checkout; helios is imported from its `src/`.
One process runs one workload as a closed loop with a single caller: each
pass makes the workload's `helios compare` calls one after another, and
passes repeat until `--seconds` is used up (at least enough passes for 100
re-plan windows per search strategy).  Every closed-loop run is checked
(see checks.py).  The last line of stdout is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
See perfbench/README.md for the metrics and what each should move.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

P90_MIN_WINDOWS = 100
SETUP_PROBES = 7


class BenchError(Exception):
    """The benchmark cannot run here (no helios source, no config)."""


def import_helios():
    try:
        import helios.baselines
        import helios.cli
        import helios.engine
        import helios.evo
        import helios.horizon
    except ImportError as exc:
        raise BenchError(f"cannot import helios from {ROOT / 'src'}: {exc}") from None
    origin = Path(helios.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise BenchError(f"helios was imported from {origin}, not {ROOT / 'src'}")
    if not (ROOT / "configs" / "reference.cfg").is_file():
        raise BenchError(f"missing {ROOT / 'configs' / 'reference.cfg'}")
    return helios


def cli_args(job, csv_path: str, out_dir: str) -> list[str]:
    from workloads import CONFIG, RUN_SEED
    argv = ["compare", "--config", str(ROOT / CONFIG), "--data", csv_path,
            "--strategies", ",".join(job.strategies), "--out-dir", out_dir,
            "--seed", str(RUN_SEED)]
    for item in job.overrides:
        argv += ["--set", item]
    return argv


# -- set-up time ---------------------------------------------------------------


def setup_probe(argv_json: str) -> int:
    """Child process: run `helios compare` up to its first closed-loop run.

    Prints the monotonic clock at the first call into
    engine.run_closed_loop and stops there.  CLOCK_MONOTONIC is shared by
    all processes, so the parent subtracts the time it started this one.
    """
    helios = import_helios()

    class Reached(Exception):
        pass

    def first_run(*args, **kwargs):
        print(repr(time.perf_counter()), flush=True)
        raise Reached

    helios.engine.run_closed_loop = first_run
    try:
        helios.cli.cli_main(json.loads(argv_json))
    except Reached:
        return 0
    print("setup probe never reached run_closed_loop", file=sys.stderr)
    return 1


def measure_setup(argv: list[str], probes: int) -> list[float]:
    import subprocess
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             json.dumps(argv)], capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


# -- instrumentation -------------------------------------------------------------


class PassState:
    """What one pass records through the wrappers besides spans."""

    def __init__(self):
        self.runs = []          # (strategy, hours, seconds, call, windows, trace, battery)
        self.call = 0           # index of the compare call in progress
        self.call_walls = []    # seconds of each compare call
        self.windows = {}       # strategy -> [re-plan seconds]
        self.strategy = None    # strategy of the closed-loop run in progress
        self.first_window = 0   # len(windows[strategy]) when the run started
        self.optimizer = False
        self.solver = None      # span name of the solver call in progress


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def instrument(helios, tracer, state: PassState, full: bool) -> None:
    """Wrap helios entry points; `full` adds every per-layer boundary.

    Untraced passes time only run_closed_loop and the engine's solver
    calls.  Those five names must exist, and the checker fails any run that
    did not time one solver call per optimizer hour, so a solver call that
    bypasses them cannot read as a faster re-plan.  Per-layer names missing
    from a module are skipped: a refactor that drops such a call site reads
    as zero work for that layer, not as a crash.
    """
    engine, evo, horizon, cli = helios.engine, helios.evo, helios.horizon, helios.cli
    rule_based = helios.baselines.RULE_BASED
    starts, ends = tracer.start, tracer.end

    def wrap(module, attr, name, before=None, after=None, opens_window=False,
             required=False):
        if not hasattr(module, attr):
            if required:
                raise BenchError(f"{module.__name__}.{attr} is gone; the benchmark "
                                 "times the engine's calls through it")
            return
        fn = getattr(module, attr)
        tracer.patch(module, attr, tracer.wrap(fn, name, before, after,
                                               opens_window))

    def run_before(args, kwargs):
        kind = _arg(args, kwargs, 1, "strategy")
        state.strategy = kind.value
        state.optimizer = kind not in rule_based
        state.first_window = len(state.windows.get(state.strategy, ()))
        tracer.current_window = -1

    def run_after(i, args, kwargs, trace):
        cfg = _arg(args, kwargs, 2, "cfg")
        windows = len(state.windows.get(state.strategy, ())) - state.first_window
        state.runs.append((state.strategy, len(trace.records), ends[i] - starts[i],
                           state.call, windows, trace, cfg.battery))

    wrap(engine, "run_closed_loop", "engine.run", run_before, run_after,
         required=True)

    def solver(name, after_extra=None):
        def before(args, kwargs):
            state.solver = name if isinstance(name, str) else name(args, kwargs)

        def after(i, args, kwargs, result):
            state.windows.setdefault(state.strategy, []).append(ends[i] - starts[i])
            state.solver = None
            if full and after_extra is not None:
                after_extra(args, kwargs, result)
        return before, after

    def exact_kind(args, kwargs):
        hp = _arg(args, kwargs, 0, "hp")
        limit = _arg(args, kwargs, 2, "max_enumeration")
        return ("horizon.enum" if float(len(hp.lattice)) ** hp.n_steps <= limit
                else "horizon.dp")

    def exact_work(args, kwargs, result):
        import numpy as np
        hp = _arg(args, kwargs, 0, "hp")
        n_actions = len(hp.lattice)
        if exact_kind(args, kwargs) == "horizon.enum":
            tracer.count("horizon.enum.sequences", n_actions ** hp.n_steps)
        else:
            step = _arg(args, kwargs, 1, "soc_grid_step")
            bp = hp.battery
            nodes = len(np.arange(bp.soc_min, bp.soc_max + step / 2, step))
            tracer.count("horizon.dp.cells", nodes * n_actions * hp.n_steps)

    def search_trace(prefix):
        def after(args, kwargs, result):
            costs = result[2]
            last = max((g for g in range(1, len(costs)) if costs[g] < costs[g - 1]),
                       default=0)
            tracer.count(prefix + ".iterations", len(costs))
            tracer.count(prefix + ".idle", len(costs) - 1 - last)
        return after

    for attr, name, extra in (("solve_exact", exact_kind, exact_work),
                              ("solve_myopic", "horizon.myopic", None),
                              ("eg_solve", "evo.eg", search_trace("evo.eg")),
                              ("aco_solve", "evo.aco", search_trace("evo.aco"))):
        before, after = solver(name, extra)
        wrap(engine, attr, name, before, after, opens_window=True, required=True)
    if not full:
        return

    wrap(cli, "load_config", "config.load")
    wrap(cli, "load_hourly_csv", "data.csv_read")
    wrap(engine, "predict", "renewable.predict")
    wrap(horizon, "predict_series", "renewable.predict",
         before=lambda args, kwargs: tracer.count("renewable.series_calls"))
    wrap(engine, "step_flows", "costing.step")
    wrap(engine, "step_cost", "costing.step")
    wrap(engine, "rule_step", "baselines.rule")

    def clip_after(i, args, kwargs, applied):
        if state.optimizer:
            planned = _arg(args, kwargs, 2, "a")
            kw = (planned.p_ch - applied.p_ch) + (planned.p_dis - applied.p_dis)
            tracer.count("engine.clipped_kw", kw)
            tracer.count("engine.clipped_windows", kw != 0)

    wrap(engine, "clip_feasible", "battery.clip", after=clip_after)

    def batch_after(i, args, kwargs, result):
        tracer.count(f"{state.solver}.rows", len(result))

    wrap(evo, "sequence_costs_batch", "costing.batch", after=batch_after)
    wrap(horizon, "sequence_costs_batch", "costing.batch", after=batch_after)
    wrap(evo, "sequence_cost", "costing.scalar")


# -- passes and checks ------------------------------------------------------------


def run_pass(helios, inputs, full: bool, check):
    """One pass over the workload's jobs; returns (wall, tracer, state).

    Before each compare call the previous output directory is removed and
    the garbage collector runs, so every call starts from the same heap.
    After it, outside the timed region, `check(job, out_dir, code, runs,
    tracer)` sees the call's closed-loop runs and their traces are dropped.
    compare's stdout table goes to /dev/null so the report stays readable.
    """
    import contextlib
    import gc
    import shutil
    import traceback
    from tracing import Tracer
    tracer, state = Tracer(), PassState()
    cli_main = helios.cli.cli_main
    if full:
        cli_main = tracer.wrap(cli_main, "cli")
    try:
        instrument(helios, tracer, state, full)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for state.call, (job, csv_path, out_dir) in enumerate(inputs):
                shutil.rmtree(out_dir, ignore_errors=True)
                first = len(state.runs)
                gc.collect()
                t0 = time.perf_counter()
                try:
                    code = cli_main(cli_args(job, csv_path, out_dir))
                except Exception:  # a crash fails this job's runs, not the run
                    traceback.print_exc()
                    code = None
                state.call_walls.append(time.perf_counter() - t0)
                runs = state.runs[first:]
                check(job, out_dir, code, runs, tracer)
                state.runs[first:] = [r[:5] for r in runs]
    finally:
        tracer.restore()
    return sum(state.call_walls), tracer, state


def _read_kv(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return dict(line.split(" = ", 1) for line in fh.read().splitlines()
                        if " = " in line)
    except OSError:
        return {}


class Checker:
    """Checks every closed-loop run and counts attempted and failed runs.

    A strategy run fails when its trace fails check_trace, differs from the
    first pass, misses a pinned cost, disagrees with comparison.kv, did not
    time exactly one solver call per hour (none for a rule), or its compare
    call failed or wrote the wrong number of files.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple[str, str], str] = {}
        self.costs: dict[str, float] = {}

    def __call__(self, job, out_dir, code, runs, tracer) -> None:
        from checks import check_trace, trace_digest
        from workloads import RULES
        files = os.listdir(out_dir) if os.path.isdir(out_dir) else []
        tracer.count("cli.bytes_written",
                     sum(os.path.getsize(os.path.join(out_dir, f)) for f in files))
        job_problems = []
        if code != 0:
            job_problems.append(f"helios compare exited with {code}")
        if len(files) != job.expected_files:
            job_problems.append(f"wrote {len(files)} files, expected {job.expected_files}")
        kv = _read_kv(os.path.join(out_dir, "comparison.kv"))
        seen = set()
        for strategy, hours, _seconds, _call, windows, trace, battery in runs:
            seen.add(strategy)
            problems = job_problems + check_trace(trace, battery)
            if windows != (0 if strategy in RULES else hours):
                problems.append(f"{windows} solver calls timed in {hours} hours")
            digest = trace_digest(trace)
            if self.digests.setdefault((job.name, strategy), digest) != digest:
                problems.append("trace differs from the first pass")
            if job.expected_costs and trace.total_cost != job.expected_costs[strategy]:
                problems.append(f"total_cost {trace.total_cost!r}, pinned "
                                f"{job.expected_costs[strategy]!r}")
            if kv.get(f"{strategy}.total_cost") != repr(trace.total_cost):
                problems.append("comparison.kv total_cost disagrees with the run")
            self.costs[strategy] = trace.total_cost
            self._count(job, strategy, problems)
        for strategy in job.strategies:
            if strategy not in seen:
                self._count(job, strategy, job_problems + ["no closed-loop run"])

    def _count(self, job, strategy, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {job.name}/{strategy}: {'; '.join(problems[:3])}",
                  file=sys.stderr)


# -- metrics ------------------------------------------------------------------------


def _median(values):
    import statistics
    if not values:
        raise BenchError("a metric has no samples")
    return statistics.median(values)


def _p90(values):
    import statistics
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else _median(values)


def end_to_end(passes, costs, setup_samples, jobs):
    """(metrics, notes): metric -> (value, unit); notes give sample counts.

    `jobs` are the workload's jobs, in the order of a pass's compare calls.
    """
    import resource
    from workloads import RULES, SEARCH
    metrics, notes = {}, {}
    metrics["setup_s"] = (_median(setup_samples), "s")
    notes["setup_s"] = f"median of {len(setup_samples)} fresh processes"

    def ms_per_hour(strategies):
        """Median over compare calls of run time over simulated hours."""
        totals = {}
        for p, (_wall, state) in enumerate(passes):
            for strategy, hours, seconds, call, _windows in state.runs:
                if strategy in strategies:
                    t = totals.setdefault((p, call), [0.0, 0])
                    t[0] += seconds
                    t[1] += hours
        return _median([1000.0 * s / h for s, h in totals.values()]), len(totals)

    for s in ("eg_mpc", "ac_mpc", "standard_mpc", "myopic_mpc"):
        value, n = ms_per_hour((s,))
        metrics[f"{s}.ms_per_hour"] = (value, "ms/h")
        notes[f"{s}.ms_per_hour"] = f"median of {n} closed-loop runs"
    value, n = ms_per_hour(RULES)
    metrics["rules.ms_per_hour"] = (value, "ms/h")
    notes["rules.ms_per_hour"] = f"median of {n} compare calls running the three rules"
    # A re-plan window is an hour of a job, and a run times it once per
    # pass, or more often when the job repeats within a pass.  Its latency
    # is the median of those samples, which keeps the host's slow spells
    # out of the tail: pooled, p90 swung by up to a third between runs of
    # the same code.
    samples = {s: {} for s in SEARCH}
    for _wall, state in passes:
        taken = {}
        for strategy, _hours, _seconds, call, n in state.runs:
            if strategy in samples:
                start = taken.get(strategy, 0)
                taken[strategy] = start + n
                for k, seconds in enumerate(state.windows[strategy][start:start + n]):
                    samples[strategy].setdefault((jobs[call].name, k), []).append(seconds)
    for s in SEARCH[::-1]:
        counts = sorted({len(v) for v in samples[s].values()})
        if len(counts) != 1:
            raise BenchError(f"{s}: its windows were timed unequal numbers of "
                             f"times {counts}")
        typical = [_median(v) for v in samples[s].values()]
        metrics[f"{s}.window_ms_p90"] = (1000.0 * _p90(typical), "ms")
        notes[f"{s}.window_ms_p90"] = f"{len(typical)} windows x {counts[0]} samples"
    for s in ("eg_mpc", "ac_mpc", "standard_mpc", "myopic_mpc", "renewable_first"):
        metrics[f"{s}.cost"] = (costs.get(s, float("nan")), "currency")
    # Only the jobs a workload is about: year_rules's companion search job
    # would make this metric half solver time.
    hours = sum(h for _wall, state in passes
                for _s, h, _t, call, _n in state.runs if jobs[call].throughput)
    wall = sum(seconds for _wall, state in passes
               for call, seconds in enumerate(state.call_walls) if jobs[call].throughput)
    metrics["sim_hours_per_s"] = (hours / wall, "h/s")
    notes["sim_hours_per_s"] = f"{hours} simulated hours in {wall:.3f} s of compare calls"
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, notes


def per_layer(traced, untraced_walls):
    """Per-layer metrics, each a mean per traced pass unless it is a ratio."""
    from tracing import layer_totals
    n = len(traced)
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    hours = windows = wall = attributed = 0.0
    for pass_wall, tracer, state in traced:
        for name, t in layer_totals(tracer).items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += t[k]
            attributed += t["self_s"]
        for k, v in tracer.counts.items():
            counts[k] = counts.get(k, 0) + v
        hours += sum(r[1] for r in state.runs)
        windows += tracer.windows_opened
        wall += pass_wall

    def get(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    rows = counts.get("evo.eg.rows", 0) + counts.get("horizon.enum.rows", 0) \
        + counts.get("horizon.dp.rows", 0)
    m = {
        "horizon.enum.windows": (get("horizon.enum", "calls") / n, "count"),
        "horizon.enum.s": (get("horizon.enum") / n, "s"),
        "horizon.enum.seq_per_s": (ratio(counts.get("horizon.enum.sequences", 0),
                                         get("horizon.enum")), "1/s"),
        "horizon.dp.windows": (get("horizon.dp", "calls") / n, "count"),
        "horizon.dp.s": (get("horizon.dp") / n, "s"),
        "horizon.dp.cells_per_s": (ratio(counts.get("horizon.dp.cells", 0),
                                         get("horizon.dp")), "1/s"),
        "horizon.myopic.s": (get("horizon.myopic") / n, "s"),
        "costing.batch.calls": (get("costing.batch", "calls") / n, "count"),
        "costing.batch.rows": (rows / n, "count"),
        "costing.batch.s": (get("costing.batch") / n, "s"),
        "costing.batch.rows_per_s": (ratio(rows, get("costing.batch")), "1/s"),
        "costing.scalar.calls": (get("costing.scalar", "calls") / n, "count"),
        "costing.scalar.s": (get("costing.scalar") / n, "s"),
        "costing.step.s": (get("costing.step") / n, "s"),
        "battery.clip.s": (get("battery.clip") / n, "s"),
        "baselines.rule.s": (get("baselines.rule") / n, "s"),
        "evo.eg.s": (get("evo.eg") / n, "s"),
        "evo.eg.self_s": (get("evo.eg", "self_s") / n, "s"),
        "evo.eg.evals_per_window": (ratio(counts.get("evo.eg.rows", 0)
                                          + get("costing.scalar", "calls"),
                                          get("evo.eg", "calls")), "evals/window"),
        "evo.eg.idle_gen_frac": (ratio(counts.get("evo.eg.idle", 0),
                                       counts.get("evo.eg.iterations", 0)), "frac"),
        "evo.aco.s": (get("evo.aco") / n, "s"),
        "evo.aco.ms_per_iter": (ratio(1000.0 * get("evo.aco"),
                                      counts.get("evo.aco.iterations", 0)), "ms"),
        "evo.aco.idle_iter_frac": (ratio(counts.get("evo.aco.idle", 0),
                                         counts.get("evo.aco.iterations", 0)), "frac"),
        "renewable.predict.calls": (get("renewable.predict", "calls") / n, "count"),
        "renewable.predict.s": (get("renewable.predict") / n, "s"),
        "renewable.series_calls_per_window": (
            ratio(counts.get("renewable.series_calls", 0), windows), "calls/window"),
        "engine.self_ms_per_hour": (ratio(1000.0 * get("engine.run", "self_s"), hours),
                                    "ms/h"),
        "engine.windows": (windows / n, "count"),
        "engine.clipped_kw": (counts.get("engine.clipped_kw", 0) / n, "kW"),
        "engine.clipped_frac": (ratio(counts.get("engine.clipped_windows", 0), windows),
                                "frac"),
        "data.csv_read.s": (get("data.csv_read") / n, "s"),
        "config.load.s": (get("config.load") / n, "s"),
        "cli.self_s": (get("cli", "self_s") / n, "s"),
        "cli.bytes_written": (counts.get("cli.bytes_written", 0) / n, "B"),
        "trace.unattributed_frac": (ratio(wall - attributed, wall), "frac"),
        "trace.overhead_frac": (ratio(_median([w for w, _t, _s in traced]),
                                      _median(untraced_walls)) - 1.0, "frac"),
    }
    return m, spans, wall, attributed


def save_spans(path: Path, traced) -> None:
    """Every span of the traced passes, with their names, as one .npz file."""
    import numpy as np
    index: dict[str, int] = {}
    cols = {k: [] for k in ("pass_index", "name", "parent", "window", "start", "end")}
    for p, (_wall, tracer, _state) in enumerate(traced):
        ids = [index.setdefault(n, len(index)) for n in tracer.names]
        cols["pass_index"].append(np.full(len(tracer.start), p, dtype=np.int32))
        cols["name"].append(np.array([ids[i] for i in tracer.name], dtype=np.int32))
        for k in ("parent", "window", "start", "end"):
            cols[k].append(np.frombuffer(getattr(tracer, k), dtype=(
                np.float64 if k in ("start", "end") else np.int32)).copy())
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.array(list(index)),
             **{k: np.concatenate(v) for k, v in cols.items()})


# -- entry point ------------------------------------------------------------------


def run_workload(helios, workload, work: Path, seconds: float, trace: bool,
                 probes: int = SETUP_PROBES, min_windows: int = P90_MIN_WINDOWS,
                 spans_out: Path | None = None) -> dict:
    """Measure one workload and print its report; returns the result object."""
    import math
    from dataclasses import replace
    from workloads import SEARCH, WARMUP_HOURS, write_csv
    inputs, warmup = [], []
    for job in workload.jobs:
        csv_path = str(work / f"{job.name}.csv")
        write_csv(csv_path, job.rows)
        inputs.append((job, csv_path, str(work / f"out-{job.name}")))
        short = replace(job, rows=job.rows[:WARMUP_HOURS], expected_costs=None)
        write_csv(csv_path + ".warmup", short.rows)
        warmup.append((short, csv_path + ".warmup", str(work / "out-warmup")))
    probe_argv = cli_args(*inputs[0])
    # Every code path once, untimed and unchecked, so the first timed pass
    # pays no first-call costs that later passes do not.
    run_pass(helios, warmup, False, lambda *args: None)

    search_hours = [j.hours for j in workload.jobs if set(j.strategies) & set(SEARCH)]
    min_passes = 1 if trace else math.ceil(min_windows / min(search_hours or [min_windows]))
    checker = Checker()
    untraced, traced, loop_times, setup = [], [], [], []
    t_start = time.perf_counter()
    while True:
        t_loop = time.perf_counter()
        for full in ((False, True) if trace else (False,)):
            wall, tracer, state = run_pass(helios, inputs, full, checker)
            if full:
                traced.append((wall, tracer, state))
            else:
                untraced.append((wall, state))
        if not trace and len(setup) < probes:
            # Probes spread over the run, so one slow spell of the host
            # cannot hold them all.
            setup += measure_setup(probe_argv, 1)
        loop_times.append(time.perf_counter() - t_loop)
        elapsed = time.perf_counter() - t_start
        if len(loop_times) >= min_passes and elapsed + _median(loop_times) > seconds:
            break
    if not trace:
        setup += measure_setup(probe_argv, probes - len(setup))

    print(f"workload {workload.name}: {len(loop_times)} "
          f"{'untraced+traced pass pairs' if trace else 'passes'} in {elapsed:.3f} s")
    if trace:
        metrics, spans, wall, attributed = per_layer(traced, [w for w, _s in untraced])
        print(f"{'span':<20} {'calls/pass':>12} {'incl s/pass':>12} {'self s/pass':>12} "
              f"{'self share':>10}")
        for name, t in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:<20} {t['calls'] / len(traced):>12.1f} "
                  f"{t['s'] / len(traced):>12.6f} {t['self_s'] / len(traced):>12.6f} "
                  f"{t['self_s'] / wall:>10.4f}")
        print(f"{'(unattributed)':<20} {'':>12} {'':>12} "
              f"{(wall - attributed) / len(traced):>12.6f} "
              f"{(wall - attributed) / wall:>10.4f}")
        print(f"traced wall {wall / len(traced):.6f} s/pass; tracing overhead "
              f"{metrics['trace.overhead_frac'][0]:+.4f} against untraced passes")
        notes = {}
        if spans_out is not None:
            save_spans(spans_out, traced)
            print(f"spans written to {spans_out.name}")
    else:
        metrics, notes = end_to_end(untraced, checker.costs, setup, workload.jobs)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>18.6f} {unit:<12} {notes.get(name, '')}")
    share = checker.failed / checker.attempted if checker.attempted else 1.0
    print(f"runs failed: {checker.failed} of {checker.attempted} ({share:.4f})")
    return {"correct": checker.failed == 0 and checker.attempted > 0,
            "attempted": checker.attempted, "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    import argparse
    import shutil
    import tempfile
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        helios = import_helios()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run_workload(
            helios, workload, work, args.seconds, bool(args.trace),
            spans_out=ROOT / ".perfbench_out" / f"spans-{args.workload}.npz")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--setup-probe":
        sys.exit(setup_probe(sys.argv[2]))
    sys.exit(main())
