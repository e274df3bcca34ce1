"""Tests of the benchmark itself.  Run with: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads
from checks import check_trace
from tracing import Tracer, layer_totals, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_workload():
    rows = workloads.synthetic_rows(4, 199.0, 250.0, 1, 3, [8.0] * 4)
    return workloads.Workload(
        "tiny", (workloads.Job("tiny", rows, workloads.STRATEGIES),))


@pytest.fixture(scope="module")
def helios():
    return run.import_helios()


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_workload_emits_every_metric_with_its_unit(helios, tmp_path, trace,
                                                        section):
    result = run.run_workload(helios, tiny_workload(), tmp_path, seconds=0,
                              trace=trace, probes=1, min_windows=1,
                              spans_out=tmp_path / "spans.npz")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 7 * (2 if trace else 1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert (tmp_path / "spans.npz").exists() == trace


def test_self_time_on_a_hand_built_span_tree():
    t = Tracer()
    root = t.add_span("cli", 0.0, 10.0)
    a = t.add_span("engine.run", 1.0, 4.0, parent=root)
    t.add_span("costing.step", 2.0, 3.0, parent=a)
    b = t.add_span("engine.run", 5.0, 9.0, parent=root)
    t.add_span("battery.clip", 5.5, 6.0, parent=b)
    t.add_span("battery.clip", 7.0, 8.5, parent=b)
    selfs = self_times(t.parent, t.start, t.end)
    assert selfs == pytest.approx([10.0 - 3.0 - 4.0, 2.0, 1.0, 4.0 - 2.0, 0.5, 1.5])
    # The self times add up to the root's duration.
    assert sum(selfs) == pytest.approx(10.0)
    totals = layer_totals(t)
    assert totals["engine.run"] == pytest.approx({"calls": 2, "s": 7.0, "self_s": 4.0})
    assert totals["battery.clip"] == pytest.approx({"calls": 2, "s": 2.0, "self_s": 2.0})


def test_wrapped_calls_nest_and_restore(helios):
    t = Tracer()
    inner = t.wrap(lambda x: x + 1, "inner")
    outer = t.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert list(t.parent) == [-1, 0] and t.names == ["inner", "outer"]
    original = helios.engine.predict
    t.patch(helios.engine, "predict", t.wrap(original, "renewable.predict"))
    assert helios.engine.predict is not original
    t.restore()
    assert helios.engine.predict is original


def _corruptions():
    return {
        "balance": lambda r: replace(r, backup=r.backup + 1e-6),
        "soc": lambda r: replace(r, soc=2000.0),
        "nan": lambda r: replace(r, load=float("nan")),
    }


@pytest.mark.parametrize("kind", sorted(_corruptions()))
def test_corrupted_record_fails_check_trace(helios, kind):
    cfg = helios.load_config(str(run.ROOT / workloads.CONFIG))
    scenario = helios.generate_synthetic(days=1, seed=11)
    trace = helios.run_closed_loop(scenario, helios.StrategyKind.RENEWABLE_FIRST, cfg)
    assert check_trace(trace, cfg.battery) == []
    records = list(trace.records)
    records[5] = _corruptions()[kind](records[5])
    assert check_trace(replace(trace, records=tuple(records)), cfg.battery)
    assert check_trace(replace(trace, total_cost=trace.total_cost + 1.0), cfg.battery)


def test_corrupted_record_is_counted_as_a_failed_run(helios, tmp_path):
    job = tiny_workload().jobs[0]
    csv_path = str(tmp_path / "tiny.csv")
    workloads.write_csv(csv_path, job.rows)
    seen = []
    run.run_pass(helios, [(job, csv_path, str(tmp_path / "out"))], False,
                 lambda *args: seen.append(args))
    (job, out_dir, code, runs, tracer), = seen
    checker = run.Checker()
    checker(job, out_dir, code, runs, tracer)
    assert (checker.attempted, checker.failed) == (7, 0)
    clean = list(runs)
    *head, trace, battery = runs[0]
    records = list(trace.records)
    records[1] = replace(records[1], renewable_used=records[1].renewable_used + 1.0)
    runs[0] = (*head, replace(trace, records=tuple(records)), battery)
    checker(job, out_dir, code, runs, tracer)
    assert (checker.attempted, checker.failed) == (14, 1)
    # An optimizer run whose solver calls bypassed the timers fails too, so
    # it cannot read as a fast re-plan.
    runs = list(clean)
    assert {r[0]: r[4] for r in runs} == {
        s: 0 if s in workloads.RULES else job.hours for s in job.strategies}
    i = next(i for i, r in enumerate(runs) if r[0] not in workloads.RULES)
    strategy, hours, seconds, call, _windows, trace, battery = runs[i]
    runs[i] = (strategy, hours, seconds, call, 0, trace, battery)
    checker(job, out_dir, code, runs, tracer)
    assert (checker.attempted, checker.failed) == (21, 2)


def test_companion_jobs_stay_out_of_sim_hours_per_s(helios, tmp_path):
    rows = tiny_workload().jobs[0].rows
    jobs = (workloads.Job("main", rows, workloads.RULES + ("myopic_mpc",)),
            workloads.Job("companion", rows, workloads.SEARCH, throughput=False))
    inputs = []
    for job in jobs:
        workloads.write_csv(str(tmp_path / f"{job.name}.csv"), job.rows)
        inputs.append((job, str(tmp_path / f"{job.name}.csv"),
                       str(tmp_path / f"out-{job.name}")))
    wall, _tracer, state = run.run_pass(helios, inputs, False, lambda *args: None)
    metrics, notes = run.end_to_end([(wall, state)], {}, [1.0], jobs)
    assert metrics["sim_hours_per_s"][0] == pytest.approx(16 / state.call_walls[0])
    assert notes["sim_hours_per_s"].startswith("16 simulated hours")


def test_a_repeated_job_adds_samples_to_the_same_windows(helios, tmp_path):
    rows = tiny_workload().jobs[0].rows
    search = workloads.Job("days", rows, workloads.STRATEGIES)
    standard = replace(search, strategies=("standard_mpc",))
    jobs = (search, standard, standard)
    csv_path = str(tmp_path / "days.csv")
    workloads.write_csv(csv_path, rows)
    inputs = [(job, csv_path, str(tmp_path / "out")) for job in jobs]
    passes = [run.run_pass(helios, inputs, False, lambda *args: None)[::2]
              for _ in range(2)]
    _metrics, notes = run.end_to_end(passes, {}, [1.0], jobs)
    assert notes["standard_mpc.window_ms_p90"] == "4 windows x 6 samples"
    assert notes["eg_mpc.window_ms_p90"] == "4 windows x 2 samples"
    # A run that timed fewer windows than the others stops the run.
    runs = passes[1][1].runs
    strategy, hours, seconds, call, _windows = runs[-1]
    runs[-1] = (strategy, hours, seconds, call, hours - 1)
    with pytest.raises(run.BenchError, match="unequal"):
        run.end_to_end(passes, {}, [1.0], jobs)


def test_solver_entry_points_are_required(helios, tmp_path, monkeypatch):
    original = helios.engine.run_closed_loop
    monkeypatch.delattr(helios.engine, "eg_solve")
    with pytest.raises(run.BenchError, match="eg_solve"):
        run.run_pass(helios, [], False, lambda *args: None)
    assert helios.engine.run_closed_loop is original


def test_workload_seed_fixes_the_inputs():
    fine = [workloads.build("fine_day", s).jobs[0] for s in (1, 1, 2)]
    assert fine[0] == fine[1]
    assert fine[0].rows == fine[2].rows
    assert workloads.build("year_rules", 1) == workloads.build("year_rules", 1)
    a, b = (workloads.build("year_rules", s).jobs[0] for s in (1, 2))
    assert [r[1] for r in a.rows] != [r[1] for r in b.rows]
    for h in range(24):  # every hour of the day gets the same wind speeds
        assert sorted(r[1] for r in a.rows[h::24]) == sorted(r[1] for r in b.rows[h::24])


def test_reference_day_matches_the_acceptance_suite_day(helios):
    day = helios.generate_synthetic(days=1, profile=helios.SyntheticProfile(
        base_load_kw=199.0, bump_load_kw=250.0, bump_start_hour=4,
        bump_end_hour=8), seed=11)
    rows = workloads.build("reference_day", 1).jobs[0].rows
    assert rows == tuple(zip(day.irradiance, day.wind_speed, day.load))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "reference_day", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
