"""Workload inputs made from the workload seed, and the jobs a pass runs.

Every job is one `helios compare` call on an hourly CSV the benchmark
writes itself, plus the run seed passed to `--seed`.  On every workload the
workload seed picks the order of strategies on the command line;
compare_strategies derives each strategy's stream from its position in
StrategyKind, so costs do not depend on that order.

- reference_day is pinned: the acceptance suite's day and run seed 2024.
- fine_day is pinned too: one fixed day of wind and run seed 2024, which
  fixes the forecast noise and every solver's random stream.  Drawing the
  wind or the run seed from the workload seed moved costs by 0.5 to 13%
  (interquartile range over median), which would hide a real change in
  cost.
- year_rules draws its wind from the workload seed.  Each hour of the day
  gets the same 365 wind speeds in a seeded order over the days, which
  keeps the spread of its costs over seeds under 0.3%.  Its search
  strategies run on two pinned reference days, standard_mpc five times
  per pass.

Wind on the synthetic workloads is 8 m/s plus a random permutation of a
fixed, evenly spaced set of deviations in (-2, 2) m/s, so it always carries
the same renewable energy in total.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

STRATEGIES = ("renewable_first", "battery_first", "fifty_fifty", "myopic_mpc",
              "standard_mpc", "ac_mpc", "eg_mpc")
RULES = STRATEGIES[:3]
SEARCH = ("standard_mpc", "ac_mpc", "eg_mpc")
# Strategies whose compare output includes a convergence_<name>.csv file.
WITH_CONVERGENCE = ("ac_mpc", "eg_mpc")
RUN_SEED = 2024
FINE_WIND_SEED = 3
WARMUP_HOURS = 4
# Compare calls of the cheap strategies added to each fine_day pass, so
# that their sub-millisecond runs give more samples per run.
FINE_CHEAP_REPEATS = 5
# Compare calls of standard_mpc alone added to each year_rules pass, on
# the same two days as its search job.
YEAR_STANDARD_REPEATS = 4
CONFIG = "configs/reference.cfg"

# total_cost of each strategy printed by `helios compare` on the reference
# day (configs/reference.cfg, --seed 2024) at the commit that introduced
# this benchmark.
REFERENCE_COSTS = {
    "renewable_first": 168.84491429703868,
    "battery_first": 264.06462166660947,
    "fifty_fifty": 263.6396216666095,
    "myopic_mpc": 168.84491429703868,
    "standard_mpc": 168.84491429703868,
    "ac_mpc": 181.34491429703866,
    "eg_mpc": 168.84491429703868,
}

NAMES = ("reference_day", "fine_day", "year_rules")


@dataclass(frozen=True)
class Job:
    """One `helios compare` call, with `--seed RUN_SEED`: its input rows and
    command-line options."""

    name: str
    rows: tuple[tuple[float, float, float], ...]  # (irradiance, wind, load)
    strategies: tuple[str, ...]
    overrides: tuple[str, ...] = ()
    expected_costs: dict | None = None
    throughput: bool = True  # counted in sim_hours_per_s

    @property
    def hours(self) -> int:
        return len(self.rows)

    @property
    def expected_files(self) -> int:
        """comparison.txt/.kv, a trace per strategy, convergence for ac/eg."""
        return 2 + len(self.strategies) + sum(
            s in WITH_CONVERGENCE for s in self.strategies)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple[Job, ...]


def synthetic_rows(hours: int, base_load: float, bump_load: float,
                   bump_start: int, bump_end: int, wind) -> tuple:
    """Half-sine irradiance peaking at noon and a step load bump, per hour.

    Same arithmetic as helios.data.generate_synthetic with peak 1.0, so the
    reference day matches the acceptance suite's day bit for bit.
    """
    rows = []
    for t in range(hours):
        h = t % 24
        irr = max(0.0, math.sin(math.pi * (h - 6.0) / 12.0))
        bump = bump_load if bump_start <= h < bump_end else 0.0
        rows.append((irr, wind[t], base_load + bump))
    return tuple(rows)


def permuted_wind(hours: int, rng: random.Random, base: float = 8.0,
                  amplitude: float = 2.0) -> list[float]:
    deviations = [-amplitude + 2 * amplitude * (i + 0.5) / hours
                  for i in range(hours)]
    rng.shuffle(deviations)
    return [base + d for d in deviations]


def year_wind(rng: random.Random) -> list[float]:
    """365 days; each hour of the day permutes the same 365 deviations."""
    by_hour = [permuted_wind(365, rng) for _ in range(24)]
    return [by_hour[t % 24][t // 24] for t in range(24 * 365)]


def write_csv(path: str, rows) -> None:
    lines = ["hour,irradiance_kwh_m2,wind_ms,load_kw"]
    lines += [f"{t},{irr!r},{wind!r},{load!r}"
              for t, (irr, wind, load) in enumerate(rows)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_rows(days: int) -> tuple:
    """The acceptance suite's seed-11 day, repeated: 8 m/s wind, morning bump."""
    return synthetic_rows(24 * days, 199.0, 250.0, 4, 8, [8.0] * (24 * days))


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)

    def shuffled(names):
        names = list(names)
        rng.shuffle(names)
        return tuple(names)

    if name == "reference_day":
        return Workload(name, (Job(name, reference_rows(1), shuffled(STRATEGIES),
                                   expected_costs=REFERENCE_COSTS),))
    if name == "fine_day":
        wind = permuted_wind(24, random.Random(FINE_WIND_SEED))
        rows = synthetic_rows(24, 150.0, 250.0, 8, 18, wind)
        full = Job("fine_day", rows, shuffled(STRATEGIES),
                   overrides=("lattice_delta_p_kw=10", "forecast_noise_kw=20"))
        cheap = replace(full, name="fine_cheap",
                        strategies=shuffled(RULES + ("myopic_mpc",)))
        return Workload(name, (full,) + (cheap,) * FINE_CHEAP_REPEATS)
    if name == "year_rules":
        rows = synthetic_rows(8760, 150.0, 250.0, 8, 18, year_wind(rng))
        year = Job("year", rows, shuffled(RULES + ("myopic_mpc",)))
        # Every workload reports every end-to-end metric, so the search
        # strategies run here too, on two copies of the pinned reference
        # day, outside sim_hours_per_s.  Two days halve the share of the
        # costly windows at the end, where enumeration takes up to 40 times
        # a DP window, so p90 falls among the DP windows.
        search = Job("reference_2days", reference_rows(2), shuffled(SEARCH),
                     throughput=False)
        # standard_mpc's DP windows all take about the same time, so its p90
        # lies among them and moves with every slow spell of the host unless
        # each window has many samples.  Its runs are cheap, so it repeats.
        standard = replace(search, strategies=("standard_mpc",))
        return Workload(name, (year, search) + (standard,) * YEAR_STANDARD_REPEATS)
    raise ValueError(f"unknown workload '{name}' (known: {', '.join(NAMES)})")
