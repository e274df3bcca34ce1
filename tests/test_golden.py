"""Golden outputs: `helios compare` writes these comparison.kv bytes.

Criterion 7 compares two runs of the same code; these pins compare runs
across commits, so a change that moves any strategy's cost fails here.
The second run exercises grid DP (max_enumeration=0), the terminal credit
and forecast noise on a jittered day where the strategies' costs differ.
"""

import os

import pytest

from helios.cli import cli_main
from helios.data import SyntheticProfile, generate_synthetic, write_scenario_csv

CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "reference.cfg")
REFERENCE_PROFILE = SyntheticProfile(base_load_kw=199.0, bump_load_kw=250.0,
                                     bump_start_hour=4, bump_end_hour=8)

REFERENCE_DAY_KV = """\
seed = 2024
steps = 24
renewable_first.total_cost = 168.84491429703868
renewable_first.total_backup_kwh = 496.1497143234623
renewable_first.total_curtailed_kwh = 0.0
battery_first.total_cost = 264.06462166660947
battery_first.total_backup_kwh = 496.1497143234623
battery_first.total_curtailed_kwh = 0.0
fifty_fifty.total_cost = 263.6396216666095
fifty_fifty.total_backup_kwh = 496.1497143234623
fifty_fifty.total_curtailed_kwh = 0.0
myopic_mpc.total_cost = 168.84491429703868
myopic_mpc.total_backup_kwh = 496.1497143234623
myopic_mpc.total_curtailed_kwh = 0.0
standard_mpc.total_cost = 168.84491429703868
standard_mpc.total_backup_kwh = 496.1497143234623
standard_mpc.total_curtailed_kwh = 0.0
ac_mpc.total_cost = 181.34491429703866
ac_mpc.total_backup_kwh = 546.1497143234624
ac_mpc.total_curtailed_kwh = 335.49787016890036
eg_mpc.total_cost = 168.84491429703868
eg_mpc.total_backup_kwh = 496.1497143234623
eg_mpc.total_curtailed_kwh = 0.0
"""

JITTERED_DAY_KV = """\
seed = 7
steps = 24
renewable_first.total_cost = 272.8190776329084
renewable_first.total_backup_kwh = 787.1003525604788
renewable_first.total_curtailed_kwh = 23.00377966918674
battery_first.total_cost = 336.7547566129223
battery_first.total_backup_kwh = 787.1003525604788
battery_first.total_curtailed_kwh = 23.00377966918674
fifty_fifty.total_cost = 322.32865730199876
fifty_fifty.total_backup_kwh = 787.1003525604788
fifty_fifty.total_curtailed_kwh = 23.00377966918674
myopic_mpc.total_cost = 290.9680965107896
myopic_mpc.total_backup_kwh = 853.2269883692987
myopic_mpc.total_curtailed_kwh = 114.73656386555797
standard_mpc.total_cost = 291.6083837907505
standard_mpc.total_backup_kwh = 855.3612793025017
standard_mpc.total_curtailed_kwh = 91.87085479876089
ac_mpc.total_cost = 291.6083837907505
ac_mpc.total_backup_kwh = 855.3612793025017
ac_mpc.total_curtailed_kwh = 91.87085479876089
eg_mpc.total_cost = 291.6083837907505
eg_mpc.total_backup_kwh = 855.3612793025017
eg_mpc.total_curtailed_kwh = 91.87085479876089
"""


@pytest.mark.parametrize("scenario,args,want", [
    pytest.param(generate_synthetic(days=1, profile=REFERENCE_PROFILE, seed=11),
                 ["--seed", "2024"], REFERENCE_DAY_KV, id="reference_day"),
    pytest.param(generate_synthetic(days=1, profile=SyntheticProfile(wind_jitter_ms=2.0),
                                    seed=5),
                 ["--seed", "7", "--set", "lattice_delta_p_kw=25",
                  "--set", "terminal_soc_value=0.02", "--set", "max_enumeration=0",
                  "--set", "horizon_steps=4", "--set", "forecast_noise_kw=30"],
                 JITTERED_DAY_KV, id="jittered_day_dp"),
])
def test_compare_writes_the_pinned_comparison_kv(tmp_path, capsys, scenario, args, want):
    csv = tmp_path / "day.csv"
    write_scenario_csv(str(csv), scenario)
    out = tmp_path / "out"
    assert cli_main(["compare", "--strategies", "all", "--config", CONFIG,
                     "--data", str(csv), "--out-dir", str(out)] + args) == 0
    assert (out / "comparison.kv").read_bytes() == want.encode()
