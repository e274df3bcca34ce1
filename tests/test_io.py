"""CSV ingestion, synthetic data, and the config file format."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helios.config import _SCHEMA, Config, config_to_text, parse_config_text
from helios.core import ParseError, ValidationError
from helios.data import (SyntheticProfile, generate_synthetic,
                         load_fit_samples, load_hourly_csv,
                         write_scenario_csv)
from helios.renewable import reference_model

FLOAT_KEYS = [key for key, (_, _, conv) in _SCHEMA.items() if conv is float]
INT_KEYS = [key for key, (_, _, conv) in _SCHEMA.items() if conv is int]
NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"])


def field_name(key: str) -> str:
    """`Type.field` of a config key, as a ValidationError names it."""
    group, attr, _ = _SCHEMA[key]
    owner = Config() if group is None else getattr(Config(), group)
    return f"{type(owner).__name__}.{attr}"


class TestHourlyCsv:
    def test_well_formed_file_round_trips_exactly(self, tmp_path):
        scenario = generate_synthetic(days=1, seed=4)
        path = tmp_path / "s.csv"
        write_scenario_csv(str(path), scenario)
        loaded = load_hourly_csv(str(path))
        assert loaded == scenario

    def test_24_rows_parse_to_24_steps(self, tmp_path):
        path = tmp_path / "s.csv"
        write_scenario_csv(str(path), generate_synthetic(days=1, seed=0))
        assert load_hourly_csv(str(path)).steps == 24

    def test_missing_column_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hour,irradiance_kwh_m2,wind_ms\n0,0.0,8.0\n")
        with pytest.raises(ParseError, match="load_kw"):
            load_hourly_csv(str(path))

    def test_textual_value_cites_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                        "0,0.0,8.0,100.0\n"
                        "1,0.0,gusty,100.0\n")
        with pytest.raises(ParseError, match="row 1"):
            load_hourly_csv(str(path))

    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_hour_is_a_parse_error_naming_row_and_column(self, tmp_path,
                                                                    raw, row):
        hours = ["0", "1", "2", "3"]
        hours[row] = raw
        path = tmp_path / "bad.csv"
        path.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                        + "".join(f"{h},0.5,8.0,200.0\n" for h in hours))
        with pytest.raises(ParseError, match=f"row {row}: .*hour.*{raw}"):
            load_hourly_csv(str(path))

    def test_hours_past_float_precision_are_read_exactly(self, tmp_path):
        # 10**17 + 1 rounds to 10**17 as a float; as ints the hours run on.
        path = tmp_path / "big.csv"
        path.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                        "100000000000000000,0.5,8.0,200.0\n"
                        "100000000000000001,0.5,8.0,200.0\n")
        scenario = load_hourly_csv(str(path))
        assert (scenario.start_hour, scenario.steps) == (10**17, 2)
        path.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                        "100000000000000000,0.5,8.0,200.0\n"
                        "100000000000000000,0.5,8.0,200.0\n")
        with pytest.raises(ParseError, match=r"row 1: .*expected 100000000000000001\)"):
            load_hourly_csv(str(path))

    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("raw", ["0.5", "1.5", "2.0", "1e3"])
    def test_non_integer_hour_is_refused_as_such(self, tmp_path, raw, row):
        hours = ["0", "1", "2"]
        hours[row] = raw
        path = tmp_path / "bad.csv"
        path.write_text("hour,irradiance_kwh_m2,wind_ms,load_kw\n"
                        + "".join(f"{h},0.5,8.0,200.0\n" for h in hours))
        with pytest.raises(ParseError,
                           match=f"row {row}: column 'hour' has value '{raw}', "
                                 "which is not an integer literal"):
            load_hourly_csv(str(path))

    def test_fit_samples_require_renewable_column(self, tmp_path):
        scenario = generate_synthetic(days=1, seed=0)
        bare = tmp_path / "bare.csv"
        write_scenario_csv(str(bare), scenario)
        with pytest.raises(ParseError, match="renewable_kw"):
            load_fit_samples(str(bare))
        rich = tmp_path / "rich.csv"
        write_scenario_csv(str(rich), scenario, renewable_model=reference_model())
        samples = load_fit_samples(str(rich))
        assert len(samples) == 24
        # simulator still accepts the extended file
        assert load_hourly_csv(str(rich)) == scenario


class TestGenerateSynthetic:
    def test_midnight_is_dark_and_wind_holds_base(self):
        s = generate_synthetic(days=1, seed=3)
        assert s.irradiance[0] == 0.0
        assert all(w == 8.0 for w in s.wind_speed)

    def test_noon_hits_configured_peak(self):
        s = generate_synthetic(days=1, profile=SyntheticProfile(irradiance_peak=0.8))
        assert s.irradiance[12] == pytest.approx(0.8)

    def test_same_seed_reproduces_exactly(self):
        p = SyntheticProfile(wind_jitter_ms=1.5)
        assert generate_synthetic(2, p, seed=9) == generate_synthetic(2, p, seed=9)

    def test_two_days_is_48_steps(self):
        assert generate_synthetic(days=2, seed=0).steps == 48

    def test_rejects_nonpositive_days(self):
        with pytest.raises(ValidationError):
            generate_synthetic(days=0)

    def test_load_bump_window(self):
        p = SyntheticProfile(base_load_kw=100.0, bump_load_kw=50.0,
                             bump_start_hour=10, bump_end_hour=14)
        s = generate_synthetic(days=1, profile=p)
        assert s.load[9] == 100.0
        assert s.load[10] == 150.0
        assert s.load[13] == 150.0
        assert s.load[14] == 100.0


class TestConfigFile:
    def test_defaults_round_trip(self):
        cfg = Config()
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_non_default_values_round_trip(self):
        cfg = replace(Config(), horizon=12, terminal_soc_value=0.2,
                      allow_backup_charging=True, seed=777)
        assert parse_config_text(config_to_text(cfg)) == cfg

    def test_unknown_key_is_named(self):
        with pytest.raises(ParseError, match="battery_flux_capacitor"):
            parse_config_text("battery_flux_capacitor = 1.21\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# comment\n\nseed = 5\n")
        assert cfg.seed == 5

    def test_partial_file_keeps_other_defaults(self):
        cfg = parse_config_text("horizon_steps = 9\n")
        assert cfg.horizon == 9
        assert cfg.battery == Config().battery

    def test_malformed_line_is_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config_text("this is not a key value pair\n")

    def test_bad_number_is_rejected(self):
        with pytest.raises(ParseError, match="horizon_steps"):
            parse_config_text("horizon_steps = often\n")

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(FLOAT_KEYS), raw=NON_FINITE)
    def test_non_finite_float_key_is_refused_naming_its_field(self, key, raw):
        with pytest.raises(ValidationError, match=rf"{field_name(key)} must be finite"):
            parse_config_text(f"{key} = {raw}\n")

    @pytest.mark.parametrize("key", INT_KEYS)
    def test_non_finite_int_key_is_a_parse_error_naming_the_key(self, key):
        for raw in ("nan", "inf", "1e999"):
            with pytest.raises(ParseError, match=f"key '{key}'"):
                parse_config_text(f"{key} = {raw}\n")

    def test_strategy_key_parses(self):
        from helios.baselines import StrategyKind
        cfg = parse_config_text("strategy = battery_first\n")
        assert cfg.strategy is StrategyKind.BATTERY_FIRST
