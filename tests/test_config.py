"""Config schema: one key table, a derived pump polarization and a
validated boundary."""
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polspin import config
from polspin.config import (
    KEY_ORDER,
    MAX_ROWS,
    MAX_SAMPLES,
    SCHEMA,
    ExperimentConfig,
    check_samples,
    default_config,
    grid_samples,
    parse_config,
    parse_config_items,
    resolve_polarization,
    serialize_config,
)
from polspin.errors import ConfigTypeError
from polspin.experiment import run_sweep, run_trace, time_grid
from polspin.polarization import named_polarization
from polspin.transfer import FieldConfig, MaterialParams, PumpSpec

README = Path(__file__).resolve().parents[1] / "README.md"

FLOAT_KEYS = [key for key, (_, kind) in SCHEMA.items() if kind is float]


# ---------------------------------------------------------------------------
# the pump polarization has one source of truth


def test_replacing_the_polarization_name_changes_the_run():
    cfg = replace(default_config(), pump_pol_name="sigma+")
    assert cfg.pump.pol == named_polarization("sigma+")
    assert run_trace(cfg).theta_k[0] == pytest.approx(1.0)


def test_replacing_h_axis_swaps_h_and_v():
    cfg = replace(default_config(), pump_pol_name="H", h_axis="minus_x")
    assert cfg.pump.pol == named_polarization("V")
    assert replace(cfg, h_axis="plus_x").pump.pol == named_polarization("H")


def test_a_pol_on_the_pump_spec_is_ignored():
    cfg = ExperimentConfig(pump=PumpSpec(pol=named_polarization("sigma+")))
    assert cfg.pump.pol == named_polarization("D+")


def test_bad_polarization_spec_is_a_config_error():
    for spec in ("circular", "phase=abc", "phase=nan"):
        with pytest.raises(ConfigTypeError):
            parse_config(f"pump_pol = {spec}\n")


# ---------------------------------------------------------------------------
# finite values and bounded grids


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_non_finite_numbers_are_rejected(key, value):
    with pytest.raises(ConfigTypeError, match=f"line 2: key '{key}'"):
        parse_config(f"# header\n{key} = {value}\n")
    with pytest.raises(ConfigTypeError, match=f"--set {key}: key '{key}'"):
        parse_config_items([(key, value, f"--set {key}")])


def test_sample_cap_rejects_large_grids():
    for text in (
        "t_max_ps = 1000\nt_step_ps = 1e-4\n",
        "t_max_ps = 1e300\nt_step_ps = 1e-300\n",
    ):
        with pytest.raises(ConfigTypeError, match="MAX_SAMPLES"):
            parse_config(text)


def test_row_cap_rejects_long_wavelength_scans_at_parse_time():
    assert parse_config(f"lambda_points = {MAX_ROWS}\n").lambda_points == MAX_ROWS
    with pytest.raises(ConfigTypeError, match="MAX_ROWS"):
        parse_config(f"lambda_points = {MAX_ROWS + 1}\n")


def test_sample_cap_counts_only_the_grid_a_command_builds():
    # a long single trace parses at the default phase_points = 64
    long_trace = parse_config("t_max_ps = 1000\nt_step_ps = 0.005\n")
    check_samples(long_trace)
    # 99.5 / 0.5 gives 200 samples per row, so 50000 rows is exactly the cap
    cfg = parse_config("t_max_ps = 99.5\nphase_points = 50001\nb_points = 50001\n")
    check_samples(cfg, 50000)
    with pytest.raises(ConfigTypeError, match="MAX_SAMPLES"):
        check_samples(cfg, 50001)


@pytest.mark.parametrize("t_max, t_step", [(100.0, 0.5), (1.0, 0.3), (0.9, 0.3), (0.1, 0.5),
                                           (1195.3988, 0.0173), (400.0, 0.01)])
def test_sample_cap_counts_the_grid_time_grid_builds(t_max, t_step):
    assert grid_samples(t_max, t_step) == time_grid(t_max, t_step).size


def test_sample_count_is_clamped_when_the_ratio_overflows():
    assert grid_samples(1e300, 1e-300) == MAX_SAMPLES + 1
    with pytest.raises(ConfigTypeError, match="grid too large: 1 x 10000001 samples"):
        replace(default_config(), t_max_ps=1e300, t_step_ps=1e-300)


@pytest.mark.parametrize("kind", ["phase", "field"])
def test_sweeps_check_their_size_before_running(monkeypatch, kind):
    # 3 time samples x 64 phases or 15 fields is over a cap of 40 or 10
    cfg = parse_config("t_max_ps = 1\nt_step_ps = 0.5\n")
    monkeypatch.setattr(config, "MAX_SAMPLES", 40 if kind == "phase" else 10)
    with pytest.raises(ConfigTypeError, match="MAX_SAMPLES"):
        run_sweep(kind, cfg)


@pytest.mark.parametrize("kind", ["phase", "field"])
def test_sweeps_check_their_row_count_before_running(monkeypatch, kind):
    # 64 phases or 15 fields of 3 samples each: far under MAX_SAMPLES, so
    # only the row cap can refuse them
    cfg = parse_config("t_max_ps = 1\nt_step_ps = 0.5\n")
    rows = cfg.phase_points if kind == "phase" else cfg.b_points
    monkeypatch.setattr(config, "MAX_ROWS", rows - 1)
    with pytest.raises(ConfigTypeError, match=f"{rows} is more than MAX_ROWS"):
        run_sweep(kind, cfg)
    monkeypatch.setattr(config, "MAX_ROWS", rows)
    assert run_sweep(kind, cfg).theta_k.shape == (rows, 3)


def test_sweep_ranges_are_checked_at_parse_time():
    with pytest.raises(ConfigTypeError, match="b_min"):
        parse_config("b_min = -30\n")
    with pytest.raises(ConfigTypeError, match="lambda_min_nm"):
        parse_config("lambda_min_nm = 650\n")


# ---------------------------------------------------------------------------
# round trips over random valid configs


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_POL_SPECS = st.one_of(
    st.sampled_from(["sigma+", "sigma-", "D+", "D-", "H", "V"]),
    _floats(-10.0, 10.0).map(lambda x: f"phase={x!r}"),
    _floats(-720.0, 720.0).map(lambda x: f"phase_deg={x!r}"),
)


def _optional_window(draw):
    if not draw(st.booleans()):
        return None, None
    lo = draw(_floats(780.0, 809.0))
    return lo, lo + draw(_floats(0.1, 10.0))


@st.composite
def configs(draw):
    lambda_lh = draw(_floats(785.0, 805.0))
    b_min, b_max = sorted(draw(st.lists(_floats(-20.0, 20.0), min_size=2, max_size=2)))
    lambda_min, lambda_max = _optional_window(draw)
    return ExperimentConfig(
        material=MaterialParams(
            g_e=draw(_floats(-2.0, 2.0)),
            g_lh=draw(_floats(-5.0, 5.0)),
            t2_star_ps=draw(_floats(1.0, 1000.0)),
            tau_h_ps=draw(_floats(0.1, 10.0)),
            lambda_lh_nm=lambda_lh,
            lambda_hh_nm=draw(_floats(790.0, 820.0)),
            inhom_fwhm_nm=draw(_floats(0.0, 2.0)),
            lower_eigenstate=draw(st.sampled_from(["minus_x", "plus_x"])),
        ),
        field=FieldConfig(draw(_floats(-10.0, 10.0))),
        pump=PumpSpec(
            center_nm=lambda_lh + draw(_floats(-1.0, 1.0)),
            fwhm_nm=draw(_floats(0.2, 2.0)),
        ),
        pump_pol_name=draw(_POL_SPECS),
        exciton=draw(st.sampled_from(["lh", "hh"])),
        engine=draw(st.sampled_from(["closed", "master"])),
        t_max_ps=draw(_floats(1.0, 20.0)),
        t_step_ps=draw(_floats(0.5, 5.0)),
        phase_points=draw(st.integers(1, 64)),
        b_min=b_min,
        b_max=b_max,
        b_points=draw(st.integers(1, 20)),
        lambda_min_nm=lambda_min,
        lambda_max_nm=lambda_max,
        lambda_points=draw(st.integers(2, 200)),
        delta_t_ps=draw(st.none() | _floats(0.0, 100.0)),
        h_axis=draw(st.sampled_from(["plus_x", "minus_x"])),
    )


@settings(max_examples=60, deadline=None)
@given(configs())
def test_serialize_then_parse_reproduces_the_run(cfg):
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert np.array_equal(run_trace(again).theta_k, run_trace(cfg).theta_k)


@settings(max_examples=60, deadline=None)
@given(configs(), _POL_SPECS, st.sampled_from(["plus_x", "minus_x"]))
def test_replace_keeps_the_polarization_derived(cfg, spec, h_axis):
    by_name = replace(cfg, pump_pol_name=spec)
    assert by_name.pump.pol == resolve_polarization(spec, cfg.h_axis)
    by_axis = replace(cfg, h_axis=h_axis)
    assert by_axis.pump.pol == resolve_polarization(cfg.pump_pol_name, h_axis)


# ---------------------------------------------------------------------------
# docs


def test_readme_key_table_matches_the_schema():
    section = README.read_text(encoding="utf-8").split("## Configuration keys", 1)[1]
    keys = []
    for line in section.split("\n## ", 1)[0].splitlines():
        match = re.match(r"\|\s*(`[^|]*`)\s*\|", line)
        if match:
            keys += [k.strip(" `") for k in match.group(1).split(",")]
    assert keys == list(KEY_ORDER)
