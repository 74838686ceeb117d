import io
import math
from dataclasses import replace

import numpy as np
import pytest

from polspin.config import (
    ExperimentConfig,
    default_config,
    parse_config,
    resolve_delta_t_ps,
    resolve_lambda_window,
    resolve_polarization,
    serialize_config,
)
from polspin.constants import HBAR_EV_PS, MU_B_EV_PER_T
from polspin.errors import (
    ConfigTypeError,
    MissingKeyError,
    UnknownKeyError,
)
from polspin.experiment import (
    FIGURE_PANELS,
    REVERSAL_TOL,
    csv_text,
    emit_csv,
    extremum_tracks,
    field_reversal_check,
    figure_panel_config,
    figure_panel_kind,
    figure_preset,
    run_multi_trace,
    run_sweep,
    run_trace,
    time_grid,
    vsystem_report,
)
from polspin.polarization import named_polarization
from polspin.transfer import FieldConfig


def small_cfg(**kw):
    base = dict(t_max_ps=30.0, t_step_ps=5.0, phase_points=6, b_points=5,
                lambda_points=21)
    base.update(kw)
    return replace(default_config(), **base)


def test_time_grid_endpoints():
    t = time_grid(100.0, 0.5)
    assert t.size == 201
    assert t[0] == 0.0 and t[-1] == 100.0
    t = time_grid(1.0, 0.3)
    assert t.size == 4 and abs(t[-1] - 0.9) < 1e-12


def test_run_trace_default_shape_and_start():
    tr = run_trace(default_config())
    assert tr.t_ps.size == 201
    assert abs(tr.theta_k[0]) < 1e-12  # D+ pump starts with no z projection


def test_sweep_shapes():
    cfg = small_cfg()
    ph = run_sweep("phase", cfg)
    assert ph.theta_k.shape == (6, 7)
    fs = run_sweep("field", cfg)
    assert fs.theta_k.shape == (5, 7)
    ws = run_sweep("wavelength", cfg)
    assert ws.theta_k.shape == (21,)
    assert ws.lambda_nm[0] < ws.lambda_nm[-1]
    with pytest.raises(ValueError):
        run_sweep("voltage", cfg)


def test_wavelength_sweep_probe_delay_defaults_to_quarter_period():
    cfg = small_cfg()
    ws = run_sweep("wavelength", cfg)
    want = 0.5 * math.pi / abs(-0.21 * MU_B_EV_PER_T * 7.0 / HBAR_EV_PS)
    assert abs(ws.delta_t_ps - want) < 1e-9
    assert abs(resolve_delta_t_ps(cfg) - want) < 1e-12


def test_wavelength_sweep_needs_delay_at_zero_field():
    cfg = small_cfg(field=FieldConfig(0.0))
    with pytest.raises(MissingKeyError):
        run_sweep("wavelength", cfg)
    ws = run_sweep("wavelength", replace(cfg, delta_t_ps=10.0))
    assert np.max(np.abs(ws.theta_k)) < 1e-12  # degenerate lines: no imbalance


def test_engine_independence_on_all_sweeps():
    for kind in ("phase", "field", "wavelength"):
        closed = run_sweep(kind, small_cfg(engine="closed"))
        master = run_sweep(kind, small_cfg(engine="master"))
        assert np.max(np.abs(closed.theta_k - master.theta_k)) < 1e-6, kind


def test_engine_independence_multi_trace():
    a = run_multi_trace(small_cfg(engine="closed"))
    b = run_multi_trace(small_cfg(engine="master"))
    for name in a.columns:
        assert np.max(np.abs(a.columns[name] - b.columns[name])) < 1e-6, name


def test_multi_trace_columns():
    mt = run_multi_trace(small_cfg())
    assert list(mt.columns) == ["sigma+", "D+", "sigma-", "D-", "H", "V"]
    assert np.max(np.abs(mt.columns["H"])) == 0.0
    assert np.max(np.abs(mt.columns["V"])) == 0.0
    assert np.max(np.abs(mt.columns["sigma+"] + mt.columns["sigma-"])) < 1e-12


def test_heavy_hole_trace_starts_inverted():
    cfg = small_cfg(exciton="hh")
    cfg = replace(cfg, pump=replace(cfg.pump, center_nm=cfg.material.lambda_hh_nm))
    mt = run_multi_trace(cfg)
    assert abs(mt.columns["sigma+"][0] + 1.0) < 1e-12
    assert np.max(np.abs(mt.columns["D+"])) < 1e-12


def test_field_reversal_on_trace_and_sweeps():
    cfg = figure_preset(small_cfg())
    for kind in ("trace", "phase", "field", "wavelength"):
        rep = field_reversal_check(cfg, kind)
        assert rep.ok, kind
        assert rep.max_abs_deviation < 1e-12


def test_extremum_tracks_reference_values():
    b = np.array([0.0, 3.5, 7.0])
    tracks = extremum_tracks(b, 2, -0.21)
    om35 = abs(-0.21 * MU_B_EV_PER_T * 3.5 / HBAR_EV_PS)
    assert math.isinf(tracks[0, 0])
    assert abs(tracks[0, 1] - 0.5 * math.pi / om35) < 1e-9
    assert abs(tracks[1, 1] - 3.0 * (0.5 * math.pi) / om35) < 1e-9
    assert abs(tracks[0, 2] - 12.1509754) < 1e-6
    assert tracks.shape == (3, 3)


def test_figure_panels_have_expected_kinds():
    kinds = {figure_panel_kind(p) for p in FIGURE_PANELS}
    assert kinds == {"multi_trace", "phase", "field", "wavelength"}
    cfg = figure_panel_config("fig4a")
    assert cfg.t_max_ps == 440.0
    assert cfg.material.inhom_fwhm_nm == 1.0
    assert figure_panel_config("fig2e").exciton == "hh"
    with pytest.raises(ValueError):
        figure_panel_config("fig9z")


def test_vsystem_report_roundtrip():
    rep = vsystem_report(default_config())
    assert rep.overall_ok
    text = csv_text(rep)
    assert text.startswith("key,value\n")
    assert "overall_ok,true" in text


# ---------------------------------------------------------------------------
# config round trips


def test_empty_config_is_default():
    assert parse_config("") == default_config()


def test_config_overrides_and_comments():
    cfg = parse_config(
        """
        # reference scenario, reduced horizon
        b_field_tesla = 4
        t_max_ps = 50   # shorter run
        pump_pol = sigma+
        engine = master
        """
    )
    assert cfg.field.bx_tesla == 4.0
    assert cfg.t_max_ps == 50.0
    assert cfg.engine == "master"
    assert cfg.pump.pol == named_polarization("sigma+")


def test_unknown_key_reports_line():
    with pytest.raises(UnknownKeyError) as err:
        parse_config("g_e = -0.21\nmystery = 1\n")
    assert "line 2" in str(err.value)
    assert "mystery" in str(err.value)


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigTypeError) as err:
        parse_config("t_max_ps = fast\n")
    assert "t_max_ps" in str(err.value)
    assert "line 1" in str(err.value)
    with pytest.raises(ConfigTypeError):
        parse_config("engine = verlet\n")
    with pytest.raises(ConfigTypeError):
        parse_config("no equals sign here\n")


def test_serialize_parse_round_trip():
    cfg = parse_config("g_e = -0.3317\npump_pol = phase=1.25\nb_points = 9\n")
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize_config(again) == text


def test_phase_polarization_spec_forms():
    from polspin.polarization import polarization_from_phase

    assert resolve_polarization("phase=1.25") == polarization_from_phase(1.25)
    assert resolve_polarization("D+") == resolve_polarization("phase_deg=90")
    # swapping the H axis relabels the linear states only
    assert resolve_polarization("H", "minus_x") == resolve_polarization("V", "plus_x")
    assert resolve_polarization("sigma+", "minus_x") == resolve_polarization("sigma+")


def test_lambda_window_defaults():
    cfg = default_config()
    lo, hi = resolve_lambda_window(cfg)
    assert abs(lo - (cfg.material.lambda_lh_nm - 1.5)) < 1e-12
    assert abs(hi - (cfg.material.lambda_lh_nm + 1.5)) < 1e-12
    cfg = replace(cfg, lambda_min_nm=795.0, lambda_max_nm=797.0)
    assert resolve_lambda_window(cfg) == (795.0, 797.0)


def test_config_rejects_bad_combinations():
    with pytest.raises(ValueError):
        ExperimentConfig(t_step_ps=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(b_min=3.0, b_max=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(engine="exact")


# ---------------------------------------------------------------------------
# CSV output


def test_trace_csv_format():
    tr = run_trace(small_cfg(t_max_ps=2.0, t_step_ps=1.0))
    text = csv_text(tr)
    lines = text.splitlines()
    assert lines[0] == "t_ps,theta_k"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    assert text.endswith("\n")


def test_csv_is_deterministic():
    a = csv_text(run_sweep("phase", small_cfg()))
    b = csv_text(run_sweep("phase", small_cfg()))
    assert a == b
    assert a.splitlines()[0].startswith("phi_rad,t=0,t=5,")


def test_emit_csv_to_path_and_stream(tmp_path):
    tr = run_trace(small_cfg(t_max_ps=2.0, t_step_ps=1.0))
    dest = tmp_path / "trace.csv"
    emit_csv(tr, dest)
    buf = io.StringIO()
    emit_csv(tr, buf)
    assert dest.read_text(encoding="utf-8") == buf.getvalue()


def test_csv_twelve_digit_precision():
    tr = run_trace(small_cfg(t_max_ps=2.0, t_step_ps=1.0))
    row = csv_text(tr).splitlines()[2].split(",")
    assert row[1] == f"{tr.theta_k[1]:.12g}"


def test_unknown_dataset_rejected():
    with pytest.raises(TypeError):
        csv_text(object())


# ---------------------------------------------------------------------------
# every row of every preset panel


def _panel_rows(panel, engine, field_sign):
    cfg = figure_panel_config(panel, replace(default_config(), engine=engine))
    kind = figure_panel_kind(panel)
    if kind != "multi_trace":
        return np.atleast_2d(run_sweep(kind, cfg, field_sign).theta_k)
    cfg = replace(cfg, field=FieldConfig(field_sign * cfg.field.bx_tesla))
    return np.array(list(run_multi_trace(cfg).columns.values()))


@pytest.mark.parametrize("panel", FIGURE_PANELS)
def test_every_panel_row_is_reversal_invariant_and_engine_independent(panel):
    rows = {(engine, sign): _panel_rows(panel, engine, sign)
            for engine in ("closed", "master") for sign in (1.0, -1.0)}
    for engine in ("closed", "master"):
        assert np.max(np.abs(rows[engine, 1.0] - rows[engine, -1.0])) <= REVERSAL_TOL, engine
    for sign in (1.0, -1.0):
        assert np.max(np.abs(rows["closed", sign] - rows["master", sign])) < 1e-9, sign
