import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from polspin import experiment
from polspin.dynamics import kerr_trace_closed_form, kerr_trace_closed_form_hh, kerr_trace_master
from polspin.experiment import (
    FIGURE_PANELS,
    REVERSAL_TOL,
    _table,
    csv_text,
    emit_csv,
    extremum_tracks,
    field_reversal_check,
    figure_panel_config,
    figure_panel_kind,
    figure_preset,
    run_dataset,
    run_multi_trace,
    run_panel,
    run_sweep,
    run_trace,
    time_grid,
    dynamics_params,
    vsystem_report,
)
from polspin.polarization import named_polarization
from polspin.transfer import FieldConfig, excite_lh, raw_channel_amplitudes, spectral_weights


def at_minus_b(cfg):
    """The same run at -B: the configured field and the field-sweep range
    negated."""
    return replace(cfg, field=FieldConfig(-cfg.field.bx_tesla), b_min=-cfg.b_max, b_max=-cfg.b_min)


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


@pytest.mark.parametrize("exciton", ["lh", "hh"])
@pytest.mark.parametrize("engine", ["closed", "master"])
def test_field_sweep_is_one_engine_call_equal_to_a_per_field_trace_loop(monkeypatch, engine, exciton):
    # b_min = 0 puts a zero-field row first; a 0.3 ps step gives grid
    # intervals of several distinct float lengths
    cfg = small_cfg(engine=engine, exciton=exciton, t_step_ps=0.3, b_min=0.0, b_max=7.0)
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    assert len(set(np.diff(t, prepend=0.0).tolist())) > 3
    calls = []
    for name in ("kerr_rows_closed_form", "kerr_rows_master"):
        def counted(*args, _engine=getattr(experiment, name)):
            calls.append(_engine)
            return _engine(*args)
        monkeypatch.setattr(experiment, name, counted)
    for run_cfg in (cfg, at_minus_b(cfg)):
        calls.clear()
        fs = run_sweep("field", run_cfg)
        assert len(calls) == 1
        assert 0.0 in (fs.b_tesla[0], fs.b_tesla[-1])
        for b, row in zip(fs.b_tesla, fs.theta_k):
            want = run_trace(replace(run_cfg, field=FieldConfig(float(b)))).theta_k
            assert np.array_equal(row, want), (run_cfg.field, b)


def _per_point_wavelength_scan(cfg):
    """Reference scan: one shifted pump, one normalized weight pair and one
    one-trace engine call per point, scaled by the pump-line overlap."""
    f = cfg.field
    d = dynamics_params(cfg, f)
    t = [resolve_delta_t_ps(cfg)]
    theta = []
    for lam in np.linspace(*resolve_lambda_window(cfg), cfg.lambda_points):
        pump = replace(cfg.pump, center_nm=float(lam))
        ap, am = raw_channel_amplitudes(pump, cfg.material, f)
        w = spectral_weights(pump, cfg.material, f)
        if cfg.engine == "master":
            tr = kerr_trace_master(excite_lh(pump.pol, w), d, t)
        else:
            tr = kerr_trace_closed_form(pump.pol, w, d, t)
        theta.append((ap * ap + am * am) * tr.theta_k[0])
    return np.array(theta)


@pytest.mark.parametrize("preset", ["default", "fig4b"])
@pytest.mark.parametrize("pol", ["D+", "sigma+", "H"])
@pytest.mark.parametrize("engine", ["closed", "master"])
def test_wavelength_scan_equals_a_per_point_reference(engine, pol, preset):
    cfg = replace(default_config(), engine=engine, pump_pol_name=pol)
    if preset == "fig4b":
        cfg = figure_panel_config("fig4b", cfg)
    for run_cfg in (cfg, at_minus_b(cfg)):
        got = run_sweep("wavelength", run_cfg).theta_k
        want = _per_point_wavelength_scan(run_cfg)
        assert np.max(np.abs(got - want)) <= 1e-15, run_cfg.field


@pytest.mark.parametrize("lambda_points", [2, 3, 121, 2001])
@pytest.mark.parametrize("engine", ["closed", "master"])
def test_wavelength_scan_is_one_engine_call_of_two_rows(monkeypatch, engine, lambda_points):
    rows = []
    for name in ("kerr_rows_closed_form", "kerr_rows_master"):
        def counted(starts, *args, _engine=getattr(experiment, name)):
            rows.append(len(starts))
            return _engine(starts, *args)
        monkeypatch.setattr(experiment, name, counted)
    scan = run_sweep("wavelength", small_cfg(engine=engine, lambda_points=lambda_points))
    assert rows == [2]
    assert scan.theta_k.shape == (lambda_points,)


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
    for kind in ("trace", "multi_trace", "phase", "field", "wavelength"):
        rep = field_reversal_check(cfg, kind)
        assert rep.ok, kind
        assert rep.max_abs_deviation < 1e-12


@pytest.mark.parametrize("exciton, pol", [("lh", "D+"), ("hh", "sigma+")])
@pytest.mark.parametrize("g_e", [100.0, -100.0])
def test_field_reversal_holds_for_master_traces_at_the_box_corners(g_e, exciton, pol):
    # |g_e| = 100 at 20 T: 40,001 samples at 0.01 ps, 176 RK4 substeps per step
    base = default_config()
    cfg = replace(base, material=replace(base.material, g_e=g_e), field=FieldConfig(20.0),
                  engine="master", exciton=exciton, pump_pol_name=pol,
                  t_max_ps=400.0, t_step_ps=0.01)
    assert np.max(np.abs(run_trace(cfg).theta_k)) > 0.9
    assert field_reversal_check(cfg, "trace").max_abs_deviation <= REVERSAL_TOL


def test_field_reversal_checks_every_multi_trace_column(monkeypatch):
    # a deviation in the last column alone must fail the check
    cfg = figure_preset(small_cfg())
    run = experiment.run_multi_trace

    def skewed(c):
        res = run(c)
        if c.field.bx_tesla < 0.0:
            res.columns["V"] = res.columns["V"] + 1e-9
        return res

    monkeypatch.setattr(experiment, "run_multi_trace", skewed)
    rep = field_reversal_check(cfg, "multi_trace")
    assert not rep.ok and rep.max_abs_deviation == pytest.approx(1e-9)
    n_t = time_grid(cfg.t_max_ps, cfg.t_step_ps).size
    assert run_dataset("multi_trace", cfg).theta_k.shape == (6, n_t)


def test_run_dataset_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind 'fig4a'"):
        run_dataset("fig4a", small_cfg())
    with pytest.raises(ValueError):
        field_reversal_check(small_cfg(), "traces")


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


def test_heavy_hole_lambda_window_centres_on_the_heavy_hole_line():
    cfg = replace(default_config(), exciton="hh")
    c = cfg.material.lambda_hh_nm
    assert resolve_lambda_window(cfg) == (c - 1.5, c + 1.5)
    assert resolve_lambda_window(replace(cfg, lambda_max_nm=801.0)) == (c - 1.5, 801.0)
    # a sigma+ pump orients the electron along z, seen here 1 ps after the pulse
    scan = run_sweep("wavelength", replace(cfg, pump_pol_name="sigma+", delta_t_ps=1.0,
                                           lambda_points=31))
    assert abs(scan.lambda_nm[np.argmax(np.abs(scan.theta_k))] - c) < 1e-9
    assert np.max(np.abs(scan.theta_k)) > 0.5


def test_traces_leave_the_callers_grid_writeable(monkeypatch):
    cfg = small_cfg()
    pol = cfg.pump.pol
    w = spectral_weights(cfg.pump, cfg.material, cfg.field)
    d = dynamics_params(cfg, cfg.field)
    t = np.linspace(0.0, 100.0, 201)
    runs = {
        "closed form": lambda: kerr_trace_closed_form(pol, w, d, t),
        "closed form hh": lambda: kerr_trace_closed_form_hh(pol, d, t),
        "master": lambda: kerr_trace_master(excite_lh(pol, w), d, t),
    }
    for name, run in runs.items():
        tr = run()
        assert t.flags.writeable and tr.t_ps is not t and not tr.t_ps.flags.writeable, name
        assert np.array_equal(tr.t_ps, t), name
    grids = []

    def recorded_grid(*args):
        grids.append(time_grid(*args))
        return grids[-1]

    monkeypatch.setattr(experiment, "time_grid", recorded_grid)
    for engine in ("closed", "master"):
        for exciton in ("lh", "hh"):
            tr = run_trace(replace(cfg, engine=engine, exciton=exciton))
            assert grids[-1].flags.writeable and tr.t_ps is not grids[-1], (engine, exciton)


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


_CSV_CORNERS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.7976931348623157e308,
                math.inf, -math.inf, math.nan]
_CSV_FLOATS = st.one_of(st.sampled_from(_CSV_CORNERS), st.floats())
_CSV_COLUMN = st.integers(1, 5).flatmap(lambda n: st.one_of(
    st.lists(_CSV_FLOATS, min_size=n, max_size=n).map(np.array),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n).map(np.array),
))


@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(_CSV_COLUMN, min_size=k, max_size=k).filter(
        lambda cols: len({c.size for c in cols}) == 1)))
def test_row_formatter_equals_a_per_value_join(columns):
    want = [",".join(f"{float(c[j]):.12g}" for c in columns) for j in range(columns[0].size)]
    assert _table("h", *columns) == ["h", *want]


def test_unknown_dataset_rejected():
    with pytest.raises(TypeError):
        csv_text(object())


# ---------------------------------------------------------------------------
# every row of every preset panel


def _panel_rows(panel, engine, field_sign):
    """Every row of a panel, at +B or at -B; field-sweep rows are put back
    in +B order.  The -B run negates the panel's own field-sweep range,
    which run_panel would set back from the panel table."""
    base = replace(default_config(), engine=engine)
    if field_sign > 0.0:
        return run_panel(panel, base).theta_k
    kind = figure_panel_kind(panel)
    rows = run_dataset(kind, at_minus_b(figure_panel_config(panel, base))).theta_k
    return rows[::-1] if kind == "field" else rows


@pytest.mark.parametrize("panel", FIGURE_PANELS)
def test_every_panel_row_is_reversal_invariant_and_engine_independent(panel):
    rows = {(engine, sign): _panel_rows(panel, engine, sign)
            for engine in ("closed", "master") for sign in (1.0, -1.0)}
    for engine in ("closed", "master"):
        assert np.max(np.abs(rows[engine, 1.0] - rows[engine, -1.0])) <= REVERSAL_TOL, engine
    for sign in (1.0, -1.0):
        assert np.max(np.abs(rows["closed", sign] - rows["master", sign])) < 1e-9, sign
