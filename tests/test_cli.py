import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from polspin.cli import main
from polspin.config import SCHEMA, default_config
from polspin.experiment import FIGURE_PANELS, figure_panel_config, vsystem_report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_to_stdout(capsys):
    code, out, err = run(capsys, "trace", "--set", "t_max_ps=3", "--set", "t_step_ps=1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t_ps,theta_k"
    assert len(lines) == 5
    assert err == ""


def test_trace_to_file(tmp_path, capsys):
    dest = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "trace", "--set", "t_max_ps=3", "--set", "t_step_ps=1", "--out", str(dest)
    )
    assert code == 0
    assert out == ""
    assert dest.read_text(encoding="utf-8").startswith("t_ps,theta_k\n")


def test_config_file_with_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max_ps = 10\nt_step_ps = 5\npump_pol = sigma+\n", encoding="utf-8")
    code, out, _ = run(capsys, "trace", "--config", str(cfg), "--set", "t_max_ps=5")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3  # override shortened the horizon: t = 0, 5
    assert rows[1].split(",")[1] == "1"  # sigma+ starts at +1


def test_sweep_kinds(tmp_path, capsys):
    for kind, first_col in (("phase", "phi_rad"), ("field", "b_tesla"), ("wavelength", "lambda_nm")):
        code, out, _ = run(
            capsys,
            "sweep", "--kind", kind,
            "--set", "t_max_ps=10", "--set", "t_step_ps=5",
            "--set", "phase_points=4", "--set", "b_points=3",
            "--set", "lambda_points=15",
        )
        assert code == 0, kind
        assert out.splitlines()[0].split(",")[0] == first_col


def test_fit_sine_round_trip(tmp_path, capsys):
    src = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "trace", "--set", "t_max_ps=400", "--out", str(src))
    assert code == 0
    code, out, _ = run(capsys, "fit", "sine", "--in", str(src))
    assert code == 0
    values = dict(line.split(",") for line in out.splitlines()[1:])
    assert abs(float(values["tau_ps"]) - 160.0) < 0.1
    assert abs(float(values["omega_rad_per_ps"]) - 0.1292733) < 1e-5


def test_fit_gauss2_with_field(tmp_path, capsys):
    src = tmp_path / "scan.csv"
    code, _, _ = run(
        capsys, "sweep", "--kind", "wavelength", "--set", "inhom_fwhm_nm=1.0",
        "--out", str(src),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "fit", "gauss2", "--in", str(src), "--set", "inhom_fwhm_nm=1.0"
    )
    assert code == 0
    values = dict(line.split(",") for line in out.splitlines()[1:])
    assert abs(float(values["separation_nm"]) - 0.7244) < 0.01
    assert abs(float(values["g_lh_estimate"]) - 3.5) < 0.01


def test_figures_writes_all_panels(tmp_path, capsys):
    outdir = tmp_path / "panels"
    code, out, _ = run(
        capsys, "figures", "--outdir", str(outdir),
        "--set", "t_max_ps=20", "--set", "t_step_ps=5",
        "--set", "phase_points=4", "--set", "b_points=3",
        "--set", "lambda_points=15",
    )
    assert code == 0
    names = sorted(p.name for p in outdir.glob("*.csv"))
    assert names == sorted(
        ["fig2c.csv", "fig2d.csv", "fig2e.csv", "fig3.csv", "fig4a.csv", "fig4b.csv"]
    )
    header = (outdir / "fig2c.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "t_ps,sigma+,D+,sigma-,D-,H,V"
    assert len(out.splitlines()) == 6


def test_validate_exit_codes(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert "overall_ok,true" in out
    code, out, _ = run(capsys, "validate", "--set", "b_field_tesla=1")
    assert code == 1
    assert "resolves_lh_splitting,false" in out


_SMALL = ("--set", "t_max_ps=20", "--set", "t_step_ps=5", "--set", "phase_points=4",
          "--set", "b_points=3", "--set", "lambda_points=15")


@pytest.mark.parametrize("argv", [("trace",), ("sweep", "--kind", "phase"),
                                  ("sweep", "--kind", "field"), ("sweep", "--kind", "wavelength"),
                                  ("figures", "--outdir", "panels")])
def test_runs_outside_the_vsystem_hierarchy_warn_once(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    # at 0.5 T the pump no longer resolves the light-hole doublet
    code, out, err = run(capsys, *argv, *_SMALL, "--set", "b_field_tesla=0.5")
    assert code == 0 and "warning" not in out
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert "see polspin validate" in err


def test_default_config_and_every_panel_satisfy_the_vsystem_hierarchy(tmp_path, capsys):
    for panel in FIGURE_PANELS:
        assert vsystem_report(figure_panel_config(panel, default_config())).overall_ok, panel
    for argv in (("trace",), ("figures", "--outdir", str(tmp_path)),
                 ("figures", "--outdir", str(tmp_path), "--set", "engine=master")):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == "", argv


def test_unknown_key_exits_2(capsys):
    code, _, err = run(capsys, "trace", "--set", "warp_factor=9")
    assert code == 2
    assert "warp_factor" in err


def test_bad_value_exits_2(capsys):
    code, _, err = run(capsys, "trace", "--set", "t_max_ps=soon")
    assert code == 2
    assert "t_max_ps" in err


def test_malformed_set_exits_2(capsys):
    code, _, err = run(capsys, "trace", "--set", "t_max_ps")
    assert code == 2
    assert "KEY=VALUE" in err


def test_missing_input_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "sine", "--in", str(tmp_path / "absent.csv"))
    assert code == 2
    assert "absent.csv" in err


def test_short_input_exits_2(tmp_path, capsys):
    src = tmp_path / "short.csv"
    src.write_text("t_ps,theta_k\n0,0.1\n1,0.2\n", encoding="utf-8")
    code, _, _ = run(capsys, "fit", "sine", "--in", str(src))
    assert code == 2


def test_zero_trace_fit_exits_3(tmp_path, capsys):
    src = tmp_path / "flat.csv"
    rows = ["t_ps,theta_k"] + [f"{t},0" for t in range(40)]
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", "sine", "--in", str(src))
    assert code == 3
    assert "zero" in err


def test_zero_field_wavelength_sweep_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--kind", "wavelength", "--set", "b_field_tesla=0")
    assert code == 2
    assert "delta_t_ps" in err


def test_tiny_field_wavelength_sweep_says_the_field_is_too_small(capsys):
    # the quarter period of a 1e-310 T field overflows, but the field is not zero
    code, _, err = run(capsys, "sweep", "--kind", "wavelength", "--set", "b_field_tesla=1e-310")
    assert code == 2
    assert "too small for a finite quarter period" in err and "delta_t_ps" in err
    assert "field is zero" not in err
    code, _, err = run(capsys, "sweep", "--kind", "wavelength", "--set", "b_field_tesla=0")
    assert "delta_t_ps is required when the field is zero" in err


@pytest.mark.parametrize("items", [
    "pump_fwhm_nm=1e-300", "t2_star_ps=-1", "g_lh=1000",
    "pump_pol=bogus", "t_max_ps=-1", "b_min=5 b_max=1", "pump_pol=phase=abc",
])
def test_range_errors_name_the_key_and_its_source(tmp_path, capsys, items):
    items = items.split()
    keys = [item.split("=")[0] for item in items]
    code, _, err = run(capsys, "trace", *(arg for item in items for arg in ("--set", item)))
    assert code == 2 and err.count("\n") == 1
    for key in keys:
        assert f"--set {key}: key '{key}'" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# header\n" + "".join(f"{item.replace('=', ' = ', 1)}\n" for item in items),
                   encoding="utf-8")
    code, _, err = run(capsys, "trace", "--config", str(cfg))
    assert code == 2
    for lineno, key in enumerate(keys, start=2):
        assert f"line {lineno}: key '{key}'" in err


def test_step_limit_error_stays_one_short_line(capsys):
    code, _, err = run(capsys, "trace", "--set", "engine=master", "--set", "tau_h_ps=1e-300")
    assert code == 2
    assert err.startswith("error: a span needs 5e+299 RK4 substeps")
    assert err.count("\n") == 1 and len(err) < 100


def test_deterministic_output_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for dest in (a, b):
        code, _, _ = run(
            capsys, "sweep", "--kind", "field",
            "--set", "t_max_ps=20", "--set", "t_step_ps=5", "--set", "b_points=4",
            "--out", str(dest),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--set", "t_max_ps=nan"),
        ("trace", "--set", "g_e=nan"),
        ("trace", "--set", "pump_fwhm_nm=nan"),
        ("trace", "--set", "t_step_ps=inf"),
        ("trace", "--set", "t2_star_ps=inf"),
        ("sweep", "--kind", "field", "--set", "b_min=nan"),
        ("sweep", "--kind", "wavelength", "--set", "delta_t_ps=nan"),
        ("trace", "--set", "pump_center_nm=750"),
        ("trace", "--set", "engine=master", "--set", "g_e=1e5"),
        ("trace", "--set", "g_lh=1e300"),
        ("trace", "--set", "pump_fwhm_nm=1e-300"),
        ("trace", "--set", "inhom_fwhm_nm=101"),
        ("trace", "--set", "t2_star_ps=5e-324"),
        ("trace", "--set", "t_max_ps=1.7976931348623157e308", "--set", "t_step_ps=6e307"),
        ("sweep", "--kind", "wavelength", "--set", "lambda_lh_nm=700.5"),
    ],
    ids=" ".join,
)
def test_bad_inputs_and_model_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "items",
    [("t_max_ps=20000", "t_step_ps=10"), ("g_e=100", "b_field_tesla=20"), ("g_e=-100", "b_field_tesla=20")],
    ids=" ".join,
)
def test_master_traces_inside_the_step_limit_match_the_closed_engine(capsys, items):
    # each span is capped, not the whole grid: 2,155 substeps per 10 ps span, 8,795 per 0.5 ps at 20 T
    sets = [arg for item in items for arg in ("--set", item)]
    columns = {}
    for engine in ("closed", "master"):
        code, out, _ = run(capsys, "trace", "--set", f"engine={engine}", *sets)
        assert code == 0, engine
        columns[engine] = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert len(columns["master"]) == len(columns["closed"]) > 1
    assert max(abs(a - b) for a, b in zip(columns["closed"], columns["master"])) <= 1e-6


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would be a second stderr line
def test_near_nyquist_trace_fits_its_own_frequency(tmp_path, capsys):
    # omega is 0.989 of pi/dt; a start on the Nyquist bin makes a model that is 0 at every sample
    data = tmp_path / "nyquist.csv"
    code, _, _ = run(capsys, "trace", "--set", "g_e=-2.8029561290096665",
                     "--set", "b_field_tesla=12.600665600312759",
                     "--set", "t2_star_ps=201.07824449792477", "--set", "t_step_ps=1",
                     "--out", str(data))
    assert code == 0
    code, out, err = run(capsys, "fit", "sine", "--in", str(data))
    assert code == 0 and err == ""
    fit = dict(line.split(",") for line in out.splitlines()[1:])
    assert abs(float(fit["omega_rad_per_ps"]) - 3.1059981208) < 1e-9
    assert abs(float(fit["tau_ps"]) - 201.07824449792477) < 1e-6
    assert float(fit["rms_residual"]) < 1e-9


@pytest.mark.parametrize("model", ["sine", "gauss2"])
@pytest.mark.parametrize("text", ["x\n1\n2\n3\n", "x,y\n1,a\n2,b\n"], ids=["one_column", "non_numeric"])
def test_unreadable_fit_csv_exits_2(tmp_path, capsys, model, text):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "fit", model, "--in", str(data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("model", ["sine", "gauss2"])
def test_header_only_fit_csv_exits_2(tmp_path, capsys, model):
    data = tmp_path / "data.csv"
    data.write_text("t_ps,theta_k\n", encoding="utf-8")
    code, out, err = run(capsys, "fit", model, "--in", str(data))
    assert code == 2
    assert out == ""
    assert err == f"error: {data} has no data rows\n"


@pytest.mark.parametrize("bad", ["set", "config"])
def test_fit_checks_its_config(tmp_path, capsys, bad):
    data = tmp_path / "sine.csv"
    rows = [f"{0.5 * k!r},{0.8 * math.exp(-k / 300.0) * math.cos(0.065 * k - 0.4)!r}"
            for k in range(201)]
    data.write_text("t_ps,theta_k\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert run(capsys, "fit", "sine", "--in", str(data))[0] == 0
    extra = ["--set", "g_e=abc"] if bad == "set" else ["--config", str(tmp_path / "absent.cfg")]
    code, out, err = run(capsys, "fit", "sine", "--in", str(data), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("g_e" if bad == "set" else "absent.cfg") in err


@pytest.mark.parametrize("case", ["out_dir_missing", "outdir_is_a_file", "config_missing",
                                  "config_not_utf8", "fit_in_a_directory", "stdout_fails"])
def test_file_errors_exit_2_with_one_error_line(tmp_path, monkeypatch, capsys, case):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "utf16.cfg").write_bytes("pump_pol = \u03c3+\n".encode("utf-16"))
    # the file the error line must name, if the case has one
    path = {
        "out_dir_missing": tmp_path / "missing" / "x.csv",
        "outdir_is_a_file": tmp_path / "afile",
        "config_missing": tmp_path / "absent.cfg",
        "config_not_utf8": tmp_path / "utf16.cfg",
        "fit_in_a_directory": tmp_path,
    }.get(case)
    argv = {
        "out_dir_missing": ["trace", "--out", str(path)],
        "outdir_is_a_file": ["figures", "--outdir", str(path)],
        "config_missing": ["trace", "--config", str(path)],
        "config_not_utf8": ["trace", "--config", str(path)],
        "fit_in_a_directory": ["fit", "sine", "--in", str(path)],
        "stdout_fails": ["trace", "--set", "t_max_ps=3", "--set", "t_step_ps=1"],
    }[case]
    if case == "stdout_fails":
        def write(text):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(sys.stdout, "write", write)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if path is not None:
        assert str(path) in err


# the config is inside the validated box but fails the V-system hierarchy
_DAMPED = ["--set", "g_e=-1.6301", "--set", "b_field_tesla=1.8473", "--set", "t2_star_ps=2.3358",
           "--set", "t_max_ps=1195.3988", "--set", "t_step_ps=0.0173"]


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_strongly_damped_round_trip_prints_no_numpy_warning(tmp_path, capsys):
    # trial steps with a negative decay rate overflow exp before MINPACK rejects them
    trace = tmp_path / "damped.csv"
    code, _, err = run(capsys, "trace", *_DAMPED, "--out", str(trace))
    assert code == 0 and err.startswith("warning: the V-system hierarchy") and err.count("\n") == 1
    code, out, err = run(capsys, "fit", "sine", "--in", str(trace))
    assert code == 0
    assert err == ""
    assert out == ("key,value\namplitude,0.990245566371\nomega_rad_per_ps,0.264815303824\n"
                   "phi0_rad,1.57079632679\ntau_ps,2.3358\nrms_residual,1.89525598865e-14\n")


@pytest.mark.parametrize("argv", [
    ("figures", "--outdir", "figs", "--out", "x.csv"),
    ("figures", "--out", "x.csv"),  # must not be read as --outdir
    ("trace", "--ou", "x.csv"),
], ids=" ".join)
def test_unknown_or_abbreviated_options_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_config_file_items_precede_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_max_ps = nan\n", encoding="utf-8")
    code, _, err = run(capsys, "trace", "--config", str(cfg), "--set", "t_max_ps=5")
    assert code == 2
    assert "line 1" in err
    cfg.write_text("pump_pol = H\nh_axis = minus_x\n", encoding="utf-8")
    code, out, _ = run(capsys, "trace", "--config", str(cfg), "--set", "pump_pol=sigma+",
                       "--set", "t_max_ps=1", "--set", "t_step_ps=1")
    assert code == 0
    assert out.splitlines()[1] == "0,1"


# ---------------------------------------------------------------------------
# no run exits 0 with a non-finite value

# the time grid is drawn on its own so that it stays tiny
_GRID_KEYS = ("t_max_ps", "t_step_ps")
_FLOAT_KEYS = [key for key, (_, kind) in SCHEMA.items() if kind is float and key not in _GRID_KEYS]
_CORNERS = [0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308]
_ANY_FLOAT = st.one_of(
    st.sampled_from(_CORNERS), st.floats(allow_nan=False, allow_infinity=False)
)
_COMMANDS = [("trace",), ("sweep", "--kind", "phase"), ("sweep", "--kind", "field"),
             ("sweep", "--kind", "wavelength")]


@st.composite
def _runs(draw):
    """A command on a grid of at most four samples per row, with t_max_ps
    and up to three other float keys anywhere in the finite range."""
    t_max = draw(_ANY_FLOAT)
    items = {
        "engine": draw(st.sampled_from(["closed", "master"])),
        "exciton": draw(st.sampled_from(["lh", "hh"])),
        "phase_points": 3, "b_points": 2, "lambda_points": 3,
        "t_max_ps": t_max, "t_step_ps": t_max / draw(st.integers(1, 3)),
    }
    items.update(draw(st.dictionaries(st.sampled_from(_FLOAT_KEYS), _ANY_FLOAT, max_size=3)))
    argv = list(draw(st.sampled_from(_COMMANDS)))
    for key, value in items.items():
        argv += ["--set", f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"]
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(_runs())
# the last sample is the largest float, whose spacing overflows to inf
@example(["sweep", "--kind", "wavelength", "--set", "engine=master",
          "--set", "delta_t_ps=1.7976931348623157e308"])
def test_runs_exit_0_with_finite_cells_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        cells = [c for line in out.splitlines()[1:] for c in line.split(",")]
        assert cells and all(math.isfinite(float(c)) for c in cells), argv
        # one warning line exactly when `validate` fails on the same settings
        with redirect_stdout(io.StringIO()):
            valid = main(["validate", *argv[argv.index("--set"):]]) == 0
        if valid:
            assert err == "", argv
        else:
            assert err.startswith("warning: ") and err.count("\n") == 1, argv
    else:
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv


_FIGURE_KEYS = ("b_field_tesla", "g_e", "g_lh", "pump_center_nm", "delta_t_ps", "tau_h_ps")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(engine=st.sampled_from(["closed", "master"]),
       items=st.dictionaries(st.sampled_from(_FIGURE_KEYS), _ANY_FLOAT, max_size=2))
@example(engine="closed", items={"b_field_tesla": 0.0})  # the wavelength panel needs delta_t_ps
def test_figures_write_all_six_panels_or_none(tmp_path_factory, engine, items):
    outdir = tmp_path_factory.mktemp("figures") / "panels"
    argv = ["figures", "--outdir", str(outdir), "--set", f"engine={engine}"]
    for key, value in items.items():
        argv += ["--set", f"{key}={value!r}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    written = sorted(outdir.glob("*.csv"))
    if code == 0:
        assert [p.stem for p in written] == sorted(FIGURE_PANELS), argv
        for path in written:
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
            cells = [c for line in lines for c in line.split(",")]
            assert cells and all(math.isfinite(float(c)) for c in cells), (argv, path.name)
    else:
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert written == [], argv
