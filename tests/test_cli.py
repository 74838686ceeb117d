import pytest

from polspin.cli import main


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
        ("trace", "--set", "engine=master", "--set", "t_max_ps=20000", "--set", "t_step_ps=10"),
    ],
    ids=" ".join,
)
def test_bad_inputs_and_model_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
