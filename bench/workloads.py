"""Seeded inputs, op lists and output checks of the polspin benchmark.

A workload is built from a seed: the seed draws the physical scenario
(electron g-factor, T2*, field magnitude and sign, pump phase, pump centre
on the lower-energy light-hole line, fit-input noise), and the workload
turns it into a fixed list of ops.  polspin only ever sees the generated
inputs: configuration text in its documented ``key = value`` format,
CSV files for the CLI fits and noise arrays for the in-process fits.

Every op has a timed ``run`` and an untimed ``collect`` that turns the raw
result into an :class:`Output`.  The first output of each op is checked
against the rules in :func:`check`; every later execution must reproduce
its bytes exactly.

Only the public polspin API is used (``parse_config``, ``run_trace``,
``run_sweep``, ``run_multi_trace``, ``field_reversal_check``,
``figure_panel_config``, ``emit_csv`` and the two fits), so the benchmark
keeps running while the package is refactored underneath it.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import polspin

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Output-check tolerances.  theta_K lies in [-1, 1]; the CLI writes 12
# significant digits, so 1e-9 absolute leaves three orders of margin over
# the rounding of a CSV value.
ENGINE_TOL = 1e-9
REVERSAL_TOL = 1e-9
OMEGA_RTOL = 1e-3
TAU_RTOL = 2e-2
G_LH_RTOL = 0.015  # the tolerance of acceptance criterion 6
SUBSAMPLE_ROWS = 2
# Long traces are recomputed on a coarser grid of the same horizon (every
# stride-th sample); the engines agree to ~1e-12 at either step.
CHECK_SAMPLES = 4001

# CODATA 2018, kept apart from polspin.constants so that the generating
# parameters of the fit checks do not come from the code under test.
MU_B_EV_PER_T = 5.7883818060e-5
HBAR_EV_PS = 6.582119569e-4
HC_EV_NM = 1239.84198
G_LH = -3.5
LAMBDA_LH_NM = 795.8378
SCAN_HALF_WIDTH_NM = 1.5
SCAN_INHOM_FWHM_NM = 1.0
# Scan noise is a twentieth of the trace noise: two overlapping lines of
# opposite sign make the fitted separation trade off against the amplitudes,
# and at this level the g-factor error stays a tenth of G_LH_RTOL.
SCAN_NOISE_SCALE = 0.05

SIZES = {
    "full": dict(
        phase_closed=1024, field_closed=200, lambda_closed=2001,
        phase_master=128, field_master=24, lambda_master=401, reversal_phases=32,
        fit_t_max_ps=400.0, fit_t_step_ps=0.01, scan_points=121, scenarios=16,
    ),
    "tiny": dict(
        phase_closed=16, field_closed=4, lambda_closed=21,
        phase_master=8, field_master=3, lambda_master=11, reversal_phases=4,
        fit_t_max_ps=200.0, fit_t_step_ps=0.1, scan_points=61, scenarios=2,
    ),
}

_NON_FINITE = re.compile(r"(?<![A-Za-z_])[+-]?(nan|inf)", re.IGNORECASE)


@dataclass(frozen=True)
class Scenario:
    """Physical inputs drawn from the seed.

    |B| is drawn from [6, 9] T: below about 6 T the two light-hole lines
    overlap under the 1 nm inhomogeneous width and a two-Gaussian fit of
    the scan is no longer an unbiased g-factor estimator, while above 3.7 T
    the pump already resolves the hole doublet (validate exits 0).
    """

    g_e: float
    t2_star_ps: float
    b_tesla: float
    phase_rad: float
    pump_center_nm: float
    noise: float

    @property
    def omega(self) -> float:
        return abs(self.g_e * MU_B_EV_PER_T * self.b_tesla / HBAR_EV_PS)

    def items(self, **overrides) -> dict[str, str]:
        lo = LAMBDA_LH_NM - SCAN_HALF_WIDTH_NM
        hi = LAMBDA_LH_NM + SCAN_HALF_WIDTH_NM
        b_lo, b_hi = (0.0, abs(self.b_tesla)) if self.b_tesla > 0 else (-abs(self.b_tesla), 0.0)
        items = {
            "g_e": repr(self.g_e),
            "g_lh": repr(G_LH),
            "t2_star_ps": repr(self.t2_star_ps),
            "lambda_lh_nm": repr(LAMBDA_LH_NM),
            "b_field_tesla": repr(self.b_tesla),
            "pump_center_nm": repr(self.pump_center_nm),
            "pump_pol": f"phase={self.phase_rad!r}",
            "b_min": repr(b_lo),
            "b_max": repr(b_hi),
            "lambda_min_nm": repr(lo),
            "lambda_max_nm": repr(hi),
        }
        items.update({k: str(v) for k, v in overrides.items()})
        return items


def draw_scenario(rng: np.random.Generator) -> Scenario:
    b = float(rng.uniform(6.0, 9.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    split_nm = LAMBDA_LH_NM ** 2 * abs(G_LH) * MU_B_EV_PER_T * abs(b) / HC_EV_NM
    return Scenario(
        g_e=float(rng.uniform(-0.30, -0.15)),
        t2_star_ps=float(rng.uniform(100.0, 250.0)),
        b_tesla=b,
        phase_rad=float(rng.uniform(0.0, 2.0 * math.pi)),
        # on the lower-energy (red) line, so one hole channel is driven
        pump_center_nm=LAMBDA_LH_NM + 0.5 * split_nm + float(rng.uniform(-0.05, 0.05)),
        noise=float(rng.uniform(0.002, 0.01)),
    )


def config_text(items: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in items.items())


# ---------------------------------------------------------------------------
# outputs and checks

@dataclass
class Dataset:
    """theta_K rows of one output, with what is needed to recompute them.

    kind is trace | multi | phase | field | wavelength; rows has one row per
    trace (multi: per column, wavelength: per pump wavelength); params holds
    the swept value of each row (column names for multi).  panel names the
    figure preset applied on top of the config items, if any.
    """

    kind: str
    items: dict[str, str]
    rows: np.ndarray
    params: list = field(default_factory=list)
    panel: str | None = None


@dataclass
class Output:
    files: dict[str, str]          # emitted CSV (or report) name -> text
    datasets: list[Dataset]
    fits: list[tuple[dict[str, float], dict[str, tuple[float, float]]]]  # got, {key: (truth, rtol)}
    theta_samples: int
    problems: list[str] = field(default_factory=list)

    def digests(self) -> dict[str, str]:
        return {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in self.files.items()}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    collect: Callable[[object], Output]


def _cfg(items: dict[str, str], panel: str | None, **overrides):
    merged = dict(items)
    merged.update({k: str(v) for k, v in overrides.items()})
    cfg = polspin.parse_config(config_text(merged))
    return polspin.figure_panel_config(panel, cfg) if panel else cfg


def _row_overrides(ds: Dataset, i: int) -> dict[str, str]:
    p = ds.params[i] if ds.params else None
    if ds.kind == "multi":
        return {"pump_pol": p}
    if ds.kind == "phase":
        return {"pump_pol": f"phase={float(p)!r}"}
    if ds.kind == "field":
        return {"b_field_tesla": repr(float(p))}
    return {}


def recompute(ds: Dataset, idx: list[int], engine: str, flip: bool, stride: int = 1) -> np.ndarray:
    """Rows idx of ds under the given engine, at reversed field if flip,
    sampled at every stride-th time."""
    out = []
    if ds.kind == "wavelength":
        lam = [float(ds.params[i]) for i in idx]
        over = {"engine": engine, "lambda_min_nm": repr(lam[0]), "lambda_max_nm": repr(lam[-1]),
                "lambda_points": str(len(lam))}
        if flip:
            over["b_field_tesla"] = repr(-float(ds.items["b_field_tesla"]))
        res = polspin.run_sweep("wavelength", _cfg(ds.items, ds.panel, **over))
        return np.asarray(res.theta_k)[:, None]
    for i in idx:
        over = {"engine": engine, **_row_overrides(ds, i)}
        if stride > 1:
            over["t_step_ps"] = repr(stride * float(ds.items["t_step_ps"]))
        if flip:
            b = float(over.get("b_field_tesla", ds.items["b_field_tesla"]))
            over["b_field_tesla"] = repr(-b)
        out.append(np.asarray(polspin.run_trace(_cfg(ds.items, ds.panel, **over)).theta_k))
    return np.array(out)


def _subsample(n: int, seed: int, name: str) -> list[int]:
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    k = min(SUBSAMPLE_ROWS, n)
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


def check(op_name: str, out: Output, seed: int) -> list[str]:
    """Problems with one op output; empty when the output is correct.

    Rules: no non-finite CSV value; on a seeded subsample of rows the other
    engine agrees within ENGINE_TOL and the same engine at reversed field
    within REVERSAL_TOL; every fit lands within its stated tolerance of the
    generating value.
    """
    problems = list(out.problems)
    for fname, text in out.files.items():
        if _NON_FINITE.search(text):
            problems.append(f"{fname}: non-finite value")
    for n, ds in enumerate(out.datasets):
        rows = np.asarray(ds.rows, dtype=float)
        if not np.all(np.isfinite(rows)):
            problems.append(f"{op_name}[{n}]: non-finite theta_K")
            continue
        engine = ds.items.get("engine", "closed")
        other = "master" if engine == "closed" else "closed"
        idx = _subsample(rows.shape[0], seed, f"{op_name}[{n}]")
        stride = 1
        if ds.kind == "trace" and ds.panel is None:
            stride = max(1, rows.shape[1] // CHECK_SAMPLES)
        for label, eng, flip, tol in (("engine", other, False, ENGINE_TOL),
                                      ("reversal", engine, True, REVERSAL_TOL)):
            ref = recompute(ds, idx, eng, flip, stride)
            dev = float(np.max(np.abs(ref - rows[idx][:, ::stride][:, :ref.shape[1]])))
            if not dev <= tol:
                problems.append(f"{op_name}[{n}] {ds.kind}: {label} deviation {dev:.3g} > {tol:g}")
    for got, truth in out.fits:
        for key, (want, rtol) in truth.items():
            if not _within(got.get(key), want, rtol):
                problems.append(f"{op_name}: {key} = {got.get(key)} misses {want:.6g} "
                                f"by more than {rtol:g}")
    return problems


def _within(value, want: float, rtol: float) -> bool:
    return value is not None and abs(value - want) <= rtol * abs(want)


def fits_within_tolerance(out: Output) -> int:
    """Number of fits of one output whose every parameter is within tolerance."""
    return sum(all(_within(got.get(k), *t) for k, t in truth.items()) for got, truth in out.fits)


# ---------------------------------------------------------------------------
# in-process ops

def _emit(dataset) -> str:
    buf = io.StringIO()
    polspin.emit_csv(dataset, buf)
    return buf.getvalue()


def sweep_op(name: str, kind: str, items: dict[str, str]) -> Op:
    cfg = _cfg(items, None)

    def run():
        res = polspin.run_sweep(kind, cfg)
        return res, _emit(res)

    def collect(raw):
        res, text = raw
        theta = np.asarray(res.theta_k)
        if kind == "phase":
            params, rows = list(res.phi_rad), theta
        elif kind == "field":
            params, rows = list(res.b_tesla), theta
        else:
            params, rows = list(res.lambda_nm), theta[:, None]
        return Output({f"{name}.csv": text}, [Dataset(kind, items, rows, params)], [], rows.size)

    return Op(name, run, collect)


def multi_op(name: str, items: dict[str, str], panel: str) -> Op:
    cfg = _cfg(items, panel)

    def run():
        res = polspin.run_multi_trace(cfg)
        return res, _emit(res)

    def collect(raw):
        res, text = raw
        names = list(res.columns)
        rows = np.array([res.columns[n] for n in names])
        return Output({f"{name}.csv": text}, [Dataset("multi", items, rows, names, panel)], [],
                      rows.size)

    return Op(name, run, collect)


def trace_op(name: str, items: dict[str, str]) -> Op:
    cfg = _cfg(items, None)

    def run():
        res = polspin.run_trace(cfg)
        return res, _emit(res)

    def collect(raw):
        res, text = raw
        rows = np.asarray(res.theta_k)[None, :]
        return Output({f"{name}.csv": text}, [Dataset("trace", items, rows)], [], rows.size)

    return Op(name, run, collect)


def reversal_op(name: str, items: dict[str, str]) -> Op:
    cfg = _cfg(items, None)
    n_t = int(math.floor(float(items["t_max_ps"]) / float(items["t_step_ps"]) + 1e-9)) + 1
    samples = 2 * int(items["phase_points"]) * n_t

    def run():
        return polspin.field_reversal_check(cfg, "phase")

    def collect(rep):
        problems = [] if rep.ok else [f"{name}: field_reversal_check failed, "
                                      f"deviation {rep.max_abs_deviation:.3g}"]
        text = f"ok,{rep.ok}\nmax_abs_deviation,{rep.max_abs_deviation!r}\n"
        return Output({f"{name}.txt": text}, [], [], samples, problems)

    return Op(name, run, collect)


def trace_fit_op(name: str, items: dict[str, str], noise: np.ndarray, sc: Scenario) -> Op:
    cfg = _cfg(items, None)
    truth = {"omega_rad_per_ps": (sc.omega, OMEGA_RTOL), "tau_ps": (sc.t2_star_ps, TAU_RTOL)}

    def run():
        tr = polspin.run_trace(cfg)
        fit = polspin.fit_damped_sine(tr.t_ps, tr.theta_k + noise)
        return tr, fit, _emit(fit)

    def collect(raw):
        tr, fit, text = raw
        rows = np.asarray(tr.theta_k)[None, :]
        got = {"omega_rad_per_ps": fit.omega_rad_per_ps, "tau_ps": fit.tau_ps}
        return Output({f"{name}.csv": text}, [Dataset("trace", items, rows)], [(got, truth)],
                      rows.size)

    return Op(name, run, collect)


def scan_fit_op(name: str, items: dict[str, str], noise: np.ndarray, sc: Scenario) -> Op:
    cfg = _cfg(items, None)

    def run():
        scan = polspin.run_sweep("wavelength", cfg)
        fit = polspin.fit_two_gaussian(scan.lambda_nm, scan.theta_k + noise, b_tesla=sc.b_tesla)
        return scan, fit, _emit(fit)

    def collect(raw):
        scan, fit, text = raw
        rows = np.asarray(scan.theta_k)[:, None]
        fits = [({"g_lh_estimate": fit.g_lh_estimate}, {"g_lh_estimate": (abs(G_LH), G_LH_RTOL)})]
        return Output({f"{name}.csv": text},
                      [Dataset("wavelength", items, rows, list(scan.lambda_nm))], fits, rows.size)

    return Op(name, run, collect)


# ---------------------------------------------------------------------------
# CLI ops

def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _parse_key_values(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines()[1:]:
        key, _, value = line.partition(",")
        try:
            out[key] = float(value)
        except ValueError:
            pass
    return out


def _dataset_from_csv(text: str, items: dict[str, str], panel: str | None) -> Dataset:
    header = text.split("\n", 1)[0].split(",")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    first = header[0]
    if first == "t_ps":
        kind = "trace" if header[1:] == ["theta_k"] and panel is None else "multi"
        return Dataset(kind, items, data[:, 1:].T, header[1:] if kind == "multi" else [], panel)
    if first == "phi_rad":
        n = data.shape[0]
        return Dataset("phase", items, data[:, 1:], [2.0 * math.pi * i / n for i in range(n)], panel)
    if first == "b_tesla":
        return Dataset("field", items, data[:, 1:], list(data[:, 0]), panel)
    if first == "lambda_nm":
        lams = np.linspace(float(items["lambda_min_nm"]), float(items["lambda_max_nm"]), data.shape[0])
        return Dataset("wavelength", items, data[:, 1:2], list(lams), panel)
    raise ValueError(f"unrecognised CSV header {header[0]!r}")


class CliWorkload:
    """The cli_cold op list and its scratch directory inside the checkout.

    ``tracer`` is set by the worker for the traced half of a run; traced
    ops run through ``tracing.py`` so that the same argv reaches
    ``polspin.cli.main`` under the layer wrappers.
    """

    def __init__(self, sc: Scenario, rng: np.random.Generator, size: str):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR))
        self.env = cli_env()
        self.tracer = None
        s = SIZES[size]
        small = {} if size == "full" else {"phase_points": 8, "b_points": 3, "lambda_points": 21,
                                           "t_max_ps": 50.0}
        self.items = sc.items(**small)
        (self.dir / "scenario.cfg").write_text(config_text(self.items), encoding="utf-8")
        self._write_fit_inputs(sc, rng, s)
        self.ops: list[Op] = []
        for engine in ("closed", "master"):
            eng = ["--config", "scenario.cfg", "--set", f"engine={engine}"]
            self._add(f"trace_{engine}", ["trace", *eng], engine)
            for kind in ("phase", "field", "wavelength"):
                self._add(f"sweep_{kind}_{engine}", ["sweep", "--kind", kind, *eng], engine)
            self._add(f"figures_{engine}", ["figures", *eng], engine, figures=True)
            self._add(f"validate_{engine}", ["validate", *eng], engine, validate=True)
        self._add("fit_sine", ["fit", "sine", "--in", "fit_sine_in.csv"], None,
                  fit={"omega_rad_per_ps": (sc.omega, OMEGA_RTOL), "tau_ps": (sc.t2_star_ps, TAU_RTOL)})
        self._add("fit_gauss2", ["fit", "gauss2", "--in", "fit_gauss2_in.csv", "--set",
                                 f"b_field_tesla={sc.b_tesla!r}"], None,
                  fit={"g_lh_estimate": (abs(G_LH), G_LH_RTOL)})

    def _write_fit_inputs(self, sc: Scenario, rng: np.random.Generator, s: dict) -> None:
        """Model curves with the scenario's parameters plus seeded noise: a
        damped cosine at the scenario's omega and T2*, and two opposite-sign
        lines at the light-hole doublet for the scenario's |B|, each as wide
        as the pump and 0.5 nm of inhomogeneous broadening."""
        t = 0.5 * np.arange(801)
        phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
        y = np.exp(-t / sc.t2_star_ps) * np.cos(sc.omega * t - phi0)
        y = y + rng.normal(0.0, sc.noise, t.size)
        lam = np.linspace(LAMBDA_LH_NM - SCAN_HALF_WIDTH_NM, LAMBDA_LH_NM + SCAN_HALF_WIDTH_NM,
                          s["scan_points"])
        split = LAMBDA_LH_NM ** 2 * abs(G_LH) * MU_B_EV_PER_T * abs(sc.b_tesla) / HC_EV_NM
        sig = math.hypot(0.38, 0.5) / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        g = lambda c: np.exp(-((lam - c) ** 2) / (2.0 * sig * sig))  # noqa: E731
        scan = 0.8 * (g(LAMBDA_LH_NM + 0.5 * split) - g(LAMBDA_LH_NM - 0.5 * split))
        scan = scan + rng.normal(0.0, SCAN_NOISE_SCALE * sc.noise, lam.size)
        for fname, cols, (x, yy) in (("fit_sine_in.csv", "t_ps,theta_k", (t, y)),
                                     ("fit_gauss2_in.csv", "lambda_nm,theta_k", (lam, scan))):
            lines = [cols] + [f"{a!r},{b!r}" for a, b in zip(x.tolist(), yy.tolist())]
            (self.dir / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _add(self, name, argv, engine, figures=False, validate=False, fit=None):
        outdir = self.dir / name
        out_args = ["--outdir", name] if figures else ["--out", f"{name}.csv"]
        full = [*argv, *out_args]
        items = dict(self.items, engine=engine) if engine else self.items

        def run():
            span_file = None
            if self.tracer is not None:
                span_file = self.dir / f"{name}.spans.json"
                cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(span_file), *full]
            else:
                cmd = [sys.executable, "-m", "polspin.cli", *full]
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=120)
            return proc.returncode, proc.stderr, span_file

        def collect(raw):
            code, err, span_file = raw
            if span_file is not None:
                self.tracer.add_child(span_file)
            problems = [] if code == 0 else [f"{name}: exit {code}: {err.decode(errors='replace')[-300:]}"]
            files = {}
            if figures:
                if outdir.is_dir():
                    for p in sorted(outdir.iterdir()):
                        files[f"{name}/{p.name}"] = p.read_text(encoding="utf-8")
                    shutil.rmtree(outdir)
            else:
                p = self.dir / f"{name}.csv"
                if p.exists():
                    files[f"{name}.csv"] = p.read_text(encoding="utf-8")
                    p.unlink()
            if code == 0 and not files:
                problems.append(f"{name}: no output written")
            datasets, fits = [], []
            if code == 0 and files and not validate and fit is None:
                for fname, text in files.items():
                    panel = Path(fname).stem if figures else None
                    datasets.append(_dataset_from_csv(text, items, panel))
            if code == 0 and fit is not None and files:
                fits.append((_parse_key_values(next(iter(files.values()))), fit))
            if validate and files and "overall_ok,true" not in next(iter(files.values())):
                problems.append(f"{name}: V-system validation failed")
            samples = sum(int(np.asarray(d.rows).size) for d in datasets)
            return Output(files, datasets, fits, samples, problems)

        self.ops.append(Op(name, run, collect))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Workload:
    name: str
    ops: list[Op]
    warm_up: bool
    inputs_sha256: str
    cli: CliWorkload | None = None

    def close(self) -> None:
        if self.cli is not None:
            self.cli.close()


def _cli_cold(sc: Scenario, rng: np.random.Generator, s: dict, size: str, digest) -> CliWorkload:
    cli = CliWorkload(sc, rng, size)
    for p in sorted(cli.dir.glob("*")):
        digest.update(p.read_bytes())
    return cli


def _sweeps(sc: Scenario, s: dict) -> list[Op]:
    """Closed-engine sweeps, then master-engine sweeps and a reversal check.

    The first op is the warm-up.  Thirteen ops per pass put the median op
    inside one op's group of samples rather than between two groups.
    """
    grid = {"t_max_ps": "100.0", "t_step_ps": "0.5"}
    ops = []
    for engine in ("closed", "master"):
        base = sc.items(engine=engine)
        ops += [
            multi_op(f"{engine}_multi_fig2c", base, "fig2c"),
            sweep_op(f"{engine}_phase", "phase",
                     {**base, **grid, "phase_points": str(s[f"phase_{engine}"])}),
            multi_op(f"{engine}_multi_fig2d", base, "fig2d"),
            sweep_op(f"{engine}_field", "field", {**base, "t_max_ps": "440.0", "t_step_ps": "0.5",
                                                  "b_points": str(s[f"field_{engine}"])}),
            multi_op(f"{engine}_multi_fig2e", base, "fig2e"),
            sweep_op(f"{engine}_wavelength", "wavelength",
                     {**base, "lambda_points": str(s[f"lambda_{engine}"])}),
        ]
    ops.append(reversal_op("master_reversal_phase", {**sc.items(engine="master"), **grid,
                                                     "phase_points": str(s["reversal_phases"])}))
    return ops


def _trace_fit(sc: Scenario, rng: np.random.Generator, s: dict, digest) -> list[Op]:
    # Three ops per scenario, cheapest first: the scan fit is the warm-up
    # and the median op is a closed-form trace fit.
    ops = []
    t_items = {"t_max_ps": repr(s["fit_t_max_ps"]), "t_step_ps": repr(s["fit_t_step_ps"])}
    n_t = int(math.floor(s["fit_t_max_ps"] / s["fit_t_step_ps"] + 1e-9)) + 1
    for k in range(s["scenarios"]):
        scn = sc if k == 0 else draw_scenario(rng)
        digest.update(repr(scn).encode())
        pol = "D+" if rng.uniform() < 0.5 else "D-"
        scan_items = scn.items(engine="master", pump_pol=pol, inhom_fwhm_nm=SCAN_INHOM_FWHM_NM,
                               lambda_points=s["scan_points"])
        noise = rng.normal(0.0, SCAN_NOISE_SCALE * scn.noise, s["scan_points"])
        digest.update(noise.tobytes())
        ops.append(scan_fit_op(f"s{k}_scan_master_fit", scan_items, noise, scn))
        for engine in ("closed", "master"):
            noise = rng.normal(0.0, scn.noise, n_t)
            digest.update(noise.tobytes())
            ops.append(trace_fit_op(f"s{k}_trace_{engine}_fit", scn.items(engine=engine, **t_items),
                                    noise, scn))
    return ops


BUILDERS = ("cli_cold", "sweeps", "trace_fit")


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Draw the seeded inputs and assemble the op list of one workload."""
    if name not in BUILDERS:
        raise ValueError(f"unknown workload {name!r}")
    s = SIZES[size]
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    sc = draw_scenario(rng)
    digest.update(repr(sc).encode())
    if name == "cli_cold":
        cli = _cli_cold(sc, rng, s, size, digest)
        return Workload(name, cli.ops, False, digest.hexdigest(), cli)
    if name == "trace_fit":
        ops = _trace_fit(sc, rng, s, digest)
    else:
        ops = _sweeps(sc, s)
    return Workload(name, ops, True, digest.hexdigest())
