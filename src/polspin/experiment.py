"""Measurement harness: traces, sweeps, presets and symmetry checks.

Everything here composes the transfer and dynamics layers into the datasets
an experiment would record: single Kerr traces, pump-phase sweeps, field
sweeps, pump-wavelength scans, and the bundled figure presets.  CSV output
is deterministic (fixed column order, fixed formatting) so identical
configurations produce byte-identical files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    check_samples,
    resolve_delta_t_ps,
    resolve_lambda_window,
    resolve_polarization,
)
from .dynamics import (
    DynamicsParams,
    KerrTrace,
    kerr_rows_closed_form,
    kerr_rows_master,
    kerr_trace_closed_form,
    kerr_trace_closed_form_hh,
    kerr_trace_master,
    larmor_omega,
)
from .fitting import DampedSineFit, TwoGaussianFit
from .polarization import PhotonPolarization, polarization_from_phase
from .transfer import (
    FieldConfig,
    SpectralWeights,
    VSystemReport,
    effective_sigma_nm,
    electron_bloch_hh,
    electron_marginal_bloch,
    excite_hh,
    excite_lh,
    raw_channel_amplitudes,
    spectral_weights,
    validate_vsystem,
)

SWEEP_KINDS = ("phase", "field", "wavelength")

REVERSAL_TOL = 1e-12


@dataclass(frozen=True)
class PhaseSweepResult:
    phi_rad: np.ndarray
    t_ps: np.ndarray
    theta_k: np.ndarray  # shape (len(phi_rad), len(t_ps))


@dataclass(frozen=True)
class FieldSweepResult:
    b_tesla: np.ndarray
    t_ps: np.ndarray
    theta_k: np.ndarray  # shape (len(b_tesla), len(t_ps))


@dataclass(frozen=True)
class WavelengthSweepResult:
    lambda_nm: np.ndarray
    theta_k: np.ndarray
    delta_t_ps: float


@dataclass(frozen=True)
class MultiTraceResult:
    """Several traces on a shared time grid, keyed by polarization name."""

    t_ps: np.ndarray
    columns: dict[str, np.ndarray]


@dataclass(frozen=True)
class ReversalReport:
    ok: bool
    max_abs_deviation: float


def time_grid(t_max_ps: float, t_step_ps: float) -> np.ndarray:
    """Uniform grid 0, step, ..., n*step with n*step <= t_max."""
    n = int(math.floor(t_max_ps / t_step_ps + 1e-9))
    return t_step_ps * np.arange(n + 1)


def dynamics_params(cfg: ExperimentConfig, field: FieldConfig | None = None) -> DynamicsParams:
    """Rates and frequencies for the configured exciton species.

    The heavy hole does not precess in-plane, so in hh mode the hole
    frequency is zero while its dephasing channel stays active.
    """
    f = field if field is not None else cfg.field
    m = cfg.material
    omega_lh = larmor_omega(m.g_lh, f.bx_tesla) if cfg.exciton == "lh" else 0.0
    return DynamicsParams(
        omega_e=larmor_omega(m.g_e, f.bx_tesla),
        omega_lh=omega_lh,
        gamma_e=1.0 / m.t2_star_ps,
        gamma_h=1.0 / m.tau_h_ps,
    )


def _theta_rows(cfg: ExperimentConfig, field: FieldConfig, t: np.ndarray, pols: list,
                weights: list | None = None) -> np.ndarray:
    """theta_K, one row per pump polarization, from one engine call.

    weights gives the light-hole channel weights of each row and defaults
    to the configured pump's; heavy-hole excitation does not use them.
    """
    d = dynamics_params(cfg, field)
    master = cfg.engine == "master"
    if cfg.exciton == "hh":
        starts = [excite_hh(p) if master else electron_bloch_hh(p) for p in pols]
    else:
        if weights is None:
            weights = [spectral_weights(cfg.pump, cfg.material, field)] * len(pols)
        excite = excite_lh if master else electron_marginal_bloch
        starts = [excite(p, w) for p, w in zip(pols, weights)]
    engine = kerr_rows_master if master else kerr_rows_closed_form
    return engine(np.array(starts), d, t)


def run_trace(
    cfg: ExperimentConfig,
    pol: PhotonPolarization | None = None,
    weights: SpectralWeights | None = None,
) -> KerrTrace:
    """Kerr trace for the configured scenario (pump polarization and channel
    weights can be overridden for controlled comparisons).

    A single trace goes through the public one-trace functions of
    :mod:`polspin.dynamics`; runs of several rows use the batched engines.
    """
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    pol = pol if pol is not None else cfg.pump.pol
    d = dynamics_params(cfg)
    if cfg.exciton == "hh":
        if cfg.engine == "master":
            return kerr_trace_master(excite_hh(pol), d, t)
        return kerr_trace_closed_form_hh(pol, d, t)
    w = weights if weights is not None else spectral_weights(cfg.pump, cfg.material, cfg.field)
    if cfg.engine == "master":
        return kerr_trace_master(excite_lh(pol, w), d, t)
    return kerr_trace_closed_form(pol, w, d, t)


def _phase_sweep(cfg: ExperimentConfig, field_sign: float) -> PhaseSweepResult:
    check_samples(cfg, cfg.phase_points)
    f = FieldConfig(field_sign * cfg.field.bx_tesla)
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    phis = 2.0 * math.pi * np.arange(cfg.phase_points) / cfg.phase_points
    rows = _theta_rows(cfg, f, t, [polarization_from_phase(phi) for phi in phis])
    return PhaseSweepResult(phis, t, rows)


def _field_sweep(cfg: ExperimentConfig, field_sign: float) -> FieldSweepResult:
    check_samples(cfg, cfg.b_points)
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    bs = np.linspace(cfg.b_min, cfg.b_max, cfg.b_points)
    # one engine call per field: each field has its own generator
    rows = [_theta_rows(cfg, FieldConfig(field_sign * float(b)), t, [cfg.pump.pol])[0] for b in bs]
    return FieldSweepResult(bs, t, np.array(rows))


def _wavelength_sweep(cfg: ExperimentConfig, field_sign: float) -> WavelengthSweepResult:
    """theta_K(pump wavelength) at a fixed probe delay.

    The per-exciton signal is scaled by the total spectral overlap of the
    pump with the two transition lines (sum of squared raw channel
    amplitudes): detuning the pump off both lines excites fewer excitons,
    which is what turns the scan into two signed peaks rather than a
    saturating step.
    """
    f = FieldConfig(field_sign * cfg.field.bx_tesla)
    dt = resolve_delta_t_ps(cfg)
    lo, hi = resolve_lambda_window(cfg)
    lams = np.linspace(lo, hi, cfg.lambda_points)
    t = np.array([dt])
    if cfg.exciton == "hh":
        # single unsplit line: one trace scaled by the pump-line overlap
        base = _theta_rows(cfg, f, t, [cfg.pump.pol])[0, 0]
        sig = effective_sigma_nm(cfg.pump, cfg.material)
        det = lams - cfg.material.lambda_hh_nm
        return WavelengthSweepResult(lams, base * np.exp(-det * det / (2.0 * sig * sig)), dt)
    amps = [raw_channel_amplitudes(replace(cfg.pump, center_nm=float(lam)), cfg.material, f)
            for lam in lams]
    overlap = np.array([ap * ap + am * am for ap, am in amps])
    live = np.flatnonzero(overlap)
    weights = [SpectralWeights(*amps[i]) for i in live]
    theta = np.zeros(lams.size, dtype=float)
    theta[live] = overlap[live] * _theta_rows(cfg, f, t, [cfg.pump.pol] * live.size, weights)[:, 0]
    return WavelengthSweepResult(lams, theta, dt)


def run_sweep(kind: str, cfg: ExperimentConfig, _field_sign: float = 1.0):
    """Run one of the sweep kinds: 'phase', 'field' or 'wavelength'."""
    if kind == "phase":
        return _phase_sweep(cfg, _field_sign)
    if kind == "field":
        return _field_sweep(cfg, _field_sign)
    if kind == "wavelength":
        return _wavelength_sweep(cfg, _field_sign)
    raise ValueError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")


def run_multi_trace(cfg: ExperimentConfig, names=("sigma+", "D+", "sigma-", "D-", "H", "V")) -> MultiTraceResult:
    """One trace per named polarization on the configured grid."""
    check_samples(cfg, len(names))
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    rows = _theta_rows(cfg, cfg.field, t, [resolve_polarization(n, cfg.h_axis) for n in names])
    return MultiTraceResult(t, dict(zip(names, rows)))


def extremum_tracks(b_grid, n_max: int, g_e: float) -> np.ndarray:
    """Times of the n-th |S_z| alignment, (pi/2 + n pi)/|omega(B)|.

    Returns an array of shape (n_max + 1, len(b_grid)); entries at zero
    field are infinite.
    """
    b = np.asarray(b_grid, dtype=float)
    tracks = np.empty((n_max + 1, b.size), dtype=float)
    for n in range(n_max + 1):
        for i, bv in enumerate(b):
            om = larmor_omega(g_e, float(bv))
            tracks[n, i] = math.inf if om == 0.0 else (0.5 * math.pi + n * math.pi) / abs(om)
    return tracks


def field_reversal_check(cfg: ExperimentConfig, kind: str = "trace") -> ReversalReport:
    """Compare a run at +B with the identical run at -B.

    Reversing the field swaps the hole-line energy assignment (so the pump
    excites the opposite channel) and flips the precession sense; the two
    effects cancel in theta_K, so the runs must agree.  kind is 'trace' or
    one of the sweep kinds.
    """
    if kind == "trace":
        a = run_trace(cfg).theta_k
        flipped = replace(cfg, field=FieldConfig(-cfg.field.bx_tesla))
        b = run_trace(flipped).theta_k
    elif kind in SWEEP_KINDS:
        a = run_sweep(kind, cfg).theta_k
        b = run_sweep(kind, cfg, _field_sign=-1.0).theta_k
    else:
        raise ValueError(f"unknown kind {kind!r}")
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0
    return ReversalReport(ok=dev <= REVERSAL_TOL, max_abs_deviation=dev)


# ---------------------------------------------------------------------------
# figure presets

FIGURE_PANELS = ("fig2c", "fig2d", "fig2e", "fig3", "fig4a", "fig4b")


def figure_preset(cfg: ExperimentConfig | None = None) -> ExperimentConfig:
    """Reference scenario for the bundled figure panels: the default
    configuration with 1 nm inhomogeneous broadening."""
    base = cfg if cfg is not None else ExperimentConfig()
    return replace(base, material=replace(base.material, inhom_fwhm_nm=1.0))


def figure_panel_config(panel: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Configuration for one preset panel (see FIGURE_PANELS).

    fig2c/fig2d: six-polarization traces on 100 / 400 ps horizons;
    fig2e: the same through the heavy-hole transition; fig3: pump-phase
    sweep; fig4a: field sweep with a horizon long enough for the first
    three alignment tracks; fig4b: pump-wavelength scan at the quarter
    period.
    """
    cfg = figure_preset(base)
    if panel in ("fig2c", "fig3"):
        return replace(cfg, t_max_ps=100.0, t_step_ps=0.5)
    if panel == "fig2d":
        return replace(cfg, t_max_ps=400.0, t_step_ps=0.5)
    if panel == "fig2e":
        return replace(
            cfg,
            exciton="hh",
            pump=replace(cfg.pump, center_nm=cfg.material.lambda_hh_nm),
            t_max_ps=100.0,
            t_step_ps=0.5,
        )
    if panel == "fig4a":
        return replace(cfg, t_max_ps=440.0, t_step_ps=0.5, b_min=0.0, b_max=7.0, b_points=15)
    if panel == "fig4b":
        return cfg
    raise ValueError(f"unknown figure panel {panel!r}; expected one of {FIGURE_PANELS}")


def figure_panel_kind(panel: str) -> str:
    return {
        "fig2c": "multi_trace",
        "fig2d": "multi_trace",
        "fig2e": "multi_trace",
        "fig3": "phase",
        "fig4a": "field",
        "fig4b": "wavelength",
    }[panel]


# ---------------------------------------------------------------------------
# CSV emission

def _num(x) -> str:
    return f"{float(x):.12g}"


def _rows_for(dataset) -> list[str]:
    if isinstance(dataset, (KerrTrace, WavelengthSweepResult)):
        x, y = (f.name for f in fields(dataset)[:2])
        lines = [f"{x},{y}"]
        lines += [f"{_num(a)},{_num(b)}" for a, b in zip(getattr(dataset, x), getattr(dataset, y))]
        return lines
    if isinstance(dataset, MultiTraceResult):
        names = list(dataset.columns)
        lines = ["t_ps," + ",".join(names)]
        for j, t in enumerate(dataset.t_ps):
            lines.append(_num(t) + "," + ",".join(_num(dataset.columns[n][j]) for n in names))
        return lines
    if isinstance(dataset, (PhaseSweepResult, FieldSweepResult)):
        axis = fields(dataset)[0].name
        lines = [axis + "," + ",".join(f"t={_num(t)}" for t in dataset.t_ps)]
        for a, row in zip(getattr(dataset, axis), dataset.theta_k):
            lines.append(_num(a) + "," + ",".join(_num(v) for v in row))
        return lines
    if isinstance(dataset, (DampedSineFit, TwoGaussianFit, VSystemReport)):
        lines = ["key,value"]
        for f in fields(dataset):
            value = getattr(dataset, f.name)
            if isinstance(value, bool):
                lines.append(f"{f.name},{'true' if value else 'false'}")
            elif value is not None:
                lines.append(f"{f.name},{_num(value)}")
        return lines
    raise TypeError(f"no CSV writer for {type(dataset).__name__}")


def csv_text(dataset) -> str:
    return "\n".join(_rows_for(dataset)) + "\n"


def emit_csv(dataset, destination) -> None:
    """Write a dataset as CSV; destination is a path or a writable file.

    Numeric fields are printed with 12 significant digits and a fixed
    newline convention, so re-running the same configuration yields a
    byte-identical file.
    """
    text = csv_text(dataset)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    Path(destination).write_text(text, encoding="utf-8", newline="\n")


def vsystem_report(cfg: ExperimentConfig):
    return validate_vsystem(cfg.material, cfg.pump, cfg.field)
