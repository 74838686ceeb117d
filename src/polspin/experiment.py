"""Measurement harness: traces, sweeps, presets and symmetry checks.

Everything here composes the transfer and dynamics layers into the datasets
an experiment would record (traces, trace sets, phase, field and wavelength
sweeps, each run by kind through ``run_dataset``) and into the figure panels
of ``FIGURE_PANELS``.  CSV output is deterministic (fixed column order, fixed
formatting) so identical configurations produce byte-identical files.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    check_samples,
    grid_samples,
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
from .polarization import polarization_from_phase
from .transfer import (
    FieldConfig,
    SpectralWeights,
    effective_sigma_nm,
    electron_bloch_hh,
    electron_marginal_bloch,
    excite_hh,
    excite_lh,
    scan_channel_amplitudes,
    spectral_weights,
    validate_vsystem,
)

# the pump polarizations of a trace set, in column order
MULTI_TRACE_POLS = ("sigma+", "D+", "sigma-", "D-", "H", "V")

REVERSAL_TOL = 1e-12
# every CSV number: 12 significant digits
_NUM = "%.12g"


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

    @property
    def theta_k(self) -> np.ndarray:
        """The columns stacked as rows, shape (len(columns), len(t_ps))."""
        return np.array(list(self.columns.values()))


@dataclass(frozen=True)
class ReversalReport:
    ok: bool
    max_abs_deviation: float


def time_grid(t_max_ps: float, t_step_ps: float) -> np.ndarray:
    """Uniform grid 0, step, ..., n*step <= t_max, of grid_samples samples."""
    return t_step_ps * np.arange(grid_samples(t_max_ps, t_step_ps))


def dynamics_params(cfg: ExperimentConfig, field: FieldConfig) -> DynamicsParams:
    """Rates and frequencies for the configured exciton species in field.

    The heavy hole does not precess in-plane, so in hh mode the hole
    frequency is zero while its dephasing channel stays active.
    """
    m = cfg.material
    omega_lh = larmor_omega(m.g_lh, field.bx_tesla) if cfg.exciton == "lh" else 0.0
    return DynamicsParams(
        omega_e=larmor_omega(m.g_e, field.bx_tesla),
        omega_lh=omega_lh,
        gamma_e=1.0 / m.t2_star_ps,
        gamma_h=1.0 / m.tau_h_ps,
    )


def _theta_rows(cfg: ExperimentConfig, row_fields: list, t: np.ndarray, pols: list,
                weights: list | None = None) -> np.ndarray:
    """theta_K, one row per pump polarization, from one engine call.

    row_fields holds one FieldConfig shared by every row, or one per row (a
    field sweep).  weights gives the light-hole channel weights of each row
    and defaults to the configured pump's in each row's field; heavy-hole
    excitation does not use them.
    """
    ds = [dynamics_params(cfg, f) for f in row_fields]
    master = cfg.engine == "master"
    if cfg.exciton == "hh":
        starts = [excite_hh(p) if master else electron_bloch_hh(p) for p in pols]
    else:
        if weights is None:
            weights = [spectral_weights(cfg.pump, cfg.material, f) for f in row_fields]
            if len(weights) == 1:
                weights *= len(pols)
        excite = excite_lh if master else electron_marginal_bloch
        starts = [excite(p, w) for p, w in zip(pols, weights)]
    engine = kerr_rows_master if master else kerr_rows_closed_form
    return engine(np.array(starts), ds, t)


def run_trace(cfg: ExperimentConfig) -> KerrTrace:
    """Kerr trace for the configured scenario.

    A single trace goes through the public one-trace functions of
    :mod:`polspin.dynamics`; runs of several rows use the batched engines.
    """
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    pol = cfg.pump.pol
    d = dynamics_params(cfg, cfg.field)
    if cfg.exciton == "hh":
        if cfg.engine == "master":
            return kerr_trace_master(excite_hh(pol), d, t)
        return kerr_trace_closed_form_hh(pol, d, t)
    w = spectral_weights(cfg.pump, cfg.material, cfg.field)
    if cfg.engine == "master":
        return kerr_trace_master(excite_lh(pol, w), d, t)
    return kerr_trace_closed_form(pol, w, d, t)


def _phase_sweep(cfg: ExperimentConfig) -> PhaseSweepResult:
    check_samples(cfg, cfg.phase_points)
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    phis = 2.0 * math.pi * np.arange(cfg.phase_points) / cfg.phase_points
    rows = _theta_rows(cfg, [cfg.field], t, [polarization_from_phase(phi) for phi in phis])
    return PhaseSweepResult(phis, t, rows)


def _field_sweep(cfg: ExperimentConfig) -> FieldSweepResult:
    check_samples(cfg, cfg.b_points)
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    bs = np.linspace(cfg.b_min, cfg.b_max, cfg.b_points)
    row_fields = [FieldConfig(float(b)) for b in bs]
    return FieldSweepResult(bs, t, _theta_rows(cfg, row_fields, t, [cfg.pump.pol] * bs.size))


def _wavelength_sweep(cfg: ExperimentConfig) -> WavelengthSweepResult:
    """theta_K(pump wavelength) at a fixed probe delay.

    The per-exciton signal is scaled by the total spectral overlap of the
    pump with the two transition lines (sum of squared raw channel
    amplitudes): detuning the pump off both lines excites fewer excitons,
    which is what turns the scan into two signed peaks rather than a
    saturating step.
    """
    dt = resolve_delta_t_ps(cfg)
    lo, hi = resolve_lambda_window(cfg)
    lams = np.linspace(lo, hi, cfg.lambda_points)
    t = np.array([dt])
    if cfg.exciton == "hh":
        # single unsplit line: one trace scaled by the pump-line overlap
        base = _theta_rows(cfg, [cfg.field], t, [cfg.pump.pol])[0, 0]
        sig = effective_sigma_nm(cfg.pump, cfg.material)
        det = lams - cfg.material.lambda_hh_nm
        return WavelengthSweepResult(lams, base * np.exp(-det * det / (2.0 * sig * sig)), dt)
    # theta_K x overlap is linear in the squared channel amplitudes (the
    # pair state is quadratic in them and the inter-channel coherence holds
    # no electron S_z), so two single-channel rows serve every point
    amps = np.array(scan_channel_amplitudes(lams.tolist(), cfg.pump, cfg.material, cfg.field))
    channels = [SpectralWeights(1.0, 0.0), SpectralWeights(0.0, 1.0)]
    rows = _theta_rows(cfg, [cfg.field], t, [cfg.pump.pol] * 2, channels)
    return WavelengthSweepResult(lams, amps ** 2 @ rows[:, 0], dt)


_SWEEPS = {"phase": _phase_sweep, "field": _field_sweep, "wavelength": _wavelength_sweep}
SWEEP_KINDS = tuple(_SWEEPS)


def run_sweep(kind: str, cfg: ExperimentConfig):
    """Run one of the sweep kinds of SWEEP_KINDS."""
    if kind not in _SWEEPS:
        raise ValueError(f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}")
    return _SWEEPS[kind](cfg)


def run_multi_trace(cfg: ExperimentConfig) -> MultiTraceResult:
    """One trace per polarization of MULTI_TRACE_POLS on the configured grid."""
    check_samples(cfg, len(MULTI_TRACE_POLS))
    t = time_grid(cfg.t_max_ps, cfg.t_step_ps)
    pols = [resolve_polarization(n, cfg.h_axis) for n in MULTI_TRACE_POLS]
    return MultiTraceResult(t, dict(zip(MULTI_TRACE_POLS, _theta_rows(cfg, [cfg.field], t, pols))))


def run_dataset(kind: str, cfg: ExperimentConfig):
    """Run one dataset kind: 'trace', 'multi_trace' or a sweep kind."""
    if kind == "trace":
        return run_trace(cfg)
    if kind == "multi_trace":
        return run_multi_trace(cfg)
    if kind not in SWEEP_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected 'trace', 'multi_trace' or {SWEEP_KINDS}")
    return run_sweep(kind, cfg)


def extremum_tracks(b_grid, n_max: int, g_e: float) -> np.ndarray:
    """Times of the n-th |S_z| alignment, (pi/2 + n pi)/|omega(B)|.

    Returns an array of shape (n_max + 1, len(b_grid)); entries at zero
    field are infinite.
    """
    om = np.abs(larmor_omega(g_e, np.asarray(b_grid, dtype=float)))
    with np.errstate(divide="ignore", over="ignore"):  # zero or tiny field gives inf
        return (0.5 * math.pi + np.arange(n_max + 1)[:, None] * math.pi) / om


def field_reversal_check(cfg: ExperimentConfig, kind: str = "trace") -> ReversalReport:
    """Compare a run of any dataset kind at +B with the identical run at -B.

    Reversing the field swaps the hole-line energy assignment (so the pump
    excites the opposite channel) and flips the precession sense; the two
    effects cancel in theta_K, so the runs must agree in every row.  The -B
    run negates the configured field and the field-sweep range, so a field
    sweep's rows come in reverse order.
    """
    flipped = replace(cfg, field=FieldConfig(-cfg.field.bx_tesla),
                      b_min=-cfg.b_max, b_max=-cfg.b_min)
    a, b = run_dataset(kind, cfg).theta_k, run_dataset(kind, flipped).theta_k
    if kind == "field":
        b = b[::-1]
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0
    return ReversalReport(ok=dev <= REVERSAL_TOL, max_abs_deviation=dev)


# ---------------------------------------------------------------------------
# figure presets

# panel -> (dataset kind, settings that replace figure_preset's): six-polarization
# trace sets (fig2e through the heavy-hole line), then a pump-phase sweep, a field
# sweep long enough for three alignment tracks, and a quarter-period wavelength scan.
FIGURE_PANELS = {
    "fig2c": ("multi_trace", {"t_max_ps": 100.0, "t_step_ps": 0.5}),
    "fig2d": ("multi_trace", {"t_max_ps": 400.0, "t_step_ps": 0.5}),
    "fig2e": ("multi_trace", {"t_max_ps": 100.0, "t_step_ps": 0.5, "exciton": "hh"}),
    "fig3": ("phase", {"t_max_ps": 100.0, "t_step_ps": 0.5}),
    "fig4a": ("field", {"t_max_ps": 440.0, "t_step_ps": 0.5, "b_min": 0.0, "b_max": 7.0,
                        "b_points": 15}),
    "fig4b": ("wavelength", {}),
}


def figure_preset(cfg: ExperimentConfig | None = None) -> ExperimentConfig:
    """Reference scenario for the bundled figure panels: the default
    configuration with 1 nm inhomogeneous broadening."""
    base = cfg if cfg is not None else ExperimentConfig()
    return replace(base, material=replace(base.material, inhom_fwhm_nm=1.0))


def figure_panel_config(panel: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Configuration for one panel of FIGURE_PANELS: its settings on top of
    figure_preset(base); fig2e also tunes the pump to the heavy-hole line."""
    if panel not in FIGURE_PANELS:
        raise ValueError(f"unknown figure panel {panel!r}; expected one of {tuple(FIGURE_PANELS)}")
    cfg = replace(figure_preset(base), **FIGURE_PANELS[panel][1])
    if panel == "fig2e":
        cfg = replace(cfg, pump=replace(cfg.pump, center_nm=cfg.material.lambda_hh_nm))
    return cfg


def figure_panel_kind(panel: str) -> str:
    return FIGURE_PANELS[panel][0]


def run_panel(panel: str, base: ExperimentConfig | None = None):
    """The dataset of one figure panel, built on top of base."""
    cfg = figure_panel_config(panel, base)  # rejects an unknown panel
    return run_dataset(figure_panel_kind(panel), cfg)


# ---------------------------------------------------------------------------
# CSV emission

def _num(x) -> str:
    return _NUM % float(x)


def _table(header: str, *columns) -> list[str]:
    """header, then one line per row of the column-stacked arrays."""
    data = np.column_stack(columns)
    row = ",".join([_NUM] * data.shape[1])
    return [header] + [row % tuple(values) for values in data]


def _rows_for(dataset) -> list[str]:
    if isinstance(dataset, (KerrTrace, WavelengthSweepResult)):
        x, y = (f.name for f in fields(dataset)[:2])
        return _table(f"{x},{y}", getattr(dataset, x), getattr(dataset, y))
    if isinstance(dataset, MultiTraceResult):
        return _table("t_ps," + ",".join(dataset.columns), dataset.t_ps, *dataset.columns.values())
    if isinstance(dataset, (PhaseSweepResult, FieldSweepResult)):
        axis = fields(dataset)[0].name
        header = axis + "," + ",".join(f"t={_num(t)}" for t in dataset.t_ps)
        return _table(header, getattr(dataset, axis), dataset.theta_k)
    if not is_dataclass(dataset) or isinstance(dataset, type):
        raise TypeError(f"no CSV writer for {type(dataset).__name__}")
    # any other result (a fit, a report): one key,value line per field that is set
    lines = ["key,value"]
    for f in fields(dataset):
        value = getattr(dataset, f.name)
        if isinstance(value, bool):
            lines.append(f"{f.name},{'true' if value else 'false'}")
        elif value is not None:
            lines.append(f"{f.name},{_num(value)}")
    return lines


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
