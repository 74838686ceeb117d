"""Coherent photon-polarization to electron-spin transfer in a gated well.

The package simulates time-resolved Kerr rotation after spectrally
selective excitation of a light-hole doublet in an in-plane field: a
transfer layer maps pump polarization onto an electron-hole pair state,
a dynamics layer precesses and dephases it (closed form or master
equation), and fitting/sweep layers recover the observables an experiment
would report.
"""
from types import ModuleType as _ModuleType

from .config import (
    ExperimentConfig,
    default_config,
    parse_config,
    serialize_config,
)
from .dynamics import (
    DynamicsParams,
    KerrTrace,
    evolve_master,
    kerr_trace_closed_form,
    kerr_trace_closed_form_hh,
    kerr_trace_master,
    larmor_omega,
    quarter_period_ps,
)
from .errors import (
    ConfigError,
    DegenerateWeightsError,
    FitDivergedError,
    InsufficientDataError,
    PolspinError,
    StepSizeError,
    UndefinedPhaseError,
)
from .experiment import (
    FieldSweepResult,
    MultiTraceResult,
    PhaseSweepResult,
    ReversalReport,
    WavelengthSweepResult,
    emit_csv,
    extremum_tracks,
    field_reversal_check,
    figure_panel_config,
    figure_preset,
    run_dataset,
    run_multi_trace,
    run_panel,
    run_sweep,
    run_trace,
    vsystem_report,
)
from .fitting import DampedSineFit, TwoGaussianFit, fit_damped_sine, fit_two_gaussian
from .polarization import (
    PhotonPolarization,
    StokesVector,
    named_polarization,
    phase_of,
    polarization_from_phase,
    resolve_polarization,
    stokes_of,
)
from .quantum import (
    BlochVector,
    bloch_from_density,
    concurrence,
    density_from_bloch,
    density_from_ket,
    partial_trace_hole,
    purity,
)
from .transfer import (
    FieldConfig,
    MaterialParams,
    PumpSpec,
    SpectralWeights,
    broadband_lh_state,
    channel_wavelengths,
    electron_marginal_bloch,
    excite_hh,
    excite_lh,
    spectral_weights,
    validate_vsystem,
)

__version__ = "0.1.0"

# the public names are the ones imported above, less the submodules they bind
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))
