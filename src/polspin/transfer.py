"""Optical selection rules and spectrally selective exciton creation.

Circular pump light creates an electron-hole pair with anti-correlated spin
z-projections: sigma+ makes |up_e, down_h> and sigma- makes |down_e, up_h>.
An in-plane field splits the light-hole doublet into |+x> and |-x>
eigenstates whose transition lines separate in wavelength.  A pump that is
spectrally narrower than this splitting drives a single hole channel, which
hands the full pump superposition to the electron spin as a product state.
A broadband pump drives both channels and entangles electron and hole.

The light-hole x eigenstates are taken as |+-x> = (|down_h> +- |up_h>)/sqrt(2),
so in the pair basis of :mod:`polspin.quantum` a pump (a|sigma+> + b|sigma->)
lands on

    a |up>(|+x> + |-x>)/sqrt(2)  -  b |down>(|+x> - |-x>)/sqrt(2)

with the relative minus sign fixed by the two selection-rule channels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import FWHM_TO_SIGMA, HC_EV_NM, MU_B_EV_PER_T
from .errors import DegenerateWeightsError
from .polarization import PhotonPolarization, resolve_polarization, stokes_of
from .quantum import BlochVector, density_from_ket

MAX_FIELD_TESLA = 20.0
MAX_G_FACTOR = 100.0
# Pump and inhomogeneous line widths (FWHM, nm) the model is meant for.
MIN_PUMP_FWHM_NM = 1e-3
MAX_LINE_FWHM_NM = 100.0

_WAVELENGTH_WINDOW_NM = (700.0, 900.0)

# Raw channel amplitudes below this are treated as a dead pump.
_UNDERFLOW = 1e-300


def check_wavelength(name, value):
    lo, hi = _WAVELENGTH_WINDOW_NM
    if not (lo < value < hi):
        raise ValueError(f"{name} = {value} nm outside the supported window ({lo}, {hi})")


@dataclass(frozen=True)
class MaterialParams:
    """Static sample parameters.

    lambda_lh_nm is the zero-field light-hole transition wavelength; the
    default places the lower-energy Zeeman line at 796.2 nm when the field
    is 7 T.  g_lh is signed; channel_wavelengths turns it into the two
    line positions, with |+x> on the lower-energy line when g_lh * B > 0.
    """

    g_e: float = -0.21
    g_lh: float = -3.5
    t2_star_ps: float = 160.0
    tau_h_ps: float = 1.0
    lambda_lh_nm: float = 795.8378
    lambda_hh_nm: float = 800.8
    inhom_fwhm_nm: float = 0.0

    def __post_init__(self):
        check_wavelength("lambda_lh_nm", self.lambda_lh_nm)
        check_wavelength("lambda_hh_nm", self.lambda_hh_nm)
        for name in ("g_e", "g_lh"):
            if not abs(getattr(self, name)) <= MAX_G_FACTOR:
                raise ValueError(f"|{name}| must be <= {MAX_G_FACTOR}")
        if not all(0.0 < t < math.inf and math.isfinite(1.0 / t)
                   for t in (self.t2_star_ps, self.tau_h_ps)):
            raise ValueError("t2_star_ps and tau_h_ps must be positive and finite, with finite 1/T")
        if not 0.0 <= self.inhom_fwhm_nm <= MAX_LINE_FWHM_NM:
            raise ValueError(f"inhom_fwhm_nm must be in [0, {MAX_LINE_FWHM_NM}]")


@dataclass(frozen=True)
class FieldConfig:
    """In-plane (Voigt) magnetic field, signed, along +x."""

    bx_tesla: float = 7.0

    def __post_init__(self):
        if not math.isfinite(self.bx_tesla) or abs(self.bx_tesla) > MAX_FIELD_TESLA:
            raise ValueError(f"|bx_tesla| must be finite and <= {MAX_FIELD_TESLA}")


@dataclass(frozen=True)
class PumpSpec:
    """Pump pulse: center wavelength, intensity FWHM, polarization; pol is
    derived from pol_name, stored stripped, in resolve_polarization's syntax."""

    center_nm: float = 796.2
    fwhm_nm: float = 0.38
    pol_name: str = "D+"
    pol: PhotonPolarization = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_wavelength("center_nm", self.center_nm)
        if not MIN_PUMP_FWHM_NM <= self.fwhm_nm <= MAX_LINE_FWHM_NM:
            raise ValueError(f"fwhm_nm must be in [{MIN_PUMP_FWHM_NM}, {MAX_LINE_FWHM_NM}]")
        object.__setattr__(self, "pol_name", self.pol_name.strip())
        object.__setattr__(self, "pol", resolve_polarization(self.pol_name))


@dataclass(frozen=True)
class SpectralWeights:
    """Amplitude weights of the |+x> and |-x> hole channels.

    Any non-negative pair is accepted and normalized so that
    w_plus^2 + w_minus^2 = 1.
    """

    w_plus: float
    w_minus: float

    def __post_init__(self):
        wp = float(self.w_plus)
        wm = float(self.w_minus)
        if wp < 0.0 or wm < 0.0 or not (math.isfinite(wp) and math.isfinite(wm)):
            raise ValueError("weights must be finite and >= 0")
        nrm = math.hypot(wp, wm)
        if nrm <= 0.0:
            raise ValueError("weights cannot both be zero")
        object.__setattr__(self, "w_plus", wp / nrm)
        object.__setattr__(self, "w_minus", wm / nrm)

    @property
    def imbalance(self) -> float:
        """D = w_minus^2 - w_plus^2, the channel imbalance in [-1, 1]."""
        return self.w_minus ** 2 - self.w_plus ** 2


def channel_wavelengths(m: MaterialParams, f: FieldConfig) -> tuple[float, float]:
    """(lambda of the |+x> line, lambda of the |-x> line) in nm.

    lambda_lh +- lambda_lh^2 g_lh mu_B B / (2 h c): as in the master engine's
    hole Hamiltonian, E(+x) - E(-x) = -g_lh mu_B B, so |+x> is on the
    lower-energy (longer-wavelength) line when g_lh * B > 0.
    """
    dl = m.lambda_lh_nm ** 2 * (m.g_lh * MU_B_EV_PER_T * f.bx_tesla) / HC_EV_NM
    return m.lambda_lh_nm + 0.5 * dl, m.lambda_lh_nm - 0.5 * dl


def effective_sigma_nm(p: PumpSpec, m: MaterialParams) -> float:
    """Gaussian sigma combining pump bandwidth and inhomogeneous broadening."""
    return math.hypot(p.fwhm_nm, m.inhom_fwhm_nm) * FWHM_TO_SIGMA


def raw_channel_amplitudes(p: PumpSpec, m: MaterialParams, f: FieldConfig) -> tuple[float, float]:
    """Un-normalized Gaussian overlap amplitudes of the two hole channels.

    Each channel sees exp(-(lambda_channel - center)^2 / (2 sigma_eff^2))
    with the channel's own transition wavelength.  The returned pair is
    (|+x> amplitude, |-x> amplitude); values are in [0, 1], and a pump far
    off both lines gives exactly (0.0, 0.0).
    """
    return scan_channel_amplitudes([p.center_nm], p, m, f)[0]


def scan_channel_amplitudes(centers_nm, p: PumpSpec, m: MaterialParams,
                            f: FieldConfig) -> list[tuple[float, float]]:
    """raw_channel_amplitudes with the pump centre moved to each of
    centers_nm (width kept); the caller checks the centres' window."""
    lam_p, lam_m = channel_wavelengths(m, f)
    sig = effective_sigma_nm(p, m)
    den = 2.0 * sig * sig
    return [(math.exp(-((lam_p - c) ** 2) / den), math.exp(-((lam_m - c) ** 2) / den))
            for c in centers_nm]


def spectral_weights(p: PumpSpec, m: MaterialParams, f: FieldConfig) -> SpectralWeights:
    """Normalized channel weights for the configured pump and field."""
    ap, am = raw_channel_amplitudes(p, m, f)
    if ap < _UNDERFLOW and am < _UNDERFLOW:
        raise DegenerateWeightsError(
            f"pump at {p.center_nm} nm has no overlap with either transition line"
        )
    return SpectralWeights(ap, am)


def excite_lh(pol: PhotonPolarization, w: SpectralWeights) -> np.ndarray:
    """Pair state created by light-hole excitation with channel weights w.

    The state is w_plus (a|up> - b|down>)|+x> + w_minus (a|up> + b|down>)|-x>
    for pump amplitudes (a, b); it is normalized automatically because the
    two hole channels are orthogonal.  The electron marginal has Bloch
    vector (D px, D py, pz) where (px, py, pz) is the pump Stokes vector and
    D = w_minus^2 - w_plus^2, so a single-channel pump maps the full pump
    coherence onto the electron while the balanced broadband case (D = 0)
    keeps only the z component.
    """
    a = pol.a_plus
    b = pol.a_minus
    psi = np.array(
        [w.w_plus * a, w.w_minus * a, -w.w_plus * b, w.w_minus * b],
        dtype=complex,
    )
    return density_from_ket(psi)


def broadband_lh_state(pol: PhotonPolarization) -> np.ndarray:
    """Pair state for a pump much broader than the hole splitting (equal weights)."""
    return excite_lh(pol, SpectralWeights(1.0, 1.0))


def excite_hh(pol: PhotonPolarization) -> np.ndarray:
    """Pair state created through the heavy-hole transition.

    Selection rules here are reversed on the electron side: sigma+ makes
    |down_e>|hh_up> and sigma- makes |up_e>|hh_dn>.  The two heavy-hole
    pseudospin states stay degenerate (their in-plane g-factor is near
    zero), the storage basis is the pseudospin z basis itself, and the
    relative phase between the channels is taken as +1.  Because the hole
    states of the two channels are orthogonal, the electron marginal keeps
    no transverse coherence: its Bloch vector is (0, 0, -pz).
    """
    psi = np.array([0.0, pol.a_minus, pol.a_plus, 0.0], dtype=complex)
    return density_from_ket(psi)


@dataclass(frozen=True)
class VSystemReport:
    """Energy-scale audit of the spectrally selective excitation scheme."""

    delta_e_electron_ev: float
    delta_e_pump_ev: float
    delta_e_lh_ev: float
    covers_electron_splitting: bool
    resolves_lh_splitting: bool
    overall_ok: bool


def validate_vsystem(m: MaterialParams, p: PumpSpec, f: FieldConfig) -> VSystemReport:
    """Check the energy hierarchy electron splitting < pump bandwidth < hole splitting.

    The pump must cover both electron Zeeman levels (so the transferred
    superposition stays coherent) while resolving the hole doublet (so only
    one hole channel is driven).
    """
    de_e = abs(m.g_e) * MU_B_EV_PER_T * abs(f.bx_tesla)
    de_lh = abs(m.g_lh) * MU_B_EV_PER_T * abs(f.bx_tesla)
    de_ph = HC_EV_NM / p.center_nm ** 2 * p.fwhm_nm
    covers = de_e < de_ph
    resolves = de_ph < de_lh
    return VSystemReport(
        delta_e_electron_ev=de_e,
        delta_e_pump_ev=de_ph,
        delta_e_lh_ev=de_lh,
        covers_electron_splitting=covers,
        resolves_lh_splitting=resolves,
        overall_ok=covers and resolves,
    )


def electron_marginal_bloch(pol: PhotonPolarization, w: SpectralWeights) -> BlochVector:
    """Closed-form electron Bloch vector right after light-hole excitation."""
    px, py, pz = stokes_of(pol)
    d = w.imbalance
    return BlochVector(d * px, d * py, pz)


def electron_bloch_hh(pol: PhotonPolarization) -> BlochVector:
    """Closed-form electron Bloch vector right after heavy-hole excitation."""
    return BlochVector(0.0, 0.0, -stokes_of(pol).pz)
