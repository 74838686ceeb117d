"""Pump polarization states and their Stokes-vector representation.

A pure polarization is a pair of circular amplitudes (a_plus, a_minus).  Its
Stokes vector is

    px = 2 Re(conj(a_plus) a_minus)
    py = 2 Im(conj(a_plus) a_minus)
    pz = |a_plus|^2 - |a_minus|^2

so sigma+ is the +pz pole and the linear states sit on the equator.  The
family used for phase scans is a_plus = cos(phi/2), a_minus = i sin(phi/2),
which traces the great circle through pz (phi = 0, sigma+) and +py
(phi = pi/2, D+).  H is +px and V is -px; the Kerr signal sees neither.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import UndefinedPhaseError

# Below this transverse Stokes radius the circle phase is considered undefined.
PHASE_RADIUS_TOL = 1e-9

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class PhotonPolarization:
    """Normalized circular amplitudes in canonical global phase.

    The constructor rejects non-normalized input (|a+|^2 + |a-|^2 must be 1
    within 1e-12) and then fixes the global phase so a_plus is real and
    non-negative whenever it is nonzero.  Equality between instances is
    therefore meaningful.
    """

    a_plus: complex
    a_minus: complex

    def __post_init__(self):
        ap = complex(self.a_plus)
        am = complex(self.a_minus)
        if not (cmath.isfinite(ap) and cmath.isfinite(am)):
            raise ValueError("polarization amplitudes must be finite")
        nrm2 = abs(ap) ** 2 + abs(am) ** 2
        if abs(nrm2 - 1.0) > _NORM_TOL:
            raise ValueError(f"amplitudes are not normalized: |a|^2 = {nrm2!r}")
        if ap != 0:
            phase = ap / abs(ap)
            ap = complex(abs(ap))
            am = am * phase.conjugate()
        object.__setattr__(self, "a_plus", ap)
        object.__setattr__(self, "a_minus", am)

    @classmethod
    def from_amplitudes(cls, a_plus, a_minus) -> "PhotonPolarization":
        """Construct from arbitrary nonzero amplitudes, normalizing them."""
        ap = complex(a_plus)
        am = complex(a_minus)
        nrm = math.hypot(abs(ap), abs(am))
        if nrm <= 0.0:
            raise ValueError("cannot normalize a null amplitude pair")
        return cls(ap / nrm, am / nrm)


class StokesVector(NamedTuple):
    px: float
    py: float
    pz: float

    def norm(self) -> float:
        return math.sqrt(self.px ** 2 + self.py ** 2 + self.pz ** 2)


def stokes_of(pol: PhotonPolarization) -> StokesVector:
    """Stokes vector of a pure polarization (unit norm by construction)."""
    cross = pol.a_plus.conjugate() * pol.a_minus
    px = 2.0 * cross.real
    py = 2.0 * cross.imag
    pz = abs(pol.a_plus) ** 2 - abs(pol.a_minus) ** 2
    return StokesVector(px, py, pz)


def polarization_from_phase(phi: float) -> PhotonPolarization:
    """Point on the pz-py great circle at angle phi from sigma+.

    phi is reduced mod 2 pi.  phi = 0 gives sigma+, pi/2 gives D+, pi gives
    sigma- (up to global phase), 3 pi/2 gives D-.
    """
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError("phase must be finite")
    phi = phi % math.tau
    return PhotonPolarization(math.cos(0.5 * phi), 1j * math.sin(0.5 * phi))


_SQ2 = 2.0 ** -0.5

_ALIASES = {
    "σ+": "sigma+",
    "σ-": "sigma-",
    "σ−": "sigma-",
}


# the six reference polarizations by ASCII name; H is the +px linear state
# and V is -px
_NAMED = {
    "sigma+": PhotonPolarization(1.0, 0.0),
    "sigma-": PhotonPolarization(0.0, 1.0),
    "D+": polarization_from_phase(0.5 * math.pi),
    "D-": polarization_from_phase(1.5 * math.pi),
    "H": PhotonPolarization(_SQ2, _SQ2),
    "V": PhotonPolarization(_SQ2, -_SQ2),
}


def named_polarization(name: str) -> PhotonPolarization:
    """One of the six reference polarizations of _NAMED by its ASCII name
    (the Greek sigma symbol is accepted as an alias)."""
    pol = _NAMED.get(_ALIASES.get(name, name))
    if pol is None:
        raise ValueError(f"unknown polarization name {name!r}; expected one of {', '.join(_NAMED)}")
    return pol


def resolve_polarization(spec: str) -> PhotonPolarization:
    """A pump_pol value as a polarization: a name that named_polarization
    knows, phase=RAD or phase_deg=DEG (degrees are converted here)."""
    spec = spec.strip()
    key, _, value = spec.partition("=")
    if key in ("phase", "phase_deg"):
        phi = float(value)
        return polarization_from_phase(math.radians(phi) if key == "phase_deg" else phi)
    return named_polarization(spec)


def phase_of(pol: PhotonPolarization) -> float:
    """Circle phase phi = atan2(py, pz) in [0, 2 pi).

    Raises UndefinedPhaseError when the polarization sits on the +-px axis
    (H or V), where the transverse radius sqrt(py^2 + pz^2) vanishes.
    """
    _, py, pz = stokes_of(pol)
    if math.hypot(py, pz) <= PHASE_RADIUS_TOL:
        raise UndefinedPhaseError(
            "polarization lies on the +-x Stokes axis; circle phase undefined"
        )
    return math.atan2(py, pz) % math.tau
