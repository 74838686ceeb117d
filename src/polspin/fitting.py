"""Least-squares extraction of precession and spectral parameters.

Two models cover everything the harness measures:

* a damped sinusoid  A exp(-t/tau) cos(omega t - phi0)  for time traces,
* a pair of equal-width Gaussians for wavelength scans.

Minimization is delegated to scipy's Levenberg-Marquardt driver; the
starting values follow simple deterministic rules documented on each
function so fits are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .constants import HC_EV_NM, MU_B_EV_PER_T
from .errors import FitDivergedError, InsufficientDataError

TWO_PI = 2.0 * math.pi

_XTOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class DampedSineFit:
    """Parameters of A exp(-t/tau) cos(omega t - phi0), amplitude >= 0,
    omega >= 0, phi0 wrapped to [0, 2 pi)."""

    amplitude: float
    omega_rad_per_ps: float
    phi0_rad: float
    tau_ps: float
    rms_residual: float


@dataclass(frozen=True)
class TwoGaussianFit:
    """Two Gaussians with a shared width: amp1 at center1 plus amp2 at
    center2, center1 < center2, sigma > 0.  Amplitudes are signed, and
    separation_nm is center2 - center1.

    degenerate is set when the recovered separation is below sigma/10,
    meaning the two components cannot be distinguished.  g_lh_estimate is
    filled in when a field value is supplied to the fit.
    """

    center1_nm: float
    center2_nm: float
    amp1: float
    amp2: float
    sigma_nm: float
    separation_nm: float
    rms_residual: float
    degenerate: bool
    g_lh_estimate: float | None = None


def _as_clean_1d(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InsufficientDataError("x and y must be matching 1d arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InsufficientDataError("fit input contains non-finite values")
    return x, y


def _run_lm(residual, p0):
    try:
        res = least_squares(
            residual, p0, method="lm", xtol=_XTOL, ftol=_XTOL, gtol=1e-14,
            max_nfev=_MAX_ITER * (len(p0) + 1),
        )
    except Exception as exc:  # singular Jacobian and friends
        raise FitDivergedError(f"least-squares driver failed: {exc}") from exc
    if not np.all(np.isfinite(res.x)):
        raise FitDivergedError("fit produced non-finite parameters")
    return res


def _init_omega(t, y):
    """Frequency start value from the discrete-spectrum peak (parabolic
    refinement of the dominant nonzero FFT bin).

    The mean is removed first so DC leakage cannot masquerade as a slow
    oscillation, and the refinement only applies when the bin is a true
    local peak (otherwise the fitted parabola opens upward and its vertex
    is meaningless).
    """
    n = t.size
    dt = float(np.median(np.diff(t)))
    spec = np.abs(np.fft.rfft(y - np.mean(y)))
    if spec.size < 3:
        return 0.0
    k = 1 + int(np.argmax(spec[1:]))
    shift = 0.0
    if k < spec.size - 1:
        a, b, c = spec[k - 1], spec[k], spec[k + 1]
        if b >= a and b >= c:
            denom = a - 2.0 * b + c
            shift = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
    return TWO_PI * (k + shift) / (n * dt)


def _init_tau(t, y, amp0):
    """Decay start value from a log-linear fit to the envelope of local
    extrema of |y|; falls back to the record length when the envelope is
    unusable."""
    mag = np.abs(y)
    span = float(t[-1] - t[0])
    idx = [
        i
        for i in range(1, t.size - 1)
        if mag[i] >= mag[i - 1] and mag[i] >= mag[i + 1] and mag[i] > 1e-3 * amp0
    ]
    if len(idx) >= 2:
        slope = np.polyfit(t[idx], np.log(mag[idx]), 1)[0]
        if slope < -1e-12:
            return float(min(-1.0 / slope, 100.0 * span))
    return span


def fit_damped_sine(t_ps, theta) -> DampedSineFit:
    """Fit A exp(-t/tau) cos(omega t - phi0) to a sampled trace.

    Start values: omega from the discrete-spectrum peak, tau from the
    log-linear envelope of local extrema, A from max |y|, phi0 from the
    first two samples.  Requires at least 8 samples spanning at least one
    period of the initial frequency; an identically zero trace has no
    defined amplitude and raises FitDivergedError.
    """
    t, y = _as_clean_1d(t_ps, theta)
    if t.size < 8:
        raise InsufficientDataError(f"need >= 8 samples, got {t.size}")
    if np.any(np.diff(t) <= 0.0):
        raise InsufficientDataError("time grid must be strictly increasing")

    amp0 = float(np.max(np.abs(y)))
    if amp0 <= 0.0:
        raise FitDivergedError("trace is identically zero; amplitude indeterminate")

    omega0 = _init_omega(t, y)
    if omega0 <= 0.0 or (t[-1] - t[0]) < TWO_PI / omega0:
        raise InsufficientDataError("trace spans less than one oscillation period")
    tau0 = _init_tau(t, y, amp0)
    c = float(np.clip(y[0] / amp0, -1.0, 1.0))
    s = 1.0 if y[1] >= y[0] else -1.0
    phi0 = math.atan2(s * math.sqrt(1.0 - c * c), c)

    def residual(p):
        a, om, ph, tau = p
        return a * np.exp(-t / tau) * np.cos(om * t - ph) - y

    res = _run_lm(residual, np.array([amp0, omega0, phi0, tau0]))
    a, om, ph, tau = (float(v) for v in res.x)
    if tau <= 0.0:
        raise FitDivergedError(f"fit converged to non-decaying tau = {tau}")
    if a < 0.0:
        a, ph = -a, ph + math.pi
    if om < 0.0:
        om, ph = -om, -ph
    rms = float(np.sqrt(np.mean(res.fun ** 2)))
    return DampedSineFit(a, om, ph % TWO_PI, tau, rms)


def _two_gauss_model(x, p):
    a1, a2, c1, c2, sig = p
    return a1 * np.exp(-((x - c1) ** 2) / (2.0 * sig * sig)) + a2 * np.exp(
        -((x - c2) ** 2) / (2.0 * sig * sig)
    )


def fit_two_gaussian(lambda_nm, theta, b_tesla: float | None = None) -> TwoGaussianFit:
    """Fit two equal-width Gaussians to a wavelength scan.

    Start values come from the signed extrema: the grid maximum and minimum
    locate the two centers and amplitudes, and the width starts at half
    their distance (one eighth of the span when they coincide).  A scan
    that resolves only one line (center separation below sigma / 10, or
    one amplitude collapsing to zero) is reported with the degenerate
    flag set; the separation is then not meaningful.  When b_tesla is
    given, the hole g-factor magnitude is reported as
    (c2 - c1) hc / (lambda_mid^2 mu_B |B|) with lambda_mid the midpoint of
    the fitted centers.
    """
    x, y = _as_clean_1d(lambda_nm, theta)
    if x.size < 10:
        raise InsufficientDataError(f"need >= 10 samples, got {x.size}")
    amp0 = float(np.max(np.abs(y)))
    if amp0 <= 0.0:
        raise FitDivergedError("scan is identically zero; amplitudes indeterminate")

    i_hi = int(np.argmax(y))
    i_lo = int(np.argmin(y))
    c_a, c_b = float(x[i_hi]), float(x[i_lo])
    a_a, a_b = float(y[i_hi]), float(y[i_lo])
    if c_a > c_b:
        c_a, c_b = c_b, c_a
        a_a, a_b = a_b, a_a
    span = float(x[-1] - x[0])
    sig0 = 0.5 * abs(c_b - c_a)
    if sig0 <= 1e-6 * max(span, 1.0):
        sig0 = span / 8.0

    def residual(p):
        return _two_gauss_model(x, p) - y

    res = _run_lm(residual, np.array([a_a, a_b, c_a, c_b, sig0]))
    a1, a2, c1, c2, sig = (float(v) for v in res.x)
    sig = abs(sig)
    if sig <= 0.0:
        raise FitDivergedError("fit collapsed to zero width")
    if min(abs(a1), abs(a2)) <= 1e-6 * max(abs(a1), abs(a2)):
        # one component carries no weight: the data show a single line, so
        # pin the empty component to the occupied center instead of leaving
        # it wherever the optimizer parked it
        c1 = c2 = c1 if abs(a1) >= abs(a2) else c2
    if c1 > c2:
        c1, c2 = c2, c1
        a1, a2 = a2, a1
    degenerate = (c2 - c1) < sig / 10.0
    g_est = None
    if b_tesla is not None and b_tesla != 0.0:
        mid = 0.5 * (c1 + c2)
        g_est = (c2 - c1) * HC_EV_NM / (mid ** 2 * MU_B_EV_PER_T * abs(b_tesla))
    rms = float(np.sqrt(np.mean(res.fun ** 2)))
    return TwoGaussianFit(c1, c2, a1, a2, sig, c2 - c1, rms, degenerate, g_est)
