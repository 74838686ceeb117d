"""Least-squares extraction of precession and spectral parameters.

Two models cover everything the harness measures:

* a damped sinusoid  A exp(-t/tau) cos(omega t - phi0)  for time traces,
* a pair of equal-width Gaussians for wavelength scans.

Minimization is delegated to scipy's Levenberg-Marquardt driver (MINPACK);
the starting values follow simple deterministic rules documented on each
function so fits are reproducible.  The damped sinusoid is fitted in its
decay rate 1/tau, so decays far longer than the record fit too, with an
analytic Jacobian that shares one exp and one cos with the residual and
reaches MINPACK as column-major rows (see _DampedSine).  On records of
1,024 samples or more its start is first refined by the same fit on a
decimated copy (every step-th sample, at least 32 per guessed period and
at least 512 in all), which leaves the full record fewer iterations; the
full-record fit itself is unchanged.  The two-Gaussian fit keeps forward
differences: its scans are short, and an analytic Jacobian there changed
the single-line (degenerate) result the tests pin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, leastsq

from .constants import HC_EV_NM, MU_B_EV_PER_T
from .errors import FitDivergedError, InsufficientDataError

TWO_PI = 2.0 * math.pi

_XTOL = 1e-12
_GTOL = 1e-14
_MAX_ITER = 200
# the coarse start stage: samples per guessed period and in the record
_COARSE_PER_PERIOD = 32
_COARSE_MIN_SAMPLES = 512


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


def _run_lm(solve):
    """Run solve(), one call into a scipy MINPACK driver that returns
    (parameters, residuals), and report its failures as FitDivergedError:
    whatever the driver raises and non-finite parameters."""
    try:
        x, fvec = solve()
    except Exception as exc:  # singular Jacobian and friends
        raise FitDivergedError(f"least-squares driver failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise FitDivergedError("fit produced non-finite parameters")
    return x, fvec


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


def _init_rate(t, y, amp0):
    """Decay-rate start value from a log-linear fit to the envelope of
    local extrema of |y|; falls back to one over the record length when the
    envelope is unusable."""
    mag = np.abs(y)
    span = float(t[-1] - t[0])
    m = mag[1:-1]
    idx = 1 + np.flatnonzero((m >= mag[:-2]) & (m >= mag[2:]) & (m > 1e-3 * amp0))
    if len(idx) >= 2:
        slope = np.polyfit(t[idx], np.log(mag[idx]), 1)[0]
        if slope < -1e-12:
            return float(max(-slope, 0.01 / span))
    return 1.0 / span


class _DampedSine:
    """Residual A exp(-r t) cos(omega t - phi0) - y and its Jacobian with
    respect to (A, omega, phi0, r), from one model evaluation per point.

    The decay enters through its rate r = 1/tau, which passes smoothly
    through 0 where tau has a pole: a decay long against the record stays
    a small positive rate instead of running off to tau = -1e15.

    MINPACK asks for the Jacobian only at the point whose residual it has
    just evaluated, so the exponential, the phase and its cosine are kept
    for the last parameter vector seen and the Jacobian adds one sine.
    """

    def __init__(self, t, y):
        self.t = t
        self.y = y
        self._neg_t = -t
        self._rows = np.empty((4, t.size))
        self._key = None

    def _evaluate(self, p):
        key = p.tobytes()
        if key != self._key:
            a, om, ph, rate = p
            self._e = np.exp(self._neg_t * rate)
            self._arg = om * self.t - ph
            self._cos = np.cos(self._arg)
            self._ae = a * self._e
            self._key = key

    def residual(self, p):
        self._evaluate(p)
        return self._ae * self._cos - self.y

    def jac_rows(self, p):
        """The four partials as rows of one reused C-contiguous (4, T)
        buffer: MINPACK's column-major Jacobian (leastsq with col_deriv),
        which it copies without a transpose."""
        self._evaluate(p)
        ec, d_om, aes, d_rate = rows = self._rows
        np.multiply(self._e, self._cos, out=ec)
        np.sin(self._arg, out=aes)
        aes *= self._ae
        np.multiply(self._neg_t, aes, out=d_om)
        np.multiply(self.t, -p[0], out=d_rate)
        d_rate *= ec
        return rows

    def solve(self, p0):
        """MINPACK's lmder from p0, with the tolerances, evaluation budget
        and step bound that least_squares(method="lm") passes; returns the
        parameters and the residuals there."""
        x, _, info, message, status = leastsq(
            self.residual, p0, Dfun=self.jac_rows, col_deriv=True, full_output=True,
            xtol=_XTOL, ftol=_XTOL, gtol=_GTOL, maxfev=_MAX_ITER * (len(p0) + 1),
        )
        if status not in (1, 2, 3, 4, 5):  # improper input or a tolerance too small
            raise RuntimeError(message)
        return x, info["fvec"]


def _damped_sine_jac(t, p):
    """Partial derivatives of A exp(-r t) cos(omega t - phi0) with respect
    to (A, omega, phi0, r), one column each."""
    return _DampedSine(t, np.zeros_like(t)).jac_rows(p).T


def _damped_sine_guess(t, y):
    """Start values (A, omega, phi0, r) read off the record: omega from the
    spectrum peak, r from the envelope, A from max |y|, phi0 from the first
    two samples."""
    amp0 = float(np.max(np.abs(y)))
    if amp0 <= 0.0:
        raise FitDivergedError("trace is identically zero; amplitude indeterminate")
    omega0 = _init_omega(t, y)
    if omega0 <= 0.0 or (t[-1] - t[0]) < TWO_PI / omega0:
        raise InsufficientDataError("trace spans less than one oscillation period")
    rate0 = _init_rate(t, y, amp0)
    c = float(np.clip(y[0] / amp0, -1.0, 1.0))
    s = 1.0 if y[1] >= y[0] else -1.0
    phi0 = math.atan2(s * math.sqrt(1.0 - c * c), c)
    return np.array([amp0, omega0, phi0, rate0])


def _damped_sine_start(t, y):
    """Start values (A, omega, phi0, r) for fit_damped_sine: the guess,
    refined on a decimated record as fit_damped_sine describes."""
    p0 = _damped_sine_guess(t, y)
    mean_dt = (t[-1] - t[0]) / (t.size - 1)
    step = min(int(TWO_PI / (p0[1] * _COARSE_PER_PERIOD * mean_dt)),
               t.size // _COARSE_MIN_SAMPLES)
    if step < 2:
        return p0
    try:
        x, _ = _run_lm(lambda: _DampedSine(t[::step], y[::step]).solve(p0))
    except FitDivergedError:
        return p0
    return x if x[3] > 0.0 else p0


def _damped_sine_result(x, fvec) -> DampedSineFit:
    """The fit reported for solution x with residuals fvec: A >= 0,
    omega >= 0 and phi0 in [0, 2 pi) by the model's symmetries."""
    a, om, ph, rate = (float(v) for v in x)
    if rate <= 0.0 or math.isinf(1.0 / rate):
        raise FitDivergedError(f"fit converged to non-decaying rate 1/tau = {rate}")
    if a < 0.0:
        a, ph = -a, ph + math.pi
    if om < 0.0:
        om, ph = -om, -ph
    ph %= TWO_PI
    if ph == TWO_PI:  # a phase just below 0 wraps to 2 pi in floating point
        ph = 0.0
    rms = float(np.sqrt(np.mean(fvec ** 2)))
    return DampedSineFit(a, om, ph, 1.0 / rate, rms)


def fit_damped_sine(t_ps, theta) -> DampedSineFit:
    """Fit A exp(-t/tau) cos(omega t - phi0) to a sampled trace.

    The decay is fitted as the rate r = 1/tau and reported as tau = 1/r,
    so decays far longer than the record fit too; a rate that comes out
    <= 0 (no decay) raises FitDivergedError.  Start values: omega from the
    discrete-spectrum peak, r from the log-linear envelope of local
    extrema, A from max |y|, phi0 from the first two samples.  They are
    then refined by the same fit on every step-th sample, the largest step
    that keeps at least 32 samples per start period and 512 in all; a step
    below 2, which every record under 1,024 samples has, skips this, and a
    coarse fit that fails or does not decay leaves the guess.  Requires at
    least 8 samples spanning at least one period of the initial frequency;
    an identically zero trace has no defined amplitude and raises
    FitDivergedError.
    """
    t, y = _as_clean_1d(t_ps, theta)
    if t.size < 8:
        raise InsufficientDataError(f"need >= 8 samples, got {t.size}")
    if np.any(np.diff(t) <= 0.0):
        raise InsufficientDataError("time grid must be strictly increasing")
    p0 = _damped_sine_start(t, y)
    return _damped_sine_result(*_run_lm(lambda: _DampedSine(t, y).solve(p0)))


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

    def solve():
        p0 = np.array([a_a, a_b, c_a, c_b, sig0])
        res = least_squares(
            residual, p0, jac="2-point", method="lm", xtol=_XTOL, ftol=_XTOL, gtol=_GTOL,
            max_nfev=_MAX_ITER * (len(p0) + 1),
        )
        return res.x, res.fun

    x, fvec = _run_lm(solve)
    a1, a2, c1, c2, sig = (float(v) for v in x)
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
    rms = float(np.sqrt(np.mean(fvec ** 2)))
    return TwoGaussianFit(c1, c2, a1, a2, sig, c2 - c1, rms, degenerate, g_est)
