"""Least-squares extraction of precession and spectral parameters.

Two models cover everything the harness measures:

* a damped sinusoid  A exp(-t/tau) cos(omega t - phi0)  for time traces,
* a pair of equal-width Gaussians for wavelength scans.

Both fits, and the damped sinusoid's coarse start, run MINPACK's lmder
through one call (_run_lm), from start values set by the deterministic
rules documented on each function.  The damped sinusoid is fitted in its
decay rate 1/tau, so decays far longer than the record fit too, with an
analytic Jacobian that shares one exp and one cos with the residual (see
_DampedSine).  On records of 1,024 samples or more its start
is first refined by the same fit on a decimated copy (every step-th
sample, at least 32 per guessed period and at least 512 in all).  The
two-Gaussian fit takes forward differences, which on its short scans pin
the single-line (degenerate) result where an analytic Jacobian moved it;
their step, sqrt(eps) max(1, |p_i|) signed like p_i, is least_squares'
"2-point" rule, kept here so the result no longer depends on the
least_squares defaults scipy changed in 1.16.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

from .constants import HC_EV_NM, MU_B_EV_PER_T
from .errors import FitDivergedError, InsufficientDataError

TWO_PI = 2.0 * math.pi

_XTOL = 1e-12
_GTOL = 1e-14
_MAX_ITER = 200
_FD_STEP = math.sqrt(np.finfo(float).eps)  # forward-difference relative step
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


def _as_clean_1d(x, y, n_min):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InsufficientDataError("x and y must be matching 1d arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InsufficientDataError("fit input contains non-finite values")
    if x.size < n_min:
        raise InsufficientDataError(f"need >= {n_min} samples, got {x.size}")
    return x, y


def _run_lm(residual, p0, jac_rows):
    """MINPACK's lmder from p0 on residual(p), jac_rows(p) giving the
    Jacobian as column-major (n, T) rows, with least_squares(method="lm")'s
    tolerances, evaluation budget and step bound; returns the parameters
    and the residuals there.  A driver error, a status outside 1-5 or
    non-finite parameters raise FitDivergedError.  The last Jacobian is
    kept, as leastsq asks twice for the one at p0."""
    key = rows = None

    def cached_rows(p):
        nonlocal key, rows
        if p.tobytes() != key:
            key, rows = p.tobytes(), jac_rows(p)
        return rows

    try:
        x, _, info, message, status = leastsq(
            residual, p0, Dfun=cached_rows, col_deriv=True, full_output=True,
            xtol=_XTOL, ftol=_XTOL, gtol=_GTOL, maxfev=_MAX_ITER * (len(p0) + 1),
        )
    except Exception as exc:  # singular Jacobian and friends
        raise FitDivergedError(f"least-squares driver failed: {exc}") from exc
    if status not in (1, 2, 3, 4, 5):
        raise FitDivergedError(f"least-squares driver failed: {message}")
    if not np.all(np.isfinite(x)):
        raise FitDivergedError("fit produced non-finite parameters")
    return x, info["fvec"]


def _forward_difference_rows(residual):
    """Jacobian rows of residual as least_squares(jac="2-point") takes them
    since scipy 1.16: step h_i = sqrt(eps) max(1, |p_i|) signed like p_i
    (+ at 0), row i = (residual(p + h_i e_i) - residual(p)) / ((p_i + h_i) - p_i)."""
    def jac_rows(p):
        f0 = residual(p)
        h = _FD_STEP * np.where(p >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(p))
        rows = np.empty((p.size, f0.size))
        for i, row in enumerate(rows):
            q = p.copy()
            q[i] += h[i]
            row[:] = (residual(q) - f0) / (q[i] - p[i])
        return rows
    return jac_rows


def _init_omega(t, y):
    """Frequency start value from the discrete-spectrum peak (parabolic
    refinement of the dominant FFT bin between DC and the last bin).

    The mean is removed first so DC leakage cannot masquerade as a slow
    oscillation, and the refinement only applies when the bin is a true
    local peak (otherwise the fitted parabola opens upward and its vertex
    is meaningless).  The last bin (Nyquist, for an even length) is never
    the peak: at omega = pi/dt the start cos(pi k - pi/2) is 0 at every
    sample, and the fit stays there.  The FFT is zero-padded to the next
    5-smooth length.
    """
    from scipy.fft import next_fast_len
    n = next_fast_len(t.size, True)
    dt = float(np.median(np.diff(t)))
    spec = np.abs(np.fft.rfft(y - np.mean(y), n))
    k = 1 + int(np.argmax(spec[1:-1]))
    a, b, c = spec[k - 1 : k + 2]
    denom = a - 2.0 * b + c
    shift = 0.5 * (a - c) / denom if b >= a and b >= c and denom != 0.0 else 0.0
    return TWO_PI * (k + float(np.clip(shift, -0.5, 0.5))) / (n * dt)


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


def _coarse_step(t, omega):
    """The coarse stage's decimation step for start frequency omega, at least 1."""
    per_period = int(TWO_PI / (omega * _COARSE_PER_PERIOD * ((t[-1] - t[0]) / (t.size - 1))))
    return max(1, min(per_period, t.size // _COARSE_MIN_SAMPLES))


def _damped_sine_guess(t, y):
    """Start values (A, omega, phi0, r) read off the record: omega from the
    spectrum peak, r from the envelope of the coarse stage's samples, A
    from max |y|, phi0 from the first two samples."""
    amp0 = float(np.max(np.abs(y)))
    if amp0 <= 0.0:
        raise FitDivergedError("trace is identically zero; amplitude indeterminate")
    omega0 = _init_omega(t, y)
    if omega0 <= 0.0 or (t[-1] - t[0]) < TWO_PI / omega0:
        raise InsufficientDataError("trace spans less than one oscillation period")
    step = _coarse_step(t, omega0)
    rate0 = _init_rate(t[::step], y[::step], amp0)
    c = float(np.clip(y[0] / amp0, -1.0, 1.0))
    s = 1.0 if y[1] >= y[0] else -1.0
    phi0 = math.atan2(s * math.sqrt(1.0 - c * c), c)
    return np.array([amp0, omega0, phi0, rate0])


def _damped_sine_start(t, y):
    """Start values (A, omega, phi0, r) for fit_damped_sine: the guess,
    refined on a decimated record as fit_damped_sine describes."""
    p0 = _damped_sine_guess(t, y)
    step = _coarse_step(t, p0[1])
    if step < 2:
        return p0
    try:
        coarse = _DampedSine(t[::step], y[::step])
        x, _ = _run_lm(coarse.residual, p0, coarse.jac_rows)
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
    discrete-spectrum peak, r from the log-linear envelope of the local
    extrema of every step-th sample, A from max |y|, phi0 from the first
    two samples, refined by the same fit on every step-th sample: the
    largest step keeping 32 samples per start period and 512 in all.  A
    step below 2 (every record under 1,024 samples) skips this, and a
    coarse fit that fails or does not decay leaves the guess.  Requires at
    least 8 samples spanning at least one period of the initial frequency;
    an identically zero trace has no defined amplitude and raises
    FitDivergedError.
    """
    t, y = _as_clean_1d(t_ps, theta, 8)
    if np.any(np.diff(t) <= 0.0):
        raise InsufficientDataError("time grid must be strictly increasing")
    with np.errstate(over="ignore"):  # a trial step with r < 0 may overflow; MINPACK rejects it
        p0 = _damped_sine_start(t, y)
        model = _DampedSine(t, y)
        return _damped_sine_result(*_run_lm(model.residual, p0, model.jac_rows))


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
    x, y = _as_clean_1d(lambda_nm, theta, 10)
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
        a1, a2, c1, c2, sig = p
        return a1 * np.exp(-((x - c1) ** 2) / (2.0 * sig * sig)) + a2 * np.exp(
            -((x - c2) ** 2) / (2.0 * sig * sig)
        ) - y

    p0 = np.array([a_a, a_b, c_a, c_b, sig0])
    p, fvec = _run_lm(residual, p0, _forward_difference_rows(residual))
    a1, a2, c1, c2, sig = (float(v) for v in p)
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
