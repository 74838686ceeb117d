"""Spin precession and dephasing of the electron-hole pair.

Two engines produce the Kerr-rotation signal theta_K(t) = S_z(t) of the
electron for a stack of N initial states in one call, as an (N, T) array:

* ``kerr_rows_master`` integrates the Lindblad equation for N 4x4 pair
  states with fixed-step RK4 (``evolve_master`` shares its propagators):
  it steps the first B samples and reads every sample as the S_z row,
  carried forward by powers of the one-step propagator, times a stepped
  state; B is isqrt(T - 1) on a uniform grid and T on any other,
* ``kerr_rows_closed_form`` evaluates the analytic solution of the same
  model from N initial electron Bloch vectors.

The ``kerr_trace_*`` functions are the one-trace forms.  The engines are
implemented independently so each can serve as an oracle for the other.

Sense convention: both spins precess about the field axis, and only the
product of (initial transverse spin sign) x (rotation sense) is observable
in S_z.  This package fixes the sense so that for a negative g-factor in a
positive field the D+ pump, excited through the lower-energy hole line,
rises toward +S_z first: a spin started at +y reaches +z after a quarter
period.  Concretely the rotation rate about +x is -omega, with omega the
signed Larmor angular frequency g mu_B B / hbar.  Reversing the field flips
this sense and simultaneously swaps the hole-line assignment, which leaves
every signal unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_EV_PS, MU_B_EV_PER_T
from .errors import StepSizeError
from .polarization import PhotonPolarization
from .quantum import PSD_TOL_PAIR, SIGMA_X, require_density_matrix
from .transfer import SpectralWeights, electron_bloch_hh, electron_marginal_bloch

# The most RK4 substeps in one span, and the most stepped grid intervals
MAX_STEPS = 10 ** 6

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_I16 = np.eye(16, dtype=complex)

# Electron x operator and the hole field-axis operator in the storage basis
# (the hole operator is diagonal there because the basis is its eigenbasis).
_ELECTRON_X = np.kron(SIGMA_X, _I2)
_HOLE_AXIS = np.kron(_I2, np.diag([1.0, -1.0]).astype(complex))
# Electron S_z as a row on the vectorized pair state
_SZ_ROW = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex).reshape(1, 1, 16)


def larmor_omega(g_factor: float, bx_tesla: float) -> float:
    """Signed Larmor angular frequency g mu_B B / hbar in rad/ps."""
    return g_factor * MU_B_EV_PER_T * bx_tesla / HBAR_EV_PS


def quarter_period_ps(omega: float) -> float:
    """Time of a quarter precession turn, (pi/2)/|omega|; inf at zero field."""
    if omega == 0.0:
        return math.inf
    return 0.5 * math.pi / abs(omega)


@dataclass(frozen=True)
class DynamicsParams:
    """Rates and frequencies entering the pair master equation.

    omega_e and omega_lh are signed Larmor angular frequencies (rad/ps);
    gamma_e = 1/T2* and gamma_h = 1/tau_h are pure dephasing rates (1/ps),
    acting in the electron x eigenbasis and the hole storage basis.
    """

    omega_e: float
    omega_lh: float
    gamma_e: float
    gamma_h: float

    def __post_init__(self):
        for name in ("omega_e", "omega_lh", "gamma_e", "gamma_h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.gamma_e < 0.0 or self.gamma_h < 0.0:
            raise ValueError("dephasing rates must be >= 0")


@dataclass(frozen=True)
class KerrTrace:
    """Sampled Kerr-rotation signal theta_K on a strictly increasing time grid."""

    t_ps: np.ndarray
    theta_k: np.ndarray

    def __post_init__(self):
        t = np.array(self.t_ps, dtype=float)  # a copy: the caller's grid stays writeable
        th = np.asarray(self.theta_k, dtype=float)
        if t.ndim != 1 or t.size == 0 or th.shape != t.shape:
            raise ValueError("t_ps and theta_k must be matching non-empty 1d arrays")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        t.flags.writeable = False
        th.flags.writeable = False
        object.__setattr__(self, "t_ps", t)
        object.__setattr__(self, "theta_k", th)


def _max_step_ps(d: DynamicsParams) -> float:
    """Fixed RK4 step bound: resolves the fastest precession, electron or
    hole, and keeps the dissipative eigenvalues inside the stability region."""
    return 0.01 / max(1.0, abs(d.omega_e), abs(d.omega_lh), 0.01 * max(d.gamma_e, d.gamma_h))


def _liouvillian(d: DynamicsParams) -> np.ndarray:
    """16x16 generator acting on the row-major vectorized pair state."""
    # Rotation rates about +x per the module sense convention.
    om_e = -d.omega_e
    om_h = -d.omega_lh
    ham = 0.5 * om_e * _ELECTRON_X + 0.5 * om_h * _HOLE_AXIS
    gen = -1j * (np.kron(ham, _I4) - np.kron(_I4, ham.T))
    gen += 0.5 * d.gamma_e * (np.kron(_ELECTRON_X, _ELECTRON_X.T) - _I16)
    gen += 0.5 * d.gamma_h * (np.kron(_HOLE_AXIS, _HOLE_AXIS.T) - _I16)
    return gen


def _rk4_step_matrix(gen: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 propagator for the linear generator.

    For a linear autonomous system the classical RK4 update is exactly the
    degree-4 Taylor polynomial of exp(h L); evaluating it once as a matrix
    and applying it per step is the same method without the per-step
    right-hand-side calls.
    """
    hL = h * gen
    m = _I16 + 0.25 * hL
    m = _I16 + (hL / 3.0) @ m
    m = _I16 + 0.5 * hL @ m
    m = _I16 + hL @ m
    return m


def _span_propagators(ds, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RK4 propagators of the distinct span lengths, and which one each span uses.

    Returns (props, index): props has shape (n_lengths, len(ds), 16, 16),
    props[j] stacks the rates in ds for the j-th distinct span length, and
    spans[i] uses props[index[i]].  A span is split into equal substeps no
    longer than each rate set's step bound, and an empty span takes zero
    substeps, so its propagator is the identity.  MAX_STEPS caps the substeps
    of one span, and so the depth and rounding of its matrix_power.
    """
    lengths = np.unique(spans)
    index = np.searchsorted(lengths, spans)  # np.unique's return_inverse, without its argsort
    props = np.empty((lengths.size, len(ds), 16, 16), dtype=complex)
    for i, d in enumerate(ds):
        h_max = _max_step_ps(d)
        with np.errstate(over="ignore"):  # an infinite step count is refused below
            steps = np.where(lengths > 0.0, np.maximum(np.ceil(lengths / h_max - 1e-12), 1.0), 0.0)
        if steps.max() > MAX_STEPS:
            raise StepSizeError(f"a span needs {steps.max():.3g} RK4 substeps (limit {MAX_STEPS})")
        gen = _liouvillian(d)
        for p, span, n in zip(props[:, i], lengths.tolist(), steps.tolist()):
            p[...] = np.linalg.matrix_power(_rk4_step_matrix(gen, span / max(n, 1)), int(n))
    return props, index


def evolve_master(rho0: np.ndarray, t_ps: float, d: DynamicsParams) -> np.ndarray:
    """Propagate a pair state for t_ps under precession plus pure dephasing.

    The model is drho/dt = -i[H, rho]/hbar + D_e(rho) + D_h(rho) with the
    electron and hole Zeeman terms along x and pure dephasing channels as in
    :class:`DynamicsParams`.  Dephasing preserves the spin component along
    the field axis and damps the two transverse components at the full rate.
    """
    rho0 = require_density_matrix(rho0, 4, psd_tol=PSD_TOL_PAIR)
    t_ps = float(t_ps)
    if not math.isfinite(t_ps) or t_ps < 0.0:
        raise ValueError("t_ps must be finite and >= 0")
    (prop,), _ = _span_propagators([d], np.array([t_ps]))
    rho = (prop[0] @ rho0.reshape(16)).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    rho.flags.writeable = False
    return rho


def kerr_rows_master(rho0s: np.ndarray, ds, t_grid) -> np.ndarray:
    """theta_K = S_z on t_grid for a stack of N pair states, shape (N, T).

    rho0s has shape (N, 4, 4); ds is a sequence of DynamicsParams, one
    shared by every row or N, one per row.  The grid must be non-negative
    and strictly increasing; propagation starts from t = 0.

    The samples come in J blocks of B.  The states s_k of the first block
    are stepped one propagator product per grid interval, and sample
    jB + k is Re(o_j s_k) in the Heisenberg picture: o_j = o P^(jB) is the
    S_z row o carried forward j blocks by the RK4 propagator P of the last
    span.  The rows take log2(J) products by doubling from o_0 = o,
    (o_m ... o_(2m-1)) = (o_0 ... o_(m-1)) P^(mB), and one real product
    with the s_k gives every sample.  A grid is uniform when every
    |t_k - (t_0 + k h)| <= 4 ulp(t[-1]), with h = (t[-1] - t[0]) / (T - 1);
    then every step after the span 0 -> t_0 takes the nominal h and
    B = isqrt(T - 1).  Any other grid is one block of B = T stepped
    samples (J = 1).  The powers differ from single steps by rounding only
    (about 1e-13 over 40k steps).  The B - 1 stepped intervals, the only
    cost that grows with T, may number at most MAX_STEPS.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or t[0] < 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be a non-empty, non-negative, strictly increasing 1d array")
    spans = np.diff(t, prepend=0.0)
    h = (t[-1] - t[0]) / max(t.size - 1, 1)
    block = t.size
    with np.errstate(over="ignore"):  # spacing(1.8e308) is inf: any grid is uniform
        if np.all(np.abs(t - (t[0] + h * np.arange(t.size))) <= 4.0 * np.spacing(t[-1])):
            spans[1:] = h
            block = max(1, math.isqrt(t.size - 1))
    if block - 1 > MAX_STEPS:
        raise StepSizeError(f"the grid needs {block - 1} stepped intervals (limit {MAX_STEPS})")
    props, index = _span_propagators(ds, spans)

    # (N, 16, 1) column per state, stepped one sample at a time
    vec = np.asarray(rho0s, dtype=complex).reshape(-1, 16, 1)
    states = np.empty((len(vec), 16, block), dtype=complex)
    for k in range(block):
        vec = np.matmul(props[index[k]], vec)
        states[:, :, k] = vec[:, :, 0]
    n_blocks = (t.size - 1) // block + 1
    leap = np.linalg.matrix_power(props[index[-1]], block)
    rows = np.broadcast_to(_SZ_ROW, (len(leap), 1, 16))  # o_0
    while rows.shape[1] < n_blocks:
        rows = np.concatenate((rows, np.matmul(rows, leap)), axis=1)
        leap = np.matmul(leap, leap)
    rows = rows[:, :n_blocks]
    # Re(o s) = Re(o) Re(s) - Im(o) Im(s), one real product; whole blocks, past t[-1]
    theta = np.matmul(np.concatenate((rows.real, -rows.imag), axis=2),
                      np.concatenate((states.real, states.imag), axis=1))
    return theta.reshape(len(vec), -1)[:, : t.size]


def kerr_trace_master(rho0: np.ndarray, d: DynamicsParams, t_grid) -> KerrTrace:
    """Integrate the master equation and sample theta_K = S_z on t_grid
    (see :func:`kerr_rows_master`)."""
    rho0 = require_density_matrix(rho0, 4, psd_tol=PSD_TOL_PAIR)
    return KerrTrace(t_grid, kerr_rows_master(rho0[None], [d], t_grid)[0])


def kerr_rows_closed_form(bloch, ds, t_grid) -> np.ndarray:
    """Analytic theta_K on t_grid, shape (N, T), for N initial electron
    Bloch vectors (N, 3).

    ds is a sequence of DynamicsParams, one shared by every row or N, one
    per row.  The electron precesses about x at rate -omega_e (module sense
    convention) and loses its transverse components at gamma_e:

        theta_K(t) = exp(-gamma_e t) (s_z cos(-omega_e t) + s_y sin(-omega_e t))
    """
    t = np.asarray(t_grid, dtype=float)
    s = np.asarray(bloch, dtype=float).reshape(-1, 3)
    om_rot = -np.array([[x.omega_e] for x in ds])
    gamma = np.array([[x.gamma_e] for x in ds])
    with np.errstate(over="ignore"):  # gamma_e t past the float range: env is 0
        env = np.exp(-gamma * t)
    return env * (s[:, 2:] * np.cos(om_rot * t) + s[:, 1:2] * np.sin(om_rot * t))


def kerr_trace_closed_form(
    pol: PhotonPolarization, w: SpectralWeights, d: DynamicsParams, t_grid
) -> KerrTrace:
    """Analytic theta_K(t) for light-hole excitation.

    The electron starts at Bloch vector (D px, D py, pz) with D the channel
    imbalance of w (:func:`polspin.transfer.electron_marginal_bloch`).  A
    field reversal flips both D and the rotation sense and reproduces the
    identical trace; for H and V pumps py = pz = 0 and the signal vanishes.
    """
    return KerrTrace(t_grid, kerr_rows_closed_form(electron_marginal_bloch(pol, w), [d], t_grid)[0])


def kerr_trace_closed_form_hh(pol: PhotonPolarization, d: DynamicsParams, t_grid) -> KerrTrace:
    """Analytic theta_K(t) for heavy-hole excitation.

    The electron marginal starts at (0, 0, -pz) (see
    :func:`polspin.transfer.excite_hh`), so only the cosine quadrature
    survives and equal-weight circular superpositions give no signal.
    """
    return KerrTrace(t_grid, kerr_rows_closed_form(electron_bloch_hh(pol), [d], t_grid)[0])
