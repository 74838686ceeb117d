"""Spin precession and dephasing of the electron-hole pair.

Two engines produce the Kerr-rotation signal theta_K(t) = S_z(t) of the
electron for a stack of N initial states in one call, as an (N, T) array:

* ``kerr_rows_master`` integrates the Lindblad equation for N 4x4 pair
  states with fixed-step RK4 (``evolve_master`` shares its propagators),
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
from .quantum import SIGMA_X, require_density_matrix
from .transfer import SpectralWeights, electron_bloch_hh, electron_marginal_bloch

MAX_STEPS = 10 ** 6

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4, dtype=complex)
_I16 = np.eye(16, dtype=complex)

# Electron x operator and the hole field-axis operator in the storage basis
# (the hole operator is diagonal there because the basis is its eigenbasis).
_ELECTRON_X = np.kron(SIGMA_X, _I2)
_HOLE_AXIS = np.kron(_I2, np.diag([1.0, -1.0]).astype(complex))


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
        t = np.asarray(self.t_ps, dtype=float)
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
    h = 0.01
    omega = max(abs(d.omega_e), abs(d.omega_lh))
    if omega != 0.0:
        h = min(h, 0.01 / omega)
    gmax = max(d.gamma_e, d.gamma_h)
    if gmax > 0.0:
        h = min(h, 1.0 / gmax)
    return h


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


def _span_propagators(d: DynamicsParams, spans: np.ndarray) -> list[np.ndarray | None]:
    """RK4 propagator for each span length (None for an empty span).

    A span is split into equal substeps no longer than the step bound, and
    spans of equal length share one propagator matrix.
    """
    h_max = _max_step_ps(d)
    with np.errstate(over="ignore"):  # an infinite step count is refused below
        steps = np.where(spans > 0.0, np.maximum(np.ceil(spans / h_max - 1e-12), 1.0), 0.0)
    if steps.sum() > MAX_STEPS:
        raise StepSizeError(f"propagation needs {steps.sum():.0f} steps (limit {MAX_STEPS})")
    gen = _liouvillian(d)
    props = {span: n for span, n in zip(spans.tolist(), steps.tolist()) if n}
    for span, n in props.items():
        props[span] = np.linalg.matrix_power(_rk4_step_matrix(gen, span / n), int(n))
    return [props.get(span) for span in spans.tolist()]


def evolve_master(rho0: np.ndarray, t_ps: float, d: DynamicsParams) -> np.ndarray:
    """Propagate a pair state for t_ps under precession plus pure dephasing.

    The model is drho/dt = -i[H, rho]/hbar + D_e(rho) + D_h(rho) with the
    electron and hole Zeeman terms along x and pure dephasing channels as in
    :class:`DynamicsParams`.  Dephasing preserves the spin component along
    the field axis and damps the two transverse components at the full rate.
    """
    rho0 = require_density_matrix(rho0, 4, psd_tol=1e-10)
    t_ps = float(t_ps)
    if not math.isfinite(t_ps) or t_ps < 0.0:
        raise ValueError("t_ps must be finite and >= 0")
    (prop,) = _span_propagators(d, np.array([t_ps]))
    rho = rho0.copy() if prop is None else (prop @ rho0.reshape(16)).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    rho.flags.writeable = False
    return rho


# A block stores the N states at _STATES_PER_BLOCK // N grid points, so the
# buffer's size does not grow with the grid.
_STATES_PER_BLOCK = 4096


def kerr_rows_master(rho0s: np.ndarray, d: DynamicsParams, t_grid) -> np.ndarray:
    """theta_K = S_z on t_grid for a stack of N pair states, shape (N, T).

    rho0s has shape (N, 4, 4).  The grid must be non-negative and strictly
    increasing; propagation starts from t = 0.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0 or t[0] < 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be a non-empty, non-negative, strictly increasing 1d array")
    # (N, 16, 1): one 16x16 matrix-vector product per state and step
    stack = np.asarray(rho0s, dtype=complex).reshape(-1, 16, 1)
    theta = np.empty((len(stack), t.size), dtype=float)
    buf = np.empty((max(2, _STATES_PER_BLOCK // max(1, len(stack))), *stack.shape), dtype=complex)
    for i, prop in enumerate(_span_propagators(d, np.diff(t, prepend=0.0))):
        k = i % len(buf)
        if prop is None:
            buf[k] = stack
        else:
            stack = np.matmul(prop, stack, out=buf[k])
        if k == len(buf) - 1 or i == t.size - 1:
            # S_z = Re(rho[0] + rho[5] - rho[10] - rho[15]), every fifth entry
            b = buf[: k + 1, :, ::5, 0]
            theta[:, i - k : i + 1] = (b[..., 0] + b[..., 1] - b[..., 2] - b[..., 3]).real.T
    return theta


def kerr_trace_master(rho0: np.ndarray, d: DynamicsParams, t_grid) -> KerrTrace:
    """Integrate the master equation and sample theta_K = S_z on t_grid
    (see :func:`kerr_rows_master`)."""
    rho0 = require_density_matrix(rho0, 4, psd_tol=1e-10)
    t = np.asarray(t_grid, dtype=float)
    return KerrTrace(t, kerr_rows_master(rho0[None], d, t)[0])


def kerr_rows_closed_form(bloch, d: DynamicsParams, t_grid) -> np.ndarray:
    """Analytic theta_K on t_grid, shape (N, T), for N initial electron
    Bloch vectors (N, 3).

    The electron precesses about x at rate -omega_e (module sense
    convention) and loses its transverse components at gamma_e:

        theta_K(t) = exp(-gamma_e t) (s_z cos(-omega_e t) + s_y sin(-omega_e t))
    """
    t = np.asarray(t_grid, dtype=float)
    s = np.asarray(bloch, dtype=float).reshape(-1, 3)
    om_rot = -d.omega_e
    with np.errstate(over="ignore"):  # gamma_e t past the float range: env is 0
        env = np.exp(-d.gamma_e * t)
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
    t = np.asarray(t_grid, dtype=float)
    return KerrTrace(t, kerr_rows_closed_form(electron_marginal_bloch(pol, w), d, t)[0])


def kerr_trace_closed_form_hh(pol: PhotonPolarization, d: DynamicsParams, t_grid) -> KerrTrace:
    """Analytic theta_K(t) for heavy-hole excitation.

    The electron marginal starts at (0, 0, -pz) (see
    :func:`polspin.transfer.excite_hh`), so only the cosine quadrature
    survives and equal-weight circular superpositions give no signal.
    """
    t = np.asarray(t_grid, dtype=float)
    return KerrTrace(t, kerr_rows_closed_form(electron_bloch_hh(pol), d, t)[0])
