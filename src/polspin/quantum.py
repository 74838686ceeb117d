"""Density-matrix helpers for the electron spin and the electron-hole pair.

Pair states live in a 4x4 space ordered electron-major with the hole kept in
its in-plane field eigenbasis:

    {|up, +x>, |up, -x>, |down, +x>, |down, -x>}

Bloch components are the usual Pauli expectation values (sx, sy, sz) =
(tr rho sx, tr rho sy, tr rho sz), so the ket (|up> + i|down>)/sqrt(2) sits
at +y on the Bloch sphere.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITICITY_TOL = 1e-9
TRACE_TOL = 1e-9
PSD_TOL_PAIR = 1e-10


class BlochVector(NamedTuple):
    sx: float
    sy: float
    sz: float

    def norm(self) -> float:
        return math.sqrt(self.sx ** 2 + self.sy ** 2 + self.sz ** 2)


def require_density_matrix(rho, dim, psd_tol=None):
    """Validate shape, Hermiticity and unit trace; optionally positivity.

    Returns the input as a complex ndarray.  Raises ValueError on violation.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density matrix contains non-finite entries")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 within tolerance")
    if psd_tol is not None:
        low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        if low < -psd_tol:
            raise ValueError(f"density matrix has eigenvalue {low} below -{psd_tol}")
    return rho


def _frozen(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def bloch_from_density(rho) -> BlochVector:
    """Bloch vector of a qubit density matrix.

    Rejects non-Hermitian or non-unit-trace input (tolerance 1e-9).
    """
    rho = require_density_matrix(rho, 2)
    sx = 2.0 * rho[0, 1].real
    sy = 2.0 * rho[1, 0].imag
    sz = (rho[0, 0] - rho[1, 1]).real
    return BlochVector(float(sx), float(sy), float(sz))


def density_from_bloch(b) -> np.ndarray:
    """Qubit density matrix (I + s . sigma)/2 for a Bloch vector with |s| <= 1."""
    sx, sy, sz = (float(v) for v in b)
    if sx * sx + sy * sy + sz * sz > 1.0 + 1e-12:
        raise ValueError("Bloch vector lies outside the unit ball")
    rho = 0.5 * (np.eye(2, dtype=complex) + sx * SIGMA_X + sy * SIGMA_Y + sz * SIGMA_Z)
    return _frozen(rho)


def density_from_ket(psi) -> np.ndarray:
    """Projector |psi><psi| for a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    nrm2 = float(np.vdot(psi, psi).real)
    if nrm2 <= 0.0:
        raise ValueError("state vector has zero norm")
    return _frozen(np.outer(psi, psi.conj()) / nrm2)


def partial_trace_hole(rho) -> np.ndarray:
    """Electron marginal of a pair state, tracing out the hole factor."""
    rho = require_density_matrix(rho, 4, psd_tol=PSD_TOL_PAIR)
    reduced = np.einsum("ihjh->ij", rho.reshape(2, 2, 2, 2))
    return _frozen(reduced)


def purity(rho) -> float:
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Factors rho = X X^dag from its spectral decomposition and takes the
    singular values l1 >= l2 >= l3 >= l4 of the complex symmetric matrix
    X^T (sy x sy) X; the concurrence is max(0, l1 - l2 - l3 - l4).  These
    singular values equal the usual square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), but computing them directly keeps full
    precision for pure states, where three of them vanish and the
    square-then-sqrt route loses half the digits.  The result is
    basis-safe because relabeling either factor is a local unitary,
    which leaves the concurrence unchanged.
    """
    rho = require_density_matrix(rho, 4, psd_tol=PSD_TOL_PAIR)
    yy = np.kron(SIGMA_Y, SIGMA_Y)
    evals, vecs = np.linalg.eigh(rho)
    x = vecs * np.sqrt(np.clip(evals, 0.0, None))
    roots = np.linalg.svd(x.T @ yy @ x, compute_uv=False)
    return float(max(0.0, 2.0 * roots[0] - roots.sum()))
