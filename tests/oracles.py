"""Independent reference implementations used to cross-check the package.

Deliberately written with different algorithms (matrix square roots,
explicit index loops, Pauli traces) so agreement with the library is
evidence, not tautology.
"""
import numpy as np
from scipy.linalg import sqrtm
from scipy.optimize import least_squares

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    _SY.astype(complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def concurrence_sqrtm(rho) -> float:
    """Wootters concurrence via the Hermitian R-matrix construction."""
    rho = np.asarray(rho, dtype=complex)
    yy = np.kron(_SY, _SY)
    rho_tilde = yy @ rho.conj() @ yy
    root = sqrtm(rho)
    r = sqrtm(root @ rho_tilde @ root)
    lam = np.sort(np.linalg.eigvalsh(0.5 * (r + r.conj().T)))[::-1]
    lam = np.clip(lam, 0.0, None)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_pure(rho) -> float:
    """Wootters concurrence of a pure two-qubit state, |<psi| sy x sy |psi*>|.

    Extracts the ket as the dominant eigenvector and refuses visibly mixed
    input; for pure states this defining overlap is exact to machine
    precision, unlike any route through near-zero matrix eigenvalues.
    """
    rho = np.asarray(rho, dtype=complex)
    evals, vecs = np.linalg.eigh(rho)
    if evals[-1] < 1.0 - 1e-9:
        raise ValueError("state is not pure enough for the pure-state formula")
    psi = vecs[:, -1]
    return float(abs(psi @ np.kron(_SY, _SY) @ psi))


def partial_trace_hole_loops(rho) -> np.ndarray:
    """Electron marginal by explicit index summation (electron-major order)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for h in range(2):
                out[i, j] += rho[2 * i + h, 2 * j + h]
    return out


def bloch_pauli_traces(rho):
    """Qubit Bloch vector as the three Pauli expectation values."""
    rho = np.asarray(rho, dtype=complex)
    return tuple(float(np.trace(rho @ p).real) for p in _PAULIS)


def damped_sine_least_squares(t, y, p0):
    """Plain reference for the minimization inside fitting.fit_damped_sine.

    scipy's least_squares(method="lm") from p0 on A exp(-r t)
    cos(omega t - phi0) - y, with its own residual and a (T, 4) Jacobian
    stacked column by column, so every evaluation recomputes the model.
    x_scale="jac" is explicit because scipy < 1.16 defaulted to 1.0.
    Returns the parameters and the residuals there.
    """
    def residual(p):
        a, om, ph, r = p
        return a * np.exp(-t * r) * np.cos(om * t - ph) - y

    def jac(p):
        a, om, ph, r = p
        e = np.exp(-t * r)
        ec = e * np.cos(om * t - ph)
        aes = a * e * np.sin(om * t - ph)
        return np.column_stack((ec, -t * aes, aes, -a * t * ec))

    res = least_squares(residual, p0, jac=jac, method="lm", x_scale="jac",
                        xtol=1e-12, ftol=1e-12, gtol=1e-14, max_nfev=1000)
    return res.x, res.fun


def two_gaussian_least_squares(x, y, p0):
    """Plain reference for the minimization inside fitting.fit_two_gaussian.

    scipy's least_squares(method="lm", jac="2-point") from p0 on the
    equal-width doublet a1 g(c1) + a2 g(c2) - y, with scipy's own forward
    differences.  x_scale="jac" is explicit because scipy < 1.16 defaulted
    to 1.0.  Returns the parameters and the residuals there.
    """
    def residual(p):
        a1, a2, c1, c2, sig = p
        return a1 * np.exp(-((x - c1) ** 2) / (2.0 * sig * sig)) + a2 * np.exp(
            -((x - c2) ** 2) / (2.0 * sig * sig)
        ) - y

    res = least_squares(residual, p0, jac="2-point", method="lm", x_scale="jac",
                        xtol=1e-12, ftol=1e-12, gtol=1e-14, max_nfev=1200)
    return res.x, res.fun
