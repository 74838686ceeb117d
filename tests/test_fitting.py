import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import damped_sine_least_squares
from polspin import fitting
from polspin.constants import HC_EV_NM, MU_B_EV_PER_T
from polspin.errors import FitDivergedError, InsufficientDataError, PolspinError
from polspin.fitting import _damped_sine_jac, fit_damped_sine, fit_two_gaussian


def damped_cos(t, a, om, phi0, tau):
    return a * np.exp(-t / tau) * np.cos(om * t - phi0)


def two_gauss(x, c1, c2, a1, a2, sig):
    return a1 * np.exp(-((x - c1) ** 2) / (2 * sig * sig)) + a2 * np.exp(
        -((x - c2) ** 2) / (2 * sig * sig)
    )


def test_damped_sine_noiseless_round_trip():
    t = np.arange(0.0, 400.0, 0.5)
    y = damped_cos(t, 0.83, 0.13, 2.1, 160.0)
    fit = fit_damped_sine(t, y)
    assert abs(fit.amplitude - 0.83) < 1e-6
    assert abs(fit.omega_rad_per_ps - 0.13) < 1e-8
    assert abs(fit.phi0_rad - 2.1) < 1e-6
    assert abs(fit.tau_ps - 160.0) < 1e-3
    assert fit.rms_residual < 1e-10


@pytest.mark.parametrize("p", [
    (0.83, 0.13, 2.1, 1.0 / 160.0),
    (-0.5, 0.2, 2.0 * math.pi - 1e-3, 1.0 / 80.0),
    (1.2, -0.13, 0.3, 1.0 / 40.0),
    (-2.0, -0.07, 6.28, 1.0 / 300.0),
])
def test_damped_sine_jacobian_matches_central_differences(p):
    # a wrong sign in one column can still converge, only more slowly, so
    # the Jacobian is pinned column by column against the model itself;
    # the fit's 4th parameter is the decay rate r = 1/tau
    def model(t, a, om, phi0, rate):
        return damped_cos(t, a, om, phi0, 1.0 / rate)

    t = np.arange(0.0, 400.0, 0.5)
    p = np.array(p)
    got = _damped_sine_jac(t, p)
    assert got.shape == (t.size, 4)
    for j in range(4):
        h = 1e-6 * max(abs(p[j]), 1.0)
        step = np.zeros(4)
        step[j] = h
        want = (model(t, *(p + step)) - model(t, *(p - step))) / (2.0 * h)
        assert np.linalg.norm(got[:, j] - want) <= 1e-6 * np.linalg.norm(want), j


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.01, 10.0),
    om=st.floats(0.03, 2.0),
    phi0=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    tau=st.floats(20.0, 2000.0),
)
@example(a=1.0, om=0.5, phi0=0.0, tau=20.0)  # the fitted phase lands just below 0
# decays long against the 400 ps record, where a fit in tau rather than
# the rate 1/tau can cross the pole at 1/tau = 0 and end at tau = -1e15
@example(a=0.67, om=1.69, phi0=0.42, tau=800.0)
@example(a=1.0, om=0.13, phi0=2.1, tau=2000.0)
@example(a=1.0, om=0.5, phi0=0.0, tau=5000.0)
def test_damped_sine_noiseless_round_trip_over_a_box(a, om, phi0, tau):
    t = np.arange(0.0, 400.0, 0.5)
    fit = fit_damped_sine(t, damped_cos(t, a, om, phi0, tau))
    assert fit.amplitude >= 0.0 and fit.omega_rad_per_ps >= 0.0
    assert 0.0 <= fit.phi0_rad < 2.0 * math.pi
    assert abs(fit.amplitude - a) <= 1e-9 * a
    assert abs(fit.omega_rad_per_ps - om) <= 1e-9 * om
    assert abs(math.remainder(fit.phi0_rad - phi0, 2.0 * math.pi)) <= 1e-9
    assert abs(fit.tau_ps - tau) <= 1e-9 * tau


def _noisy_trace(seed):
    rng = np.random.default_rng(seed)
    n = 40_001 if seed == 0 else int(rng.integers(50, 4_000))
    t = np.linspace(0.0, 400.0, n)
    clean = damped_cos(t, rng.uniform(0.1, 2.0), rng.uniform(0.05, 1.0),
                       rng.uniform(0.0, 2.0 * math.pi), rng.uniform(20.0, 400.0))
    return t, clean + rng.normal(0.0, rng.uniform(0.001, 0.05), n)


@pytest.mark.parametrize("seed", range(20))
def test_damped_sine_matches_the_least_squares_reference_bit_for_bit(seed):
    # the shared evaluation and the column-major rows must not change one
    # floating-point operation: same MINPACK call, same model arithmetic
    t, y = _noisy_trace(seed)
    x, fvec = damped_sine_least_squares(t, y, fitting._damped_sine_start(t, y))
    want = fitting._damped_sine_result(x, fvec)
    got = fit_damped_sine(t, y)
    assert [v.hex() for v in dataclasses.astuple(got)] == [
        v.hex() for v in dataclasses.astuple(want)]


def test_damped_sine_evaluates_the_model_once_per_requested_point(monkeypatch):
    calls = {"exp": 0, "cos": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, *args, **kwargs):
            calls["exp"] += 1
            return np.exp(*args, **kwargs)

        def cos(self, *args, **kwargs):
            calls["cos"] += 1
            return np.cos(*args, **kwargs)

    points, jacobians = [], []
    model = fitting._DampedSine
    residual, jac_rows = model.residual, model.jac_rows

    def spy_residual(self, p):
        points.append(p.tobytes())
        return residual(self, p)

    def spy_jac_rows(self, p):
        points.append(p.tobytes())
        rows = jac_rows(self, p)
        jacobians.append((rows.shape, rows.flags.c_contiguous))
        return rows

    monkeypatch.setattr(fitting, "np", CountingNumpy())
    monkeypatch.setattr(model, "residual", spy_residual)
    monkeypatch.setattr(model, "jac_rows", spy_jac_rows)
    t, y = _noisy_trace(3)
    fit_damped_sine(t, y)
    assert len(jacobians) > 2 and len(points) > len(set(points))
    assert calls == {"exp": len(set(points)), "cos": len(set(points))}
    assert set(jacobians) == {((4, t.size), True)}


def _fit_from_the_guess(t, y):
    """The reference fit from the plain start rules, or None where it fails."""
    try:
        x, fvec = damped_sine_least_squares(t, y, fitting._damped_sine_guess(t, y))
        return fitting._damped_sine_result(x, fvec) if np.all(np.isfinite(x)) else None
    except PolspinError:
        return None


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1_024, 40_001),
    a=st.floats(0.01, 10.0),
    om=st.floats(0.03, 2.0),
    phi0=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    tau=st.floats(20.0, 2000.0),
    noise=st.floats(0.0, 0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_damped_sine_coarse_start_lands_on_the_fit_from_the_guess(n, a, om, phi0, tau,
                                                                  noise, seed):
    # the coarse stage moves only the start: wherever the full-record fit
    # from the plain guess converges, the fit reaches the same minimum
    t = np.linspace(0.0, 400.0, n)
    y = damped_cos(t, a, om, phi0, tau) + np.random.default_rng(seed).normal(0.0, noise * a, n)
    want = _fit_from_the_guess(t, y)
    assume(want is not None)
    got = fit_damped_sine(t, y)
    assert abs(got.omega_rad_per_ps - want.omega_rad_per_ps) <= 1e-6 * want.omega_rad_per_ps
    assert abs(got.tau_ps - want.tau_ps) <= 1e-6 * want.tau_ps


def test_damped_sine_coarse_start_saves_full_record_jacobians(monkeypatch):
    # a count, not a timing: from the plain guess the 40,001-sample fit
    # asks for 10 full-record Jacobians
    sizes, jacobians = [], []
    model = fitting._DampedSine
    init, jac_rows = model.__init__, model.jac_rows

    def spy_init(self, t, y):
        sizes.append(t.size)
        init(self, t, y)

    def spy_jac_rows(self, p):
        jacobians.append(self.t.size)
        return jac_rows(self, p)

    monkeypatch.setattr(model, "__init__", spy_init)
    monkeypatch.setattr(model, "jac_rows", spy_jac_rows)
    t, y = _noisy_trace(0)
    fit_damped_sine(t, y)
    assert min(sizes) < t.size
    assert jacobians.count(t.size) <= 5
    # a record under 1,024 samples keeps the plain guess, however slow
    # its oscillation against the grid
    sizes.clear()
    t = np.linspace(0.0, 400.0, 801)
    fit_damped_sine(t, damped_cos(t, 0.83, 0.13, 2.1, 160.0))
    assert sizes == [801]


def test_damped_sine_with_seeded_noise():
    rng = np.random.default_rng(7)
    t = np.arange(0.0, 400.0, 0.5)
    clean = damped_cos(t, 1.0, 0.1292733, 0.5 * math.pi, 160.0)
    y = clean + rng.uniform(-0.01, 0.01, t.size)
    fit = fit_damped_sine(t, y)
    assert abs(fit.omega_rad_per_ps - 0.1292733) / 0.1292733 < 1e-3
    assert abs(fit.phi0_rad - 0.5 * math.pi) < 0.01
    assert abs(fit.tau_ps - 160.0) / 160.0 < 0.03
    assert abs(fit.amplitude - 1.0) < 0.01


def test_damped_sine_canonical_ranges():
    t = np.arange(0.0, 300.0, 0.5)
    y = damped_cos(t, 0.6, 0.13, 5.9, 120.0)
    fit = fit_damped_sine(t, y)
    assert fit.amplitude >= 0.0
    assert fit.omega_rad_per_ps >= 0.0
    assert 0.0 <= fit.phi0_rad < 2.0 * math.pi
    assert abs(fit.phi0_rad - 5.9) < 1e-6


def test_damped_sine_zero_trace_diverges():
    t = np.arange(0.0, 50.0, 1.0)
    with pytest.raises(FitDivergedError):
        fit_damped_sine(t, np.zeros_like(t))


def test_damped_sine_growing_trace_diverges():
    # a fitted rate 1/tau <= 0 is no decay time; it must not be reported
    t = np.arange(0.0, 400.0, 0.5)
    with pytest.raises(FitDivergedError, match="non-decaying"):
        fit_damped_sine(t, damped_cos(t, 0.5, 0.13, 1.0, -200.0))


def test_damped_sine_coarse_stage_keeps_the_guess_on_a_growing_record():
    # the coarse fit of a long growing record ends at a rate <= 0, which is
    # no start: the full-record fit begins at the plain guess and diverges
    t = np.arange(0.0, 400.0, 0.01)
    y = damped_cos(t, 0.5, 0.13, 1.0, -200.0)
    assert fitting._damped_sine_start(t, y).tobytes() == fitting._damped_sine_guess(t, y).tobytes()
    with pytest.raises(FitDivergedError, match="non-decaying"):
        fit_damped_sine(t, y)


def test_damped_sine_too_few_samples():
    with pytest.raises(InsufficientDataError):
        fit_damped_sine(np.arange(5.0), np.ones(5))


def test_damped_sine_requires_increasing_grid():
    t = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(InsufficientDataError):
        fit_damped_sine(t, np.sin(t))


def test_damped_sine_rejects_non_finite():
    t = np.arange(0.0, 20.0, 1.0)
    y = np.sin(t)
    y[3] = math.nan
    with pytest.raises(InsufficientDataError):
        fit_damped_sine(t, y)


def test_damped_sine_rejects_unresolvable_frequency():
    # a constant record carries no oscillation the grid can resolve
    t = np.arange(0.0, 11.0, 1.0)
    with pytest.raises(InsufficientDataError):
        fit_damped_sine(t, np.full(t.size, 2.0))


def test_two_gaussian_exact_recovery():
    x = np.linspace(794.3, 797.3, 121)
    y = two_gauss(x, 795.475, 796.2, -0.9, 0.9, 0.32)
    fit = fit_two_gaussian(x, y)
    assert abs(fit.center1_nm - 795.475) < 1e-8
    assert abs(fit.center2_nm - 796.2) < 1e-8
    assert abs(fit.amp1 + 0.9) < 1e-8
    assert abs(fit.amp2 - 0.9) < 1e-8
    assert abs(fit.sigma_nm - 0.32) < 1e-8
    assert not fit.degenerate
    assert fit.g_lh_estimate is None
    assert fit.rms_residual < 1e-10


def test_two_gaussian_g_factor_estimate():
    sep = 0.725
    mid = 795.8378
    x = np.linspace(794.3, 797.3, 161)
    y = two_gauss(x, mid - sep / 2, mid + sep / 2, -0.8, 0.8, 0.3)
    fit = fit_two_gaussian(x, y, b_tesla=7.0)
    want = sep * HC_EV_NM / (mid ** 2 * MU_B_EV_PER_T * 7.0)
    assert fit.g_lh_estimate is not None
    assert abs(fit.g_lh_estimate - want) < 1e-6
    assert abs(want - 3.5027) < 1e-3  # the reference separation maps back to |g| = 3.5


def test_two_gaussian_orders_centers():
    x = np.linspace(-5.0, 5.0, 101)
    y = two_gauss(x, 1.5, -1.5, 1.0, -1.0, 0.5)
    fit = fit_two_gaussian(x, y)
    assert fit.center1_nm < fit.center2_nm
    assert abs(fit.center1_nm + 1.5) < 1e-8
    assert abs(fit.amp1 + 1.0) < 1e-8


def test_two_gaussian_single_peak_flagged_degenerate():
    # one resolvable line (zero-field-like scan) must not come back as a
    # confidently split doublet
    x = np.linspace(-3.0, 3.0, 201)
    y = np.exp(-((x - 0.3) ** 2) / (2.0 * 0.4 ** 2))
    try:
        fit = fit_two_gaussian(x, y)
    except FitDivergedError:
        return
    assert fit.degenerate
    assert abs(fit.center2_nm - fit.center1_nm) < 0.04
    assert abs(max(fit.amp1, fit.amp2, key=abs) - 1.0) < 1e-6
    assert abs(fit.sigma_nm - 0.4) < 1e-6


def test_two_gaussian_too_few_points():
    x = np.linspace(0.0, 1.0, 6)
    with pytest.raises(InsufficientDataError):
        fit_two_gaussian(x, np.ones(6))


def test_two_gaussian_zero_signal_diverges():
    x = np.linspace(0.0, 1.0, 50)
    with pytest.raises(FitDivergedError):
        fit_two_gaussian(x, np.zeros(50))
