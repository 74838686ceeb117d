import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polspin import dynamics
from polspin.constants import HBAR_EV_PS, MU_B_EV_PER_T
from polspin.dynamics import (
    DynamicsParams,
    KerrTrace,
    _span_propagators,
    evolve_master,
    kerr_rows_master,
    kerr_trace_closed_form,
    kerr_trace_closed_form_hh,
    kerr_trace_master,
    larmor_omega,
    quarter_period_ps,
)
from polspin.errors import StepSizeError
from polspin.experiment import time_grid
from polspin.polarization import named_polarization
from polspin.quantum import bloch_from_density, partial_trace_hole, purity
from polspin.transfer import SpectralWeights, broadband_lh_state, excite_hh, excite_lh

D_REF = DynamicsParams(
    omega_e=larmor_omega(-0.21, 7.0),
    omega_lh=larmor_omega(-3.5, 7.0),
    gamma_e=1.0 / 160.0,
    gamma_h=1.0,
)

SINGLE = SpectralWeights(0.0, 1.0)


def undamped(d: DynamicsParams) -> DynamicsParams:
    return DynamicsParams(d.omega_e, d.omega_lh, 0.0, 0.0)


def test_larmor_reference_values():
    assert abs(larmor_omega(-0.21, 7.0) - (-0.21 * MU_B_EV_PER_T * 7.0 / HBAR_EV_PS)) == 0.0
    assert abs(larmor_omega(-0.21, 7.0) + 0.1292733) < 1e-6
    assert abs(larmor_omega(-3.5, 7.0) + 2.1545545) < 1e-6
    assert larmor_omega(-0.21, 0.0) == 0.0


def test_quarter_period_reference_values():
    assert abs(quarter_period_ps(larmor_omega(-0.21, 7.0)) - 12.1509754) < 1e-6
    assert quarter_period_ps(0.0) == math.inf


def test_zero_time_returns_initial_state():
    rho0 = broadband_lh_state(named_polarization("D+"))
    rho = evolve_master(rho0, 0.0, D_REF)
    assert np.allclose(rho, rho0, atol=1e-15)


def test_half_turn_flips_sigma_plus():
    d = undamped(D_REF)
    t_half = math.pi / abs(d.omega_e)
    rho = evolve_master(excite_lh(named_polarization("sigma+"), SINGLE), t_half, d)
    sz = bloch_from_density(partial_trace_hole(rho)).sz
    assert abs(sz + 1.0) < 1e-10


def test_closed_form_reference_points():
    t = np.array([0.0, quarter_period_ps(D_REF.omega_e)])
    sp = kerr_trace_closed_form(named_polarization("sigma+"), SINGLE, D_REF, t)
    assert abs(sp.theta_k[0] - 1.0) < 1e-15
    assert abs(sp.theta_k[1]) < 1e-12  # node at the quarter turn
    dp = kerr_trace_closed_form(named_polarization("D+"), SINGLE, D_REF, t)
    assert abs(dp.theta_k[0]) < 1e-15
    want = math.exp(-t[1] / 160.0)
    assert abs(dp.theta_k[1] - want) < 1e-12  # peak damped only by the envelope
    # D+ rises toward +z first under the package sense convention
    early = kerr_trace_closed_form(named_polarization("D+"), SINGLE, D_REF, np.array([1.0]))
    assert early.theta_k[0] > 0.0


def test_linear_pump_gives_no_signal():
    t = np.linspace(0.0, 100.0, 101)
    for name in ("H", "V"):
        pol = named_polarization(name)
        closed = kerr_trace_closed_form(pol, SpectralWeights(1.0, 1.0), D_REF, t)
        assert np.max(np.abs(closed.theta_k)) == 0.0
        master = kerr_trace_master(broadband_lh_state(pol), D_REF, t)
        assert np.max(np.abs(master.theta_k)) < 1e-12


def test_engines_agree_on_a_generic_scenario():
    pol = named_polarization("D+")
    w = SpectralWeights(0.55, 0.835)
    t = np.linspace(0.0, 50.0, 21)
    a = kerr_trace_closed_form(pol, w, D_REF, t)
    b = kerr_trace_master(excite_lh(pol, w), D_REF, t)
    assert np.max(np.abs(a.theta_k - b.theta_k)) < 1e-9


def test_heavy_hole_closed_form_and_master_agree():
    d = DynamicsParams(D_REF.omega_e, 0.0, D_REF.gamma_e, D_REF.gamma_h)
    t = np.linspace(0.0, 100.0, 41)
    pol = named_polarization("sigma+")
    a = kerr_trace_closed_form_hh(pol, d, t)
    b = kerr_trace_master(excite_hh(pol), d, t)
    assert abs(a.theta_k[0] + 1.0) < 1e-15  # electron starts spin-down
    assert np.max(np.abs(a.theta_k - b.theta_k)) < 1e-9


@pytest.mark.parametrize("bx_tesla", [7.0, 20.0])
@pytest.mark.parametrize("g_e", [-5.0, -20.0, -50.0, -100.0])
def test_engines_agree_when_the_electron_precesses_fastest(g_e, bx_tesla):
    d = DynamicsParams(larmor_omega(g_e, bx_tesla), larmor_omega(-3.5, bx_tesla), 1.0 / 160.0, 1.0)
    pol = named_polarization("D+")
    t = np.linspace(0.0, 100.0, 101)
    a = kerr_trace_closed_form(pol, SINGLE, d, t)
    b = kerr_trace_master(excite_lh(pol, SINGLE), d, t)
    assert np.max(np.abs(a.theta_k - b.theta_k)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    g_e=st.floats(-100.0, 100.0),
    g_lh=st.floats(-100.0, 100.0),
    bx_tesla=st.floats(-20.0, 20.0),
    exciton=st.sampled_from(["lh", "hh"]),
)
@example(g_e=100.0, g_lh=-100.0, bx_tesla=20.0, exciton="lh")
@example(g_e=-100.0, g_lh=100.0, bx_tesla=-20.0, exciton="hh")
def test_engines_agree_over_the_validated_box(g_e, g_lh, bx_tesla, exciton):
    # RK4's phase error, omega_e max_t(t exp(-t / T2*)) (0.01)^4 / 120, is at most 7.9e-7
    d = DynamicsParams(larmor_omega(g_e, bx_tesla), larmor_omega(g_lh, bx_tesla), 1.0 / 160.0, 1.0)
    pol = named_polarization("D+" if exciton == "lh" else "sigma+")
    t = np.linspace(0.0, 100.0, 201)
    if exciton == "lh":
        a, rho = kerr_trace_closed_form(pol, SINGLE, d, t), excite_lh(pol, SINGLE)
    else:
        a, rho = kerr_trace_closed_form_hh(pol, d, t), excite_hh(pol)
    assert np.max(np.abs(a.theta_k - kerr_trace_master(rho, d, t).theta_k)) <= 1e-6


GRID_3000 = 0.1 * np.arange(3000)
GRID_40K = time_grid(400.0, 0.01)
GRID_400 = np.arange(0.0, 400.0 + 0.25, 0.5)
NON_UNIFORM = np.cumsum(np.linspace(0.01, 0.3, 500))
FIELD_PARAMS = [
    DynamicsParams(larmor_omega(-0.21, b), larmor_omega(-3.5, b), 1.0 / 160.0, 1.0)
    for b in np.linspace(-7.0, 7.0, 24)
]


def _lh_states(n=3):
    w = SpectralWeights(0.4, 0.917)
    names = ("sigma+", "D+", "H", "sigma-", "D-", "V")
    return np.array([excite_lh(named_polarization(names[i % 6]), w) for i in range(n)])


def _per_step_rows(states, ds, t, spans=None):
    """Reference: one propagator product per grid interval, over the given
    spans (default: the actual spans of t)."""
    props, index = _span_propagators(ds, np.diff(t, prepend=0.0) if spans is None else spans)
    vec, rows = states.reshape(-1, 16, 1).astype(complex), []
    for j in index:
        vec = np.matmul(props[j], vec)
        rows.append((vec[:, 0, 0] + vec[:, 5, 0] - vec[:, 10, 0] - vec[:, 15, 0]).real)
    return np.array(rows).T


def test_batched_master_rows_equal_a_per_state_loop():
    # shared and per-row rates; uniform grids (strided) and a non-uniform one
    states = _lh_states()
    for t in (GRID_3000, GRID_40K, NON_UNIFORM):
        for ds in ([D_REF], FIELD_PARAMS[:3]):
            rows = kerr_rows_master(states, ds, t)
            for i, (rho, row) in enumerate(zip(states, rows)):
                one = kerr_rows_master(rho[None], [ds[i % len(ds)]], t)[0]
                assert np.array_equal(row, one)


@pytest.mark.parametrize(
    "t, ds, n",
    [
        (GRID_40K, [D_REF], 3),
        (GRID_400, [D_REF], 3),
        (GRID_400, FIELD_PARAMS, 24),
        ([0.0], [D_REF], 3),
        ([2.5], [D_REF], 3),
        ([0.0, 0.5], [D_REF], 3),
        ([0.0, 0.5, 1.0], [D_REF], 3),
        (np.linspace(5.0, 50.0, 301), [D_REF], 3),
    ],
    ids=["40k", "grid400", "24 fields", "one sample", "one sample after 0", "two samples",
         "three samples", "starts after 0"],
)
def test_strided_rows_match_the_per_step_product(t, ds, n):
    t = np.asarray(t)
    states = _lh_states(n)
    got = kerr_rows_master(states, ds, t)
    assert got.shape == (n, t.size)
    assert np.max(np.abs(got - _per_step_rows(states, ds, t))) <= 1e-12


def test_non_uniform_grid_runs_the_per_step_product():
    # one sample of a uniform grid moved by 1e-9 ps is enough to leave the strided path
    jittered = GRID_3000.copy()
    jittered[1500] += 1e-9
    states = _lh_states()
    for t in (NON_UNIFORM, jittered):
        for ds in ([D_REF], FIELD_PARAMS[:3]):
            assert np.array_equal(kerr_rows_master(states, ds, t), _per_step_rows(states, ds, t))


@settings(max_examples=30, deadline=None)
@given(
    n_samples=st.integers(1, 5_000),
    t0=st.floats(0.0, 100.0),
    h=st.floats(0.001, 0.5),
    n_states=st.integers(1, 4),
    per_row=st.booleans(),
)
@example(n_samples=1, t0=0.0, h=0.01, n_states=2, per_row=False)
@example(n_samples=2, t0=3.0, h=0.01, n_states=2, per_row=True)
@example(n_samples=4_160, t0=0.0, h=0.01, n_states=1, per_row=False)  # 65 full blocks of 64
@example(n_samples=4_097, t0=0.5, h=0.01, n_states=3, per_row=True)  # last block: 1 sample
@example(n_samples=5_000, t0=100.0, h=0.5, n_states=4, per_row=True)
# spans of 7 lengths: about 1.0e-12 from an actual-span product, 5e-14 from a nominal one
@example(n_samples=2_949, t0=19.0, h=0.0511434902559278, n_states=1, per_row=False)
def test_heisenberg_rows_match_the_per_step_product(n_samples, t0, h, n_states, per_row):
    # uniform grids of any length and start, full or partial last blocks,
    # shared or per-row rates.  The engine steps every interval after the
    # first by the nominal span (t[-1] - t[0]) / (T - 1), and so does the
    # reference; test_strided_rows_match_the_per_step_product checks the
    # engine against the actual spans
    t = np.linspace(t0, t0 + h * (n_samples - 1), n_samples)
    nominal = np.full(n_samples, (t[-1] - t[0]) / max(n_samples - 1, 1))
    nominal[0] = t[0]
    states = _lh_states(n_states)
    ds = FIELD_PARAMS[:n_states] if per_row else [D_REF]
    got = kerr_rows_master(states, ds, t)
    assert got.shape == (n_states, n_samples)
    assert np.max(np.abs(got - _per_step_rows(states, ds, t, nominal))) <= 1e-12


def test_master_trace_memory_peak_stays_within_seven_thetas():
    # one 999,001-sample trace, one RK4 substep per 0.004 ps sample
    t = 0.004 * np.arange(999_001)
    rho = excite_lh(named_polarization("D+"), SINGLE)
    tracemalloc.start()
    try:
        trace = kerr_trace_master(rho, D_REF, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * trace.theta_k.nbytes


def test_step_limit_caps_the_substeps_of_one_span(monkeypatch):
    # each 0.05 ps span of D_REF takes 11 RK4 substeps; the 17-sample grid steps 3 intervals
    t = 0.05 * np.arange(17)
    states = _lh_states(2)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 11)
    kerr_rows_master(states, [D_REF, D_REF], t)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    with pytest.raises(StepSizeError, match="a span needs 11 RK4 substeps"):
        kerr_rows_master(states, [D_REF], t)


def test_step_limit_caps_the_stepped_intervals_of_a_non_uniform_grid(monkeypatch):
    # a jittered grid is one block of T = 3000 stepped samples: 2,999 stepped intervals
    jittered = GRID_3000.copy()
    jittered[1500] += 1e-9
    states = _lh_states(1)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2999)
    kerr_rows_master(states, [D_REF], jittered)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2998)
    with pytest.raises(StepSizeError, match="2999 stepped intervals"):
        kerr_rows_master(states, [D_REF], jittered)


def test_master_preserves_trace_and_hermiticity():
    rho0 = excite_lh(named_polarization("D+"), SpectralWeights(0.3, 0.954))
    rho = evolve_master(rho0, 100.0, D_REF)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_undamped_evolution_keeps_purity():
    rho0 = excite_lh(named_polarization("D+"), SpectralWeights(0.6, 0.8))
    rho = evolve_master(rho0, 200.0, undamped(D_REF))
    assert abs(purity(rho) - 1.0) < 1e-8


def test_dephasing_reduces_purity():
    rho0 = excite_lh(named_polarization("D+"), SINGLE)
    rho = evolve_master(rho0, 50.0, D_REF)
    assert purity(rho) < 0.9


def test_hole_parameters_do_not_leak_into_theta():
    pol = named_polarization("D+")
    w = SpectralWeights(0.4, 0.917)
    t = np.linspace(0.0, 80.0, 17)
    ref = None
    for gamma_h in (0.0, 1.0, 100.0):
        for omega_lh in (0.0, 2.1545545, -2.1545545):
            d = DynamicsParams(D_REF.omega_e, omega_lh, D_REF.gamma_e, gamma_h)
            th = kerr_trace_master(excite_lh(pol, w), d, t).theta_k
            if ref is None:
                ref = th
            else:
                assert np.max(np.abs(th - ref)) < 1e-9


def test_step_budget_is_enforced():
    with pytest.raises(StepSizeError):
        kerr_trace_master(
            broadband_lh_state(named_polarization("D+")),
            D_REF,
            np.array([0.0, 2.0e4]),
        )


def test_kerr_trace_validates_grid():
    with pytest.raises(ValueError):
        KerrTrace(np.array([0.0, 1.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        kerr_trace_master(
            broadband_lh_state(named_polarization("D+")),
            D_REF,
            np.array([-1.0, 1.0]),
        )


def test_dynamics_params_validation():
    with pytest.raises(ValueError):
        DynamicsParams(0.1, 0.0, -0.01, 0.0)
    with pytest.raises(ValueError):
        DynamicsParams(math.nan, 0.0, 0.0, 0.0)
