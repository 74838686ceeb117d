import math

import numpy as np
import pytest

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
@pytest.mark.parametrize("g_e", [-5.0, -20.0, -50.0])
def test_engines_agree_when_the_electron_precesses_fastest(g_e, bx_tesla):
    d = DynamicsParams(larmor_omega(g_e, bx_tesla), larmor_omega(-3.5, bx_tesla), 1.0 / 160.0, 1.0)
    pol = named_polarization("D+")
    t = np.linspace(0.0, 100.0, 101)
    a = kerr_trace_closed_form(pol, SINGLE, d, t)
    b = kerr_trace_master(excite_lh(pol, SINGLE), d, t)
    assert np.max(np.abs(a.theta_k - b.theta_k)) < 1e-6


def test_batched_master_rows_equal_a_per_state_loop():
    # three states on 3000 samples fill several blocks of stored states
    t = 0.1 * np.arange(3000)
    w = SpectralWeights(0.4, 0.917)
    states = np.array([excite_lh(named_polarization(n), w) for n in ("sigma+", "D+", "H")])
    rows = kerr_rows_master(states, D_REF, t)
    props = _span_propagators(D_REF, np.diff(t, prepend=0.0))
    for rho, row in zip(states, rows):
        vec, want = rho.reshape(16), []
        for prop in props:
            vec = vec if prop is None else prop @ vec
            want.append((vec[0] + vec[5] - vec[10] - vec[15]).real)
        assert np.array_equal(row, want)


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
