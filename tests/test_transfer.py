import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polspin.constants import FWHM_TO_SIGMA, HC_EV_NM, MU_B_EV_PER_T
from polspin.errors import DegenerateWeightsError
from polspin.polarization import named_polarization, polarization_from_phase, stokes_of
from polspin.quantum import bloch_from_density, concurrence, partial_trace_hole
from polspin.transfer import (
    MAX_FIELD_TESLA,
    MAX_G_FACTOR,
    FieldConfig,
    MaterialParams,
    PumpSpec,
    SpectralWeights,
    broadband_lh_state,
    channel_wavelengths,
    effective_sigma_nm,
    electron_marginal_bloch,
    excite_hh,
    excite_lh,
    raw_channel_amplitudes,
    scan_channel_amplitudes,
    spectral_weights,
    validate_vsystem,
)

M = MaterialParams()
F7 = FieldConfig(7.0)
PUMP = PumpSpec()


def expected_splitting_nm(lam, g, b):
    return lam * lam * abs(g) * MU_B_EV_PER_T * abs(b) / HC_EV_NM


def test_line_splitting_at_reference_field():
    lam_p, lam_m = channel_wavelengths(M, F7)
    dl = expected_splitting_nm(M.lambda_lh_nm, M.g_lh, 7.0)
    assert abs((lam_m - lam_p) - dl) < 1e-12
    assert abs(lam_p - (M.lambda_lh_nm - 0.5 * dl)) < 1e-12
    assert abs(lam_m - (M.lambda_lh_nm + 0.5 * dl)) < 1e-12
    # the magnitude itself: about 0.72 nm at 7 T
    assert abs(dl - 0.7244) < 1e-3
    # the default (g_lh B < 0) puts |-x> on the lower-energy (longer-wavelength) line, at the pump
    assert abs(lam_m - PUMP.center_nm) < 1e-4


def test_line_splitting_vanishes_at_zero_field():
    both = (M.lambda_lh_nm, M.lambda_lh_nm)
    assert channel_wavelengths(M, FieldConfig(0.0)) == both
    assert channel_wavelengths(MaterialParams(g_lh=0.0), F7) == both


def test_field_reversal_swaps_energy_assignment():
    plus = channel_wavelengths(M, F7)
    minus = channel_wavelengths(M, FieldConfig(-7.0))
    assert plus[0] != plus[1]
    assert plus == minus[::-1]


@pytest.mark.parametrize("g_lh, bx, state", [
    (-3.5, 7.0, "minus_x"), (-3.5, -7.0, "plus_x"), (3.5, 7.0, "plus_x"), (3.5, -7.0, "minus_x"),
    (-3.5, 0.0, "minus_x"), (3.5, 0.0, "minus_x"), (0.0, 7.0, "minus_x"),
])
def test_the_sign_of_g_lh_times_b_picks_the_lower_energy_state(g_lh, bx, state):
    # state is the hole state on the longer-wavelength line; the master engine's
    # hole Hamiltonian has E(+x) - E(-x) = -g_lh mu_B B, and at g_lh B = 0 the lines coincide
    lam_p, lam_m = channel_wavelengths(MaterialParams(g_lh=g_lh), FieldConfig(bx))
    assert (lam_p > lam_m) == (state == "plus_x")
    assert (lam_p == lam_m) == (g_lh * bx == 0.0)


def ordered_pair_rule(m, f):
    """The rule channel_wavelengths replaced: the wavelength-ordered pair
    lambda_lh -+ dl/2, dl = lambda_lh^2 |g_lh| mu_B |B| / hc, with |+x> on
    the longer-wavelength line iff g_lh * B > 0."""
    dl = m.lambda_lh_nm ** 2 * (abs(m.g_lh) * MU_B_EV_PER_T * abs(f.bx_tesla)) / HC_EV_NM
    shorter, longer = m.lambda_lh_nm - 0.5 * dl, m.lambda_lh_nm + 0.5 * dl
    return (longer, shorter) if m.g_lh * f.bx_tesla > 0.0 else (shorter, longer)


@settings(max_examples=300, deadline=None)
@given(g_lh=st.floats(-MAX_G_FACTOR, MAX_G_FACTOR),
       bx=st.floats(-MAX_FIELD_TESLA, MAX_FIELD_TESLA),
       lam=st.floats(700.0, 900.0, exclude_min=True, exclude_max=True))
@example(g_lh=1e-300, bx=1e-310, lam=795.8378)  # g_lh * B underflows to 0
@example(g_lh=-0.0, bx=-7.0, lam=795.8378)
def test_channel_wavelengths_equal_the_ordered_pair_rule_bit_for_bit(g_lh, bx, lam):
    m, f = MaterialParams(g_lh=g_lh, lambda_lh_nm=lam), FieldConfig(bx)
    assert channel_wavelengths(m, f) == ordered_pair_rule(m, f)


def test_lower_eigenstate_is_no_longer_a_material_field():
    with pytest.raises(TypeError):
        MaterialParams(lower_eigenstate="plus_x")


def test_effective_sigma_combines_widths_in_quadrature():
    m1 = MaterialParams(inhom_fwhm_nm=1.0)
    assert abs(
        effective_sigma_nm(PUMP, m1) - math.hypot(0.38, 1.0) * FWHM_TO_SIGMA
    ) < 1e-15


def test_scan_amplitudes_equal_the_per_centre_formula_bit_for_bit():
    m = MaterialParams(inhom_fwhm_nm=1.0)
    centers = np.linspace(794.3, 797.3, 13).tolist()
    lam_p, lam_m = channel_wavelengths(m, F7)
    sig = effective_sigma_nm(PUMP, m)
    want = [(math.exp(-((lam_p - c) ** 2) / (2.0 * sig * sig)),
             math.exp(-((lam_m - c) ** 2) / (2.0 * sig * sig))) for c in centers]
    assert scan_channel_amplitudes(centers, PUMP, m, F7) == want


def test_channel_ratio_at_reference_point():
    ap, am = raw_channel_amplitudes(PUMP, M, F7)
    # pump sits on the -x line, so that channel dominates
    assert am > 0.999999
    sig = 0.38 * FWHM_TO_SIGMA
    dl = expected_splitting_nm(M.lambda_lh_nm, M.g_lh, 7.0)
    lam_up = M.lambda_lh_nm + 0.5 * dl
    det_plus = (M.lambda_lh_nm - 0.5 * dl) - PUMP.center_nm
    det_minus = lam_up - PUMP.center_nm
    assert abs(ap - math.exp(-det_plus ** 2 / (2 * sig * sig))) < 1e-12
    assert abs(am - math.exp(-det_minus ** 2 / (2 * sig * sig))) < 1e-12
    # the residual leakage into the far channel is a few 1e-5
    assert 3e-5 < ap < 6e-5


def test_detuned_pump_raises_degenerate_weights():
    with pytest.raises(DegenerateWeightsError):
        spectral_weights(PumpSpec(center_nm=750.0), M, F7)


def test_spectral_weights_are_normalized():
    w = SpectralWeights(3.0, 4.0)
    assert abs(w.w_plus - 0.6) < 1e-15
    assert abs(w.w_minus - 0.8) < 1e-15
    assert abs(w.imbalance - 0.28) < 1e-15


def test_broadband_sigma_plus_is_separable():
    rho = broadband_lh_state(named_polarization("sigma+"))
    assert concurrence(rho) < 1e-12
    assert np.allclose(
        bloch_from_density(partial_trace_hole(rho)), (0.0, 0.0, 1.0), atol=1e-12
    )


def test_broadband_d_plus_is_maximally_entangled():
    rho = broadband_lh_state(named_polarization("D+"))
    assert abs(concurrence(rho) - 1.0) < 1e-12
    marg = bloch_from_density(partial_trace_hole(rho))
    assert np.allclose(marg, (0.0, 0.0, 0.0), atol=1e-12)


def test_single_channel_keeps_full_pump_coherence():
    # only the -x channel: the electron inherits the whole Stokes vector
    rho = excite_lh(named_polarization("D+"), SpectralWeights(0.0, 1.0))
    assert np.allclose(
        bloch_from_density(partial_trace_hole(rho)), (0.0, 1.0, 0.0), atol=1e-12
    )
    # only the +x channel flips the transverse components
    rho = excite_lh(named_polarization("D+"), SpectralWeights(1.0, 0.0))
    assert np.allclose(
        bloch_from_density(partial_trace_hole(rho)), (0.0, -1.0, 0.0), atol=1e-12
    )


def test_intermediate_weights_scale_transverse_components():
    rho = excite_lh(named_polarization("D+"), SpectralWeights(0.6, 0.8))
    assert np.allclose(
        bloch_from_density(partial_trace_hole(rho)), (0.0, 0.28, 0.0), atol=1e-12
    )


def test_marginal_formula_against_partial_trace():
    rng = np.random.default_rng(29)
    for _ in range(500):
        pol = polarization_from_phase(rng.uniform(0.0, 2.0 * math.pi))
        chi = rng.uniform(0.0, 0.5 * math.pi)
        w = SpectralWeights(math.cos(chi), math.sin(chi))
        got = bloch_from_density(partial_trace_hole(excite_lh(pol, w)))
        want = electron_marginal_bloch(pol, w)
        assert np.allclose(got, want, atol=1e-10)
        px, py, pz = stokes_of(pol)
        assert np.allclose(want, (w.imbalance * px, w.imbalance * py, pz), atol=1e-12)


def test_heavy_hole_selection_rules():
    sz = bloch_from_density(partial_trace_hole(excite_hh(named_polarization("sigma+"))))
    assert np.allclose(sz, (0.0, 0.0, -1.0), atol=1e-12)
    sz = bloch_from_density(partial_trace_hole(excite_hh(named_polarization("sigma-"))))
    assert np.allclose(sz, (0.0, 0.0, 1.0), atol=1e-12)
    for name in ("D+", "D-"):
        marg = bloch_from_density(partial_trace_hole(excite_hh(named_polarization(name))))
        assert np.allclose(marg, (0.0, 0.0, 0.0), atol=1e-12)


def test_energy_hierarchy_at_reference_field():
    rep = validate_vsystem(M, PUMP, F7)
    assert abs(rep.delta_e_electron_ev - 0.21 * MU_B_EV_PER_T * 7.0) < 1e-18
    assert abs(rep.delta_e_lh_ev - 3.5 * MU_B_EV_PER_T * 7.0) < 1e-18
    assert abs(rep.delta_e_pump_ev - HC_EV_NM / PUMP.center_nm ** 2 * 0.38) < 1e-18
    assert rep.covers_electron_splitting
    assert rep.resolves_lh_splitting
    assert rep.overall_ok
    # the meV ordering that makes the scheme work: 0.085 < 0.74 < 1.42
    assert 8.4e-5 < rep.delta_e_electron_ev < 8.6e-5
    assert 7.3e-4 < rep.delta_e_pump_ev < 7.5e-4
    assert 1.40e-3 < rep.delta_e_lh_ev < 1.43e-3


def test_energy_hierarchy_fails_at_low_field():
    rep = validate_vsystem(M, PUMP, FieldConfig(1.0))
    assert rep.covers_electron_splitting
    assert not rep.resolves_lh_splitting
    assert not rep.overall_ok


def test_material_window_validation():
    with pytest.raises(ValueError):
        MaterialParams(lambda_lh_nm=500.0)
    with pytest.raises(ValueError):
        PumpSpec(center_nm=1000.0)
