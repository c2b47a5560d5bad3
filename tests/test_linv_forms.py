"""Biperiodic profiles, the decomposition formula, and the rectangle oracle."""

import numpy as np
import pytest

from resowave import kernel, linv_forms, reduced
from resowave.errors import ResowaveError
from resowave.linv_forms import BiperiodicMap


def rand_vec(seed, dim, scale=1.0):
    rng = np.random.default_rng(seed)
    return kernel.KernelVector(scale * rng.standard_normal(dim))


def eta_at(v, s):
    j = np.arange(1, len(v) + 1)
    return np.sin(np.outer(np.atleast_1d(s), j)) @ (np.asarray(v.xi) / 2.0)


def test_from_eta_power_pointwise():
    v = rand_vec(seed=3, dim=3)
    rng = np.random.default_rng(4)
    s1 = rng.uniform(0, 2 * np.pi, 40)
    s2 = rng.uniform(0, 2 * np.pi, 40)
    for p in (2, 3, 4):
        m = BiperiodicMap.from_eta_power(v, p)
        expect = (eta_at(v, s1) - eta_at(v, s2)) ** p
        assert np.max(np.abs(m.eval_pairs(s1, s2) - expect)) < 1e-12


def test_decompose_worked_example():
    # xi = (2,): eta = sin s, m = (sin s1 - sin s2)^2
    m = BiperiodicMap.from_eta_power(kernel.KernelVector([2.0]), 2)
    dec = linv_forms.decompose_m(m)
    K = m.K
    assert abs(dec.alpha - 1.0) < 1e-12
    # a(s) = sin^2 s - 1/2, coefficients -1/4 at frequencies +-2
    assert abs(dec.a[K + 2] + 0.25) < 1e-12
    assert abs(dec.a[K - 2] + 0.25) < 1e-12
    assert abs(dec.a[K]) < 1e-14
    # mtilde = -2 sin s1 sin s2: +-1/2 checkerboard on frequencies +-1
    mt = dec.mtilde.c
    assert abs(mt[K + 1, K + 1] - 0.5) < 1e-12
    assert abs(mt[K + 1, K - 1] + 0.5) < 1e-12
    assert abs(mt[K - 1, K + 1] + 0.5) < 1e-12
    assert abs(mt[K - 1, K - 1] - 0.5) < 1e-12
    # primitives: 4 i nu A_nu = a_nu and (4 i k)(4 i l)... for M via mixed derivative
    for nu in range(-K, K + 1):
        if nu != 0:
            assert abs(4.0j * nu * dec.A[K + nu] - dec.a[K + nu]) < 1e-12
    for k in (-1, 1):
        for l in (-1, 1):
            got = 4.0 * (1j * k) * (1j * l) * dec.M.c[K + k, K + l]
            assert abs(got - mt[K + k, K + l]) < 1e-12


def test_decompose_rejects_asymmetric_profiles():
    c = np.zeros((5, 5), dtype=complex)
    c[2 + 1, 2] = 1.0   # pure s1 dependence, no matching s2 marginal
    c[2 - 1, 2] = 1.0
    with pytest.raises(ResowaveError):
        linv_forms.decompose_m(BiperiodicMap(c))


def test_formula_matches_spectral_path():
    for seed, p in ((1, 2), (2, 2), (3, 4)):
        v = rand_vec(seed=seed, dim=3, scale=0.9)
        via_formula = linv_forms.l_inv_quadratic_form(BiperiodicMap.from_eta_power(v, p))
        via_spectral = reduced.linv_qform(v, p)
        assert abs(via_formula - via_spectral) < 1e-9 * max(1.0, abs(via_spectral))


def test_constant_map_value():
    for c in (1.0, -2.5):
        got = linv_forms.l_inv_quadratic_form(BiperiodicMap.constant(c))
        assert abs(got + c**2 * np.pi**4 / 6.0) < 1e-12


def test_kernel_M_oracle_agreement_and_positivity():
    for seed in (5, 6):
        v = rand_vec(seed=seed, dim=2, scale=0.8)
        value, m_min = linv_forms.kernel_M_oracle(v, 2)
        assert abs(value + reduced.linv_qform(v, 2)) < 1e-9 * max(1.0, abs(value))
        assert value > 0.0
        assert m_min > -1e-12


def test_kernel_M_oracle_rejects_odd_power():
    with pytest.raises(ResowaveError):
        linv_forms.kernel_M_oracle(rand_vec(seed=7, dim=2), 3)


def test_closed_form_p2_frozen_and_random():
    expect = 25.0 * np.pi**2 / 32.0 + np.pi**4 / 6.0
    assert abs(linv_forms.closed_form_qform_p2(kernel.KernelVector([2.0])) - expect) < 1e-10
    for seed in (8, 9):
        v = rand_vec(seed=seed, dim=3, scale=0.7)
        got = linv_forms.closed_form_qform_p2(v)
        assert abs(got + reduced.linv_qform(v, 2)) < 1e-9 * max(1.0, got)


def test_power_integral_from_eta_matches_sine_basis():
    v = rand_vec(seed=10, dim=4, scale=0.8)
    for k in (2, 3, 4, 6, 8):
        a = linv_forms.power_integral_from_eta(v, k)
        b = reduced.power_integral(v, k)
        assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def test_kappa_single_mode_exact():
    got = linv_forms.kappa_ratio(kernel.KernelVector([2.0]), 2)
    assert abs(got - 8.0 * np.pi**2 / 9.0) < 1e-10


def test_kappa_bounded_by_pi_squared():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        v = kernel.KernelVector(rng.standard_normal(dim))
        assert linv_forms.kappa_ratio(v, 2) <= np.pi**2 * (1.0 + 1e-9)


def test_square_waves_approach_the_kappa_bound():
    vals = [
        linv_forms.kappa_ratio(kernel.KernelVector(linv_forms.square_wave_vector(top)), 2)
        for top in (1, 5, 21, 41)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.9 * np.pi**2
    assert vals[-1] < np.pi**2
