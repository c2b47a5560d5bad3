"""Inverse wave operator and range-equation fixed point."""

import numpy as np
import pytest

from resowave import fields, frequency, kernel, nonlinearity, psolve
from resowave.errors import ResonanceError, ResowaveError


def single_mode(l, j, c=1.0, lt=6, lx=6):
    coeffs = np.zeros((lt + 1, lx))
    coeffs[l, j - 1] = c
    return fields.SpectralField(coeffs)


def kernel_vector(seed, dim, scale):
    rng = np.random.default_rng(seed)
    return kernel.KernelVector(scale * rng.standard_normal(dim))


def test_symbol_single_mode_at_omega_one():
    # At omega = 1 the (2, 1) mode has symbol omega^2 l^2 - j^2 = 3
    out = psolve.apply_L_inv(single_mode(2, 1), 1.0)
    assert abs(out.coeffs[2, 0] - 1.0 / 3.0) < 1e-15


def test_symbol_matches_definition_off_diagonal():
    omega = 1.07
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal((7, 6))
    u = fields.SpectralField(coeffs)
    out = psolve.apply_L_inv(u, omega)
    for l in range(u.lt + 1):
        for j in range(1, u.lx + 1):
            if l == j:
                assert out.coeffs[l, j - 1] == 0.0
            else:
                expect = coeffs[l, j - 1] / (omega**2 * l**2 - j**2)
                assert abs(out.coeffs[l, j - 1] - expect) < 1e-13


def test_diagonal_always_pinned_to_zero():
    out = psolve.apply_L_inv(single_mode(4, 4), 1.3)
    assert np.all(out.coeffs == 0.0)


def test_resonance_raises_with_mode_identity():
    # omega = 1.5 kills the symbol at (l, j) = (2, 3)
    with pytest.raises(ResonanceError):
        psolve.apply_L_inv(single_mode(2, 3), 1.5)
    # an absent mode at the resonance is harmless
    out = psolve.apply_L_inv(single_mode(1, 2), 1.5)
    assert abs(out.coeffs[1, 1] - 1.0 / (1.5**2 - 4.0)) < 1e-15


def test_solve_refuses_resonant_context_and_bad_truncations():
    f = nonlinearity.classify({3: 1.0})
    v = kernel_vector(seed=1, dim=2, scale=0.05)
    res = frequency.FrequencyContext(omega=1.5, eps=0.625, gamma=0.0, L=16)
    with pytest.raises(ResonanceError):
        psolve.solve_P(v, res, f)
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    with pytest.raises(ResowaveError):
        psolve.solve_P(v, ctx, f, lt=1)
    with pytest.raises(ResowaveError):
        psolve.solve_P(v, ctx, f, lt=40)


def test_fixed_point_satisfies_range_equation_componentwise():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    v = kernel_vector(seed=1, dim=3, scale=0.06)
    w, rep = psolve.solve_P(v, ctx, f)
    assert rep.converged
    u = kernel.embed(v) + w
    rhs = fields.apply_nonlinearity(u, f.poly, out_lt=w.lt, out_lx=w.lx)
    worst = 0.0
    for l in range(w.lt + 1):
        for j in range(1, w.lx + 1):
            if l == j:
                continue
            sym = ctx.omega**2 * l**2 - j**2
            worst = max(worst, abs(sym * w.coeffs[l, j - 1] - rhs.coeffs[l, j - 1]))
    assert worst < 1e-12


def test_solution_inherits_even_parity_lattice():
    # for odd f and diagonal v, f(v + w) stays on the l + j even sublattice
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    w, _ = psolve.solve_P(kernel_vector(seed=2, dim=3, scale=0.06), ctx, f)
    for l in range(w.lt + 1):
        for j in range(1, w.lx + 1):
            if (l + j) % 2 == 1:
                # preserved through sampled quadrature, so only to roundoff
                assert abs(w.coeffs[l, j - 1]) < 1e-18


def test_dilated_kernel_keeps_temporal_sublattice():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    xi = np.zeros(4)
    xi[3] = 0.12
    w, _ = psolve.solve_P(kernel.KernelVector(xi), ctx, f)
    rows = np.flatnonzero(np.any(w.coeffs != 0.0, axis=1))
    assert np.all(rows % 4 == 0)


def test_w_scales_cubically_in_v():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    v = kernel_vector(seed=3, dim=2, scale=0.06)
    w1, _ = psolve.solve_P(v, ctx, f)
    half = kernel.KernelVector(0.5 * v.xi)
    w2, _ = psolve.solve_P(half, ctx, f)
    r1 = fields.norms(w1).h1 / fields.norms(kernel.embed(v)).h1 ** 3
    r2 = fields.norms(w2).h1 / fields.norms(kernel.embed(half)).h1 ** 3
    assert abs(r1 - r2) / r1 < 0.05


def test_domain_ratio_monitored_not_fatal():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=16)
    v = kernel_vector(seed=5, dim=2, scale=0.25)
    with pytest.warns(UserWarning, match="contraction not guaranteed"):
        w, rep = psolve.solve_P(v, ctx, f)
    assert rep.converged
    assert not rep.domain_ok
    assert rep.domain_ratio > psolve.DOMAIN_RHO


def test_report_diagnostics_are_consistent():
    f = nonlinearity.classify({2: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(-2e-4), L=20)
    w, rep = psolve.solve_P(kernel_vector(seed=6, dim=2, scale=0.03), ctx, f)
    assert rep.converged
    assert rep.iterations >= 2
    assert rep.final_update <= 1e-12 * max(1.0, rep.w_omega_norm)
    assert 0.0 < rep.contraction_ratio < 1.0
    assert rep.domain_ok
    # the first Picard iterate is already accurate to higher order
    assert rep.first_iterate_gap < 0.2 * rep.w_omega_norm
