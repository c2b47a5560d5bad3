"""Reduced functional, its gradient, and the case-resolved leading term G."""

import numpy as np
import pytest

from resowave import fields, frequency, kernel, linv_forms, nonlinearity, psolve, reduced
from resowave.errors import ResowaveError


def quad_grid(nt=256, ngl=96):
    """Trapezoid in t (periodic, spectral) crossed with Gauss-Legendre in x."""
    t = 2.0 * np.pi * np.arange(nt) / nt
    xg, wg = np.polynomial.legendre.leggauss(ngl)
    x = 0.5 * np.pi * (xg + 1.0)
    wx = 0.5 * np.pi * wg
    return t, x, (2.0 * np.pi / nt), wx


def quad_integral(vals, wt, wx):
    return float(wt * np.sum(vals @ wx))


def rand_vec(seed, dim, scale):
    rng = np.random.default_rng(seed)
    return kernel.KernelVector(scale * rng.standard_normal(dim))


def test_power_integral_against_quadrature():
    v = rand_vec(seed=7, dim=4, scale=0.8)
    t, x, wt, wx = quad_grid()
    vals = fields.eval_field(kernel.embed(v), t, x)
    for k in (2, 3, 4, 6):
        assert abs(reduced.power_integral(v, k) - quad_integral(vals**k, wt, wx)) < 1e-10


def torus_power_integral(v, k):
    return fields.integrate_poly(kernel.embed(v), [0.0] * k + [1.0])


def torus_power_gradient(v, k):
    power = fields.apply_nonlinearity(
        kernel.embed(v), [0.0] * (k - 1) + [1.0], out_lt=len(v), out_lx=len(v)
    )
    return k * 0.5 * np.pi**2 * fields.diagonal_of(power)


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_power_integral_matches_torus_path(dim):
    rng = np.random.default_rng(40 + dim)
    for n in (1, 3):
        v = kernel.rescale(kernel.KernelVector(rng.standard_normal(dim)), n)
        for k in range(2, 7):
            want = torus_power_integral(v, k)
            scale = 2.0 * np.pi**2 * np.sum(np.abs(v.xi)) ** k
            assert abs(reduced.power_integral(v, k) - want) <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_power_gradient_matches_projection_diagonal(dim):
    rng = np.random.default_rng(50 + dim)
    for n in (1, 2):
        v = kernel.rescale(kernel.KernelVector(rng.standard_normal(dim)), n)
        for k in range(2, 7):
            got = reduced.power_integral(v, k, grad=True)
            want = torus_power_gradient(v, k)
            scale = k * 2.0 * np.pi**2 * np.sum(np.abs(v.xi)) ** (k - 1)
            assert got.shape == (len(v),)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_power_gradient_matches_finite_differences():
    v = rand_vec(seed=37, dim=4, scale=0.7)
    h = 1e-6
    for k in (2, 3, 4, 5):
        g = reduced.power_integral(v, k, grad=True)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (
                reduced.power_integral(kernel.KernelVector(v.xi + e), k)
                - reduced.power_integral(kernel.KernelVector(v.xi - e), k)
            ) / (2 * h)
            assert abs(fd - g[i]) < 1e-7 * max(1.0, abs(g[i]))


def test_odd_power_integrals_vanish():
    # v changes sign under the swap s1 <-> s2 of its travelling waves
    v = rand_vec(seed=41, dim=5, scale=1.0)
    for k in (3, 5):
        assert abs(reduced.power_integral(v, k)) < 1e-13
        assert np.all(reduced.power_integral(v, k, grad=True) == 0.0)


def test_power_integral_single_mode():
    # v = xi cos t sin x gives int v^2 = xi^2 pi^2 / 2
    for xi in (2.0, 3.0):
        want = xi**2 * np.pi**2 / 2.0
        assert abs(reduced.power_integral(kernel.KernelVector([xi]), 2) - want) < 1e-14 * want


def test_linv_qform_frozen_single_mode():
    # int v^2 L^-1 v^2 at xi = (2,) equals -(25 pi^2/32 + pi^4/6)
    got = reduced.linv_qform(kernel.KernelVector([2.0]), 2)
    assert abs(got + (25.0 * np.pi**2 / 32.0 + np.pi**4 / 6.0)) < 1e-10


def test_linv_qform_negative_for_even_powers():
    for seed in range(5):
        v = rand_vec(seed=seed, dim=3, scale=1.0)
        assert reduced.linv_qform(v, 2) < 0.0
        assert reduced.linv_qform(v, 4) < 0.0


@pytest.mark.parametrize("dim", range(1, 9))
def test_linv_qform_matches_closed_form(dim):
    rng = np.random.default_rng(60 + dim)
    for _ in range(3):
        v = kernel.KernelVector(rng.standard_normal(dim) / np.arange(1, dim + 1))
        closed = linv_forms.closed_form_qform_p2(v)
        assert abs(reduced.linv_qform(v, 2) + closed) <= 1e-13 * closed


def test_linv_qform_p4_matches_decomposition_formula():
    rng = np.random.default_rng(70)
    for dim in range(1, 6):
        v = kernel.KernelVector(rng.standard_normal(dim) / np.arange(1, dim + 1))
        m = linv_forms.BiperiodicMap.from_eta_power(v, 4)
        want = linv_forms.l_inv_quadratic_form(m)
        assert abs(reduced.linv_qform(v, 4) - want) <= 1e-13 * abs(want)


def test_linv_qform_refuses_odd_power():
    v = rand_vec(seed=72, dim=3, scale=0.8)
    for p in (1, 3, 5):
        with pytest.raises(ResowaveError):
            reduced.linv_qform(v, p)


@pytest.mark.parametrize("p", [2, 4])
def test_qform_transport_law_is_exact(p):
    rng = np.random.default_rng(73 + p)
    for dim in (1, 3, 5):
        y = kernel.KernelVector(rng.standard_normal(dim) / np.arange(1, dim + 1))
        q1 = reduced.linv_qform(y, p)
        shift = np.pi**4 / 6.0 * (reduced.power_integral(y, p) / (2.0 * np.pi**2)) ** 2
        for n in (2, 3, 4):
            law = -shift + (q1 + shift) / n**2
            qn = reduced.linv_qform(kernel.rescale(y, n), p)
            assert abs(qn - law) <= 1e-13 * abs(law)


QFORM_CASES = [{2: 1.0}, {4: 1.0}, {2: 1.0, 3: -1.0}, {2: -0.7, 3: -0.4}, {4: 1.0, 7: -1.0}]


@pytest.mark.parametrize("coeffs", QFORM_CASES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_qform_recipe_gradient_matches_central_differences(coeffs, n):
    f = nonlinearity.classify(coeffs)
    rec = reduced.g_recipe(f, -1, n=n)
    xi = rand_vec(seed=75, dim=4, scale=0.8).xi
    g = rec.hess(xi)[1]
    h = 1e-6
    fd = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[i] = (rec.hess(xi + e)[0] - rec.hess(xi - e)[0]) / (2 * h)
    assert np.max(np.abs(fd - g)) <= 1e-8 * np.max(np.abs(g))


def test_G_odd_power_frozen():
    # f = u^3, v = cos t sin x: G = (1/4) int v^4 = 9 pi^2 / 128
    f = nonlinearity.classify({3: 1.0})
    got = reduced.G_eval(kernel.KernelVector([1.0]), f)
    assert abs(got - 9.0 * np.pi**2 / 128.0) < 1e-12
    f_neg = nonlinearity.classify({3: -1.0})
    assert abs(reduced.G_eval(kernel.KernelVector([1.0]), f_neg) + 9.0 * np.pi**2 / 128.0) < 1e-12


def test_G_quadratic_is_positive():
    f = nonlinearity.classify({2: 1.0})
    v = kernel.KernelVector([2.0])
    expect = 0.5 * (25.0 * np.pi**2 / 32.0 + np.pi**4 / 6.0)
    assert abs(reduced.G_eval(v, f) - expect) < 1e-10
    for seed in range(4):
        assert reduced.G_eval(rand_vec(seed=seed, dim=3, scale=1.0), f) > 0.0


def test_G_cases_match_their_formulas():
    v = rand_vec(seed=11, dim=3, scale=0.9)
    f_n1 = nonlinearity.classify({4: 1.0, 5: 0.7})
    assert abs(reduced.G_eval(v, f_n1) - 0.7 / 6.0 * reduced.power_integral(v, 6)) < 1e-12
    f_bneg = nonlinearity.classify({2: 1.0, 3: -1.0})
    expect = 0.25 * reduced.power_integral(v, 4) - 0.5 * reduced.linv_qform(v, 2)
    assert abs(reduced.G_eval(v, f_bneg) - expect) < 1e-12
    f_bpos = nonlinearity.classify({2: 1.0, 3: 0.2})
    expect = 0.05 * reduced.power_integral(v, 4) - reduced.power_integral(v, 2) ** 2 / 48.0
    assert abs(reduced.G_eval(v, f_bpos) - expect) < 1e-12


SHAPES = [{3: 1.0}, {4: 1.0, 5: 1.0}, {2: 1.0}, {2: 1.0, 3: -1.0}, {2: 1.0, 3: 0.2}]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("coeffs", SHAPES, ids=["odd-power", "n1", "n2", "n3-bneg", "n3-bpos"])
def test_G_is_homogeneous_at_every_level(coeffs, n):
    # G(c v) = c^(q+1) G(v) and its gradient scales by c^q, for every shape
    f = nonlinearity.classify(coeffs)
    xi = rand_vec(seed=13, dim=4, scale=0.5).xi
    value, grad = reduced.G_eval(xi, f, n), reduced.G_eval(xi, f, n, grad=True)
    for c in (0.1, 3.0, 17.0):
        scaled = reduced.G_eval(c * xi, f, n)
        assert abs(scaled - c ** (f.q + 1) * value) <= 1e-12 * abs(scaled)
        dscaled = reduced.G_eval(c * xi, f, n, grad=True)
        assert np.max(np.abs(dscaled - c**f.q * grad)) <= 1e-12 * np.max(np.abs(dscaled))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("coeffs", SHAPES, ids=["odd-power", "n1", "n2", "n3-bneg", "n3-bpos"])
def test_G_hessian_matches_gradient_differences(coeffs, n):
    # exact for every shape (the power integrals' from cosine coefficients,
    # the form's by the complex step of its gradient) and symmetric, and
    # with hess the value and gradient are G_eval's own, bit for bit
    f = nonlinearity.classify(coeffs)
    xi = rand_vec(seed=19, dim=5, scale=0.7).xi
    value, grad, hess = reduced.G_eval(xi, f, n, hess=True)
    assert value == reduced.G_eval(xi, f, n)
    assert np.array_equal(grad, reduced.G_eval(xi, f, n, grad=True))
    h = 1e-5
    fd = np.array([(reduced.G_eval(xi + h * e, f, n, grad=True)
                    - reduced.G_eval(xi - h * e, f, n, grad=True)) / (2 * h) for e in np.eye(5)])
    assert np.max(np.abs(hess - fd)) <= 1e-9 * np.max(np.abs(hess))
    assert np.max(np.abs(hess - hess.T)) <= 1e-15 * np.max(np.abs(hess))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("coeffs", SHAPES, ids=["odd-power", "n1", "n2", "n3-bneg", "n3-bpos"])
def test_G_hessian_satisfies_euler_identity(coeffs, n):
    # G is homogeneous of degree q + 1, so H xi = q grad G: a difference
    # Hessian misses it by its truncation error, an exact one only by rounding
    f = nonlinearity.classify(coeffs)
    xi = rand_vec(seed=19, dim=5, scale=0.7).xi
    _, grad, hess = reduced.G_eval(xi, f, n, hess=True)
    assert np.max(np.abs(hess @ xi - f.q * grad)) <= 1e-13 * np.max(np.abs(grad))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("coeffs", QFORM_CASES)
def test_form_hessian_does_not_depend_on_the_complex_step(monkeypatch, coeffs, n):
    # the complex step subtracts nothing, so any small power of two gives
    # the same Hessian, bit for bit: the step is no tuned setting
    f = nonlinearity.classify(coeffs)
    xi = np.random.default_rng(29).standard_normal((3, 6))
    hessians = []
    for step in (2.0**-60, 2.0**-80):
        monkeypatch.setattr(reduced, "_COMPLEX_STEP", step)
        hessians.append(reduced.G_eval(xi, f, n, hess=True)[2])
    assert np.array_equal(*hessians)


CASES = [
    ({3: 1.0}, +1),
    ({3: -1.0}, -1),
    ({4: 1.0, 5: 1.0}, +1),
    ({4: 1.0, 5: -1.0}, -1),
    ({2: 1.0}, -1),
    ({2: 1.0, 3: -1.0}, -1),
    ({2: 1.0, 3: 0.2}, -1),
    ({2: 1.0, 3: 0.2}, +1),
    ({2: 1.0, 3: 5.0}, +1),
]


@pytest.mark.parametrize("coeffs,side", CASES)
def test_recipe_gradient_matches_finite_differences(coeffs, side):
    f = nonlinearity.classify(coeffs)
    rec = reduced.g_recipe(f, side, n=2)
    xi = rand_vec(seed=17, dim=3, scale=0.8).xi
    g = rec.hess(xi)[1]
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (rec.hess(xi + e)[0] - rec.hess(xi - e)[0]) / (2 * h)
        assert abs(fd - g[i]) < 1e-6 * max(1.0, abs(g[i]))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coeffs,side", CASES)
def test_recipe_stack_rows_equal_single_rows(coeffs, side, n):
    # a row of a stack is evaluated as it is alone, bit for bit
    rec = reduced.g_recipe(nonlinearity.classify(coeffs), side, n=n)
    stack = np.random.default_rng(41).standard_normal((5, 4))
    values, grads, hessians = rec.hess(stack)
    assert values.shape == (5,) and grads.shape == (5, 4) and hessians.shape == (5, 4, 4)
    for row, value, grad, hess in zip(stack, values, grads, hessians):
        alone = rec.hess(row)
        assert alone[0] == value
        assert np.array_equal(alone[1], grad) and np.array_equal(alone[2], hess)


def test_cached_tables_are_read_only():
    tables = [
        reduced._binomial_signs(4),
        reduced._primitive_symbol(26),
        kernel._sine_table(6, 31),
    ]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_recipe_side_gating():
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({3: 1.0}), -1)
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({3: -1.0}), +1)
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({4: 1.0, 5: -1.0}), +1)
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({2: 1.0}), +1)
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({2: 1.0, 3: -1.0}), +1)
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({2: 1.0, 3: 5.0}), -1)
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({3: 1.0}), 0)
    with pytest.raises(ResowaveError):
        reduced.g_recipe(nonlinearity.classify({3: 1.0}), +1, n=0)


def test_odd_case_recipe_ignores_dilation_level():
    f = nonlinearity.classify({3: 1.0})
    xi = rand_vec(seed=19, dim=2, scale=0.6).xi
    vals = [reduced.g_recipe(f, +1, n=n).hess(xi)[0] for n in (1, 2, 5)]
    assert vals[0] == vals[1] == vals[2]


def test_qform_recipe_equals_G_at_dilated_vector():
    # the 1/n^2 rescaling law reproduces G(L_n xi) without forming L_n xi;
    # the recipe's coordinates y are xi at the odd j
    y = rand_vec(seed=23, dim=2, scale=0.7)
    xi = kernel.KernelVector([y.xi[0], 0.0, y.xi[1]])
    for coeffs in QFORM_CASES:
        f = nonlinearity.classify(coeffs)
        for n in (1, 2, 3, 4):
            rec = reduced.g_recipe(f, -1, n=n)
            direct = reduced.G_eval(kernel.rescale(xi, n), f)
            assert abs(rec.hess(y.xi)[0] - direct) <= 1e-13 * abs(direct)


def test_phi_decomposition_against_quadrature():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    v = rand_vec(seed=29, dim=3, scale=0.06)
    w, _ = psolve.solve_P(v, ctx, f, tol=1e-14)
    got = reduced.phi(v, ctx, f, w=w)

    t, x, wt, wx = quad_grid()
    u = kernel.embed(v) + w
    uvals = fields.eval_field(u, t, x)
    wvals = fields.eval_field(w, t, x)
    fu = np.polynomial.polynomial.polyval(uvals, f.poly)
    capF = np.polynomial.polynomial.polyval(uvals, f.primitive)
    expect = (
        0.5 * ctx.eps * v.h1() ** 2
        + 0.5 * quad_integral(fu * wvals, wt, wx)
        - quad_integral(capF, wt, wx)
    )
    assert abs(got - expect) < 1e-14


def test_grad_phi_matches_finite_differences():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=20)
    v = rand_vec(seed=31, dim=3, scale=0.05)
    g = reduced.grad_phi(v, ctx, f, tol=1e-14)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fp = reduced.phi(kernel.KernelVector(v.xi + e), ctx, f, tol=1e-14)
        fm = reduced.phi(kernel.KernelVector(v.xi - e), ctx, f, tol=1e-14)
        fd = (fp - fm) / (2 * h)
        assert abs(fd - g[i]) < 1e-8 * max(1.0, abs(g[i]))
