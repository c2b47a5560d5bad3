"""Field arithmetic against brute-force quadrature oracles.

The projection code paths are all exact trigonometric algebra, so the
oracles here are deliberately dumb: dense grids, Gauss-Legendre in x, and
termwise evaluation, sharing no code with the implementation.
"""

import numpy as np
import pytest

from resowave import fields
from resowave.errors import ResowaveError


def quad_strip(func, deg_t, deg_x):
    """int_0^{2pi} int_0^pi func(t, x) dx dt by trapezoid x Gauss-Legendre."""
    nt = max(4 * deg_t + 8, 32)
    nodes, weights = np.polynomial.legendre.leggauss(max(3 * deg_x + 16, 48))
    x = 0.5 * np.pi * (nodes + 1.0)
    wx = 0.5 * np.pi * weights
    t = 2.0 * np.pi * np.arange(nt) / nt
    tt, xx = np.meshgrid(t, x, indexing="ij")
    vals = func(tt, xx)
    return (2.0 * np.pi / nt) * float(np.sum(vals @ wx))


def eval_direct(coeffs, t, x):
    """Termwise sum of coeffs[l, j-1] cos(l t) sin(j x)."""
    out = np.zeros_like(np.asarray(t, dtype=float))
    for l in range(coeffs.shape[0]):
        for j in range(1, coeffs.shape[1] + 1):
            out = out + coeffs[l, j - 1] * np.cos(l * t) * np.sin(j * x)
    return out


def random_field(rng, lt, lx, scale=1.0):
    arr = rng.standard_normal((lt + 1, lx)) * scale
    arr /= (1.0 + np.arange(lt + 1)[:, None] + np.arange(1, lx + 1)[None, :]) ** 2
    return fields.SpectralField(arr)


def test_synthesize_analyze_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = random_field(rng, 5, 6)
        grid = fields.PhysicalGrid.for_degree(u.lt, u.lx)
        back = fields.analyze(fields.synthesize(u, grid), grid)
        got = back.coeffs[: u.lt + 1, : u.lx]
        assert np.max(np.abs(got - u.coeffs)) < 1e-13
        assert np.max(np.abs(back.coeffs[u.lt + 1 :, :])) < 1e-13


def test_eval_field_matches_termwise_sum():
    rng = np.random.default_rng(1)
    u = random_field(rng, 4, 5)
    t = rng.uniform(0.0, 2.0 * np.pi, size=7)
    x = rng.uniform(0.0, np.pi, size=5)
    got = fields.eval_field(u, t, x)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    want = eval_direct(u.coeffs, tt, xx)
    assert np.max(np.abs(got - want)) < 1e-13


def test_apply_nonlinearity_matches_quadrature_projection():
    """Coefficients of poly(u) agree with the L2 projection done by quadrature."""
    rng = np.random.default_rng(2)
    u = random_field(rng, 3, 3)
    poly = [0.0, 0.0, 1.0, 0.5]          # u^2 + 0.5 u^3
    F = fields.apply_nonlinearity(u, poly)

    def f_vals(t, x):
        g = eval_direct(u.coeffs, t, x)
        return g**2 + 0.5 * g**3

    deg_t, deg_x = 3 * u.lt, 3 * u.lx
    for l in (0, 1, 2, 5, 9):
        for j in (1, 2, 4, 7):
            weight = np.pi**2 if l == 0 else np.pi**2 / 2.0
            want = quad_strip(
                lambda t, x: f_vals(t, x) * np.cos(l * t) * np.sin(j * x),
                deg_t + l, deg_x + j,
            ) / weight
            got = F.coeffs[l, j - 1] if l <= F.lt and j <= F.lx else 0.0
            assert abs(got - want) < 1e-12, (l, j)


def test_apply_nonlinearity_exact_degree_cubic():
    # cos(t)sin(x) cubed has closed-form projection; spot check one entry:
    # (cos t sin x)^3 contains (3/16) cos(t) sin(3 x) ... with the odd
    # half-interval correction folded in, quadrature is the referee
    u = fields.from_modes({(1, 1): 1.0})
    F = fields.apply_nonlinearity(u, [0.0, 0.0, 0.0, 1.0])

    def f_vals(t, x):
        return (np.cos(t) * np.sin(x)) ** 3

    want = quad_strip(lambda t, x: f_vals(t, x) * np.cos(t) * np.sin(3 * x), 4, 6)
    want /= np.pi**2 / 2.0
    assert abs(F.coeffs[1, 2] - want) < 1e-13


def test_integrate_poly_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(4):
        u = random_field(rng, 3, 4)
        poly = [0.0, 0.0, rng.standard_normal(), 0.0, rng.standard_normal()]

        def f_vals(t, x):
            g = eval_direct(u.coeffs, t, x)
            return poly[2] * g**2 + poly[4] * g**4

        want = quad_strip(f_vals, 4 * u.lt, 4 * u.lx)
        got = fields.integrate_poly(u, poly)
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_integrate_x_poly_matches_gauss_legendre():
    rng = np.random.default_rng(4)
    for _ in range(4):
        a = rng.standard_normal(5) / np.arange(1, 6) ** 2
        poly = [0.3, 0.0, -1.2, 0.25]
        nodes, weights = np.polynomial.legendre.leggauss(64)
        x = 0.5 * np.pi * (nodes + 1.0)
        g = np.sin(np.outer(x, np.arange(1, 6))) @ a
        vals = poly[0] + poly[2] * g**2 + poly[3] * g**3
        want = 0.5 * np.pi * float(np.sum(weights * vals))
        got = fields.integrate_x_poly(a, poly)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_inner_h1_matches_gradient_quadrature():
    """h1 pairing equals int (u_t v_t + u_x v_x) over the strip."""
    rng = np.random.default_rng(5)
    u = random_field(rng, 3, 3)
    v = random_field(rng, 4, 2)

    def du(coeffs, t, x, wrt):
        out = np.zeros_like(t)
        for l in range(coeffs.shape[0]):
            for j in range(1, coeffs.shape[1] + 1):
                if wrt == "t":
                    out += coeffs[l, j - 1] * (-l) * np.sin(l * t) * np.sin(j * x)
                else:
                    out += coeffs[l, j - 1] * j * np.cos(l * t) * np.cos(j * x)
        return out

    want = quad_strip(
        lambda t, x: du(u.coeffs, t, x, "t") * du(v.coeffs, t, x, "t")
        + du(u.coeffs, t, x, "x") * du(v.coeffs, t, x, "x"),
        u.lt + v.lt, u.lx + v.lx,
    )
    got = fields.inner_h1(u, v)
    assert abs(got - want) < 1e-11 * max(1.0, abs(want))


def test_inner_l2_matches_quadrature():
    rng = np.random.default_rng(6)
    u = random_field(rng, 3, 3)
    v = random_field(rng, 2, 4)
    want = quad_strip(
        lambda t, x: eval_direct(u.coeffs, t, x) * eval_direct(v.coeffs, t, x),
        u.lt + v.lt, u.lx + v.lx,
    )
    assert abs(fields.inner_l2(u, v) - want) < 1e-12


def test_temporal_weights():
    w = fields.temporal_weights(4)
    assert w[0] == 2.0 and np.all(w[1:] == 1.0)


def test_sup_norm_single_mode():
    u = fields.from_modes({(0, 1): 1.0})
    assert abs(fields.sup_norm(u) - 1.0) < 1e-12
    u2 = fields.from_modes({(2, 3): -0.7})
    assert abs(fields.sup_norm(u2) - 0.7) < 1e-10


def test_sup_norm_is_lower_bound_of_true_sup():
    rng = np.random.default_rng(7)
    u = random_field(rng, 4, 4)
    sup = fields.sup_norm(u)
    t = rng.uniform(0.0, 2.0 * np.pi, size=200)
    x = rng.uniform(0.0, np.pi, size=200)
    samples = np.abs(eval_direct(u.coeffs, t, x))
    assert sup >= np.max(samples) - 1e-9


def test_multiply_poly_project_matches_quadrature():
    rng = np.random.default_rng(8)
    u = random_field(rng, 2, 3)
    z = random_field(rng, 3, 2)
    poly = [0.0, 0.0, 3.0]              # f'(u) for f = u^3

    def vals(t, x):
        return 3.0 * eval_direct(u.coeffs, t, x) ** 2 * eval_direct(z.coeffs, t, x)

    P = fields.multiply_poly_project(u, poly, z)
    for l, j in ((0, 1), (1, 2), (3, 3), (5, 5)):
        weight = np.pi**2 if l == 0 else np.pi**2 / 2.0
        want = quad_strip(
            lambda t, x: vals(t, x) * np.cos(l * t) * np.sin(j * x),
            2 * u.lt + z.lt + l, 2 * u.lx + z.lx + j,
        ) / weight
        got = P.coeffs[l, j - 1] if l <= P.lt and j <= P.lx else 0.0
        assert abs(got - want) < 1e-12, (l, j)


@pytest.mark.parametrize("fprime", [
    [0.0, 0.0, 3.0],          # f = u^3
    [0.0, 2.0],               # f = u^2
    [0.0, 2.0, 3.0],          # f = u^2 + u^3
])
@pytest.mark.parametrize("n", [1, 3])
def test_multiply_poly_matrix_columns_match_product(fprime, n):
    rng = np.random.default_rng(10 + n)
    lt, lx = 7, 6
    u = random_field(rng, lt, lx)
    M = fields.multiply_poly_matrix(u, fprime, lt, lx, n=n)
    rows = np.arange(0, lt + 1, n)
    assert M.shape == (rows.size * lx, rows.size * lx)
    for a, l in enumerate(rows):
        for j in range(1, lx + 1):
            z = np.zeros((lt + 1, lx))
            z[l, j - 1] = 1.0
            P = fields.multiply_poly_project(
                u, fprime, fields.SpectralField(z), out_lt=lt, out_lx=lx
            )
            col = P.coeffs[rows].ravel()
            err = np.max(np.abs(M[:, a * lx + j - 1] - col))
            assert err <= 1e-13 * np.max(np.abs(col)), (l, j)


def test_diagonal_helpers():
    rng = np.random.default_rng(9)
    u = random_field(rng, 5, 5)
    d = fields.diagonal_of(u)
    assert d.shape == (5,)
    assert all(d[j - 1] == u.coeffs[j, j - 1] for j in range(1, 6))
    w = fields.zero_diagonal(u)
    assert np.all(fields.diagonal_of(w) == 0.0)
    # off-diagonal entries untouched
    assert w.coeffs[0, 1] == u.coeffs[0, 1]
    assert w.coeffs[2, 0] == u.coeffs[2, 0]


def test_padded_and_add_shapes():
    a = fields.SpectralField(np.ones((2, 2)))
    b = fields.SpectralField(np.ones((4, 3)))
    s = a + b
    assert (s.lt, s.lx) == (3, 3)
    assert s.coeffs[0, 0] == 2.0
    assert s.coeffs[3, 2] == 1.0
    p = a.padded(5, 4)
    assert p.shape == (6, 4)
    assert p[5, 3] == 0.0


def test_from_modes_rejects_bad_indices():
    with pytest.raises(ResowaveError):
        fields.from_modes({(1, 0): 1.0})
    with pytest.raises(ResowaveError):
        fields.from_modes({(-1, 1): 1.0})
