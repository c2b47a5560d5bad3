"""Field arithmetic against brute-force quadrature oracles.

The projection code paths are all exact trigonometric algebra, so the
oracles here are deliberately dumb: dense grids, Gauss-Legendre in x, and
termwise evaluation, sharing no code with the implementation.
"""

import functools
import types

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


def both_paths(test):
    """Run test on each path: each sampling takes its path from its size
    (fields._layout), so a bound above every product here sends each
    sampling of a class other than the trivial one to the cached-table
    matrix products, and a zero bound every sampling to scipy.fft."""
    @functools.wraps(test)
    def run(*args, **kwargs):
        for path, bound in (("dense", 2**40), ("fft", 0)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "DENSE_MAX_MADDS", bound)
                try:
                    test(*args, **kwargs)
                except AssertionError as exc:
                    raise AssertionError(f"on the {path} path: {exc}") from exc
    return run


def trivial_dense_plan(shape, grid):
    """The tables _dense_values reads off a dense plan (_Sampling), here on
    every node of grid, the trivial class, which a plan runs on scipy.fft:
    [cos](l t_i) on the rows and [sin](j x_k) on the columns, one block."""
    lt, lx = shape[0] - 1, shape[1]
    return types.SimpleNamespace(
        t_table=fields._trig_table(grid[0], lt, False, (None, None))[:, : lt + 1],
        x_table=fields._trig_table(grid[1], lx, False, (None, None))[:, lx + 2 :].T,
        rows=grid[0])


def random_field(rng, lt, lx, scale=1.0):
    arr = rng.standard_normal((lt + 1, lx)) * scale
    arr /= (1.0 + np.arange(lt + 1)[:, None] + np.arange(1, lx + 1)[None, :]) ** 2
    return fields.SpectralField(arr)


@pytest.mark.parametrize("lt, lx, nt, mx", [
    (0, 1, 2, 1), (0, 5, 8, 9), (3, 4, 8, 4), (5, 6, 16, 13), (7, 3, 128, 127),
    (2, 3, 5, 3), (4, 6, 9, 7),
])
def test_node_values_match_eval_field_at_their_nodes(lt, lx, nt, mx):
    """Both samplers are exact: the irfft in t and in x, and the dense chain
    on the nodes of the trivial class (every node), hit eval_field at every
    node x = 2 pi k/nx, the mx interior nodes of (0, pi), the boundary zeros
    and the odd half, for the odd and even lengths with mx interior nodes
    and the 5-smooth product length _grid(mx).
    """
    rng = np.random.default_rng(lt + 10 * lx)
    t = 2.0 * np.pi * np.arange(nt) / nt
    for nx in sorted({2 * mx + 1, 2 * mx + 2, fields._grid(mx)}):
        x = 2.0 * np.pi * np.arange(nx) / nx
        for _ in range(3):
            u = random_field(rng, lt, lx)
            plan = trivial_dense_plan(u.coeffs.shape, (nt, nx))
            for got in (fields._fft_values(u.coeffs, nt, nx), fields._dense_values(u.coeffs, plan)):
                assert got.shape == (nt, nx)
                assert np.max(np.abs(got - fields.eval_field(u, t, x))) <= 1e-13


@pytest.mark.parametrize("nx", [7, 12, 20, 97])
def test_x_values_of_a_stack_keep_each_rows_bits(nx):
    # a stack of rows is sampled as each row would be alone
    rows = np.random.default_rng(nx).standard_normal((6, 3))
    stacked = fields._x_values(rows, nx)
    for row, got in zip(rows, stacked):
        assert np.array_equal(got.view(np.int64), fields._x_values(row, nx).view(np.int64))


@pytest.mark.parametrize("poly", [
    [0.0, 0.0, 0.0], [1.5, 0.0, 0.0, -2.0], [0.0, 0.0, 1.0 / 3.0, -0.1, 0.25], [0.3],
], ids=["zero", "interior-zero", "quartic", "constant"])
def test_poly_at_has_the_bits_of_polyval(poly):
    vals = np.random.default_rng(7).standard_normal((5, 8))
    vals[0, :3] = [0.0, -0.0, 1.0]
    want = np.polynomial.polynomial.polyval(vals, poly)
    got = fields._poly_at(vals, poly)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _write_entry(u):
    u.coeffs[0, 0] = 1.0


@pytest.mark.parametrize("make, error, message", [
    (lambda: fields.SpectralField(np.zeros(3)), ResowaveError, "must be 2-d"),
    (lambda: fields.SpectralField(np.zeros((2, 0))), ResowaveError, "at least one spatial mode"),
    (lambda: fields.SpectralField([[0.0, np.nan]]), ResowaveError, "non-finite coefficient"),
    (lambda: fields.SpectralField([[np.inf]]), ResowaveError, "non-finite coefficient"),
    (lambda: setattr(fields.SpectralField(np.zeros((2, 1))), "coeffs", np.ones((2, 1))),
     AttributeError, "SpectralField is immutable"),
    (lambda: _write_entry(fields.SpectralField(np.zeros((2, 1)))), ValueError, "read-only"),
], ids=["1-d", "no-column", "nan", "inf", "set-attribute", "write-entry"])
def test_spectral_field_refusals_and_immutability(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_eval_field_matches_termwise_sum():
    rng = np.random.default_rng(1)
    u = random_field(rng, 4, 5)
    t = rng.uniform(0.0, 2.0 * np.pi, size=7)
    x = rng.uniform(0.0, np.pi, size=5)
    got = fields.eval_field(u, t, x)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    want = eval_direct(u.coeffs, tt, xx)
    assert np.max(np.abs(got - want)) < 1e-13


@both_paths
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


@both_paths
def test_apply_nonlinearity_exact_degree_cubic():
    # cos(t)sin(x) cubed has closed-form projection; spot check one entry:
    # (cos t sin x)^3 contains (3/16) cos(t) sin(3 x) ... with the odd
    # half-interval correction folded in, quadrature is the referee
    coeffs = np.zeros((2, 1))
    coeffs[1, 0] = 1.0
    u = fields.SpectralField(coeffs)
    F = fields.apply_nonlinearity(u, [0.0, 0.0, 0.0, 1.0])

    def f_vals(t, x):
        return (np.cos(t) * np.sin(x)) ** 3

    want = quad_strip(lambda t, x: f_vals(t, x) * np.cos(t) * np.sin(3 * x), 4, 6)
    want /= np.pi**2 / 2.0
    assert abs(F.coeffs[1, 2] - want) < 1e-13


@both_paths
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


@both_paths
def test_sup_norm_single_mode():
    u = fields.SpectralField([[1.0]])
    assert abs(fields.sup_norm(u) - 1.0) < 1e-12
    coeffs = np.zeros((3, 3))
    coeffs[2, 2] = -0.7
    u2 = fields.SpectralField(coeffs)
    assert abs(fields.sup_norm(u2) - 0.7) < 1e-10


@both_paths
def test_sup_norm_is_lower_bound_of_true_sup():
    rng = np.random.default_rng(7)
    u = random_field(rng, 4, 4)
    sup = fields.sup_norm(u)
    t = rng.uniform(0.0, 2.0 * np.pi, size=200)
    x = rng.uniform(0.0, np.pi, size=200)
    samples = np.abs(eval_direct(u.coeffs, t, x))
    assert sup >= np.max(samples) - 1e-9


@both_paths
def test_omega_norm_bounds_the_sampled_blend_from_above():
    # sum |u_lj| >= sup |u|, so omega_norm is never below the blend with the
    # sampled sup; on 0.5 sin x it is 0.5 + sqrt(|omega - 1|) pi/2
    u = fields.SpectralField([[0.5]])
    assert abs(fields.omega_norm(u, 1.04) - (0.5 + 0.2 * 0.5 * np.pi)) <= 1e-15
    rng = np.random.default_rng(11)
    for lt, lx in ((0, 1), (2, 3), (5, 4), (8, 12)):
        u = random_field(rng, lt, lx)
        h1 = np.sqrt(fields.inner_h1(u, u))
        for omega in (1.0, 1.004, 0.97):
            sampled = fields.sup_norm(u) + np.sqrt(abs(omega - 1.0)) * h1
            assert fields.omega_norm(u, omega) >= sampled


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


# the single entry (0, 1), whose row a = 0 has only the zero Hankel slab
# and which the rows and columns odd together empty, and lt < lx
MATRIX_SHAPES = [(7, 6), (8, 9), (16, 16), (1, 1), (2, 1), (0, 1), (3, 5)]


def lattice(lt, lx, odd_rows=False, odd_cols=False):
    """The rows l, the even ones first (or the odd ones alone), and the
    columns j (or the odd ones alone) of an (lt+1, lx) truncation."""
    l = np.arange(lt + 1)
    rows = l[1::2] if odd_rows else np.concatenate([l[0::2], l[1::2]])
    return rows, np.arange(1, lx + 1, 2 if odd_cols else 1)


def flat_entries(rows, cols, lx):
    """Flat indices l lx + j - 1 of the entries (rows[r], cols[i]), r-major."""
    return (rows[:, None] * lx + cols - 1).ravel()


@both_paths
@pytest.mark.parametrize("fprime", [
    [0.0, 0.0, 3.0],          # f = u^3
    [0.0, 2.0],               # f = u^2
    [0.0, 2.0, 3.0],          # f = u^2 + u^3
])
def test_multiply_poly_matrix_columns_match_product(fprime):
    rng = np.random.default_rng(11)
    for lt, lx in MATRIX_SHAPES:
        u = random_field(rng, lt, lx)
        M = fields.multiply_poly_matrix(u, fprime, *lattice(lt, lx))
        assert M.shape == ((lt + 1) * lx, (lt + 1) * lx)
        # every entry, the even rows first
        order = flat_entries(*lattice(lt, lx), lx)
        for col, k in enumerate(order):
            z = np.zeros((lt + 1) * lx)
            z[k] = 1.0
            P = fields.multiply_poly_project(
                u, fprime, fields.SpectralField(z.reshape(lt + 1, lx)), out_lt=lt, out_lx=lx
            )
            # a projection keeps at least two rows, so lt = 0 reads the first
            want = P.coeffs[: lt + 1].ravel()[order]
            err = np.max(np.abs(M[:, col] - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (lt, lx, divmod(k, lx))


# (31, 32) and (44, 44): 1024 and 1980 unknowns of the every-entry matrix
@both_paths
@pytest.mark.parametrize("lt, lx", MATRIX_SHAPES + [(31, 32), (44, 44)])
def test_multiply_poly_matrix_checkerboard_is_the_kept_block(lt, lx):
    # the matrix on the rows and columns given is the block of the
    # every-entry one on their entries, in their order, bit for bit: the
    # reflection-even columns j odd, and of them the rows l odd, the
    # checkerboard's part.  A field in the kept class couples no kept entry
    # to a dropped one beyond rounding
    rng = np.random.default_rng(12)
    u = random_field(rng, lt, lx)
    flat = np.arange((lt + 1) * lx).reshape(lt + 1, lx)
    l, j = np.arange(lt + 1)[:, None], np.arange(1, lx + 1)
    every = flat_entries(*lattice(lt, lx), lx)
    assert np.array_equal(every, np.concatenate([flat[0::2].ravel(), flat[1::2].ravel()]))
    where = np.argsort(every)     # flat index -> row of the full matrix
    for odd_rows, on in [(False, np.tile(j % 2 == 1, (lt + 1, 1))),
                         (True, (l % 2 == 1) & (j % 2 == 1))]:
        rows, cols = lattice(lt, lx, odd_rows, odd_cols=True)
        keep = flat_entries(rows, cols, lx)
        assert np.array_equal(np.sort(keep), flat[on])
        for fprime in ([0.0, 0.0, 3.0], [0.0, 2.0, 3.0]):
            full = fields.multiply_poly_matrix(u, fprime, *lattice(lt, lx))
            M = fields.multiply_poly_matrix(u, fprime, rows, cols)
            assert M.flags.f_contiguous
            assert np.array_equal(M, full[np.ix_(where[keep], where[keep])])
        # for u in the class, the rest of the full matrix's kept rows is
        # rounding noise; an odd power leaves the class l and j odd
        fprime = [0.0, 0.0, 3.0] if odd_rows else [0.0, 2.0, 3.0]
        c = np.where(on, u.coeffs, 0.0)
        full = fields.multiply_poly_matrix(fields.SpectralField(c), fprime, *lattice(lt, lx))
        dropped = where[np.setdiff1d(flat, keep)]
        coupled = full[np.ix_(where[keep], dropped)]
        assert np.max(np.abs(coupled), initial=0.0) <= 1e-15 * np.max(np.abs(full))
    # rows in any order: the every-entry matrix with its rows and columns
    # permuted alike
    rows = rng.permutation(lt + 1)
    order = where[flat_entries(rows, np.arange(1, lx + 1), lx)]
    full = fields.multiply_poly_matrix(u, [0.0, 2.0, 3.0], *lattice(lt, lx))
    M = fields.multiply_poly_matrix(u, [0.0, 2.0, 3.0], rows, np.arange(1, lx + 1))
    assert np.array_equal(M, full[np.ix_(order, order)])


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


def _diagonal_loop(u):
    """diagonal_of as a loop over j = 1..min(lt, lx): the reference."""
    m = min(u.lt, u.lx)
    return np.array([u.coeffs[j, j - 1] for j in range(1, m + 1)], dtype=float)


def _zero_diagonal_loop(u):
    """zero_diagonal as a loop over j = 1..min(lt, lx): the reference."""
    c = u.coeffs.copy()
    for j in range(1, min(u.lt, u.lx) + 1):
        c[j, j - 1] = 0.0
    return c


@pytest.mark.parametrize("lt, lx", [(0, 4), (2, 6), (6, 3), (4, 5), (5, 5), (1, 1)])
def test_diagonal_helpers_are_the_loops_bit_for_bit(lt, lx):
    # square, wide (lt < lx), tall and single-row (lt = 0) truncations; a
    # -0.0 on the diagonal keeps its sign in diagonal_of
    u = random_field(np.random.default_rng(lt * 10 + lx), lt, lx)
    c = u.coeffs.copy()
    if min(lt, lx) >= 1:
        c[1, 0] = -0.0
    u = fields.SpectralField(c)
    assert fields.diagonal_of(u).tobytes() == _diagonal_loop(u).tobytes()
    assert fields.zero_diagonal(u).coeffs.tobytes() == _zero_diagonal_loop(u).tobytes()


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


@both_paths
def test_apply_polynomials_is_apply_nonlinearity_per_polynomial():
    # one sample of u serves every polynomial; polynomials of one degree and
    # one parity class (as f and F/u are) keep the bits of their own
    # one-polynomial calls, and polynomials of two classes share the fold of
    # both, which changes only rounding
    rng = np.random.default_rng(8)
    u = random_field(rng, 9, 7, scale=0.3)
    for polys, bits in [([[0.0, 0.0, 1.0, -1.0], [0.0, 0.0, 1.0 / 3.0, -0.25]], True),
                        ([[0.0, 1.0, 0.0, -1.0], [0.0, 0.5, 0.0, 0.25]], True),
                        ([[0.0, 0.0, 1.0, -1.0], [0.0, 0.5, 0.0, 0.25]], False)]:
        for out in ({}, {"out_lt": 9, "out_lx": 7}, {"out_lx": 7},
                    {"out_lt": [4, None], "out_lx": 7}):
            got = fields.apply_polynomials(u, polys, **out)
            assert len(got) == 2
            # a row count per polynomial, None for the full degree
            lts = out.get("out_lt")
            lts = lts if isinstance(lts, list) else [lts, lts]
            for lt, poly, field in zip(lts, polys, got):
                want = fields.apply_nonlinearity(u, poly, out_lt=lt, out_lx=out.get("out_lx"))
                if bits:
                    assert np.array_equal(field.coeffs, want.coeffs)
                else:
                    assert np.max(np.abs(field.coeffs - want.coeffs)) <= 1e-14 * np.max(
                        np.abs(want.coeffs))


@both_paths
def test_potential_is_the_pairing_of_f_over_u_with_u():
    # int F(u) = <P g(u), u> with g = F/u, exact because u lies in the truncation
    rng = np.random.default_rng(9)
    for lt, lx in [(4, 4), (9, 6), (16, 11)]:
        u = random_field(rng, lt, lx, scale=0.4)
        primitive = np.concatenate([[0.0, 0.0], rng.standard_normal(5)])
        g = fields.apply_polynomials(u, [primitive[1:]], out_lt=lt, out_lx=lx)[0]
        want = fields.integrate_poly(u, primitive)
        assert abs(fields.inner_l2(g, u) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("lt, lx", [(16, 16), (12, 12), (8, 8), (4, 24), (9, 3), (0, 5)])
def test_dense_and_fft_paths_agree(monkeypatch, lt, lx):
    # every product as one dense chain, as the bound plans it (the level-1
    # frame's certificates and sup in two row blocks) and as FFTs: the same
    # exact quantities, so the same to rounding
    u = random_field(np.random.default_rng(100 + lt), lt, lx, scale=0.5)
    rows, cols = lattice(lt, lx)

    def run():
        return [*(p.coeffs for p in fields.apply_polynomials(u, [[0.0, 0.0, 0.0, 1.0],
                                                                 [0.0, 0.5, 1.0]])),
                fields.apply_nonlinearity(u, [0.0, 0.0, 1.0, 1.0], out_lt=lt, out_lx=lx).coeffs,
                fields.multiply_poly_matrix(u, [0.0, 0.0, 3.0], rows, cols),
                np.array([fields.integrate_poly(u, [0.0, 0.0, 0.0, 0.0, 0.25]),
                          fields.sup_norm(u)])]

    planned = run()
    monkeypatch.setattr(fields, "DENSE_MAX_MADDS", 2**40)
    dense = run()
    # the Jacobian's columns as one dense chain against its oracle, which
    # runs on scipy.fft at any bound
    order = flat_entries(rows, cols, lx)
    for col in range(0, order.size, max(1, order.size // 24)):
        z = np.zeros((lt + 1) * lx)
        z[order[col]] = 1.0
        P = fields.multiply_poly_project(u, [0.0, 0.0, 3.0], fields.SpectralField(
            z.reshape(lt + 1, lx)), out_lt=lt, out_lx=lx)
        want = P.coeffs[: lt + 1].ravel()[order]
        assert np.max(np.abs(dense[3][:, col] - want)) <= 1e-13 * np.max(np.abs(want)), col
    monkeypatch.setattr(fields, "DENSE_MAX_MADDS", 0)
    for want, *got in zip(run(), dense, planned):
        for g in got:
            assert g.shape == want.shape
            assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("m, k, p, n", [(100, 17, 16, 100), (49, 100, 100, 98),
                                        (128, 17, 16, 256), (5, 3, 40, 2), (1, 9, 4, 1)])
def test_chain_in_row_blocks_is_the_product(m, k, p, n):
    # in blocks of any number of rows of a
    rng = np.random.default_rng(m + k + p + n)
    a, b, c = rng.standard_normal((m, k)), rng.standard_normal((k, p)), rng.standard_normal((p, n))
    want = a @ b @ c
    for rows in sorted({1, 7, (m + 1) // 2, m}):
        got = fields._chain(a, b, c, rows)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m, k, p, n, blocks", [
    (100, 17, 16, 100, 1),       # sampling the 17 x 16 level-1 frame
    (17, 100, 100, 98, 1),       # the 17 rows of P f(U) it keeps
    (49, 100, 100, 98, 2),       # the 49 rows of its certificates
    (128, 17, 16, 256, 2),       # its sup_norm grid
    (97, 100, 100, 98, None),    # four blocks
    (1, 800, 800, 802, None),    # one row too many multiply-adds
])
def test_plan_keeps_each_product_under_the_bound(m, k, p, n, blocks):
    rows = fields._plan(m, k, p, n)
    if blocks is None:
        assert rows is None
        return
    assert -(-m // rows) == blocks <= fields.DENSE_MAX_BLOCKS
    assert max(rows * k * p, rows * p * n) <= fields.DENSE_MAX_MADDS


# The fold against the full torus, the trivial class, at a tolerance fixed
# before the fold was written: every folded quantity is an exact quadrature
# of the same trig polynomial, so the two differ by rounding alone.
FOLD_RTOL = 1e-14
# (rows, cols) kept by each class: "odd"/"even" rows l or columns j, or all
FOLD_CLASSES = {"odd rows, odd cols": ("odd", "odd"), "odd cols": (None, "odd"),
                "even rows": ("even", None), "none": (None, None)}
FOLD_POLYS = {"odd": [0.0, 1.0, 0.0, -0.5, 0.0, 0.25], "even": [0.3, 0.0, 1.0, 0.0, -0.2],
              "mixed": [0.0, 0.5, 1.0, 1.0]}


def class_field(seed, lt, lx, rows, cols, stray=None):
    """A random (lt+1, lx) field on the rows and columns of a class, plus
    the one off-class entry stray (row, column index) when given."""
    c = random_field(np.random.default_rng(seed), lt, lx, scale=0.5).coeffs.copy()
    parity = {"odd": 1, "even": 0}
    if rows is not None:
        c[1 - parity[rows] :: 2] = 0.0
    if cols is not None:
        c[:, parity[cols] :: 2] = 0.0       # column index j - 1
    if stray is not None:
        c[stray] = 0.1
    return fields.SpectralField(c)


def fold_quantities(u, poly):
    """Every sampling the fold serves, of u, poly(u) and poly[2:](u), of the
    same parity; the last two are the integral of poly(u) and sup |u|."""
    rows, cols = lattice(u.lt, u.lx)
    return [*(p.coeffs for p in fields.apply_polynomials(u, [poly, poly[2:]])),
            fields.apply_nonlinearity(u, poly, out_lt=u.lt, out_lx=u.lx).coeffs,
            fields.multiply_poly_matrix(u, poly, rows, cols),
            np.array([fields.integrate_poly(u, poly)]), np.array([fields.sup_norm(u)])]


def assert_fold_matches(got, want, what):
    """Each array within FOLD_RTOL of its largest entry; the integral, which
    vanishes on some classes, within FOLD_RTOL of pi^2 times the largest
    coefficient of poly(u), the size of an integral over the domain."""
    scales = [np.max(np.abs(w)) for w in want]
    if len(want) > 2:
        scales[-2] = max(scales[-2], np.pi**2 * scales[0])
    for g, w, scale in zip(got, want, scales, strict=True):
        assert g.shape == w.shape, what
        assert np.max(np.abs(g - w)) <= FOLD_RTOL * scale, what


@both_paths
@pytest.mark.parametrize("cls", FOLD_CLASSES)
def test_fold_matches_the_full_torus(cls):
    # each class the fold reads, with one off-class entry at row 0 or in the
    # last column too, whose class is the weaker one, for odd, even and
    # mixed-parity polynomials; the shapes give grids of every length mod 4
    # on axes without a half shift, and multiples of 4 on those with one
    rows, cols = FOLD_CLASSES[cls]
    for seed, (lt, lx) in enumerate([(16, 16), (7, 9), (12, 5), (4, 2)]):
        for stray in (None, (0, lx // 2), (lt // 2, lx - 1)):
            u = class_field(seed, lt, lx, rows, cols, stray)
            for name, poly in FOLD_POLYS.items():
                got = fold_quantities(u, poly)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(fields, "_symmetry_class", lambda u, polys: fields._TRIVIAL)
                    want = fold_quantities(u, poly)
                assert_fold_matches(got, want, (lt, lx, stray, name))


@pytest.mark.parametrize("nt, nx", [(24, 32), (25, 33), (26, 34), (27, 35), (22, 31)])
def test_folded_samples_and_coefficients_match_the_full_torus(nt, nx):
    # at grid lengths of every residue mod 4: the dense samples on the
    # domain are the whole torus's FFT samples at its nodes, and the
    # coefficients read off them those the FFTs read off the whole torus,
    # exact zeros where the class has none; a half shift needs an even
    # length and is dropped on an odd one.  These sizes run dense, on a plan
    # made on the grid given
    for seed, cls in enumerate(FOLD_CLASSES.values()):
        u = class_field(seed, 2, 3, *cls)
        for poly in FOLD_POLYS.values():
            fold = fields._symmetry_class(u.coeffs, [poly])
            top, d_x = 2 * (len(poly) - 1), 3 * (len(poly) - 1)   # the degrees of poly(u)
            plan = fields._Sampling(u.coeffs.shape, fold, ((nt, nx), (nt, nx)), d_x, (top,), None)
            assert plan.dense
            nodes_t, nodes_x = fields._axis_fold(nt, *fold[:2])[0], fields._axis_fold(nx, *fold[2:])[0]
            full = fields._fft_values(u.coeffs, nt, nx)
            vals = fields._dense_values(u.coeffs, plan)
            assert_fold_matches([vals], [full[np.ix_(nodes_t, nodes_x)]], (fold, "samples"))
            got = fields._dense_coeffs(fields._poly_at(vals, poly), plan, top, plan.projections[0])
            want = fields._fft_coeffs(fields._poly_at(full, poly), top, d_x)
            scale = max(np.max(np.abs(w)) for w in want)
            for g, w in zip(got, want):
                g = np.zeros_like(w) if g is None else g
                assert np.max(np.abs(g - w)) <= FOLD_RTOL * scale, (fold, poly)


def test_axis_fold_weights_count_every_node_once():
    # the weights are the orbit sizes, 2 on self-paired nodes and 4 inside,
    # so the sum over the axis of a product of two harmonics of the class,
    # which the dropped nodes zero, is the weighted sum over the nodes
    for n in (16, 17, 18, 19, 100):
        s = 2.0 * np.pi * np.arange(n) / n
        for shift in (None, 1, -1):
            for reflect in (None, 1, -1):
                nodes, weights = fields._axis_fold(n, shift, reflect)
                assert np.all(np.diff(nodes) > 0) and weights.sum() <= n
                half = shift if n % 2 == 0 else None
                H = np.stack([trig(l * s) for l in range(n) for trig, sign in ((np.cos, 1), (np.sin, -1))
                              if half in (None, (-1) ** l) and reflect in (None, sign)], axis=1)
                gram = H[nodes].T @ (weights[:, None] * H[nodes])
                assert np.max(np.abs(gram - H.T @ H)) <= 1e-12 * n, (n, shift, reflect)
    nodes, weights = fields._axis_fold(100, -1, 1)   # f(u) of odd rows in t
    assert nodes.size == 25 and weights[0] == 2 and set(weights[1:]) == {4}


def record_executors(monkeypatch):
    """The executors of fields each call runs, in order, with the grid it
    samples or projects on."""
    seen = []

    def recording(name, grid):
        real = getattr(fields, name)

        def run(*args):
            seen.append((name, grid(*args)))
            return real(*args)
        monkeypatch.setattr(fields, name, run)

    recording("_dense_values", lambda c, plan: plan.grid)
    recording("_fft_values", lambda c, nt, nx: (nt, nx))
    recording("_dense_coeffs", lambda vals, plan, *rest: plan.grid)
    recording("_fft_coeffs", lambda vals, top, d_x: vals.shape)
    return seen


def test_scipy_fft_path_samples_the_whole_torus(monkeypatch):
    # both_paths's bounds send every sampling and projection of a frame
    # field of u^3 to the dense executors, then to the FFT executors, which
    # sample the whole torus on the trivial class's grid: _grid(5 lt) and
    # _grid(5 lx) for u^5
    seen = record_executors(monkeypatch)
    u = class_field(0, 16, 16, "odd", "odd")
    runs = []

    @both_paths
    def sample():
        seen.clear()
        fields.apply_polynomials(u, [FOLD_POLYS["odd"]])
        fields.sup_norm(u)
        runs.append(list(seen))

    sample()
    dense, fft = runs
    assert [name for name, _ in dense] == ["_dense_values", "_dense_coeffs", "_dense_values"]
    assert [name for name, _ in fft] == ["_fft_values", "_fft_coeffs", "_fft_values"]
    assert fft[0][1] == fft[1][1] == (fields._grid(5 * u.lt), fields._grid(5 * u.lx))
