"""Branch pipeline: sphere maximization, Newton refinement, records."""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import optimize

from resowave import fields, frequency, kernel, nonlinearity, psolve, reduced, search
from resowave.errors import ConfigError, ConvergenceError, ResonanceError, ResowaveError

F3 = nonlinearity.classify({3: 1.0})


def ctx_cubic(eps=1e-3, L=24):
    return frequency.make_context(frequency.omega_for_eps(eps), L=L)


def dilate(frame, u, lt, lx):
    """The frame field u placed at its modes (n k, d m) of an (lt+1, lx) field."""
    c = np.zeros((lt + 1, lx))
    c[:: frame.n, frame.d - 1 :: frame.d] = u.coeffs
    return fields.SpectralField(c)


def sized(frame, lt, lx):
    """frame holding the truncation (lt, lx), as _truncation records it, unchecked."""
    return dataclasses.replace(frame, lt=lt, lx=lx)


def whole(f, c):
    """The identity frame of f sized to the field of coefficients c: its every entry."""
    return search._Frame(1, 1, f, lt=c.shape[0] - 1, lx=c.shape[1])


def newton(v0, ctx, f, lt=None, lx=None):
    """refine's Newton at the truncation (lt, lx): (frame, U, report), the frame
    of v0's level and class sized as level_truncation sizes it, whose refusals
    come before anything is sampled, and the Newton from v0 placed on it."""
    n = kernel.minimal_time_period_index(v0)
    frame = search._truncation(ctx, search._dilation_frame(f, n, v0), ("len(v)", len(v0)), lt, lx)
    return frame, *search._newton(frame.place(v0.xi[n - 1 :: n]), ctx, frame)


def test_maximize_dim1_value_is_exact():
    # on the 1-d unit sphere G is the constant 9/(128 pi^2)
    rec = reduced.g_recipe(F3, +1, n=1)
    y, m, diag = search.maximize_U(rec, 1, seed=0, restarts=2)
    assert abs(m - 9.0 / (128.0 * np.pi**2)) < 1e-12
    assert abs(y.xi[0] - 1.0 / np.pi) < 1e-10
    assert diag.grad_norm < 1e-10


def test_maximize_seed_independent_value():
    rec = reduced.g_recipe(F3, +1, n=1)
    _, m0, _ = search.maximize_U(rec, 4, seed=0, restarts=6)
    _, m1, _ = search.maximize_U(rec, 4, seed=1, restarts=6)
    assert abs(m0 - m1) < 1e-8 * m0
    # more directions can only help
    assert m0 >= 9.0 / (128.0 * np.pi**2) - 1e-12


def test_maximize_raises_on_infeasible_sign():
    # with a < 0 the recipe for omega < 1 has G(v) = -(a/4) int v^4... flipped
    # back by the side's sign, so force infeasibility with a hand-built recipe
    rec = reduced.GRecipe(
        case="odd-power", q=3, n=1, side=+1,
        hess=lambda y: tuple(-t for t in reduced.G_eval(y, F3, hess=True)),
    )
    with pytest.raises(ResowaveError):
        search.maximize_U(rec, 2, seed=0, restarts=2)


def test_maximize_refuses_an_overflowing_hessian():
    # G and its gradient finite, the Hessian not: refused like G itself
    def hess(y):
        value, grad, h = reduced.G_eval(y, F3, hess=True)
        return value, grad, np.where(np.arange(h.shape[-1]) == 1, np.inf, h)

    rec = dataclasses.replace(reduced.g_recipe(F3, +1, n=1), hess=hess)
    with pytest.raises(ResowaveError, match="not finite"):
        search.maximize_U(rec, 4, seed=0, restarts=3)


@pytest.mark.parametrize("coeffs, side", [({3: 1.0}, +1), ({2: 1.0}, -1)])
def test_maximize_call_budget(coeffs, side):
    # one safeguarded Newton iteration per restart; the restarts run in
    # lock-step, one stacked value-gradient-Hessian call per round
    recipe = reduced.g_recipe(nonlinearity.classify(coeffs), side, n=1)
    calls, rows = [0], [0]

    def counted(y):
        calls[0] += 1
        rows[0] += len(y)
        return recipe.hess(y)

    search.maximize_U(dataclasses.replace(recipe, hess=counted), 6, seed=0, restarts=8)
    assert rows[0] <= 6 * 8 and calls[0] <= 8, (rows, calls)


def test_maximize_u2_peak_memory_at_dim_32():
    # the form's complex-step Hessian stacks dim/2 + 1 rows per restart,
    # each of the size of one gradient evaluation: u^2 at dim 32 with 16
    # restarts peaks near 15 MiB, where a difference Hessian that carries
    # dim/2 tangents through each of dim/2 + 1 gradients needs 54 MiB
    recipe = reduced.g_recipe(nonlinearity.classify({2: 1.0}), -1, n=1)
    tracemalloc.start()
    try:
        search.maximize_U(recipe, 32, seed=0, restarts=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20, peak


def test_maximize_u2_peak_memory_does_not_grow_with_restarts(monkeypatch):
    # the live rows are evaluated in chunks of MAX_HESS_ENTRIES // (dim/2)^2
    # rows: in chunks of 3 rows, u^2 at dim 32 peaks alike at 4 and 32
    # restarts (one stack of 32 rows takes eight times the memory of 4), and
    # rows never mix, so chunking leaves every result bit for bit
    recipe = reduced.g_recipe(nonlinearity.classify({2: 1.0}), -1, n=1)

    def run(restarts):
        tracemalloc.start()
        try:
            y, _, diag = search.maximize_U(recipe, 32, seed=0, restarts=restarts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return y.xi, dataclasses.replace(diag, y_star=None), peak

    xi, diag, _ = run(32)
    monkeypatch.setattr(search, "MAX_HESS_ENTRIES", 3 * 16**2)
    chunked_xi, chunked_diag, peak = run(32)
    assert np.array_equal(chunked_xi, xi) and chunked_diag == diag
    assert peak <= 1.1 * run(4)[2], peak


# the shapes of G in test_reduced, each on a side where it has a branch
ORACLE_SHAPES = {"odd-power": ({3: 1.0}, +1), "n1": ({4: 1.0, 5: 1.0}, +1), "n2": ({2: 1.0}, -1),
                 "n3-bneg": ({2: 1.0, 3: -1.0}, -1), "n3-bpos": ({2: 1.0, 3: 0.2}, -1)}


@pytest.mark.parametrize("dim", [6, 12])
@pytest.mark.parametrize("name", list(ORACLE_SHAPES))
def test_reflection_even_maximum_is_the_whole_spheres(name, dim):
    # maximize_U searches only the odd j; an independent, seeded BFGS
    # ascent of U = G/|v|_H1^(q+1) over all dim coordinates, from G_eval's
    # value and gradient, reaches the same maximum
    coeffs, side = ORACLE_SHAPES[name]
    f = nonlinearity.classify(coeffs)
    recipe = reduced.g_recipe(f, side, n=1)
    # the side's sign, read off the recipe at xi = e_1
    sign = recipe.hess(np.ones((1, 1)))[0][0] / reduced.G_eval(np.ones(1), f)
    j2 = (np.pi * np.arange(1, dim + 1)) ** 2

    def minus_u(xi):
        norm = np.sqrt(np.sum(j2 * xi * xi))
        G, g = sign * reduced.G_eval(xi, f), sign * reduced.G_eval(xi, f, grad=True)
        grad = g / norm ** (f.q + 1) - (f.q + 1) * G * j2 * xi / norm ** (f.q + 3)
        return -G / norm ** (f.q + 1), -grad

    rng = np.random.default_rng(7)
    whole = max(-optimize.minimize(minus_u, rng.standard_normal(dim) / np.arange(1, dim + 1),
                                   jac=True, method="BFGS", options={"gtol": 1e-12}).fun
                for _ in range(3))
    y, m, _ = search.maximize_U(recipe, dim, seed=0, restarts=8)
    assert abs(m - whole) <= 1e-12 * whole
    assert len(y) == dim and not np.any(y.xi[1::2])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("name", list(ORACLE_SHAPES))
def test_maximize_on_a_single_odd_coordinate(name, dim):
    # dim 1 and 2 leave only j = 1: the sphere is the point +-e_1/pi, whose
    # tangent space is empty, and the maximum is G there
    coeffs, side = ORACLE_SHAPES[name]
    f = nonlinearity.classify(coeffs)
    recipe = reduced.g_recipe(f, side, n=1)
    y, m, diag = search.maximize_U(recipe, dim, seed=0, restarts=3)
    e1 = np.zeros(dim)
    e1[0] = 1.0 / np.pi
    assert np.array_equal(y.xi, e1)
    assert m == recipe.hess(np.full((1, 1), 1.0 / np.pi))[0][0]
    assert diag.iterations == 1 and diag.grad_norm == 0.0


NEWTON_SHAPES = [({3: 1.0}, +1), ({2: 1.0}, -1), ({3: 1.0, 5: 0.5}, +1), ({2: 1.0, 3: -1.0}, -1)]


def test_maximize_restarts_are_independent():
    # lock-step restarts: fewer restarts give the leading values bit for
    # bit, and a row of a stacked Hessian call is the row alone
    stack = np.random.default_rng(43).standard_normal((4, 6))
    for coeffs, side in NEWTON_SHAPES:
        rec = reduced.g_recipe(nonlinearity.classify(coeffs), side, n=1)
        three = search.maximize_U(rec, 6, seed=5, restarts=3)[2].restart_values
        eight = search.maximize_U(rec, 6, seed=5, restarts=8)[2].restart_values
        assert three == eight[:3]
        values, grads, hessians = rec.hess(stack)
        assert hessians.shape == (4, 6, 6)
        for row, value, grad, hess in zip(stack, values, grads, hessians):
            alone = rec.hess(row[None])
            assert alone[0][0] == value and np.array_equal(alone[1][0], grad)
            assert np.array_equal(alone[2][0], hess)


@pytest.mark.parametrize("coeffs, side", NEWTON_SHAPES)
def test_best_restart_is_the_first_at_the_maximum(coeffs, side):
    # every restart ends at the same maximum to rounding, so the winner is
    # the first restart within 1e-12 relative of the largest value, not the
    # one whose last bit happens to be highest
    rec = reduced.g_recipe(nonlinearity.classify(coeffs), side, n=1)
    _, m, diag = search.maximize_U(rec, 6, seed=5, restarts=8)
    values = np.array(diag.restart_values)
    assert np.ptp(values) <= 1e-12 * m
    assert diag.best_restart == 0 and m == values[0]


def test_maximize_needs_a_restart():
    rec = reduced.g_recipe(F3, +1, n=1)
    with pytest.raises(ResowaveError, match="restart"):
        search.maximize_U(rec, 2, seed=0, restarts=0)


@pytest.mark.parametrize("dim, restarts, cap", [
    (search.MAX_DIM + 1, 1, "MAX_DIM"), (0, 1, "MAX_DIM"),
    (2, search.MAX_RESTARTS + 1, "MAX_RESTARTS"),
])
def test_maximize_refuses_a_sphere_above_its_caps(monkeypatch, dim, restarts, cap):
    # refused before a restart is drawn
    def never(*args, **kw):
        raise AssertionError("drew restarts on a refused sphere")

    monkeypatch.setattr(np.random, "default_rng", never)
    rec = reduced.g_recipe(F3, +1, n=1)
    with pytest.raises(ConfigError, match=cap):
        search.maximize_U(rec, dim, seed=0, restarts=restarts)


def test_branch_prediction_formulas():
    m, q, eps, n = 0.007, 3, 1e-3, 2
    t_star, level, h1 = search.branch_prediction(m, q, eps, n)
    mu = eps * n * n
    assert abs(t_star - (mu / (4 * m)) ** 0.5) < 1e-15
    assert abs(level - m * t_star**4) < 1e-18
    assert abs(h1 - n * t_star) < 1e-15
    with pytest.raises(ResowaveError):
        search.branch_prediction(0.0, 3, 1e-3, 1)


def test_initial_guess_support_and_scale():
    rec = reduced.g_recipe(F3, +1, n=3)
    ctx = ctx_cubic()
    y, m, diag = search.maximize_U(rec, 2, seed=0, restarts=3)
    v0, level = search.initial_guess(y, m, rec, ctx, diag)
    t_star, lvl, _ = search.branch_prediction(m, rec.q, ctx.eps, 3)
    assert level == lvl
    assert diag.predicted_amplitude == t_star
    assert len(v0) == 6
    assert np.all(v0.xi[[0, 1, 3, 4]] == 0.0)
    assert abs(v0.xi[2] - t_star * y.xi[0]) < 1e-15
    assert abs(v0.h1() - 3 * t_star) < 1e-12


def test_refine_reaches_tolerance_and_small_residual():
    rec = reduced.g_recipe(F3, +1, n=1)
    ctx = ctx_cubic()
    y, m, diag = search.maximize_U(rec, 4, seed=0, restarts=4)
    v0, level = search.initial_guess(y, m, rec, ctx, diag)
    v, w, rep = search.refine(v0, ctx, F3)
    assert rep.converged
    assert rep.grad_norm <= 1e-12
    assert search.galerkin_residual(v, w, ctx, F3) < 1e-12
    g = reduced.grad_phi(v, ctx, F3, tol=1e-14, lt=w.lt, lx=w.lx)
    assert np.linalg.norm(g) < 1e-11


def test_refine_aborts_outside_contraction_domain(monkeypatch):
    # the guard reads the guess's kernel entries before anything is
    # sampled: a refused guess evaluates no F and leaves an empty trace
    calls = []
    real = search._galerkin_F

    def counting(u, ctx, frame):
        calls.append(u)
        return real(u, ctx, frame)

    monkeypatch.setattr(search, "_galerkin_F", counting)
    ctx = ctx_cubic()
    big = kernel.KernelVector([0.9])
    with pytest.raises(ConvergenceError, match="contraction domain") as err:
        search.refine(big, ctx, F3)
    assert calls == [] and err.value.trace == ()


def test_refine_stalls_on_a_step_that_does_not_descend(monkeypatch):
    # a zero Newton step never lowers the residual, so the line search
    # halves it down to 1e-6 and gives up on the first iterate
    rec = reduced.g_recipe(F3, +1, n=1)
    ctx = ctx_cubic()
    y, m, diag = search.maximize_U(rec, 4, seed=0, restarts=4)
    v0, _ = search.initial_guess(y, m, rec, ctx, diag)
    monkeypatch.setattr(search, "_newton_solve", lambda J, rhs, split: np.zeros_like(rhs))
    with pytest.raises(ConvergenceError, match="stalled without reaching the tolerance") as exc:
        search.refine(v0, ctx, F3)
    first, last = exc.value.trace
    assert first == last > search.GTOL


@pytest.mark.parametrize("coeffs, d", [({3: 1.0, 5: 0.5}, 2), ({2: 0.5, 3: 1.0}, 1)],
                         ids=["odd", "even"])
def test_galerkin_jacobian_matches_residual_differences(coeffs, d):
    # oracle: central differences of the Galerkin residual itself, in the
    # level-2 frame; the odd f keeps rows and columns 2Z with f/4 and, of
    # those, the entries k and m odd, the even one rows 2Z with the symbol
    # m^2 - omega^2 (2k)^2 and every entry (level 2 is even).  The even f
    # has an odd power too, so both the cosine and the sine part of the
    # multiplication matrix are exercised.  The field is not in the kept
    # class: the kept block is exact at any field
    frame = search._dilation_frame(nonlinearity.classify(coeffs), 2)
    odd = d == 2
    assert (frame.n, frame.d, frame.odd_rows, frame.odd_cols) == (2, d, odd, odd)
    ctx = ctx_cubic()
    lt = lx = 8
    frame = sized(frame, 2 * lt, d * lx)
    keep = frame.lattice()[2]
    assert keep.size == (4 * 4 if odd else 9 * 8)
    rng = np.random.default_rng(3)
    c = 0.02 * rng.standard_normal((lt + 1, lx))
    J = search._galerkin_jacobian(c, ctx, frame)
    h = 1e-5
    fd = np.zeros_like(J)
    for col, k in enumerate(keep):
        step = np.zeros_like(c)
        step.flat[k] = h
        fp = search._galerkin_F(c + step, ctx, frame)
        fm = search._galerkin_F(c - step, ctx, frame)
        fd[:, col] = (fp - fm).ravel()[keep] / (2.0 * h)
    # measured against the f'(u) part, which the symbol on the diagonal
    # would otherwise swamp
    nonlin = J - np.diag(frame.symbol(ctx.omega).ravel()[keep])
    assert np.linalg.norm(fd - J) <= 1e-7 * np.linalg.norm(nonlin)


def test_galerkin_jacobian_names_resonant_range_entry():
    # omega = 3/2 makes the off-diagonal symbol omega^2 l^2 - j^2 vanish at
    # (l, j) = (2, 3), which f'(u) = 2u couples to every kernel entry; in the
    # level-2 time frame that mode is the entry (1, 3), named as (2, 3)
    f2 = nonlinearity.classify({2: 1.0})
    ctx = frequency.FrequencyContext(omega=1.5, eps=0.625, gamma=0.1, L=16)
    v = kernel.KernelVector([0.05, 0.02, 0.0, 0.0, 0.0, 0.0])
    u = kernel.embed(v).coeffs
    with pytest.raises(ResonanceError) as err:
        search._galerkin_jacobian(u, ctx, whole(f2, u))
    assert (err.value.l, err.value.j) == (2, 3)
    frame = sized(search._dilation_frame(f2, 2), 12, 12)
    v2 = kernel.rescale(v, 2)
    with pytest.raises(ResonanceError) as err:
        search._galerkin_jacobian(kernel.embed(v2).coeffs[::2], ctx, frame)
    assert (err.value.l, err.value.j) == (2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_refine_range_step_names_resonant_range_entry(monkeypatch, n):
    # the same resonance met by refine's first move for u^2: the range step
    # divides P f(v0), which has an entry at (2, 3), by the frame's symbol,
    # so it refuses that mode with omega^2 l^2 - j^2, before any Jacobian
    # and without dividing by zero.  The guess sits inside the contraction
    # domain, so the guard lets it through
    f2 = nonlinearity.classify({2: 1.0})
    ctx = frequency.FrequencyContext(omega=1.5, eps=0.625, gamma=0.1, L=16)
    v0 = kernel.rescale(kernel.KernelVector([1e-3, 4e-4, 0.0, 0.0, 0.0, 0.0]), n)
    assert psolve.contraction_domain(v0, ctx, f2) <= psolve.DOMAIN_RHO
    monkeypatch.setattr(search, "_galerkin_jacobian", None)
    with pytest.raises(ResonanceError) as err:
        search.refine(v0, ctx, f2)
    assert (err.value.l, err.value.j) == (2, 3)
    assert err.value.value == ctx.omega**2 * 2**2 - 3**2


def test_galerkin_jacobian_names_resonant_checkerboard_entry():
    # omega = 5/3 makes omega^2 l^2 - j^2 vanish at (l, j) = (3, 5), where
    # l and j are odd: an unknown of the odd f's frame, which f'(u) = 3u^2
    # couples to the kernel; in the level-2 frame that is the entry (3, 5),
    # named as (6, 10)
    ctx = frequency.FrequencyContext(omega=5.0 / 3.0, eps=8.0 / 9.0, gamma=0.1, L=16)
    v = kernel.KernelVector([0.05, 0.02, 0.0, 0.0, 0.0, 0.0])
    frame = search._dilation_frame(F3, 1)
    assert frame.odd_rows and frame.odd_cols
    with pytest.raises(ResonanceError) as err:
        search._galerkin_jacobian(kernel.embed(v).coeffs, ctx, sized(frame, 6, 6))
    assert (err.value.l, err.value.j) == (3, 5)
    v2 = kernel.rescale(v, 2)
    with pytest.raises(ResonanceError) as err:
        search._galerkin_jacobian(kernel.embed(v2).coeffs[::2, 1::2], ctx,
                                  sized(search._dilation_frame(F3, 2), 12, 12))
    assert (err.value.l, err.value.j) == (6, 10)
    # at omega = 3/2 the vanishing divisor of the (3, 3) truncation sits at
    # (2, 3), off the kept entries k and m odd: not an unknown, so nothing
    # to refuse
    ctx = frequency.FrequencyContext(omega=1.5, eps=0.625, gamma=0.1, L=16)
    u = kernel.embed(kernel.KernelVector(v.xi[:3]))
    assert (u.lt, u.lx) == (3, 3)
    J = search._galerkin_jacobian(u.coeffs, ctx, sized(frame, 3, 3))
    assert J.shape == (kept_size(4, 3, odd_k=True, odd_m=True),) * 2


def test_galerkin_jacobian_resonance_window_is_apply_L_inv():
    # the mode (9, 15) is the entry (3, 5) of the level-3 frame of an odd f.
    # Near omega = 5/3 its divisor j^2 - omega^2 l^2 is a few 1e-10, above
    # RESONANCE_TOL: neither apply_L_inv nor the frame refuses it.  Nearer
    # still both refuse it, with the value omega^2 l^2 - j^2
    frame = sized(search._dilation_frame(F3, 3), 18, 18)
    assert (frame.d, frame.odd_rows, frame.odd_cols) == (3, True, True)
    U = kernel.embed(kernel.KernelVector([0.05, 0.0, 0.02, 0.0, 0.0, 0.0]))
    mode = np.zeros((10, 18))
    mode[9, 14] = 1.0
    for gap, refused in [(5e-11, False), (5e-12, True)]:
        omega = np.sqrt((25.0 - gap) / 9.0)
        ctx = frequency.FrequencyContext(omega=omega, eps=0.5 * (omega**2 - 1.0), gamma=0.1, L=24)
        value = omega**2 * 81.0 - 225.0
        assert (abs(value) < psolve.RESONANCE_TOL) == refused and abs(value) < 9e-10
        if refused:
            with pytest.raises(ResonanceError) as err:
                search._galerkin_jacobian(U.coeffs, ctx, frame)
            with pytest.raises(ResonanceError) as ref:
                psolve.apply_L_inv(fields.SpectralField(mode), omega)
            for e in (err.value, ref.value):
                assert (e.l, e.j, e.value) == (9, 15, value)
        else:
            search._galerkin_jacobian(U.coeffs, ctx, frame)
            psolve.apply_L_inv(fields.SpectralField(mode), omega)


@pytest.mark.parametrize("f, side, n", [(F3, +1, 1), (F3, +1, 2),
                                        (nonlinearity.classify({2: 1.0}), -1, 1)])
def test_refine_returns_the_range_solution(f, side, n):
    # the range rows of the Galerkin Newton solve the range equation, so its
    # w is the contraction map's w(v) at the returned v
    ctx = ctx_cubic(eps=1e-3 * side)
    rec = reduced.g_recipe(f, side, n=n)
    y, m, diag = search.maximize_U(rec, 3, seed=0, restarts=3)
    v0, _ = search.initial_guess(y, m, rec, ctx, diag)
    v, w, rep = search.refine(v0, ctx, f)
    assert rep.converged
    w_p, _ = psolve.solve_P(v, ctx, f, tol=1e-14, lt=w.lt, lx=w.lx)
    scale = np.max(np.abs(w_p.coeffs))
    assert np.max(np.abs(w.coeffs - w_p.coeffs)) <= 1e-12 * scale


def test_refine_stops_at_a_rounding_level_step():
    # at this level one step already brings the residual below 1e-12 while
    # leaving xi 1.2e-10 off; the stop waits for a rounding-level step, so
    # one more Newton step from the returned point moves it by rounding only
    ctx = ctx_cubic(eps=1e-4)
    rec = reduced.g_recipe(F3, +1, n=1)
    y, m, diag = search.maximize_U(rec, 6, seed=0, restarts=4)
    v0, _ = search.initial_guess(y, m, rec, ctx, diag)
    v, w, _ = search.refine(v0, ctx, F3)
    u = fields.SpectralField((kernel.embed(v) + w).padded(w.lt, w.lx))
    F = search._galerkin_F(u.coeffs, ctx, whole(F3, u.coeffs))
    step = np.linalg.solve(row_major_jacobian(u, ctx, F3), -F.ravel())
    assert np.max(np.abs(step)) <= 1e-14 * np.max(np.abs(v.xi))


def test_build_solution_rejects_level_far_below_prediction():
    rec = reduced.g_recipe(F3, +1, n=1)
    ctx = ctx_cubic()
    y, m, diag = search.maximize_U(rec, 3, seed=0, restarts=3)
    v0, level = search.initial_guess(y, m, rec, ctx, diag)
    v, w, rep = search.refine(v0, ctx, F3)
    assert search.build_solution(v, w, ctx, F3, rec, level, newton=rep).accepted
    far = search.build_solution(v, w, ctx, F3, rec, 1e4 * level, newton=rep)
    assert not far.accepted


def test_build_solution_certificates_and_level():
    rec = reduced.g_recipe(F3, +1, n=1)
    ctx = ctx_cubic()
    y, m, diag = search.maximize_U(rec, 4, seed=0, restarts=4)
    v0, level = search.initial_guess(y, m, rec, ctx, diag)
    v, w, rep = search.refine(v0, ctx, F3)
    record = search.build_solution(v, w, ctx, F3, rec, level, newton=rep)
    assert record.accepted
    assert record.n == 1 and record.q == 3 and record.case == "odd-power"
    assert record.h1 == v.h1()
    assert record.residual < 1e-12
    assert abs(record.phi - level) < 0.01 * level
    assert record.sup > 0.0
    _, _, energies, drift = certify_full(v, w, ctx, F3)
    assert record.energy == energies[0]
    assert drift < 1e-12


def test_record_document_round_trip_and_schema():
    br = search.solve_branch(ctx_cubic(), F3, n_max=1, dim=3, seed=0, restarts=3)
    rec = br.records[0]
    doc = rec.as_document()
    assert "outside_theorem" not in doc
    back = search.SolutionRecord.from_document(doc)
    assert back.as_document() == doc
    with pytest.raises(ResowaveError):
        search.SolutionRecord.from_document({**doc, "extra": 1})
    short = dict(doc)
    del short["h1"]
    with pytest.raises(ResowaveError):
        search.SolutionRecord.from_document(short)


def test_involution_partner_is_an_involution():
    rng = np.random.default_rng(2)
    u = fields.SpectralField(rng.standard_normal((5, 4)))
    twice = search.involution_partner(search.involution_partner(u))
    assert np.array_equal(twice.coeffs, u.coeffs)


def test_partner_of_partner_is_bitwise_identity():
    f2 = nonlinearity.classify({2: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(-4e-4), L=24)
    br = search.solve_branch(ctx, f2, n_max=1, dim=3, seed=0, restarts=3)
    rec = br.records[0]
    partner = search.partner_record(rec, f2)
    again = search.partner_record(partner, f2)
    assert json.dumps(again.as_document()) == json.dumps(rec.as_document())
    assert partner.accepted
    # the companion is a genuinely different solution for even nonlinearities
    assert not np.array_equal(partner.xi, rec.xi)


def test_partner_matches_range_solve_at_reflected_kernel():
    # w(-v) equals the involution image of w(v) for any nonlinearity
    f2 = nonlinearity.classify({2: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(-4e-4), L=24)
    rng = np.random.default_rng(3)
    v = kernel.KernelVector(0.02 * rng.standard_normal(3))
    with pytest.warns(UserWarning, match="above rho"):
        w, _ = psolve.solve_P(v, ctx, f2, tol=1e-14)
        w_neg, _ = psolve.solve_P(kernel.KernelVector(-v.xi), ctx, f2, tol=1e-14)
    u = kernel.embed(v) + w
    predicted = fields.zero_diagonal(search.involution_partner(u))
    diff = w_neg - predicted
    assert np.sqrt(fields.inner_h1(diff, diff)) < 1e-12 * max(1.0, np.sqrt(fields.inner_h1(w, w)))


def test_temporal_support_index_sees_dilation():
    ctx = ctx_cubic()
    v3 = kernel.rescale(kernel.KernelVector([0.05, 0.02]), 3)
    w3, _ = psolve.solve_P(v3, ctx, F3)
    assert search.temporal_support_index(v3, w3) == 3


@pytest.mark.parametrize("rows, cols", [(10, 10), (6, 10), (10, 3), (1, 1)],
                         ids=["square", "short", "narrow", "one-entry"])
def test_temporal_support_index_reads_the_sum_of_v_and_w(rows, cols):
    # xi on j = 2, 4 against a w on rows 0 and 4 that is square, short or
    # narrow beside it: the index is the one read off embed(v) + w, also
    # where a diagonal entry of w cancels xi's (row 2 empties: index 4),
    # lands off xi's rows (index 1) or holds its row's largest entry; and so
    # on seeded random pairs of every shape up to 6 x 6
    def summed(v, w):
        return search._support_index((kernel.embed(v) + w).coeffs)

    v = kernel.KernelVector([0.0, 0.4, 0.0, 0.3])
    c = np.zeros((rows, cols))
    c[0:5:4] = 1e-3
    cases = [c]
    for l, value, want in [(2, -0.4, 4), (3, 1e-6, 1), (4, 5.0, 2)]:
        if l < rows and l <= cols:
            d = c.copy()
            d[l, l - 1] = value
            cases.append(d)
            w = fields.SpectralField(d)
            assert search.temporal_support_index(v, w) == summed(v, w) == want
    for d in cases:
        w = fields.SpectralField(d)
        assert search.temporal_support_index(v, w) == summed(v, w)
    rng = np.random.default_rng(rows * 100 + cols)
    for _ in range(50):
        shape, size = rng.integers(1, 7, 2), rng.integers(1, 7)
        d = rng.standard_normal(shape) * (rng.random(shape) < 0.4)
        xi = rng.standard_normal(size) * (rng.random(size) < 0.6)
        k = min(size, shape[0] - 1, shape[1])
        if k:
            d[k, k - 1] = -xi[k - 1]
        v, w = kernel.KernelVector(xi), fields.SpectralField(d)
        assert search.temporal_support_index(v, w) == summed(v, w)


def test_solve_branch_deterministic_and_ordered():
    ctx = ctx_cubic()
    a = search.solve_branch(ctx, F3, n_max=2, dim=4, seed=0, restarts=4)
    b = search.solve_branch(ctx, F3, n_max=2, dim=4, seed=0, restarts=4)
    assert [r.n for r in a.records] == [1, 2]
    assert a.failures == []
    assert all(r.accepted for r in a.records)
    docs_a = json.dumps([r.as_document() for r in a.records])
    docs_b = json.dumps([r.as_document() for r in b.records])
    assert docs_a == docs_b


def count_maximizations(monkeypatch):
    calls = []
    real = search.maximize_U

    def counting(recipe, dim, **kw):
        calls.append((recipe.n, kw["seed"]))
        return real(recipe, dim, **kw)

    monkeypatch.setattr(search, "maximize_U", counting)
    return calls


def test_solve_branch_maximizes_n_invariant_G_once(monkeypatch):
    calls = count_maximizations(monkeypatch)
    br = search.solve_branch(ctx_cubic(eps=1e-4, L=32), F3, n_max=3, dim=3,
                             seed=5, restarts=2)
    assert [r.n for r in br.records] == [1, 2, 3]
    assert calls == [(1, 5)]
    # every level is a dilation of the one maximizer
    y = br.records[0].xi[:3] / np.linalg.norm(br.records[0].xi[:3])
    for r in br.records[1:]:
        yn = r.xi[r.n - 1 :: r.n][:3]
        assert np.max(np.abs(yn / np.linalg.norm(yn) - y)) < 0.05


def test_solve_branch_maximizes_quadratic_form_per_level(monkeypatch):
    calls = count_maximizations(monkeypatch)
    f2 = nonlinearity.classify({2: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(-2e-4), L=24)
    br = search.solve_branch(ctx, f2, n_max=3, dim=2, seed=5, restarts=2)
    assert [n for n, _ in calls] == [1, 2, 3]
    assert [seed for _, seed in calls] == [1005, 2005, 3005]
    attempted = [r.n for r in br.records] + [n for n, _ in br.failures]
    assert sorted(attempted) == [1, 2, 3]


def test_level_maximizer_copies_diagnostics():
    maximizer = search.LevelMaximizer(2, seed=0, restarts=2)
    y1, m1, d1 = maximizer(reduced.g_recipe(F3, +1, n=1))
    y2, m2, d2 = maximizer(reduced.g_recipe(F3, +1, n=2))
    assert y1 is y2 and m1 == m2
    assert d1 is not d2
    search.initial_guess(y2, m2, reduced.g_recipe(F3, +1, n=2), ctx_cubic(), d2)
    assert d1.predicted_amplitude is None and d2.predicted_amplitude is not None


def test_solve_branch_resonant_gamma_is_empty():
    ctx = frequency.make_context(1.5, L=8)
    out = search.solve_branch(ctx, F3)
    assert out.records == [] and out.failures == []


def test_solve_branch_forced_below_coverage_flags_record():
    # pure quartic is covered only from n = 2; forcing n = 1 still solves
    # but marks the record as outside the proven range
    f4 = nonlinearity.classify({4: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(-2e-4), L=24)
    br = search.solve_branch(ctx, f4, n_max=1, dim=3, seed=0, restarts=4, force_n_min=1)
    assert [r.n for r in br.records] == [1]
    assert br.records[0].outside_theorem
    assert br.records[0].accepted
    # without forcing, levels start at n = 2, so n_max = 1 leaves nothing to do
    plain = search.solve_branch(ctx, f4, n_max=1, dim=3, seed=0, restarts=4)
    assert plain.records == [] and plain.failures == []


# ---------------------------------------------------------------------------
# the dilation frames

F35 = nonlinearity.classify({3: 1.0, 5: 0.5})
# the criterion-6 context
C6_CTX = frequency.make_context(1.0001, L=48)


def row_major_jacobian(u, ctx, f):
    """_galerkin_jacobian on every entry of u, its rows and columns row-major."""
    full = whole(f, u.coeffs)
    where = np.argsort(full.lattice()[2])
    return search._galerkin_jacobian(u.coeffs, ctx, full)[np.ix_(where, where)]


def full_lattice_refine(v0, ctx, f, lt, lx):
    """refine without the dilation frame: damped Newton on the whole nZ x {1..lx}.

    Residual and Jacobian are the full-field ones, restricted to the rows nZ
    of the (lt, lx) truncation.  The contraction guard is left out; it only
    warns or aborts.
    """
    n = kernel.minimal_time_period_index(v0)
    full = search._Frame(1, 1, f, lt=lt, lx=lx)
    rows = np.zeros((lt + 1, lx), dtype=bool)
    rows[::n] = True
    keep = np.flatnonzero(rows)
    v = kernel.KernelVector(np.pad(v0.xi, (0, lx - len(v0))))
    u = fields.SpectralField(kernel.embed(v).padded(lt, lx))
    F = search._galerkin_F(u.coeffs, ctx, full)[rows]
    gnorm = 0.5 * np.pi**2 * float(np.linalg.norm(F))
    settled = False
    for _ in range(search._NEWTON_MAX_ITER):
        if gnorm <= search.GTOL and settled:
            return kernel.KernelVector(fields.diagonal_of(u)), fields.zero_diagonal(u)
        delta = np.zeros_like(u.coeffs)
        J = row_major_jacobian(u, ctx, f)[np.ix_(keep, keep)]
        delta[rows] = np.linalg.solve(J, -F)
        t = 1.0
        while t >= 1e-6:
            u_c = fields.SpectralField(u.coeffs + t * delta)
            F_c = search._galerkin_F(u_c.coeffs, ctx, full)[rows]
            gn_c = 0.5 * np.pi**2 * float(np.linalg.norm(F_c))
            if gn_c < gnorm * (1.0 - 1e-4 * t) or gn_c <= search.GTOL:
                break
            t *= 0.5
        u, F, gnorm = u_c, F_c, gn_c
        step = float(np.max(np.abs(t * delta)))
        settled = t == 1.0 and step <= search._SQRT_EPS * float(np.max(np.abs(u.coeffs)))
    raise AssertionError("full-lattice Newton did not converge")


def assert_zero_off_kept_class(v, w, n):
    """Every entry of u = v + w off the entries the level-n frame of an odd f
    keeps, (n k, n m) with k and m odd, is an exact zero."""
    u = (kernel.embed(v) + w).coeffs
    l = np.arange(w.lt + 1)[:, None]
    j = np.arange(1, w.lx + 1)[None, :]
    on = (l % n == 0) & (j % n == 0) & (l // n % 2 == 1) & (j // n % 2 == 1)
    assert not np.any(u[~on])


@pytest.fixture(scope="module")
def level_guesses():
    """The criterion-6 guesses t* L_n y* at n = 1..6 for u^3 and u^3 + u^5/2."""
    out = {}
    for name, f in (("u3", F3), ("u35", F35)):
        maximizer = search.LevelMaximizer(6, seed=0, restarts=8)
        for n in range(1, 7):
            recipe = reduced.g_recipe(f, +1, n=n)
            y, m, diag = maximizer(recipe)
            out[name, n] = (f, recipe, *search.initial_guess(y, m, recipe, C6_CTX, diag))
    return out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("name", ["u3", "u35"])
def test_frame_solve_matches_full_lattice_solve(level_guesses, name, n):
    # the frame's solve on the entries k and m odd against the Newton on
    # every entry of the rows nZ; off those the solve leaves exact zeros
    f, recipe, v0, level = level_guesses[name, n]
    v, w, rep = search.refine(v0, C6_CTX, f)
    assert_zero_off_kept_class(v, w, n)
    record = search.build_solution(v, w, C6_CTX, f, recipe, level, newton=rep)
    v_ref, w_ref = full_lattice_refine(v0, C6_CTX, f, w.lt, w.lx)
    u_ref = kernel.embed(v_ref) + w_ref
    reference = {
        "xi": v_ref.xi,
        "w_coeffs": w_ref.coeffs,
        "h1": v_ref.h1(),
        "energy": certify_full(v_ref, w_ref, C6_CTX, f)[2][0],
        "phi": reduced.phi(v_ref, C6_CTX, f, w=w_ref),
    }
    for key, want in reference.items():
        got = np.asarray(getattr(record, key))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), key
    # sup is sampled on the frame's grid, finer than the full field's: equal
    # at sampling level, and below the true bound sum |u_lj|
    sup_ref = fields.sup_norm(u_ref)
    assert abs(record.sup - sup_ref) <= 1e-3 * sup_ref
    assert record.sup <= np.sum(np.abs(u_ref.coeffs))
    assert record.accepted and record.residual <= 1e-14


@pytest.mark.parametrize("n, lt, lx", [(2, 8, 8), (3, 13, 10), (6, 24, 24)])
def test_dilation_frame_scaling_laws(n, lt, lx):
    # odd f: the frame reads F_u at (n k, n m) with the level's own f, and
    # every other entry of F_u is zero; phi_u = n^2 phi_U[f/n^2], the
    # level-1 functional of f/n^2; even f: F_u(n k, j) = F_U(k, j) in the
    # time frame; each against the full-field value
    ctx = ctx_cubic()
    rng = np.random.default_rng(n)
    frame = search._dilation_frame(F35, n)
    assert (frame.n, frame.d, frame.f) == (n, n, F35)
    U = fields.SpectralField(0.05 * rng.standard_normal((lt // n + 1, lx // n)))
    u = dilate(frame, U, lt, lx)
    F_full = search._galerkin_F(u.coeffs, ctx, whole(F35, u.coeffs))
    F_law = dilate(frame, fields.SpectralField(
        search._galerkin_F(U.coeffs, ctx, sized(frame, lt, lx))), lt, lx).coeffs
    assert np.max(np.abs(F_full - F_law)) <= 1e-14 * np.max(np.abs(F_full))
    phi_full = reduced.phi(kernel.KernelVector(fields.diagonal_of(u)), ctx, F35,
                           w=fields.zero_diagonal(u))
    phi_law = n**2 * reduced.phi(kernel.KernelVector(fields.diagonal_of(U)), ctx,
                                 nonlinearity.classify(F35.poly / n**2), w=fields.zero_diagonal(U))
    assert abs(phi_full - phi_law) <= 1e-14 * abs(phi_full)

    f23 = nonlinearity.classify({2: 1.0, 3: 1.0})
    frame = search._dilation_frame(f23, n)
    assert (frame.n, frame.d, frame.f) == (n, 1, f23)
    U = fields.SpectralField(0.05 * rng.standard_normal((lt // n + 1, lx)))
    u = dilate(frame, U, lt, lx)
    F_full = search._galerkin_F(u.coeffs, ctx, whole(f23, u.coeffs))
    F_law = dilate(frame, fields.SpectralField(
        search._galerkin_F(U.coeffs, ctx, sized(frame, lt, lx))), lt, lx).coeffs
    assert np.max(np.abs(F_full - F_law)) <= 1e-14 * np.max(np.abs(F_full))


def test_frame_newton_measures_the_full_field_residual(level_guesses, monkeypatch):
    # with no Newton step allowed, the trace holds the first residual: n^2
    # times the frame's, which is the full-field residual of the guess
    f, _, v0, _ = level_guesses["u35", 4]
    monkeypatch.setattr(search, "_NEWTON_MAX_ITER", 0)
    with pytest.raises(ConvergenceError) as err:
        search.refine(v0, C6_CTX, f)
    lt = lx = 48
    u0 = fields.SpectralField(kernel.embed(v0).padded(lt, lx))
    full = 0.5 * np.pi**2 * np.linalg.norm(
        search._galerkin_F(u0.coeffs, C6_CTX, whole(f, u0.coeffs)))
    assert abs(err.value.trace[0] - full) <= 1e-14 * full


def test_frame_guard_sees_the_full_field(level_guesses, monkeypatch):
    # |v|_omega does not scale uniformly under the dilation, so the guard
    # is taken on the kernel part dilated back to the full truncation, once
    # per Newton iterate
    seen = []
    real = psolve.contraction_domain

    def recording(v, ctx, f):
        seen.append(v.xi)
        return real(v, ctx, f)

    f, _, v0, _ = level_guesses["u3", 3]
    monkeypatch.setattr(psolve, "contraction_domain", recording)
    v, w, rep = search.refine(v0, C6_CTX, f)
    assert len(seen) == rep.iterations > 0
    off = np.arange(1, w.lx + 1) % 3 != 0
    for xi in seen:
        assert len(xi) == w.lx and np.all(xi[off] == 0.0) and np.any(xi != 0.0)
    assert np.array_equal(seen[0], np.pad(v0.xi, (0, w.lx - len(v0))))


@pytest.mark.parametrize("coeffs, levels", [({3: 1.0, 5: 0.5}, range(1, 7)),
                                             ({2: 1.0, 3: -1.0}, range(1, 4))],
                         ids=["odd", "even"])
def test_frame_symbol_is_the_full_divisor_at_its_modes(coeffs, levels):
    # the frame is an index map: its symbol is the full field's, bit for
    # bit, at the modes (n k, d m)
    f = nonlinearity.classify(coeffs)
    full = search._Frame(1, 1, f, lt=48, lx=48).symbol(C6_CTX.omega)
    for n in levels:
        frame = sized(search._dilation_frame(f, n), 48, 48)
        got = frame.symbol(C6_CTX.omega)
        assert np.array_equal(got, full[::n, frame.d - 1 :: frame.d])


def test_building_a_frame_classifies_nothing(level_guesses, monkeypatch):
    # the frame carries the level's own f, so no second nonlinearity is
    # classified for it, at a level above 1 of an odd f
    f, _, v0, _ = level_guesses["u35", 3]

    def refuse(*args, **kw):
        raise AssertionError("a frame classified a nonlinearity")

    monkeypatch.setattr(nonlinearity, "classify", refuse)
    frame = search._dilation_frame(f, 3, v0)
    assert (frame.n, frame.d) == (3, 3) and frame.f is f
    assert search.level_truncation(C6_CTX, f, 3, len(v0), v=v0) == (36, 36)
    _, _, rep = search.refine(v0, C6_CTX, f)
    assert rep.converged


def test_dilation_frame_only_for_odd_f_above_level_one():
    # even f keeps every entry at even levels, whose kernel sits at even m,
    # and the reflection-even half m odd at odd levels
    f2 = nonlinearity.classify({2: 1.0})
    assert search._dilation_frame(f2, 2) == search._Frame(2, 1, f2)
    f23 = nonlinearity.classify({2: 1.0, 3: 1.0})
    assert search._dilation_frame(f23, 3) == search._Frame(3, 1, f23, odd_cols=True)
    # odd f solves on the entries k and m odd at every level, level 1
    # included
    assert search._dilation_frame(F3, 1) == search._Frame(1, 1, F3, odd_rows=True, odd_cols=True)

    def kept(frame):
        return frame.odd_rows, frame.odd_cols

    # a guess with a kernel entry at an even frame column keeps every frame
    # entry; one at odd columns only does not
    with_even = kernel.KernelVector([1e-3, 0.0, 0.0, 1e-5])
    assert kept(search._dilation_frame(F3, 1, with_even)) == (False, False)
    assert kept(search._dilation_frame(f2, 1, with_even)) == (False, False)
    odd_only = kernel.rescale(kernel.KernelVector([1.0, 0.0, 2.0]), 3)
    assert kept(search._dilation_frame(f2, 3, odd_only)) == (False, True)
    at_m_two = kernel.KernelVector([0.0, 1.0, 0.0, 1.0])
    assert kept(search._dilation_frame(F3, 2, at_m_two)) == (False, False)


def test_frame_lattice_is_a_product_of_rows_and_columns():
    # the 17 x 16 level-1 frame: the entries k and m odd (odd f), the
    # reflection-even half m odd, and every entry; the rows k even come
    # first, each row parity and the columns ascending, and the unknowns
    # are their pairs r-major
    for odd_rows, odd_cols, size in [(True, True, 64), (False, True, 136), (False, False, 272)]:
        rows, cols, flat = search._Frame(1, 1, F3, odd_rows, odd_cols, 16, 16).lattice()
        assert rows.size * cols.size == flat.size == size
        parity = rows % 2
        assert np.all(np.diff(parity) >= 0)
        assert all(np.all(np.diff(rows[parity == p]) > 0) for p in (0, 1))
        assert np.array_equal(np.sort(rows), np.arange(1 if odd_rows else 0, 17, 2 if odd_rows else 1))
        assert np.array_equal(cols, np.arange(1, 17, 2 if odd_cols else 1))
        assert np.array_equal(flat, (rows[:, None] * 16 + cols - 1).ravel())


def level_guess(coeffs, omega, n, L=24, dim=6, restarts=4):
    """f, context, recipe, guess t* L_n y* and level of f at omega."""
    f = nonlinearity.classify(coeffs)
    ctx = frequency.make_context(omega, L=L)
    recipe = reduced.g_recipe(f, 1 if ctx.omega > 1.0 else -1, n=n)
    y, m, diag = search.maximize_U(recipe, dim, seed=0, restarts=restarts)
    return (f, ctx, recipe, *search.initial_guess(y, m, recipe, ctx, diag))


ODD_LEVELS = {
    "-u3-1": ({3: -1.0}, 0.9999, 1, 48, 6, 8),
    "-u3-2": ({3: -1.0}, 0.9999, 2, 48, 6, 8),
    # the README scan's first row, at its lmax, dim and restarts
    "scan-1.001": ({3: 1.0}, 1.001, 1, 32, 4, 4),
}


@pytest.mark.parametrize("name", list(ODD_LEVELS))
def test_checkerboard_solve_matches_full_lattice_solve(name):
    f, ctx, recipe, v0, level = level_guess(*ODD_LEVELS[name])
    v, w, rep = search.refine(v0, ctx, f)
    assert rep.converged
    assert_zero_off_kept_class(v, w, recipe.n)
    v_ref, w_ref = full_lattice_refine(v0, ctx, f, w.lt, w.lx)
    assert np.max(np.abs(v.xi - v_ref.xi)) <= 1e-12 * np.max(np.abs(v_ref.xi))
    assert np.max(np.abs(w.coeffs - w_ref.coeffs)) <= 1e-12 * np.max(np.abs(w_ref.coeffs))


def test_guess_off_the_reflection_class_keeps_every_frame_entry(level_guesses, monkeypatch):
    # the criterion-6 level-1 guess with xi_2 = 1e-3 xi_1 has a kernel entry
    # at an even frame column, so it is not reflection-even: the frame
    # keeps every entry of its 17 x 16 truncation, and the solve agrees
    # with the full-lattice Newton
    f, _, v0, _ = level_guesses["u3", 1]
    xi = v0.xi.copy()
    xi[1] = 1e-3 * xi[0]
    guess = kernel.KernelVector(xi)
    assert not search._dilation_frame(f, 1, guess).odd_cols
    sizes = record_jacobian_sizes(monkeypatch)
    v, w, rep = search.refine(guess, C6_CTX, f)
    assert rep.converged and set(sizes) == {(w.lt + 1) * w.lx} == {272}
    v_ref, w_ref = full_lattice_refine(guess, C6_CTX, f, w.lt, w.lx)
    assert np.max(np.abs(v.xi - v_ref.xi)) <= 1e-12 * np.max(np.abs(v_ref.xi))
    assert np.max(np.abs(w.coeffs - w_ref.coeffs)) <= 1e-12 * np.max(np.abs(w_ref.coeffs))


EVEN_LEVELS = {
    "u2-2": ({2: 1.0}, frequency.omega_for_eps(-4e-4), 2),
    "u2-3": ({2: 1.0}, frequency.omega_for_eps(-1e-4), 3),
    "u4u5-2": ({4: 1.0, 5: -1.0}, 0.9995, 2),
}


@pytest.mark.parametrize("name", list(EVEN_LEVELS))
def test_even_f_level_solves_in_the_time_frame(name):
    # even f keeps the rows nZ and every column: refine agrees with the
    # full-lattice Newton on nZ x {1..lx}, and the record's phi is the
    # full-field one
    f, ctx, recipe, v0, level = level_guess(*EVEN_LEVELS[name])
    v, w, rep = search.refine(v0, ctx, f)
    v_ref, w_ref = full_lattice_refine(v0, ctx, f, w.lt, w.lx)
    assert np.max(np.abs(v.xi - v_ref.xi)) <= 1e-12 * np.max(np.abs(v_ref.xi))
    assert np.max(np.abs(w.coeffs - w_ref.coeffs)) <= 1e-12 * np.max(np.abs(w_ref.coeffs))
    record = search.build_solution(v, w, ctx, f, recipe, level, newton=rep)
    assert record.accepted and record.n == recipe.n
    phi_ref = reduced.phi(v_ref, ctx, f, w=w_ref)
    assert abs(record.phi - phi_ref) <= 1e-12 * abs(phi_ref)


def record_jacobian_sizes(monkeypatch):
    sizes = []
    real = fields.planned_poly_matrix

    def recording(*args, **kw):
        J = real(*args, **kw)
        sizes.append(J.shape[0])
        return J

    monkeypatch.setattr(fields, "planned_poly_matrix", recording)
    return sizes


def kept_size(rows, cols, odd_k, odd_m):
    """The entries (k, m), k < rows, 1 <= m <= cols, with k odd where odd_k
    and m odd where odd_m."""
    k = np.arange(rows)[:, None]
    m = np.arange(1, cols + 1)[None, :]
    return int(np.count_nonzero(((k % 2 == 1) | (not odd_k)) & ((m % 2 == 1) | (not odd_m))))


@pytest.mark.parametrize("name", ["u3", "u35", "u2"])
def test_frame_jacobians_have_the_compressed_size(level_guesses, monkeypatch, name):
    # odd f solves the entries k and m odd of the (lt//n + 1, lx//n) frame
    # at level n, about a quarter of them; even f all (lt//n + 1) lx at
    # even n and the half m odd at odd n
    sizes = record_jacobian_sizes(monkeypatch)
    for n in range(1, 7) if name != "u2" else (2, 3):
        if name == "u2":
            f, ctx, _, v0, _ = level_guess(*EVEN_LEVELS[f"u2-{n}"])
            d = 1
        else:
            (f, _, v0, _), ctx, d = level_guesses[name, n], C6_CTX, n
        sizes.clear()
        v, w, _ = search.refine(v0, ctx, f)
        rows, cols = w.lt // n + 1, w.lx // d
        want = kept_size(rows, cols, odd_k=d == n, odd_m=d == n or n % 2 == 1)
        assert sizes and set(sizes) == {want}
        # off the frame's rows and columns every entry is an exact zero
        off = np.ones(w.coeffs.shape, dtype=bool)
        off[::n, d - 1 :: d] = False
        assert not np.any(w.coeffs[off])
        assert not np.any(np.delete(v.xi, np.s_[n - 1 :: n]))
        if d == n:
            assert_zero_off_kept_class(v, w, n)


def test_dense_field_products_stay_under_the_blas_thread_bound(monkeypatch):
    # every matrix product of a dense sampling or projection, over the
    # criterion-6 u^3 branch and one quadratic-offsets record, stays at or
    # below fields.DENSE_MAX_MADDS multiply-adds, up to which OpenBLAS runs a
    # GEMM on one thread: a grid change must not quietly wake a second one.
    # Folded onto their classes' fundamental domains, the largest, the sup
    # of the u^2 record, comes within a factor of four
    madds = []

    def recording(a, b, out=None):
        madds.append(a.shape[0] * a.shape[1] * b.shape[1])
        return np.matmul(a, b, out=out)

    monkeypatch.setattr(fields, "_matmul", recording)
    br = search.solve_branch(C6_CTX, F3, C=0.004, dim=6, seed=0, restarts=8)
    assert [r.n for r in br.records] == [1, 2, 3, 4, 5, 6]
    recipe = reduced.g_recipe(F2, -1, 1)
    y, m, diag = search.maximize_U(recipe, 6, seed=0, restarts=8)
    ctx = frequency.make_context(1.0 - 2e-4, L=48)
    v0, level = search.initial_guess(y, m, recipe, ctx, diag)
    v, w, rep = search.refine(v0, ctx, F2)
    assert search.build_solution(v, w, ctx, F2, recipe, level, newton=rep).accepted
    assert fields.DENSE_MAX_MADDS // 4 < max(madds) <= fields.DENSE_MAX_MADDS


def record_solve_sizes(monkeypatch):
    """The sizes of the LUs np.linalg.solve makes; refine is its only caller."""
    sizes = []
    real = np.linalg.solve

    def recording(a, b):
        sizes.append(a.shape[0])
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return sizes


def row_split(frame):
    """The unknowns of frame in the rows k even, which its lattice lists first."""
    return int(np.count_nonzero(frame.lattice()[2] // frame.shape[1] % 2 == 0))


def coupling(J, split):
    """The largest entry of the blocks coupling the two classes, relative to |J|."""
    return max(np.max(np.abs(J[:split, split:])), np.max(np.abs(J[split:, :split]))) / np.max(np.abs(J))


def test_criterion6_branch_jacobians_stay_small(monkeypatch):
    # the n = 1 frame is the largest: of its 17 x 16 entries, the 8 x 8 with
    # k and m odd, solved by one LU per Newton step with no Schur step
    sizes = record_jacobian_sizes(monkeypatch)
    lus = record_solve_sizes(monkeypatch)
    br = search.solve_branch(C6_CTX, F3, C=0.004, dim=6, seed=0, restarts=8)
    assert [r.n for r in br.records] == [1, 2, 3, 4, 5, 6]
    assert max(sizes) == kept_size(17, 16, odd_k=True, odd_m=True) == 64
    assert lus == sizes
    # each solution has k and m odd only, so f'(U) keeps both the parity of
    # k + m and that of m, and with them that of k: on every frame entry
    # the blocks coupling the rows k even and k odd are rounding noise
    # there, and the rows k odd are a Newton system alone
    for r in br.records:
        u = (kernel.embed(kernel.KernelVector(r.xi)) + fields.SpectralField(r.w_coeffs)).coeffs
        U = fields.SpectralField(u[:: r.n, r.n - 1 :: r.n])
        frame = dataclasses.replace(search._dilation_frame(F3, r.n), odd_rows=False,
                                    odd_cols=False, lt=r.lt, lx=r.lx)
        J = search._galerkin_jacobian(U.coeffs, C6_CTX, frame)
        assert coupling(J, row_split(frame)) <= 1e-12
    # an even f at level 1 keeps the half m odd of its 17 x 16 frame, and
    # eliminates its 72 unknowns with k even before the Schur complement on
    # the 64 with k odd
    f, ctx, _, v0, _ = level_guess({2: 1.0}, frequency.omega_for_eps(-4e-4), 1)
    sizes.clear()
    lus.clear()
    _, _, rep = search.refine(v0, ctx, f)
    assert rep.converged and sizes == [136] * rep.iterations and lus == [72, 64] * rep.iterations


RANDOM_FIELDS = [({2: 1.0}, 1.0001, 16, 16), ({2: 1.0}, 1.0001, 16, 15),
                 ({2: 1.0, 3: -1.0}, 1.001, 12, 12), ({4: 1.0, 5: -1.0}, 0.999, 9, 8)]


@pytest.mark.parametrize("coeffs, omega, lt, lx", RANDOM_FIELDS)
def test_class_elimination_matches_one_solve(coeffs, omega, lt, lx):
    # an even f at level 1 keeps both row parities of its reflection-even
    # half m odd, and f'(u) couples them fully; the elimination of the rows
    # k even, then the Schur complement on the rows k odd, gives the one-LU
    # step, and without the coupling blocks it does not
    rng = np.random.default_rng(21)
    frame = sized(search._dilation_frame(nonlinearity.classify(coeffs), 1), lt, lx)
    assert (frame.odd_rows, frame.odd_cols) == (False, True)
    keep = frame.lattice()[2]
    c = np.zeros((lt + 1) * lx)
    c[keep] = 0.2 * rng.standard_normal(keep.size) / (1.0 + keep // lx + keep % lx)
    u = fields.SpectralField(c.reshape(lt + 1, lx))
    J = search._galerkin_jacobian(u.coeffs, frequency.make_context(omega, L=lt), frame)
    split = row_split(frame)
    assert 0 < split < keep.size and coupling(J, split) >= 1e-6
    b = rng.standard_normal(keep.size)
    want = np.linalg.solve(J, b)

    def error(x):
        return np.max(np.abs(x - want)) / np.max(np.abs(want))

    assert error(search._newton_solve(J, b, split)) <= 1e-12
    uncoupled = J.copy()
    uncoupled[:split, split:] = 0.0
    uncoupled[split:, :split] = 0.0
    assert error(search._newton_solve(uncoupled, b, split)) > 1e-3


@pytest.mark.parametrize("block", ["class", "schur", "one"])
def test_singular_class_solve_is_a_convergence_error(monkeypatch, block):
    # a singular first class block or a singular Schur complement (even f,
    # both row parities), or a singular one-LU system (odd f, one parity),
    # is the singular Jacobian it would be in one LU
    def singular(u, ctx, frame):
        keep = frame.lattice()[2]
        split = row_split(frame)
        E = np.eye(split, keep.size - split)
        if block == "class":
            return np.block([[np.zeros((split, split)), E], [E.T, np.eye(keep.size - split)]])
        if block == "schur":
            # D - C A^-1 B = E^T E - E^T E = 0
            return np.block([[np.eye(split), E], [E.T, E.T @ E]])
        assert split == 0
        return np.zeros((keep.size, keep.size))

    monkeypatch.setattr(search, "_galerkin_jacobian", singular)
    v0 = kernel.KernelVector([1e-3])
    if block == "one":
        f, ctx = F3, ctx_cubic()
    else:
        f, ctx = nonlinearity.classify({2: 1.0}), ctx_cubic(eps=-1e-3)
    with pytest.raises(ConvergenceError, match="singular Newton Jacobian"):
        search.refine(v0, ctx, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_newton_iterate_is_refused(monkeypatch, bad):
    # the Newton runs on raw coefficient arrays: a step with a non-finite
    # entry is refused before f of the iterate is sampled
    def step(J, rhs, split):
        out = np.zeros_like(rhs)
        out[0] = bad
        return out

    monkeypatch.setattr(search, "_newton_solve", step)
    real = search._galerkin_F
    calls = []

    def counted(u, ctx, frame):
        calls.append(np.isfinite(u).all())
        return real(u, ctx, frame)

    monkeypatch.setattr(search, "_galerkin_F", counted)
    with pytest.raises(ResowaveError, match="non-finite coefficient"):
        search.refine(kernel.KernelVector([1e-3]), ctx_cubic(), F3)
    assert calls == [True]


def test_refine_refuses_too_many_unknowns_before_sampling(monkeypatch):
    # a guess with a kernel entry at an even column keeps every frame
    # entry: 160400 unknowns would be a 206 GB Jacobian, refused before f(u)
    # is sampled or the Jacobian assembled
    def never(*args, **kw):
        raise AssertionError("sampled a refused truncation")

    monkeypatch.setattr(fields, "planned_polynomials", never)
    monkeypatch.setattr(fields, "planned_poly_matrix", never)
    v0 = kernel.KernelVector([1e-3, 0.0, 0.0, 1e-5])
    ctx = frequency.make_context(frequency.omega_for_eps(4e-4), L=400)
    with pytest.raises(ConfigError, match=r"lt=400, lx=400 has 160400 .* MAX_UNKNOWNS = 4096"):
        newton(v0, ctx, F3, lt=400, lx=400)
    f2, ctx2 = nonlinearity.classify({2: 1.0}), frequency.make_context(0.9998, L=100)
    with pytest.raises(ConfigError, match=r"lt=100, lx=100 has 10100 "):
        newton(v0, ctx2, f2, lt=100, lx=100)
    # the cap itself is admitted: the Newton goes on to sample f(u)
    monkeypatch.setattr(search, "MAX_UNKNOWNS", 10100)
    with pytest.raises(AssertionError, match="sampled"):
        newton(v0, ctx2, f2, lt=100, lx=100)


def test_solve_branch_lists_a_refused_level_as_failed(monkeypatch):
    # with the cap below the n = 1 frame (64 unknowns) only that level fails
    monkeypatch.setattr(search, "MAX_UNKNOWNS", 63)
    br = search.solve_branch(C6_CTX, F3, C=0.004, dim=6, seed=0, restarts=8)
    assert [r.n for r in br.records] == [2, 3, 4, 5, 6]
    assert len(br.failures) == 1 and br.failures[0][0] == 1
    assert "64 Newton unknowns, above MAX_UNKNOWNS = 63" in br.failures[0][1]


def test_solve_branch_maximizes_no_level_its_truncation_refuses(monkeypatch):
    # u^2 at L = 160 and dim 64: 129 x 64 unknowns at level 1 and 81 x 160
    # at level 2, both refused before the maximizer runs
    def never(*args, **kw):
        raise AssertionError("maximized a refused level")

    monkeypatch.setattr(search, "maximize_U", never)
    ctx = frequency.make_context(frequency.omega_for_eps(-4e-4), L=160)
    br = search.solve_branch(ctx, nonlinearity.classify({2: 1.0}), dim=64, seed=0, restarts=8)
    assert not br.records and [n for n, _ in br.failures] == [1, 2]
    assert [reason.split(" has ")[1] for _, reason in br.failures] == [
        "8256 Newton unknowns, above MAX_UNKNOWNS = 4096",
        "12960 Newton unknowns, above MAX_UNKNOWNS = 4096",
    ]


@pytest.mark.parametrize("coeffs", [{3: 1.0}, {2: 1.0}, {2: 1.0, 3: -1.0}], ids=["u3", "u2", "u2-u3"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("guess", ["reflection-even", "any"])
def test_level_truncation_counts_the_frame_lattice(monkeypatch, coeffs, n, guess):
    # the count read off the frame's shape and parity class is the size of
    # the lattice refine solves on: the cap admits it and refuses one less
    f = nonlinearity.classify(coeffs)
    ctx = frequency.make_context(1.0001, L=40)
    xi = np.zeros(3 * n)
    xi[n - 1 :: 2 * n] = 1e-3
    if guess == "any":
        xi[2 * n - 1] = 1e-5
    v = kernel.KernelVector(xi)
    frame = search._dilation_frame(f, n, v if guess == "any" else None)
    for lt, lx in [(9, 9), (17, 16), (23, 12), (40, 40), (33, 31)]:
        if lx < len(v):
            continue
        size = sized(frame, lt, lx).lattice()[2].size
        args = (ctx, f, n, len(v), lt, lx, v if guess == "any" else None)
        monkeypatch.setattr(search, "MAX_UNKNOWNS", size)
        assert search.level_truncation(*args) == (lt, lx)
        monkeypatch.setattr(search, "MAX_UNKNOWNS", size - 1)
        with pytest.raises(ConfigError, match=f"has {size} Newton unknowns"):
            search.level_truncation(*args)


@pytest.mark.parametrize("dim, restarts, cap", [
    (300, 8, "MAX_DIM"), (6, search.MAX_RESTARTS + 1, "MAX_RESTARTS"),
])
def test_solve_branch_refuses_a_sphere_above_its_caps_once(monkeypatch, dim, restarts, cap):
    # the sphere is the branch's, not a level's: one ConfigError before any
    # level is solved, not one identical failure per level
    def never(*args, **kw):
        raise AssertionError("solved a level on a refused sphere")

    monkeypatch.setattr(search, "solve_level", never)
    with pytest.raises(ConfigError, match=f"LevelMaximizer needs .*{cap}"):
        search.solve_branch(C6_CTX, F3, C=0.004, dim=dim, restarts=restarts)
    with pytest.raises(ConfigError, match=cap):
        search.LevelMaximizer(dim, restarts=restarts)


HOMOGENEOUS = {"u3": ({3: 1.0}, 1.0001), "u5": ({5: 1.0}, 1.0001), "-u3-below": ({3: -1.0}, 0.9999)}


def homogeneity_gaps(coeffs, omega):
    """Relative distance of each frame field U_n, n = 2..6, from n^(2/(p-1)) U_1.

    For f = c u^p level n is, in its frame's variables (n t, n x), level 1
    with f/n^2, whose solution is n^(2/(p-1)) times level 1's; U_1 is a
    level-1 Newton on the same frame truncation.
    """
    f = nonlinearity.classify(coeffs)
    p = max(coeffs)
    ctx = frequency.make_context(omega, L=48)
    assert frequency.max_admissible_n(ctx, f, C=0.004) >= 6
    maximizer = search.LevelMaximizer(6, seed=0, restarts=8)

    def solve(n, lt=None, lx=None):
        recipe = reduced.g_recipe(f, 1 if omega > 1.0 else -1, n=n)
        y, m, diag = maximizer(recipe)
        v0, _ = search.initial_guess(y, m, recipe, ctx, diag)
        return newton(v0, ctx, f, lt=lt, lx=lx)[1].coeffs

    gaps = {}
    for n in range(2, 7):
        U = solve(n)
        want = n ** (2 / (p - 1)) * solve(1, lt=U.shape[0] - 1, lx=U.shape[1])
        gaps[n] = np.max(np.abs(U - want)) / np.max(np.abs(want))
    return gaps


@pytest.mark.parametrize("name", list(HOMOGENEOUS))
def test_homogeneity_law_of_the_frame_levels(name):
    # U_n = n^(2/(p-1)) U_1 to rounding on the criterion-6 branch, on each
    # of its frame shapes (13 x 12, 10 x 9, 9 x 8)
    gaps = homogeneity_gaps(*HOMOGENEOUS[name])
    assert max(gaps.values()) <= 1e-12, gaps


@pytest.mark.parametrize("name", list(HOMOGENEOUS))
def test_homogeneity_law_fails_with_the_frame_unit_symbol(monkeypatch, name):
    # the frame-unit symbol m^2 - omega^2 (n k/d)^2 with the level's own f
    # is level 1's system: every level lands on U_1 itself
    def frame_units(self, omega):
        rows, cols = self.shape
        l = (self.n // self.d) * np.arange(rows, dtype=float)[:, None]
        return np.arange(1, cols + 1, dtype=float) ** 2 - omega**2 * l**2

    monkeypatch.setattr(search._Frame, "symbol", frame_units)
    gaps = homogeneity_gaps(*HOMOGENEOUS[name])
    assert min(gaps.values()) > 0.1, gaps


@pytest.mark.parametrize("coeffs, omega", [({2: 1.0, 3: 1.0}, 1.0001), ({2: 1.0, 3: 0.1}, 0.9999)],
                         ids=["u2+u3", "u2+u3/10-below"])
@pytest.mark.parametrize("n", [1, 2])
def test_even_order_f_keeps_every_frame_entry(monkeypatch, coeffs, omega, n):
    # an even-order term leaves the sine class, so the shift of the torus
    # does not commute with the sine projection: every row parity of the
    # (lt//n + 1, lx) time frame is kept, and a checkerboard would halve
    # them.  At level 1 the guess is even under x -> pi - x and the frame
    # keeps the columns m odd; at level 2 its kernel sits at even m, and the
    # frame keeps every entry
    sizes = record_jacobian_sizes(monkeypatch)
    f, ctx, _, v0, _ = level_guess(coeffs, omega, n)
    v, w, rep = search.refine(v0, ctx, f)
    cols = (w.lx + 1) // 2 if n == 1 else w.lx
    assert rep.converged and set(sizes) == {(w.lt // n + 1) * cols}


def test_frame_solve_certified_range_is_the_compressed_index():
    # the frame divisors n^2 (m^2 - omega^2 k^2) at k <= lt // n are the
    # full-lattice ones at l = n k <= lt, so lt = L is covered and lt > L is not
    ctx = ctx_cubic(eps=1e-4, L=24)
    recipe = reduced.g_recipe(F3, +1, n=3)
    y, m, diag = search.maximize_U(recipe, 3, seed=0, restarts=3)
    v0, _ = search.initial_guess(y, m, recipe, ctx, diag)
    frame, U, rep = newton(v0, ctx, F3, lt=ctx.L)
    assert rep.converged and frame.lt == ctx.L
    assert psolve.contraction_domain(frame.kernel(U.coeffs), ctx, F3) <= psolve.DOMAIN_RHO
    # the frame is sized as level_truncation sizes it, before the guard runs
    with pytest.raises(ConfigError, match=r"'lmax' must be >= lt = 25, got 24"):
        newton(v0, ctx, F3, lt=ctx.L + 1)
    with pytest.raises(ConfigError, match=f"'lt' must be >= lx = {len(v0) + 1}, got {len(v0)}"):
        newton(v0, ctx, F3, lt=len(v0), lx=len(v0) + 1)


def test_refine_and_solve_P_refuse_lt_above_L_alike():
    # one gate sizes both: the reference range solve refuses a truncation
    # past ctx.L with level_truncation's words, before any sweep
    ctx = ctx_cubic(eps=1e-4, L=24)
    v0 = kernel.KernelVector([0.01, 0.0, 0.002])
    for solve in (newton, psolve.solve_P):
        with pytest.raises(ConfigError, match=r"^config key 'lmax' must be >= lt = 25, got 24$"):
            solve(v0, ctx, F3, lt=ctx.L + 1)


def test_a_guess_refusal_names_the_guess_length():
    # the Newton and solve_P size a kernel vector v, not a level's n * dim:
    # a refusal names the reach len(v)
    ctx = ctx_cubic(eps=1e-4, L=24)
    v = kernel.KernelVector([0.01, 0.002])
    for solve in (newton, psolve.solve_P):
        with pytest.raises(ConfigError, match=r"^config key 'lt' must be >= len\(v\) = 2, got 1$"):
            solve(v, ctx, F3, lt=1)


def test_solve_level_refuses_a_resonant_context_before_maximizing(monkeypatch):
    calls = []
    real = search.maximize_U

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(search, "maximize_U", counted)
    ctx = frequency.make_context(1.5, L=8)
    assert ctx.gamma == 0.0
    with pytest.raises(ResonanceError, match=r"resonant \(gamma = 0\)"):
        search.solve_level(ctx, F3, 1, search.LevelMaximizer(3, seed=0, restarts=2))
    assert calls == []


F23 = nonlinearity.classify({2: 1.0, 3: -1.0})


def frame_pair(f, n, lt, lx, seed):
    """A random (v, w) on the dilation frame lattice of level n, and the frame."""
    frame = search._dilation_frame(f, n)
    rng = np.random.default_rng(seed)
    U = fields.SpectralField(0.05 * rng.standard_normal((lt // n + 1, lx // frame.d)))
    u = dilate(frame, U, lt, lx)
    return kernel.KernelVector(fields.diagonal_of(u)), fields.zero_diagonal(u), sized(frame, lt, lx)


def certify_full(v, w, ctx, f):
    """_certify on the whole field u = v + w: the identity frame."""
    u = kernel.embed(v) + w
    return search._certify(u, ctx, whole(f, u.coeffs))


def test_certify_projects_f_on_the_rows_it_reads(monkeypatch):
    # the residual and Phi read f(U) on the rows k <= lt, and the energy
    # reads g(U) on every row k <= 3 lt it reaches: on the 17 x 16 frame of
    # u^3 that is 17 rows of f(U) and 49 of g(U), from one sampling of U
    tops = []

    def recording(real, at):
        def run(*args):
            tops.append(args[at])
            return real(*args)
        return run

    # the two projectors: (vals, plan, top, projection) and (vals, top, d_x)
    monkeypatch.setattr(fields, "_dense_coeffs", recording(fields._dense_coeffs, 2))
    monkeypatch.setattr(fields, "_fft_coeffs", recording(fields._fft_coeffs, 1))
    U = fields.SpectralField(0.05 * np.random.default_rng(6).standard_normal((17, 16)))
    search._certify(U, ctx_cubic(), whole(F3, U.coeffs))
    assert tops == [16, 48]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("f", [F35, F23], ids=["u3+u5/2", "u2-u3"])
def test_certified_phi_matches_full_field_and_frame_law(f, n):
    # Phi read off the one evaluation equals reduced.phi on the full field
    # and the dilation law d^2 Phi_U[f/d^2] (d = n for odd f, d = 1 for
    # even f)
    ctx = ctx_cubic()
    v, w, frame = frame_pair(f, n, 12, 12, seed=20 + n)
    phi = certify_full(v, w, ctx, f)[1]
    full = reduced.phi(v, ctx, f, w=w)
    d = frame.d
    law = d * d * reduced.phi(kernel.KernelVector(v.xi[d - 1 :: d]), ctx,
                              nonlinearity.classify(f.poly / d**2),
                              w=fields.SpectralField(w.coeffs[::d, d - 1 :: d]))
    assert abs(phi - full) <= 1e-13 * abs(full)
    assert abs(phi - law) <= 1e-13 * abs(full)


def slice_energy(a, b, f):
    """(pi/4) sum (b_j^2 + j^2 a_j^2) + int_0^pi F(g) for g = sum a_j sin(j x).

    The potential is a 256-node Gauss-Legendre sum, which resolves F(g) for
    the slices below (degree at most 6 * 12 = 72 in x).
    """
    j = np.arange(1, a.size + 1)
    nodes, weights = np.polynomial.legendre.leggauss(256)
    g = np.sin(np.outer(0.5 * np.pi * (nodes + 1.0), j)) @ a
    potential = sum(c * g**k for k, c in enumerate(f.primitive))
    quad = 0.25 * np.pi * np.sum(b**2 + (j * a) ** 2)
    return quad + 0.5 * np.pi * np.sum(weights * potential)


@pytest.mark.parametrize("f", [F35, F23], ids=["u3+u5/2", "u2-u3"])
def test_certified_probe_energies_match_slice_energies(f):
    # each probe energy equals the energy of that time slice, with the
    # potential integrated by Gauss-Legendre; the probes of level n sit at
    # t = 2 pi k/(9 n), over the level's period
    ctx = ctx_cubic()
    for n in (1, 2, 3):
        v, w, frame = frame_pair(f, n, 12, 12, seed=30 + n)
        u = kernel.embed(v) + w
        U = fields.SpectralField(u.coeffs[::n, frame.d - 1 :: frame.d])
        energies = search._certify(U, ctx, frame)[2]
        l = np.arange(u.lt + 1)
        assert energies.shape == (9,)
        for k, got in enumerate(energies):
            t = 2.0 * np.pi * k / (9 * n)
            a = np.cos(l * t) @ u.coeffs
            b = -ctx.omega * (l * np.sin(l * t)) @ u.coeffs
            want = slice_energy(a, b, f)
            assert abs(got - want) <= 1e-13 * abs(want)


def test_build_solution_evaluates_f_on_the_field_once(level_guesses, monkeypatch):
    # one torus sampling for the certificates and one for sup, both of the
    # level-3 frame field (lt/3, lx/3) = (12, 12), not of the (36, 36) field;
    # no second Phi evaluation
    f, recipe, v0, level = level_guesses["u35", 3]
    v, w, rep = search.refine(v0, C6_CTX, f)
    assert (w.lt, w.lx) == (36, 36)
    samples = []
    dense, fft = fields._dense_values, fields._fft_values

    def counted_dense(c, plan):
        samples.append((c.shape[0] - 1, c.shape[1], *plan.grid))
        return dense(c, plan)

    def counted_fft(c, nt, nx):
        samples.append((c.shape[0] - 1, c.shape[1], nt, nx))
        return fft(c, nt, nx)

    monkeypatch.setattr(fields, "_dense_values", counted_dense)
    monkeypatch.setattr(fields, "_fft_values", counted_fft)

    def refused(*args, **kwargs):
        raise AssertionError("build_solution left its one evaluation")

    monkeypatch.setattr(reduced, "phi", refused)
    record = search.build_solution(v, w, C6_CTX, f, recipe, level, newton=rep)
    # degree 5: the certificates sample the degree 5*12 = 60 on 128 = 4 * 32
    # nodes in t and x, the fast multiple of 4 a half shift folds, sup at its
    # floors (128, 256)
    assert record.accepted and samples == [(12, 12, 128, 128), (12, 12, 128, 256)]


def test_refine_samples_no_field_for_its_guard(level_guesses, monkeypatch):
    # the contraction guard reads kernel coefficients only
    def refused(*args, **kwargs):
        raise AssertionError("refine sampled a field for its guard")

    monkeypatch.setattr(fields, "omega_norm", refused)
    monkeypatch.setattr(fields, "sup_norm", refused)
    f, _, v0, _ = level_guesses["u3", 2]
    v, w, rep = search.refine(v0, C6_CTX, f)
    assert rep.converged


# ---------------------------------------------------------------------------
# certificates on the dilation frame

F2 = nonlinearity.classify({2: 1.0})


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("f", [F3, F35, F2, F23], ids=["u3", "u3+u5/2", "u2", "u2-u3"])
def test_frame_certificate_laws(f, n):
    # on a random frame field (a converged record's residual is rounding
    # noise), the frame certificate is the full-field one of the dilated
    # field: residual and Phi (read at the frame's modes), and the energy at
    # equal times: full-field probe t = 2 pi k/9 is frame time n t, which is
    # the frame probe (n k) mod 9
    ctx = ctx_cubic()
    v, w, frame = frame_pair(f, n, 24, 24, seed=40 + n)
    U = fields.SpectralField((kernel.embed(v) + w).coeffs[::n, frame.d - 1 :: frame.d])
    res, phi, energies, _ = search._certify(U, ctx, frame)
    res_full, phi_full, energies_full, _ = certify_full(v, w, ctx, f)
    assert abs(res - res_full) <= 1e-13 * res_full
    assert abs(phi - phi_full) <= 1e-13 * abs(phi_full)
    equal_times = energies[(n * np.arange(9)) % 9]
    assert np.max(np.abs(equal_times - energies_full)) <= 1e-13 * np.max(np.abs(energies_full))


def test_drift_probes_see_level_nine(monkeypatch):
    # probes at t = 2 pi k/9 all see one phase of a level-9 solution, so
    # its drift read exactly 0; over the level's period they see nine
    drifts = []
    real = search._certify

    def recording(U, ctx, frame):
        out = real(U, ctx, frame)
        drifts.append(out[3])
        return out

    monkeypatch.setattr(search, "_certify", recording)
    ctx = frequency.make_context(1.00003, L=96)
    record = search.solve_level(ctx, F3, 9, search.LevelMaximizer(6, seed=0, restarts=8))
    assert record.accepted
    assert 0.0 < drifts[0] <= search.DRIFT_TOL


def test_build_solution_certifies_off_frame_fields_whole(level_guesses):
    # an entry off the frame lattice is not the level's frame field: the
    # whole field is certified, and the entry shows in the residual
    f, recipe, v0, level = level_guesses["u3", 2]
    v, w, rep = search.refine(v0, C6_CTX, f)
    c = w.coeffs.copy()
    c[1, 1] = 1e-6
    off = fields.SpectralField(c)
    record = search.build_solution(v, off, C6_CTX, f, recipe, level, newton=rep)
    assert record.residual == search.galerkin_residual(v, off, C6_CTX, f) > 1e-8
    assert not record.accepted


@pytest.mark.parametrize("shape", [(3, 6), (8, 2)], ids=["wide", "narrow"])
def test_build_solution_writes_a_pair_at_the_shape_of_its_sum(level_guesses, shape):
    # a pair whose xi and w_coeffs disagree in length is written as the
    # diagonal and the rest of embed(v) + w; a wide w has fewer rows than
    # columns, so its diagonal stops at row lt
    f, recipe, _, level = level_guesses["u3", 1]
    v = kernel.KernelVector([0.01, 0.0, 0.001])
    w = fields.zero_diagonal(fields.SpectralField(
        1e-6 * np.random.default_rng(0).standard_normal(shape)))
    u = kernel.embed(v) + w
    record = search.build_solution(v, w, C6_CTX, f, recipe, level)
    diagonal = np.zeros(u.lx)
    diagonal[: min(u.lt, u.lx)] = fields.diagonal_of(u)
    assert record.xi.tobytes() == diagonal.tobytes()
    assert record.w_coeffs.tobytes() == fields.zero_diagonal(u).coeffs.tobytes()


def frame_level(level_guesses, name):
    """(f, ctx, recipe, guess, level) of a level refine solves in its frame."""
    if name == "u3-off-reflection":
        # the hand-made guess of test_guess_off_the_reflection_class_keeps_every_frame_entry
        f, recipe, v0, level = level_guesses["u3", 1]
        xi = v0.xi.copy()
        xi[1] = 1e-3 * xi[0]
        return f, C6_CTX, recipe, kernel.KernelVector(xi), level
    if name.startswith("u3-"):
        f, recipe, v0, level = level_guesses["u3", int(name[-1])]
        return f, C6_CTX, recipe, v0, level
    return level_guess({2: 1.0}, frequency.omega_for_eps(-4e-4), int(name[-1]))


FRAME_LEVELS = ["u3-1", "u3-2", "u3-3", "u2-1", "u2-2", "u3-off-reflection"]


def record_jacobian_fields(monkeypatch):
    """The frame field of every Newton iterate, where its Jacobian is assembled."""
    fields_seen = []
    real = search._galerkin_jacobian

    def recording(u, ctx, frame):
        fields_seen.append(fields.SpectralField(u))
        return real(u, ctx, frame)

    monkeypatch.setattr(search, "_galerkin_jacobian", recording)
    return fields_seen


@pytest.mark.parametrize("name", FRAME_LEVELS)
def test_refine_writes_the_dilated_frame_field(level_guesses, monkeypatch, name):
    # the frame field U of every Newton iterate, of every field the guard
    # reads and of the one field _dilate writes: the guard's vector and the
    # returned (v, w) are the diagonal and the rest of u = dilate(frame, U),
    # bit for bit
    f, ctx, _, v0, _ = frame_level(level_guesses, name)
    seen, written = [], []
    real, real_dilate = search._Frame.kernel, search._dilate

    def recording(frame, U):
        out = real(frame, U)
        seen.append((frame, fields.SpectralField(U), out))
        return out

    def writing(U, frame):
        written.append(U)
        return real_dilate(U, frame)

    monkeypatch.setattr(search._Frame, "kernel", recording)
    monkeypatch.setattr(search, "_dilate", writing)
    iterates = record_jacobian_fields(monkeypatch)
    v, w, rep = search.refine(v0, ctx, f)
    assert rep.converged and len(seen) == rep.iterations == len(iterates) and len(written) == 1
    frame = seen[0][0]
    guess = kernel.embed(v0).padded(w.lt, w.lx)
    start = dilate(frame, iterates[0], w.lt, w.lx).coeffs
    if name.startswith("u2"):
        # the form cases' first iterate is v0 + w_1(v0), w_1 = L^-1 P_W f(v0)
        u0 = fields.SpectralField(guess)
        pf = fields.apply_nonlinearity(u0, f.poly, out_lt=w.lt, out_lx=w.lx)
        want = (u0 + psolve.apply_L_inv(pf, ctx.omega)).coeffs
        assert np.max(np.abs(start - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.count_nonzero(start) > np.count_nonzero(guess)
    else:
        # elsewhere it is the guess placed on the frame
        assert start.tobytes() == guess.tobytes()
    # the guard reads the guess first, then each later iterate; the range
    # step leaves the guess's kernel entries as they are
    assert seen[0][2].xi.tobytes() == fields.diagonal_of(fields.SpectralField(guess)).tobytes()
    assert fields.diagonal_of(fields.SpectralField(start)).tobytes() == seen[0][2].xi.tobytes()
    assert all(U.coeffs.tobytes() == it.coeffs.tobytes()
               for (_, U, _), it in zip(seen[1:], iterates[1:]))
    for _, U, guarded in seen[1:]:
        u = dilate(frame, U, w.lt, w.lx)
        assert guarded.xi.tobytes() == fields.diagonal_of(u).tobytes()
    u = dilate(frame, written[0], w.lt, w.lx)
    assert v.xi.tobytes() == fields.diagonal_of(u).tobytes()
    assert w.coeffs.tobytes() == fields.zero_diagonal(u).coeffs.tobytes()


@pytest.mark.parametrize("name", FRAME_LEVELS + ["off-frame"])
def test_build_solution_support_index_is_the_full_fields(level_guesses, monkeypatch, name):
    # the index read off the frame field U is the one temporal_support_index
    # reads off the whole field, also when an entry off the frame makes the
    # record certify the whole field
    f, ctx, recipe, v0, level = frame_level(level_guesses, "u3-2" if name == "off-frame" else name)
    v, w, rep = search.refine(v0, ctx, f)
    if name == "off-frame":
        c = w.coeffs.copy()
        c[1, 1] = 1e-6
        w = fields.SpectralField(c)
    want = search.temporal_support_index(v, w)
    assert want == (1 if name == "off-frame" else recipe.n)
    seen = []
    real = search._support_index

    def recording(c, n=1):
        seen.append(real(c, n))
        return seen[-1]

    monkeypatch.setattr(search, "_support_index", recording)
    search.build_solution(v, w, ctx, f, recipe, level, newton=rep)
    assert seen == [want]


@pytest.mark.parametrize("coeffs, omega, n_max", [
    ({3: 1.0}, 1.0001, 4),
    ({3: 1.0, 5: 0.5}, 1.0001, 4),
    ({2: 1.0}, frequency.omega_for_eps(-4e-4), 2),
], ids=["u3", "u3+u5/2", "u2"])
def test_partner_twice_is_bitwise_identity_at_every_level(coeffs, omega, n_max):
    # the sign flip must not leave -0.0 behind in a record's zeros
    f = nonlinearity.classify(coeffs)
    ctx = frequency.make_context(omega, L=24)
    br = search.solve_branch(ctx, f, n_max=n_max, dim=4, seed=0, restarts=4)
    assert [r.n for r in br.records] == list(range(1, n_max + 1))
    for rec in br.records:
        again = search.partner_record(search.partner_record(rec, f), f)
        assert json.dumps(again.as_document()) == json.dumps(rec.as_document())


BOTH_ENTRIES = {
    **{f"u3-{n}": ({3: 1.0}, 1.0001, 48, n) for n in range(1, 7)},
    "u2-2e-4": ({2: 1.0}, 1.0 - 2e-4, 48, 1),
    "u2-4e-4": ({2: 1.0}, 1.0 - 4e-4, 48, 1),
    "u3+u5/2-3": ({3: 1.0, 5: 0.5}, 1.0001, 320, 3),
    "u3+u5/2-5": ({3: 1.0, 5: 0.5}, 1.0001, 320, 5),
    "u2-u3-below-2": ({2: 1.0, 3: -1.0}, frequency.omega_for_eps(-4e-4), 24, 2),
}


@pytest.mark.parametrize("name", list(BOTH_ENTRIES))
def test_solve_level_and_build_solution_write_the_same_record(name):
    # the frame path (_newton, _dilate, _record) and the (v, w) entry
    # (refine, build_solution) write the same document, byte for byte
    coeffs, omega, L, n = BOTH_ENTRIES[name]
    f, ctx = nonlinearity.classify(coeffs), frequency.make_context(omega, L=L)
    maximizer = search.LevelMaximizer(6, seed=0, restarts=8)
    record = search.solve_level(ctx, f, n, maximizer)
    recipe = reduced.g_recipe(f, 1 if omega > 1.0 else -1, n=n)
    y, m, diag = maximizer(recipe)
    v0, level = search.initial_guess(y, m, recipe, ctx, diag)
    v, w, rep = search.refine(v0, ctx, f)
    again = search.build_solution(v, w, ctx, f, recipe, level, newton=rep)
    assert record.accepted
    assert json.dumps(again.as_document()) == json.dumps(record.as_document())


@pytest.mark.parametrize("name", ["u3-2", "u2-2e-4"])
def test_record_arrays_are_drawn_from_its_frame_field(name):
    # a record holds its frame field and nothing full-size: the xi and
    # w_coeffs of a solved, a built, a partner and a read record are, at every
    # read, bit-equal to one _dilate of the record's own (U, frame), whose
    # truncation is the record's (lt, lx)
    coeffs, omega, L, n = BOTH_ENTRIES[name]
    f, ctx = nonlinearity.classify(coeffs), frequency.make_context(omega, L=L)
    maximizer = search.LevelMaximizer(6, seed=0, restarts=8)
    recipe = reduced.g_recipe(f, 1 if omega > 1.0 else -1, n=n)
    y, m, diag = maximizer(recipe)
    v0, level = search.initial_guess(y, m, recipe, ctx, diag)
    v, w, rep = search.refine(v0, ctx, f)
    solved = search.solve_level(ctx, f, n, maximizer)
    built = search.build_solution(v, w, ctx, f, recipe, level, newton=rep)
    partner = search.partner_record(solved, f)
    read = search.SolutionRecord.from_document(json.loads(json.dumps(solved.as_document())))
    for record in (solved, built, partner, read):
        xi, w_coeffs = search._dilate(record.U, record.frame)
        assert (record.lt, record.lx) == (record.frame.lt, record.frame.lx)
        for got, want in ((record.xi, xi), (record.w_coeffs, w_coeffs)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert record.xi is not record.xi     # drawn anew, not kept
    # the solved record's one array is its (lt/n + 1) x (lx/d) frame field
    held = [getattr(solved, fd.name) for fd in dataclasses.fields(solved)]
    assert not any(isinstance(a, np.ndarray) for a in held)
    assert [a.coeffs.shape for a in held if isinstance(a, fields.SpectralField)] == \
        [(solved.lt // n + 1, solved.lx // solved.frame.d)]
    assert solved.frame.tables == {}


def test_solve_branch_builds_no_full_field(monkeypatch):
    # every level is solved, certified and kept as its frame field: no
    # kernel.embed, no sum of full-size fields and no _dilate on the way
    def refused(*args, **kwargs):
        raise AssertionError("built a full-size field")

    monkeypatch.setattr(kernel, "embed", refused)
    monkeypatch.setattr(search, "_dilate", refused)
    monkeypatch.setattr(fields.SpectralField, "__add__", refused)
    br = search.solve_branch(C6_CTX, F3, C=0.004, dim=6, seed=0, restarts=8)
    assert br.failures == [] and [r.n for r in br.records] == list(range(1, 7))
    assert all(r.accepted for r in br.records)


def test_branch_near_resonance_accepts_every_level():
    # the paper's N_omega -> infinity: at omega = 1.00001 the admissible
    # levels are 1..19, each certified on its frame
    br = search.solve_branch(frequency.make_context(1.00001, L=320), F3, C=0.004,
                             dim=6, seed=0, restarts=8)
    assert br.failures == []
    assert [r.n for r in br.records] == list(range(1, 20))
    assert all(r.accepted for r in br.records)


def test_two_term_branch_at_levels_off_the_powers_of_two(monkeypatch):
    # u^3 + u^5/2 at omega = 1.0001 on lmax 320: every level 1..12, most of
    # whose frames are not a power-of-two dilation, is accepted on its
    # temporal sublattice n Z.  Newton takes 2 iterations at level 1, 3 up
    # to level 11 and 4 at level 12, and at most 3 on every level of the
    # criterion-6 branch of u^3
    iterations = []
    real = search._newton

    def recording(*args, **kw):
        out = real(*args, **kw)
        iterations.append(out[1].iterations)
        return out

    monkeypatch.setattr(search, "_newton", recording)
    for f, L, levels, most in [(F35, 320, range(1, 13), 4), (F3, 48, range(1, 7), 3)]:
        ctx = frequency.make_context(1.0001, L=L)
        maximizer = search.LevelMaximizer(6, seed=0, restarts=8)
        iterations.clear()
        for n in levels:
            r = search.solve_level(ctx, f, n, maximizer)
            v, w = kernel.KernelVector(r.xi), fields.SpectralField(r.w_coeffs)
            assert r.accepted and r.residual <= 1e-8, n
            assert search.temporal_support_index(v, w) == n
        assert len(iterations) == len(levels) and max(iterations) <= most, iterations


def test_newton_steps_from_the_lyapunov_schmidt_start(level_guesses):
    # the form cases start at v0 + w_1(v0), whose error is O(eps), not the
    # O(|v|) of w = 0: criterion 5's offsets 2e-4 and 4e-4 take 2 Newton
    # steps each (4 from w = 0) and no offset more than 3.  The second step
    # at 8e-4 is 1.4e-8, next to the stop at 1.49e-8, so that count is not
    # pinned.  Criterion 6 (u^3, no range step) keeps 2 steps per level
    recipe = reduced.g_recipe(F2, -1, 1)
    y, m, diag = search.maximize_U(recipe, 6, seed=0, restarts=8)
    steps = {}
    for e in (2e-4, 4e-4, 8e-4, 1.6e-3):
        ctx = frequency.make_context(1.0 - e, L=48)
        v0, _ = search.initial_guess(y, m, recipe, ctx, diag)
        _, _, rep = search.refine(v0, ctx, F2)
        assert rep.converged
        steps[e] = rep.iterations
    assert steps[2e-4] == steps[4e-4] == 2 and max(steps.values()) <= 3, steps
    for n in range(1, 7):
        f, _, v0, _ = level_guesses["u3", n]
        _, _, rep = search.refine(v0, C6_CTX, f)
        assert rep.converged and rep.iterations == 2, n


def c6_documents():
    # a new spec each time, so its fprime and primitive are built again too
    br = search.solve_branch(C6_CTX, nonlinearity.classify({3: 1.0}), C=0.004, dim=6,
                             seed=0, restarts=8)
    assert len(br.records) == 6 and not br.failures
    return json.dumps([r.as_document() for r in br.records])


def test_frame_tables_are_built_once_per_level(monkeypatch):
    # on the criterion-6 branch (u^3, levels 1-6, two Newton steps each)
    # each level's frame builds its symbol, lattice, resonance masks and
    # kernel entries once, and the plan of each sampling once per class:
    # F and the certificates on u^3's frame class, the Jacobian on that of
    # f' = 3 u^2, its gather tables with it, one build per level.  The
    # samplings come from fields' cache, which makes 16 (F, certificates,
    # Jacobian and sup of 4 frame shapes); no level reads another's
    # Jacobian tables.  A second branch builds its frames' tables and plans
    # again and reads every sampling from the cache.  The builds are
    # counted at the builders, so a read that goes around a table or a plan
    # shows
    builds = dict.fromkeys(["symbol", "lattice", "plan_polynomials", "plan_poly_matrix"], 0)
    frames = []

    def counted(name, fn):
        def wrapper(*args):
            builds[name] += 1
            return fn(*args)
        return wrapper

    def jacobian(u, ctx, frame):
        frames.append(frame)
        return real_jacobian(u, ctx, frame)

    real_jacobian = search._galerkin_jacobian
    monkeypatch.setattr(psolve, "_symbol", counted("symbol", psolve._symbol))
    monkeypatch.setattr(search, "_lattice", counted("lattice", search._lattice))
    for name in ("plan_polynomials", "plan_poly_matrix"):
        monkeypatch.setattr(fields, name, counted(name, getattr(fields, name)))
    monkeypatch.setattr(search, "_galerkin_jacobian", jacobian)
    fields._sampling.cache_clear()
    c6_documents()
    assert len(frames) == 12 and len({id(frame) for frame in frames}) == 6
    assert builds == {"symbol": 6, "lattice": 6, "plan_polynomials": 12, "plan_poly_matrix": 6}
    for frame in frames:
        assert sorted(key[0] for key in frame.tables) == [
            "F", "certify", "jacobian", "kernel", "lattice", "resonance", "symbol"]
    gathers = {id(plan[1][4]) for frame in frames
               for key, plan in frame.tables.items() if key[0] == "jacobian"}
    assert len(gathers) == 6
    samplings = fields._sampling.cache_info()
    assert (samplings.misses, samplings.hits) == (16, 8)
    c6_documents()
    assert builds == {"symbol": 12, "lattice": 12, "plan_polynomials": 24, "plan_poly_matrix": 12}
    samplings = fields._sampling.cache_info()
    assert (samplings.misses, samplings.hits) == (16, 32)


def clear_plan_caches():
    """Empty every cache a sampling or a certificate reads its plan or tables from."""
    for cache in (fields._sampling, fields._trig_table, fields._axis_fold,
                  fields._half_projection_matrix, search._probe_tables):
        cache.cache_clear()


def plan_records():
    """The criterion-6 branch and the quadratic-offsets records at seed 0: the
    bytes of each frame field U and its document, which holds every
    certificate float."""
    br = search.solve_branch(C6_CTX, F3, C=0.004, dim=6, seed=0, restarts=8)
    assert [r.n for r in br.records] == [1, 2, 3, 4, 5, 6]
    records = list(br.records)
    recipe = reduced.g_recipe(F2, -1, 1)
    y, m, diag = search.maximize_U(recipe, 6, seed=0, restarts=8)
    for e in (2e-4, 4e-4, 8e-4, 1.6e-3):
        ctx = frequency.make_context(1.0 - e, L=48)
        v0, level = search.initial_guess(y, m, recipe, ctx, diag)
        v, w, rep = search.refine(v0, ctx, F2)
        records.append(search.build_solution(v, w, ctx, F2, recipe, level, newton=rep))
    assert all(r.accepted for r in records)
    return [(r.U.coeffs.tobytes(), json.dumps(r.as_document())) for r in records]


def test_cached_plans_write_the_bits_of_fresh_ones():
    # every plan and table read from a warm cache gives the bits a fresh
    # build gives, on the criterion-6 branch and the quadratic offsets; the
    # cache's size is a constant, and a second pass builds no plan.  The
    # Jacobian's gather tables are built with each level's plan, cold and
    # warm alike
    clear_plan_caches()
    fresh = plan_records()
    info = fields._sampling.cache_info()
    assert info.maxsize == fields.SAMPLING_PLANS and info.currsize <= info.maxsize
    assert plan_records() == fresh
    again = fields._sampling.cache_info()
    assert again.misses == info.misses and again.hits > info.hits
    assert again.currsize == info.currsize


def test_warm_matrix_plans_write_the_same_records():
    # a Jacobian plan read from a warm cache has the bits a cold build
    # gives: the criterion-6 branch from cold caches, then warm, is one
    # document
    first = c6_documents()
    clear_plan_caches()
    assert c6_documents() == c6_documents() == first


def test_each_level_builds_its_frame_once(monkeypatch):
    # on the criterion-6 branch solve_level makes the frame of t* L_n y*
    # once and sizes it; _newton, the certificates and the record read that
    # frame, and the Newton reads no level off its guess
    frames = []

    def refused(*args):
        raise AssertionError("read a level off a guess")


    def counted(*args):
        frames.append(args[1])
        return real(*args)

    real = search._dilation_frame
    monkeypatch.setattr(search, "_dilation_frame", counted)
    monkeypatch.setattr(kernel, "minimal_time_period_index", refused)
    c6_documents()
    assert frames == [1, 2, 3, 4, 5, 6]


def fold_branches():
    """The criterion-6 branch and u^3 + u^5/2 at omega = 1.0001, L = 320,
    levels 1-6: their records and each record's support index."""
    out = []
    for f, ctx in [(F3, C6_CTX), (F35, frequency.make_context(1.0001, L=320))]:
        br = search.solve_branch(ctx, f, n_max=6, C=0.004, dim=6, seed=0, restarts=8)
        assert len(br.records) == 6 and not br.failures
        out += [(r, search.temporal_support_index(kernel.KernelVector(r.xi),
                                                  fields.SpectralField(r.w_coeffs)))
                for r in br.records]
    return out


def test_fold_moves_records_by_rounding_only(monkeypatch):
    # sampled on the fundamental domain of each product's class or on the
    # whole torus (the trivial class), every record keeps its acceptance
    # and support index and moves by rounding: xi and w_coeffs within 1e-13
    # of each array's largest entry, the certificates within 1e-13 relative
    folded = fold_branches()
    monkeypatch.setattr(fields, "_symmetry_class", lambda u, polys: fields._TRIVIAL)
    for (got, got_n), (want, want_n) in zip(folded, fold_branches(), strict=True):
        assert (got.n, got.accepted, got_n) == (want.n, want.accepted, want_n)
        assert got.accepted
        for name in ("xi", "w_coeffs"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), (got.n, name)
        for name in ("phi", "energy", "sup", "h1"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-13 * abs(b), (got.n, name)


def record_samplings(monkeypatch):
    """Each sampling of a field, in order, as (where, whole, runs): a call of
    fields._values, which every planned sampling makes once, or of
    multiply_poly_project; the grid of the whole torus at the degrees its
    plan was made for (None for multiply_poly_project); and the (executor,
    grid) of each executor it runs."""
    samplings, wholes = [], {}
    real_sampling = fields._sampling

    def sampling(shape, cls, degrees, *rest):
        # the whole torus of the plan's degrees, or sup_norm's grid
        plan = real_sampling(shape, cls, degrees, *rest)
        if degrees is None:
            lt, lx = shape[0] - 1, shape[1]
            wholes[id(plan)] = max(1 << (4 * lt).bit_length(), 128), max(8 * lx + 4, 256)
        else:
            wholes[id(plan)] = fields._grid(degrees[0]), fields._grid(degrees[1])
        return plan

    def boundary(name, whole):
        real = getattr(fields, name)

        def run(*args, **kwargs):
            samplings.append((name, whole(*args), []))
            return real(*args, **kwargs)
        monkeypatch.setattr(fields, name, run)

    def executor(name, grid):
        real = getattr(fields, name)

        def run(*args):
            samplings[-1][2].append((name, grid(*args)))
            return real(*args)
        monkeypatch.setattr(fields, name, run)

    monkeypatch.setattr(fields, "_sampling", sampling)
    boundary("_values", lambda plan, c: wholes[id(plan)])
    boundary("multiply_poly_project", lambda *args: None)
    executor("_dense_values", lambda c, plan: plan.grid)
    executor("_dense_coeffs", lambda vals, plan, *rest: plan.grid)
    executor("_fft_values", lambda c, nt, nx: (nt, nx))
    executor("_fft_coeffs", lambda vals, top, d_x: vals.shape)
    return samplings


def test_each_sampling_runs_one_path(monkeypatch):
    # each sampling and every projection off it run dense on the class's
    # domain, or on scipy.fft over the whole torus, as its plan decided,
    # never a mix: on the criterion-6 branch, which runs dense only, and on
    # u^2 at omega = 1 - 1e-8, levels 1-6, whose x axis grows until the
    # bound sends some samplings to the FFTs (from level 4 on).  The
    # Jacobian's oracle reaches no dense executor, even on a field small
    # enough for one
    samplings = record_samplings(monkeypatch)
    search.solve_branch(C6_CTX, F3, C=0.004, dim=6, seed=0, restarts=8)
    c6 = len(samplings)
    ctx = frequency.make_context(1.0 - 1e-8, L=1024)
    maximizer = search.LevelMaximizer(6, seed=0, restarts=8)
    for n in range(1, 7):
        assert search.solve_level(ctx, F2, n, maximizer).accepted
    u = fields.SpectralField(0.1 * np.random.default_rng(5).standard_normal((5, 4)))
    fields.multiply_poly_project(u, [0.0, 0.0, 3.0], u)
    paths = []
    for where, whole, runs in samplings:
        path = {name.split("_")[1] for name, _ in runs}
        assert len(path) == 1, (where, runs)
        paths.append(path.pop())
        if paths[-1] == "fft" and whole is not None:
            assert {grid for _, grid in runs} == {whole}, (where, runs)
    assert paths[-1] == "fft" and samplings[-1][0] == "multiply_poly_project"
    assert set(paths[:c6]) == {"dense"}
    assert "dense" in paths[c6:-1] and "fft" in paths[c6:-1]


def test_shared_frame_tables_are_read_only():
    # the Newton, the certificates and the Jacobians of a level share these
    # tables, so none can be written into
    f = nonlinearity.classify({2: 1.0, 3: 1.0})
    frame = sized(search._dilation_frame(f, 1), 16, 16)
    rows, cols, flat = frame.lattice()
    u = np.zeros(frame.shape)
    u[1::2] = 1e-3
    search._galerkin_jacobian(u, C6_CTX, frame)
    [plan] = [plan for key, plan in frame.tables.items() if key[0] == "jacobian"]
    # and the fold of every torus sampling: an axis's domain and weights,
    # and its trig tables
    fold = [*fields._axis_fold(100, -1, 1), *fields._axis_fold(72, None, None),
            fields._trig_table(100, 16, False, (-1, 1)), fields._trig_table(100, 48, True, (1, -1))]
    tables = [frame.symbol(C6_CTX.omega), rows, cols, flat,
              *frame.resonance(C6_CTX.omega), *plan[1], f.fprime, f.primitive, *fold]
    assert len(tables) == 21
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0


def test_jacobian_tables_live_with_their_plan(monkeypatch):
    # every entry of lt = lx = 63 is 64 x 63 = 4032 unknowns, the largest
    # level-1 frame under MAX_UNKNOWNS.  For an even f its tables hold the
    # odd-term projection (f' has an odd term) and the column maps, 4.1 MB
    # as before, and the two (R, C, R) gather indices, 2.06 MB each: 8.2 MB
    # as plan_poly_matrix states.  No cache keeps them: two plans of one
    # shape hold their own, and a level's die with it
    f = nonlinearity.classify({2: 1.0})
    rows, cols, _ = search._Frame(1, 1, f, lt=63, lx=63).lattice()
    R, C = rows.size, cols.size
    assert R * C == 4032 <= search.MAX_UNKNOWNS < 65 * 64
    _, tables, odd = fields.plan_poly_matrix((64, 63), fields._TRIVIAL, f.fprime, rows, cols)
    half_t, diff, tsum, Kd, toeplitz, hankel = tables
    assert odd and diff.shape == tsum.shape == (C, C) and Kd.shape == (127, C * C)
    assert toeplitz.shape == hankel.shape == (R, C, R)
    maps = sum(table.nbytes for table in tables[:4])
    assert maps == 8 * (127 + (2 + 127) * C * C) and 4.09e6 < maps < 4.2e6
    gathers = toeplitz.nbytes + hankel.nbytes
    assert gathers == 2 * 8 * R * C * R and 8.2e6 < maps + gathers < 8.3e6
    again = fields.plan_poly_matrix((64, 63), fields._TRIVIAL, f.fprime, rows, cols)[1]
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(tables, again))
    del tables, again, half_t, diff, tsum, Kd, toeplitz, hankel
    # the plan of a level's Jacobian goes with its frame once the level is solved
    held = []
    real = fields.plan_poly_matrix

    def recording(*args):
        plan = real(*args)
        held.append(weakref.ref(plan[1][4]))
        return plan

    monkeypatch.setattr(fields, "plan_poly_matrix", recording)
    record = search.solve_level(C6_CTX, F3, 1, search.LevelMaximizer(6, seed=0, restarts=8))
    assert record.accepted and len(held) == 1
    gc.collect()
    assert held[0]() is None
