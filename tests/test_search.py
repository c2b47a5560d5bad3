"""Branch pipeline: sphere maximization, Newton refinement, records."""

import json

import numpy as np
import pytest

from resowave import fields, frequency, kernel, nonlinearity, psolve, reduced, search
from resowave.errors import ConvergenceError, ResonanceError, ResowaveError

F3 = nonlinearity.classify({3: 1.0})


def ctx_cubic(eps=1e-3, L=24):
    return frequency.make_context(frequency.omega_for_eps(eps), L=L)


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
    # back by sigma, so force infeasibility with a hand-built recipe
    rec = reduced.GRecipe(
        case="odd-power", q=3, sigma=+1, n=1,
        value=lambda y: -abs(reduced.G_eval(y, F3)),
        grad=lambda y: -reduced._grad_G(y, F3),
    )
    with pytest.raises(ResowaveError):
        search.maximize_U(rec, 2, seed=0, restarts=2)


def test_maximize_needs_a_restart():
    rec = reduced.g_recipe(F3, +1, n=1)
    with pytest.raises(ResowaveError, match="restart"):
        search.maximize_U(rec, 2, seed=0, restarts=0)


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


def test_refine_aborts_outside_contraction_domain():
    ctx = ctx_cubic()
    big = kernel.KernelVector([0.9])
    with pytest.warns(UserWarning):
        with pytest.raises(ConvergenceError):
            search.refine(big, ctx, F3)


def test_slot_jacobian_matches_gradient_differences():
    # oracle: central differences of grad_phi, each through its own Picard
    # range solve; no code is shared with the matrix assembly
    ctx = ctx_cubic()
    lt = lx = 16
    xi = np.zeros(lx)
    xi[:3] = [0.06, -0.02, 0.01]
    v = kernel.KernelVector(xi)
    w, _ = psolve.solve_P(v, ctx, F3, tol=1e-14, lt=lt, lx=lx)
    slots = np.arange(lx)
    J = search._slot_jacobian(kernel.embed(v) + w, ctx, F3, 1, slots, lt, lx)
    h = 1e-5
    fd = np.zeros_like(J)
    for k in slots:
        step = np.zeros(lx)
        step[k] = h
        gp = reduced.grad_phi(kernel.KernelVector(xi + step), ctx, F3, tol=1e-14, lt=lt, lx=lx)
        gm = reduced.grad_phi(kernel.KernelVector(xi - step), ctx, F3, tol=1e-14, lt=lt, lx=lx)
        fd[:, k] = (gp - gm) / (2.0 * h)
    # compare the nonlinear part: the eps pi^2 j^2 diagonal is exact in both
    eps_part = np.diag(ctx.eps * np.pi**2 * (slots + 1.0) ** 2)
    nonlin = J - eps_part
    assert np.linalg.norm(fd - eps_part - nonlin) <= 1e-6 * np.linalg.norm(nonlin)


def test_slot_jacobian_names_resonant_range_entry():
    # omega = 3/2 makes the off-diagonal symbol omega^2 l^2 - j^2 vanish at
    # (l, j) = (2, 3), which f'(u) = 2u couples to every kernel slot
    f2 = nonlinearity.classify({2: 1.0})
    ctx = frequency.FrequencyContext(omega=1.5, eps=0.625, gamma=0.1, L=16)
    v = kernel.KernelVector([0.05, 0.02, 0.0, 0.0, 0.0, 0.0])
    u = kernel.embed(v)
    with pytest.raises(ResonanceError) as err:
        search._slot_jacobian(u, ctx, f2, 1, np.arange(6), 6, 6)
    assert (err.value.l, err.value.j) == (2, 3)


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
    energy, drift = search.energy_certificate(v, w, ctx, F3)
    assert record.energy == energy
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
    w, _ = psolve.solve_P(v, ctx, f2, tol=1e-14)
    w_neg, _ = psolve.solve_P(kernel.KernelVector(-v.xi), ctx, f2, tol=1e-14)
    u = kernel.embed(v) + w
    predicted = fields.zero_diagonal(search.involution_partner(u))
    diff = fields.norms(w_neg - predicted).h1
    assert diff < 1e-12 * max(1.0, fields.norms(w).h1)


def test_temporal_support_index_sees_dilation():
    ctx = ctx_cubic()
    v3 = kernel.rescale(kernel.KernelVector([0.05, 0.02]), 3)
    w3, _ = psolve.solve_P(v3, ctx, F3)
    assert search.temporal_support_index(v3, w3) == 3


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


def test_default_side_per_case():
    assert search.default_side(nonlinearity.classify({3: 1.0})) == +1
    assert search.default_side(nonlinearity.classify({3: -1.0})) == -1
    assert search.default_side(nonlinearity.classify({4: 1.0, 5: -2.0})) == -1
    assert search.default_side(nonlinearity.classify({2: 1.0})) == -1
    assert search.default_side(nonlinearity.classify({2: 1.0, 3: -1.0})) == -1
    assert search.default_side(nonlinearity.classify({2: 1.0, 3: 5.0})) == +1
