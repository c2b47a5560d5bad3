"""Acceptance gate: nine end-to-end criteria, one printed line each.

Every test prints `criterion N: PASS/FAIL` with the measured quantities
beside their tolerances, so a full run reads as a nine-line report card
even when everything is green.  Tolerances here are contractual; loosening
them is never the right fix for a failure.
"""

import json
import time

import numpy as np
import pytest

from resowave import (
    evolve,
    fields,
    frequency,
    kernel,
    linv_forms,
    nonlinearity,
    psolve,
    reduced,
    search,
    verify,
)

F3 = nonlinearity.classify([0.0, 0.0, 0.0, 1.0])
F2 = nonlinearity.classify([0.0, 0.0, 1.0])

# the multiplicity branch is shared between the catalog test and the
# time-evolution test; solve it once per session
_BRANCH_CACHE = {}


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'}  {detail}")


def _random_kernel(rng, dim, scale=1.0):
    j = np.arange(1, dim + 1, dtype=float)
    xi = rng.standard_normal(dim) / (1.0 + j) ** 1.5
    xi[np.abs(xi) < 1e-3] = 1e-3
    return kernel.KernelVector(scale * xi)


def test_criterion_01_identity_suite(capsys):
    """Change of variables, orthogonality, rescaling laws, decomposition
    formula, and positivity of the even-power form all pass their built-in
    tolerances (1e-9 to 1e-11) on randomized trigonometric inputs.

    Each check draws 20 to 26 random inputs of degree at most 8; the whole
    suite must finish within five minutes.
    """
    names = [
        "check_change_of_variables",
        "check_orthogonality",
        "check_rescaling_identity",
        "check_decomposition_formula",
        "check_G_positivity",
    ]
    t0 = time.perf_counter()
    reports = verify.run_suite(names, seed=0)
    elapsed = time.perf_counter() - t0
    n_pass = sum(r.passed for r in reports)
    ok = n_pass == len(names) and elapsed <= 300.0
    _report(
        capsys, 1, ok,
        f"identity suite {n_pass}/{len(names)} checks at tolerances "
        f"1e-9..1e-11, {elapsed:.1f} s (limit 300 s)",
    )
    assert n_pass == len(names), [r.name for r in reports if not r.passed]
    assert elapsed <= 300.0


def test_criterion_02_kappa_probe(capsys):
    """The supremum of the moment ratio over square-wave approximants sits
    in [0.9 pi^2, pi^2 (1 + 1e-6)]: close to the sharp cap, never above it.
    """
    lo = 0.9 * np.pi**2
    hi = np.pi**2 * (1.0 + 1e-6)
    t0 = time.perf_counter()
    vals = [
        linv_forms.kappa_ratio(
            kernel.KernelVector(linv_forms.square_wave_vector(top)), 2
        )
        for top in (5, 15, 45, 135, 405)
    ]
    elapsed = time.perf_counter() - t0
    sup = max(vals)
    ok = lo <= sup <= hi and elapsed <= 60.0
    _report(
        capsys, 2, ok,
        f"kappa sup {sup:.6f} in [{lo:.6f}, {hi:.6f}], {elapsed:.1f} s",
    )
    assert lo <= sup <= hi
    assert elapsed <= 60.0


def test_criterion_03_dual_path_quadratic_form(capsys):
    """Three independent evaluations of the quadratic-case leading form
    (spectral sum, rectangle-kernel oracle, closed formula) agree pairwise
    to 1e-8 relative on 20 random kernel profiles.
    """
    tol = 1e-8
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        v = _random_kernel(rng, int(rng.integers(1, 7)))
        spectral = -0.5 * reduced.linv_qform(v, 2)
        oracle = 0.5 * linv_forms.kernel_M_oracle(v, 2)[0]
        closed = 0.5 * linv_forms.closed_form_qform_p2(v)
        scale = max(abs(spectral), abs(oracle), abs(closed))
        worst = max(
            worst,
            abs(spectral - oracle) / scale,
            abs(spectral - closed) / scale,
            abs(oracle - closed) / scale,
        )
    ok = worst <= tol
    _report(
        capsys, 3, ok,
        f"three-way form agreement, worst relative gap {worst:.3e} "
        f"(tolerance {tol:.0e})",
    )
    assert worst <= tol


def test_criterion_04_cubic_pipeline(capsys):
    """Full pipeline for f = u^3 at n = 1 over four dyadic frequency
    offsets: tiny gradient and residual, critical level within 10% of its
    leading-order prediction, amplitude exponent 1/2 within 0.03.
    """
    offsets = (1e-3, 2e-3, 4e-3, 8e-3)
    recipe = reduced.g_recipe(F3, +1, 1)
    y_star, m_val, diag = search.maximize_U(recipe, 6, seed=0, restarts=8)
    worst_grad = 0.0
    worst_res = 0.0
    worst_level = 0.0
    worst_time = 0.0
    max_dim = 0
    h1s = []
    for e in offsets:
        t0 = time.perf_counter()
        ctx = frequency.make_context(1.0 + e, L=48)
        assert e / ctx.gamma <= 1e-2
        v0, _ = search.initial_guess(y_star, m_val, recipe, ctx, diag)
        v, w, _ = search.refine(v0, ctx, F3)
        grad = float(np.linalg.norm(reduced.grad_phi(v, ctx, F3, w=w)))
        res = search.galerkin_residual(v, w, ctx, F3)
        level = reduced.phi(v, ctx, F3, w=w)
        _, predicted, _ = search.branch_prediction(m_val, recipe.q, ctx.eps, 1)
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_grad = max(worst_grad, grad)
        worst_res = max(worst_res, res)
        worst_level = max(worst_level, abs(level - predicted) / predicted)
        max_dim = max(max_dim, len(v), w.lx)
        h1s.append(v.h1())
    slope = float(np.polyfit(np.log(offsets), np.log(h1s), 1)[0])
    ok = (
        worst_grad <= 1e-10
        and worst_res <= 1e-8
        and worst_level <= 0.10
        and abs(slope - 0.5) <= 0.03
        and worst_time <= 120.0
        and max_dim <= 32
    )
    _report(
        capsys, 4, ok,
        f"cubic pipeline: grad {worst_grad:.2e} (<=1e-10), residual "
        f"{worst_res:.2e} (<=1e-8), level dev {worst_level:.2e} (<=0.1), "
        f"slope {slope:.4f} (0.5 +/- 0.03), {worst_time:.1f} s/offset, "
        f"dim {max_dim} (<=32)",
    )
    assert worst_grad <= 1e-10
    assert worst_res <= 1e-8
    assert worst_level <= 0.10
    assert abs(slope - 0.5) <= 0.03
    assert worst_time <= 120.0
    assert max_dim <= 32


def test_criterion_05_quadratic_pipeline(capsys):
    """Quadratic f = u^2 bifurcates below omega = 1: the n = 1 solve meets
    the residual bar and the amplitude grows like the square root of the
    offset (the effective power is quartic, so the exponent is still 1/2).
    """
    offsets = (2e-4, 4e-4, 8e-4, 1.6e-3)
    recipe = reduced.g_recipe(F2, -1, 1)
    y_star, m_val, diag = search.maximize_U(recipe, 6, seed=0, restarts=8)
    worst_res = 0.0
    h1s = []
    for e in offsets:
        ctx = frequency.make_context(1.0 - e, L=48)
        v0, _ = search.initial_guess(y_star, m_val, recipe, ctx, diag)
        v, w, _ = search.refine(v0, ctx, F2)
        worst_res = max(worst_res, search.galerkin_residual(v, w, ctx, F2))
        h1s.append(v.h1())
    slope = float(np.polyfit(np.log(offsets), np.log(h1s), 1)[0])
    ok = worst_res <= 1e-8 and abs(slope - 0.5) <= 0.05
    _report(
        capsys, 5, ok,
        f"quadratic pipeline below resonance: residual {worst_res:.2e} "
        f"(<=1e-8), slope {slope:.4f} (0.5 +/- 0.05)",
    )
    assert worst_res <= 1e-8
    assert abs(slope - 0.5) <= 0.05


def _multiplicity_branch():
    if "result" not in _BRANCH_CACHE:
        ctx = frequency.make_context(1.0001, L=48)
        _BRANCH_CACHE["ctx"] = ctx
        _BRANCH_CACHE["result"] = search.solve_branch(
            ctx, F3, C=0.004, dim=6, seed=0, restarts=8
        )
    return _BRANCH_CACHE["ctx"], _BRANCH_CACHE["result"]


def test_criterion_06_multiplicity(capsys):
    """At a fixed frequency with a large non-resonance margin the solver
    produces an accepted solution for every admissible dilation level (at
    least five), each supported exactly on the temporal sublattice n Z with
    minimal period index n and H^1 size within 15% of its prediction.
    """
    ctx, br = _multiplicity_branch()
    cap = frequency.max_admissible_n(ctx, F3, C=0.004)
    admissible = [
        n for n in range(1, cap + 1)
        if frequency.admissible(ctx, n, F3, C=0.004).ok
    ]
    got = sorted(r.n for r in br.records)
    recipe = reduced.g_recipe(F3, +1, 1)
    _, m_val, _ = search.maximize_U(recipe, 6, seed=0, restarts=8)
    worst_pred = 0.0
    support_ok = True
    for r in br.records:
        v = kernel.KernelVector(r.xi)
        w = fields.SpectralField(r.w_coeffs)
        support_ok = support_ok and search.temporal_support_index(v, w) == r.n
        _, _, h1_pred = search.branch_prediction(m_val, 3, ctx.eps, r.n)
        worst_pred = max(worst_pred, abs(r.h1 - h1_pred) / h1_pred)
    offset_dev = abs(abs(ctx.omega - 1.0) - 1e-4)
    ok = (
        ctx.gamma >= 0.3
        and offset_dev <= 1e-15
        and got == admissible
        and len(got) >= 5
        and all(r.accepted for r in br.records)
        and not br.failures
        and support_ok
        and worst_pred <= 0.15
    )
    _report(
        capsys, 6, ok,
        f"multiplicity: gamma {ctx.gamma:.4f} (>=0.3), levels {got} cover "
        f"all {len(admissible)} admissible (>=5), supports on n Z: "
        f"{support_ok}, worst H^1 prediction dev {worst_pred:.2e} (<=0.15)",
    )
    assert ctx.gamma >= 0.3
    assert offset_dev <= 1e-15
    assert got == admissible and len(got) >= 5
    assert all(r.accepted for r in br.records) and not br.failures
    assert support_ok
    assert worst_pred <= 0.15


def test_criterion_07_time_evolution(capsys):
    """Every catalogued solution returns to its initial data after one
    period 2 pi / omega with relative L^2 error at most 1e-4 under the
    impulse method (the exact sine-mode rotation between half kicks of f,
    128 steps per period), and misses by at least ten times that bar at the
    foreign period 2 pi / ((n+1) omega).  The integrator's accuracy is
    certified by step refinement alone: its error bar, the distance to the
    same run at 65 steps per period, stays below a tenth of the return bar.
    """
    ctx, br = _multiplicity_branch()
    worst_err = worst_bar = 0.0
    min_off = np.inf
    for r in br.records:
        u = evolve.record_field(r)
        err, res = evolve.return_error(u, r.omega, F3)
        off, _ = evolve.nonreturn_probe(u, r.omega, F3, r.n)
        worst_err = max(worst_err, err)
        worst_bar = max(worst_bar, res.error_bar)
        min_off = min(min_off, off)
    ok = (len(br.records) >= 5 and worst_err <= 1e-4 and min_off >= 1e-3
          and worst_bar <= 1e-5)
    _report(
        capsys, 7, ok,
        f"evolution over {len(br.records)} records: worst return error "
        f"{worst_err:.2e} (<=1e-4), smallest foreign-period miss "
        f"{min_off:.2e} (>=1e-3), worst error bar {worst_bar:.2e} (<=1e-5)",
    )
    assert len(br.records) >= 5
    assert worst_err <= 1e-4
    assert min_off >= 1e-3
    assert worst_bar <= 1e-5


def test_criterion_08_involution_symmetry(capsys):
    """The range solution at -v is the half-period reflection of the one
    at v up to 1e-11, and applying the catalogued-partner map twice gives
    back the original record bit for bit.
    """
    ctx = frequency.make_context(frequency.omega_for_eps(-4e-4), L=24)
    rng = np.random.default_rng(3)
    v = kernel.KernelVector(0.02 * rng.standard_normal(3))
    with pytest.warns(UserWarning, match="above rho"):
        w, _ = psolve.solve_P(v, ctx, F2, tol=1e-14)
        w_neg, _ = psolve.solve_P(kernel.KernelVector(-v.xi), ctx, F2, tol=1e-14)
    predicted = fields.zero_diagonal(search.involution_partner(kernel.embed(v) + w))
    sym_dev = float(np.max(np.abs((w_neg - predicted).coeffs)))

    br = search.solve_branch(ctx, F2, n_max=1, dim=4, seed=0, restarts=6)
    rec = br.records[0]
    twice = search.partner_record(search.partner_record(rec, F2), F2)
    bitwise = json.dumps(twice.as_document()) == json.dumps(rec.as_document())
    ok = sym_dev <= 1e-11 and bitwise
    _report(
        capsys, 8, ok,
        f"reflection of the range solution: deviation {sym_dev:.2e} "
        f"(<=1e-11), partner applied twice is bitwise identical: {bitwise}",
    )
    assert sym_dev <= 1e-11
    assert bitwise


def test_criterion_09_gradient_consistency(capsys):
    """The exact coefficient gradient of the reduced functional matches
    central finite differences to 1e-7 relative at step 1e-5, and the
    finite-difference error decays with order 2 (slope within 0.1) at ten
    random points inside the contraction domain.
    """
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    slopes = []

    def fd_gradient(v, h):
        out = np.zeros(len(v))
        for j in range(len(v)):
            step = np.zeros(len(v))
            step[j] = h
            plus = reduced.phi(kernel.KernelVector(v.xi + step), ctx, F3, tol=1e-14)
            minus = reduced.phi(kernel.KernelVector(v.xi - step), ctx, F3, tol=1e-14)
            out[j] = (plus - minus) / (2.0 * h)
        return out

    for _ in range(10):
        raw = _random_kernel(rng, 4)
        v = kernel.KernelVector(0.15 * raw.xi / raw.h1())
        grad = reduced.grad_phi(v, ctx, F3, tol=1e-14)
        gnorm = float(np.linalg.norm(grad))
        rel = float(np.linalg.norm(fd_gradient(v, 1e-5) - grad)) / gnorm
        worst_rel = max(worst_rel, rel)
        e_coarse = float(np.linalg.norm(fd_gradient(v, 1e-2) - grad))
        e_fine = float(np.linalg.norm(fd_gradient(v, 5e-3) - grad))
        slopes.append(np.log2(e_coarse / e_fine))
    slope_dev = float(max(abs(s - 2.0) for s in slopes))
    ok = worst_rel <= 1e-7 and slope_dev <= 0.1
    _report(
        capsys, 9, ok,
        f"gradient vs finite differences at 10 points: worst relative "
        f"error {worst_rel:.2e} (<=1e-7), worst step-halving order dev "
        f"{slope_dev:.3f} (<=0.1)",
    )
    assert worst_rel <= 1e-7
    assert slope_dev <= 0.1
