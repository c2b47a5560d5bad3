"""Inverse wave operator and range-equation fixed point."""

import os
import subprocess
import sys

import numpy as np
import pytest

import resowave
from resowave import fields, frequency, kernel, nonlinearity, psolve, search
from resowave.errors import ConvergenceError, ResonanceError, ResowaveError


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


def _apply_L_inv_loop(w, omega, lt, lx):
    """apply_L_inv with its diagonal mask written by a loop: the reference."""
    c = w.padded(max(lt, w.lt), max(lx, w.lx))[: lt + 1, :lx]
    den = omega**2 * np.arange(lt + 1.0)[:, None] ** 2 - np.arange(1.0, lx + 1) ** 2
    mask_diag = np.zeros_like(c, dtype=bool)
    for j in range(1, min(lt, lx) + 1):
        mask_diag[j, j - 1] = True
    out = np.zeros_like(c)
    safe = ~mask_diag & (np.abs(den) >= psolve.RESONANCE_TOL)
    out[safe] = c[safe] / den[safe]
    return out


@pytest.mark.parametrize("shape, out", [
    ((5, 5), (4, 5)), ((3, 6), (2, 6)), ((7, 3), (6, 3)), ((1, 4), (0, 4)),
    ((7, 6), (0, 3)), ((3, 4), (6, 6)),
])
def test_apply_L_inv_is_the_loop_bit_for_bit(shape, out):
    # input and output truncations square, wide (lt < lx), tall and lt = 0
    u = fields.SpectralField(np.random.default_rng(sum(shape)).standard_normal(shape))
    got = psolve.apply_L_inv(u, 1.07, *out)
    assert got.coeffs.tobytes() == _apply_L_inv_loop(u, 1.07, *out).tobytes()


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


@pytest.mark.parametrize("coeffs", [{2: 1.0}, {3: 1.0}, {3: 1.0, 5: 0.5}],
                         ids=["u2", "u3", "u3+u5/2"])
def test_degenerate_range_inputs(coeffs):
    f = nonlinearity.classify(coeffs)
    # a resonant context (gamma = 0) has no contraction domain
    resonant = frequency.make_context(1.5, L=4)
    assert resonant.gamma == 0.0
    with pytest.raises(ResonanceError):
        psolve.contraction_domain(kernel.KernelVector([0.01, 0.0]), resonant, f)
    # the zero kernel vector, which has no minimal period, has the range
    # part w = 0, found by the first sweep
    w, rep = psolve.solve_P(kernel.KernelVector(np.zeros(4)),
                           frequency.make_context(1.001, L=16), f)
    assert rep.converged and rep.iterations == 1
    assert rep.domain_ratio == 0.0 and rep.final_update == 0.0
    assert w.coeffs.shape == (17, 16) and not np.any(w.coeffs)


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


def test_resonant_context_error_names_no_mode():
    f = nonlinearity.classify({3: 1.0})
    v = kernel_vector(seed=1, dim=2, scale=0.05)
    res = frequency.FrequencyContext(omega=1.5, eps=0.625, gamma=0.0, L=16)
    with pytest.raises(ResonanceError, match=r"resonant \(gamma = 0\)") as err:
        psolve.solve_P(v, res, f)
    assert err.value.l is None and err.value.j is None
    assert "mode" not in str(err.value)


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

    def h1(u):
        return np.sqrt(fields.inner_h1(u, u))

    r1 = h1(w1) / h1(kernel.embed(v)) ** 3
    r2 = h1(w2) / h1(kernel.embed(half)) ** 3
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


def test_diverging_range_iteration_is_an_error():
    # far outside the contraction domain the sweeps grow: at xi_1 = 3 the
    # fourth update is more than four times the second, and above 1
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=16)
    with pytest.warns(UserWarning, match="contraction not guaranteed"):
        with pytest.raises(ConvergenceError, match="range iteration diverging") as exc:
            psolve.solve_P(kernel.KernelVector([3.0, 0.0]), ctx, f)
    trace = exc.value.trace
    assert len(trace) == 4 and trace[-1] > 4.0 * trace[-3] and trace[-1] > 1.0


def test_range_iteration_out_of_sweeps_is_an_error(monkeypatch):
    # a contracting iteration that needs more sweeps than it is given
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=16)
    v = kernel.KernelVector([0.2, 0.0])
    _, rep = psolve.solve_P(v, ctx, f)
    assert rep.domain_ok and rep.iterations > 3
    monkeypatch.setattr(psolve, "_MAX_SWEEPS", 3)
    with pytest.raises(ConvergenceError, match="no convergence in 3 steps") as exc:
        psolve.solve_P(v, ctx, f)
    assert len(exc.value.trace) == 3


def test_report_diagnostics_are_consistent():
    f = nonlinearity.classify({2: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(-2e-4), L=20)
    w, rep = psolve.solve_P(kernel_vector(seed=6, dim=2, scale=0.03), ctx, f)
    assert rep.converged
    assert rep.iterations >= 2
    assert rep.final_update <= 1e-12 * max(1.0, rep.w_omega_norm)
    assert 0.0 < rep.contraction_ratio < 1.0
    assert rep.domain_ok


@pytest.mark.parametrize("coeffs, eps", [({3: 1.0}, 1e-3), ({2: 1.0}, -1e-3)],
                         ids=["u3", "u2"])
def test_solve_P_samples_the_torus_once_per_sweep(coeffs, eps, monkeypatch):
    # f(v + w) is a sweep's one sample: the update and iterate norms are
    # read off coefficients
    calls = []

    def counted(real):
        def run(*args):
            calls.append(args)
            return real(*args)
        return run

    for name in ("_dense_values", "_fft_values"):      # the two samplers
        monkeypatch.setattr(fields, name, counted(getattr(fields, name)))
    ctx = frequency.make_context(frequency.omega_for_eps(eps), L=24)
    v = kernel_vector(seed=3, dim=3, scale=0.01)
    _, rep = psolve.solve_P(v, ctx, nonlinearity.classify(coeffs))
    assert rep.converged and rep.iterations >= 2
    assert len(calls) == rep.iterations


def test_omega_norm_of_an_embedding_is_the_guards_blend():
    # the guard blends sum |xi_j| and |v|_H1 off xi without building the
    # field (for p = 2 it is the blend over gamma); omega_norm of the
    # embedded field is the same number
    f = nonlinearity.classify({2: 1.0})
    ctx = frequency.make_context(1.004, L=24)
    for seed in range(12):
        v = kernel_vector(seed, dim=1 + seed % 6, scale=0.05)
        got = psolve.contraction_domain(v, ctx, f)
        want = fields.omega_norm(kernel.embed(v), ctx.omega) / ctx.gamma
        assert abs(got - want) <= 1e-15 * got


def test_contraction_domain_bounds_the_sampled_ratio_from_above():
    # sum |xi_j| >= sup |v|, so the coefficient quantity is never below the
    # one with the sampled sup it replaced
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(1.004, L=24)
    for seed in range(12):
        v = kernel_vector(seed, dim=1 + seed % 6, scale=0.05)
        got = psolve.contraction_domain(v, ctx, f)
        blended = np.sum(np.abs(v.xi)) + np.sqrt(ctx.omega - 1.0) * v.h1()
        assert got == blended ** 2 / ctx.gamma
        u = kernel.embed(v)
        sampled_sup = fields.sup_norm(u) + np.sqrt(ctx.omega - 1.0) * np.sqrt(fields.inner_h1(u, u))
        assert got >= sampled_sup ** 2 / ctx.gamma


@pytest.mark.parametrize("L", [12, 16, 24])
def test_solve_P_is_sized_by_level_truncation(L):
    # the reference range solve has no truncation rule of its own: below
    # max(2 dim, 16) it solves at lt = lx = L, as refine does
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(1.001, L=L)
    for dim in range(2, 9):
        v = kernel_vector(seed=dim, dim=dim, scale=0.01)
        n = kernel.minimal_time_period_index(v)
        lt, lx = search.level_truncation(ctx, f, n, len(v), v=v)
        w, rep = psolve.solve_P(v, ctx, f)
        assert rep.converged and w.coeffs.shape == (lt + 1, lx)


def test_solve_P_reads_the_gate_at_call_time():
    # search imports psolve as it loads, so psolve imports nothing from
    # search at module level; a fresh interpreter that never imports search
    # can still solve
    code = (
        "import sys\n"
        "import resowave.psolve as psolve\n"
        "assert 'resowave.search' not in sys.modules\n"
        "from resowave import frequency, kernel, nonlinearity\n"
        "ctx = frequency.make_context(1.001, L=24)\n"
        "w, rep = psolve.solve_P(kernel.KernelVector([0.01, 0.0, 0.002]), ctx,\n"
        "                        nonlinearity.classify({3: 1.0}))\n"
        "assert rep.converged and w.coeffs.shape == (17, 16)\n"
    )
    root = os.path.dirname(os.path.dirname(resowave.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
