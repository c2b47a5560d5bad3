"""Identity suite: every checkable statement behind the construction.

Each check draws its own deterministically seeded random inputs, measures the
worst deviation of an identity or the fit of a predicted exponent, and returns
the fields of a CheckReport, which run_suite names after the check.
Quantities labelled "monitored" are recorded without an asserted bound; they
are the constants the a priori estimates say exist, and watching them stay
sane across releases is the point of reporting them.

run_suite is byte-deterministic: a fixed seed reproduces every measured
number exactly, and reports are always ordered by check name.
"""

import zlib
from dataclasses import dataclass

import numpy as np

from . import fields, frequency, kernel, linv_forms, nonlinearity, psolve, reduced, search
from .errors import ResowaveError

__all__ = ["CheckReport", "run_suite", "suite_names"]


def _plain(pairs):
    return tuple(
        (str(k), v.item() if isinstance(v, np.generic) else v) for k, v in pairs
    )


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    measured: tuple       # ((label, value), ...) in a fixed order
    tolerance: tuple      # ((label, value), ...) for the asserted bounds
    anchor: str           # one-line statement of the identity being checked

    def __post_init__(self):
        # reports are compared and serialized; keep every value a plain
        # python scalar so equality is bitwise and json-safe
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", _plain(self.measured))
        object.__setattr__(self, "tolerance", _plain(self.tolerance))


def _fit_slope(xs, ys):
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0])


def _random_kernel(rng, dim, amp=1.0):
    xi = rng.standard_normal(dim) / np.arange(1, dim + 1) ** 2
    return kernel.KernelVector(amp * xi / kernel.KernelVector(xi).h1())


def _random_w_field(rng, lt, lx):
    arr = rng.standard_normal((lt + 1, lx))
    arr /= (1.0 + np.arange(lt + 1)[:, None] ** 2 + np.arange(1, lx + 1)[None, :] ** 2)
    return fields.zero_diagonal(fields.SpectralField(arr))


# ---------------------------------------------------------------------------


def check_change_of_variables(rng):
    """int over the strip of m(t+x, t-x) equals half the torus integral of m."""
    tol = 1e-11
    K = 8
    kk = np.arange(K + 1)
    nt = 48
    tq = 2.0 * np.pi * np.arange(nt) / nt
    nodes, weights = np.polynomial.legendre.leggauss(64)
    xq = 0.5 * np.pi * (nodes + 1.0)
    wx = 0.5 * np.pi * weights
    N = 33
    sq = 2.0 * np.pi * np.arange(N) / N

    def eval_m(cf, s1, s2):
        C1, S1 = np.cos(np.outer(s1, kk)), np.sin(np.outer(s1, kk))
        C2, S2 = np.cos(np.outer(s2, kk)), np.sin(np.outer(s2, kk))
        a, b, c, d = cf
        return (
            np.einsum("pk,kl,pl->p", C1, a, C2)
            + np.einsum("pk,kl,pl->p", C1, b, S2)
            + np.einsum("pk,kl,pl->p", S1, c, C2)
            + np.einsum("pk,kl,pl->p", S1, d, S2)
        )

    tt, xx = np.meshgrid(tq, xq, indexing="ij")
    s1g, s2g = (tt + xx).ravel(), (tt - xx).ravel()
    g1, g2 = np.meshgrid(sq, sq, indexing="ij")
    g1, g2 = g1.ravel(), g2.ravel()

    worst = 0.0
    for _ in range(25):
        decay = 1.0 / (1.0 + kk[:, None] + kk[None, :]) ** 2
        cf = [rng.standard_normal((K + 1, K + 1)) * decay for _ in range(4)]
        strip = eval_m(cf, s1g, s2g).reshape(nt, 64)
        lhs = (2.0 * np.pi / nt) * float(np.sum(strip @ wx))
        rhs = 0.5 * (2.0 * np.pi / N) ** 2 * float(np.sum(eval_m(cf, g1, g2)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))

    ones = [np.zeros((K + 1, K + 1)) for _ in range(4)]
    ones[0][0, 0] = 1.0
    strip = eval_m(ones, s1g, s2g).reshape(nt, 64)
    const_val = (2.0 * np.pi / nt) * float(np.sum(strip @ wx))
    const_dev = abs(const_val - 2.0 * np.pi**2)

    passed = worst <= tol and const_dev <= tol
    return dict(
        passed=passed,
        measured=(("worst_relative_deviation", worst),
                  ("constant_map_value", const_val),
                  ("constant_map_deviation", const_dev)),
        tolerance=(("relative", tol),),
        anchor="the strip integral of m(t+x, t-x) is half the torus integral "
               "of m; the constant map gives 2 pi^2",
    )


def check_orthogonality(rng):
    """Even powers of kernel elements have no diagonal Fourier content."""
    tol = 1e-11
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        k = int(rng.choice([2, 4, 6]))
        v = _random_kernel(rng, dim)
        u = kernel.embed(v)
        poly = [0.0] * k + [1.0]
        F = fields.apply_nonlinearity(u, poly)
        scale = max(float(np.max(np.abs(F.coeffs))), 1e-30)
        diag = fields.diagonal_of(F)
        worst = max(worst, float(np.max(np.abs(diag))) / scale)
    # V and W are orthogonal in the H^1 pairing: disjoint coefficient support
    cross = 0.0
    for _ in range(5):
        v = _random_kernel(rng, 4)
        w = _random_w_field(rng, 8, 8)
        cross = max(cross, abs(fields.inner_h1(kernel.embed(v), w)))
    passed = worst <= tol and cross == 0.0
    return dict(
        passed=passed,
        measured=(("worst_diagonal_fraction", worst),
                  ("kernel_range_h1_pairing", cross)),
        tolerance=(("relative", tol), ("pairing", 0.0)),
        anchor="even powers of a kernel element project to zero on the "
               "diagonal modes, and kernel and range are H^1 orthogonal",
    )


def check_rescaling_identity(rng):
    """Dilation laws: integrals invariant, norms scaled, 1/n^2 form transport."""
    tol = 1e-9
    worst_int = 0.0
    worst_norm = 0.0
    for _ in range(15):
        dim = int(rng.integers(1, 5))
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        v = _random_kernel(rng, dim)
        vn = kernel.rescale(v, n)
        poly = [0.0] * k + [1.0]
        i1 = fields.integrate_poly(kernel.embed(v), poly)
        i2 = fields.integrate_poly(kernel.embed(vn), poly)
        worst_int = max(worst_int, abs(i1 - i2) / max(1.0, abs(i1)))
        worst_norm = max(
            worst_norm,
            abs(vn.h1() - n * v.h1()) / (n * v.h1()),
            abs(vn.l2() - v.l2()) / v.l2(),
        )
    worst_q = 0.0
    for _ in range(6):
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        v = _random_kernel(rng, dim)
        q1 = reduced.linv_qform(v, 2)
        alpha = reduced.power_integral(v, 2) / (2.0 * np.pi**2)
        law = -(np.pi**4 / 6.0) * alpha**2 + (q1 + (np.pi**4 / 6.0) * alpha**2) / n**2
        qn = reduced.linv_qform(kernel.rescale(v, n), 2)
        worst_q = max(worst_q, abs(qn - law) / max(1.0, abs(law)))
    passed = max(worst_int, worst_norm, worst_q) <= tol
    return dict(
        passed=passed,
        measured=(("worst_power_integral_deviation", worst_int),
                  ("worst_norm_law_deviation", worst_norm),
                  ("worst_form_transport_deviation", worst_q)),
        tolerance=(("relative", tol),),
        anchor="dilating the kernel leaves power integrals and the L2 norm "
               "fixed, scales H^1 by n, and moves the interaction form by "
               "the 1/n^2 transport law",
    )


def check_eta_integrals(rng):
    """Power integrals and their gradients: 1D profile path against 2D torus."""
    tol = 1e-11
    worst_value = 0.0
    worst_grad = 0.0
    for _ in range(24):
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        v = kernel.rescale(_random_kernel(rng, dim, amp=2.0 * np.pi), n)
        u = kernel.embed(v)
        # |int v^k| <= 2 pi^2 sup|v|^k and sup|v| <= sum |xi|; the bound is
        # the scale, since odd powers integrate to zero
        sup = float(np.sum(np.abs(v.xi)))
        oracle = fields.integrate_poly(u, [0.0] * k + [1.0])
        dev = abs(reduced.power_integral(v, k) - oracle)
        worst_value = max(worst_value, dev / (2.0 * np.pi**2 * sup**k))
        power = fields.apply_nonlinearity(
            u, [0.0] * (k - 1) + [1.0], out_lt=len(v), out_lx=len(v)
        )
        grad_oracle = k * 0.5 * np.pi**2 * fields.diagonal_of(power)
        dev = np.max(np.abs(reduced.power_integral(v, k, grad=True) - grad_oracle))
        worst_grad = max(worst_grad, float(dev) / (k * 2.0 * np.pi**2 * sup ** (k - 1)))
    passed = max(worst_value, worst_grad) <= tol
    return dict(
        passed=passed,
        measured=(("worst_value_deviation", worst_value),
                  ("worst_gradient_deviation", worst_grad)),
        tolerance=(("relative", tol),),
        anchor="int v^k and its coefficient gradient from moments and sine "
               "coefficients of eta^i match the dealiased torus integral "
               "and the diagonal of the exact projection of v^(k-1)",
    )


def check_qform_profile(rng):
    """The quadratic form and its gradient: 1D profile path against 2D torus."""
    tol = 1e-11
    worst_value = 0.0
    worst_grad = 0.0
    for p in (2, 4):
        for _ in range(6):
            dim = int(rng.integers(1, 9))
            n = int(rng.integers(1, 4))
            v = kernel.rescale(_random_kernel(rng, dim), n)
            # the torus path truncates v^p in space; its tail decays fast
            # enough that 256 sine modes leave it at rounding level
            u = kernel.embed(v)
            power = fields.apply_nonlinearity(
                u, [0.0] * p + [1.0], out_lt=p * len(v), out_lx=max(256, 4 * p * len(v))
            )
            linv_power = psolve.apply_L_inv(power, 1.0)
            oracle = fields.inner_l2(power, linv_power)
            z = fields.multiply_poly_project(
                u, [0.0] * (p - 1) + [1.0], linv_power, out_lt=len(v), out_lx=len(v)
            )
            grad_oracle = p * np.pi**2 * fields.diagonal_of(z)
            value, grad = reduced.linv_qform(v, p, grad=True)
            worst_value = max(worst_value, abs(value - oracle) / abs(oracle))
            dev = np.max(np.abs(grad - grad_oracle))
            worst_grad = max(worst_grad, float(dev) / float(np.max(np.abs(grad_oracle))))
    passed = max(worst_value, worst_grad) <= tol
    return dict(
        passed=passed,
        measured=(("worst_value_deviation", worst_value),
                  ("worst_gradient_deviation", worst_grad)),
        tolerance=(("relative", tol),),
        anchor="int v^p L^-1 v^p and its coefficient gradient from 1D "
               "integrals of eta^k and their primitives match the torus "
               "inverse of v^p and the diagonal of v^(p-1) L^-1 v^p",
    )


def check_G_positivity(rng):
    """The quadratic-case leading term is a nonnegative quadratic form."""
    floor = -1e-12
    rel = 1e-8
    f2 = nonlinearity.classify([0.0, 0.0, 1.0])
    min_G = np.inf
    worst_rel = 0.0
    min_M = np.inf
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        v = _random_kernel(rng, dim)
        G = reduced.G_eval(v, f2)
        min_G = min(min_G, G)
        value, M_min = linv_forms.kernel_M_oracle(v, 2)
        G_oracle = 0.5 * value
        worst_rel = max(worst_rel, abs(G - G_oracle) / max(1.0, abs(G_oracle)))
        min_M = min(min_M, M_min / max(1.0, value))
    for _ in range(5):
        dim = int(rng.integers(1, 4))
        v = _random_kernel(rng, dim)
        q4 = -reduced.linv_qform(v, 4)
        min_G = min(min_G, q4)
        value, M_min = linv_forms.kernel_M_oracle(v, 4)
        worst_rel = max(worst_rel, abs(q4 - value) / max(1.0, abs(value)))
        min_M = min(min_M, M_min / max(1.0, value))
    passed = min_G >= floor and worst_rel <= rel and min_M >= floor
    return dict(
        passed=passed,
        measured=(("min_form_value", float(min_G)),
                  ("worst_oracle_relative_gap", worst_rel),
                  ("min_rectangle_kernel", float(min_M))),
        tolerance=(("floor", floor), ("oracle_relative", rel)),
        anchor="for even powers, minus the inverse-operator quadratic form "
               "is nonnegative because its rectangle kernel is pointwise "
               "nonnegative",
    )


def check_kappa(rng):
    """The moment ratio is capped at pi^2 and square waves saturate the cap."""
    lo = 0.9 * np.pi**2
    hi = np.pi**2 * (1.0 + 1e-6)
    tops = (5, 15, 45, 135, 405)
    vals = [linv_forms.kappa_ratio(
        kernel.KernelVector(linv_forms.square_wave_vector(t)), 2) for t in tops]
    sup_val = max(vals)
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    worst_random = 0.0
    for _ in range(60):
        dim = int(rng.integers(1, 9))
        v = _random_kernel(rng, dim)
        worst_random = max(worst_random, linv_forms.kappa_ratio(v, 2))
    passed = lo <= sup_val <= hi and increasing and worst_random <= hi
    return dict(
        passed=passed,
        measured=(("square_wave_sup", float(sup_val)),
                  ("square_wave_monotone", float(increasing)),
                  ("worst_random_ratio", worst_random),
                  ("pi_squared", float(np.pi**2))),
        tolerance=(("lower", float(lo)), ("upper", float(hi))),
        anchor="(int v^p)^2 / int v^{2p} never exceeds pi^2 and square-wave "
               "profiles drive it arbitrarily close",
    )


def check_decomposition_formula(rng):
    """Coefficient-space closed formula for int v^p L^-1 v^p."""
    tol = 1e-9
    worst = 0.0
    for p, dims, draws in ((2, 5, 8), (4, 4, 4)):
        for _ in range(draws):
            dim = int(rng.integers(1, dims))
            v = _random_kernel(rng, dim)
            spectral = reduced.linv_qform(v, p)
            m = linv_forms.BiperiodicMap.from_eta_power(v, p)
            formula = linv_forms.l_inv_quadratic_form(m)
            worst = max(worst, abs(spectral - formula) / max(1.0, abs(spectral)))
    for _ in range(8):
        dim = int(rng.integers(1, 5))
        v = _random_kernel(rng, dim)
        closed = linv_forms.closed_form_qform_p2(v)
        spectral = -reduced.linv_qform(v, 2)
        worst = max(worst, abs(closed - spectral) / max(1.0, abs(spectral)))

    # worked example eta = sin: alpha = 1, a = sin^2 - 1/2, mtilde = -2 sin sin
    v1 = kernel.KernelVector(np.array([2.0]))
    dec = linv_forms.decompose_m(linv_forms.BiperiodicMap.from_eta_power(v1, 2))
    s = np.linspace(0.3, 5.9, 7)
    K1 = dec.mtilde.K
    freqs = np.arange(-K1, K1 + 1)
    a_vals = (np.exp(1j * np.outer(s, freqs)) @ dec.a).real
    ex_alpha = abs(dec.alpha - 1.0)
    ex_a = float(np.max(np.abs(a_vals - (np.sin(s) ** 2 - 0.5))))
    g1, g2 = np.meshgrid(s, s, indexing="ij")
    mt_vals = dec.mtilde.eval_pairs(g1.ravel(), g2.ravel())
    ex_mt = float(np.max(np.abs(mt_vals + 2.0 * np.sin(g1.ravel()) * np.sin(g2.ravel()))))
    const = linv_forms.l_inv_quadratic_form(linv_forms.BiperiodicMap.constant(1.7))
    ex_const = abs(const + 1.7**2 * np.pi**4 / 6.0)
    pinned = abs(
        linv_forms.closed_form_qform_p2(v1) - (25.0 * np.pi**2 / 32.0 + np.pi**4 / 6.0)
    )
    example_dev = max(ex_alpha, ex_a, ex_mt, ex_const, pinned)
    passed = worst <= tol and example_dev <= 1e-11
    return dict(
        passed=passed,
        measured=(("worst_relative_gap", worst),
                  ("worked_example_deviation", example_dev)),
        tolerance=(("relative", tol), ("example", 1e-11)),
        anchor="splitting m into mean, marginals, and interaction turns "
               "int w L^-1 w into a five-term closed formula matching the "
               "spectral sum",
    )


def check_operator_estimates(rng):
    """The truncated inverse deviates from the limit operator at order eps."""
    slope_win = (0.9, 1.1)
    lt = lx = 10
    worst_slope_dev = 0.0
    monitored = 0.0
    for _ in range(3):
        r = _random_w_field(rng, lt, lx)
        s = _random_w_field(rng, lt, lx)
        # keep the top of the ladder small: near-diagonal modes see a
        # relative denominator shift of order eps l^2 / (2l+1), which bends
        # the log-log fit if eps gets large
        eps_ladder = [2.5e-4 * 2.0**k for k in range(5)]
        devs = []
        for eps in eps_ladder:
            om = frequency.omega_for_eps(eps)
            a = psolve.apply_L_inv(s, om)
            b = psolve.apply_L_inv(s, 1.0)
            diff = fields.SpectralField(a.coeffs - b.coeffs)
            # fit the norm of the difference: a signed pairing can lose its
            # linear coefficient to cancellation for unlucky probe draws
            devs.append(np.sqrt(fields.inner_l2(diff, diff)))
            gam = frequency.truncated_gamma(om, lt)
            nr = fields.omega_norm(r, om)
            ns = fields.omega_norm(s, om)
            pairing = abs(fields.inner_l2(r, diff))
            monitored = max(monitored, pairing * gam / (eps * nr * ns))
        slope = _fit_slope(eps_ladder, devs)
        worst_slope_dev = max(worst_slope_dev, abs(slope - 1.0))
    passed = worst_slope_dev <= slope_win[1] - 1.0
    return dict(
        passed=passed,
        measured=(("worst_slope_deviation", float(worst_slope_dev)),
                  ("monitored_constant", float(monitored)),),
        tolerance=(("slope_window", 0.1),),
        anchor="pairing against the difference of the frequency-dependent "
               "and limit inverses scales linearly in eps, with the "
               "non-resonance margin absorbed in the monitored constant",
    )


def check_w_properties(rng):
    """Symmetry, dilation closure, and remainder order of the range solution."""
    sym_tol = 1e-11
    slope_tol = 0.2
    f3 = nonlinearity.classify([0.0, 0.0, 0.0, 1.0])
    f2 = nonlinearity.classify([0.0, 0.0, 1.0])
    ctx3 = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    ctx2 = frequency.make_context(frequency.omega_for_eps(-1e-3), L=24)

    v = _random_kernel(rng, 3, amp=0.3)
    w_plus, rep = psolve.solve_P(v, ctx3, f3)
    w_minus, _ = psolve.solve_P(kernel.KernelVector(-v.xi), ctx3, f3)
    mirrored = search.involution_partner(w_plus)
    scale = max(float(np.max(np.abs(w_plus.coeffs))), 1e-30)
    sym_dev = float(np.max(np.abs(w_minus.coeffs - mirrored.coeffs))) / scale

    vd = kernel.rescale(v, 2)
    w_d, _ = psolve.solve_P(vd, ctx3, f3)
    off = np.arange(w_d.lt + 1) % 2 == 1
    closure = float(np.max(np.abs(w_d.coeffs[off]))) if off.any() else 0.0

    bound_ratio = (
        fields.omega_norm(w_plus, ctx3.omega)
        * ctx3.gamma
        / fields.omega_norm(kernel.embed(v), ctx3.omega) ** 3
    )

    slope_devs = []
    # the asserted order uses the omega-norm distance to the first Picard
    # iterate, rebuilt here from scratch: the solver reports no such gap
    for f, ctx, p, base in ((f3, ctx3, 3, 0.22), (f2, ctx2, 2, 0.08)):
        amps = [base * (2.0 ** (-0.5 * k)) for k in range(4)]
        gaps = []
        for t in amps:
            vt = kernel.KernelVector(t * v.xi / 0.3)
            w_t, _ = psolve.solve_P(vt, ctx, f, tol=1e-14)
            rhs = fields.apply_nonlinearity(
                kernel.embed(vt), f.poly, out_lt=w_t.lt, out_lx=w_t.lx
            )
            w1 = psolve.apply_L_inv(rhs, ctx.omega, w_t.lt, w_t.lx)
            gaps.append(fields.omega_norm(w_t - w1, ctx.omega))
        slope = _fit_slope(amps, gaps)
        slope_devs.append(abs(slope - (2 * p - 1)))
    worst_slope = max(slope_devs)
    passed = sym_dev <= sym_tol and closure == 0.0 and worst_slope <= slope_tol
    return dict(
        passed=passed,
        measured=(("symmetry_deviation", sym_dev),
                  ("off_sublattice_maximum", closure),
                  ("bound_ratio_monitored", float(bound_ratio)),
                  ("worst_remainder_slope_deviation", worst_slope)),
        tolerance=(("symmetry", sym_tol), ("closure", 0.0),
                   ("slope_window", slope_tol)),
        anchor="the range solution flips with v under the half-period shift "
               "and reflection, stays on the dilation sublattice, and its "
               "distance to the first iterate shrinks at order 2p-1",
    )


def check_scalings(rng):
    """Branch amplitude, level, and energy follow the predicted powers."""
    amp_tol = 0.03
    level_tol = 0.1
    n_tol = 0.02
    f3 = nonlinearity.classify([0.0, 0.0, 0.0, 1.0])
    eps_list = [4e-4, 8e-4, 1.6e-3]
    # G of the cubic does not depend on n: one maximization seeds every solve
    maximizer = search.LevelMaximizer(dim=4, seed=7, restarts=4)
    records = [
        search.solve_level(frequency.make_context(frequency.omega_for_eps(eps), L=32),
                           f3, 1, maximizer)
        for eps in eps_list
    ]
    amp_slope = _fit_slope(eps_list, [r.h1 for r in records])
    level_slope = _fit_slope(eps_list, [abs(r.phi) for r in records])

    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=32)
    records = [search.solve_level(ctx, f3, n, maximizer) for n in (1, 2, 3)]
    n_h1 = [r.h1 for r in records]
    n_energy = [r.energy for r in records]
    worst_n = max(
        abs(n_h1[1] / n_h1[0] - 4.0) / 4.0, abs(n_h1[2] / n_h1[0] - 9.0) / 9.0
    )
    energy_increasing = n_energy[0] < n_energy[1] < n_energy[2]
    passed = (
        abs(amp_slope - 0.5) <= amp_tol
        and abs(level_slope - 2.0) <= level_tol
        and worst_n <= n_tol
        and energy_increasing
    )
    return dict(
        passed=passed,
        measured=(("amplitude_slope", amp_slope),
                  ("level_slope", level_slope),
                  ("worst_n_squared_deviation", worst_n),
                  ("energy_increasing", float(energy_increasing))),
        tolerance=(("amplitude_window", amp_tol), ("level_window", level_tol),
                   ("n_ratio", n_tol)),
        anchor="along the branch the H^1 size grows like |eps|^(1/(q-1)) "
               "and n^2, the critical level like the conjugate power, and "
               "the energy increases with the dilation index",
    )


# ---------------------------------------------------------------------------


_REGISTRY = {
    fn.__name__: fn
    for fn in (
        check_change_of_variables,
        check_orthogonality,
        check_rescaling_identity,
        check_G_positivity,
        check_eta_integrals,
        check_qform_profile,
        check_kappa,
        check_decomposition_formula,
        check_operator_estimates,
        check_w_properties,
        check_scalings,
    )
}


def suite_names():
    return sorted(_REGISTRY)


def run_suite(selection="all", seed=0):
    """Run the named checks (or every check) with per-check derived seeds.

    Reports come back sorted by check name regardless of request order, and
    the same seed reproduces every number byte for byte.
    """
    if selection is None or selection == "all":
        names = suite_names()
    elif isinstance(selection, str):
        names = [selection]
    else:
        names = sorted(set(selection))
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise ResowaveError(
            f"unknown checks: {unknown}; available: {suite_names()}"
        )
    reports = []
    for name in sorted(names):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        reports.append(CheckReport(name=name, **_REGISTRY[name](rng)))
    return reports
