"""Construction of solution branches: maximize the effective G, then Newton.

The pipeline per dilation level n:

  1. maximize the (q+1)-homogeneous effective G over the unit H^1 sphere of
     gcd-1 kernel vectors (projected gradient ascent with restarts, polished
     by a normalized fixed-point iteration to machine precision);
  2. turn the maximum m and mu = |eps| n^2 into the amplitude t* and the
     predicted critical level of the reduced functional;
  3. refine the dilated initial guess t* L_n y* to a true critical point of
     Phi_eps with a damped Newton method; each step assembles the Galerkin
     Jacobian (multiplication by f'(u) on the dilation sublattice, with the
     linearized range equation eliminated by one LU) and solves it densely;
  4. assemble the full solution u = v + w(v) with its certificates (Galerkin
     residual, energy drift across probe times, norms, minimal period).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from . import fields, frequency, kernel, psolve, reduced
from .errors import ConvergenceError, ResonanceError, ResowaveError

__all__ = [
    "SearchDiagnostics",
    "NewtonReport",
    "SolutionRecord",
    "BranchResult",
    "default_side",
    "maximize_U",
    "branch_prediction",
    "initial_guess",
    "remainder_ratio",
    "refine",
    "galerkin_residual",
    "energy_at",
    "energy_certificate",
    "temporal_support_index",
    "involution_partner",
    "build_solution",
    "partner_record",
    "solve_branch",
]

RECORD_VERSION = 1


@dataclass
class SearchDiagnostics:
    m_hat: float              # max of the effective G on the unit sphere
    y_star: object            # the sign-normalized maximizer
    restarts: int
    best_restart: int
    iterations: int
    grad_norm: float          # tangential gradient norm at the maximizer
    restart_values: tuple
    predicted_level: float = None
    predicted_amplitude: float = None
    alpha_hat: float = None   # empirical remainder ratio sup |DR(v)[v]| / |v|^(q+1)


@dataclass
class NewtonReport:
    iterations: int
    converged: bool
    grad_norm: float
    step_norms: list = field(default_factory=list)
    # always 0 since each step is one dense solve; kept because the
    # benchmark tracer (perfbench/tracer.py) reads it
    krylov_fails: int = 0
    damped: int = 0


@dataclass
class SolutionRecord:
    """One catalogued periodic solution with its certificates.

    The serialized document carries exactly the fields written by
    as_document; outside_theorem is in-memory bookkeeping for forced runs
    below the covered dilation range.
    """

    version: int
    omega: float
    eps: float
    gamma: float
    n: int
    q: int
    case: str
    xi: np.ndarray            # kernel coefficients, dilation zeros included
    w_coeffs: np.ndarray      # range-part coefficient matrix
    h1: float
    sup: float
    energy: float
    residual: float
    phi: float
    predicted_level: float
    accepted: bool
    outside_theorem: bool = False

    def as_document(self):
        return {
            "version": self.version,
            "omega": self.omega,
            "eps": self.eps,
            "gamma": self.gamma,
            "n": self.n,
            "q": self.q,
            "case": self.case,
            "xi": [float(x) for x in self.xi],
            "w_coeffs": [[float(x) for x in row] for row in self.w_coeffs],
            "h1": self.h1,
            "sup": self.sup,
            "energy": self.energy,
            "residual": self.residual,
            "phi": self.phi,
            "predicted_level": self.predicted_level,
            "accepted": self.accepted,
        }

    @classmethod
    def from_document(cls, doc):
        allowed = {
            "version", "omega", "eps", "gamma", "n", "q", "case", "xi",
            "w_coeffs", "h1", "sup", "energy", "residual", "phi",
            "predicted_level", "accepted",
        }
        extra = set(doc) - allowed
        if extra:
            raise ResowaveError(f"unknown record fields: {sorted(extra)}")
        missing = allowed - set(doc)
        if missing:
            raise ResowaveError(f"missing record fields: {sorted(missing)}")
        data = dict(doc)
        data["xi"] = np.asarray(data["xi"], dtype=float)
        data["w_coeffs"] = np.asarray(data["w_coeffs"], dtype=float)
        return cls(**data)


@dataclass
class BranchResult:
    records: list
    failures: list            # (n, reason) pairs for non-fatal per-n failures


@dataclass(frozen=True)
class _RecordMeta:
    """The slice of a G recipe that record assembly actually reads."""
    n: int
    q: int
    case: str


def default_side(f):
    """The side of omega = 1 the classified case bifurcates to by default."""
    if f.case == "odd-power":
        return int(np.sign(f.a))
    if f.case == "n1":
        return int(np.sign(f.b))
    if f.case == "n2" or f.b < 0:
        return -1
    return +1


# ---------------------------------------------------------------------------
# step 1: the constrained maximization


def _h1_metric(dim):
    j = np.arange(1, dim + 1, dtype=float)
    return np.pi**2 * j**2


def _sphere_normalize(xi, D):
    nrm = math.sqrt(float(np.dot(D * xi, xi)))
    if nrm == 0.0:
        raise ResowaveError("zero vector cannot be normalized")
    return xi / nrm


def maximize_U(recipe, dim, seed=0, restarts=16, max_iter=400, tol=1e-13):
    """Maximum of the effective G over the unit H^1 sphere in dimension dim.

    Returns (y_star, m_hat, diagnostics) with y_star sign-normalized.  The
    scale invariance U(v) = G(v)/|v|^(q+1) makes this equivalent to
    maximizing U; m_hat is what the amplitude and level formulas consume.
    Raises when the best value is not positive: the branch does not exist on
    the requested side.
    """
    if restarts < 1:
        raise ResowaveError(f"maximize_U needs at least one restart, got {restarts}")
    D = _h1_metric(dim)
    rng = np.random.default_rng(seed)
    best = None
    restart_values = []
    for r in range(restarts):
        xi = rng.standard_normal(dim) / np.arange(1, dim + 1) ** 2
        xi = _sphere_normalize(xi, D)
        val = recipe.value(kernel.KernelVector(xi))
        step = 1.0
        iters = 0
        for _ in range(max_iter):
            iters += 1
            g = recipe.grad(kernel.KernelVector(xi))
            gn = g / D
            tang = gn - np.dot(D * gn, xi) * xi
            tnorm = math.sqrt(float(np.dot(D * tang, tang)))
            if tnorm <= tol * max(1.0, abs(val)):
                break
            moved = False
            while step > 1e-16:
                cand = _sphere_normalize(xi + step * tang, D)
                cval = recipe.value(kernel.KernelVector(cand))
                if cval > val:
                    xi, val = cand, cval
                    step *= 1.3
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
        # polish: at a maximizer grad G is parallel to the metric normal,
        # so the normalized preconditioned gradient is a fixed point
        for _ in range(60):
            g = recipe.grad(kernel.KernelVector(xi))
            direction = g / D
            nrm = math.sqrt(float(np.dot(D * direction, direction)))
            if nrm == 0.0:
                break
            cand = direction / nrm
            if np.dot(cand, xi) < 0:
                cand = -cand
            cval = recipe.value(kernel.KernelVector(cand))
            if cval + 1e-15 * abs(val) < val:
                break
            drift = float(np.max(np.abs(cand - xi)))
            xi, val = cand, cval
            if drift < 1e-15:
                break
        g = recipe.grad(kernel.KernelVector(xi))
        gn = g / D
        tang = gn - np.dot(D * gn, xi) * xi
        tnorm = math.sqrt(float(np.dot(D * tang, tang)))
        restart_values.append(val)
        if best is None or val > best[1]:
            best = (xi, val, r, iters, tnorm)
    xi, val, r_best, iters, tnorm = best
    if val <= 0.0:
        raise ResowaveError(
            "effective G is nonpositive on the sphere; branch infeasible "
            "on this side"
        )
    y = kernel.normalize_sign(kernel.KernelVector(xi))
    diag = SearchDiagnostics(
        m_hat=val,
        y_star=y,
        restarts=restarts,
        best_restart=r_best,
        iterations=iters,
        grad_norm=tnorm,
        restart_values=tuple(restart_values),
    )
    return y, val, diag


# ---------------------------------------------------------------------------
# step 2: amplitude and level predictions


def branch_prediction(m_value, q, eps, n):
    """Amplitude t*, critical level, and H^1 size of the level-n solution.

    For psi(t) = (mu/2) t^2 - m t^(q+1) with mu = |eps| n^2 the nontrivial
    critical point and its value are explicit; the H^1 prediction is n t*
    because the dilation multiplies the norm of a unit vector by n.
    """
    if m_value <= 0.0:
        raise ResowaveError("effective G must be positive along the branch")
    mu = abs(eps) * n * n
    t_star = (mu / ((q + 1) * m_value)) ** (1.0 / (q - 1))
    level = 0.5 * (q - 1) * m_value * t_star ** (q + 1)
    return t_star, level, n * t_star


def initial_guess(y_star, m_value, recipe, ctx, diagnostics=None):
    """Dilated, amplitude-scaled starting vector t* L_n y* for the Newton."""
    t_star, level, _ = branch_prediction(m_value, recipe.q, ctx.eps, recipe.n)
    if diagnostics is not None:
        diagnostics.predicted_amplitude = t_star
        diagnostics.predicted_level = level
    scaled = kernel.KernelVector(t_star * y_star.xi)
    return kernel.rescale(scaled, recipe.n), level


def remainder_ratio(y_star, m_value, recipe, ctx, f, amplitudes=(0.5, 1.0, 1.5)):
    """Empirical size of the remainder of sigma Phi beyond its leading model.

    Along the ray t -> t y*, R(t) = sigma Phi(L_n(t y*)) - (mu/2) t^2
    + G_eff t^(q+1); the reported ratio is sup |t R'(t)| / t^(q+1) over the
    probe amplitudes (central differences), a monitored constant with no
    asserted bound.
    """
    t_star, _, _ = branch_prediction(m_value, recipe.q, ctx.eps, recipe.n)
    mu = abs(ctx.eps) * recipe.n**2

    def R(t):
        v = kernel.rescale(kernel.KernelVector(t * y_star.xi), recipe.n)
        return (
            recipe.sigma * reduced.phi(v, ctx, f)
            - 0.5 * mu * t**2
            + m_value * t ** (recipe.q + 1)
        )

    worst = 0.0
    for frac in amplitudes:
        t = frac * t_star
        h = 1e-3 * t
        dR = (R(t + h) - R(t - h)) / (2.0 * h)
        worst = max(worst, abs(t * dR) / t ** (recipe.q + 1))
    return worst


# ---------------------------------------------------------------------------
# step 3: Newton refinement of the reduced equation


def _support_slots(n, total):
    return np.arange(n - 1, total, n)


def _embed_slots(vals, slots, total):
    xi = np.zeros(total)
    xi[slots] = vals
    return kernel.KernelVector(xi)


def _grad_on_slots(v, ctx, f, w, slots):
    g = reduced.grad_phi(v, ctx, f, w=w)
    return g[slots]


def _slot_jacobian(u, ctx, f, n, slots, lt, lx):
    """Jacobian of the slot gradient with the range equation linearized exactly.

    With M the matrix of z -> P[f'(u) z] on the sublattice entries of the
    (lt, lx) truncation, E the kernel slots among them and L^-1 P_W the
    division of every other entry by omega^2 l^2 - j^2,

        J = eps pi^2 diag(j^2)
            - (pi^2/2) (M_EE + M_E. (I - L^-1 P_W M)^-1 L^-1 P_W M_.E).

    Slots beyond the temporal truncation keep only the eps term.  A range
    entry whose row of M is nonzero and whose denominator vanishes raises
    ResonanceError, naming the mode, as apply_L_inv does.
    """
    M = fields.multiply_poly_matrix(u, f.fprime, lt, lx, n=n)
    den = psolve._denominators(lt, lx, ctx.omega)[::n].ravel()
    size = den.size
    j_slots = slots + 1
    inside = j_slots <= lt
    E = (j_slots[inside] // n) * lx + slots[inside]
    range_entry = np.ones(size, dtype=bool)
    range_entry[E] = False
    small = range_entry & (np.abs(den) < psolve.RESONANCE_TOL)
    bad = np.flatnonzero(small)
    present = bad[np.any(M[bad] != 0.0, axis=1)]
    if present.size:
        a, jm = divmod(int(present[0]), lx)
        raise ResonanceError(n * a, jm + 1, den[present[0]])
    lam = np.zeros(size)
    safe = range_entry & ~small
    lam[safe] = 1.0 / den[safe]
    M_E_rows = M[E]
    rhs = lam[:, None] * M[:, E]
    # I - L^-1 P_W M, overwriting M; kernel rows are identity rows, so the
    # solution vanishes there and M_E. dw only sees the range entries
    M *= -lam[:, None]
    diag = np.arange(size)
    M[diag, diag] += 1.0
    dw = lu_solve(lu_factor(M, overwrite_a=True, check_finite=False), rhs,
                  check_finite=False)
    J = np.diag(ctx.eps * np.pi**2 * j_slots.astype(float) ** 2)
    J[np.ix_(inside, inside)] -= 0.5 * np.pi**2 * (M_E_rows[:, E] + M_E_rows @ dw)
    return J


def refine(v0, ctx, f, max_iter=40, gtol=1e-12, rho=0.1, psolve_tol=1e-13,
           lt=None, lx=None):
    """Damped Newton for grad Phi = 0 starting from the dilated guess.

    The kernel unknowns are every diagonal slot of the solve truncation on
    the dilation sublattice, not just the seeded harmonics: that way no
    in-truncation kernel equation is left unsolved and the Galerkin residual
    of the result is limited only by the range-equation tolerance.

    Each step assembles the Galerkin Jacobian of the slot gradient once
    (_slot_jacobian: the multiplication-by-f'(u) matrix on the sublattice,
    with the linearized range equation eliminated by one LU) and takes the
    step from one dense solve.  Steps are damped on the gradient norm; when
    the iterates leave the contraction domain (|v|_omega^(p-1)/gamma beyond
    10 rho) the refinement aborts rather than report a spurious solution.
    """
    n = kernel.minimal_time_period_index(v0)
    if lt is None:
        lt = min(ctx.L, max(2 * len(v0), 16))
    if lx is None:
        lx = lt
    total = lx
    if total < len(v0):
        raise ResowaveError("refinement truncation smaller than the guess")
    slots = _support_slots(n, total)
    xi_full = np.zeros(total)
    xi_full[: len(v0)] = v0.xi
    xi_s = xi_full[slots]
    report = NewtonReport(iterations=0, converged=False, grad_norm=np.inf)
    trace = []

    def assemble(vals):
        v = _embed_slots(vals, slots, total)
        w, prep = psolve.solve_P(v, ctx, f, tol=psolve_tol, lt=lt, lx=lx)
        return v, w, prep

    v, w, prep = assemble(xi_s)
    g = _grad_on_slots(v, ctx, f, w, slots)
    gnorm = float(np.linalg.norm(g))

    for it in range(max_iter):
        report.iterations = it
        report.grad_norm = gnorm
        trace.append(gnorm)
        if gnorm <= gtol:
            report.converged = True
            break
        if not prep.domain_ok or prep.domain_ratio > 10.0 * rho:
            raise ConvergenceError(
                "iterate left the contraction domain during refinement",
                trace=tuple(trace),
            )

        J = _slot_jacobian(kernel.embed(v) + w, ctx, f, n, slots, lt, lx)
        try:
            delta = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Newton Jacobian", trace=tuple(trace)) from exc

        t = 1.0
        accepted = False
        while t >= 1e-6:
            cand = xi_s + t * delta
            v_c, w_c, prep_c = assemble(cand)
            g_c = _grad_on_slots(v_c, ctx, f, w_c, slots)
            gn_c = float(np.linalg.norm(g_c))
            if gn_c < gnorm * (1.0 - 1e-4 * t) or gn_c <= gtol:
                xi_s, v, w, prep, g, gnorm = cand, v_c, w_c, prep_c, g_c, gn_c
                accepted = True
                if t < 1.0:
                    report.damped += 1
                break
            t *= 0.5
        report.step_norms.append(float(np.max(np.abs(t * delta))))
        if not accepted:
            raise ConvergenceError(
                "Newton refinement stalled without reaching the tolerance",
                trace=tuple(trace + [gnorm]),
            )
    else:
        report.iterations = max_iter
        report.grad_norm = gnorm
        if gnorm > gtol:
            raise ConvergenceError(
                "Newton refinement did not converge", trace=tuple(trace)
            )
        report.converged = True

    return v, w, report


# ---------------------------------------------------------------------------
# step 4: assembly and certification


def galerkin_residual(v, w, ctx, f):
    """Weighted l2 norm of the equation residual on the solve truncation."""
    u = kernel.embed(v) + w
    lt, lx = w.lt, w.lx
    fu = fields.apply_nonlinearity(u, f.poly, out_lt=lt, out_lx=lx)
    uc = u.padded(lt, lx)
    l2_ = np.arange(lt + 1, dtype=float)[:, None] ** 2
    j2_ = np.arange(1, lx + 1, dtype=float)[None, :] ** 2
    R = (-(ctx.omega**2) * l2_ + j2_) * uc + fu.coeffs
    cl = fields.temporal_weights(lt)[:, None]
    return float(np.sqrt(0.5 * np.pi**2 * np.sum(cl * R * R)))


def _slice_coeffs(u, t_val):
    """Sine coefficients in x of u(t, .) and of the time derivative."""
    arr = u.coeffs
    l = np.arange(arr.shape[0], dtype=float)
    ct = np.cos(l * t_val)
    st = np.sin(l * t_val)
    a = ct @ arr
    b = -(l * st) @ arr
    return a, b


def energy_at(u, omega, f, t_val):
    """Physical energy of the time slice: int (1/2)(u_tau^2 + u_x^2) + F(u).

    The time variable of the coefficients is the rescaled one, so u_tau
    carries a factor omega.  Quadratic terms are Parseval-exact; the
    potential term integrates the composed polynomial exactly on (0, pi).
    """
    a, b = _slice_coeffs(u, t_val)
    j = np.arange(1, a.size + 1, dtype=float)
    kin = 0.25 * np.pi * float(np.sum((omega * b) ** 2))
    grad = 0.25 * np.pi * float(np.sum((j * a) ** 2))
    pot = fields.integrate_x_poly(a, f.primitive)
    return kin + grad + pot


def energy_certificate(v, w, ctx, f, probes=9):
    """Energy at t = 0 and the relative drift across a period of probes."""
    u = kernel.embed(v) + w
    times = 2.0 * np.pi * np.arange(probes) / probes
    vals = np.array([energy_at(u, ctx.omega, f, tv) for tv in times])
    scale = max(float(np.max(np.abs(vals))), 1e-30)
    drift = float((vals.max() - vals.min()) / scale)
    return float(vals[0]), drift


def temporal_support_index(v, w, rtol=1e-9):
    """Largest n with all temporal frequencies of v + w in n Z."""
    u = kernel.embed(v) + w
    arr = np.abs(u.coeffs)
    scale = float(arr.max())
    if scale == 0.0:
        return 0
    rows = [l for l in range(1, arr.shape[0]) if arr[l].max() > rtol * scale]
    if not rows:
        return 0
    return int(math.gcd(*rows)) if len(rows) > 1 else int(rows[0])


def involution_partner(u):
    """The companion solution u(t + pi, pi - x), in coefficients (-1)^(l+j+1)."""
    arr = u.coeffs.copy()
    l = np.arange(arr.shape[0])[:, None]
    j = np.arange(1, arr.shape[1] + 1)[None, :]
    return fields.SpectralField(arr * (-1.0) ** (l + j + 1))


def build_solution(v, w, ctx, f, recipe, predicted_level, newton=None,
                   residual_tol=1e-8, drift_tol=1e-9, outside_theorem=False):
    """Assemble the certified record for a refined critical point."""
    u = kernel.embed(v) + w
    res = galerkin_residual(v, w, ctx, f)
    energy, drift = energy_certificate(v, w, ctx, f)
    phi_val = reduced.phi(v, ctx, f, w=w)
    n_obs = temporal_support_index(v, w)
    accepted = (
        res <= residual_tol
        and drift <= drift_tol
        and (newton is None or newton.converged)
        and n_obs == recipe.n
    )
    return SolutionRecord(
        version=RECORD_VERSION,
        omega=float(ctx.omega),
        eps=float(ctx.eps),
        gamma=float(ctx.gamma),
        n=int(recipe.n),
        q=int(recipe.q),
        case=recipe.case,
        xi=v.xi.copy(),
        w_coeffs=w.coeffs.copy(),
        h1=float(v.h1()),
        sup=fields.sup_norm(u),
        energy=energy,
        residual=res,
        phi=float(phi_val),
        predicted_level=float(predicted_level),
        accepted=bool(accepted),
        outside_theorem=bool(outside_theorem),
    )


def partner_record(record, f):
    """Record of the companion solution u(t + pi, pi - x).

    The involution flips kernel coefficients and the odd checkerboard of the
    range part; all certificates are recomputed from the transformed pair, so
    applying this twice reproduces the original record bit for bit.
    """
    v = kernel.KernelVector(np.asarray(record.xi, dtype=float))
    w = fields.SpectralField(np.asarray(record.w_coeffs, dtype=float))
    u = kernel.embed(v) + w
    pu = involution_partner(u)
    pv = kernel.KernelVector(fields.diagonal_of(pu)[: len(v)])
    pw = fields.zero_diagonal(pu)
    # carry omega, eps, gamma through unchanged so a double application
    # restores every field of the original record exactly
    ctx = frequency.FrequencyContext(
        omega=record.omega, eps=record.eps, gamma=record.gamma,
        L=max(w.lt, 2),
    )
    meta = _RecordMeta(n=record.n, q=record.q, case=record.case)
    return build_solution(
        pv, pw, ctx, f, meta, record.predicted_level,
        outside_theorem=record.outside_theorem,
    )


def solve_branch(ctx, f, n_max=None, C=0.05, side=None, dim=8, seed=0,
                 restarts=16, gtol=1e-12, residual_tol=1e-8,
                 force_n_min=None):
    """One record per admissible dilation level; deterministic under seed.

    Levels run from the case's minimal n (or force_n_min, flagging records
    below the covered range) to n_max or the admissibility cap.  Per-level
    failures are collected, not fatal.  A zero non-resonance margin means no
    admissible levels at all.
    """
    if ctx.gamma <= 0.0:
        return BranchResult(records=[], failures=[])
    if side is None:
        side = default_side(f)
    cap = frequency.max_admissible_n(ctx, f, C=C)
    if n_max is None:
        n_max = cap
    n_max = min(n_max, cap)
    n_min = frequency.minimal_n(f)
    start = n_min if force_n_min is None else force_n_min
    records = []
    failures = []
    for n in range(start, n_max + 1):
        report = frequency.admissible(ctx, n, f, C=C)
        # forcing waives only the minimal-index criterion; side, resonance
        # and the smallness bound still apply
        forced_ok = (
            force_n_min is not None
            and n < n_min
            and report.side_ok
            and ctx.gamma > 0.0
            and report.bound <= C * (1.0 + 1e-12)
        )
        if not (report.ok or forced_ok):
            failures.append((n, "; ".join(report.notes) or "not admissible"))
            continue
        try:
            recipe = reduced.g_recipe(f, side, n=n)
            y_star, m_val, diag = maximize_U(
                recipe, dim, seed=seed + 1000 * n, restarts=restarts
            )
            v0, level = initial_guess(y_star, m_val, recipe, ctx, diag)
            v_ref, w_ref, rep = refine(v0, ctx, f, gtol=gtol)
            records.append(
                build_solution(
                    v_ref, w_ref, ctx, f, recipe, level,
                    newton=rep, residual_tol=residual_tol,
                    outside_theorem=n < n_min,
                )
            )
        except (ConvergenceError, ResowaveError) as exc:
            failures.append((n, str(exc)))
    return BranchResult(records=records, failures=failures)
