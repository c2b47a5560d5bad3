"""The range equation: w = L_omega^{-1} P_W f(v + w), solved by contraction.

For v in the kernel the full problem splits into a range part (this module)
and a bifurcation part on the diagonal (the reduced functional).  Away from
resonances the inverse wave operator divides mode (l, j) by omega^2 l^2 - j^2,
and for small v the right-hand side is a contraction in the blended norm
|u|_omega = sup|u| + sqrt(|omega - 1|) ||u||_H1; Picard iteration from w = 0
converges geometrically with ratio O(|v|_omega^{p-1} / gamma).  Every
omega-norm here bounds sup|u| from above by sum |u_lj| (fields.omega_norm).

Everything here works on a fixed Galerkin truncation (lt, lx), which
search.level_truncation sizes as it sizes every level.  The converged w
satisfies the truncated range system to the requested tolerance; tail modes
are a diagnostic, not part of the solution contract.  When v has temporal
period 2pi/n (support on indices divisible by n) the iteration preserves that
subspace exactly: off-support temporal rows are pinned to exact zeros.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import fields, kernel
from .errors import ConvergenceError, ResonanceError, ResowaveError

__all__ = ["PSolveReport", "apply_L_inv", "contraction_domain", "solve_P"]

DOMAIN_RHO = 0.1
RESONANCE_TOL = 1e-10
_MAX_SWEEPS = 200


@dataclass(frozen=True)
class PSolveReport:
    iterations: int
    converged: bool
    final_update: float        # |w_{k+1} - w_k|_omega at exit, from above
    contraction_ratio: float   # last observed update ratio
    w_omega_norm: float        # |w|_omega at exit, from above
    domain_ratio: float        # |v|_omega^{p-1} / gamma
    domain_ok: bool


def _symbol(n, d, lt, lx, omega):
    """j^2 - omega^2 l^2 at the modes (n k, d m), k <= lt and 1 <= m <= lx."""
    l = n * np.arange(lt + 1, dtype=float)[:, None]
    return (d * np.arange(1, lx + 1, dtype=float)) ** 2 - omega**2 * l**2


def apply_L_inv(w, omega, out_lt=None, out_lx=None):
    """Divide off-diagonal modes by omega^2 l^2 - j^2; the diagonal is pinned.

    Acts as the inverse of the d'Alembert operator on the range space W; the
    input's diagonal part is discarded (projection onto W is built in).
    Raises ResonanceError when a present off-diagonal mode has a vanishing
    denominator, naming the mode (its value 0.0 - symbol, +0.0 where zero).
    The divisor is -_symbol(1, 1, ...): -c / symbol has the bits of c / divisor.
    """
    lt = w.lt if out_lt is None else out_lt
    lx = w.lx if out_lx is None else out_lx
    c = w.padded(max(lt, w.lt), max(lx, w.lx))[: lt + 1, :lx]
    sym = _symbol(1, 1, lt, lx, omega)
    mask_diag = np.zeros_like(c, dtype=bool)
    np.fill_diagonal(mask_diag[1:], True)
    bad = (np.abs(sym) < RESONANCE_TOL) & ~mask_diag & (c != 0.0)
    if np.any(bad):
        l_bad, j_bad = np.argwhere(bad)[0]
        raise ResonanceError(l_bad, j_bad + 1, 0.0 - sym[l_bad, j_bad])
    out = np.zeros_like(c)
    safe = ~mask_diag & (np.abs(sym) >= RESONANCE_TOL)
    out[safe] = -c[safe] / sym[safe]
    return fields.SpectralField(out)


def contraction_domain(v, ctx, f):
    """The a priori contraction quantity |v|_omega^(p-1)/gamma, from above.

    It depends on v, omega and gamma only, not on the truncation.  sup|v| is
    bounded by sum |xi_j|, so no field is sampled.  Refuses a resonant
    context; solve_P warns above DOMAIN_RHO and search._newton aborts.
    """
    if ctx.gamma <= 0.0:
        raise ResonanceError(omega=ctx.omega)
    return (np.sum(np.abs(v.xi)) + np.sqrt(abs(ctx.omega - 1.0)) * v.h1()) ** (f.p - 1) / ctx.gamma


def _masked_rhs(u, f, lt, lx, n):
    rhs = fields.apply_nonlinearity(u, f.poly, out_lt=lt, out_lx=lx)
    if n > 1:
        arr = rhs.coeffs.copy()
        arr[np.arange(arr.shape[0]) % n != 0] = 0.0
        rhs = fields.SpectralField(arr)
    return rhs


def solve_P(v, ctx, f, tol=1e-12, lt=None, lx=None):
    """Solve the truncated range equation for the kernel element v.

    Returns (w, PSolveReport).  (lt, lx) is search.level_truncation's for
    v at reach len(v), which refuses before any sweep as it does for a
    level.  The iteration starts at w = 0 and stops when the omega-norm of
    the update drops below tol * max(1, |w|_omega), both upper bounds, so a
    sweep samples only f(v + w).  The contraction-domain quantity
    |v|_omega^{p-1}/gamma is only monitored (warn above DOMAIN_RHO); genuine
    divergence, or no convergence in 200 sweeps, raises ConvergenceError
    with the update trace attached.
    """
    from .search import level_truncation   # search imports psolve as it loads
    try:
        n = kernel.minimal_time_period_index(v)
    except ResowaveError:
        n = 1
    lt, lx = level_truncation(ctx, f, n, len(v), lt, lx, v)
    domain_ratio = contraction_domain(v, ctx, f)
    domain_ok = domain_ratio <= DOMAIN_RHO
    if not domain_ok:
        warnings.warn(
            f"|v|_omega^(p-1)/gamma = {domain_ratio:.3g} above rho = {DOMAIN_RHO}; "
            "contraction not guaranteed",
            stacklevel=2,
        )
    u_v = kernel.embed(v)
    w = fields.SpectralField(np.zeros((lt + 1, lx)))
    updates = []
    ratio = 0.0
    for it in range(1, _MAX_SWEEPS + 1):
        rhs = _masked_rhs(u_v + w, f, lt, lx, n)
        w_next = apply_L_inv(rhs, ctx.omega, lt, lx)
        upd = fields.omega_norm(w_next - w, ctx.omega)
        updates.append(upd)
        w = w_next
        if len(updates) >= 2 and updates[-2] > 0.0:
            ratio = updates[-1] / updates[-2]
        w_norm = fields.omega_norm(w, ctx.omega)
        if upd <= tol * max(1.0, w_norm):
            return w, PSolveReport(
                iterations=it,
                converged=True,
                final_update=upd,
                contraction_ratio=ratio,
                w_omega_norm=w_norm,
                domain_ratio=domain_ratio,
                domain_ok=domain_ok,
            )
        if len(updates) >= 4 and updates[-1] > 4.0 * updates[-3] and updates[-1] > 1.0:
            raise ConvergenceError(
                f"range iteration diverging (ratio {ratio:.3g})", trace=updates
            )
    raise ConvergenceError(
        f"range iteration: no convergence in {_MAX_SWEEPS} steps "
        f"(last update {updates[-1]:.3e}, ratio {ratio:.3g})",
        trace=updates,
    )
