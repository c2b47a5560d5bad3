"""The range equation: w = L_omega^{-1} P_W f(v + w), solved by contraction.

For v in the kernel the full problem splits into a range part (this module)
and a bifurcation part on the diagonal (the reduced functional).  Away from
resonances the inverse wave operator divides mode (l, j) by omega^2 l^2 - j^2,
and for small v the right-hand side is a contraction in the blended norm
|u|_omega = sup|u| + sqrt(|omega - 1|) ||u||_H1; Picard iteration from w = 0
converges geometrically with ratio O(|v|_omega^{p-1} / gamma).

Everything here works on a fixed Galerkin truncation (lt, lx).  The converged
w satisfies the truncated range system to the requested tolerance; tail modes
are a diagnostic, not part of the solution contract.  When v has temporal
period 2pi/n (support on indices divisible by n) the iteration preserves that
subspace exactly: off-support temporal rows are pinned to exact zeros.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import fields, kernel
from .errors import ConvergenceError, ResonanceError, ResowaveError

__all__ = ["PSolveReport", "apply_L_inv", "solve_P"]

DOMAIN_RHO = 0.1
RESONANCE_TOL = 1e-10


@dataclass(frozen=True)
class PSolveReport:
    iterations: int
    converged: bool
    final_update: float        # |w_{k+1} - w_k|_omega at exit
    contraction_ratio: float   # last observed update ratio
    w_omega_norm: float
    first_iterate_gap: float   # weak-L2 distance of w to L^-1 P_W f(v), order |v|^{2p-1}
    domain_ratio: float        # |v|_omega^{p-1} / gamma
    domain_ok: bool


def _denominators(lt, lx, omega):
    l2 = np.arange(lt + 1, dtype=float)[:, None] ** 2
    j2 = np.arange(1, lx + 1, dtype=float)[None, :] ** 2
    return omega**2 * l2 - j2


def apply_L_inv(w, omega, out_lt=None, out_lx=None):
    """Divide off-diagonal modes by omega^2 l^2 - j^2; the diagonal is pinned.

    Acts as the inverse of the d'Alembert operator on the range space W; the
    input's diagonal part is discarded (projection onto W is built in).
    Raises ResonanceError when a present off-diagonal mode has a vanishing
    denominator, naming the mode.
    """
    lt = w.lt if out_lt is None else out_lt
    lx = w.lx if out_lx is None else out_lx
    c = w.padded(max(lt, w.lt), max(lx, w.lx))[: lt + 1, :lx]
    den = _denominators(lt, lx, omega)
    mask_diag = np.zeros_like(c, dtype=bool)
    for j in range(1, min(lt, lx) + 1):
        mask_diag[j, j - 1] = True
    bad = (np.abs(den) < RESONANCE_TOL) & ~mask_diag & (c != 0.0)
    if np.any(bad):
        l_bad, j_bad = np.argwhere(bad)[0]
        raise ResonanceError(l_bad, j_bad + 1, den[l_bad, j_bad])
    out = np.zeros_like(c)
    safe = ~mask_diag & (np.abs(den) >= RESONANCE_TOL)
    out[safe] = c[safe] / den[safe]
    return fields.SpectralField(out)


def _masked_rhs(u, f, lt, lx, n):
    rhs = fields.apply_nonlinearity(u, f.poly, out_lt=lt, out_lx=lx)
    if n > 1:
        arr = rhs.coeffs.copy()
        arr[np.arange(arr.shape[0]) % n != 0] = 0.0
        rhs = fields.SpectralField(arr)
    return rhs


def _probe_gap(diff, omega, seed=1234):
    """sup over a few fixed random probes r of |<diff, r>_L2| / |r|_omega."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        r = fields.SpectralField(rng.standard_normal((diff.lt + 1, diff.lx)))
        pairing = abs(fields.inner_l2(diff, r))
        worst = max(worst, pairing / fields.norms(r, omega).omega)
    return worst


def solve_P(v, ctx, f, tol=1e-12, max_iter=200, lt=None, lx=None, rho=DOMAIN_RHO):
    """Solve the truncated range equation for the kernel element v.

    Returns (w, PSolveReport).  The iteration starts at w = 0 and stops when
    the omega-norm of the update drops below tol * max(1, |w|_omega).  The
    contraction-domain quantity |v|_omega^{p-1}/gamma is only monitored
    (warn above rho); genuine divergence raises ConvergenceError with the
    update trace attached.
    """
    if ctx.gamma <= 0.0:
        raise ResonanceError(0, 0, 0.0)
    dim = len(v)
    if lt is None:
        lt = max(2 * dim, 16)
    if lx is None:
        lx = max(2 * dim, 16)
    if lt < dim:
        raise ResowaveError(f"temporal truncation lt={lt} below kernel reach {dim}")
    if lt > ctx.L:
        raise ResowaveError(
            f"truncation lt={lt} exceeds the context's certified range L={ctx.L}"
        )
    u_v = kernel.embed(v)
    vn = fields.norms(u_v, ctx.omega)
    domain_ratio = vn.omega ** (f.p - 1) / ctx.gamma
    domain_ok = domain_ratio <= rho
    if not domain_ok:
        warnings.warn(
            f"|v|_omega^(p-1)/gamma = {domain_ratio:.3g} above rho = {rho}; "
            "contraction not guaranteed",
            stacklevel=2,
        )
    try:
        n = kernel.minimal_time_period_index(v)
    except ResowaveError:
        n = 1

    w = fields.zeros(lt, lx)
    w1 = None
    updates = []
    ratio = 0.0
    for it in range(1, max_iter + 1):
        rhs = _masked_rhs(u_v + w, f, lt, lx, n)
        w_next = apply_L_inv(rhs, ctx.omega, lt, lx)
        upd = fields.norms(w_next - w, ctx.omega).omega
        updates.append(upd)
        if w1 is None:
            w1 = w_next
        w = w_next
        if len(updates) >= 2 and updates[-2] > 0.0:
            ratio = updates[-1] / updates[-2]
        w_norm = fields.norms(w, ctx.omega).omega
        if upd <= tol * max(1.0, w_norm):
            gap = _probe_gap(w - w1, ctx.omega)
            return w, PSolveReport(
                iterations=it,
                converged=True,
                final_update=upd,
                contraction_ratio=ratio,
                w_omega_norm=w_norm,
                first_iterate_gap=gap,
                domain_ratio=domain_ratio,
                domain_ok=domain_ok,
            )
        if len(updates) >= 4 and updates[-1] > 4.0 * updates[-3] and updates[-1] > 1.0:
            raise ConvergenceError(
                f"range iteration diverging (ratio {ratio:.3g})", trace=updates
            )
    raise ConvergenceError(
        f"range iteration: no convergence in {max_iter} steps "
        f"(last update {updates[-1]:.3e}, ratio {ratio:.3g})",
        trace=updates,
    )
