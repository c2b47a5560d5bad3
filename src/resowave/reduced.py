"""Reduced functional on the kernel and the leading variational term G.

After eliminating the range component w(v), the bifurcation problem becomes
finding critical points of

    Phi_eps(v) = (eps/2) ||v||^2 + int [ (1/2) f(u) w(v) - F(u) ],   u = v + w(v),

on the kernel.  Because w(v) solves the range equation, the derivative needs
no dw/dv term (envelope property):

    DPhi_eps(v)[h] = eps (v, h)_H1 - int f(u) h,

which in coefficients reads  g_j = eps pi^2 j^2 xi_j - (pi^2/2) (f(u))_{jj}.

For small amplitudes Phi is governed by mu/2 ||v||^2 - G(v) with G the
homogeneous leading term, one of four shapes depending on the nonlinearity
class.  For even leading power the quadratic-in-v^p form int v^p L^-1 v^p
appears; on dilated kernels it obeys an exact 1/n^2 rescaling law with an
alpha^2 offset, used here so the level-n objective never needs the dilated
vector itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fields, kernel, psolve
from .errors import ResowaveError

__all__ = [
    "GRecipe",
    "phi",
    "grad_phi",
    "G_eval",
    "U_eval",
    "g_recipe",
    "linv_qform",
    "power_integral",
    "mean_alpha",
]

QFORM_MIN_LX = 64
QFORM_LX_FACTOR = 4


def _power_poly(k):
    poly = np.zeros(k + 1)
    poly[k] = 1.0
    return poly


def power_integral(v, k):
    """Exact int over the domain of v^k for a kernel element v.

    v = eta(t + x) - eta(t - x) and the domain is half the (s1, s2) torus, so
        int v^k = 2 pi^2 sum_i C(k, i) (-1)^(k-i) <eta^i> <eta^(k-i)>.
    """
    mom, _ = kernel.eta_power_spectrum(v, k)
    i = np.arange(k + 1)
    c = np.array([math.comb(k, m) for m in i]) * (-1.0) ** (k - i)
    return 2.0 * np.pi**2 * float(np.dot(c * mom, mom[::-1]))


def mean_alpha(v, p):
    """alpha = (1/2pi^2) int v^p, the mean of the biperiodic profile of v^p."""
    return power_integral(v, p) / (2.0 * np.pi**2)


def _qform_truncation(v, p):
    return max(QFORM_MIN_LX, QFORM_LX_FACTOR * p * len(v))


def _linv_power_field(v, p, out_lx=None):
    """L^-1 P_W (v^p) at omega = 1, truncated at out_lx in space (exact rows in t)."""
    out_lx = _qform_truncation(v, p) if out_lx is None else out_lx
    emb = kernel.embed(v)
    g = fields.apply_nonlinearity(emb, _power_poly(p), out_lt=p * len(v), out_lx=out_lx)
    return psolve.apply_L_inv(g, 1.0), g


def linv_qform(v, p, out_lx=None):
    """int v^p L^-1 v^p (negative for p even: minus this form has a pointwise
    nonnegative rectangle kernel).

    The spatial sine tail of v^p decays like j^-3, so the summand decays like
    j^-8 and the default truncation puts the tail far below 1e-12 relative.
    """
    linv_g, g = _linv_power_field(v, p, out_lx)
    return fields.inner_l2(g, linv_g)


def G_eval(v, f):
    """The case-resolved leading term G of the reduced functional.

    odd-power:  (a/(p+1)) int v^{p+1}
    n1:         (b/(d+1)) int v^{d+1}
    n2:         -(a^2/2) int v^p L^-1 v^p            (nonnegative)
    n3, b < 0:  -(b/2p) int v^{2p} - (a^2/2) int v^p L^-1 v^p
    n3, b > 0:  (b/2p) int v^{2p} - (a^2/48) (int v^p)^2
    """
    p = f.p
    if f.case == "odd-power":
        return f.a / (p + 1.0) * power_integral(v, p + 1)
    if f.case == "n1":
        return f.b / (f.d + 1.0) * power_integral(v, f.d + 1)
    if f.case == "n2":
        return -0.5 * f.a**2 * linv_qform(v, p)
    if f.b < 0:
        return -f.b / (2.0 * p) * power_integral(v, 2 * p) - 0.5 * f.a**2 * linv_qform(v, p)
    return f.b / (2.0 * p) * power_integral(v, 2 * p) - f.a**2 / 48.0 * power_integral(v, p) ** 2


def U_eval(v, f):
    """Normalized leading term G(v)/||v||^{q+1}; scale-invariant."""
    h1 = v.h1()
    if h1 == 0.0:
        raise ResowaveError("U is undefined at the zero vector")
    return G_eval(v, f) / h1 ** (f.q + 1)


# ---------------------------------------------------------------------------
# gradients of the G building blocks (with respect to xi)


def _grad_power_integral(v, k):
    """d/dxi_j of int v^k = k int v^(k-1) cos(j t) sin(j x), through eta:

        k pi^2 sum_{i<k} C(k-1, i) (-1)^(k-1-i)
               [S_j(eta^i) <eta^(k-1-i)> - <eta^i> S_j(eta^(k-1-i))]

    with S_j(g) = (1/2pi) int g sin(j s); the two halves are folded into one
    sum over the sine coefficients.
    """
    mom, sines = kernel.eta_power_spectrum(v, k - 1)
    i = np.arange(k)
    c = np.array([math.comb(k - 1, m) for m in i]) * (
        (-1.0) ** (k - 1 - i) - (-1.0) ** i
    )
    return k * np.pi**2 * ((c * mom[::-1]) @ sines)


def _grad_qform(v, p):
    """d/dxi of int v^p L^-1 v^p = 2p (pi^2/2) (v^{p-1} L^-1 v^p)_{jj}."""
    dim = len(v)
    linv_g, _ = _linv_power_field(v, p)
    z = fields.multiply_poly_project(
        kernel.embed(v), _power_poly(p - 1), linv_g, out_lt=dim, out_lx=dim
    )
    d = fields.diagonal_of(z)
    out = np.zeros(dim)
    out[: d.size] = d
    return 2.0 * p * 0.5 * np.pi**2 * out


def _grad_G(v, f):
    p = f.p
    if f.case == "odd-power":
        return f.a / (p + 1.0) * _grad_power_integral(v, p + 1)
    if f.case == "n1":
        return f.b / (f.d + 1.0) * _grad_power_integral(v, f.d + 1)
    if f.case == "n2":
        return -0.5 * f.a**2 * _grad_qform(v, p)
    if f.b < 0:
        return -f.b / (2.0 * p) * _grad_power_integral(v, 2 * p) - 0.5 * f.a**2 * _grad_qform(v, p)
    return (
        f.b / (2.0 * p) * _grad_power_integral(v, 2 * p)
        - f.a**2 / 24.0 * power_integral(v, p) * _grad_power_integral(v, p)
    )


# ---------------------------------------------------------------------------
# side-resolved recipes at dilation level n


@dataclass(frozen=True)
class GRecipe:
    """Effective G of sigma * Phi restricted to the n-dilated kernel.

    value/grad act on the gcd-1 vector y and return G_eff(L_n y) and its
    xi-gradient; sigma is +1 when the recipe describes Phi itself (omega > 1)
    and -1 for -Phi (omega < 1).  mu = |eps| n^2 pairs with these.
    n_invariant says that value and grad do not depend on n.
    """

    case: str
    q: int
    sigma: int
    n: int
    value: object
    grad: object
    n_invariant: bool = False


def _uses_qform(f):
    return f.case == "n2" or (f.case == "n3" and f.b < 0)


def g_recipe(f, side, n=1):
    """Build the effective-G recipe for the given side of omega = 1.

    side is +1 (omega > 1) or -1 (omega < 1).  Raises when the case admits no
    branch on that side (e.g. n2 never bifurcates to omega > 1).
    """
    if side not in (+1, -1):
        raise ResowaveError("side must be +1 or -1")
    if n < 1 or int(n) != n:
        raise ResowaveError("dilation index must be a positive integer")
    n = int(n)

    if f.case in ("odd-power", "n1"):
        lead = f.a if f.case == "odd-power" else f.b
        if np.sign(lead) != side:
            raise ResowaveError(
                f"case {f.case} with leading sign {np.sign(lead):+.0f} has no "
                f"branch on side {side:+d}"
            )
        # G is invariant under the dilation; the n-dependence sits entirely in mu.
        return GRecipe(
            case=f.case,
            q=f.q,
            sigma=side,
            n=n,
            value=lambda y: side * G_eval(y, f),
            grad=lambda y: side * _grad_G(y, f),
            n_invariant=True,
        )

    if f.case == "n2":
        if side != -1:
            raise ResowaveError("case n2 only bifurcates for omega < 1")
    elif f.b < 0:
        if side != -1:
            raise ResowaveError("case n3 with b < 0 only bifurcates for omega < 1")
    else:
        thresh = f.p * np.pi**2 * f.a**2 / 24.0
        if side == -1 and f.b >= thresh:
            raise ResowaveError(
                "case n3 with b above the pi^2 threshold has no omega < 1 branch"
            )

    if _uses_qform(f):
        # G_eff contains -(a^2/2) int v^p L^-1 v^p, which rescales exactly:
        #   Q(L_n y) = -(pi^4/6) alpha^2 + (Q(y) + (pi^4/6) alpha^2) / n^2.
        c_al = f.a**2 * np.pi**4 / 12.0

        def value(y, n=n):
            al = mean_alpha(y, f.p)
            qpart = -0.5 * f.a**2 * linv_qform(y, f.p)
            rest = G_eval(y, f) - qpart   # power-integral part, dilation-invariant
            return rest + qpart / n**2 + c_al * al**2 * (1.0 - 1.0 / n**2)

        def grad(y, n=n):
            al = mean_alpha(y, f.p)
            d_al = _grad_power_integral(y, f.p) / (2.0 * np.pi**2)
            d_base = _grad_G(y, f)
            d_qpart = -0.5 * f.a**2 * _grad_qform(y, f.p)
            d_rest = d_base - d_qpart
            return d_rest + d_qpart / n**2 + c_al * 2.0 * al * d_al * (1.0 - 1.0 / n**2)

        return GRecipe(case=f.case, q=f.q, sigma=-1, n=n, value=value, grad=grad)

    # n3 with b > 0: G-tilde, dilation-invariant like the odd cases
    sgn = 1 if side == +1 else -1
    return GRecipe(
        case=f.case,
        q=f.q,
        sigma=side,
        n=n,
        value=lambda y: sgn * G_eval(y, f),
        grad=lambda y: sgn * _grad_G(y, f),
        n_invariant=True,
    )


# ---------------------------------------------------------------------------
# the reduced functional itself


def phi(v, ctx, f, w=None, **psolve_kw):
    """Phi_eps(v); solves the range equation at v unless w is supplied."""
    if w is None:
        w, _ = psolve.solve_P(v, ctx, f, **psolve_kw)
    u = kernel.embed(v) + w
    fu = fields.apply_nonlinearity(u, f.poly, out_lt=w.lt, out_lx=w.lx)
    coupling = 0.5 * fields.inner_l2(fu, w)
    potential = fields.integrate_poly(u, f.primitive)
    h1 = v.h1()
    return 0.5 * ctx.eps * h1**2 + coupling - potential


def grad_phi(v, ctx, f, w=None, **psolve_kw):
    """Coefficient gradient of Phi_eps; exact thanks to the envelope property."""
    if w is None:
        w, _ = psolve.solve_P(v, ctx, f, **psolve_kw)
    u = kernel.embed(v) + w
    dim = len(v)
    fu = fields.apply_nonlinearity(u, f.poly, out_lt=dim, out_lx=dim)
    diag = fields.diagonal_of(fu)
    dvec = np.zeros(dim)
    dvec[: diag.size] = diag
    j = np.arange(1, dim + 1, dtype=float)
    return ctx.eps * np.pi**2 * j**2 * v.xi - 0.5 * np.pi**2 * dvec
