"""Reduced functional on the kernel and the leading variational term G.

After eliminating the range component w(v), the bifurcation problem becomes
finding critical points of

    Phi_eps(v) = (eps/2) ||v||^2 + int [ (1/2) f(u) w(v) - F(u) ],   u = v + w(v),

on the kernel.  Because w(v) solves the range equation, the derivative needs
no dw/dv term (envelope property):

    DPhi_eps(v)[h] = eps (v, h)_H1 - int f(u) h,

which in coefficients reads  g_j = eps pi^2 j^2 xi_j - (pi^2/2) (f(u))_{jj}.

For small amplitudes Phi is governed by mu/2 ||v||^2 - G(v) with G the
homogeneous leading term, one of five shapes depending on the nonlinearity
class.  G_eval states that case table once (_G_jet), for the value, the
xi-gradient and the xi-Hessian at any dilation level n.  Every power
integral int v^k in G, with its gradient and its Hessian, comes from the
means, sine and cosine coefficients of the powers of the profile eta
(_power_jet).  For even leading power the quadratic-in-v^p form
int v^p L^-1 v^p appears.  With v = eta(s1) - eta(s2), v^p = sum_i C(p,i)
(-1)^(p-i) eta^i(s1) eta^(p-i)(s2) is a biperiodic map of rank p + 1, so
every term of the five-term decomposition (linv_forms module docstring) is
a short sum of exact 1D integrals of eta^k and of its zero-mean primitive;
nothing is truncated.  Its gradient is one reverse pass over the same
samples, and its Hessian the complex step of that gradient, exact to
rounding like the power integrals' (_form_jet); the complex step covers
the form alone.  On dilated kernels the form obeys an exact 1/n^2
rescaling law with an alpha^2 offset, evaluated only at n > 1, which is
how n enters G_eval, so the level-n objective never needs the dilated
vector.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fields, frequency, kernel, psolve
from .errors import ResowaveError

__all__ = [
    "GRecipe",
    "phi",
    "grad_phi",
    "G_eval",
    "g_recipe",
    "linv_qform",
    "power_integral",
]

# the imaginary step h of the form's complex-step Hessian (_form_jet)
_COMPLEX_STEP = 2.0**-60


@functools.lru_cache(maxsize=None)
def _binomial_signs(k):
    """c_i = C(k, i) (-1)^(k-i), i = 0..k: v^k = sum_i c_i eta^i(s1) eta^(k-i)(s2)."""
    i = np.arange(k + 1)
    c = np.array([math.comb(k, m) for m in i]) * (-1.0) ** (k - i)
    c.flags.writeable = False
    return c


# a . b and a @ m over the last axes, one BLAS call per row: rows keep their bits
def _dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _vecmat(a, m):
    return (a[..., None, :] @ m)[..., 0, :]


def _moment_sum(mom, k):
    """sum_i c_i <eta^i> <eta^(k-i)> = int v^k / (2 pi^2), from the means of eta^i."""
    # reversed into a contiguous copy: matmul sums a strided operand outside BLAS, in another order
    return _dot(_binomial_signs(k) * mom[..., : k + 1], np.ascontiguousarray(mom[..., k::-1]))


class _Jet:
    """A function of xi with its xi-gradient and xi-Hessian, as far as computed.

    terms is (value,), (value, gradient) or (value, gradient, Hessian), of
    shapes (...), (..., dim) and (..., dim, dim) over a stack of rows.  Sums,
    scalar multiples and products follow the product rule term by term.
    """

    __slots__ = ("terms",)
    __array_ufunc__ = None    # numpy scalars defer to __rmul__

    def __init__(self, *terms):
        self.terms = terms

    def __add__(self, other):
        return _Jet(*(a + b for a, b in zip(self.terms, other.terms)))

    def __sub__(self, other):
        return self + -1.0 * other

    def __rmul__(self, c):
        return _Jet(*(c * t for t in self.terms))

    def __mul__(self, other):
        (a, *da), (b, *db) = self.terms, other.terms
        terms = [a * b]
        if da:
            terms.append(a[..., None] * db[0] + b[..., None] * da[0])
        if da[1:]:
            cross = da[0][..., :, None] * db[0][..., None, :]
            terms.append(a[..., None, None] * db[1] + b[..., None, None] * da[1]
                         + cross + np.swapaxes(cross, -1, -2))
        return _Jet(*terms)


@functools.lru_cache(maxsize=64)
def _hessian_modes(dim):
    """|a - b| and a + b for a, b = 1..dim: the cosine modes of sin(a s) sin(b s)."""
    j = np.arange(1, dim + 1)
    diff, total = np.abs(j[:, None] - j), j[:, None] + j
    diff.flags.writeable = total.flags.writeable = False
    return diff, total


def _power_jet(v, k, order):
    """int v^k and, up to order, its xi-gradient and xi-Hessian (a _Jet).

    With mu_i = <eta^i>, int v^k = 2 pi^2 sum_i c_i mu_i mu_(k-i), c_i = C(k, i)
    (-1)^(k-i).  As d eta/dxi_a = sin(a s)/2,

        d mu_i/dxi_a = (i/2) S_a(eta^(i-1)),
        d2 mu_i/dxi_a dxi_b = (i(i-1)/8) [C_|a-b|(eta^(i-2)) - C_(a+b)(eta^(i-2))],

    with S and C the sine and cosine coefficients of eta_power_spectrum, one
    call of which gives every term.  The pairs i, k - i fold into e_i = c_i +
    c_(k-i): the gradient is 2 pi^2 sum_i e_i mu_(k-i) d mu_i and the Hessian
    2 pi^2 sum_i e_i [mu_(k-i) d2 mu_i + d mu_i (x) d mu_(k-i)].
    """
    mom, sines, cosines = kernel.eta_power_spectrum(v, k)
    terms = [2.0 * np.pi**2 * _moment_sum(mom, k)]
    if order == 0:
        return _Jet(*terms)
    c = _binomial_signs(k)
    e = c + c[::-1]
    dmom = 0.5 * np.arange(1, k + 1)[:, None] * sines[..., :k, :]   # d mu_i, i = 1..k
    terms.append(2.0 * np.pi**2 * _vecmat(e[1:] * mom[..., k - 1 :: -1], dmom))
    if order == 2:
        i = np.arange(2, k + 1)
        cbar = _vecmat(e[2:] * i * (i - 1) / 8.0 * mom[..., k - 2 :: -1], cosines[..., : k - 1, :])
        diff, total = _hessian_modes(sines.shape[-1])
        cross = (np.swapaxes(e[1:k, None] * dmom[..., : k - 1, :], -1, -2)
                 @ np.ascontiguousarray(dmom[..., k - 2 :: -1, :]))
        terms.append(2.0 * np.pi**2 * (cbar[..., diff] - cbar[..., total] + cross))
    return _Jet(*terms)


def power_integral(v, k, grad=False):
    """Exact int over the domain of v^k for a kernel element v, or its xi-gradient.

    v = eta(t + x) - eta(t - x) and the domain is half the (s1, s2) torus, so
        int v^k = 2 pi^2 sum_i C(k, i) (-1)^(k-i) <eta^i> <eta^(k-i)>,
    whose xi-derivatives follow from those of the means (_power_jet).
    """
    return _power_jet(v, k, int(grad)).terms[-1]


@functools.lru_cache(maxsize=64)
def _primitive_symbol(nodes):
    """1/(i m) on the rfft modes m of nodes samples, 0 at m = 0 and at Nyquist; read-only."""
    inv = np.zeros(nodes // 2 + 1, dtype=complex)
    inv[1 : nodes // 2] = 1.0 / (1j * np.arange(1, nodes // 2))
    inv.flags.writeable = False
    return inv


def linv_qform(v, p, grad=False):
    """Q = int v^p L^-1 v^p for even p, exact, or with grad (Q, dQ), from one
    sampling of eta.  Q is negative: -Q has a pointwise nonnegative
    rectangle kernel.

    Let E_k = eta^k, mu_k its mean, Pi_k = P E_k the zero-mean primitive of
    E_k - mu_k and c_i = C(p,i) (-1)^(p-i).  The decomposition m = mtilde +
    a(s1) + a(s2) + alpha of m = v^p has, with B[i,k] = int Pi_i E_k
    (antisymmetric, as P^T = -P),

        intint M mtilde = 1/4 sum_{i,i'} c_i c_i' B[i,i'] B[p-i,p-i'],
        M(s,s) = 1/4 sum_i c_i Pi_i Pi_(p-i),
        a + alpha = sum_i c_i mu_(p-i) E_i,   A = 1/4 sum_i c_i mu_(p-i) Pi_i,
        alpha = sum_i c_i mu_i mu_(p-i),

    and the alpha int M(s,s) terms of the linv_forms formula make its a
    into a + alpha.
    Every integrand is a trig polynomial of degree at most 2p dim, so the
    trapezoid rule on 2p dim + 2 nodes is exact and one rfft gives every
    mean and primitive.  The xi-gradient dQ is one reverse pass: dQ/dE_k on
    the nodes, and as dE_k/dxi_j = (k/2) E_(k-1) sin(j s),

        dQ_j = sum_k (k/2) <dQ/dE_k E_(k-1), sin(j s)>,

    with <, > the sum over the nodes, one product with the sines per row.
    xi may be complex, and every step is complex-analytic in it.  The rows
    of a stack v of shape (..., dim) are never mixed.
    """
    if p % 2 != 0:
        raise ResowaveError("the form int v^p L^-1 v^p needs an even power p")
    xi = np.asarray(getattr(v, "xi", v))
    dim = xi.shape[-1]
    nodes = 2 * p * dim + 2
    sines, inv = kernel._sine_table(dim, nodes), _primitive_symbol(nodes)
    E = kernel._powers((sines @ (xi / 2.0)[..., None])[..., 0], p)

    def means_and_primitives(x):
        # the real FFTs take the parts of a complex x apart: a complex FFT
        # would round the real part into the far smaller imaginary one
        parts = np.stack([x.real, x.imag]) if np.iscomplexobj(x) else x
        spec = np.fft.rfft(parts, axis=-1)
        mu, Pi = spec[..., 0].real / nodes, np.fft.irfft(spec * inv, n=nodes, axis=-1)
        return (mu, Pi) if parts is x else (mu[0] + 1j * mu[1], Pi[0] + 1j * Pi[1])

    mu, Pi = means_and_primitives(E)
    ds = 2.0 * np.pi / nodes
    c = _binomial_signs(p)
    B = ds * Pi @ np.swapaxes(E, -1, -2)
    W = np.outer(c, c) * B[..., ::-1, ::-1]
    Md = _vecmat(0.25 * c, Pi * Pi[..., ::-1, :])
    cm = c * mu[..., ::-1]
    b = _vecmat(cm, E)
    A = _vecmat(0.25 * cm, Pi)
    alpha = _moment_sum(mu, p)
    q = (-0.125 * np.sum(W * B, axis=(-2, -1))
         + 2.0 * np.pi * ds * (_dot(Md, b) - 4.0 * _dot(A, A))
         - np.pi**4 / 6.0 * alpha**2)
    if not grad:
        return q

    # the reverse pass, g_X = dQ/dX.  c_i = c_(p-i), so the two factors B of
    # the first term contribute alike, and so do the two primitives of
    # M(s,s); B and W are antisymmetric, so B's part of g_E, through E and
    # through Pi, is ds/4 (W - W^T) Pi = ds/2 W Pi
    w = 2.0 * np.pi * ds
    gPi = w * (0.5 * c[:, None] * Pi[..., ::-1, :] * b[..., None, :] - 2.0 * cm[..., None] * A[..., None, :])
    gcm = w * (E @ Md[..., None] - 2.0 * Pi @ A[..., None])[..., 0]
    # mu_(p-i) enters through cm_i and alpha
    gmu = (c * gcm)[..., ::-1] - 2.0 * np.pi**4 / 3.0 * alpha[..., None] * cm
    gE = (0.5 * ds * W @ Pi + w * cm[..., None] * Md[..., None, :]
          - means_and_primitives(gPi)[1] + gmu[..., None] / nodes)
    k = np.arange(1, p + 1)
    geta = _vecmat(0.5 * k, gE[..., 1:, :] * E[..., :-1, :])
    return q, _vecmat(geta, sines)


def _uses_qform(f):
    return f.case == "n2" or (f.case == "n3" and f.b < 0)


def G_eval(v, f, n=1, grad=False, hess=False):
    """The case-resolved leading term G at L_n v, or its xi-gradient (grad),
    or with hess the triple (value, xi-gradient, xi-Hessian).

    odd-power:  (a/(p+1)) int v^{p+1}
    n1:         (b/(d+1)) int v^{d+1}
    n2:         -(a^2/2) int v^p L^-1 v^p            (nonnegative)
    n3, b < 0:  -(b/2p) int v^{2p} - (a^2/2) int v^p L^-1 v^p
    n3, b > 0:  (b/2p) int v^{2p} - (a^2/48) (int v^p)^2

    The power integrals do not change under the dilation L_n; the form
    (cases n2 and n3 with b < 0) rescales exactly,
        Q(L_n v) = Q(v) / n^2 - (pi^4/6) alpha^2 (1 - 1/n^2),
    with alpha = int v^p / (2 pi^2); the alpha^2 term is evaluated only at
    n > 1.  Every int v^k comes from _power_jet, and the complex step
    covers Q(v) alone (_form_jet).  Every Hessian is exact to rounding.
    """
    xi = np.asarray(getattr(v, "xi", v), dtype=float)
    terms = _G_jet(xi, f, n, 2 if hess else int(grad)).terms
    return terms if hess else terms[-1]


def _G_jet(xi, f, n, order, along=slice(None)):
    """G_eval's case table: G at L_n xi as a _Jet of the given order, its
    gradient and Hessian along the coordinates along (a slice)."""
    p = f.p

    def power(k):
        # the gradient along along on the last axis, the Hessian on the last two
        value, *derivs = _power_jet(xi, k, order).terms
        return _Jet(value, *(t[(...,) + (along,) * i] for i, t in enumerate(derivs, 1)))

    if f.case == "odd-power":
        return f.a / (p + 1.0) * power(p + 1)
    if f.case == "n1":
        return f.b / (f.d + 1.0) * power(f.d + 1)
    if not _uses_qform(f):
        power_p = power(p)
        return f.b / (2.0 * p) * power(2 * p) - f.a * f.a / 48 * power_p * power_p
    # -(a^2/2) Q(L_n xi); (pi^4/6) alpha^2 = (int v^p)^2 / 24
    G = -0.5 * f.a * f.a * n**-2.0 * _form_jet(xi, p, order, along)
    if n > 1:
        power_p = power(p)
        G = G + f.a * f.a / 48 * (1.0 - 1.0 / n**2) * power_p * power_p
    if f.case == "n3":
        G = G - f.b / (2.0 * p) * power(2 * p)
    return G


def _form_jet(xi, p, order, along):
    """Q = int v^p L^-1 v^p at xi as a _Jet of the given order, its gradient
    and Hessian along along, from one complex evaluation of linv_qform at the
    rows xi + i h s_r.

    Row 0, s_0 = 0, gives the value and the gradient.  At order 2 the rows
    s_r = e_j, one for every j of along, give the Hessian by the complex
    step, H[j] = Im grad Q(xi + i h e_j) / h, symmetrized.  The gradient is
    complex-analytic in xi and nothing is subtracted, so H is exact to
    rounding for any small h; the power of two _COMPLEX_STEP makes xi + i h
    e_j exact too.  Row 0 is evaluated alike at every order, so the value
    and gradient keep their bits whether the Hessian is asked for or not.
    """
    dim = xi.shape[-1]
    steps = np.concatenate([np.zeros((1, dim))] + ([np.eye(dim)[along]] if order == 2 else []))
    rows = xi[..., None, :] + 1j * _COMPLEX_STEP * steps
    q, *grad = linv_qform(rows, p, grad=True) if order else (linv_qform(rows, p),)
    terms = [q[..., 0].real] + [g[..., 0, along].real for g in grad]
    if order == 2:
        hess = grad[0][..., 1:, along].imag / _COMPLEX_STEP
        terms.append(0.5 * (hess + np.swapaxes(hess, -1, -2)))
    return _Jet(*terms)


# ---------------------------------------------------------------------------
# side-resolved recipes at dilation level n


@dataclass(frozen=True)
class GRecipe:
    """Effective G of Phi (omega > 1) or -Phi (omega < 1) on the n-dilated kernel.

    hess maps a stack (r, h) of coordinates y of reflection-even gcd-1
    vectors, row by row, to G_eff(L_n xi), its gradient and its Hessian in
    y, (r,), (r, h) and (r, h, h).  xi has y_i at j = 2i - 1 and zeros at
    every even j: the vectors even under x -> pi - x (_reflection_even).
    The sign that g_recipe chose for the side is built into all three.  mu
    = |eps| n^2 pairs with these.  n_invariant says that they do not depend
    on n.
    """

    case: str
    q: int
    n: int
    side: int         # +1 (omega > 1) or -1 (omega < 1)
    hess: object
    n_invariant: bool = False


def _reflection_even(y):
    """The vectors xi with y_i at j = 2i - 1 and zeros at every even j."""
    y = np.asarray(y, dtype=float)
    xi = np.zeros(y.shape[:-1] + (2 * y.shape[-1] - 1,))
    xi[..., ::2] = y
    return xi


def g_recipe(f, side, n=1):
    """Build the effective-G recipe for the given side of omega = 1.

    side is +1 (omega > 1) or -1 (omega < 1).  Raises when the case does not
    bifurcate to that side (frequency.side_required; e.g. n2 never bifurcates
    to omega > 1).  The quadratic-form cases (n2, n3 with b < 0) get the
    level-n form of -Phi; every other case gets side * G, which is invariant
    under the dilation: the n-dependence sits entirely in mu.
    """
    if side not in (+1, -1):
        raise ResowaveError("side must be +1 or -1")
    if n < 1 or int(n) != n:
        raise ResowaveError("dilation index must be a positive integer")
    n = int(n)
    required = frequency.side_required(f)
    asked = "omega>1" if side == +1 else "omega<1"
    if required not in ("either", asked):
        raise ResowaveError(f"case {f.case} bifurcates to {required}, not {asked}")

    sign = 1 if _uses_qform(f) else side

    def hess(y):
        # the odd j, where y sits
        return tuple(sign * t for t in _G_jet(_reflection_even(y), f, n, 2, slice(0, None, 2)).terms)

    return GRecipe(
        case=f.case,
        q=f.q,
        n=n,
        side=side,
        hess=hess,
        n_invariant=not _uses_qform(f),
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
