"""Quadratic forms of the inverse d'Alembertian via biperiodic profiles.

A range element of travelling-wave type, w(t, x) = m(t + x, t - x) with m a
biperiodic trig polynomial, admits the unique decomposition

    m = mtilde + a(s1) + a(s2) + alpha,

alpha the mean, a the (shared) zero-mean marginal profile, mtilde with both
marginal means zero.  In terms of it the quadratic form of L^-1 has the closed
expression

    int w L^-1 w = -1/2 intint_T2 M mtilde + 2pi int_T M(s,s) a(s) ds
                   + 2pi alpha int_T M(s,s) ds - 8pi int_T A^2 ds
                   - alpha^2 pi^4 / 6,

with A' = a/4 and d2M/ds1 ds2 = mtilde/4, both zero-mean.  Everything in this
module lives in 1D/2D Fourier coefficient space, deliberately sharing nothing
with the sine-basis field machinery or with reduced: these are the independent
reference paths the verification suite compares the production computation
(1D integrals of the profile powers eta^k in reduced.linv_qform) against.

The rectangle-kernel oracle evaluates  (1/8) int_Omega M(t+x, t-x) v^p dt dx
with M the explicit iterated integral of m over the lattice rectangle, built
from exact antiderivatives of eta powers (DFT on a uniform torus grid *is* the
trapezoid sum, and the cumulative integration is exact in coefficient space).
"""

import math

import numpy as np
from dataclasses import dataclass

from .errors import ResowaveError

__all__ = [
    "BiperiodicMap",
    "DecomposedM",
    "decompose_m",
    "l_inv_quadratic_form",
    "kernel_M_oracle",
    "closed_form_qform_p2",
    "kappa_ratio",
    "eta_moments",
    "power_integral_from_eta",
    "square_wave_vector",
]


def _eta_from_kernel(v):
    """Sine coefficients of the profile eta from a kernel vector (eta_j = xi_j/2)."""
    return np.asarray(v.xi, dtype=float) / 2.0


def _eta_samples(eta_sine, n_nodes):
    s = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
    j = np.arange(1, len(eta_sine) + 1)
    return s, np.sin(np.outer(s, j)) @ eta_sine


class BiperiodicMap:
    """Trig polynomial on the 2-torus, centered complex coefficients.

    c[K + k, K + l] is the coefficient of e^{i(k s1 + l s2)}, |k|, |l| <= K.
    """

    __slots__ = ("c", "K")

    def __init__(self, c):
        c = np.asarray(c, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] % 2 != 1:
            raise ResowaveError("coefficient array must be square with odd side")
        self.c = c.copy()
        self.K = c.shape[0] // 2

    @classmethod
    def constant(cls, alpha, K=1):
        c = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
        c[K, K] = alpha
        return cls(c)

    @classmethod
    def from_eta_power(cls, v, p):
        """m(s1, s2) = (eta(s1) - eta(s2))^p for the kernel vector v."""
        eta = _eta_from_kernel(v)
        deg = len(eta)
        K = p * deg
        n = 4 * K + 1
        _, vals = _eta_samples(eta, n)
        # 1D coefficient arrays of eta^k on the centered index range [-K..K]
        powers = []
        for k in range(p + 1):
            spec = np.fft.fft(vals**k) / n
            cent = np.zeros(2 * K + 1, dtype=complex)
            cent[K] = spec[0]
            for nu in range(1, K + 1):
                cent[K + nu] = spec[nu]
                cent[K - nu] = spec[n - nu]
            powers.append(cent)
        c = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
        for k in range(p + 1):
            coef = math.comb(p, k) * (-1.0) ** (p - k)
            c += coef * np.outer(powers[k], powers[p - k])
        return cls(c)

    def eval_pairs(self, s1, s2):
        s1 = np.atleast_1d(np.asarray(s1, dtype=float))
        s2 = np.atleast_1d(np.asarray(s2, dtype=float))
        freqs = np.arange(-self.K, self.K + 1)
        e1 = np.exp(1j * np.outer(s1, freqs))
        e2 = np.exp(1j * np.outer(s2, freqs))
        return np.einsum("pk,kl,pl->p", e1, self.c, e2).real


@dataclass
class DecomposedM:
    alpha: float
    a: np.ndarray          # centered 1D coefficients of the marginal profile
    mtilde: BiperiodicMap
    A: np.ndarray          # centered 1D coefficients of the primitive of a/4
    M: BiperiodicMap       # d2 M/ds1 ds2 = mtilde/4, zero marginal means


def decompose_m(m):
    """Split m = mtilde + a(s1) + a(s2) + alpha and build the primitives A, M.

    Raises when the two marginal profiles differ, i.e. the input is not a
    symmetric map and the split does not apply.
    """
    K = m.K
    c = m.c
    alpha = float(c[K, K].real)
    row = c[:, K].copy()   # s1-profile coefficients (marginal mean over s2)
    col = c[K, :].copy()   # s2-profile
    row[K] = 0.0
    col[K] = 0.0
    scale = max(np.max(np.abs(c)), 1e-30)
    if np.max(np.abs(row - col)) > 1e-10 * scale:
        raise ResowaveError("marginal profiles differ; no symmetric decomposition")
    a = 0.5 * (row + col)
    ct = c.copy()
    ct[:, K] = 0.0
    ct[K, :] = 0.0
    mtilde = BiperiodicMap(ct)
    freqs = np.arange(-K, K + 1, dtype=float)
    A = np.zeros_like(a)
    nz = freqs != 0
    A[nz] = a[nz] / (4.0j * freqs[nz])
    Mc = np.zeros_like(ct)
    kk, ll = np.meshgrid(freqs, freqs, indexing="ij")
    inner = (kk != 0) & (ll != 0)
    Mc[inner] = ct[inner] / (4.0 * (1j * kk[inner]) * (1j * ll[inner]))
    return DecomposedM(alpha=alpha, a=a, mtilde=mtilde, A=A, M=BiperiodicMap(Mc))


def _antidiagonal_sums(c):
    """D_nu = sum_{k+l=nu} c[k, l], centered output over nu in [-2K..2K]."""
    n = c.shape[0]
    K = n // 2
    out = np.zeros(4 * K + 1, dtype=complex)
    flipped = c[:, ::-1]
    for off in range(-2 * K, 2 * K + 1):
        out[2 * K + off] = np.trace(flipped, offset=-off)
    return out


def l_inv_quadratic_form(m):
    """int_Omega w L^-1 w for w = m(t+x, t-x), via the decomposition formula."""
    dec = decompose_m(m)
    K = dec.mtilde.K
    mt = dec.mtilde.c
    Mc = dec.M.c
    # intint M mtilde over T^2
    s1 = (2.0 * np.pi) ** 2 * np.sum(Mc * mt[::-1, ::-1]).real
    # diagonal restriction M(s, s): anti-diagonal sums
    D = _antidiagonal_sums(Mc)
    a_long = np.zeros(4 * K + 1, dtype=complex)
    a_long[K : 3 * K + 1] = dec.a
    s2 = 2.0 * np.pi * np.sum(D * a_long[::-1]).real
    d0 = D[2 * K].real
    s3 = 2.0 * np.pi * np.sum(dec.A * dec.A[::-1]).real
    return (
        -0.5 * s1
        + 2.0 * np.pi * s2
        + 2.0 * np.pi * dec.alpha * 2.0 * np.pi * d0
        - 8.0 * np.pi * s3
        - dec.alpha**2 * np.pi**4 / 6.0
    )


# ---------------------------------------------------------------------------
# rectangle-kernel oracle


def kernel_M_oracle(v, p):
    """(1/8) int_Omega M(t+x, t-x) v^p dt dx and the sampled minimum of M.

    M(s1, s2) is the integral of m over the rectangle [s1, s2 + 2pi] x [s2, s1];
    expanding m binomially makes it a sum of products of one-variable
    antiderivatives of eta powers, which are computed exactly from DFT
    coefficients (mean terms become linear parts).  The t-integral of the
    result is a full-period trapezoid (exact for the trig integrand); the
    x-integral uses Gauss-Legendre.

    The value equals -int v^p L^-1 v^p; the sampled minimum certifies M >= 0,
    the pointwise source of the positivity of that quadratic form.  Only even
    p is admitted: for odd p the power has resonant (diagonal) content and the
    rectangle kernel no longer represents the inverse.
    """
    if p % 2 != 0:
        raise ResowaveError("rectangle kernel oracle requires an even power")
    eta = _eta_from_kernel(v)
    deg = len(eta)
    D = p * deg
    n_nodes = 4 * D + 1
    _, vals = _eta_samples(eta, n_nodes)

    means = np.zeros(p + 1)
    per_coeffs = []          # complex DFT coefficients of the periodic parts
    for k in range(p + 1):
        spec = np.fft.fft(vals**k) / n_nodes
        means[k] = spec[0].real
        cent = np.zeros(2 * D + 1, dtype=complex)
        for nu in range(1, D + 1):
            cent[D + nu] = spec[nu] / (1j * nu)
            cent[D - nu] = spec[n_nodes - nu] / (-1j * nu)
        per_coeffs.append(cent)

    n_t = 4 * p * deg + 9
    n_x = max(96, 4 * p * deg)
    t = 2.0 * np.pi * np.arange(n_t) / n_t
    nodes, weights = np.polynomial.legendre.leggauss(n_x)
    x = 0.5 * np.pi * (nodes + 1.0)
    wx = 0.5 * np.pi * weights

    tt, xx = np.meshgrid(t, x, indexing="ij")
    s1 = (tt + xx).ravel()
    s2 = (tt - xx).ravel()
    freqs = np.arange(-D, D + 1)
    e1 = np.exp(1j * np.outer(s1, freqs))
    e2 = np.exp(1j * np.outer(s2, freqs))

    def per_at(k, e):
        return (e @ per_coeffs[k]).real

    M = np.zeros(s1.size)
    for k in range(p + 1):
        coef = math.comb(p, k) * (-1.0) ** (p - k)
        left = per_at(k, e2) - per_at(k, e1) + means[k] * (s2 + 2.0 * np.pi - s1)
        right = per_at(p - k, e1) - per_at(p - k, e2) + means[p - k] * (s1 - s2)
        M += coef * left * right

    j = np.arange(1, deg + 1)
    eta_s1 = np.sin(np.outer(s1, j)) @ eta
    eta_s2 = np.sin(np.outer(s2, j)) @ eta
    integrand = M * (eta_s1 - eta_s2) ** p
    grid = integrand.reshape(n_t, n_x)
    value = (2.0 * np.pi / n_t) * np.sum(grid @ wx) / 8.0
    return float(value), float(np.min(M))


# ---------------------------------------------------------------------------
# closed form for the quadratic leading power and the kappa ratio


def closed_form_qform_p2(v):
    """-int v^2 L^-1 v^2 in closed form through the primitives of eta.

    With P1' = eta and P2' = eta^2 - <eta^2>, both zero-mean:

        -int v^2 L^-1 v^2 = pi int_T P1^2 (eta^2 + <eta^2>)
                            + (pi/2) int_T P2^2 + (2 pi^4 / 3) <eta^2>^2.

    (The bracket times a^2/2 is the n2 leading term G for f = a u^2 + ...)
    """
    eta = _eta_from_kernel(v)
    deg = len(eta)
    n = 8 * deg + 9
    s, vals = _eta_samples(eta, n)
    j = np.arange(1, deg + 1)
    # P1: integrate the sine series termwise
    P1 = -np.cos(np.outer(s, j)) @ (eta / j)
    sq = vals**2
    mean_sq = float(np.mean(sq))
    spec = np.fft.fft(sq - mean_sq) / n
    P2 = np.zeros_like(s)
    for nu in range(1, 2 * deg + 1):
        P2 += 2.0 * (spec[nu] / (1j * nu) * np.exp(1j * nu * s)).real
    t1 = np.pi * 2.0 * np.pi * np.mean(P1**2 * (sq + mean_sq))
    t2 = 0.5 * np.pi * 2.0 * np.pi * np.mean(P2**2)
    t3 = 2.0 * np.pi**4 / 3.0 * mean_sq**2
    return t1 + t2 + t3


def eta_moments(v, orders):
    """<eta^k> for the requested orders, by exact full-period trapezoid."""
    eta = _eta_from_kernel(v)
    top = max(orders)
    n = top * len(eta) + 9
    _, vals = _eta_samples(eta, n)
    return {k: float(np.mean(vals**k)) for k in orders}


def power_integral_from_eta(v, k):
    """int_Omega v^k computed purely from eta moments (independent oracle).

    int v^k = 2 pi^2 sum_i C(k, i) (-1)^(k-i) <eta^i> <eta^(k-i)>.
    """
    mom = eta_moments(v, list(range(k + 1)))
    total = 0.0
    for i in range(k + 1):
        total += math.comb(k, i) * (-1.0) ** (k - i) * mom[i] * mom[k - i]
    return 2.0 * np.pi**2 * total


def kappa_ratio(v, p):
    """(int v^p)^2 / int v^{2p}; bounded by pi^2 for even p, approached by square waves."""
    num = power_integral_from_eta(v, p) ** 2
    den = power_integral_from_eta(v, 2 * p)
    if den == 0.0:
        raise ResowaveError("degenerate kernel vector for the kappa ratio")
    return num / den


def square_wave_vector(top):
    """Kernel vector whose eta is the degree-`top` square-wave partial sum."""
    xi = np.zeros(top)
    for j in range(1, top + 1, 2):
        xi[j - 1] = 8.0 / (np.pi * j)
    return xi
