"""Spectral fields on the half-cylinder (t, x) in [0, 2pi) x [0, pi].

A field is a truncated double series

    u(t, x) = sum_{l=0}^{Lt} sum_{j=1}^{Lx} u_{lj} cos(l t) sin(j x),

the natural basis for functions that are even and 2pi-periodic in time and
satisfy Dirichlet conditions at x = 0, pi.  Coefficients are stored as a dense
(Lt+1, Lx) array, row l, column j-1.

Transforms are exact on their stated degree class: the time direction uses the
real FFT on a uniform full-period grid, the space direction the type-I discrete
sine transform on interior nodes x_k = pi k/(Nx+1).  Products of fields (needed
for polynomial nonlinearities) leave the sine class -- even powers pick up
cosine content in x whose sine-basis expansion is an infinite series -- so
`apply_nonlinearity` samples the odd extension on a full 2pi torus in x,
recovers the exact cos/sin torus coefficients by FFT, and projects them back
onto the sine basis in closed form.  The coefficients it returns are the true
L2 projections, with no aliasing, for any polynomial nonlinearity.
"""

import numpy as np
from dataclasses import dataclass
from scipy import fft as sfft

from .errors import ResowaveError

__all__ = [
    "SpectralField",
    "PhysicalGrid",
    "NormBundle",
    "zeros",
    "from_modes",
    "synthesize",
    "analyze",
    "eval_field",
    "norms",
    "sup_norm",
    "inner_h1",
    "inner_l2",
    "diagonal_of",
    "zero_diagonal",
    "apply_nonlinearity",
    "integrate_poly",
    "multiply_poly_matrix",
    "temporal_weights",
]


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


class SpectralField:
    """Immutable coefficient table u_{lj} for cos(l t) sin(j x)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=float, copy=True, order="C")
        if arr.ndim != 2:
            raise ResowaveError(f"coefficient array must be 2-d, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ResowaveError("need at least one spatial mode (Lx >= 1)")
        if not np.all(np.isfinite(arr)):
            raise ResowaveError("non-finite coefficient")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralField is immutable")

    @property
    def lt(self):
        return self.coeffs.shape[0] - 1

    @property
    def lx(self):
        return self.coeffs.shape[1]

    def padded(self, lt, lx):
        """Coefficients zero-extended to shape (lt+1, lx)."""
        if lt < self.lt or lx < self.lx:
            raise ResowaveError("padding must not truncate")
        out = np.zeros((lt + 1, lx))
        out[: self.lt + 1, : self.lx] = self.coeffs
        return out

    def __add__(self, other):
        lt = max(self.lt, other.lt)
        lx = max(self.lx, other.lx)
        return SpectralField(self.padded(lt, lx) + other.padded(lt, lx))

    def __sub__(self, other):
        lt = max(self.lt, other.lt)
        lx = max(self.lx, other.lx)
        return SpectralField(self.padded(lt, lx) - other.padded(lt, lx))

    def __mul__(self, scalar):
        return SpectralField(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(-self.coeffs)

    def __repr__(self):
        return f"SpectralField(lt={self.lt}, lx={self.lx})"


def zeros(lt, lx):
    return SpectralField(np.zeros((lt + 1, lx)))


def from_modes(modes, lt=None, lx=None):
    """Build a field from {(l, j): value} entries."""
    mlt = max(l for l, _ in modes)
    mlx = max(j for _, j in modes)
    lt = max(mlt, 1) if lt is None else lt
    lx = mlx if lx is None else lx
    c = np.zeros((lt + 1, lx))
    for (l, j), val in modes.items():
        if l < 0 or j < 1:
            raise ResowaveError(f"invalid mode (l={l}, j={j})")
        c[l, j - 1] = val
    return SpectralField(c)


def temporal_weights(lt):
    """Parseval weights c_l: 2 for the constant-in-t row, 1 above."""
    c = np.ones(lt + 1)
    c[0] = 2.0
    return c


# ---------------------------------------------------------------------------
# grids and transforms


@dataclass(frozen=True)
class PhysicalGrid:
    """Uniform t-grid over [0, 2pi) and interior sine-collocation x-grid.

    Exactness contract: synthesize/analyze round-trip is the identity for
    fields with lt <= deg_t and lx <= deg_x where deg_t = (nt-1)//2 and
    deg_x = nx.
    """

    nt: int
    nx: int

    def __post_init__(self):
        if self.nt < 2 or self.nx < 1:
            raise ResowaveError(f"degenerate grid ({self.nt}, {self.nx})")

    @classmethod
    def for_degree(cls, deg_t, deg_x):
        return cls(nt=_next_pow2(2 * max(deg_t, 1) + 1), nx=max(deg_x, 1))

    @property
    def t(self):
        return 2.0 * np.pi * np.arange(self.nt) / self.nt

    @property
    def x(self):
        return np.pi * np.arange(1, self.nx + 1) / (self.nx + 1)

    @property
    def deg_t(self):
        return (self.nt - 1) // 2

    @property
    def deg_x(self):
        return self.nx


def synthesize(u, grid):
    """Sample u on the grid; exact (it is a finite trig polynomial)."""
    if u.lt > grid.deg_t or u.lx > grid.deg_x:
        raise ResowaveError(
            f"grid ({grid.nt},{grid.nx}) does not resolve field (lt={u.lt}, lx={u.lx})"
        )
    nt, nx = grid.nt, grid.nx
    spec = np.zeros((nt // 2 + 1, u.lx), dtype=complex)
    spec[0] = u.coeffs[0] * nt
    spec[1 : u.lt + 1] = u.coeffs[1:] * (nt / 2.0)
    vals_t = sfft.irfft(spec, n=nt, axis=0)  # (nt, lx)
    padded = np.zeros((nt, nx))
    padded[:, : u.lx] = vals_t
    # DST-I synthesis: values(x_k) = sum_j s_j sin(pi j k/(nx+1)) = dst(s)/2
    return sfft.dst(padded, type=1, axis=1) / 2.0


def analyze(values, grid):
    """Recover coefficients from samples of a resolved field (inverse of synthesize)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.nt, grid.nx):
        raise ResowaveError(
            f"sample array shape {values.shape} does not match grid ({grid.nt},{grid.nx})"
        )
    s = sfft.dst(values, type=1, axis=1) / (grid.nx + 1.0)
    spec = sfft.rfft(s, axis=0)
    lt = grid.deg_t
    coeffs = np.empty((lt + 1, grid.nx))
    coeffs[0] = spec[0].real / grid.nt
    coeffs[1:] = 2.0 * spec[1 : lt + 1].real / grid.nt
    return SpectralField(coeffs)


def eval_field(u, t, x):
    """Dense evaluation at arbitrary points; t and x broadcast as an outer grid."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ls = np.arange(u.lt + 1)
    js = np.arange(1, u.lx + 1)
    ct = np.cos(np.outer(t, ls))          # (nt, lt+1)
    sx = np.sin(np.outer(js, x))          # (lx, nx)
    return ct @ u.coeffs @ sx


# ---------------------------------------------------------------------------
# norms, inner products, projections


@dataclass(frozen=True)
class NormBundle:
    h1: float
    l2: float
    sup: float
    omega: float


def inner_h1(u, v):
    lt = max(u.lt, v.lt)
    lx = max(u.lx, v.lx)
    a = u.padded(lt, lx)
    b = v.padded(lt, lx)
    cl = temporal_weights(lt)[:, None]
    wj = np.arange(1, lx + 1)[None, :] ** 2 + np.arange(lt + 1)[:, None] ** 2
    return 0.5 * np.pi**2 * float(np.sum(cl * a * b * wj))


def inner_l2(u, v):
    lt = max(u.lt, v.lt)
    lx = max(u.lx, v.lx)
    a = u.padded(lt, lx)
    b = v.padded(lt, lx)
    cl = temporal_weights(lt)[:, None]
    return 0.5 * np.pi**2 * float(np.sum(cl * a * b))


def sup_norm(u, oversample=2):
    """Max |u| over an oversampled grid (a certified lower bound of the true sup).

    The grid density is at least `oversample` times the Nyquist rate, with a
    floor so small fields are still sampled finely; nx is kept odd so the
    midline x = pi/2 (where single-mode fields peak) is always a node.
    """
    nt = max(_next_pow2(2 * oversample * max(u.lt, 1) + 1), 128)
    nx = max(2 * oversample * u.lx + 1, 127)
    grid = PhysicalGrid(nt=nt, nx=nx)
    return float(np.max(np.abs(synthesize(u, grid))))


def norms(u, omega=1.0):
    h1 = np.sqrt(inner_h1(u, u))
    l2 = np.sqrt(inner_l2(u, u))
    sup = sup_norm(u)
    return NormBundle(h1=h1, l2=l2, sup=sup, omega=sup + np.sqrt(abs(omega - 1.0)) * h1)


def diagonal_of(u):
    """Coefficients u_{jj}, j = 1..min(lt, lx)."""
    m = min(u.lt, u.lx)
    if m < 1:
        return np.zeros(0)
    return np.array([u.coeffs[j, j - 1] for j in range(1, m + 1)])


def zero_diagonal(u):
    """Copy of u with the resonant diagonal u_{jj} pinned to zero."""
    c = u.coeffs.copy()
    for j in range(1, min(u.lt, u.lx) + 1):
        c[j, j - 1] = 0.0
    return SpectralField(c)


# ---------------------------------------------------------------------------
# polynomial nonlinearities, exact projection


def _poly_degree(poly):
    poly = np.asarray(poly, dtype=float)
    nz = np.flatnonzero(poly != 0.0)
    if nz.size == 0:
        return 0
    return int(nz.max())


def _torus_x_values(u, nt, mx):
    """Sample u on nt x (2 mx + 2) nodes: full period in t, full torus in x.

    The x nodes are pi k/(mx+1), k = 0..2mx+1: the mx interior sine nodes, the
    two boundary zeros, and the odd-extension mirror.  Since u is a sine series
    in x, the extension costs nothing.
    """
    spec = np.zeros((nt // 2 + 1, u.lx), dtype=complex)
    spec[0] = u.coeffs[0] * nt
    spec[1 : u.lt + 1] = u.coeffs[1:] * (nt / 2.0)
    vals_t = sfft.irfft(spec, n=nt, axis=0)           # (nt, lx)
    interior = np.zeros((nt, mx))
    interior[:, : u.lx] = vals_t
    interior = sfft.dst(interior, type=1, axis=1) / 2.0   # values at interior nodes
    full = np.zeros((nt, 2 * mx + 2))
    full[:, 1 : mx + 1] = interior
    full[:, mx + 2 :] = -interior[:, ::-1]
    return full


def _torus_cos_sin(u, poly, d_t, d_x):
    """Exact torus coefficients A (cos in x) and B (sin in x) of poly(u).

    poly(u) = sum_l cos(l t) [ sum_mu A[l,mu] cos(mu x) + B[l,mu] sin(mu x) ],
    rows l = 0..d_t, columns mu = 0..d_x (B[:,0] is identically zero).
    """
    nt = _next_pow2(2 * max(d_t, u.lt, 1) + 1)
    mx = max(d_x, u.lx, 1) + 1                # interior node count, torus 2mx+2
    vals = _torus_x_values(u, nt, mx)
    w = np.polynomial.polynomial.polyval(vals, np.asarray(poly, dtype=float))
    return _cos_sin_coeffs(w, d_t, d_x)


def _cos_sin_coeffs(vals, d_t, d_x):
    """Torus samples -> cos/sin coefficients A, B, rows 0..d_t, columns 0..d_x."""
    # time direction: even in t, cosine rows are the real part of the rfft
    nt = vals.shape[0]
    spec_t = sfft.rfft(vals, axis=0)
    rows = np.empty((d_t + 1, vals.shape[1]))
    rows[0] = spec_t[0].real / nt
    rows[1:] = 2.0 * spec_t[1 : d_t + 1].real / nt
    # space direction: full complex FFT over the 2pi torus
    ncol = vals.shape[1]
    spec_x = sfft.fft(rows, axis=1) / ncol
    A = np.empty((d_t + 1, d_x + 1))
    B = np.zeros((d_t + 1, d_x + 1))
    A[:, 0] = spec_x[:, 0].real
    A[:, 1:] = 2.0 * spec_x[:, 1 : d_x + 1].real
    B[:, 1:] = -2.0 * spec_x[:, 1 : d_x + 1].imag
    return A, B


def _half_projection_matrix(d_x, out_lx):
    """K[mu, j-1] with b_j = B_j + sum_mu A_mu K[mu, j-1].

    From int_0^pi cos(mu x) sin(j x) dx = 2 j/(j^2 - mu^2) when mu + j is odd
    (zero otherwise), so the sine-basis coefficient of cos(mu x) is
    (2/pi) * 2 j/(j^2 - mu^2).
    """
    mu = np.arange(d_x + 1)[:, None]
    j = np.arange(1, out_lx + 1)[None, :]
    odd = (mu + j) % 2 == 1
    K = np.zeros((d_x + 1, out_lx))
    np.divide(4.0 * j / np.pi, (j**2 - mu**2), out=K, where=odd)
    K[~odd] = 0.0
    return K


def apply_nonlinearity(u, poly, out_lt=None, out_lx=None):
    """Exact sine-basis coefficients of poly(u) up to (out_lt, out_lx).

    poly is the ascending coefficient array [c0, c1, c2, ...] of a real
    polynomial.  The returned coefficients equal the true L2 projections of
    poly(u) onto cos(l t) sin(j x); the time direction is finite and exact,
    the space direction is the exact half-interval projection of the torus
    expansion (even powers of u generate cosine content in x whose sine
    series is infinite; requesting out_lx selects how much of it to keep).
    """
    r = _poly_degree(poly)
    d_t = r * u.lt
    d_x = r * u.lx
    if out_lt is None:
        out_lt = d_t
    if out_lx is None:
        out_lx = d_x
    A, B = _torus_cos_sin(u, poly, d_t, max(d_x, out_lx))
    return _sine_projection(A, B, d_t, out_lt, out_lx)


def _sine_projection(A, B, d_t, out_lt, out_lx):
    """Exact sine-basis field up to (out_lt, out_lx) from torus coefficients."""
    K = _half_projection_matrix(A.shape[1] - 1, out_lx)
    b = B[:, 1 : out_lx + 1] + A @ K
    coeffs = np.zeros((max(out_lt, 1) + 1, out_lx))
    keep = min(out_lt, d_t) + 1
    coeffs[:keep] = b[:keep]
    return SpectralField(coeffs)


def integrate_poly(u, poly):
    """Exact integral of poly(u) over the domain [0,2pi) x (0,pi)."""
    r = _poly_degree(poly)
    A, B = _torus_cos_sin(u, poly, max(r * u.lt, 1), max(r * u.lx, 1))
    mu = np.arange(A.shape[1])
    odd = mu % 2 == 1
    val = np.pi * A[0, 0]
    val += 2.0 * np.sum(B[0, odd] / mu[odd])
    return 2.0 * np.pi * float(val)


def integrate_x_poly(a, poly):
    """Exact integral over (0, pi) of poly(g) for the sine series g = sum a_j sin(jx).

    Works on a single spatial slice: sample the odd extension on a full-torus
    grid fine enough for the composed degree, read off the cos/sin
    coefficients, and use int cos(mu x) = 0, int sin(mu x) = 2/mu (odd mu).
    """
    a = np.asarray(a, dtype=float)
    r = _poly_degree(poly)
    deg = max(r * a.size, 1)
    n = _next_pow2(2 * deg + 1)
    x = 2.0 * np.pi * np.arange(n) / n
    j = np.arange(1, a.size + 1)
    g = np.sin(np.outer(x, j)) @ a if a.size else np.zeros(n)
    vals = np.polynomial.polynomial.polyval(g, np.asarray(poly, dtype=float))
    spec = sfft.rfft(vals) / n
    top = min(deg, n // 2)
    val = np.pi * spec[0].real
    mu = np.arange(1, top + 1)
    B = -2.0 * spec[1 : top + 1].imag
    odd = mu % 2 == 1
    val += 2.0 * float(np.sum(B[odd] / mu[odd]))
    return float(val)


def multiply_poly_project(u, poly, z, out_lt=None, out_lx=None):
    """Exact projection of poly(u) * z without truncating poly(u) first.

    poly(u) leaves the sine class, so projecting it and then multiplying would
    lose the tail; sampling poly(u) and z on a common dealiased grid keeps the
    product projection exact.
    """
    r = _poly_degree(poly)
    d_t = r * u.lt + z.lt
    d_x = r * u.lx + z.lx
    if out_lt is None:
        out_lt = d_t
    if out_lx is None:
        out_lx = d_x
    nt = _next_pow2(2 * max(d_t, 1) + 1)
    mx = max(d_x, out_lx, 1) + 1
    vals_u = _torus_x_values(u, nt, mx)
    vals = np.polynomial.polynomial.polyval(vals_u, np.asarray(poly, dtype=float))
    vals *= _torus_x_values(z, nt, mx)
    A, B = _cos_sin_coeffs(vals, d_t, mx)
    return _sine_projection(A, B, d_t, out_lt, out_lx)


def multiply_poly_matrix(u, poly, lt, lx, n=1):
    """Dense matrix of z -> P_{lt,lx}[poly(u) z] on the temporal sublattice nZ.

    Rows and columns index the entries (l, j) of the (lt+1, lx) truncation with
    l = 0, n, 2n, ... <= lt, flattened as (l/n) lx + j - 1; column by column
    this is the exact projection multiply_poly_project computes.  Writing
    poly(u) = sum_r cos(r t) sum_mu [A cos(mu x) + B sin(mu x)] and halving
    every index above zero (A^_0 = A_0, A^_r = A_r/2), the time direction
    couples l, l' through A^_{|l-l'|} + A^_{l+l'} (the second term only for
    l >= 1), and the cosine part in x through A^_{|j-j'|} - A^_{j+j'}.  The
    sine part turns sin(j' x) into cosine content, projected with
    _half_projection_matrix; it vanishes unless poly has an odd-degree term,
    because u is odd in x.  The matrix is returned in Fortran order so that
    an LU factorization can overwrite it without a copy.
    """
    poly = np.asarray(poly, dtype=float)
    r = _poly_degree(poly)
    # resolve the full degree of poly(u), not only the rows and columns used,
    # so that no higher harmonic aliases onto them
    d_x = max(2 * lx, r * u.lx)
    A, B = _torus_cos_sin(u, poly, max(2 * lt, r * u.lt), d_x)
    m = lt // n + 1
    rows = n * np.arange(2 * m - 1)       # every |l - l'| and l + l' on nZ
    half_t = np.where(rows == 0, 1.0, 0.5)[:, None]
    Ah = A[rows] * half_t
    Ah[:, 1:] *= 0.5
    j = np.arange(1, lx + 1)
    diff = np.abs(j[:, None] - j[None, :])
    X = Ah[:, diff] - Ah[:, j[:, None] + j[None, :]]     # X[k, j-1, j'-1]
    if np.any(poly[1::2] != 0.0):
        K = _half_projection_matrix(d_x + lx, lx)
        mu = np.arange(d_x + 1)[:, None]
        Kd = 0.5 * (K[np.abs(mu - j[None, :])] - K[mu + j[None, :]])  # [mu, j'-1, j-1]
        Y = (B[rows] * half_t) @ Kd.reshape(d_x + 1, lx * lx)
        X += Y.reshape(-1, lx, lx).transpose(0, 2, 1)
    out = np.empty((m * lx, m * lx), order="F")
    for a in range(m):
        for b in range(m):
            blk = X[abs(a - b)] + X[a + b] if a else X[b]
            out[a * lx : (a + 1) * lx, b * lx : (b + 1) * lx] = blk
    return out
