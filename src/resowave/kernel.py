"""The resonant kernel: diagonal modes cos(j t) sin(j x).

Every solution of the linearized problem at omega = 1 is a superposition of
travelling-wave pairs,

    v(t, x) = sum_j xi_j cos(j t) sin(j x) = eta(t + x) - eta(t - x),

with eta(s) = sum_j (xi_j / 2) sin(j s) odd and 2pi-periodic.  A KernelVector
stores xi.  The index-dilation map L_n sends xi_j to the (n j)-th slot; it
multiplies the H1 norm by exactly n and leaves the L2 norm unchanged, which is
the engine behind the multiplicity-in-n results downstream.
"""

import functools
import math

import numpy as np

from . import fields
from .errors import ResowaveError

__all__ = [
    "KernelVector",
    "embed",
    "eta_power_spectrum",
    "rescale",
    "normalize_sign",
    "minimal_time_period_index",
]

class KernelVector:
    """Coefficients xi_j, j = 1..len(xi), of a kernel element."""

    __slots__ = ("xi",)

    def __init__(self, xi):
        arr = np.array(xi, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ResowaveError("xi must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ResowaveError("non-finite kernel coefficient")
        arr.flags.writeable = False
        object.__setattr__(self, "xi", arr)

    def __setattr__(self, name, value):
        raise AttributeError("KernelVector is immutable")

    def __len__(self):
        return self.xi.size

    def __repr__(self):
        return f"KernelVector(dim={len(self)})"

    def h1(self):
        j = np.arange(1, len(self) + 1)
        return float(np.pi * np.sqrt(np.sum(j**2 * self.xi**2)))

    def l2(self):
        return float(np.pi / np.sqrt(2.0) * np.sqrt(np.sum(self.xi**2)))


def embed(v):
    """The kernel vector as a SpectralField on the diagonal l = j."""
    c = np.zeros((len(v) + 1, len(v)))
    np.fill_diagonal(c[1:], v.xi)
    return fields.SpectralField(c)


@functools.lru_cache(maxsize=64)
def _sine_table(dim, nodes):
    """sin(j s) at the nodes s = 2 pi i/nodes, shape (nodes, dim); cached, so read-only."""
    table = np.sin(np.outer(2.0 * np.pi * np.arange(nodes) / nodes, np.arange(1, dim + 1)))
    table.flags.writeable = False
    return table


def _powers(x, kmax):
    """x^i for i = 0..kmax on a new axis before the last, by running products.

    One multiplication per power and sample; the powers of a row of a stack
    are the powers of that row alone, bit for bit.
    """
    out = np.empty(x.shape[:-1] + (kmax + 1, x.shape[-1]), dtype=x.dtype)
    out[..., 0, :] = 1.0
    for i in range(1, kmax + 1):
        np.multiply(out[..., i - 1, :], x, out=out[..., i, :])
    return out


def eta_power_spectrum(v, kmax):
    """Means, sine and cosine coefficients of the powers of the profile eta.

    Returns (moments, sines, cosines): moments[i] = <eta^i> = (1/2pi) int
    eta^i, sines[i, j-1] = (1/2pi) int eta^i sin(j s) ds for i = 0..kmax and
    j = 1..dim, and cosines[i, m] = (1/2pi) int eta^i cos(m s) ds for i =
    0..kmax-1 and m = 0..2 dim.  eta^i sin(j s) is a trig polynomial of
    degree at most (kmax + 1) dim, so the trapezoid rule on one more node
    than that is exact; one rfft of the sampled powers gives every entry,
    the cosines past the rfft's last mode by the symmetry C_m = C_(nodes-m).
    v may be a coefficient stack (..., dim): each row is taken as it is alone.
    """
    xi = np.asarray(getattr(v, "xi", v), dtype=float)
    dim = xi.shape[-1]
    # at least 2 dim + 1 nodes, so that the rfft reaches j = dim
    nodes = (max(kmax, 1) + 1) * dim + 1
    eta = (_sine_table(dim, nodes) @ (xi / 2.0)[..., None])[..., 0]
    spec = np.fft.rfft(_powers(eta, kmax), axis=-1) / nodes
    m = np.arange(2 * dim + 1)
    cosines = spec[..., :kmax, np.minimum(m, nodes - m)].real
    return spec[..., 0].real, -spec[..., 1 : dim + 1].imag, cosines


def rescale(v, n):
    """Index dilation L_n: place xi_j at slot n j.  ||L_n v||_H1 = n ||v||_H1."""
    if n < 1 or int(n) != n:
        raise ResowaveError(f"dilation index must be a positive integer, got {n}")
    n = int(n)
    out = np.zeros(n * len(v))
    out[n - 1 :: n] = v.xi
    return KernelVector(out)


def normalize_sign(v):
    """Flip the overall sign so the first nonzero coefficient is positive.

    Solutions come in (v, -v) pairs; this fixes a deterministic representative.
    """
    for val in v.xi:
        if val != 0.0:
            return v if val > 0.0 else KernelVector(-v.xi)
    return v


def minimal_time_period_index(v):
    """gcd of the indices j with xi_j != 0: v is 2pi/n periodic in t with this n."""
    idx = np.flatnonzero(v.xi) + 1
    if idx.size == 0:
        raise ResowaveError("zero kernel vector has no minimal period")
    return math.gcd(*idx.tolist())
