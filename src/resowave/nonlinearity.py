"""Polynomial nonlinearities f(u) = sum_{k>=2} c_k u^k and their classification.

What drives the bifurcation analysis is the lowest-order term a u^p and the
position of the first odd-order term relative to 2p - 1:

  odd-power   p odd                       -> leading term alone decides
  n1          odd order d < 2p - 1        -> the odd term dominates
  n2          no odd order <= 2p - 1      -> second-order (quadratic in u^p)
  n3          first odd order == 2p - 1   -> boundary case, both compete

The effective homogeneity q of the reduced variational problem is p, d,
2p - 1, 2p - 1 respectively.
"""

import functools

import numpy as np
from dataclasses import dataclass

from .errors import ClassificationError

__all__ = ["NonlinearitySpec", "classify", "parse_coeff_string"]

CASES = ("odd-power", "n1", "n2", "n3")
# the highest term order accepted: the solver's product grids grow linearly
# with the order, and at this ceiling one product on the default 48-mode
# truncation already samples 8192 x 6148 nodes
MAX_ORDER = 64


@dataclass(frozen=True)
class NonlinearitySpec:
    """Classified polynomial nonlinearity.

    poly is the full ascending coefficient array [0, 0, c_2, c_3, ...], so
    numpy polynomial helpers consume it directly.  fprime and primitive are
    the ascending arrays of f'(u) and F(u) = int_0^u f, built once per spec
    and read-only, since every Jacobian and certificate reads them.
    """

    poly: np.ndarray
    p: int
    a: float
    case: str
    q: int
    d: int | None = None
    b: float | None = None

    @functools.cached_property
    def fprime(self):
        k = np.arange(1, len(self.poly))
        fprime = self.poly[1:] * k
        fprime.flags.writeable = False
        return fprime

    @functools.cached_property
    def primitive(self):
        k = np.arange(len(self.poly))
        primitive = np.concatenate([[0.0], self.poly / (k + 1.0)])
        primitive.flags.writeable = False
        return primitive

    def describe(self):
        terms = [
            f"{c:+g} u^{k}" for k, c in enumerate(self.poly) if c != 0.0
        ]
        head = " ".join(terms) if terms else "0"
        out = [f"f(u) = {head}", f"case {self.case}: p = {self.p}, a = {self.a:g}, q = {self.q}"]
        if self.d is not None:
            out.append(f"first odd order d = {self.d}, b = {self.b:g}")
        return "\n".join(out)


def classify(coeffs):
    """Build a NonlinearitySpec from {order: value} or an ascending array.

    Orders below 2 are rejected: the equation linearizes around u = 0 and a
    linear term would change the resonant part itself.  So are orders above
    MAX_ORDER, before any array is sized by them.
    """
    if isinstance(coeffs, dict):
        if not coeffs:
            raise ClassificationError("empty coefficient set")
        for k in coeffs:
            if int(k) != k or not 2 <= k <= MAX_ORDER:
                raise ClassificationError(
                    f"invalid term order {k} (need an integer in [2, {MAX_ORDER}])"
                )
        poly = np.zeros(int(max(coeffs)) + 1)
        for k, val in coeffs.items():
            poly[int(k)] = float(val)
    else:
        poly = np.asarray(coeffs, dtype=float)
        if poly.ndim != 1:
            raise ClassificationError("coefficient array must be 1-d")
        if len(poly) > MAX_ORDER + 1:
            raise ClassificationError(f"coefficient array beyond order {MAX_ORDER}")
        if len(poly) > 1 and np.any(poly[:2] != 0.0):
            raise ClassificationError("constant and linear terms must vanish")
        poly = poly.copy()
    nz = np.flatnonzero(poly != 0.0)
    if nz.size == 0:
        raise ClassificationError("identically zero nonlinearity")
    p = int(nz.min())
    a = float(poly[p])
    odd = [int(k) for k in nz if k % 2 == 1]
    d = min(odd) if odd else None
    if p % 2 == 1:
        case, q = "odd-power", p
        d_rec, b_rec = None, None
    elif d is not None and d < 2 * p - 1:
        case, q = "n1", d
        d_rec, b_rec = d, float(poly[d])
    elif d is not None and d == 2 * p - 1:
        case, q = "n3", 2 * p - 1
        d_rec, b_rec = d, float(poly[d])
    else:
        case, q = "n2", 2 * p - 1
        d_rec, b_rec = None, None
    poly.flags.writeable = False
    return NonlinearitySpec(poly=poly, p=p, a=a, case=case, q=q, d=d_rec, b=b_rec)


def parse_coeff_string(text):
    """Parse "3=1.0,5=-0.25" (also accepts ':' as separator) into {order: value}."""
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        for sep in ("=", ":"):
            if sep in part:
                k_str, v_str = part.split(sep, 1)
                break
        else:
            raise ClassificationError(f"cannot parse coefficient term {part!r}")
        try:
            k = int(k_str)
            v = float(v_str)
        except ValueError as exc:
            raise ClassificationError(f"cannot parse coefficient term {part!r}") from exc
        if k in out:
            raise ClassificationError(f"duplicate order {k}")
        out[k] = v
    if not out:
        raise ClassificationError("no coefficient terms given")
    return out
