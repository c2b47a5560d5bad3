"""Frequency admissibility: small divisors and the strongly non-resonant set.

The rescaled problem divides by omega^2 l^2 - j^2 for every off-diagonal mode,
so a usable frequency must keep |omega l - j| >= gamma / l for all l != j.  On
a finite temporal truncation L the sharp constant is

    gamma^(L) = min_{1 <= l <= L} l * min_{j >= 1, j != l} |omega l - j|,

computed here exactly.  Rational omega hit resonances (omega = 3/2 dies at
l = 2, j = 3); near omega = 1 the truncated gamma approaches 1, which is what
makes many dilation indices n admissible simultaneously.
"""

import numpy as np
from dataclasses import dataclass

from .errors import ResowaveError

__all__ = [
    "FrequencyContext",
    "AdmissibilityReport",
    "make_context",
    "truncated_gamma",
    "minimal_n",
    "both_sides_threshold",
    "side_required",
    "admissible",
    "max_admissible_n",
    "scan_frequencies",
    "omega_for_eps",
]

OMEGA_RANGE = (0.5, 1.5)
DEFAULT_C = 0.05
# the largest temporal truncation L: gamma^(L) costs one pass over L rows, and
# the widest branch documented (omega = 1 + 1e-7, 199 levels) uses L = 3200
MAX_L = 2**16
# the most frequencies one scan grid may hold, counted from its bounds before
# numpy is asked for them (a step of 1e-12 over the README window is 9e9)
MAX_SCAN_ROWS = 10**4


@dataclass(frozen=True)
class FrequencyContext:
    omega: float
    eps: float      # (omega^2 - 1)/2
    gamma: float    # truncated non-resonance constant gamma^(L)
    L: int          # temporal truncation gamma was computed for


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    bound: float          # the smallness quantity compared against C
    n_min: int
    notes: tuple = ()


def truncated_gamma(omega, L):
    """Exact gamma^(L); zero signals a resonance inside the truncation.

    The nearest j to omega l is among floor(omega l) - 1 .. floor(omega l) + 2,
    whichever of them are >= 1 and != l; all L rows are read in one pass.
    """
    if not 1 <= L <= MAX_L:
        raise ResowaveError(f"temporal truncation must be in [1, MAX_L = {MAX_L}], got {L}")
    l = np.arange(1, L + 1)
    target = omega * l
    j = np.floor(target)[:, None] + np.arange(-1.0, 3.0)
    gaps = np.where((j >= 1) & (j != l[:, None]), np.abs(target[:, None] - j), np.inf)
    return float(np.min(l * gaps.min(axis=1)))


def make_context(omega, L):
    lo, hi = OMEGA_RANGE
    if not (lo <= omega <= hi):
        raise ResowaveError(f"omega = {omega} outside [{lo}, {hi}]")
    eps = 0.5 * (omega**2 - 1.0)
    return FrequencyContext(omega=float(omega), eps=eps, gamma=truncated_gamma(omega, L), L=int(L))


def omega_for_eps(eps):
    """The frequency with exactly this eps = (omega^2 - 1)/2."""
    if eps <= -0.5:
        raise ResowaveError("eps <= -1/2 has no real frequency")
    return float(np.sqrt(1.0 + 2.0 * eps))


def _bound_exponent(f):
    """The bound is (|omega - 1| n^2)^e / gamma with this e."""
    if f.case == "odd-power":
        return 1.0
    if f.case == "n1":
        return (f.p - 1.0) / (f.d - 1.0)
    return 0.5


def minimal_n(f):
    """Smallest dilation index the existence argument covers for this case."""
    if f.case in ("odd-power", "n1"):
        return 1
    return 1 if f.p == 2 else 2


def both_sides_threshold(f):
    """p pi^2 a^2 / 24: below it an n3 case with b > 0 also bifurcates to omega < 1."""
    return f.p * np.pi**2 * (f.a * f.a) / 24.0


def side_required(f):
    """Which side of omega = 1 the case bifurcates to ("either" when both)."""
    if f.case == "odd-power":
        return "omega>1" if f.a > 0 else "omega<1"
    if f.case == "n1":
        return "omega>1" if f.b > 0 else "omega<1"
    if f.case == "n2":
        return "omega<1"
    # n3: b < 0 forces omega < 1; b > 0 always admits omega > 1 and, below
    # the kappa(p) = pi^2 threshold, omega < 1 as well.
    if f.b < 0:
        return "omega<1"
    if f.b < both_sides_threshold(f):
        return "either"
    return "omega>1"


def admissible(ctx, n, f, C=DEFAULT_C):
    """Can the dilation index n be used at this frequency for this f?"""
    if n < 1 or int(n) != n:
        raise ResowaveError(f"dilation index must be a positive integer, got {n}")
    if not (np.isfinite(C) and C > 0.0):
        raise ResowaveError(f"smallness constant must be finite and positive, got C = {C}")
    n = int(n)
    notes = []
    side_req = side_required(f)
    if ctx.omega > 1.0:
        side_ok = side_req in ("omega>1", "either")
    elif ctx.omega < 1.0:
        side_ok = side_req in ("omega<1", "either")
    else:
        side_ok = False
        notes.append("omega = 1 excluded (degenerate eps = 0)")
    if ctx.omega != 1.0 and not side_ok:
        notes.append(f"case {f.case} bifurcates to {side_req}")
    e = _bound_exponent(f)
    n_min = minimal_n(f)
    if ctx.gamma > 0.0:
        bound = (abs(ctx.omega - 1.0) * n**2) ** e / ctx.gamma
    else:
        bound = np.inf
        notes.append("resonant frequency (gamma = 0)")
    if n < n_min:
        notes.append(f"n below the minimal index {n_min} for case {f.case}")
    # boundary-inclusive with a few ulps of slack, so exact-threshold examples
    # like |omega - 1| = 1/100, C = gamma = 1, n = 10 do not fail to rounding
    ok = side_ok and ctx.gamma > 0.0 and n >= n_min and bound <= C * (1.0 + 1e-12)
    return AdmissibilityReport(ok=ok, bound=float(bound), n_min=n_min, notes=tuple(notes))


def max_admissible_n(ctx, f, C=DEFAULT_C):
    """Largest admissible n (0 if none); the bound is monotone in n.

    The closed-form estimate has the bound C exactly, and about 1e-16 more
    in floats, inside the slack C (1 + 1e-12) of admissible: so once n_min
    is admissible, so is the estimate, and the cap walks up from it.  A C
    so large that the estimate overflows a float raises ResowaveError.
    """
    n_min = minimal_n(f)
    if not admissible(ctx, n_min, f, C).ok:
        return 0
    e = _bound_exponent(f)
    try:
        estimate = int(np.floor(np.sqrt((C * ctx.gamma) ** (1.0 / e) / abs(ctx.omega - 1.0))))
    except OverflowError as exc:
        raise ResowaveError(f"the level cap for C = {C} overflows") from exc
    n_cap = max(n_min, estimate)
    while admissible(ctx, n_cap + 1, f, C).ok:
        n_cap += 1
    return n_cap


def scan_frequencies(omega_lo, omega_hi, step, L, f, C=DEFAULT_C):
    """Admissibility survey over a frequency grid; rows sorted by omega.

    Each row is a dict of the context "ctx" and the largest admissible
    index "n_max": every n from
    minimal_n(f) to n_max is admissible, and n_max is 0 at omega = 1 and at
    resonant frequencies.  Grid points outside OMEGA_RANGE get no row; a
    reversed window, or a grid with no point in OMEGA_RANGE, raises.
    """
    if not np.all(np.isfinite([omega_lo, omega_hi, step])):
        raise ResowaveError("grid bounds and step must be finite")
    if step <= 0:
        raise ResowaveError("step must be positive")
    if omega_lo > omega_hi:
        raise ResowaveError(f"the window [{omega_lo}, {omega_hi}] is reversed")
    if (omega_hi - omega_lo) / step + 0.5 > MAX_SCAN_ROWS:
        raise ResowaveError(f"a step of {step} over [{omega_lo}, {omega_hi}] makes more "
                            f"than MAX_SCAN_ROWS = {MAX_SCAN_ROWS} frequencies")
    lo, hi = OMEGA_RANGE
    omegas = np.arange(omega_lo, omega_hi + 0.5 * step, step)
    omegas = omegas[(lo <= omegas) & (omegas <= hi)]
    if not omegas.size:
        raise ResowaveError(f"no frequency of the grid over [{omega_lo}, {omega_hi}] "
                            f"lies in OMEGA_RANGE = [{lo}, {hi}]")
    ctxs = [make_context(float(om), L) for om in omegas]
    return [{"ctx": ctx, "n_max": max_admissible_n(ctx, f, C)} for ctx in ctxs]
