"""Time-domain verification by direct integration of the wave equation.

This is the one check that shares no analytical machinery with the spectral
construction: a catalogued solution is handed to a sine-pseudospectral
integrator for u_tautau = u_xx - f(u) in physical time, and periodicity is
judged by the state distance after one full period 2 pi/omega.  A genuine
solution returns to its initial state; probing at a fraction of the period
gives the non-return contrast that shows the test has teeth.  Of fields it
uses only SpectralField, to rebuild a record.

In sine modes the linear flow turns each (a_j, b_j) by the angle j dt, so
the integrator is the impulse method (Strang splitting): a half kick by f at
the interior nodes x_k = pi k/(N+1), the exact rotation, a half kick.  It
has no CFL bound, and its error scales with the nonlinearity.  Its one
accuracy certificate is a step refinement: the method loses accuracy where
j dt is near a multiple of pi on an excited mode, so every run over a time
T is made at 2M steps, which are reported, and checked at M + 1 steps; the
distance between the two is the error bar.  A resonance j dt = m pi of the
reported run recurs in the check only for m >= (M+1)/2, at j >= pi M
(M+1)/T (2080 omega over one period at M = 64), so the bar sees the
resonances below.  M is at least 2, or the check would be the reported run.

The equation commutes with the reflection x -> pi - x, which maps sin(j x)
to (-1)^(j+1) sin(j x), so a state on the odd modes j stays there under
any f.  For an f with no even-order term the modes j in gZ span a class
too, since a product of an odd number of sines with frequencies in gZ has
its frequencies in gZ: a level-n record sits on j in nZ.  A run takes g as the gcd of its initial
state's excited modes (g = 1 for any other f), rounds its mode count N up
so that g divides N + 1, and integrates the N' = (N+1)/g - 1 modes j = g m.
In y = g x these are the sine modes m on the nodes pi k/(N'+1), which are
the full run's first N' nodes, so the class run is the full run restricted
to the class.  Inside it the reflection class, the odd m, halves the
modes and nodes again, so its two products per step are a quarter of the
class's.  The position is reported on every mode, zero off the class.
Each class is read off the initial state and f alone, by exact zeros,
never off a record's level or frame: it is a symmetry of the equation, not
the solver's law.  MAX_MODES bounds N': level 400 of u^3 + u^5/2 at omega
= 1 + 1e-8 runs on N' = 48 modes, where the full run would take 4 lx =
19200, above MAX_MODES.

The foreign-period miss of nonreturn_probe falls like n^-2 with the level:
the probe time 2 pi/((n+1) omega) falls short of the level's period 2 pi/(n
omega) by 1/(n+1) of it, so it turns the level's modes n k omega by 2 pi
k/(n+1) less than a period, and at a cosine peak the position moves to
second order in that angle, about 2 pi^2/n^2 for the leading mode.  The
record is not at fault.  record_field still builds the full (lt+1) x lx
field, which dominates the memory of a deep level: a 184 MB array at level
400.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import fields
from .errors import ConfigError, ResowaveError

__all__ = [
    "EvolutionResult",
    "initial_state",
    "time_grid",
    "probe_time",
    "integrate",
    "return_error",
    "nonreturn_probe",
]


# M per period of time_grid: the reported run takes 2M steps, the check M + 1
STEPS_PER_PERIOD = 64
# the integrator keeps MODE_FACTOR sine modes per column of the record, and
# at least MIN_MODES
MODE_FACTOR = 4
MIN_MODES = 32


@dataclass
class EvolutionResult:
    """The reported run's end position and its error bar.

    For the M of time_grid the reported run takes 2M steps of dt and the
    check M + 1 steps, so steps = 3M + 1.  a0 is the start both runs share,
    so a caller reads it here and does not sum the field again.
    """

    t_final: float
    dt: float                 # the step of the reported run
    steps: int                # steps taken by both runs
    n_modes: int
    a: np.ndarray             # sine coefficients of u at t_final
    error_bar: float          # relative L2 distance of the 2M- and (M+1)-step fields
    a0: np.ndarray            # sine coefficients of u at t = 0, on the n_modes modes


def initial_state(u, n_modes):
    """Sine coefficients of u at t = 0, its cosine rows summed; the velocity vanishes."""
    a = np.zeros(n_modes)
    cols = min(u.lx, n_modes)
    a[:cols] = u.coeffs[:, :cols].sum(axis=0)
    return a


# Up to this many integrated modes the sine transforms are products with a
# dense matrix, above it scipy.fft.dst calls on every mode.  On a 2-core x86
# host with OpenBLAS a pair of N x N products takes 3-80 us at N = 64..448
# against 19-178 us for a pair of transforms (which win at N = 383, 384),
# and from N = 480 on the transforms win (64 against 121 us at 480); from
# N = 767 on OpenBLAS runs the product on two threads.  A class of more
# than MAX_MODES modes g m is refused: a step takes 2.4 ms at 2^14 modes and
# 55 ms at 2^16, where records need MODE_FACTOR lx/g.
DENSE_MAX_MODES = 448
MAX_MODES = 2**14


def _modes(n_modes, parity):
    """The sine modes j of a class: those with j % 2 == parity, or all of
    1..n_modes when parity is None."""
    j = np.arange(1, n_modes + 1)
    return j if parity is None else j[j % 2 == parity]


def _sub_lattice(a0, f):
    """The g of the class j in gZ a run from (a0, 0) stays on: the gcd of
    a0's excited modes when f has no even-order term, else 1."""
    j = np.flatnonzero(a0) + 1
    if np.any(f.poly[::2]) or not j.size:
        return 1
    return int(np.gcd.reduce(j))


def _reflection_class(a):
    """1 when a run from the sine coefficients a stays on the odd modes, else None.

    It does under any f when every even-mode entry of a is zero.  Data on
    the even modes alone never reaches here: under an odd f they are the
    sub-lattice g = 2 (or coarser), and any other f moves them onto the odd
    ones.  None also when the class has more than DENSE_MAX_MODES modes,
    since the DSTs run on every mode, and for an odd mode count, whose
    middle node is its own mirror.
    """
    if a.size % 2 or a.size // 2 > DENSE_MAX_MODES or a[1::2].any():
        return None
    return 1


@functools.lru_cache(maxsize=8)
def _transforms(n_modes, parity=None):
    """(to_nodes, to_modes) of the class of parity, writing S a and (1/j) P v
    into their out array.

    S[k, j] = sin(pi k j/(N+1)) maps the sine coefficients of the modes j to
    the node values and P = 2/(N+1) S^T inverts it.  For even N, node N+1-k
    carries (-1)^(j+1) times the value at node k, and no node is its own
    mirror: a class integrates on its N/2 modes and the nodes k <= N/2,
    each of which stands for its mirror too, so its P is 4/(N+1) S^T.  The
    dense S is gathered from sin(pi m/(N+1)) at m = k j mod 2(N+1), so each
    entry is rounded once.  Only the pair of the class is built, cached per
    (N, parity) (a run and its check, and the records of a branch, share
    it), so S and P are read-only; eight pairs at DENSE_MAX_MODES hold 26 MB.
    """
    j = _modes(n_modes, parity)
    if j.size <= DENSE_MAX_MODES:
        period = 2 * n_modes + 2
        k = np.arange(1, j.size + 1)
        S = np.sin(np.arange(period) * (np.pi / (n_modes + 1)))[np.outer(k, j) % period]
        weight = 2.0 if parity is None else 4.0
        P = np.multiply(S.T, (weight / ((n_modes + 1) * j))[:, None], order="C")
        S.flags.writeable = P.flags.writeable = False
        return (lambda a, out: np.dot(S, a, out=out),
                lambda v, out: np.dot(P, v, out=out))
    scale = 1.0 / ((n_modes + 1) * j)
    return (lambda a, out: np.multiply(sfft.dst(a, type=1), 0.5, out=out),
            lambda v, out: np.multiply(sfft.dst(v, type=1), scale, out=out))


def time_grid(u, omega, t_final):
    """Mode count, step count and step (n_modes, M, dt) up to t_final.

    n_modes is the full run's, before _start rounds it to its class.  M is
    STEPS_PER_PERIOD per period, at least 2, and dt = t_final/M hits the
    final time exactly.  The reported run takes 2M steps of dt/2 and the
    check M + 1 steps of t_final/(M + 1).
    """
    n_modes = max(MIN_MODES, MODE_FACTOR * u.lx)
    steps = max(2, round(t_final * omega * STEPS_PER_PERIOD / (2.0 * np.pi)))
    return n_modes, steps, t_final / steps


def _start(u, f, n_modes):
    """The initial state a0 on n_modes rounded up to g (N'+1) - 1, and the
    class (g, parity) of its run.

    A class of more than MAX_MODES modes raises ConfigError; at g = 1 it is
    the full run.
    """
    a0 = initial_state(u, n_modes)
    g = _sub_lattice(a0, f)
    n_class = (n_modes + g) // g - 1
    if n_class > MAX_MODES:
        raise ConfigError(f"a field of {u.lx} sine columns needs {n_class} modes, "
                          f"above MAX_MODES = {MAX_MODES}")
    a0 = np.pad(a0, (0, g * (n_class + 1) - 1 - n_modes))
    return a0, g, _reflection_class(a0[g - 1 :: g])


def probe_time(omega, n):
    """The non-return probe time 2 pi/((n+1) omega) of a level-n solution."""
    return 2.0 * np.pi / ((n + 1) * omega)


def _impulse(a0, f, dt, steps, g, parity):
    """The position a after steps of the impulse method from (a0, 0) with
    step dt, integrated on the modes j = g m of the class (g, parity), where
    g divides a0.size + 1 and parity is m's.

    The state is z = a + i b/j, which the linear flow turns by exp(-i j dt).
    The two half kicks between rotations are one kick b -= dt P f(S a);
    the run starts with a half kick and ends on a rotation, since the
    closing half kick would move only the velocity, which is not returned.
    The class's N' modes m carry the full kick through the N' nodes they
    share with the full run, with 1/m for 1/j: a factor 1/g.
    """
    n_class = (a0.size + 1) // g - 1
    to_nodes, to_modes = _transforms(n_class, parity)
    j = g * _modes(n_class, parity)
    turn = np.exp(-1j * dt * j)
    # f(0) = 0, so f(p) = p (c_1 + p (c_2 + ... + p c_d)) by Horner, with
    # dt/g folded into the coefficients
    coeffs = np.trim_zeros(np.asarray(f.poly[1:], dtype=float), "b")
    top, *rest = dt / g * coeffs[::-1]
    z = a0[j - 1].astype(complex)
    zr, zi = z.real, z.imag
    p, fv, g = np.empty(j.size), np.empty(j.size), np.empty(j.size)

    def kick():
        to_nodes(zr, p)
        np.multiply(p, top, out=fv)
        for c in rest:              # a zero coefficient adds nothing
            if c:
                np.add(fv, c, out=fv)
            np.multiply(fv, p, out=fv)
        to_modes(fv, g)

    kick()
    zi -= 0.5 * g
    for _ in range(steps - 1):
        z *= turn
        kick()
        zi -= g
    z *= turn
    a = np.zeros(a0.size)
    a[j - 1] = zr
    return a


def integrate(u, omega, f, t_final):
    """The impulse method from the t = 0 slice of u up to physical time
    t_final, in the 2M steps of dt/2 and the M + 1 steps of time_grid's M.

    The 2M-step run's state is reported, and the relative L2 distance of
    the two runs' position fields is its error bar.  Both norms are sums of
    squares, as in _state_distance, not np.linalg.norm, whose BLAS dot wakes
    a second OpenBLAS thread on vectors of more than about 10^4 entries.
    """
    n_modes, steps, dt = time_grid(u, omega, t_final)
    a0, g, parity = _start(u, f, n_modes)
    a = _impulse(a0, f, 0.5 * dt, 2 * steps, g, parity)
    check = _impulse(a0, f, t_final / (steps + 1), steps + 1, g, parity)
    den = np.sqrt(np.sum(a0 * a0))
    d = a - check
    bar = float(np.sqrt(np.sum(d * d)) / den) if den else 0.0
    return EvolutionResult(
        t_final=float(t_final), dt=float(0.5 * dt), steps=3 * steps + 1,
        n_modes=a0.size, a=a, error_bar=bar, a0=a0,
    )


def _state_distance(a, a0):
    """Relative L2 distance of the position fields (Parseval, sine basis).

    The velocity is deliberately excluded: at a return time the modal phases
    sit at cosine peaks, so position errors cancel to second order in the
    per-mode phase error while velocity errors stay first order.  Position
    distance is the honest reading of "the solution returns"; the error bar
    is the integrator's certificate for it.
    """
    den = np.sum(a0**2)
    if den == 0.0:
        raise ResowaveError("empty initial state")
    return float(np.sqrt(np.sum((a - a0) ** 2) / den))


def return_error(u, omega, f):
    """Relative L2 distance to the initial field after one period 2 pi/omega,
    read off the run's own start: the field is summed once."""
    res = integrate(u, omega, f, 2.0 * np.pi / omega)
    return _state_distance(res.a, res.a0), res


def nonreturn_probe(u, omega, f, n):
    """State distance at the deliberately wrong time 2 pi/((n+1) omega), and
    the sine coefficients a of the position there.

    For a level-n solution this probe time is off the lattice of its minimal
    period, so the distance should be large; the ratio against the true
    return error is the contrast of the time-domain test.  Only integrate's
    reported run is made, with no check run, so the distance is integrate's
    to the bit.
    """
    n_modes, steps, dt = time_grid(u, omega, probe_time(omega, n))
    a0, g, parity = _start(u, f, n_modes)
    a = _impulse(a0, f, 0.5 * dt, 2 * steps, g, parity)
    return _state_distance(a, a0), a


def record_field(record):
    """The full field of a record: its frame field placed once, + 0.0 as embed(xi) + w adds."""
    u = np.zeros((record.lt + 1, record.lx))
    u[:: record.frame.n, record.frame.d - 1 :: record.frame.d] = record.U.coeffs + 0.0
    return fields.SpectralField(u)
