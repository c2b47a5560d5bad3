"""Time-domain verification by direct integration of the wave equation.

This is the one check that shares no analytical machinery with the spectral
construction: a catalogued solution is handed to a sine-pseudospectral
integrator for u_tautau = u_xx - f(u) in physical time, and periodicity is
judged by the state distance after one full period 2 pi/omega.  A genuine
solution returns to its initial state; probing at a fraction of the period
gives the non-return contrast that shows the test has teeth.

In sine modes the linear flow turns each (a_j, b_j) by the angle j dt, so
the integrator is the impulse method (Strang splitting): a half kick by f at
the interior nodes x_k = pi k/(N+1), the exact rotation, a half kick.  It
has no CFL bound, and its error scales with the nonlinearity.  It loses
accuracy where j dt is near a multiple of pi on an excited mode, so every
run is made at N and 2N steps: the 2N state is reported, and the distance
between the two is the error bar.  A mode with j dt = 2 pi on the N grid is
resonant on both and can escape the bar; at the default N = 64 per period
that is j ~ 64 omega, which a record of odd f excites only from level 64 on.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import fields, kernel
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


# the energies the drift compares: the start, ENERGY_PROBES - 2 interior
# steps of the reported run (_probe_steps) and its last step
ENERGY_PROBES = 9
# the self-check's N; the reported run takes 2N
STEPS_PER_PERIOD = 64
# the integrator keeps MODE_FACTOR sine modes per column of the record, and
# at least MIN_MODES
MODE_FACTOR = 4
MIN_MODES = 32


@dataclass
class EvolutionResult:
    t_final: float
    dt: float                 # the step of the reported run
    steps: int                # steps taken: N of the self-check and 2N reported
    n_modes: int
    a: np.ndarray             # sine coefficients of u at t_final
    b: np.ndarray             # sine coefficients of u_tau at t_final
    energy_drift: float
    error_bar: float          # relative L2 distance of the N- and 2N-step fields


def initial_state(u, n_modes):
    """State (a, b) at t = 0: cosine rows sum to a, the velocity vanishes."""
    a = np.zeros(n_modes)
    cols = min(u.lx, n_modes)
    a[:cols] = u.coeffs[:, :cols].sum(axis=0)
    return a, np.zeros(n_modes)


# Up to this many modes the sine transforms are products with a dense N x N
# matrix, above it scipy.fft.dst calls.  On a 2-core x86 host with OpenBLAS
# a pair of products takes 3-80 us at N = 64..448 against 19-178 us for a
# pair of transforms (which win at N = 383, 384), and from N = 480 on the
# transforms win (64 against 121 us at 480); from N = 767 on OpenBLAS runs
# the product on two threads.  More than MAX_MODES are refused: a step takes
# 2.4 ms at 2^14 modes and 55 ms at 2^16, where records need MODE_FACTOR lx.
DENSE_MAX_MODES = 448
MAX_MODES = 2**14


def _transforms(n_modes):
    """(to_nodes, to_modes), writing S a and (1/j) P v into their out array.

    S[k, j] = sin(pi k j/(N+1)) maps sine coefficients to the node values and
    P = 2/(N+1) S inverts it.  The dense S is gathered from sin(pi m/(N+1))
    at m = k j mod 2(N+1), so each entry is rounded once.
    """
    j = np.arange(1, n_modes + 1)
    if n_modes <= DENSE_MAX_MODES:
        period = 2 * n_modes + 2
        S = np.sin(np.arange(period) * (np.pi / (n_modes + 1)))[np.outer(j, j) % period]
        P = S * (2.0 / ((n_modes + 1) * j))[:, None]
        return (lambda a, out: np.dot(S, a, out=out),
                lambda v, out: np.dot(P, v, out=out))
    scale = 1.0 / ((n_modes + 1) * j)
    return (lambda a, out: np.multiply(sfft.dst(a, type=1), 0.5, out=out),
            lambda v, out: np.multiply(sfft.dst(v, type=1), scale, out=out))


def _energy(a, b, f):
    j = np.arange(1, a.size + 1, dtype=float)
    quad = 0.25 * np.pi * float(np.sum(b * b) + np.sum((j * a) ** 2))
    return quad + fields.integrate_x_poly(a, f.primitive)


def time_grid(u, omega, t_final, steps_per_period=STEPS_PER_PERIOD):
    """Mode count, step count and step (n_modes, steps, dt) up to t_final.

    The step is tuned so the final time is hit exactly.  This is the grid of
    the self-check; the reported run takes 2 steps of dt/2 for each.  A
    field too wide for MAX_MODES raises ConfigError.
    """
    n_modes = max(MIN_MODES, MODE_FACTOR * u.lx)
    if n_modes > MAX_MODES:
        raise ConfigError(f"a field of {u.lx} sine columns needs {n_modes} modes, "
                          f"above MAX_MODES = {MAX_MODES}")
    steps = max(1, round(t_final * omega * steps_per_period / (2.0 * np.pi)))
    return n_modes, steps, t_final / steps


def probe_time(omega, n):
    """The non-return probe time 2 pi/((n+1) omega) of a level-n solution."""
    return 2.0 * np.pi / ((n + 1) * omega)


def _probe_steps(steps, probes):
    """The steps after which the energy is probed, ending with the last one.

    Interior probe m = 1 .. probes-2 sits at the odd multiple of T/2^(m+1)
    next to m T/(probes-1), for a run of length T.  The energy error of a
    time-symmetric solution that oscillates q times over the run is extremal
    at t = 0 and at every odd multiple of T/(2q), and probe m hits one of
    those (to the nearest step) whenever q has exactly m factors of 2.  A
    return over one period of a level-n solution has q = 2n, so this catches
    every n not divisible by 2^(probes-2).  Evenly spaced probes would not:
    at spacing T/8 all of them see phase 0 whenever 4 divides n.
    """
    interior = set()
    for m in range(1, probes - 1):
        # a multiple of T/2^(m+1) finer than a step would add nothing
        den = 2 ** min(m + 1, steps.bit_length() + 1)
        num = 2 * (m * den // (2 * (probes - 1))) + 1
        interior.add(round(steps * num / den))
    return sorted(interior - {0} | {steps})


def _impulse(a0, f, dt, steps, probe_at, transforms):
    """The states (a, b) after the steps in the set probe_at, the last step
    included, of the impulse method from (a0, 0) with step dt.

    The state is z = a + i b/j, which the linear flow turns by exp(-i j dt).
    The two half kicks between rotations are one kick b -= dt P f(S a),
    split in two at a probe to read the state between the halves.
    """
    to_nodes, to_modes = transforms
    j = np.arange(1, a0.size + 1)
    turn = np.exp(-1j * dt * j)
    # f(0) = 0, so f(p) = p (c_1 + p (c_2 + ... + p c_d)) by Horner, with dt
    # folded into the coefficients
    coeffs = np.trim_zeros(np.asarray(f.poly[1:], dtype=float), "b")
    top, *rest = dt * coeffs[::-1]
    z = a0.astype(complex)
    zr, zi = z.real, z.imag
    p, fv, g = np.empty(a0.size), np.empty(a0.size), np.empty(a0.size)

    def kick():
        to_nodes(zr, p)
        np.multiply(p, top, out=fv)
        for c in rest:              # a zero coefficient adds nothing
            if c:
                np.add(fv, c, out=fv)
            np.multiply(fv, p, out=fv)
        to_modes(fv, g)

    states = []
    kick()
    g *= 0.5
    zi -= g
    for k in range(1, steps + 1):
        z *= turn
        kick()
        if k in probe_at:
            g *= 0.5
            zi -= g
            states.append((zr.copy(), j * zi))
        zi -= g
    return states


def integrate(u, omega, f, t_final, steps_per_period=STEPS_PER_PERIOD):
    """The impulse method from the t = 0 slice of u up to physical time
    t_final, on the grid of time_grid and on one twice as fine.

    The fine run's state and energy drift are reported, and the relative L2
    distance of the two position fields is the error bar.
    """
    n_modes, steps, dt = time_grid(u, omega, t_final, steps_per_period)
    transforms = _transforms(n_modes)
    a0, b0 = initial_state(u, n_modes)
    check = _impulse(a0, f, dt, steps, {steps}, transforms)[-1][0]
    probe_at = set(_probe_steps(2 * steps, ENERGY_PROBES))
    states = _impulse(a0, f, 0.5 * dt, 2 * steps, probe_at, transforms)
    energies = np.array([_energy(a0, b0, f)] + [_energy(a, b, f) for a, b in states])
    scale = max(float(np.max(np.abs(energies))), 1e-30)
    drift = float((energies.max() - energies.min()) / scale)
    a, b = states[-1]
    den = np.linalg.norm(a0)
    bar = float(np.linalg.norm(a - check) / den) if den else 0.0
    return EvolutionResult(
        t_final=float(t_final), dt=float(0.5 * dt), steps=3 * steps,
        n_modes=n_modes, a=a, b=b, energy_drift=drift, error_bar=bar,
    )


def _state_distance(a, a0):
    """Relative L2 distance of the position fields (Parseval, sine basis).

    The velocity is deliberately excluded: at a return time the modal phases
    sit at cosine peaks, so position errors cancel to second order in the
    per-mode phase error while velocity errors stay first order.  Position
    distance is the honest reading of "the solution returns"; integration
    quality is certified separately by the energy drift and the error bar.
    """
    den = np.sum(a0**2)
    if den == 0.0:
        raise ResowaveError("empty initial state")
    return float(np.sqrt(np.sum((a - a0) ** 2) / den))


def return_error(u, omega, f, periods=1, steps_per_period=STEPS_PER_PERIOD):
    """Relative L2 distance to the initial field after full periods."""
    res = integrate(u, omega, f, periods * 2.0 * np.pi / omega, steps_per_period)
    a0, _ = initial_state(u, res.n_modes)
    return _state_distance(res.a, a0), res


def nonreturn_probe(u, omega, f, n, steps_per_period=STEPS_PER_PERIOD):
    """State distance at the deliberately wrong time 2 pi/((n+1) omega).

    For a level-n solution this probe time is off the lattice of its minimal
    period, so the distance should be large; the ratio against the true
    return error is the contrast of the time-domain test.
    """
    res = integrate(u, omega, f, probe_time(omega, n), steps_per_period)
    a0, _ = initial_state(u, res.n_modes)
    return _state_distance(res.a, a0), res


def record_field(record):
    """Rebuild the full spectral field of a catalogued record."""
    v = kernel.KernelVector(np.asarray(record.xi, dtype=float))
    w = fields.SpectralField(np.asarray(record.w_coeffs, dtype=float))
    return kernel.embed(v) + w
