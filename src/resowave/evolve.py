"""Time-domain verification by direct integration of the wave equation.

This is the one check that shares no analytical machinery with the spectral
construction: a catalogued solution is handed to a sine-pseudospectral
velocity Verlet integrator for u_tautau = u_xx - f(u) in physical time, and
periodicity is judged by the state distance after one full period 2 pi/omega.
A genuine solution returns to its initial state; probing at a fraction of the
period gives the non-return contrast that shows the test has teeth.

The steps run on the values at the interior nodes x_k = pi k/(N+1), where
f acts pointwise, so a step needs only the sine Laplacian in node space: up
to DENSE_MAX_MODES modes one product with a dense N x N matrix, built once
per integration, and above that bound a pair of scipy type-I sine FFTs.  The
state is read back in sine modes only at the energy probes and at the end.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from . import fields, kernel
from .errors import ResowaveError

__all__ = [
    "EvolutionConfig",
    "EvolutionResult",
    "initial_state",
    "time_grid",
    "probe_time",
    "integrate",
    "return_error",
    "nonreturn_probe",
]


@dataclass(frozen=True)
class EvolutionConfig:
    steps_per_period: int = 4096
    mode_factor: int = 4
    min_modes: int = 32
    energy_probes: int = 9


@dataclass
class EvolutionResult:
    t_final: float
    dt: float
    steps: int
    n_modes: int
    a: np.ndarray             # sine coefficients of u at t_final
    b: np.ndarray             # sine coefficients of u_tau at t_final
    energy_drift: float


def initial_state(u, n_modes):
    """State (a, b) at t = 0: cosine rows sum to a, the velocity vanishes."""
    a = np.zeros(n_modes)
    cols = min(u.lx, n_modes)
    a[:cols] = u.coeffs[:, :cols].sum(axis=0)
    return a, np.zeros(n_modes)


# Up to this many modes the node Laplacian is one product with a dense N x N
# matrix; above it, it is a pair of scipy.fft.dst calls.  Timed on a 2-core
# x86 host with OpenBLAS (best of 7), the product takes 2-6.5 us at
# N = 63..199 against 33-72 us for the pair, and 11-41 us at N = 249..449
# against 28-125 us.  From N = 479 on, the pair wins wherever N+1 is 5-smooth
# or a power of two (47 against 49 us at 479, 32 against 66 at 499, 49
# against 74 at 511), though not where N+1 is prime (138 against 67 us at
# 508).
DENSE_MAX_MODES = 448


def _to_nodes(a):
    """Sine coefficients -> values at the interior nodes x_k = pi k/(N+1)."""
    return sfft.dst(a, type=1, axis=0) / 2.0


def _to_modes(v):
    """Node values -> sine coefficients; the inverse of _to_nodes."""
    return sfft.dst(v, type=1, axis=0) / (v.shape[0] + 1)


def _kick(n_modes, f, dt):
    """Node-space kick p -> dt^2 (u_xx - f(u)) at the nodes, written to out.

    dt^2 is folded into the sine Laplacian diag(-j^2) conjugated to the nodes
    and into the Horner coefficients of f.  Up to DENSE_MAX_MODES the
    Laplacian is one matrix D, built from two sine transforms of the identity:
    a threaded BLAS matrix product here would leave its idle threads spinning
    through the short loop that follows.
    """
    lap = -((dt * np.arange(1, n_modes + 1)) ** 2)
    # f(0) = 0, so f(p) = p (c_1 + p (c_2 + ... + p c_d)) by Horner
    coeffs = np.trim_zeros(np.asarray(f.poly[1:], dtype=float), "b")
    top, *rest = dt * dt * coeffs[::-1]
    if n_modes <= DENSE_MAX_MODES:
        D = _to_nodes(lap[:, None] * _to_modes(np.eye(n_modes)))

        def laplacian(p, out):
            np.dot(D, p, out=out)
    else:
        def laplacian(p, out):
            out[:] = _to_nodes(lap * _to_modes(p))

    fv = np.empty(n_modes)

    def kick(p, out):
        laplacian(p, out)
        np.multiply(p, top, out=fv)
        for c in rest:              # a zero coefficient adds nothing
            if c:
                np.add(fv, c, out=fv)
            np.multiply(fv, p, out=fv)
        out -= fv

    return kick


def _energy(a, b, f):
    j = np.arange(1, a.size + 1, dtype=float)
    quad = 0.25 * np.pi * float(np.sum(b * b) + np.sum((j * a) ** 2))
    return quad + fields.integrate_x_poly(a, f.primitive)


def time_grid(u, omega, t_final, config=None):
    """Mode count, step count and step (n_modes, steps, dt) up to t_final.

    The step is tuned so the final time is hit exactly; stability of the
    explicit scheme requires dt * j_max < 2, and a step that breaks it raises.
    """
    config = config or EvolutionConfig()
    n_modes = max(config.min_modes, config.mode_factor * u.lx)
    period = 2.0 * np.pi / omega
    dt0 = period / config.steps_per_period
    steps = max(1, round(t_final / dt0))
    dt = t_final / steps
    if dt * n_modes >= 2.0:
        raise ResowaveError(
            f"unstable step: dt*jmax = {dt * n_modes:.3f} (need < 2); "
            "raise steps_per_period"
        )
    return n_modes, steps, dt


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


def integrate(u, omega, f, t_final, config=None):
    """Velocity Verlet from the t = 0 slice of u up to physical time t_final,
    with the mode count and step that time_grid gives.

    The steps run in node space as kick-drift-kick Stormer-Verlet with the
    half kicks merged, the same map as velocity Verlet: the state is the node
    values p = S a and the scaled half-step velocity s = dt S b, and a step
    is p += s, h = kick(p), s += h.  At an energy probe and at the last step
    the kick is split in two and the whole-step state (a, b) is read between
    the halves.
    """
    config = config or EvolutionConfig()
    n_modes, steps, dt = time_grid(u, omega, t_final, config)
    kick = _kick(n_modes, f, dt)
    a, b = initial_state(u, n_modes)
    energies = [_energy(a, b, f)]
    p = _to_nodes(a)
    h = np.empty(n_modes)
    kick(p, h)
    s = 0.5 * h
    done = 0
    for stop in _probe_steps(steps, config.energy_probes):
        for _ in range(stop - done - 1):
            p += s
            kick(p, h)
            s += h
        p += s
        kick(p, h)
        h *= 0.5
        s += h
        a, b = _to_modes(p), _to_modes(s) / dt
        energies.append(_energy(a, b, f))
        s += h
        done = stop
    energies = np.asarray(energies)
    scale = max(float(np.max(np.abs(energies))), 1e-30)
    drift = float((energies.max() - energies.min()) / scale)
    return EvolutionResult(
        t_final=float(t_final),
        dt=float(dt),
        steps=int(steps),
        n_modes=int(n_modes),
        a=a,
        b=b,
        energy_drift=drift,
    )


def _state_distance(a, a0):
    """Relative L2 distance of the position fields (Parseval, sine basis).

    The velocity is deliberately excluded: at a return time the modal phases
    sit at cosine peaks, so position errors cancel to second order in the
    per-mode phase error while velocity errors stay first order.  Position
    distance is the honest reading of "the solution returns"; integration
    quality is certified separately by the energy drift.
    """
    den = np.sum(a0**2)
    if den == 0.0:
        raise ResowaveError("empty initial state")
    return float(np.sqrt(np.sum((a - a0) ** 2) / den))


def return_error(u, omega, f, periods=1, config=None):
    """Relative L2 distance to the initial field after full periods."""
    config = config or EvolutionConfig()
    period = 2.0 * np.pi / omega
    res = integrate(u, omega, f, periods * period, config)
    a0, _ = initial_state(u, res.n_modes)
    return _state_distance(res.a, a0), res


def nonreturn_probe(u, omega, f, n, config=None):
    """State distance at the deliberately wrong time 2 pi/((n+1) omega).

    For a level-n solution this probe time is off the lattice of its minimal
    period, so the distance should be large; the ratio against the true
    return error is the contrast of the time-domain test.
    """
    config = config or EvolutionConfig()
    res = integrate(u, omega, f, probe_time(omega, n), config)
    a0, _ = initial_state(u, res.n_modes)
    return _state_distance(res.a, a0), res


def record_field(record):
    """Rebuild the full spectral field of a catalogued record."""
    v = kernel.KernelVector(np.asarray(record.xi, dtype=float))
    w = fields.SpectralField(np.asarray(record.w_coeffs, dtype=float))
    return kernel.embed(v) + w
