"""Time-domain verification by direct integration of the wave equation.

This is the one check that shares no analytical machinery with the spectral
construction: a catalogued solution is handed to a sine-pseudospectral
velocity Verlet integrator for u_tautau = u_xx - f(u) in physical time, and
periodicity is judged by the state distance after one full period 2 pi/omega.
A genuine solution returns to its initial state; probing at a fraction of the
period gives the non-return contrast that shows the test has teeth.

Each step takes two type-I sine transforms between the modes and the interior
nodes x_k = pi k/(N+1).  Up to DENSE_MAX_MODES modes they are products with
the dense DST-I matrix, built once per integration; above that bound they are
scipy FFTs.
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


# Up to this many modes the dense DST-I product beats scipy.fft.dst.  Timed on
# a 2-core x86 host with OpenBLAS, it is 1.2-7x faster at N = 64..320 (most
# where N+1 is prime: 97, 193, 257), except at N = 255, where N+1 is a power of
# two and it is about 25% slower; from N = 383 on, the FFT wins (5x at 1024).
DENSE_MAX_MODES = 256


def _plan(n_modes, f):
    """Acceleration a -> -j^2 a - P[f(u)] of the sine-Galerkin system."""
    neg_j2 = -np.arange(1, n_modes + 1, dtype=float) ** 2
    top, *rest = np.trim_zeros(np.asarray(f.poly, dtype=float), "b")[::-1]
    norm = n_modes + 1
    if n_modes <= DENSE_MAX_MODES:
        k = np.arange(1, norm, dtype=float)
        S = np.sin(np.pi * np.outer(k, k) / norm)
        S_back = (2.0 / norm) * S

        def to_nodes(a):
            return S @ a

        def to_modes(fv):
            return S_back @ fv
    else:
        def to_nodes(a):
            return sfft.dst(a, type=1) / 2.0

        def to_modes(fv):
            return sfft.dst(fv, type=1) / norm

    def acceleration(a):
        vals = to_nodes(a)
        fv = top
        for c in rest:              # Horner; a zero coefficient adds nothing
            fv = fv * vals
            if c:
                fv = fv + c
        return neg_j2 * a - to_modes(fv)

    return acceleration


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


def integrate(u, omega, f, t_final, config=None):
    """Velocity Verlet from the t = 0 slice of u up to physical time t_final,
    with the mode count and step that time_grid gives."""
    config = config or EvolutionConfig()
    n_modes, steps, dt = time_grid(u, omega, t_final, config)
    acc = _plan(n_modes, f)
    a, b = initial_state(u, n_modes)
    g = acc(a)
    probe_every = max(1, steps // max(config.energy_probes - 1, 1))
    energies = [_energy(a, b, f)]
    for k in range(steps):
        a = a + dt * b + 0.5 * dt * dt * g
        g_new = acc(a)
        b = b + 0.5 * dt * (g + g_new)
        g = g_new
        if (k + 1) % probe_every == 0 or k + 1 == steps:
            energies.append(_energy(a, b, f))
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
