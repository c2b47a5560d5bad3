"""Time-domain integrator and the return/non-return contrast."""

import numpy as np
import pytest
import scipy.fft as sfft

from resowave import evolve, fields, frequency, nonlinearity, search
from resowave.errors import ResowaveError


def test_initial_state_sums_cosine_rows():
    coeffs = np.zeros((3, 2))
    coeffs[0, 0] = 0.5
    coeffs[2, 0] = -0.2    # cos(2t) contributes at t = 0
    coeffs[1, 1] = 0.3
    a, b = evolve.initial_state(fields.SpectralField(coeffs), 5)
    assert np.allclose(a, [0.3, 0.3, 0.0, 0.0, 0.0])
    assert np.all(b == 0.0)


def _sine_galerkin_acceleration(a, f):
    """-j^2 a - (2/(N+1)) S f(S a), with S[k, j] = sin(pi k j/(N+1))."""
    n_modes = a.size
    j = np.arange(1, n_modes + 1)
    vals = sfft.dst(a, type=1) / 2.0
    fv = sum(c * vals**k for k, c in enumerate(f.poly))
    return -(j**2) * a - sfft.dst(fv, type=1) / (n_modes + 1)


BOTH_BRANCHES = pytest.mark.parametrize(
    "n_modes", [evolve.DENSE_MAX_MODES, evolve.DENSE_MAX_MODES + 1],
    ids=["dense", "fft"],
)


@BOTH_BRANCHES
def test_kick_matches_sine_transform_formula(n_modes):
    # one size on each side of the dense-matrix bound: the kick of the node
    # values p is dt^2 S times the DST-I acceleration of a = S^-1 p.  A node
    # Laplacian rounds at about eps N^2 max|p| however it is applied, so the
    # error is measured against dt^2 N^2 max|p|, the size of its largest term
    f = nonlinearity.classify({2: 0.5, 3: 1.0, 5: -0.3})
    rng = np.random.default_rng(n_modes)
    j = np.arange(1, n_modes + 1)
    p = sfft.dst(rng.standard_normal(n_modes) / j**2, type=1) / 2.0
    dt = 1e-3
    a = sfft.dst(p, type=1) / (n_modes + 1)
    want = dt**2 * sfft.dst(_sine_galerkin_acceleration(a, f), type=1) / 2.0
    h = np.empty(n_modes)
    evolve._kick(n_modes, f, dt)(p, h)
    scale = dt**2 * n_modes**2 * np.max(np.abs(p))
    assert np.max(np.abs(h - want)) <= 1e-13 * scale


def _mode_space_verlet(a, f, dt, steps, probes):
    """The mode-space velocity Verlet loop that integrate replaced, kept as
    the reference for the node-space one: (a, b, energy drift) at the end."""
    b = np.zeros_like(a)
    g = _sine_galerkin_acceleration(a, f)
    probe_at = set(evolve._probe_steps(steps, probes))
    energies = [evolve._energy(a, b, f)]
    for k in range(steps):
        a = a + dt * b + 0.5 * dt * dt * g
        g_new = _sine_galerkin_acceleration(a, f)
        b = b + 0.5 * dt * (g + g_new)
        g = g_new
        if k + 1 in probe_at:
            energies.append(evolve._energy(a, b, f))
    energies = np.asarray(energies)
    return a, b, (energies.max() - energies.min()) / np.max(np.abs(energies))


@BOTH_BRANCHES
def test_node_space_loop_matches_mode_space_verlet(n_modes):
    # 200 steps at dt * jmax near 1.4 with every mode excited, so the energy
    # drift is large enough to compare to rounding
    f = nonlinearity.classify({2: 0.5, 3: 1.0, 5: -0.3})
    rng = np.random.default_rng(n_modes)
    j = np.arange(1, n_modes + 1)
    u = fields.SpectralField(0.1 * rng.standard_normal((1, n_modes)) / j)
    cfg = evolve.EvolutionConfig(
        steps_per_period=2048, mode_factor=1, min_modes=0
    )
    res = evolve.integrate(u, 1.0, f, 200 * 2.0 * np.pi / 2048, cfg)
    assert (res.steps, res.n_modes) == (200, n_modes)
    a0, _ = evolve.initial_state(u, n_modes)
    a, b, drift = _mode_space_verlet(
        a0, f, res.dt, res.steps, cfg.energy_probes
    )
    assert np.max(np.abs(res.a - a)) <= 1e-12 * np.max(np.abs(a))
    assert np.max(np.abs(res.b - b)) <= 1e-12 * np.max(np.abs(b))
    assert abs(res.energy_drift - drift) <= 1e-12 * drift


def test_linear_single_mode_reproduces_cosine():
    # with f = 0 unavailable, use a tiny amplitude so the linear part dominates:
    # u(t, x) ~ c cos(j t) sin(j x) evolves exactly at frequency j
    f = nonlinearity.classify({3: 1.0})
    c = 1e-5
    coeffs = np.zeros((3, 2))
    coeffs[2, 1] = c
    u = fields.SpectralField(coeffs)
    t_final = 0.77
    res = evolve.integrate(u, 1.0, f, t_final)
    expect = np.zeros(res.n_modes)
    expect[1] = c * np.cos(2.0 * t_final)
    # the Verlet phase error c * 2 t (dt j)^2 / 24 is about 6e-12 here
    assert np.max(np.abs(res.a - expect)) < 2e-11
    assert res.energy_drift < 1e-5


def test_self_convergence_order_two_at_generic_time():
    # coarse-vs-fine state differences at a generic (non-return) time scale
    # like dt^2 for velocity Verlet, so successive halvings give ratio 4
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    br = search.solve_branch(ctx, f, n_max=1, dim=3, seed=0, restarts=3)
    u = evolve.record_field(br.records[0])
    t_star = 0.37 * 2.0 * np.pi / ctx.omega
    states = []
    for spp in (256, 512, 1024):
        cfg = evolve.EvolutionConfig(steps_per_period=spp)
        states.append(evolve.integrate(u, ctx.omega, f, t_star, cfg).a)
    d1 = np.linalg.norm(states[1] - states[0])
    d2 = np.linalg.norm(states[2] - states[1])
    assert abs(d1 / d2 - 4.0) < 0.2


def test_catalogued_solution_returns():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    br = search.solve_branch(ctx, f, n_max=1, dim=3, seed=0, restarts=3)
    u = evolve.record_field(br.records[0])
    err, res = evolve.return_error(u, ctx.omega, f)
    assert err < 1e-6
    assert res.energy_drift < 1e-5
    off, _ = evolve.nonreturn_probe(u, ctx.omega, f, br.records[0].n)
    assert off > 1e-3
    assert off / max(err, 1e-30) > 1e3


def test_energy_probes_see_a_level_four_oscillation():
    # the energy error of a level-n return oscillates with period P/(2n);
    # evenly spaced probes at P/8 all see the same phase of it when 4 | n
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(1.0001, L=48)
    maximizer = search.LevelMaximizer(dim=6, seed=0, restarts=8)
    rec = search.solve_level(ctx, f, 4, maximizer)
    u = evolve.record_field(rec)
    _, res = evolve.return_error(u, rec.omega, f)
    dense = evolve.EvolutionConfig(energy_probes=65)
    _, ref = evolve.return_error(u, rec.omega, f, config=dense)
    assert res.energy_drift >= 0.5 * ref.energy_drift


def test_stability_guard_raises():
    f = nonlinearity.classify({3: 1.0})
    coeffs = np.zeros((2, 1))
    coeffs[1, 0] = 0.1
    u = fields.SpectralField(coeffs)
    cfg = evolve.EvolutionConfig(steps_per_period=4, min_modes=64)
    with pytest.raises(ResowaveError, match="unstable"):
        evolve.integrate(u, 1.0, f, 10.0, cfg)


def test_step_is_retuned_to_hit_final_time():
    f = nonlinearity.classify({3: 1.0})
    coeffs = np.zeros((2, 1))
    coeffs[1, 0] = 1e-4
    u = fields.SpectralField(coeffs)
    res = evolve.integrate(u, 1.0, f, 1.0)
    assert res.steps * res.dt == res.t_final
    assert res.t_final == 1.0


def test_empty_initial_state_rejected():
    with pytest.raises(ResowaveError):
        evolve._state_distance(np.zeros(4), np.zeros(4))


def test_record_field_reconstruction():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    br = search.solve_branch(ctx, f, n_max=1, dim=3, seed=0, restarts=3)
    rec = br.records[0]
    u = evolve.record_field(rec)
    assert fields.sup_norm(u) == rec.sup
    d = fields.diagonal_of(u)
    assert np.allclose(d, rec.xi[: d.size])
