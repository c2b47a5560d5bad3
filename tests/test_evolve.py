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
    a = evolve.initial_state(fields.SpectralField(coeffs), 5)
    assert np.allclose(a, [0.3, 0.3, 0.0, 0.0, 0.0])


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
    # one size on each side of the dense-matrix bound: the kick on b/j is
    # (1/j) P f(S a), the nonlinear part of the DST-I acceleration over -j
    f = nonlinearity.classify({2: 0.5, 3: 1.0, 5: -0.3})
    rng = np.random.default_rng(n_modes)
    j = np.arange(1, n_modes + 1)
    a = rng.standard_normal(n_modes) / j**2
    want = -(_sine_galerkin_acceleration(a, f) + j**2 * a) / j
    to_nodes, to_modes = evolve._transforms(n_modes)
    p, g = np.empty(n_modes), np.empty(n_modes)
    to_nodes(a, p)
    assert np.max(np.abs(p - sfft.dst(a, type=1) / 2.0)) <= 1e-13 * np.max(np.abs(p))
    to_modes(sum(c * p**k for k, c in enumerate(f.poly)), g)
    assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


def _mode_space_impulse(a, f, dt, steps):
    """The impulse method written out in sine modes, half kicks unmerged, as
    the reference for integrate's loop: the position a at the end."""
    j = np.arange(1, a.size + 1)
    cos, sin = np.cos(j * dt), np.sin(j * dt)
    b = np.zeros_like(a)
    for _ in range(steps):
        b = b + 0.5 * dt * (_sine_galerkin_acceleration(a, f) + j**2 * a)
        a, b = cos * a + sin * b / j, cos * b - j * sin * a
        b = b + 0.5 * dt * (_sine_galerkin_acceleration(a, f) + j**2 * a)
    return a


@BOTH_BRANCHES
def test_loop_matches_mode_space_impulse(n_modes, monkeypatch):
    # 101 check and 200 reported steps at dt * jmax near 44 and 22, far past
    # the CFL bound of an explicit scheme, with every mode excited.  The error
    # bar is relative to the field, so it is compared to 1e-12 of that
    f = nonlinearity.classify({2: 0.5, 3: 1.0, 5: -0.3})
    rng = np.random.default_rng(n_modes)
    j = np.arange(1, n_modes + 1)
    u = fields.SpectralField(0.3 * rng.standard_normal((1, n_modes)) / j)
    monkeypatch.setattr(evolve, "MODE_FACTOR", 1)
    monkeypatch.setattr(evolve, "MIN_MODES", 0)
    monkeypatch.setattr(evolve, "STEPS_PER_PERIOD", 64)
    res = evolve.integrate(u, 1.0, f, 100 * 2.0 * np.pi / 64)
    assert (res.steps, res.n_modes) == (301, n_modes)
    a0 = evolve.initial_state(u, n_modes)
    a = _mode_space_impulse(a0, f, res.dt, 200)
    check = _mode_space_impulse(a0, f, res.t_final / 101, 101)
    bar = np.linalg.norm(a - check) / np.linalg.norm(a0)
    assert np.max(np.abs(res.a - a)) <= 1e-12 * np.max(np.abs(a))
    assert abs(res.error_bar - bar) <= 1e-12
    assert bar > 1e-5


def test_linear_single_mode_reproduces_cosine():
    # with f = 0 unavailable, use a tiny amplitude so the linear part dominates:
    # u(t, x) ~ c cos(j t) sin(j x) evolves exactly at frequency j, and the
    # rotation is exact, so what is left is the c^3 t nonlinearity
    f = nonlinearity.classify({3: 1.0})
    c = 1e-5
    coeffs = np.zeros((3, 2))
    coeffs[2, 1] = c
    u = fields.SpectralField(coeffs)
    t_final = 0.77
    res = evolve.integrate(u, 1.0, f, t_final)
    expect = np.zeros(res.n_modes)
    expect[1] = c * np.cos(2.0 * t_final)
    assert np.max(np.abs(res.a - expect)) < 2e-11


def test_self_convergence_order_two_at_generic_time(monkeypatch):
    # coarse-vs-fine state differences at a generic (non-return) time scale
    # like dt^2 for the Strang splitting, so successive halvings give ratio 4
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(frequency.omega_for_eps(1e-3), L=24)
    br = search.solve_branch(ctx, f, n_max=1, dim=3, seed=0, restarts=3)
    u = evolve.record_field(br.records[0])
    t_star = 0.37 * 2.0 * np.pi / ctx.omega
    states = []
    for spp in (256, 512, 1024):
        monkeypatch.setattr(evolve, "STEPS_PER_PERIOD", spp)
        states.append(evolve.integrate(u, ctx.omega, f, t_star).a)
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
    assert res.error_bar < 0.1 * 1e-6
    off, _ = evolve.nonreturn_probe(u, ctx.omega, f, br.records[0].n)
    assert off > 1e-3
    assert off / max(err, 1e-30) > 1e3


def test_nonreturn_probe_makes_only_the_reported_run(monkeypatch):
    # the off-period distance is integrate's to the bit, read off the 2M
    # steps of the reported run alone: no check run
    f = nonlinearity.classify({3: 1.0, 5: 0.5})
    ctx = frequency.make_context(1.0001, L=48)
    br = search.solve_branch(ctx, f, n_max=2, C=0.004, dim=4, seed=0, restarts=4)
    assert [r.n for r in br.records] == [1, 2]
    for rec in br.records:
        u = evolve.record_field(rec)
        t_probe = evolve.probe_time(rec.omega, rec.n)
        res = evolve.integrate(u, rec.omega, f, t_probe)
        a0 = evolve.initial_state(u, res.n_modes)
        steps = []
        real = evolve._impulse

        def counted(a0, f, dt, n_steps, transforms):
            steps.append(n_steps)
            return real(a0, f, dt, n_steps, transforms)

        with monkeypatch.context() as m:
            m.setattr(evolve, "_impulse", counted)
            off, a = evolve.nonreturn_probe(u, rec.omega, f, rec.n)
        assert off == evolve._state_distance(res.a, a0)
        assert np.array_equal(a, res.a)
        assert steps == [2 * evolve.time_grid(u, rec.omega, t_probe)[1]]


def test_resonance_guard_flags_a_step_at_pi(monkeypatch):
    # one excited mode j = 8 and 8 steps per period, so the reported run's
    # step has j dt = pi: the impulse method is twenty times less accurate
    # there than at 9 steps.  The check at M + 1 steps is off the resonance,
    # so the error bar reads the error, where at 9 steps it stays below a
    # tenth of it
    f = nonlinearity.classify({3: 1.0})
    coeffs = np.zeros((1, 8))
    coeffs[0, 7] = 0.02
    u = fields.SpectralField(coeffs)
    t_final = 1.37 * 2.0 * np.pi

    def run(spp):
        monkeypatch.setattr(evolve, "STEPS_PER_PERIOD", spp)
        return evolve.integrate(u, 1.0, f, t_final)

    res = run(8)
    assert 8 * res.dt == pytest.approx(np.pi, rel=0.01)
    a0 = evolve.initial_state(u, res.n_modes)
    err = np.linalg.norm(res.a - run(1024).a) / np.linalg.norm(a0)
    assert res.error_bar >= 0.5 * err
    assert res.error_bar > 1e-5
    bar = run(9).error_bar
    assert bar < 1e-6 and 10.0 * bar < res.error_bar


def test_error_bar_sees_the_step_resonance_of_level_64():
    # u^3 excites j = 64 (odd) at level 64, and one period at 64 steps per
    # period puts j dt at 2 pi on the M grid and pi on the 2M grid: a check
    # at M steps lands on the reported run's wrong state (bar 7e-15 against
    # an error of 1.5e-9), the check at M + 1 steps does not
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(1.0 + 1e-7, L=1024)
    rec = search.solve_level(ctx, f, 64, search.LevelMaximizer(6, seed=0, restarts=8))
    assert rec.accepted
    err, res = evolve.return_error(evolve.record_field(rec), rec.omega, f)
    assert err > 1e-9
    assert res.error_bar >= 0.5 * err


def test_step_is_retuned_to_hit_final_time():
    f = nonlinearity.classify({3: 1.0})
    coeffs = np.zeros((2, 1))
    coeffs[1, 0] = 1e-4
    u = fields.SpectralField(coeffs)
    res = evolve.integrate(u, 1.0, f, 1.0)
    # the reported run takes two thirds of the steps, the self-check the rest
    assert (2 * res.steps // 3) * res.dt == res.t_final
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
