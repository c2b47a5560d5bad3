"""Time-domain integrator and the return/non-return contrast."""

import ast
import inspect

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

        def counted(a0, f, dt, n_steps, g, parity):
            steps.append(n_steps)
            return real(a0, f, dt, n_steps, g, parity)

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


F3 = nonlinearity.classify({3: 1.0})


@pytest.fixture(scope="module")
def criterion6_records():
    # the criterion-6 branch: levels 1, 3, 5 sit on the odd modes j, and
    # levels 2, 4, 6 on the even ones
    ctx = frequency.make_context(1.0001, L=48)
    br = search.solve_branch(ctx, F3, C=0.004, dim=6, seed=0, restarts=8)
    assert [r.n for r in br.records] == [1, 2, 3, 4, 5, 6]
    return br.records


@pytest.fixture
def fresh_transforms():
    # a test that moves DENSE_MAX_MODES or counts cache misses starts and
    # leaves with an empty table cache
    evolve._transforms.cache_clear()
    yield evolve._transforms
    evolve._transforms.cache_clear()


def _run_class(rec):
    """(g, N', parity): the class of a record's runs, whose tables are keyed (N', parity)."""
    u = evolve.record_field(rec)
    a0, g, parity = evolve._start(u, F3, evolve.time_grid(u, rec.omega, 1.0)[0])
    return g, (a0.size + 1) // g - 1, parity


def _table_key(rec):
    return _run_class(rec)[1:]


def test_criterion6_records_run_on_their_reflection_class(criterion6_records):
    # level n sits on the modes j in nZ, and on the odd multiples of n: 32,
    # 24, 24, 24, 19 and 16 modes where the full runs take 64 to 192.  The
    # return run's state and the probe's distance, each made on its class,
    # agree with the full mode-space reference
    assert [_run_class(r) for r in criterion6_records] == [
        (1, 64, 1), (2, 48, 1), (3, 48, 1), (4, 48, 1), (5, 38, 1), (6, 32, 1)]
    for rec in criterion6_records:
        u = evolve.record_field(rec)
        err, res = evolve.return_error(u, rec.omega, F3)
        a0 = evolve.initial_state(u, res.n_modes)
        a = _mode_space_impulse(a0, F3, res.dt, 2 * (res.steps - 1) // 3)
        assert np.max(np.abs(res.a - a)) <= 1e-12 * np.max(np.abs(a))
        assert abs(err - evolve._state_distance(a, a0)) <= 1e-12
        n_modes, steps, dt = evolve.time_grid(u, rec.omega, evolve.probe_time(rec.omega, rec.n))
        off, _ = evolve.nonreturn_probe(u, rec.omega, F3, rec.n)
        want = evolve._state_distance(_mode_space_impulse(a0, F3, 0.5 * dt, 2 * steps), a0)
        assert abs(off - want) <= 1e-12 * want


def test_even_f_or_mixed_data_take_the_full_path(monkeypatch):
    # u^2 maps even-j data onto odd modes at the first kick, so a run on the
    # even class would be wrong there; mixed data has no class either
    f2 = nonlinearity.classify({2: 1.0})
    coeffs = np.zeros((1, 8))
    coeffs[0, 1], coeffs[0, 5] = 0.1, 0.05     # j = 2, 6
    even = fields.SpectralField(coeffs)
    coeffs = coeffs.copy()
    coeffs[0, 2] = 0.02                         # j = 3
    mixed = fields.SpectralField(coeffs)
    classes = []
    real = evolve._impulse

    def spied(a0, f, dt, steps, g, parity):
        classes.append((a0.size, g, parity))
        return real(a0, f, dt, steps, g, parity)

    monkeypatch.setattr(evolve, "_impulse", spied)
    evolve.integrate(even, 1.0, f2, 1.0)
    evolve.integrate(mixed, 1.0, F3, 1.0)
    assert classes == [(32, 1, None)] * 4
    # under u^3 the even data sits on j in 2Z, the odd multiples of 2
    evolve.integrate(even, 1.0, F3, 1.0)
    assert classes[4:] == [(33, 2, 1)] * 2
    a0 = evolve.initial_state(even, 32)
    a = real(a0, f2, 0.01, 1, 1, None)
    assert np.max(np.abs(a[::2])) > 1e-6 * np.max(np.abs(a))


@pytest.mark.parametrize("n_modes", [192, 2 * evolve.DENSE_MAX_MODES])
@pytest.mark.parametrize("parity", [1, 0], ids=["odd", "even"])
def test_class_kick_is_the_full_kick_on_its_modes(parity, n_modes):
    # the class products on the nodes k <= N/2 give the full DST-I kick,
    # read on the class's modes, for data on that class and an f that keeps
    # it (an even-order term only on the odd class)
    f = nonlinearity.classify({2: 0.5, 3: 1.0, 5: -0.3} if parity else {3: 1.0, 5: -0.3})
    rng = np.random.default_rng(n_modes + parity)
    j = evolve._modes(n_modes, parity)
    a = np.zeros(n_modes)
    a[j - 1] = rng.standard_normal(j.size) * (j[0] / j) ** 2
    want = -(_sine_galerkin_acceleration(a, f) + np.arange(1, n_modes + 1) ** 2 * a)
    want = want[j - 1] / j
    to_nodes, to_modes = evolve._transforms(n_modes, parity)
    p, g = np.empty(j.size), np.empty(j.size)
    to_nodes(a[j - 1], p)
    full = sfft.dst(a, type=1) / 2.0
    assert np.max(np.abs(p - full[: j.size])) <= 1e-13 * np.max(np.abs(full))
    to_modes(sum(c * p**k for k, c in enumerate(f.poly)), g)
    assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


def test_dense_class_and_dst_paths_agree(criterion6_records, monkeypatch, fresh_transforms):
    # levels 4 and 5 run on 24 and 19 modes of their class against 48 and 38
    # modes of their sub-lattice through the DSTs once DENSE_MAX_MODES is
    # below all four
    dense = {}
    for rec in criterion6_records[3:5]:
        u = evolve.record_field(rec)
        dense[rec.n] = (evolve.return_error(u, rec.omega, F3),
                        evolve.nonreturn_probe(u, rec.omega, F3, rec.n)[0])
    monkeypatch.setattr(evolve, "DENSE_MAX_MODES", 16)
    fresh_transforms.cache_clear()
    for rec in criterion6_records[3:5]:
        u = evolve.record_field(rec)
        (err, res), off = (evolve.return_error(u, rec.omega, F3),
                           evolve.nonreturn_probe(u, rec.omega, F3, rec.n)[0])
        assert _table_key(rec) == ({4: 48, 5: 38}[rec.n], None)
        (err0, res0), off0 = dense[rec.n]
        assert np.max(np.abs(res.a - res0.a)) <= 1e-12 * np.max(np.abs(res0.a))
        assert abs(err - err0) <= 1e-12 and abs(res.error_bar - res0.error_bar) <= 1e-12
        assert abs(off - off0) <= 1e-12 * off0


def test_branch_builds_each_table_once(criterion6_records, fresh_transforms):
    # two passes over the branch, run and probe, build each (N', parity)
    # pair once: four of them, within the cache, since levels 2-4 share one
    keys = {_table_key(r) for r in criterion6_records}
    assert len(keys) == 4
    for _ in range(2):
        for rec in criterion6_records:
            u = evolve.record_field(rec)
            evolve.return_error(u, rec.omega, F3)
            evolve.nonreturn_probe(u, rec.omega, F3, rec.n)
    assert fresh_transforms.cache_info().misses == len(keys)


@pytest.mark.parametrize("g", [2, 3, 6])
@pytest.mark.parametrize("odd_only", [False, True], ids=["every-m", "odd-m"])
def test_sub_lattice_run_is_the_full_run_on_its_modes(g, odd_only):
    # data on j = g m with g | N + 1 and N' = 24: the class run, on the
    # reflection class of m when the data has one, is the full run read on
    # j in gZ, and the full run stays there
    f = nonlinearity.classify({3: 1.0, 5: -0.3})
    n_modes = 25 * g - 1
    rng = np.random.default_rng(g)
    m = np.arange(1, 25)
    m = m[m % 2 == 1] if odd_only else m
    a0 = np.zeros(n_modes)
    a0[g * m - 1] = 0.3 * rng.standard_normal(m.size) / m
    assert evolve._sub_lattice(a0, f) == g
    parity = evolve._reflection_class(a0[g - 1 :: g])
    assert parity == (1 if odd_only else None)
    full = evolve._impulse(a0, f, 0.05, 200, 1, None)
    a = evolve._impulse(a0, f, 0.05, 200, g, parity)
    assert not a[np.arange(1, n_modes + 1) % g != 0].any()
    assert np.max(np.abs(a - full)) <= 1e-13 * np.max(np.abs(full))


def _parent_impulse(a0, f, dt, steps, parity):
    """The loop on every mode of the reflection class, with no sub-lattice,
    written out as before the sub-lattice class: the g = 1 reference."""
    to_nodes, to_modes = evolve._transforms(a0.size, parity)
    j = evolve._modes(a0.size, parity)
    turn = np.exp(-1j * dt * j)
    coeffs = np.trim_zeros(np.asarray(f.poly[1:], dtype=float), "b")
    top, *rest = dt * coeffs[::-1]
    z = a0[j - 1].astype(complex)
    zr, zi = z.real, z.imag
    p, fv, g = np.empty(j.size), np.empty(j.size), np.empty(j.size)

    def kick():
        to_nodes(zr, p)
        np.multiply(p, top, out=fv)
        for c in rest:
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


def test_g1_runs_are_the_loop_without_sub_lattice(criterion6_records):
    # where g = 1 nothing moves by a bit: the level-1 record under u^3, data
    # on j = 2, 6 under u^2 and mixed data under u^3, return run, check run,
    # bar and probe
    f2 = nonlinearity.classify({2: 1.0})
    coeffs = np.zeros((1, 8))
    coeffs[0, 1], coeffs[0, 5] = 0.1, 0.05
    even = fields.SpectralField(coeffs.copy())
    coeffs[0, 2] = 0.02
    mixed = fields.SpectralField(coeffs)
    rec = criterion6_records[0]
    for u, omega, f, n in [(evolve.record_field(rec), rec.omega, F3, rec.n),
                           (even, 1.0, f2, 1), (mixed, 1.0, F3, 1)]:
        t_final = 2.0 * np.pi / omega
        n_modes, steps, dt = evolve.time_grid(u, omega, t_final)
        a0 = evolve.initial_state(u, n_modes)
        assert evolve._sub_lattice(a0, f) == 1
        parity = evolve._reflection_class(a0)
        a = _parent_impulse(a0, f, 0.5 * dt, 2 * steps, parity)
        check = _parent_impulse(a0, f, t_final / (steps + 1), steps + 1, parity)
        err, res = evolve.return_error(u, omega, f)
        assert res.n_modes == n_modes and np.array_equal(res.a, a)
        d = a - check
        assert res.error_bar == np.sqrt(np.sum(d * d)) / np.sqrt(np.sum(a0 * a0))
        assert err == evolve._state_distance(a, a0)
        n_modes, steps, dt = evolve.time_grid(u, omega, evolve.probe_time(omega, n))
        a = _parent_impulse(a0, f, 0.5 * dt, 2 * steps, parity)
        off, b = evolve.nonreturn_probe(u, omega, f, n)
        assert np.array_equal(b, a) and off == evolve._state_distance(a, a0)


def test_a_mode_off_the_sub_lattice_takes_the_full_run(criterion6_records, monkeypatch):
    # level 3 sits on j in 3Z; one small mode added at j = 2 leaves no
    # sub-lattice, so the return is integrated on every mode and carries
    # the added one, as the mode-space reference does
    rec = criterion6_records[2]
    u = evolve.record_field(rec)
    assert evolve._start(u, F3, 144)[1] == 3
    coeffs = u.coeffs.copy()
    coeffs[0, 1] = 1e-3 * np.max(np.abs(coeffs))
    u = fields.SpectralField(coeffs)
    classes = []
    real = evolve._impulse

    def spied(a0, f, dt, steps, g, parity):
        classes.append((g, parity))
        return real(a0, f, dt, steps, g, parity)

    monkeypatch.setattr(evolve, "_impulse", spied)
    err, res = evolve.return_error(u, rec.omega, F3)
    assert classes == [(1, None)] * 2 and res.n_modes == 144
    a0 = evolve.initial_state(u, 144)
    a = _mode_space_impulse(a0, F3, res.dt, 2 * (res.steps - 1) // 3)
    assert np.max(np.abs(res.a - a)) <= 1e-12 * np.max(np.abs(a))
    assert abs(err - evolve._state_distance(a, a0)) <= 1e-12
    assert abs(res.a[1]) > 0.5 * abs(a0[1])


def test_evolve_imports_no_solver_module():
    # the time-domain oracle stays independent of the spectral solve: of the
    # package it reads only the field types and errors
    tree = ast.parse(inspect.getsource(evolve))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package |= ({node.module.split(".")[0]} if node.module
                        else {a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("resowave"):
            rest = node.module.split(".")[1:]
            package |= {rest[0]} if rest else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            package |= {a.name.split(".")[1] for a in node.names
                        if a.name.startswith("resowave.")}
    assert package == {"fields", "errors"}


def test_return_error_sums_the_field_once(criterion6_records, monkeypatch):
    # the return check reads its start off the run, whose a0 is the initial
    # state on the run's modes: the record's field is summed once, inside
    # integrate, which return_error still calls through the module
    calls = []
    real_state, real_integrate = evolve.initial_state, evolve.integrate

    def counted(u, n_modes):
        calls.append(n_modes)
        return real_state(u, n_modes)

    def integrate(*args):
        calls.append("integrate")
        return real_integrate(*args)

    monkeypatch.setattr(evolve, "initial_state", counted)
    monkeypatch.setattr(evolve, "integrate", integrate)
    for rec in criterion6_records:
        u = evolve.record_field(rec)
        calls.clear()
        err, res = evolve.return_error(u, rec.omega, F3)
        assert calls[0] == "integrate" and len(calls) == 2
        assert np.array_equal(res.a0, real_state(u, res.n_modes))
        assert err == evolve._state_distance(res.a, res.a0)
