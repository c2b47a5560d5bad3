"""Non-resonance margins and dilation admissibility."""

import numpy as np
import pytest

from resowave import frequency, nonlinearity
from resowave.errors import ResowaveError


def gamma_brute(omega, L):
    """Independent gamma^(L): scan a wide j window per l."""
    best = np.inf
    for l in range(1, L + 1):
        gaps = [
            abs(omega * l - j)
            for j in range(1, int(np.ceil(1.6 * L)) + 5)
            if j != l
        ]
        best = min(best, l * min(gaps))
    return best


def test_truncated_gamma_matches_brute_force():
    rng = np.random.default_rng(20)
    for _ in range(25):
        omega = rng.uniform(0.5, 1.5)
        L = int(rng.integers(1, 40))
        assert abs(frequency.truncated_gamma(omega, L) - gamma_brute(omega, L)) < 1e-12


def gamma_candidate_loop(omega, L):
    """gamma^(L) row by row over the j next to omega l, in Python floats."""
    best = np.inf
    for l in range(1, L + 1):
        target = omega * l
        cand = {int(np.floor(target)), int(np.ceil(target))}
        cand |= {c + 1 for c in cand} | {c - 1 for c in cand}
        gaps = [abs(target - j) for j in cand if j >= 1 and j != l]
        best = min(best, l * min(gaps))
    return float(best)


def test_truncated_gamma_is_the_candidate_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    omegas = np.concatenate([rng.uniform(0.5, 1.5, 60), 1.0 + 10.0 ** -rng.uniform(1, 12, 20),
                             1.0 - 10.0 ** -rng.uniform(1, 12, 20),
                             [0.5, 2 / 3, 0.75, 1.0, 1.25, 4 / 3, 1.5]])
    for omega in omegas:
        for L in (1, 2, 3, 7, 48, 320):
            assert frequency.truncated_gamma(omega, L) == gamma_candidate_loop(omega, L)


def test_truncated_gamma_refuses_more_than_max_l():
    # MAX_L covers the widest documented branch (L = 3200)
    assert frequency.MAX_L >= 3200
    assert frequency.truncated_gamma(1.0 + 1e-7, frequency.MAX_L) > 0.0
    for L in (0, frequency.MAX_L + 1, 10**8):
        with pytest.raises(ResowaveError, match="MAX_L"):
            frequency.truncated_gamma(1.01, L)


def test_gamma_known_values():
    # omega = 3/2 resonates at l = 2 (omega l = 3)
    assert frequency.truncated_gamma(1.5, 2) == 0.0
    assert frequency.truncated_gamma(1.5, 1) == 0.5
    # omega = 1.06, L = 5: the binding pair is l = 1 against j = 2
    assert abs(frequency.truncated_gamma(1.06, 5) - 0.94) < 1e-12


def test_make_context_populates_eps_and_gamma():
    ctx = frequency.make_context(1.1, L=6)
    assert abs(ctx.eps - 0.5 * (1.1**2 - 1.0)) < 1e-15
    assert ctx.gamma == frequency.truncated_gamma(1.1, 6)
    with pytest.raises(ResowaveError):
        frequency.make_context(1.8, L=4)
    with pytest.raises(ResowaveError):
        frequency.make_context(0.4, L=4)


def test_omega_for_eps_round_trip():
    for eps in (1e-3, -2e-4, 0.1):
        om = frequency.omega_for_eps(eps)
        assert abs(0.5 * (om**2 - 1.0) - eps) < 1e-15
    with pytest.raises(ResowaveError):
        frequency.omega_for_eps(-0.6)


def test_admissibility_boundary_is_inclusive():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.FrequencyContext(omega=1.01, eps=0.5 * (1.01**2 - 1), gamma=1.0, L=10)
    # bound = |omega - 1| n^2 / gamma = 0.01 * 100 = 1.0 exactly at C = 1
    assert frequency.admissible(ctx, 10, f, C=1.0).ok
    assert not frequency.admissible(ctx, 11, f, C=1.0).ok
    # the bound at n = 10 rounds to 1 + 9e-16, inside the slack but above
    # the closed-form estimate's floor
    assert frequency.max_admissible_n(ctx, f, C=1.0) == 10


def test_side_gating():
    f_pos = nonlinearity.classify({3: 1.0})     # needs omega > 1
    f_neg = nonlinearity.classify({3: -1.0})    # needs omega < 1
    above = frequency.make_context(1.001, L=16)
    below = frequency.make_context(0.999, L=16)
    assert frequency.admissible(above, 1, f_pos).ok
    assert not frequency.admissible(below, 1, f_pos).ok
    assert frequency.admissible(below, 1, f_neg).ok
    assert not frequency.admissible(above, 1, f_neg).ok
    f_quad = nonlinearity.classify({2: 1.0})    # quadratic case lives below 1
    assert frequency.admissible(below, 1, f_quad).ok
    assert not frequency.admissible(above, 1, f_quad).ok


def test_mixed_case_side_window():
    # d = 2p - 1 with b < 0: below 1 only
    f_bneg = nonlinearity.classify({2: 1.0, 3: -1.0})
    assert frequency.side_required(f_bneg) == "omega<1"
    # small positive b: both sides; large positive b: above only
    thr = 2 * np.pi**2 / 24.0
    f_small = nonlinearity.classify({2: 1.0, 3: 0.5 * thr})
    f_large = nonlinearity.classify({2: 1.0, 3: 2.0 * thr})
    assert frequency.side_required(f_small) == "either"
    assert frequency.side_required(f_large) == "omega>1"


def test_minimal_n_per_case():
    assert frequency.minimal_n(nonlinearity.classify({3: 1.0})) == 1
    assert frequency.minimal_n(nonlinearity.classify({4: 1.0, 5: 1.0})) == 1
    assert frequency.minimal_n(nonlinearity.classify({2: 1.0})) == 1
    assert frequency.minimal_n(nonlinearity.classify({4: 1.0})) == 2
    assert frequency.minimal_n(nonlinearity.classify({4: 1.0, 7: 1.0})) == 2


def test_max_admissible_n_is_sharp():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(1.0001, L=32)
    cap = frequency.max_admissible_n(ctx, f, C=0.05)
    assert cap >= 5
    assert frequency.admissible(ctx, cap, f, C=0.05).ok
    assert not frequency.admissible(ctx, cap + 1, f, C=0.05).ok
    # wrong side: no admissible indices at all
    below = frequency.make_context(0.9999, L=32)
    assert frequency.max_admissible_n(below, f, C=0.05) == 0


_CAP_CASES = [{3: 1.0}, {3: -1.0}, {2: 1.0}, {4: 1.0}, {4: 1.0, 5: -1.0},
              {2: 1.0, 3: 5.0}, {2: 1.0, 3: -1.0}, {4: 1.0, 7: 1.0}, {3: 1.0, 5: 2.0}]


def test_max_admissible_n_matches_brute_force_at_the_threshold():
    # C within the 1e-12 slack of some level's bound, where rounding decides
    rng = np.random.default_rng(11)
    for _ in range(300):
        f = nonlinearity.classify(_CAP_CASES[rng.integers(len(_CAP_CASES))])
        side = frequency.side_required(f)
        below = side == "omega<1" or (side == "either" and rng.random() < 0.5)
        offset = 10.0 ** rng.uniform(-5, -2)
        omega = 1.0 - offset if below else 1.0 + offset
        ctx = frequency.FrequencyContext(
            omega=omega, eps=0.5 * (omega**2 - 1.0), gamma=rng.uniform(0.5, 1.0), L=32,
        )
        level = int(rng.integers(frequency.minimal_n(f), 30))
        bound = frequency.admissible(ctx, level, f, C=1.0).bound
        C = bound * (1.0 + rng.uniform(-2e-12, 2e-12))
        brute = max([n for n in range(1, 80) if frequency.admissible(ctx, n, f, C).ok],
                    default=0)
        assert frequency.max_admissible_n(ctx, f, C) == brute


def test_max_admissible_n_is_the_last_level_walking_up_from_minimal_n():
    # the cap starts at the closed-form estimate and only walks up, so an
    # estimate above the last admissible level would show here: ten shapes
    # of f, offsets 1e-9..1e-1, C random or within the 1e-12 slack of a
    # level's bound
    rng = np.random.default_rng(29)
    for coeffs in _CAP_CASES + [{5: -2.0}]:
        f = nonlinearity.classify(coeffs)
        side = frequency.side_required(f)
        n_min = frequency.minimal_n(f)
        for offset in 10.0 ** -np.arange(1.0, 10.0):
            below = side == "omega<1" or (side == "either" and rng.random() < 0.5)
            omega = 1.0 - offset if below else 1.0 + offset
            ctx = frequency.FrequencyContext(
                omega=omega, eps=0.5 * (omega**2 - 1.0), gamma=rng.uniform(0.5, 1.0), L=32,
            )
            level = int(rng.integers(n_min, 30))
            near = frequency.admissible(ctx, level, f, C=1.0).bound
            for C in (10.0 ** rng.uniform(-6.0, 0.0), near * (1.0 + rng.uniform(-2e-12, 2e-12))):
                walk, n = 0, n_min
                while frequency.admissible(ctx, n, f, C).ok:
                    walk, n = n, n + 1
                assert frequency.max_admissible_n(ctx, f, C) == walk


@pytest.mark.parametrize("C", [np.nan, 0.0, -1.0, np.inf, 1e200])
def test_smallness_constant_outside_the_usable_range_is_refused(C):
    # nan, 0 and -1 once gave the cap 0 in silence; inf and 1e200 overflowed
    # the cap estimate of u^2, whose bound exponent 1/2 squares C
    f2 = nonlinearity.classify({2: 1.0})
    ctx = frequency.make_context(0.999, L=16)
    with pytest.raises(ResowaveError, match="C = "):
        frequency.max_admissible_n(ctx, f2, C=C)
    with pytest.raises(ResowaveError, match="C = "):
        frequency.scan_frequencies(0.998, 0.999, 0.001, 16, f2, C=C)


def test_resonant_frequency_blocks_everything():
    f = nonlinearity.classify({3: 1.0})
    ctx = frequency.make_context(1.5, L=8)
    assert ctx.gamma == 0.0
    rep = frequency.admissible(ctx, 1, f)
    assert not rep.ok
    assert any("resonant" in note for note in rep.notes)


def test_scan_rows_sorted_and_bounded():
    f = nonlinearity.classify({3: 1.0})
    rows = frequency.scan_frequencies(1.0005, 1.002, 0.0005, L=16, f=f)
    assert all(set(r) == {"ctx", "n_max"} for r in rows)
    oms = [r["ctx"].omega for r in rows]
    assert oms == sorted(oms)
    assert all(r["n_max"] >= 1 for r in rows)
    with pytest.raises(ResowaveError):
        frequency.scan_frequencies(1.0, 1.1, -0.1, L=8, f=f)


def test_scan_window_without_a_frequency_in_range_is_refused():
    # a window partly outside OMEGA_RANGE skips its outside points; a
    # reversed one, or one wholly outside, raises instead of giving no rows
    f = nonlinearity.classify({3: 1.0})
    rows = frequency.scan_frequencies(1.47, 1.53, 0.02, L=8, f=f)
    assert [r["ctx"].omega for r in rows] == pytest.approx([1.47, 1.49])
    with pytest.raises(ResowaveError, match="reversed"):
        frequency.scan_frequencies(1.01, 1.001, 0.001, L=16, f=f)
    with pytest.raises(ResowaveError, match="OMEGA_RANGE"):
        frequency.scan_frequencies(0.1, 0.2, 0.01, L=16, f=f)


def test_scan_grid_is_bounded_before_it_is_built(monkeypatch):
    f = nonlinearity.classify({3: 1.0})
    monkeypatch.setattr(frequency, "MAX_SCAN_ROWS", 5)
    assert len(frequency.scan_frequencies(1.001, 1.005, 0.001, L=16, f=f)) == 5
    with pytest.raises(ResowaveError, match="MAX_SCAN_ROWS = 5"):
        frequency.scan_frequencies(1.001, 1.006, 0.001, L=16, f=f)
    # 9e9 frequencies are refused without asking numpy for them
    def unreachable(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(frequency.np, "arange", unreachable)
    with pytest.raises(ResowaveError, match="MAX_SCAN_ROWS"):
        frequency.scan_frequencies(1.001, 1.01, 1e-12, L=16, f=f)
