"""Kernel vectors: travelling-wave identity, norms, dilation, projections."""

import numpy as np
import pytest

from resowave import fields, kernel
from resowave.errors import ResowaveError


def eta(v, s):
    """The profile eta(s) = sum_j (xi_j / 2) sin(j s), evaluated directly."""
    j = np.arange(1, len(v) + 1)
    return np.sin(np.multiply.outer(np.asarray(s, dtype=float), j)) @ (v.xi / 2.0)


def test_embed_places_diagonal_coefficients():
    v = kernel.KernelVector([0.5, 0.0, -0.25])
    u = kernel.embed(v)
    assert u.coeffs[1, 0] == 0.5
    assert u.coeffs[2, 1] == 0.0
    assert u.coeffs[3, 2] == -0.25
    off = u.coeffs.copy()
    for j in range(1, 4):
        off[j, j - 1] = 0.0
    assert np.all(off == 0.0)


def _write_entry(v):
    v.xi[0] = 1.0


@pytest.mark.parametrize("make, error, message", [
    (lambda: kernel.KernelVector([]), ResowaveError, "nonempty 1-d"),
    (lambda: kernel.KernelVector([[0.1]]), ResowaveError, "nonempty 1-d"),
    (lambda: kernel.KernelVector([0.1, np.nan]), ResowaveError, "non-finite kernel coefficient"),
    (lambda: kernel.KernelVector([-np.inf]), ResowaveError, "non-finite kernel coefficient"),
    (lambda: setattr(kernel.KernelVector([0.1]), "xi", np.ones(1)),
     AttributeError, "KernelVector is immutable"),
    (lambda: _write_entry(kernel.KernelVector([0.1])), ValueError, "read-only"),
], ids=["empty", "2-d", "nan", "inf", "set-attribute", "write-entry"])
def test_kernel_vector_refusals_and_immutability(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_norm_formulas_match_parseval():
    """h1 = pi sqrt(sum j^2 xi^2) and l2 = (pi/sqrt 2) sqrt(sum xi^2)."""
    rng = np.random.default_rng(10)
    xi = rng.standard_normal(5)
    v = kernel.KernelVector(xi)
    j = np.arange(1, 6)
    assert abs(v.h1() - np.pi * np.sqrt(np.sum(j**2 * xi**2))) < 1e-13
    assert abs(v.l2() - (np.pi / np.sqrt(2.0)) * np.sqrt(np.sum(xi**2))) < 1e-13
    u = kernel.embed(v)
    assert abs(v.h1() ** 2 - fields.inner_h1(u, u)) < 1e-11
    assert abs(v.l2() ** 2 - fields.inner_l2(u, u)) < 1e-11


def test_travelling_wave_identity():
    """embed(v)(t, x) = eta(t+x) - eta(t-x) with eta the odd profile of v."""
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(4) / np.arange(1, 5) ** 2
    v = kernel.KernelVector(xi)
    u = kernel.embed(v)
    t = rng.uniform(0.0, 2.0 * np.pi, size=9)
    x = rng.uniform(0.0, np.pi, size=9)
    vals = np.array([fields.eval_field(u, t[i], x[i])[0, 0] for i in range(9)])
    want = eta(v, t + x) - eta(v, t - x)
    assert np.max(np.abs(vals - want)) < 1e-13


def test_eta_power_spectrum_against_quadrature():
    """Means, sine and cosine coefficients of eta^i match a dense trapezoid sum."""
    rng = np.random.default_rng(14)
    v = kernel.KernelVector(rng.standard_normal(5) / np.arange(1, 6))
    # an odd top power: its sine coefficients need every node
    moments, sines, cosines = kernel.eta_power_spectrum(v, 5)
    assert moments.shape == (6,) and sines.shape == (6, 5) and cosines.shape == (5, 11)
    s = 2.0 * np.pi * np.arange(512) / 512
    vals = eta(v, s)
    for i in range(6):
        assert abs(moments[i] - np.mean(vals**i)) < 1e-14
        for j in range(1, 6):
            assert abs(sines[i, j - 1] - np.mean(vals**i * np.sin(j * s))) < 1e-14
    # the cosines reach m = 2 dim, past the rfft's last mode, for i < kmax
    for i in range(5):
        for m in range(11):
            assert abs(cosines[i, m] - np.mean(vals**i * np.cos(m * s))) < 1e-14
    assert np.array_equal(cosines[:, 0], moments[:5])
    # eta^0 = 1 and eta = sum (xi_j / 2) sin(j s): S_j(eta) = xi_j / 4
    assert moments[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(sines[1] - v.xi / 4.0)) < 1e-15


def test_rescale_moves_support_and_scales_h1():
    v = kernel.KernelVector([1.0, 0.0, 0.3])
    v3 = kernel.rescale(v, 3)
    assert len(v3) == 9
    assert v3.xi[2] == 1.0 and v3.xi[8] == 0.3
    assert np.count_nonzero(v3.xi) == 2
    assert abs(v3.h1() - 3.0 * v.h1()) < 1e-13
    assert abs(v3.l2() - v.l2()) < 1e-13
    with pytest.raises(ResowaveError):
        kernel.rescale(v, 0)


def test_rescale_is_time_dilation():
    """(L_n v)(t, x) = eta_n(t+x) - eta_n(t-x) with eta_n(s) = eta(n s)."""
    rng = np.random.default_rng(12)
    xi = rng.standard_normal(3)
    v = kernel.KernelVector(xi)
    vn = kernel.rescale(v, 2)
    s = rng.uniform(0.0, 2.0 * np.pi, size=11)
    assert np.max(np.abs(eta(vn, s) - eta(v, 2 * s))) < 1e-13


def test_minimal_time_period_index():
    v = kernel.KernelVector([1.0, 0.0, 0.5])
    assert kernel.minimal_time_period_index(v) == 1
    assert kernel.minimal_time_period_index(kernel.rescale(v, 2)) == 2
    assert kernel.minimal_time_period_index(kernel.rescale(v, 5)) == 5
    only6 = kernel.KernelVector([0, 0, 0, 0, 0, 1.0])
    assert kernel.minimal_time_period_index(only6) == 6
    mixed = kernel.KernelVector([0, 0, 1.0, 0, 0, 0.2, 0, 0, 0.1])
    assert kernel.minimal_time_period_index(mixed) == 3
    # every nonzero entry counts, however small: none is silently dropped
    assert kernel.minimal_time_period_index(kernel.KernelVector([1e-12, 1.0])) == 1


@pytest.mark.parametrize("dim", [1, 2, 7])
def test_embed_is_the_loop_bit_for_bit(dim):
    # the (dim + 1, dim) field with xi_j at (j, j - 1), as a loop writes it
    xi = np.random.default_rng(dim).standard_normal(dim)
    xi[0] = -0.0
    c = np.zeros((dim + 1, dim))
    for j in range(1, dim + 1):
        c[j, j - 1] = xi[j - 1]
    assert kernel.embed(kernel.KernelVector(xi)).coeffs.tobytes() == c.tobytes()


def test_projections_split_fields():
    rng = np.random.default_rng(13)
    arr = rng.standard_normal((5, 5))
    u = fields.SpectralField(arr)
    v = kernel.KernelVector(fields.diagonal_of(u))
    w = fields.zero_diagonal(u)
    back = kernel.embed(v) + w
    assert np.max(np.abs(back.padded(4, 5) - arr)) < 1e-14
    assert np.all(fields.diagonal_of(w) == 0.0)
    # projection of a pure range field has no kernel part
    assert np.all(kernel.KernelVector(fields.diagonal_of(w)).xi == 0.0)


def test_normalize_sign():
    v = kernel.KernelVector([0.0, -0.3, 0.8])
    n1 = kernel.normalize_sign(v)
    assert n1.xi[1] > 0.0
    n2 = kernel.normalize_sign(kernel.KernelVector(-v.xi))
    assert np.all(n1.xi == n2.xi)
    assert np.all(kernel.normalize_sign(n1).xi == n1.xi)
