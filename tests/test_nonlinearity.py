"""Classification of nonlinearities into the four covered cases."""

import numpy as np
import pytest

from resowave import nonlinearity
from resowave.errors import ClassificationError


def test_pure_odd_power():
    f = nonlinearity.classify([0.0, 0.0, 0.0, 1.0])
    assert f.case == "odd-power"
    assert (f.p, f.q, f.a) == (3, 3, 1.0)


def test_negative_odd_power_keeps_sign():
    f = nonlinearity.classify({5: -2.0})
    assert f.case == "odd-power"
    assert (f.p, f.q, f.a) == (5, 5, -2.0)


def test_pure_even_power_is_quadratic_case():
    f = nonlinearity.classify([0.0, 0.0, 1.0])
    assert f.case == "n2"
    assert (f.p, f.a) == (2, 1.0)
    assert f.q == 3                      # 2p - 1
    f4 = nonlinearity.classify({4: 0.5})
    assert f4.case == "n2" and f4.q == 7


def test_low_odd_term_dominates():
    # even leading power with an odd term strictly below 2p - 1
    f = nonlinearity.classify({4: 1.0, 5: 0.25})
    assert f.case == "n1"
    assert (f.p, f.d, f.q, f.b) == (4, 5, 5, 0.25)


def test_boundary_odd_term_is_mixed_case():
    # d = 2p - 1 exactly: competition between the two leading mechanisms
    f = nonlinearity.classify({2: 1.0, 3: 0.5})
    assert f.case == "n3"
    assert (f.p, f.d, f.b) == (2, 3, 0.5)
    assert f.q == 3


def test_even_terms_between_do_not_matter():
    f = nonlinearity.classify({2: 1.0, 4: 3.0})
    assert f.case == "n2" and f.p == 2
    g = nonlinearity.classify({4: 1.0, 6: -1.0, 5: 0.1})
    assert g.case == "n1" and g.d == 5


def test_rejects_degenerate_inputs():
    with pytest.raises(ClassificationError):
        nonlinearity.classify([])
    with pytest.raises(ClassificationError):
        nonlinearity.classify([0.0, 0.0])
    with pytest.raises(ClassificationError):
        nonlinearity.classify([0.0, 1.0, 1.0])     # linear term
    with pytest.raises(ClassificationError):
        nonlinearity.classify([1.0, 0.0, 1.0])     # constant term
    with pytest.raises(ClassificationError):
        nonlinearity.classify({1: 1.0})
    with pytest.raises(ClassificationError):
        nonlinearity.classify({})


def test_term_order_ceiling():
    top = nonlinearity.MAX_ORDER
    assert len(nonlinearity.classify({3: 1.0, top: 1.0}).poly) - 1 == top
    assert len(nonlinearity.classify([0.0] * top + [1.0]).poly) - 1 == top
    # refused before any array is sized by the order
    for coeffs in ({top + 1: 1.0}, {10**15: 1.0}, [0.0] * (top + 1) + [1.0]):
        with pytest.raises(ClassificationError, match="order"):
            nonlinearity.classify(coeffs)


def test_fprime_and_primitive_are_consistent():
    f = nonlinearity.classify({2: 1.0, 3: -0.5})
    poly = np.asarray(f.poly)
    dpoly = np.asarray(f.fprime)
    Fpoly = np.asarray(f.primitive)
    x = np.linspace(-0.7, 0.7, 11)
    fx = np.polynomial.polynomial.polyval(x, poly)
    h = 1e-6
    fd = (
        np.polynomial.polynomial.polyval(x + h, Fpoly)
        - np.polynomial.polynomial.polyval(x - h, Fpoly)
    ) / (2 * h)
    assert np.max(np.abs(fd - fx)) < 1e-8
    dfd = (
        np.polynomial.polynomial.polyval(x + h, poly)
        - np.polynomial.polynomial.polyval(x - h, poly)
    ) / (2 * h)
    assert np.max(np.abs(dfd - np.polynomial.polynomial.polyval(x, dpoly))) < 1e-8


def test_parse_coeff_string():
    d = nonlinearity.parse_coeff_string("3=1.0,5=-0.25")
    assert d == {3: 1.0, 5: -0.25}
    assert nonlinearity.parse_coeff_string("2:1") == {2: 1.0}
    with pytest.raises(ClassificationError):
        nonlinearity.parse_coeff_string("3=1,3=2")
    with pytest.raises(ClassificationError):
        nonlinearity.parse_coeff_string("nope")
    with pytest.raises(ClassificationError):
        nonlinearity.parse_coeff_string("")


def test_describe_mentions_case():
    f = nonlinearity.classify({2: 1.0, 3: 0.5})
    text = f.describe()
    assert "n3" in text and "p = 2" in text
