"""Exact polynomial coefficients in the symbols used for symbolic series work."""

from fractions import Fraction

import pytest

from bggx.coefpoly import CoefPoly, hq_poly


def test_basic_arithmetic():
    h, q = hq_poly()
    p = (h + q) * (h - q)
    assert p == h * h - q * q
    assert (h + 1) * (h - 1) == h * h - 1
    assert p.evaluate(h=3, q=2) == 5


def test_scalar_interop():
    h, q = hq_poly()
    p = 2 * h + q * 3 - 1
    assert p.evaluate(h=1, q=1) == 4
    assert (p - p).is_zero()
    assert not (p - p)
    assert p / 2 == h + q * Fraction(3, 2) - Fraction(1, 2)


def _total_degree(p):
    """Largest total degree of a term of p; 0 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=0)


def test_power_and_degree():
    h, q = hq_poly()
    p = (h + q) ** 3
    assert _total_degree(p) == 3
    assert p.evaluate(h=1, q=1) == 8
    assert (h**0) == 1


def test_constant_detection():
    h, _ = hq_poly()
    five = CoefPoly.constant(5, ("h", "q"))
    assert five.is_constant() and five.constant_value() == 5
    assert not h.is_constant()
    with pytest.raises(ValueError):
        h.constant_value()


def test_string_form_sorted_by_degree():
    h, q = hq_poly()
    p = h * h * Fraction(1, 2) - h * 3 + q + 7
    s = str(p)
    assert s == "1/2*h^2 - 3*h + q + 7"
    assert str(CoefPoly(("h", "q"))) == "0"


def test_evaluate_requires_all_symbols():
    h, _ = hq_poly()
    with pytest.raises(ValueError):
        h.evaluate(q=1)


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        CoefPoly.variable("x", ("h", "q"))
