from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dendrifam.rationals import exact, parse_coefficient

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


def test_canonical_form_uniqueness():
    a, b = Fraction(2, 4), Fraction(1, 2)
    assert a == b
    assert (a.numerator, a.denominator) == (b.numerator, b.denominator)
    assert str(a) == str(b) == "1/2"


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@given(rationals)
def test_inverses(a):
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(rationals)
def test_invariants(a):
    from math import gcd
    assert a.denominator >= 1
    assert gcd(abs(a.numerator), a.denominator) == 1


@pytest.mark.parametrize("text,value", [
    ("3", Fraction(3)),
    ("-2/5", Fraction(-2, 5)),
    ("0", Fraction(0)),
    ("2/4", Fraction(1, 2)),
])
def test_parse(text, value):
    assert parse_coefficient(text) == value


@given(rationals)
def test_format_parse_round_trip(a):
    assert parse_coefficient(str(a)) == a


@pytest.mark.parametrize("text", ["", "x", "1.5", "1/0", "--1", "1/-2"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_coefficient(text)


@given(rationals)
def test_exact_is_int_exactly_when_integral(a):
    c = exact(a)
    assert c == a and str(c) == str(a)
    assert (type(c) is int) == (a.denominator == 1)
    assert type(exact(c)) is type(c)


def test_exact_keeps_a_canonical_fraction():
    assert exact(Fraction(6, 3)) == 2 and type(exact(Fraction(6, 3))) is int
    half = Fraction(1, 2)
    assert exact(half) is half


def test_exact_converts_other_rationals():
    class Sub(Fraction):
        pass

    assert type(exact(Sub(1, 2))) is Fraction and exact(Sub(1, 2)) == Fraction(1, 2)
    assert type(exact(Sub(4, 2))) is int and exact(Sub(4, 2)) == 2
    assert type(exact(True)) is int and exact(True) == 1
    assert exact(0.5) == Fraction(1, 2)
