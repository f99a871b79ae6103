import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dendrifam.rationals import exact, parse_coefficient, parse_integer

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


@pytest.mark.parametrize("text, value", [("7", 7), (" -12 ", -12), ("+3", 3), ("007", 7)])
def test_parse_integer(text, value):
    assert parse_integer(text, "n") == value


@pytest.mark.parametrize("text", ["", "x", "1.5", "1_0", "1 0", "--1",
                                  "\u0663", "\uff17", "\u00b2"])
def test_parse_integer_takes_ascii_digits_only(text):
    # int() takes '1_0' and the Arabic-Indic and fullwidth digits
    with pytest.raises(ValueError, match="^n must be an integer$"):
        parse_integer(text, "n")


@pytest.mark.parametrize("text", ["\u0663", "1_0", "1/\u0663", "+1", "1 /2", "1/+2"])
def test_parse_coefficient_takes_ascii_digits_only(text):
    with pytest.raises(ValueError, match="^weight must be a rational$"):
        parse_coefficient(text, "weight")


def test_parse_coefficient_refuses_a_zero_denominator_naming_its_field():
    with pytest.raises(ValueError, match="^coefficient has a zero denominator$"):
        parse_coefficient("-3/000")


def test_every_digit_run_is_checked_against_the_limit_read_at_the_call(monkeypatch):
    # a run past the limit is refused before int() sees it, and never echoed
    limit = sys.get_int_max_str_digits()
    long = "9" * (limit + 1)
    for text in (long, "-" + long, "1/" + long, long + "/2"):
        with pytest.raises(ValueError, match=f"^c has more than {limit} digits$"):
            parse_coefficient(text, "c")
    with pytest.raises(ValueError, match=f"^n has more than {limit} digits$"):
        parse_integer("+" + long, "n")
    assert parse_integer("9" * limit, "n") == 10 ** limit - 1
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3)
    assert parse_coefficient("-999/999", "c") == -1
    with pytest.raises(ValueError, match="^c has more than 3 digits$"):
        parse_coefficient("1/1000", "c")
    with pytest.raises(ValueError, match="^n has more than 3 digits$"):
        parse_integer("1000", "n")


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
