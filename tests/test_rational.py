from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from medburn.rational import format_decimal, format_fraction, rat


def test_parse_forms():
    assert rat(3) == 3
    assert rat("3") == 3
    assert rat("-7/3") == Fraction(-7, 3)
    assert rat("0.25") == Fraction(1, 4)
    assert rat("0.1") == Fraction(1, 10)  # exact decimal, not binary float
    assert rat(Fraction(6, 8)) == Fraction(3, 4)
    assert rat(6, 8) == Fraction(3, 4)


def test_fraction_passes_through_and_other_forms_convert():
    q = Fraction(6, 8)
    assert rat(q) is q
    for value, expected in ((3, Fraction(3)), (-4, Fraction(-4)), ("-7/3", Fraction(-7, 3)),
                            (" 12/8 ", Fraction(3, 2)), ("0.25", Fraction(1, 4)),
                            ("-1.5", Fraction(-3, 2))):
        got = rat(value)
        assert type(got) is Fraction and got == expected
    assert rat(q, 3) == Fraction(1, 4) and rat(q, 3) is not q


def test_lowest_terms_and_sign():
    q = rat(6, -8)
    assert int(q.numerator) == -3
    assert int(q.denominator) == 4


def test_reject_bad_input():
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(ValueError):
        rat("one half")
    with pytest.raises(TypeError):
        rat(0.25)  # binary floats are refused
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0)
anyint = st.integers(min_value=-10**6, max_value=10**6)


@given(anyint, nonzero, anyint, nonzero)
def test_addition_matches_cross_multiplication(a, b, c, d):
    assert rat(a, b) + rat(c, d) == rat(a * d + c * b, b * d)


@given(anyint, nonzero)
def test_format_fraction_round_trips(a, b):
    q = rat(a, b)
    assert rat(format_fraction(q)) == q


def test_format_decimal_round_half_even():
    assert format_decimal(rat(1, 4), 1) == "0.2"  # 0.25 rounds to even
    assert format_decimal(rat(3, 4), 1) == "0.8"  # 0.75 rounds to even
    assert format_decimal(rat(-1, 4), 1) == "-0.2"
    assert format_decimal(rat(1, 3)) == "0.333333333333"
    assert format_decimal(rat(2, 3)) == "0.666666666667"
    assert format_decimal(rat(5), 0) == "5"
    assert format_decimal(rat(-7, 2), 0) == "-4"  # -3.5 to even
