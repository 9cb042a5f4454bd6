"""Expression grammar: precedence, jets, and error reporting."""

import time
from fractions import Fraction
from math import comb

import pytest

from dnbrackets.diffpoly import DiffPoly
from dnbrackets.errors import ParseError
from dnbrackets.grammar import MAX_DIGITS, MAX_PRODUCT_TERMS, parse_expression
from dnbrackets.scalar import Scalar, parse_scalar

from conftest import S


def test_precedence_and_parentheses():
    assert parse_expression("1 + 2*3") == DiffPoly.from_fraction(7)
    assert parse_expression("(1 + 2)*3") == DiffPoly.from_fraction(9)
    assert parse_expression("2^3") == DiffPoly.from_fraction(8)
    assert parse_expression("8/4/2") == DiffPoly.from_fraction(1)
    with pytest.raises(ParseError):
        parse_expression("2^3^1")  # exponent chains need parentheses


def test_unary_minus():
    assert parse_expression("-u1") == DiffPoly.coordinate(1) * S("-1")
    assert parse_expression("-(u1 - u2)") == parse_expression("u2 - u1")
    assert parse_expression("3 - (-2)") == DiffPoly.from_fraction(5)
    with pytest.raises(ParseError):
        parse_expression("3 - -2")  # unary minus only at the front


def test_jet_variables():
    assert parse_expression("u2_1") == DiffPoly.jet(2, 1)
    assert parse_expression("u2_0") == DiffPoly.coordinate(2)
    p = parse_expression("u1_1^2*u2")
    assert p == DiffPoly.jet(1, 1) * DiffPoly.jet(1, 1) * DiffPoly.coordinate(2)


def test_powers_by_squaring():
    x = parse_expression("u1 + 2*u2_1")
    assert parse_expression("(u1 + 2*u2_1)^5") == x * x * x * x * x
    assert parse_expression("(u1 + 2*u2_1)^0") == DiffPoly.one()
    # a huge exponent costs a few dozen squarings, not 10^8 multiplications
    t0 = time.perf_counter()
    big = parse_expression("u1^100000000")
    assert time.perf_counter() - t0 < 1.0
    assert big == DiffPoly.from_scalar(Scalar({((1, 100000000),): Fraction(1)}))


def test_product_bound():
    # 256 terms times 16 terms is exactly MAX_PRODUCT_TERMS
    value = parse_expression("(1+u1)^255*(1+u1)^15").to_scalar()
    assert value.num[((1, 135),)] == comb(270, 135) and len(value.num) == 271
    # a quotient is bounded like a product (the CLI tests cover longer products)
    t0 = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_expression("(u1+u2)^100/(1+u1)^100")
    assert time.perf_counter() - t0 < 2.0
    assert f"over {MAX_PRODUCT_TERMS} products" in str(info.value)


def test_integer_digit_bound():
    assert parse_expression("9" * MAX_DIGITS) == DiffPoly.from_fraction(10**MAX_DIGITS - 1)
    assert parse_expression("2^3000") == DiffPoly.from_fraction(2**3000)  # 904 digits
    for text, at in (
        ("u1 + " + "9" * (MAX_DIGITS + 1), 5),  # a literal
        ("2^3000*2^3000", 6),  # a product
        ("2^3000 + 1/3^1900", 7),  # a sum whose terms are each in bounds
        ("1/2^3000/3^1900", 8),  # a quotient
        ("3^2200", 2),  # a power found too large once computed
    ):
        with pytest.raises(ParseError, match=f"over {MAX_DIGITS} digits") as info:
            parse_expression(text)
        assert f"position {at}" in str(info.value), text
    # a power that surely has too many digits is refused before it is computed
    t0 = time.perf_counter()
    for text in ("2^20000", "2^14000*2^14000*u1", "(3*u1)^99999999999999999999"):
        with pytest.raises(ParseError, match=f"over {MAX_DIGITS} digits"):
            parse_expression(text)
    assert time.perf_counter() - t0 < 0.5


def test_digit_bound_reads_no_fraction_view(monkeypatch):
    def unreachable(self):
        raise AssertionError("the digit bound built a Fraction view")

    monkeypatch.setattr(Scalar, "num", property(unreachable))
    monkeypatch.setattr(Scalar, "den", property(unreachable))
    value = parse_expression("(u1 + 2/3*u2)^3/(7*u1 - u2) + 5/6*u1_2 - 2^3000")
    with pytest.raises(ParseError, match=f"over {MAX_DIGITS} digits"):
        parse_expression("2^3000 + 1/3^1900")
    monkeypatch.undo()
    assert value == parse_expression("5/6*u1_2 - 2^3000 + (u1 + 2/3*u2)^3/(7*u1 - u2)")


def test_rational_coefficients():
    assert parse_expression("1/2*u1_1") == DiffPoly.jet(1, 1) * S("1/2")
    assert parse_expression("u1/u2") == DiffPoly.from_scalar(S("u1/u2"))


def test_division_by_jets_rejected():
    with pytest.raises(ParseError):
        parse_expression("1/u1_1")
    with pytest.raises(ParseError):
        parse_expression("u1/(u2_3)")


def test_division_by_zero_rejected():
    for text in ("u1/0", "u1/(u2 - u2)"):
        with pytest.raises(ParseError, match="division by zero"):
            parse_expression(text)


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expression("u1 + $")
    assert "position 5" in str(info.value)
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("u1 u2")  # missing operator
    with pytest.raises(ParseError):
        parse_expression("u1^u2")  # exponent must be an integer


def test_deep_nesting_is_a_parse_error():
    assert parse_expression("(" * 50 + "u1" + ")" * 50) == DiffPoly.coordinate(1)
    for depth in (250, 100_000):
        with pytest.raises(ParseError, match="parentheses nested too deeply"):
            parse_expression("(" * depth + "u1" + ")" * depth)


def test_parse_scalar_rejects_jets():
    assert parse_scalar("u1 + 1/u2") == S("u1 + 1/u2")
    with pytest.raises(ParseError):
        parse_scalar("u1_1")
