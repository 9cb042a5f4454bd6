"""Exact rational-function arithmetic."""

import random
from fractions import Fraction

import pytest

from dnbrackets.errors import ParseError
from dnbrackets.sampling import random_scalar
from dnbrackets.scalar import Scalar, parse_scalar, partial_u, scalar_arith

from conftest import S


def test_construct_and_cancel():
    # (u1^2 - 1) / (u1 - 1) reduces to u1 + 1
    a = S("(u1^2 - 1)/(u1 - 1)")
    assert a == S("u1 + 1")
    assert str(a) == "u1 + 1"


def test_field_axioms_on_random_samples():
    rng = random.Random(11)
    for _ in range(60):
        a = random_scalar(rng, 3)
        b = random_scalar(rng, 3)
        c = random_scalar(rng, 3)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Scalar.zero()
        if not b.is_zero:
            assert (a / b) * b == a


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        S("1") / Scalar.zero()


def test_power_and_negation():
    u = Scalar.coordinate(1)
    assert u**3 == u * u * u
    assert (-u) * (-u) == u**2
    assert u**0 == Scalar.one()


def test_fraction_coercion():
    assert Scalar.from_fraction(Fraction(3, 4)) + Fraction(1, 4) == Scalar.one()
    half = Scalar.from_fraction(Fraction(1, 2))
    assert half.is_fraction()
    assert half.as_fraction() == Fraction(1, 2)
    assert not Scalar.coordinate(2).is_fraction()


def test_parse_print_round_trip():
    rng = random.Random(23)
    for _ in range(80):
        a = random_scalar(rng, 3)
        assert parse_scalar(str(a)) == a


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_scalar("u1 + ")
    with pytest.raises(ParseError):
        parse_scalar("(u1")
    with pytest.raises(ParseError):
        parse_scalar("u0")  # coordinates are 1-based


def test_scalar_arith_dispatch():
    a, b = S("u1 + 1"), S("u2")
    assert scalar_arith(a, b, "add") == a + b
    assert scalar_arith(a, b, "sub") == a - b
    assert scalar_arith(a, b, "mul") == a * b
    assert scalar_arith(a, b, "div") == a / b
    assert scalar_arith(a, None, "neg") == -a
    with pytest.raises(ValueError):
        scalar_arith(a, b, "pow")


def test_partial_linearity_and_leibniz():
    rng = random.Random(5)
    for _ in range(40):
        a = random_scalar(rng, 2)
        b = random_scalar(rng, 2)
        for i in (1, 2):
            assert partial_u(a + b, i) == partial_u(a, i) + partial_u(b, i)
            assert partial_u(a * b, i) == partial_u(a, i) * b + a * partial_u(b, i)


def test_partial_quotient_rule():
    a = S("u1^2/u2")
    assert a.partial(1) == S("2*u1/u2")
    assert a.partial(2) == S("-u1^2/u2^2")
    assert a.partial(3) == Scalar.zero()


def test_substitution():
    a = S("u1*u2 + u2^2")
    assert a.subs({1: S("u2")}) == S("2*u2^2")
    assert a.subs({1: Scalar.one(), 2: Scalar.one()}) == S("2")


def test_equality_is_canonical():
    assert S("u1/u1") == Scalar.one()
    assert S("(2*u1)/(2*u2)") == S("u1/u2")
    assert S("1/2 + 1/3") == S("5/6")
    assert hash(S("u1 + u2")) == hash(S("u2 + u1"))


def test_arithmetic_matches_sympy_oracle():
    """+, -, *, / and partial agree with sympy.cancel and come out in lowest terms."""
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u1:4")

    def poly(p):
        monomials = (
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(u[v - 1] ** e for v, e in m))
            for m, c in p.items()
        )
        return sympy.Add(*monomials)

    rng = random.Random(5)
    for _ in range(40):
        a, b = random_scalar(rng, 3), random_scalar(rng, 3)
        A, B = poly(a.num) / poly(a.den), poly(b.num) / poly(b.den)
        cases = [(a + b, A + B), (a - b, A - B), (a * b, A * B)]
        cases += [(a.partial(i), sympy.diff(A, u[i - 1])) for i in (1, 2, 3)]
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            cases.append((a / b, A / B))
        for got, want in cases:
            want_num, want_den = sympy.fraction(sympy.cancel(want))
            # equal denominators up to a constant: got is reduced as far as sympy's
            ratio = sympy.cancel(poly(got.den) / want_den)
            assert ratio.is_number and ratio != 0, (got, want)
            assert sympy.expand(poly(got.num) - ratio * want_num) == 0, (got, want)
