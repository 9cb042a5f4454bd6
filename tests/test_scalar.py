"""Exact rational-function arithmetic."""

import ast
import copy
import glob
import json
import os
import random
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest

from dnbrackets.cli import main
from dnbrackets.errors import ParseError
from dnbrackets.sampling import random_polynomial, random_scalar
from dnbrackets import scalar
from dnbrackets.diffpoly import DiffPoly
from dnbrackets.jacobi import apply_DP
from dnbrackets.lowdegree import potemin_build
from dnbrackets.scalar import (
    _FACTOR_MEMO,
    _PARTIAL_MEMO,
    Scalar,
    _cancel_terms,
    _certify,
    _collect,
    _expand,
    _factored,
    _partial,
    _mono_key,
    _mono_mul,
    _plead,
    _pmul,
    _pderiv,
    _pneg,
    _ppow,
    _printed_bits,
    _prs,
    _psub,
    _reduce,
    _rescale,
    _sum_products,
    _zeval,
    _zgcd,
    parse_scalar,
    partial_u,
    scalar_arith,
)

from conftest import S, cold_scalar_memos, fixture_path, nonflat2_data


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


@pytest.mark.parametrize("q", [0, 1, -2, Fraction(1, 2)])
def test_constant_scalars_hash_like_the_numbers_they_equal(q):
    c = Scalar.from_fraction(q)
    assert c == q and hash(c) == hash(q) == hash(Fraction(q))
    assert q in {c} and c in {q} and Fraction(q) in {c}
    assert {c: "scalar"}[q] == "scalar"


U = ("u1", "u2", "u3")


def sympy_poly(sympy, p):
    """A sparse Fraction term dict as a sympy expression in u1, u2, u3."""
    u = sympy.symbols(U)
    monomials = (
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(u[v - 1] ** e for v, e in m))
        for m, c in p.items()
    )
    return sympy.Add(*monomials)


def sympy_terms(sympy, expr):
    """A sympy polynomial in u1, u2, u3 as a sparse Fraction term dict."""
    terms = sympy.Poly(expr, *sympy.symbols(U)).terms()
    return {
        tuple((v + 1, e) for v, e in enumerate(exps) if e): Fraction(int(c.p), int(c.q))
        for exps, c in terms
    }


def sympy_canonical(sympy, expr):
    """(num, den) of sympy.cancel(expr), scaled so den's grlex-leading coefficient is 1.

    grlex with u1 > u2 > u3 is the order Scalar normalizes its denominators in.
    """
    num, den = sympy.fraction(sympy.cancel(expr))
    lc = sympy.Poly(den, *sympy.symbols(U)).LC(order="grlex")
    return sympy_terms(sympy, num / lc), sympy_terms(sympy, den / lc)


def test_arithmetic_matches_sympy_oracle():
    """+, -, *, / and partial agree with sympy.cancel and come out in lowest terms."""
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols(U)

    def poly(p):
        return sympy_poly(sympy, p)

    rng = random.Random(5)
    for _ in range(40):
        a, b = random_scalar(rng, 3), random_scalar(rng, 3)
        A, B = poly(a.num) / poly(a.den), poly(b.num) / poly(b.den)
        cases = [(a + b, A + B), (a - b, A - B), (a * b, A * B), (2 - a, 2 - A)]
        cases += [(a.partial(i), sympy.diff(A, u[i - 1])) for i in (1, 2, 3)]
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            cases.append((a / b, A / B))
        if not a.is_zero:
            cases += [(3 / a, 3 / A), (a**-2, A**-2)]
        for got, want in cases:
            want_num, want_den = sympy.fraction(sympy.cancel(want))
            # equal denominators up to a constant: got is reduced as far as sympy's
            ratio = sympy.cancel(poly(got.den) / want_den)
            assert ratio.is_number and ratio != 0, (got, want)
            assert sympy.expand(poly(got.num) - ratio * want_num) == 0, (got, want)


def test_constant_factor_matches_the_reducing_product():
    """A constant factor skips the gcd, yet gives the reduced product and sympy's form."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(29)
    for q in (Scalar.one(), Scalar.from_fraction(-1), Scalar.from_fraction(Fraction(2, 3))):
        Q = sympy.Rational(q.as_fraction().numerator, q.as_fraction().denominator)
        for _ in range(30):
            num, den = random_polynomial(rng, 3, terms=3), random_polynomial(rng, 3, terms=3)
            if num.is_zero or den.is_zero:
                continue
            a = num / den
            reduced = Scalar(_pmul(a.num, q.num), _pmul(a.den, q.den))
            want = sympy_canonical(sympy, Q * sympy_poly(sympy, a.num) / sympy_poly(sympy, a.den))
            for got in (a * q, q * a):
                assert got == reduced and (got.num, got.den) == want, (a, q)


def test_reduction_is_sympy_canonical_form():
    """Both gcd paths leave exactly sympy's reduced num/den, den's leading coefficient 1.

    Half the draws divide by a single term (the exponent-minimum gcd); the
    others share a polynomial factor between numerator and denominator (the
    integer heuristic gcd).
    """
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    for k in range(60):
        a, b, c = (random_polynomial(rng, 3, terms=3, deg=3) for _ in range(3))
        if a.is_zero or b.is_zero or c.is_zero:
            continue
        if k % 2:
            b = Scalar(dict([next(iter(b.num.items()))]))
            got = a / b
        else:
            got = (a * c) / (b * c)
        want = sympy_canonical(sympy, sympy_poly(sympy, a.num) / sympy_poly(sympy, b.num))
        assert (got.num, got.den) == want, (a, b)


def test_prs_fallback_agrees_with_heuristic():
    """The integer PRS that GCDHEU falls back to finds the same gcd, with exact cofactors.

    Besides the random draws, one pair shares the content u2 + 1 in Z[u2],
    and in the other the main variable u1 is missing from one operand, whose
    remainder sequence then stops at degree 0.
    """
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    pairs = [
        (S("(u2 + 1)*(u1 + u2)").num, S("(u2 + 1)*(u1 - u2)").num),
        (S("(u1 + u2)*(u2 - u3)").num, S("u2^2 - u3^2").num),
    ]
    for _ in range(30):
        a, b, c = (random_polynomial(rng, 3, terms=3, deg=2) for _ in range(3))
        if not (a.is_zero or b.is_zero or c.is_zero):
            pairs.append(((a * c).num, (b * c).num))
    for f, g in pairs:
        f, g = _split_content(f)[1], _split_content(g)[1]
        if not (f.keys() - {()} and g.keys() - {()}):
            continue  # the PRS takes nonconstant operands
        h, qf, qg = _prs(f, g)
        assert _pmul(h, qf) == f and _pmul(h, qg) == g, (f, g)
        heu = _zgcd(f, g)[0]
        want = sympy_terms(sympy, sympy.gcd(sympy_poly(sympy, f), sympy_poly(sympy, g)))
        assert h in (heu, _pneg(heu)) and h in (want, _pneg(want)), (f, g)


def test_heuristic_gcd_skips_vanishing_images():
    """An evaluation point that is a root of the operand of larger norm is skipped.

    The first point is 2*min(max-norms) + 29.  Each numerator here vanishes
    at u1 = 31 (or 33), and the second one also at the next point, 169.
    """
    cases = {
        "(u1*u2 + u1 - 31*u2 - 31)/(u1 + u2)": "(u1*u2 + u1 - 31*u2 - 31)/(u1 + u2)",
        "((u1 - 31)*(u1 - 169)*(u2 + 1))/(u1 + u2)":
            "(u1^2*u2 + u1^2 - 200*u1*u2 - 200*u1 + 5239*u2 + 5239)/(u1 + u2)",
        "((u1 - 33)*(u2 + 1)*(u1 + u2 + 1))/((u1 + u2)*(u1 + u2 + 1))":
            "(u1*u2 + u1 - 33*u2 - 33)/(u1 + u2)",
    }
    try:
        import sympy
    except ImportError:
        sympy = None
    for text, reduced in cases.items():
        got = parse_scalar(text)
        assert str(got) == reduced
        if sympy is not None:
            want = sympy.sympify(text, locals=dict(zip(U, sympy.symbols(U))))
            assert (got.num, got.den) == sympy_canonical(sympy, want), text


def test_pathological_gcds_finish_quickly():
    """(a*c)/(b*c) + a/c on the random draws that used to run for minutes."""
    rng = random.Random(0)
    draws = {}
    for i in range(200):
        a, b, c = (random_polynomial(rng, 3, terms=3, deg=3) for _ in range(3))
        if not (a.is_zero or b.is_zero or c.is_zero):
            draws[i] = a, b, c
    try:
        import sympy
    except ImportError:
        sympy = None
    for i in (109, 190, 196):
        a, b, c = draws[i]
        start = time.perf_counter()
        got = (a * c) / (b * c) + a / c
        assert time.perf_counter() - start < 2.0, i
        if sympy is not None:
            A, B, C = (sympy_poly(sympy, x.num) for x in (a, b, c))
            assert (got.num, got.den) == sympy_canonical(sympy, A / B + A / C), i


def dense_key(m, nvars):
    """The graded-lex key as a dense exponent vector over u1..u_nvars: the oracle
    for the sparse _mono_key."""
    exps = dict(m)
    return sum(exps.values()), tuple(exps.get(v, 0) for v in range(1, nvars + 1))


def test_sparse_monomial_key_orders_like_the_dense_one():
    rng = random.Random(89)

    def draw():
        chosen = rng.sample(range(1, 6), rng.randint(0, 3))
        return tuple(sorted((v, rng.randint(1, 3)) for v in chosen))

    monos = [draw() for _ in range(80)]
    same_degree = 0
    for m1 in monos:
        for m2 in monos:
            assert (_mono_key(m1) < _mono_key(m2)) == (dense_key(m1, 5) > dense_key(m2, 5))
            assert (_mono_key(m1) == _mono_key(m2)) == (m1 == m2)
            same_degree += m1 != m2 and dense_key(m1, 5)[0] == dense_key(m2, 5)[0]
    assert same_degree > 300  # distinct monomials that only the exponents order
    for _ in range(30):
        p = random_polynomial(rng, 5, terms=5, deg=3).num
        assert _plead(p)[0] == max(p, key=lambda m: dense_key(m, 5))
    # printing follows the same order, whatever the variable indices
    far = S("u1 + u2^2 + u1*u3 + u3^2*u10000000 + u2*u3^2")
    assert str(far) == "u2*u3^2 + u3^2*u10000000 + u1*u3 + u2^2 + u1"


def mono_mul_oracle(m1, m2):
    """The monomial product as a dict of exponents, sorted back into pairs."""
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def test_monomial_merge_matches_the_sorted_dict_product():
    """_mono_mul's merge of two sorted pair tuples against the dict-and-sort
    product, on Scalar monomials (int variables) and on DiffPoly even keys
    ((i, s) variables), empty monomials and shared variables among them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def monomials(variables):
        return st.dictionaries(variables, st.integers(1, 5), max_size=4).map(
            lambda exps: tuple(sorted(exps.items())))

    scalar_mono = monomials(st.integers(1, 6))
    even_key = monomials(st.tuples(st.integers(1, 3), st.integers(1, 4)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.one_of(st.tuples(scalar_mono, scalar_mono), st.tuples(even_key, even_key)))
    def check(pair):
        m1, m2 = pair
        assert _mono_mul(m1, m2) == mono_mul_oracle(m1, m2) == _mono_mul(m2, m1), pair

    check()


def poly_derivative(p, i):
    """d/du^i of a sparse Fraction term dict, term by term."""
    out = {}
    for m, c in p.items():
        exps = dict(m)
        e = exps.pop(i, 0)
        if e:
            if e > 1:
                exps[i] = e - 1
            out[tuple(sorted(exps.items()))] = c * e
    return out


def poly_product(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = tuple(sorted(exps.items()))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def partial_oracle(a, i):
    """(n' d - n d') / d^2 on a's term dicts, reduced by the constructor."""
    dn, dd = poly_derivative(a.num, i), poly_derivative(a.den, i)
    num = poly_product(dn, a.den)
    for m, c in poly_product(a.num, dd).items():
        num[m] = num.get(m, 0) - c
    num = {m: c for m, c in num.items() if c}
    return Scalar(num, poly_product(a.den, a.den))


def composed_map_values():
    """Scalars pushed through shift and product maps, as the benchmark builds them:
    u^i -> u^i + c*(u^j)^e and u^i -> u^i*u^j, alone and composed."""
    rng = random.Random(41)
    u1, u2, u3 = (Scalar.coordinate(i) for i in (1, 2, 3))
    maps = [
        {1: u1 + 2 * u2},
        {2: u2 - Fraction(1, 2) * u1**2},
        {1: u1 * u2},
        {3: u3 * u1},
    ]
    maps.append({v: img.subs(maps[2]) for v, img in maps[0].items()})
    g, c = nonflat2_data()
    bases = [x for row in g for x in row] + [x for m in c for row in m for x in row]
    bases += [random_scalar(rng, 3) for _ in range(12)]
    return [b.subs(m) for m in maps for b in bases if not b.is_zero]


def test_partial_memo_matches_the_quotient_rule_cold_and_warm():
    values = composed_map_values()
    assert any(len(v.den) > 1 for v in values)  # polynomial denominators occur
    _partial.cache_clear()
    cold = {(k, i): v.partial(i) for k, v in enumerate(values) for i in (1, 2, 3)}
    assert _partial.cache_info().hits < len(cold)
    warm = {(k, i): v.partial(i) for k, v in enumerate(values) for i in (1, 2, 3)}
    assert _partial.cache_info().hits >= len(cold)
    for (k, i), got in cold.items():
        want = partial_oracle(values[k], i)
        assert got == want and warm[k, i] == want, (values[k], i)
        assert (got.num, got.den) == (want.num, want.den)


def test_partial_memo_matches_sympy_on_composed_maps():
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols(U)
    values = composed_map_values()
    wants = {}
    for k, a in enumerate(values):
        A = sympy_poly(sympy, a.num) / sympy_poly(sympy, a.den)
        for i in (1, 2, 3):
            d = sympy.diff(A, u[i - 1])
            wants[k, i] = ({}, {(): 1}) if d == 0 else sympy_canonical(sympy, d)
    _partial.cache_clear()
    for rounds in ("cold", "warm"):
        for (k, i), want in wants.items():
            got = values[k].partial(i)
            assert (got.num, got.den) == want, (rounds, values[k], i)


def test_partial_memo_serves_equal_values_built_separately():
    _partial.cache_clear()
    first = S("(u1^2 - 1)/(u2 - u1)").partial(1)
    misses = _partial.cache_info().misses
    again = (S("u1 + 1") * S("u1 - 1") / (S("u2") - S("u1"))).partial(1)
    assert again == first and _partial.cache_info().misses == misses


def test_partial_memo_stays_bounded_over_a_report(tmp_path, capsys):
    _partial.cache_clear()
    assert main(["report", fixture_path("nonflat2.json"), "--json", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    info = _partial.cache_info()
    assert info.maxsize == _PARTIAL_MEMO and 0 < info.currsize <= info.maxsize


def test_partial_error_paths_store_nothing():
    a = S("u1^2/u2")
    _partial.cache_clear()
    for warm in (False, True):
        before = _partial.cache_info()
        with pytest.raises(ValueError):
            a.partial(0)
        with pytest.raises(ValueError):
            partial_u(a, -1)
        assert _partial.cache_info() == before
        a.partial(1)  # warms the memo for the second round
    assert _partial.cache_info().currsize == 1


def test_operations_leave_operands_and_shared_results_unchanged():
    """The memo hands one Scalar to every caller, and + - * / ** and subs return
    operands as they are (x + 0 is x): no operation may write to a term dict."""
    rng = random.Random(71)
    _partial.cache_clear()
    values = [random_scalar(rng, 3) for _ in range(30)] + [Scalar.zero(), Scalar.one()]
    values += composed_map_values()[::8]
    values += [v.partial(i) for v in values for i in (1, 2)]  # memo entries as operands
    results = []
    for _ in range(300):
        a, b = rng.choice(values), rng.choice(values)
        kept = copy.deepcopy((a, b))
        out = [a + b, a - b, a * b, -a, a**2, a.partial(rng.randint(1, 3))]
        try:
            out.append(a.subs({rng.randint(1, 3): b}))
        except ZeroDivisionError:
            pass  # b is a root of a's denominator
        if not b.is_zero:
            out += [a / b, b**-1]
        for x, y in zip((a, b), kept):
            assert (x.num, x.den) == (y.num, y.den)
        results += [(r, copy.deepcopy(r)) for r in out]
    for r, kept in results:
        assert (r.num, r.den) == (kept.num, kept.den)


# -- the integer canonical form and its Fraction view ------------------------


def test_constructor_drops_a_zero_constant():
    z = Scalar({(): Fraction(0)})
    assert not z and z.is_zero and z == 0 and z == Scalar.zero()
    assert str(z) == "0" and z.num == {} and z.den == {(): 1}


def test_constructor_drops_a_zero_term_beside_others():
    a = Scalar({((1, 1),): 1, (): 0})
    assert str(a) == "u1" and a == Scalar.coordinate(1)
    assert hash(a) == hash(Scalar.coordinate(1))


def test_constructor_stays_exact_on_int_coefficients():
    a = Scalar({((1, 1),): 2}, {((1, 1),): 4})
    assert a.num == {(): Fraction(1, 2)} and a.den == {(): 1}
    assert all(type(c) is Fraction for c in (*a.num.values(), *a.den.values()))
    assert a == Fraction(1, 2) and a.as_fraction() == Fraction(1, 2)
    mixed = Scalar({((1, 1),): Fraction(2, 3), (): 4}, {((2, 1),): 6})
    assert mixed == S("(2/3*u1 + 4)/(6*u2)") == S("(u1 + 6)/(9*u2)")


def test_constructor_rejects_an_all_zero_denominator():
    for den in ({(): 0}, {}, {((1, 1),): Fraction(0)}):
        with pytest.raises(ZeroDivisionError, match="division by zero rational function"):
            Scalar({(): 1}, den)


def test_constructor_rejects_float_coefficients():
    with pytest.raises(TypeError):
        Scalar({(): 0.5})
    with pytest.raises(TypeError):
        Scalar({((1, 1),): 1}, {((2, 1),): 2.0})
    for q in (0.1, 2.0, Decimal("0.5"), "1/3"):
        with pytest.raises(TypeError):
            Scalar.from_fraction(q)
        with pytest.raises(TypeError):
            DiffPoly.from_fraction(q)


def zeval_oracle(f, x, xi):
    """_zeval as first written: a dict and a power of xi per term."""
    return _collect(
        (tuple(t for t in m if t[0] != x), c * xi ** dict(m).get(x, 0))
        for m, c in f.items()
    )


def test_zeval_matches_the_per_term_oracle():
    """x is the smallest variable of f, or one that f lacks, as GCDHEU calls it."""
    rng = random.Random(53)
    cases = 0
    for _ in range(300):
        f = {}
        for _ in range(rng.randint(1, 8)):
            chosen = rng.sample(range(2, 6), rng.randint(0, 3))
            m = tuple(sorted((v, rng.randint(1, 6)) for v in chosen))
            f[m] = rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 25))
        x = rng.choice([1, min((v for m in f for v, _ in m), default=1)])
        xi = rng.choice([29, 31, 1021, 2**64 + 13])
        assert _zeval(f, x, xi) == zeval_oracle(f, x, xi), (f, x, xi)
        cases += any(m and m[0][0] == x for m in f)
    assert cases > 100  # most draws do contain x


def _split_content(p):
    """(c, f) with p = c*f and f an integer polynomial of content 1, for a term
    dict with Fraction coefficients: the content split Scalar(num, den) made
    before it cleared denominators."""
    den = lcm(*(c.denominator for c in p.values()))
    num = gcd(*(c.numerator for c in p.values()))
    return Fraction(num, den), {
        m: c.numerator * (den // c.denominator) // num for m, c in p.items()
    }


def reduce_oracle(num, den):
    """Scalar reduction on Fraction term dicts, as done before the integer form.

    A single-term side cancels on the Fraction dicts; otherwise both sides go
    to integer polynomials of content 1 for _zgcd and come back.  den's
    leading coefficient is made 1.
    """
    if len(num) == 1 or len(den) == 1:
        _, num, den = _cancel_terms(num, den)
        _, lc = _plead(den)
        if lc == 1:
            return num, den
        return {m: c / lc for m, c in num.items()}, {m: c / lc for m, c in den.items()}
    cn, f = _split_content(num)
    cd, g = _split_content(den)
    _, f, g = _zgcd(f, g)
    _, lc = _plead(g)
    r = cn / (cd * lc)
    return {m: r * c for m, c in f.items()}, {m: Fraction(c, lc) for m, c in g.items()}


def unreduced_pairs():
    """(a, b, op, num, den): a op b over composed-map values, constants, and values
    whose denominators differ by a constant factor, with num/den the unreduced
    Fraction numerator and denominator of the result."""
    rng = random.Random(67)
    values = composed_map_values()
    constants = [Scalar.from_fraction(q) for q in (Fraction(-3, 4), 6, Fraction(5, 2), -1)]
    operands = [(rng.choice(values), rng.choice(values + constants)) for _ in range(150)]
    skewed = Scalar({((1, 1),): 1}, {(): -1, ((1, 1), (2, 1)): 2})  # first den term negative
    operands += [
        (a, a * q)
        for a in [skewed, *values[::6]]
        for q in (Fraction(1, 2), Fraction(-2, 3) * S("u1 - 2"))
    ]
    out = []
    for a, b in operands:
        an, ad, bn, bd = a.num, a.den, b.num, b.den
        cross = poly_product(an, bd)
        out.append((a, b, "*", poly_product(an, bn), poly_product(ad, bd)))
        out.append((a, b, "/", cross, poly_product(ad, bn)))
        total = dict(cross)
        for m, c in poly_product(bn, ad).items():
            total[m] = total.get(m, 0) + c
        total = {m: c for m, c in total.items() if c}
        if total:
            out.append((a, b, "+", total, poly_product(ad, bd)))
    return out


OPS = {"+": lambda a, b: a + b, "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def test_integer_form_reduces_like_the_fraction_oracle():
    """The Fraction view of the integer form is the old reduced form, whichever
    way the value is built: the constructor on the unreduced num/den, or the
    operator (with its shortcuts for constant factors and reciprocals)."""
    pairs = unreduced_pairs()
    assert any(len(den) > 1 and len(num) > 1 for _, _, _, num, den in pairs)
    assert any(b.is_fraction() for _, b, _, _, _ in pairs)
    # denominators equal up to a constant factor other than 1, in some with a
    # negative first coefficient
    proportional = [(a, b) for a, b, _, _, _ in pairs if a._d != b._d and a.den == b.den]
    assert any(next(iter(b._d.values())) < 0 for _, b in proportional)
    for a, b, op, num, den in pairs:
        want = reduce_oracle(num, den)
        built, applied = Scalar(num, den), OPS[op](a, b)
        for got in (built, applied):
            assert (got.num, got.den) == want, (a, op, b)
            assert all(type(c) is Fraction for c in (*got.num.values(), *got.den.values()))
        # the integer form itself: one representation, content 1, den's lead positive
        assert (built._n, built._d) == (applied._n, applied._d), (a, op, b)
        assert gcd(*int_terms(built)) == 1 and _plead(built._d)[1] > 0, (a, op, b)


def test_integer_form_reduces_like_sympy():
    sympy = pytest.importorskip("sympy")
    for a, b, op, num, den in unreduced_pairs()[::3]:
        want = sympy_canonical(sympy, sympy_poly(sympy, num) / sympy_poly(sympy, den))
        got = OPS[op](a, b)
        assert (got.num, got.den) == want, (a, op, b)


def int_terms(x):
    """Every coefficient of x's integer numerator and denominator."""
    return [*x._n.values(), *x._d.values()]


def test_coefficients_stay_int_through_dp_squared(monkeypatch):
    """D_P applied twice on nonflat2, from a cold memo and a fresh bracket: every
    coefficient of the results, of the bracket and of every memo entry (key and
    value) is an int, so no Fraction enters the arithmetic."""
    memo = []
    cached = scalar._partial

    def recording(a, *key):
        out = cached(a, *key)
        memo.append((a, out))
        return out

    cached.cache_clear()
    monkeypatch.setattr(scalar, "_partial", recording)
    b = potemin_build(*nonflat2_data())
    a = DiffPoly.jet(2, 2) * DiffPoly.theta(1, 1) * Fraction(15, 2)
    a = a + DiffPoly.from_scalar(S("u2/u1")) * DiffPoly.theta(2, 1)
    once = apply_DP(b, a)
    twice = apply_DP(b, once)
    assert twice.is_zero and not once.is_zero
    assert cached.cache_info().currsize > 0 and len(memo) >= cached.cache_info().currsize
    scalars = [c for p in (a, once) for c in p.terms.values()]
    scalars += [c for entry in b.P.values() for c in entry.terms.values()]
    scalars += [x for pair in memo for x in pair]
    bad = [(x, c) for x in scalars for c in int_terms(x) if type(c) is not int]
    assert bad == []


# -- the term layout: differential tests against the code it replaced ----


def pstr_oracle(a):
    """_pstr as written with its own sign join and product rule."""
    if not a:
        return "0"
    monos = sorted(a, key=lambda m: dense_key(m, 5), reverse=True)
    parts = []
    for idx, m in enumerate(monos):
        c = a[m]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        factors = []
        for v, e in m:
            factors.append(f"u{v}" if e == 1 else f"u{v}^{e}")
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        else:
            body = str(c) + "*" + "*".join(factors)
        if idx == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def to_univ_oracle(a, x):
    """_to_univ as written with a dict of exponents and a sort per monomial."""
    out = {}
    for m, c in a.items():
        exps = dict(m)
        d = exps.pop(x, 0)
        out.setdefault(d, {})[tuple(sorted(exps.items()))] = c
    return out


def from_univ_oracle(u, x):
    return {
        _mono_mul(m, ((x, d),) if d else ()): c for d, p in u.items() for m, c in p.items()
    }


def zinterp_oracle(gamma, x, xi):
    out = {}
    for m, c in gamma.items():
        e = 0
        while c:
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[_mono_mul(m, ((x, e),)) if e else m] = d
            c = (c - d) // xi
            e += 1
    return out


def init_oracle(num, den):
    """(_n, _d) of Scalar(num, den) as built through _split_content, for a nonzero den."""
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not num:
        return {}, {(): 1}
    cn, f = _split_content(num)
    cd, g = _split_content(den)
    r = cn / cd
    if _plead(g)[1] < 0:
        r, g = -r, _pneg(g)
    out = scalar._reduce(
        {m: c * r.numerator for m, c in f.items()}, {m: c * r.denominator for m, c in g.items()}
    )
    return out._n, out._d


def layout_draws(seed, count=150):
    """Scalars from sampling: Fraction coefficients, monomial and polynomial
    denominators, negated values (negative leading terms), constants and zero."""
    rng = random.Random(seed)
    out = [Scalar.zero(), Scalar.one(), Scalar.from_fraction(Fraction(-7, 3))]
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            x = random_scalar(rng, 3, terms=3)
        elif kind == 1:
            den = random_polynomial(rng, 3, terms=3)
            x = random_polynomial(rng, 3, terms=3) / (den if den else Scalar.one())
        elif kind == 2:
            x = Scalar.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        else:
            x = random_polynomial(rng, 5, terms=4, deg=3)
        out.append(-x if rng.random() < 0.5 else x)
    return out


def test_printing_matches_the_oracle_printer():
    draws = layout_draws(101)
    assert sum(len(x.den) > 1 for x in draws) > 10  # polynomial denominators
    for x in draws:
        for p in (x.num, x.den, x._n, x._d, _pneg(x.num)):
            assert scalar._pstr(p) == pstr_oracle(p), p
        if x.den == {(): 1}:
            want = pstr_oracle(x.num)
        else:
            want = f"({pstr_oracle(x.num)})/({pstr_oracle(x.den)})"
        assert str(x) == want


def test_univariate_views_match_the_oracles():
    cases = 0
    for x in layout_draws(103):
        for p in (x._n, x._d):
            if not p.keys() - {()}:
                continue
            v = min(scalar._pvars(p))
            u = scalar._to_univ(p, v)
            assert u == to_univ_oracle(p, v), p
            assert scalar._from_univ(u, v) == from_univ_oracle(u, v) == p
            for xi in (29, 2**64 + 13):
                gamma = _zeval(p, v, xi)
                assert scalar._zinterp(gamma, v, xi) == zinterp_oracle(gamma, v, xi)
            cases += len(u) > 1
    assert cases > 50  # most draws hold the variable in some but not all terms


def test_constructor_matches_the_content_split_route():
    rng = random.Random(107)
    draws = layout_draws(107)
    cases = [({}, {(): 1}), ({(): 0, ((1, 1),): 0}, {(): Fraction(-2, 3)})]
    for _ in range(300):
        a, b = rng.choice(draws), rng.choice(draws)
        q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        num = {m: c * q for m, c in a.num.items()}
        den = b.num or {(): 1}
        if rng.random() < 0.3:
            num = {m: int(c * c.denominator) for m, c in num.items()}  # int coefficients
        cases.append((num, _pneg(den) if rng.random() < 0.5 else den))
    negative = 0
    for num, den in cases:
        x = Scalar(num, den)
        assert (x._n, x._d) == init_oracle(num, den), (num, den)
        negative += _plead({m: c for m, c in den.items() if c})[1] < 0
    assert negative > 100


def test_only_scalar_reads_the_scalar_layout():
    """The seam around the term layout: no module but scalar reads a Scalar's
    fields _n and _d or its base _b, or imports a private name of scalar
    beyond the term helpers diffpoly shares and the printing and size helpers."""
    allowed = {"_power", "_mono_mul", "_mono_lower",
               "_signed_join", "_product", "_factor_str", "_term_count", "_printed_bits",
               "_sum_products", "_laurent", "_from_laurent", "_pack", "_unpack", "_PACK_BITS"}
    package = os.path.dirname(scalar.__file__)
    imported, bad = set(), []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        name = os.path.basename(path)
        if name == "scalar.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("_n", "_d", "_b"):
                bad.append(f"{name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "scalar" and node.attr.startswith("_"):
                    bad.append(f"{name}:{node.lineno} uses scalar.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("scalar"):
                for alias in node.names:
                    imported.add(alias.name)
                    if alias.name.startswith("_") and alias.name not in allowed:
                        bad.append(f"{name}:{node.lineno} imports {alias.name}")
    assert bad == []
    assert {"_sum_products", "_factor_str", "_term_count"} <= imported  # the scan saw the imports


def test_no_builtin_sum_starts_from_a_zero_scalar_or_diffpoly():
    """Sums of Scalars and DiffPolys in the package go through the kernels,
    never through builtin sum from Scalar.zero() or DiffPoly.zero()."""
    package = os.path.dirname(scalar.__file__)
    bad, sums = [], 0
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum":
                sums += 1
                start = node.args[1] if len(node.args) > 1 else next(
                    (kw.value for kw in node.keywords if kw.arg == "start"), None)
                if (isinstance(start, ast.Call) and isinstance(start.func, ast.Attribute)
                        and start.func.attr == "zero" and isinstance(start.func.value, ast.Name)
                        and start.func.value.id in ("Scalar", "DiffPoly")):
                    bad.append(f"{os.path.basename(path)}:{node.lineno}")
    assert bad == []
    assert sums > 0  # the scan saw the package's other sums


def test_printed_bits_are_the_bit_lengths_the_views_print():
    def view_bits(c):
        return max(x.bit_length() for p in (c.num, c.den) for q in p.values()
                   for x in (q.numerator, q.denominator))

    rng = random.Random(38)
    values = [random_scalar(rng, 2, terms=3) for _ in range(60)]
    values += [S("2^3000/3^1900"), S("(2^700*u1 - 5)/(6*u2 + 3^500)"), Scalar.zero()]
    checked = 0
    for a, b in zip(values, values[1:]):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        for c in (a, a + b, a * b, a * q, a / b if b else a - b):
            assert _printed_bits(c) == view_bits(c), c
            checked += 1
    assert checked == 5 * (len(values) - 1)


# -- denominators over certified factors ------------------------------------


def factor_polys():
    """name -> an integer polynomial in u1, u2, u3, for the denominators of the
    factor-memo tests: three certified factors (one whose certifying variable
    has the coefficient 2), two single variables, and the three factors of
    the uncertified products (u1 + u2)(u1 - u2) and u1^2 + u2^2."""
    return {name: S(text)._n for name, text in (
        ("f", "2*u1 - u2"), ("g", "u3 - u2 - 2"), ("h", "2*u2 + u1 - 2*u1^2"),
        ("u1", "u1"), ("u3", "u3"),
        ("p", "u1 + u2"), ("m", "u1 - u2"), ("q", "u1^2 + u2^2"),
    )}


def factor_product(polys: dict, exps: dict) -> dict:
    out = {(): 1}
    for name, e in exps.items():
        for _ in range(e):
            out = _pmul(out, polys[name])
    return out


# denominators, as exponents of factor_polys, for each family the route must
# handle, and whether their entries are certified.  The squarefree part in the
# least variable holds every factor that involves it, so h^2 * f, both in u1,
# is a product too.
FACTOR_FAMILIES = {
    "powers of one factor": [({"f": 1}, True), ({"f": 3}, True), ({"g": 4}, True), ({"f": 7}, True)],
    "two distinct factors": [({"f": 1, "g": 1}, True), ({"f": 2, "g": 3}, True)],
    "a variable times a power": [({"u1": 2, "f": 3}, True), ({"u1": 1, "u3": 1, "g": 2}, True)],
    "a non-unit coefficient": [({"h": 1}, True), ({"h": 2, "g": 1}, True), ({"h": 4}, True)],
    "uncertified": [({"p": 1, "m": 1}, False), ({"q": 1}, False), ({"p": 2, "m": 1, "g": 1}, False),
                    ({"h": 2, "f": 1}, False)],
}

# the bases _factored finds for the uncertified family, in its order: each
# squarefree part in the least variable keyed whole, a product of names when
# it is not certified, then the factors left over
UNCERTIFIED_BASES = [{("p", "m"): 1}, {("q",): 1}, {("p", "m"): 1, ("p",): 1, ("g",): 1},
                     {("h", "f"): 1, ("h",): 1}]


def factor_family_values(seed: int = 83):
    """(certified, value) pairs: numerators from random_polynomial, some multiplied
    by a factor of their own or another denominator so that it can cancel,
    over the denominators of FACTOR_FAMILIES times an integer content."""
    rng = random.Random(seed)
    polys = factor_polys()
    out = []
    for family, dens in FACTOR_FAMILIES.items():
        for exps, certified in dens:
            den = _rescale(factor_product(polys, exps), rng.choice((1, 1, 2, 6)), 1)
            for _ in range(3):
                num = random_polynomial(rng, 3, terms=3, deg=2)._n
                if rng.random() < 0.5:
                    num = _pmul(num, polys[rng.choice(sorted(polys))])
                if num:
                    out.append((certified, Scalar(num, den)))
    return out


def cancelling_pairs(seed: int = 97):
    """(a, b) over one denominator d with a + b = r*p/d for a factor p of d, so
    that the sum cancels a factor whose exponent is the same on both sides."""
    rng = random.Random(seed)
    polys = factor_polys()
    out = []
    for dens in FACTOR_FAMILIES.values():
        for exps, _ in dens:
            den = factor_product(polys, exps)
            for name in exps:
                num = random_polynomial(rng, 3, terms=3, deg=2)._n
                r = random_polynomial(rng, 3, terms=2, deg=1)._n
                if num and r:
                    b = _psub(_pmul(r, polys[name]), num)
                    out.append((Scalar(num, den), Scalar(b, den) if b else Scalar.one()))
    return out


def partial_cancelling_values(seed: int = 101):
    """(u^i p + r)/p^e for a factor p free of u^i and r free of u^i, alone and
    plus 1/q for a q in u^i: the derivative by u^i loses one power of p, over
    a denominator free of u^i and over one in u^i."""
    rng = random.Random(seed)
    polys = factor_polys()
    out = []
    for name, i in (("f", 3), ("g", 1), ("h", 3), ("u3", 1)):
        for e in (1, 2, 3):
            r = {m: c for m, c in random_polynomial(rng, 3, terms=2, deg=2)._n.items()
                 if i not in dict(m)}
            a = Scalar(_collect(r.items(), _pmul({((i, 1),): 1}, polys[name])),
                       factor_product(polys, {name: e}))
            out += [a, a + Scalar({(): 1}, factor_product(polys, {"m": 1} if i == 1 else {"g": 1, "f": 1}))]
    return out


def oracle_results(a: Scalar, b: Scalar):
    """(label, operator result, _reduce on the unreduced integer num/den) for
    a + b, a - b, a * b, a / b and each partial derivative of a."""
    cross, back, den = _pmul(a._n, b._d), _pmul(b._n, a._d), _pmul(a._d, b._d)
    cases = [
        ("+", a + b, _reduce(_collect(back.items(), cross), den)),
        ("-", a - b, _reduce(_psub(cross, back), den)),
        ("*", a * b, _reduce(_pmul(a._n, b._n), den)),
    ]
    if b:
        num, quo = _pmul(a._n, b._d), _pmul(a._d, b._n)
        if _plead(quo)[1] < 0:
            num, quo = _pneg(num), _pneg(quo)
        cases.append(("/", a / b, _reduce(num, quo)))
    for i in (1, 2, 3):
        dn, dd = _pderiv(a._n, i), _pderiv(a._d, i)
        num = _psub(_pmul(dn, a._d), _pmul(a._n, dd))
        cases.append((f"d/du{i}", a.partial(i), _reduce(num, _pmul(a._d, a._d))))
    return cases


def test_factor_memo_certifies_the_families_and_rejects_products():
    """The certified families factor into their named factors; in the
    uncertified family each product that fails _certify is one uncertified
    factor (root None), as UNCERTIFIED_BASES lists."""
    # each factor primitive with a positive leading coefficient
    polys = {name: _pneg(p) if _plead(p)[1] < 0 else p for name, p in factor_polys().items()}
    uncertified = iter(UNCERTIFIED_BASES)
    for family, dens in FACTOR_FAMILIES.items():
        for exps, certified in dens:
            den = _rescale(factor_product(polys, exps), 6, 1)
            content, base = _factored(frozenset(den.items()))
            want = {(name,): e for name, e in exps.items()} if certified else next(uncertified)
            assert content == 6, (family, exps)
            # a product of names, and u1^2 + u2^2, fail the certificate
            assert {frozenset(f.p.items()): (e, f.root is None) for f, e in base.items()} == {
                frozenset(factor_product(polys, dict.fromkeys(names, 1)).items()):
                    (e, len(names) > 1 or names == ("q",))
                for names, e in want.items()
            }, (family, exps)
            assert all((f.root is None) == (_certify(f.p) is None) for f in base), (family, exps)


def test_factored_route_matches_reduce_byte_for_byte(monkeypatch):
    """+, -, *, / and partial over factored denominators give exactly the
    integer num/den that _reduce gives on the unreduced quotient, for every
    family, uncertified ones included; after a warm-up, the certified families
    need no GCDHEU for +, -, * and partial."""
    values = factor_family_values()
    rng = random.Random(5)
    pairs = [(a, b) for _, a in values for _, b in rng.sample(values, 4)]
    pairs += cancelling_pairs() + [(a, b) for a in partial_cancelling_values() for _, b in values[:2]]
    for a, b in pairs:
        for label, got, want in oracle_results(a, b):
            assert (got._n, got._d) == (want._n, want._d), (a, label, b)
    certified = [v for ok, v in values if ok]
    calls = []
    original = scalar._heugcd
    monkeypatch.setattr(scalar, "_heugcd", lambda f, g: calls.append((f, g)) or original(f, g))
    for a, b in zip(certified, certified[1:] + certified[:1]):
        a + b, a - b, a * b, [a.partial(i) for i in (1, 2, 3)]
    assert calls == []


def test_factored_route_matches_sympy():
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols(U)
    values = factor_family_values(seed=89)
    rng = random.Random(7)
    for (_, a), (_, b) in zip(values[::4], rng.sample(values, len(values[::4]))):
        A = sympy_poly(sympy, a.num) / sympy_poly(sympy, a.den)
        B = sympy_poly(sympy, b.num) / sympy_poly(sympy, b.den)
        i = rng.randrange(3)
        cases = [(a + b, A + B), (a - b, A - B), (a * b, A * B), (a / b, A / B),
                 (a.partial(i + 1), sympy.diff(A, u[i]))]
        for got, want in cases:
            want = ({}, {(): 1}) if want == 0 else sympy_canonical(sympy, want)
            assert (got.num, got.den) == want, (a, b)


def test_factored_route_matches_reduce_on_drawn_denominators():
    """The differential above on hypothesis-drawn values: each denominator is a
    content times powers of the factors of factor_polys, each numerator a
    random polynomial times powers of them, so that factors can cancel."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = factor_polys()
    names = sorted(polys)
    powers = st.dictionaries(st.sampled_from(names), st.integers(1, 3), max_size=3)
    value = st.tuples(powers, powers, st.integers(1, 12), st.integers(0, 10**6))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(value, value)
    def check(first, second):
        a, b = (
            Scalar(_pmul(random_polynomial(random.Random(seed), 3, terms=2, deg=2)._n or {(): 1},
                         factor_product(polys, top)),
                   _rescale(factor_product(polys, bottom), content, 1))
            for bottom, top, content, seed in (first, second)
        )
        for label, got, want in oracle_results(a, b):
            assert (got._n, got._d) == (want._n, want._d), (a, label, b)

    check()


def test_factor_memo_is_shared_remembers_rejections_and_stays_bounded(monkeypatch):
    def values():
        return [S(t) for t in ("(u1 + 1)/(2*u1 - u2)^3", "u3/((u2 - u3 + 2)*(2*u1 - u2))",
                               "(u2^2 - 1)/(u1^2*(u2 - u3 + 2)^2)")]

    def work(xs):
        return [x + y for x in xs for y in xs] + [x * y for x in xs for y in xs] + [
            x.partial(i) for x in xs for i in (1, 2, 3)]

    cold_scalar_memos()
    first = work(values())
    info = _factored.cache_info()
    # separately built equal denominators share their entries
    assert work(values()) == first
    again = _factored.cache_info()
    assert again.hits > info.hits and again.misses == info.misses
    # a denominator that fails the certificate is remembered as one
    # uncertified factor, and the sum is _reduce's
    x, z = S("u3/((u1 + u2)*(u1 - u2))"), S("1/(u1 - u2)")
    [(f, e)] = _factored(frozenset(x._d.items()))[1].items()
    assert (f.p, e, f.root) == (x._d, 1, None)
    label, got, want = oracle_results(x, z)[0]
    assert label == "+" and (got._n, got._d) == (want._n, want._d)
    misses = _factored.cache_info().misses
    assert S("u3/(u1^2 - u2^2)") + z == got and _factored.cache_info().misses == misses
    # over monomial and constant denominators, + - * and partial need no gcd
    xs = [S("(u1 + u2)/u1^2"), S("u2^2/(3*u1*u3)"), S("(u1 - 2)/4"), S("u2/u1")]
    _partial.cache_clear()
    calls = []
    original = scalar._zgcd
    monkeypatch.setattr(scalar, "_zgcd", lambda f, g: calls.append((f, g)) or original(f, g))
    for x in xs:
        for y in xs:
            x + y, x - y, x * y, [x.partial(i) for i in (1, 2, 3)]
    assert calls == []
    monkeypatch.undo()
    # more distinct denominators than entries: the table keeps its bound
    u1, u2 = Scalar.coordinate(1), Scalar.coordinate(2)
    for k in range(_FACTOR_MEMO + 50):
        (u1 + 1) / (u1 + k * u2) + u2 / (u1 + k * u2)
    for memo in (_factored, _expand):
        info = memo.cache_info()
        assert info.maxsize == _FACTOR_MEMO and info.currsize == _FACTOR_MEMO


# -- the base each Scalar carries --------------------------------------------


def assert_base_matches(x: Scalar, where):
    """x's carried base (c, {factor: e}) expands to its denominator, and each
    factor is primitive with a positive leading coefficient; a certified one
    passes _certify, and an uncertified one has root None, fails _certify and
    is squarefree.  Wherever neither x's base nor the one _factored finds for
    the denominator holds an uncertified factor, the two are equal."""
    c, base = x._b
    d = {(): c}
    for f, e in base.items():
        assert e > 0 and gcd(*f.p.values()) == 1 and _plead(f.p)[1] > 0, where
        if f.root is None:
            # a square g^2 dividing f.p would leave g in every partial
            h = f.p
            for v in f.vars:
                h = _zgcd(h, _pderiv(f.p, v))[0]
            assert f.y is None and _certify(f.p) is None and len(h) == 1 and () in h, where
        else:
            assert _certify(f.p) == f, where
        d = _pmul(d, _ppow(f.p, e))
    assert d == x._d, where
    found = _factored(frozenset(x._d.items()))
    if all(f.root is not None for b in (base, found[1]) for f in b):
        assert found == x._b, where


def test_carried_bases_match_their_denominators():
    """Over the pairs of the byte-for-byte test above, every operand and result
    of oracle_results, and each operand's negation and powers, carries the
    base of its denominator."""
    values = factor_family_values()
    rng = random.Random(5)
    pairs = [(a, b) for _, a in values for _, b in rng.sample(values, 4)]
    pairs += cancelling_pairs() + [(a, b) for a in partial_cancelling_values() for _, b in values[:2]]
    for a, b in pairs:
        for label, got, _ in oracle_results(a, b):
            assert_base_matches(got, (a, label, b))
        for x in (a, -a, a**2, a**-1):
            assert_base_matches(x, a)


def test_carried_bases_match_on_drawn_denominators():
    """The differential against _reduce and the base check on hypothesis-drawn
    values, whose denominators range over contents alone, single variables
    with a content, and products of the factors of factor_polys."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = factor_polys()
    powers = st.dictionaries(st.sampled_from(sorted(polys)), st.integers(1, 3), max_size=3)
    value = st.tuples(powers, powers, st.integers(1, 12), st.integers(0, 10**6))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(value, value, st.integers(-2, 3))
    def check(first, second, e):
        a, b = (
            Scalar(_pmul(random_polynomial(random.Random(seed), 3, terms=2, deg=2)._n or {(): 1},
                         factor_product(polys, top)),
                   _rescale(factor_product(polys, bottom), content, 1))
            for bottom, top, content, seed in (first, second)
        )
        for label, got, want in oracle_results(a, b):
            assert (got._n, got._d) == (want._n, want._d), (a, label, b)
            assert_base_matches(got, (a, label, b))
        for x in (a, -a, a**e):
            assert_base_matches(x, (a, e))

    check()


def denominator_shapes():
    """Values beside the factor families: monomial denominators with a non-unit
    content, constants, a monomial times certified factors, and numerators
    that are a certified factor or a monomial, which dividing by them makes
    denominators."""
    return [S(t) for t in (
        "(u1 + u2)/(6*u1^2*u3)", "(2*u2 - 1)/(4*u1*u3^2)", "u2^2/(3*u1*u3)", "u1*u3/2",
        "3/4", "(u1 - u2)/6", "-5",
        "u2/u1^2", "(u1 + 1)/(u1*(2*u1 - u2))", "(u3 + u1)/(2*u1^3*(u3 - u2 - 2)^2)",
        "(2*u1 - u2)/u3", "-6*u1^2*u2/(u3 - u2 - 2)", "(2*u2 + u1 - 2*u1^2)/(5*u2^2)",
    )]


def power_oracle(a: Scalar, e: int) -> Scalar:
    """_reduce on the unreduced integer num/den of a**e."""
    num, den = _ppow(a._n, abs(e)), _ppow(a._d, abs(e))
    if e < 0:
        num, den = (den, num) if _plead(num)[1] > 0 else (_pneg(den), _pneg(num))
    return _reduce(num, den)


def test_denominator_shapes_match_reduce_byte_for_byte():
    """+, -, *, / and partial over every pair of denominator_shapes, both
    orders, and -x and x**e for negative e too, give _reduce's integer
    num/den and carry their denominators' bases."""
    values = denominator_shapes()
    for a in values:
        for b in values:
            for label, got, want in oracle_results(a, b):
                assert (got._n, got._d) == (want._n, want._d), (a, label, b)
                assert_base_matches(got, (a, label, b))
        for e in (-3, -1, 0, 2, 3):
            got, want = a**e, power_oracle(a, e)
            assert (got._n, got._d) == (want._n, want._d), (a, e)
            assert_base_matches(got, (a, e))
        neg = -a
        assert (neg._n, neg._d) == (_pneg(a._n), a._d)
        assert_base_matches(neg, a)


def test_carried_base_outlives_a_rejected_denominator(monkeypatch):
    """(1/A)**2 * (1/B) for A = 2u2 + u1 - 2u1^2 and B = 2u1 - u2: _factored
    keys A^2 B as {AB: 1, A: 1}, for its squarefree part in u1 is the
    uncertified product A B, but the product carries the base {A: 2, B: 1},
    so +, * and partial on it cancel without GCDHEU and give _reduce's
    result."""
    A, B = S("2*u2 + u1 - 2*u1^2"), S("2*u1 - u2")
    x = (1 / A) ** 2 * (1 / B)
    assert {(frozenset(f.p.items()), f.root is None): e
            for f, e in _factored(frozenset(x._d.items()))[1].items()} == {
        (frozenset(_pmul(_pneg(A._n), B._n).items()), True): 1,
        (frozenset(_pneg(A._n).items()), False): 1}
    assert {frozenset(f.p.items()): e for f, e in x._b[1].items()} == {
        frozenset(_pneg(A._n).items()): 2, frozenset(B._n.items()): 1}  # -A leads with +2u1^2
    others = [x, S("u3/(2*u1 - u2)"), S("(u1 + 1)/(2*u2 + u1 - 2*u1^2)"), S("u2/u1^2"), S("3/4"),
              S("(u1 - u2)*(2*u2 + u1 - 2*u1^2)")]
    _partial.cache_clear()
    calls = []
    original = scalar._heugcd
    monkeypatch.setattr(scalar, "_heugcd", lambda f, g: calls.append((f, g)) or original(f, g))
    got = [{"+": x + y, "*": x * y, **{f"d/du{i}": x.partial(i) for i in (1, 2, 3)}} for y in others]
    assert calls == []
    monkeypatch.undo()
    for y, ours in zip(others, got):
        for label, _, want in oracle_results(x, y):
            if label in ours:
                assert (ours[label]._n, ours[label]._d) == (want._n, want._d), (label, y)
                assert_base_matches(ours[label], (label, y))


# -- the constant-denominator shortcuts ---------------------------------------


def test_products_over_constant_denominators_try_no_factor(monkeypatch):
    """A product of two values with constant denominators cancels only the
    integer contents: every call of _strip it makes is offered no candidate,
    and it gives _reduce's integer num/den and carries its base."""
    values = [S(t) for t in ("u1", "u2", "u1*u2 + 3*u2 - 1", "u2^2 - u1", "(2*u1 + 4*u2)/3",
                             "(3*u1 - 9)/4", "-6*u2^2/5", "(u1 - 2)/4", "-u1*u3 + 2")]
    calls = []
    original = scalar._strip
    monkeypatch.setattr(scalar, "_strip", lambda num, exps, candidates, *skip: calls.append(candidates)
                        or original(num, exps, candidates, *skip))
    got = {(a, b): a * b for a in values for b in values}
    assert calls and not any(calls)
    monkeypatch.undo()
    for (a, b), x in got.items():
        want = _reduce(_pmul(a._n, b._n), _pmul(a._d, b._d))
        assert (x._n, x._d) == (want._n, want._d) and str(x) == str(want), (a, b)
        assert_base_matches(x, (a, b))
    assert str(got[values[0], values[1]]) == "u1*u2"
    assert str(got[values[2], values[3]]) == "u1*u2^3 - u1^2*u2 + 3*u2^3 - 3*u1*u2 - u2^2 + u1"


def test_dividing_by_a_constant_looks_up_no_factors():
    """x / q for a constant q builds the reciprocal's base (a content and no
    factors) directly: the factor memo is not consulted, and the quotient is
    _reduce's."""
    values = denominator_shapes() + [S("u3/((u1 + u2)*(u1 - u2))")]
    for x in values:
        for q in (Fraction(3, 2), Fraction(-5, 7), 4, -1, S("-2/9")):
            before = _factored.cache_info()
            got = x / q
            assert _factored.cache_info() == before, (x, q)
            [want] = [w for label, _, w in oracle_results(x, scalar._coerce(q)) if label == "/"]
            assert (got._n, got._d) == (want._n, want._d), (x, q)
            assert_base_matches(got, (x, q))


# -- sums of products over one common denominator ------------------------------


def pairwise_sum(triples) -> Scalar:
    """An oracle of _sum_products: each product by *, added by + in the order
    of the triples."""
    total = Scalar.zero()
    for sign, a, b in triples:
        total = total + (a * b if sign > 0 else -(a * b))
    return total


def quotient_sum(triples) -> Scalar:
    """The oracle of _sum_products that shares none of its code, unlike
    pairwise_sum, whose + runs _sum_products too: _reduce on the unreduced
    integer quotient, the sum of sign n_a n_b times prod d_q over the other
    products q, over prod d_p over all products p."""
    num, den = {}, {(): 1}
    for sign, a, b in triples:
        n, d = _pmul(a._n, b._n), _pmul(a._d, b._d)
        num = _collect(_pmul(n if sign > 0 else _pneg(n), den).items(), _pmul(num, d))
        den = _pmul(den, d)
    return _reduce(num, den)


# the largest total degree of the unreduced denominator prod d_p for which
# assert_sum_matches runs quotient_sum: every shaped group stays below it, and
# past it reducing the quotient takes seconds per group
QUOTIENT_DEGREE = 30


def assert_sum_matches(triples, where) -> Scalar:
    got, wants = _sum_products(triples), [pairwise_sum(triples)]
    degree = sum(max(sum(e for _, e in m) for m in x._d) for _, a, b in triples for x in (a, b))
    if degree <= QUOTIENT_DEGREE:
        wants.append(quotient_sum(triples))
    for want in wants:
        assert (got._n, got._d) == (want._n, want._d) and str(got) == str(want), where
    assert_base_matches(got, where)
    return got


def shaped_values():
    """Values over constant, monomial and polynomial denominators, and over
    uncertified ones, among them the product of certified factors
    (2u2 + u1 - 2u1^2)^2 (2u1 - u2), which _factored keys as an uncertified
    product and one of its factors."""
    const = [S("3/4"), S("(u1 - 2)/4"), S("u1*u3/2"), S("-5")]
    mono = [S("(u1 + u2)/(6*u1^2*u3)"), S("u2/u1"), S("u2^2/(3*u1*u3)"), S("(2*u2 - 1)/(4*u1*u3^2)")]
    poly = [S("(u1 + 1)/(u1*(2*u1 - u2))"), S("(u3 + u1)/(2*u1^3*(u3 - u2 - 2)^2)"),
            S("u3/(2*u1 - u2)^3"), S("(u1 - u2)/(u3 - u2 - 2)"), S("(2*u1 - u2)^2/(u3 - u2 - 2)")]
    rejected = [S("u3/((u1 + u2)*(u1 - u2))"), S("1/((2*u2 + u1 - 2*u1^2)^2*(2*u1 - u2))")]
    return const, mono, poly, rejected


def shaped_groups():
    """Groups of signed products over shaped_values: one product; unequal
    exponents; uncertified factors; products scaled by nontrivial complements
    in the lcm; integer contents that do not divide the lcm taken so far, and
    contents equal to the lcm; both bases nonempty, with shared and with
    disjoint factors."""
    const, mono, poly, rejected = shaped_values()
    groups = [[(1, a, b)] for a, b in zip(const + mono + poly, poly + mono + const)]
    groups += [[(-1, a, b)] for a, b in zip(mono, poly)]
    for values in (const, mono, poly, const + mono + poly):
        groups.append([(s, a, b) for s, a, b in zip((1, -1, 1, 1, -1, 1), values, values[1:] + values[:1])])
    groups += [[(1, a, b), (-1, b, c)] for a, b, c in zip(poly, mono + const, const + poly)]
    groups += [[(1, x, y), (1, x, poly[1]), (-1, y, mono[0])] for x in rejected for y in (x, *poly[:2])]
    # products scaled by complements: unequal exponents of one factor, integer
    # contents 2 and 3 whose lcm no product carries, and complements holding
    # the polynomial factors (2u1 - u2)^2 and u3 - u2 - 2 beside a variable
    f, g = S("2*u1 - u2"), S("u3 - u2 - 2")
    groups += [
        [(1, S("u1 + 1") / f, S("u2") / g**2), (1, S("u3") / f**3, S("u1 - u2")),
         (-1, S("u2") / g, 1 / S("u1^2"))],
        [(1, S("u1/2"), S("u2 + 1") / f), (1, S("u3") / (3 * f), S("(u1 - u2)/3")),
         (-1, S("(u1*u2 + 1)/(2*u1)"), S("u3/3"))],
        [(1, S("u1 + u2") / (f**2 * g), S("u3 - 1")), (1, S("u1*u3 + 2"), S("u2") / g),
         (-1, S("u1") / f**2, S("u2^2 - u3"))],
        [(1, S("(u1 + u2)/2") / f**2, S("(u3 - u1*u2)/3") / g), (-1, S("u1 - 1") / (3 * g), S("u2/2")),
         (1, S("u3^2 + u1") / (6 * f), S("u2 - 1") / f)],
    ]
    # integer contents 2, 3 and 4, of which none divides the lcm of those
    # before it; products that all have the content 6 of the lcm; and bases
    # that are both nonempty, sharing f or u1 and holding f and g apart
    groups += [
        [(1, S("u1/2"), S("u2") / f), (-1, S("u3/3"), 1 / f), (1, S("(u1 + u2)/4"), S("u3"))],
        [(1, S("u1/6"), S("u2 + 1")), (1, S("u2/2"), S("u3/3")), (-1, S("(u1 - u3)/3"), S("1/2"))],
        [(1, S("u1") / f, S("u2") / f), (-1, S("u3") / f, S("u1 + 1") / g),
         (1, S("u2") / (2 * g), S("u1") / (3 * f))],
        [(1, S("u2/u1"), S("u3/(2*u1^2)")), (-1, S("u3") / (S("u1") * f), S("u2") / (2 * g)),
         (1, S("1/(6*u1)"), S("u1 + u2") / f**2)],
    ]
    return groups


def test_sum_of_products_matches_pairwise_on_shaped_groups(monkeypatch):
    """The groups of shaped_groups, a few that cancel a factor, and sums that
    cancel to zero, which try no factor."""
    const, mono, poly, rejected = shaped_values()
    assert all(any(f.root is None for f in x._b[1]) for x in rejected)
    for group in shaped_groups():
        assert_sum_matches(group, group)
    f, g = S("2*u1 - u2"), S("u3 - u2 - 2")
    # a factor with equal exponents on two products cancels: u1/f^2 + (f - u1)/f^2 = 1/f
    x = assert_sum_matches([(1, S("u1") / f, 1 / f), (1, (f - S("u1")) / f, 1 / f)], "cancel f")
    assert x == 1 / f
    # and beside a product scaled by its complement g: g/(2fg) + u1 g/(3fg) = (2u1 + 3)/(6f)
    x = assert_sum_matches([(1, g / (2 * f), 1 / g), (1, S("u1/3"), 1 / f)], "cancel g")
    assert x == S("2*u1 + 3") / (6 * f)
    # one product alone reaches f^2, and its second numerator holds f:
    # (1/f^2)(f u2/g) + u1/f = (u2 + u1 g)/(f g)
    x = assert_sum_matches([(1, 1 / f**2, f * S("u2") / g), (1, S("u1") / f, Scalar.one())], "cancel f once")
    assert x == (S("u2") + S("u1") * g) / (f * g)
    cancelling = [[(1, a, b), (-1, b, a)] for a, b in zip(poly + mono, mono + const)]
    cancelling += [[(1, a, b), (1, c, a), (-1, a, b + c)] for a, b, c in zip(poly, poly[1:], mono)]
    cancelling += [[(1, a, b), (-1, a * b, Scalar.one())] for a, b in zip(poly, const)]
    calls = []
    original = scalar._strip
    monkeypatch.setattr(scalar, "_strip", lambda *args: calls.append(args) or original(*args))
    assert all(_sum_products(group).is_zero for group in cancelling)
    assert calls == []


def test_sums_offer_strip_every_factor_of_the_lcm(monkeypatch):
    """a + b, which is _sum_products over a*1 and b*1, calls _strip once and
    offers it every factor of the lcm of the two denominators, whatever
    their exponents on each side: single variables, certified polynomials,
    and an uncertified factor beside the certified one it hides."""
    f, g = S("2*u1 - u2"), S("u3 - u2 - 2")
    u1, hidden = S("u1"), S("u1 - u2")
    cases = [(S("u1") / f**3, S("u2") / (f * g), [f, g]), (S("u1") / (f * g), S("u2") / (f * g**2), [f, g]),
             (S("u1 + u3") / (f**2 * g), (f - S("u1")) / (f**2 * g), [f, g]), (S("u1") / f, S("u2/3"), [f]),
             (S("u2") / u1**2, S("u3") / (u1 * f), [u1, f]),
             (S("u3/((u1 + u2)*(u1 - u2))"), 1 / hidden, [S("(u1 + u2)*(u1 - u2)"), hidden])]
    calls = []
    original = scalar._strip
    monkeypatch.setattr(scalar, "_strip", lambda num, exps, candidates, *skip: calls.append(candidates)
                        or original(num, exps, candidates, *skip))
    got = {}
    for a, b, factors in cases:
        for x, y in ((a, b), (b, a)):
            calls.clear()
            got[x, y] = x + y
            assert len(calls) == 1, (x, y)
            assert sorted(sorted(p.p.items()) for p in calls[0]) == sorted(
                sorted((h if _plead(h._n)[1] > 0 else -h)._n.items()) for h in factors), (x, y)
    monkeypatch.undo()
    for (x, y), z in got.items():
        [want] = [w for label, _, w in oracle_results(x, y) if label == "+"]
        assert (z._n, z._d) == (want._n, want._d), (x, y)


def drawn_groups():
    """Groups of two to six signed products of the certified factor families'
    values and denominator_shapes, and in one group of four an uncertified
    value (whose GCDHEU reductions make larger groups slow)."""
    family = factor_family_values()
    values = [v for ok, v in family if ok] + denominator_shapes()
    rejected = [v for ok, v in family if not ok]
    rng = random.Random(17)
    groups = []
    for k in range(64):
        group = [(rng.choice((1, -1)), rng.choice(values), rng.choice(values))
                 for _ in range(rng.randint(2, 3 if k % 4 == 0 else 6))]
        if k % 4 == 0:
            group[-1] = (group[-1][0], group[-1][1], rng.choice(rejected))
        if rng.random() < 0.25:  # the last product cancels the first
            group.append((-group[0][0], group[0][2], group[0][1]))
        groups.append(group)
    return groups


def test_sum_of_products_matches_pairwise_on_drawn_groups():
    for group in drawn_groups():
        assert_sum_matches(group, group)


def test_failed_divisions_leave_every_result_unchanged(monkeypatch):
    """With _residue forced to 0, _strip tries every certified candidate by
    exact division, and leaves one at its first failed division: +, *,
    partial and _sum_products on the shaped and drawn groups give the same
    _n, _d and _b, the base's factors in the same order.  The values are
    built first, since factors take their roots from _residue, and the memos
    are emptied before each pass, so that the forced pass computes every
    derivative again, and afterwards, since a factor made while _residue is
    forced has a wrong root."""
    groups = shaped_groups() + drawn_groups()
    f = next(iter(S("1/(2*u1 - u2)")._b[1]))

    def results():
        out = []
        for group in groups:
            out.append(_sum_products(group))
            for _, a, b in group:
                out += [a + b, a * b, *(a.partial(i) for i in (1, 2, 3))]
        return [(x._n, x._d, x._b[0], list(x._b[1].items())) for x in out]

    cold_scalar_memos()
    want = results()
    cold_scalar_memos()
    monkeypatch.setattr(scalar, "_residue", lambda p, y, r: 0)
    try:
        got = results()
        # the fallback itself: f does not divide u1 + 1, and stays in exps
        exps = {f: 2}
        assert scalar._strip(S("u1 + 1")._n, exps, [f]) == S("u1 + 1")._n and exps == {f: 2}
    finally:
        monkeypatch.undo()
        cold_scalar_memos()
    assert got == want


def test_remainder_sequences_reduce_like_the_heuristic_gcd(monkeypatch):
    """With _HEU_TRIES = 0, _heugcd gives up at once and every gcd of two
    polynomials of several terms comes from _prs: _reduce on small
    multivariate pairs with a nontrivial gcd gives the default route's _n,
    _d and _b."""
    pairs = [("(u1 + u2)*(u2 - u3 + 2)", "(u1 + u2)*(u3^2 + u1)"),
             ("(u1*u2 - 3)^2*(u3 + 1)", "(u1*u2 - 3)*(u1^2 + u2*u3)"),
             ("(u1^2 + u2^2)*(u1 - u3)", "(u1^2 + u2^2)*(u2 + 2*u3)"),
             ("(2*u1 - u3)*(u1*u3 + u2 + 1)*3", "(u1*u3 + u2 + 1)*(u2^2 - u1)*6")]
    quotients = [(S(n)._n, S(d)._n) for n, d in pairs]
    want = [_reduce(n, d) for n, d in quotients]
    assert all(len(x._d) < len(d) for x, (_, d) in zip(want, quotients))
    monkeypatch.setattr(scalar, "_HEU_TRIES", 0)
    num, den = quotients[0]
    assert scalar._heugcd(num, den) is None
    got = [_reduce(n, d) for n, d in quotients]
    monkeypatch.undo()
    assert [(x._n, x._d, x._b) for x in got] == [(x._n, x._d, x._b) for x in want]


def test_sum_of_products_over_the_lcm_multiplies_no_polynomials(monkeypatch):
    """When every product of a group carries the lcm's factors, whatever its
    integer content, its terms go straight into the accumulator: no
    polynomial product is formed (once the expanded denominator is memoised)."""
    f, g = S("2*u1 - u2"), S("u3 - u2 - 2")
    group = [(1, S("u1 + 1") / f, S("u2 - u3") / g), (1, S("u3") / f, S("u1*u2 + 3") / g),
             (-1, S("u1*u2 - 1") / (2 * f), S("u3 + u1") / g), (1, S("u2/3") / g, S("u1^2") / f)]
    want = assert_sum_matches(group, group)
    calls = []
    original = scalar._pmul
    monkeypatch.setattr(scalar, "_pmul", lambda a, b: calls.append((a, b)) or original(a, b))
    got = _sum_products(group)
    assert calls == []
    monkeypatch.undo()
    assert (got._n, got._d) == (want._n, want._d) and got._b == want._b
    assert sorted(got._b[1].values()) == [1, 1] and got._b[0] == 6  # over 6 f g


# -- denominators with an uncertified part --------------------------------------


def uncertified_values(seed: int = 131):
    """Values over denominators that hold an uncertified factor: (u1 + u2)(u1 - u2),
    u1^2 + u2^2 and h^2 f of factor_polys, u2^2 + 1 and 3u1^2 + 8u1 + 6, some
    times certified factors, and values over the certified factors m, p, h, f
    that divide them.  Numerators are random, half of them times one of the
    factors so that it can cancel."""
    rng = random.Random(seed)
    polys = {**factor_polys(), "s": S("u2^2 + 1")._n, "t": S("3*u1^2 + 8*u1 + 6")._n}
    dens = [{"p": 1, "m": 1}, {"p": 1, "m": 2}, {"q": 2}, {"q": 1, "u1": 1}, {"h": 2, "f": 1},
            {"h": 1, "f": 1, "g": 1}, {"s": 1}, {"s": 2, "g": 1}, {"t": 1}, {"t": 1, "f": 1},
            {"m": 1}, {"p": 1}, {"h": 1}, {"f": 2}]
    out = [S("u3/((u1 + u2)*(u1 - u2))"), S("1/(u1 - u2)"),
           S("1/((2*u2 + u1 - 2*u1^2)^2*(2*u1 - u2))")]
    for exps in dens:
        den = _rescale(factor_product(polys, exps), rng.choice((1, 2, 6)), 1)
        for _ in range(2):
            num = random_polynomial(rng, 3, terms=3, deg=2)._n or {(): 1}
            if rng.random() < 0.5:
                num = _pmul(num, polys[rng.choice(sorted(exps))])
            out.append(Scalar(num, den))
    return out


def test_uncertified_denominators_match_reduce_byte_for_byte():
    """+, -, *, / and partial on values whose denominators hold uncertified
    factors, among them u3/((u1 + u2)(u1 - u2)) + 1/(u1 - u2), where the
    certified u1 - u2 hides in the uncertified product, and sums of three
    products over them, give _reduce's integer num/den on the unreduced
    quotient and carry their denominators' bases."""
    values = uncertified_values()
    assert sum(any(f.root is None for f in x._b[1]) for x in values) > len(values) / 2
    rng = random.Random(137)
    pairs = [values[:2]] + [(a, b) for a in values for b in rng.sample(values, 6)]
    for a, b in pairs:
        for label, got, want in oracle_results(a, b):
            assert (got._n, got._d) == (want._n, want._d), (a, label, b)
            assert_base_matches(got, (a, label, b))
    assert values[0] + values[1] == S("(u1 + u2 + u3)/(u1^2 - u2^2)")
    # the sum over (u1^2 - u2^2)(u1 - u2) divides out the uncertified key
    # whole, and the hidden u1 - u2 still cancels: u3/(u1^2 - u2^2) * (u1 + u2) u2
    # + ((u1 - u2)(u1 u3 + 1) - u2 u3)/(u1 - u2) = u1 u3 + 1
    group = [(1, values[0], S("(u1 + u2)*u2")),
             (1, S("((u1 - u2)*(u1*u3 + 1) - u2*u3)/(u1 - u2)"), Scalar.one())]
    assert assert_sum_matches(group, group) == S("u1*u3 + 1")
    for _ in range(40):
        group = [(rng.choice((1, -1)), rng.choice(values), rng.choice(values)) for _ in range(3)]
        assert_sum_matches(group, group)


def test_memoised_derivatives_carry_the_base_of_their_operand():
    """(1/A)**2 * (1/B) and 1/(A^2 B) are equal values with the bases
    {A: 2, B: 1} and {AB: 1, A: 1}: differentiated in either order, each
    derivative carries the base it gets from cold memos, not the base of
    whichever equal value reached the partial memo first."""
    A, B = "(2*u2 + u1 - 2*u1^2)", "(2*u1 - u2)"
    values = {"product": (1 / S(A)) ** 2 * (1 / S(B)), "parsed": S(f"1/({A}^2*{B})")}
    assert values["product"] == values["parsed"] and values["product"]._b != values["parsed"]._b
    cold = {}
    for name, x in values.items():
        cold_scalar_memos()
        cold[name] = [x.partial(i)._b for i in (1, 2)]
    assert cold["product"] != cold["parsed"]
    for order in (("product", "parsed"), ("parsed", "product")):
        cold_scalar_memos()
        for name in order:
            assert [values[name].partial(i)._b for i in (1, 2)] == cold[name], (order, name)


def test_zero_and_one_are_one_shared_instance_each():
    """Scalar.zero() and Scalar.one() return one instance each, and a sum of
    products that cancels, a product with a zero factor, a derivative that
    vanishes and a zeroth power return them."""
    zero, one = Scalar.zero(), Scalar.one()
    assert zero is Scalar.zero() and one is Scalar.one() and zero is not one
    a = S("(u1 + u2)/(u1 - 3*u2)")
    assert _sum_products([(1, a, one), (-1, a, one)]) is zero
    assert a - a is zero and a * 0 is zero and a.partial(3) is zero and a**0 is one


def snapshot(x: Scalar):
    """Copies of x's numerator, denominator and base; factors are never
    changed and copy as themselves."""
    return copy.deepcopy((x._n, x._d, x._b))


def test_no_scalar_changes_after_it_is_made(tmp_path, capsys):
    """What lets every caller share the zero and the one: after report on
    every fixture and + - * / over factor_family_values() x
    denominator_shapes() in both orders, each operand holds the numerator,
    denominator and base it had before, and the shared zero and one hold
    their first ones."""
    zero, one = Scalar.zero(), Scalar.one()
    target = tmp_path / "report.json"
    with open(os.path.join(os.path.dirname(__file__), "report_expected.json"), encoding="utf-8") as fh:
        command_lines = list(json.load(fh))
    codes = [main(["report", *(fixture_path(a) if a.endswith(".json") else a for a in line.split()),
                   "--json", str(target)]) for line in command_lines]
    capsys.readouterr()
    left, right = [x for _, x in factor_family_values()], denominator_shapes() + [zero, one]
    values = left + right
    before = [snapshot(x) for x in values]
    for a in left:
        for b in right:
            for x, y in ((a, b), (b, a)):
                x + y, x - y, x * y
                if y:
                    x / y
    assert [snapshot(x) for x in values] == before
    assert (zero._n, zero._d, zero._b) == ({}, {(): 1}, (1, {}))
    assert (one._n, one._d, one._b) == ({(): 1}, {(): 1}, (1, {}))
    assert set(codes) <= {0, 1}, codes  # every report ran to its verdicts


def test_negation_and_subtraction_share_the_zero():
    """-0 is the shared zero, x - 0 is x itself, and 0 - x is -x."""
    zero, x = Scalar.zero(), S("(u1 + u2)/(u1 - 3*u2)")
    assert -zero is zero and (x - 0) is x and (x - zero) is x
    assert (0 - x) == -x and (zero - x) == -x and (x - x) is zero


def test_from_fraction_shares_the_zero_and_the_one():
    """Scalar.from_fraction(1) and (0) are the shared instances; the type check comes first."""
    assert Scalar.from_fraction(1) is Scalar.one() and Scalar.from_fraction(Fraction(1)) is Scalar.one()
    assert Scalar.from_fraction(0) is Scalar.zero() and Scalar.from_fraction(Fraction(0)) is Scalar.zero()
    for q in (1.0, 0.0):
        with pytest.raises(TypeError):
            Scalar.from_fraction(q)


MULTIPLIERS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4))


def explicit_factor(triples) -> Scalar:
    """The oracle of a multiplier: each m made the factor Scalar.from_fraction(m)
    of a product's first operand, and the products summed with multiplier 1."""
    return _sum_products([(1, Scalar.from_fraction(m) * a, b) for m, a, b in triples])


def test_multiplier_matches_an_explicit_constant_factor():
    """_sum_products over groups of one to four (m, a, b) triples and
    scalar._mul(a, b, m) give the numerator, denominator and base of the
    same sum with m as an explicit constant factor, over factor_family_values()
    and denominator_shapes() and constants that share a factor with m (2/3
    with m = 3/4, 2 with m = 1/2); a product that m makes 1 returns the other
    factor itself."""
    constants = [Scalar.from_fraction(q) for q in (Fraction(2, 3), 2, Fraction(-3, 4), 6, Fraction(1, 6))]
    values = [x for _, x in factor_family_values()] + denominator_shapes() + constants
    rng = random.Random(37)
    checked = 0
    for _ in range(150):
        triples = [(rng.choice(MULTIPLIERS), rng.choice(values), rng.choice(values))
                   for _ in range(rng.randint(1, 4))]
        got, want = _sum_products(triples), explicit_factor(triples)
        assert (got._n, got._d, got._b) == (want._n, want._d, want._b), triples
        assert_base_matches(got, triples)
        checked += 1
    for x in values[::3] + constants:
        for c in constants:
            for m in MULTIPLIERS:
                want = explicit_factor([(m, c, x)])
                for got in (scalar._mul(c, x, m), scalar._mul(x, c, m)):
                    assert (got._n, got._d, got._b) == (want._n, want._d, want._b), (m, c, x)
                    checked += 1
    two = Scalar.from_fraction(2)
    for _, x in factor_family_values()[:8]:
        assert scalar._mul(two, x, Fraction(1, 2)) is x and scalar._mul(x, two, Fraction(1, 2)) is x
    assert checked > 900


def test_a_product_by_the_shared_one_is_the_other_factor():
    """_mul(a, one) and _mul(one, a) return a itself, a constant other than
    1 among the a; with a multiplier m other than 1 both orders give the
    numerator, denominator and base of m * a."""
    one = Scalar.one()
    constants = [Scalar.from_fraction(q) for q in (Fraction(3, 2), -2, Fraction(1, 6), 1)]
    values = [x for _, x in factor_family_values()] + denominator_shapes() + constants
    for a in values:
        assert scalar._mul(a, one) is a and scalar._mul(one, a) is a, a
        for m in MULTIPLIERS[1:]:
            want = explicit_factor([(m, a, one)])
            for got in (scalar._mul(a, one, m), scalar._mul(one, a, m)):
                assert (got._n, got._d, got._b) == (want._n, want._d, want._b), (m, a)


def test_from_term_is_the_constructed_quotient():
    """Scalar.from_term(q, mono, over) is Scalar({mono: q}, {over: 1}), with the
    same numerator, denominator and factored base, over drawn monomials with
    shared, cancelling and distinct variables and zero, negative and proper
    fractions."""
    rng = random.Random(29)
    for _ in range(400):
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        mono, over = ({v: e for v in range(1, 4) if (e := rng.randint(0, 2))} for _ in range(2))
        mono, over = tuple(sorted(mono.items())), tuple(sorted(over.items()))
        got, want = Scalar.from_term(q, mono, over), Scalar({mono: q}, {over: 1})
        assert (got._n, got._d, got._b) == (want._n, want._d, want._b)
