"""Seeded random generators used by the property suites."""

import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from dnbrackets.bracket import check_skew, validate
from dnbrackets.diffpoly import DiffPoly
from dnbrackets.sampling import (
    random_constant_bracket,
    random_constant_matrix,
    random_diffpoly,
    random_fraction,
    random_monomial,
    random_polynomial,
    random_scalar,
)
from dnbrackets.scalar import Scalar
from dnbrackets.spectral import spanning_monomials

from conftest import assert_same_terms


def test_determinism_under_fixed_seed():
    a = random_diffpoly(random.Random(99), 2)
    b = random_diffpoly(random.Random(99), 2)
    assert a == b
    c = random_scalar(random.Random(99), 2)
    d = random_scalar(random.Random(99), 2)
    assert c == d


def test_random_fraction_bounds():
    rng = random.Random(1)
    values = [random_fraction(rng) for _ in range(50)]
    assert all(isinstance(q, Fraction) for q in values)
    assert any(q != 0 for q in values)
    assert all(abs(q.numerator) <= 5 and 1 <= q.denominator <= 5 for q in values)


def test_random_polynomial_and_scalar_wellformed():
    rng = random.Random(2)
    for _ in range(30):
        p = random_polynomial(rng, 3)
        assert isinstance(p, Scalar)
        s = random_scalar(rng, 3)
        assert s + (-s) == Scalar.zero()


def test_random_monomial_respects_bounds():
    rng = random.Random(3)
    for _ in range(40):
        m = random_monomial(rng, 2, 3, max_degu=2)
        if m.is_zero:
            continue
        assert all(d <= 2 for d in m.degrees("deg_u"))
        assert m.max_theta_order() <= 5  # orders up to k + 2


def test_random_constant_matrix_parity_and_rank():
    rng = random.Random(4)
    for _ in range(10):
        sym = random_constant_matrix(rng, 3, 1)
        for i in range(3):
            for j in range(3):
                assert sym[i][j] == sym[j][i]
        skew = random_constant_matrix(rng, 2, -1)
        for i in range(2):
            for j in range(2):
                assert skew[i][j] == -skew[j][i]


def test_random_constant_bracket_valid():
    rng = random.Random(5)
    for k in (1, 2, 3, 4, 5):
        b = random_constant_bracket(rng, 2, k)
        assert b.k == k
        assert validate(b) == []
        assert check_skew(b)


# -- the monomial samplers against their product-built oracles ---------------


def random_monomial_oracle(rng, n, k, max_degu=3, max_theta_degree=2, covered=None):
    """random_monomial as a chain of DiffPoly products, with the same draws.
    Adds to covered "repeated theta" when a theta is already in the word and
    "reordered" when it lands before the word's last theta."""
    covered = set() if covered is None else covered
    term = DiffPoly.one()
    if rng.random() < 0.5:
        term = term * random_scalar(rng, n, 1, 1)
    for _ in range(rng.randint(0, max_degu)):
        term = term * DiffPoly.jet(rng.randint(1, n), rng.randint(1, 3))
    for _ in range(rng.randint(0, max_theta_degree)):
        i, s = rng.randint(1, n), rng.randint(0, k + 2)
        word = next(iter(term.terms), ((), ()))[1]
        if (s, i) in word:
            covered.add("repeated theta")
        elif word and word[-1] > (s, i):
            covered.add("reordered")
        term = term * DiffPoly.theta(i, s)
    return term


def spanning_monomials_oracle(n, k, max_degree=3):
    """spanning_monomials with each theta word built as a product."""
    gens = [(s, i) for s in range(0, k + 1) for i in range(1, n + 1)]
    out = [DiffPoly.one()]
    out.extend(DiffPoly.coordinate(i) for i in range(1, n + 1))
    for d in range(1, max_degree + 1):
        for chosen in combinations(gens, d):
            out.append(prod((DiffPoly.theta(i, s) for s, i in chosen), start=DiffPoly.one()))
    return out


@pytest.mark.parametrize("n, k, max_degu, max_theta_degree", [
    (2, 3, 2, 2), (2, 2, 3, 3), (3, 1, 0, 2), (1, 2, 2, 3), (1, 1, 0, 4),
])
def test_random_monomial_matches_its_product_oracle(n, k, max_degu, max_theta_degree):
    covered = set()
    for seed in (0, 11, 101, 9001):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(60):
            got = random_monomial(fast, n, k, max_degu=max_degu, max_theta_degree=max_theta_degree)
            want = random_monomial_oracle(slow, n, k, max_degu, max_theta_degree, covered)
            assert_same_terms(got, want)
            assert len(got.terms) <= 1
        assert fast.getstate() == slow.getstate()
    assert "repeated theta" in covered
    assert "reordered" in covered


def test_random_monomial_defaults_match_the_oracle():
    fast, slow = random.Random(5), random.Random(5)
    for _ in range(40):
        assert_same_terms(random_monomial(fast, 2, 3), random_monomial_oracle(slow, 2, 3))
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 2)])
def test_spanning_monomials_match_their_product_oracle(n, k):
    for max_degree in range(4):
        got, want = spanning_monomials(n, k, max_degree), spanning_monomials_oracle(n, k, max_degree)
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert_same_terms(x, y)
