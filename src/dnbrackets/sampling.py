"""Seeded random generators for property tests and CLI spot checks.

Everything takes an explicit random.Random so that runs are reproducible
from a single seed.  Generated Scalars keep small degrees and
coefficients; the point is coverage of the algebraic laws, not stress.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .bracket import HomogeneousBracket, _tensor, constant_bracket, lower_metric
from .diffpoly import DiffPoly, _sum, _wrap
from .errors import DegenerateMetricError
from .scalar import Scalar, _sum_products


def random_fraction(rng: random.Random, span: int = 5) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_polynomial(rng: random.Random, n: int, terms: int = 2, deg: int = 2) -> Scalar:
    """A small polynomial in the coordinates u^1..u^n, each term written
    down by key (Scalar.from_term) and the terms summed in one _sum_products list."""
    triples = []
    for _ in range(rng.randint(1, terms)):
        q, mono = random_fraction(rng), {}
        for _ in range(rng.randint(0, deg)):
            v = rng.randint(1, n)
            mono[v] = mono.get(v, 0) + 1
        triples.append((1, Scalar.from_term(q, tuple(sorted(mono.items()))), Scalar.one()))
    return _sum_products(triples)


def random_scalar(rng: random.Random, n: int, terms: int = 2, deg: int = 2) -> Scalar:
    """A small rational function; denominators stay simple by design."""
    num = random_polynomial(rng, n, terms, deg)
    if rng.random() < 0.3:
        den = Scalar.zero()
        while den.is_zero:
            den = random_polynomial(rng, n, 1, deg)
        return num / den
    return num


def random_diffpoly(
    rng: random.Random,
    n: int,
    terms: int = 3,
    max_jet: int = 3,
    max_theta: int = 4,
    max_factors: int = 3,
) -> DiffPoly:
    """A small differential polynomial over random Scalars."""
    parts = []
    for _ in range(rng.randint(1, terms)):
        term = DiffPoly.from_scalar(random_scalar(rng, n))
        for _ in range(rng.randint(0, max_factors)):
            if rng.random() < 0.5:
                term = term * DiffPoly.jet(rng.randint(1, n), rng.randint(1, max_jet))
            else:
                term = term * DiffPoly.theta(rng.randint(1, n), rng.randint(0, max_theta))
        parts.append(term)
    return _sum(parts)


def random_monomial(
    rng: random.Random,
    n: int,
    k: int,
    max_degu: int = 3,
    max_theta_degree: int = 2,
) -> DiffPoly:
    """A single monomial with jet count <= max_degu, for homotopy checks.

    Theta orders run up to k + 2 so that both sides of the projection
    boundary (order k) are exercised.  The term is written down by key, from
    the draws a product of its factors would make: the odd word is sorted
    with the sign of its inversions, and a repeated theta or a zero
    coefficient gives zero.
    """
    coef = random_scalar(rng, n, 1, 1) if rng.random() < 0.5 else Scalar.one()
    even: dict = {}
    for _ in range(rng.randint(0, max_degu)):
        v = (rng.randint(1, n), rng.randint(1, 3))
        even[v] = even.get(v, 0) + 1
    drawn = [(rng.randint(1, n), rng.randint(0, k + 2))
             for _ in range(rng.randint(0, max_theta_degree))]
    word = [(s, i) for i, s in drawn]
    odd = tuple(sorted(word))
    if coef.is_zero or len(set(odd)) < len(odd):
        return DiffPoly.zero()
    inversions = sum(a > b for a, b in combinations(word, 2))
    return _wrap({(tuple(sorted(even.items())), odd): -coef if inversions % 2 else coef})


def random_constant_matrix(rng: random.Random, n: int, parity: int) -> list:
    """An invertible constant matrix, symmetric (parity +1) or skew (-1).

    Skew needs n even; the base is a shifted identity / symplectic block
    so invertibility holds, then a random perturbation is kept only when
    it stays invertible.
    """
    if parity == 1:
        base = _tensor(n, 2, lambda i, j: Scalar.from_fraction(Fraction(int(i == j)) * (i + 1)))
    else:
        if n % 2:
            raise ValueError("skew invertible matrices need even size")
        base = _tensor(n, 2, lambda i, j: Scalar.zero())
        half = n // 2
        for i in range(half):
            base[i][half + i] = Scalar.from_fraction(Fraction(i + 1))
            base[half + i][i] = Scalar.from_fraction(Fraction(-(i + 1)))
    pert = _tensor(n, 2, lambda i, j: Scalar.zero())
    for i in range(n):
        for j in range(i + 1, n):
            q = Scalar.from_fraction(random_fraction(rng, 2))
            pert[i][j] = q
            pert[j][i] = q if parity == 1 else -q
    cand = _tensor(n, 2, lambda i, j: base[i][j] + pert[i][j])
    try:
        lower_metric(cand)
        return cand
    except DegenerateMetricError:
        return base


def random_constant_bracket(rng: random.Random, n: int, k: int) -> HomogeneousBracket:
    """Constant-coefficient bracket with the leading parity forced by k."""
    parity = 1 if k % 2 == 1 else -1
    return constant_bracket(random_constant_matrix(rng, n, parity), k)
