"""Shared fixtures: the worked examples used across the test modules."""

import os
import random

import pytest

from dnbrackets import diffpoly
from dnbrackets.bracket import HomogeneousBracket, constant_bracket, lower_metric
from dnbrackets.diffpoly import DiffPoly
from dnbrackets.lowdegree import canonical_k2, potemin_build
from dnbrackets.sampling import random_diffpoly, random_monomial, random_scalar
from dnbrackets.scalar import Scalar, _expand, _factored, _partial, parse_scalar

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def pytest_addoption(parser):
    parser.addoption("--packed-parts", type=int, metavar="N",
                     help="set diffpoly._PACKED_PARTS to N for the session; 0 offers every "
                          "_products call to the packed path (a test that monkeypatches it "
                          "restores N)")


def pytest_configure(config):
    if (n := config.getoption("--packed-parts")) is not None:
        diffpoly._PACKED_PARTS = n


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def S(text: str) -> Scalar:
    return parse_scalar(text)


def assert_same_terms(got, want):
    """The same keys in the same order, equal coefficients and the same text."""
    assert list(got.terms) == list(want.terms)
    assert got == want
    assert str(got) == str(want)


def d1_dicts(b: HomogeneousBracket, tables) -> tuple:
    """The dicts of DiffPoly images behind a form of d_1's (jets, thetas) pair
    of _Images, read off each table's image function on the generators of B:
    u^i keyed (i, 0) and theta_l^s (s <= k) keyed (l, s)."""
    keys = [(i, s) for s in range(b.k + 1) for i in range(1, b.n + 1)]
    return tuple({v: img for v in keys if (img := t.image(v)) is not None} for t in tables)


def cold_scalar_memos():
    """Empty the value-keyed memos of dnbrackets.scalar (partial derivatives,
    factored denominators and their expansions), so a timing starts cold."""
    for memo in (_partial, _factored, _expand):
        memo.cache_clear()


def nonflat2_data():
    """Metric and tail of the two-component degree-3 bracket with
    non-flat standard connections but flat combinations."""
    g = [
        [S("1"), S("u2/u1")],
        [S("u2/u1"), S("(1+u2^2)/u1^2")],
    ]
    c = [
        [[S("0"), S("0")], [S("-u2/u1^2"), S("1/u1")]],
        [[S("0"), S("0")], [S("-(1+u2^2)/u1^3"), S("u2/u1^2")]],
    ]
    return g, c


@pytest.fixture(scope="session")
def nonflat2() -> HomogeneousBracket:
    g, c = nonflat2_data()
    return potemin_build(g, c)


def canonical4_lower():
    """Linear lowered metric with totally skew gradient, n = 4."""
    Z = Scalar.zero
    return [
        [Z(), S("1+u3"), S("-u2"), Z()],
        [S("-1-u3"), Z(), S("u1"), Z()],
        [S("u2"), S("-u1"), Z(), S("1")],
        [Z(), Z(), S("-1"), Z()],
    ]


@pytest.fixture(scope="session")
def canonical4() -> HomogeneousBracket:
    return canonical_k2(lower_metric(canonical4_lower()))


def lc_k1_bracket() -> HomogeneousBracket:
    """Degree-1 bracket with metric diag(u1, 1) and its Levi-Civita tail."""
    P = {
        (1, 1, 1): DiffPoly.coordinate(1),
        (2, 2, 1): DiffPoly.one(),
        (1, 1, 0): DiffPoly.jet(1, 1) * S("1/2"),
    }
    return HomogeneousBracket(n=2, k=1, P=P)


@pytest.fixture(scope="session")
def lc1() -> HomogeneousBracket:
    return lc_k1_bracket()


@pytest.fixture(scope="session")
def lc1_broken() -> HomogeneousBracket:
    b = lc_k1_bracket()
    P = dict(b.P)
    P[(1, 2, 0)] = DiffPoly.coordinate(2) * DiffPoly.jet(1, 1)
    P[(2, 1, 0)] = DiffPoly.coordinate(2) * DiffPoly.jet(1, 1) * S("-1")
    return HomogeneousBracket(n=2, k=1, P=P)


@pytest.fixture(scope="session")
def const2() -> HomogeneousBracket:
    eta = [[S("0"), S("1")], [S("-1"), S("0")]]
    return constant_bracket(eta, 2)


@pytest.fixture(scope="session")
def const3() -> HomogeneousBracket:
    eta = [[S("2"), S("1")], [S("1"), S("1")]]
    return constant_bracket(eta, 3)


def kernel_draws(rng: random.Random, b: HomogeneousBracket, covered: set, rounds: int = 8):
    """Inputs for the derivation kernel's differential tests: coordinate-only
    elements, sums with jets up to order 3 and thetas above order k, and
    single monomials.  Adds to covered which of those three features occurred."""
    for _ in range(rounds):
        for a in (
            DiffPoly.from_scalar(random_scalar(rng, b.n)),
            random_diffpoly(rng, b.n, terms=3, max_jet=3, max_theta=b.k + 2, max_factors=2),
            random_monomial(rng, b.n, b.k, max_degu=2),
        ):
            if a.is_scalar() and not a.to_scalar().is_fraction():
                covered.add("coordinates only")
            if a.max_jet_order() == 3:
                covered.add("jet order 3")
            if a.max_theta_order() > b.k:
                covered.add("theta above k")
            yield a
