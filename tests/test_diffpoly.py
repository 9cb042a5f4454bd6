"""Differential polynomials: signs, derivations, gradings, substitution."""

import os
import random
from fractions import Fraction

import pytest

from dnbrackets import diffpoly
from dnbrackets.bracket import bivector
from dnbrackets.cli import load_bracket
from dnbrackets.diffpoly import (
    _DX_IMAGES,
    DiffPoly,
    JetVar,
    ThetaVar,
    _alternating_sum,
    _derivation,
    _Images,
    _odd_mul,
    _products,
    _sum,
    _term_str,
    _wrap,
    d_x,
    mul,
    partial,
    project,
    variational,
)
from dnbrackets.jacobi import _DP_images, apply_DP, variational_pair
from dnbrackets.sampling import random_diffpoly, random_polynomial, random_scalar
from dnbrackets.scalar import Scalar, _collect, _mono_lower, _mono_mul
from dnbrackets.spectral import (
    D_minus1_closed, _d1_closed_ops, _d1_images, _homotopy_images, _lowering_images, homotopy,
)

from conftest import FIXTURE_DIR, S, fixture_path, kernel_draws
from test_scalar import assert_base_matches


def theta(i, s):
    return DiffPoly.theta(i, s)


def test_grassmann_signs():
    a, b = theta(1, 0), theta(2, 1)
    assert a * b == -(b * a)
    assert a * a == DiffPoly.zero()
    assert (a * b) * (a * b) == DiffPoly.zero()
    # reordering a three-letter word costs one transposition at a time
    c = theta(1, 2)
    assert a * b * c == -(a * c * b)
    assert a * b * c == b * c * a


def odd_mul_oracle(o1, o2):
    """The product of two odd words by brute force: None when a letter
    repeats, else the sorted word and the parity of the permutation that
    sorts o1 + o2, counted by its inversions."""
    word = o1 + o2
    if len(set(word)) < len(word):
        return None
    inversions = sum(x > y for p, x in enumerate(word) for y in word[p + 1 :])
    return (-1) ** inversions, tuple(sorted(word))


def test_odd_word_signs_match_the_permutation_parity():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    letters = st.tuples(st.integers(0, 3), st.integers(1, 3))  # (s, i) of theta_i^s
    words = st.sets(letters, max_size=4).map(lambda w: tuple(sorted(w)))
    seen = set()

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(words, words)
    def check(o1, o2):
        got = _odd_mul(o1, o2)
        assert got == odd_mul_oracle(o1, o2), (o1, o2)
        seen.add(None if got is None else (got[0], len(o1) > 1 and len(o2) > 1))

    check()
    assert seen == {None, (1, False), (-1, False), (1, True), (-1, True)}


def test_mixed_products_commute_with_even_part():
    p = DiffPoly.jet(1, 1) * theta(1, 0)
    q = DiffPoly.coordinate(2) * theta(2, 2)
    assert p * q == -(q * p)  # both are odd overall


def test_dx_on_generators():
    assert d_x(DiffPoly.coordinate(1)) == DiffPoly.jet(1, 1)
    assert d_x(DiffPoly.jet(1, 3)) == DiffPoly.jet(1, 4)
    assert d_x(theta(2, 1)) == theta(2, 2)
    assert d_x(DiffPoly.one()) == DiffPoly.zero()


def test_dx_leibniz_randomized():
    rng = random.Random(17)
    for _ in range(40):
        a = random_diffpoly(rng, 2, terms=2)
        b = random_diffpoly(rng, 2, terms=2)
        assert d_x(a * b) == d_x(a) * b + a * d_x(b)


def test_dx_chain_rule_on_coefficients():
    p = DiffPoly.from_scalar(S("u1^2*u2"))
    expect = (
        DiffPoly.jet(1, 1) * S("2*u1*u2") + DiffPoly.jet(2, 1) * S("u1^2")
    )
    assert d_x(p) == expect


def dx_oracle(a: DiffPoly) -> DiffPoly:
    """d_x by a direct walk over each term's generators, with its own odd signs."""

    def pairs():
        for (even, odd), c in a.terms.items():
            for v in sorted(c.variables()):
                yield (_mono_mul(even, (((v, 1), 1),)), odd), c.partial(v)
            for (i, s), e in even:
                shifted = _mono_mul(_mono_lower(even, (i, s)), (((i, s + 1), 1),))
                yield (shifted, odd), c * e
            for p, (s, i) in enumerate(odd):
                # move the raised variable to the front (p swaps), then merge it back
                om = _odd_mul(((s + 1, i),), odd[:p] + odd[p + 1 :])
                if om is not None:
                    sign, word = om
                    yield (even, word), (c if sign * (-1) ** p > 0 else -c)

    return _wrap(_collect(pairs()))


def test_dx_matches_the_generator_walk():
    # polynomial denominators, and theta words up to order 4 whose raised
    # letter can collide with a neighbour
    rng = random.Random(23)
    for _ in range(40):
        den = Scalar.zero()
        while len(den.num) < 2:
            den = random_polynomial(rng, 2, terms=3)
        a = random_diffpoly(rng, 2, terms=3, max_theta=4) * (1 / den)
        assert a.d_x() == dx_oracle(a), a
        assert a.d_x_pow(2) == dx_oracle(dx_oracle(a)), a


def test_partial_derivatives():
    p = DiffPoly.jet(1, 1) * DiffPoly.jet(1, 1) * S("u2")
    assert partial(p, JetVar(1, 1)) == DiffPoly.jet(1, 1) * S("2*u2")
    assert p.partial_coordinate(2) == DiffPoly.jet(1, 1) * DiffPoly.jet(1, 1)
    assert partial(p, JetVar(2, 1)) == DiffPoly.zero()
    with pytest.raises(ValueError):
        JetVar(2, 0)  # order-zero jets are plain coordinates

    w = theta(1, 0) * theta(2, 1)
    assert partial(w, ThetaVar(1, 0)) == theta(2, 1)
    assert partial(w, ThetaVar(2, 1)) == -theta(1, 0)  # left derivative
    with pytest.raises(TypeError):
        partial(w, "u1")


def test_variational_kills_total_derivatives():
    rng = random.Random(29)
    for _ in range(30):
        a = random_diffpoly(rng, 2, terms=2)
        total = d_x(a)
        for i in (1, 2):
            assert variational(total, "u", i) == DiffPoly.zero()
            assert variational(total, "theta", i) == DiffPoly.zero()
    with pytest.raises(ValueError):
        variational(DiffPoly.one(), "jet", 1)


def test_variational_euler_operator():
    # delta/delta u of (1/2) u_x^2 is -u_xx
    lag = DiffPoly.jet(1, 1) * DiffPoly.jet(1, 1) * S("1/2")
    assert variational(lag, "u", 1) == DiffPoly.jet(1, 2) * S("-1")


def alternating_sum_oracle(partial, i, top):
    """_alternating_sum as first written: d_x^s built from scratch for each order s."""
    return _sum(
        p.d_x_pow(s) if s % 2 == 0 else -p.d_x_pow(s)
        for s in range(top + 1)
        if (p := partial(i, s))
    )


def assert_variational_matches_the_oracle(a, n):
    for i in range(1, n + 1):
        assert a.variational_u(i) == alternating_sum_oracle(a._partial_jet, i, a.max_jet_order())
        assert a.variational_theta(i) == alternating_sum_oracle(
            a._partial_theta, i, a.max_theta_order()
        )


def test_variational_derivatives_match_the_power_sum_oracle(monkeypatch):
    rng = random.Random(43)
    draws = [random_diffpoly(rng, 2) for _ in range(150)]
    for a in draws:
        assert_variational_matches_the_oracle(a, 2)
    # Horner's rule: no d_x power is built, and d_x is applied at most top
    # times, each time inside one fused step
    calls = []
    parts = diffpoly._derivation_parts
    monkeypatch.setattr(diffpoly, "_derivation_parts", lambda x, *rest: calls.append(x) or parts(x, *rest))
    monkeypatch.setattr(DiffPoly, "d_x", None)
    monkeypatch.setattr(DiffPoly, "d_x_pow", None)
    for a in draws[:30]:
        for i in (1, 2):
            del calls[:]
            a.variational_u(i)
            assert len(calls) <= a.max_jet_order()
            del calls[:]
            a.variational_theta(i)
            assert len(calls) <= max(a.max_theta_order(), 0)


def horner_oracle(partial, i, top):
    """_alternating_sum as a loop of whole DiffPoly steps, as it was before
    its steps were fused: acc = partial(i, s) - d_x(acc), a product, a
    negation and a sum per step."""
    acc = DiffPoly.zero()
    for s in range(top, -1, -1):
        acc = partial(i, s) - acc.d_x() if acc else partial(i, s)
    return acc


def test_fused_horner_steps_match_the_step_by_step_loop():
    """Both families of variational derivatives, whose Horner steps are one
    _products call each, against horner_oracle: the same keys in the same
    order, the same text and well-formed bases, on random_diffpoly draws and
    on the bivector of every fixture document."""
    rng = random.Random(73)
    inputs = [(f"draw {k}", random_diffpoly(rng, n, max_theta=3), n)
              for k, n in enumerate([1, 2, 3] * 40)]
    names = sorted(f for f in os.listdir(FIXTURE_DIR) if not f.startswith("map_"))
    for name in names:
        b = load_bracket(fixture_path(name))
        inputs.append((name, bivector(b), b.n))
    steps = 0
    for name, a, n in inputs:
        for i in range(1, n + 1):
            for parts, partial, top in ((a._jet_parts, a._partial_jet, a.max_jet_order()),
                                        (a._theta_parts, a._partial_theta, a.max_theta_order())):
                got, want = _alternating_sum(parts, i, top), horner_oracle(partial, i, top)
                assert list(got.terms) == list(want.terms), (name, i, top)
                assert_same_terms(got, want.terms, (name, i, top))
                steps += max(top, 0)
    assert steps > 500


def test_variational_derivatives_match_the_oracle_on_hypothesis_draws():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1), hypothesis.strategies.integers(1, 3))
    def check(seed, n):
        assert_variational_matches_the_oracle(random_diffpoly(random.Random(seed), n), n)

    check()


def test_gradings_and_projection():
    p = (
        DiffPoly.jet(1, 2) * theta(1, 0) * theta(2, 3)
        + DiffPoly.coordinate(1) * theta(1, 1)
    )
    assert p.degrees("deg") == {5, 1}
    assert p.degrees("deg_theta") == {2, 1}
    assert p.degrees("deg_u") == {1, 0}
    assert p.degrees("deg_theta_k", k=3) == {1, 0}
    assert project(p, "deg", 5) == DiffPoly.jet(1, 2) * theta(1, 0) * theta(2, 3)
    assert project(p, "deg", 2) == DiffPoly.zero()
    # projections over all degrees sum back to the original
    total = DiffPoly.zero()
    for d in p.degrees("deg"):
        total = total + project(p, "deg", d)
    assert total == p
    assert project(p, "deg", 5).is_homogeneous("deg", 5)
    with pytest.raises(ValueError):
        p.degrees("weight")
    with pytest.raises(ValueError):
        p.degrees("deg_theta_k")  # needs k


def test_projection_idempotent_randomized():
    rng = random.Random(31)
    for _ in range(30):
        a = random_diffpoly(rng, 2, terms=3)
        for d in a.degrees("deg"):
            once = project(a, "deg", d)
            assert project(once, "deg", d) == once


def test_coefficient_lookup():
    p = DiffPoly.jet(1, 1) * theta(2, 0) * S("7")
    even = (((1, 1), 1),)
    odd = ((0, 2),)
    assert p.coefficient(even, odd) == S("7")
    assert p.coefficient((), ()) == Scalar.zero()


def test_substitute_coordinates_and_jets():
    p = DiffPoly.jet(1, 1) * S("u1")
    # u1 -> u2^2 with the matching jet rule u1_1 -> 2 u2 u2_1
    q = p.substitute(
        coord_map={1: S("u2^2")},
        jet_map={(1, 1): DiffPoly.jet(2, 1) * S("2*u2")},
    )
    assert q == DiffPoly.jet(2, 1) * S("2*u2^3")


def test_substitute_theta():
    p = theta(1, 0) * theta(2, 1)
    q = p.substitute(theta_map={(0, 1): theta(2, 0) * S("u1")})
    assert q == theta(2, 0) * theta(2, 1) * S("u1")


def test_substitute_kills_a_generator_mapped_to_zero():
    p = DiffPoly.jet(1, 1) * theta(2, 0) * S("u1") + theta(1, 0) * S("3")
    assert p.substitute(jet_map={(1, 1): DiffPoly.zero()}) == theta(1, 0) * S("3")
    assert p.substitute(theta_map={(0, 2): DiffPoly.zero()}) == theta(1, 0) * S("3")
    assert p.substitute(theta_map={(0, 1): DiffPoly.zero()}) == DiffPoly.jet(1, 1) * theta(2, 0) * S("u1")


def test_max_orders():
    p = DiffPoly.jet(1, 4) * theta(2, 6)
    assert p.max_jet_order() == 4
    assert p.max_theta_order() == 6
    # jets start at order 1, thetas at order 0, so "none" reads 0 and -1
    assert DiffPoly.one().max_jet_order() == 0
    assert DiffPoly.one().max_theta_order() == -1


def test_scalar_and_fraction_coercion_in_mul():
    p = DiffPoly.coordinate(1)
    assert p * 3 == p + p + p
    assert p * Fraction(1, 2) + p * Fraction(1, 2) == p


def test_sum_matches_builtin_sum():
    # builtin sum over DiffPoly.zero() is the oracle: same terms, and no zero
    # coefficient where the parts cancel
    rng = random.Random(31)
    for _ in range(30):
        ps = [random_diffpoly(rng, 2, terms=3, max_theta=3) for _ in range(rng.randint(1, 4))]
        p = ps[0]
        for parts in (ps, ps + [-p], [p, -p], [p, p, p], ps + ps):
            got = _sum(iter(parts))
            assert got.terms == sum(parts, DiffPoly.zero()).terms, parts
            assert not any(c.is_zero for c in got.terms.values())
    assert _sum([]).terms == {}


def collected_plus(a: DiffPoly, b: DiffPoly, m: int) -> DiffPoly:
    """a + m b as + and - made it before they were _products calls, as an
    oracle: b negated for m = -1, a zero operand giving the other, else b's
    pairs collected into a copy of a's terms."""
    if m < 0:
        b = _wrap({k: -c for k, c in b.terms.items()})
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return _wrap(_collect(b.terms.items(), a.terms))


def collected_sum(parts) -> DiffPoly:
    """_sum as it was before it was one _products call, as an oracle: every
    part's pairs collected one at a time, each surviving key put where it
    first appears in parts."""
    total = _collect(pair for p in parts for pair in p.terms.items())
    return _wrap({key: total[key] for key in dict.fromkeys(k for p in parts for k in p.terms) if key in total})


def test_sums_match_the_collected_sums_field_for_field():
    """+, - (also reflected) and _sum on random_diffpoly draws whose keys
    partly cancel, with zero operands among them: the same keys in the same
    order as collecting the pairs one at a time, and each coefficient with
    the same _n, _d and _b."""
    def fields(p):
        return [(key, c._n, c._d, c._b) for key, c in p.terms.items()]

    rng = random.Random(131)
    cancelled = zeros = 0
    for k in range(200):
        n = 1 + k % 3
        x = random_diffpoly(rng, n, terms=4)
        # y takes some of x's terms negated, so that those keys cancel in x + y
        y = _wrap({**random_diffpoly(rng, n, terms=4).terms,
                   **{key: -c for key, c in x.terms.items() if rng.random() < 0.5}})
        operands = [x, y, -y, DiffPoly.zero()]
        a, b = rng.choice(operands), rng.choice(operands)
        zeros += a.is_zero or b.is_zero
        for got, want in ((a + b, collected_plus(a, b, 1)), (a - b, collected_plus(a, b, -1)),
                          (Fraction(k % 5 - 2) - a, collected_plus(DiffPoly.from_fraction(k % 5 - 2), a, -1))):
            assert fields(got) == fields(want), (a, b)
        cancelled += len((x + y).terms) < len({**x.terms, **y.terms})
        parts = [rng.choice(operands) for _ in range(rng.randint(0, 5))]
        assert fields(_sum(iter(parts))) == fields(collected_sum(parts)), parts
    assert cancelled > 50 and zeros > 50


def derivation_oracle(x: DiffPoly, n: int, jet_image, theta_image) -> DiffPoly:
    """image * partial for every generator up to x's orders, one product each,
    added by builtin sum."""
    parts = [
        img * x._partial_jet(i, s)
        for i in range(1, n + 1)
        for s in range(x.max_jet_order() + 1)
        if (img := jet_image((i, s)))
    ] + [
        img * x._partial_theta(i, s)
        for i in range(1, n + 1)
        for s in range(x.max_theta_order() + 1)
        if (img := theta_image((i, s)))
    ]
    return sum(parts, DiffPoly.zero())


def test_derivation_matches_one_product_per_generator():
    # random images of either parity, so products of different generators
    # land on the same keys and cancel
    rng = random.Random(37)
    for _ in range(30):
        x = random_diffpoly(rng, 2, terms=3, max_jet=2, max_theta=2)
        gens = [(i, s) for i in (1, 2) for s in range(3)]
        jets = {v: random_diffpoly(rng, 2, terms=2, max_jet=2, max_theta=2) for v in gens}
        thetas = {v: random_diffpoly(rng, 2, terms=2, max_jet=2, max_theta=2) for v in gens}
        for jet_image, theta_image in ((jets.get, thetas.get), (jets.get, {}.get), ({}.get, thetas.get)):
            assert _derivation(x, _Images(jet_image), _Images(theta_image)) == derivation_oracle(
                x, 2, jet_image, theta_image
            )


def kernel_corner_cases(rng: random.Random, covered: set, rounds: int = 30):
    """(x, jets, thetas) on n = 3 for the derivation kernel: terms with jet
    exponents up to 3, words of up to three thetas, coefficients in u3, and
    image tables in which a generator may be missing or map to the zero
    DiffPoly; u3 never has an image.  Adds to covered which of the cases the
    kernel must get right occurred with a truthy image, and whether a falsy
    one met a generator of x."""
    gens = [(i, s) for i in (1, 2, 3) for s in range(4)]

    def table():
        out = {}
        for v in gens:
            pick = rng.random()
            if pick < 0.2:
                out[v] = DiffPoly.zero()
            elif pick < 0.8 and v != (3, 0):
                out[v] = random_diffpoly(rng, 2, terms=2, max_jet=2, max_theta=2)
        return out

    for _ in range(rounds):
        x = DiffPoly.zero()
        for _ in range(3):
            term = DiffPoly.from_scalar(random_scalar(rng, 3))
            for _ in range(rng.randint(0, 2)):
                term = term * DiffPoly.jet(rng.randint(1, 3), rng.randint(1, 3)) ** rng.randint(1, 3)
            for _ in range(rng.randint(0, 3)):
                term = term * theta(rng.randint(1, 3), rng.randint(0, 3))
            x = x + term
        jets, thetas = table(), table()
        for (even, odd), c in x.terms.items():
            if any(jets.get((i, 0)) for i in c.variables()):
                covered.add("coordinate with an image")
            if 3 in c.variables():
                covered.add("coordinate without an image")
            if any(e > 1 and jets.get(v) for v, e in even):
                covered.add("jet exponent above 1")
            if any(p % 2 and thetas.get((i, s)) for p, (s, i) in enumerate(odd)):
                covered.add("theta at an odd position")
            gens_of_term = [(i, 0) for i in c.variables()] + [v for v, _ in even]
            if any(v in jets and not jets[v] for v in gens_of_term) or any(
                    (i, s) in thetas and not thetas[i, s] for s, i in odd):
                covered.add("zero image")
        yield x, jets, thetas


def test_derivation_term_by_term_matches_both_oracles():
    """The kernel, which takes every partial from x's terms in place, against
    collected_derivation and derivation_oracle, which take them from whole
    partial DiffPolys: on jet powers, thetas at odd positions, coefficients
    in a coordinate without an image, and missing and zero images."""
    covered = set()
    for x, jets, thetas in kernel_corner_cases(random.Random(43), covered):
        got = _derivation(x, _Images(jets.get), _Images(thetas.get))
        assert_same_terms(got, collected_derivation(x, jets.get, thetas.get), (x, jets, thetas))
        assert got == derivation_oracle(x, 3, jets.get, thetas.get), (x, jets, thetas)
    assert covered == {"coordinate with an image", "coordinate without an image", "jet exponent above 1",
                       "theta at an odd position", "zero image"}


def test_derivation_builds_no_partial_diffpoly(monkeypatch, nonflat2):
    """The kernel never calls the partial DiffPoly builders, and it
    differentiates a coefficient only by the coordinates that have an image,
    once per term: D_{-1} and the homotopy, which have none, differentiate
    no coefficient."""
    b = nonflat2
    draws = list(kernel_draws(random.Random(53), b, set()))
    D_minus1_closed(b, draws[1]), homotopy(b, draws[1])  # fill the bracket's caches first

    def refuse(*args):
        raise AssertionError("a partial DiffPoly was built")

    for name in ("_partial_jet", "_partial_theta", "partial_coordinate"):
        monkeypatch.setattr(DiffPoly, name, refuse)
    calls = []
    original = Scalar.partial
    monkeypatch.setattr(Scalar, "partial", lambda c, i: calls.append(i) or original(c, i))
    for x, jets, thetas in kernel_corner_cases(random.Random(47), set(), rounds=10):
        calls.clear()
        _derivation(x, _Images(jets.get), _Images(thetas.get))
        want = [i for c in x.terms.values() for i in c.variables() if jets.get((i, 0))]
        assert sorted(calls) == sorted(want) and 3 not in calls, x
    for a in draws:
        calls.clear()
        D_minus1_closed(b, a), homotopy(b, a)
        assert calls == [], a
        a.d_x()
        assert sorted(calls) == sorted(i for c in a.terms.values() for i in c.variables()), a


def test_derivations_without_coordinate_images_never_read_variables(monkeypatch, nonflat2):
    """D_{-1}, the homotopy and the theta^k-keeping half of d1_split, whose
    tables give no coordinate an image, never call Scalar.variables; d_x, D_P
    and the raising half differentiate exactly the coordinates of each term
    that have an image."""
    b = nonflat2
    draws = list(kernel_draws(random.Random(59), b, set()))
    up, same = (_d1_images(b, _d1_closed_ops, half) for half in (0, 1))
    assert not any(t[0].coordinates for t in (_lowering_images(b), _homotopy_images(b), same))
    with_coordinates = {"d_x": _DX_IMAGES, "D_P": _DP_images(b), "up": up}
    for a in draws:  # fill every table the draws need
        D_minus1_closed(b, a), homotopy(b, a), _derivation(a, *same)
        for jets, thetas in with_coordinates.values():
            _derivation(a, jets, thetas)

    variables, partial = Scalar.variables, Scalar.partial
    armed, calls = [], []

    def guarded(c):
        if armed:
            raise AssertionError("a coefficient's variables were read")
        return variables(c)

    monkeypatch.setattr(Scalar, "variables", guarded)
    monkeypatch.setattr(Scalar, "partial", lambda c, i: calls.append(i) or partial(c, i))
    for a in draws:
        calls.clear()
        armed.append(True)
        D_minus1_closed(b, a), homotopy(b, a), _derivation(a, *same)
        armed.clear()
        assert calls == [], a
        for label, (jets, thetas) in with_coordinates.items():
            want = [i for c in a.terms.values() for i in variables(c) if jets[i, 0]]
            calls.clear()
            _derivation(a, jets, thetas)
            assert sorted(calls) == sorted(want), (label, a)


@pytest.mark.parametrize("name", ["lc1", "nonflat2", "canonical4", "const3"])
def test_d_x_tables_match_images_wrapped_per_call(request, monkeypatch, name):
    """d_x reads its module tables and builds none, and they give the terms
    that its images, wrapped in a fresh table per call, give."""
    b = request.getfixturevalue(name)

    def refuse(*args):
        raise AssertionError("d_x built an image table")

    for a in kernel_draws(random.Random(107), b, set()):
        want = _derivation(a, _Images(lambda v: DiffPoly.jet(v[0], v[1] + 1)),
                           _Images(lambda v: DiffPoly.theta(v[0], v[1] + 1)))
        with monkeypatch.context() as patch:
            patch.setattr(_Images, "__init__", refuse)
            got = a.d_x()
        assert_same_terms(got, want.terms, (name, a))


def collected_products(pairs) -> dict:
    """The kernel's sum before fusing, as an oracle: every product c1 * c2 of
    the (a, b) pairs, signed, streamed into one _collect in the order of the
    pairs."""
    def products(a, b):
        for (e1, o1), c1 in a.terms.items():
            for (e2, o2), c2 in b.terms.items():
                om = _odd_mul(o1, o2)
                if om is not None:
                    sign, odd = om
                    c = c1 * c2
                    yield (_mono_mul(e1, e2), odd), (c if sign > 0 else -c)

    return _collect(pair for a, b in pairs for pair in products(a, b))


def collected_derivation(x: DiffPoly, jet_image, theta_image) -> dict:
    """_derivation's generators, visited in its order, through collected_products."""
    found = set()
    for (even, odd), c in x.terms.items():
        found.update((i, 0, 0) for i in c.variables())
        found.update((i, 0, s) for (i, s), _ in even)
        found.update((i, 1, s) for s, i in odd)
    return collected_products(
        (image, (x._partial_theta if odd else x._partial_jet)(i, s))
        for i, odd, s in sorted(found)
        if (image := (theta_image if odd else jet_image)((i, s)))
    )


def assert_same_terms(got: DiffPoly, want: dict, where):
    """got holds want's terms with the same integer numerators and
    denominators, prints as want does, and carries its bases."""
    assert got.terms == want and str(got) == str(_wrap(want)), where
    for c in got.terms.values():
        assert_base_matches(c, where)


@pytest.mark.parametrize("name", ["lc1", "lc1_broken", "nonflat2", "canonical4", "const2", "const3",
                                  "canonical_k2.json", "constant_k2.json", "lc_k1_broken.json"])
def test_fused_kernel_matches_collected_products(request, name):
    """_derivation with the images of d_x and of D_P, and the product of two
    DiffPolys, give the terms that collecting every coefficient product one
    at a time gives, on kernel_draws for each fixture bracket and document."""
    b = load_bracket(fixture_path(name)) if name.endswith(".json") else request.getfixturevalue(name)
    ddtheta, ddu = variational_pair(b)
    images = {
        "d_x": (lambda v: DiffPoly.jet(v[0], v[1] + 1), lambda v: DiffPoly.theta(v[0], v[1] + 1)),
        "D_P": (lambda v: ddtheta[v[0] - 1].d_x_pow(v[1]), lambda v: ddu[v[0] - 1].d_x_pow(v[1])),
    }
    covered, previous = set(), DiffPoly.one()
    for a in kernel_draws(random.Random(103), b, covered):
        for label, (jets, thetas) in images.items():
            assert_same_terms(_derivation(a, _Images(jets), _Images(thetas)),
                              collected_derivation(a, jets, thetas), (name, label, a))
        image = apply_DP(b, a)
        for x, y in ((previous, a), (a, image), (image, previous + a)):
            assert_same_terms(x * y, collected_products([(x, y)]), (name, x, y))
        previous = a
    assert covered == {"coordinates only", "jet order 3", "theta above k"}


def test_products_merge_each_odd_word_pair_once():
    """One _products call whose parts repeat the same pairs of odd words with
    other even parts, coefficients and signs: from an empty odd-merge memo,
    each distinct pair is merged once (a memo miss), and the terms are those
    of collected_products."""
    x = [theta(1, 2), theta(2, 1) * theta(1, 2), DiffPoly.one()]
    y = [theta(2, 1), theta(1, 0), theta(1, 0) * theta(1, 2)]
    coefficients = [S(t) for t in ("u1/(u1 + u2)", "-3", "(u2 - u1)/(2*u1)", "u1*u2 + 1", "1/u2^2",
                                   "(u1 + u2)/(2*u1 - u2)", "5/7", "u2/u1")]
    rng = random.Random(41)
    parts, pairs = [], []
    for c in coefficients:
        a = sum((DiffPoly.from_scalar(rng.choice(coefficients)) * DiffPoly.jet(1, rng.randint(1, 2)) * w
                 for w in x), DiffPoly.from_scalar(c) * x[0])
        b = sum((DiffPoly.from_scalar(rng.choice(coefficients)) * DiffPoly.coordinate(2) * w for w in y),
                DiffPoly.zero())
        for (e2, o2), c2 in b.terms.items():
            sign = rng.choice((1, -1))
            parts.append((a.terms.items(), e2, o2, sign, c2))
            pairs.append((a, _wrap({(e2, o2): c2 if sign > 0 else -c2})))
    words = {(o1, o2) for a, b in pairs for (_, o1) in a.terms for (_, o2) in b.terms}
    _odd_mul.cache_clear()
    got = _products(parts)
    assert _odd_mul.cache_info().misses == len(words) == 9
    signs = {om and om[0] for om in map(odd_mul_oracle, *zip(*words))}
    assert signs == {None, 1, -1}
    assert {sign for *_, sign, _ in parts} == {1, -1}
    assert_same_terms(got, collected_products(pairs), pairs)


def test_bad_orders_and_indices_are_rejected():
    p = random_diffpoly(random.Random(41), 2, terms=3, max_theta=3)
    for s in (-1, -2):
        with pytest.raises(ValueError, match="negative powers"):
            p.d_x_pow(s)
    for i in (0, -1):
        with pytest.raises(ValueError, match="component index"):
            p.variational_theta(i)
        with pytest.raises(ValueError, match="coordinate index"):
            p.variational_u(i)


def test_reflected_operators_and_coercion():
    p = DiffPoly.jet(1, 1)
    u1 = S("u1")
    assert 3 - p == DiffPoly.from_fraction(3) + -p
    assert Fraction(1, 2) - p == -(p - Fraction(1, 2))
    assert u1 - p == DiffPoly.coordinate(1) - p
    assert 2 * p == p + p
    assert u1 * p == DiffPoly.coordinate(1) * p
    assert p + u1 == p + DiffPoly.coordinate(1)
    assert p + 1 == p + DiffPoly.one()
    assert DiffPoly.from_fraction(3) == 3
    assert mul(2, p) == p * 2
    assert mul(u1, p) == p * u1
    assert p.__rsub__("x") is NotImplemented
    assert p.__rmul__("x") is NotImplemented


def term_str_oracle(key, c):
    """The term printer as written before it printed coefficients through _pstr."""
    even, odd = key
    factors = []
    for (i, s), e in even:
        v = f"u{i}_{s}"
        factors.append(v if e == 1 else f"{v}^{e}")
    for s, i in odd:
        factors.append(f"theta{i}_{s}")
    sign = 1
    if c.is_fraction():
        q = c.as_fraction()
        if q < 0:
            sign = -1
            q = -q
        if not factors:
            coef = str(q)
        elif q == 1:
            coef = ""
        else:
            coef = str(q)
    elif c.den == {(): Fraction(1)}:
        if len(c.num) == 1:
            q = next(iter(c.num.values()))
            if q < 0:
                sign = -1
                c = -c
            coef = str(c)
        else:
            coef = f"({c})"
    else:
        coef = str(c)  # already printed as (num)/(den)
    if coef and factors:
        return sign, coef + "*" + "*".join(factors)
    if factors:
        return sign, "*".join(factors)
    return sign, coef


def test_term_printing_matches_the_oracle():
    keys = [
        key
        for factor in (DiffPoly.one(), DiffPoly.jet(1, 2), theta(2, 0),
                       DiffPoly.jet(1, 1) ** 2 * theta(1, 3) * theta(2, 0))
        for key in factor.terms
    ]
    coefficients = [S(text) for text in ("1", "-1", "2/3", "-7/2", "u1", "-3*u1^2*u2",
                                         "2/3*u2", "u1 + u2", "u1/(u2 + 1)", "-1/u1")]
    cases = [(key, c) for key in keys for c in coefficients]
    rng = random.Random(83)
    for _ in range(200):
        cases.extend(random_diffpoly(rng, 3).terms.items())
    for key, c in cases:
        assert _term_str(key, c) == term_str_oracle(key, c), (key, c)


def diffpoly_str_oracle(p):
    """DiffPoly.__str__ as written with its own sign join over the oracle terms."""
    if p.is_zero:
        return "0"
    parts = []
    for key in sorted(p.terms):
        sign, body = term_str_oracle(key, p.terms[key])
        if not parts:
            parts.append(body if sign > 0 else "-" + body)
        else:
            parts.append((" + " if sign > 0 else " - ") + body)
    return "".join(parts)


def test_diffpoly_printing_matches_the_oracle():
    """Jets, thetas, Fraction and polynomial coefficients, negative leading terms,
    constants and zero print byte for byte as the oracle prints them."""
    rng = random.Random(109)
    cases = [DiffPoly.zero(), DiffPoly.one(), DiffPoly.from_fraction(Fraction(-5, 3))]
    for _ in range(300):
        p = random_diffpoly(rng, 3, terms=4)
        if rng.random() < 0.3:
            p = p * DiffPoly.from_scalar(random_polynomial(rng, 3, terms=3) or S("1"))
        cases += [p, -p]
    leading = [str(p)[0] for p in cases]
    assert leading.count("-") > 100 and leading.count("(") > 20
    for p in cases:
        assert str(p) == diffpoly_str_oracle(p), p


def test_printing_signs_and_polynomial_coefficients():
    p = DiffPoly.jet(1, 1)
    assert str(p * -2) == "-2*u1_1"
    assert str(-p - 3) == "-3 - u1_1"
    assert str(3 - p) == "3 - u1_1"
    assert str(p * S("u1+u2")) == "(u1 + u2)*u1_1"
    assert str(p * S("-u1*u2")) == "-u1*u2*u1_1"
