"""The odd evolutionary derivation D_P and the Jacobi identity."""

import os
import random
import time

import pytest

from dnbrackets.bracket import (
    CoordinateMap,
    HomogeneousBracket,
    check_skew,
    constant_bracket,
    transform,
    validate,
)
from dnbrackets.cli import load_bracket
from dnbrackets.diffpoly import DiffPoly, _sum, d_x
from dnbrackets.errors import PreconditionError
from dnbrackets.jacobi import (
    _trivector,
    apply_DP,
    check_jacobi,
    jacobi_defects,
    variational_pair,
)
from dnbrackets.sampling import random_constant_bracket, random_monomial
from dnbrackets.scalar import Scalar

from conftest import FIXTURE_DIR, S, cold_scalar_memos, kernel_draws
from test_bracket import JET_PAIRS, elementary_map, with_jet_pair


def test_fixtures_satisfy_jacobi(nonflat2, lc1, canonical4, const2, const3):
    for b in (nonflat2, lc1, canonical4, const2, const3):
        assert check_jacobi(b)
        assert jacobi_defects(b) == []


def test_check_jacobi_agrees_with_the_defect_list():
    # check_jacobi stops at the first defect; jacobi_defects lists them all
    names = sorted(f for f in os.listdir(FIXTURE_DIR) if not f.startswith("map_"))
    assert "lc_k1_broken.json" in names
    for name in names:
        b = load_bracket(os.path.join(FIXTURE_DIR, name))
        assert check_jacobi(b) == (not jacobi_defects(b)), name


def test_depth_two_map_checks_within_budget(nonflat2):
    """nonflat2 through u1 -> u1 + 2*u2 and then u2 -> u2 - u1^2 is Poisson,
    and check_jacobi says so within 12 s of CPU time from cold memos.

    Every coefficient's denominator is a power of 2*u1^2 - u1 + 2*u2, up to
    the fourth, so their gcds with the numerators were polynomial gcds, and
    the check took 20 to 30 s while they were computed by GCDHEU.
    """
    u1, u2 = Scalar.coordinate(1), Scalar.coordinate(2)
    shift = CoordinateMap(2, [u1 + 2 * u2, u2], [u1 - 2 * u2, u2])
    bend = CoordinateMap(2, [u1, u2 - u1**2], [u1, u2 + u1**2])
    moved = transform(transform(nonflat2, shift), bend)
    assert validate(moved) == [] and check_skew(moved)
    cold_scalar_memos()
    start = time.process_time()
    assert check_jacobi(moved)
    elapsed = time.process_time() - start
    assert elapsed < 12.0, f"check_jacobi took {elapsed:.1f} s of CPU time"


def test_two_quadratic_bends_check_within_budget(nonflat2):
    """nonflat2 through u1 -> u1 + u2^2 and then u2 -> u2 + u1^2 is Poisson,
    and check_jacobi says so within 12 s of CPU time from cold memos.

    Applying D_P to both families of variational derivatives took 38 to 41 s
    of CPU time on a 2-CPU x86_64 host with Python 3.11.7; reading the
    defects off the trivector T took 1.4 to 2.4 s there.
    """
    u1, u2 = Scalar.coordinate(1), Scalar.coordinate(2)
    first = CoordinateMap(2, [u1 + u2**2, u2], [u1 - u2**2, u2])
    second = CoordinateMap(2, [u1, u2 + u1**2], [u1, u2 - u1**2])
    moved = transform(transform(nonflat2, first), second)
    assert validate(moved) == [] and check_skew(moved)
    cold_scalar_memos()
    start = time.process_time()
    assert check_jacobi(moved)
    elapsed = time.process_time() - start
    assert elapsed < 12.0, f"check_jacobi took {elapsed:.1f} s of CPU time"


def test_constant_brackets_all_degrees():
    sym = [[S("2"), S("1")], [S("1"), S("1")]]
    skew = [[S("0"), S("1")], [S("-1"), S("0")]]
    for k in range(1, 6):
        eta = sym if k % 2 == 1 else skew
        assert check_jacobi(constant_bracket(eta, k))


def test_check_jacobi_rejects_an_invalid_bracket_with_its_witness():
    P = {(1, 1, 3): DiffPoly.one(), (1, 1, 0): DiffPoly.jet(1, 1)}
    b = HomogeneousBracket(n=1, k=3, P=P)
    problems = validate(b)
    assert problems == ["P_0^{11} is not homogeneous of weight 3: weights [1]"]
    with pytest.raises(PreconditionError, match="invalid bracket") as info:
        check_jacobi(b)
    assert info.value.witness == problems[0]


def test_broken_bracket_fails_with_witness(lc1_broken):
    assert not check_jacobi(lc1_broken)
    defects = jacobi_defects(lc1_broken)
    assert defects
    label, residual = defects[0]
    assert not residual.is_zero


def test_apply_DP_on_variational_pair(lc1):
    # D_P(theta-potentials) reproduces the closing of the bivector:
    # on delta/delta theta_i it returns the bracket rows
    ddtheta, ddu = variational_pair(lc1)
    assert len(ddtheta) == 2 and len(ddu) == 2
    r = apply_DP(lc1, ddtheta[0])
    assert not r.is_zero or check_jacobi(lc1)


def test_DP_is_an_odd_derivation(nonflat2):
    rng = random.Random(41)
    for _ in range(15):
        a = random_monomial(rng, 2, 3, max_degu=2)
        c = random_monomial(rng, 2, 3, max_degu=2)
        if a.is_zero or c.is_zero:
            continue
        degs = a.degrees("deg_theta")
        if len(degs) != 1:
            continue
        sign = -1 if next(iter(degs)) % 2 else 1
        lhs = apply_DP(nonflat2, a * c)
        rhs = apply_DP(nonflat2, a) * c + a * apply_DP(nonflat2, c) * sign
        assert lhs == rhs


def test_DP_squares_to_zero_on_random_monomials(nonflat2, canonical4):
    rng = random.Random(43)
    for b in (nonflat2, canonical4):
        for _ in range(10):
            a = random_monomial(rng, b.n, b.k, max_degu=2)
            if a.is_zero:
                continue
            assert apply_DP(b, apply_DP(b, a)) == DiffPoly.zero()


def test_DP_commutes_with_dx(nonflat2):
    rng = random.Random(47)
    for _ in range(10):
        a = random_monomial(rng, 2, 3, max_degu=2)
        assert apply_DP(nonflat2, d_x(a)) == d_x(apply_DP(nonflat2, a))


def test_DP_raises_standard_degree(nonflat2):
    rng = random.Random(53)
    for _ in range(10):
        a = random_monomial(rng, 2, 3, max_degu=2)
        r = apply_DP(nonflat2, a)
        if a.is_zero or r.is_zero:
            continue
        (da,) = a.degrees("deg") if len(a.degrees("deg")) == 1 else (None,)
        if da is None:
            continue
        assert r.degrees("deg") == {da + 3}


def test_jacobi_on_random_constant_brackets():
    rng = random.Random(59)
    for k in (1, 2, 3, 4):
        for _ in range(3):
            b = random_constant_bracket(rng, 2, k)
            assert check_jacobi(b)


def dx_power(p, s):
    """d_x applied s times to p, one call at a time."""
    for _ in range(s):
        p = d_x(p)
    return p


def apply_DP_oracle(b, a):
    """apply_DP as its own loop over every component, family and order up to
    the top order present, without the derivation kernel and without the
    bracket's cached d_x chains."""
    ddtheta, ddu = variational_pair(b)
    sides = (
        (ddtheta, a._partial_jet, a.max_jet_order()),
        (ddu, a._partial_theta, a.max_theta_order()),
    )
    parts = (
        dx_power(family[i - 1], s) * da
        for i in range(1, b.n + 1)
        for family, partial, top in sides
        for s in range(top + 1)
        if (da := partial(i, s))
    )
    return sum(parts, DiffPoly.zero())


@pytest.mark.parametrize("name", ["lc1", "nonflat2", "canonical4"])
def test_apply_DP_matches_its_loop_oracle(request, name):
    b = request.getfixturevalue(name)
    covered = set()
    for a in kernel_draws(random.Random(97), b, covered):
        assert apply_DP(b, a) == apply_DP_oracle(b, a)
    assert covered == {"coordinates only", "jet order 3", "theta above k"}


def defects_oracle(b):
    """The nonzero values of D_P^2 on u^1..u^n, then on theta_1..theta_n, as
    apply_DP applied to the two families of variational derivatives."""
    ddtheta, ddu = variational_pair(b)
    return [
        (f"D_P^2({label.format(i)})", r)
        for label, family in (("u^{}", ddtheta), ("theta_{}", ddu))
        for i, value in enumerate(family, 1)
        if (r := apply_DP(b, value))
    ]


def fixture_brackets():
    names = sorted(f for f in os.listdir(FIXTURE_DIR) if not f.startswith("map_"))
    return {name: load_bracket(os.path.join(FIXTURE_DIR, name)) for name in names}


def moved_brackets():
    """The fixtures with n >= 2 and the two skew non-Poisson jet pairs, each
    under the shift, both forward shifts and the product map at seed 11:
    (name, bracket, whether it is Poisson)."""
    fixtures = fixture_brackets()
    bases = {name: (b, name != "lc_k1_broken.json") for name, b in fixtures.items() if b.n >= 2}
    for name, (doc, jets) in JET_PAIRS.items():
        bases[name] = (with_jet_pair(fixtures[doc], jets), False)
    rng = random.Random(11)
    for name, (b, poisson) in bases.items():
        for step in ("shift", "forward1", "forward2", "product"):
            yield f"{name} | {step}", transform(b, elementary_map(b.n, step, rng)), poisson


def constant_draws():
    rng = random.Random(61)
    for n, k in ((1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 3), (4, 2)):
        yield f"constant n={n} k={k}", random_constant_bracket(rng, n, k)


def test_defects_match_DP_applied_to_the_variational_pair():
    """Every label and value of jacobi_defects, read off the trivector T,
    equals D_P applied to the variational derivative it names."""
    inputs = [*fixture_brackets().items(), *constant_draws()]
    inputs += [(name, b) for name, b, _ in moved_brackets()]
    families = set()
    for name, b in inputs:
        got, want = jacobi_defects(b), defects_oracle(b)
        assert [label for label, _ in got] == [label for label, _ in want], name
        for (label, r), (_, r0) in zip(got, want):
            assert r == r0 and str(r) == str(r0), (name, label)
        families |= {label.rstrip("0123456789)") for label, _ in got}
    # both families meet nonzero defects somewhere
    assert families == {"D_P^2(u^", "D_P^2(theta_"}


def test_theta_family_decides_jacobi():
    """E = 3T - sum_i theta_i dT/dtheta_i lies in the image of d_x (every
    variational derivative of E vanishes), on Poisson and other inputs alike,
    so the u^i defects vanishing forces the theta_i defects to vanish."""
    seen = {True: 0, False: 0}
    for name, b, poisson in moved_brackets():
        T = _trivector(b)
        dtheta = [T.variational_theta(i) for i in range(1, b.n + 1)]
        E = T * 3 - _sum(DiffPoly.theta(i, 0) * d for i, d in enumerate(dtheta, 1))
        for j in range(1, b.n + 1):
            assert E.variational_theta(j).is_zero and E.variational_u(j).is_zero, (name, j)
        assert (not any(dtheta)) == poisson, name
        if poisson:
            assert not any(T.variational_u(i) for i in range(1, b.n + 1)), name
        seen[poisson] += 1
    assert seen[True] and seen[False]
