"""The odd evolutionary derivation D_P and the Jacobi identity."""

import os
import random
import time

import pytest

from dnbrackets import cli, jacobi
from dnbrackets.bracket import (
    CoordinateMap,
    HomogeneousBracket,
    _cached,
    check_skew,
    constant_bracket,
    lower_metric,
    transform,
    validate,
)
from dnbrackets.cli import load_bracket
from dnbrackets.diffpoly import _DX_THETAS, DiffPoly, _alternating_sum, _sum, d_x
from dnbrackets.errors import DegenerateMetricError, PreconditionError
from dnbrackets.jacobi import (
    _first_defect,
    _pairing,
    _trivector,
    apply_DP,
    check_jacobi,
    jacobi_defects,
    variational_pair,
)
from dnbrackets.lowdegree import all_pass, potemin_build, potemin_check
from dnbrackets.sampling import random_constant_bracket, random_diffpoly, random_monomial
from dnbrackets.scalar import Scalar

from conftest import FIXTURE_DIR, S, cold_scalar_memos, fixture_path, kernel_draws, nonflat2_data
from test_bracket import JET_PAIRS, elementary_map, generated_jacobi_inputs, with_jet_pair


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


def degree_zero_horner(x, i):
    """sum_s (-D)^s dx_0/dtheta_i^s for x_0 the deg_u-0 part of x and D d_x
    without the chain rule, as _first_defect's deg_u-0 stage computes it."""
    x0 = x.project("deg_u", 0)
    return _alternating_sum(x0._theta_parts, i, x0.max_theta_order(), _DX_THETAS)


def test_degree_zero_horner_is_the_projected_variational_derivative():
    """On random_diffpoly draws, and on T for every fixture, constant draw,
    moved bracket and generated_jacobi item, Poisson or not, the deg_u-0
    Horner loop equals the deg_u-0 component of the variational derivative;
    for T, T_0 is the pairing of the projected variational pair, and the
    first defect is the first nonzero component, negated, never on a Poisson
    bracket, or else the first defect read off T."""
    rng = random.Random(67)
    for k, n in enumerate([1, 2, 3] * 30):
        x = random_diffpoly(rng, n, max_theta=3)
        for i in range(1, n + 1):
            assert degree_zero_horner(x, i) == x.variational_theta(i).project("deg_u", 0), (k, i)
    inputs = [(name, b, None) for name, b in [*fixture_brackets().items(), *constant_draws()]]
    inputs += [(name, b, poisson) for name, b, poisson in moved_brackets()]
    inputs += [(label, transform(b, cmap), poisson) for label, b, cmap, poisson in generated_jacobi_inputs()]
    refuted = {True: 0, False: 0}
    for name, b, poisson in inputs:
        T = _trivector(b)
        ddtheta, ddu = variational_pair(b)
        T0 = _pairing([t.project("deg_u", 0) for t in ddtheta], [u.project("deg_u", 0) for u in ddu])
        assert T0 == T.project("deg_u", 0), name
        components = [T.variational_theta(i).project("deg_u", 0) for i in range(1, b.n + 1)]
        assert [degree_zero_horner(T, i) for i in range(1, b.n + 1)] == components, name
        first = next(((f"D_P^2(u^{i})", -c) for i, c in enumerate(components, 1) if c), None)
        if first:
            assert not poisson and jacobi_defects(b), name
        else:
            first = next((d for d in jacobi_defects(b) if d[0].startswith("D_P^2(u^")), None)
        assert _first_defect(b) == first, name
        refuted[any(components)] += 1
    assert refuted[True] >= 10 and refuted[False] >= 10


def count_trivector_builds(monkeypatch) -> list:
    """Replace jacobi._trivector by a cached wrapper that records each build."""
    built, build = [], jacobi._trivector.__wrapped__

    @_cached
    def counting_build(b):
        built.append(b)
        return build(b)

    monkeypatch.setattr(jacobi, "_trivector", counting_build)
    return built


def test_refutation_at_degree_zero_builds_no_trivector(monkeypatch):
    """lc_k1_broken, and nonflat2 with its jet pair under every step of the
    generated_jacobi passes, are refuted at deg_u 0: the jacobi command fails
    its row and check_jacobi says False without building T.  A Poisson
    bracket still builds it once."""
    broken = load_bracket(fixture_path("lc_k1_broken.json"))
    inputs = [("lc_k1_broken", broken)]
    inputs += [(label, transform(b, cmap)) for label, b, cmap, _ in generated_jacobi_inputs()
               if " nonflat2_jetpair " in label or " lc_k1_broken " in label]
    assert len(inputs) == 13
    built = count_trivector_builds(monkeypatch)
    row = cli.cmd_jacobi(load_bracket(fixture_path("lc_k1_broken.json")), None)[-1]
    assert row.status == "fail" and built == []
    for label, b in inputs:
        assert not check_jacobi(b), label
    assert built == []
    lc1 = load_bracket(fixture_path("lc_k1.json"))
    assert check_jacobi(lc1) and built == [lc1]
    assert jacobi_defects(broken) and built == [lc1, broken]  # the full list still reads T


def refuted_inputs():
    """(name, bracket) for each input that is not Poisson: lc_k1_broken, the
    moved brackets and the generated_jacobi items at seeds 11 and 3."""
    yield "lc_k1_broken", load_bracket(fixture_path("lc_k1_broken.json"))
    yield from ((name, b) for name, b, poisson in moved_brackets() if not poisson)
    yield from ((label, transform(b, cmap)) for label, b, cmap, poisson in generated_jacobi_inputs()
                if not poisson)


def test_first_defect_witness_is_the_least_term_of_the_full_defect():
    """On every refuted input, whichever stage finds it, the first defect's
    least term has the key and coefficient of the least term of the value
    jacobi_defects lists under the same label, and the jacobi command's
    witness names that term."""
    stages = {True: 0, False: 0}
    for name, b in refuted_inputs():
        label, value = _first_defect(b)
        key = min(value.terms)
        full = dict(jacobi_defects(b))[label]
        assert key == min(full.terms) and value.terms[key] == full.terms[key], name
        row = cli.cmd_jacobi(b, None)[-1]
        assert (row.status, row.witness) == ("fail", f"{label} contains {DiffPoly({key: full.terms[key]})}"), name
        stages[not key[0]] += 1  # a least key with no jet: found at deg_u 0
    assert stages[True] >= 10 and stages[False] >= 5


def test_jet_pair_under_two_quadratic_bends_refuted_within_budget():
    """nonflat2 with the jet pair u^{1,3} at P_0^{12}, through u1 -> u1 + u2^2
    and then u2 -> u2 + u1^2, is not Poisson, and check_jacobi says so within
    1.5 s of CPU time from cold memos.

    Reading the first defect off T took 2.3 to 2.7 s of CPU time on a 2-CPU
    x86_64 host with Python 3.11.7; the deg_u-0 refutation took 0.17 to
    0.26 s there.
    """
    u1, u2 = Scalar.coordinate(1), Scalar.coordinate(2)
    first = CoordinateMap(2, [u1 + u2**2, u2], [u1 - u2**2, u2])
    second = CoordinateMap(2, [u1, u2 + u1**2], [u1, u2 - u1**2])
    doc, jets = JET_PAIRS["nonflat2_jetpair"]
    moved = transform(transform(with_jet_pair(load_bracket(fixture_path(doc)), jets), first), second)
    assert validate(moved) == [] and check_skew(moved)
    cold_scalar_memos()
    start = time.process_time()
    assert not check_jacobi(moved)
    elapsed = time.process_time() - start
    assert elapsed < 1.5, f"check_jacobi took {elapsed:.1f} s of CPU time"


def monge_data(terms):
    """(g, c) of the n = 2 Monge metric (Ferapontov-Pavlov-Vitolo): g = L^-1
    for L = sum_a phi_a psi^a (x) psi^a, psi^a_j = a^a_j + sum_k B^a_kj u^k
    with B^a skew, given as (phi_a, (a^a_1, a^a_2), B^a_12); the tail is
    c^{ij}_l = sum_{p,q} g^{ip} g^{jq} c_{qpl} for the lowered
    c_{nkm} = (d_k L_{nm} - d_m L_{nk})/3."""
    u1, u2 = Scalar.coordinate(1), Scalar.coordinate(2)
    psis = [(phi, (a1 - beta * u2, a2 + beta * u1)) for phi, (a1, a2), beta in terms]
    zero = Scalar.zero()
    L = [[sum((phi * p[i] * p[j] for phi, p in psis), zero) for j in range(2)] for i in range(2)]
    g = [list(row) for row in lower_metric(L)]
    low = [[[(L[a][m].partial(k + 1) - L[a][k].partial(m + 1)) / 3 for m in range(2)]
            for k in range(2)] for a in range(2)]
    c = [[[sum((g[i][p] * g[j][q] * low[q][p][l] for p in range(2) for q in range(2)), zero)
           for l in range(2)] for j in range(2)] for i in range(2)]
    return g, c


def test_monge_builder_gives_nonflat2():
    # phi = (1, 1), psi^1 = e_1 and psi^2 = (u2, -u1)
    assert monge_data([(1, (1, 0), 0), (1, (0, 0), -1)]) == nonflat2_data()


def test_check_jacobi_agrees_with_potemin_check_on_monge_draws():
    """Seeded n = 2 Monge brackets with two and three terms: check_jacobi's
    verdict is potemin_check's.  The non-Poisson draws fail only condition
    (4) and are not refuted at deg_u 0, so they take the path through T."""
    rng = random.Random(3)
    verdicts = []
    for terms in (2, 3):
        drawn = 0
        while drawn < 6:
            draw = [(rng.choice((1, -1, 2)), (rng.randint(-2, 2), rng.randint(-2, 2)), rng.randint(-2, 2))
                    for _ in range(terms)]
            try:
                g, c = monge_data(draw)
            except DegenerateMetricError:
                continue
            drawn += 1
            b = potemin_build(g, c)
            report = potemin_check(g, c)
            assert check_skew(b) and check_jacobi(b) == all_pass(report), draw
            if not all_pass(report):
                assert [r.name for r in report if not r.passed] == ["(4) derivative identity"], draw
                assert not any(degree_zero_horner(_trivector(b), i) for i in range(1, b.n + 1)), draw
            verdicts.append(all_pass(report))
    assert verdicts.count(False) >= 3 and verdicts.count(True) >= 6
