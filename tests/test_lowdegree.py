"""Classification conditions for degrees one to four."""

import random
import time
from dataclasses import asdict
from fractions import Fraction
from itertools import product

import pytest

from dnbrackets.bracket import (
    HomogeneousBracket,
    check_skew,
    lower_metric,
    metric_pair,
    validate,
)
from dnbrackets import lowdegree
from dnbrackets.connections import Connection, flat_combination, is_flat
from dnbrackets.diffpoly import DiffPoly
from dnbrackets.jacobi import check_jacobi
from dnbrackets.lowdegree import (
    ConditionResult,
    all_pass,
    canonical_k2,
    dn_check,
    ferguson_check,
    k4_connection_fixtures,
    potemin_build,
    potemin_check,
    quadratic_tail,
)
from dnbrackets.errors import DegenerateMetricError
from dnbrackets.sampling import random_constant_bracket, random_scalar
from dnbrackets.scalar import Scalar

from conftest import S, canonical4_lower, cold_scalar_memos, nonflat2_data


def named_results(report):
    return {r.name: r.passed for r in report}


def triples(report):
    return [(r.name, r.passed, r.witness) for r in report]


def D(text: str) -> DiffPoly:
    return DiffPoly.from_scalar(S(text))


def test_condition_result_is_the_one_check_record():
    # status is pass, fail or skip; passed reads it, and only pass passes
    assert ConditionResult("x", "pass").passed is True
    assert ConditionResult("x", "fail").passed is False
    assert ConditionResult("x", "skip").passed is False
    assert list(asdict(ConditionResult("x", "skip"))) == ["name", "status", "witness", "seconds"]


# -- degree one -------------------------------------------------------------


def test_dn_conditions_match_poisson_property(lc1, lc1_broken):
    good = dn_check(lc1)
    assert all_pass(good)
    assert check_skew(lc1) and check_jacobi(lc1)

    bad = dn_check(lc1_broken)
    assert not all_pass(bad)
    assert check_skew(lc1_broken) and not check_jacobi(lc1_broken)
    flags = named_results(bad)
    # the symmetric part of the tail is still fine; geometry fails
    assert flags["g symmetric"]
    assert flags["tail skew-symmetry"]
    assert not flags["torsionless"] or not flags["metric compatible"] or not flags["flat"]


def test_dn_failures_carry_witnesses(lc1_broken):
    assert triples(dn_check(lc1_broken)) == [
        ("g symmetric", True, None),
        ("tail skew-symmetry", True, None),
        ("torsionless", False, "T^1_{12} = -u2"),
        ("metric compatible", False, "nabla_1 g^{12} = -u2"),
        ("flat", False, "R^2_{1,1,2} = (-u2^2 + 1)/(u1)"),
    ]


def test_dn_witnesses_of_the_metric_and_tail_conditions():
    # g^{12} = g^{21} but g^{13} != g^{31}; the tail of P_0^{11} = u2_1 is not d g / 2
    P = {
        (1, 1, 1): D("1"), (2, 2, 1): D("1"), (3, 3, 1): D("1"),
        (1, 2, 1): D("u3"), (2, 1, 1): D("u3"), (1, 3, 1): D("u2"),
        (1, 1, 0): DiffPoly.jet(2, 1),
    }
    assert triples(dn_check(HomogeneousBracket(n=3, k=1, P=P))) == [
        ("g symmetric", False, "g^{31} - g^{13} = -u2"),
        ("tail skew-symmetry", False, "b^{11}_2 + b^{11}_2 - d_2 g^{11} = 2"),
        ("torsionless", False, "T^1_{12} = (1)/(u3^2 - 1)"),
        ("metric compatible", False, "nabla_1 g^{11} = (2*u3)/(u3^2 - 1)"),
        ("flat", False, "R^1_{2,1,3} = (2*u3)/(u3^4 - 2*u3^2 + 1)"),
    ]


def test_dn_requires_degree_one(const2):
    with pytest.raises(ValueError):
        dn_check(const2)


# -- degree two -------------------------------------------------------------


def k2_break_c():
    glow = canonical4_lower()
    glow[0][1] = glow[0][1] + S("u1")
    glow[1][0] = glow[1][0] - S("u1")
    return canonical_k2(lower_metric(glow))


def k2_break_e():
    base = canonical_k2(lower_metric(canonical4_lower()))
    P = dict(base.P)
    q = DiffPoly.jet(1, 1) * DiffPoly.jet(1, 1)
    P[(1, 2, 0)] = P.get((1, 2, 0), DiffPoly.zero()) + q
    P[(2, 1, 0)] = P.get((2, 1, 0), DiffPoly.zero()) - q
    return HomogeneousBracket(n=4, k=2, P=P)


def test_ferguson_all_pass_on_canonical_family(canonical4):
    report = ferguson_check(canonical4)
    assert all_pass(report)
    assert check_skew(canonical4) and check_jacobi(canonical4)


def test_ferguson_detects_broken_skew_gradient():
    b = k2_break_c()
    assert triples(ferguson_check(b)) == [
        ("(a) g skew-symmetric", True, None),
        ("(b) standard connection flat and torsionless", True, None),
        ("(c) nabla g lower totally skew", False, "nabla_1 g_{12} + nabla_1 g_{12} = 2"),
        ("(d) nabla g upper = b - 2c", True, None),
        ("(e) quadratic tail identity", True, None),
    ]
    assert not check_jacobi(b)


def test_ferguson_detects_broken_quadratic_tail():
    b = k2_break_e()
    assert triples(ferguson_check(b)) == [
        ("(a) g skew-symmetric", True, None),
        ("(b) standard connection flat and torsionless", True, None),
        ("(c) nabla g lower totally skew", True, None),
        ("(d) nabla g upper = b - 2c", True, None),
        ("(e) quadratic tail identity", False, "c^{12}_{11} defect = 1"),
    ]
    assert check_skew(b) and not check_jacobi(b)


def test_ferguson_witnesses_of_the_metric_and_connection_conditions():
    # a leading matrix that is not skew
    P = {(1, 2, 2): D("1+u1"), (2, 1, 2): D("-1")}
    assert triples(ferguson_check(HomogeneousBracket(n=2, k=2, P=P))) == [
        ("(a) g skew-symmetric", False, "g^{21} + g^{12} = u1"),
        ("(b) standard connection flat and torsionless", True, None),
        ("(c) nabla g lower totally skew", False,
         "nabla_1 g_{12} + nabla_1 g_{21} = (-1)/(u1^2 + 2*u1 + 1)"),
        ("(d) nabla g upper = b - 2c", False, "nabla_1 g^{12} - b^{12}_1 + 2c^{12}_1 = 1"),
        ("(e) quadratic tail identity", True, None),
    ]
    # canonical4 with u1 u3_2 added to P_0^{12}: the standard connection curves
    P = dict(canonical_k2(lower_metric(canonical4_lower())).P)
    P[(1, 2, 0)] = P.get((1, 2, 0), DiffPoly.zero()) + DiffPoly.jet(3, 2) * S("u1")
    assert triples(ferguson_check(HomogeneousBracket(n=4, k=2, P=P))) == [
        ("(a) g skew-symmetric", True, None),
        ("(b) standard connection flat and torsionless", False, "R^2_{3,1,2} = u3 + 1"),
        ("(c) nabla g lower totally skew", False,
         "nabla_1 g_{23} + nabla_2 g_{13} = -u1*u3^2 - 2*u1*u3 - u1"),
        ("(d) nabla g upper = b - 2c", False, "nabla_2 g^{24} - b^{24}_2 + 2c^{24}_2 = -u1*u3 - u1"),
        ("(e) quadratic tail identity", False, "c^{12}_{13} defect = -1/2"),
    ]


def quadratic_term_oracle(glow, cc, i, j, q, l):
    """1/2 sum_{p,r} g_pr (c^{ri}_q c^{pj}_l + c^{ri}_l c^{pj}_q), the double sum."""
    n, half = len(glow), Scalar.from_fraction(Fraction(1, 2))
    return sum((glow[p][r] * (cc[r][i][q] * cc[p][j][l] + cc[r][i][l] * cc[p][j][q]) * half
                for p, r in product(range(n), repeat=2)), Scalar.zero())


def condition_e_oracle(b):
    """Ferguson's (e) row as (status, witness), through the double sum."""
    named, glow = metric_pair(b)
    cc, q_tail, half = named.h[0], quadratic_tail(b, 0), Scalar.from_fraction(Fraction(1, 2))
    for i, j, q, l in product(range(b.n), repeat=4):
        sym_deriv = (cc[i][j][q].partial(l + 1) + cc[i][j][l].partial(q + 1)) * half
        value = q_tail[i][j][q][l] - (sym_deriv - quadratic_term_oracle(glow, cc, i, j, q, l))
        if value:
            return "fail", f"c^{{{i+1}{j+1}}}_{{{q+1}{l+1}}} defect = {value}"
    return "pass", None


def k2_brackets_for_condition_e(canonical4):
    """canonical4, constant k = 2 brackets, and non-Poisson k = 2 brackets:
    k2_break_e, k2_break_c, and canonical4 with coordinate-dependent
    coefficients c^{ij}_l of u^{l,2} added to P_0 and a quadratic tail."""
    rng = random.Random(23)
    out = {"canonical4": canonical4, "break_e": k2_break_e(), "break_c": k2_break_c()}
    for n in (2, 4):
        out[f"constant n={n}"] = random_constant_bracket(rng, n, 2)
    P = dict(canonical4.P)
    extra = {
        (1, 2): DiffPoly.jet(3, 2) * S("1+u1") + DiffPoly.jet(1, 2) * S("u2"),
        (2, 1): DiffPoly.jet(4, 2) * S("-2") + DiffPoly.jet(2, 1) ** 2 * S("u4"),
        (3, 4): DiffPoly.jet(2, 2) * S("u4/(1+u3)"),
        (1, 1): DiffPoly.jet(1, 2) * S("u3") + DiffPoly.jet(4, 2),
    }
    for (i, j), v in extra.items():
        P[(i, j, 0)] = P.get((i, j, 0), DiffPoly.zero()) + v
    out["perturbed"] = HomogeneousBracket(n=4, k=2, P=P)
    return out


def test_contracted_quadratic_term_matches_the_double_sum(canonical4):
    brackets = k2_brackets_for_condition_e(canonical4)
    nonzero = 0
    for name, b in brackets.items():
        named, glow = metric_pair(b)
        cc = named.h[0]
        term = lowdegree._quadratic_term(glow, cc)
        for index in product(range(b.n), repeat=4):
            want = quadratic_term_oracle(glow, cc, *index)
            assert term(*index) == want, (name, index)
            nonzero += bool(want)
    assert nonzero >= 20
    assert not check_skew(brackets["perturbed"])  # so not Poisson


def test_condition_e_keeps_its_status_and_witness(canonical4):
    statuses = set()
    for name, b in k2_brackets_for_condition_e(canonical4).items():
        row = ferguson_check(b)[-1]
        assert row.name == "(e) quadratic tail identity"
        assert (row.status, row.witness) == condition_e_oracle(b), name
        statuses.add(row.status)
    assert statuses == {"pass", "fail"}


def test_first_combination_flat_whenever_a_to_d_hold():
    # the quadratic-tail defect does not disturb flatness of the first
    # binomial combination, which only needs conditions (a)-(d)
    b = k2_break_e()
    assert is_flat(flat_combination(b, 1))


def test_canonical_k2_rejects_symmetric_leading_matrix():
    g = [[S("0"), S("1")], [S("1"), S("0")]]
    with pytest.raises(ValueError):
        canonical_k2(g)


def test_canonical_k2_expansion():
    g = [[S("0"), S("u1")], [S("-u1"), S("0")]]
    b = canonical_k2(g)
    assert b.k == 2
    assert b.P[(1, 2, 2)] == DiffPoly.from_scalar(S("u1"))
    assert b.P[(1, 2, 1)] == DiffPoly.jet(1, 1)
    assert (2, 1, 1) in b.P
    assert validate(b) == []
    assert check_skew(b)


def test_quadratic_tail_extraction():
    q = (
        DiffPoly.jet(1, 1) * DiffPoly.jet(1, 1)
        + DiffPoly.jet(1, 1) * DiffPoly.jet(2, 1) * S("3")
    )
    P = {
        (1, 2, 2): DiffPoly.one(),
        (2, 1, 2): DiffPoly.one() * S("-1"),
        (1, 2, 0): q,
        (2, 1, 0): q * S("-1"),
    }
    b = HomogeneousBracket(n=2, k=2, P=P)
    t = quadratic_tail(b, 0)
    assert t[0][1][0][0] == Scalar.one()
    assert t[0][1][0][1] == S("3/2")
    assert t[0][1][1][0] == S("3/2")
    assert t[0][1][1][1] == Scalar.zero()
    assert t[1][0][0][0] == S("-1")


# -- degree three -----------------------------------------------------------


def test_potemin_conditions_on_worked_example(nonflat2):
    g, c = nonflat2_data()
    report = potemin_check(g, c)
    assert all_pass(report)
    assert check_jacobi(nonflat2)


def test_potemin_conditions_detect_perturbation():
    g, c = nonflat2_data()
    c[0][1][0] = c[0][1][0] + S("u1")
    assert triples(potemin_check(g, c)) == [
        ("(1) dg = c + c^T", False, "d_1 g^{12} - c^{12}_1 - c^{21}_1 = -u1"),
        ("(2) g c skew in first pair", False, "(gc)^{112} symmetric part = 2*u1"),
        ("(3) cyclic sum vanishes", False, "cyclic (gc)^{112} = u1"),
        ("(4) derivative identity", False, "(4) at (1,2,1,1) = 1"),
    ]
    # the perturbed data no longer assembles into a skew operator
    assert not check_skew(potemin_build(g, c))


def test_potemin_build_rejects_asymmetric_metric():
    g = [[S("1"), S("u1")], [S("0"), S("1")]]
    c = [[[Scalar.zero()] * 2 for _ in range(2)] for _ in range(2)]
    with pytest.raises(ValueError):
        potemin_build(g, c)


def test_potemin_combination_identities(nonflat2):
    # both flat combinations are contractions of the tail with the
    # lowered metric: the first is g.c, the second 2 g.c - g.c-transposed
    g, c = nonflat2_data()
    glow = lower_metric(g)
    flat1 = flat_combination(nonflat2, 1)
    flat2 = flat_combination(nonflat2, 2)
    n = 2
    for l in range(n):
        for i in range(n):
            for j in range(n):
                gc = Scalar.zero()
                gct = Scalar.zero()
                for s in range(n):
                    gc = gc + glow[i][s] * c[s][l][j]
                    gct = gct + glow[i][s] * c[l][s][j]
                assert flat1.gamma[l][i][j] == gc
                assert flat2.gamma[l][i][j] == gc * S("2") - gct


# -- the constructors against their hand expansions ------------------------


def expansion_oracle(g: list, c: list | None) -> dict:
    """P of d/dx g d/dx (c is None) or d/dx (g d/dx + c_l u^l_x) d/dx, each
    entry written out term by term: P_1 = dg for k = 2; P_2 = (dg_l + c_l)
    u^{l,1} and P_1 = c_l u^{l,2} + (dc_l/du^m) u^{l,1} u^{m,1} for k = 3."""
    n = len(g)
    k = 2 if c is None else 3
    out = {}
    for i, j in product(range(n), repeat=2):
        out[(i + 1, j + 1, k)] = DiffPoly.from_scalar(g[i][j])
        cij = [Scalar.zero()] * n if c is None else c[i][j]
        out[(i + 1, j + 1, k - 1)] = sum(
            (
                DiffPoly.jet(l + 1, 1) * bl
                for l in range(n)
                if (bl := g[i][j].partial(l + 1) + cij[l])
            ),
            DiffPoly.zero(),
        )
        if c is not None:
            parts = [DiffPoly.jet(l + 1, 2) * cij[l] for l in range(n)] + [
                DiffPoly.jet(l + 1, 1) * DiffPoly.jet(m + 1, 1) * cij[l].partial(m + 1)
                for l, m in product(range(n), repeat=2)
            ]
            out[(i + 1, j + 1, 1)] = sum(parts, DiffPoly.zero())
    return out


def assert_matches_expansion(g: list, c: list | None) -> None:
    b = canonical_k2(g) if c is None else potemin_build(g, c)
    want = expansion_oracle(g, c)
    for i, j, s in product(range(1, b.n + 1), range(1, b.n + 1), range(b.k + 1)):
        assert b.entry(i, j, s) == want.get((i, j, s), DiffPoly.zero()), (i, j, s)


def test_constructors_match_their_expansions_on_the_worked_examples():
    assert_matches_expansion(*nonflat2_data())
    assert_matches_expansion(canonical4_lower(), None)
    assert_matches_expansion(lower_metric(canonical4_lower()), None)


def test_constructors_match_their_expansions_on_random_data():
    built = {"skew": 0, "symmetric": 0}
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        sign = rng.choice((1, -1))
        g = [[Scalar.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if sign > 0 else i + 1, n):
                g[i][j] = random_scalar(rng, n)
                g[j][i] = g[i][j] * sign
        if sign < 0:
            assert_matches_expansion(g, None)
            built["skew"] += 1
            continue
        c = [[[random_scalar(rng, n) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        try:
            lower_metric(g)
        except DegenerateMetricError:
            continue
        assert_matches_expansion(g, c)
        built["symmetric"] += 1
    assert min(built.values()) >= 5, built


# -- degree four ------------------------------------------------------------


def random_k4_bracket(rng):
    """Degree-4 bracket with generic constant jet-linear tails."""
    n = 2
    P = {
        (1, 2, 4): DiffPoly.one(),
        (2, 1, 4): DiffPoly.one() * S("-1"),
    }
    for s in range(4):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                entry = DiffPoly.zero()
                for l in range(1, n + 1):
                    entry = entry + DiffPoly.jet(l, 4 - s) * Fraction(
                        rng.randint(-4, 4)
                    )
                if not entry.is_zero:
                    P[(i, j, s)] = entry
    return HomogeneousBracket(n=n, k=4, P=P)


def test_k4_closed_forms_on_random_data():
    rng = random.Random(79)
    for _ in range(5):
        b = random_k4_bracket(rng)
        assert validate(b) == []
        report = k4_connection_fixtures(b)
        assert all_pass(report), [r.name for r in report if not r.passed]


def test_k4_closed_forms_on_constant_bracket():
    eta = [[S("0"), S("1")], [S("-1"), S("0")]]
    P = {(1, 2, 4): DiffPoly.one(), (2, 1, 4): DiffPoly.one() * S("-1")}
    b = HomogeneousBracket(n=2, k=4, P=P)
    report = k4_connection_fixtures(b)
    assert all_pass(report)
    assert len(report) == 7  # four standard forms and three combinations


def test_k4_each_closed_form_compares_its_own_connection(monkeypatch):
    # Gamma_(1) moved at one component: only its row fails, located there
    P = {(1, 2, 4): DiffPoly.one(), (2, 1, 4): DiffPoly.one() * S("-1")}
    b = HomogeneousBracket(n=2, k=4, P=P)
    standard = lowdegree.standard_connection

    def moved(b, s):
        conn = standard(b, s)
        if s != 1:
            return conn
        gamma = [[row[:] for row in block] for block in conn.gamma]
        gamma[1][0][1] = gamma[1][0][1] + S("u1")
        return Connection(n=conn.n, gamma=gamma)

    monkeypatch.setattr(lowdegree, "standard_connection", moved)
    assert [(r.name, r.witness) for r in k4_connection_fixtures(b) if not r.passed] == [
        ("Gamma_(1) = -1/4 g d", "difference at ^2_{12} = u1"),
    ]


def test_k4_closed_forms_do_not_share_the_connections_inverse(monkeypatch):
    """The expected sides invert the leading coefficient on their own: a wrong
    inverse in the path every connection takes (bracket.lower_metric) fails
    all seven rows, the four standard forms included, and a singular leading
    coefficient is still rejected."""
    from dnbrackets import bracket

    b = random_k4_bracket(random.Random(83))  # fresh, so nothing is cached on it
    original = bracket.lower_metric
    monkeypatch.setattr(bracket, "lower_metric",
                        lambda g: [[2 * x for x in row] for row in original(g)])
    report = k4_connection_fixtures(b)
    assert [r.name for r in report if not r.passed] == [r.name for r in report]
    assert len(report) == 7
    monkeypatch.undo()
    singular = HomogeneousBracket(n=2, k=4, P={(1, 1, 4): DiffPoly.one()})
    with pytest.raises(DegenerateMetricError):
        k4_connection_fixtures(singular)


def laplace_det(m: list) -> Scalar:
    """The oracle of _det_adj's determinant: Laplace expansion along the first
    row, sums of products with no division, factorial in the size."""
    if len(m) == 1:
        return m[0][0]
    return sum(((-1) ** j * x * laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
                for j, x in enumerate(m[0]) if x), Scalar.zero())


def laplace_adj(m: list) -> list:
    """The adjugate by cofactors: entry (i, j) is the cofactor of m's entry (j, i)."""
    n = len(m)
    if n == 1:
        return [[Scalar.one()]]
    return [[(-1) ** (i + j) * laplace_det([row[:i] + row[i + 1:] for q, row in enumerate(m) if q != j])
             for j in range(n)] for i in range(n)]


def det_adj_matrices(seed: int = 97):
    """Square matrices of sizes 1 to 5: constants, polynomials and quotients
    in u1..u3, some with a zero entry, and singular ones (a repeated row, a
    row that is a multiple of another over the rational functions)."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 6):
        for kind in range(4):
            m = [[random_scalar(rng, 3, terms=2, deg=1 if n > 3 else 2) if kind else
                  Scalar.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                  for _ in range(n)] for _ in range(n)]
            if n > 1 and kind == 2:
                m[-1] = list(m[0])
            elif n > 1 and kind == 3:
                m[-1] = [x * S("u1 + u2") for x in m[0]]
            out.append(m)
    return out


def test_det_adj_matches_the_laplace_expansion():
    """Faddeev-LeVerrier's determinant and adjugate equal Laplace expansion and
    cofactors on every matrix of det_adj_matrices, the singular ones included,
    and a adj a = det a I."""
    singular = 0
    for m in det_adj_matrices():
        det, adj = lowdegree._det_adj(m)
        n = len(m)
        assert det == laplace_det(m), m
        assert adj == laplace_adj(m), m
        assert [[sum((m[i][l] * adj[l][j] for l in range(n)), Scalar.zero()) for j in range(n)]
                for i in range(n)] == [[det if i == j else Scalar.zero() for j in range(n)]
                                       for i in range(n)], m
        singular += det.is_zero
    assert singular >= 8


def test_det_adj_matches_sympy():
    sympy = pytest.importorskip("sympy")
    u = dict(zip(("u1", "u2", "u3"), sympy.symbols("u1 u2 u3")))

    def to_sympy(x):
        return sympy.sympify(str(x).replace("^", "**"), locals=u)

    for m in [m for m in det_adj_matrices(seed=101) if len(m) <= 4][::2]:
        det, adj = lowdegree._det_adj(m)
        M = sympy.Matrix([[to_sympy(x) for x in row] for row in m])
        assert sympy.cancel(to_sympy(det) - M.det()) == 0, m
        want = M.adjugate()
        assert all(sympy.cancel(to_sympy(adj[i][j]) - want[i, j]) == 0
                   for i in range(len(m)) for j in range(len(m))), m


def test_k4_closed_forms_on_a_size_ten_constant_bracket_within_budget():
    """k4_connection_fixtures on random_constant_bracket(Random(1), 10, 4)
    passes every row within 3 s of CPU time from cold memos.  It takes about
    0.3 s; a Laplace-expanded determinant and cofactors took 100 s."""
    b = random_constant_bracket(random.Random(1), 10, 4)
    cold_scalar_memos()
    start = time.process_time()
    report = k4_connection_fixtures(b)
    elapsed = time.process_time() - start
    assert all_pass(report), [r.name for r in report if not r.passed]
    assert elapsed < 3.0, f"k4_connection_fixtures took {elapsed:.1f} s of CPU time"
