"""Acceptance suite: nine timed end-to-end criteria.

Each test prints exactly one summary line (bypassing pytest capture) of
the form ``acceptance N: <label> -> pass|FAIL (T s)``, checks results
exactly (no tolerances), and enforces its runtime budget.
"""

import contextlib
import random
import time
from fractions import Fraction

import pytest

from dnbrackets.bracket import (
    HomogeneousBracket,
    check_skew,
    constant_bracket,
    transform,
    validate,
)
from dnbrackets.cli import load_map
from dnbrackets.connections import (
    c_matrix,
    curvature,
    flat_combination,
    is_flat,
    standard_connection,
    torsion,
)
from dnbrackets.diffpoly import DiffPoly, d_x, project, variational
from dnbrackets.jacobi import apply_DP, check_jacobi, jacobi_defects
from dnbrackets.lowdegree import all_pass, dn_check, ferguson_check, potemin_check
from dnbrackets.sampling import (
    random_constant_bracket,
    random_diffpoly,
    random_monomial,
)
from dnbrackets.scalar import Scalar
from dnbrackets.spectral import (
    D_minus1_closed,
    d1_as_connection,
    d1_closed,
    d1_spectral,
    d1_split,
    homotopy,
    project_B,
    spanning_monomials,
)

from conftest import S, cold_scalar_memos, fixture_path, nonflat2_data
from test_lowdegree import k2_break_e


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    # the summary lines must reach the terminal even under fd-level
    # capture, so each test lends its capsys handle to `criterion`
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _announce(line):
    ctx = _CAPSYS.disabled() if _CAPSYS is not None else contextlib.nullcontext()
    with ctx:
        print(line, flush=True)


@contextlib.contextmanager
def criterion(num, label, budget):
    # every budget is met from cold scalar memos (partial derivatives and
    # factored denominators), not from the entries an earlier test left behind
    cold_scalar_memos()
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        _announce(f"acceptance {num}: {label} -> FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    word = "pass" if ok else "FAIL"
    _announce(f"acceptance {num}: {label} -> {word} ({elapsed:.2f}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {budget}s budget"


def perturbed_nonflat2(nonflat2):
    """One free coefficient of the deepest tail changed (with its
    adjoint partner), preserving skewness."""
    w = DiffPoly.jet(1, 1) * DiffPoly.jet(1, 2)
    P = dict(nonflat2.P)
    P[(1, 2, 0)] = P.get((1, 2, 0), DiffPoly.zero()) + w
    P[(2, 1, 0)] = P.get((2, 1, 0), DiffPoly.zero()) - w
    return HomogeneousBracket(n=2, k=3, P=P)


def test_criterion_1_flat_combinations_and_curvature(nonflat2):
    with criterion(1, "worked degree-3 bracket: combinations flat, named curvature", 10.0):
        for s in range(3):
            assert is_flat(flat_combination(nonflat2, s))
        R1 = curvature(standard_connection(nonflat2, 1))
        R2 = curvature(standard_connection(nonflat2, 2))
        assert not R1.is_zero() and not R2.is_zero()
        # specific components, in the storage layout R[l][t][i][j]
        # (all indices 0-based): the two published spot values
        assert R1.R[1][0][1][0] == S("4/(9*u1^2)")
        assert R2.R[0][1][1][0] == S("8/9")
        # full component tables
        got1 = {key: v for key, v in R1.nonzero_components()}
        assert got1 == {
            (1, 0, 0, 1): S("-4/(9*u1^2)"),
            (1, 0, 1, 0): S("4/(9*u1^2)"),
        }
        got2 = {key: v for key, v in R2.nonzero_components()}
        assert got2 == {
            (0, 0, 0, 1): S("8*u2/(9*u1)"),
            (0, 0, 1, 0): S("-8*u2/(9*u1)"),
            (1, 1, 1, 0): S("8*u2/(9*u1)"),
            (1, 1, 0, 1): S("-8*u2/(9*u1)"),
            (1, 0, 0, 1): S("(8*u2^2 - 12)/(9*u1^2)"),
            (1, 0, 1, 0): S("(12 - 8*u2^2)/(9*u1^2)"),
            (0, 1, 1, 0): S("8/9"),
            (0, 1, 0, 1): S("-8/9"),
        }


def test_criterion_2_jacobi_machinery(nonflat2):
    with criterion(2, "Jacobi: worked bracket, perturbation witness, constants k=1..5", 30.0):
        assert check_jacobi(nonflat2)
        bad = perturbed_nonflat2(nonflat2)
        assert check_skew(bad)
        assert not check_jacobi(bad)
        defects = jacobi_defects(bad)
        assert defects and not defects[0][1].is_zero
        sym = [[S("2"), S("1")], [S("1"), S("1")]]
        skew = [[S("0"), S("1")], [S("-1"), S("0")]]
        for k in range(1, 6):
            b = constant_bracket(sym if k % 2 == 1 else skew, k)
            assert validate(b) == []
            assert check_skew(b)
            assert check_jacobi(b)


def test_criterion_3_c_matrix_suite():
    with criterion(3, "binomial coefficient matrices k=1..8", 1.0):
        for k in range(1, 9):
            cm = c_matrix(k)
            for s in range(k):
                assert all(cm.c[s][t] == 0 for t in range(s + 1, k))
                assert sum(cm.c[s]) == 1 and sum(cm.cinv[s]) == 1
                for t in range(k):
                    prod = sum(cm.c[s][q] * cm.cinv[q][t] for q in range(k))
                    assert prod == (1 if s == t else 0)
            if k >= 2:
                assert cm.c[1][:2] == [Fraction(k + 1), Fraction(-k)]
            if k >= 3:
                assert cm.c[2][:3] == [
                    Fraction((k + 2) * (k + 1), 2),
                    Fraction(-k * (k + 1)),
                    Fraction(k * (k - 1), 2),
                ]
        assert c_matrix(4).c[3] == [
            Fraction(35),
            Fraction(-60),
            Fraction(30),
            Fraction(-4),
        ]


def test_criterion_4_spectral_oracle_pair(nonflat2, canonical4):
    with criterion(4, "first differential: oracle pair, graded identities, homotopy", 120.0):
        for b in (nonflat2, canonical4):
            span = spanning_monomials(b.n, b.k)
            assert len(span) > 50
            for x in span:
                lhs = d1_spectral(b, x)
                assert lhs == d1_closed(b, x)
                up, same = d1_split(b, x)
                assert up + same == lhs
                up_up, up_same = d1_split(b, up)
                same_up, same_same = d1_split(b, same)
                assert up_up.is_zero
                assert (up_same + same_up).is_zero
                assert same_same.is_zero
        rng = random.Random(0)
        checked = 0
        while checked < 100:
            a = random_monomial(rng, 2, 3, max_degu=3)
            if a.is_zero:
                continue
            checked += 1
            lhs = D_minus1_closed(nonflat2, homotopy(nonflat2, a)) + homotopy(
                nonflat2, D_minus1_closed(nonflat2, a)
            )
            assert lhs == a - project_B(a, 3)
            assert D_minus1_closed(nonflat2, D_minus1_closed(nonflat2, a)).is_zero
        assert checked >= 100


def test_criterion_5_connection_form_of_d1(nonflat2, canonical4):
    with criterion(5, "theta-raising part of d_1 realized by the flat connections", 60.0):
        for b in (nonflat2, canonical4):
            for x in spanning_monomials(b.n, b.k):
                assert d1_as_connection(b, x) == d1_split(b, x)[0]


def test_criterion_6_low_degree_equivalences(lc1, lc1_broken, canonical4, nonflat2):
    with criterion(6, "classification conditions equal Poisson property, k=1,2,3", 120.0):
        # degree 1: conditions hold exactly when the bracket is Poisson
        assert all_pass(dn_check(lc1)) == (check_skew(lc1) and check_jacobi(lc1)) == True
        assert not all_pass(dn_check(lc1_broken))
        assert check_skew(lc1_broken) and not check_jacobi(lc1_broken)

        # degree 2: same equivalence on the linear skew family
        assert all_pass(ferguson_check(canonical4))
        assert check_skew(canonical4) and check_jacobi(canonical4)
        broken = k2_break_e()
        report = {r.name: r.passed for r in ferguson_check(broken)}
        assert not report["(e) quadratic tail identity"]
        assert all(v for name, v in report.items() if not name.startswith("(e)"))
        assert check_skew(broken) and not check_jacobi(broken)
        # first combination flat whenever (a)-(d) hold
        assert is_flat(flat_combination(broken, 1))

        # degree 3: conditions on the worked data imply Jacobi, and the
        # combinations are metric contractions of the tail
        g, c = nonflat2_data()
        assert all_pass(potemin_check(g, c))
        assert check_jacobi(nonflat2)
        from dnbrackets.bracket import lower_metric

        glow = lower_metric(g)
        flat1 = flat_combination(nonflat2, 1)
        flat2 = flat_combination(nonflat2, 2)
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    gc = Scalar.zero()
                    gct = Scalar.zero()
                    for s in range(2):
                        gc = gc + glow[i][s] * c[s][l][j]
                        gct = gct + glow[i][s] * c[l][s][j]
                    assert flat1.gamma[l][i][j] == gc
                    assert flat2.gamma[l][i][j] == gc * S("2") - gct


def test_criterion_7_deepest_connection_property(
    nonflat2, lc1, canonical4, const2, const3
):
    with criterion(7, "s=0 connection torsionless and flat on all Poisson fixtures", 60.0):
        rng = random.Random(13)
        fixtures = [nonflat2, lc1, canonical4, const2, const3]
        fixtures += [random_constant_bracket(rng, 2, k) for k in (1, 2, 3)]
        for b in fixtures:
            assert check_jacobi(b)
            conn = standard_connection(b, 0)
            T = torsion(conn)
            n = b.n
            assert all(
                T[l][i][j].is_zero
                for l in range(n)
                for i in range(n)
                for j in range(n)
            )
            assert is_flat(conn)


def test_criterion_8_transform_invariance(nonflat2):
    with criterion(8, "rational change of coordinates preserves all checks", 120.0):
        cmap = load_map(fixture_path("map_product.json"), 2)
        moved = transform(nonflat2, cmap)
        assert validate(moved) == []
        assert check_skew(moved)
        assert check_jacobi(moved)
        for s in range(3):
            assert is_flat(flat_combination(moved, s))
        back = transform(moved, cmap.inverted())
        keys = set(back.P) | set(nonflat2.P)
        for key in keys:
            assert back.P.get(key, DiffPoly.zero()) == nonflat2.P.get(
                key, DiffPoly.zero()
            )


def test_criterion_9_randomized_property_suite(nonflat2):
    with criterion(9, "derivation and projection laws, 500+ seeded cases", 120.0):
        rng = random.Random(2024)
        cases = 0

        # total derivative is a derivation
        for _ in range(150):
            a = random_diffpoly(rng, 2, terms=2)
            b = random_diffpoly(rng, 2, terms=2)
            assert d_x(a * b) == d_x(a) * b + a * d_x(b)
            cases += 1

        # variational derivatives annihilate total derivatives
        for _ in range(80):
            a = random_diffpoly(rng, 2, terms=2)
            total = d_x(a)
            for i in (1, 2):
                assert variational(total, "u", i).is_zero
                assert variational(total, "theta", i).is_zero
                cases += 2

        # projections are idempotent and recover the original
        for _ in range(80):
            a = random_diffpoly(rng, 2, terms=3)
            recovered = DiffPoly.zero()
            for d in a.degrees("deg"):
                piece = project(a, "deg", d)
                assert project(piece, "deg", d) == piece
                recovered = recovered + piece
                cases += 1
            assert recovered == a

        # the bracket derivation satisfies the graded Leibniz rule
        count_dp = 0
        while count_dp < 40:
            a = random_monomial(rng, 2, 3, max_degu=1)
            c = random_monomial(rng, 2, 3, max_degu=1)
            if a.is_zero or c.is_zero:
                continue
            degs = a.degrees("deg_theta")
            if len(degs) != 1:
                continue
            sign = -1 if next(iter(degs)) % 2 else 1
            lhs = apply_DP(nonflat2, a * c)
            rhs = apply_DP(nonflat2, a) * c + a * apply_DP(nonflat2, c) * sign
            assert lhs == rhs
            count_dp += 1
            cases += 1

        assert cases >= 500, cases
