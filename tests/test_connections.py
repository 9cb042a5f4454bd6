"""Standard connections, binomial combinations, curvature, flatness."""

from fractions import Fraction

import pytest

from dnbrackets.bracket import HomogeneousBracket, check_skew, metric_pair
from dnbrackets.cli import MAX_DEGREE, load_bracket
from dnbrackets.connections import (
    c_matrix,
    curvature,
    flat_combination,
    flip_torsion,
    genericity,
    is_flat,
    nabla_tensor,
    standard_connection,
    torsion,
)
from dnbrackets.diffpoly import DiffPoly
from dnbrackets.scalar import Scalar

from conftest import S, fixture_path


def test_c_matrix_low_degree_rows():
    assert c_matrix(2).c == [
        [Fraction(1), Fraction(0)],
        [Fraction(3), Fraction(-2)],
    ]
    assert c_matrix(3).c == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(4), Fraction(-3), Fraction(0)],
        [Fraction(10), Fraction(-12), Fraction(3)],
    ]
    assert c_matrix(4).c[3] == [
        Fraction(35),
        Fraction(-60),
        Fraction(30),
        Fraction(-4),
    ]


def test_c_matrix_general_rows():
    """Every degree the command line accepts, since c_matrix checks nothing itself."""
    for k in range(1, MAX_DEGREE + 1):
        cm = c_matrix(k)
        assert cm.c[0][0] == 1
        if k >= 2:
            assert cm.c[1][:2] == [Fraction(k + 1), Fraction(-k)]
        if k >= 3:
            assert cm.c[2][:3] == [
                Fraction((k + 2) * (k + 1), 2),
                Fraction(-k * (k + 1)),
                Fraction(k * (k - 1), 2),
            ]
        # invariants: integral (flat_combination takes int(c_s^t)), triangular,
        # unit row sums, exact inverse
        for s in range(k):
            assert all(x.denominator == 1 for x in cm.c[s])
            assert all(cm.c[s][t] == 0 for t in range(s + 1, k))
            assert sum(cm.c[s]) == 1
            assert sum(cm.cinv[s]) == 1
        for s in range(k):
            for t in range(k):
                total = sum(cm.c[s][q] * cm.cinv[q][t] for q in range(k))
                assert total == (1 if s == t else 0)


def test_levi_civita_recovered_for_degree_one(lc1):
    conn = standard_connection(lc1, 0)
    # metric diag(u1, 1) lowered to diag(1/u1, 1): only Christoffel -1/(2u1)
    for l in range(2):
        for i in range(2):
            for j in range(2):
                want = S("-1/(2*u1)") if (l, i, j) == (0, 0, 0) else Scalar.zero()
                assert conn.gamma[l][i][j] == want
    assert is_flat(conn)
    T = torsion(conn)
    assert all(T[l][i][j].is_zero for l in range(2) for i in range(2) for j in range(2))
    named, glow = metric_pair(lc1)
    N = nabla_tensor(conn, named.g, "upper")
    assert all(N[l][i][j].is_zero for l in range(2) for i in range(2) for j in range(2))


def test_nonflat2_standard_connection_entries(nonflat2):
    conn = standard_connection(nonflat2, 1)
    expect = {
        (1, 0, 1): S("-1/(3*u1)"),
        (1, 1, 0): S("1/(3*u1)"),
    }
    for l in range(2):
        for i in range(2):
            for j in range(2):
                assert conn.gamma[l][i][j] == expect.get((l, i, j), Scalar.zero())


def test_nonflat2_curvature_values(nonflat2):
    # components R^l_{t,i,j} of the curvature of the two non-flat
    # standard connections, frozen from the worked example (1-based keys)
    R1 = curvature(standard_connection(nonflat2, 1))
    got1 = {
        (l + 1, t + 1, i + 1, j + 1): v for (l, t, i, j), v in R1.nonzero_components()
    }
    assert got1 == {
        (2, 1, 1, 2): S("-4/(9*u1^2)"),
        (2, 1, 2, 1): S("4/(9*u1^2)"),
    }
    R2 = curvature(standard_connection(nonflat2, 2))
    got2 = {
        (l + 1, t + 1, i + 1, j + 1): v for (l, t, i, j), v in R2.nonzero_components()
    }
    assert got2 == {
        (1, 1, 1, 2): S("8*u2/(9*u1)"),
        (1, 1, 2, 1): S("-8*u2/(9*u1)"),
        (2, 2, 2, 1): S("8*u2/(9*u1)"),
        (2, 2, 1, 2): S("-8*u2/(9*u1)"),
        (2, 1, 1, 2): S("(8*u2^2 - 12)/(9*u1^2)"),
        (2, 1, 2, 1): S("(12 - 8*u2^2)/(9*u1^2)"),
        (1, 2, 2, 1): S("8/9"),
        (1, 2, 1, 2): S("-8/9"),
    }


def test_nonflat2_flat_combinations(nonflat2):
    assert is_flat(standard_connection(nonflat2, 0))
    assert not is_flat(standard_connection(nonflat2, 1))
    assert not is_flat(standard_connection(nonflat2, 2))
    for s in range(3):
        assert is_flat(flat_combination(nonflat2, s))


def test_flat_combination_row_zero_is_standard(nonflat2, lc1):
    for b in (nonflat2, lc1):
        c0 = flat_combination(b, 0)
        s0 = standard_connection(b, 0)
        assert c0.gamma == s0.gamma


def test_curvature_antisymmetry(nonflat2):
    for s in range(3):
        R = curvature(standard_connection(nonflat2, s))
        for l in range(2):
            for t in range(2):
                for i in range(2):
                    for j in range(2):
                        assert R.R[l][t][i][j] == -R.R[l][t][j][i]


def test_leading_connection_flipped_is_metric_compatible(nonflat2, lc1, canonical4):
    # on a skew-adjoint bracket the torsion-flip of the top connection
    # preserves the upper metric
    for b in (nonflat2, lc1, canonical4):
        named, _ = metric_pair(b)
        conn = flip_torsion(standard_connection(b, b.k - 1))
        N = nabla_tensor(conn, named.g, "upper")
        n = b.n
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    assert N[l][i][j].is_zero


def test_deepest_connection_symmetry_observed(nonflat2, lc1, canonical4, const3):
    # symmetry of the s = 0 connection is checked empirically on the
    # fixture set, never assumed by the library
    for b in (nonflat2, lc1, canonical4, const3):
        conn = standard_connection(b, 0)
        n = b.n
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    assert conn.gamma[l][i][j] == conn.gamma[l][j][i]


def test_genericity_values(nonflat2, const2, const3):
    assert genericity(nonflat2) == 2
    assert genericity(const2) == 0
    assert genericity(const3) == 0


def test_genericity_zero_when_tails_proportional():
    # degree 2 with the s = 1 tail exactly twice the s = 0 jet-linear
    # tail makes the two standard connections coincide
    P = {
        (1, 2, 2): DiffPoly.one(),
        (2, 1, 2): DiffPoly.one() * S("-1"),
        (1, 2, 1): DiffPoly.jet(1, 1) * S("2"),
        (1, 2, 0): DiffPoly.jet(1, 2),
    }
    assert genericity(HomogeneousBracket(n=2, k=2, P=P)) == 0
    P[(1, 2, 1)] = DiffPoly.jet(1, 1) * S("3")
    assert genericity(HomogeneousBracket(n=2, k=2, P=P)) == 1


def test_degree_two_combination_identity(canonical4):
    # with no s = 0 tail the first combination reduces to -2 times the
    # other standard connection
    zero = standard_connection(canonical4, 0)
    assert all(
        zero.gamma[l][i][j].is_zero for l in range(4) for i in range(4) for j in range(4)
    )
    first = standard_connection(canonical4, 1)
    combo = flat_combination(canonical4, 1)
    for l in range(4):
        for i in range(4):
            for j in range(4):
                assert first.gamma[l][i][j] == combo.gamma[l][i][j] * S("-1/2")


def test_nabla_tensor_variance_validation(lc1):
    named, glow = metric_pair(lc1)
    conn = standard_connection(lc1, 0)
    with pytest.raises(ValueError):
        nabla_tensor(conn, named.g, "mixed")
    # compatibility holds in both variances for the Levi-Civita case
    for variance, g in (("upper", named.g), ("lower", glow)):
        N = nabla_tensor(conn, g, variance)
        assert all(
            N[l][i][j].is_zero for l in range(2) for i in range(2) for j in range(2)
        )


@pytest.mark.parametrize(
    "name",
    ["nonflat2", "canonical4", "lc1", "lc1_broken", "const2", "const3"]
    + ["canonical_k2.json", "constant_k2.json", "lc_k1.json", "lc_k1_broken.json", "nonflat2.json"],
)
def test_memoised_connections_match_a_fresh_bracket(request, name):
    if name.endswith(".json"):
        b = load_bracket(fixture_path(name))
    else:
        b = request.getfixturevalue(name)
    # fill the cache through the checks that read it before the comparison
    check_skew(b)
    genericity(b)
    for s in range(b.k):
        is_flat(flat_combination(b, s))
    fresh = HomogeneousBracket(b.n, b.k, dict(b.P))
    for s in range(b.k):
        assert standard_connection(b, s) == standard_connection(fresh, s)
        assert flat_combination(b, s) == flat_combination(fresh, s)
