"""Classification conditions for brackets of degree 1 to 4.

Degree 1 brackets are Poisson iff the connection built from the tail is
the Levi-Civita connection of a flat metric; degree 2 brackets satisfy
five tensor equations in the leading matrix and its tails; degree 3
brackets in the coordinates where the deepest tail vanishes come from
the operator d/dx (g d/dx + c_l u^l_x) d/dx and reduce to four
equations.  Degree 4 supplies closed Christoffel formulas only, which
are cross-checked against the generic machinery.

The reports returned here are lists of ConditionResult; use all_pass to
collapse them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bracket import HomogeneousBracket, extract_named, lower_metric, metric_pair
from .connections import (
    curvature,
    flat_combination,
    nabla_tensor,
    standard_connection,
    torsion,
)
from .diffpoly import DiffPoly
from .scalar import Scalar


@dataclass
class ConditionResult:
    name: str
    passed: bool
    witness: str | None = None


def all_pass(report: list) -> bool:
    return all(r.passed for r in report)


def _first_nonzero(entries) -> str | None:
    for label, value in entries:
        if not value.is_zero:
            return f"{label} = {value}"
    return None


def _tensor3_nonzero(T, fmt):
    n = len(T)
    return _first_nonzero(
        (fmt(a, b, c), T[a][b][c])
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def _curvature_witness(conn) -> str | None:
    """The first nonzero curvature component of conn, or None when flat."""
    comps = curvature(conn).nonzero_components()
    if not comps:
        return None
    (l, t, i, j), comp = comps[0]
    return f"R^{l+1}_{{{t+1},{i+1},{j+1}}} = {comp}"


def _require_degree(b: HomogeneousBracket, k: int):
    if b.k != k:
        raise ValueError(f"expected a degree-{k} bracket, got k={b.k}")


def dn_check(b: HomogeneousBracket) -> list:
    """Degree-1 conditions: symmetric g, skew tail, Levi-Civita, flat."""
    _require_degree(b, 1)
    named = extract_named(b)
    n = b.n
    g, bb = named.g, named.h[0]
    report = []

    w = _first_nonzero(
        (f"g^{{{j+1}{i+1}}} - g^{{{i+1}{j+1}}}", g[j][i] - g[i][j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    report.append(ConditionResult("g symmetric", w is None, w))

    w = _tensor3_nonzero(
        [
            [
                [bb[i][j][l] + bb[j][i][l] - g[i][j].partial(l + 1) for l in range(n)]
                for j in range(n)
            ]
            for i in range(n)
        ],
        lambda i, j, l: f"b^{{{i+1}{j+1}}}_{l+1} + b^{{{j+1}{i+1}}}_{l+1} - d_{l+1} g^{{{i+1}{j+1}}}",
    )
    report.append(ConditionResult("tail skew-symmetry", w is None, w))

    conn = standard_connection(b, 0)
    w = _tensor3_nonzero(torsion(conn), lambda l, i, j: f"T^{l+1}_{{{i+1}{j+1}}}")
    report.append(ConditionResult("torsionless", w is None, w))

    nab = nabla_tensor(conn, g, "upper")
    w = _tensor3_nonzero(nab, lambda l, i, j: f"nabla_{l+1} g^{{{i+1}{j+1}}}")
    report.append(ConditionResult("metric compatible", w is None, w))

    w = _curvature_witness(conn)
    report.append(ConditionResult("flat", w is None, w))
    return report


def quadratic_tail(b: HomogeneousBracket, s: int = 0) -> list:
    """Symmetrized coefficients q[i][j][l][m] of u^{l,1} u^{m,1} in P_s."""
    n = b.n
    half = Scalar.from_fraction(1) / 2
    out = []
    for i in range(n):
        mat = []
        for j in range(n):
            entry = b.entry(i + 1, j + 1, s)
            tab = []
            for l in range(n):
                row = []
                for m in range(n):
                    if l == m:
                        coef = entry.coefficient((((l + 1, 1), 2),), ())
                    else:
                        a, bmax = sorted((l + 1, m + 1))
                        coef = entry.coefficient(
                            (((a, 1), 1), ((bmax, 1), 1)), ()
                        ) * half
                    row.append(coef)
                tab.append(row)
            mat.append(tab)
        out.append(mat)
    return out


def ferguson_check(b: HomogeneousBracket) -> list:
    """Degree-2 conditions (a)-(e)."""
    _require_degree(b, 2)
    named, glow = metric_pair(b)
    n = b.n
    g, bb, cc = named.g, named.h[1], named.h[0]
    report = []

    w = _first_nonzero(
        (f"g^{{{j+1}{i+1}}} + g^{{{i+1}{j+1}}}", g[j][i] + g[i][j])
        for i in range(n)
        for j in range(i, n)
    )
    report.append(ConditionResult("(a) g skew-symmetric", w is None, w))

    conn = standard_connection(b, 0)
    wt = _tensor3_nonzero(torsion(conn), lambda l, i, j: f"T^{l+1}_{{{i+1}{j+1}}}")
    w = _curvature_witness(conn) or wt
    report.append(ConditionResult("(b) standard connection flat and torsionless", w is None, w))

    nab_low = nabla_tensor(conn, glow, "lower")
    defects = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                defects.append(
                    (
                        f"nabla_{i+1} g_{{{j+1}{l+1}}} + nabla_{j+1} g_{{{i+1}{l+1}}}",
                        nab_low[i][j][l] + nab_low[j][i][l],
                    )
                )
                defects.append(
                    (
                        f"nabla_{i+1} g_{{{j+1}{l+1}}} + nabla_{i+1} g_{{{l+1}{j+1}}}",
                        nab_low[i][j][l] + nab_low[i][l][j],
                    )
                )
    w = _first_nonzero(defects)
    report.append(ConditionResult("(c) nabla g lower totally skew", w is None, w))

    nab_up = nabla_tensor(conn, g, "upper")
    w = _tensor3_nonzero(
        [
            [
                [
                    nab_up[l][i][j] - (bb[i][j][l] - 2 * cc[i][j][l])
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for l in range(n)
        ],
        lambda l, i, j: f"nabla_{l+1} g^{{{i+1}{j+1}}} - b^{{{i+1}{j+1}}}_{l+1} + 2c^{{{i+1}{j+1}}}_{l+1}",
    )
    report.append(ConditionResult("(d) nabla g upper = b - 2c", w is None, w))

    quad = quadratic_tail(b, 0)
    half = Scalar.from_fraction(1) / 2
    defects = []
    for i in range(n):
        for j in range(n):
            for q in range(n):
                for l in range(n):
                    sym_deriv = (cc[i][j][q].partial(l + 1) + cc[i][j][l].partial(q + 1)) * half
                    quad_term = Scalar.zero()
                    for p in range(n):
                        for r in range(n):
                            quad_term = quad_term + glow[p][r] * (
                                cc[r][i][q] * cc[p][j][l] + cc[r][i][l] * cc[p][j][q]
                            ) * half
                    defects.append(
                        (
                            f"c^{{{i+1}{j+1}}}_{{{q+1}{l+1}}} defect",
                            quad[i][j][q][l] - (sym_deriv - quad_term),
                        )
                    )
    w = _first_nonzero(defects)
    report.append(ConditionResult("(e) quadratic tail identity", w is None, w))
    return report


def canonical_k2(g: list) -> HomogeneousBracket:
    """The degree-2 operator d/dx g d/dx written out: P_2 = g, P_1 = dg."""
    n = len(g)
    for i in range(n):
        for j in range(i, n):
            if g[j][i] != -g[i][j]:
                raise ValueError(f"leading coefficient must be skew: entry ({i+1},{j+1})")
    P = {}  # zero entries are dropped by HomogeneousBracket
    for i in range(n):
        for j in range(n):
            P[(i + 1, j + 1, 2)] = DiffPoly.from_scalar(g[i][j])
            parts = (
                DiffPoly.jet(l + 1, 1) * dg for l in range(n) if (dg := g[i][j].partial(l + 1))
            )
            P[(i + 1, j + 1, 1)] = sum(parts, DiffPoly.zero())
    return HomogeneousBracket(n=n, k=2, P=P)


def potemin_build(g: list, c: list) -> HomogeneousBracket:
    """The degree-3 operator d/dx (g d/dx + c_l u^l_x) d/dx expanded.

    Valid as a Poisson normal form only in coordinates flattening the
    deepest standard connection; no coordinate change is attempted here.
    """
    n = len(g)
    for i in range(n):
        for j in range(i, n):
            if g[j][i] != g[i][j]:
                raise ValueError(f"leading coefficient must be symmetric: entry ({i+1},{j+1})")
    lower_metric(g)  # raises DegenerateMetricError on singular input

    def first_order(cij):
        """The terms c_l u^{l,2} + (dc_l/du^m) u^{l,1} u^{m,1} of P_1."""
        for l in range(n):
            if cij[l]:
                yield DiffPoly.jet(l + 1, 2) * cij[l]
            for m in range(n):
                if dcl := cij[l].partial(m + 1):
                    yield DiffPoly.jet(l + 1, 1) * DiffPoly.jet(m + 1, 1) * dcl

    P = {}  # zero entries are dropped by HomogeneousBracket
    for i in range(n):
        for j in range(n):
            P[(i + 1, j + 1, 3)] = DiffPoly.from_scalar(g[i][j])
            parts = (
                DiffPoly.jet(l + 1, 1) * bl
                for l in range(n)
                if (bl := g[i][j].partial(l + 1) + c[i][j][l])
            )
            P[(i + 1, j + 1, 2)] = sum(parts, DiffPoly.zero())
            P[(i + 1, j + 1, 1)] = sum(first_order(c[i][j]), DiffPoly.zero())
    return HomogeneousBracket(n=n, k=3, P=P)


def potemin_check(g: list, c: list) -> list:
    """The four tensor equations equivalent to skewness and Jacobi for the
    degree-3 normal form."""
    n = len(g)
    report = []

    defects = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                defects.append(
                    (
                        f"d_{l+1} g^{{{i+1}{j+1}}} - c^{{{i+1}{j+1}}}_{l+1} - c^{{{j+1}{i+1}}}_{l+1}",
                        g[i][j].partial(l + 1) - c[i][j][l] - c[j][i][l],
                    )
                )
    w = _first_nonzero(defects)
    report.append(ConditionResult("(1) dg = c + c^T", w is None, w))

    defects = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                val = Scalar.zero()
                for s in range(n):
                    val = val + g[i][s] * c[j][l][s] + g[j][s] * c[i][l][s]
                defects.append((f"(gc)^{{{i+1}{j+1}{l+1}}} symmetric part", val))
    w = _first_nonzero(defects)
    report.append(ConditionResult("(2) g c skew in first pair", w is None, w))

    defects = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                val = Scalar.zero()
                for s in range(n):
                    val = val + g[i][s] * c[j][l][s] + g[j][s] * c[l][i][s] + g[l][s] * c[i][j][s]
                defects.append((f"cyclic (gc)^{{{i+1}{j+1}{l+1}}}", val))
    w = _first_nonzero(defects)
    report.append(ConditionResult("(3) cyclic sum vanishes", w is None, w))

    defects = []
    for i in range(n):
        for j in range(n):
            for l in range(n):
                for m in range(n):
                    lhs = Scalar.zero()
                    rhs = Scalar.zero()
                    for s in range(n):
                        lhs = lhs + g[l][s] * c[i][j][s].partial(m + 1)
                        rhs = (
                            rhs
                            + c[i][l][s] * c[s][j][m]
                            - c[l][i][s] * c[s][j][m]
                            - c[l][j][s] * g[s][i].partial(m + 1)
                        )
                    defects.append((f"(4) at ({i+1},{j+1},{l+1},{m+1})", lhs - rhs))
    w = _first_nonzero(defects)
    report.append(ConditionResult("(4) derivative identity", w is None, w))
    return report


def k4_connection_fixtures(b: HomogeneousBracket) -> list:
    """Cross-check the degree-4 Christoffel closed forms both ways."""
    _require_degree(b, 4)
    named, glow = metric_pair(b)
    n = b.n
    ee, dd, cc, bb = named.h[0], named.h[1], named.h[2], named.h[3]

    def combo(coeffs):
        acc = [[[Scalar.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for name, tensor in zip("bcde", (bb, cc, dd, ee)):
            f = coeffs.get(name, 0)
            if not f:
                continue
            for a in range(n):
                for i in range(n):
                    for j in range(n):
                        acc[a][i][j] = acc[a][i][j] + tensor[i][a][j] * f
        # acc[a][i][j] holds X^{ia}_j; contract the first upper slot with glow
        return [
            [
                [
                    sum((glow[i][ip] * acc[l][ip][j] for ip in range(n)), Scalar.zero())
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for l in range(n)
        ]

    fixtures = [
        ("Gamma_(0) = -g e", standard_connection(b, 0).gamma, combo({"e": -1})),
        ("Gamma_(1) = -1/4 g d", standard_connection(b, 1).gamma, combo({"d": Scalar.from_fraction(-1) / 4})),
        ("Gamma_(2) = -1/6 g c", standard_connection(b, 2).gamma, combo({"c": Scalar.from_fraction(-1) / 6})),
        ("Gamma_(3) = -1/4 g b", standard_connection(b, 3).gamma, combo({"b": Scalar.from_fraction(-1) / 4})),
        ("Gamma_[1] = g (d - 5e)", flat_combination(b, 1).gamma, combo({"d": 1, "e": -5})),
        ("Gamma_[2] = g (-c + 5d - 15e)", flat_combination(b, 2).gamma, combo({"c": -1, "d": 5, "e": -15})),
        ("Gamma_[3] = g (b - 5c + 15d - 35e)", flat_combination(b, 3).gamma, combo({"b": 1, "c": -5, "d": 15, "e": -35})),
    ]
    report = []
    for name, got, want in fixtures:
        w = _tensor3_nonzero(
            [
                [[got[l][i][j] - want[l][i][j] for j in range(n)] for i in range(n)]
                for l in range(n)
            ],
            lambda l, i, j: f"difference at ^{l+1}_{{{i+1}{j+1}}}",
        )
        report.append(ConditionResult(name, w is None, w))
    return report
