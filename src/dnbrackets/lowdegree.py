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

import time
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, product

from .bracket import (
    HomogeneousBracket,
    _components,
    _tensor,
    extract_named,
    lower_metric,
    metric_pair,
)
from .connections import (
    _bracket_curvature,
    flat_combination,
    nabla_tensor,
    standard_connection,
    torsion,
)
from .diffpoly import DiffPoly, _sum
from .scalar import Scalar


@dataclass
class ConditionResult:
    name: str
    passed: bool
    witness: str | None = None
    seconds: float = 0.0  # evaluating the pairs; a suite's first row adds the suite's setup


def all_pass(report: list) -> bool:
    return all(r.passed for r in report)


def _condition(name: str, labelled) -> ConditionResult:
    """Pass when every value of the (label, value) pairs is zero.

    Otherwise the first nonzero one is the witness "label = value"; the pairs
    may be generated lazily, so nothing after the witness is computed, and
    seconds is the time spent generating and testing them.
    """
    t0 = time.perf_counter()
    witness = next((f"{label} = {v}" for label, v in labelled if not v.is_zero), None)
    return ConditionResult(name, witness is None, witness, time.perf_counter() - t0)


def _charge_setup(t0: float, rows: list) -> list:
    """rows, the first charged with the time since t0 that no row covers: the setup they share."""
    rows[0].seconds += time.perf_counter() - t0 - sum(r.seconds for r in rows)
    return rows


def _torsion_labelled(conn):
    """The torsion components of conn, labelled T^l_{ij}; computed on the first draw."""
    for (l, i, j), v in _components(torsion(conn), 3):
        yield f"T^{l+1}_{{{i+1}{j+1}}}", v


def _curvature_labelled(b: HomogeneousBracket):
    """The curvature components of Gamma_(0), labelled R^l_{t,i,j}; computed on the first draw."""
    for (l, t, i, j), v in _components(_bracket_curvature(b, False, 0).R, 4):
        yield f"R^{l+1}_{{{t+1},{i+1},{j+1}}}", v


def _require_degree(b: HomogeneousBracket, k: int):
    if b.k != k:
        raise ValueError(f"expected a degree-{k} bracket, got k={b.k}")


def dn_check(b: HomogeneousBracket) -> list:
    """Degree-1 conditions: symmetric g, skew tail, Levi-Civita, flat."""
    _require_degree(b, 1)
    t0 = time.perf_counter()
    named = extract_named(b)
    g, bb = named.g, named.h[0]
    conn = standard_connection(b, 0)
    nab = nabla_tensor(conn, g, "upper")
    return _charge_setup(t0, [
        _condition("g symmetric", (
            (f"g^{{{j+1}{i+1}}} - g^{{{i+1}{j+1}}}", g[j][i] - gij)
            for (i, j), gij in _components(g, 2)
            if i < j
        )),
        _condition("tail skew-symmetry", (
            (
                f"b^{{{i+1}{j+1}}}_{l+1} + b^{{{j+1}{i+1}}}_{l+1} - d_{l+1} g^{{{i+1}{j+1}}}",
                v + bb[j][i][l] - g[i][j].partial(l + 1),
            )
            for (i, j, l), v in _components(bb, 3)
        )),
        _condition("torsionless", _torsion_labelled(conn)),
        _condition("metric compatible", (
            (f"nabla_{l+1} g^{{{i+1}{j+1}}}", v) for (l, i, j), v in _components(nab, 3)
        )),
        _condition("flat", _curvature_labelled(b)),
    ])


def quadratic_tail(b: HomogeneousBracket, s: int = 0) -> list:
    """Symmetrized coefficients q[i][j][l][m] of u^{l,1} u^{m,1} in P_s."""
    half = Scalar.from_fraction(1) / 2

    def coefficient(i, j, l, m):
        entry = b.entry(i + 1, j + 1, s)
        if l == m:
            return entry.coefficient((((l + 1, 1), 2),), ())
        a, c = sorted((l + 1, m + 1))
        return entry.coefficient((((a, 1), 1), ((c, 1), 1)), ()) * half

    return _tensor(b.n, 4, coefficient)


def ferguson_check(b: HomogeneousBracket) -> list:
    """Degree-2 conditions (a)-(e)."""
    _require_degree(b, 2)
    t0 = time.perf_counter()
    named, glow = metric_pair(b)
    g, bb, cc = named.g, named.h[1], named.h[0]
    conn = standard_connection(b, 0)
    nab_low = nabla_tensor(conn, glow, "lower")
    nab_up = nabla_tensor(conn, g, "upper")
    half = Scalar.from_fraction(1) / 2

    def lower_skew_sums():
        for (i, j, l), v in _components(nab_low, 3):
            label = f"nabla_{i+1} g_{{{j+1}{l+1}}} + "
            yield label + f"nabla_{j+1} g_{{{i+1}{l+1}}}", v + nab_low[j][i][l]
            yield label + f"nabla_{i+1} g_{{{l+1}{j+1}}}", v + nab_low[i][l][j]

    def quadratic_identity(i, j, q, l):
        """The value that q^{ij}_{ql} must take."""
        sym_deriv = (cc[i][j][q].partial(l + 1) + cc[i][j][l].partial(q + 1)) * half
        quad_term = sum(
            (
                gpr * (cc[r][i][q] * cc[p][j][l] + cc[r][i][l] * cc[p][j][q]) * half
                for (p, r), gpr in _components(glow, 2)
            ),
            Scalar.zero(),
        )
        return sym_deriv - quad_term

    return _charge_setup(t0, [
        _condition("(a) g skew-symmetric", (
            (f"g^{{{j+1}{i+1}}} + g^{{{i+1}{j+1}}}", g[j][i] + gij)
            for (i, j), gij in _components(g, 2)
            if i <= j
        )),
        # the torsion is reported only when the curvature vanishes
        _condition(
            "(b) standard connection flat and torsionless",
            chain(_curvature_labelled(b), _torsion_labelled(conn)),
        ),
        _condition("(c) nabla g lower totally skew", lower_skew_sums()),
        _condition("(d) nabla g upper = b - 2c", (
            (
                f"nabla_{l+1} g^{{{i+1}{j+1}}} - b^{{{i+1}{j+1}}}_{l+1} + 2c^{{{i+1}{j+1}}}_{l+1}",
                v - (bb[i][j][l] - 2 * cc[i][j][l]),
            )
            for (l, i, j), v in _components(nab_up, 3)
        )),
        _condition("(e) quadratic tail identity", (
            (f"c^{{{i+1}{j+1}}}_{{{q+1}{l+1}}} defect", v - quadratic_identity(i, j, q, l))
            for (i, j, q, l), v in _components(quadratic_tail(b, 0), 4)
        )),
    ])


def canonical_k2(g: list) -> HomogeneousBracket:
    """The degree-2 operator d/dx g d/dx written out: P_2 = g, P_1 = d_x g."""
    n = len(g)
    for i, j in combinations_with_replacement(range(n), 2):
        if g[j][i] != -g[i][j]:
            raise ValueError(f"leading coefficient must be skew: entry ({i+1},{j+1})")
    P = {}  # zero entries are dropped by HomogeneousBracket
    for i, j in product(range(n), repeat=2):
        gij = DiffPoly.from_scalar(g[i][j])
        P[(i + 1, j + 1, 2)] = gij
        P[(i + 1, j + 1, 1)] = gij.d_x()
    return HomogeneousBracket(n=n, k=2, P=P)


def potemin_build(g: list, c: list) -> HomogeneousBracket:
    """The degree-3 operator d/dx (g d/dx + c_l u^l_x) d/dx expanded.

    Valid as a Poisson normal form only in coordinates flattening the
    deepest standard connection; no coordinate change is attempted here.
    """
    n = len(g)
    for i, j in combinations_with_replacement(range(n), 2):
        if g[j][i] != g[i][j]:
            raise ValueError(f"leading coefficient must be symmetric: entry ({i+1},{j+1})")
    lower_metric(g)  # raises DegenerateMetricError on singular input
    P = {}  # zero entries are dropped by HomogeneousBracket
    for i, j in product(range(n), repeat=2):
        gij = DiffPoly.from_scalar(g[i][j])
        cu = _sum(DiffPoly.jet(l + 1, 1) * cl for l, cl in enumerate(c[i][j]))
        P[(i + 1, j + 1, 3)] = gij
        P[(i + 1, j + 1, 2)] = gij.d_x() + cu
        P[(i + 1, j + 1, 1)] = cu.d_x()
    return HomogeneousBracket(n=n, k=3, P=P)


def potemin_check(g: list, c: list) -> list:
    """The four tensor equations equivalent to skewness and Jacobi for the
    degree-3 normal form."""
    t0 = time.perf_counter()
    n = len(g)

    def gc_entry(i, j, l):
        """(gc)^{ijl} = g^{is} c^{jl}_s."""
        return sum((gis * cs for gis, cs in zip(g[i], c[j][l])), Scalar.zero())

    gc = _tensor(n, 3, gc_entry)

    def derivative_identity(i, j, l, m):
        """(4) at (i, j, l, m): g^{ls} d_m c^{ij}_s minus its right-hand side."""
        val = Scalar.zero()
        for s in range(n):
            val = (
                val
                + g[l][s] * c[i][j][s].partial(m + 1)
                - (c[i][l][s] - c[l][i][s]) * c[s][j][m]
                + c[l][j][s] * g[s][i].partial(m + 1)
            )
        return val

    return _charge_setup(t0, [
        _condition("(1) dg = c + c^T", (
            (
                f"d_{l+1} g^{{{i+1}{j+1}}} - c^{{{i+1}{j+1}}}_{l+1} - c^{{{j+1}{i+1}}}_{l+1}",
                g[i][j].partial(l + 1) - v - c[j][i][l],
            )
            for (i, j, l), v in _components(c, 3)
        )),
        _condition("(2) g c skew in first pair", (
            (f"(gc)^{{{i+1}{j+1}{l+1}}} symmetric part", v + gc[j][i][l])
            for (i, j, l), v in _components(gc, 3)
        )),
        _condition("(3) cyclic sum vanishes", (
            (f"cyclic (gc)^{{{i+1}{j+1}{l+1}}}", v + gc[j][l][i] + gc[l][i][j])
            for (i, j, l), v in _components(gc, 3)
        )),
        _condition("(4) derivative identity", (
            (f"(4) at ({i+1},{j+1},{l+1},{m+1})", derivative_identity(i, j, l, m))
            for i, j, l, m in product(range(n), repeat=4)
        )),
    ])


def k4_connection_fixtures(b: HomogeneousBracket) -> list:
    """Cross-check the degree-4 Christoffel closed forms both ways."""
    _require_degree(b, 4)
    t0 = time.perf_counter()
    named, glow = metric_pair(b)
    n = b.n
    tails = dict(zip("edcb", named.h))

    def combo(coeffs):
        """Gamma^l_{ij} = g_{ii'} X^{i'l}_j with X = sum of coeffs[name] * tails[name]."""
        parts = [(tails[name], f) for name, f in coeffs.items()]
        X = _tensor(n, 3, lambda i, l, j: sum((T[i][l][j] * f for T, f in parts), Scalar.zero()))

        def entry(l, i, j):
            return sum((gip * Xip[l][j] for gip, Xip in zip(glow[i], X)), Scalar.zero())

        return _tensor(n, 3, entry)

    fixtures = [
        ("Gamma_(0) = -g e", standard_connection(b, 0).gamma, combo({"e": -1})),
        ("Gamma_(1) = -1/4 g d", standard_connection(b, 1).gamma, combo({"d": Scalar.from_fraction(-1) / 4})),
        ("Gamma_(2) = -1/6 g c", standard_connection(b, 2).gamma, combo({"c": Scalar.from_fraction(-1) / 6})),
        ("Gamma_(3) = -1/4 g b", standard_connection(b, 3).gamma, combo({"b": Scalar.from_fraction(-1) / 4})),
        ("Gamma_[1] = g (d - 5e)", flat_combination(b, 1).gamma, combo({"d": 1, "e": -5})),
        ("Gamma_[2] = g (-c + 5d - 15e)", flat_combination(b, 2).gamma, combo({"c": -1, "d": 5, "e": -15})),
        ("Gamma_[3] = g (b - 5c + 15d - 35e)", flat_combination(b, 3).gamma, combo({"b": 1, "c": -5, "d": 15, "e": -35})),
    ]
    return _charge_setup(t0, [
        _condition(name, (
            (f"difference at ^{l+1}_{{{i+1}{j+1}}}", v - want[l][i][j])
            for (l, i, j), v in _components(got, 3)
        ))
        for name, got, want in fixtures
    ])
