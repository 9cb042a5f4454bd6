"""Classification conditions for brackets of degree 1 to 4.

Degree 1 brackets are Poisson iff the connection built from the tail is
the Levi-Civita connection of a flat metric; degree 2 brackets satisfy
five tensor equations in the leading matrix and its tails; degree 3
brackets in the coordinates where the deepest tail vanishes come from
the operator d/dx (g d/dx + c_l u^l_x) d/dx and reduce to four
equations.  Degree 4 supplies closed Christoffel formulas only, which
are cross-checked against the generic machinery.

The reports returned here are lists of ConditionResult, the record every
check of the package returns (the command line's included); use all_pass to
collapse them.  Each sum of products is one kernel call: a scalar._sum_products
list, or one diffpoly._products call for a normal-form tail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
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
from .diffpoly import _EMPTY_KEY, DiffPoly, _products
from .errors import DegenerateMetricError
from .scalar import Scalar, _sum_products

_ONE = Scalar.one()
_HALF = Fraction(1, 2)


@dataclass
class ConditionResult:
    name: str
    status: str  # pass | fail | skip
    witness: str | None = None
    seconds: float = 0.0  # the check's own work; a suite's first row adds the suite's setup

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def all_pass(report: list) -> bool:
    return all(r.passed for r in report)


def _timed(name: str, fn) -> ConditionResult:
    """Run fn() -> (status, witness) and record it with the time fn took."""
    t0 = time.perf_counter()
    status, witness = fn()
    return ConditionResult(name, status, witness, time.perf_counter() - t0)


def _condition(name: str, labelled) -> ConditionResult:
    """Pass when every value of the (label, value) pairs is zero.

    Otherwise the first nonzero one is the witness "label = value"; the pairs
    may be generated lazily, so nothing after the witness is computed, and
    seconds is the time spent generating and testing them.
    """
    return _timed(name, lambda: next(
        (("fail", f"{label} = {v}") for label, v in labelled if not v.is_zero), ("pass", None)
    ))


def _labelled(n: int, rank: int, label: str, value):
    """Yield (label filled in with the 1-based index, value(*index)) lazily for
    each index of product(range(n), repeat=rank), in index order."""
    for index in product(range(n), repeat=rank):
        yield label.format(*(a + 1 for a in index)), value(*index)


def _charge_setup(t0: float, rows: list) -> list:
    """rows, the first charged with the time since t0 that no row covers: the setup they share."""
    rows[0].seconds += time.perf_counter() - t0 - sum(r.seconds for r in rows)
    return rows


def _torsion_labelled(conn):
    """The torsion components of conn, labelled T^l_{ij}; computed on the first draw."""
    T = torsion(conn)
    yield from _labelled(conn.n, 3, "T^{0}_{{{1}{2}}}", lambda l, i, j: T[l][i][j])


def _curvature_labelled(b: HomogeneousBracket):
    """The curvature components of Gamma_(0), labelled R^l_{t,i,j}; computed on the first draw."""
    R = _bracket_curvature(b, False, 0).R
    yield from _labelled(b.n, 4, "R^{0}_{{{1},{2},{3}}}", lambda l, t, i, j: R[l][t][i][j])


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
        # the value at (j, i) is minus the value at (i, j), so the first nonzero one has i < j
        _condition("g symmetric", _labelled(
            b.n, 2, "g^{{{1}{0}}} - g^{{{0}{1}}}", lambda i, j: g[j][i] - g[i][j]
        )),
        _condition("tail skew-symmetry", _labelled(
            b.n, 3, "b^{{{0}{1}}}_{2} + b^{{{1}{0}}}_{2} - d_{2} g^{{{0}{1}}}",
            lambda i, j, l: bb[i][j][l] + bb[j][i][l] - g[i][j].partial(l + 1),
        )),
        _condition("torsionless", _torsion_labelled(conn)),
        _condition("metric compatible", _labelled(
            b.n, 3, "nabla_{0} g^{{{1}{2}}}", lambda l, i, j: nab[l][i][j]
        )),
        _condition("flat", _curvature_labelled(b)),
    ])


def quadratic_tail(b: HomogeneousBracket, s: int = 0) -> list:
    """Symmetrized coefficients q[i][j][l][m] of u^{l,1} u^{m,1} in P_s."""

    def coefficient(i, j, l, m):
        entry = b.entry(i + 1, j + 1, s)
        if l == m:
            return entry.coefficient((((l + 1, 1), 2),), ())
        a, c = sorted((l + 1, m + 1))
        return _sum_products([(_HALF, entry.coefficient((((a, 1), 1), ((c, 1), 1)), ()), _ONE)])

    return _tensor(b.n, 4, coefficient)


def _quadratic_term(glow: list, cc: list):
    """(i, j, q, l) -> 1/2 sum_{p,r} g_pr (c^{ri}_q c^{pj}_l + c^{ri}_l c^{pj}_q), the
    quadratic term of Ferguson's (e), as sum_r (c^{ri}_q gc[r][j][l] +
    c^{ri}_l gc[r][j][q]) through gc[r][j][l] = 1/2 sum_p g_pr c^{pj}_l, made once."""
    n = len(glow)
    gc = _tensor(n, 3, lambda r, j, l: _sum_products(
        [(_HALF, glow[p][r], cc[p][j][l]) for p in range(n)]))

    def term(i, j, q, l):
        return _sum_products([t for r in range(n) for t in ((1, cc[r][i][q], gc[r][j][l]),
                                                             (1, cc[r][i][l], gc[r][j][q]))])

    return term


def ferguson_check(b: HomogeneousBracket) -> list:
    """Degree-2 conditions (a)-(e)."""
    _require_degree(b, 2)
    t0 = time.perf_counter()
    named, glow = metric_pair(b)
    g, bb, cc = named.g, named.h[1], named.h[0]
    conn = standard_connection(b, 0)
    nab_low = nabla_tensor(conn, glow, "lower")
    nab_up = nabla_tensor(conn, g, "upper")
    q_tail = quadratic_tail(b, 0)
    minus_half = -_HALF

    def lower_skew_sums():
        for (i, j, l), v in _components(nab_low, 3):
            label = f"nabla_{i+1} g_{{{j+1}{l+1}}} + "
            yield label + f"nabla_{j+1} g_{{{i+1}{l+1}}}", v + nab_low[j][i][l]
            yield label + f"nabla_{i+1} g_{{{l+1}{j+1}}}", v + nab_low[i][l][j]

    def quadratic_defects():
        """The labelled defects of (e), q^{ij}_{ql} minus the value it must
        take; g is contracted with c on the first draw."""
        quad_term = _quadratic_term(glow, cc)

        def defect(i, j, q, l):
            return _sum_products([(1, q_tail[i][j][q][l], _ONE), (1, quad_term(i, j, q, l), _ONE),
                                  (minus_half, cc[i][j][q].partial(l + 1), _ONE),
                                  (minus_half, cc[i][j][l].partial(q + 1), _ONE)])

        yield from _labelled(b.n, 4, "c^{{{0}{1}}}_{{{2}{3}}} defect", defect)

    return _charge_setup(t0, [
        # the value at (j, i) is the value at (i, j), so the first nonzero one has i <= j
        _condition("(a) g skew-symmetric", _labelled(
            b.n, 2, "g^{{{1}{0}}} + g^{{{0}{1}}}", lambda i, j: g[j][i] + g[i][j]
        )),
        # the torsion is reported only when the curvature vanishes
        _condition(
            "(b) standard connection flat and torsionless",
            chain(_curvature_labelled(b), _torsion_labelled(conn)),
        ),
        _condition("(c) nabla g lower totally skew", lower_skew_sums()),
        _condition("(d) nabla g upper = b - 2c", _labelled(
            b.n, 3, "nabla_{0} g^{{{1}{2}}} - b^{{{1}{2}}}_{0} + 2c^{{{1}{2}}}_{0}",
            lambda l, i, j: _sum_products([(1, nab_up[l][i][j], _ONE), (-1, bb[i][j][l], _ONE),
                                           (2, cc[i][j][l], _ONE)]),
        )),
        _condition("(e) quadratic tail identity", quadratic_defects()),
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
    unit = ((_EMPTY_KEY, _ONE),)
    for i, j in product(range(n), repeat=2):
        gij = DiffPoly.from_scalar(g[i][j])
        cu = _products((unit, (((l + 1, 1), 1),), (), 1, cl) for l, cl in enumerate(c[i][j]) if cl)
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
        return _sum_products([(1, gis, cs) for gis, cs in zip(g[i], c[j][l])])

    gc = _tensor(n, 3, gc_entry)

    def derivative_identity(i, j, l, m):
        """(4) at (i, j, l, m): g^{ls} d_m c^{ij}_s minus its right-hand side."""
        triples = []
        for s in range(n):
            triples += ((1, g[l][s], c[i][j][s].partial(m + 1)), (-1, c[i][l][s], c[s][j][m]),
                        (1, c[l][i][s], c[s][j][m]), (1, c[l][j][s], g[s][i].partial(m + 1)))
        return _sum_products(triples)

    return _charge_setup(t0, [
        _condition("(1) dg = c + c^T", _labelled(
            n, 3, "d_{2} g^{{{0}{1}}} - c^{{{0}{1}}}_{2} - c^{{{1}{0}}}_{2}",
            lambda i, j, l: g[i][j].partial(l + 1) - c[i][j][l] - c[j][i][l],
        )),
        _condition("(2) g c skew in first pair", _labelled(
            n, 3, "(gc)^{{{0}{1}{2}}} symmetric part", lambda i, j, l: gc[i][j][l] + gc[j][i][l]
        )),
        _condition("(3) cyclic sum vanishes", _labelled(
            n, 3, "cyclic (gc)^{{{0}{1}{2}}}",
            lambda i, j, l: gc[i][j][l] + gc[j][l][i] + gc[l][i][j],
        )),
        _condition("(4) derivative identity", _labelled(
            n, 4, "(4) at ({0},{1},{2},{3})", derivative_identity
        )),
    ])


def _det_adj(a: list) -> tuple:
    """(det a, adj a) for a square matrix a of Scalars by Faddeev-LeVerrier:
    from M_1 = I, c_k = -tr(a M_k)/k and M_{k+1} = a M_k + c_k I, where the
    c_k are the coefficients of det(x I - a), det a = (-1)^n c_n and
    adj a = (-1)^(n-1) M_n.  O(n^4) products, divisions by the integers
    1..n only, and no pivoting."""
    n = len(a)
    cols = range(n)
    m = [[Scalar.one() if i == j else Scalar.zero() for j in cols] for i in cols]
    for k in range(1, n + 1):
        am = [[_sum_products([(1, x, m[l][j]) for l, x in enumerate(row)]) for j in cols]
              for row in a]
        c = _sum_products([(Fraction(-1, k), am[i][i], _ONE) for i in cols])
        if k == n:
            return (-c, m) if n % 2 else (c, [[-x for x in row] for row in m])
        m = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(am)]


def k4_connection_fixtures(b: HomogeneousBracket) -> list:
    """Cross-check the degree-4 Christoffel closed forms both ways.

    The expected side of each row is built apart from the connections and
    their cached inputs: the tails are read off the bracket's entries, and
    the inverse of the leading coefficient is its adjugate over its
    determinant (_det_adj) instead of lower_metric's elimination.  So a wrong
    tail index, inverse, binomial factor or combination in
    standard_connection or flat_combination fails its row.
    """
    _require_degree(b, 4)
    t0 = time.perf_counter()
    n = b.n
    g = [[b.entry(i, j, 4).coefficient((), ()) for j in range(1, n + 1)] for i in range(1, n + 1)]
    det, adj = _det_adj(g)
    if det.is_zero:
        raise DegenerateMetricError("leading coefficient matrix is singular")
    glow = [[x / det for x in row] for row in adj]

    def tail(s):
        """The coefficient of u^{j, 4-s} in P_s^{il}, at [i][l][j]."""
        return _tensor(n, 3, lambda i, l, j: b.entry(i + 1, l + 1, s).coefficient(
            (((j + 1, 4 - s), 1),), ()))

    tails = dict(zip("edcb", map(tail, range(4))))

    def combo(coeffs):
        """Gamma^l_{ij} = g_{ii'} X^{i'l}_j with X = sum of coeffs[name] * tails[name]."""
        X = _tensor(n, 3, lambda i, l, j: _sum_products(
            [(f, tails[name][i][l][j], _ONE) for name, f in coeffs.items()]))

        def entry(l, i, j):
            return _sum_products([(1, gip, Xip[l][j]) for gip, Xip in zip(glow[i], X)])

        return _tensor(n, 3, entry)

    fixtures = [
        ("Gamma_(0) = -g e", standard_connection(b, 0).gamma, combo({"e": -1})),
        ("Gamma_(1) = -1/4 g d", standard_connection(b, 1).gamma, combo({"d": Fraction(-1, 4)})),
        ("Gamma_(2) = -1/6 g c", standard_connection(b, 2).gamma, combo({"c": Fraction(-1, 6)})),
        ("Gamma_(3) = -1/4 g b", standard_connection(b, 3).gamma, combo({"b": Fraction(-1, 4)})),
        ("Gamma_[1] = g (d - 5e)", flat_combination(b, 1).gamma, combo({"d": 1, "e": -5})),
        ("Gamma_[2] = g (-c + 5d - 15e)", flat_combination(b, 2).gamma, combo({"c": -1, "d": 5, "e": -15})),
        ("Gamma_[3] = g (b - 5c + 15d - 35e)", flat_combination(b, 3).gamma, combo({"b": 1, "c": -5, "d": 15, "e": -35})),
    ]
    return _charge_setup(t0, [
        _condition(name, _labelled(  # bound now: the lambda must not see a later fixture
            n, 3, "difference at ^{0}_{{{1}{2}}}",
            lambda l, i, j, got=got, want=want: got[l][i][j] - want[l][i][j],
        ))
        for name, got, want in fixtures
    ])
