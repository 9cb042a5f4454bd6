"""Graded pieces of the Jacobi differential and the induced differential d_1.

The differential D_P decomposes by the jet count deg_u into homogeneous
components D_{-1} + D_0 + D_1 + ...; the lowest one has the closed form

    D_{-1} = sum_{s>=1} g^{ij} theta_j^{k+s} d/du^{i,s}

and is contracted by an explicit homotopy onto the subalgebra B spanned
by monomials in the coordinates and the theta variables of order at most
k.  Transporting D_0 through the contraction yields a differential d_1
on B, computed here three independent ways: through D_P directly, by a
compact closed formula in the named coefficients, and - for its part
that raises the number of top-order thetas - through the flat
combination connections.  Agreement of the three on a given bracket is
what the flatness of those combinations amounts to.

D_{-1}, the homotopy and both closed forms of d_1 apply tables of
coefficients that depend only on the bracket to the partials of their
argument.  Each table is built once per bracket through bracket._memo and
stays on the left of each product, which fixes the odd signs.  The closed
form's table comes from the tails, the connection form's from Gamma_[s].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .bracket import HomogeneousBracket, _memo, _tensor, extract_named, metric_pair
from .diffpoly import DiffPoly, JetVar, ThetaVar, term_deg_theta_k
from .errors import PreconditionError
from .jacobi import apply_DP, check_jacobi

__all__ = [
    "require_poisson",
    "apply_D_graded",
    "D_minus1_closed",
    "homotopy",
    "in_B",
    "project_B",
    "include_B",
    "d1_spectral",
    "d1_closed",
    "d1_split",
    "d1_as_connection",
    "spanning_monomials",
]


def require_poisson(b: HomogeneousBracket) -> None:
    """Check (once per bracket) that b is skew and satisfies Jacobi."""

    def build():
        try:
            return check_jacobi(b)
        except PreconditionError:
            return False

    if not _memo(b, "is_poisson", build):
        raise PreconditionError(
            "bracket must be skew-symmetric and satisfy the Jacobi identity"
        )


def apply_D_graded(b: HomogeneousBracket, m: int, a: DiffPoly) -> DiffPoly:
    """The deg_u-homogeneous component of D_P that shifts deg_u by m."""
    degs = a.degrees("deg_u")
    if len(degs) > 1:
        raise ValueError("input must be homogeneous in deg_u")
    if not degs:
        return DiffPoly.zero()
    p = degs.pop()
    return apply_DP(b, a).project("deg_u", p + m)


def _row_sums(matrix: list, make, order: int) -> list:
    """Entry i is sum_j make(j, order) * matrix[i-1][j-1], each generator on the left."""
    return [
        sum((make(j, order) * m for j, m in enumerate(row, 1) if m), DiffPoly.zero())
        for row in matrix
    ]


def _theta_rows(b: HomogeneousBracket, s: int) -> list:
    """Row i is sum_j theta_j^{k+s} g^{ij}: the coefficient of d/du^{i,s} in
    D_{-1} for s >= 1, and of d/du^i in d_1 for s = 0.  Cached per s."""

    def build():
        return _row_sums(extract_named(b).g, DiffPoly.theta, b.k + s)

    return _memo(b, ("theta_rows", s), build)


def D_minus1_closed(b: HomogeneousBracket, a: DiffPoly) -> DiffPoly:
    """Direct evaluation of sum_{s>=1} g^{ij} theta_j^{k+s} da/du^{i,s}."""
    parts = (
        row * pa
        for s in range(1, a.max_jet_order() + 1)
        for i, row in enumerate(_theta_rows(b, s), 1)
        if (pa := a.partial(JetVar(i, s)))
    )
    return sum(parts, DiffPoly.zero())


def _excluded_count(key, k: int) -> int:
    """Multiplicity of the generators u^{i,s} (s>=1) and theta^{s>k} in a term."""
    even, odd = key
    return sum(e for _, e in even) + sum(1 for s, _ in odd if s > k)


def _homotopy_rows(b: HomogeneousBracket, s: int) -> list:
    """Row j is sum_i u^{i,s} g_{ji}, the coefficient of d/dtheta_j^{k+s} in
    the homotopy.  Cached per s."""

    def build():
        return _row_sums(metric_pair(b)[1], DiffPoly.jet, s)

    return _memo(b, ("homotopy_rows", s), build)


def homotopy(b: HomogeneousBracket, a: DiffPoly) -> DiffPoly:
    """Contraction h with D_{-1} h + h D_{-1} = 1 - include_B . project_B.

    On a monomial containing l > 0 of the excluded generators it applies
    (1/l) sum_{s>=1} u^{i,s} g_{ji} d/dtheta_j^{k+s}; on the rest it is 0.
    """
    k = b.k
    parts = []
    for (even, odd), coef in a.terms.items():
        l = _excluded_count((even, odd), k)
        if l == 0:
            continue
        term = DiffPoly({(even, odd): coef})
        terms = (
            _homotopy_rows(b, s - k)[j - 1] * pa
            for s, j in odd
            if s > k and (pa := term.partial(ThetaVar(j, s)))
        )
        parts.append(sum(terms, DiffPoly.zero()) * Fraction(1, l))
    return sum(parts, DiffPoly.zero())


def in_B(a: DiffPoly, k: int) -> bool:
    """True when a lies in the subalgebra with no jets and theta orders <= k."""
    for even, odd in a.terms:
        if even or any(s > k for s, _ in odd):
            return False
    return True


def project_B(a: DiffPoly, k: int) -> DiffPoly:
    """Kill every term containing a jet or a theta of order above k."""
    return DiffPoly(
        {
            key: c
            for key, c in a.terms.items()
            if not key[0] and all(s <= k for s, _ in key[1])
        }
    )


def include_B(a: DiffPoly, k: int) -> DiffPoly:
    """Identity embedding, after checking membership in the subalgebra."""
    if not in_B(a, k):
        raise ValueError("element has a jet variable or a theta of order above k")
    return a


def d1_spectral(b: HomogeneousBracket, x: DiffPoly) -> DiffPoly:
    """d_1 computed through D_P: project the deg_u-preserving part back."""
    require_poisson(b)
    x = include_B(x, b.k)
    return project_B(apply_D_graded(b, 0, x), b.k)


def _named_with_top(b: HomogeneousBracket):
    """Tails h_(0..k-1) extended by h_(k)^{ij}_l := dg^{ij}/du^l, cached."""

    def build():
        named = extract_named(b)
        return named.h + [_tensor(b.n, 3, lambda i, j, l: named.g[i][j].partial(l + 1))]

    return _memo(b, "named_with_top", build)


def _derivation(x: DiffPoly, coord_ops: list, theta_ops: dict) -> DiffPoly:
    """sum_i coord_ops[i-1] dx/du^i + sum_v theta_ops[v] dx/dv, each table entry on the left."""
    parts = [op * pa for i, op in enumerate(coord_ops, 1) if (pa := x.partial_coordinate(i))]
    parts += [op * pa for v, op in theta_ops.items() if (pa := x.partial(v))]
    return sum(parts, DiffPoly.zero())


def _d1_closed_ops(b: HomogeneousBracket) -> tuple:
    """The coefficient tables (V, W) that d1_closed applies, built once per bracket.

    V_i = sum_j theta_j^k g^{ij} multiplies d/du^i and W_{s,l} =
    1/2 sum (-1)^{k-t} C(k+s-t, r) h_(t)^{ij}_l theta_i^r theta_j^{k+s-r}
    (over r >= s, t, i, j) multiplies d/dtheta_l^s.
    """

    def build():
        h = _named_with_top(b)
        n, k = b.n, b.k

        def w(s, l):
            terms = (
                DiffPoly.theta(i, r) * DiffPoly.theta(j, k + s - r) * (hv * ((-1) ** (k - t) * cf))
                for r in range(s, k + 1)
                for t in range(0, k + 1)
                if (cf := comb(k + s - t, r))
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if (hv := h[t][i - 1][j - 1][l - 1])
            )
            return sum(terms, DiffPoly.zero()) * Fraction(1, 2)

        W = {
            ThetaVar(l, s): op for s in range(k + 1) for l in range(1, n + 1) if (op := w(s, l))
        }
        return _theta_rows(b, 0), W

    return _memo(b, "d1_closed_ops", build)


def d1_closed(b: HomogeneousBracket, x: DiffPoly) -> DiffPoly:
    """The compact formula for d_1 in terms of g and the tails h_(s)."""
    require_poisson(b)
    return _derivation(include_B(x, b.k), *_d1_closed_ops(b))


def d1_split(b: HomogeneousBracket, x: DiffPoly) -> tuple:
    """Split d_1 x into the parts raising the theta^k count by one and zero."""
    x = include_B(x, b.k)
    k = b.k
    groups: dict = {}
    for key, c in x.terms.items():
        groups.setdefault(term_deg_theta_k(key, k), {})[key] = c
    parts = [(q, d1_closed(b, DiffPoly(terms))) for q, terms in groups.items()]
    up = sum((part.project("deg_theta_k", q + 1, k) for q, part in parts), DiffPoly.zero())
    same = sum((part.project("deg_theta_k", q, k) for q, part in parts), DiffPoly.zero())
    return up, same


def _d1_connection_ops(b: HomogeneousBracket) -> tuple:
    """The tables of d1_as_connection, built once per bracket from the Gamma_[s].

    (up, rows, M, down): up relabels theta_i^k -> sum_j g_{ij} theta_j^{k+1},
    rows[i-1] = theta_i^{k+1} multiplies d/du^i, M_{s,l} = sum_{i,j}
    Gamma_[s]^j_{il} theta_i^{k+1} theta_j^s multiplies d/dtheta_l^s, and
    down relabels theta_i^{k+1} -> sum_j g^{ij} theta_j^k.
    """
    from .connections import flat_combination

    def build():
        named, glow = metric_pair(b)
        n, k = b.n, b.k

        def relabel(matrix, source, target):
            """theta_i^source -> sum_j matrix[i][j] theta_j^target."""
            images = _row_sums(matrix, DiffPoly.theta, target)
            return {(source, i): img for i, img in enumerate(images, 1)}

        def m(gamma, s, l):
            terms = (
                DiffPoly.theta(i, k + 1) * DiffPoly.theta(j, s) * gv
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if (gv := gamma[j - 1][i - 1][l - 1])
            )
            return sum(terms, DiffPoly.zero())

        M = {}
        for s in range(0, k):
            gamma = flat_combination(b, s).gamma
            M.update((ThetaVar(l, s), op) for l in range(1, n + 1) if (op := m(gamma, s, l)))
        rows = [DiffPoly.theta(i, k + 1) for i in range(1, n + 1)]
        return relabel(glow, k, k + 1), rows, M, relabel(named.g, k + 1, k)

    return _memo(b, "d1_connection_ops", build)


def d1_as_connection(b: HomogeneousBracket, x: DiffPoly) -> DiffPoly:
    """The theta^k-raising part of d_1 evaluated through the connections.

    Realizes theta_i^k = g_{ij} du^j with du^j held as a placeholder of
    theta order k+1, applies du^i d/du^i plus the flat-combination
    Christoffel action du^i Gamma_[s]^j_{il} theta_j^s d/dtheta_l^s, and
    converts the placeholders back.
    """
    require_poisson(b)
    up, rows, M, down = _d1_connection_ops(b)
    xt = include_B(x, b.k).substitute(theta_map=up)
    return _derivation(xt, rows, M).substitute(theta_map=down)


def spanning_monomials(n: int, k: int, max_degree: int = 3) -> list:
    """Monomials spanning the subalgebra up to a given theta degree.

    All products of distinct theta generators of order <= k with at most
    max_degree factors, together with 1 and the coordinates (which probe
    the action on coefficients).
    """
    gens = [(s, i) for s in range(0, k + 1) for i in range(1, n + 1)]
    out = [DiffPoly.one()]
    out.extend(DiffPoly.coordinate(i) for i in range(1, n + 1))
    for d in range(1, max_degree + 1):
        for chosen in combinations(gens, d):
            term = DiffPoly.one()
            for s, i in chosen:
                term = term * DiffPoly.theta(i, s)
            out.append(term)
    return out
