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
combination connections.  The three share no formula, and their agreement
on a given bracket is what the flatness of those combinations amounts to.

D_P, D_{-1}, the homotopy and the forms of d_1 are derivations, applied by
diffpoly's kernel from their image tables (diffpoly._Images), which
bracket._cached keeps once per bracket; each table's builder says what it
reads.  A table holds the bracket's data, never the bracket, so a
bracket's cache refers to nothing that refers back to it.  Each form of
d_1 has its tables from one builder (_d1_*_ops), which calls
require_poisson first; _cached keeps nothing when that raises.

An identity between two such sides is tested as one defect (d1_sum,
homotopy_defect), one kernel call over the parts of both sides, those
of one side signed -1: each key sums the exact difference of the sides,
and Scalars are canonical, so it is zero exactly when they agree term by
term, as comparing them would find, and a key that cancels builds no Scalar.
A nonzero defect, the left side minus the right, is the check's witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, product
from math import comb

from .bracket import HomogeneousBracket, _cached, _tensor, extract_named, metric_pair, variational_pair
from .connections import flat_combination
from .diffpoly import _DX_THETAS, DiffPoly, _derivation, _derivation_parts, _Images, _products, _wrap
from .errors import PreconditionError
from .jacobi import apply_DP, check_jacobi
from .scalar import Scalar, _sum_products

_ONE = Scalar.one()

__all__ = [
    "require_poisson",
    "apply_D_graded",
    "D_minus1_closed",
    "homotopy",
    "homotopy_defect",
    "in_B",
    "project_B",
    "include_B",
    "d1_spectral",
    "d1_closed",
    "d1_split",
    "d1_as_connection",
    "d1_sum",
    "spanning_monomials",
]


@_cached
def require_poisson(b: HomogeneousBracket) -> None:
    """Check that b is skew and satisfies Jacobi: once per bracket that does,
    whose cache keeps None; a bracket that does not keeps nothing and raises."""
    try:
        if check_jacobi(b):
            return
    except PreconditionError:
        pass
    raise PreconditionError("bracket must be skew-symmetric and satisfy the Jacobi identity")


def apply_D_graded(b: HomogeneousBracket, m: int, a: DiffPoly) -> DiffPoly:
    """The deg_u-homogeneous component of D_P that shifts deg_u by m."""
    if len(degs := a.degrees("deg_u")) > 1:
        raise ValueError("input must be homogeneous in deg_u")
    return apply_DP(b, a).project("deg_u", degs.pop() + m) if degs else DiffPoly.zero()


def _row_sum(row: list, make, order: int) -> DiffPoly:
    """sum_j make(j, order) * row[j-1], each generator on the left, in one _products call."""
    return _products((make(j, order).terms.items(), (), (), 1, m) for j, m in enumerate(row, 1) if m)


def _row_sums(matrix: list, make, order: int) -> list:
    """Entry i is the _row_sum of matrix[i-1]."""
    return [_row_sum(row, make, order) for row in matrix]


@_cached
def _lowering_images(b: HomogeneousBracket) -> tuple:
    """D_{-1}'s image tables, built once per bracket from g and k: u^{i,s}
    (s >= 1) goes to sum_j theta_j^{k+s} g^{ij}, built on its first lookup;
    no coordinate or theta has an image."""
    g, k = extract_named(b).g, b.k

    def image(v):
        i, s = v
        return _row_sum(g[i - 1], DiffPoly.theta, k + s) if s else None

    return _Images(image, coordinates=False), _Images({}.get)


def D_minus1_closed(b: HomogeneousBracket, a: DiffPoly) -> DiffPoly:
    """Direct evaluation of sum_{s>=1} g^{ij} theta_j^{k+s} da/du^{i,s}."""
    return _derivation(a, *_lowering_images(b))


def _excluded_count(key, k: int) -> int:
    """Multiplicity of the generators u^{i,s} (s>=1) and theta^{s>k} in a term; 0 on B."""
    even, odd = key
    return sum(e for _, e in even) + sum(1 for s, _ in odd if s > k)


@_cached
def _homotopy_images(b: HomogeneousBracket) -> tuple:
    """The homotopy's image tables, built once per bracket from the lowered
    metric and k: theta_j^{k+s} (s >= 1) goes to sum_i u^{i,s} g_{ji}, the
    coefficient of d/dtheta_j^{k+s} in the homotopy, built on its first
    lookup; no u^{i,s} has an image."""
    glow, k = metric_pair(b)[1], b.k

    def image(v):
        j, s = v
        return _row_sum(glow[j - 1], DiffPoly.jet, s - k) if s > k else None

    return _Images({}.get, coordinates=False), _Images(image)


def homotopy(b: HomogeneousBracket, a: DiffPoly) -> DiffPoly:
    """Contraction h with D_{-1} h + h D_{-1} = 1 - include_B . project_B.

    On a monomial containing l > 0 of the excluded generators it applies
    (1/l) sum_{s>=1} u^{i,s} g_{ji} d/dtheta_j^{k+s}; on the rest it is 0.
    """
    return _products(_homotopy_parts(b, a))


def _homotopy_parts(b: HomogeneousBracket, a: DiffPoly):
    """h(a)'s _products parts.  A term with a theta above order k, the only
    kind with an image, is scaled by 1/l before the derivation: each image
    term trades one theta_j^{k+s} for one u^{i,s}, so it keeps that l."""
    k = b.k
    scaled = {key: c if (l := _excluded_count(key, k)) == 1 else c * _reciprocal(l)
              for key, c in a.terms.items() if key[1] and key[1][-1][0] > k}
    return _derivation_parts(_wrap(scaled), *_homotopy_images(b))


_reciprocal = cache(lambda l: Scalar.from_fraction(Fraction(1, l)))  # 1/l, made once per l


def homotopy_defect(b: HomogeneousBracket, a: DiffPoly) -> tuple:
    """(D_{-1} h(a) + h(D_{-1} a) - (a - include_B project_B a), D_{-1} a):
    the defect is one _products call over D_{-1}'s parts on h(a), h's parts
    on D_{-1} a and a's terms outside B negated (module docstring)."""
    lowered, k = D_minus1_closed(b, a), b.k
    outside = [(key, c) for key, c in a.terms.items() if _excluded_count(key, k)]
    return _products(chain(_derivation_parts(homotopy(b, a), *_lowering_images(b)),
                           _homotopy_parts(b, lowered), [(outside, (), (), -1, _ONE)])), lowered


def in_B(a: DiffPoly, k: int) -> bool:
    """True when a lies in the subalgebra with no jets and theta orders <= k
    (an odd word is sorted, so its last theta has the highest order)."""
    return not any(even or odd and odd[-1][0] > k for even, odd in a.terms)


def project_B(a: DiffPoly, k: int) -> DiffPoly:
    """Kill every term containing a jet or a theta of order above k."""
    return _wrap({key: c for key, c in a.terms.items() if _excluded_count(key, k) == 0})


def include_B(a: DiffPoly, k: int) -> DiffPoly:
    """Identity embedding, after checking membership in the subalgebra."""
    if not in_B(a, k):
        raise ValueError("element has a jet variable or a theta of order above k")
    return a


@_cached
def _d1_spectral_ops(b: HomogeneousBracket) -> tuple:
    """The tables of the images of D_P on the generators of B, projected onto
    B, built once per bracket: u^i keyed (i, 0) and theta_l^s (s <= k) keyed
    (l, s), the latter stepped as project_B(D thetas[l, s-1]) for D d_x's
    theta table alone (diffpoly._DX_THETAS).  Exact: d_x maps no term
    outside B into B (it raises orders; its chain rule adds a jet), and on B
    it is D plus terms with a jet, so project_B d_x^s = (project_B D)^s
    project_B."""
    require_poisson(b)
    k, (ddtheta, ddu) = b.k, variational_pair(b)
    thetas = {(l, 0): project_B(v, k) for l, v in enumerate(ddu, 1)}
    for s, l in product(range(1, k + 1), range(1, b.n + 1)):
        thetas[l, s] = project_B(_derivation(thetas[l, s - 1], *_DX_THETAS), k)
    return _Images.of({(i, 0): project_B(v, k) for i, v in enumerate(ddtheta, 1)}), _Images.of(thetas)


def d1_spectral(b: HomogeneousBracket, x: DiffPoly) -> DiffPoly:
    """d_1 computed through D_P: the part in B of D_P x, for x in B.

    D_P is applied with its generator images already projected onto B
    (_d1_spectral_ops).  That equals project_B(apply_D_graded(b, 0, x), k)
    term for term: x, and each term of x with a generator taken out, lie in
    B (no jets), and the count of jets and of thetas above order k
    (_excluded_count) adds under products, so a product lands in B exactly
    when its image factor does, and each B key sums the same products in the
    same order.
    """
    return d1_sum(b, [("spectral", x)])


@_cached
def _d1_closed_ops(b: HomogeneousBracket) -> tuple:
    """The tables of d1_split, ((V, W_up), ({}, W_same)), built once per bracket.

    They are keyed (i, 0) for the coordinate u^i and (l, s) for theta_l^s.
    V_i = sum_j theta_j^k g^{ij} multiplies d/du^i and W_{s,l} =
    1/2 sum (-1)^{k-t} C(k+s-t, r) h_(t)^{ij}_l theta_i^r theta_j^{k+s-r}
    (over r >= s, t, i, j) multiplies d/dtheta_l^s.  V raises the theta^k
    count by one; a term of W_{s,l} raises it by its own theta^k count minus
    [s = k], which is one when r is s or k (W_up) and zero otherwise (W_same).
    The tails h_(0..k-1) are extended by h_(k)^{ij}_l := dg^{ij}/du^l.
    """
    require_poisson(b)
    named = extract_named(b)
    n, k = b.n, b.k
    h = named.h + (_tensor(n, 3, lambda i, j, l: named.g[i][j].partial(l + 1)),)
    factor = {(s, r, t): Fraction((-1) ** (k - t) * cf, 2)
              for s, r, t in product(range(k + 1), repeat=3) if (cf := comb(k + s - t, r))}

    def w(s, l, orders):
        return _products(  # theta_i^r times h theta_j^{k+s-r}, with its constant factor
            (((((), ((r, i),)), _ONE),), (), ((k + s - r, j),), f, hv)
            for r in orders
            for t in range(0, k + 1)
            if (f := factor.get((s, r, t)))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if (hv := h[t][i - 1][j - 1][l - 1])
        )

    generators = [(l, s) for s in range(k + 1) for l in range(1, n + 1)]
    up = {(l, s): w(s, l, {s, k}) for l, s in generators}
    same = {(l, s): op for l, s in generators if (op := w(s, l, range(s + 1, k)))}
    V = _row_sums(named.g, DiffPoly.theta, k)
    return ((_Images.of({(i, 0): op for i, op in enumerate(V, 1)}), _Images.of(up)),
            (_Images.of({}), _Images.of(same)))


def d1_split(b: HomogeneousBracket, x: DiffPoly) -> tuple:
    """Split d_1 x into the parts raising the theta^k count by one and zero,
    through the split tables of _d1_closed_ops."""
    return tuple(d1_sum(b, [(half, x)]) for half in ("up", "same"))


def d1_closed(b: HomogeneousBracket, x: DiffPoly) -> DiffPoly:
    """The compact formula for d_1 in terms of g and the tails h_(s): both
    halves of d1_split in one d1_sum."""
    return d1_sum(b, [("up", x), ("same", x)])


@_cached
def _d1_connection_ops(b: HomogeneousBracket) -> tuple:
    """The tables of d1_as_connection, built once per bracket from g and the Gamma_[s].

    They hold the images of u^i, keyed (i, 0), and of theta_l^s (s <= k),
    keyed (l, s).  With V_i = sum_j g^{ij} theta_j^k they are

        u^i         -> V_i,
        theta_l^s   -> sum_{i,j} Gamma_[s]^j_{il} V_i theta_j^s     (s < k),
        theta_l^k   -> sum_{i,j} (d g_{lj} / du^i) V_i V_j,

    the last one the image of theta_l^k = g_{lj} du^j, with du^i -> V_i.
    """
    require_poisson(b)
    named, glow = metric_pair(b)
    n, k = b.n, b.k
    V = _row_sums(named.g, DiffPoly.theta, k)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def image(l, s):  # sum V_i theta_j^s M_ij, M_ij Gamma_[s]^j_{il} or sum_p g^{pj} dg_{lp}/du^i
        gamma = flat_combination(b, s).gamma if s < k else None
        M = {(i, j): gamma[j - 1][i - 1][l - 1] if gamma else _sum_products(
            [(1, named.g[p][j - 1], glow[l - 1][p].partial(i)) for p in range(n)]) for i, j in pairs}
        return _products((V[i - 1].terms.items(), (), ((s, j),), 1, m) for (i, j), m in M.items() if m)

    thetas = {(l, s): image(l, s) for s in range(k + 1) for l in range(1, n + 1)}
    return _Images.of({(i, 0): v for i, v in enumerate(V, 1)}), _Images.of(thetas)


def d1_as_connection(b: HomogeneousBracket, x: DiffPoly) -> DiffPoly:
    """The theta^k-raising part of d_1 evaluated through the connections.

    Realizes theta_i^k = g_{ij} du^j and applies du^i d/du^i plus the
    flat-combination Christoffel action du^i Gamma_[s]^j_{il} theta_j^s
    d/dtheta_l^s, with du^i read back as V_i = sum_j g^{ij} theta_j^k.  That
    is an odd derivation of B, which its values on the generators u^i and
    theta_l^s (s <= k) determine; _d1_connection_ops holds them, computed
    once per bracket.
    """
    return d1_sum(b, [("connection", x)])


# the (jets, thetas) tables of each form of d_1 on B, its builder looked up when called
_D1_FORMS = {"spectral": lambda b: _d1_spectral_ops(b), "up": lambda b: _d1_closed_ops(b)[0],
             "same": lambda b: _d1_closed_ops(b)[1], "connection": lambda b: _d1_connection_ops(b)}


def d1_sum(b: HomogeneousBracket, terms) -> DiffPoly:
    """The sum of m * form(x) over the (form, x) or (form, x, m) of terms,
    x in B, form a key of _D1_FORMS and m = 1 or -1 (1 when left out), in
    one _products call: with the parts of one side signed -1, a defect,
    zero exactly when the two sides agree (module docstring)."""
    return _products(chain(*(_derivation_parts(include_B(x, b.k), *_D1_FORMS[form](b), *m)
                             for form, x, *m in terms)))


def spanning_monomials(n: int, k: int, max_degree: int = 3) -> list:
    """Monomials spanning the subalgebra up to a given theta degree.

    All products of distinct theta generators of order <= k with at most
    max_degree factors, together with 1 and the coordinates (which probe
    the action on coefficients).
    """
    gens = [(s, i) for s in range(0, k + 1) for i in range(1, n + 1)]
    out = [DiffPoly.one()]
    out.extend(DiffPoly.coordinate(i) for i in range(1, n + 1))
    # gens is sorted, so each chosen word is already an odd key, with sign +1
    out.extend(_wrap({((), chosen): Scalar.one()})
               for d in range(1, max_degree + 1) for chosen in combinations(gens, d))
    return out


def _span_size(n: int, k: int, max_degree: int = 3) -> int:
    """len(spanning_monomials(n, k, max_degree)), without building them."""
    g = n * (k + 1)
    return 1 + n + sum(comb(g, d) for d in range(1, max_degree + 1))
