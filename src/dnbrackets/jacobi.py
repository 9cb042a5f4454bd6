"""Jacobi identity via the odd encoding.

For the bivector P~ of a skew bracket, the induced odd vector field is

    D_P = sum_{i,s} d_x^s(dP~/dtheta_i) d/du^{i,s}
        + sum_{i,s} d_x^s(dP~/du^i) d/dtheta_i^s

where dP~/dtheta_i and dP~/du^i are variational derivatives, cached on
the bracket by bracket._variational (variational_pair returns both lists),
whose theta half the skew check reads too.  D_P's image tables (_DP_images)
hold the d_x chains of those lists, not the bracket.  The bracket
satisfies Jacobi exactly when D_P squares to zero, and since D_P^2 is again
a derivation it suffices to test it on the generators u^i and theta_i.

D_P^2 is the Hamiltonian vector field of half the Schouten bracket [P, P],
which in the theta-formalism is represented by the trivector

    T = sum_i (dP~/dtheta_i)(dP~/du^i)

(Getzler, Duke Math. J. 2002; Liu-Zhang, Adv. Math. 2011), so that

    D_P^2(u^i) = -dT/dtheta_i,    D_P^2(theta_i) = dT/du^i.

The generator test therefore needs one product per component, cached on
the bracket (_trivector), and one variational derivative per generator,
not D_P applied to the two families.  apply_DP stays for the callers that
apply D_P to other elements.

Before T, check_jacobi tries an exact refutation on the grading deg_u by
jet count, under which spectral splits D_P into D_{-1} + D_0 + D_1 + ....
deg_u adds under products, so the deg_u-0 component of T is the pairing
T_0 of the deg_u-0 components of the two families.  d_x is the derivation
raising jet and theta orders, which keeps deg_u, plus the chain rule on
the coefficients, which raises it by one; so the deg_u-0 component of
dT/dtheta_i is the variational formula on T_0 with d_x's chain rule left
out, and on T_0, which has no jets, that is d_x's theta table alone
(diffpoly._DX_THETAS; _refuted_at_degree_zero).  A nonzero value proves
the bracket is not Poisson, without building T or differentiating a
coefficient.
"""

from __future__ import annotations

from .bracket import HomogeneousBracket, _cached, skew_defects, validate, variational_pair
from .diffpoly import _DX_THETAS, DiffPoly, _alternating_sum, _derivation, _dx_upto, _Images, _products
from .errors import PreconditionError


@_cached
def _DP_images(b: HomogeneousBracket) -> tuple:
    """D_P's image tables, kept on the bracket: u^{i,s} -> d_x^s(dP~/dtheta_i)
    and theta_i^s -> d_x^s(dP~/du^i), each read on first use off the chain
    [v, d_x v, ...] of its variational derivative v, grown by _dx_upto.  They
    hold the chains, not the bracket, so its cache makes no cycle."""
    theta, u = ([[v] for v in family] for family in variational_pair(b))
    return (_Images(lambda v: _dx_upto(theta[v[0] - 1], v[1])),
            _Images(lambda v: _dx_upto(u[v[0] - 1], v[1])))


def apply_DP(b: HomogeneousBracket, a: DiffPoly) -> DiffPoly:
    """Apply the odd vector field D_P to a.

    D_P(u^{i,s}) is d_x^s of dP~/dtheta_i and D_P(theta_i^s) of dP~/du^i,
    read from tables cached once per bracket (_DP_images) by one call of
    the derivation kernel diffpoly._derivation, so each d_x power is taken
    once, on the chains those tables hold.
    """
    return _derivation(a, *_DP_images(b))


def _pairing(ddtheta: list, ddu: list) -> DiffPoly:
    """sum_i ddtheta[i] ddu[i], the theta factor on the left, as one grouped
    product call, so each key is summed once over all i."""
    return _products((t.terms.items(), e2, o2, 1, c2)
                     for t, u in zip(ddtheta, ddu) for (e2, o2), c2 in u.terms.items())


@_cached
def _trivector(b: HomogeneousBracket) -> DiffPoly:
    """T = sum_i (dP~/dtheta_i)(dP~/du^i); cached on the bracket."""
    return _pairing(*variational_pair(b))


@_cached
def _refuted_at_degree_zero(b: HomogeneousBracket) -> bool:
    """True if the deg_u-0 component of some dT/dtheta_i is nonzero, which
    proves that the bracket is not Poisson; cached on the bracket.

    That component is sum_s (-D)^s dT_0/dtheta_i^s, for T_0 the pairing of
    the deg_u-0 parts of the variational pair and D d_x without the chain
    rule (the module docstring says why), one Horner loop per i over T_0.
    """
    T0 = _pairing(*([v.project("deg_u", 0) for v in family] for family in variational_pair(b)))
    top = T0.max_theta_order()
    return any(_alternating_sum(T0._theta_parts, i, top, _DX_THETAS) for i in range(1, b.n + 1))


# D_P^2 on u^i and on theta_i, read off the trivector T.
_FAMILIES = (
    ("u^{}", lambda T, i: -T.variational_theta(i)),
    ("theta_{}", lambda T, i: T.variational_u(i)),
)


def _defects(b: HomogeneousBracket, families=_FAMILIES):
    """Yield the nonzero values of D_P^2 on u^1..u^n, then on theta_1..theta_n
    (on the generators of the given families only)."""
    T = _trivector(b)
    for label, value in families:
        for i in range(1, b.n + 1):
            if r := value(T, i):
                yield f"D_P^2({label.format(i)})", r


@_cached
def _first_defect(b: HomogeneousBracket):
    """The first nonzero D_P^2(u^i) as (label, value), or None; cached on the
    bracket.  None means that D_P^2 vanishes on every generator (check_jacobi
    says why the theta_i need no test)."""
    return next(_defects(b, _FAMILIES[:1]), None)


def jacobi_defects(b: HomogeneousBracket) -> list[tuple[str, DiffPoly]]:
    """Nonzero values of D_P^2 on the generators u^i, theta_i."""
    return list(_defects(b))


def check_jacobi(b: HomogeneousBracket) -> bool:
    """True iff the bracket satisfies the Jacobi identity.

    Requires a well-formed, skew-symmetric bracket; otherwise the odd
    encoding does not represent the operator and a PreconditionError is
    raised with the first violation as witness.

    Only D_P^2(u^i) = -dT/dtheta_i is tested.  T has theta-degree 3, and
    theta derivatives are left derivatives, so Euler's identity gives
    3T = sum_{i,s} theta_i^s dT/dtheta_i^s; integrating by parts moves each
    d_x^s off theta_i^s, so 3T = sum_i theta_i dT/dtheta_i modulo the image
    of d_x.  Once every dT/dtheta_i vanishes, T = d_x(R/3) for some R, and
    variational derivatives vanish on the image of d_x, so every
    D_P^2(theta_i) = dT/du^i vanishes too.  The argument is algebraic (no
    antiderivative is taken), so it holds over rational-function
    coefficients.

    The deg_u-0 components of the dT/dtheta_i are tested first, from the
    deg_u-0 parts of the variational pair alone (the module docstring says
    why that is exact); if one is nonzero the answer is False and T is
    never built.  Otherwise the first defect is read off T as above.
    """
    if problems := validate(b):
        raise PreconditionError(f"invalid bracket: {problems[0]}", witness=problems[0])
    if bad := skew_defects(b):
        i, j, t, defect = bad[0]
        raise PreconditionError(
            f"bracket is not skew-symmetric: defect at (i={i}, j={j}, s={t}) is {defect}",
            witness=defect,
        )
    return not _refuted_at_degree_zero(b) and _first_defect(b) is None
