"""Jacobi identity via the odd encoding.

For the bivector P~ of a skew bracket, the induced odd vector field is

    D_P = sum_{i,s} d_x^s(dP~/dtheta_i) d/du^{i,s}
        + sum_{i,s} d_x^s(dP~/du^i) d/dtheta_i^s

where dP~/dtheta_i and dP~/du^i are variational derivatives, cached on
the bracket by bracket._variational (variational_pair returns both lists),
whose theta half the skew check reads too.  D_P's image tables hold the d_x
chains of those lists (_dx_chains), not the bracket.  The bracket
satisfies Jacobi exactly when D_P squares to zero, and since D_P^2 is again
a derivation it suffices to test it on the generators u^i and theta_i.
D_P(u^i) is the theta-variational derivative itself, so the generator test
reduces to applying D_P to the two families of variational derivatives.
"""

from __future__ import annotations

from .bracket import HomogeneousBracket, _cached, _variational, skew_defects, validate, variational_pair
from .diffpoly import DiffPoly, _derivation, _dx_upto, _Images
from .errors import PreconditionError


@_cached
def _dx_chains(b: HomogeneousBracket, family: str) -> list:
    """Entry i - 1 is the chain [dP~/dtheta_i, its d_x, ...] (family "theta")
    or [dP~/du^i, its d_x, ...] (family "u"), grown on demand by _dx_upto."""
    return [[v] for v in _variational(b, family)]


@_cached
def _DP_images(b: HomogeneousBracket) -> tuple:
    """D_P's image tables, kept on the bracket: u^{i,s} -> d_x^s(dP~/dtheta_i)
    and theta_i^s -> d_x^s(dP~/du^i), each read off the _dx_chains on first
    use.  They hold the chains, not the bracket, so its cache makes no cycle."""
    theta, u = _dx_chains(b, "theta"), _dx_chains(b, "u")
    return (_Images(lambda v: _dx_upto(theta[v[0] - 1], v[1])),
            _Images(lambda v: _dx_upto(u[v[0] - 1], v[1])))


def apply_DP(b: HomogeneousBracket, a: DiffPoly) -> DiffPoly:
    """Apply the odd vector field D_P to a.

    D_P(u^{i,s}) is d_x^s of dP~/dtheta_i and D_P(theta_i^s) of dP~/du^i.
    Like D_{-1}, the homotopy and both closed forms of d_1 in spectral, it
    is one call of the derivation kernel diffpoly._derivation, which applies
    these images to a term by term, from tables cached once per bracket
    (_DP_images), so each generator's image is looked up once per bracket
    and each d_x power is taken once, on its chain in _dx_chains.
    """
    return _derivation(a, *_DP_images(b))


def _defects(b: HomogeneousBracket):
    """Yield the nonzero values of D_P^2 on u^1..u^n, then on theta_1..theta_n."""
    ddtheta, ddu = variational_pair(b)
    for label, family in (("u^{}", ddtheta), ("theta_{}", ddu)):
        for i, value in enumerate(family, 1):
            if r := apply_DP(b, value):
                yield f"D_P^2({label.format(i)})", r


@_cached
def _first_defect(b: HomogeneousBracket):
    """The first (label, value) that _defects yields, or None; cached on the bracket."""
    return next(_defects(b), None)


def jacobi_defects(b: HomogeneousBracket) -> list[tuple[str, DiffPoly]]:
    """Nonzero values of D_P^2 on the generators u^i, theta_i."""
    return list(_defects(b))


def check_jacobi(b: HomogeneousBracket) -> bool:
    """True iff the bracket satisfies the Jacobi identity.

    Requires a well-formed, skew-symmetric bracket; otherwise the odd
    encoding does not represent the operator and a PreconditionError is
    raised with the first violation as witness.
    """
    if problems := validate(b):
        raise PreconditionError(f"invalid bracket: {problems[0]}", witness=problems[0])
    if bad := skew_defects(b):
        i, j, t, defect = bad[0]
        raise PreconditionError(
            f"bracket is not skew-symmetric: defect at (i={i}, j={j}, s={t}) is {defect}",
            witness=defect,
        )
    return _first_defect(b) is None
