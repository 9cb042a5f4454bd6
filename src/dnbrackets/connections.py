"""Connections attached to a homogeneous bracket and their curvature.

A degree-k bracket with invertible leading coefficient g determines k
standard connections, one per named tail coefficient:

    Gamma_(s)^l_ij = -(k choose s)^{-1} g_ii' h_(s)j^{i'l},   s = 0..k-1.

Specific lower-triangular rational combinations of these,

    Gamma_[s] = sum_t c_s^t Gamma_(t),
    c_s^t = (-1)^t (k+s-t choose k) (k choose t),

are connections again (each row of c sums to 1) and are flat whenever the
bracket is Poisson.  Curvature follows the convention

    R^l_{t,i,j} = d_i Gamma^l_{jt} - d_j Gamma^l_{it}
                + Gamma^l_{iq} Gamma^q_{jt} - Gamma^l_{jq} Gamma^q_{it}

with the differentiation direction in the first lower Christoffel slot;
R is antisymmetric in (i, j).  All tensor arrays here are 0-based nested
lists of Scalars, each sum of products one scalar._sum_products list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .bracket import (
    HomogeneousBracket,
    _components,
    _cached,
    _gauss_jordan,
    _tensor,
    lower_metric,
    metric_pair,
)
from .scalar import Scalar, _sum_products

_ONE = Scalar.one()

__all__ = [
    "Connection",
    "CMatrix",
    "CurvatureTensor",
    "lower_metric",
    "standard_connection",
    "c_matrix",
    "flat_combination",
    "curvature",
    "is_flat",
    "torsion",
    "flip_torsion",
    "nabla_tensor",
    "genericity",
]


@dataclass
class Connection:
    """Christoffel symbols gamma[l][i][j] = Gamma^l_{ij} (no symmetry assumed)."""

    n: int
    gamma: list


@dataclass
class CurvatureTensor:
    """R[l][t][i][j] = R^l_{t,i,j}, antisymmetric in the direction pair (i, j)."""

    n: int
    R: list

    def is_zero(self) -> bool:
        return all(v.is_zero for _, v in _components(self.R, 4))

    def nonzero_components(self) -> list:
        return [(index, v) for index, v in _components(self.R, 4) if not v.is_zero]


@dataclass
class CMatrix:
    """The coefficients expressing the flat combinations, with their inverse."""

    k: int
    c: list
    cinv: list


@_cached
def standard_connection(b: HomogeneousBracket, s: int) -> Connection:
    """Gamma_(s), cached on the bracket: the returned object is shared.  Each
    entry is one _sum_products list with the multiplier -1/C(k, s)."""
    if not 0 <= s <= b.k - 1:
        raise ValueError(f"s must lie in 0..{b.k - 1}, got {s}")
    named, glow = metric_pair(b)
    h, m = named.h[s], Fraction(-1, comb(b.k, s))

    def entry(l, i, j):
        return _sum_products([(m, gip, hip[l][j]) for gip, hip in zip(glow[i], h)])

    return Connection(n=b.n, gamma=_tensor(b.n, 3, entry))


def c_matrix(k: int) -> CMatrix:
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    c = [
        [Fraction((-1) ** t * comb(k + s - t, k) * comb(k, t)) for t in range(k)]
        for s in range(k)
    ]
    cinv = [
        [
            Fraction((-1) ** t * comb(k + 1, s - t), comb(k, s)) if s >= t else Fraction(0)
            for t in range(k)
        ]
        for s in range(k)
    ]
    return CMatrix(k=k, c=c, cinv=cinv)


@_cached
def flat_combination(b: HomogeneousBracket, s: int) -> Connection:
    """Gamma_[s], cached on the bracket: the returned object is shared."""
    if not 0 <= s <= b.k - 1:
        raise ValueError(f"s must lie in 0..{b.k - 1}, got {s}")
    row = c_matrix(b.k).c[s]
    parts = [(standard_connection(b, t).gamma, int(ct)) for t, ct in enumerate(row) if ct]

    def entry(l, i, j):
        return _sum_products([(ct, G[l][i][j], _ONE) for G, ct in parts])

    return Connection(n=b.n, gamma=_tensor(b.n, 3, entry))


def curvature(conn: Connection) -> CurvatureTensor:
    n, G = conn.n, conn.gamma

    def block(l, t):
        """R^l_{t,i,j} over (i, j): computed for i < j, mirrored for i > j."""
        B = _tensor(n, 2, lambda i, j: Scalar.zero())
        for i, j in combinations(range(n), 2):
            triples = [(1, G[l][j][t].partial(i + 1), _ONE), (-1, G[l][i][t].partial(j + 1), _ONE)]
            for q in range(n):
                triples += (1, G[l][i][q], G[q][j][t]), (-1, G[l][j][q], G[q][i][t])
            B[i][j], B[j][i] = (val := _sum_products(triples)), -val
        return B

    return CurvatureTensor(n=n, R=_tensor(n, 2, block))


@_cached
def _bracket_curvature(b: HomogeneousBracket, flat: bool, s: int) -> CurvatureTensor:
    """The curvature of Gamma_[s] (flat) or Gamma_(s), cached on the bracket.

    The key holds the bracket, never a Connection: a Connection is mutable,
    so a curvature cached on one could go stale.
    """
    return curvature((flat_combination if flat else standard_connection)(b, s))


def is_flat(conn: Connection) -> bool:
    return curvature(conn).is_zero()


def torsion(conn: Connection) -> list:
    G = conn.gamma
    return _tensor(conn.n, 3, lambda l, i, j: G[l][i][j] - G[l][j][i])


def flip_torsion(conn: Connection) -> Connection:
    G = conn.gamma
    return Connection(n=conn.n, gamma=_tensor(conn.n, 3, lambda l, i, j: G[l][j][i]))


def nabla_tensor(conn: Connection, g: list, variance: str) -> list:
    """Covariant derivative N[l][i][j] = nabla_l g^{ij} (or g_{ij}).

    The direction of differentiation sits in the first lower Christoffel
    slot: upper-variance tensors gain +Gamma^i_{lq} g^{qj} + Gamma^j_{lq} g^{iq},
    lower-variance ones lose -Gamma^q_{li} g_{qj} - Gamma^q_{lj} g_{iq}.
    """
    n, G = conn.n, conn.gamma

    def upper(l, i, j):
        triples = [(1, g[i][j].partial(l + 1), _ONE)]
        for q in range(n):
            triples += (1, G[i][l][q], g[q][j]), (1, G[j][l][q], g[i][q])
        return _sum_products(triples)

    def lower(l, i, j):
        triples = [(1, g[i][j].partial(l + 1), _ONE)]
        for q in range(n):
            triples += (-1, G[q][l][i], g[q][j]), (-1, G[q][l][j], g[i][q])
        return _sum_products(triples)

    if variance not in ("upper", "lower"):
        raise ValueError(f"variance must be 'upper' or 'lower', got {variance!r}")
    return _tensor(n, 3, upper if variance == "upper" else lower)


def genericity(b: HomogeneousBracket) -> int:
    """Dimension of the affine span of the standard connections.

    Computed as the rank, over the rational function field, of the matrix
    whose rows are the flattened differences Gamma_(s) - Gamma_(0).
    """
    if b.k == 1:
        return 0
    base = standard_connection(b, 0).gamma
    rows = [
        [v - base[l][i][j] for (l, i, j), v in _components(standard_connection(b, s).gamma, 3)]
        for s in range(1, b.k)
    ]
    return len(_gauss_jordan(rows)[1])
