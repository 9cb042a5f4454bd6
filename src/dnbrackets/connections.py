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
lists of Scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bracket import HomogeneousBracket, _gauss_jordan, _memo, lower_metric, metric_pair
from .scalar import Scalar

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

    def entry(self, l: int, i: int, j: int) -> Scalar:
        return self.gamma[l][i][j]


@dataclass
class CurvatureTensor:
    """R[l][t][i][j] = R^l_{t,i,j}, antisymmetric in the direction pair (i, j)."""

    n: int
    R: list

    def is_zero(self) -> bool:
        return all(
            self.R[l][t][i][j].is_zero
            for l in range(self.n)
            for t in range(self.n)
            for i in range(self.n)
            for j in range(self.n)
        )

    def nonzero_components(self) -> list:
        out = []
        for l in range(self.n):
            for t in range(self.n):
                for i in range(self.n):
                    for j in range(self.n):
                        if not self.R[l][t][i][j].is_zero:
                            out.append(((l, t, i, j), self.R[l][t][i][j]))
        return out


@dataclass
class CMatrix:
    """The coefficients expressing the flat combinations, with their inverse."""

    k: int
    c: list
    cinv: list


def standard_connection(b: HomogeneousBracket, s: int) -> Connection:
    """Gamma_(s), cached on the bracket: the returned object is shared."""
    if not 0 <= s <= b.k - 1:
        raise ValueError(f"s must lie in 0..{b.k - 1}, got {s}")

    def build():
        named, glow = metric_pair(b)
        n = b.n
        factor = Scalar.from_fraction(Fraction(-1, comb(b.k, s)))
        h = named.h[s]
        gamma = [
            [
                [
                    factor
                    * sum(
                        (glow[i][ip] * h[ip][l][j] for ip in range(n)),
                        Scalar.zero(),
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for l in range(n)
        ]
        return Connection(n=n, gamma=gamma)

    return _memo(b, ("standard_connection", s), build)


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
    for s in range(k):
        for t in range(k):
            if t > s and c[s][t]:
                raise AssertionError("c matrix is not lower triangular")
            prod = sum(c[s][q] * cinv[q][t] for q in range(k))
            if prod != (1 if s == t else 0):
                raise AssertionError("c inverse formula failed")
        if sum(c[s]) != 1 or sum(cinv[s]) != 1:
            raise AssertionError("c matrix rows must sum to 1")
    return CMatrix(k=k, c=c, cinv=cinv)


def flat_combination(b: HomogeneousBracket, s: int) -> Connection:
    """Gamma_[s], cached on the bracket: the returned object is shared."""
    if not 0 <= s <= b.k - 1:
        raise ValueError(f"s must lie in 0..{b.k - 1}, got {s}")

    def build():
        row = c_matrix(b.k).c[s]
        n = b.n
        parts = [standard_connection(b, t) for t in range(b.k)]
        gamma = [
            [
                [
                    sum(
                        (parts[t].gamma[l][i][j] * row[t] for t in range(b.k) if row[t]),
                        Scalar.zero(),
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            for l in range(n)
        ]
        return Connection(n=n, gamma=gamma)

    return _memo(b, ("flat_combination", s), build)


def curvature(conn: Connection) -> CurvatureTensor:
    n = conn.n
    G = conn.gamma
    R = [
        [[[Scalar.zero() for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]
    for l in range(n):
        for t in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    val = G[l][j][t].partial(i + 1) - G[l][i][t].partial(j + 1)
                    for q in range(n):
                        val = val + G[l][i][q] * G[q][j][t] - G[l][j][q] * G[q][i][t]
                    R[l][t][i][j] = val
                    R[l][t][j][i] = -val
    return CurvatureTensor(n=n, R=R)


def is_flat(conn: Connection) -> bool:
    return curvature(conn).is_zero()


def torsion(conn: Connection) -> list:
    n = conn.n
    return [
        [[conn.gamma[l][i][j] - conn.gamma[l][j][i] for j in range(n)] for i in range(n)]
        for l in range(n)
    ]


def flip_torsion(conn: Connection) -> Connection:
    n = conn.n
    return Connection(
        n=n,
        gamma=[
            [[conn.gamma[l][j][i] for j in range(n)] for i in range(n)]
            for l in range(n)
        ],
    )


def nabla_tensor(conn: Connection, g: list, variance: str) -> list:
    """Covariant derivative N[l][i][j] = nabla_l g^{ij} (or g_{ij}).

    The direction of differentiation sits in the first lower Christoffel
    slot: upper-variance tensors gain +Gamma^i_{lq} g^{qj} + Gamma^j_{lq} g^{iq},
    lower-variance ones lose -Gamma^q_{li} g_{qj} - Gamma^q_{lj} g_{iq}.
    """
    n = conn.n
    G = conn.gamma
    out = []
    for l in range(n):
        mat = []
        for i in range(n):
            row = []
            for j in range(n):
                val = g[i][j].partial(l + 1)
                if variance == "upper":
                    for q in range(n):
                        val = val + G[i][l][q] * g[q][j] + G[j][l][q] * g[i][q]
                elif variance == "lower":
                    for q in range(n):
                        val = val - G[q][l][i] * g[q][j] - G[q][l][j] * g[i][q]
                else:
                    raise ValueError(f"variance must be 'upper' or 'lower', got {variance!r}")
                row.append(val)
            mat.append(row)
        out.append(mat)
    return out


def genericity(b: HomogeneousBracket) -> int:
    """Dimension of the affine span of the standard connections.

    Computed as the rank, over the rational function field, of the matrix
    whose rows are the flattened differences Gamma_(s) - Gamma_(0).
    """
    if b.k == 1:
        return 0
    base = standard_connection(b, 0)
    n = b.n
    rows = []
    for s in range(1, b.k):
        conn = standard_connection(b, s)
        rows.append(
            [
                conn.gamma[l][i][j] - base.gamma[l][i][j]
                for l in range(n)
                for i in range(n)
                for j in range(n)
            ]
        )
    return len(_gauss_jordan(rows)[1])
