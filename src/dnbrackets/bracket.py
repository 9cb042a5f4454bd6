"""Homogeneous local brackets on n coordinates.

A bracket of degree k is stored through its operator coefficients
P_s^{ij} for s = 0..k, each a differential polynomial of weight k - s
(so the s-th coefficient multiplies the s-th derivative of the delta
function).  Entries are kept sparse: absent (i, j, s) means zero.

The odd encoding used by the Jacobi machinery is the bivector

    1/2 * sum_s P_s^{ij} theta_i theta_j^s,

an element of theta-degree 2 whose variational derivatives recover the
operator.  Index conventions: i, j are 1-based like the coordinates;
tensor-valued results (metric, named coefficients) use 0-based nested
tuples, so g[i][j] is the coefficient attached to u^{i+1}, u^{j+1}.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, wraps
from itertools import chain, product
from math import comb
from types import MappingProxyType

from .diffpoly import DiffPoly, _dx_upto, _odd_mul, _products
from .errors import DegenerateMetricError
from .scalar import Scalar, _sum_products

_ONE = Scalar.one()


@dataclass(frozen=True)
class HomogeneousBracket:
    """Degree-k bracket: P maps (i, j, s) to the coefficient of delta^(s).

    Brackets are immutable: P is a read-only view of a private copy of the
    entries, and every bracket, dataclasses.replace's included, starts with
    an empty _cache; every value that _cached stores there is immutable
    (nested tuples, frozen records, Scalars, DiffPolys), so it cannot go stale.
    """

    n: int
    k: int
    P: Mapping = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one coordinate, got n={self.n}")
        if self.k < 1:
            raise ValueError(f"bracket degree must be >= 1, got k={self.k}")
        cleaned = {}
        for (i, j, s), entry in self.P.items():
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"component indices ({i},{j}) out of range for n={self.n}")
            if not (0 <= s <= self.k):
                raise ValueError(f"derivative order s={s} out of range for k={self.k}")
            if not isinstance(entry, DiffPoly):
                raise TypeError("bracket entries must be DiffPoly")
            if not entry.is_zero:
                cleaned[(i, j, s)] = entry
        object.__setattr__(self, "P", MappingProxyType(cleaned))

    def entry(self, i: int, j: int, s: int) -> DiffPoly:
        return self.P.get((i, j, s), DiffPoly.zero())


def _tensor(n: int, rank: int, fn) -> tuple:
    """The rank-deep nested tuple T with T[a][b]... = fn(a, b, ...), built in index order."""
    if rank == 1:
        return tuple(map(fn, range(n)))
    return tuple(_tensor(n, rank - 1, partial(fn, a)) for a in range(n))


def _components(T, rank: int):
    """Yield (index, entry) for every entry of the rank-deep nested sequence T, in index order."""
    for index in product(range(len(T)), repeat=rank):
        entry = T
        for a in index:
            entry = entry[a]
        yield index, entry


_MISSING = object()


def _cached(fn):
    """Store fn(b, *args) in b._cache under (fn, *args); nothing is stored if fn raises."""

    @wraps(fn)
    def cached(b: HomogeneousBracket, *args):
        key = (fn, *args)
        value = b._cache.get(key, _MISSING)
        if value is _MISSING:
            value = b._cache[key] = fn(b, *args)
        return value

    return cached


def validate(b: HomogeneousBracket) -> list[str]:
    """Check well-formedness; returns a list of problems (empty when valid)."""
    problems = []
    for (i, j, s), entry in b.P.items():
        if entry.max_theta_order() >= 0:
            problems.append(f"P_{s}^{{{i}{j}}} contains odd variables")
            continue
        want = b.k - s
        degs = entry.degrees("deg")
        if degs - {want}:
            problems.append(
                f"P_{s}^{{{i}{j}}} is not homogeneous of weight {want}: weights {sorted(degs)}"
            )
        bad_components = {
            v
            for (even, _), coeff in entry.terms.items()
            for v in chain((ii for (ii, _), _e in even), coeff.variables())
            if v > b.n
        }
        if bad_components:
            problems.append(
                f"P_{s}^{{{i}{j}}} mentions components beyond n={b.n}: {sorted(bad_components)}"
            )
    return problems


@_cached
def bivector(b: HomogeneousBracket) -> DiffPoly:
    """The odd encoding 1/2 sum P_s^{ij} theta_i theta_j^s, one _products call, multipliers +-1/2."""
    return _products((entry.terms.items(), (), om[1], Fraction(om[0], 2), _ONE)
                     for (i, j, s), entry in b.P.items() if (om := _odd_mul(((0, i),), ((s, j),))))


@_cached
def _variational(b: HomogeneousBracket, family: str) -> tuple:
    """dP~/dtheta_i (family "theta") or dP~/du^i (family "u") for i = 1..n.

    Cached apart, so a skew check builds only the theta half, whose Horner
    chain is as deep as the theta order (at most k), not the jet order.
    """
    P = bivector(b)
    return tuple((P.variational_theta if family == "theta" else P.variational_u)(i)
                 for i in range(1, b.n + 1))


def variational_pair(b: HomogeneousBracket) -> tuple[tuple, tuple]:
    """(dP~/dtheta_i, dP~/du^i) for i = 1..n: the two tuples _variational caches."""
    return _variational(b, "theta"), _variational(b, "u")


@dataclass(frozen=True)
class NamedCoefficients:
    """The leading metric g and the linear-part tails h_(s).

    g[i][j] is the coefficient of delta^(k) with no jet dependence, and
    h[s][i][j][l] the coefficient of u^{l+1, k-s} in the linear part of
    P_s (all indices 0-based here).
    """

    n: int
    k: int
    g: tuple
    h: tuple


@_cached
def extract_named(b: HomogeneousBracket) -> NamedCoefficients:
    n, k = b.n, b.k

    def tail(s, i, j, l):
        return b.entry(i + 1, j + 1, s).coefficient((((l + 1, k - s), 1),), ())

    g = _tensor(n, 2, lambda i, j: b.entry(i + 1, j + 1, k).coefficient((), ()))
    h = tuple(_tensor(n, 3, partial(tail, s)) for s in range(k))
    return NamedCoefficients(n=n, k=k, g=g, h=h)


def skew_defects(b: HomogeneousBracket) -> list[tuple[int, int, int, DiffPoly]]:
    """Defects of the formal skew-adjoint condition.

    Skewness of the operator says P_t^{ji} equals
    sum_{s>=t} (-1)^{s+1} C(s,t) d_x^{s-t} P_s^{ij}; each nonzero
    difference is returned as (i, j, t, defect).  For entries free of odd
    variables that sum is 2 d(dP~/dtheta_j)/dtheta_i^t - P_t^{ji}, so each
    defect is 2 (P_t^{ji} - d(dP~/dtheta_j)/dtheta_i^t), read off the cached
    theta half of the variational pair.  The list is a fresh copy of the
    cached defects.
    """
    return list(_skew_defects(b))


@_cached
def _skew_defects(b: HomogeneousBracket) -> tuple:
    ddtheta = _variational(b, "theta")
    out = []
    for i, j, t in product(range(1, b.n + 1), range(1, b.n + 1), range(b.k + 1)):
        defect = _products([(b.entry(j, i, t).terms.items(), (), (), 2, _ONE),
                            *[(items, (), (), -2 * m, _ONE)
                              for items, _, _, m, _ in ddtheta[j - 1]._theta_parts(i, t)]])
        if not defect.is_zero:
            out.append((i, j, t, defect))
    return tuple(out)


def check_skew(b: HomogeneousBracket) -> bool:
    return not skew_defects(b)


def skewh_defects(b: HomogeneousBracket) -> list[tuple[str, Scalar]]:
    """Skewness conditions written on the named coefficients (g, h), each
    defect one _sum_products list with the signed binomials as multipliers."""
    named = extract_named(b)
    g, h, k = named.g, named.h, named.k
    sign = 1 if (k + 1) % 2 == 0 else -1
    out = [
        (f"g^{{{j+1}{i+1}}} - ({sign})*g^{{{i+1}{j+1}}}", defect)
        for (i, j), gij in _components(g, 2)
        if (defect := _sum_products([(1, g[j][i], _ONE), (-sign, gij, _ONE)]))
    ]
    for s, hs in enumerate(h):
        for (i, j, l), hsijl in _components(hs, 3):
            triples = [(1, hsijl, _ONE), (-comb(k, s), g[i][j].partial(l + 1), _ONE)]
            triples += [((-1) ** t * comb(t, s), h[t][j][i][l], _ONE) for t in range(s, k)]
            if defect := _sum_products(triples):
                out.append((f"h_({s})^{{{i+1}{j+1}}}_{l+1} constraint", defect))
    return out


def check_skewh(b: HomogeneousBracket) -> bool:
    return not skewh_defects(b)


@dataclass
class CoordinateMap:
    """An invertible rational change of coordinates.

    forward[i] expresses the new coordinate i+1 in the old ones; inverse[i]
    expresses the old coordinate i+1 in the new ones.
    """

    n: int
    forward: list
    inverse: list

    def __post_init__(self):
        if len(self.forward) != self.n or len(self.inverse) != self.n:
            raise ValueError("coordinate map needs exactly n components each way")

    def check_inverse(self) -> list[str]:
        problems = []
        fwd = {m + 1: self.forward[m] for m in range(self.n)}
        inv = {m + 1: self.inverse[m] for m in range(self.n)}
        for i in range(self.n):
            for name, f, sub in (("forward o inverse", self.forward, inv),
                                 ("inverse o forward", self.inverse, fwd)):
                try:
                    if f[i].subs(sub) != Scalar.coordinate(i + 1):
                        problems.append(f"{name} is not the identity in component {i+1}")
                except ZeroDivisionError:
                    problems.append(f"{name} divides by zero in component {i+1}")
        return problems

    def inverted(self) -> "CoordinateMap":
        return CoordinateMap(self.n, list(self.inverse), list(self.forward))

    def jacobian(self) -> tuple:
        """J[i][i'] = d(new i)/d(old i'), as functions of the old coordinates."""
        return _tensor(self.n, 2, lambda i, ip: self.forward[i].partial(ip + 1))


def transform(b: HomogeneousBracket, cmap: CoordinateMap) -> HomogeneousBracket:
    """Push the bracket through a change of coordinates.

    The operator transforms by the Leibniz expansion

        R_s^{ij} = sum_t C(s+t, s) J^i_{i'} P_{s+t}^{i'j'} d_x^t(J^j_{j'})

    for J the Jacobian of the map.  Its terms are written in the new
    variables before the sum: the entries of P with the old coordinates and
    jets substituted by their expressions in the new ones (u^{l,r} by d_x^r
    of the inverse map's l-th component), and J with the old coordinates
    substituted.  That pull-back is a homomorphism of differential rings,
    so it commutes with d_x, and d_x^t of the pulled-back J is the
    pulled-back d_x^t(J): the sum is R_s^{ij} pulled back.  Each R_s^{ij}
    is then one _products call, whose parts are P_{s+t}^{i'j'}'s terms
    times each term c of d_x^t(J^j_{j'}) with coefficient J^i_{i'} c and
    the multiplier C(s+t, s), over t, i' and j', so each key sums all its
    products over one common denominator.
    """
    if cmap.n != b.n:
        raise ValueError(f"map is for n={cmap.n}, bracket has n={b.n}")
    problems = cmap.check_inverse()
    if problems:
        raise ValueError("; ".join(problems))
    n, k = b.n, b.k
    coord_map = {m + 1: cmap.inverse[m] for m in range(n)}
    max_order = max((entry.max_jet_order() for entry in b.P.values()), default=0)
    jet_map = {}
    for l in range(1, n + 1):
        derivs = [DiffPoly.from_scalar(cmap.inverse[l - 1])]
        jet_map.update({(l, r): _dx_upto(derivs, r) for r in range(1, max_order + 1)})
    pulled = {key: entry.substitute(coord_map=coord_map, jet_map=jet_map).terms.items()
              for key, entry in b.P.items()}
    jac = [[x.subs(coord_map) for x in row] for row in cmap.jacobian()]
    jac_dx = [[[DiffPoly.from_scalar(x)] for x in row] for row in jac]

    def parts(i, j, s):
        for t, ip in product(range(k - s + 1), range(1, n + 1)):
            if J := jac[i - 1][ip - 1]:
                for jp in range(1, n + 1):
                    if items := pulled.get((ip, jp, s + t)):
                        for (e2, o2), c2 in _dx_upto(jac_dx[j - 1][jp - 1], t).terms.items():
                            yield items, e2, o2, comb(s + t, s), J * c2

    P = {
        (i, j, s): acc
        for i, j, s in product(range(1, n + 1), range(1, n + 1), range(k + 1))
        if (acc := _products(parts(i, j, s)))
    }
    return HomogeneousBracket(n=n, k=k, P=P)


def constant_bracket(g: list, k: int) -> HomogeneousBracket:
    """The bracket with constant leading coefficient g and no lower tail."""
    P = {  # zero entries are dropped by HomogeneousBracket
        (i + 1, j + 1, k): DiffPoly.from_scalar(x if isinstance(x, Scalar) else Scalar.from_fraction(x))
        for (i, j), x in _components(g, 2)
    }
    return HomogeneousBracket(n=len(g), k=k, P=P)


def _gauss_jordan(rows: list) -> tuple[list, list]:
    """Reduced row echelon form over the rational function field.

    Returns the reduced rows and, in order, the pivot column of each of the
    leading rows; the rows after those are zero.
    """
    rows = [list(r) for r in rows]
    pivots: list = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((r for r in range(top, len(rows)) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = Scalar.one() / rows[top][col]
        rows[top] = [x * inv for x in rows[top]]
        for r in range(len(rows)):
            if r != top and not rows[r][col].is_zero:
                factor = rows[r][col]
                rows[r] = [_sum_products([(1, a, _ONE), (-1, factor, c)]) if c else a
                           for a, c in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def lower_metric(g) -> tuple:
    """Invert the leading-coefficient matrix over the rational function field, as nested tuples."""
    n = len(g)
    aug = [[g[i][j] for j in range(n)] + [Scalar.one() if i == j else Scalar.zero() for j in range(n)] for i in range(n)]
    rows, pivots = _gauss_jordan(aug)
    if pivots[:n] != list(range(n)):
        raise DegenerateMetricError("leading coefficient matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


@_cached
def metric_pair(b: HomogeneousBracket) -> tuple:
    """Named coefficients together with the inverted leading metric, cached."""
    named = extract_named(b)
    return named, lower_metric(named.g)
