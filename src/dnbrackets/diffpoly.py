"""Differential polynomials in jet variables u^{i,s} and odd generators theta_i^s.

Elements live in the supercommutative algebra generated over the rational
function field by even variables u^{i,s} (s >= 1) and odd variables
theta_i^s (s >= 0).  A term is stored as a pair of tuples:

* even part: (((i, s), exponent), ...) sorted by (i, s),
* odd part:  ((s, i), ...) strictly increasing, so theta variables are
  ordered by differential order first and component second.

Odd variables anticommute and square to zero; signs are tracked when words
are merged or reordered.  Coefficients are Scalars (rational functions of
the coordinates u^i), and the total derivative d_x acts on those through
the chain rule u^i -> u^{i,1}.

Every derivation - d_x here, D_P in jacobi, D_{-1}, the homotopy and the
three forms of d_1 in spectral - is applied from its values on the
generators, term by term: each generator of a term with an image
contributes the image times the term with that generator taken out
(_derivation_parts), and no partial derivative is built as a DiffPoly.
The values come in image tables (_Images), which build each generator's
image once: d_x's are module constants and the others are cached per
bracket.  A table records whether any coordinate has an image, and a
derivation with none never looks at the coefficients' variables.

Partial derivatives with respect to odd variables are left derivatives:
the variable is anticommuted to the front of the word and then removed.

A term dict never holds a zero coefficient: every sum of terms goes through
scalar._collect or scalar._sum_products, and _wrap builds a DiffPoly around
a dict that already satisfies this.  Every sum of products is one _products
call, whose parts are a DiffPoly's term items times one term with an int
multiplier: a product passes one per term of its right factor, a
derivation one per generator of each input term, a partial derivative one
per multiplier, a step of a variational derivative's Horner loop
(_alternating_sum) the partial's parts and the negated parts of d_x(acc),
and a defect (spectral.d1_sum) the parts of both sides, those of one side
signed -1.  The call groups the coefficient pairs of all its products by
output key and sums each group in one scalar._sum_products, over one
common denominator; odd words are merged by _odd_mul, memoised across
calls.  A call of at least _PACKED_PARTS parts is first offered to the
packed path (_packed), which sums it in scalar._packed_sums as one int per
product term, the term key above the coefficient's packed Laurent monomial,
when every denominator is an integer times a monomial.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain

from .scalar import (
    _PACK_BITS, Scalar, _collect, _factor_str, _mono_lower, _mono_mul, _pack, _packable,
    _packed_sums, _power, _product, _signed_join, _sum_products, _unpack,
)

EvenKey = tuple  # (((i, s), e), ...)
OddKey = tuple  # ((s, i), ...)
TermKey = tuple  # (EvenKey, OddKey)

_EMPTY_KEY: TermKey = ((), ())
_ONE = Scalar.one()

# the fewest parts of a _products call offered to the packed sum.  Timed
# per call (best of 3, seed 11, Python 3.11, 2 CPUs) over the calls whose
# coefficients all pack: at 16-63 parts the packed sum took 1.06x the
# grouped time on dp_square and 2.2-2.8x on fixture_report and
# generated_jacobi, whose small groups mostly hold one product; at 64 parts
# and more it took 0.55-1.0x, and 0.55x on the four calls of 512 or more
_PACKED_PARTS = 64

# entries of the odd-merge memo (_odd_mul)
_ODD_MEMO = 1 << 14


@dataclass(frozen=True)
class JetVar:
    """The even generator u^{i,s} with s >= 1."""

    i: int
    s: int

    def __post_init__(self):
        if self.i < 1:
            raise ValueError(f"component index must be >= 1, got {self.i}")
        if self.s < 1:
            raise ValueError(f"jet order must be >= 1, got {self.s}")


@dataclass(frozen=True)
class ThetaVar:
    """The odd generator theta_i^s with s >= 0."""

    i: int
    s: int

    def __post_init__(self):
        if self.i < 1:
            raise ValueError(f"component index must be >= 1, got {self.i}")
        if self.s < 0:
            raise ValueError(f"theta order must be >= 0, got {self.s}")


@lru_cache(maxsize=_ODD_MEMO)
def _odd_mul(o1: OddKey, o2: OddKey):
    """Merge two sorted odd words; returns (sign, word) or None on repeats."""
    if not o1:
        return 1, o2
    if not o2:
        return 1, o1
    merged = []
    i = j = 0
    sign = 1
    n1 = len(o1)
    while i < n1 and j < len(o2):
        a, b = o1[i], o2[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            if (n1 - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(o1[i:])
    merged.extend(o2[j:])
    return sign, tuple(merged)


def term_deg(key: TermKey) -> int:
    """Differential-order weight: u^{i,s} and theta_i^s both count s."""
    even, odd = key
    return sum(v[1] * e for v, e in even) + sum(s for s, _ in odd)


def term_deg_theta(key: TermKey) -> int:
    return len(key[1])


def term_deg_u(key: TermKey) -> int:
    return sum(e for _, e in key[0])


def term_deg_theta_k(key: TermKey, k: int) -> int:
    return sum(1 for s, _ in key[1] if s == k)


_GRADINGS = {
    "deg": lambda key, k: term_deg(key),
    "deg_theta": lambda key, k: term_deg_theta(key),
    "deg_u": lambda key, k: term_deg_u(key),
    "deg_theta_k": term_deg_theta_k,
}


def _grading(name: str, k: int | None):
    fn = _GRADINGS.get(name)
    if fn is None:
        raise ValueError(f"unknown grading {name!r}")
    if name == "deg_theta_k" and k is None:
        raise ValueError("grading 'deg_theta_k' needs the bracket degree k")
    return fn


class DiffPoly:
    """A differential polynomial with Scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "DiffPoly":
        return DiffPoly()

    @staticmethod
    def one() -> "DiffPoly":
        return DiffPoly.from_scalar(Scalar.one())

    @staticmethod
    def from_scalar(sc: Scalar) -> "DiffPoly":
        return DiffPoly({_EMPTY_KEY: sc})

    @staticmethod
    def from_fraction(q) -> "DiffPoly":
        return DiffPoly.from_scalar(Scalar.from_fraction(q))

    @staticmethod
    def coordinate(i: int) -> "DiffPoly":
        return DiffPoly.from_scalar(Scalar.coordinate(i))

    @staticmethod
    def jet(i: int, s: int) -> "DiffPoly":
        if s == 0:
            return DiffPoly.coordinate(i)
        JetVar(i, s)  # validate
        return DiffPoly({((((i, s), 1),), ()): Scalar.one()})

    @staticmethod
    def theta(i: int, s: int) -> "DiffPoly":
        ThetaVar(i, s)  # validate
        return DiffPoly({((), ((s, i),)): Scalar.one()})

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero

    def is_scalar(self) -> bool:
        return all(k == _EMPTY_KEY for k in self.terms)

    def to_scalar(self) -> Scalar:
        if not self.is_scalar():
            raise ValueError(f"not a pure scalar: {self}")
        return self.terms.get(_EMPTY_KEY, Scalar.zero())

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return _wrap(_collect(other.terms.items(), self.terms))

    __radd__ = __add__

    def __neg__(self) -> "DiffPoly":
        return _wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "DiffPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        items = self.terms.items()
        return _products((items, e2, o2, 1, c2) for (e2, o2), c2 in other.terms.items())

    __rmul__ = __mul__  # a number or a Scalar commutes with every element

    def __pow__(self, e: int) -> "DiffPoly":
        if e < 0:
            raise ValueError("negative powers of differential polynomials")
        return _power(self, e, None, operator.mul) if e else DiffPoly.one()

    # -- derivations ----------------------------------------------------

    def partial(self, v) -> "DiffPoly":
        """Partial derivative with respect to a JetVar or ThetaVar.

        Theta derivatives are left derivatives.
        """
        if isinstance(v, JetVar):
            return self._partial_jet(v.i, v.s)
        if isinstance(v, ThetaVar):
            return self._partial_theta(v.i, v.s)
        raise TypeError(f"expected JetVar or ThetaVar, got {type(v).__name__}")

    def partial_coordinate(self, i: int) -> "DiffPoly":
        """Differentiate the Scalar coefficients with respect to u^i."""
        return _wrap({key: dc for key, c in self.terms.items() if (dc := c.partial(i))})

    # Each partial below is one _products call over parts of products by
    # one, one part per int multiplier: the exponent of the jet, or the sign
    # of the theta's position.

    def _partial_jet(self, i: int, s: int) -> "DiffPoly":
        return _products(self._jet_parts(i, s))

    def _partial_theta(self, i: int, s: int) -> "DiffPoly":
        return _products(self._theta_parts(i, s))

    def _jet_parts(self, i: int, s: int) -> list:
        if s == 0:
            return [(self.partial_coordinate(i).terms.items(), (), (), 1, _ONE)]
        target, groups = (i, s), {}
        for (even, odd), c in self.terms.items():
            if e := dict(even).get(target):
                groups.setdefault(e, []).append(((_mono_lower(even, target), odd), c))
        return [(items, (), (), e, _ONE) for e, items in groups.items()]

    def _theta_parts(self, i: int, s: int) -> list:
        target, plus, minus = (s, i), [], []
        for (even, odd), c in self.terms.items():
            if target in odd:
                p = odd.index(target)
                (minus if p % 2 else plus).append(((even, odd[:p] + odd[p + 1 :]), c))
        return [(plus, (), (), 1, _ONE), (minus, (), (), -1, _ONE)]

    def d_x(self) -> "DiffPoly":
        """Total x-derivative: the derivation raising the order of every
        generator, u^{i,s} -> u^{i,s+1} (s = 0: the chain rule) and
        theta_i^s -> theta_i^{s+1}."""
        return _derivation(self, *_DX_IMAGES)

    def d_x_pow(self, s: int) -> "DiffPoly":
        if s < 0:
            raise ValueError("negative powers of d_x")
        return _dx_upto([self], s)

    def variational_u(self, i: int) -> "DiffPoly":
        """Variational derivative with respect to u^i."""
        return _alternating_sum(self._jet_parts, i, self.max_jet_order())

    def variational_theta(self, i: int) -> "DiffPoly":
        """Variational derivative with respect to theta_i."""
        ThetaVar(i, 0)  # validate
        return _alternating_sum(self._theta_parts, i, self.max_theta_order())

    # -- gradings and projections ---------------------------------------

    def project(self, grading: str, d: int, k: int | None = None) -> "DiffPoly":
        """Keep the terms whose given grading equals d."""
        fn = _grading(grading, k)
        return _wrap({key: c for key, c in self.terms.items() if fn(key, k) == d})

    def degrees(self, grading: str, k: int | None = None) -> set:
        fn = _grading(grading, k)
        return {fn(key, k) for key in self.terms}

    def is_homogeneous(self, grading: str, d: int, k: int | None = None) -> bool:
        return self.degrees(grading, k) <= {d}

    def max_jet_order(self) -> int:
        return max((s for even, _ in self.terms for (_, s), _e in even), default=0)

    def max_theta_order(self) -> int:
        return max((s for _, odd in self.terms for s, _ in odd), default=-1)

    def coefficient(self, even: EvenKey, odd: OddKey) -> Scalar:
        return self.terms.get((even, odd), Scalar.zero())

    # -- substitution ---------------------------------------------------

    def substitute(self, coord_map=None, jet_map=None, theta_map=None) -> "DiffPoly":
        """Substitute generators: the coordinate u^i by the Scalar coord_map[i],
        the jet u^{i,s} by the DiffPoly jet_map[(i, s)] and theta_i^s by
        theta_map[(s, i)].  Unmapped generators are left alone; one mapped to
        the zero DiffPoly is killed.  Jet images must be even; theta images
        must be odd (this is the caller's responsibility).  Each distinct jet
        monomial's image is built once, and the terms are summed in one _products call.
        """
        jm, tm = jet_map or {}, theta_map or {}
        images: dict = {}  # each distinct jet monomial's image

        def parts():
            for (even, odd), c in self.terms.items():
                if (acc := images.get(even)) is None:
                    powers = [(DiffPoly.jet(*v) if (img := jm.get(v)) is None else img) ** e for v, e in even]
                    acc = images[even] = reduce(operator.mul, powers) if powers else _wrap({_EMPTY_KEY: _ONE})
                for s, i in odd if tm else ():  # mapped thetas multiply in the order of the word
                    acc = acc * (DiffPoly.theta(i, s) if (img := tm.get((s, i))) is None else img)
                yield acc.terms.items(), (), () if tm else odd, 1, c.subs(coord_map) if coord_map else c

        return _products(parts())

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        return _signed_join(_term_str(key, self.terms[key]) for key in sorted(self.terms))

    def __repr__(self) -> str:
        return f"DiffPoly({self})"


def _wrap(terms: dict) -> DiffPoly:
    """A DiffPoly holding terms, which has no zero coefficient."""
    out = DiffPoly.__new__(DiffPoly)
    out.terms = terms
    return out


class _Row(dict):
    """merge(x, right) for each x looked up, made on its first lookup."""

    def __init__(self, merge, right):
        self.merge, self.right = merge, right

    def __missing__(self, x):
        self[x] = out = self.merge(x, self.right)
        return out


class _Terms(list):
    """Term items with the slot laurent, where scalar._packable keeps the
    packed Laurent forms of their coefficients (False until it builds them).
    An image table's entries are _Terms, so each builds its forms once, and
    the forms live and die with the entry."""

    laurent = False


def _products(parts) -> DiffPoly:
    """The sum of the products a * b over parts (a_items, e2, o2, m, c2),
    where a_items are a's terms and b is the one term m * c2 at (e2, o2), m
    a multiplier of scalar._sum_products.

    A call of at least _PACKED_PARTS parts whose coefficients and jets all
    pack is summed by _packed.  Any other call is grouped: the coefficient
    pairs of every product are grouped by key as (m times the odd merge's
    sign, c1, c2), and each group is summed by _sum_products.  Odd merges
    are memoised across calls (_odd_mul)."""
    parts = list(parts)
    if parts[_PACKED_PARTS - 1:] and (terms := _packed(parts)) is not None:  # _PACKED_PARTS or more
        return _wrap(terms)
    groups: dict = {}
    for items, e2, o2, m, c2 in parts:
        for (e1, o1), c1 in items:
            if (om := _odd_mul(o1, o2)) is not None:
                key = (_mono_mul(e1, e2) if e1 and e2 else e1 or e2, om[1])
                groups.setdefault(key, []).append((m * om[0], c1, c2))
    return _wrap({key: c for key, group in groups.items() if (c := _sum_products(group))})


def _packed(parts: list) -> dict | None:
    """The terms of _products(parts) from scalar._packed_sums, or None when
    some coefficient or jet does not pack, before any base is built: the
    left items' Laurent forms, kept on each _Terms, and the right
    coefficients are tried first (scalar._packable), then the jets.

    A term key is packed into one int: the call numbers its jets as it
    meets them and packs each even key (scalar._pack), once per distinct
    left items and once per part, and numbers the odd words it makes, whose
    number sits above the jet fields.  A product's key is then its left
    term's int base, the merged word's number plus the left even key (~ of
    that when the merge's sign is -1), plus the part's packed even key: no
    even key is merged and no tuple is built per product or left term.  The
    odd merges are made once per pair of words in one _Row per o2, and the
    bases once per distinct (items, o2).  The sums come in the grouped
    path's order of first appearance; each surviving key is unpacked once."""
    lefts, sides = {}, []
    for items, _, _, m, c2 in parts:
        if (terms := lefts.get(id(items))) is None:
            terms = lefts[id(items)] = items if type(items) is _Terms else _Terms(items)
        sides.append((terms, m, c2))
    if (gate := _packable(sides)) is None:
        return None
    fields: dict = {}
    evens = _Row(_pack, fields)
    jets = {i: [(evens[e1], o1) for (e1, o1), _ in terms] for i, terms in lefts.items()}
    if any(p is None for ks in jets.values() for p, _ in ks) or any(evens[e2] is None for _, e2, *_ in parts):
        return None
    top = _PACK_BITS * len(fields)  # the word's number sits above every jet field
    words: dict = {}

    def merge(o1, o2):
        if (om := _odd_mul(o1, o2)) is None:
            return None
        return om[0], words.setdefault(om[1], len(words)) << top

    rows, bases, packed = {}, {}, []
    for (items, e2, o2, m, c2), (terms, _, _) in zip(parts, sides):
        if (based := bases.get((id(items), o2))) is None:
            if (row := rows.get(o2)) is None:
                row = rows[o2] = _Row(merge, o2)
            based = bases[id(items), o2] = [(om[1] + p1 if om[0] > 0 else ~(om[1] + p1)) if (om := row[o1]) else None
                                            for p1, o1 in jets[id(items)]]
        packed.append((terms, based, evens[e2], m, c2))
    order, mask = list(words), (1 << top) - 1
    return {(_unpack(k & mask, fields), order[k >> top]): c for k, c in _packed_sums(packed, *gate).items()}


def _sum(parts) -> DiffPoly:
    """The sum of an iterable of DiffPolys in one _collect.  Each key adds
    its coefficients in the order of parts, as builtin sum would."""
    return _wrap(_collect(pair for p in parts for pair in p.terms.items()))


def _dx_upto(derivs: list, t: int) -> DiffPoly:
    """derivs[t] of a list holding p, d_x p, d_x^2 p, ...; grown in place as needed."""
    while len(derivs) <= t:
        derivs.append(derivs[-1].d_x())
    return derivs[t]


class _Images(dict):
    """A derivation's generator images as term items, keyed (i, s) for
    u^{i,s} (s = 0: the coordinate u^i) or for theta_i^s, and falsy where the
    image is; each is built by image(v) on its first lookup.  coordinates is
    False when no coordinate has an image, and the kernel then skips the
    coefficients' variables."""

    def __init__(self, image, coordinates: bool = True):
        self.image = image
        self.coordinates = coordinates

    @classmethod
    def of(cls, images: dict) -> "_Images":
        """The table of a dict of DiffPoly images; a missing key has none."""
        return cls(images.get, any(v for (_, s), v in images.items() if not s))

    def __missing__(self, v):
        img = self.image(v)
        self[v] = out = img and _Terms(img.terms.items())
        return out


def _derivation(x: DiffPoly, jets, thetas) -> DiffPoly:
    """Apply the derivation whose images of the generators are the _Images
    jets, of u^{i,s} keyed (i, s) (s = 0: the coordinate u^i), and thetas, of
    theta_i^s keyed (i, s); a falsy image kills the generator.

    The value is one _products call over the parts of _derivation_parts,
    which the homotopy and the forms of d_1 (spectral) pass to _products
    themselves, so as to sum them with other parts in one call.
    """
    return _products(_derivation_parts(x, jets, thetas))


def _derivation_parts(x: DiffPoly, jets: _Images, thetas: _Images, sign: int = 1):
    """The _products parts of sign times the derivation of x with the image
    tables jets and thetas (see _derivation).

    x is walked term by term, and each generator v of a term c * m whose
    image is truthy adds image * d(c * m)/dv, image on the left so the odd
    signs are fixed.  The partial is the term itself with v taken out, with
    an int multiplier: c.partial(i) for a coordinate u^i of c (skipped when
    zero), c at m / v times e for a jet v^e, and (-1)^p c at the odd word
    without v for the theta at position p.  No partial DiffPoly is built,
    only coordinates with an image are differentiated, and when
    jets.coordinates is False no coefficient's variables are looked at.
    """
    coordinates = jets.coordinates
    for (even, odd), c in x.terms.items():
        if coordinates:
            for i in c.variables():
                if (img := jets[i, 0]) and (dc := c.partial(i)):
                    yield img, even, odd, sign, dc
        for v, e in even:
            if img := jets[v]:
                yield img, _mono_lower(even, v), odd, sign * e, c
        for p, (s, i) in enumerate(odd):
            if img := thetas[i, s]:
                yield img, even, odd[:p] + odd[p + 1 :], -sign if p % 2 else sign, c


# d_x's tables, kept for good: u^{i,s} -> u^{i,s+1} (u^i -> u^{i,1}) and
# theta_i^s -> theta_i^{s+1}
_DX_IMAGES = (_Images(lambda v: DiffPoly.jet(v[0], v[1] + 1)),
              _Images(lambda v: DiffPoly.theta(v[0], v[1] + 1)))

# d_x's theta table alone, no coordinate or jet having an image: on an
# element free of jets it is d_x without the chain rule, which keeps deg_u
_DX_THETAS = (_Images({}.get, coordinates=False), _DX_IMAGES[1])


def _alternating_sum(partial, i: int, top: int, tables: tuple = _DX_IMAGES) -> DiffPoly:
    """sum_{s=0..top} (-D)^s partial(i, s), the shared variational formula,
    for D the derivation of the image tables (jets, thetas), d_x's by
    default, by Horner's rule: acc = partial(i, s) - D(acc) for s = top
    down to 0.  partial gives _products parts (DiffPoly._jet_parts and
    _theta_parts).  The first acc is the partial at top; each later step
    is one _products call, of the partial's parts and the parts of D(acc)
    signed -1, so every key of the new acc is summed once, with no negated
    or scaled partial and no second sum."""
    acc = _products(partial(i, top))
    for s in range(top - 1, -1, -1):
        acc = _products(chain(partial(i, s), _derivation_parts(acc, *tables, -1)))
    return acc


def _term_str(key: TermKey, c: Scalar) -> tuple[int, str]:
    """(sign, text) of the term c * key; a constant or monomial c gives the term its sign."""
    even, odd = key
    factors = [f"u{i}_{s}" if e == 1 else f"u{i}_{s}^{e}" for (i, s), e in even]
    factors += [f"theta{i}_{s}" for s, i in odd]
    sign, coef = _factor_str(c)
    return sign, _product(coef, factors)


def _coerce(x):
    if isinstance(x, DiffPoly):
        return x
    if isinstance(x, Scalar):
        return DiffPoly.from_scalar(x)
    if isinstance(x, (int, Fraction)):
        return DiffPoly.from_fraction(x)
    return NotImplemented


def mul(a: DiffPoly, b: DiffPoly) -> DiffPoly:
    """Super-commutative product (free-function form of a * b)."""
    return _coerce(a) * b


def d_x(a: DiffPoly) -> DiffPoly:
    """Total x-derivative (free-function form of a.d_x())."""
    return a.d_x()


def partial(a: DiffPoly, v) -> DiffPoly:
    """Partial derivative with respect to a JetVar or ThetaVar."""
    return a.partial(v)


def variational(a: DiffPoly, kind: str, i: int) -> DiffPoly:
    """Variational derivative: kind 'u' -> delta/delta u^i, 'theta' -> delta/delta theta_i."""
    if kind == "u":
        return a.variational_u(i)
    if kind == "theta":
        return a.variational_theta(i)
    raise ValueError(f"kind must be 'u' or 'theta', got {kind!r}")


def project(a: DiffPoly, grading: str, d: int, k: int | None = None) -> DiffPoly:
    """Homogeneous component of a in the given grading."""
    return a.project(grading, d, k)
