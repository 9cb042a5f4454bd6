"""Exact arithmetic in the field of rational functions of u^1, ..., u^n.

A Scalar is a quotient n/d of multivariate polynomials with integer
coefficients, kept in a canonical form so that equality of values is
equality of representations: n and d have no common factor in Z[u...],
integer content included, and d's leading coefficient (graded lex, u1 > u2
> ...) is positive.  By Gauss's lemma that form is unique.  Polynomials are
sparse dicts mapping a monomial, stored as a sorted tuple of (variable
index, exponent) pairs, to its coefficient.  Variable indices are 1-based to
match the coordinate names u1, u2, ...

Fraction appears only at the boundary.  The public num and den are views
built on demand: both sides divided by d's leading coefficient, which is
the form with a monic denominator and rational coefficients.  The
constructor Scalar(num, den) takes int or Fraction coefficients, clears
their denominators and reduces like any other result; from_fraction,
from_term, as_fraction and subs convert numbers, and printing goes
through the views.

No other module reads a Scalar's fields, and polynomial printing lives
here: _pstr prints a polynomial, and diffpoly prints its terms with the
same join (_signed_join), product rule (_product) and coefficient text
(_factor_str); grammar's size bounds count terms with _term_count.

Term dicts never hold a zero coefficient: every sum of terms here goes
through _collect, which keeps that invariant, or through the accumulator of
_sum_products, which drops the cancelled keys at the end; every sum of
diffpoly's terms is one of its _products calls, which keeps it alike.

No Scalar, and no term dict or base it holds, is changed after it is made,
so they are shared freely: a negation keeps its operand's base, a product
by a constant the other factor's, and Scalar.zero() and Scalar.one() return
one instance each (_ZERO and _ONE), the zero that every cancelled sum,
every product with a zero factor and a negated zero return too, and the
pair from_fraction returns for 0 and 1.  _strip and _assemble change
only the exponent dicts that their callers build for them.

Every Scalar carries its denominator's base: the pair (c, {p: e}) with
d = c * prod p^e, c the integer content of d (a constant d has no p) and
each p a _Factor, which is primitive, squarefree and has a positive leading
coefficient.  It is certified irreducible when p has degree 1 in some
variable y and y's coefficient is an integer (_certify), as a single
variable is; a part of d that fails that, such as (u1 + u2)(u1 - u2), is
one uncertified factor.  Distinct certified factors are coprime, so with
the bases of both operands, which are in lowest terms, only these can cancel:

* in a product, the factors of one denominator that the other lacks, from
  the other numerator;
* in a sum of products (_sum_products), which takes one lcm for them all
  (Henrici; Knuth, TAOCP vol. 2, 4.5.1), any factor of that lcm; a sum
  a + b is the two products a*1 and b*1, and a constant multiplier is never
  made a Scalar.  A sum that cancels to zero is returned at once, since a
  zero test needs the sum but not its lowest terms (Moses, CACM 1971);
* in the packed sums of a large diffpoly._products call, whose
  denominators are all c * prod u_v^e_v: none until the end.  scalar only
  converts values for it: _laurent gives a coefficient as a Laurent
  polynomial with packed monomials (_pack; Kronecker's substitution;
  Monagan and Pearce, CASC 2007) and _from_laurent a term's sums back;
* in a partial derivative by u^i, the factors free of u^i: each factor
  that involves u^i gains one in its exponent and never cancels;
* the integer contents, by math.gcd.

Candidates are screened in one place, _strip.  A candidate factor p is
tried by exact division (_zquo), and only after a pretest: the numerator is
evaluated modulo the prime _PRIME at a zero of p, computed once per factor,
and a nonzero residue rules p out; a single variable is decided by the
least exponent of it over the numerator's terms.  An uncertified
factor, which has no such zero and may hide a certified one, is divided out
and then tried by a gcd against it alone (_assemble).  The result has the
canonical form above, so it is the one a polynomial gcd would give, and its
base is the factors that remain.  A power, a negation and a product with a
constant factor, which need no gcd, scale the base as they scale d.

A value made otherwise (by the constructor, as a reciprocal, or by _reduce)
has its base looked up by value in a least-recently-used table of at most
_FACTOR_MEMO entries (_factored), and expanding a base into d is memoised
alike (_expand).  Both tables are keyed on values that are never changed,
so, like the partial memo below, they cannot go stale.

Where _assemble reduces in full, and in the constructor, _reduce cancels
the integer gcd _zgcd and fixes the sign; the tests take it as the oracle.
When one side is a single term, that gcd is the integer content of both
times the least exponent of each variable over all terms (_cancel_terms);
otherwise it comes from GCDHEU (_heugcd), and from a primitive
pseudo-remainder sequence (_prs) when no candidate divides after
_HEU_TRIES evaluation points.  Both work in the least variable x of their
operands, the first pair of a monomial, so _zeval, _to_univ, _from_univ
and _zinterp split off or prepend that pair instead of rebuilding it.

Partial derivatives are memoised on the value and its base (_partial),
in a least-recently-used table of at most _PARTIAL_MEMO entries: a Scalar
is never changed after it is made and equal values hash alike, so an entry
cannot go stale, and the base a derivative carries is the one the quotient
rule gives its operand.  The table holds the derivatives every bracket
check takes many times over (D_P, d_x, the variational derivatives, the
Jacobian of a change of coordinates).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm

Mono = tuple  # ((var, exp), ...) with var >= 1, exp >= 1, sorted by var
Poly = dict  # Mono -> int (int or Fraction at the boundary), no zero values

_ONE_P: Poly = {(): 1}

# evaluation points GCDHEU tries before the gcd falls back to the PRS
_HEU_TRIES = 6

# entries of the partial-derivative memo: above the distinct keys of the
# largest single check met so far (753 for D_P applied twice to one
# monomial on nonflat2, as many as its (value, index) pairs; 565 pairs for
# nonflat2 with a jet pair under u1 -> u1 + c*u2), so one check keeps what
# it reuses, and small enough to cap memory over a long run
_PARTIAL_MEMO = 1024

# entries of the memo of factored denominators (_factored), which only
# reciprocals reach once the operands are built, and of the memo of expanded
# bases (_expand): far above the 36 and 96 entries that checking 21
# transformed brackets fills, and small enough to cap memory over a long run
_FACTOR_MEMO = 1024

# the prime modulo which a numerator is evaluated at a zero of a factor
_PRIME = (1 << 61) - 1

# the packed monomials of _pack: one signed field of _PACK_BITS bits for
# each of at most _PACK_FIELDS variables, every exponent of an input below
# _PACK_LIMIT in size, so that a sum of two stays inside its field.  A
# packed call of the benchmark workloads (seed 11) meets at most 4
# coordinates and 16 jets, and 64 fields keep a monomial within 1024 bits
_PACK_BITS = 16
_PACK_FIELDS = 64
_PACK_LIMIT = 1 << _PACK_BITS - 2
_PACK_HALF = 1 << _PACK_BITS - 1
_PACK_MASK = (1 << _PACK_BITS) - 1


def _collect(pairs, start: dict | None = None) -> dict:
    """Sum (key, coefficient) pairs into a copy of start; drop cancelled keys."""
    r = {} if start is None else dict(start)
    for key, c in pairs:
        old = r.get(key)
        s = c if old is None else old + c
        if s:
            r[key] = s
        else:
            r.pop(key, None)
    return r


def _power(x, e: int, one, mul):
    """x**e for e >= 0 by repeated squaring."""
    r = None
    while e:
        if e & 1:
            r = x if r is None else mul(r, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if r is None else r


def _pconst(q: int) -> Poly:
    return {(): q} if q else {}


def _is_const(p: Poly) -> bool:
    return len(p) == 0 or (len(p) == 1 and () in p)


def _padd(a: Poly, b: Poly) -> Poly:
    return _collect(b.items(), a)


def _pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _psub(a: Poly, b: Poly) -> Poly:
    return _collect(((m, -c) for m, c in b.items()), a)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    """m1 * m2 by merging the two sorted pair tuples, adding the exponents of
    a variable both hold."""
    if not m1:
        return m2
    if not m2:
        return m1
    out, j, n2 = [], 0, len(m2)
    for p in m1:
        v = p[0]
        while j < n2 and m2[j][0] < v:
            out.append(m2[j])
            j += 1
        if j < n2 and m2[j][0] == v:
            out.append((v, p[1] + m2[j][1]))
            j += 1
        else:
            out.append(p)
    return (*out, *m2[j:])


def _mono_lower(m: Mono, v) -> Mono:
    """m divided by the variable v, which m contains."""
    return tuple((w, e - 1) if w == v else (w, e) for w, e in m if w != v or e > 1)


def _pmul(a: Poly, b: Poly) -> Poly:
    # no term dict is ever changed, so a product by 1 may share the other factor's
    if not a or not b:
        return {}
    if a == _ONE_P:
        return b
    if b == _ONE_P:
        return a
    return _collect(
        (_mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()
    )


def _ppow(a: Poly, e: int) -> Poly:
    return _power(a, e, _ONE_P, _pmul)


def _pderiv(a: Poly, var: int) -> Poly:
    return {_mono_lower(m, var): c * e for m, c in a.items() if (e := dict(m).get(var))}


def _pvars(a: Poly) -> set:
    return {v for m in a for v, _ in m}


def _mono_key(m: Mono):
    # graded lex with u1 > u2 > ...: higher total degree first, then higher
    # exponent on the earliest variable, and the greater monomial has the
    # smaller key, so that a sort and heapq, which pops the smallest, go
    # from the leading term down.  Within one degree no monomial's pairs are
    # a prefix of another's, so the sparse pairs (v, -e) order like the
    # dense exponent vector, at a cost independent of the indices.
    return -sum(e for _, e in m), tuple((v, -e) for v, e in m)


def _plead(a: Poly) -> tuple[Mono, int]:
    if len(a) == 1:
        return next(iter(a.items()))
    m = min(a, key=_mono_key)
    return m, a[m]


def _mono_div(m: Mono, d: Mono) -> Mono | None:
    """m divided by d by exponent subtraction, or None when d does not divide m."""
    q = dict(m)
    for v, e in d:
        r = q.get(v, 0) - e
        if r < 0:
            return None
        if r:
            q[v] = r
        else:
            del q[v]
    return tuple(q.items())


def _cancel_terms(a: dict, b: dict) -> tuple[Mono, dict, dict]:
    """(d, a/d, b/d) for the monomial d whose exponent of each variable is the
    minimum over all terms of a and b, so dividing by it is exponent
    subtraction.  When a or b is a single term, d is their gcd up to a constant.
    """
    terms = iter([*b, *a] if len(b) == 1 else [*a, *b])
    g = dict(next(terms))
    for m in terms:
        if not g:
            return (), a, b
        e = dict(m)
        g = {v: min(x, e[v]) for v, x in g.items() if v in e}
    if not g:
        return (), a, b
    d = tuple(g.items())
    qa = {_mono_div(m, d): c for m, c in a.items()}
    return d, qa, {_mono_div(m, d): c for m, c in b.items()}


# -- gcds of integer polynomials -----------------------------------------
#
# Every function below takes and returns term dicts with int coefficients.


def _to_univ(a: dict, x: int) -> dict:
    """View a as a polynomial in its least variable x, with coefficients in the other vars."""
    out: dict[int, dict] = {}
    for m, c in a.items():
        d, rest = (m[0][1], m[1:]) if m and m[0][0] == x else (0, m)
        out.setdefault(d, {})[rest] = c
    return out


def _from_univ(u: dict, x: int) -> dict:
    """Inverse of _to_univ; x precedes every variable of u's coefficients."""
    return {((x, d), *m) if d else m: c for d, p in u.items() for m, c in p.items()}


def _univ_mul_x(u: dict, shift: int, coef: dict) -> dict:
    return {d + shift: _pmul(p, coef) for d, p in u.items()}


def _univ_sub(a: dict, b: dict) -> dict:
    diffs = ((d, _psub(a.get(d, {}), b.get(d, {}))) for d in {**a, **b})
    return {d: p for d, p in diffs if p}


def _zgcd(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f/h, g/h) where h is the gcd in Z[u...] of nonzero f and g."""
    cf, cg = gcd(*f.values()), gcd(*g.values())
    c = gcd(cf, cg)
    if len(g) == 1 or len(f) == 1:  # g, a denominator in _reduce, first
        d, qf, qg = _cancel_terms(f, g)
        if c == 1:  # the common case, kept free of calls
            return {d: 1}, qf, qg
        return {d: c}, _rescale(qf, 1, c), _rescale(qg, 1, c)
    f, g = _rescale(f, 1, cf), _rescale(g, 1, cg)
    h, qf, qg = _heugcd(f, g) or _prs(f, g)
    return _rescale(h, c, 1), _rescale(qf, cf // c, 1), _rescale(qg, cg // c, 1)


def _heugcd(f: dict, g: dict) -> tuple[dict, dict, dict] | None:
    """(h, f/h, g/h) with h = gcd(f, g) for integer polynomials of content 1.

    GCDHEU (Char, Geddes and Gonnet 1989): put x = xi in the first variable,
    take the gcd gamma of the images recursively, and read a candidate h off
    the symmetric xi-adic digits of gamma.  Since xi >= 2*min(|f|, |g|) + 2
    in the max norm, a candidate of content 1 that divides f and g is their
    gcd.  Returns None when no candidate divides after _HEU_TRIES values of xi.

    Why: write gcd(f, g) = h*q.  gamma is a multiple of gcd(f, g)(xi), so
    q(xi) divides the content of the digit polynomial, whose digits are at
    most xi/2.  Say |f| <= |g|.  Each coefficient of f over the other
    variables is a polynomial in x whose roots are smaller than
    1 + |f| <= xi/2, so a constant q(xi) forces q into Z[x] (else x - xi
    would divide the leading one) and then into Z (else |q(xi)| > xi/2).
    The same root bound keeps the image of f nonzero; the image of g can
    vanish, and then the next xi is tried.
    """
    x = min(_pvars(f) | _pvars(g))
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        ef, eg = _zeval(f, x, xi), _zeval(g, x, xi)
        if ef and eg:
            h = _zinterp(_zgcd(ef, eg)[0], x, xi)
            h = _rescale(h, 1, gcd(*h.values()))
            if h == {(): 1}:
                return h, f, g
            qf = _zquo(f, h)
            qg = None if qf is None else _zquo(g, h)
            if qg is not None:
                return h, qf, qg
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _zeval(f: dict, x: int, xi: int) -> dict:
    """f with the variable x, which no variable of f precedes, replaced by the integer xi.

    x can only be the first pair of a monomial, and each power of xi is
    computed once.
    """
    split = [(m[1:], m[0][1], c) if m and m[0][0] == x else (m, 0, c) for m, c in f.items()]
    powers = [1]
    for _ in range(max(e for _, e, _ in split)):
        powers.append(powers[-1] * xi)
    return _collect((m, c * powers[e]) for m, e, c in split)


def _zinterp(gamma: dict, x: int, xi: int) -> dict:
    """The polynomial in x with symmetric base-xi digits that takes the value gamma at xi."""
    out = {}
    for m, c in gamma.items():
        e = 0
        while c:
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[((x, e), *m) if e else m] = d
            c = (c - d) // xi
            e += 1
    return out


def _zquo(a: dict, b: dict) -> dict | None:
    """a/b for integer polynomials, or None when b does not divide a in Z[u...]."""
    lead_b, cb = _plead(b)
    tail = [(m, c) for m, c in b.items() if m != lead_b]
    rem = dict(a)
    heap = [(_mono_key(m), m) for m in rem]
    heapify(heap)
    quot = {}
    # every monomial added to rem is below the lead being removed, so each is
    # popped after its last update; one that cancelled stays in rem at 0 until then
    while heap:
        lead = heappop(heap)[1]
        c = rem.pop(lead)
        if not c:
            continue
        qm = _mono_div(lead, lead_b)
        if qm is None:
            return None
        qc, r = divmod(c, cb)
        if r:
            return None
        quot[qm] = qc
        for m, cm in tail:
            k = _mono_mul(qm, m)
            if k not in rem:
                heappush(heap, (_mono_key(k), k))
            rem[k] = rem.get(k, 0) - qc * cm
    return quot


def _zdiv(a: dict, b: dict) -> dict:
    """a/b for integer polynomials where b divides a (an internal invariant)."""
    q = _zquo(a, b)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


def _prs(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, f/h, g/h) with h = gcd(f, g) for nonconstant integer polynomials of content 1.

    The primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1) in
    the first variable x: h is the gcd of the contents of f and g over
    Z[the other variables] times the last nonzero primitive remainder.  A
    remainder of degree 0 in x has primitive part 1, and the next one is 0.
    """
    x = min(_pvars(f) | _pvars(g))
    (cf, a), (cg, b) = _primitive(_to_univ(f, x)), _primitive(_to_univ(g, x))
    while b:
        a, b = b, _primitive(_prem(a, b))[1]
    h = _pmul(_zgcd(cf, cg)[0], _from_univ(a, x))
    return h, _zdiv(f, h), _zdiv(g, h)


def _primitive(u: dict) -> tuple[dict, dict]:
    """(c, u/c) for univariate u, c the gcd of its coefficients ({} for u = 0)."""
    c = {}
    for p in u.values():
        c = _zgcd(c, p)[0] if c else p
    return c, {d: _zdiv(p, c) for d, p in u.items()}


def _prem(f: dict, g: dict) -> dict:
    """Pseudo-remainder of univariate f by g (coefficients in Z[the other variables])."""
    dg = max(g)
    lg = g[dg]
    r = f
    while r and (dr := max(r)) >= dg:
        r = _univ_sub(_univ_mul_x(r, 0, lg), _univ_mul_x(g, dr - dg, r[dr]))
    return r


# -- denominators over certified irreducible factors ------------------------


def _generic(v: int) -> int:
    """The residue modulo _PRIME of v at the zero of each factor not certified by v."""
    return (v * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) % _PRIME


def _residue(p: dict, y: int, r: int) -> int:
    """p modulo _PRIME at y = r and v = _generic(v) for every other variable v."""
    total = 0
    for m, c in p.items():
        for v, e in m:
            c = c * pow(r if v == y else _generic(v), e, _PRIME) % _PRIME
        total += c
    return total % _PRIME


class _Factor(frozenset):
    """A squarefree primitive integer polynomial p with a positive leading
    coefficient: certified irreducible, of degree 1 in y with the integer
    coefficient a, and the residue root of y at which p vanishes modulo
    _PRIME (see _generic); or uncertified, with y = root = None.

    As a set it is the set of p's terms, so equal factors from separately
    factored denominators are equal keys, hashed without a Python call.
    """

    __slots__ = ("p", "y", "root", "vars")

    def __new__(cls, p: dict, y: int | None = None, a: int = 1):
        self = super().__new__(cls, p.items())
        self.p, self.y, self.vars = p, y, _pvars(p)
        rest = {m: c for m, c in p.items() if m != ((y, 1),)}
        self.root = None if y is None else -_residue(rest, y, 0) * pow(a, -1, _PRIME) % _PRIME
        return self

    def __deepcopy__(self, memo):
        return self  # never changed, like the Scalars that hold it


# the coordinates u1 .. u_PACK_FIELDS as factors, for _from_laurent's bases
_COORDINATES = [_Factor({((v, 1),): 1}, v, 1) for v in range(1, _PACK_FIELDS + 1)]


def _certify(p: dict) -> _Factor | None:
    """p as a _Factor if some variable y occurs in p only in a term a*y, else None.

    Such a p, primitive and nonconstant, is irreducible: in a product A*B with
    B free of y, y's coefficient is a multiple of B.
    """
    count = {}
    for m in p:
        for v, _ in m:
            count[v] = count.get(v, 0) + 1
    for m, a in p.items():
        if len(m) == 1 and m[0][1] == 1 and count[m[0][0]] == 1 and a % _PRIME:
            return _Factor(p, m[0][0], a)
    return None


@lru_cache(maxsize=_FACTOR_MEMO)
def _factored(key: frozenset) -> tuple[int, dict]:
    """(c, {factor: e}) with the denominator dict(key) = c * prod factor.p**e.

    c is the integer content.  The single variables of the monomial content
    come first; each further factor is what is left, q, if certified, else
    its squarefree part q/gcd(q, dq/dx) in its least variable x, certified
    or not, divided out as often as it goes: A^2 B, A and B in x, gives
    {AB: 1, A: 1}, a certified factor inside an uncertified one.
    """
    d = dict(key)
    c = gcd(*d.values())
    mono, q, _ = _cancel_terms(d, d)
    base = {_Factor({((v, 1),): 1}, v, 1): e for v, e in mono}
    q = _rescale(q, 1, c)
    while not _is_const(q):
        f = _certify(q)
        if f is None:
            s = _zgcd(q, _pderiv(q, min(_pvars(q))))[1]
            s = _pneg(s) if _plead(s)[1] < 0 else s
            f = _certify(s) or _Factor(s)
        e = 0
        while (t := _zquo(q, f.p)) is not None:
            q, e = t, e + 1
        base[f] = e
    return c, base


@lru_cache(maxsize=_FACTOR_MEMO)
def _expand(c: int, powers: frozenset) -> dict:
    """c * prod f.p**e over the pairs (f, e) of powers."""
    out = _pconst(c)
    for f, e in powers:
        out = _pmul(out, _ppow(f.p, e))
    return out


def _den(c: int, exps: dict) -> dict:
    """c * prod f.p**e over exps: the constant c itself, else from _expand."""
    return _expand(c, frozenset(exps.items())) if exps else {(): c}


def _strip(num: dict, exps: dict, candidates, skip=()) -> dict:
    """num divided by each candidate factor not in skip as often as it goes,
    at most its exponent in exps, which drops by the number of divisions (a
    factor whose exponent reaches 0 leaves exps).

    A factor f divides num only if num vanishes at f's zero, so a nonzero
    residue there, or for a single variable a term without it, rules f out
    without a division.  An uncertified factor has no such zero and is left
    to _assemble.
    """
    for f in candidates:
        if f in skip or f.root is None:
            continue
        most = exps[f]
        if len(f.p) == 1:  # a single variable: the least exponent over num's terms
            k = most
            for m in num:  # down to 0 at the first term without the variable
                if not (k := min(k, next((e for v, e in m if v == f.y), 0))):
                    break
            if k:
                num = {_mono_div(m, ((f.y, k),)): c for m, c in num.items()}
        else:
            k = 0
            while k < most and not _residue(num, f.y, f.root):
                q = _zquo(num, f.p)
                if q is None:
                    break
                num, k = q, k + 1
        if k == most:
            del exps[f]
        else:
            exps[f] = most - k
    return num


def _assemble(num: dict, c: int, exps: dict) -> "Scalar":
    """The Scalar num / (c * prod f.p**e over exps) in lowest terms, for num
    sharing no certified factor of exps that divides no uncertified one; exps,
    whose exponents are positive, becomes part of its base.  Each uncertified
    factor is divided out of num as often as exps allows, and if num still
    shares a factor with it, even at exponent 0, _reduce cancels the gcd.
    Any common irreducible then divides an uncertified factor, or is a
    certified one that divides no other, which the callers' rules cover."""
    for f in [*exps]:
        if f.root is None:
            k = exps.pop(f)
            while k and (q := _zquo(num, f.p)) is not None:
                num, k = q, k - 1
            if k:
                exps[f] = k
            if not _is_const(_zgcd(num, f.p)[0]):
                return _reduce(num, _den(c, exps))
    g = gcd(c, *num.values()) if c > 1 else 1
    c //= g
    return _wrap(_rescale(num, 1, g), _den(c, exps), (c, exps))


# -- printing ---------------------------------------------------------------


def _signed_join(terms) -> str:
    """Join (sign, text) terms with " + " and " - "; the first is bare or after "-"."""
    joined = "".join((" + " if sign > 0 else " - ") + text for sign, text in terms)
    if not joined:
        return "0"
    return joined[3:] if joined[1] == "+" else "-" + joined[3:]


def _product(coef: str, factors: list) -> str:
    """coef*factor*...; a coefficient 1 is left out when there are factors."""
    return "*".join(factors if coef == "1" and factors else [coef, *factors])


def _pterm(m: Mono, c) -> str:
    return _product(str(c), [f"u{v}" if e == 1 else f"u{v}^{e}" for v, e in m])


def _pstr(a: Poly) -> str:
    return _signed_join(
        (1 if a[m] > 0 else -1, _pterm(m, abs(a[m]))) for m in sorted(a, key=_mono_key)
    )


def _factor_str(c: "Scalar") -> tuple[int, str]:
    """(sign, text) of c as a product's coefficient: a constant or monomial gives the sign
    and prints bare, another polynomial is parenthesised and a quotient prints whole."""
    if not _is_const(c._d):
        return 1, str(c)
    if len(c._n) > 1:
        return 1, f"({c})"
    ((m, q),) = c.num.items()
    return (1 if q > 0 else -1), _pterm(m, abs(q))


def _term_count(c: "Scalar") -> int:
    """The number of terms of c's numerator and denominator."""
    return len(c._n) + len(c._d)


def _printed_bits(c: "Scalar") -> int:
    """The largest bit length of an integer in c's num and den views: each
    coefficient q over the denominator's leading coefficient, in lowest terms."""
    lc = _plead(c._d)[1]
    return max(max((q // g).bit_length(), (lc // g).bit_length())
               for p in (c._n, c._d) for q in p.values() if (g := gcd(q, lc)))


class Scalar:
    """A rational function of the coordinates, in canonical reduced form."""

    __slots__ = ("_n", "_d", "_b")

    def __init__(self, num: Poly, den: Poly = _ONE_P):
        """num/den for term dicts with int or Fraction coefficients."""
        num, den = _exact(num), _exact(den)
        if not den:
            raise ZeroDivisionError("division by zero rational function")
        # clear all denominators, with the sign of den's leading coefficient
        l = lcm(*(c.denominator for p in (num, den) for c in p.values()))
        l = -l if _plead(den)[1] < 0 else l
        out = _reduce(*({m: int(c * l) for m, c in p.items()} for p in (num, den)))
        self._n, self._d, self._b = out._n, out._d, out._b

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "Scalar":
        _exact({(): q})  # int or Fraction only, as in the constructor
        if q == 1 or not q:
            return _ONE if q else _ZERO
        return _wrap(_pconst(q.numerator), {(): q.denominator}, (q.denominator, {}))

    @staticmethod
    def from_term(q: Fraction, mono: Mono = (), over: Mono = ()) -> "Scalar":
        """q * mono / over for monomials mono and over, in lowest terms with no
        gcd: shared exponents cancel, and each variable left in over is a certified factor."""
        if not q:
            return _ZERO
        _, num, den = _cancel_terms({mono: q.numerator}, {over: q.denominator})
        ((over, c),) = den.items()
        return _assemble(num, c, {_Factor({((v, 1),): 1}, v): e for v, e in over})

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def coordinate(i: int) -> "Scalar":
        if i < 1:
            raise ValueError(f"coordinate index must be >= 1, got {i}")
        return _wrap({((i, 1),): 1}, _ONE_P, (1, {}))

    # -- the Fraction view ----------------------------------------------

    @property
    def num(self) -> Poly:
        """The numerator with Fraction coefficients, for a denominator with leading coefficient 1."""
        return self._view(self._n)

    @property
    def den(self) -> Poly:
        """The denominator with Fraction coefficients and leading coefficient 1."""
        return self._view(self._d)

    def _view(self, p: Poly) -> Poly:
        """p divided by the leading coefficient of the denominator, as Fractions."""
        lc = _plead(self._d)[1]
        return {m: Fraction(c, lc) for m, c in p.items()}

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._n

    def is_fraction(self) -> bool:
        return _is_const(self._n) and _is_const(self._d)

    def as_fraction(self) -> Fraction:
        if not self.is_fraction():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._n.get((), 0), self._d[()])

    def variables(self) -> set:
        return _pvars(self._n) | _pvars(self._d)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._n:
            return other
        if not other._n:
            return self
        return _sum_products(((1, self, _ONE), (1, other, _ONE)))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _wrap(_pneg(self._n), self._d, self._b) if self._n else _ZERO

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            return self
        if not self._n:
            return -other
        return _sum_products(((1, self, _ONE), (-1, other, _ONE)))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("division by zero rational function")
        # the reciprocal d/n is in lowest terms once its sign is fixed
        num, den = other._d, other._n
        if _plead(den)[1] < 0:
            num, den = _pneg(num), _pneg(den)
        base = (den[()], {}) if _is_const(den) else _factored(frozenset(den.items()))
        return _mul(self, _wrap(num, den, base))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, e: int) -> "Scalar":
        if e <= 0:
            return _ONE / self ** (-e) if e else _ONE
        # powers of coprime polynomials are coprime, and lc(d**e) = lc(d)**e > 0
        c, base = self._b
        base = (c**e, {f: k * e for f, k in base.items()})
        return _wrap(_ppow(self._n, e), _ppow(self._d, e), base)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # a constant hashes as its Fraction, as it compares equal to it
        if self.is_fraction():
            n, d = self._n.get((), 0), self._d[()]
            return hash(n) if d == 1 else hash(self.as_fraction())
        return hash((frozenset(self._n.items()), frozenset(self._d.items())))

    def __bool__(self) -> bool:
        return bool(self._n)

    # -- calculus and substitution --------------------------------------

    def partial(self, i: int) -> "Scalar":
        """Partial derivative with respect to the coordinate u^i."""
        if i < 1:
            raise ValueError(f"coordinate index must be >= 1, got {i}")
        return _partial(self, frozenset(self._b[1].items()), i)

    def subs(self, mapping: dict) -> "Scalar":
        """Substitute coordinates by Scalars: mapping maps index i to u^i's image."""
        return _peval(self._n, mapping) / _peval(self._d, mapping)

    def __str__(self) -> str:
        if _is_const(self._d):
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


@lru_cache(maxsize=_PARTIAL_MEMO)
def _partial(a: Scalar, base: frozenset, i: int) -> Scalar:
    """d a / d u^i by the quotient rule, for i >= 1; base is the set of
    (factor, exponent) pairs of a's base, read here only as part of the
    memo's key, so equal values with other bases do not share an entry."""
    dn = _pderiv(a._n, i)
    # with L the product of the factors f of d that involve u^i, each to the
    # power 1, (n/d)' = (n' L - n sum e_f f' L/f) / (d L), where such an f
    # never cancels if it is certified and divides no other factor.
    c, base = a._b
    L, s = _ONE_P, {}
    for f, e in base.items():
        if i in f.vars:
            s = _padd(_pmul(s, f.p), _pmul(_rescale(_pderiv(f.p, i), e, 1), L))
            L = _pmul(L, f.p)
    num = _psub(_pmul(dn, L), _pmul(a._n, s))
    if not num:
        return _ZERO
    exps = {f: e + (i in f.vars) for f, e in base.items()}
    return _assemble(_strip(num, exps, [f for f in base if i not in f.vars]), c, exps)


def _sum_products(triples) -> Scalar:
    """The sum of m * a * b over the (m, a, b) triples, m a nonzero int (a
    Fraction only in tables built once), over the lcm of the products'
    denominators: each n_a n_b over m's denominator times c_a c_b prod
    f^(e_a + e_b) is scaled by m's numerator and its complement in the lcm,
    term by term into one accumulator; only a nonzero sum goes to _strip,
    with every factor of the lcm as a candidate, and a product with a zero
    factor is skipped.  + and - pass products by 1; a lone one is _mul's."""
    if len(triples) == 1:
        ((m, a, b),) = triples
        return _mul(a, b, m)
    parts, c, exps = [], 1, {}
    for m, a, b in triples:
        if not a._n or not b._n:
            continue
        (ca, ba), (cb, bb) = a._b, b._b
        cp = ca * cb
        if type(m) is not int:  # a Fraction, from a table built once
            cp, m = cp * m.denominator, m.numerator
        if c % cp:
            c = lcm(c, cp)
        e = _collect(bb.items(), ba) if ba and bb else ba or bb
        parts.append((m, a._n, b._n, cp, e))
        for f, k in e.items():
            if k > exps.get(f, 0):
                exps[f] = k
    # every term q1 q2 s at m1 m2 goes straight into one dict, for q2 m2 the
    # terms of n_b times the product's complement in the lcm and s m's
    # numerator times the integer c / c_p; a product that carries the lcm's
    # factors has no complement, and the cancelled keys are dropped at the end
    num = {}
    for m, n1, n2, cp, e in parts:
        s = m if cp == c else m * (c // cp)
        if e != exps:
            n2 = _pmul(_den(1, {f: k - e.get(f, 0) for f, k in exps.items() if k > e.get(f, 0)}),
                       n2)
        for m1, q1 in n1.items():
            q1 *= s
            for m2, q2 in n2.items():
                key = _mono_mul(m1, m2) if m1 and m2 else m1 or m2
                num[key] = num.get(key, 0) + q1 * q2
    if 0 in num.values():
        num = {key: q for key, q in num.items() if q}
    if not num:
        return _ZERO
    return _assemble(_strip(num, exps, [*exps]), c, exps)


def _pack(mono: Mono, fields: dict | None = None) -> int | None:
    """mono's exponents packed into one int, a signed field of _PACK_BITS
    bits per variable (Kronecker's substitution): the coordinate u_v at
    field v - 1 when fields is None, else at the field that fields numbers
    the variable with, one not yet there taking the next.  None when an
    exponent is _PACK_LIMIT or more, or a field would be number
    _PACK_FIELDS + 1 or more."""
    k = 0
    for v, e in mono:
        if fields is None:
            f = v - 1
        elif (f := fields.get(v)) is None:
            f = fields[v] = len(fields)
        if f >= _PACK_FIELDS or e >= _PACK_LIMIT:
            return None
        k += e << _PACK_BITS * f
    return k


def _unpack(k: int, fields: dict | None = None) -> Mono:
    """The monomial, sorted by variable and exponents possibly negative,
    that _pack packed into k with the same fields, or the product of two
    such: fields are read off the bottom as signed digits, up to the
    highest nonzero one."""
    names = range(1, _PACK_FIELDS + 1) if fields is None else [*fields]
    out, f = [], 0
    while k:
        if e := (k + _PACK_HALF & _PACK_MASK) - _PACK_HALF:
            out.append((names[f], e))
            k -= e
        k >>= _PACK_BITS
        f += 1
    return tuple(sorted(out))


def _laurent(a: Scalar):
    """(c, [(k, q), ...]) with a = sum q * u^k / c over Laurent monomials u^k,
    each packed into one int (_pack, the coordinates at their fixed fields);
    None when a's base has a factor that is not a single coordinate, or an
    index or exponent does not pack."""
    c, base = a._b
    if any(len(f.p) != 1 for f in base) or (low := _pack(tuple((f.y, e) for f, e in base.items()))) is None:
        return None
    terms = []
    for m, q in a._n.items():
        if (k := _pack(m)) is None:
            return None
        terms.append((k - low, q))
    return c, terms


def _from_laurent(terms: dict, c: int) -> Scalar:
    """The Scalar sum q * u^k / c over the items (k, q) of terms, each k a
    Laurent monomial packed at the coordinates' fixed fields (_pack) and
    each q nonzero: each variable's least exponent gives the monomial
    denominator, and _assemble cancels the integer content."""
    monos = [(_unpack(k), q) for k, q in terms.items()]
    low = {}
    for v, e in (p for u, _ in monos for p in u):
        low[v] = min(e, low.get(v, 0))
    up = tuple((v, -e) for v, e in sorted(low.items()) if e)
    num = {tuple(p for p in _mono_mul(u, up) if p[1]): q for u, q in monos}
    return _assemble(num, c, {_COORDINATES[v - 1]: e for v, e in up})


def _mul(a: Scalar, b: Scalar, m=1) -> Scalar:
    """m * a * b for a nonzero int or Fraction m; __truediv__ calls it
    directly, so that code wrapping the methods of Scalar sees a division as
    one operation.  Each numerator is offered to _strip with the factors of
    the other denominator that its own lacks, so over two constant
    denominators no factor is tried and only the integer contents cancel."""
    if not a._n or not b._n:
        return _ZERO
    if m == 1 and (a is _ONE or b is _ONE):
        return b if a is _ONE else a
    # a constant factor p/r needs no polynomial gcd: with n/d in lowest
    # terms, (p/g * n/h) / (r/h * d/g) is, for g = gcd(p, content of d) and
    # h = gcd(r, content of n); m scales p/r first; q.is_fraction() is inlined
    for q, x in ((a, b), (b, a)):
        if len(q._d) == 1 and () in q._d and len(q._n) == 1 and () in q._n:
            p, r = q._n[()], q._d[()]
            if m != 1:
                p, r = p * m.numerator, r * m.denominator
                g = gcd(p, r)
                p, r = p // g, r // g
            if p == r:  # both 1
                return x
            g = gcd(p, *x._d.values())
            h = gcd(r, *x._n.values())
            base = (x._b[0] // g * (r // h), x._b[1])
            return _wrap(_rescale(x._n, p // g, h), _rescale(x._d, r // h, g), base)
    # with a and b reduced, only a factor of one denominator that the other
    # lacks can divide the other numerator
    (ca, ba), (cb, bb) = a._b, b._b
    exps = _collect(bb.items(), ba)
    na = _strip(a._n, exps, bb, ba)
    nb = _strip(b._n, exps, ba, bb)
    num = _pmul(na, nb) if m == 1 else _rescale(_pmul(na, nb), m.numerator, 1)
    return _assemble(num, ca * cb * m.denominator, exps)


def _wrap(num: Poly, den: Poly, base: tuple) -> Scalar:
    """A Scalar holding num/den, int term dicts already in canonical form, and
    den's base (c, {factor: e})."""
    out = Scalar.__new__(Scalar)
    out._n, out._d, out._b = num, den, base
    return out


# the zero and the one, made once and shared like every Scalar; + turns each
# summand into a product by _ONE for _sum_products
_ZERO = _wrap({}, _ONE_P, (1, {}))
_ONE = _wrap({(): 1}, _ONE_P, (1, {}))


def _reduce(num: Poly, den: Poly) -> Scalar:
    """The Scalar num/den for int term dicts, den nonzero with a positive leading coefficient.

    Cancelling h = gcd(num, den) leaves den/h, whose leading coefficient has
    the sign of h's, since the leading term of a product is the product of
    the leading terms.
    """
    if not num:
        return _ZERO
    if den == _ONE_P:
        return _wrap(num, _ONE_P, (1, {}))
    h, num, den = _zgcd(num, den)
    if _plead(h)[1] < 0:
        num, den = _pneg(num), _pneg(den)
    return _wrap(num, den, _factored(frozenset(den.items())))


def _rescale(p: Poly, mul: int, div: int) -> Poly:
    """p with every coefficient divided by div, which divides it, and multiplied by mul."""
    if mul == div == 1:
        return p
    return {m: c // div * mul for m, c in p.items()}


def _exact(p: Poly) -> Poly:
    """p without its zero terms; every coefficient must be an int or a Fraction."""
    for c in p.values():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
    return {m: c for m, c in p.items() if c}


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    return NotImplemented


def _peval(p: Poly, mapping: dict) -> Scalar:
    total = _ZERO
    for m, c in p.items():
        term = Scalar.from_fraction(c)
        for v, e in m:
            base = mapping.get(v)
            if base is None:
                base = Scalar.coordinate(v)
            term = term * base**e
        total = total + term
    return total


def parse_scalar(text: str) -> Scalar:
    """Parse an expression containing only coordinates into a Scalar."""
    from . import grammar

    return grammar.parse_scalar(text)


def scalar_arith(a: Scalar, b: Scalar | None, op: str) -> Scalar:
    """Combine Scalars with one of add, sub, mul, div, neg (b ignored for neg)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "neg":
        return -a
    raise ValueError(f"unknown operation {op!r}")


def partial_u(a: Scalar, i: int) -> Scalar:
    """Partial derivative of a with respect to u^i."""
    return a.partial(i)
