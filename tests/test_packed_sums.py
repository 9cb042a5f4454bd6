"""The packed Laurent sum of large _products calls (scalar._packed_sums)
against the grouped path, its pack and unpack, its gate, and the memos that
every kernel shares."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from dnbrackets import diffpoly, scalar
from dnbrackets.cli import load_bracket
from dnbrackets.diffpoly import _DX_IMAGES, DiffPoly, _Images, _products
from dnbrackets.jacobi import _DP_images, apply_DP
from dnbrackets.sampling import random_diffpoly, random_monomial, random_scalar
from dnbrackets.scalar import (
    _PACK_FIELDS, _PACK_LIMIT, Scalar, _laurent, _laurent_forms, _mul, _pack, _packed_sums,
    _sum_products, _unpack,
)

from conftest import S, fixture_path, kernel_draws
from test_scalar import assert_base_matches

GROUPED = 1 << 60  # a _PACKED_PARTS that no call reaches


def both_paths(monkeypatch, run):
    """run() with every _products call offered to the packed sum, and with
    none; and how many calls the packed sum took."""
    taken = []

    def spy(*args):
        taken.append(True)
        return _packed_sums(*args)

    with monkeypatch.context() as patch:
        patch.setattr(diffpoly, "_PACKED_PARTS", 0)
        patch.setattr(diffpoly, "_packed_sums", spy)
        packed = run()
    with monkeypatch.context() as patch:
        patch.setattr(diffpoly, "_PACKED_PARTS", GROUPED)
        grouped = run()
    return packed, grouped, sum(taken)


def assert_same_fields(got: DiffPoly, want: DiffPoly, where):
    """The same keys in the same order, and each coefficient with the same
    integer numerator, denominator and base."""
    assert list(got.terms) == list(want.terms), where
    for key, c in got.terms.items():
        w = want.terms[key]
        assert (c._n, c._d, c._b) == (w._n, w._d, w._b), (where, key)
        assert_base_matches(c, where)


def dp_square_inputs(b, count=9):
    """random_monomial(max_degu=2) draws with rational factors, as the
    dp_square benchmark draws them."""
    shapes, rng = random.Random(0), random.Random(11)
    drawn = []
    while len(drawn) < count:
        a = random_monomial(shapes, b.n, b.k, max_degu=2)
        if not a.is_zero:
            drawn.append(a * rng.choice((Fraction(-2), Fraction(1, 2), Fraction(3))))
    return drawn


@pytest.mark.parametrize("name", ["nonflat2.json", "lc_k1.json", "constant_k2.json", "canonical_k2.json"])
def test_packed_sums_match_the_grouped_path_on_fixtures(monkeypatch, name):
    """D_P, D_P twice and products on kernel_draws and on the dp_square
    inputs of each fixture: the packed sum gives the grouped path's terms,
    integer fields and bases.  canonical_k2's u3 + 1 takes the fallback."""
    b = load_bracket(fixture_path(name))
    _DP_images(b)  # the tables are built once, outside both runs
    inputs = list(kernel_draws(random.Random(5), b, set(), rounds=3)) + dp_square_inputs(b, 4)
    taken = 0
    for a in inputs:
        def run(a=a):
            image = apply_DP(b, a)
            return [image, apply_DP(b, image), image * a, a * a]
        packed, grouped, n = both_paths(monkeypatch, run)
        taken += n
        for got, want in zip(packed, grouped):
            assert_same_fields(got, want, (name, a))
    assert taken


def jet(i, s, e=1):
    return DiffPoly.jet(i, s) ** e


def test_packed_sums_match_the_grouped_path_on_jet_heavy_keys(monkeypatch):
    """D_P, D_P twice and products on nonflat2 for inputs with many jets and
    high jet powers, one of them 2^14 - 1 so that a merged field reaches
    2^15 - 2: the packed sum gives the grouped path's terms in the same
    order, with the same integer fields and bases."""
    b = load_bracket(fixture_path("nonflat2.json"))
    _DP_images(b)
    rng = random.Random(43)
    top = (1 << 14) - 1
    inputs = [S("3/u1") * jet(1, 1, 300) * jet(2, 3, 7) * DiffPoly.theta(1, 2),
              S("u2/(2*u1^3)") * jet(1, 1, top) * DiffPoly.theta(2, 0),
              jet(1, 2, 40) * jet(2, 1, 9) * jet(1, 4) + S("-5/u1^2") * jet(2, 2, 11) * jet(1, 3, 2)]
    inputs += [random_monomial(rng, 2, 3, max_degu=8) * Fraction(-3, 2) for _ in range(6)]
    taken = 0
    for a in inputs:
        if a.is_zero:
            continue

        def run(a=a):
            image = apply_DP(b, a)
            return [image, apply_DP(b, image), image * a, a * a, a * DiffPoly.from_scalar(S("1/u1")) * image]
        packed, grouped, n = both_paths(monkeypatch, run)
        taken += n
        for got, want in zip(packed, grouped):
            assert_same_fields(got, want, a)
    assert taken >= 5 * 6


def test_packed_sums_match_on_fraction_multipliers_and_fall_back_on_polynomial_factors(monkeypatch):
    """Random DiffPolys with parts carrying Fraction multipliers, and
    coefficients with a polynomial factor, which the packed sum refuses."""
    rng = random.Random(29)
    refused = [S("1/(u1 + u2)"), S("u2/(u1^2 - u2)"), S("(u1 + 1)/(u1*(u2 + 3))")]
    for k in range(40):
        n = 1 + k % 3
        x, y = (random_diffpoly(rng, n, terms=4, max_factors=2) for _ in range(2))
        polynomial = k % 4 == 3
        if polynomial:
            y = y + DiffPoly.from_scalar(rng.choice(refused)) * DiffPoly.jet(1, 1)
        parts = [(x.terms.items(), e2, o2, rng.choice((1, -2, Fraction(3, 4), Fraction(-5, 6))), c2)
                 for (e2, o2), c2 in y.terms.items()]
        packed, grouped, n = both_paths(monkeypatch, lambda: _products(parts))
        assert_same_fields(packed, grouped, (x, y))
        assert n == (0 if polynomial or not parts else 1)


@pytest.mark.parametrize("kind", ["coordinates", "jets"])
def test_pack_and_unpack_round_trip_at_the_field_limit(kind):
    """A monomial with signed exponents up to 2^14 - 1 in size, over the
    coordinates u1 .. u_PACK_FIELDS at their fixed fields or over jets that
    a per-call map numbers, up to _PACK_FIELDS of them, packs and unpacks to
    itself, and so does the product of two; the extremes are drawn often.
    An exponent of _PACK_LIMIT, an index above _PACK_FIELDS and a jet
    beyond the _PACK_FIELDS-th are refused."""
    if kind == "coordinates":
        assert _pack(((_PACK_FIELDS, _PACK_LIMIT - 1),)) is not None
        assert _pack(((1, _PACK_LIMIT),)) is None and _pack(((_PACK_FIELDS + 1, 1),)) is None
        assert _laurent(Scalar.coordinate(1) ** _PACK_LIMIT) is None
        assert _laurent(Scalar.coordinate(_PACK_FIELDS + 1)) is None
        assert _laurent(1 / Scalar.coordinate(_PACK_FIELDS) ** (_PACK_LIMIT - 1)) is not None
    else:
        fields = {}
        assert _pack((((1, 1), _PACK_LIMIT),), fields) is None
        assert _pack(tuple(((1, s), 1) for s in range(1, _PACK_FIELDS + 1)), fields) is not None
        assert _pack((((2, 1), 1),), fields) is None
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    top = max(_PACK_LIMIT, 1 << 14) - 1
    exponent = st.one_of(st.sampled_from([top, -top, top - 1, 1 - top, 1, -1]), st.integers(-top, top))
    if kind == "coordinates":
        variables, new_fields = st.integers(1, _PACK_FIELDS), lambda: None
    else:
        variables, new_fields = st.tuples(st.integers(1, 9), st.integers(1, 9)), dict
    monomial = st.dictionaries(variables, exponent.filter(bool), max_size=_PACK_FIELDS // 2)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(monomial, monomial)
    def check(u, w):
        fields = new_fields()
        pu, pw = _pack(tuple(sorted(u.items())), fields), _pack(tuple(sorted(w.items())), fields)
        assert None not in (pu, pw)
        assert _unpack(pu, fields) == tuple(sorted(u.items()))
        assert _unpack(pw, fields) == tuple(sorted(w.items()))
        product = {v: u.get(v, 0) + w.get(v, 0) for v in u.keys() | w.keys()}
        assert _unpack(pu + pw, fields) == tuple(sorted((v, e) for v, e in product.items() if e))

    check()


@pytest.mark.parametrize("big", ["u1^100000000", "u10000000", "1/u1^100000000", "u2/u10000000"])
def test_unpackable_exponents_and_indices_stay_on_the_grouped_path(monkeypatch, big):
    """A large call carrying a coefficient whose exponent or index has no
    packed field is refused before any coefficient is packed with it, and
    sums as the grouped path does."""
    c = S(big)
    assert _laurent(c) is None
    x = DiffPoly.from_scalar(S("u1/u2")) * DiffPoly.jet(1, 1) + DiffPoly.theta(1, 0)
    parts = [(x.terms.items(), (((1, s), 1),), (), 1, S(f"{s}/u1")) for s in range(1, 70)]
    parts.append((x.terms.items(), (), (), 1, c))
    only_c_refused = []
    laurent = scalar._laurent

    def spy(a):
        out = laurent(a)
        only_c_refused.append(out is not None or a is c)
        return out

    monkeypatch.setattr(scalar, "_laurent", spy)
    packed, grouped, n = both_paths(monkeypatch, lambda: _products(parts))
    assert n == 0 and all(only_c_refused)
    assert_same_fields(packed, grouped, big)
    assert packed.terms[((), ((0, 1),))] == c


@pytest.mark.parametrize("where", ["left", "right", "fields"])
def test_unpackable_jets_stay_on_the_grouped_path(monkeypatch, where):
    """A 70-part call carrying a jet power with an exponent of _PACK_LIMIT
    (2^14) on a left or a right factor, or more than _PACK_FIELDS distinct
    jets, is refused before any product is taken, and sums as the grouped
    path does."""
    x = DiffPoly.from_scalar(S("u1/u2")) * jet(1, 1) + DiffPoly.theta(1, 0)
    if where == "left":
        x = x + S("2/u1") * jet(2, 1, _PACK_LIMIT)
    parts = [(x.terms.items(), (((1, s), 1),) if where == "fields" else (((1, 1), s),), (), 1, S(f"{s}/u1"))
             for s in range(1, 70)]
    if where == "right":
        parts.append((x.terms.items(), (((2, 2), _PACK_LIMIT),), (), 1, S("1/u2")))
    packed, grouped, n = both_paths(monkeypatch, lambda: _products(parts))
    assert n == 0
    assert_same_fields(packed, grouped, where)


def test_a_refused_coefficient_stops_the_call_before_any_jet_or_base(monkeypatch):
    """A 70-part call whose left items are a canonical_k2 D_P table entry,
    refused on its denominator factor u3 + 1, is refused before any jet is
    packed or any base is built, and sums as the grouped path does: on the
    first call, while the entry's forms are tried, no _Row is made and no
    product taken; once the entry keeps its refusal, no monomial at all is
    packed."""
    b = load_bracket(fixture_path("canonical_k2.json"))
    entries = [items for table in _DP_images(b) for v in [(i, s) for i in range(1, 5) for s in range(3)]
               if (items := table[v])]
    entry = next(items for items in entries if _laurent_forms(a for _, a in items) is None)
    assert entry.laurent is False
    parts = [(entry, (((1, 1), s),), (), 1, S(f"{s}/u1")) for s in range(1, 70)]
    rows, packs = [], []

    class Row(diffpoly._Row):
        def __init__(self, *args):
            rows.append(args)
            super().__init__(*args)

    monkeypatch.setattr(diffpoly, "_Row", Row)
    for module in (scalar, diffpoly):
        monkeypatch.setattr(module, "_pack", lambda *args, pack=scalar._pack: packs.append(args) or pack(*args))
    for first in (True, False):
        del packs[:]
        packed, grouped, n = both_paths(monkeypatch, lambda: _products(parts))
        assert n == 0 and rows == [] and entry.laurent is None
        assert first or packs == []
        assert_same_fields(packed, grouped, first)


def test_coordinates_above_u8_take_the_packed_path(monkeypatch):
    """70-part calls whose coefficients are random_scalar draws over u1 ..
    u32, denominators monomials, take the packed path with each coordinate
    at its fixed field, and give the grouped path's terms in the same
    order, with the same integer fields and bases."""
    rng = random.Random(71)
    seen = set()
    for k in range(6):
        x = DiffPoly.zero()
        for _ in range(5):
            x = x + random_scalar(rng, 32) * jet(rng.randint(1, 2), rng.randint(1, 3)) * DiffPoly.theta(
                rng.randint(1, 2), rng.randint(0, 2))
        parts = [(x.terms.items(), (((rng.randint(1, 2), rng.randint(1, 3)), rng.randint(1, 3)),),
                  rng.choice(((), ((0, 1),), ((1, 2),))), rng.choice((1, -2, Fraction(3, 4))), random_scalar(rng, 32))
                 for _ in range(70)]
        seen.update(v for c in [*x.terms.values(), *(p[4] for p in parts)] for v in c.variables())
        packed, grouped, n = both_paths(monkeypatch, lambda: _products(parts))
        assert n == 1
        assert_same_fields(packed, grouped, k)
    assert len(seen & set(range(9, 33))) > 16


def test_a_zero_right_coefficient_first_meets_the_keys_later_parts_fill(monkeypatch):
    """A 70-part call whose first part has a zero right coefficient, at the
    even key and odd word of parts further on, takes the packed path and
    gives the grouped path's terms in its order: the zero part's keys come
    first although no product of it survives."""
    x = S("u1/u2") * jet(1, 1) * DiffPoly.theta(1, 0) + S("3/u1^2") * jet(2, 2) + S("-2") * DiffPoly.theta(2, 1)
    zero_part = (x.terms.items(), (((2, 1), 2),), ((0, 2),), 1, Scalar.zero())
    parts = [zero_part] + [(x.terms.items(), (((1, 1), s),), (), 1, S(f"{s}/u1")) for s in range(1, 68)]
    parts += [(x.terms.items(), (((2, 1), 2),), ((0, 2),), -2, S("u2")),
              (x.terms.items(), (((2, 1), 2),), (), 1, S("u1"))]
    packed, grouped, n = both_paths(monkeypatch, lambda: _products(parts))
    assert n == 1
    assert_same_fields(packed, grouped, "zero first")
    first = [key for key, _ in _products(parts[-2:-1]).terms.items()]
    assert list(packed.terms)[:len(first)] == first


@pytest.mark.parametrize("top_coordinate", [3, _PACK_FIELDS])
def test_exponents_at_the_field_limit_in_the_highest_coordinate_field(monkeypatch, top_coordinate):
    """70-part calls whose coefficients carry u_v^(2^14 - 1) and
    u_v^-(2^14 - 1) for v the highest coordinate they use, u3 or u64, so
    that product fields reach 2^15 - 2 and -(2^15 - 2) there: the call packs
    each product into bits = 16 v, 1,024 for u64, and gives the grouped
    path's terms in the same order, with the same integer fields and
    bases."""
    top, v = (1 << 14) - 1, top_coordinate
    up, down = S(f"u{v}^{top}"), S(f"1/u{v}^{top}")
    x = up * jet(1, 1) + S("2/u1") * down * jet(2, 1, 3) * DiffPoly.theta(1, 0) + S("u2") * DiffPoly.theta(2, 0)
    right = [up, down, S(f"u1*u{v}^{top}/3"), S(f"-5/(u2*u{v}^{top})"), S("7")]
    parts = [(x.terms.items(), (((1 + s % 2, 1 + s % 3), 1 + s % 4),), ((), ((1, 1),))[s % 2], 1, right[s % 5])
             for s in range(70)]
    widths = []
    packable = scalar._packable
    monkeypatch.setattr(diffpoly, "_packable", lambda sides: widths.append((out := packable(sides))[2]) or out)
    packed, grouped, n = both_paths(monkeypatch, lambda: _products(parts))
    assert n == 1 and widths == [16 * v]
    assert_same_fields(packed, grouped, v)
    exponents = {e for c in packed.terms.values() for m in (*c._n, *c._d) for w, e in m if w == v}
    assert {2 * top, top} <= exponents


def test_kernels_leave_every_memo_and_image_table_unchanged(monkeypatch):
    """A batch of _sum_products groups, _muls, partial derivatives and
    DiffPoly products, products by one among them, through both paths of
    _products: afterwards every value that _expand and _factored returned
    equals a fresh recomputation, and every cached image table entry equals
    its own rebuild.  A kernel that accumulated into a memoised dict, such as
    _pmul(_den(...), 1), which is _den's own dict, would fail here; the
    memos are checked after every drawing and operation, also one that
    raises, since a corrupted memo can make the next step fail or run away."""
    reached = {}
    for name in ("_expand", "_factored"):
        memo = getattr(scalar, name)

        def recording(*args, memo=memo):
            out = memo(*args)
            reached[id(out)] = (memo.__wrapped__, args, out)
            return out

        monkeypatch.setattr(scalar, name, recording)

    def checked(fn, *args):
        try:
            return fn(*args)
        finally:  # an operation that corrupts a memo may go on to fail on it
            for fresh, key, out in reached.values():
                assert out == fresh(*key), key

    rng = random.Random(61)
    values = [S(t) for t in ("1", "-1", "1/u1", "1/u2", "u1/u2^2", "1/(u1 + u2)", "3/(2*u1^2)",
                             "(u1 + 1)/(u1*u2)", "1/(u1 - u2)^2", "u2 + 1")]
    values += [checked(random_scalar, rng, 2) for _ in range(20)]
    b = load_bracket(fixture_path("nonflat2.json"))
    for k in range(40):
        a, c = rng.choice(values), rng.choice(values)
        x = checked(random_diffpoly, rng, 2, 3, 3, 4, 2)
        monkeypatch.setattr(diffpoly, "_PACKED_PARTS", 0 if k % 2 else GROUPED)
        for op in (
            lambda: _sum_products([(rng.choice((1, -1, 2, Fraction(1, 3))), rng.choice(values),
                                    rng.choice(values)) for _ in range(rng.randint(2, 5))]),
            lambda: _mul(a, c, rng.choice((1, -3, Fraction(2, 5)))),
            lambda: a + c, lambda: a - c, lambda: a * c, lambda: c and a / c, lambda: a.partial(1 + k % 2),
            lambda: x * DiffPoly.one(), lambda: DiffPoly.one() * x, lambda: x * x, x.d_x,
            lambda: apply_DP(b, x), lambda: x.variational_u(1), lambda: x.variational_theta(2),
        ):
            checked(op)
    assert len(reached) > 100
    fresh = [_Images(table.image) for table in _DX_IMAGES]
    fresh += _DP_images(load_bracket(fixture_path("nonflat2.json")))
    pairs = list(zip([*_DX_IMAGES, *_DP_images(b)], fresh))
    assert all(table for table, _ in pairs)
    built = 0
    for table, rebuilt in pairs:
        for v, items in list(table.items()):
            assert dict(items or {}) == dict(rebuilt[v] or {}), v
            if items and items.laurent is not False:  # the packed forms a packed call kept
                assert items.laurent == _laurent_forms(a for _, a in items), v
                built += 1
    assert built


def test_a_dropped_bracket_frees_its_tables_and_their_packed_forms(monkeypatch):
    """The packed forms live on the image-table entries and nowhere else:
    once the bracket is dropped, its D_P tables, their entries and the
    forms the packed calls built on them are all freed."""

    class Forms(list):  # a weakly referenceable (c, [terms, ...], reach)
        pass

    monkeypatch.setattr(scalar, "_laurent_forms",
                        lambda coefficients, build=scalar._laurent_forms: (f := build(coefficients)) and Forms(f))
    monkeypatch.setattr(diffpoly, "_PACKED_PARTS", 0)
    b = load_bracket(fixture_path("nonflat2.json"))
    for a in dp_square_inputs(b, 3):
        apply_DP(b, apply_DP(b, a))
    tables = _DP_images(b)
    entries = [items for table in tables for items in table.values() if items]
    forms = [items.laurent for items in entries if items.laurent]
    assert forms and all(type(f) is Forms for f in forms)
    refs = [weakref.ref(x) for x in (*tables, *entries, *forms)]
    del b, tables, entries, forms
    gc.collect()
    assert [r for r in refs if r() is not None] == []
