"""Bracket storage, validation, skewness, extraction, and transformation."""

import dataclasses
import importlib.util
import os
import random
import sys
from fractions import Fraction
from itertools import product
from math import comb

import pytest

import dnbrackets

from dnbrackets.bracket import (
    CoordinateMap,
    HomogeneousBracket,
    bivector,
    check_skew,
    check_skewh,
    constant_bracket,
    extract_named,
    lower_metric,
    metric_pair,
    skew_defects,
    skewh_defects,
    transform,
    validate,
)
from dnbrackets.cli import load_bracket, load_map
from dnbrackets.connections import _bracket_curvature, flat_combination, standard_connection
from dnbrackets.diffpoly import DiffPoly, _dx_upto, _sum
from dnbrackets.errors import DegenerateMetricError, PreconditionError
from dnbrackets.jacobi import _DP_images, check_jacobi, variational_pair
from dnbrackets.sampling import random_constant_bracket, random_scalar
from dnbrackets.scalar import Scalar

from conftest import S, fixture_path, nonflat2_data
from test_scalar import assert_base_matches


def test_validate_accepts_fixtures(nonflat2, lc1, const2):
    assert validate(nonflat2) == []
    assert validate(lc1) == []
    assert validate(const2) == []


def test_validate_flags_inhomogeneous_entry():
    # a degree-1 entry stored in the s = 0 slot of a degree-3 bracket
    b = HomogeneousBracket(
        n=1, k=3, P={(1, 1, 3): DiffPoly.one(), (1, 1, 0): DiffPoly.jet(1, 1)}
    )
    problems = validate(b)
    assert problems and any("P_0^{11}" in p for p in problems)


def test_validate_flags_theta_dependence():
    b = HomogeneousBracket(n=1, k=1, P={(1, 1, 1): DiffPoly.theta(1, 0)})
    assert validate(b)


def test_constructor_rejects_bad_shape():
    with pytest.raises(ValueError):
        HomogeneousBracket(n=0, k=1, P={})
    with pytest.raises(ValueError):
        HomogeneousBracket(n=1, k=0, P={})
    with pytest.raises(ValueError):
        HomogeneousBracket(n=1, k=1, P={(1, 2, 0): DiffPoly.one()})


def test_skewness_of_fixtures(nonflat2, lc1, canonical4):
    for b in (nonflat2, lc1, canonical4):
        assert check_skew(b)
        assert check_skewh(b)
        assert skew_defects(b) == []
        assert skewh_defects(b) == []


def test_skewness_parity_of_constant_brackets():
    sym = [[S("2"), S("1")], [S("1"), S("1")]]
    skew = [[S("0"), S("1")], [S("-1"), S("0")]]
    for k in (1, 3, 5):
        assert check_skew(constant_bracket(sym, k))
        assert not check_skew(constant_bracket(skew, k))
    for k in (2, 4):
        assert check_skew(constant_bracket(skew, k))
        assert not check_skew(constant_bracket(sym, k))


def test_skew_defect_reported_with_location():
    # break skewness of the degree-1 diagonal: P_0^{11} must be half of
    # d/dx P_1^{11}; store the wrong multiple
    P = {(1, 1, 1): DiffPoly.coordinate(1), (1, 1, 0): DiffPoly.jet(1, 1)}
    b = HomogeneousBracket(n=1, k=1, P=P)
    defects = skew_defects(b)
    assert defects
    i, j, t, defect = defects[0]
    assert (i, j) == (1, 1)
    assert not defect.is_zero
    assert not check_skewh(b)


def test_extract_named_on_nonflat2(nonflat2):
    g, c = nonflat2_data()
    named = extract_named(nonflat2)
    assert named.k == 3 and named.n == 2
    for i in range(2):
        for j in range(2):
            assert named.g[i][j] == g[i][j]
            for l in range(2):
                # h_(1) recovers the jet-linear tail coefficient c^{ij}_l
                assert named.h[1][i][j][l] == c[i][j][l]
                # deepest slot vanishes for this bracket
                assert named.h[0][i][j][l] == Scalar.zero()


def test_bivector_structure(const2):
    expect = (
        DiffPoly.theta(1, 0) * DiffPoly.theta(2, 2) * S("1/2")
        - DiffPoly.theta(2, 0) * DiffPoly.theta(1, 2) * S("1/2")
    )
    assert bivector(const2) == expect
    assert bivector(const2) is bivector(const2)  # cached


def test_bivector_degree(nonflat2):
    p = bivector(nonflat2)
    assert p.is_homogeneous("deg", 3)
    assert p.is_homogeneous("deg_theta", 2)


def test_lower_metric_inverts():
    g, _ = nonflat2_data()
    glow = lower_metric(g)
    for i in range(2):
        for j in range(2):
            total = Scalar.zero()
            for s in range(2):
                total = total + g[i][s] * glow[s][j]
            assert total == (Scalar.one() if i == j else Scalar.zero())


def test_lower_metric_rejects_degenerate():
    g = [[S("u1"), S("u1")], [S("u1"), S("u1")]]
    with pytest.raises(DegenerateMetricError):
        lower_metric(g)


# accessor -> whether a second call hands back the very same object, or
# ("parts") a new tuple of the very same objects
MEMOISED = {
    "bivector": (bivector, True),
    "extract_named": (extract_named, True),
    "metric_pair": (metric_pair, True),
    "variational_pair": (variational_pair, "parts"),
    "DP_images": (_DP_images, True),
    "standard_connection": (lambda b: standard_connection(b, 1), True),
    "flat_combination": (lambda b: flat_combination(b, 2), True),
    "bracket_curvature": (lambda b: _bracket_curvature(b, True, 1), True),
    "skew_defects": (skew_defects, False),
}


@pytest.mark.parametrize("name", MEMOISED)
def test_memoised_accessors(nonflat2, name):
    accessor, shared = MEMOISED[name]
    first = accessor(nonflat2)
    second = accessor(nonflat2)
    if shared == "parts":
        assert len(second) == len(first) and all(y is x for x, y in zip(first, second))
    elif shared:
        assert second is first
    else:
        # an equal copy of the cached value, so a caller cannot change the cache
        assert second == first and second is not first


def test_cached_values_are_stored_only_on_success():
    b = constant_bracket([[1, 0], [0, 1]], 2)
    metric_pair(b)
    before = dict(b._cache)
    for _ in range(2):
        with pytest.raises(ValueError):
            standard_connection(b, b.k)
    assert b._cache == before
    singular = constant_bracket([[1, 1], [1, 1]], 2)
    for _ in range(2):
        with pytest.raises(DegenerateMetricError):
            standard_connection(singular, 0)
    # the named coefficients were found; the inverse metric and Gamma_(0) were not
    assert list(singular._cache) == [(extract_named.__wrapped__,)]


def test_cache_keys_hold_the_function_and_its_arguments():
    b = constant_bracket([[1, 0], [0, 1]], 2)
    conns = [standard_connection(b, 0), standard_connection(b, 1), flat_combination(b, 0)]
    assert len({id(c) for c in conns}) == 3
    assert {
        (standard_connection.__wrapped__, 0),
        (standard_connection.__wrapped__, 1),
        (flat_combination.__wrapped__, 0),
    } <= set(b._cache)


def product_map():
    return CoordinateMap(
        n=2,
        forward=[S("u1"), S("u1*u2")],
        inverse=[S("u1"), S("u2/u1")],
    )


def test_coordinate_map_inverse_check():
    cmap = product_map()
    assert cmap.check_inverse() == []
    bad = CoordinateMap(n=2, forward=[S("u1"), S("u1*u2")], inverse=[S("u1"), S("u2")])
    assert bad.check_inverse()


def test_jacobian():
    cmap = product_map()
    J = cmap.jacobian()
    assert J[0][0] == Scalar.one() and J[0][1] == Scalar.zero()
    assert J[1][0] == S("u2") and J[1][1] == S("u1")


def test_transform_preserves_structure(lc1):
    cmap = product_map()
    moved = transform(lc1, cmap)
    assert validate(moved) == []
    assert check_skew(moved)
    assert check_jacobi(moved)


def test_transform_round_trip(lc1, nonflat2):
    cmap = product_map()
    for b in (lc1, nonflat2):
        back = transform(transform(b, cmap), cmap.inverted())
        assert back.n == b.n and back.k == b.k
        keys = set(back.P) | set(b.P)
        for key in keys:
            assert back.P.get(key, DiffPoly.zero()) == b.P.get(key, DiffPoly.zero())


def test_transform_rejects_bad_map(lc1):
    with pytest.raises(ValueError):
        transform(lc1, CoordinateMap(n=1, forward=[S("u1")], inverse=[S("u1")]))
    bad = CoordinateMap(n=2, forward=[S("u1"), S("u1*u2")], inverse=[S("u1"), S("u2")])
    with pytest.raises(ValueError):
        transform(lc1, bad)


def test_transform_of_constant_bracket_by_linear_map():
    # under a linear map the leading coefficient transforms as a (2,0)-tensor
    eta = [[S("0"), S("1")], [S("-1"), S("0")]]
    b = constant_bracket(eta, 2)
    cmap = CoordinateMap(
        n=2,
        forward=[S("2*u1"), S("u1 + u2")],
        inverse=[S("u1/2"), S("u2 - u1/2")],
    )
    moved = transform(b, cmap)
    named = extract_named(moved)
    # J eta J^T with J = [[2, 0], [1, 1]]
    assert named.g[0][0] == Scalar.zero()
    assert named.g[0][1] == S("2")
    assert named.g[1][0] == S("-2")
    assert named.g[1][1] == Scalar.zero()


def test_random_constant_brackets_are_skew():
    rng = random.Random(3)
    for k in (1, 2, 3):
        for _ in range(5):
            b = random_constant_bracket(rng, 2, k)
            assert validate(b) == []
            assert check_skew(b)


def test_brackets_are_frozen():
    # a cached verdict must not outlive a change of entries, so there is none
    b = load_bracket(fixture_path("lc_k1.json"))
    assert check_jacobi(b)
    broken = load_bracket(fixture_path("lc_k1_broken.json"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.P = dict(broken.P)
    with pytest.raises(TypeError):
        b.P[(1, 1, 0)] = broken.P[(1, 1, 0)]
    assert check_jacobi(b) and not check_jacobi(broken)


def test_derived_brackets_start_with_an_empty_cache():
    # a bracket made from another must not inherit its cached Jacobi verdict
    b = load_bracket(fixture_path("lc_k1.json"))
    assert check_jacobi(b)
    broken = load_bracket(fixture_path("lc_k1_broken.json"))
    derived = dataclasses.replace(b, P=dict(broken.P))
    assert derived._cache is not b._cache
    assert not check_jacobi(derived)
    with pytest.raises(TypeError):
        HomogeneousBracket(b.n, b.k, b.P, b._cache)


def skew_defects_oracle(b):
    """_skew_defects as first written: a d_x chain per P_s^{ij} and the
    binomial Leibniz sum, with no use of the variational derivatives."""
    out = []
    for i, j in product(range(1, b.n + 1), repeat=2):
        derivs = [[b.entry(i, j, s)] for s in range(b.k + 1)]
        for t in range(b.k + 1):
            parts = (
                _dx_upto(derivs[s], s - t) * ((-1) ** (s + 1) * comb(s, t))
                for s in range(t, b.k + 1)
            )
            defect = b.entry(j, i, t) - _sum(parts)
            if not defect.is_zero:
                out.append((i, j, t, defect))
    return out


def random_even_bracket(rng):
    """A bracket with n <= 3, k <= 4 and entries free of odd variables, but of
    any weight and with components up to n + 1, so rarely valid or skew."""
    n, k = rng.randint(1, 3), rng.randint(1, 4)
    P = {}
    for i, j, s in product(range(1, n + 1), range(1, n + 1), range(k + 1)):
        if rng.random() < 0.4:
            entry = DiffPoly.from_scalar(random_scalar(rng, n + 1))
            for _ in range(rng.randint(0, 2)):
                entry = entry * DiffPoly.jet(rng.randint(1, n + 1), rng.randint(1, k))
            P[(i, j, s)] = entry
    return HomogeneousBracket(n, k, P)


def assert_same_defects(b):
    got, want = skew_defects(b), skew_defects_oracle(b)
    assert got == want
    assert [(i, j, t, str(d)) for i, j, t, d in got] == [(i, j, t, str(d)) for i, j, t, d in want]


def test_skew_defects_match_the_leibniz_oracle(nonflat2, lc1, canonical4):
    cmap = product_map()
    moved = transform(lc1, cmap)
    dropped = HomogeneousBracket(moved.n, moved.k, {key: v for key, v in moved.P.items() if key != (1, 2, 0)})
    brackets = [nonflat2, lc1, canonical4, moved, transform(nonflat2, cmap), dropped]
    brackets += [load_bracket(fixture_path(name)) for name in ("lc_k1_broken.json", "constant_k2.json")]
    rng = random.Random(17)
    brackets += [random_even_bracket(rng) for _ in range(150)]
    for b in brackets:
        assert_same_defects(b)
    assert sum(1 for b in brackets if not skew_defects(b)) >= 6  # both verdicts are exercised
    assert sum(1 for b in brackets if skew_defects(b)) >= 100


def test_skew_defects_match_the_leibniz_oracle_on_hypothesis_draws():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(hypothesis.strategies.integers(0, 2**32 - 1))
    def check(seed):
        assert_same_defects(random_even_bracket(random.Random(seed)))

    check()


def test_skew_check_reads_the_cached_variational_pair(monkeypatch):
    # bracket.variational_pair is the one definition; jacobi re-exports it
    assert variational_pair.__module__ == "dnbrackets.bracket"
    for name in ("nonflat2.json", "lc_k1_broken.json", "canonical_k2.json"):
        b = load_bracket(fixture_path(name))
        want = skew_defects_oracle(load_bracket(fixture_path(name)))
        variational_pair(b)
        calls = []
        d_x = DiffPoly.d_x
        monkeypatch.setattr(DiffPoly, "d_x", lambda self: calls.append(self) or d_x(self))
        assert skew_defects(b) == want
        assert calls == [], name
        monkeypatch.undo()


def test_skew_defects_of_odd_entries_differ_from_the_leibniz_formula():
    # validate rejects a bracket with odd variables in an entry: on one the
    # Leibniz formula and the theta-derivatives of the bivector part ways
    x = DiffPoly.theta(1, 0)
    b = HomogeneousBracket(n=2, k=1, P={(1, 2, 0): x, (2, 1, 0): -x})
    assert skew_defects_oracle(b) == []
    assert skew_defects(b) == [(1, 2, 0, x * -2), (2, 1, 0, x * 2)]
    assert validate(b) == ["P_0^{12} contains odd variables", "P_0^{21} contains odd variables"]
    with pytest.raises(PreconditionError, match="invalid bracket"):
        check_jacobi(b)


def transform_oracle(b, cmap) -> dict:
    """transform's entries by the Leibniz formula as first written, in the
    old variables: one product entry * J * d_x^t(J) per (t, i', j'), added
    by _sum over i' and j', scaled by C(s+t, s) and added by _sum over t;
    then the old coordinates and jets of each sum are substituted by their
    expressions in the new ones, where transform pulls P and J back first.
    Zero entries are dropped, as HomogeneousBracket drops them."""
    n, k = b.n, b.k
    jac = cmap.jacobian()
    derivs = [[[DiffPoly.from_scalar(x)] for x in row] for row in jac]

    def contracted(i, j, s, t):
        return _sum(
            b.entry(ip, jp, s + t) * jac[i - 1][ip - 1] * _dx_upto(derivs[j - 1][jp - 1], t)
            for ip in range(1, n + 1)
            for jp in range(1, n + 1)
        )

    raw = {
        (i, j, s): acc
        for i, j, s in product(range(1, n + 1), range(1, n + 1), range(k + 1))
        if (acc := _sum(contracted(i, j, s, t) * comb(s + t, s) for t in range(k - s + 1)))
    }
    coord_map = {m + 1: x for m, x in enumerate(cmap.inverse)}
    top = max((entry.max_jet_order() for entry in raw.values()), default=0)
    jet_map = {(l, r): DiffPoly.from_scalar(cmap.inverse[l - 1]).d_x_pow(r)
               for l in range(1, n + 1) for r in range(1, top + 1)}
    return {key: moved for key, entry in raw.items()
            if (moved := entry.substitute(coord_map=coord_map, jet_map=jet_map))}


def elementary_map(n: int, step: str, rng: random.Random) -> CoordinateMap:
    """A random scaling u^m -> a_m u^m followed by one step on p, q = n - 1, n:
    "shift" u^p -> u^p + c u^q, "forward1" and "forward2" u^q -> u^q + c (u^p)^e
    with e = 1, 2, and "product" u^q -> u^q u^p."""
    u = [Scalar.coordinate(m) for m in range(1, n + 1)]
    a = [rng.choice((-2, -1, Fraction(1, 2), 2, 3)) for _ in range(n)]
    c = rng.choice((-2, -1, Fraction(1, 2), 1, 3))
    p, q = n - 2, n - 1
    step_f, step_i = list(u), list(u)
    if step == "shift":
        step_f[p], step_i[p] = u[p] + c * u[q], u[p] - c * u[q]
    elif step == "product":
        step_f[q], step_i[q] = u[q] * u[p], u[q] / u[p]
    else:
        f = c * u[p] ** int(step[-1])
        step_f[q], step_i[q] = u[q] + f, u[q] - f
    scaled = {m + 1: x * am for m, (am, x) in enumerate(zip(a, u))}
    unstep = {m + 1: g for m, g in enumerate(step_i)}
    return CoordinateMap(n, [g.subs(scaled) for g in step_f],
                         [(x / am).subs(unstep) for am, x in zip(a, u)])


def with_jet_pair(b, jets):
    """b plus X at P_0^{12} and -X at P_0^{21}, X the product of the jets (i, s):
    still skew, but no longer Poisson."""
    x = DiffPoly.one()
    for i, s in jets:
        x = x * DiffPoly.jet(i, s)
    P = dict(b.P)
    P[(1, 2, 0)], P[(2, 1, 0)] = b.entry(1, 2, 0) + x, b.entry(2, 1, 0) - x
    return HomogeneousBracket(b.n, b.k, P)


def assert_same_entries(moved, want: dict, where):
    assert list(moved.P) == list(want), where
    for key, entry in moved.P.items():
        assert entry.terms == want[key].terms and str(entry) == str(want[key]), (where, key)
        for c in entry.terms.values():
            assert_base_matches(c, (where, key))


JET_PAIRS = {"nonflat2_jetpair": ("nonflat2.json", ((1, 3),)),
             "canonical_k2_quadtail": ("canonical_k2.json", ((1, 1), (3, 1)))}


@pytest.mark.parametrize("name", ["lc1", "lc1_broken", "nonflat2", "canonical4", "const2", "const3",
                                  "canonical_k2.json", "constant_k2.json", "lc_k1.json",
                                  "lc_k1_broken.json", "nonflat2.json", *JET_PAIRS])
def test_fused_transform_matches_the_leibniz_oracle(request, name):
    """transform, which pulls P and J back and then sums each entry's whole
    Leibniz expansion in one _products call, against transform_oracle: the
    same entries, terms, text and bases, on every fixture bracket and on two
    skew non-Poisson ones, under the shift, both forward shifts and the
    product map at two seeds."""
    if name in JET_PAIRS:
        doc, jets = JET_PAIRS[name]
        b = with_jet_pair(load_bracket(fixture_path(doc)), jets)
    elif name.endswith(".json"):
        b = load_bracket(fixture_path(name))
    else:
        b = request.getfixturevalue(name)
    for seed in (5, 23):
        rng = random.Random(seed)
        for step in ("shift", "forward1", "forward2", "product"):
            cmap = elementary_map(b.n, step, rng)
            assert_same_entries(transform(b, cmap), transform_oracle(b, cmap), (name, seed, step))


def test_fused_transform_matches_the_oracle_under_map_product(nonflat2):
    cmap = load_map(fixture_path("map_product.json"), 2)
    assert_same_entries(transform(nonflat2, cmap), transform_oracle(nonflat2, cmap), "map_product")


def bench_workloads():
    """bench/workloads.py, loaded from its file: the benchmark's bases and maps."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("dnbrackets_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def generated_jacobi_inputs(seeds=(11, 3)):
    """The generated_jacobi workload's items at each seed, with the same
    draws: (label, base bracket, map, whether the base is Poisson) for every
    base, jet pairs included, under each step of pass_families."""
    W = bench_workloads()
    for seed in seeds:
        rng = random.Random(seed)
        for name, (doc, jets, poisson) in W.JACOBI_BASES.items():
            b = with_jet_pair(load_bracket(fixture_path(doc)), jets) if jets else load_bracket(fixture_path(doc))
            for family in W.pass_families(b.n, rng):
                cmap, _ = W.build_map(dnbrackets, b.n, family, rng)
                yield f"{seed} | {name} | {W.family_label(family)}", b, cmap, poisson


def test_transform_matches_the_leibniz_oracle_on_the_generated_jacobi_passes():
    """Pulling back before the Leibniz sum gives transform_oracle's entries,
    terms, text and bases on the benchmark's seven bases under every step of
    its passes, at two seeds."""
    names = set()
    for label, b, cmap, _ in generated_jacobi_inputs():
        assert_same_entries(transform(b, cmap), transform_oracle(b, cmap), label)
        names.add(label.split(" | ")[1])
    assert {"nonflat2_jetpair", "canonical_k2_quadtail"} <= names and len(names) == 7


def test_unit_diffpoly_is_built_only_for_a_zeroth_power(monkeypatch):
    """x ** e builds DiffPoly.one() for e = 0 alone, and transform builds none
    on the generated_jacobi bases under every step of their passes."""
    inputs = list(generated_jacobi_inputs(seeds=(11,)))
    one, calls = DiffPoly.one, []
    monkeypatch.setattr(DiffPoly, "one", staticmethod(lambda: calls.append("one") or one()))
    x = DiffPoly.jet(1, 2) * S("u1/u2") + DiffPoly.theta(2, 1)
    assert x ** 1 == x and x ** 3 == x * x * x and calls == []
    assert x ** 0 == one() and calls == ["one"]
    calls.clear()
    for label, b, cmap, _ in inputs:
        transform(b, cmap)
        assert calls == [], label
