"""Graded pieces of D_P, the contraction map, and the first differential."""

import gc
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from dnbrackets import diffpoly, jacobi, spectral
from dnbrackets.bracket import (
    CoordinateMap, HomogeneousBracket, _tensor, extract_named, metric_pair, transform, variational_pair,
)
from dnbrackets.cli import load_bracket, load_map
from dnbrackets.connections import flat_combination
from dnbrackets.diffpoly import DiffPoly, ThetaVar, _derivation, _dx_upto, _Images, _sum, term_deg_theta_k
from dnbrackets.errors import PreconditionError
from dnbrackets.jacobi import _DP_images, apply_DP
from dnbrackets.sampling import random_constant_bracket, random_monomial
from dnbrackets.scalar import Scalar
from dnbrackets.spectral import (
    D_minus1_closed,
    _excluded_count,
    _d1_closed_ops,
    _d1_connection_ops,
    _d1_spectral_ops,
    _homotopy_images,
    _lowering_images,
    _row_sums,
    apply_D_graded,
    d1_as_connection,
    d1_closed,
    d1_spectral,
    d1_split,
    homotopy,
    in_B,
    include_B,
    project_B,
    require_poisson,
    spanning_monomials,
)

from conftest import S, assert_same_terms, cold_scalar_memos, d1_dicts, fixture_path, kernel_draws


def theta(i, s):
    return DiffPoly.theta(i, s)


def test_require_poisson(monkeypatch, nonflat2, lc1_broken):
    require_poisson(nonflat2)  # no exception, verdict cached
    with pytest.raises(PreconditionError):
        require_poisson(lc1_broken)

    def unreachable(b):
        raise AssertionError("the Jacobi identity was checked again")

    monkeypatch.setattr(spectral, "check_jacobi", unreachable)
    require_poisson(nonflat2)


def test_graded_pieces_sum_to_DP(nonflat2):
    # total-derivative factors inside D_P can add jet variables beyond
    # the tail depth, so the shift window is wider than [-1, k]
    rng = random.Random(61)
    for _ in range(12):
        a = random_monomial(rng, 2, 3, max_degu=2)
        if a.is_zero:
            continue
        full = apply_DP(nonflat2, a)
        total = DiffPoly.zero()
        for m in range(-1, 8):
            total = total + apply_D_graded(nonflat2, m, a)
        assert total == full


def test_graded_piece_shifts_jet_degree(nonflat2):
    a = theta(1, 0) * DiffPoly.jet(1, 1)
    for m in (-1, 0, 1):
        r = apply_D_graded(nonflat2, m, a)
        if not r.is_zero:
            assert r.degrees("deg_u") == {1 + m}


def test_graded_piece_requires_homogeneous_input(nonflat2):
    mixed = theta(1, 0) + theta(1, 0) * DiffPoly.jet(1, 1)
    with pytest.raises(ValueError):
        apply_D_graded(nonflat2, 0, mixed)
    assert apply_D_graded(nonflat2, 0, DiffPoly.zero()) == DiffPoly.zero()


def test_D_minus1_matches_lowest_graded_piece(nonflat2, canonical4):
    rng = random.Random(67)
    for b in (nonflat2, canonical4):
        for _ in range(10):
            a = random_monomial(rng, b.n, b.k, max_degu=2)
            if a.is_zero:
                continue
            assert D_minus1_closed(b, a) == apply_D_graded(b, -1, a)


def test_D_minus1_squares_to_zero(nonflat2):
    rng = random.Random(71)
    for _ in range(15):
        a = random_monomial(rng, 2, 3, max_degu=3)
        assert D_minus1_closed(nonflat2, D_minus1_closed(nonflat2, a)).is_zero


def test_B_subspace_operations():
    k = 3
    inside = theta(1, 0) * theta(2, 3) * S("u1")
    outside_jet = inside * DiffPoly.jet(1, 1)
    outside_order = theta(1, 4) * S("u2")
    assert in_B(inside, k)
    assert not in_B(outside_jet, k)
    assert not in_B(outside_order, k)
    assert project_B(inside + outside_jet + outside_order, k) == inside
    assert include_B(inside, k) == inside
    with pytest.raises(ValueError):
        include_B(outside_jet, k)


@pytest.mark.parametrize("name", ["nonflat2", "canonical4"])
def test_homotopy_identity_on_random_monomials(request, name):
    # canonical4 has a skew metric, so it also catches g_{ij} read as g_{ji}
    b = request.getfixturevalue(name)
    rng = random.Random(73)
    checked = 0
    while checked < 30:
        a = random_monomial(rng, b.n, b.k, max_degu=3)
        if a.is_zero:
            continue
        checked += 1
        lhs = D_minus1_closed(b, homotopy(b, a)) + homotopy(b, D_minus1_closed(b, a))
        assert lhs == a - project_B(a, b.k)


def homotopy_oracle(b, a):
    """homotopy term by term: (1/l) sum u^{i,s} g_{ji} d/dtheta_j^{k+s} on each
    monomial holding l > 0 excluded generators, without the derivation kernel
    and with the lowered metric read directly."""
    k, glow = b.k, metric_pair(b)[1]
    parts = []
    for key, coef in a.terms.items():
        l = _excluded_count(key, k)
        if l == 0:
            continue
        term = DiffPoly({key: coef})
        terms = (
            DiffPoly.jet(i, s - k) * glow[j - 1][i - 1] * pa
            for s, j in key[1]
            if s > k and (pa := term.partial(ThetaVar(j, s)))
            for i in range(1, b.n + 1)
        )
        parts.append(sum(terms, DiffPoly.zero()) * Fraction(1, l))
    return sum(parts, DiffPoly.zero())


@pytest.mark.parametrize("name", ["lc1", "nonflat2", "canonical4"])
def test_homotopy_matches_its_per_term_oracle(request, name):
    b = request.getfixturevalue(name)
    covered = set()
    mixed = 0  # inputs whose terms hold different numbers of excluded generators
    total = DiffPoly.zero()
    for a in kernel_draws(random.Random(101), b, covered):
        total = total + a
        for x in (a, total):
            mixed += len({_excluded_count(key, b.k) for key in x.terms} - {0}) > 1
            assert homotopy(b, x) == homotopy_oracle(b, x)
    assert covered == {"coordinates only", "jet order 3", "theta above k"}
    assert mixed >= 5


def per_output_homotopy(b, a):
    """homotopy with its earlier scaling: the derivation of the homotopy's
    tables on the whole of a, then each output coefficient times 1/l."""
    terms = _derivation(a, *_homotopy_images(b)).terms
    return diffpoly._wrap({key: c * Scalar.from_fraction(Fraction(1, _excluded_count(key, b.k)))
                           for key, c in terms.items()})


@pytest.mark.parametrize("name", ["lc1", "nonflat2", "canonical4"])
def test_homotopy_scales_its_inputs_as_the_outputs_were_scaled(request, name):
    """Scaling each input term by 1/l before the derivation gives the terms
    of scaling each output coefficient after it, in the same order, with the
    same numerators, denominators and factored bases."""
    b = request.getfixturevalue(name)
    mixed, total = 0, DiffPoly.zero()
    for a in kernel_draws(random.Random(103), b, set()):
        total = total + a
        for x in (a, total):
            mixed += len({_excluded_count(key, b.k) for key in x.terms} - {0}) > 1
            got, want = homotopy(b, x), per_output_homotopy(b, x)
            assert list(got.terms) == list(want.terms)
            assert [(c._n, c._d, c._b) for c in got.terms.values()] == \
                [(c._n, c._d, c._b) for c in want.terms.values()]
    assert mixed >= 5


def test_homotopy_vanishes_on_B(nonflat2):
    a = theta(1, 0) * theta(2, 2) * S("u2")
    assert in_B(a, 3)
    assert homotopy(nonflat2, a).is_zero


def test_d1_oracle_pair(nonflat2, canonical4):
    for b in (nonflat2, canonical4):
        span = spanning_monomials(b.n, b.k, max_degree=2)
        for x in span:
            assert d1_spectral(b, x) == d1_closed(b, x)


def test_d1_lands_in_B(nonflat2):
    for x in spanning_monomials(2, 3, max_degree=2):
        assert in_B(d1_closed(nonflat2, x), 3)


def test_d1_split_parts(nonflat2):
    for x in spanning_monomials(2, 3, max_degree=2):
        up, same = d1_split(nonflat2, x)
        assert up + same == d1_closed(nonflat2, x)
        full = d1_closed(nonflat2, x)
        if full.is_zero:
            continue
        degs = x.degrees("deg_theta_k", k=3)
        if len(degs) != 1:
            continue
        (q,) = degs
        assert up == full.project("deg_theta_k", q + 1, 3)
        assert same == full.project("deg_theta_k", q, 3)


def test_d1_squares_to_zero_in_graded_pieces(nonflat2):
    # the raising part squares to zero, the mixed anticommutator
    # vanishes, and the preserving part squares to zero
    for x in spanning_monomials(2, 3, max_degree=2):
        up, same = d1_split(nonflat2, x)
        up_up, up_same = d1_split(nonflat2, up)
        same_up, same_same = d1_split(nonflat2, same)
        assert up_up.is_zero
        assert (up_same + same_up).is_zero
        assert same_same.is_zero


def test_d1_as_connection_matches_raising_part(nonflat2, canonical4):
    for b in (nonflat2, canonical4):
        for x in spanning_monomials(b.n, b.k, max_degree=2):
            assert d1_as_connection(b, x) == d1_split(b, x)[0]


def random_element_of_B(rng, b):
    """A sum of 2-4 spanning monomials with rational and coordinate coefficients."""
    span = spanning_monomials(b.n, b.k, max_degree=3)
    coefficients = [Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))]
    coefficients.append(DiffPoly.coordinate(rng.randint(1, b.n)))
    parts = (x * rng.choice(coefficients) for x in rng.sample(span, rng.randint(2, 4)))
    return sum(parts, DiffPoly.zero())


# the per-bracket tables behind d1_closed, d1_as_connection, d1_spectral,
# D_minus1_closed and homotopy
TABLES = {
    "d1_closed_ops": _d1_closed_ops,
    "d1_connection_ops": _d1_connection_ops,
    "d1_spectral_ops": _d1_spectral_ops,
    "lowering_images": _lowering_images,
    "homotopy_images": _homotopy_images,
}


@pytest.mark.parametrize("name", ["nonflat2", "canonical4"])
def test_cached_operators_match_the_oracles(request, name):
    warm = request.getfixturevalue(name)
    for table in TABLES.values():
        table(warm)
    cold = HomogeneousBracket(n=warm.n, k=warm.k, P=dict(warm.P))
    rng = random.Random(79)
    first = None
    for _ in range(8):
        x = random_element_of_B(rng, warm)
        assert len(x.terms) >= 2
        a = x * DiffPoly.jet(1, 1) * theta(warm.n, warm.k + 1)
        closed, raising = d1_closed(cold, x), d1_as_connection(cold, x)
        lowered, contracted = D_minus1_closed(cold, a), homotopy(cold, a)
        if first is None:  # every table of the cold bracket has been built once
            first = {key: table(cold) for key, table in TABLES.items()}
        assert closed == d1_spectral(cold, x) == d1_closed(warm, x)
        assert raising == d1_split(cold, x)[0] == d1_as_connection(warm, x)
        assert lowered == apply_D_graded(cold, -1, a) == D_minus1_closed(warm, a)
        assert contracted == homotopy(warm, a)
        assert D_minus1_closed(cold, contracted) + homotopy(cold, lowered) == a
    # every later call read the tables the first one built
    for key, table in TABLES.items():
        assert table(cold) is first[key]


def table_readers(b, a, x) -> list:
    """The derivations that read per-bracket image tables: apply_DP, D_{-1}
    and the homotopy on a, and the three forms of d_1 on x in B."""
    return [apply_DP(b, a), D_minus1_closed(b, a), homotopy(b, a),
            d1_spectral(b, x), *d1_split(b, x), d1_as_connection(b, x)]


def image_tables(b) -> list:
    """Every image table that table_readers reads from b's cache."""
    return [*_DP_images(b), *_lowering_images(b), *_homotopy_images(b),
            *_d1_spectral_ops(b), *_d1_connection_ops(b), *_d1_closed_ops(b)[0], *_d1_closed_ops(b)[1]]


def test_image_tables_build_each_generator_once_per_bracket(monkeypatch, nonflat2):
    """Repeated calls of every derivation on one bracket build each
    generator's image at most once per table, and build no table anew."""
    b = HomogeneousBracket(n=nonflat2.n, k=nonflat2.k, P=dict(nonflat2.P))
    builds, tables = Counter(), {}
    missing = _Images.__missing__

    def counted(table, v):
        tables[id(table)] = table  # kept alive, so no id is reused
        builds[id(table), v] += 1
        return missing(table, v)

    monkeypatch.setattr(_Images, "__missing__", counted)
    rng = random.Random(61)
    inputs = [(a, random_element_of_B(rng, b)) for a in kernel_draws(rng, b, set(), rounds=3)]
    first = [table_readers(b, a, x) for a, x in inputs]
    built = dict(builds)
    # every table of b was read, but the keeping half's jets: no coordinate
    # has an image there, and an element of B has no jets
    unread = [t for t in image_tables(b) if id(t) not in tables]
    assert [id(t) for t in unread] == [id(_d1_closed_ops(b)[1][0])]

    def refuse(*args):
        raise AssertionError("an image table was built again")

    monkeypatch.setattr(_Images, "__init__", refuse)
    for (a, x), want in zip(inputs, first):
        for _ in range(2):
            assert table_readers(b, a, x) == want
    assert builds == built and max(builds.values()) == 1


def test_a_bracket_with_image_tables_is_freed_with_its_last_reference(nonflat2):
    """The tables cached on a bracket hold its data and no reference to the
    bracket, so they make no cycle that only the cycle collector could free."""
    b = HomogeneousBracket(n=nonflat2.n, k=nonflat2.k, P=dict(nonflat2.P))
    rng = random.Random(71)
    a = random_monomial(rng, b.n, b.k, max_degu=2) * DiffPoly.jet(1, 1) * theta(2, b.k + 1)
    table_readers(b, a, random_element_of_B(rng, b))
    ref = weakref.ref(b)
    gc.disable()
    try:
        del b
        assert ref() is None
    finally:
        gc.enable()


def test_image_tables_match_fresh_ones_and_stay_with_their_bracket(monkeypatch, nonflat2):
    """On nonflat2 and on its image under map_product, which have the same n
    and k, every derivation read from the cached tables gives what tables
    built afresh for that call give; the two brackets share no table."""
    moved = transform(nonflat2, load_map(fixture_path("map_product.json"), 2))
    assert (moved.n, moved.k) == (nonflat2.n, nonflat2.k)
    builders = [(jacobi, "_DP_images"), (spectral, "_lowering_images"),
                (spectral, "_homotopy_images"), (spectral, "_d1_spectral_ops"),
                (spectral, "_d1_closed_ops"), (spectral, "_d1_connection_ops")]
    rng = random.Random(67)
    for a in kernel_draws(rng, nonflat2, set(), rounds=3):
        x = random_element_of_B(rng, nonflat2)
        for b in (nonflat2, moved, nonflat2):
            cached = table_readers(b, a, x)
            with monkeypatch.context() as patch:
                for module, name in builders:
                    patch.setattr(module, name, getattr(module, name).__wrapped__)
                fresh = table_readers(b, a, x)
            for got, want in zip(cached, fresh):
                assert_same_terms(got, want)
    assert not {id(t) for t in image_tables(nonflat2)} & {id(t) for t in image_tables(moved)}


def split_oracle(b, x):
    """d1_split the slow way: d1_closed on each theta^k-count group of x, then project."""
    groups: dict = {}
    for key, c in x.terms.items():
        groups.setdefault(term_deg_theta_k(key, b.k), {})[key] = c
    parts = [(q, d1_closed(b, DiffPoly(terms))) for q, terms in groups.items()]
    up = sum((p.project("deg_theta_k", q + 1, b.k) for q, p in parts), DiffPoly.zero())
    same = sum((p.project("deg_theta_k", q, b.k) for q, p in parts), DiffPoly.zero())
    return up, same


def connection_oracle(b, x):
    """d1_as_connection the slow way, on the input itself: relabel theta_i^k to
    sum_j g_{ij} theta_j^{k+1}, apply theta_i^{k+1} d/du^i plus
    Gamma_[s]^j_{il} theta_i^{k+1} theta_j^s d/dtheta_l^s, relabel theta_i^{k+1}
    back to sum_j g^{ij} theta_j^k."""
    named, glow = metric_pair(b)
    n, k, zero = b.n, b.k, DiffPoly.zero()

    def relabel(matrix, source, target):
        return {
            (source, i): sum((theta(j, target) * matrix[i - 1][j - 1] for j in range(1, n + 1)), zero)
            for i in range(1, n + 1)
        }

    xt = x.substitute(theta_map=relabel(glow, k, k + 1))
    out = sum((theta(i, k + 1) * xt.partial_coordinate(i) for i in range(1, n + 1)), zero)
    for s in range(k):
        gamma = flat_combination(b, s).gamma
        for l in range(1, n + 1):
            pa = xt.partial(ThetaVar(l, s))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if gv := gamma[j - 1][i - 1][l - 1]:
                        out = out + theta(i, k + 1) * theta(j, s) * gv * pa
    return out.substitute(theta_map=relabel(named.g, k + 1, k))


@pytest.mark.parametrize("name", ["nonflat2", "canonical4"])
def test_table_operators_match_their_per_input_forms(request, name):
    b = request.getfixturevalue(name)
    rng = random.Random(83)
    mixed = 0
    for _ in range(10):
        x = random_element_of_B(rng, b)
        mixed += len(x.degrees("deg_theta_k", k=b.k)) > 1
        up, same = d1_split(b, x)
        assert (up, same) == split_oracle(b, x)
        assert d1_as_connection(b, x) == connection_oracle(b, x) == up
        for part in (up, same):  # the graded identities split d_1's own output again
            assert d1_split(b, part) == split_oracle(b, part)
    assert mixed >= 3  # elements whose terms have different theta^k counts


def connection_ops_oracle(b):
    """_d1_connection_ops through the relabelling round trip: each generator's
    image under psi D phi, where phi relabels theta_i^k -> sum_j g_{ij}
    theta_j^{k+1}, D = sum_i theta_i^{k+1} d/du^i + sum_{s<k,l} M_{s,l}
    d/dtheta_l^s with M_{s,l} = sum_{i,j} Gamma_[s]^j_{il} theta_i^{k+1}
    theta_j^s, and psi relabels theta_i^{k+1} -> sum_j g^{ij} theta_j^k."""
    named, glow = metric_pair(b)
    n, k = b.n, b.k

    def relabel(matrix, source, target):
        images = _row_sums(matrix, DiffPoly.theta, target)
        return {(source, i): img for i, img in enumerate(images, 1)}

    def m(s, l):
        gamma = flat_combination(b, s).gamma
        return _sum(theta(i, k + 1) * theta(j, s) * gamma[j - 1][i - 1][l - 1]
                    for i in range(1, n + 1) for j in range(1, n + 1))

    rows = {(i, 0): theta(i, k + 1) for i in range(1, n + 1)}
    M = {(l, s): m(s, l) for s in range(k) for l in range(1, n + 1)}
    phi, psi = relabel(glow, k, k + 1), relabel(named.g, k + 1, k)

    def image(generator):
        return _derivation(generator.substitute(theta_map=phi), _Images(rows.get), _Images(M.get)).substitute(
            theta_map=psi)

    coords = {(i, 0): image(DiffPoly.coordinate(i)) for i in range(1, n + 1)}
    thetas = {(l, s): image(theta(l, s)) for s in range(k + 1) for l in range(1, n + 1)}
    return coords, thetas


def closed_ops_oracle(b):
    """_d1_closed_ops by projection: build each whole W_{s,l}, keep its terms
    with 1 + [s = k] thetas of order k as W_up and subtract them for W_same."""
    named, n, k = extract_named(b), b.n, b.k
    h = [*named.h, _tensor(n, 3, lambda i, j, l: named.g[i][j].partial(l + 1))]

    def w(s, l):
        return _sum(
            theta(i, r) * theta(j, k + s - r) * h[t][i - 1][j - 1][l - 1] * comb(k + s - t, r)
            * (-1) ** (k - t)
            for r in range(s, k + 1) for t in range(k + 1)
            for i in range(1, n + 1) for j in range(1, n + 1)
        ) * Fraction(1, 2)

    W = {(l, s): w(s, l) for s in range(k + 1) for l in range(1, n + 1)}
    up = {v: op.project("deg_theta_k", 1 + (v[1] == k), k) for v, op in W.items()}
    same = {v: rest for v, op in W.items() if (rest := op - up[v])}
    V = _row_sums(extract_named(b).g, DiffPoly.theta, k)
    return ({(i, 0): op for i, op in enumerate(V, 1)}, up), ({}, same)


POISSON_FIXTURES = ["constant_k2", "lc_k1", "canonical_k2", "nonflat2"]


def table_brackets():
    """The four Poisson fixture documents, nonflat2 and lc_k1 under the
    product map, and six constant brackets of degrees 1 to 4."""
    out = {name: load_bracket(fixture_path(f"{name}.json")) for name in POISSON_FIXTURES}
    for name in ("nonflat2", "lc_k1"):
        out[f"{name} mapped"] = transform(out[name], load_map(fixture_path("map_product.json"), 2))
    rng = random.Random(19)
    for n, k in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 3), (2, 4)):
        out[f"constant n={n} k={k}"] = random_constant_bracket(rng, n, k)
    return out


def test_tables_match_their_round_trip_and_projection_oracles(canonical4):
    brackets = {**table_brackets(), "canonical4": canonical4}
    assert len(brackets) == 13
    for name, b in brackets.items():
        assert d1_dicts(b, _d1_connection_ops(b)) == connection_ops_oracle(b), name
        assert tuple(d1_dicts(b, half) for half in _d1_closed_ops(b)) == closed_ops_oracle(b), name


@pytest.mark.parametrize("name", POISSON_FIXTURES)
def test_connection_form_is_the_raising_part_on_each_fixture(name):
    b = load_bracket(fixture_path(f"{name}.json"))
    for x in spanning_monomials(b.n, b.k):
        assert d1_as_connection(b, x) == d1_split(b, x)[0]


def test_tables_are_built_from_their_closed_forms(monkeypatch, nonflat2, canonical4):
    def unreachable(*args, **kwargs):
        raise AssertionError("a table was built through a generic operation")

    for b in (nonflat2, canonical4):
        cold = HomogeneousBracket(n=b.n, k=b.k, P=dict(b.P))
        with monkeypatch.context() as patch:
            patch.setattr(DiffPoly, "substitute", unreachable)
            patch.setattr(diffpoly, "_derivation", unreachable)
            patch.setattr(spectral, "_derivation", unreachable)
            connection = _d1_connection_ops(cold)
        with monkeypatch.context() as patch:
            patch.setattr(DiffPoly, "project", unreachable)
            closed = _d1_closed_ops(cold)
        assert d1_dicts(cold, connection) == d1_dicts(b, _d1_connection_ops(b))
        assert [d1_dicts(cold, half) for half in closed] == [d1_dicts(b, half) for half in _d1_closed_ops(b)]


def d1_spectral_oracle(b, x):
    """d_1 through the whole of D_P: its deg_u-preserving part, projected onto B."""
    return project_B(apply_D_graded(b, 0, x), b.k)


def test_d1_spectral_matches_the_whole_of_D_P_on_every_spanning_monomial(canonical4):
    brackets = {**table_brackets(), "canonical4": canonical4}
    for name, b in brackets.items():
        for x in spanning_monomials(b.n, b.k):
            assert_same_terms(d1_spectral(b, x), d1_spectral_oracle(b, x))


def test_d1_spectral_matches_the_whole_of_D_P_on_random_elements(nonflat2, canonical4):
    rng = random.Random(89)
    brackets = [nonflat2, canonical4, *table_brackets().values()]
    with_coordinates = 0
    for b in brackets:
        for _ in range(4):
            x = random_element_of_B(rng, b)
            with_coordinates += any(not c.is_fraction() for c in x.terms.values())
            assert_same_terms(d1_spectral(b, x), d1_spectral_oracle(b, x))
    assert with_coordinates >= 10


def test_d1_spectral_reads_D_P_and_not_the_closed_forms(monkeypatch, nonflat2, canonical4):
    # the three d_1 computations stay separate cross-checks: d1_spectral
    # depends on D_P's images and on no table of the other two
    def unreachable(*args, **kwargs):
        raise AssertionError("d1_spectral read a table of the closed forms")

    for b in (nonflat2, canonical4):
        span = spanning_monomials(b.n, b.k, max_degree=2)
        want = [d1_spectral(b, x) for x in span]
        cold = HomogeneousBracket(n=b.n, k=b.k, P=dict(b.P))
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_d1_closed_ops", unreachable)
            patch.setattr(spectral, "_d1_connection_ops", unreachable)
            assert [d1_spectral(cold, x) for x in span] == want

        # D_P's images come from the variational pair that d1_spectral reads
        real = spectral.variational_pair
        corrupt = HomogeneousBracket(n=b.n, k=b.k, P=dict(b.P))
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "variational_pair",
                          lambda b: tuple([v * 2 for v in family] for family in real(b)))
            disagree = [x for x in span if d1_spectral(corrupt, x) != d1_closed(corrupt, x)]
        assert disagree
        assert all(d1_closed(corrupt, x) == d1_closed(b, x) for x in span)


def two_bends(b):
    """b through u1 -> u1 + u2^2 and then u2 -> u2 + u1^2."""
    u1, u2 = Scalar.coordinate(1), Scalar.coordinate(2)
    first = CoordinateMap(2, [u1 + u2**2, u2], [u1 - u2**2, u2])
    second = CoordinateMap(2, [u1, u2 + u1**2], [u1, u2 - u1**2])
    return transform(transform(b, first), second)


def spectral_ops_oracle(b):
    """_d1_spectral_ops through the whole of d_x: project_B of dP~/dtheta_i and
    of d_x^s(dP~/du^l), the powers taken on d_x chains of the variational pair."""
    k, (ddtheta, ddu) = b.k, variational_pair(b)
    u = [[v] for v in ddu]
    coords = {(i, 0): project_B(v, k) for i, v in enumerate(ddtheta, 1)}
    thetas = {(l, s): project_B(_dx_upto(u[l - 1], s), k)
              for s in range(k + 1) for l in range(1, b.n + 1)}
    return coords, thetas


def test_spectral_ops_are_the_projected_d_x_chains(nonflat2, canonical4):
    """Stepping with d_x's theta table alone and projecting onto B after each
    step gives project_B of the whole d_x power, on the Poisson fixtures,
    their images under map_product, constant brackets, canonical4 and
    nonflat2 under two quadratic bends."""
    brackets = {**table_brackets(), "canonical4": canonical4, "two bends": two_bends(nonflat2)}
    for name, b in brackets.items():
        for got, want in zip(d1_dicts(b, _d1_spectral_ops(b)), spectral_ops_oracle(b)):
            assert got.keys() == want.keys(), name
            for v, img in want.items():
                assert got[v] == img and str(got[v]) == str(img), (name, v)
    bent = brackets["two bends"]
    assert any(d1_dicts(bent, _d1_spectral_ops(bent))[1].values())


def test_d1_oracle_pair_on_two_quadratic_bends_within_budget(nonflat2):
    """nonflat2 through u1 -> u1 + u2^2 and then u2 -> u2 + u1^2: d1_spectral
    agrees with d1_closed on the 95 spanning monomials within 1 s of CPU time
    from cold memos, the Jacobi verdict already cached.

    With d1_spectral's tables built from D_P's d_x chains, the tables alone
    took 2.3 s of CPU time on a 2-CPU x86_64 host with Python 3.11.7; built
    with d_x's theta table on B they took under 0.01 s, and the whole pair
    0.13 to 0.15 s there.
    """
    moved = two_bends(nonflat2)
    require_poisson(moved)
    span = spanning_monomials(moved.n, moved.k)
    assert len(span) == 95
    cold_scalar_memos()
    start = time.process_time()
    assert all(d1_spectral(moved, x) == d1_closed(moved, x) for x in span)
    elapsed = time.process_time() - start
    assert elapsed < 1.0, f"the d_1 oracle pair took {elapsed:.1f} s of CPU time"


def test_d1_requires_poisson(lc1_broken):
    with pytest.raises(PreconditionError):
        d1_spectral(lc1_broken, theta(1, 0))


def test_spanning_monomials_shape():
    span = spanning_monomials(2, 1, max_degree=2)
    assert DiffPoly.one() in span
    assert DiffPoly.coordinate(1) in span
    assert theta(1, 0) in span
    for x in span:
        assert x.max_jet_order() == 0
        assert x.max_theta_order() <= 1
        assert all(d <= 2 for d in x.degrees("deg_theta"))
