"""Every sum of products outside the two kernels is one grouped call: one
scalar._sum_products list per Scalar, one diffpoly._products call per
DiffPoly table.  Each converted site is checked here against the pairwise
body it had before (kept below as an oracle): the same numerators,
denominators and bases (_n, _d, _b) on every fixture, on canonical4, on
constant brackets of degrees 1 to 4, and on the generated_jacobi bases under
each elementary map step."""

import os
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb

from dnbrackets import bracket, lowdegree
from dnbrackets.bracket import (
    _components,
    _gauss_jordan,
    _tensor,
    extract_named,
    metric_pair,
    skewh_defects,
    transform,
)
from dnbrackets.cli import load_bracket
from dnbrackets.connections import curvature, flat_combination, nabla_tensor, standard_connection
from dnbrackets.diffpoly import DiffPoly, _dx_upto, _sum
from dnbrackets.errors import DegenerateMetricError
from dnbrackets.lowdegree import (
    _det_adj,
    _quadratic_term,
    ferguson_check,
    k4_connection_fixtures,
    potemin_build,
    potemin_check,
    quadratic_tail,
)
from dnbrackets.sampling import random_constant_bracket, random_fraction, random_polynomial, random_scalar
from dnbrackets.scalar import Scalar
from dnbrackets.spectral import _d1_closed_ops, _d1_connection_ops, _row_sum

from conftest import FIXTURE_DIR, canonical4_lower, fixture_path
from test_bracket import JET_PAIRS, bench_workloads, elementary_map, with_jet_pair

ZERO = Scalar.zero()
STEPS = ("shift", "forward1", "forward2", "product")


@cache
def brackets() -> dict:
    """The fixtures, canonical4, constant brackets of degrees 1 to 4 (and the
    degree-4 ones under each step, for the degree-4 closed forms), and the
    generated_jacobi bases under each elementary map step."""
    names = sorted(f for f in os.listdir(FIXTURE_DIR) if not f.startswith("map_"))
    out = {name: load_bracket(fixture_path(name)) for name in names}
    out["canonical4"] = lowdegree.canonical_k2(bracket.lower_metric(canonical4_lower()))
    rng = random.Random(29)
    for n, k in ((2, 1), (3, 1), (2, 2), (4, 2), (2, 3), (3, 3), (2, 4)):
        out[f"constant n={n} k={k}"] = b = random_constant_bracket(rng, n, k)
        if k == 4:
            for step in STEPS:
                out[f"constant n={n} k=4 | {step}"] = transform(b, elementary_map(n, step, rng))
    for name, (doc, jets, _) in bench_workloads().JACOBI_BASES.items():
        b = load_bracket(fixture_path(doc))
        b = with_jet_pair(b, jets) if jets else b
        for step in STEPS:
            out[f"{name} | {step}"] = transform(b, elementary_map(b.n, step, rng))
    return out


def metric_brackets():
    """(name, bracket, named, glow) for the brackets with an invertible g."""
    for name, b in brackets().items():
        try:
            named, glow = metric_pair(b)
        except DegenerateMetricError:
            continue
        yield name, b, named, glow


def same(got, want, where):
    """Equal Scalars with the same numerator, denominator and base, or equal
    DiffPolys whose coefficients are, key by key."""
    if isinstance(want, DiffPoly):
        assert got.terms.keys() == want.terms.keys(), where
        for key, c in want.terms.items():
            same(got.terms[key], c, (where, key))
    else:
        assert (got._n, got._d, got._b) == (want._n, want._d, want._b), where


def same_tensor(got, want, rank, where):
    for index, w in _components(want, rank):
        g = got
        for a in index:
            g = g[a]
        same(g, w, (where, index))


# -- the pairwise bodies the sites had -----------------------------------


def bivector_oracle(b):
    half = Scalar.from_fraction(1) / 2
    return _sum(entry * DiffPoly.theta(i, 0) * DiffPoly.theta(j, s) * half
                for (i, j, s), entry in b.P.items())


def skewh_oracle(b):
    named = extract_named(b)
    g, h, k = named.g, named.h, named.k
    sign = 1 if (k + 1) % 2 == 0 else -1
    out = [(f"g^{{{j+1}{i+1}}} - ({sign})*g^{{{i+1}{j+1}}}", defect)
           for (i, j), gij in _components(g, 2) if (defect := g[j][i] - sign * gij)]
    for s, hs in enumerate(h):
        for (i, j, l), hsijl in _components(hs, 3):
            rhs = comb(k, s) * g[i][j].partial(l + 1)
            for t in range(s, k):
                term = comb(t, s) * h[t][j][i][l]
                rhs = rhs + (term if (t + 1) % 2 == 0 else -term)
            if defect := hsijl - rhs:
                out.append((f"h_({s})^{{{i+1}{j+1}}}_{l+1} constraint", defect))
    return out


def gauss_jordan_oracle(rows):
    rows = [list(r) for r in rows]
    pivots = []
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
                rows[r] = [a - factor * c for a, c in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def standard_connection_oracle(b, s):
    named, glow = metric_pair(b)
    factor = Scalar.from_fraction(Fraction(-1, comb(b.k, s)))
    h = named.h[s]
    return _tensor(b.n, 3, lambda l, i, j: factor * sum(
        (gip * hip[l][j] for gip, hip in zip(glow[i], h)), ZERO))


def flat_combination_oracle(b, s):
    parts = [(standard_connection(b, t).gamma, ct) for t, ct in enumerate(_c_row(b.k, s)) if ct]
    return _tensor(b.n, 3, lambda l, i, j: sum((G[l][i][j] * ct for G, ct in parts), ZERO))


def _c_row(k, s):
    return [Fraction((-1) ** t * comb(k + s - t, k) * comb(k, t)) for t in range(k)]


def curvature_oracle(n, G):
    def block(l, t):
        B = _tensor(n, 2, lambda i, j: ZERO)
        for i, j in combinations(range(n), 2):
            val = G[l][j][t].partial(i + 1) - G[l][i][t].partial(j + 1)
            for q in range(n):
                val = val + G[l][i][q] * G[q][j][t] - G[l][j][q] * G[q][i][t]
            B[i][j], B[j][i] = val, -val
        return B

    return _tensor(n, 2, block)


def nabla_oracle(n, G, g, variance):
    def upper(l, i, j):
        val = g[i][j].partial(l + 1)
        for q in range(n):
            val = val + G[i][l][q] * g[q][j] + G[j][l][q] * g[i][q]
        return val

    def lower(l, i, j):
        val = g[i][j].partial(l + 1)
        for q in range(n):
            val = val - G[q][l][i] * g[q][j] - G[q][l][j] * g[i][q]
        return val

    return _tensor(n, 3, upper if variance == "upper" else lower)


def quadratic_term_oracle(glow, cc):
    n = len(glow)
    gc = _tensor(n, 3, lambda r, j, l: sum((glow[p][r] * cc[p][j][l] for p in range(n)), ZERO))
    half = Scalar.from_fraction(1) / 2
    return lambda i, j, q, l: sum(
        (cc[r][i][q] * gc[r][j][l] + cc[r][i][l] * gc[r][j][q] for r in range(n)), ZERO) * half


def condition_e_oracle(b, glow, cc):
    half, quad, q_tail = Scalar.from_fraction(1) / 2, quadratic_term_oracle(glow, cc), quadratic_tail(b, 0)

    def defect(i, j, q, l):
        sym_deriv = (cc[i][j][q].partial(l + 1) + cc[i][j][l].partial(q + 1)) * half
        return q_tail[i][j][q][l] - (sym_deriv - quad(i, j, q, l))

    return defect


def gc_oracle(g, c, i, j, l):
    return sum((gis * cs for gis, cs in zip(g[i], c[j][l])), ZERO)


def derivative_identity_oracle(g, c, i, j, l, m):
    val = ZERO
    for s in range(len(g)):
        val = (val + g[l][s] * c[i][j][s].partial(m + 1)
               - (c[i][l][s] - c[l][i][s]) * c[s][j][m]
               + c[l][j][s] * g[s][i].partial(m + 1))
    return val


def potemin_tail_oracle(g, c, i, j):
    """(P_2, P_1) of potemin_build at (i, j)."""
    cu = _sum(DiffPoly.jet(l + 1, 1) * cl for l, cl in enumerate(c[i][j]))
    return DiffPoly.from_scalar(g[i][j]).d_x() + cu, cu.d_x()


def det_adj_oracle(a):
    n = len(a)
    cols = range(n)
    m = [[Scalar.one() if i == j else ZERO for j in cols] for i in cols]
    for k in range(1, n + 1):
        am = [[sum((x * m[l][j] for l, x in enumerate(row) if x), ZERO) for j in cols]
              for row in a]
        c = -sum((am[i][i] for i in cols), ZERO) / k
        if k == n:
            return (-c, m) if n % 2 else (c, [[-x for x in row] for row in m])
        m = [[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(am)]


K4_COMBOS = [{"e": -1}, {"d": Scalar.from_fraction(-1) / 4}, {"c": Scalar.from_fraction(-1) / 6},
             {"b": Scalar.from_fraction(-1) / 4}, {"d": 1, "e": -5}, {"c": -1, "d": 5, "e": -15},
             {"b": 1, "c": -5, "d": 15, "e": -35}]


def k4_combo_oracle(b, glow, coeffs):
    n = b.n
    tails = {name: _tensor(n, 3, lambda i, l, j, s=s: b.entry(i + 1, l + 1, s).coefficient(
        (((j + 1, 4 - s), 1),), ())) for s, name in enumerate("edcb")}
    parts = [(tails[name], f) for name, f in coeffs.items()]
    X = _tensor(n, 3, lambda i, l, j: sum((T[i][l][j] * f for T, f in parts), ZERO))
    return _tensor(n, 3, lambda l, i, j: sum((gip * Xip[l][j] for gip, Xip in zip(glow[i], X)), ZERO))


def row_sum_oracle(row, make, order):
    return _sum(make(j, order) * m for j, m in enumerate(row, 1) if m)


def closed_ops_oracle(b):
    named = extract_named(b)
    n, k = b.n, b.k
    h = named.h + [_tensor(n, 3, lambda i, j, l: named.g[i][j].partial(l + 1))]

    def w(s, l, orders):
        return _sum(
            DiffPoly.theta(i, r) * DiffPoly.theta(j, k + s - r) * (hv * ((-1) ** (k - t) * cf))
            for r in orders for t in range(0, k + 1) if (cf := comb(k + s - t, r))
            for i in range(1, n + 1) for j in range(1, n + 1)
            if (hv := h[t][i - 1][j - 1][l - 1])
        ) * Fraction(1, 2)

    generators = [(l, s) for s in range(k + 1) for l in range(1, n + 1)]
    up = {(l, s): w(s, l, {s, k}) for l, s in generators}
    same_ = {(l, s): op for l, s in generators if (op := w(s, l, range(s + 1, k)))}
    V = [row_sum_oracle(row, DiffPoly.theta, k) for row in named.g]
    return ({(i, 0): op for i, op in enumerate(V, 1)}, up), ({}, same_)


def connection_ops_oracle(b):
    named, glow = metric_pair(b)
    n, k = b.n, b.k
    V = [row_sum_oracle(row, DiffPoly.theta, k) for row in named.g]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    def image(l, s):
        if s == k:
            return _sum(V[i - 1] * V[j - 1] * dg for i, j in pairs
                        if (dg := glow[l - 1][j - 1].partial(i)))
        gamma = flat_combination(b, s).gamma
        return _sum(V[i - 1] * DiffPoly.theta(j, s) * gv for i, j in pairs
                    if (gv := gamma[j - 1][i - 1][l - 1]))

    coords = {(i, 0): v for i, v in enumerate(V, 1)}
    thetas = {(l, s): image(l, s) for s in range(k + 1) for l in range(1, n + 1)}
    return coords, thetas


def substitute_oracle(x, coord_map=None, jet_map=None, theta_map=None):
    jm, tm = jet_map or {}, theta_map or {}

    def image(even, odd, c):
        acc = DiffPoly.from_scalar(c.subs(coord_map) if coord_map else c)
        for (i, s), e in even:
            img = jm.get((i, s))
            acc = acc * (DiffPoly.jet(i, s) if img is None else img) ** e
        for s, i in odd:
            img = tm.get((s, i))
            acc = acc * (DiffPoly.theta(i, s) if img is None else img)
        return acc

    return _sum(image(even, odd, c) for (even, odd), c in x.terms.items())


def random_polynomial_oracle(rng, n, terms=2, deg=2):
    monomials = []
    for _ in range(rng.randint(1, terms)):
        mono = Scalar.from_fraction(random_fraction(rng))
        for _ in range(rng.randint(0, deg)):
            mono = mono * Scalar.coordinate(rng.randint(1, n))
        monomials.append(mono)
    return sum(monomials, ZERO)


def random_scalar_oracle(rng, n, terms=2, deg=2):
    num = random_polynomial_oracle(rng, n, terms, deg)
    if rng.random() < 0.3:
        den = ZERO
        while den.is_zero:
            den = random_polynomial_oracle(rng, n, 1, deg)
        return num / den
    return num


# -- the differential tests ----------------------------------------------


def test_the_inputs_cover_every_degree_and_the_bench_bases():
    bs = brackets()
    assert {b.k for b in bs.values()} == {1, 2, 3, 4}
    assert sum(" | " in name and not name.startswith("constant n=") for name in bs) == 28
    assert {"nonflat2_jetpair | forward2", "canonical_k2_quadtail | product"} <= set(bs)
    assert set(JET_PAIRS) <= {name.split(" | ")[0] for name in bs}


def test_bivector_and_skewness_sums_match_the_pairwise_bodies():
    for name, b in brackets().items():
        same(bracket.bivector.__wrapped__(b), bivector_oracle(b), name)
        got, want = skewh_defects(b), skewh_oracle(b)
        assert [label for label, _ in got] == [label for label, _ in want], name
        for (label, x), (_, y) in zip(got, want):
            same(x, y, (name, label))


def test_gauss_jordan_matches_the_pairwise_body():
    checked = 0
    for name, b in brackets().items():
        g = extract_named(b).g
        n = len(g)
        aug = [g[i] + [Scalar.one() if i == j else ZERO for j in range(n)] for i in range(n)]
        inputs = [aug]
        if b.k > 1:
            try:
                base = standard_connection(b, 0).gamma
            except DegenerateMetricError:
                base = None
            if base is not None:
                inputs.append([[v - base[l][i][j] for (l, i, j), v in
                                _components(standard_connection(b, s).gamma, 3)]
                               for s in range(1, b.k)])
        for rows in inputs:
            (got, gp), (want, wp) = _gauss_jordan(rows), gauss_jordan_oracle(rows)
            assert gp == wp, name
            same_tensor(got, want, 2, name)
            checked += 1
    assert checked > 60


def test_connections_curvature_and_nabla_match_the_pairwise_bodies():
    curved = 0
    for name, b, named, glow in metric_brackets():
        n = b.n
        for s in range(b.k):
            conns = []
            for build, oracle in ((standard_connection, standard_connection_oracle),
                                  (flat_combination, flat_combination_oracle)):
                G = build.__wrapped__(b, s).gamma
                same_tensor(G, oracle(b, s), 3, (name, build.__name__, s))
                conns.append(build(b, s))
            for conn in conns:
                R = curvature(conn)
                same_tensor(R.R, curvature_oracle(n, conn.gamma), 4, (name, s))
                curved += not R.is_zero()
        conn = standard_connection(b, 0)
        same_tensor(nabla_tensor(conn, named.g, "upper"), nabla_oracle(n, conn.gamma, named.g, "upper"),
                    3, (name, "upper"))
        same_tensor(nabla_tensor(conn, glow, "lower"), nabla_oracle(n, conn.gamma, glow, "lower"),
                    3, (name, "lower"))
    assert curved >= 10


def recorded(monkeypatch, module, name):
    """Record the (args, result) of each call of module.name."""
    calls = []
    real = getattr(module, name)

    def record(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, record)
    return calls


def test_ferguson_quadratic_term_matches_the_pairwise_bodies(monkeypatch):
    labelled = recorded(monkeypatch, lowdegree, "_labelled")
    checked = 0
    for name, b, named, glow in metric_brackets():
        if b.k != 2:
            continue
        cc = named.h[0]
        term, want = _quadratic_term(glow, cc), quadratic_term_oracle(glow, cc)
        for index in product(range(b.n), repeat=4):
            same(term(*index), want(*index), (name, index))
        labelled.clear()
        ferguson_check(b)
        (defect,) = [args[3] for args, _ in labelled if args[2].endswith(" defect")]
        oracle = condition_e_oracle(b, glow, cc)
        for index in product(range(b.n), repeat=4):
            same(defect(*index), oracle(*index), (name, index))
        checked += 1
    assert checked >= 12


def test_potemin_sums_match_the_pairwise_bodies(monkeypatch):
    tensors = recorded(monkeypatch, lowdegree, "_tensor")
    labelled = recorded(monkeypatch, lowdegree, "_labelled")
    checked = 0
    for name, b, named, glow in metric_brackets():
        if b.k != 3:
            continue
        g, c, n = named.g, named.h[1], b.n
        tensors.clear()
        labelled.clear()
        potemin_check(g, c)
        (gc,) = [out for (n_, rank, fn), out in tensors if fn.__name__ == "gc_entry"]
        same_tensor(gc, _tensor(n, 3, lambda i, j, l: gc_oracle(g, c, i, j, l)), 3, name)
        (identity,) = [args[3] for args, _ in labelled if args[2].startswith("(4)")]
        for index in product(range(n), repeat=4):
            same(identity(*index), derivative_identity_oracle(g, c, *index), (name, index))
        if all(g[j][i] == g[i][j] for i, j in product(range(n), repeat=2)):
            built = potemin_build(g, c)
            for i, j in product(range(n), repeat=2):
                for s, want in zip((2, 1), potemin_tail_oracle(g, c, i, j)):
                    same(built.entry(i + 1, j + 1, s), want, (name, i, j, s))
        checked += 1
    assert checked >= 10


def test_faddeev_leverrier_and_degree_four_forms_match_the_pairwise_bodies(monkeypatch):
    tensors = recorded(monkeypatch, lowdegree, "_tensor")
    checked = 0
    for name, b in brackets().items():
        g = extract_named(b).g
        (det, adj), (wdet, wadj) = _det_adj(g), det_adj_oracle(g)
        same(det, wdet, name)
        same_tensor(adj, wadj, 2, name)
        if b.k != 4:
            continue
        glow = [[x / det for x in row] for row in adj]
        tensors.clear()
        k4_connection_fixtures(b)
        combos = [out for (n_, rank, fn), out in tensors if fn.__qualname__.endswith("combo.<locals>.entry")]
        assert len(combos) == len(K4_COMBOS)
        for got, coeffs in zip(combos, K4_COMBOS):
            same_tensor(got, k4_combo_oracle(b, glow, coeffs), 3, (name, coeffs))
        checked += 1
    assert checked == 5


def test_spectral_tables_match_the_pairwise_bodies():
    for name, b, named, glow in metric_brackets():
        for matrix, make, order in ((named.g, DiffPoly.theta, b.k), (glow, DiffPoly.jet, 2)):
            for row in matrix:
                same(_row_sum(row, make, order), row_sum_oracle(row, make, order), name)
        for ops, oracle, tables in ((_d1_closed_ops, closed_ops_oracle, lambda t: [*t[0], *t[1]]),
                                    (_d1_connection_ops, connection_ops_oracle, list)):
            got, want = tables(ops.__wrapped__(b)), tables(oracle(b))
            assert len(got) == len(want)
            for got_half, want_half in zip(got, want):
                assert got_half.keys() == want_half.keys(), name
                for v, img in want_half.items():
                    same(got_half[v], img, (name, ops.__name__, v))


def test_substitute_matches_the_term_by_term_sum():
    rng = random.Random(31)
    checked = 0
    for name, b in brackets().items():
        cmap = elementary_map(b.n, STEPS[checked % 4], rng)
        coord_map = {m + 1: cmap.inverse[m] for m in range(b.n)}
        top = max((entry.max_jet_order() for entry in b.P.values()), default=0)
        jet_map = {(l, r): _dx_upto([DiffPoly.from_scalar(cmap.inverse[l - 1])], r)
                   for l in range(1, b.n + 1) for r in range(1, top + 1)}
        for entry in b.P.values():
            same(entry.substitute(coord_map=coord_map, jet_map=jet_map),
                 substitute_oracle(entry, coord_map, jet_map), name)
        # thetas relabelled through g: odd images, some words killed by repeats
        theta_map = {(s, i): _sum(DiffPoly.theta(j, s + 1) * x for j, x in enumerate(row, 1))
                     for s in range(b.k + 1) for i, row in enumerate(extract_named(b).g, 1)}
        P = bracket.bivector(b)
        for maps in ({"theta_map": theta_map}, {"coord_map": coord_map, "jet_map": jet_map,
                                                 "theta_map": theta_map}):
            same(P.substitute(**maps), substitute_oracle(P, **maps), name)
        checked += 1
    assert checked == len(brackets())


def test_random_polynomial_makes_the_same_draws_and_values():
    """random_polynomial, whose terms are written down by key, and
    random_scalar over it, against the op-built oracles; (terms, deg) =
    (1, 1) is random_monomial's coefficient, for n = 1..4."""
    kinds = set()
    for seed in range(40):
        for n, terms, deg in ((1, 2, 2), (2, 3, 2), (3, 4, 3), *((m, 1, 1) for m in range(1, 5))):
            new, old = random.Random(seed), random.Random(seed)
            for _ in range(5):
                same(random_polynomial(new, n, terms, deg), random_polynomial_oracle(old, n, terms, deg),
                     (seed, n))
                got = random_scalar(new, n, terms, deg)
                same(got, random_scalar_oracle(old, n, terms, deg), (seed, n, "random_scalar"))
                assert new.getstate() == old.getstate()
                if (terms, deg) == (1, 1):
                    kinds.add("zero" if got.is_zero else "over a coordinate" if got._b[1] else "polynomial")
    assert kinds == {"zero", "over a coordinate", "polynomial"}
