"""The three benchmark workloads and their verdict oracle.

``setup_<workload>(dn, seed)`` returns a ``Workload`` holding one pass: a
list of ``Item``s, each a thunk computing the program's verdict on one input
and the answer known in advance.  The answers are written here by hand and
never taken from the code under test.

* ``fixture_report``: ``dnbrackets report --json`` through ``cli.main`` on
  every document in ``tests/fixtures`` plus nonflat2 under map_product, with
  the seed passed to ``--seed``.  Poisson documents exit 0 (every check
  passes); lc_k1_broken exits 1 with the Jacobi check failing.
* ``generated_jacobi``: a base bracket pushed through a seeded invertible
  rational map, then ``transform``, ``validate``, ``check_skew`` and
  ``check_jacobi``.  Skewness and Jacobi are coordinate-free, so each
  item's answer is its base's answer.
* ``dp_square``: ``apply_DP(b, apply_DP(b, a))`` is exactly zero for
  random monomials ``a`` on two Poisson brackets.

Per-item cost spans four orders of magnitude and depends on the shape of
the input (which map step, which jet and theta orders), so a pass small
enough for a run cannot average over random shapes.  The shapes of a pass
are therefore fixed and ``--seed`` draws the constants: scalings and shift
coefficients, the exponent of the forward shift, and each monomial's
rational factor.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

FIXTURES = os.path.join("tests", "fixtures")

# fixture_report: label, document, extra CLI arguments, and the expected
# (exit code, status of the Jacobi check).  Exit 0 means every check passed.
JACOBI_CHECK = "jacobi identity (D_P squares to zero)"
REPORT_DOCS = (
    ("constant_k2", "constant_k2.json", (), (0, "pass")),
    ("lc_k1", "lc_k1.json", (), (0, "pass")),
    ("lc_k1_broken", "lc_k1_broken.json", (), (1, "fail")),
    ("canonical_k2", "canonical_k2.json", (), (0, "pass")),
    ("nonflat2", "nonflat2.json", (), (0, "pass")),
    ("nonflat2_map_product", "nonflat2.json", ("--map", "map_product.json"), (0, "pass")),
)

# generated_jacobi bases: name -> (fixture, skew jet pair added at s = 0,
# Jacobi verdict).  The pair adds X to P_0^{12} and -X to P_0^{21}, which
# keeps the bracket skew; X is a product of jets u^{i,s} given as (i, s).
JACOBI_BASES = {
    "nonflat2": ("nonflat2.json", (), True),
    "canonical_k2": ("canonical_k2.json", (), True),
    "lc_k1": ("lc_k1.json", (), True),
    "constant_k2": ("constant_k2.json", (), True),
    "lc_k1_broken": ("lc_k1_broken.json", (), False),
    "nonflat2_jetpair": ("nonflat2.json", ((1, 3),), False),
    "canonical_k2_quadtail": ("canonical_k2.json", ((1, 1), (3, 1)), False),
}

# dp_square brackets; both are Poisson, so D_P^2 vanishes on every input.
DP_BASES = ("nonflat2", "canonical_k2")

SCALES = (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(3))
SHIFT_COEFFS = (Fraction(-2), Fraction(-1), Fraction(1), Fraction(1, 2), Fraction(3))
SHAPE_SEED = 0


@dataclass
class Item:
    label: str
    run: object  # () -> verdict
    expected: object
    tag: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: list
    closing: object = None  # () -> None, called once after the run


def load_fixture(cli, name: str):
    return cli.load_bracket(os.path.join(FIXTURES, name))


# ---------------------------------------------------------------------------
# fixture_report


def setup_fixture_report(dn, seed: int) -> Workload:
    cli = dn.cli
    tmp = tempfile.TemporaryDirectory(prefix="report-", dir=os.path.join("bench", "results"))
    items = []
    for label, doc, extra, expected in REPORT_DOCS:
        out = os.path.join(tmp.name, label + ".json")
        argv = ["report", os.path.join(FIXTURES, doc), "--json", out, "--seed", str(seed)]
        argv += [extra[0], os.path.join(FIXTURES, extra[1])] if extra else []

        def run(argv=argv, out=out):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            with open(out, encoding="utf-8") as fh:
                checks = json.load(fh)["checks"]
            return rc, next(c["status"] for c in checks if c["name"] == JACOBI_CHECK)

        items.append(Item("cli.report." + label, run, expected))
    return Workload(items, tmp.cleanup)


# ---------------------------------------------------------------------------
# generated_jacobi


def jacobi_base(dn, name: str):
    doc, pair, _ = JACOBI_BASES[name]
    b = load_fixture(dn.cli, doc)
    if not pair:
        return b
    x = dn.DiffPoly.one()
    for i, s in pair:
        x = x * dn.DiffPoly.jet(i, s)
    P = dict(b.P)
    P[(1, 2, 0)] = P.get((1, 2, 0), dn.DiffPoly.zero()) + x
    P[(2, 1, 0)] = P.get((2, 1, 0), dn.DiffPoly.zero()) - x
    return dn.HomogeneousBracket(n=b.n, k=b.k, P=P)


def pass_families(n: int, rng: random.Random) -> list:
    """The three elementary steps of one pass, on the last two coordinates.

    With p = n - 1 and q = n: the backward shift u_p -> u_p + c*u_q, the
    forward shift u_q -> u_q + c*u_p^e with e drawn from {1, 2}, and the
    product u_q -> u_q*u_p.  For nonflat2 the backward shift turns the
    monomial denominators u1^m into polynomials, which is what makes the
    gcd path slow; it is kept in every pass.
    """
    p, q = n - 1, n
    return [("shift", p, q, 1), ("shift", q, p, rng.choice((1, 2))), ("product", q, p)]


def build_map(dn, n: int, family: tuple, rng: random.Random):
    """A CoordinateMap: a diagonal scaling followed by one elementary step.

    ("shift", i, j, e) is u_i -> u_i + c*u_j^e and ("product", i, j) is
    u_i -> u_i*u_j; c and the scaling factors are drawn from rng.
    """
    S = dn.Scalar
    u = [S.coordinate(i) for i in range(1, n + 1)]
    scale = [rng.choice(SCALES) for _ in range(n)]
    step_f, step_i = list(u), list(u)
    if family[0] == "shift":
        _, i, j, e = family
        f = rng.choice(SHIFT_COEFFS) * u[j - 1] ** e
        step_f[i - 1] = u[i - 1] + f
        step_i[i - 1] = u[i - 1] - f
    else:
        _, i, j = family
        step_f[i - 1] = u[i - 1] * u[j - 1]
        step_i[i - 1] = u[i - 1] / u[j - 1]
    # forward: new coordinates in the old ones (scale first, then the step);
    # inverse: old coordinates in the new ones (undo the step, then the scale).
    scaled = {m + 1: a * x for m, (a, x) in enumerate(zip(scale, u))}
    unstep = {m + 1: g for m, g in enumerate(step_i)}
    forward = [g.subs(scaled) for g in step_f]
    inverse = [(x / a).subs(unstep) for a, x in zip(scale, u)]
    return dn.CoordinateMap(n=n, forward=forward, inverse=inverse), scale


def family_label(family: tuple) -> str:
    if family[0] == "shift":
        _, i, j, e = family
        return f"u{i}->u{i}+c*u{j}" + (f"^{e}" if e > 1 else "")
    return f"u{family[1]}->u{family[1]}*u{family[2]}"


def setup_generated_jacobi(dn, seed: int) -> Workload:
    """One pass: every base under each of its three pass families."""
    rng = random.Random(seed)
    items = []
    for name, (_, _, poisson) in JACOBI_BASES.items():
        b = jacobi_base(dn, name)
        for family in pass_families(b.n, rng):
            cmap, scale = build_map(dn, b.n, family, rng)

            def run(b=b, cmap=cmap):
                moved = dn.transform(b, cmap)
                if dn.validate(moved):
                    return "invalid"
                if not dn.check_skew(moved):
                    return "not skew"
                return dn.check_jacobi(moved)

            label = f"{name} | {family_label(family)} | scale {' '.join(map(str, scale))}"
            items.append(Item(label, run, poisson, {"base": name, "map": family_label(family)}))
    return Workload(items)


# ---------------------------------------------------------------------------
# dp_square


def monomial_stratum(a) -> tuple:
    """(jet count, theta count) of a monomial."""
    ((even, odd), _), = a.terms.items()
    return sum(e for _, e in even), len(odd)


def setup_dp_square(dn, seed: int) -> Workload:
    """One pass: per bracket, one random_monomial draw in every stratum.

    The monomials come from random_monomial(max_degu=2) driven by the fixed
    SHAPE_SEED, keeping a draw only while its stratum (monomial_stratum) is
    empty.  The cost of D_P^2 depends on the jet and theta orders of its
    input far more than on anything else, and a pass of 18 inputs is too
    small to average that out, so the shapes are the same for every seed:
    --seed draws a nonzero rational factor for each monomial.
    """
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    strata = [(j, t) for j in range(3) for t in range(3)]
    items = []
    for name in DP_BASES:
        b = load_fixture(dn.cli, name + ".json")
        # warm-up: caches the variational pair on the bracket
        if not dn.check_jacobi(b):
            raise RuntimeError(f"dp_square bracket {name} is not Poisson")
        drawn = {}
        while len(drawn) < len(strata):
            a = dn.sampling.random_monomial(shapes, b.n, b.k, max_degu=2)
            if not a.is_zero:
                drawn.setdefault(monomial_stratum(a), a)
        for key in strata:
            a = drawn[key] * rng.choice(SHIFT_COEFFS)

            def run(b=b, a=a):
                return dn.apply_DP(b, dn.apply_DP(b, a)).is_zero

            items.append(Item(f"{name} | {a}", run, True, {"base": name}))
    return Workload(items)
