"""The spectral rows of report as fused defects, against the comparisons they replace.

cmd_spectral decides each identity by one kernel call that sums one side
and the other side negated (spectral.d1_sum, spectral.homotopy_defect).
Here every row is checked against the unfused form, which builds both
sides as DiffPolys and compares them: on the correct tables, and with one
image-table entry corrupted, which must make its row fail with the
unfused code's witness.
"""

import argparse
import random

import pytest

from dnbrackets import cli
from dnbrackets.cli import load_bracket
from dnbrackets.diffpoly import _Terms
from dnbrackets.sampling import random_monomial
from dnbrackets.spectral import (
    D_minus1_closed,
    _d1_closed_ops,
    _d1_connection_ops,
    _d1_images,
    _d1_spectral_ops,
    _homotopy_images,
    d1_as_connection,
    d1_spectral,
    d1_split,
    d1_sum,
    homotopy,
    homotopy_defect,
    project_B,
    spanning_monomials,
)

from conftest import fixture_path

ARGS = argparse.Namespace(seed=11, max_degu=3)


def unfused_rows(b, args=ARGS) -> list:
    """(name, status, witness) of each cmd_spectral row, every identity
    decided by building both sides and comparing them."""
    span = spanning_monomials(b.n, b.k)
    split = [d1_split(b, x) for x in span]

    def agreement(lhs, rhs):
        for idx, x in enumerate(span):
            if (left := lhs(idx)) != (right := rhs(idx)):
                return "fail", f"on {x}: {left} != {right}"
        return "pass", f"{len(span)} monomials"

    def graded():
        for (up, same), x in zip(split, span):
            if max(x.degrees("deg_theta"), default=0) > 2:
                continue
            a11, up_same = d1_split(b, up)
            same_up, a00 = d1_split(b, same)
            mixed = up_same + same_up
            if not a11.is_zero:
                return "fail", f"(d1^(1))^2 on {x}: {a11}"
            if not mixed.is_zero:
                return "fail", f"anticommutator on {x}: {mixed}"
            if not a00.is_zero:
                return "fail", f"(d1^(0))^2 on {x}: {a00}"
        return "pass", None

    def homotopy_identity():
        rng, count = random.Random(args.seed), 0
        while count < 100:
            a = random_monomial(rng, b.n, b.k, max_degu=args.max_degu)
            if a.is_zero:
                continue
            count += 1
            lowered = D_minus1_closed(b, a)
            if D_minus1_closed(b, homotopy(b, a)) + homotopy(b, lowered) != a - project_B(a, b.k):
                return "fail", f"on {a}"
            if not D_minus1_closed(b, lowered).is_zero:
                return "fail", f"D_-1^2 != 0 on {a}"
        return "pass", f"{count} random monomials, seed {args.seed}"

    return [
        ("d_1 oracle pair (spectral vs closed form)",
         *agreement(lambda i: d1_spectral(b, span[i]), lambda i: split[i][0] + split[i][1])),
        ("d_1 theta^k-raising part via connections",
         *agreement(lambda i: split[i][0], lambda i: d1_as_connection(b, span[i]))),
        ("graded identities of d_1", *graded()),
        ("homotopy identity and D_-1^2 = 0", *homotopy_identity()),
    ]


# the thetas' table of b that each corruption changes
TABLES = {
    "homotopy": lambda b: _homotopy_images(b)[1],
    "spectral": lambda b: _d1_images(b, _d1_spectral_ops)[1],
    "connection": lambda b: _d1_images(b, _d1_connection_ops)[1],
    "up": lambda b: _d1_images(b, _d1_closed_ops, 0)[1],
    "same": lambda b: _d1_images(b, _d1_closed_ops, 1)[1],
}


def corrupted(name: str, table: str | None):
    """A fresh bracket from the fixture name, with one entry of the given
    table negated: the last theta_l^s, in the order of s then l, with a
    nonzero image, for s up to k (above k for the homotopy, whose only
    images are there)."""
    b = load_bracket(fixture_path(name + ".json"))
    if table is not None:
        images = TABLES[table](b)
        orders = range(b.k + 1, b.k + 3) if table == "homotopy" else range(b.k + 1)
        v = [v for s in orders for v in ((l, s) for l in range(1, b.n + 1)) if images[v]][-1]
        images[v] = _Terms((key, -c) for key, c in images[v])
    return b


def rows(results) -> list:
    return [(r.name, r.status, r.witness) for r in results]


# the row that each corruption must make fail, and how its witness starts;
# canonical_k2's graded identities hold with any one entry of the keeping
# half negated, so that half is corrupted on nonflat2 alone
FAILS = {
    "homotopy": ("homotopy identity and D_-1^2 = 0", "on "),
    "spectral": ("d_1 oracle pair (spectral vs closed form)", "on "),
    "connection": ("d_1 theta^k-raising part via connections", "on "),
    "up": ("graded identities of d_1", "(d1^(1))^2 on "),
    "same": ("graded identities of d_1", "anticommutator on "),
}


@pytest.mark.parametrize("name, table", [
    *((name, table) for name in ("canonical_k2", "nonflat2") for table in [*FAILS][:4]),
    ("nonflat2", "same"),
])
def test_a_corrupted_table_fails_its_row_with_the_unfused_witness(name, table):
    got = rows(cli.cmd_spectral(corrupted(name, table), ARGS))
    assert got == unfused_rows(corrupted(name, table))
    row, witness = FAILS[table]
    assert [(s, w.startswith(witness)) for n, s, w in got if n == row] == [("fail", True)]


def test_correct_tables_pass_every_row():
    for name in ("canonical_k2", "nonflat2"):
        got = rows(cli.cmd_spectral(corrupted(name, None), ARGS))
        assert got == unfused_rows(corrupted(name, None))
        assert {s for _, s, _ in got} == {"pass"}


@pytest.mark.parametrize("table", [None, *TABLES])
@pytest.mark.parametrize("name", ["canonical_k2", "nonflat2"])
def test_each_fused_defect_is_the_difference_of_its_sides(name, table):
    """On every spanning monomial each fused d_1 defect equals the difference
    of the two sides built apart, so it is zero exactly when they compare
    equal; so is the homotopy defect on the row's 100 samples."""
    b = corrupted(name, table)
    failing = 0
    for x in spanning_monomials(b.n, b.k):
        up, same = d1_split(b, x)
        pairs = [(d1_sum(b, [("spectral", x), ("up", x, -1), ("same", x, -1)]), d1_spectral(b, x), up + same),
                 (d1_sum(b, [("connection", x), ("up", x, -1)]), d1_as_connection(b, x), up)]
        if max(x.degrees("deg_theta"), default=0) <= 2:
            pairs.append((d1_sum(b, [("same", up), ("up", same)]), d1_split(b, up)[1] + d1_split(b, same)[0], 0))
        for defect, left, right in pairs:
            assert defect == left - right
            assert bool(defect) == (left != right)
            failing += bool(defect)
    rng, count = random.Random(ARGS.seed), 0
    while count < 100:
        a = random_monomial(rng, b.n, b.k, max_degu=3)
        if a.is_zero:
            continue
        count += 1
        defect, lowered = homotopy_defect(b, a)
        assert lowered == D_minus1_closed(b, a)
        left = D_minus1_closed(b, homotopy(b, a)) + homotopy(b, lowered)
        assert defect == left - (a - project_B(a, b.k))
        failing += bool(defect)
    assert bool(failing) == (table is not None)
