"""Command-line front end.

Reads bracket definitions (and coordinate maps) from JSON documents, runs
the requested checks, prints a text report and optionally a JSON mirror.

Exit codes: 0 when every executed check passes, 1 when at least one check
fails, 2 on malformed input (schema, parse, or file problems), including a
dimension above MAX_DIMENSION or a degree above MAX_DEGREE, a document that
is not UTF-8, JSON or parentheses nested too deeply, an expression with an
integer of more than grammar.MAX_DIGITS digits, a spectral or report run
whose spanning monomials would number more than MAX_SPAN, a connections,
curvature, flatness, lowdegree or report run whose k n^5 exceeds
MAX_TENSOR, a transform or report --map that does not load or does not
match the bracket, and a --json path that cannot be written (a missing or
read-only directory, or a path that is a directory); each of these is
found before any check runs.  A --max-degu outside 0..MAX_DEGU is a usage
error, which also exits 2.

Every command returns lowdegree.ConditionResult rows.  transform on a
bracket that validate rejects returns one "transform" fail row naming the
first problem, and transforms nothing.  report on such a bracket gives its
connections, flatness, lowdegree and spectral suites one skip row each,
with that problem as the witness, and after a singular metric's
"connections computed" fail row the last three the same with its witness.

Bracket document schema::

    {
      "dimension": 2,
      "degree": 3,                           # optional for canonical_k2 (2) / potemin (3)
      "coordinates": ["u1", "u2"],          # optional, must match u1..un
      "construction": "raw",                 # raw | canonical_k2 | potemin
      "entries": [ {"s": 3, "i": 1, "j": 1, "expr": "1"}, ... ]   # raw
      "metric":  [["...", ...], ...],        # canonical_k2 / potemin
      "tail":    [[[...], ...], ...]         # potemin: tail[i][j][l]
    }

Coordinate map document schema::

    { "dimension": 2, "forward": ["u1", "u1*u2"], "inverse": ["u1", "u2/u1"] }

Expressions use the shared grammar: coordinates u3, jets u3_2, integers,
rationals, + - * / ^ and parentheses.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import asdict

from .bracket import (
    CoordinateMap,
    HomogeneousBracket,
    _components,
    extract_named,
    skew_defects,
    skewh_defects,
    transform,
    validate,
)
from .connections import (
    _bracket_curvature,
    c_matrix,
    flat_combination,
    genericity,
    standard_connection,
)
from .diffpoly import DiffPoly
from .errors import DegenerateMetricError, ParseError, PreconditionError
from .grammar import parse_expression
from .jacobi import _first_defect
from .lowdegree import (
    ConditionResult,
    _charge_setup,
    _condition,
    _timed,
    _torsion_labelled,
    canonical_k2,
    dn_check,
    ferguson_check,
    k4_connection_fixtures,
    potemin_build,
    potemin_check,
)
from .sampling import random_monomial
from .spectral import (
    D_minus1_closed,
    d1_as_connection,
    d1_closed,
    d1_spectral,
    d1_split,
    d1_sum,
    _span_size,
    homotopy_defect,
    spanning_monomials,
)

# Bounds on a document's dimension and degree, and on --max-degu.  Every
# worked example has n <= 4 and k <= 3, and every spot check uses at most 3
# jets; the bounds keep a mistyped or hostile input from making the checks
# run for hours.
MAX_DIMENSION = 32
MAX_DEGREE = 16
MAX_DEGU = 32

# Bound on the spanning monomials that spectral and report build for the d_1
# rows, 1 + n + g + C(g, 2) + C(g, 3) for g = n(k + 1): far above the 303 of
# the largest worked example (canonical_k2, n = 4, k = 2).  Constant
# brackets with 85,409 (n = 8, k = 9) and 85,417 (n = 16, k = 4) of them
# took 2.2 s and 2.5 s of CPU in spectral at a peak of 52 MB (Python 3.11),
# while n = 32, k = 16 within the bounds above would build 26.8 million.
MAX_SPAN = 100_000

# Bound on k n^5, the order of the Scalar products that the tensor suites
# make: the curvature of a connection takes about n^5 and flatness 2k
# curvatures.  Constant brackets just below it (n = 14, k = 3; n = 13,
# k = 5; n = 18, k = 1) took at most 2.1 s of connections, curvature,
# flatness or lowdegree and 4.4 s of report (2 CPUs, Python 3.11), while
# n = 32 took 20.9 s of report at k = 1 and over 120 s of flatness at k = 16.
MAX_TENSOR = 2_000_000

# The commands each bound covers, its count from n and k, and what it counts
_BOUNDS = (
    (("spectral", "report"), _span_size, MAX_SPAN, "{} spanning monomials"),
    (("connections", "curvature", "flatness", "lowdegree", "report"), lambda n, k: k * n**5, MAX_TENSOR,
     "k*n^5 = {}"),
)


class InputError(Exception):
    """Schema or parse failure in an input document."""


def _first_problem(problems: list, describe=str) -> tuple:
    """("pass", None) when problems is empty, else "fail" with the first one described."""
    return ("fail", describe(problems[0])) if problems else ("pass", None)


def _skew_witness(defect: tuple) -> str:
    """The text of a skew_defects entry (i, j, t, value)."""
    i, j, t, value = defect
    return f"P_{t}^{{{i}{j}}} defect: {value}"


def _defect_free(span: list, defect, sides) -> tuple:
    """Pass, counting the monomials, when defect(x) is zero for every x of span;
    else fail on the first monomial where it is not, with the two sides(x)."""
    for x in span:
        if defect(x):
            left, right = sides(x)
            return "fail", f"on {x}: {left} != {right}"
    return "pass", f"{len(span)} monomials"


# ---------------------------------------------------------------------------
# input documents


def _parse_entry_expr(text, where: str) -> DiffPoly:
    if not isinstance(text, str):
        raise InputError(f"{where}: expression must be a string")
    try:
        return parse_expression(text)
    except ParseError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _scalar_cell(cell, where: str):
    poly = _parse_entry_expr(cell, where)
    if not poly.is_scalar():
        raise InputError(f"{where}: jets are not allowed here")
    return poly.to_scalar()


def _scalar_matrix(rows, n: int, where: str) -> list:
    if not (isinstance(rows, list) and len(rows) == n):
        raise InputError(f"{where}: expected {n} rows")
    out = []
    for r, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == n):
            raise InputError(f"{where}: row {r + 1} must have {n} entries")
        out.append(
            [_scalar_cell(cell, f"{where}[{r + 1}][{c + 1}]") for c, cell in enumerate(row)]
        )
    return out


def _load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    return doc


def _integer(doc: dict, key: str, path: str) -> int:
    """doc[key] when it is a JSON integer; a float, boolean or string is rejected."""
    value = doc.get(key)
    if type(value) is not int:
        raise InputError(f"{path}: missing or bad '{key}'")
    return value


def _dimension(doc: dict, path: str) -> int:
    n = _integer(doc, "dimension", path)
    if n < 1:
        raise InputError(f"{path}: dimension must be >= 1")
    if n > MAX_DIMENSION:
        raise InputError(f"{path}: dimension {n} exceeds the limit {MAX_DIMENSION}")
    return n


def load_bracket(path: str) -> HomogeneousBracket:
    doc = _load_document(path)
    n = _dimension(doc, path)
    names = doc.get("coordinates")
    if names is not None and names != [f"u{i}" for i in range(1, n + 1)]:
        raise InputError(f"{path}: coordinates must be u1..u{n} in order")
    construction = doc.get("construction", "raw")
    fixed_degree = {"canonical_k2": 2, "potemin": 3}.get(construction)
    if fixed_degree is not None and "degree" in doc:
        if _integer(doc, "degree", path) != fixed_degree:
            raise InputError(
                f"{path}: bad 'degree': a {construction} bracket has degree {fixed_degree}"
            )

    if construction == "canonical_k2":
        g = _scalar_matrix(doc.get("metric"), n, f"{path}: metric")
        try:
            return canonical_k2(g)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc
    if construction == "potemin":
        g = _scalar_matrix(doc.get("metric"), n, f"{path}: metric")
        tail = doc.get("tail")
        if not (isinstance(tail, list) and len(tail) == n):
            raise InputError(f"{path}: tail must be an n x n x n array")
        c = [_scalar_matrix(block, n, f"{path}: tail[{i + 1}]") for i, block in enumerate(tail)]
        try:
            return potemin_build(g, c)
        except (ValueError, DegenerateMetricError) as exc:
            raise InputError(f"{path}: {exc}") from exc
    if construction != "raw":
        raise InputError(f"{path}: unknown construction {construction!r}")

    k = _integer(doc, "degree", path)
    if k > MAX_DEGREE:
        raise InputError(f"{path}: degree {k} exceeds the limit {MAX_DEGREE}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise InputError(f"{path}: 'entries' must be a list")
    P = {}
    for idx, entry in enumerate(entries):
        where = f"{path}: entries[{idx}]"
        if isinstance(entry, dict):
            try:
                s, i, j, expr = entry["s"], entry["i"], entry["j"], entry["expr"]
            except KeyError as exc:
                raise InputError(f"{where}: missing key {exc}") from None
        elif isinstance(entry, list) and len(entry) == 4:
            s, i, j, expr = entry
        else:
            raise InputError(f"{where}: expected [s, i, j, expr] or an object")
        if not all(type(x) is int for x in (s, i, j)):  # a boolean is not an index
            raise InputError(f"{where}: s, i, j must be integers")
        if not (0 <= s <= k and 1 <= i <= n and 1 <= j <= n):
            raise InputError(f"{where}: indices out of range for n={n}, k={k}")
        if (i, j, s) in P:
            raise InputError(f"{where}: duplicate entry for (s={s}, i={i}, j={j})")
        P[(i, j, s)] = _parse_entry_expr(expr, where)
    try:
        return HomogeneousBracket(n=n, k=k, P=P)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_map(path: str, n: int) -> CoordinateMap:
    doc = _load_document(path)
    if "dimension" in doc and _dimension(doc, path) != n:
        raise InputError(f"{path}: map dimension does not match the bracket")

    def side(key):
        rows = doc.get(key)
        if not (isinstance(rows, list) and len(rows) == n):
            raise InputError(f"{path}: '{key}' must list {n} expressions")
        return [_scalar_cell(cell, f"{path}: {key}[{i + 1}]") for i, cell in enumerate(rows)]

    cmap = CoordinateMap(n=n, forward=side("forward"), inverse=side("inverse"))
    problems = cmap.check_inverse()
    if problems:
        raise InputError(f"{path}: " + "; ".join(problems))
    return cmap


# ---------------------------------------------------------------------------
# commands


def cmd_validate(b: HomogeneousBracket, args) -> list:
    return [
        _timed("well-formed (homogeneity, indices)", lambda: _first_problem(validate(b))),
        _timed("skew-symmetry (operator adjoint)", lambda: _first_problem(
            skew_defects(b), _skew_witness
        )),
        _timed("skew-symmetry (named coefficients)", lambda: _first_problem(
            skewh_defects(b), lambda d: f"{d[0]}: {d[1]}"
        )),
    ]


def cmd_jacobi(b: HomogeneousBracket, args) -> list:
    results = cmd_validate(b, args)

    def run():
        if any(r.status == "fail" for r in results):
            return "skip", "preconditions failed"
        if (first := _first_defect(b)) is None:
            return "pass", None
        label, residual = first
        key = min(residual.terms)
        monomial = DiffPoly({key: residual.terms[key]})
        return "fail", f"{label} contains {monomial}"

    return results + [_timed("jacobi identity (D_P squares to zero)", run)]


def _print_connection(conn, name: str) -> None:
    print(f"  {name}:")
    shown = [(index, v) for index, v in _components(conn.gamma, 3) if not v.is_zero]
    for (l, i, j), v in shown:
        print(f"    {name}^{l + 1}_{{{i + 1}{j + 1}}} = {v}")
    if not shown:
        print("    0")


def cmd_connections(b: HomogeneousBracket, args) -> list:
    cm = c_matrix(b.k)
    for title, rows in ((f"c matrix (k = {b.k}):", cm.c), ("inverse:", cm.cinv)):
        print(title)
        for row in rows:
            print("  " + "  ".join(str(x) for x in row))

    def build():
        try:
            for s in range(b.k):  # the bracket caches every connection built here
                flat_combination(b, s)
        except DegenerateMetricError as exc:
            return "fail", str(exc)
        return "pass", None

    results = [_timed("connections computed", build)]
    if results[0].status == "fail":
        return results
    print("standard connections:")
    for s in range(b.k):
        _print_connection(standard_connection(b, s), f"Gamma_({s})")
    print("flat combinations:")
    for s in range(b.k):
        _print_connection(flat_combination(b, s), f"Gamma_[{s}]")
    return results + [
        _condition("Gamma_(0) torsionless", _torsion_labelled(standard_connection(b, 0))),
        _timed("affine span dimension", lambda: ("pass", f"genericity = {genericity(b)}")),
    ]


def _curvature_report(b: HomogeneousBracket, flat: bool, s: int,
                      expect_flat: bool) -> ConditionResult:
    """Report the curvature of Gamma_[s] (flat) or Gamma_(s)."""
    name = f"Gamma_[{s}]" if flat else f"Gamma_({s})"

    def run():
        comps = _bracket_curvature(b, flat, s).nonzero_components()
        for (l, t, i, j), comp in comps[:8]:
            print(f"  R({name})^{l + 1}_{{{t + 1},{i + 1},{j + 1}}} = {comp}")
        if len(comps) > 8:
            print(f"  ... {len(comps) - 8} more nonzero components")
        if not comps:
            print(f"  R({name}) = 0")
            return "pass", None
        (l, t, i, j), comp = comps[0]
        witness = f"R^{l + 1}_{{{t + 1},{i + 1},{j + 1}}} = {comp}"
        if expect_flat:
            return "fail", witness
        return "pass", f"nonzero curvature reported: {witness}"

    return _timed(f"curvature of {name}" + (" vanishes" if expect_flat else ""), run)


def cmd_curvature(b: HomogeneousBracket, args) -> list:
    if args.s is not None and not 0 <= args.s <= b.k - 1:
        raise InputError(f"--s {args.s}: index must lie in 0..{b.k - 1}")
    ss = range(b.k) if args.s is None else [args.s]
    return [_curvature_report(b, args.which != "std", s, expect_flat=False) for s in ss]


def cmd_flatness(b: HomogeneousBracket, args) -> list:
    """Flatness suite: every binomial combination of the standard
    connections must be flat; standard-connection curvature is reported
    for information."""
    return [_curvature_report(b, flat, s, flat) for flat in (True, False) for s in range(b.k)]


def cmd_transform(b: HomogeneousBracket, args) -> list:
    """args.map is the CoordinateMap that main loaded from --map, or None."""
    if not (cmap := args.map):
        return [ConditionResult("transform", "fail", "--map FILE is required")]
    if problems := validate(b):  # transform would take d_x up to the entries' jet order
        return [ConditionResult("transform", "fail", f"bracket is not well-formed: {problems[0]}")]
    moved = transform(b, cmap)
    print("transformed bracket entries:")
    for (i, j, s) in sorted(moved.P, key=lambda t: (-t[2], t[0], t[1])):
        print(f"  P_{s}^{{{i}{j}}} = {moved.P[(i, j, s)]}")
    results = [
        _timed("transformed bracket well-formed", lambda: _first_problem(validate(moved))),
        _timed("skewness preserved", lambda: _first_problem(skew_defects(moved), _skew_witness)),
    ]

    def roundtrip():
        back = transform(moved, cmap.inverted())
        for i, j, s in set(back.P) | set(b.P):
            if (lhs := back.entry(i, j, s)) != (rhs := b.entry(i, j, s)):
                return "fail", f"P_{s}^{{{i}{j}}}: {lhs} != {rhs}"
        return "pass", None

    return results + [_timed("round-trip recovers the original", roundtrip)]


def cmd_lowdegree(b: HomogeneousBracket, args) -> list:
    if b.k == 1:
        return dn_check(b)
    if b.k == 2:
        return ferguson_check(b)
    if b.k == 3:
        t0 = time.perf_counter()
        named = extract_named(b)
        reason = "bracket is not in the jet-linear normal form"
        try:
            rebuilt = potemin_build(named.g, named.h[1])
        except (ValueError, DegenerateMetricError) as exc:
            rebuilt, reason = None, str(exc)
        if rebuilt != b:
            return [ConditionResult("degree-3 normal form", "skip", reason, time.perf_counter() - t0)]
        return _charge_setup(t0, potemin_check(named.g, named.h[1]))  # and the normal-form test
    if b.k == 4:
        return k4_connection_fixtures(b)
    return [ConditionResult("low-degree conditions", "skip", f"no classification for k={b.k}")]


def cmd_spectral(b: HomogeneousBracket, args) -> list:
    """The d_1 rows, then the homotopy row, each identity one exact defect
    (d1_sum, homotopy_defect); only a failure builds both sides apart."""
    results: list = []
    t0 = time.perf_counter()
    try:
        span = spanning_monomials(b.n, b.k)
        results.append(_timed("d_1 oracle pair (spectral vs closed form)", lambda: _defect_free(
            span, lambda x: d1_sum(b, [("spectral", x), ("up", x, -1), ("same", x, -1)]),
            lambda x: (d1_spectral(b, x), d1_closed(b, x)),
        )))
        results.append(_timed("d_1 theta^k-raising part via connections", lambda: _defect_free(
            span, lambda x: d1_sum(b, [("connection", x), ("up", x, -1)]),
            lambda x: (d1_split(b, x)[0], d1_as_connection(b, x)),
        )))

        def graded():
            for x in span:
                if max(x.degrees("deg_theta"), default=0) > 2:
                    continue
                up, same = d1_split(b, x)
                if a11 := d1_sum(b, [("up", up)]):
                    return "fail", f"(d1^(1))^2 on {x}: {a11}"
                if mixed := d1_sum(b, [("same", up), ("up", same)]):
                    return "fail", f"anticommutator on {x}: {mixed}"
                if a00 := d1_sum(b, [("same", same)]):
                    return "fail", f"(d1^(0))^2 on {x}: {a00}"
            return "pass", None

        results.append(_timed("graded identities of d_1", graded))
    except PreconditionError as exc:  # raised by the first d_1 call, before any check is recorded
        results.append(ConditionResult("d_1 identities", "fail", str(exc), time.perf_counter() - t0))

    def homotopy_identity():
        rng = random.Random(args.seed)
        count = 0
        while count < 100:
            a = random_monomial(rng, b.n, b.k, max_degu=args.max_degu)
            if a.is_zero:
                continue
            count += 1
            defect, lowered = homotopy_defect(b, a)
            if defect:
                return "fail", f"on {a}"
            if not D_minus1_closed(b, lowered).is_zero:
                return "fail", f"D_-1^2 != 0 on {a}"
        return "pass", f"{count} random monomials, seed {args.seed}"

    return results + [_timed("homotopy identity and D_-1^2 = 0", homotopy_identity)]


def cmd_report(b: HomogeneousBracket, args) -> list:
    results = cmd_jacobi(b, args)
    # these suites need a well-formed bracket, and all but the first its
    # connections, which a singular metric lacks
    gate = results[0]
    suites = {"connections": cmd_connections, "flatness": cmd_flatness,
              "lowdegree": cmd_lowdegree, "spectral": cmd_spectral}
    for name, suite in suites.items():
        if gate.status == "fail":
            results.append(ConditionResult(name, "skip", gate.witness))
            continue
        results += (rows := suite(b, args))
        if suite is cmd_connections:
            gate = rows[0]
    if args.map:
        results += cmd_transform(b, args)
    return results


COMMANDS = {
    "validate": cmd_validate,
    "jacobi": cmd_jacobi,
    "connections": cmd_connections,
    "curvature": cmd_curvature,
    "flatness": cmd_flatness,
    "transform": cmd_transform,
    "lowdegree": cmd_lowdegree,
    "spectral": cmd_spectral,
    "report": cmd_report,
}


# ---------------------------------------------------------------------------
# entry point


def _render(results: list) -> None:
    width = max((len(r.name) for r in results), default=10)
    print()
    for r in results:
        line = f"{r.name:<{width}}  {r.status.upper():<4}  {r.seconds:8.3f}s"
        if r.witness:
            line += f"  {r.witness}"
        print(line)
    n = {status: sum(r.status == status for r in results) for status in ("pass", "fail", "skip")}
    print(f"\n{n['pass']} passed, {n['fail']} failed, {n['skip']} skipped")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dnbrackets",
        description="Checks for homogeneous local Poisson brackets.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "bracket",
        help=f"bracket JSON document (dimension at most {MAX_DIMENSION}, "
        f"degree at most {MAX_DEGREE}; for spectral and report at most {MAX_SPAN} "
        "spanning monomials, 1 + n + g + C(g,2) + C(g,3) for g = n(k+1); for "
        f"connections, curvature, flatness, lowdegree and report k*n^5 at most {MAX_TENSOR})",
    )
    parser.add_argument("--map", help="coordinate map JSON document")
    parser.add_argument("--which", choices=["std", "flat"], default="flat",
                        help="connection family for the curvature command")
    parser.add_argument("--s", type=int, default=None,
                        help="connection index (default: all)")
    parser.add_argument("--json", dest="json_path",
                        help="write a machine-readable report to this path")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized spot checks")
    parser.add_argument("--max-degu", dest="max_degu", type=int, default=3,
                        choices=range(MAX_DEGU + 1), metavar="N",
                        help=f"jet-count bound for randomized monomials, 0 to {MAX_DEGU}")
    args = parser.parse_args(argv)

    if args.json_path:  # before any check runs, and without creating or truncating the file
        folder = os.path.dirname(args.json_path) or "."
        if os.path.isdir(args.json_path):
            problem = "is a directory"
        elif not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            problem = f"{folder} is not a writable directory"
        else:
            problem = None
        if problem:
            print(f"output error: {args.json_path}: {problem}", file=sys.stderr)
            return 2
    try:
        b = load_bracket(args.bracket)
        if args.map and args.command in ("transform", "report"):
            args.map = load_map(args.map, b.n)
        for commands, size, limit, what in _BOUNDS:
            if args.command in commands and (count := size(b.n, b.k)) > limit:
                raise InputError(f"{args.bracket}: dimension {b.n} and degree {b.k} give "
                                 f"{what.format(count)}, above the limit {limit}")
        results = COMMANDS[args.command](b, args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateMetricError, PreconditionError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 1

    _render(results)
    code = 0 if all(r.status != "fail" for r in results) else 1
    if args.json_path:
        payload = {
            "command": args.command,
            "bracket": args.bracket,
            "checks": [{**asdict(r), "seconds": round(r.seconds, 6)} for r in results],
            "exit_code": code,
        }
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
