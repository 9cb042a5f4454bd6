"""Command-line interface: exit codes, reports, and input validation."""

import argparse
import ast
import glob
import json
import os
import sys
import time

import pytest

from dnbrackets import cli, connections, jacobi, lowdegree, spectral
from dnbrackets.bracket import CoordinateMap, _cached, skew_defects, transform, validate
from dnbrackets.cli import (
    MAX_DEGREE, MAX_DEGU, MAX_DIMENSION, MAX_SPAN, MAX_TENSOR, load_bracket, load_map, main,
)
from dnbrackets.diffpoly import DiffPoly
from dnbrackets.errors import PreconditionError
from dnbrackets.lowdegree import ConditionResult
from dnbrackets.scalar import parse_scalar

from conftest import fixture_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_good_document(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("nonflat2.json"))
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_flatness_worked_example(capsys):
    code, out, _ = run(capsys, "flatness", fixture_path("nonflat2.json"))
    assert code == 0
    assert "R(Gamma_[1]) = 0" in out
    assert "R(Gamma_[2]) = 0" in out
    # the two higher standard connections stay visibly curved
    assert "R(Gamma_(1))^2_{1,1,2} = (-4/9)/(u1^2)" in out
    assert "R(Gamma_(2))^1_{2,1,2} = -8/9" in out


def test_jacobi_failure_gives_exit_one_and_witness(capsys):
    code, out, _ = run(capsys, "jacobi", fixture_path("lc_k1_broken.json"))
    assert code == 1
    assert "FAIL" in out
    assert "contains" in out  # a concrete nonzero monomial is shown


def test_jacobi_pass(capsys):
    code, out, _ = run(capsys, "jacobi", fixture_path("lc_k1.json"))
    assert code == 0


def test_connections_constant_bracket_prints_zeros(capsys):
    code, out, _ = run(capsys, "connections", fixture_path("constant_k2.json"))
    assert code == 0
    assert "Gamma_(0):" in out and "Gamma_[1]:" in out
    assert "genericity = 0" in out


def test_curvature_specific_connection(capsys):
    code, out, _ = run(
        capsys, "curvature", fixture_path("nonflat2.json"), "--which", "std", "--s", "1"
    )
    assert code == 0
    assert "R(Gamma_(1))" in out


def test_curvature_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "curvature", fixture_path("nonflat2.json"), "--s", "7"
    )
    assert code == 2
    assert "0..2" in err


def test_transform_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "transform",
        fixture_path("lc_k1.json"),
        "--map",
        fixture_path("map_product.json"),
    )
    assert code == 0
    assert "round-trip recovers the original" in out


def test_transform_without_map_fails(capsys):
    code, out, _ = run(capsys, "transform", fixture_path("lc_k1.json"))
    assert code == 1


# P_0^{12} of a short document with a deep jet -> its weight, which makes it inhomogeneous
DEEP_ENTRIES = {"u1*u1_80": 80, "u1*u2*u1_1*u2_1*u1_2*u1_16": 20}


def deep_document(tmp_path, expr: str) -> str:
    path = tmp_path / "deep.json"
    entries = [[1, 1, 2, "1"], [1, 2, 1, "-1"], [0, 1, 2, expr], [0, 2, 1, f"-{expr}"]]
    path.write_text(json.dumps({"dimension": 2, "degree": 1, "entries": entries}))
    return str(path)


@pytest.mark.parametrize("expr", DEEP_ENTRIES)
def test_validate_builds_no_u_variational_derivative(monkeypatch, tmp_path, capsys, expr):
    # the skew check reads dP~/dtheta only; dP~/du would take d_x as deep as the jet order
    calls = []
    variational_u = DiffPoly.variational_u
    monkeypatch.setattr(
        DiffPoly, "variational_u", lambda self, i: calls.append(i) or variational_u(self, i)
    )
    start = time.perf_counter()
    code, out, _ = run(capsys, "validate", deep_document(tmp_path, expr))
    assert time.perf_counter() - start < 2.0
    assert code == 1 and calls == []
    assert "P_1^{12} defect: -2" in out


@pytest.mark.parametrize("expr", DEEP_ENTRIES)
def test_transform_refuses_a_bracket_that_is_not_well_formed(monkeypatch, tmp_path, capsys, expr):
    def refuse(b, cmap):
        raise AssertionError("transform ran on a bracket that validate rejects")

    monkeypatch.setattr(cli, "transform", refuse)
    path, cmap = deep_document(tmp_path, expr), fixture_path("map_product.json")
    problem = f"P_0^{{12}} is not homogeneous of weight 1: weights [{DEEP_ENTRIES[expr]}]"
    assert validate(load_bracket(path))[0] == problem
    row = {"name": "transform", "status": "fail",
           "witness": f"bracket is not well-formed: {problem}", "seconds": 0.0}
    assert cli.cmd_transform(load_bracket(path), argparse.Namespace(map=load_map(cmap, 2))) == [
        ConditionResult(**row)
    ]
    target = tmp_path / "report.json"
    start = time.perf_counter()
    code, _, _ = run(capsys, "report", path, "--map", cmap, "--json", str(target))
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert json.loads(target.read_text())["checks"][-1] == row


def test_report_skips_the_suites_on_a_bracket_that_is_not_well_formed(tmp_path, capsys):
    path, target = deep_document(tmp_path, "u1*u1_80"), tmp_path / "report.json"
    problem = "P_0^{12} is not homogeneous of weight 1: weights [80]"
    start = time.perf_counter()
    code, out, _ = run(capsys, "report", path, "--map", fixture_path("map_product.json"),
                       "--json", str(target))
    assert time.perf_counter() - start < 2.0
    assert code == 1
    rows = [(c["name"], c["status"], c["witness"]) for c in json.loads(target.read_text())["checks"]]
    assert rows == [
        ("well-formed (homogeneity, indices)", "fail", problem),
        ("skew-symmetry (operator adjoint)", "fail", "P_1^{12} defect: -2"),
        ("skew-symmetry (named coefficients)", "fail", "g^{21} - (1)*g^{12}: -2"),
        ("jacobi identity (D_P squares to zero)", "skip", "preconditions failed"),
        *((suite, "skip", problem) for suite in ("connections", "flatness", "lowdegree", "spectral")),
        ("transform", "fail", f"bracket is not well-formed: {problem}"),
    ]
    assert "0 passed, 4 failed, 5 skipped" in out


def test_skewness_preserved_locates_the_defect(tmp_path, capsys):
    # lc_k1 without its P_0^{11}: well-formed, but not skew before or after the map
    path = tmp_path / "not_skew.json"
    entries = [[1, 1, 1, "u1"], [1, 2, 2, "1"]]
    path.write_text(json.dumps({"dimension": 2, "degree": 1, "entries": entries}))
    target, cmap = tmp_path / "report.json", fixture_path("map_product.json")
    code, _, _ = run(capsys, "transform", str(path), "--map", cmap, "--json", str(target))
    assert code == 1
    payload = json.loads(target.read_text())
    checks = {c["name"]: (c["status"], c["witness"]) for c in payload["checks"]}
    assert checks["transformed bracket well-formed"] == ("pass", None)
    assert checks["skewness preserved"] == ("fail", "P_0^{11} defect: -u1_1")
    # the text of the validate row, on the transformed bracket
    moved = transform(load_bracket(str(path)), load_map(cmap, 2))
    assert checks["skewness preserved"][1] == cli._skew_witness(skew_defects(moved)[0])


def test_every_command_returns_condition_results(monkeypatch, capsys):
    rows = []
    monkeypatch.setattr(cli, "_render", rows.extend)
    for command in cli.COMMANDS:
        for name in ("lc_k1.json", "nonflat2.json"):
            main([command, fixture_path(name), "--map", fixture_path("map_product.json")])
    capsys.readouterr()
    assert len(rows) > 50
    assert {type(r) for r in rows} == {ConditionResult}


def test_lowdegree_dispatch(capsys):
    for name, needle in (
        ("lc_k1.json", "metric compatible"),
        ("canonical_k2.json", "(e) quadratic tail identity"),
        ("nonflat2.json", "cyclic sum vanishes"),
    ):
        code, out, _ = run(capsys, "lowdegree", fixture_path(name))
        assert code == 0
        assert needle in out


def test_lowdegree_skips_degree3_outside_normal_form(tmp_path, capsys):
    # the normal form has no delta^(0) term, so P_0 = u1_3 cannot be rebuilt
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps({"dimension": 1, "degree": 3, "entries": [[3, 1, 1, "1"], [0, 1, 1, "u1_3"]]})
    )
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "lowdegree", str(path), "--json", str(target))
    assert code == 0
    assert "SKIP" in out and "not in the jet-linear normal form" in out
    assert "0 passed, 0 failed, 1 skipped" in out
    (row,) = json.loads(target.read_text())["checks"]
    assert row["seconds"] > 0  # the extraction and the rebuild it skips on


def test_spectral_command(tmp_path, capsys):
    # canonical_k2 has a skew metric, so the homotopy's g_{ji} cannot pass as g_{ij}
    for name in ("lc_k1.json", "canonical_k2.json"):
        target = tmp_path / name
        code, out, _ = run(
            capsys,
            "spectral",
            fixture_path(name),
            "--seed",
            "5",
            "--max-degu",
            "2",
            "--json",
            str(target),
        )
        assert code == 0
        assert "homotopy identity" in out
        statuses = {c["name"]: c["status"] for c in json.loads(target.read_text())["checks"]}
        assert statuses["homotopy identity and D_-1^2 = 0"] == "pass"


def test_report_json_mirror(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "validate",
        fixture_path("nonflat2.json"),
        "--json",
        str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["command"] == "validate"
    assert payload["exit_code"] == 0
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert all("seconds" in c for c in payload["checks"])


def test_unwritable_json_path_is_a_file_problem(tmp_path, capsys):
    """A path in a missing directory, and a path that is a directory, are
    refused before any check runs, and neither is created or changed."""
    missing, folder = tmp_path / "no_such_dir" / "report.json", tmp_path / "a_dir"
    folder.mkdir()
    for target in (missing, folder):
        code, out, err = run(capsys, "validate", fixture_path("nonflat2.json"), "--json", str(target))
        assert code == 2, target
        assert err.startswith("output error: ") and str(target) in err
        assert out == ""  # found before any check ran
    assert not missing.exists()
    assert folder.is_dir() and not any(folder.iterdir())


def test_report_statuses_deterministic(tmp_path, capsys):
    copies = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        run(
            capsys,
            "report",
            fixture_path("lc_k1.json"),
            "--json",
            str(target),
            "--seed",
            "3",
        )
        payload = json.loads(target.read_text())
        copies.append([(c["name"], c["status"], c["witness"]) for c in payload["checks"]])
    assert copies[0] == copies[1]


# report command line (fixture names for paths) -> [name, status, witness] of every check
EXPECTED_REPORTS = os.path.join(os.path.dirname(__file__), "report_expected.json")


def test_report_matches_the_recorded_checks(tmp_path, capsys):
    with open(EXPECTED_REPORTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    assert len(expected) == 6
    target = tmp_path / "report.json"
    for command_line, checks in expected.items():
        args = [fixture_path(a) if a.endswith(".json") else a for a in command_line.split()]
        run(capsys, "report", *args, "--json", str(target))
        payload = json.loads(target.read_text())
        assert [[c["name"], c["status"], c["witness"]] for c in payload["checks"]] == checks


def test_every_recorded_check_is_timed(tmp_path, capsys):
    # each check's time covers the work it reports: the connection build, the
    # lazy evaluation of a low-degree condition, a failed d_1 precondition
    with open(EXPECTED_REPORTS, encoding="utf-8") as fh:
        command_lines = list(json.load(fh))
    target = tmp_path / "report.json"
    for command_line in command_lines:
        args = [fixture_path(a) if a.endswith(".json") else a for a in command_line.split()]
        run(capsys, "report", *args, "--json", str(target))
        checks = json.loads(target.read_text())["checks"]
        assert [c["name"] for c in checks if not c["seconds"] > 0] == [], command_line


def test_connections_check_times_the_connection_build(monkeypatch, capsys):
    b, spent = load_bracket(fixture_path("canonical_k2.json")), []
    original = cli.flat_combination

    def timed(b, s):
        t0 = time.perf_counter()
        conn = original(b, s)
        spent.append(time.perf_counter() - t0)
        return conn

    monkeypatch.setattr(cli, "flat_combination", timed)
    first = cli.cmd_connections(b, None)[0]
    # the first k calls build the connections, the later ones print them
    assert first.name == "connections computed" and first.seconds >= sum(spent[:b.k]) > 0


def test_low_degree_checks_report_their_condition_time(monkeypatch):
    for name, check in (("lc_k1.json", "dn_check"), ("canonical_k2.json", "ferguson_check")):
        b = load_bracket(fixture_path(name))
        report = getattr(lowdegree, check)(b)
        assert [r.name for r in report if not r.seconds > 0] == [], name
        monkeypatch.setattr(cli, check, lambda b: report)
        timed = [(c.name, c.seconds) for c in cli.cmd_lowdegree(b, None)]
        assert timed == [(r.name, r.seconds) for r in report]


def delayed(fn, seconds=0.05):
    """fn with a fixed delay before each call."""
    def slow(*args):
        time.sleep(seconds)
        return fn(*args)
    return slow


@pytest.mark.parametrize("name, calls", [("lc_k1.json", 1), ("canonical_k2.json", 2)])
def test_low_degree_rows_cover_the_suite_setup(monkeypatch, name, calls):
    # dn_check builds one nabla g tensor and ferguson_check two before any condition runs
    monkeypatch.setattr(lowdegree, "nabla_tensor", delayed(lowdegree.nabla_tensor))
    rows = cli.cmd_lowdegree(load_bracket(fixture_path(name)), None)
    assert sum(r.seconds for r in rows) >= 0.05 * calls
    assert rows[0].seconds >= 0.05 * calls  # the setup is charged to the first row


def test_degree3_rows_cover_the_normal_form_test(monkeypatch):
    # the rebuild that shows nonflat2 is in the normal form runs before potemin_check
    monkeypatch.setattr(cli, "potemin_build", delayed(cli.potemin_build))
    b = load_bracket(fixture_path("nonflat2.json"))
    t0 = time.perf_counter()
    rows = cli.cmd_lowdegree(b, None)
    elapsed = time.perf_counter() - t0
    assert [r.status for r in rows] == ["pass"] * 4
    assert elapsed >= sum(r.seconds for r in rows) >= 0.05
    assert rows[0].seconds >= 0.05


@pytest.mark.parametrize("name", ["nonflat2.json", "lc_k1_broken.json"])
def test_report_builds_the_jacobi_trivector_once(monkeypatch, capsys, name):
    # the jacobi check and every later Poisson precondition share one cached
    # first defect, read off one cached trivector T
    built, runs = [], []
    build, defects = jacobi._trivector.__wrapped__, jacobi._defects

    @_cached
    def counting_build(b):
        built.append(b)
        return build(b)

    def counting_defects(b, *families):
        runs.append(b)
        return defects(b, *families)

    monkeypatch.setattr(jacobi, "_trivector", counting_build)
    monkeypatch.setattr(jacobi, "_defects", counting_defects)
    run(capsys, "report", fixture_path(name))
    assert len(built) == 1
    assert len(runs) == 1


@pytest.mark.parametrize("name, computed", [("canonical_k2.json", 4), ("lc_k1.json", 2)])
def test_report_computes_each_curvature_once(monkeypatch, capsys, name, computed):
    # the flatness suite and the low-degree conditions share the curvature of
    # Gamma_(0); every curvature, whoever computes it, builds one CurvatureTensor
    made = []
    original = connections.CurvatureTensor

    def counting(n, R):
        made.append(R)
        return original(n=n, R=R)

    monkeypatch.setattr(connections, "CurvatureTensor", counting)
    run(capsys, "report", fixture_path(name))
    assert len(made) == computed


def test_homotopy_identity_lowers_each_monomial_once(monkeypatch, capsys):
    # D_-1 on a (inside homotopy_defect) and on D_-1(a): two calls for each of
    # the 100 monomials; D_-1 on h(a) is summed inside the defect's kernel call
    calls = []
    original = spectral.D_minus1_closed

    def counting(b, a):
        calls.append(a)
        return original(b, a)

    monkeypatch.setattr(spectral, "D_minus1_closed", counting)
    monkeypatch.setattr(cli, "D_minus1_closed", counting)
    code, out, _ = run(capsys, "spectral", fixture_path("lc_k1.json"))
    assert code == 0 and "100 random monomials" in out
    assert len(calls) == 200
    assert len({id(a) for a in calls[::2]}) == 100


def test_report_keeps_its_mirror_on_a_singular_metric(tmp_path, capsys):
    # a constant bracket, hence Poisson, whose leading matrix is singular
    path, target = tmp_path / "singular.json", tmp_path / "report.json"
    entries = [[1, 1, 1, "1"], [1, 1, 2, "1"], [1, 2, 1, "1"], [1, 2, 2, "1"]]
    path.write_text(json.dumps({"dimension": 2, "degree": 1, "entries": entries}))
    code, _, _ = run(capsys, "report", str(path), "--json", str(target))
    assert code == 1
    checks = {c["name"]: c for c in json.loads(target.read_text())["checks"]}
    assert checks["jacobi identity (D_P squares to zero)"]["status"] == "pass"
    failed = checks["connections computed"]
    assert failed["status"] == "fail" and "singular" in failed["witness"]
    for suite in ("flatness", "lowdegree", "spectral"):
        assert checks[suite]["status"] == "skip"
        assert checks[suite]["witness"] == failed["witness"]


@pytest.mark.parametrize("command", ["curvature", "flatness"])
def test_singular_metric_is_a_precondition_failure(tmp_path, capsys, command):
    path = tmp_path / "singular.json"
    entries = [[1, 1, 1, "1"], [1, 1, 2, "1"], [1, 2, 1, "1"], [1, 2, 2, "1"]]
    path.write_text(json.dumps({"dimension": 2, "degree": 1, "entries": entries}))
    code, _, err = run(capsys, command, str(path))
    assert code == 1
    assert "precondition failure" in err and "singular" in err


def test_non_skew_bracket_skips_jacobi_and_fails_the_d1_identities(tmp_path, capsys):
    # P_0^{12} = u1_1 has no partner P_0^{21}, so the bracket is not skew
    path, target = tmp_path / "nonskew.json", tmp_path / "report.json"
    entries = [[1, 1, 1, "1"], [1, 2, 2, "1"], [0, 1, 2, "u1_1"]]
    path.write_text(json.dumps({"dimension": 2, "degree": 1, "entries": entries}))
    name = "jacobi identity (D_P squares to zero)"

    code, _, _ = run(capsys, "jacobi", str(path), "--json", str(target))
    assert code == 1
    checks = {c["name"]: c for c in json.loads(target.read_text())["checks"]}
    assert (checks[name]["status"], checks[name]["witness"]) == ("skip", "preconditions failed")

    code, _, _ = run(capsys, "report", str(path), "--json", str(target))
    assert code == 1
    checks = {c["name"]: c for c in json.loads(target.read_text())["checks"]}
    assert checks[name]["status"] == "skip"
    d1 = checks["d_1 identities"]
    assert d1["status"] == "fail"
    assert d1["witness"] == "bracket must be skew-symmetric and satisfy the Jacobi identity"

    b = load_bracket(str(path))
    with pytest.raises(PreconditionError, match="not skew-symmetric") as info:
        jacobi.check_jacobi(b)
    assert info.value.witness == skew_defects(b)[0][3] == DiffPoly.jet(1, 1)


def test_curvature_defaults_to_the_flat_combinations(capsys):
    code, out, _ = run(capsys, "curvature", fixture_path("nonflat2.json"))
    assert code == 0
    assert "curvature of Gamma_[0]" in out and "curvature of Gamma_[2]" in out
    assert "Gamma_(" not in out
    assert "3 passed, 0 failed, 0 skipped" in out


def test_lowdegree_on_degree_four_and_five(tmp_path, capsys):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"dimension": 2, "degree": 4,
                                "entries": [[4, 1, 2, "1"], [4, 2, 1, "-1"]]}))
    code, out, _ = run(capsys, "lowdegree", str(path))
    assert code == 0
    assert "Gamma_[3] = g (b - 5c + 15d - 35e)" in out
    assert "7 passed, 0 failed, 0 skipped" in out

    path = tmp_path / "k5.json"
    path.write_text(json.dumps({"dimension": 1, "degree": 5, "entries": [[5, 1, 1, "1"]]}))
    code, out, _ = run(capsys, "lowdegree", str(path))
    assert code == 0
    assert "no classification for k=5" in out
    assert "0 passed, 0 failed, 1 skipped" in out


def test_spectral_splits_each_monomial_once(monkeypatch, capsys):
    # only the graded identities split, once for each of the 83 spanning
    # monomials of theta-degree <= 2 (of 303), and apply the halves' tables
    # to the two halves inside d1_sum, with no second split
    calls = []
    original = spectral.d1_split

    def counting(b, x):
        calls.append(x)
        return original(b, x)

    monkeypatch.setattr(spectral, "d1_split", counting)
    monkeypatch.setattr(cli, "d1_split", counting)
    code, _, _ = run(capsys, "spectral", fixture_path("canonical_k2.json"))
    assert code == 0
    assert len(calls) == 83


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "no_such_file.json")
    assert code == 2
    assert "input error" in err


def test_schema_violations(tmp_path, capsys):
    cases = [
        ({"degree": 1, "entries": []}, "dimension"),
        ({"dimension": 1, "entries": []}, "degree"),
        ({"dimension": 1, "degree": 1, "entries": "nope"}, "entries"),
        (
            {
                "dimension": 1,
                "degree": 1,
                "entries": [{"s": 0, "i": 5, "j": 1, "expr": "1"}],
            },
            "out of range",
        ),
        (
            {
                "dimension": 1,
                "degree": 1,
                "entries": [
                    {"s": 1, "i": 1, "j": 1, "expr": "1"},
                    {"s": 1, "i": 1, "j": 1, "expr": "2"},
                ],
            },
            "duplicate",
        ),
        (
            {"dimension": 1, "degree": 1, "construction": "mystery", "entries": []},
            "construction",
        ),
        (
            {
                "dimension": 2,
                "degree": 2,
                "coordinates": ["x", "y"],
                "entries": [],
            },
            "u1..u2",
        ),
    ]
    # a boolean is not an entry index, although Python counts it as an int
    for entry in ([True, True, True, "1"], {"s": 1, "i": 1, "j": True, "expr": "1"}):
        cases.append(({"dimension": 1, "degree": 1, "entries": [entry]}, "must be integers"))
    # only a JSON integer is a dimension or a degree: no truncation, no digit strings
    for bad in (2.9, 2.0, True, "2"):
        cases.append(({"dimension": bad, "degree": 1, "entries": []}, "bad 'dimension'"))
        cases.append(({"dimension": 1, "degree": bad, "entries": []}, "bad 'degree'"))
    # a construction fixes the degree: a stated degree must be that JSON integer
    k2 = {"dimension": 2, "construction": "canonical_k2", "metric": [["0", "1"], ["-1", "0"]]}
    k3 = {"dimension": 1, "construction": "potemin", "metric": [["1"]], "tail": [[["0"]]]}
    for doc, bad in [(k2, 5), (k2, "x"), (k2, 3), (k2, 2.0), (k3, 2), (k3, "3"), (k3, None)]:
        cases.append(({**doc, "degree": bad}, "bad 'degree'"))
    for doc, needle in cases:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2, doc
        assert "input error" in err and needle in err


K2_DOC = {"dimension": 2, "construction": "canonical_k2", "metric": [["0", "1"], ["-1", "0"]]}
K3_DOC = {"dimension": 1, "construction": "potemin", "metric": [["1"]], "tail": [[["0"]]]}
RAW_DOC = {"dimension": 1, "degree": 1, "entries": []}
VALIDATE = ("validate",)
TRANSFORM = ("transform", fixture_path("lc_k1.json"), "--map")


@pytest.mark.parametrize(
    "command, text, needle",
    [
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "entries": [[1, 1, 1, 7]]}),
                     "entries[0]: expression must be a string", id="expression-not-string"),
        pytest.param(VALIDATE, json.dumps({**K2_DOC, "metric": [["0", "u1_1"], ["-1", "0"]]}),
                     "metric[1][2]: jets are not allowed here", id="jets-in-metric"),
        pytest.param(VALIDATE, json.dumps({**K2_DOC, "metric": [["0", "1"]]}),
                     "metric: expected 2 rows", id="metric-row-count"),
        pytest.param(VALIDATE, json.dumps({**K2_DOC, "metric": [["0", "1"], ["-1"]]}),
                     "metric: row 2 must have 2 entries", id="metric-row-length"),
        pytest.param(VALIDATE, '{"dimension": 1,', "doc.json:1: Expecting property name",
                     id="invalid-json"),
        pytest.param(VALIDATE, "[]", "top level must be an object", id="top-level-array"),
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "dimension": 0}),
                     "dimension must be >= 1", id="dimension-zero"),
        pytest.param(VALIDATE, json.dumps({**K2_DOC, "metric": [["0", "1"], ["1", "0"]]}),
                     "leading coefficient must be skew: entry (1,2)", id="k2-metric-not-skew"),
        pytest.param(VALIDATE, json.dumps({**K3_DOC, "tail": []}),
                     "tail must be an n x n x n array", id="potemin-tail-shape"),
        pytest.param(VALIDATE, json.dumps({**K3_DOC, "metric": [["0"]]}),
                     "leading coefficient matrix is singular", id="potemin-singular-metric"),
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "entries": [{"s": 1, "i": 1, "j": 1}]}),
                     "entries[0]: missing key 'expr'", id="entry-missing-key"),
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "entries": [[1, 1, 1]]}),
                     "entries[0]: expected [s, i, j, expr] or an object", id="entry-three-elements"),
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "degree": 0}),
                     "bracket degree must be >= 1", id="degree-zero"),
        pytest.param(TRANSFORM, json.dumps({"dimension": 3, "forward": ["u1", "u2"], "inverse": ["u1", "u2"]}),
                     "map dimension does not match the bracket", id="map-dimension-mismatch"),
        pytest.param(VALIDATE, b"\xff\xfe", "doc.json: not UTF-8: invalid start byte at byte 0",
                     id="not-utf8"),
        pytest.param(VALIDATE, "[" * 100_000 + "]" * 100_000, "doc.json: JSON nested too deeply",
                     id="json-nested-deeply"),
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "entries": [[1, 1, 1, "(" * 250 + "u1" + ")" * 250]]}),
                     "entries[0]: parentheses nested too deeply", id="parentheses-nested-deeply"),
        pytest.param(("report",), json.dumps({**RAW_DOC, "entries": [[1, 1, 1, "2^20000"], [0, 1, 1, "u1_1"]]}),
                     "entries[0]: integer too large: over 1000 digits (at position 2)", id="huge-power"),
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "entries": [[1, 1, 1, "2^14000*2^14000*u1"]]}),
                     "entries[0]: integer too large: over 1000 digits", id="huge-product"),
        pytest.param(VALIDATE, json.dumps({**RAW_DOC, "entries": [[1, 1, 1, "1" * 5001]]}),
                     "entries[0]: integer too large: over 1000 digits (at position 0)", id="huge-literal"),
    ],
)
def test_malformed_document_is_input_error(tmp_path, capsys, command, text, needle):
    path = tmp_path / "doc.json"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert err.startswith("input error: ") and needle in err
    assert out == ""


def test_parse_error_in_entry(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 1,
                "degree": 1,
                "entries": [{"s": 1, "i": 1, "j": 1, "expr": "u1 +"}],
            }
        )
    )
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


def test_inhomogeneous_raw_document_fails_validate_check(tmp_path, capsys):
    # parses fine, loads fine, but the homogeneity check fails: exit 1
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 1,
                "degree": 3,
                "entries": [
                    {"s": 3, "i": 1, "j": 1, "expr": "1"},
                    {"s": 0, "i": 1, "j": 1, "expr": "u1_1"},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out


def test_map_document_validation(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"dimension": 2, "forward": ["u1"], "inverse": ["u1"]}))
    code, _, err = run(
        capsys, "transform", fixture_path("lc_k1.json"), "--map", str(path)
    )
    assert code == 2

    # a forward/inverse pair that is not actually inverse
    path.write_text(
        json.dumps(
            {"dimension": 2, "forward": ["u1", "u1*u2"], "inverse": ["u1", "u2"]}
        )
    )
    code, _, err = run(
        capsys, "transform", fixture_path("lc_k1.json"), "--map", str(path)
    )
    assert code == 2
    assert "inverse" in err.lower() or "forward" in err.lower()

    # a dimension that is not an integer is an input error, not a crash or a truncation
    for dimension in ("x", [2], 2.9, 2.0, True, "2"):
        path.write_text(
            json.dumps({"dimension": dimension, "forward": ["u1", "u2"], "inverse": ["u1", "u2"]})
        )
        code, _, err = run(
            capsys, "transform", fixture_path("lc_k1.json"), "--map", str(path)
        )
        assert code == 2
        assert "input error" in err and "bad 'dimension'" in err

    # a substitution that divides by zero is a problem with the map, not a crash
    doc = {"dimension": 2, "forward": ["0", "u2"], "inverse": ["1/u1", "u2"]}
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "transform", fixture_path("lc_k1.json"), "--map", str(path))
    assert code == 2
    assert "input error" in err and "divides by zero" in err
    forward, inverse = ([parse_scalar(e) for e in doc[key]] for key in ("forward", "inverse"))
    with pytest.raises(ValueError, match="divides by zero"):
        transform(load_bracket(fixture_path("lc_k1.json")), CoordinateMap(2, forward, inverse))

    # under report, a missing map and one of another dimension are refused
    # before any suite runs or prints
    for bad in (str(tmp_path / "no_such_map.json"), fixture_path("lc_k1.json")):
        code, out, err = run(capsys, "report", fixture_path("canonical_k2.json"), "--map", bad)
        assert code == 2 and out == "", bad
        assert err.startswith("input error: ") and bad in err


def test_load_bracket_entry_list_form(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 1,
                "degree": 1,
                "entries": [[1, 1, 1, "u1"], [0, 1, 1, "1/2*u1_1"]],
            }
        )
    )
    b = load_bracket(str(path))
    assert b.n == 1 and b.k == 1
    assert (1, 1, 1) in b.P and (1, 1, 0) in b.P


def test_load_map_round_trip():
    cmap = load_map(fixture_path("map_product.json"), 2)
    assert cmap.check_inverse() == []


def test_entry_point_runs_as_module():
    import os
    import subprocess
    import sys

    import dnbrackets

    # run the package under test, installed or not
    src = os.path.dirname(os.path.dirname(dnbrackets.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "dnbrackets",
            "validate",
            fixture_path("nonflat2.json"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# the names through which the os module reads the environment
ENVIRONMENT_READERS = ("environ", "environb", "getenv", "getenvb")


def test_package_imports_only_the_standard_library():
    """Every import in every module of the package is relative or names a
    module of the standard library, so the package runs with no dependency
    installed; sympy and hypothesis stay test-only oracles.  No module reads
    the environment (os.environ, os.getenv), so no setting outside the
    arguments changes what the package computes."""
    import dnbrackets

    package = os.path.dirname(dnbrackets.__file__)
    modules = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(modules) >= 10
    bad = []
    for path in modules:
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS:
                bad.append(f"{name}:{node.lineno} reads .{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                bad += [f"{name}:{node.lineno} imports os.{alias.name}" for alias in node.names
                        if alias.name in ENVIRONMENT_READERS]
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            bad += [f"{name}:{node.lineno} imports {top}" for top in tops
                    if top not in sys.stdlib_module_names]
    assert bad == []


def test_huge_dimension_or_degree_is_input_error(tmp_path, capsys):
    with open(fixture_path("lc_k1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    cases = [
        ("dimension", 10_000_000),
        ("degree", 10_000_000),
        ("dimension", MAX_DIMENSION + 1),
        ("degree", MAX_DEGREE + 1),
    ]
    for key, value in cases:
        path = tmp_path / f"{key}-{value}.json"
        path.write_text(json.dumps({**doc, key: value}))
        start = time.perf_counter()
        code, _, err = run(capsys, "report", str(path))
        assert time.perf_counter() - start < 2.0, (key, value)
        assert code == 2, (key, value)
        assert "input error" in err and str(path) in err and "limit" in err
    # a non-finite number is a bad value, not a crash
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(doc).replace('"degree": 1', '"degree": Infinity'))
    code, _, err = run(capsys, "report", str(path))
    assert code == 2 and "bad 'degree'" in err


def constant_document(tmp_path, n: int, k: int):
    """A constant raw document in compact JSON: g diagonal for odd k,
    symplectic for even k (n even)."""
    if k % 2:
        entries = [[k, a, a, "1"] for a in range(1, n + 1)]
    else:
        entries = [e for a in range(1, n, 2) for e in ([k, a, a + 1, "1"], [k, a + 1, a, "-1"])]
    path = tmp_path / f"constant_n{n}_k{k}.json"
    path.write_text(json.dumps({"dimension": n, "degree": k, "entries": entries}, separators=(",", ":")))
    return path


def test_a_span_above_max_span_is_input_error(tmp_path, capsys):
    """A constant document at the dimension and degree bounds, n = 32 and
    k = 16, which would span 26.8 million monomials, exits 2 under spectral
    and report before any row runs; the count is spanning_monomials' length,
    and --help states the bound."""
    n, k = MAX_DIMENSION, MAX_DEGREE
    path = constant_document(tmp_path, n, k)
    assert spectral._span_size(n, k) == 26_832_017 > MAX_SPAN
    assert spectral._span_size(4, 2) == len(spectral.spanning_monomials(4, 2)) == 303
    for command in ("spectral", "report"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 2.0, command
        assert code == 2 and out == "", command
        assert err.startswith("input error: ") and str(path) in err and str(MAX_SPAN) in err
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"at most {MAX_SPAN} spanning monomials" in " ".join(capsys.readouterr().out.split())


def test_a_tensor_suite_above_max_tensor_is_input_error(tmp_path, capsys):
    """Constant documents at n = 32 with k = 1 (diagonal), 2 and 16
    (symplectic), whose k n^5 exceeds MAX_TENSOR, exit 2 within 2 s under
    every tensor suite, before any row runs; --help states the bound, and
    every fixture lies far below it."""
    n = MAX_DIMENSION
    for k in (1, 2, MAX_DEGREE):
        path = constant_document(tmp_path, n, k)
        assert k * n**5 > MAX_TENSOR
        for command in ("connections", "curvature", "flatness", "lowdegree", "report"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, str(path))
            assert time.perf_counter() - start < 2.0, (k, command)
            assert code == 2 and out == "", (k, command)
            assert err.startswith("input error: ") and str(path) in err and "above the limit" in err
    for name in ("canonical_k2.json", "constant_k2.json", "lc_k1.json", "lc_k1_broken.json", "nonflat2.json"):
        b = load_bracket(fixture_path(name))
        assert b.k * b.n**5 <= MAX_TENSOR // 100, name
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"k*n^5 at most {MAX_TENSOR}" in " ".join(capsys.readouterr().out.split())


def test_max_degu_out_of_range_is_usage_error(capsys):
    for value in ("-1", str(MAX_DEGU + 1), "100000"):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["spectral", fixture_path("nonflat2.json"), "--max-degu", value])
        assert time.perf_counter() - start < 2.0, value
        assert exc.value.code == 2, value
        assert "--max-degu" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"0 to {MAX_DEGU}" in " ".join(capsys.readouterr().out.split())


def test_huge_power_is_input_error(tmp_path, capsys):
    with open(fixture_path("lc_k1.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for expr, problem in (
        ("(1+u1)^100000", "power too large"),
        ("((u1+u2+u3)^20)^20", "power too large"),
        ("(1+u1)^255*(1+u1)^255*(1+u1)^255*(1+u1)^255", "product too large"),
        ("(u1+u2+u3)^21*(u1+u2+u3)^21*(u1+u2+u3)^21", "product too large"),
    ):
        doc["entries"][0]["expr"] = expr
        path = tmp_path / "power.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 2.0, expr
        assert code == 2, expr
        assert "input error" in err and str(path) in err and problem in err


def test_far_coordinate_index_is_quick(tmp_path, capsys):
    # monomial keys cost the number of variables present, not the largest index
    path = tmp_path / "far.json"
    entries = [[1, 1, 1, "1/(u1+u10000000)"]]
    path.write_text(json.dumps({"dimension": 1, "degree": 1, "entries": entries}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert "mentions components beyond n=1: [10000000]" in out


@pytest.mark.parametrize("entry", ["1/(u1^2+u2^2)^30", "1/(u1^2-u2^2)^30"])
def test_report_on_a_power_of_an_uncertified_denominator_is_quick(tmp_path, capsys, entry):
    # u1^2 + u2^2 and u1^2 - u2^2 fail the certificate: each is one uncertified
    # factor of the base, cancelled by a gcd against it and not against its 30th power
    path = tmp_path / "power.json"
    entries = [[1, 1, 1, entry], [1, 2, 2, "1"]]
    path.write_text(json.dumps({"dimension": 2, "degree": 1, "entries": entries}))
    start = time.perf_counter()
    code, out, _ = run(capsys, "report", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 1
    [row] = [line for line in out.splitlines() if line.startswith("homotopy identity")]
    assert row.split()[6] == "PASS", row
