"""The benchmark tracer must still find everything it wraps in the package."""

import importlib.util
import os
import sys

import dnbrackets  # noqa: F401  (loads the modules the tracer wraps)
import dnbrackets.cli  # noqa: F401
import dnbrackets.sampling  # noqa: F401
from dnbrackets.diffpoly import DiffPoly
from dnbrackets.scalar import Scalar

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")

# the traced names whose records bench/run.py's per_layer reads: a name that is
# not traced, say because it became private, would read 0 there
PER_LAYER_NAMES = (
    "diffpoly.DiffPoly.__mul__",
    "diffpoly.DiffPoly.d_x",
    "connections.flat_combination",
    "connections.standard_connection",
    "jacobi.apply_DP",
    "jacobi.check_jacobi",
    "bracket.transform",
    "bracket.skew_defects",
    "spectral.d1_closed",
    "spectral.d1_as_connection",
    "spectral.homotopy",
    "grammar.parse_expression",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("dnbrackets_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_methods_are_class_attributes():
    tracer = _load_tracer()
    assert [m for m in tracer.SCALAR_METHODS if m not in Scalar.__dict__] == []
    assert [m for m in tracer.DIFFPOLY_METHODS if m not in DiffPoly.__dict__] == []


def test_tracer_installs_completely():
    tracer = _load_tracer()
    add = Scalar.__dict__["__add__"]
    t = tracer.Tracer()
    try:
        t.install("dnbrackets")  # runs verify_complete
    finally:
        t.uninstall()
    assert Scalar.__dict__["__add__"] is add
    assert [name for name in PER_LAYER_NAMES if name not in t.agg] == []
