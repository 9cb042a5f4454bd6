"""Outside-in tracer for the dnbrackets package.

``Tracer.install(package)`` replaces, in every loaded ``dnbrackets`` module,
each public function with a timing wrapper, and wraps the arithmetic
methods of ``Scalar`` and ``DiffPoly``.  Nothing in the package is edited;
re-exports (``spectral.apply_DP``, the names in ``cli`` and the package
``__init__``) are rebound to the same wrapper, and ``verify_complete``
fails if any module still holds an unwrapped original.

Two kinds of wrapper share one stack of child-time accumulators:

* span wrappers (mid-level modules) append a full span
  ``(id, name, start, end, parent id, self)`` to ``spans`` when the call
  returns; spans are tuples of atoms, which the garbage collector skips;
* aggregate wrappers (``scalar`` and ``diffpoly``, called millions of times)
  only add to a per-name ``[count, inclusive, self]`` record.

Self time is a call's duration minus the time its wrapped children cover.
Inclusive time counts only the outermost call of a name, so recursion is
not counted twice.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
import weakref
from dataclasses import dataclass, field

AGGREGATE_MODULES = ("scalar", "diffpoly")

SCALAR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "partial", "subs",
)
DIFFPOLY_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__pow__", "partial", "partial_coordinate", "_partial_jet", "_partial_theta",
    "d_x", "d_x_pow", "variational_u", "variational_theta", "project", "substitute",
)

# calls whose (bracket object, s) pair is tracked for connections.repeat_share
REPEAT_TRACKED = ("connections.flat_combination", "connections.standard_connection")


@dataclass
class Shapes:
    """Shape statistics of Scalar and DiffPoly results."""

    den_const: int = 0
    den_monomial: int = 0
    den_poly: int = 0
    max_den_terms: int = 0
    peak_terms: int = 0
    repeat_calls: int = 0
    repeat_hits: int = 0
    seen: dict = field(default_factory=dict)  # id(b) -> {s}, dropped when b dies


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.child = [0.0]  # child-time accumulator per open frame
        self.span_stack = [None]  # ids of the open span frames
        self.span_ids = itertools.count()
        self.spans: list = []
        self.agg: dict = {}  # name -> [count, inclusive, self]
        self.depths: list = []  # one [depth] cell per wrapper
        self.shapes = Shapes()
        self.originals: dict = {}  # id(original) -> wrapper
        self.wrapped_names: dict = {}  # id(original) -> name
        self.patched: list = []  # (owner, attribute, original, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _aggregate(self, fn, name, observe=None):
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        depth = [0]
        self.depths.append(depth)
        child, clock = self.child, self.clock

        def wrapper(*args, **kwargs):
            child.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = child.pop()
                child[-1] += dur
                depth[0] -= 1
                rec[0] += 1
                rec[2] += dur - inner
                if not depth[0]:
                    rec[1] += dur
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _span(self, fn, name, observe_call=None):
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        depth = [0]
        self.depths.append(depth)
        child, clock, spans, stack = self.child, self.clock, self.spans, self.span_stack
        ids = self.span_ids

        def wrapper(*args, **kwargs):
            if observe_call is not None:
                observe_call(args, kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            child.append(0.0)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                inner = child.pop()
                child[-1] += dur
                stack.pop()
                spans.append((sid, name, t0, t1, parent, dur - inner))
                depth[0] -= 1
                rec[0] += 1
                rec[2] += dur - inner
                if not depth[0]:
                    rec[1] += dur

        return wrapper

    def _observe_scalar(self, result):
        den = getattr(result, "den", None)
        if den is None:
            return
        sh = self.shapes
        size = len(den)
        if size > 1:
            sh.den_poly += 1
        elif () in den:
            sh.den_const += 1
        else:
            sh.den_monomial += 1
        if size > sh.max_den_terms:
            sh.max_den_terms = size

    def _observe_diffpoly(self, result):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.shapes.peak_terms:
            self.shapes.peak_terms = len(terms)

    def _observe_connection_call(self, args, kwargs):
        b = args[0] if args else kwargs.get("b")
        s = args[1] if len(args) > 1 else kwargs.get("s")
        sh = self.shapes
        sh.repeat_calls += 1
        done = sh.seen.get(id(b))
        if done is None:
            done = sh.seen[id(b)] = set()
            weakref.finalize(b, sh.seen.pop, id(b), None)
        if s in done:
            sh.repeat_hits += 1
        done.add(s)

    # -- installation -----------------------------------------------------

    def install(self, package: str) -> None:
        modules = _package_modules(package)
        scalar_mod = modules[package + ".scalar"]
        diffpoly_mod = modules[package + ".diffpoly"]
        for cls, methods, observe in (
            (scalar_mod.Scalar, SCALAR_METHODS, self._observe_scalar),
            (diffpoly_mod.DiffPoly, DIFFPOLY_METHODS, self._observe_diffpoly),
        ):
            for meth in methods:
                fn = cls.__dict__[meth]
                name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{meth}"
                self._patch(cls, meth, self._aggregate(fn, name, observe))

        for modname, mod in modules.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != modname or id(fn) in self.originals:
                    continue
                name = f"{short}.{attr}"
                if short in AGGREGATE_MODULES:
                    wrapper = self._aggregate(fn, name)
                else:
                    observe = self._observe_connection_call if name in REPEAT_TRACKED else None
                    wrapper = self._span(fn, name, observe)
                self.originals[id(fn)] = wrapper
                self.wrapped_names[id(fn)] = name

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = self.originals.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        self.verify_complete(package)

    def _patch(self, owner, attr, wrapper) -> None:
        self.patched.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def verify_complete(self, package: str) -> None:
        """Fail if any module of the package still binds an unwrapped original."""
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, wrapper in self.patched
            if getattr(owner, attr) is not wrapper
        ]
        for modname, mod in _package_modules(package).items():
            for attr, value in vars(mod).items():
                if id(value) in self.originals:
                    stale.append(f"{modname}.{attr} -> {self.wrapped_names[id(value)]}")
        if stale:
            raise AssertionError("tracer left unwrapped bindings: " + ", ".join(stale))
        if not self.originals:
            raise AssertionError("tracer wrapped nothing")

    # -- items ------------------------------------------------------------

    def open_item(self) -> tuple:
        """Open the top-level span of one benchmark item."""
        sid = next(self.span_ids)
        self.span_stack.append(sid)
        self.child.append(0.0)
        return sid, self.clock()

    def close_item(self, item: tuple, label: str) -> None:
        sid, t0 = item
        t1 = self.clock()
        self.spans.append((sid, label, t0, t1, None, (t1 - t0) - self.child.pop()))
        self.span_stack.pop()

    def snapshot(self) -> tuple:
        sh = self.shapes
        return (
            {k: list(v) for k, v in self.agg.items()},
            (sh.den_const, sh.den_monomial, sh.den_poly, sh.max_den_terms,
             sh.peak_terms, sh.repeat_calls, sh.repeat_hits,
             {k: set(v) for k, v in sh.seen.items()}),
            len(self.spans),
        )

    def restore(self, snap: tuple) -> None:
        """Drop what an aborted item recorded since snap.

        The item's own span stays open; its children go.  The alarm may
        have interrupted a wrapper anywhere, so every stack is reset to the
        item level and every depth to zero.
        """
        agg, shapes, nspans = snap
        for k, v in self.agg.items():
            v[:] = agg[k]
        sh = self.shapes
        (sh.den_const, sh.den_monomial, sh.den_poly, sh.max_den_terms,
         sh.peak_terms, sh.repeat_calls, sh.repeat_hits, seen) = shapes
        # in place: the finalizers registered on brackets hold this dict
        sh.seen.clear()
        sh.seen.update(seen)
        del self.spans[nspans:]
        del self.span_stack[2:]
        self.child[1:] = [0.0]
        for cell in self.depths:
            cell[0] = 0

    # -- summaries --------------------------------------------------------

    def layer_self(self) -> dict:
        out: dict = {}
        for name, (_, _, self_s) in self.agg.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def counts(self) -> dict:
        """Every deterministic count the trace holds, for repeat checks."""
        sh = self.shapes
        out = {f"calls.{k}": v[0] for k, v in sorted(self.agg.items())}
        out.update(
            den_const=sh.den_const, den_monomial=sh.den_monomial, den_poly=sh.den_poly,
            max_den_terms=sh.max_den_terms, peak_terms=sh.peak_terms,
            repeat_calls=sh.repeat_calls, repeat_hits=sh.repeat_hits,
        )
        return out


def _package_modules(package: str) -> dict:
    return {
        name: mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    }
