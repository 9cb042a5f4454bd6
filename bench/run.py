#!/usr/bin/env python3
"""dnbrackets benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload generated_jacobi --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--workload`` is ``fixture_report``, ``generated_jacobi``, ``dp_square`` or
``all`` (one after another in this process, so peak_rss_mb is the peak so
far).  Each workload is a closed loop with one caller: its items run back
to back in this process.  Items are grouped in passes (see ``workloads``);
passes repeat until ``--seconds`` have elapsed, and the pass in progress is
finished, so every metric covers whole passes.

* ``--trace 0`` times the passes with the package untouched and reports the
  end-to-end metrics.
* ``--trace 1`` installs the outside-in tracer (``tracer.py``), runs one
  pass traced, runs the items that finished again untraced for the tracing
  overhead, and reports the per-layer metrics.  Their times are measured
  seconds, tracing overhead included.

Durations in the metrics are nominal seconds: measured seconds divided by
the host's slowness during the run, which a fixed reference kernel sampled
throughout the untraced run shows (``hostspeed.py``), so that the shared
host's changes of speed do not read as changes of the program.  The
per-item limit is in nominal seconds too.  The results file keeps the
measured seconds of every item and the kernel samples.

Every verdict is compared with the answer known in advance; a wrong verdict
makes the run fail (exit 1).  An item that raises or exceeds the per-item
limit counts as failed and is named in the results file.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full results, stamped with the Python
version, CPU count, git SHA, seed and limit, go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join("bench", "results")
PACKAGE = "dnbrackets"

# In nominal seconds (see hostspeed).  The generated_jacobi items that
# finish take at most ~19 s, while nonflat2 under u1 -> u1 + c*u2 takes
# ~44 s and other polynomial-denominator cases 83 s to over 500 s.  The
# limit sits at the geometric mean of 19 and 44, well away from both groups.
ITEM_LIMIT_S = 29.0
SETUP_REPEATS = 5
WORKLOADS = ("fixture_report", "generated_jacobi", "dp_square")


class ItemTimeout(BaseException):
    """Raised by SIGALRM when an item exceeds the per-item limit."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import dnbrackets from this checkout's src/, dropping earlier copies."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    import dnbrackets
    import dnbrackets.cli
    import dnbrackets.sampling

    src = os.path.join(ROOT, "src", PACKAGE)
    if os.path.dirname(os.path.abspath(dnbrackets.__file__)) != src:
        raise ImportError(f"{PACKAGE} was imported from {dnbrackets.__file__}, not {src}")
    return dnbrackets


def build(workload: str, seed: int):
    import workloads as W

    dn = import_package()
    if workload == "fixture_report":
        return W.setup_fixture_report(dn, seed)
    if workload == "generated_jacobi":
        return W.setup_generated_jacobi(dn, seed)
    return W.setup_dp_square(dn, seed)


def setup(workload: str, seed: int, host):
    """Set up SETUP_REPEATS times; the last workload and the times."""
    times, wl = [], None
    for _ in range(SETUP_REPEATS):
        if wl is not None and wl.closing:
            wl.closing()
        wl, seconds = host.timed(lambda: build(workload, seed))
        times.append(seconds)
    return wl, times


# ---------------------------------------------------------------------------
# timed phase


def run_item(item, limit: float, tracer=None) -> dict:
    span = snap = None
    if tracer is not None:
        span = tracer.open_item()
        snap = tracer.snapshot()
    status, verdict = "ok", None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            verdict = item.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        status = "timeout"
    except Exception as exc:  # noqa: BLE001 - a raising item is a failed item
        status, verdict = "error", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        if status != "ok":
            tracer.restore(snap)
        tracer.close_item(span, item.label)
    wrong = status == "ok" and verdict != item.expected
    return {
        "label": item.label,
        **item.tag,
        "seconds": seconds,
        "status": "wrong" if wrong else status,
        "verdict": repr(verdict) if wrong or status == "error" else None,
        "expected": repr(item.expected) if wrong else None,
    }


def run_passes(items, seconds: float, host) -> list:
    """Whole passes over items until `seconds` have elapsed; their records.

    Each item's limit is ITEM_LIMIT_S nominal seconds at the slowness seen
    so far, and its record gets the seconds it took without kernel time.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        records = []
        for item in items:
            limit = ITEM_LIMIT_S * host.slowness()
            rec, net = host.timed(lambda: run_item(item, limit))
            records.append({**rec, "net_seconds": net})
        passes.append(records)
    return passes


def tail(values: list) -> tuple:
    """The highest percentile with at least 10 values beyond it, and n.

    Below 20 values that percentile is not above the median: no tail.
    """
    n = len(values)
    if n < 20:
        return None, None, n
    ordered = sorted(values)
    return ordered[n - 11], round(100.0 * (n - 10) / n, 1), n


def end_to_end(passes, setup_times, slowness: float) -> dict:
    """End-to-end metrics; every duration is in nominal seconds."""
    records = [r for p in passes for r in p]
    for r in records:
        timeout = r["status"] == "timeout"
        r["nominal_seconds"] = ITEM_LIMIT_S if timeout else r["net_seconds"] / slowness
    # a failed item misses every latency limit, so it sorts above all others;
    # a percentile that lands on one is reported as None (above the limit)
    times = [r["nominal_seconds"] if r["status"] == "ok" else math.inf for r in records]
    p50 = statistics.median(times)
    tail_s, tail_pct, n = tail(times)
    failed = sum(r["status"] in ("timeout", "error") for r in records)
    return {
        "setup_s": statistics.median(setup_times) / slowness,
        "pass_s": statistics.median(sum(r["nominal_seconds"] for r in p) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verdict_p50_s": None if p50 == math.inf else p50,
        "verdict_tail_s": None if tail_s == math.inf else tail_s,
        "verdict_tail_pct": tail_pct,
        "verdict_n": n,
        "failed_share": failed / len(records),
        "passes": len(passes),
    }


# the metrics BENCHMARK.json bounds; peak_rss_mb is reported but not bounded,
# because on generated_jacobi it depends on how far the timed-out items got
E2E_UNITS = {"setup_s": "s", "pass_s": "s"}


# ---------------------------------------------------------------------------
# traced run


def traced(wl, limit: float) -> tuple[dict, list, list, dict]:
    from tracer import Tracer

    tr = Tracer()
    tr.install(PACKAGE)
    t0 = time.perf_counter()
    records = [run_item(item, limit, tr) for item in wl.items]
    traced_s = time.perf_counter() - t0
    counts = tr.counts()
    layer = per_layer(tr, records)
    tr.uninstall()

    finished = [item for item, r in zip(wl.items, records) if r["status"] == "ok"]
    traced_ok = sum(r["seconds"] for r in records if r["status"] == "ok")
    t0 = time.perf_counter()
    untraced_ok = sum(run_item(item, limit)["seconds"] for item in finished)
    untraced_s = time.perf_counter() - t0
    layer["trace.overhead_ratio"] = traced_ok / untraced_ok if untraced_ok else 1.0
    walls = {"traced_wall_s": traced_s, "untraced_wall_s": untraced_s,
             "untraced_wall_covers": "the items that finished in the traced pass"}
    return layer, records, tr.spans, {**walls, "counts": counts}


def per_layer(tr, records) -> dict:
    import workloads as W

    agg, sh = tr.agg, tr.shapes
    layers = tr.layer_self()

    def calls(name):
        return agg.get(name, [0])[0]

    def incl(name):
        return agg.get(name, [0, 0.0])[1]

    ops = sum(v[0] for k, v in agg.items() if k.startswith("scalar.Scalar."))
    dens = sh.den_const + sh.den_monomial + sh.den_poly
    out = {
        "scalar.self_s": layers.get("scalar", 0.0),
        "scalar.ops": ops,
        "scalar.den_const_share": sh.den_const / dens if dens else 0.0,
        "scalar.den_monomial_share": sh.den_monomial / dens if dens else 0.0,
        "scalar.den_poly_share": sh.den_poly / dens if dens else 0.0,
        "scalar.max_den_terms": sh.max_den_terms,
        "diffpoly.self_s": layers.get("diffpoly", 0.0),
        "diffpoly.mul_calls": calls("diffpoly.DiffPoly.__mul__"),
        "diffpoly.dx_calls": calls("diffpoly.DiffPoly.d_x"),
        "diffpoly.peak_terms": sh.peak_terms,
        "connections.self_s": layers.get("connections", 0.0),
        "connections.flat_combination.calls": calls("connections.flat_combination"),
        "connections.standard_connection.calls": calls("connections.standard_connection"),
        "connections.repeat_share": sh.repeat_hits / sh.repeat_calls if sh.repeat_calls else 0.0,
        "jacobi.self_s": layers.get("jacobi", 0.0),
        "jacobi.apply_DP.calls": calls("jacobi.apply_DP"),
        "jacobi.check_jacobi.incl_s": incl("jacobi.check_jacobi"),
        "bracket.self_s": layers.get("bracket", 0.0),
        "bracket.transform.incl_s": incl("bracket.transform"),
        "bracket.skew_defects.incl_s": incl("bracket.skew_defects"),
        "spectral.self_s": layers.get("spectral", 0.0),
        "spectral.d1_closed.incl_s": incl("spectral.d1_closed"),
        "spectral.d1_as_connection.incl_s": incl("spectral.d1_as_connection"),
        "spectral.homotopy.incl_s": incl("spectral.homotopy"),
        "lowdegree.self_s": layers.get("lowdegree", 0.0),
        "grammar.self_s": layers.get("grammar", 0.0),
        "grammar.parse_expression.calls": calls("grammar.parse_expression"),
    }
    for label, *_ in W.REPORT_DOCS:
        name = "cli.report." + label
        out[name + ".incl_s"] = sum(
            r["seconds"] for r in records if r["label"] == name and r["status"] == "ok"
        )
    return out


def layer_unit(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return {"s": "s", "share": "share", "ratio": "ratio"}.get(suffix, "count")


# ---------------------------------------------------------------------------
# results


def git_sha() -> str:
    """HEAD's SHA read from .git, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, args) -> dict:
    host = HostSpeed()
    stamp = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item_limit_s": ITEM_LIMIT_S,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }
    spans = wl = None
    try:
        with host:
            wl, setup_times = setup(name, args.seed, host)
            if not args.trace:
                t0 = time.perf_counter()
                passes = run_passes(wl.items, args.seconds, host)
                stamp.update(traced_wall_s=None, untraced_wall_s=time.perf_counter() - t0)
        slowness = host.slowness()
        stamp.update(host_slowness=slowness, host_ticks=host.ticks, setup_times_s=setup_times)
        if args.trace:
            # the kernel is not sampled while tracing: it would land in the spans
            metrics, records, spans, extra = traced(wl, ITEM_LIMIT_S * slowness)
            stamp.update(extra)
        else:
            metrics = end_to_end(passes, setup_times, slowness)
            records = [r for p in passes for r in p]
    finally:
        if wl is not None and wl.closing:
            wl.closing()
    failed = [r for r in records if r["status"] in ("timeout", "error")]
    wrong = [r for r in records if r["status"] == "wrong"]
    result = {
        **stamp,
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "failed_items": failed,
        "wrong_items": wrong,
        "metrics": metrics,
        "items": records,
    }
    base = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if spans is not None:
        with open(base + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "self"], "spans": spans}, fh)
    return result


def print_rows(results: list, trace: int) -> None:
    if trace:
        names = sorted({k for r in results for k in r["metrics"]})
        print("metric".ljust(44) + "".join(r["workload"].rjust(18) for r in results))
        for k in names:
            cells = "".join(f"{r['metrics'].get(k, 0):18.6g}" for r in results)
            print(f"{k} [{layer_unit(k)}]".ljust(44) + cells)
    else:
        print_e2e(results)
    for r in results:
        for f in r["failed_items"]:
            print(f"  {r['workload']}: {f['status']} after {f['seconds']:.1f} measured s: {f['label']}")


def print_e2e(results: list) -> None:
    cols = [
        ("setup_s", "s"), ("pass_s", "s"), ("verdict_p50_s", "s"), ("verdict_tail_s", "s"),
        ("failed_share", "share"), ("peak_rss_mb", "MB"),
    ]
    print("workload".ljust(18) + "".join(f"{k} [{u}]".rjust(22) for k, u in cols) + "   tail pct/n")
    for r in results:
        m = r["metrics"]
        few = m["verdict_tail_pct"] is None  # fewer than 20 items: no tail
        cells = "".join(
            ("n/a" if few and k == "verdict_tail_s" else f">{ITEM_LIMIT_S:g}" if m[k] is None
             else f"{m[k]:.4f}").rjust(22)
            for k, _ in cols
        )
        pct = "n/a" if few else f"p{m['verdict_tail_pct']}"
        print(r["workload"].ljust(18) + cells + f"   {pct}/{m['verdict_n']}")


def summary(results: list, trace: int) -> dict:
    single = len(results) == 1
    metrics = {}
    for r in results:
        for k, v in r["metrics"].items():
            if trace:
                unit = layer_unit(k)
            elif k in E2E_UNITS:
                unit = E2E_UNITS[k]
            else:
                continue
            metrics[k if single else f"{r['workload']}.{k}"] = {"value": v, "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    missing = [p for p in (os.path.join("src", PACKAGE), os.path.join("tests", "fixtures"))
               if not os.path.isdir(p)]
    if missing:
        print(f"bench: missing {', '.join(missing)}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
    os.makedirs(RESULTS, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args) for name in names]
    print_rows(results, args.trace)
    out = summary(results, args.trace)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
