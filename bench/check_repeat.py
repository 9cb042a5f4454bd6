#!/usr/bin/env python3
"""Check that two traced runs on one seed give identical counts.

    python3 bench/check_repeat.py --workload dp_square --seed 3

Runs ``bench/run.py --trace 1`` twice, each in its own process (so string
hashing differs between them), and compares every count the tracer keeps:
calls per wrapped name, denominator shapes, peak term counts and repeated
connection calls.  Items that exceeded the limit are excluded from counts by
the tracer, so only finished items are compared.  Exit 0 when both runs
agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload: str, seed: int) -> tuple[dict, list]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    finished = [r["label"] for r in result["items"] if r["status"] == "ok"]
    return result["counts"], finished


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    first, first_ok = traced_counts(args.workload, args.seed)
    second, second_ok = traced_counts(args.workload, args.seed)
    if first_ok != second_ok:
        print("the two runs finished different items; counts are not comparable")
        return 1
    diff = {k: (first.get(k), second.get(k)) for k in set(first) | set(second)
            if first.get(k) != second.get(k)}
    for k, (a, b) in sorted(diff.items()):
        print(f"{k}: {a} != {b}")
    print(f"{len(first)} counts, {len(diff)} differ, {len(first_ok)} finished items")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
