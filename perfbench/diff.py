#!/usr/bin/env python3
"""Print the layer tables of two benchmark records side by side.

Usage::

    python3 perfbench/diff.py BEFORE.json AFTER.json

The records are the JSON files ``perfbench/run.py`` writes under
``.perfbench/results/``.  Traced records (``--trace 1``) show the
per-layer table; untraced ones the end-to-end medians with quartiles.
Rows are ordered by how far they moved, so a regression shows which
layer moved first.  Two records of the same workload and seed whose
exact-repeat counts differ did different work: they are flagged NOT
COMPARABLE and the command exits 1.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def table(record: dict) -> dict:
    return record.get("per_layer") or record.get("end_to_end") or {}


def moved(before: float, after: float) -> float:
    if before == after:
        return 0.0
    if before == 0:
        return float("inf")
    return after / before - 1.0


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (load(path) for path in argv)
    print(f"A: {argv[0]}  ({a['workload']}, seed {a['seed']}, "
          f"trace {a['trace']}, src {a['host']['src_digest']})")
    print(f"B: {argv[1]}  ({b['workload']}, seed {b['seed']}, "
          f"trace {b['trace']}, src {b['host']['src_digest']})")
    status = 0
    if a["workload"] != b["workload"]:
        print("warning: different workloads")
    shared = sorted(set(a["counts"]) & set(b["counts"]))
    differing = [k for k in shared if a["counts"][k] != b["counts"][k]]
    if a["workload"] == b["workload"] and a["seed"] == b["seed"] and differing:
        print("NOT COMPARABLE: exact-repeat counts differ: " + ", ".join(
            f"{k} {a['counts'][k]} -> {b['counts'][k]}" for k in differing
        ))
        status = 1
    for record, label in ((a, "A"), (b, "B")):
        if not record.get("comparable", True):
            print(f"NOT COMPARABLE: {label}'s passes disagree on their counts")
            status = 1

    ta, tb = table(a), table(b)
    names = [n for n in ta if n in tb] + [n for n in tb if n not in ta]
    rows = []
    for name in names:
        va = ta.get(name, {}).get("value")
        vb = tb.get(name, {}).get("value")
        unit = (ta.get(name) or tb.get(name))["unit"]
        change = moved(va, vb) if va is not None and vb is not None else 0.0
        rows.append((name, va, vb, unit, change))
    rows.sort(key=lambda row: -abs(row[4]))
    print(f"{'metric':28s} {'A':>14s} {'B':>14s} {'unit':8s} {'B/A-1':>9s}")
    for name, va, vb, unit, change in rows:
        fa = "-" if va is None else f"{va:.6g}"
        fb = "-" if vb is None else f"{vb:.6g}"
        fc = "new" if change == float("inf") else f"{100 * change:+.1f}%"
        print(f"{name:28s} {fa:>14s} {fb:>14s} {unit:8s} {fc:>9s}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
