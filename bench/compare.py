#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one set.

    python3 bench/compare.py A/*.json B/*.json     # A is the parent, B the change
    python3 bench/compare.py A/*.json              # one set: spreads only

Each file is a report written by ``run.py --out`` (one workload, or
``{"runs": [...]}`` from a run of all workloads).  Files are split into the
two sides by directory, in the order the directories first appear.

For every workload and metric, each side's median and quartiles are printed
(``statistics.quantiles(values, n=4)``) with its spread, the interquartile
range as a share of the median.  End-to-end metrics get one verdict per row,
from the bounds in ``BENCHMARK.json``:

* ``unresolved`` — the spread of either side exceeds the bound;
* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the bound;
* ``unchanged`` — otherwise.

With one set, an end-to-end row is flagged ``noisy`` when its spread is a
third of its bound or more.  Per-layer metrics have no bound and get no
verdict.  Exits with status 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}


def load(paths) -> dict:
    """``{(workload, metric): [values]}`` over the reports in ``paths``."""
    values = defaultdict(list)
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        for report in doc.get("runs", [doc]):
            for group in ("end_to_end", "per_layer"):
                for metric, entry in (report.get(group) or {}).items():
                    values[(report["workload"], metric)].append(entry["value"])
    return values


def summary(values) -> tuple:
    """``(median, q1, q3, spread)``."""
    mid = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (mid, mid, mid))
    spread = (q3 - q1) / abs(mid) if mid else (0.0 if q3 == q1 else float("inf"))
    return mid, q1, q3, spread


def verdict(metric: str, a: tuple, b: tuple) -> str:
    spec = END_TO_END.get(metric)
    if spec is None:
        return ""
    bound = spec["bound"]
    if max(a[3], b[3]) > bound:
        return "unresolved"
    change = (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
    worse = change if spec["better"] == "lower" else -change
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def cell(stats: tuple) -> str:
    mid, q1, q3, spread = stats
    return f"{mid:.6g} [{q1:.6g}, {q3:.6g}] {100 * spread:.1f}%"


def main(argv) -> int:
    groups: dict = {}
    for path in argv:
        groups.setdefault(str(Path(path).resolve().parent), []).append(path)
    if len(groups) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(paths) for paths in groups.values()]
    order = {m["name"]: i for i, m in enumerate(SPEC["end_to_end"] + SPEC["per_layer"])}
    keys = sorted(set().union(*sides), key=lambda k: (k[0], order.get(k[1], 1e9), k[1]))
    regressed = False
    for workload, metric in keys:
        if any((workload, metric) not in side for side in sides):
            continue
        stats = [summary(side[(workload, metric)]) for side in sides]
        if len(stats) == 2:
            result = verdict(metric, *stats)
            regressed |= result == "regressed"
        else:
            bound = END_TO_END.get(metric, {}).get("bound")
            result = "noisy" if bound is not None and stats[0][3] >= bound / 3 else ""
        print(f"{workload:12} {metric:26} " + "  ".join(cell(s) for s in stats)
              + (f"  {result}" if result else ""))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
