#!/usr/bin/env python3
"""The benchmark: four workloads, end-to-end metrics and a layer-attributed trace.

Run from the repository root::

    python3 bench/run.py                              # all workloads, one fresh process each
    python3 bench/run.py --workload warm-mixed --seed 3
    python3 bench/run.py --workload cold-solve --trace 1 --out run.json
    python3 bench/run.py --smoke --trace              # tiny inputs, for tests

Every metric is printed as ``<workload> <metric> <value> <unit>``.  With
``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
``end_to_end`` metrics of ``BENCHMARK.json`` (or, with ``--trace 1``, its
``per_layer`` metrics).  Set-up and closed-loop times are scaled to the
reference machine's speed (:mod:`speed`).  ``--out`` writes the full report:
machine, commit, seed, operation counts, wall-clock set-up and operation
times with the speed read before each, both metric sets and diagnostics.

The program is imported from ``src/`` of the checkout this file sits in, and
nowhere else; without it the benchmark exits with status 2 and prints no
result.  Temporary stores live under ``.bench_tmp/`` and are removed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np
    import repro
except ImportError as exc:
    print(f"bench: cannot import the program from {ROOT / 'src'}: {exc}",
          file=sys.stderr)
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"bench: imported repro from {repro.__file__}, not from this checkout",
          file=sys.stderr)
    sys.exit(2)

from layers import SpanLog, Wrappers, attribute  # noqa: E402
from serve_load import ServeHttp  # noqa: E402
from speed import speed as machine_speed  # noqa: E402
from workloads import (SCRATCH, ColdSolve, EdgeStream, WarmMixed,  # noqa: E402
                       percentile)

WORKLOADS = {cls.name: cls for cls in (ColdSolve, WarmMixed, EdgeStream, ServeHttp)}


def load_spec() -> dict:
    with open(BENCH, encoding="utf-8") as handle:
        return json.load(handle)


def machine() -> dict:
    with open("/proc/meminfo", encoding="ascii") as meminfo:
        total = next(int(line.split()[1]) for line in meminfo
                     if line.startswith("MemTotal:"))
    return {"cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "mem_total_mb": round(total / 1024),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}


def commit():
    """The checked-out commit, read from ``.git`` without running git (which
    would read configuration outside the checkout); None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(phase, setup_scaled, rss) -> dict:
    typical = phase.typical()
    return {
        "setup_s": median(setup_scaled),
        "ops_per_s": phase.ops_per_s,
        "latency_p50_s": percentile(typical, 50),
        "latency_p90_s": percentile(typical, 90),
        "peak_rss_mb": rss,
        "slo_attain": phase.slo_met / phase.attempted,
    }


def per_layer(workload, traced, log, wrappers, untraced) -> tuple:
    times, calls, root_seconds, orphans = attribute(log.records)
    metrics = {**times, **calls, **traced.counts,
               "obs.trace_overhead": traced.scaled_total() / untraced.scaled_total()
               - 1.0}
    report = {"wall_s": traced.wall, "root_s": root_seconds,
              "attributed_s": sum(times.values()), "orphans": orphans,
              "dropped": log.dropped, "spans": len(log.records),
              "unfired": sorted(set(workload.LAYERS) - wrappers.fired),
              "missing": wrappers.missing}
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in this process and return its report."""
    spec = load_spec()
    workload = WORKLOADS[name](seed, seconds, smoke)
    setup_times, setup_speeds = [], []
    state = None
    try:
        for _ in range(workload.setup_reps):
            if state is not None:
                workload.teardown(state)
                state = None
            gc.collect()
            setup_speeds.append(machine_speed() if workload.scaled else 1.0)
            start = time.perf_counter()
            state = workload.setup()
            setup_times.append(time.perf_counter() - start)
        phase = workload.run(state, None)
        e2e = end_to_end(phase, [t * s for t, s in zip(setup_times, setup_speeds)],
                         workload.peak_rss_mb(state))
        passes = [phase]
        layers = trace_report = None
        if trace:
            workload.teardown(state)
            state = None
            state = workload.setup(traced=True)
            log = SpanLog()
            with Wrappers() as wrappers:
                traced = workload.run(state, log)
            passes.append(traced)
            layers, trace_report = per_layer(workload, traced, log, wrappers,
                                             phase)
    finally:
        if state is not None:
            workload.teardown(state)
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]

    def section(values: dict, group: str) -> dict:
        return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                for m in spec[group]}

    return {
        "schema": "repro-bench-run/1", "workload": name, "seed": seed,
        "seconds": seconds, "trace": trace, "smoke": smoke,
        "machine": machine(), "commit": commit(),
        "operations": workload.operations,
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "fail_rate": len(failures) / attempted,
        "failures": failures[:20],
        "setup_times_s": setup_times, "setup_speeds": setup_speeds,
        "wall_s": phase.wall, "latencies_s": phase.latencies,
        "speeds": phase.speeds, "typical_latencies_s": phase.typical(),
        "end_to_end": section(e2e, "end_to_end"),
        "per_layer": section(layers, "per_layer") if trace else None,
        "traced": trace_report,
        "diagnostics": workload.diagnostics(),
    }


def print_lines(report: dict) -> None:
    name = report["workload"]
    for group in ("end_to_end", "per_layer"):
        for metric, entry in (report[group] or {}).items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    print(f"{name} fail_rate {report['fail_rate']!r} ratio")
    for failure in report["failures"]:
        print(f"# {name} failed: {failure}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    reports = []
    status = 0
    SCRATCH.mkdir(exist_ok=True)
    for name in WORKLOADS:
        fd, out = tempfile.mkstemp(prefix=f"{name}-", suffix=".json", dir=SCRATCH)
        os.close(fd)
        try:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out", out] + (["--smoke"] if args.smoke else [])
            child = subprocess.run(command, stdout=subprocess.DEVNULL)
            if child.returncode != 0:
                print(f"bench: workload {name} exited with {child.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
        finally:
            os.unlink(out)
        print_lines(report)
        reports.append(report)
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": reports}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run length; sets each workload's operation count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run the traced pass and "
                        "report the per-layer metrics")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (seconds, for tests)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every teardown (server, stores) runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload is None:
            return run_all(args)
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke)
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print_lines(report)
        group = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({"correct": report["correct"],
                          "attempted": report["attempted"],
                          "failed": report["failed"],
                          "metrics": report[group]}))
        return 0
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
