"""Smoke tests of the benchmark itself (``python -m pytest bench -q``).

Each workload runs once, traced, on tiny inputs (``--smoke``), as a
subprocess the way the benchmark is driven.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CLOSED_LOOP = ("cold-solve", "warm-mixed", "edge-stream")


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """(last stdout line, full report) per workload."""
    out_dir = tmp_path_factory.mktemp("bench")
    runs = {}
    for workload in WORKLOADS:
        out = out_dir / f"{workload}.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "3", "--trace", "1", "--smoke", "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        runs[workload] = (last, json.loads(out.read_text(encoding="utf-8")))
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(reports, workload):
    last, report = reports[workload]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and report["fail_rate"] == 0
    assert last["metrics"] == report["per_layer"]
    for group in ("end_to_end", "per_layer"):
        assert {name: entry["unit"] for name, entry in report[group].items()} \
            == {m["name"]: m["unit"] for m in SPEC[group]}
    assert all(entry["value"] > 0 for entry in report["end_to_end"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_the_traced_time(reports, workload):
    traced = reports[workload][1]["traced"]
    assert traced["dropped"] == 0 and traced["orphans"] == 0
    assert traced["unfired"] == [] and traced["missing"] == []
    assert traced["attributed_s"] == pytest.approx(traced["root_s"], rel=0.05)
    if workload in CLOSED_LOOP:
        assert traced["attributed_s"] == pytest.approx(traced["wall_s"], rel=0.05)


def test_a_wrong_coreness_value_counts_as_a_failed_operation(monkeypatch):
    from repro.problems import CorenessProblem

    import run

    solve = CorenessProblem.solve

    def perturbed(self, session, **params):
        result = solve(self, session, **params)
        result.values[next(iter(result.values))] = -1.0
        return result

    monkeypatch.setattr(CorenessProblem, "solve", perturbed)
    report = run.run_workload("cold-solve", seed=3, seconds=1, trace=False,
                              smoke=True)
    # One coreness operation per graph in each of the two smoke replays.
    assert not report["correct"]
    assert report["failed"] == 4
    assert all("coreness" in failure for failure in report["failures"])
