#!/usr/bin/env bash
# CI / pre-merge check: tier-1 tests, smoke runs of every example, the
# unified benchmark harness (engines x parallel modes, kept-set
# reconstruction, cold/warm sessions, store restart, out-of-core mmap —
# scripts/bench.py), the out-of-core mmap smoke (small graph forced through
# storage=mmap, bit-identical to in-memory), the mmap-trajectory smoke
# (trajectory spilled to the append-only .traj buffer, bit-identical and
# prefix-resumable), the warm-session throughput
# benchmark (>= 2x over cold per-call on repeated mixed requests), the
# persistent-store smoke (second run served from disk, bit-identical),
# the `repro cache` CLI smoke, the HTTP serve smoke (`repro serve` as a
# subprocess on an ephemeral port: jobs over a real socket, /metrics in both
# JSON and Prometheus exposition, graceful SIGTERM drain with no staging
# files left in the store), the densest fast-path smoke (phases 2-4 on the
# CSR kernels, bit-identical to the faithful 4-phase simulator pipeline),
# the observability smoke (a traced solve exported to Chrome trace
# format plus a non-empty `repro trace summarize` per-span table), and the
# bench/ smoke (each BENCHMARK.json workload once, traced, on tiny inputs).
#
# Usage:  ./scripts/check.sh            (from anywhere; repo root is inferred)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repo hygiene (no tracked bytecode) =="
if git ls-files | grep -E '(\.py[co]$|__pycache__/)' ; then
    echo "check.sh: tracked Python bytecode found; git rm --cached it" >&2
    exit 1
fi
echo "clean"

echo
echo "== tier-1 tests =="
python -m pytest -x -q

echo
echo "== slow + bench tests =="
python -m pytest -q -m "slow or bench"

echo
echo "== example smoke runs (REPRO_SMOKE=1) =="
for example in examples/*.py; do
    echo "-- $example"
    REPRO_SMOKE=1 python "$example" > /dev/null
done

echo
echo "== unified benchmark harness (smoke) =="
python scripts/bench.py --smoke --output "$(mktemp -t bench_smoke.XXXXXX.json)"

echo
echo "== benchmark smoke (bench/: every workload once, traced, tiny inputs) =="
# Fails when a layer function the traced run wraps is renamed or no longer
# called (an unfired or missing wrapper); pytest.ini's testpaths skip bench/.
python -m pytest bench -q

echo
echo "== out-of-core mmap smoke (storage=mmap bit-identical to in-memory) =="
python - <<'PY'
import numpy as np
from repro.engine import get_engine
from repro.graph.generators.random_graphs import barabasi_albert

graph = barabasi_albert(2000, 3, seed=21)
memory = get_engine("sharded:4").run(graph, 8, track_kept=True)
mapped = get_engine("sharded:shards=4,storage=mmap").run(graph, 8, track_kept=True)
assert mapped.values == memory.values, "mmap values differ from in-memory"
assert mapped.kept == memory.kept, "mmap kept sets differ from in-memory"
assert np.array_equal(mapped.trajectory, memory.trajectory), \
    "mmap trajectory is not bit-identical"
print("mmap smoke: storage=mmap bit-identical on n=2000 (8 rounds)")
PY

echo
echo "== mmap-trajectory smoke (traj=mmap bit-identical, prefix-resumable) =="
python - <<'PY'
import tempfile

import numpy as np

from repro.engine import get_engine
from repro.engine.sharded import ShardedEngine
from repro.graph.generators.random_graphs import barabasi_albert

graph = barabasi_albert(2000, 3, seed=21)
memory = get_engine("sharded:4").run(graph, 8, track_kept=True)
with tempfile.TemporaryDirectory(prefix="repro-traj-smoke-") as tmp:
    engine = ShardedEngine(num_shards=4, storage="mmap",
                           trajectory_storage="mmap", storage_dir=tmp)
    spilled = engine.run(graph, 8, track_kept=True)
    assert spilled.values == memory.values, "traj values differ from in-memory"
    assert spilled.kept == memory.kept, "traj kept sets differ from in-memory"
    assert np.array_equal(spilled.trajectory, memory.trajectory), \
        "spilled trajectory is not bit-identical"
    assert isinstance(spilled.trajectory, np.memmap), \
        "trajectory did not spill to disk"
    engine.close()
    # A fresh engine must resume from the on-disk prefix, bit-identically.
    resumed = ShardedEngine(num_shards=4, storage="mmap",
                            trajectory_storage="mmap", storage_dir=tmp)
    longer = resumed.run(graph, 12, track_kept=False)
    reference = get_engine("sharded:4").run(graph, 12, track_kept=False)
    assert np.array_equal(longer.trajectory, reference.trajectory), \
        "resumed trajectory is not bit-identical"
    resumed.close()
print("traj smoke: trajectory_storage=mmap bit-identical and resumable "
      "on n=2000 (8 -> 12 rounds)")
PY

echo
echo "== session throughput (warm Session vs cold per-call) =="
python scripts/bench_session.py --nodes 10000 --requests 50 --require 2.0

echo
echo "== persistent store smoke (restart served from disk, bit-identical) =="
python scripts/store_smoke.py

echo
echo "== repro cache CLI smoke =="
STORE_DIR="$(mktemp -d -t repro_cache_smoke.XXXXXX)"
trap 'rm -rf "$STORE_DIR"' EXIT
python -m repro batch --dataset caveman --rounds 6 --store "$STORE_DIR" > /dev/null
# A plain pipe is safe under pipefail: the CLI exits 0 on BrokenPipeError,
# so grep -q quitting on the first match cannot fail the check.
python -m repro batch --dataset caveman --rounds 6 --store "$STORE_DIR" --async \
    | grep -q "disk_hits=1" \
    || { echo "cache smoke: second run missed the store"; exit 1; }
python -m repro cache ls --store "$STORE_DIR"
python -m repro cache info --store "$STORE_DIR" > /dev/null
python -m repro cache purge --store "$STORE_DIR" | grep -q "purged" \
    || { echo "cache smoke: purge failed"; exit 1; }

echo
echo "== HTTP serve smoke (ephemeral port, jobs over the wire, SIGTERM drain) =="
python scripts/serve_smoke.py

echo
echo "== densest fast-path smoke (engine=array bit-identical to simulator) =="
python - <<'PY'
from repro.core.densest import weak_densest_subsets
from repro.graph.generators.random_graphs import barabasi_albert

graph = barabasi_albert(1500, 3, seed=33)
reference = weak_densest_subsets(graph, rounds=4)
fast = weak_densest_subsets(graph, rounds=4, engine="array")
assert fast.subsets == reference.subsets, "array subsets differ"
assert fast.reported_densities == reference.reported_densities, \
    "array reported densities differ"
assert fast.node_assignment == reference.node_assignment, \
    "array node assignment differs"
assert fast.best_leader == reference.best_leader, "array best leader differs"
assert fast.messages_total == 0 and reference.messages_total > 0
print(f"densest smoke: engine=array bit-identical on n=1500 (T=4, "
      f"{len(fast.subsets)} subsets)")
PY

echo
echo "== observability smoke (traced solve -> export -> summarize; /metrics prometheus) =="
OBS_DIR="$(mktemp -d -t repro_obs_smoke.XXXXXX)"
trap 'rm -rf "$STORE_DIR" "$OBS_DIR"' EXIT
python -m repro coreness --dataset caveman --epsilon 0.5 \
    --trace "$OBS_DIR/run.trace" > /dev/null
python -m repro trace export --input "$OBS_DIR/run.trace" --chrome \
    --output "$OBS_DIR/run.chrome.json" > /dev/null
python - "$OBS_DIR/run.chrome.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {event["name"] for event in doc["traceEvents"]}
missing = {"session.solve", "engine.run", "kernel.round_range"} - names
assert not missing, f"chrome trace is missing hot-path spans: {missing}"
print(f"obs smoke: chrome trace carries {len(doc['traceEvents'])} spans")
PY
python -m repro trace summarize --input "$OBS_DIR/run.trace" \
    | grep -q "kernel.round_range" \
    || { echo "obs smoke: summarize has no per-phase table"; exit 1; }

echo
echo "check.sh: all green"
