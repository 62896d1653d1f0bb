#!/usr/bin/env bash
# CI / pre-merge check: tier-1 tests, the slow and bench tests (among them
# the lineage machine's long profile, the paper's claims against exact optima
# at 5k nodes, and the warm-session throughput gate: >= 2x over a cold session
# per request on repeated mixed requests, bit-identical), smoke runs of every
# example, the trajectory spill smoke (store-backed sessions with the spill
# threshold patched to 0: vectorized and threaded sharded roots append to the
# store's .traj bit-identically, a restarted session extends the stored
# prefix, and a one-edge delta child's frontier re-solve spills), the
# persistent-store smoke (the cold run leaves one append-only trajectory-lam0.0.traj/ and no
# .npz; second run served from disk, bit-identical; a resumed 2x-rounds run
# appends without rewriting the stored rows of rows.bin; then a chain of
# three delta versions, each restarted by a fresh session whose full CSR
# build must find the artifacts stored under the spliced view's fingerprint,
# and isolated: writing to the last version's graph in place, on a row it
# shares copy-on-write with the root, leaves every earlier version's
# fingerprint unchanged; and a solved chain whose earlier versions are
# collected once dropped, the last one still answering bit-identically from
# its collected parent's stored trajectory), the `repro cache` CLI smoke, the
# HTTP serve smoke (`repro serve` as a subprocess on an ephemeral port: jobs
# over a real socket, each answer fetched with include=result and compared
# with the same request's to_dict() in-process, /metrics in both JSON and
# Prometheus exposition, a chain of MAX_SESSIONS + 8 delta versions past the
# server's session bound whose first version re-opens as a disk hit with the
# same answer and replays its delta without minting a new key while no
# session counter falls, and a second such chain posted with no job whose
# evicted first version still solves by frontier, graceful SIGTERM drain with
# no staging files left in the store), the densest fast-path smoke (phases
# 2-4 on the CSR kernels, bit-identical to the faithful 4-phase simulator
# pipeline), the observability smoke (a traced solve exported to Chrome trace
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
echo "== benchmark smoke (bench/: every workload once, traced, tiny inputs) =="
# Fails when a layer function the traced run wraps is renamed or no longer
# called (an unfired or missing wrapper); pytest.ini's testpaths skip bench/.
python -m pytest bench -q

echo
echo "== trajectory spill smoke (store-backed sessions append to .traj, bit-identical) =="
python - <<'PY'
import tempfile

import numpy as np

import repro.session as session_module
from repro.graph.delta import GraphDelta
from repro.graph.generators.random_graphs import barabasi_albert
from repro.session import Session
from repro.store import ArtifactStore

graph = barabasi_albert(2000, 3, seed=21)
delta = GraphDelta(add_edges=[(0, 1999, 1.0)])
memory = Session(graph, engine="sharded:4").surviving(rounds=8, track_kept=True)
reference = Session(graph, engine="sharded:4").surviving(rounds=12)
child_in_ram = Session(graph, engine="sharded:4")
child_in_ram.surviving(rounds=8)
child_in_ram = child_in_ram.apply_delta(delta).surviving(rounds=8).trajectory
session_module.SPILL_BYTES = 0  # every store-backed trajectory spills
for spec in ("vectorized", "sharded:shards=4,workers=2"):
    with tempfile.TemporaryDirectory(prefix="repro-traj-smoke-") as tmp:
        store = ArtifactStore(tmp)
        parent = Session(graph, engine=spec, store=store)
        spilled = parent.surviving(rounds=8, track_kept=True)
        assert isinstance(spilled.trajectory, np.memmap), \
            f"{spec}: trajectory did not spill to disk"
        assert spilled.trajectory.tobytes() == memory.trajectory.tobytes(), \
            f"{spec}: spilled trajectory is not bit-identical"
        assert spilled.values == memory.values, f"{spec}: values differ"
        assert spilled.kept == memory.kept, f"{spec}: kept sets differ"
        # A restarted session extends the stored prefix, bit-identically.
        restarted = Session(graph, engine=spec, store=store)
        longer = restarted.surviving(rounds=12).trajectory
        assert (restarted.stats.rounds_reused,
                restarted.stats.rounds_executed) == (8, 4), restarted.stats
        assert isinstance(longer, np.memmap), f"{spec}: resume did not spill"
        assert longer.tobytes() == reference.trajectory.tobytes(), \
            f"{spec}: resumed trajectory is not bit-identical"
        # A one-edge delta child re-solves its frontier on the store's
        # appender: its trajectory maps its own .traj.
        child = parent.apply_delta(delta)
        mapped = child.surviving(rounds=8).trajectory
        assert child.stats.incremental_runs == 1, \
            f"{spec}: child did not re-solve by frontier"
        assert isinstance(mapped, np.memmap), \
            f"{spec}: delta child did not spill to disk"
        assert mapped.tobytes() == child_in_ram.tobytes(), \
            f"{spec}: spilled delta child is not bit-identical"
print("traj smoke: vectorized and threaded sharded roots spill bit-identically "
      "on n=2000, a restart extends 8 -> 12 rounds from the stored prefix, "
      "and a delta child's frontier spills")
PY


echo
echo "== persistent store smoke (restart and delta versions served from disk, bit-identical) =="
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
