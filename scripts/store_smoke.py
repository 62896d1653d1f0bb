#!/usr/bin/env python
"""CI smoke check of the persistent artifact store (used by check.sh).

Runs the same workload twice against one temporary store with *fresh* sessions
(the second run stands in for a restarted process) and asserts the wire-level
contract of ``repro.store``:

* the cold run persists its trajectory as the append-only
  ``trajectory-lam0.0.traj/`` directory, and the store holds no ``.npz``;
* the second run is served from disk (``disk_hits`` counted, zero cold runs);
* its results are bit-identical to the first run's (values, kept sets and the
  full trajectory);
* a stored short trajectory warm-starts a longer budget (prefix reuse
  composes across restarts), and extending it appends: the stored rows of
  ``rows.bin`` keep their bytes;
* along a chain of three deltas (a new node, a loop, a reweight, a remove
  and re-add), each child's spliced CSR view fingerprints like a full build:
  a fresh session on the child's graph is served from the child's stored
  artifacts, bit-identically;
* the versions are isolated: the chain's graphs share their untouched rows
  copy-on-write, and mutating the last child's graph in place (an edge on a
  row it still shares with the root, and a node removal) leaves the root and
  every earlier version with the content fingerprint it had;
* a solved chain does not pin its versions: once the script drops every
  version but the last, the earlier ones are collected, and the last one's
  first solve at a new λ seeds its frontier from its collected parent's
  stored trajectory, bit-identically to a cold solve.

Exits non-zero on any violation.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import weakref
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.graph.csr import graph_fingerprint  # noqa: E402
from repro.graph.delta import GraphDelta  # noqa: E402
from repro.graph.generators.random_graphs import barabasi_albert  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from repro.store.traj import rows_path  # noqa: E402


def main() -> int:
    graph = barabasi_albert(3000, 3, seed=7)
    rounds = 8
    with tempfile.TemporaryDirectory(prefix="repro-store-smoke-") as tmp:
        store = ArtifactStore(tmp)

        cold_session = Session(graph, store=store)
        cold = cold_session.coreness(rounds=rounds)
        assert cold_session.stats.disk_writes >= 1, "cold run persisted nothing"
        graph_dir = store.graph_dir(cold_session.fingerprint)
        names = {p.name for p in graph_dir.iterdir()}
        assert "trajectory-lam0.0.traj" in names, f"no .traj artifact: {names}"
        assert not any(p.suffix == ".npz" for p in graph_dir.rglob("*")), \
            f"the store wrote an .npz: {names}"
        rows = rows_path(store.root, cold_session.fingerprint, 0.0)
        stored_prefix = rows.read_bytes()
        assert len(stored_prefix) == (rounds + 1) * graph.num_nodes * 8, \
            "rows.bin does not hold rounds + 1 rows"

        restarted = Session(graph, store=store)
        served = restarted.coreness(rounds=rounds)
        assert restarted.stats.disk_hits == 1, \
            f"restart did not hit the disk: {restarted.stats.to_dict()}"
        assert restarted.stats.cold_runs == 0, "restart recomputed from scratch"
        assert served.values == cold.values, "restart values differ"
        assert np.array_equal(served.surviving.trajectory,
                              cold.surviving.trajectory), \
            "restart trajectory is not bit-identical"

        resumer = Session(graph, store=store)
        resumed = resumer.coreness(rounds=rounds * 2)
        assert resumer.stats.rounds_reused == rounds, "stored prefix unused"
        fresh = Session(graph).coreness(rounds=rounds * 2)
        assert resumed.values == fresh.values, "resumed values differ from cold"
        extended = rows.read_bytes()
        assert extended[:len(stored_prefix)] == stored_prefix, \
            "the resumed run rewrote published rows"
        assert extended == fresh.surviving.trajectory.tobytes(), \
            "extended rows.bin differs from a cold trajectory"

        delta_chain_restart(cold_session, store, rounds)
        released = released_chain(Session(graph, store=store), rounds)

        info = store.info()
        print(f"store smoke: ok (graph n={graph.num_nodes}, rounds={rounds}; "
              f"one .traj, no .npz; restart disk_hits=1, bit-identical; "
              f"prefix resume reused {rounds} rounds and appended; 3 delta "
              f"versions restarted from disk and isolated from an in-place "
              f"write; {released} dropped versions of a solved chain "
              f"collected; store holds {info['files']} "
              f"files / {info['bytes']} bytes)")
    return 0


def delta_chain_restart(session: Session, store: ArtifactStore,
                        rounds: int) -> None:
    """Solve a chain of three deltas, restart each version from disk, then
    mutate the last version in place and check the others are untouched."""
    (u, v, _), (x, y, _) = list(session.graph.edges())[:2]
    new = session.graph.num_nodes
    deltas = [GraphDelta(add_nodes=[new], add_edges=[(new, u, 1.0)]),
              GraphDelta(set_weights=[(v, v, 2.0), (x, y, 3.0)]),
              GraphDelta(remove_edges=[(u, v)], add_edges=[(u, v, 1.5)])]
    versions = [session]
    for delta in deltas:
        session = session.apply_delta(delta)
        versions.append(session)
        solved = session.coreness(rounds=rounds)
        assert session.stats.csr_builds == 1
        restarted = Session(session.graph, store=store)  # a full CSR build
        served = restarted.coreness(rounds=rounds)
        assert restarted.fingerprint == session.fingerprint, \
            f"spliced fingerprint differs from a full build ({delta.describe()})"
        assert restarted.stats.disk_hits == 1, \
            f"delta version not served from disk: {restarted.stats.to_dict()}"
        assert restarted.stats.cold_runs == 0, "delta version recomputed cold"
        assert served.values == solved.values, "delta version values differ"
        assert np.array_equal(served.surviving.trajectory,
                              solved.surviving.trajectory), \
            "delta version trajectory is not bit-identical"

    root, last = versions[0].graph, versions[-1].graph
    a, b, gone = [w for w in reversed(list(root.nodes()))
                  if w not in {u, v, x, y}][:3]
    assert last.neighbor_weights(a) is root.neighbor_weights(a), \
        "an untouched row is not shared along the chain"
    last.add_edge(a, b, 1.0)
    last.remove_node(gone)
    for earlier in versions[:-1]:
        assert graph_fingerprint(earlier.graph) == earlier.fingerprint, \
            "mutating the last delta version changed an earlier version"


def released_chain(session: Session, rounds: int) -> int:
    """Solve a chain of six deltas at two λ, holding every version, then
    drop all but the last: the earlier versions must be collected, and the
    last one, solved so far at λ=0 only, must answer λ=0.5 from a frontier
    seeded by its collected parent's stored trajectory."""
    edges = [(u, v) for u, v, _ in session.graph.edges()]
    versions = [session]
    for i in range(6):
        versions.append(versions[-1].apply_delta(
            GraphDelta(set_weights=[(*edges[i], 2.0)])))
        for lam in (0.0, 0.5) if i < 5 else (0.0,):
            versions[-1].coreness(rounds=rounds, lam=lam)
    last = versions.pop()
    dropped = [weakref.ref(version) for version in versions]
    del versions, session
    gc.collect()
    assert all(ref() is None for ref in dropped), \
        "a dropped version of a solved chain is still alive"
    assert last.parent is None, "the last version still holds its parent"
    answer = last.coreness(rounds=rounds, lam=0.5)
    assert last.stats.incremental_runs == 2 and last.stats.cold_runs == 0, \
        f"the last version did not seed from the store: {last.stats}"
    cold = Session(last.graph).coreness(rounds=rounds, lam=0.5)
    assert np.array_equal(answer.surviving.trajectory,
                          cold.surviving.trajectory), \
        "the last version's answer differs from a cold solve"
    return len(dropped)


if __name__ == "__main__":
    sys.exit(main())
