"""Cross-engine equivalence through the session layer.

Acceptance contract of the session redesign: for every registered engine,
``Session.solve(problem, ...)`` — cold, warm-cached, and prefix-resumed — must
return bit-identical values / kept sets / orientations to the one-shot free
functions on the seeded equivalence corpus (reusing the graph suite of
:mod:`test_engine_equivalence`; all weights are integers or dyadic rationals,
so equality is exact, not approximate).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from test_engine_equivalence import CORPUS

import repro.session as session_module
from repro.core.api import approximate_coreness, approximate_orientation
from repro.graph.generators.random_graphs import barabasi_albert
from repro.session import Session
from repro.store import AppendTrajectory, ArtifactStore
from repro.store.traj import HEADER_NAME, traj_dir

#: Every 4th corpus case: enough topology/weight diversity for the session
#: layer while the full corpus stays with the per-engine kernel suite.
SUITE = CORPUS[::4]

#: Prefix of a spilled row: ``spill:<spec>`` runs ``<spec>`` in a
#: store-backed session (a fresh store per session unless the test passes
#: one) with :data:`repro.session.SPILL_BYTES` patched to 0.
SPILL = "spill:"

ENGINES = ("vectorized", "sharded:3", "faithful",
           "sharded:shards=3,workers=2",
           # Out-of-core output: the trajectory itself is appended to the
           # store's on-disk .traj file (see repro.store.traj) instead of
           # being held as one (T+1) x n allocation, by whole-graph kernels,
           # threaded shards and sequential ones — cold, warm, restarted and
           # delta requests must stay bit-identical to in-memory sessions.
           SPILL + "vectorized",
           SPILL + "sharded:shards=3,workers=2",
           SPILL + "sharded:shards=3")


def _spec(engine: str) -> str:
    """The engine spec of an :data:`ENGINES` row."""
    return engine[len(SPILL):] if engine.startswith(SPILL) else engine


@pytest.fixture
def open_session(tmp_path, monkeypatch):
    """``open_session(graph, engine, **options)``: a :class:`Session` on an
    :data:`ENGINES` row; a spilled row is store-backed and spills every
    trajectory."""
    stores = itertools.count()

    def open_(graph, engine, **options):
        if engine.startswith(SPILL):
            monkeypatch.setattr(session_module, "SPILL_BYTES", 0)
            options.setdefault("store", ArtifactStore(
                tmp_path / f"spill-{next(stores)}"))
        return Session(graph, engine=_spec(engine), **options)

    return open_


def _skip_if_faithful_cannot_run(engine, graph):
    if engine == "faithful" and graph.num_edges == 0 and graph.num_nodes == 0:
        pytest.skip("the simulator cannot instantiate zero nodes")


class TestSessionMatchesFreeFunctions:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("graph, rounds", SUITE)
    def test_cold_warm_and_resumed_coreness_identical(self, graph, rounds, engine,
                                                      open_session):
        _skip_if_faithful_cannot_run(engine, graph)
        free = approximate_coreness(graph, rounds=rounds, engine=_spec(engine))

        cold = open_session(graph, engine).coreness(rounds=rounds)
        assert cold.values == free.values
        if engine.startswith(SPILL):
            assert isinstance(cold.surviving.trajectory, np.memmap)

        session = open_session(graph, engine)
        warm_first = session.coreness(rounds=rounds)
        warm_second = session.coreness(rounds=rounds)
        assert warm_first.values == free.values
        assert warm_second is warm_first  # served from the request cache

        resumed_session = open_session(graph, engine)
        resumed_session.coreness(rounds=max(1, rounds - 1))
        resumed = resumed_session.coreness(rounds=rounds)
        assert resumed.values == free.values
        if resumed.surviving.trajectory is not None:
            assert np.array_equal(resumed.surviving.trajectory,
                                  free.surviving.trajectory)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("graph, rounds", SUITE)
    def test_cold_warm_and_resumed_orientation_identical(self, graph, rounds,
                                                         engine, open_session):
        _skip_if_faithful_cannot_run(engine, graph)
        free = approximate_orientation(graph, rounds=rounds, engine=_spec(engine))

        cold = open_session(graph, engine).orientation(rounds=rounds)
        assert cold.values == free.values
        assert cold.surviving.kept == free.surviving.kept
        assert cold.orientation.assignment == free.orientation.assignment
        assert cold.orientation.in_weight == free.orientation.in_weight

        # Resume: a coreness request first, then the orientation replays the
        # kept sets from the (possibly extended) cached trajectory.
        session = open_session(graph, engine)
        session.coreness(rounds=max(1, rounds - 1))
        resumed = session.orientation(rounds=rounds)
        assert resumed.orientation.assignment == free.orientation.assignment
        assert resumed.orientation.in_weight == free.orientation.in_weight
        assert resumed.surviving.kept == free.surviving.kept

    @pytest.mark.parametrize("graph, rounds", SUITE[::3])
    def test_generic_solve_route_matches_methods(self, graph, rounds):
        session = Session(graph)
        assert session.solve("coreness", rounds=rounds).values == \
            session.coreness(rounds=rounds).values
        assert session.solve("orientation", rounds=rounds).orientation.assignment \
            == session.orientation(rounds=rounds).orientation.assignment


class TestStoreRestartMatrix:
    """Cold / warm / restarted-from-disk requests are bit-identical, per engine.

    Acceptance contract of the persistent store: a freshly constructed
    ``Session(store=...)`` on a known graph reproduces bit-identical results
    to the in-process warm path for every engine, disk-served requests are
    counted in ``SessionStats``, and a stored short trajectory warm-starts a
    longer request (prefix reuse composes across process restarts).
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("graph, rounds", SUITE[::2])
    def test_cold_warm_restart_identical(self, graph, rounds, engine, tmp_path,
                                         open_session):
        _skip_if_faithful_cannot_run(engine, graph)
        store = ArtifactStore(tmp_path / "store")

        first_session = open_session(graph, engine, store=store)
        cold = first_session.orientation(rounds=rounds)
        warm = first_session.orientation(rounds=rounds)   # in-process warm path
        assert warm is cold
        assert first_session.stats.disk_writes >= 1

        restarted = open_session(graph, engine, store=store)
        served = restarted.orientation(rounds=rounds)
        assert served.values == warm.values
        assert served.surviving.kept == warm.surviving.kept
        assert served.orientation.assignment == warm.orientation.assignment
        assert served.orientation.in_weight == warm.orientation.in_weight
        if served.surviving.trajectory is not None:
            assert np.array_equal(served.surviving.trajectory,
                                  warm.surviving.trajectory)
        # The restart was served from disk, not recomputed, and says so.
        assert restarted.stats.disk_hits == 1
        assert restarted.stats.cold_runs == 0
        assert restarted.stats.rounds_executed == 0
        assert restarted.stats.rounds_reused == rounds

    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "faithful"])
    def test_stored_prefix_warm_starts_longer_budget(self, engine, tmp_path,
                                                     two_communities,
                                                     open_session):
        store = ArtifactStore(tmp_path / "store")
        open_session(two_communities, engine, store=store).coreness(rounds=8)

        restarted = open_session(two_communities, engine, store=store)
        resumed = restarted.coreness(rounds=32)
        assert restarted.stats.disk_hits == 1
        assert restarted.stats.rounds_reused == 8
        assert restarted.stats.rounds_executed == 32 - 8
        assert restarted.stats.prefix_resumes == 1
        # ... and the extended trajectory went back to disk.
        assert restarted.stats.disk_writes == 1

        fresh = Session(two_communities, engine=_spec(engine)).coreness(rounds=32)
        assert resumed.values == fresh.values
        assert np.array_equal(resumed.surviving.trajectory,
                              fresh.surviving.trajectory)

    def test_stores_shared_across_engines_stay_identical(self, tmp_path,
                                                         two_communities):
        # A trajectory persisted by one array engine serves another: the
        # artifacts are engine-agnostic (bit-identical kernels).
        store = ArtifactStore(tmp_path / "store")
        Session(two_communities, engine="vectorized", store=store).coreness(rounds=6)
        sharded = Session(two_communities, engine="sharded:3", store=store)
        served = sharded.coreness(rounds=6)
        assert sharded.stats.disk_hits == 1
        fresh = Session(two_communities, engine="sharded:3").coreness(rounds=6)
        assert served.values == fresh.values

    def test_corrupt_artifact_degrades_to_cold_run(self, tmp_path,
                                                   two_communities):
        store = ArtifactStore(tmp_path / "store")
        session = Session(two_communities, store=store)
        cold = session.coreness(rounds=6)
        header = traj_dir(store.root, session.fingerprint, 0.0) / HEADER_NAME
        header.write_bytes(b"corrupted beyond recognition")

        restarted = Session(two_communities, store=store)
        recomputed = restarted.coreness(rounds=6)
        assert restarted.stats.disk_misses == 1
        assert restarted.stats.cold_runs == 1
        assert recomputed.values == cold.values
        # The recompute healed the store.
        assert restarted.stats.disk_writes == 1
        assert store.load_trajectory(session.fingerprint, 0.0,
                                     num_nodes=session.csr.num_nodes) is not None

    def test_wrong_width_trajectory_reads_as_miss_and_heals(self, tmp_path):
        # A 150-wide trajectory under a 200-node graph's address is no answer
        # for it: served, its values would raise KeyError on a keyed read.
        graph = barabasi_albert(200, 3, seed=5)
        store = ArtifactStore(tmp_path / "store")
        cold = Session(graph)
        with AppendTrajectory.open(store.root, cold.fingerprint, 0.0,
                                   num_nodes=150) as foreign:
            foreign.ensure_prefix(np.zeros((13, 150)))

        restarted = Session(graph, store=store)
        for rounds in (4, 12):
            assert restarted.coreness(rounds=rounds).values == \
                cold.coreness(rounds=rounds).values
        assert restarted.stats.disk_misses == 1
        assert restarted.stats.cold_runs == 1
        # The persist that followed the miss replaced the foreign file.
        healed = Session(graph, store=store)
        assert healed.coreness(rounds=12).values == cold.coreness(rounds=12).values
        assert healed.stats.disk_hits == 1 and healed.stats.cold_runs == 0


class TestWireEquivalence:
    """The session-equivalence contract extended over a real socket.

    A graph shipped as a repro-graph-v1 document and solved through
    :mod:`repro.serve.http` must answer bit-identically to ``Session.solve``
    on the same document in-process — including a server restart that serves
    from a persistent store.  (Both sides of the comparison consume the
    *document*: the CSR fingerprint hashes adjacency insertion order, so the
    wire identity is the serialised graph, not the original object.)
    """

    @pytest.mark.parametrize("graph, rounds", SUITE[::2])
    def test_wire_results_match_inprocess_solve(self, graph, rounds):
        import json

        from repro.graph import io as graph_io
        from repro.serve.client import ServeClient
        from repro.serve.http import ReproHTTPServer

        if graph.num_nodes == 0:
            pytest.skip("the HTTP front-end rejects empty graph uploads")
        payload = graph_io.to_dict(graph)
        reference = Session(graph_io.from_dict(payload))
        expected = {
            problem: json.loads(json.dumps(
                reference.solve(problem, rounds=rounds).to_dict()))
            for problem in ("coreness", "orientation")
        }
        with ReproHTTPServer(workers=2) as server:
            with ServeClient(server.host, server.port) as cli:
                fp = cli.upload_graph(graph_io.from_dict(payload))
                for problem, want in expected.items():
                    issued = cli.submit(fp, problem=problem, rounds=rounds)
                    doc = cli.result(issued["job"], include_result=True)
                    assert doc["result"] == want, problem

    def test_wire_restart_from_store_matches(self, tmp_path, two_communities):
        import json

        from repro.graph import io as graph_io
        from repro.serve.client import ServeClient
        from repro.serve.http import ReproHTTPServer

        payload = graph_io.to_dict(two_communities)
        store = tmp_path / "store"

        def run_once():
            with ReproHTTPServer(workers=2, store=store) as server:
                with ServeClient(server.host, server.port) as cli:
                    fp = cli.upload_graph(graph_io.from_dict(payload))
                    issued = cli.submit(fp, problem="orientation", rounds=6)
                    doc = cli.result(issued["job"], include_result=True)
                    return doc["result"], cli.metrics()["session"]

        first, first_stats = run_once()
        assert first_stats["disk_writes"] >= 1
        served, restart_stats = run_once()
        assert served == first
        # The restarted server answered from the store, not a recompute.
        assert restart_stats["disk_hits"] == 1
        assert restart_stats["rounds_executed"] == 0

        reference = Session(graph_io.from_dict(payload)).orientation(rounds=6)
        assert first == json.loads(json.dumps(reference.to_dict()))


def _mutation_for(graph):
    """A deterministic small delta against ``graph``: one edge added between
    existing non-adjacent nodes (plus one brand-new node), one edge removed,
    one reweighted — integer weights so bit-identity is exact."""
    from repro.graph import GraphDelta

    nodes = sorted(graph.nodes(), key=repr)
    edges = sorted(((u, v, w) for u, v, w in graph.edges(data=True)),
                   key=lambda e: (repr(e[0]), repr(e[1])))
    add = [(nodes[0], f"delta-node-{nodes[0]!r}", 2.0)]
    for u in nodes[:4]:
        for v in nodes[-4:]:
            if u != v and not graph.has_edge(u, v):
                add.append((u, v, 3.0))
                break
        else:
            continue
        break
    remove = [(edges[0][0], edges[0][1])] if len(edges) > 1 else []
    reweight = [(edges[-1][0], edges[-1][1], edges[-1][2] + 1.0)] \
        if len(edges) > 1 else []
    return GraphDelta(add_edges=tuple(add), remove_edges=tuple(remove),
                      set_weights=tuple(reweight))


class TestDeltaEquivalence:
    """Tentpole acceptance: ``Session.apply_delta`` answers bit-identically to
    a cold solve on the mutated graph — on every engine, through the frontier
    path, the fallback path, and across a store restart along the lineage
    chain."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("graph, rounds", SUITE[::2])
    def test_incremental_matches_cold_solve(self, graph, rounds, engine,
                                            open_session):
        from repro.graph import apply_delta
        _skip_if_faithful_cannot_run(engine, graph)
        if graph.num_nodes < 4 or graph.num_edges < 2:
            pytest.skip("the mutation needs a few nodes and edges to touch")
        delta = _mutation_for(graph)
        mutated = apply_delta(graph, delta)

        parent = open_session(graph, engine)
        parent.coreness(rounds=rounds)
        child = parent.apply_delta(delta, max_frontier_fraction=1.0)
        incremental = child.coreness(rounds=rounds)
        if engine.startswith(SPILL):
            assert isinstance(incremental.surviving.trajectory, np.memmap)

        cold = open_session(mutated, engine).coreness(rounds=rounds)
        assert incremental.values == cold.values
        if incremental.surviving.trajectory is not None:
            assert np.array_equal(incremental.surviving.trajectory,
                                  cold.surviving.trajectory)
        if engine != "faithful":
            assert child.stats.incremental_runs == 1
            assert child.stats.frontier_nodes_recomputed > 0
        else:
            # No trajectory to re-solve against: the cold path answered.
            assert child.stats.incremental_runs == 0

    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "faithful"])
    def test_fallback_path_is_bit_identical(self, engine, two_communities,
                                            open_session):
        from repro.graph import apply_delta
        delta = _mutation_for(two_communities)
        parent = open_session(two_communities, engine)
        parent.coreness(rounds=6)
        # fraction 0: the frontier limit is 0 nodes, so every delta falls back.
        child = parent.apply_delta(delta, max_frontier_fraction=0.0)
        fell_back = child.coreness(rounds=6)
        assert child.stats.incremental_fallbacks == 1
        assert child.stats.incremental_runs == 0
        cold = Session(apply_delta(two_communities, delta),
                       engine=_spec(engine)).coreness(rounds=6)
        assert fell_back.values == cold.values

    def test_orientation_through_delta_matches_cold(self, two_communities):
        from repro.graph import apply_delta
        delta = _mutation_for(two_communities)
        parent = Session(two_communities)
        parent.coreness(rounds=6)
        child = parent.apply_delta(delta, max_frontier_fraction=1.0)
        incremental = child.orientation(rounds=6)
        cold = Session(apply_delta(two_communities, delta)).orientation(rounds=6)
        assert incremental.values == cold.values
        assert incremental.orientation.assignment == cold.orientation.assignment
        assert incremental.orientation.in_weight == cold.orientation.in_weight

    @pytest.mark.parametrize("engine", ("vectorized", "sharded:3",
                                        SPILL + "sharded:shards=3"))
    def test_restart_along_lineage_chain(self, engine, tmp_path,
                                         two_communities, open_session):
        from repro.graph import apply_delta, chain_fingerprint
        store = ArtifactStore(tmp_path / "store")
        delta = _mutation_for(two_communities)

        parent = open_session(two_communities, engine, store=store)
        parent.coreness(rounds=6)
        child = parent.apply_delta(delta, max_frontier_fraction=1.0)
        first = child.coreness(rounds=6)
        assert child.stats.disk_writes >= 1

        # The lineage record survives in the store and walks back to the root.
        chain = store.lineage_chain(child.chain_fingerprint)
        assert len(chain) == 1
        assert chain[0]["parent"] == parent.fingerprint
        assert chain[0]["content_fingerprint"] == child.fingerprint

        # Restart: replaying the delta on a fresh parent session over the same
        # store serves the child's solve from disk, bit-identically.
        parent2 = open_session(two_communities, engine, store=store)
        child2 = parent2.apply_delta(delta, max_frontier_fraction=1.0)
        assert child2.chain_fingerprint == child.chain_fingerprint
        served = child2.coreness(rounds=6)
        assert child2.stats.disk_hits == 1
        assert child2.stats.rounds_executed == 0
        assert served.values == first.values
        assert np.array_equal(served.surviving.trajectory,
                              first.surviving.trajectory)

        # ... and a cold session on the mutated graph (no lineage) agrees too.
        cold = Session(apply_delta(two_communities, delta),
                       engine=_spec(engine)).coreness(rounds=6)
        assert served.values == cold.values

    def test_chained_deltas_grandchild_matches_cold(self, two_communities):
        from repro.graph import GraphDelta, apply_delta
        d1 = _mutation_for(two_communities)
        once = apply_delta(two_communities, d1)
        d2 = _mutation_for(once)
        twice = apply_delta(once, d2)

        root = Session(two_communities)
        root.coreness(rounds=8)
        child = root.apply_delta(d1, max_frontier_fraction=1.0)
        child.coreness(rounds=8)
        grandchild = child.apply_delta(d2, max_frontier_fraction=1.0)
        incremental = grandchild.coreness(rounds=8)

        cold = Session(twice).coreness(rounds=8)
        assert incremental.values == cold.values
        assert grandchild.stats.incremental_runs == 1
        # Chain fingerprints compose: the grandchild's address hashes the
        # child's chain address, not its content address.
        from repro.graph import chain_fingerprint
        assert grandchild.chain_fingerprint == chain_fingerprint(
            chain_fingerprint(root.fingerprint, d1), d2)


class TestDensestPhase1Reuse:
    """``message_accounting=False`` serves Phase 1 from the cached trajectory.

    The reported subsets, densities and assignments must be identical to the
    all-faithful pipeline (every engine computes bit-identical surviving
    numbers); only the Phase-1 message statistics are skipped.
    """

    @pytest.mark.parametrize("engine", ("vectorized", "sharded:3"))
    def test_subsets_identical_to_full_pipeline(self, two_communities, engine):
        full = Session(two_communities).densest(rounds=4)
        session = Session(two_communities, engine=engine)
        session.coreness(rounds=4)  # warms the λ=0 trajectory
        reused = session.densest(rounds=4, message_accounting=False)
        assert reused.phase1_reused and not full.phase1_reused
        assert reused.subsets == full.subsets
        assert reused.actual_densities == full.actual_densities
        assert reused.reported_densities == full.reported_densities
        assert reused.node_assignment == full.node_assignment
        assert reused.rounds_total == full.rounds_total
        assert reused.messages_total < full.messages_total
        assert reused.surviving.values == full.surviving.values
        # Phase 1 came straight off the session cache: an exact result hit.
        assert session.stats.result_hits >= 1

    def test_epsilon_budget_resolves_identically(self, two_communities):
        full = Session(two_communities).densest(epsilon=0.5)
        reused = Session(two_communities).densest(epsilon=0.5,
                                                  message_accounting=False)
        assert reused.subsets == full.subsets
        assert reused.gamma == full.gamma
        assert reused.rounds_total == full.rounds_total

    def test_faithful_engine_falls_back_to_simulation(self, two_communities):
        session = Session(two_communities, engine="faithful")
        result = session.densest(rounds=4, message_accounting=False)
        assert not result.phase1_reused  # no trajectory to reuse; full pipeline
        assert result.subsets == Session(two_communities).densest(rounds=4).subsets

    def test_requests_cache_separately_per_accounting_mode(self, two_communities):
        session = Session(two_communities)
        full = session.densest(rounds=4)
        reused = session.densest(rounds=4, message_accounting=False)
        assert reused is not full
        assert session.densest(rounds=4, message_accounting=False) is reused
        assert session.densest(rounds=4) is full


class TestDensestArrayPath:
    """``engine="array"`` runs phases 2-4 on the CSR kernels through the session.

    The warm path composes with the Phase-1 trajectory reuse: the session's
    cached λ=0 trajectory serves Phase 1, the cached CSR view feeds the
    kernels, and the reported subsets stay bit-identical to the all-faithful
    pipeline (the full-corpus contract lives in test_densest_equivalence.py).
    """

    @pytest.mark.parametrize("engine", ("vectorized", "sharded:3"))
    def test_warm_array_path_matches_faithful_pipeline(self, two_communities,
                                                       engine):
        full = Session(two_communities).densest(rounds=4)
        session = Session(two_communities, engine=engine)
        session.coreness(rounds=4)  # warms the λ=0 trajectory
        fast = session.densest(rounds=4, engine="array")
        assert fast.engine == "array" and full.engine == "faithful"
        assert fast.phase1_reused  # served from the session's trajectory cache
        assert fast.subsets == full.subsets
        assert fast.reported_densities == full.reported_densities
        assert fast.actual_densities == full.actual_densities
        assert fast.node_assignment == full.node_assignment
        assert fast.best_leader == full.best_leader
        assert fast.messages_total == 0
        assert session.stats.result_hits >= 1

    def test_cold_array_path_matches_and_caches(self, two_communities):
        session = Session(two_communities)
        fast = session.densest(rounds=4, engine="array")
        full = session.densest(rounds=4)
        assert fast.subsets == full.subsets
        assert fast.reported_densities == full.reported_densities
        # Distinct request keys: the array result is cached separately from
        # the faithful one and served on repeat.
        assert session.densest(rounds=4, engine="array") is fast
        assert session.densest(rounds=4) is full

    def test_faithful_session_engine_still_runs_array_phases(self,
                                                             two_communities):
        session = Session(two_communities, engine="faithful")
        fast = session.densest(rounds=4, engine="array")
        full = Session(two_communities).densest(rounds=4)
        assert fast.engine == "array"
        assert not fast.phase1_reused  # no trajectory cache on this engine
        assert fast.subsets == full.subsets
        assert fast.reported_densities == full.reported_densities
