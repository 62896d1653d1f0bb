"""The sharded plans of the trajectory engine: options and threads.

The cross-engine *value* equivalence of the sharded engine lives in
``test_engine_equivalence.py`` / ``test_session_equivalence.py``; this module
covers the machinery around it — ``shard_plan`` edge cases, option parsing and
validation, and the threaded mode (``max_workers=2``) on the cases a plan
makes special: prefix resume, a single shard, empty and single-node graphs,
and a shard that raises on a pool thread.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import get_engine, kernels
from repro.engine.kernels import shard_plan
from repro.engine.vectorized import TrajectoryEngine
from repro.errors import AlgorithmError
from repro.graph.generators.random_graphs import barabasi_albert
from repro.graph.generators.structured import complete_graph, path_graph
from repro.graph.graph import Graph
from repro.session import Session


class TestShardPlanEdgeCases:
    def test_more_shards_than_nodes_clamps_to_n(self):
        plan = shard_plan(3, 10)
        assert plan == ((0, 1), (1, 2), (2, 3))

    def test_empty_graph_yields_single_empty_range(self):
        assert shard_plan(0, 4) == ((0, 0),)
        assert shard_plan(-1, 4) == ((0, 0),)

    def test_single_node(self):
        assert shard_plan(1, 1) == ((0, 1),)
        assert shard_plan(1, 7) == ((0, 1),)

    @pytest.mark.parametrize("n, k", [(10, 3), (11, 4), (7, 2), (100, 7), (5, 5)])
    def test_uneven_ranges_cover_everything_once(self, n, k):
        plan = shard_plan(n, k)
        assert plan[0][0] == 0 and plan[-1][1] == n
        for (_, hi), (lo, _) in zip(plan, plan[1:]):
            assert hi == lo  # contiguous, disjoint
        sizes = [hi - lo for lo, hi in plan]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1  # near-equal
        # the larger shards come first (the divmod remainder)
        assert sizes == sorted(sizes, reverse=True)

    def test_invalid_shard_count_raises(self):
        with pytest.raises(AlgorithmError, match="num_shards"):
            shard_plan(5, 0)


class TestShardedEngineOptions:
    def test_workers_select_the_thread_pool(self):
        graph = path_graph(40)
        sequential = get_engine("sharded:shards=4")
        threaded = get_engine("sharded:shards=4,workers=2")
        assert (threaded.num_shards, threaded.max_workers) == (4, 2)
        assert "workers=sequential" in sequential.describe()
        assert "workers=2 threads" in threaded.describe()
        sequential.run(graph, 3, track_kept=False)
        threaded.run(graph, 3, track_kept=False)
        assert sequential._thread_pool is None
        assert threaded._thread_pool._max_workers == 2
        threaded.close()

    def test_auto_plan_covers_the_workers(self):
        engine = TrajectoryEngine(max_workers=4)
        assert len(engine.plan_for(100)) == 4  # auto-sizing would give 1 shard
        assert len(engine.plan_for(2)) == 2    # still clamped to n

    def test_invalid_workers_rejected(self):
        with pytest.raises(AlgorithmError, match="max_workers"):
            TrajectoryEngine(max_workers=0)

    @pytest.mark.parametrize("make", [
        lambda: get_engine("sharded:parallel=process"),
        lambda: get_engine("sharded:workers=2,parallel=thread"),
        lambda: TrajectoryEngine(parallel="thread"),
    ], ids=["spec-process", "spec-thread-with-workers", "keyword-thread"])
    def test_parallel_option_is_rejected(self, make):
        with pytest.raises(AlgorithmError, match="invalid options"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: get_engine("sharded:storage=mmap"),
        lambda: get_engine("sharded:shards=3,storage=memory"),
        lambda: TrajectoryEngine(storage="mmap"),
        lambda: get_engine("sharded:spill=0"),
        lambda: TrajectoryEngine(spill_bytes=1 << 20),
        lambda: Session(path_graph(4), engine="sharded", spill_bytes=1),
        lambda: get_engine("sharded:traj=mmap"),
        lambda: get_engine("sharded:shards=2,dir=traj"),
        lambda: TrajectoryEngine(trajectory_storage="mmap"),
        lambda: TrajectoryEngine(storage_dir="traj"),
        lambda: get_engine("sharded", trajectory_storage="memory"),
        lambda: Session(path_graph(4), engine="sharded",
                        trajectory_storage="mmap"),
    ], ids=["spec-storage-mmap", "spec-storage-memory", "keyword-storage",
            "spec-spill", "keyword-spill-bytes", "session-spill-bytes",
            "spec-traj", "spec-dir", "keyword-trajectory-storage",
            "keyword-storage-dir", "registry-trajectory-storage",
            "session-trajectory-storage"])
    def test_csr_storage_and_spill_options_are_rejected(self, make):
        # The engine holds no storage: the CSR arrays always live in memory,
        # and a store-backed session chooses where a trajectory spills
        # (repro.session.SPILL_BYTES).
        with pytest.raises(AlgorithmError, match="invalid options"):
            make()

    def test_takes_only_shards_and_workers(self):
        with pytest.raises(AlgorithmError,
                           match="it takes num_shards and max_workers"):
            TrajectoryEngine(storage_dir="traj")


class TestOneRoundLoopPerPlan:
    """Every plan runs its rounds through the two round-loop names of
    :mod:`repro.engine.vectorized` (the names a traced run attributes), with
    its own plan and pool: cold runs and prefix resumes through
    ``compact_trajectory``, a delta child's frontier through
    ``frontier_trajectory``."""

    @pytest.mark.parametrize("spec, ranges, threaded", [
        ("vectorized", 1, False), ("sharded:3", 3, False),
        ("sharded:shards=3,workers=2", 3, True),
    ])
    def test_rounds_go_through_the_module_names(self, monkeypatch, spec,
                                                ranges, threaded):
        from repro.engine import vectorized
        from repro.graph.delta import GraphDelta

        calls = []

        def recording(name):
            real = getattr(vectorized, name)

            def wrapper(csr, rounds, **kwargs):
                calls.append((name, len(kwargs["plan"]),
                              kwargs["shard_map"] is not None))
                return real(csr, rounds, **kwargs)
            return wrapper

        for name in ("compact_trajectory", "frontier_trajectory"):
            monkeypatch.setattr(vectorized, name, recording(name))
        graph = barabasi_albert(300, 3, seed=5)
        session = Session(graph, engine=spec)
        session.surviving(rounds=3)                 # cold
        session.surviving(rounds=6)                 # prefix resume
        child = session.apply_delta(GraphDelta(add_edges=[(0, 299, 1.0)]),
                                    max_frontier_fraction=1.0)
        result = child.surviving(rounds=6)          # frontier re-solve
        assert child.stats.incremental_runs == 1
        assert calls == [("compact_trajectory", ranges, threaded),
                         ("compact_trajectory", ranges, threaded),
                         ("frontier_trajectory", ranges, threaded)]
        cold = Session(child.graph, engine="vectorized").surviving(rounds=6)
        assert result.trajectory.tobytes() == cold.trajectory.tobytes()
        session.engine.close()


class TestThreadedExecution:
    def test_matches_vectorized_on_small_graph(self, two_communities):
        vec = get_engine("vectorized").run(two_communities, 4, track_kept=True)
        threaded = get_engine("sharded", num_shards=4, max_workers=2).run(
            two_communities, 4, track_kept=True)
        assert threaded.values == vec.values
        assert threaded.kept == vec.kept
        assert np.array_equal(threaded.trajectory, vec.trajectory)

    def test_prefix_resume_is_bit_identical(self):
        graph = barabasi_albert(300, 3, seed=5)
        engine = get_engine("sharded", num_shards=4, max_workers=2)
        full = engine.run(graph, 6, track_kept=False)
        short = engine.run(graph, 3, track_kept=False)
        resumed = engine.run(graph, 6, track_kept=False,
                             warm_start=short.trajectory)
        assert np.array_equal(resumed.trajectory, full.trajectory)

    def test_prefix_covering_every_round_is_served_by_slicing(self):
        graph = path_graph(40)
        engine = TrajectoryEngine(num_shards=4, max_workers=2)
        full = engine.run(graph, 4, track_kept=False)
        # A prefix longer than the budget: no round runs, the rows are sliced.
        sliced = engine.run(graph, 2, track_kept=False,
                            warm_start=full.trajectory)
        assert np.array_equal(sliced.trajectory, full.trajectory[:3])

    def test_single_shard_falls_back_to_sequential(self):
        graph = complete_graph(6)
        engine = TrajectoryEngine(num_shards=1, max_workers=2)
        result = engine.run(graph, 3, track_kept=True)
        reference = get_engine("vectorized").run(graph, 3, track_kept=True)
        assert result.values == reference.values
        assert engine._thread_pool is None  # one range needs no pool

    def test_empty_and_single_node_graphs(self):
        engine = TrajectoryEngine(num_shards=4, max_workers=2)
        empty = engine.run(Graph(), 2)
        assert empty.values == {}
        lonely = Graph(edges=[("v", "v", 2.0)])
        result = engine.run(lonely, 2)
        assert result.values == {"v": 2.0}

    def test_shard_exception_propagates_and_the_pool_survives(self,
                                                             monkeypatch):
        graph = barabasi_albert(200, 2, seed=8)
        engine = TrajectoryEngine(num_shards=4, max_workers=2)
        real = kernels.compact_round_range
        failed_in = []

        def failing(csr, current, lo, hi, grid):
            if lo > 0:
                failed_in.append(threading.current_thread().name)
                raise RuntimeError("injected shard failure")
            return real(csr, current, lo, hi, grid)

        monkeypatch.setattr(kernels, "compact_round_range", failing)
        with pytest.raises(RuntimeError, match="injected shard failure"):
            engine.run(graph, 3)
        assert failed_in and all(name.startswith("repro-sharded")
                                 for name in failed_in)
        pool = engine._thread_pool
        monkeypatch.undo()
        # The failed round left the pool usable: the next run reuses it.
        ok = engine.run(graph, 3, track_kept=False)
        assert engine._thread_pool is pool
        reference = get_engine("vectorized").run(graph, 3, track_kept=False)
        assert ok.values == reference.values
        engine.close()
