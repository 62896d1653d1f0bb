"""The async serving layer: equivalence, dedup, backpressure, lifecycle.

The acceptance contract is the concurrent-submission equivalence: N mixed jobs
submitted through a :class:`JobQueue` produce results bit-identical to running
the same jobs sequentially through a :class:`BatchRunner`.  Timing tests are
gated on events, never sleeps-as-synchronisation.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.batch import BatchJob, BatchRunner
from repro.errors import ServeError
from repro.graph.datasets import load_dataset
from repro.problems import CorenessProblem
from repro.serve import JobQueue
from repro.session import Session


@pytest.fixture
def graphs():
    return load_dataset("caveman"), load_dataset("communities")


def _mixed_jobs(graphs):
    g1, g2 = graphs
    return [BatchJob(graph=g, problem=problem, rounds=rounds)
            for g in (g1, g2)
            for problem in ("coreness", "orientation")
            for rounds in (3, 6)]


class _Gated(CorenessProblem):
    """A coreness problem that blocks inside solve until released."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def solve(self, session, **params):
        self.started.set()
        assert self.release.wait(timeout=10), "gate was never released"
        return super().solve(session, **params)


class _Failing(CorenessProblem):
    def solve(self, session, **params):
        raise RuntimeError("deliberate failure")


class TestJobQueueEquivalence:
    def test_concurrent_submission_matches_sequential(self, graphs):
        jobs = _mixed_jobs(graphs)
        sequential = BatchRunner().run(jobs)
        with JobQueue(max_workers=4) as queue:
            concurrent = [future.result()
                          for future in [queue.submit(job) for job in jobs]]
        assert len(concurrent) == len(sequential)
        for seq, conc in zip(sequential, concurrent):
            assert conc.surviving.values == seq.surviving.values
            assert conc.surviving.kept == seq.surviving.kept
            assert conc.stats.objective == seq.stats.objective
            assert conc.stats.problem == seq.stats.problem

    def test_map_streams_in_submission_order(self, graphs):
        jobs = _mixed_jobs(graphs)
        with JobQueue(max_workers=4) as queue:
            streamed = list(queue.map(jobs))
        assert [r.job for r in streamed] == jobs

    def test_queue_with_store_matches_sequential(self, graphs, tmp_path):
        jobs = _mixed_jobs(graphs)
        sequential = BatchRunner().run(jobs)
        with JobQueue(BatchRunner(store=tmp_path / "store"),
                      max_workers=4) as queue:
            concurrent = queue.run(jobs)
        for seq, conc in zip(sequential, concurrent):
            assert conc.surviving.values == seq.surviving.values
        assert (tmp_path / "store").is_dir()  # artifacts were persisted

    def test_queue_matches_synchronous_session(self, graphs):
        # The whole chain: a job through BatchRunner and JobQueue answers as
        # Session.solve does, orientation assignment included.
        g1, _ = graphs
        sync = Session(g1)
        expected = [sync.solve("coreness", rounds=3),
                    sync.solve("orientation", rounds=3),
                    sync.solve("coreness", rounds=6)]
        with JobQueue(max_workers=2) as queue:
            results = queue.run([BatchJob(graph=g1, rounds=3),
                                 BatchJob(graph=g1, problem="orientation",
                                          rounds=3),
                                 BatchJob(graph=g1, rounds=6)])
        assert results[0].values == expected[0].values
        assert results[1].result.orientation.assignment == \
            expected[1].orientation.assignment
        assert results[2].values == expected[2].values

    def test_warmed_runner_serves_from_its_session_cache(self, graphs):
        g1, _ = graphs
        runner = BatchRunner()
        warmed = runner.run_job(BatchJob(graph=g1, rounds=4))
        with JobQueue(runner, max_workers=1) as queue:
            again = queue.submit(BatchJob(graph=g1, rounds=4)).result()
        assert again.result is warmed.result
        assert runner.session(g1).stats.problem_hits == 1

    def test_store_backed_queues_share_the_disk_cache(self, graphs, tmp_path):
        g1, _ = graphs
        store = tmp_path / "store"
        with JobQueue(BatchRunner(store=store), max_workers=2) as queue:
            first = queue.submit(BatchJob(graph=g1, rounds=4)).result()
        with JobQueue(BatchRunner(store=store), max_workers=2) as queue:
            again = queue.submit(BatchJob(graph=g1, rounds=4)).result()
            assert queue.runner.aggregate_stats()["disk_hits"] == 1
        assert again.values == first.values

    def test_same_graph_jobs_share_one_session(self, graphs):
        g1, _ = graphs
        jobs = [BatchJob(graph=g1, rounds=t) for t in (2, 4, 6)]
        with JobQueue(max_workers=3) as queue:
            queue.run(jobs)
            assert queue.runner.cached_graphs == 1


class TestInFlightDedup:
    def test_identical_inflight_jobs_share_one_future(self, graphs):
        g1, _ = graphs
        gated = _Gated()
        job = BatchJob(graph=g1, problem=gated, rounds=3)
        with JobQueue(max_workers=2) as queue:
            first = queue.submit(job)
            assert gated.started.wait(timeout=10)
            second = queue.submit(job)   # identical and in flight: coalesces
            assert second is first
            assert queue.stats.deduplicated == 1
            gated.release.set()
            assert first.result().surviving.values
        assert queue.stats.submitted == 1

    def test_equivalent_spellings_coalesce(self, graphs):
        g1, _ = graphs
        gated = _Gated()
        with JobQueue(max_workers=2) as queue:
            first = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3))
            assert gated.started.wait(timeout=10)
            # tie_break spelled at its default is the same request.
            second = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3,
                                           tie_break="history"))
            assert second is first
            gated.release.set()
            first.result()

    def test_lambda_spellings_coalesce_in_flight(self, graphs):
        # The in-flight key is the problem's request_key, which canonicalises
        # a finite λ: -0.0 and 0.0 are one request (the explicit name keeps
        # the two job labels, and so their stats rows, identical).
        g1, _ = graphs
        gated = _Gated()
        with JobQueue(max_workers=2) as queue:
            first = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3,
                                          lam=-0.0, name="q"))
            assert gated.started.wait(timeout=10)
            second = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3,
                                           lam=0.0, name="q"))
            assert second is first
            assert queue.stats.deduplicated == 1
            gated.release.set()
            first.result()
        assert queue.stats.submitted == 1

    def test_identical_burst_computes_once(self, graphs):
        # Every identical submission either coalesces in flight or hits the
        # session's result cache: one engine run, one result object.
        g1, _ = graphs
        with JobQueue(max_workers=2) as queue:
            futures = [queue.submit(BatchJob(graph=g1, rounds=4))
                       for _ in range(6)]
            results = [future.result() for future in futures]
        assert all(r.result is results[0].result for r in results)
        assert queue.stats.submitted + queue.stats.deduplicated == 6
        session = queue.runner.session(g1)
        assert session.stats.cold_runs == 1
        assert session.stats.rounds_executed == 4

    def test_differently_named_jobs_do_not_coalesce(self, graphs):
        # A shared future carries one job identity in its stats row, so only
        # jobs that would report identically may share one (the session's
        # result cache still deduplicates the compute underneath).
        g1, _ = graphs
        gated = _Gated()
        with JobQueue(max_workers=2) as queue:
            first = queue.submit(BatchJob(graph=g1, problem=gated,
                                          rounds=3, name="job-a"))
            assert gated.started.wait(timeout=10)
            second = queue.submit(BatchJob(graph=g1, problem=gated,
                                           rounds=3, name="job-b"))
            assert second is not first
            gated.release.set()
            assert first.result().stats.job == "job-a"
            assert second.result().stats.job == "job-b"

    def test_distinct_jobs_do_not_coalesce(self, graphs):
        g1, g2 = graphs
        with JobQueue(max_workers=2) as queue:
            futures = {queue.submit(BatchJob(graph=g1, rounds=3)),
                       queue.submit(BatchJob(graph=g1, rounds=4)),
                       queue.submit(BatchJob(graph=g2, rounds=3))}
            assert len(futures) == 3
            for future in futures:
                future.result()
        assert queue.stats.deduplicated == 0

    def test_completed_jobs_leave_the_inflight_registry(self, graphs):
        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            queue.submit(BatchJob(graph=g1, rounds=3)).result()
            # Drain the done-callback (runs on the worker thread).
            deadline = threading.Event()
            for _ in range(100):
                if queue.in_flight == 0:
                    break
                deadline.wait(0.01)
            assert queue.in_flight == 0


class TestBackpressure:
    def test_submit_blocks_at_max_pending(self, graphs):
        g1, _ = graphs
        gated = _Gated()
        blocked_submitted = threading.Event()
        with JobQueue(max_workers=1, max_pending=1) as queue:
            first = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3))
            assert gated.started.wait(timeout=10)

            def overflow():
                future = queue.submit(BatchJob(graph=g1, rounds=4))
                blocked_submitted.set()
                future.result()

            thread = threading.Thread(target=overflow, daemon=True)
            thread.start()
            # The queue is full: the second submit must still be blocked.
            assert not blocked_submitted.wait(timeout=0.2)
            gated.release.set()
            assert blocked_submitted.wait(timeout=10)
            thread.join(timeout=10)
            assert first.result().surviving.values

    def test_dedup_does_not_consume_capacity(self, graphs):
        g1, _ = graphs
        gated = _Gated()
        job = BatchJob(graph=g1, problem=gated, rounds=3)
        with JobQueue(max_workers=1, max_pending=1) as queue:
            first = queue.submit(job)
            assert gated.started.wait(timeout=10)
            # The queue is at capacity, but an identical submission coalesces
            # without blocking on the semaphore.
            assert queue.submit(job) is first
            gated.release.set()
            first.result()

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ServeError):
            JobQueue(max_workers=0)
        with pytest.raises(ServeError):
            JobQueue(max_pending=0)


class TestLifecycleAndErrors:
    def test_submit_after_close_raises(self, graphs):
        g1, _ = graphs
        queue = JobQueue(max_workers=1)
        queue.close()
        with pytest.raises(ServeError):
            queue.submit(BatchJob(graph=g1, rounds=3))

    def test_job_exceptions_surface_on_the_future(self, graphs):
        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            future = queue.submit(BatchJob(graph=g1, problem=_Failing(), rounds=3))
            with pytest.raises(RuntimeError, match="deliberate"):
                future.result()
        assert queue.stats.completed == 1

    def test_invalid_jobs_fail_at_submit_time(self, graphs):
        from repro.errors import AlgorithmError

        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            with pytest.raises(AlgorithmError):
                # orientation does not take lam: rejected before any worker runs
                queue.submit(BatchJob(graph=g1, problem="orientation",
                                      rounds=3, lam=0.5))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("problem", ["coreness", "orientation"])
    def test_non_finite_lambda_fails_at_submit_time(self, graphs, lam,
                                                    problem):
        from repro.errors import InvalidLambdaError

        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            with pytest.raises(InvalidLambdaError):
                queue.submit(BatchJob(graph=g1, problem=problem, rounds=3,
                                      lam=lam))
            assert queue.stats.submitted == 0
            assert queue.stats.per_problem == {}
            assert queue.in_flight == 0
        with pytest.raises(InvalidLambdaError):
            BatchRunner().run_job(BatchJob(graph=g1, problem=problem,
                                           rounds=3, lam=lam))


class TestGraphLockHygiene:
    """Regression: the per-graph lock map grew forever and trusted id() reuse.

    ``JobQueue._graph_locks`` was keyed by ``id(graph)`` and never pruned, so
    a long-lived queue leaked one lock per graph it ever served — and a
    recycled ``id()`` could hand a brand-new graph a lock some thread still
    held for a dead one.  The map now holds weakrefs and prunes dead entries
    on access.
    """

    def _fresh_graph(self, seed):
        from repro.graph.generators.random_graphs import barabasi_albert

        return barabasi_albert(20, 2, seed=seed)

    def test_lock_is_stable_for_a_live_graph(self, graphs):
        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            assert queue._graph_lock(g1) is queue._graph_lock(g1)
            assert len(queue._graph_locks) == 1

    def test_dead_graphs_are_pruned_from_the_lock_map(self, graphs):
        import gc

        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            for seed in range(5):
                queue._graph_lock(self._fresh_graph(seed))  # dies immediately
            gc.collect()
            # The next lookup prunes every dead entry.
            queue._graph_lock(g1)
            assert len(queue._graph_locks) == 1

    def test_recycled_id_is_not_handed_a_stale_lock(self, graphs):
        import gc
        import threading
        import weakref

        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            stale_lock = threading.Lock()
            doomed = self._fresh_graph(0)
            # Simulate id() reuse: a dead graph's entry sits at g1's id.
            queue._graph_locks[id(g1)] = (weakref.ref(doomed), stale_lock)
            del doomed
            gc.collect()
            assert queue._graph_lock(g1) is not stale_lock


class TestServeStatsCounters:
    """The /metrics-feeding counters: queue_depth gauge, per-problem tallies,
    the dedup_hits wire alias, and the non-blocking 429 path."""

    def test_queue_depth_tracks_inflight_executions(self, graphs):
        g1, _ = graphs
        gated = _Gated()
        with JobQueue(max_workers=1) as queue:
            assert queue.stats.queue_depth == 0
            future = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3))
            assert gated.started.wait(timeout=10)
            assert queue.stats.queue_depth == 1
            gated.release.set()
            future.result()
        assert queue.stats.queue_depth == 0

    def test_per_problem_counts_accepted_and_coalesced(self, graphs):
        g1, _ = graphs
        gated = _Gated()
        with JobQueue(max_workers=2) as queue:
            first = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3))
            assert gated.started.wait(timeout=10)
            queue.submit(BatchJob(graph=g1, problem=gated, rounds=3))  # dedup
            ori = queue.submit(BatchJob(graph=g1, problem="orientation",
                                        rounds=3))
            gated.release.set()
            first.result()
            ori.result()
        # A coalesced submission still counts against its problem: per_problem
        # measures request traffic, not executions.
        assert queue.stats.per_problem == {"coreness": 2, "orientation": 1}

    def test_dedup_hits_is_the_wire_alias_of_deduplicated(self):
        from repro.serve import ServeStats

        stats = ServeStats(deduplicated=3)
        assert stats.dedup_hits == 3

    def test_to_dict_is_a_detached_snapshot(self, graphs):
        g1, _ = graphs
        with JobQueue(max_workers=1) as queue:
            queue.submit(BatchJob(graph=g1, rounds=3)).result()
        snapshot = queue.stats.to_dict()
        assert snapshot["submitted"] == 1
        assert snapshot["dedup_hits"] == 0
        assert snapshot["queue_depth"] == 0
        assert snapshot["per_problem"] == {"coreness": 1}
        snapshot["per_problem"]["coreness"] = 99   # must not alias the gauge
        assert queue.stats.per_problem["coreness"] == 1

    def test_nonblocking_submit_raises_queue_full(self, graphs):
        from repro.errors import QueueFullError

        g1, _ = graphs
        gated = _Gated()
        with JobQueue(max_workers=1, max_pending=1) as queue:
            first = queue.submit(BatchJob(graph=g1, problem=gated, rounds=3))
            assert gated.started.wait(timeout=10)
            with pytest.raises(QueueFullError):
                queue.submit(BatchJob(graph=g1, rounds=4), block=False)
            # An identical in-flight request still coalesces at capacity.
            assert queue.submit(BatchJob(graph=g1, problem=gated, rounds=3),
                                block=False) is first
            gated.release.set()
            first.result()
        # The refused job was never accepted.
        assert queue.stats.submitted == 1
        # Capacity freed: the non-blocking path admits again after completion.
        with JobQueue(max_workers=1, max_pending=1) as queue:
            queue.submit(BatchJob(graph=g1, rounds=3), block=False).result()
            assert queue.submit(BatchJob(graph=g1, rounds=4),
                                block=False).result().surviving.values


class TestRemovedSpellings:
    """The queue takes a runner, and the package has one async front-end."""

    def test_queue_takes_no_engine_or_store_options(self, tmp_path):
        with pytest.raises(TypeError):
            JobQueue(store=tmp_path / "store")
        with pytest.raises(TypeError):
            JobQueue(engine="sharded:3")
        with pytest.raises(TypeError):
            JobQueue(BatchRunner(), num_shards=3)

    def test_async_session_is_gone(self):
        import repro
        import repro.serve

        assert not hasattr(repro, "AsyncSession")
        assert "AsyncSession" not in repro.__all__
        assert not hasattr(repro.serve, "AsyncSession")
