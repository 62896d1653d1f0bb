"""The async serving layer: equivalence, dedup, backpressure, lifecycle.

The acceptance contract is the concurrent-submission equivalence: N mixed jobs
submitted through a :class:`JobQueue` produce results bit-identical to running
the same jobs sequentially through a :class:`BatchRunner` (and the
:class:`AsyncSession` route matches synchronous ``Session.solve``).  Timing
tests are gated on events, never sleeps-as-synchronisation.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.batch import BatchJob, BatchRunner
from repro.errors import ServeError
from repro.graph.datasets import load_dataset
from repro.problems import CorenessProblem
from repro.serve import AsyncSession, JobQueue
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
        with JobQueue(max_workers=4, store=tmp_path / "store") as queue:
            concurrent = queue.run(jobs)
        for seq, conc in zip(sequential, concurrent):
            assert conc.surviving.values == seq.surviving.values
        assert (tmp_path / "store").is_dir()  # artifacts were persisted

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

    def test_runner_and_options_are_mutually_exclusive(self):
        with pytest.raises(ServeError):
            JobQueue(BatchRunner(), store="/tmp/nope")
        with pytest.raises(ServeError):
            # An explicit engine alongside a runner must be rejected, not
            # silently dropped in favour of the runner's engine.
            JobQueue(BatchRunner("faithful"), engine="sharded:8")


class TestGraphLockHygiene:
    """Regression: the per-graph lock map grew forever and trusted id() reuse.

    ``JobQueue._graph_locks`` was keyed by ``id(graph)`` and never pruned, so
    a long-lived queue leaked one lock per graph it ever served — and a
    recycled ``id()`` could hand a brand-new graph a lock some thread still
    held for a dead one.  The map now holds weakrefs (like
    ``ShardedEngine._fingerprints``) and prunes dead entries on access.
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

    def test_async_session_counts_problems_too(self, graphs):
        g1, _ = graphs
        with AsyncSession(g1, max_workers=2) as serve:
            serve.submit("coreness", rounds=3).result()
            serve.submit("orientation", rounds=3).result()
            serve.submit("coreness", rounds=3).result()  # session-cache hit
        assert serve.stats.per_problem == {"coreness": 2, "orientation": 1}


class TestAsyncSession:
    def test_matches_synchronous_session(self, graphs):
        g1, _ = graphs
        sync = Session(g1)
        expected = [sync.solve("coreness", rounds=3),
                    sync.solve("orientation", rounds=3),
                    sync.solve("coreness", rounds=6)]
        with AsyncSession(g1, max_workers=2) as serve:
            results = list(serve.map([("coreness", {"rounds": 3}),
                                      ("orientation", {"rounds": 3}),
                                      ("coreness", {"rounds": 6})]))
        assert results[0].values == expected[0].values
        assert results[1].orientation.assignment == expected[1].orientation.assignment
        assert results[2].values == expected[2].values

    def test_identical_requests_share_the_result_object(self, graphs):
        g1, _ = graphs
        with AsyncSession(g1, max_workers=2) as serve:
            futures = [serve.submit("coreness", rounds=4) for _ in range(6)]
            results = [future.result() for future in futures]
        assert all(result is results[0] for result in results)
        # Every submission either coalesced in flight or hit the session cache.
        assert serve.stats.submitted + serve.stats.deduplicated == 6

    def test_wraps_an_existing_session(self, graphs):
        g1, _ = graphs
        session = Session(g1)
        warmed = session.coreness(rounds=4)
        with AsyncSession(session=session, max_workers=1) as serve:
            assert serve.submit("coreness", rounds=4).result() is warmed

    def test_graph_and_session_are_mutually_exclusive(self, graphs):
        g1, _ = graphs
        with pytest.raises(ServeError):
            AsyncSession(g1, session=Session(g1))
        with pytest.raises(ServeError):
            AsyncSession()
        with pytest.raises(ServeError):
            AsyncSession(session=Session(g1), store="/tmp/nope")

    def test_lambda_spellings_coalesce_in_flight(self, graphs):
        # Regression: AsyncSession's in-flight key skipped the λ
        # canonicalisation Session.solve performs (both now take the key from
        # Session.resolve_request), so equivalent spellings of the same request
        # could miss the in-flight dedup (and a bad λ only failed inside the
        # worker future).  Serve with a non-default λ so the explicit
        # spellings stay in the key and must canonicalise to coalesce.
        g1, _ = graphs
        gated = _Gated()
        with AsyncSession(g1, lam=0.25, max_workers=2) as serve:
            first = serve.submit(gated, rounds=3, lam=-0.0)
            assert gated.started.wait(timeout=10)
            second = serve.submit(gated, rounds=3, lam=0.0)
            assert second is first  # -0.0 and 0.0 are one request
            assert serve.stats.deduplicated == 1
            gated.release.set()
            first.result()
        assert serve.stats.submitted == 1

    def test_default_lambda_spelled_explicitly_coalesces(self, graphs):
        g1, _ = graphs
        gated = _Gated()
        with AsyncSession(g1, max_workers=2) as serve:
            first = serve.submit(gated, rounds=3)
            assert gated.started.wait(timeout=10)
            # -0.0 must canonicalise first, then collapse onto the omitted
            # spelling of the session default 0.0.
            second = serve.submit(gated, rounds=3, lam=-0.0)
            assert second is first
            assert serve.stats.deduplicated == 1
            gated.release.set()
            first.result()

    def test_non_finite_lambda_fails_at_submit_time(self, graphs):
        from repro.errors import InvalidLambdaError

        g1, _ = graphs
        with AsyncSession(g1, max_workers=1) as serve:
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(InvalidLambdaError):
                    # Rejected before any worker runs — a NaN λ would
                    # otherwise never dedup (NaN != NaN) and only fail
                    # inside the future.
                    serve.submit("coreness", rounds=3, lam=bad)
        assert serve.stats.submitted == 0

    def test_store_backed_async_session(self, graphs, tmp_path):
        g1, _ = graphs
        with AsyncSession(g1, store=tmp_path / "store", max_workers=2) as serve:
            first = serve.submit("coreness", rounds=4).result()
        with AsyncSession(g1, store=tmp_path / "store", max_workers=2) as serve:
            again = serve.submit("coreness", rounds=4).result()
            assert serve.session.stats.disk_hits == 1
        assert again.values == first.values
