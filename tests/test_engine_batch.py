"""Tests for the batch workload runner — repro.engine.batch."""

from __future__ import annotations

import pytest

from repro.core.api import (
    approximate_coreness,
    approximate_densest_subsets,
    approximate_orientation,
)
from repro.engine import BatchJob, BatchRunner, get_engine, sweep_jobs
from repro.errors import AlgorithmError
from repro.graph.generators.structured import complete_graph
from repro.graph.graph import Graph


class TestBatchJob:
    def test_resolve_rounds_from_epsilon(self, k6):
        job = BatchJob(graph=k6, epsilon=1.0)
        assert job.resolve_rounds() >= 1

    def test_resolve_rounds_explicit(self, k6):
        assert BatchJob(graph=k6, rounds=4).resolve_rounds() == 4

    def test_budget_is_exclusive(self, k6):
        with pytest.raises(AlgorithmError,
                           match="provide exactly one of epsilon, gamma or rounds"):
            BatchJob(graph=k6, epsilon=1.0, rounds=3).resolve_rounds()
        with pytest.raises(AlgorithmError,
                           match="provide exactly one of epsilon, gamma or rounds"):
            BatchJob(graph=k6).resolve_rounds()

    def test_label_fallback_mentions_budget(self, k6):
        assert "eps=0.5" in BatchJob(graph=k6, epsilon=0.5).label()
        assert "T=3" in BatchJob(graph=k6, rounds=3).label()
        assert BatchJob(graph=k6, rounds=3, name="mine").label() == "mine"

    def test_label_mentions_non_default_problem(self, k6):
        assert "problem=orientation" in \
            BatchJob(graph=k6, rounds=3, problem="orientation").label()
        assert "problem" not in BatchJob(graph=k6, rounds=3).label()


class TestBatchRunnerCaching:
    def test_csr_view_shared_across_jobs(self, k6):
        runner = BatchRunner("vectorized")
        assert runner.csr_view(k6) is runner.csr_view(k6)
        assert runner.cached_graphs == 1

    def test_grid_memoised_per_lambda(self, k6):
        runner = BatchRunner()
        assert runner.grid_view(k6, 0.25) is runner.grid_view(k6, 0.25)
        assert runner.grid_view(k6, 0.25) is not runner.grid_view(k6, 0.5)

    def test_distinct_graphs_cached_separately(self, k6, cycle8):
        runner = BatchRunner()
        runner.run([BatchJob(graph=k6, rounds=2), BatchJob(graph=cycle8, rounds=2),
                    BatchJob(graph=k6, rounds=3)])
        assert runner.cached_graphs == 2

    def test_session_cache_bound_is_not_an_option(self):
        # Any keyword the runner does not take is an engine option.
        with pytest.raises(AlgorithmError, match="invalid options"):
            BatchRunner(max_cached_results=2)


class TestSessionBound:
    """``max_sessions``: a locked LRU whose evicted sessions fold their
    counters into retired totals and re-open on demand."""

    def test_bound_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(AlgorithmError, match="max_sessions"):
                BatchRunner(max_sessions=bad)

    def test_least_recently_used_session_is_evicted(self, k6, cycle8, path5):
        runner = BatchRunner(max_sessions=2)
        first = runner.session(k6)
        runner.session(cycle8)
        assert runner.session(k6) is first       # k6 is now the most recent
        runner.session(path5)                    # evicts cycle8
        assert (runner.cached_graphs, runner.evicted_sessions) == (2, 1)
        assert runner.session(k6) is first
        assert runner.evicted_sessions == 1
        runner.session(cycle8)                   # re-opens, evicts path5
        assert (runner.cached_graphs, runner.evicted_sessions) == (2, 2)

    def test_unbounded_by_default(self, k6, cycle8, path5):
        runner = BatchRunner()
        for graph in (k6, cycle8, path5):
            runner.session(graph)
        assert (runner.cached_graphs, runner.evicted_sessions) == (3, 0)

    def test_evicted_counters_stay_in_the_aggregate(self, k6, cycle8, path5,
                                                    tmp_path):
        runner = BatchRunner(max_sessions=1, store=tmp_path / "store")
        seen = []
        for graph in (k6, cycle8, path5, k6):
            runner.run_job(BatchJob(graph=graph, rounds=3))
            totals = runner.aggregate_stats()
            assert all(totals[key] >= value
                       for key, value in (seen[-1] if seen else {}).items())
            seen.append(totals)
        # Three cold runs, then k6 re-opened from the store: a disk hit.
        assert seen[-1]["cold_runs"] == 3
        assert seen[-1]["disk_hits"] == seen[-2]["disk_hits"] + 1
        assert seen[-1]["rounds_executed"] == 9
        assert runner.evicted_sessions == 3

    def test_peaks_aggregate_by_max(self, k6, cycle8):
        runner = BatchRunner(max_sessions=1)
        runner.session(k6).stats.frontier_peak_nodes = 5
        runner.session(cycle8).stats.frontier_peak_nodes = 7  # evicts k6
        runner.session(k6).stats.frontier_peak_nodes = 2      # evicts cycle8
        assert runner.aggregate_stats()["frontier_peak_nodes"] == 7

    def test_a_reopened_delta_version_keeps_its_chain_fingerprint(
            self, k6, cycle8):
        from repro.graph.delta import GraphDelta

        runner = BatchRunner(max_sessions=1)
        child = runner.adopt_session(runner.session(k6).apply_delta(
            GraphDelta(remove_edges=[(0, 1)])))
        address = child.chain_fingerprint
        assert address != child.fingerprint
        runner.session(cycle8)                    # evicts the child
        reopened = runner.session(child.graph)
        assert reopened is not child and reopened.delta is child.delta
        assert reopened.chain_fingerprint == address
        assert reopened.fingerprint == child.fingerprint
        # A root re-opens under its content fingerprint, as before.
        root = runner.session(cycle8)
        assert root.chain_fingerprint == root.fingerprint

    def test_a_reopened_delta_version_still_solves_by_frontier(self, k6,
                                                               tmp_path):
        """Evicted before its first job, and again before a job at a new λ:
        both jobs re-solve only the frontier, seeded from the collected
        parent's stored trajectory, as they would with no eviction."""
        from repro.graph.delta import GraphDelta
        from repro.graph.generators.random_graphs import barabasi_albert
        from repro.session import Session

        graph = barabasi_albert(300, 3, seed=3)
        edge = next(iter(graph.edges()))[:2]
        runner = BatchRunner(max_sessions=1, store=tmp_path / "store")
        for lam in (0.0, 0.5):
            runner.run_job(BatchJob(graph=graph, rounds=6, lam=lam))
        child = runner.session(graph).apply_delta(
            GraphDelta(remove_edges=[edge]), max_frontier_fraction=1.0)
        version = runner.adopt_session(child).graph   # evicts the root
        del child
        for lam in (0.0, 0.5):
            runner.session(k6)                     # evicts the version
            before = runner.aggregate_stats()
            got = runner.run_job(BatchJob(graph=version, rounds=6, lam=lam))
            after = runner.aggregate_stats()
            assert after["incremental_runs"] == before["incremental_runs"] + 1
            assert after["cold_runs"] == before["cold_runs"]
            cold = Session(version).surviving(rounds=6, lam=lam)
            assert got.surviving.trajectory.tobytes() == \
                cold.trajectory.tobytes()
        assert runner.evicted_sessions == 5

    def test_work_on_an_evicted_session_is_counted(self, k6, cycle8):
        """A job still running on a session when it is evicted keeps
        counting, before and after the session is collected."""
        import gc

        runner = BatchRunner(max_sessions=1)
        running = runner.session(k6)
        runner.session(cycle8)                     # evicts it mid-"job"
        running.coreness(rounds=3)
        assert runner.aggregate_stats()["cold_runs"] == 1
        assert runner.aggregate_stats()["rounds_executed"] == 3
        del running
        gc.collect()
        runner.session(k6)                         # sweeps the collected one
        assert runner.aggregate_stats()["cold_runs"] == 1
        assert runner.aggregate_stats()["rounds_executed"] == 3

    def test_a_readopted_session_counts_once(self, k6, cycle8):
        runner = BatchRunner(max_sessions=1)
        session = runner.session(k6)
        session.coreness(rounds=3)
        runner.session(cycle8)                     # evicts it
        runner.adopt_session(session)              # and takes it back
        assert runner.aggregate_stats()["cold_runs"] == 1

    def test_threads_hammering_the_map_lose_no_session(self):
        import sys
        import threading

        graphs = [complete_graph(n) for n in range(3, 11)]
        runner = BatchRunner(max_sessions=3)
        opened = runner.new_session
        count_lock, counts = threading.Lock(), {"opened": 0}

        def counting_open(graph):
            with count_lock:
                counts["opened"] += 1
            return opened(graph)

        runner.new_session = counting_open

        def work(seed):
            for i in range(2000):
                runner.session(graphs[(seed * 7 + i * 3) % len(graphs)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert runner.cached_graphs == 3
        assert runner.evicted_sessions + 3 == counts["opened"]

    def test_eviction_releases_an_unsolved_childs_parent(self, k6, cycle8):
        import gc
        import weakref

        from repro.graph.delta import GraphDelta

        runner = BatchRunner(max_sessions=1)
        parent = runner.session(k6)
        child = parent.apply_delta(GraphDelta(remove_edges=[(0, 1)]))
        runner.adopt_session(child)               # evicts the parent
        grandchild = child.apply_delta(GraphDelta(remove_edges=[(0, 2)]))
        runner.adopt_session(grandchild)          # evicts the child
        collected = weakref.ref(parent)
        del parent, child
        gc.collect()
        # The unsolved grandchild still pins its parent, but the evicted
        # child no longer pins the root.
        assert grandchild.parent is not None and collected() is None


class TestBatchRunnerExecution:
    def test_results_match_direct_api(self, two_communities):
        runner = BatchRunner("sharded:3")
        result = runner.run_job(BatchJob(graph=two_communities, epsilon=0.5))
        direct = approximate_coreness(two_communities, epsilon=0.5)
        assert result.values == direct.values
        assert result.stats.rounds == direct.rounds

    def test_stats_fields(self, k6):
        result = BatchRunner().run_job(BatchJob(graph=k6, rounds=4, name="k6-job"))
        stats = result.stats
        assert stats.job == "k6-job"
        assert stats.engine == "vectorized"
        assert stats.num_nodes == 6
        assert stats.num_edges == 15
        assert stats.rounds == 4
        assert stats.seconds >= 0.0
        # K6 hits its fixed point (all values 5) after the first round.
        assert stats.converged_round == 1

    def test_unconverged_job_reports_none(self):
        g = complete_graph(40)  # degrees 39 stay put, but one round is too few to tell
        result = BatchRunner().run_job(BatchJob(graph=g, rounds=1))
        assert result.stats.converged_round is None

    def test_faithful_engine_has_no_convergence_info(self, k6):
        result = BatchRunner("faithful").run_job(BatchJob(graph=k6, rounds=3))
        assert result.stats.converged_round is None
        assert result.stats.engine == "faithful"

    def test_track_kept_flows_through(self, k6):
        kept = BatchRunner().run_job(BatchJob(graph=k6, rounds=2, track_kept=True))
        assert any(kept.surviving.kept.values())

    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError, match="non-empty graph"):
            BatchRunner().run_job(BatchJob(graph=Graph(), rounds=2))

    def test_engine_options_forwarded(self, k6):
        runner = BatchRunner("sharded", num_shards=2)
        assert runner.engine.num_shards == 2
        result = runner.run_job(BatchJob(graph=k6, rounds=2))
        assert result.values == approximate_coreness(k6, rounds=2).values

    def test_engine_instance_accepted(self, k6):
        engine = get_engine("sharded:2")
        runner = BatchRunner(engine)
        assert runner.engine is engine


class TestProblemRouting:
    def test_orientation_job_matches_direct_api(self, two_communities):
        result = BatchRunner().run_job(
            BatchJob(graph=two_communities, rounds=4, problem="orientation"))
        direct = approximate_orientation(two_communities, rounds=4)
        assert result.result.orientation.assignment == direct.orientation.assignment
        assert result.stats.problem == "orientation"
        assert result.stats.objective == direct.max_in_weight

    def test_densest_job_matches_direct_api(self, k6):
        result = BatchRunner().run_job(
            BatchJob(graph=k6, rounds=3, problem="densest"))
        direct = approximate_densest_subsets(k6, rounds=3)
        assert result.result.subsets == direct.subsets
        assert result.stats.objective == pytest.approx(2.5)
        # densest runs on the faithful pipeline: no trajectory to inspect
        assert result.stats.converged_round is None

    def test_densest_stats_report_the_engine_that_actually_ran(self, k6):
        # The 4-phase pipeline always executes on the faithful simulator,
        # whatever engine the runner was opened with.
        result = BatchRunner("sharded:2").run_job(
            BatchJob(graph=k6, rounds=3, problem="densest"))
        assert result.stats.engine == "faithful"

    def test_densest_stats_count_all_pipeline_rounds(self, k6):
        # The wall-clock covers all 4 phases, so the rounds column must too —
        # not just the Phase-1 budget T.
        result = BatchRunner().run_job(
            BatchJob(graph=k6, rounds=3, problem="densest"))
        assert result.stats.rounds == result.result.rounds_total
        assert result.stats.rounds > 3

    def test_coreness_stats_carry_problem_and_objective(self, k6):
        result = BatchRunner().run_job(BatchJob(graph=k6, rounds=3))
        assert result.stats.problem == "coreness"
        assert result.stats.objective == 5.0
        assert result.result.to_dict()["problem"] == "coreness"

    def test_mixed_problems_share_one_session(self, two_communities):
        runner = BatchRunner()
        runner.run([BatchJob(graph=two_communities, rounds=3),
                    BatchJob(graph=two_communities, rounds=5,
                             problem="orientation")])
        assert runner.cached_graphs == 1
        stats = runner.session(two_communities).stats
        # the orientation resumed the coreness job's λ=0 trajectory
        assert stats.prefix_resumes == 1
        assert stats.rounds_reused == 3

    def test_problem_aliases_and_instances_accepted(self, k6):
        from repro.problems import OrientationProblem

        by_alias = BatchRunner().run_job(
            BatchJob(graph=k6, rounds=3, problem="minmax"))
        by_instance = BatchRunner().run_job(
            BatchJob(graph=k6, rounds=3, problem=OrientationProblem()))
        assert by_alias.stats.problem == by_instance.stats.problem == "orientation"

    def test_unknown_problem_rejected(self, k6):
        with pytest.raises(AlgorithmError, match="unknown problem"):
            BatchRunner().run_job(BatchJob(graph=k6, rounds=3, problem="sorting"))

    def test_unconsumed_non_default_field_rejected(self, k6):
        with pytest.raises(AlgorithmError, match="does not take lam"):
            BatchRunner().run_job(
                BatchJob(graph=k6, rounds=3, problem="orientation", lam=0.5))
        with pytest.raises(AlgorithmError, match="does not take tie_break"):
            BatchRunner().run_job(
                BatchJob(graph=k6, rounds=3, problem="densest", tie_break="naive"))

    def test_values_the_problem_forces_anyway_are_accepted(self, k6):
        # Orientation always tracks kept sets with Λ = R: jobs spelling that
        # out (e.g. from sweep_jobs(track_kept=True)) must not be rejected.
        results = BatchRunner().run(
            sweep_jobs({"k6": k6}, rounds=(3,), problem="orientation",
                       track_kept=True))
        assert results[0].stats.problem == "orientation"
        assert any(results[0].surviving.kept.values())

    def test_repeated_identical_jobs_share_the_result(self, k6):
        runner = BatchRunner()
        job = BatchJob(graph=k6, rounds=3, problem="orientation")
        first, second = runner.run([job, job])
        assert second.result is first.result  # request-level deduplication


class TestSweepJobs:
    def test_cross_product_size(self, k6, cycle8):
        jobs = sweep_jobs({"k6": k6, "c8": cycle8}, epsilons=(0.5, 1.0), rounds=(3,),
                          lams=(0.0, 0.25))
        # 2 graphs x (2 eps + 1 rounds) x 2 lams
        assert len(jobs) == 12
        labels = {job.label() for job in jobs}
        assert "k6;eps=0.5" in labels
        assert "c8;T=3;lam=0.25" in labels

    def test_requires_a_budget(self, k6):
        with pytest.raises(AlgorithmError, match="at least one epsilon or rounds"):
            sweep_jobs({"k6": k6})

    def test_sweep_runs_end_to_end(self, k6):
        runner = BatchRunner()
        results = runner.run(sweep_jobs({"k6": k6}, rounds=(2, 3)))
        assert [r.stats.rounds for r in results] == [2, 3]
        assert runner.cached_graphs == 1

    def test_sweep_carries_problem_to_every_job(self, k6, cycle8):
        jobs = sweep_jobs({"k6": k6, "c8": cycle8}, rounds=(2,),
                          problem="orientation")
        assert all(job.problem == "orientation" for job in jobs)
        results = BatchRunner().run(jobs)
        assert {r.stats.problem for r in results} == {"orientation"}
