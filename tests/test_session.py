"""Tests for the session facade — repro.session.

Covers the artifact caches (CSR exactly once, Λ-grids per distinct λ), the
result cache, trajectory-prefix reuse (bit-identical to cold runs), the stats
counters, and the problem-registry route.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.session as session_module
from repro.core.api import (
    approximate_coreness,
    approximate_densest_subsets,
    approximate_orientation,
)
from repro.errors import AlgorithmError
from repro.graph.graph import Graph
from repro.session import Session


class TestSessionBasics:
    def test_empty_graph_rejected(self):
        with pytest.raises(AlgorithmError, match="non-empty graph"):
            Session(Graph())

    def test_engine_resolved_through_registry(self, k6):
        assert Session(k6, engine="sharded:2").engine.num_shards == 2
        assert Session(k6).engine.name == "vectorized"

    def test_unknown_engine_rejected(self, k6):
        with pytest.raises(AlgorithmError, match="unknown engine"):
            Session(k6, engine="quantum")

    def test_csr_and_grid_built_lazily_exactly_once(self, k6):
        session = Session(k6, lam=0.25)
        assert session.stats.csr_builds == 0   # nothing built until needed
        assert session.stats.grid_builds == 0
        session.surviving(rounds=2)
        assert session.stats.csr_builds == 1
        assert session.stats.grid_builds == 1
        assert session.grid().lam == 0.25
        assert session.stats.grid_builds == 1  # memoised, not rebuilt

    def test_densest_only_session_builds_no_artifacts(self, k6):
        # The 4-phase pipeline runs on the faithful simulator: a session that
        # only serves densest requests must not pay for a CSR view or grid.
        session = Session(k6)
        session.densest(rounds=2)
        assert session.stats.csr_builds == 0
        assert session.stats.grid_builds == 0

    def test_faithful_session_builds_no_artifacts(self, k6):
        session = Session(k6, engine="faithful")
        session.surviving(rounds=3)
        assert session.stats.csr_builds == 0
        assert session.stats.grid_builds == 0

    def test_describe_mentions_graph_and_engine(self, k6):
        text = Session(k6).describe()
        assert "n=6" in text and "vectorized" in text

    def test_surviving_requires_exactly_one_budget(self, k6):
        session = Session(k6)
        with pytest.raises(AlgorithmError,
                           match="provide exactly one of epsilon, gamma or rounds"):
            session.surviving()
        with pytest.raises(AlgorithmError,
                           match="provide exactly one of epsilon, gamma or rounds"):
            session.surviving(epsilon=0.5, rounds=3)

    def test_matches_free_functions(self, two_communities):
        session = Session(two_communities)
        assert session.coreness(epsilon=0.5).values == \
            approximate_coreness(two_communities, epsilon=0.5).values
        assert session.orientation(epsilon=0.5).orientation.assignment == \
            approximate_orientation(two_communities, epsilon=0.5).orientation.assignment

    def test_densest_matches_free_function(self, k6):
        ours = Session(k6).densest(rounds=3)
        free = approximate_densest_subsets(k6, rounds=3)
        assert ours.subsets == free.subsets
        assert ours.best_density == free.best_density


class TestArtifactCaching:
    def test_csr_built_exactly_once_across_requests(self, two_communities, monkeypatch):
        calls = []
        real = session_module.graph_to_csr
        monkeypatch.setattr(session_module, "graph_to_csr",
                            lambda graph: calls.append(graph) or real(graph))
        session = Session(two_communities)
        session.coreness(rounds=3)
        session.coreness(rounds=6, lam=0.2)
        session.orientation(rounds=4)
        assert len(calls) == 1
        assert session.csr is session.csr

    def test_grid_built_exactly_once_per_lambda(self, two_communities, monkeypatch):
        lams = []
        real = session_module.grid_for_graph
        monkeypatch.setattr(session_module, "grid_for_graph",
                            lambda graph, lam, **kwargs: lams.append(lam)
                            or real(graph, lam, **kwargs))
        session = Session(two_communities)
        session.surviving(rounds=2)
        session.surviving(rounds=4)
        session.surviving(rounds=2, lam=0.3)
        session.surviving(rounds=5, lam=0.3)
        assert lams == [0.0, 0.3]
        assert session.stats.grid_builds == 2
        assert session.grid(0.3) is session.grid(0.3)

    def test_result_cache_returns_same_object(self, k6):
        session = Session(k6)
        first = session.surviving(rounds=3)
        assert session.surviving(rounds=3) is first
        assert session.stats.result_hits == 1

    def test_result_cache_keys_on_all_request_fields(self, k6):
        session = Session(k6)
        base = session.surviving(rounds=3)
        assert session.surviving(rounds=3, lam=0.5) is not base
        assert session.surviving(rounds=3, track_kept=True) is not base
        assert session.surviving(rounds=3, tie_break="stable", track_kept=True) \
            is not session.surviving(rounds=3, track_kept=True)

    def test_budget_parametrisations_share_one_entry(self, k6):
        # epsilon resolves to some T; asking for that T explicitly is a hit.
        session = Session(k6)
        by_eps = session.surviving(epsilon=1.0)
        assert session.surviving(rounds=by_eps.rounds) is by_eps

    def test_problem_requests_deduplicated(self, k6):
        session = Session(k6)
        first = session.coreness(rounds=3)
        assert session.coreness(rounds=3) is first
        assert session.stats.problem_hits == 1
        assert session.densest(rounds=2) is session.densest(rounds=2)

    def test_equivalent_request_spellings_share_one_entry(self, k6):
        # The convenience methods pad unused params with None; solve() spelled
        # without them must still hit the same cache entry.
        session = Session(k6)
        assert session.solve("coreness", rounds=3) is session.coreness(rounds=3)
        assert session.solve("orientation", rounds=2) is \
            session.orientation(rounds=2)
        # ...as must a lam spelled explicitly at the session default
        assert session.solve("coreness", rounds=3, lam=0.0) is \
            session.coreness(rounds=3)
        warm = Session(k6, lam=0.25)
        assert warm.coreness(rounds=3, lam=0.25) is warm.coreness(rounds=3)

    def test_clear_cache_sheds_results_but_keeps_artifacts(self, two_communities):
        session = Session(two_communities)
        first = session.coreness(rounds=4)
        session.clear_cache()
        second = session.coreness(rounds=4)
        assert second is not first                    # recomputed...
        assert second.values == first.values          # ...identically
        assert session.stats.csr_builds == 1          # CSR view survived
        assert session.stats.cold_runs == 2


class TestBoundedResultCache:
    """``max_cached_results`` bounds the result caches with LRU eviction."""

    def test_unbounded_by_default(self, two_communities):
        session = Session(two_communities)
        for t in range(1, 9):
            session.surviving(rounds=t)
        assert len(session._results) == 8
        assert session.stats.evictions == 0

    def test_bound_is_enforced_on_surviving_results(self, two_communities):
        session = Session(two_communities, max_cached_results=3)
        for t in range(1, 9):
            session.surviving(rounds=t)
        assert len(session._results) == 3
        assert session.stats.evictions == 5

    def test_least_recently_used_entry_is_evicted_first(self, two_communities):
        session = Session(two_communities, max_cached_results=2)
        first = session.surviving(rounds=1)
        session.surviving(rounds=2)
        assert session.surviving(rounds=1) is first   # touch: 1 is now MRU
        session.surviving(rounds=3)                   # evicts the LRU entry (2)
        assert set(session._results) == {(1, 0.0, "history", False),
                                         (3, 0.0, "history", False)}
        assert session.surviving(rounds=1) is first   # survived as a hit

    def test_evicted_requests_recompute_identically(self, two_communities):
        session = Session(two_communities, max_cached_results=1)
        first = session.surviving(rounds=4)
        session.surviving(rounds=6)                   # evicts the T=4 entry
        again = session.surviving(rounds=4)
        assert again is not first
        assert again.values == first.values
        # The trajectory cache is not LRU-bounded (one array per λ), so the
        # recompute is served by slicing, not by running rounds again.
        assert session.stats.rounds_executed == 6

    def test_problem_results_are_bounded_too(self, two_communities):
        session = Session(two_communities, max_cached_results=2)
        for t in range(1, 6):
            session.coreness(rounds=t)
        assert len(session._problem_results) == 2

    def test_clear_cache_resets_a_bounded_session(self, two_communities):
        session = Session(two_communities, max_cached_results=2)
        session.coreness(rounds=2)
        session.coreness(rounds=3)
        session.clear_cache()
        assert len(session._results) == 0
        assert len(session._problem_results) == 0
        repeat = session.coreness(rounds=2)
        assert repeat.values == Session(two_communities).coreness(rounds=2).values

    def test_invalid_bound_rejected(self, two_communities):
        with pytest.raises(AlgorithmError, match="max_cached_results"):
            Session(two_communities, max_cached_results=0)


class TestPrefixReuse:
    def test_resumed_trajectory_bit_identical_to_cold(self, two_communities):
        warm = Session(two_communities)
        warm.surviving(rounds=3)
        resumed = warm.surviving(rounds=9)
        cold = Session(two_communities).surviving(rounds=9)
        assert np.array_equal(resumed.trajectory, cold.trajectory)
        assert resumed.values == cold.values
        assert warm.stats.prefix_resumes == 1
        assert warm.stats.rounds_executed == 9   # 3 cold + 6 resumed
        assert warm.stats.rounds_reused == 3

    def test_resumed_kept_sets_and_orientation_identical(self, ba_weighted):
        warm = Session(ba_weighted)
        warm.coreness(rounds=4)
        resumed = warm.orientation(rounds=10)
        cold = approximate_orientation(ba_weighted, rounds=10)
        assert resumed.values == cold.values
        assert resumed.surviving.kept == cold.surviving.kept
        assert resumed.orientation.assignment == cold.orientation.assignment
        assert resumed.orientation.in_weight == cold.orientation.in_weight

    def test_smaller_budget_served_by_slicing(self, two_communities):
        warm = Session(two_communities)
        warm.surviving(rounds=8)
        executed_before = warm.stats.rounds_executed
        sliced = warm.surviving(rounds=3)
        cold = Session(two_communities).surviving(rounds=3)
        assert np.array_equal(sliced.trajectory, cold.trajectory)
        assert sliced.values == cold.values
        assert warm.stats.trajectory_slices == 1
        assert warm.stats.rounds_executed == executed_before  # nothing recomputed

    def test_sliced_results_share_the_cached_trajectory_memory(self, two_communities):
        # A budget sweep must retain one O(T_max * n) trajectory, not a copy
        # per budget: sliced results hold views of the longest cached array.
        session = Session(two_communities)
        longest = session.surviving(rounds=8)
        for t in range(1, 8):
            sliced = session.surviving(rounds=t)
            assert np.shares_memory(sliced.trajectory, longest.trajectory)

    def test_slice_requests_skip_the_engine_entirely(self, two_communities,
                                                     monkeypatch):
        session = Session(two_communities)
        session.surviving(rounds=8)
        cold = Session(two_communities).surviving(rounds=3)
        cold_kept = Session(two_communities).surviving(rounds=3, track_kept=True)
        monkeypatch.setattr(session.engine, "run",
                            lambda *a, **k: pytest.fail("engine.run called"))
        sliced = session.surviving(rounds=3)
        assert sliced.values == cold.values
        assert sliced.kept == cold.kept
        assert sliced.node_order == cold.node_order
        assert np.array_equal(sliced.trajectory, cold.trajectory)
        # kept-set recovery is a pure function of the trajectory rows, so
        # track_kept requests are served engine-free too — bit-identically.
        sliced_kept = session.surviving(rounds=3, track_kept=True)
        assert sliced_kept.kept == cold_kept.kept
        assert sliced_kept.values == cold_kept.values

    def test_fully_covered_orientation_matches_free_function(self, ba_weighted,
                                                             monkeypatch):
        session = Session(ba_weighted)
        session.coreness(rounds=8)
        free = approximate_orientation(ba_weighted, rounds=5)
        monkeypatch.setattr(session.engine, "run",
                            lambda *a, **k: pytest.fail("engine.run called"))
        covered = session.orientation(rounds=5)
        assert covered.orientation.assignment == free.orientation.assignment
        assert covered.surviving.kept == free.surviving.kept

    def test_unknown_tie_break_rejected_even_on_the_slice_path(self, k6):
        session = Session(k6)
        session.surviving(rounds=5)
        with pytest.raises(AlgorithmError, match="unknown tie_break rule"):
            session.surviving(rounds=2, tie_break="coinflip")

    def test_ascending_sweep_rebinds_earlier_results_to_views(self, two_communities):
        # Growing budgets (the ε-sweep sweet spot): after each resume, earlier
        # cached results must be rebound to bit-identical views of the new
        # longest array instead of each retaining its own full copy.
        session = Session(two_communities)
        results = {t: session.surviving(rounds=t) for t in (2, 4, 6, 9)}
        longest = results[9].trajectory
        for t, result in results.items():
            assert np.shares_memory(result.trajectory, longest)
            cold = Session(two_communities).surviving(rounds=t)
            assert np.array_equal(result.trajectory, cold.trajectory)

    def test_prefix_reuse_is_per_lambda(self, ba_weighted):
        session = Session(ba_weighted)
        session.surviving(rounds=3, lam=0.2)
        session.surviving(rounds=6, lam=0.2)     # resumes the λ=0.2 trajectory
        assert session.stats.prefix_resumes == 1
        session.surviving(rounds=6)              # λ=0: no prefix yet -> cold
        assert session.stats.cold_runs == 2
        cold = Session(ba_weighted).surviving(rounds=6, lam=0.2)
        assert session.surviving(rounds=6, lam=0.2).values == cold.values

    def test_resume_past_fixed_point_still_identical(self, k6):
        # K6 reaches its fixed point after one round; resuming far past it must
        # fill the repeated rows exactly like a cold run does.
        warm = Session(k6)
        warm.surviving(rounds=2)
        resumed = warm.surviving(rounds=7)
        cold = Session(k6).surviving(rounds=7)
        assert np.array_equal(resumed.trajectory, cold.trajectory)

    def test_sharded_engine_resumes_identically(self, two_communities):
        warm = Session(two_communities, engine="sharded:3")
        warm.surviving(rounds=2)
        resumed = warm.surviving(rounds=6)
        cold = Session(two_communities, engine="vectorized").surviving(rounds=6)
        assert np.array_equal(resumed.trajectory, cold.trajectory)
        assert warm.stats.prefix_resumes == 1

    def test_trajectory_subclass_with_hint_free_signature_still_works(
            self, two_communities):
        # A TrajectoryEngine subclass written against the original
        # trajectory(csr, rounds, *, lam) signature must keep working even
        # when the session offers a warm-start prefix (it just recomputes).
        from repro.engine.kernels import compact_trajectory
        from repro.engine.vectorized import TrajectoryEngine

        class OldStyle(TrajectoryEngine):
            name = "old-style"

            def trajectory(self, csr, rounds, *, lam=0.0):
                return compact_trajectory(csr, rounds, lam=lam)

        session = Session(two_communities, engine=OldStyle())
        session.surviving(rounds=3)
        grown = session.surviving(rounds=7)   # prefix exists but is not forwarded
        cold = Session(two_communities).surviving(rounds=7)
        assert grown.values == cold.values
        assert np.array_equal(grown.trajectory, cold.trajectory)
        # stats stay honest: the engine recomputed every round, no reuse claimed
        assert session.stats.prefix_resumes == 0
        assert session.stats.rounds_reused == 0
        assert session.stats.rounds_executed == 10
        # ...while shrinking budgets are still served (and counted) as slices
        session.surviving(rounds=2)
        assert session.stats.trajectory_slices == 1

    def test_configured_problem_instances_do_not_share_cache_entries(self, k6):
        from repro.problems import DensestProblem

        class Scaled(DensestProblem):
            name = "scaled-densest"

            def __init__(self, factor):
                self.factor = factor

            def solve(self, session, **params):
                result = DensestProblem.solve(self, session, **params)
                return result, self.factor

        session = Session(k6)
        low = session.solve(Scaled(1), rounds=2)
        high = session.solve(Scaled(100), rounds=2)
        assert low[1] == 1 and high[1] == 100   # no cross-instance cache hit
        one = Scaled(7)
        assert session.solve(one, rounds=2) is session.solve(one, rounds=2)

    def test_engine_with_hint_free_run_signature_still_works(self, two_communities):
        # Third-party engines registered against the original run() signature
        # (no csr/grid/warm_start hints) must keep working through a Session,
        # including after a trajectory has been cached — even when they expose
        # a trajectory() method (duck-typed trajectory capability) without the
        # prefix-support probe.
        from repro.engine import get_engine
        from repro.engine.base import Engine
        from repro.engine.kernels import compact_trajectory

        class LegacyEngine(Engine):
            name = "legacy"

            def trajectory(self, csr, rounds, *, lam=0.0):
                return compact_trajectory(csr, rounds, lam=lam)

            def run(self, graph, rounds, *, lam=0.0, tie_break="history",
                    track_kept=True, csr=None, grid=None):
                return get_engine("vectorized").run(graph, rounds, lam=lam,
                                                    tie_break=tie_break,
                                                    track_kept=track_kept)

        session = Session(two_communities, engine=LegacyEngine())
        first = session.surviving(rounds=3)
        grown = session.surviving(rounds=6)   # prefix exists, hint not passed
        cold = Session(two_communities).surviving(rounds=6)
        assert first.values == Session(two_communities).surviving(rounds=3).values
        assert grown.values == cold.values
        assert np.array_equal(grown.trajectory, cold.trajectory)

    def test_direct_engine_subclass_receives_the_documented_hints(
            self, two_communities):
        # An engine implementing the full documented run() contract — without
        # subclassing TrajectoryEngine — must receive csr/grid/warm_start.
        from repro.engine import get_engine
        from repro.engine.base import Engine

        received = []

        class HintConsumer(Engine):
            name = "hint-consumer"

            def run(self, graph, rounds, *, lam=0.0, tie_break="history",
                    track_kept=True, csr=None, grid=None, warm_start=None):
                received.append((csr is not None, grid is not None,
                                 warm_start is not None))
                return get_engine("vectorized").run(
                    graph, rounds, lam=lam, tie_break=tie_break,
                    track_kept=track_kept, csr=csr, grid=grid,
                    warm_start=warm_start)

        session = Session(two_communities, engine=HintConsumer())
        session.surviving(rounds=3)
        grown = session.surviving(rounds=7)
        assert received == [(True, True, False), (True, True, True)]
        assert session.stats.prefix_resumes == 1
        cold = Session(two_communities).surviving(rounds=7)
        assert np.array_equal(grown.trajectory, cold.trajectory)

    def test_faithful_engine_never_reuses_but_matches(self, k6):
        session = Session(k6, engine="faithful")
        first = session.surviving(rounds=2)
        second = session.surviving(rounds=5)
        assert session.stats.cold_runs == 2
        assert session.stats.rounds_reused == 0
        assert first.values == Session(k6).surviving(rounds=2).values
        assert second.values == Session(k6).surviving(rounds=5).values
        # exact repeats still hit the result cache
        assert session.surviving(rounds=5) is second


class TestSessionStats:
    def test_stats_snapshot_is_json_serializable(self, k6):
        session = Session(k6)
        session.coreness(rounds=3)
        snapshot = json.loads(json.dumps(session.stats.to_dict()))
        assert snapshot["csr_builds"] == 1
        assert snapshot["rounds_executed"] >= 3

    def test_default_lam_used_by_surviving_and_coreness(self, ba_weighted):
        session = Session(ba_weighted, lam=0.4)
        result = session.coreness(rounds=3)
        assert result.lam == 0.4
        assert result.surviving.grid.lam == 0.4
        explicit = Session(ba_weighted).coreness(rounds=3, lam=0.4)
        assert result.values == explicit.values

    def test_default_lam_is_read_only(self, k6):
        # The request caches key on the default λ; mutating it would serve
        # results computed at the old value.
        session = Session(k6, lam=0.25)
        with pytest.raises(AttributeError):
            session.default_lam = 0.5
        assert session.default_lam == 0.25

    def test_orientation_overrides_default_lam_with_zero(self, ba_weighted):
        # Lemma III.11 requires Λ = R; a λ-defaulted session must not leak its
        # grid into orientation requests.
        session = Session(ba_weighted, lam=0.4)
        ours = session.orientation(rounds=4)
        free = approximate_orientation(ba_weighted, rounds=4)
        assert ours.orientation.assignment == free.orientation.assignment
        assert ours.surviving.grid.lam == 0.0


class TestLambdaCanonicalisationRegression:
    """Regression: λ = -0.0 split the caches between memory and disk.

    The in-memory dict keys collapse ``-0.0 == 0.0`` while the store's
    filename spelling used ``repr`` verbatim — so a session that computed at
    one spelling wrote an artifact the other spelling's restart could not
    find, and the store accumulated two files for one grid.  λ is now
    canonicalised once at every entry point; both spellings must address
    *one* artifact on disk, *one* cache entry in memory, and a restart must
    hit the disk whichever spelling it asks with.
    """

    def test_both_zero_spellings_share_one_artifact_and_cache_entry(
            self, two_communities, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        session = Session(two_communities, store=store)
        minus = session.coreness(rounds=4, lam=-0.0)
        plus = session.coreness(rounds=4, lam=0.0)
        assert plus is minus                      # one memory cache entry ...
        assert len(session._trajectories) == 1
        assert len(session._grids) == 1
        assert repr(session.grid(-0.0).lam) == "0.0"
        trajectory_files = [p.name for p in
                            store.graph_dir(session.fingerprint).iterdir()
                            if p.name.startswith("trajectory")]
        assert trajectory_files == ["trajectory-lam0.0.npz"]  # ... one on disk

    @pytest.mark.parametrize("spelling", [0.0, -0.0])
    def test_restart_hits_disk_for_either_spelling(self, two_communities,
                                                   tmp_path, spelling):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        cold = Session(two_communities, store=store)
        reference = cold.coreness(rounds=4, lam=-0.0)

        restarted = Session(two_communities, store=store)
        served = restarted.coreness(rounds=4, lam=spelling)
        assert restarted.stats.disk_hits == 1, spelling
        assert restarted.stats.cold_runs == 0
        assert served.values == reference.values
        # The restart extended nothing, so nothing was rewritten.
        assert restarted.stats.disk_writes == 0

    def test_minus_zero_default_lam_is_canonical(self, k6):
        session = Session(k6, lam=-0.0)
        assert repr(session.default_lam) == "0.0"

    def test_request_key_collapses_minus_zero(self, k6):
        from repro.problems import get_problem

        problem = get_problem("coreness")
        assert problem.request_key({"rounds": 4, "lam": -0.0}) == \
            problem.request_key({"rounds": 4, "lam": 0.0})


class TestNonFiniteLambdaRejection:
    """Regression: nan/inf λ reached the store and minted un-reloadable files."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejected_at_solve(self, k6, bad):
        session = Session(k6)
        with pytest.raises(ValueError, match="finite"):
            session.solve("coreness", rounds=2, lam=bad)
        with pytest.raises(ValueError, match="finite"):
            session.coreness(rounds=2, lam=bad)
        with pytest.raises(ValueError, match="finite"):
            session.surviving(rounds=2, lam=bad)

    def test_rejected_at_construction(self, k6):
        with pytest.raises(ValueError, match="finite"):
            Session(k6, lam=float("nan"))

    def test_rejected_before_any_work_or_disk_traffic(self, k6, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        session = Session(k6, store=store)
        with pytest.raises(ValueError, match="finite"):
            session.coreness(rounds=2, lam=float("nan"))
        assert session.stats.cold_runs == 0
        assert session.stats.disk_writes == 0
        assert not store.fingerprints()
