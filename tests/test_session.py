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


class TestResultCache:
    """The result caches keep every distinct request; there is no bound."""

    def test_every_distinct_request_stays_cached(self, two_communities):
        session = Session(two_communities)
        for t in range(1, 9):
            session.surviving(rounds=t)
        assert len(session._results) == 8
        assert "evictions" not in session.stats.to_dict()

    def test_problem_results_stay_cached(self, two_communities):
        session = Session(two_communities)
        first = [session.coreness(rounds=t) for t in range(1, 6)]
        assert len(session._problem_results) == 5
        assert all(session.coreness(rounds=t) is result
                   for t, result in zip(range(1, 6), first))
        assert session.stats.problem_hits == 5

    def test_clear_cache_empties_every_result_cache(self, two_communities):
        session = Session(two_communities)
        session.coreness(rounds=2)
        session.coreness(rounds=3)
        session.clear_cache()
        assert len(session._results) == 0
        assert len(session._problem_results) == 0
        assert len(session._trajectories) == 0
        repeat = session.coreness(rounds=2)
        assert repeat.values == Session(two_communities).coreness(rounds=2).values

    def test_cache_bound_is_not_an_option(self, two_communities):
        # Any keyword a Session does not take is an engine option, so the
        # removed bound is the registry's invalid-options error.
        with pytest.raises(AlgorithmError, match="invalid options"):
            Session(two_communities, max_cached_results=2)


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

    def test_direct_engine_subclass_receives_the_documented_hints(
            self, two_communities):
        # An engine implementing the documented run() contract without
        # subclassing TrajectoryEngine receives its own cached trajectory as
        # warm_start; the session builds csr/grid for trajectory engines only.
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
        assert received == [(False, False, False), (False, False, True)]
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


class TestLazyAnswers:
    """Answers stay arrays until a caller reads them by label: a solve, its
    objective and ``to_dict()`` build no per-node dict, and every result
    owns its mapping."""

    @staticmethod
    def _label_dicts(result):
        """The private label dicts of ``result``'s per-node and per-edge
        mappings (None: not built)."""
        mappings = [result.values, result.surviving.values]
        if hasattr(result, "orientation"):
            mappings += [result.orientation.in_weight,
                         result.orientation.assignment]
        return [mapping._dict for mapping in mappings]

    @pytest.mark.parametrize("problem", ["coreness", "orientation"])
    def test_solve_objective_and_to_dict_build_no_dict(self, ba_weighted,
                                                       problem):
        from repro.problems import get_problem

        session = Session(ba_weighted)
        session.coreness(rounds=6)           # later budgets are slices
        for rounds in (6, 4):
            result = session.solve(problem, rounds=rounds)
            get_problem(problem).objective(result)
            json.dumps(result.to_dict())
            assert self._label_dicts(result) == [None] * len(
                self._label_dicts(result))
            assert session.solve(problem, rounds=rounds) is result
            # The values are a copy of the trajectory row, not a view.
            surv = result.surviving
            assert not np.shares_memory(surv.values.array, surv.trajectory)
            assert result.values.array is surv.values.array

    def test_store_reload_builds_no_dict(self, ba_weighted, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        first = Session(ba_weighted, engine="faithful", store=store).coreness(
            rounds=3)
        reloaded = Session(ba_weighted, engine="faithful",
                           store=store).coreness(rounds=3)
        assert reloaded.surviving.values._dict is None
        assert json.dumps(reloaded.to_dict()) == json.dumps(first.to_dict())
        assert self._label_dicts(reloaded) == [None, None]

    def test_a_write_reaches_no_other_answer(self, ba_weighted):
        session = Session(ba_weighted)
        core = session.coreness(rounds=4)
        surv = session.surviving(rounds=4)
        label = next(iter(core.values))
        before = dict(surv.values)
        core.values[label] = -1.0
        del core.values[next(reversed(list(core.values)))]
        assert core.values[label] == -1.0
        assert len(core.values) == len(before) - 1
        assert core.to_dict()["num_nodes"] == len(before) - 1
        assert session.surviving(rounds=4) is surv
        assert surv.values == before and not surv.values._edited
        later = session.orientation(rounds=4)
        assert later.values == before
        assert later.values[label] == before[label]
        later.orientation.in_weight[label] = 1e9
        assert later.max_in_weight == 1e9
        assert session.orientation(rounds=4) is later
        assert session.coreness(rounds=4) is core


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
        assert trajectory_files == ["trajectory-lam0.0.traj"]  # ... one on disk

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

    def test_resolve_request_keys_every_spelling_of_one_request(self, k6):
        # The key Session.solve caches on.
        session = Session(k6, lam=0.5)
        keys = {session.resolve_request(problem, params)[2]
                for problem, params in (
                    ("coreness", {"rounds": 4}),
                    ("core", {"rounds": 4, "lam": 0.5}),
                    ("coreness", {"rounds": 4, "lam": None, "epsilon": None}))}
        assert len(keys) == 1
        _, params, zero = session.resolve_request("coreness",
                                                  {"rounds": 4, "lam": -0.0})
        assert params == {"rounds": 4, "lam": 0.0} and zero not in keys


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


class TestParentLink:
    """A delta child pins its parent only until its own first solve; after
    that the link is weak, and a later first solve at a new λ seeds its
    frontier from the live parent, else from the parent's stored trajectory,
    else solves cold — bit-identically on every path."""

    ROUNDS = 6

    @staticmethod
    def _graph() -> Graph:
        from repro.graph.generators.random_graphs import barabasi_albert
        return barabasi_albert(300, 3, seed=3)

    @staticmethod
    def _deltas(graph: Graph, count: int):
        from repro.graph.delta import GraphDelta
        edges = [(u, v) for u, v, _ in graph.edges()]
        return [GraphDelta(remove_edges=[edges[3 * i]],
                           set_weights=[(*edges[3 * i + 1], 2.0)])
                for i in range(count)]

    def _assert_cold_equal(self, session: Session, answer, lam: float = 0.0):
        cold = Session(session.graph).coreness(rounds=self.ROUNDS, lam=lam)
        assert answer.values.array.tobytes() == cold.values.array.tobytes()
        assert answer.surviving.trajectory.tobytes() == \
            cold.surviving.trajectory.tobytes()

    def test_a_chain_keeps_only_the_versions_its_caller_holds(self):
        import gc
        import weakref

        graph = self._graph()
        root = Session(graph)
        root.coreness(rounds=self.ROUNDS)
        refs = []
        older, newer = None, root
        for delta in self._deltas(graph, 12):
            older, newer = newer, newer.apply_delta(delta)
            answer = newer.coreness(rounds=self.ROUNDS)
            assert newer.stats.incremental_runs == 1
            refs.append(weakref.ref(newer))
        gc.collect()
        assert [i for i, ref in enumerate(refs) if ref() is not None] \
            == [10, 11]
        assert newer.parent is older and older.parent is None
        self._assert_cold_equal(newer, answer)

    def test_an_unsolved_child_pins_its_parent(self):
        graph = self._graph()
        d1, d2 = self._deltas(graph, 2)
        root = Session(graph)
        root.coreness(rounds=self.ROUNDS)
        # The middle version has no name: only the last one holds it.
        last = root.apply_delta(d1).apply_delta(d2)
        assert last.parent is not None and last.parent.parent is root
        answer = last.coreness(rounds=self.ROUNDS)
        # The middle version never solved, so there is nothing to re-solve
        # against: the same cold run as when the link was always strong.
        assert (last.stats.incremental_runs, last.stats.cold_runs) == (0, 1)
        self._assert_cold_equal(last, answer)

        middle = root.apply_delta(d1)
        middle.coreness(rounds=self.ROUNDS)
        last = middle.apply_delta(d2)
        del middle
        answer = last.coreness(rounds=self.ROUNDS)
        assert (last.stats.incremental_runs, last.stats.cold_runs) == (1, 0)
        self._assert_cold_equal(last, answer)

    def _child_of_a_collected_parent(self, store):
        import gc
        import weakref

        graph = self._graph()
        d1, d2 = self._deltas(graph, 2)
        root = Session(graph, store=store)
        root.coreness(rounds=self.ROUNDS)
        parent = root.apply_delta(d1, max_frontier_fraction=1.0)
        parent.coreness(rounds=self.ROUNDS)
        parent.coreness(rounds=self.ROUNDS, lam=0.5)
        child = parent.apply_delta(d2, max_frontier_fraction=1.0)
        child.coreness(rounds=self.ROUNDS)
        assert child.stats.incremental_runs == 1
        collected = weakref.ref(parent)
        del parent
        gc.collect()
        assert collected() is None and child.parent is None
        return child

    def test_a_collected_parent_seeds_from_the_store(self, tmp_path):
        from repro.store import ArtifactStore

        child = self._child_of_a_collected_parent(
            ArtifactStore(tmp_path / "store"))
        hits = child.stats.disk_hits
        answer = child.coreness(rounds=self.ROUNDS, lam=0.5)
        assert (child.stats.incremental_runs, child.stats.cold_runs) == (2, 0)
        assert child.stats.disk_hits == hits + 1
        self._assert_cold_equal(child, answer, lam=0.5)

    def test_a_collected_parent_without_a_store_solves_cold(self):
        child = self._child_of_a_collected_parent(None)
        answer = child.coreness(rounds=self.ROUNDS, lam=0.5)
        assert (child.stats.incremental_runs, child.stats.cold_runs) == (1, 1)
        self._assert_cold_equal(child, answer, lam=0.5)

    def test_a_restored_link_is_the_same_version(self, tmp_path):
        from repro.store import ArtifactStore

        graph = self._graph()
        (d1,) = self._deltas(graph, 1)
        root = Session(graph, store=ArtifactStore(tmp_path / "store"))
        root.coreness(rounds=self.ROUNDS)
        assert root.release_link() is None
        child = root.apply_delta(d1, max_frontier_fraction=1.0)
        link = child.release_link()
        again = Session(child.graph, store=root.store)
        again.restore_link(link)
        del child
        assert again.chain_fingerprint == link.chain_fingerprint
        assert again.parent is root and again.delta is d1
        answer = again.coreness(rounds=self.ROUNDS)
        assert (again.stats.incremental_runs, again.stats.cold_runs) == (1, 0)
        self._assert_cold_equal(again, answer)


class TestFrontierOverflow:
    """A delta child whose frontier outgrows ``max_frontier_fraction · n``
    at round t keeps the t - 1 exact rows the frontier rounds made and runs
    only the T - t + 1 rounds after them in full, on every trajectory
    engine, in RAM or spilled to a store's ``.traj``, bit-identically to a
    cold solve."""

    ROUNDS = 8

    @staticmethod
    def _child(graph, engine, store=None):
        from repro.graph.delta import GraphDelta

        edges = [(u, v) for u, v, _ in graph.edges()]
        root = Session(graph, engine=engine, store=store)
        root.coreness(rounds=TestFrontierOverflow.ROUNDS)
        return root.apply_delta(
            GraphDelta(remove_edges=[edges[0]],
                       set_weights=[(*edges[1], 2.0)]),
            max_frontier_fraction=0.05)

    @pytest.mark.parametrize("engine, spill", [
        ("vectorized", False), ("sharded:3", False), ("sharded:3", True)],
        ids=["vectorized", "sharded:3", "spilled-sharded:3"])
    @pytest.mark.parametrize("nodes, attach, seed, overflow", [
        (300, 3, 3, 2), (600, 1, 4, 5)])
    def test_full_rounds_resume_after_the_frontier_rows(
            self, engine, spill, nodes, attach, seed, overflow, tmp_path,
            monkeypatch):
        import repro.session as session_module
        from repro.graph.generators.random_graphs import barabasi_albert
        from repro.obs import trace as obs_trace
        from repro.store import ArtifactStore

        store = None
        if spill:  # every trajectory appended to the store's .traj
            monkeypatch.setattr(session_module, "SPILL_BYTES", 0)
            store = ArtifactStore(tmp_path / "store")
        child = self._child(barabasi_albert(nodes, attach, seed=seed), engine,
                            store)
        tracer = obs_trace.enable()
        try:
            answer = child.coreness(rounds=self.ROUNDS)
            names = [record["name"] for record in tracer.spans()]
        finally:
            obs_trace.disable()
        assert names.count("kernel.frontier_round") == overflow - 1
        assert names.count("kernel.round_range") == self.ROUNDS - overflow + 1
        assert (child.stats.incremental_fallbacks, child.stats.cold_runs,
                child.stats.rounds_executed) == (1, 1, self.ROUNDS)
        assert (child.stats.incremental_runs,
                child.stats.frontier_nodes_recomputed) == (0, 0)
        cold = Session(child.graph).coreness(rounds=self.ROUNDS)
        # No fixed point before round T, so every full round really ran.
        assert not np.array_equal(cold.surviving.trajectory[-1],
                                  cold.surviving.trajectory[-2])
        assert answer.surviving.trajectory.tobytes() == \
            cold.surviving.trajectory.tobytes()
        assert answer.values.array.tobytes() == cold.values.array.tobytes()
        assert isinstance(answer.surviving.trajectory, np.memmap) == spill
