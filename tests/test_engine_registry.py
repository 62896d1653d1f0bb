"""Tests for the engine registry and engine construction — repro.engine.base."""

from __future__ import annotations

import pytest

from repro.core.surviving import compact_elimination
from repro.engine import (
    Engine,
    available_engines,
    get_engine,
    parse_engine_spec,
    register_engine,
)
from repro.engine.kernels import shard_plan
from repro.engine.vectorized import TrajectoryEngine
from repro.errors import AlgorithmError


class TestRegistryResolution:
    def test_builtin_names_resolve(self):
        assert available_engines() == ("faithful", "sharded", "vectorized")
        for name in available_engines():
            engine = get_engine(name)
            assert isinstance(engine, Engine)
            assert engine.name == name

    @pytest.mark.parametrize("alias, canonical", [
        ("simulation", "faithful"),
        ("distsim", "faithful"),
        ("numpy", "vectorized"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert get_engine(alias).name == canonical

    def test_names_are_case_insensitive(self):
        assert get_engine("Vectorized").name == "vectorized"
        assert get_engine("SHARDED:2").num_shards == 2

    def test_unknown_engine_raises(self):
        with pytest.raises(AlgorithmError, match="unknown engine 'quantum'"):
            get_engine("quantum")

    def test_default_is_vectorized(self):
        engine = get_engine()
        assert isinstance(engine, TrajectoryEngine)
        assert engine.name == "vectorized"

    def test_engine_instance_passes_through(self):
        engine = TrajectoryEngine(num_shards=3)
        assert get_engine(engine) is engine

    def test_engine_instance_rejects_extra_options(self):
        with pytest.raises(AlgorithmError, match="already-constructed"):
            get_engine(TrajectoryEngine(), num_shards=2)

    def test_non_string_non_engine_rejected(self):
        with pytest.raises(AlgorithmError, match="name string or an Engine"):
            get_engine(42)

    def test_register_custom_engine(self):
        class EchoEngine(TrajectoryEngine):
            name = "echo-test"

        register_engine("echo-test", lambda **opts: EchoEngine())
        try:
            assert "echo-test" in available_engines()
            assert get_engine("echo-test").name == "echo-test"
        finally:
            # keep the global registry clean for the other tests
            from repro.engine import base

            base._FACTORIES.pop("echo-test", None)

    def test_compact_elimination_routes_through_registry(self, k6):
        with pytest.raises(AlgorithmError):
            compact_elimination(k6, 2, engine="quantum")
        result = compact_elimination(k6, 2, engine=TrajectoryEngine(num_shards=2))
        assert all(v == pytest.approx(5.0) for v in result.values.values())


class TestSpecParsing:
    def test_plain_name(self):
        assert parse_engine_spec("vectorized") == ("vectorized", {})

    def test_positional_shorthand(self):
        assert parse_engine_spec("sharded:4") == ("sharded", {"num_shards": 4})

    def test_key_value_options(self):
        name, options = parse_engine_spec("sharded:num_shards=4,max_workers=2")
        assert name == "sharded"
        assert options == {"num_shards": 4, "max_workers": 2}

    def test_positional_through_alias_namespace(self):
        # parsing resolves the shorthand against the canonical name
        engine = get_engine("sharded:8")
        assert engine.num_shards == 8

    def test_positional_rejected_without_shorthand(self):
        with pytest.raises(AlgorithmError, match="no positional option"):
            get_engine("vectorized:4")

    def test_invalid_option_name_raises(self):
        with pytest.raises(AlgorithmError, match="invalid options"):
            get_engine("sharded:bogus_option=1")

    def test_kwargs_override_spec_options(self):
        assert get_engine("sharded:2", num_shards=5).num_shards == 5

    def test_friendly_option_spellings(self):
        """The spellings advertised by the CLI hint resolve too."""
        engine = get_engine("sharded:shards=4,workers=2")
        assert engine.num_shards == 4
        assert engine.max_workers == 2
        engine = get_engine("sharded:shards=4,max_workers=2")
        assert engine.num_shards == 4
        assert engine.max_workers == 2


class TestShardedConstruction:
    def test_invalid_shard_count(self):
        with pytest.raises(AlgorithmError, match="num_shards must be >= 1"):
            TrajectoryEngine(num_shards=0)

    def test_invalid_worker_count(self):
        with pytest.raises(AlgorithmError, match="max_workers must be >= 1"):
            TrajectoryEngine(max_workers=0)

    def test_auto_plan_scales_with_graph(self):
        engine = TrajectoryEngine()
        assert engine.plan_for(100) == ((0, 100),)
        plan = engine.plan_for(40000)
        assert len(plan) == 3

    def test_describe_mentions_configuration(self):
        assert "shards=4" in TrajectoryEngine(num_shards=4).describe()


class TestOneTrajectoryEngine:
    """``vectorized`` and ``sharded`` are one class with a shard plan."""

    @pytest.mark.parametrize("spec, name", [
        ("vectorized", "vectorized"), ("numpy", "vectorized"),
        ("sharded", "sharded"), ("sharded:1", "sharded"),
        ("sharded:4", "sharded"), ("sharded:shards=4,workers=2", "sharded"),
    ])
    def test_every_array_spec_is_a_trajectory_engine(self, spec, name):
        engine = get_engine(spec)
        assert type(engine) is TrajectoryEngine
        assert engine.name == name

    def test_vectorized_is_the_one_range_plan(self):
        engine = get_engine("vectorized")
        for n in (0, 1, 100, 40000):
            assert engine.plan_for(n) == ((0, n),)
        assert engine.max_workers is None
        assert engine.describe() == "vectorized (whole-graph NumPy kernels)"

    @pytest.mark.parametrize("make", [
        lambda: get_engine("vectorized", num_shards=2),
        lambda: get_engine("vectorized:num_shards=2"),
        lambda: get_engine("numpy:shards=2"),
        lambda: get_engine("vectorized", max_workers=2),
        lambda: get_engine("vectorized:workers=2"),
        lambda: get_engine("vectorized:storage=mmap"),
    ], ids=["keyword-shards", "spec-shards", "alias-shards",
            "keyword-workers", "spec-workers", "spec-storage"])
    def test_vectorized_takes_no_option(self, make):
        with pytest.raises(AlgorithmError, match="invalid options"):
            make()


class TestShardPlan:
    @pytest.mark.parametrize("n, k", [(10, 1), (10, 3), (10, 10), (10, 25), (1, 1)])
    def test_plan_partitions_the_range(self, n, k):
        plan = shard_plan(n, k)
        assert plan[0][0] == 0
        assert plan[-1][1] == n
        for (_, hi), (lo, _) in zip(plan, plan[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in plan]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert len(plan) == min(n, k)

    def test_empty_graph_plan(self):
        assert shard_plan(0, 4) == ((0, 0),)

    def test_invalid_shards(self):
        with pytest.raises(AlgorithmError):
            shard_plan(5, 0)
