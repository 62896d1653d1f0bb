"""The out-of-core CSR layer: materialisation, revalidation, mapped execution.

Contract under test (see :mod:`repro.graph.mmap_csr` and the ``storage``
option of :class:`repro.engine.sharded.ShardedEngine`):

* a CSR view round-trips bit-identically through the on-disk array files;
* materialisation is write-once: a valid same-fingerprint directory is never
  rewritten, while truncation, corruption or a foreign fingerprint trigger a
  full rewrite (never a wrong answer);
* the sharded engine's ``storage="mmap"`` mode — sequential and threaded —
  produces bit-identical trajectories to the in-memory engines, including
  through a :class:`~repro.session.Session` with a persistent store
  (auto-spill);
* malformed fingerprints never touch the filesystem.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import get_engine
from repro.engine.sharded import ShardedEngine
from repro.errors import AlgorithmError, StoreError
from repro.graph.csr import csr_fingerprint, graph_to_csr
from repro.graph.generators.random_graphs import barabasi_albert
from repro.graph.graph import Graph
from repro.graph.mmap_csr import (
    CSR_ARRAYS,
    MappedCSR,
    csr_edge_bytes,
    csr_mmap_dir,
    is_fingerprint,
    materialize_csr,
    mmap_csr,
    open_mapped_csr,
)
from repro.session import Session
from repro.store import ArtifactStore


@pytest.fixture
def graph() -> Graph:
    return barabasi_albert(120, 3, seed=11)


@pytest.fixture
def csr(graph):
    return graph_to_csr(graph)


class TestMaterialisation:
    def test_arrays_round_trip_bit_identically(self, csr, tmp_path):
        mapped = mmap_csr(csr, tmp_path)
        for key, _ in CSR_ARRAYS:
            assert np.array_equal(getattr(mapped, key), getattr(csr, key)), key
        assert mapped.num_nodes == csr.num_nodes
        assert mapped.num_directed_entries == csr.num_directed_entries
        assert mapped.fingerprint == csr_fingerprint(csr)

    def test_layout_lives_under_fingerprint_csr(self, csr, tmp_path):
        fingerprint, directory = materialize_csr(csr, tmp_path)
        assert directory == tmp_path / fingerprint / "csr"
        names = {p.name for p in directory.iterdir()}
        assert names == {"meta.json", "indptr.bin", "indices.bin",
                         "weights.bin", "loops.bin"}

    def test_second_materialize_is_a_noop(self, csr, tmp_path):
        _, directory = materialize_csr(csr, tmp_path)
        stamps = {p.name: p.stat().st_mtime_ns for p in directory.iterdir()}
        materialize_csr(csr, tmp_path)
        assert {p.name: p.stat().st_mtime_ns
                for p in directory.iterdir()} == stamps

    def test_truncated_array_triggers_rewrite(self, csr, tmp_path):
        fingerprint, directory = materialize_csr(csr, tmp_path)
        (directory / "indices.bin").write_bytes(b"\x00" * 3)
        mapped = mmap_csr(csr, tmp_path)
        assert np.array_equal(mapped.indices, csr.indices)

    def test_missing_file_triggers_rewrite(self, csr, tmp_path):
        _, directory = materialize_csr(csr, tmp_path)
        (directory / "weights.bin").unlink()
        mapped = mmap_csr(csr, tmp_path)
        assert np.array_equal(mapped.weights, csr.weights)

    def test_corrupt_meta_triggers_rewrite(self, csr, tmp_path):
        _, directory = materialize_csr(csr, tmp_path)
        (directory / "meta.json").write_text("{not json", encoding="utf-8")
        mapped = mmap_csr(csr, tmp_path)
        assert np.array_equal(mapped.indptr, csr.indptr)

    def test_foreign_fingerprint_is_not_trusted(self, csr, tmp_path):
        fingerprint, directory = materialize_csr(csr, tmp_path)
        other = "0" * 64
        foreign_dir = csr_mmap_dir(tmp_path, other)
        foreign_dir.mkdir(parents=True)
        for path in directory.iterdir():
            (foreign_dir / path.name).write_bytes(path.read_bytes())
        with pytest.raises(StoreError):
            open_mapped_csr(tmp_path, other)

    def test_open_without_materialize_raises(self, tmp_path):
        with pytest.raises(StoreError, match="no valid mapped CSR"):
            open_mapped_csr(tmp_path, "a" * 64)

    def test_no_temp_files_survive(self, csr, tmp_path):
        _, directory = materialize_csr(csr, tmp_path)
        assert not [p for p in directory.iterdir() if p.name.startswith(".")]

    def test_edgeless_graph_maps_as_empty_arrays(self, tmp_path):
        csr = graph_to_csr(Graph(nodes=range(5)))
        mapped = mmap_csr(csr, tmp_path)
        assert mapped.num_nodes == 5
        assert mapped.indices.size == 0 and mapped.weights.size == 0

    def test_edge_bytes_counts_the_o_m_arrays(self, csr):
        assert csr_edge_bytes(csr) == csr.indices.nbytes + csr.weights.nbytes


class TestFingerprintHygiene:
    @pytest.mark.parametrize("bad", ["abc", "", "A" * 64, "g" * 64,
                                     "0" * 63, "0" * 65, None, 42])
    def test_malformed_fingerprints_rejected(self, bad, tmp_path):
        assert not is_fingerprint(bad)
        with pytest.raises(StoreError, match="fingerprint"):
            csr_mmap_dir(tmp_path, bad)
        assert not any(tmp_path.iterdir())  # nothing touched the filesystem

    def test_real_fingerprints_accepted(self, csr):
        assert is_fingerprint(csr_fingerprint(csr))


class TestMappedExecution:
    """storage="mmap" engines are bit-identical to in-memory execution."""

    def _variants(self, tmp_path):
        return [
            ShardedEngine(num_shards=4, storage="mmap", storage_dir=tmp_path),
            ShardedEngine(num_shards=4, storage="mmap"),  # private tmp dir
            ShardedEngine(num_shards=4, max_workers=2,
                          storage="mmap", storage_dir=tmp_path),
        ]

    def test_all_parallel_modes_bit_identical(self, graph, tmp_path):
        reference = get_engine("vectorized").run(graph, 6, track_kept=True)
        for engine in self._variants(tmp_path):
            result = engine.run(graph, 6, track_kept=True)
            assert result.values == reference.values, engine.describe()
            assert result.kept == reference.kept, engine.describe()
            assert np.array_equal(result.trajectory, reference.trajectory), \
                engine.describe()

    def test_mapped_view_is_cached_per_fingerprint(self, graph, tmp_path):
        engine = ShardedEngine(num_shards=4, storage="mmap",
                               storage_dir=tmp_path)
        engine.run(graph, 2, track_kept=False)
        assert len(engine._mapped_cache) == 1
        engine.run(graph, 3, track_kept=False)
        assert len(engine._mapped_cache) == 1

    def test_unknown_storage_mode_rejected(self):
        with pytest.raises(AlgorithmError, match="storage"):
            ShardedEngine(storage="bogus")

    def test_registry_spec_spells_storage(self):
        engine = get_engine("sharded:shards=4,storage=mmap")
        assert engine.storage == "mmap"
        assert "storage=mmap" in engine.describe()

    def test_memory_storage_never_spills(self, csr, tmp_path):
        engine = ShardedEngine(storage="memory", spill_bytes=0)
        engine.bind_storage(tmp_path)
        assert not engine._uses_mmap(csr)

    def test_auto_spill_requires_a_bound_directory(self, csr, tmp_path):
        engine = ShardedEngine(spill_bytes=0)
        assert not engine._uses_mmap(csr)  # nowhere to spill
        engine.bind_storage(tmp_path)
        assert engine._uses_mmap(csr)

    def test_bind_storage_never_overrides_explicit_dir(self, tmp_path):
        explicit = tmp_path / "explicit"
        engine = ShardedEngine(storage="mmap", storage_dir=explicit)
        engine.bind_storage(tmp_path / "bound")
        assert engine.storage_dir == explicit


class TestSessionAutoSpill:
    def test_store_backed_session_spills_and_matches(self, graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        reference = Session(graph).coreness(rounds=6)
        session = Session(graph, engine="sharded:shards=4", spill_bytes=1,
                          store=store)
        assert session.engine._uses_mmap(session.csr)
        assert session.coreness(rounds=6).values == reference.values
        # The arrays landed in the store's own per-fingerprint layout ...
        assert (store.csr_dir(session.fingerprint) / "meta.json").exists()
        # ... and the store accounts for them.
        row = store.info(session.fingerprint)["graphs"][0]
        assert "csr" in row["kinds"] and row["csr_bytes"] > 0

    def test_sessions_without_store_stay_in_memory(self, graph):
        session = Session(graph, engine="sharded:shards=4", spill_bytes=1)
        assert not session.engine._uses_mmap(session.csr)

    def test_purge_removes_the_mapped_arrays(self, graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        session = Session(graph, engine="sharded:shards=4,storage=mmap",
                          store=store)
        session.coreness(rounds=4)
        assert store.purge() >= 5  # trajectory + graph.json + 4 arrays + meta
        assert store.fingerprints() == ()
        assert not store.csr_dir(session.fingerprint).exists()


class TestEngineStorageHygiene:
    """Fixes from review: bounded fd usage, one-hash-per-graph, store conflicts."""

    def test_fingerprint_hashed_once_per_live_csr(self, graph, tmp_path,
                                                  monkeypatch):
        import repro.graph.csr as csr_module

        engine = ShardedEngine(num_shards=4, storage="mmap",
                               storage_dir=tmp_path)
        calls = {"n": 0}
        real = csr_module.csr_fingerprint

        def counting(view):
            calls["n"] += 1
            return real(view)

        monkeypatch.setattr(csr_module, "csr_fingerprint", counting)
        session_csr = graph_to_csr(graph)
        for rounds in (2, 3, 4):
            engine.run(graph, rounds, track_kept=False, csr=session_csr)
        assert calls["n"] == 1  # warm requests must not re-hash O(m) arrays

    def test_mapped_cache_is_lru_bounded(self, tmp_path):
        from repro.engine.sharded import MAX_MAPPED_GRAPHS

        engine = ShardedEngine(num_shards=2, storage="mmap",
                               storage_dir=tmp_path)
        graphs = [barabasi_albert(30, 2, seed=s)
                  for s in range(MAX_MAPPED_GRAPHS + 3)]
        for g in graphs:
            engine.run(g, 2, track_kept=False)
        assert len(engine._mapped_cache) == MAX_MAPPED_GRAPHS
        # An evicted graph still runs (the view re-opens from disk).
        result = engine.run(graphs[0], 2, track_kept=False)
        assert result.values == get_engine("vectorized").run(
            graphs[0], 2, track_kept=False).values

    def test_rebinding_one_engine_to_a_second_store_raises(self, tmp_path):
        engine = ShardedEngine()
        engine.bind_storage(tmp_path / "storeA")
        engine.bind_storage(tmp_path / "storeA")  # same root: idempotent
        with pytest.raises(AlgorithmError, match="second store"):
            engine.bind_storage(tmp_path / "storeB")

    def test_two_sessions_two_stores_need_two_engines(self, graph, tmp_path):
        engine = ShardedEngine(num_shards=2)
        Session(graph, engine=engine, store=ArtifactStore(tmp_path / "a"))
        with pytest.raises(AlgorithmError, match="second store"):
            Session(graph, engine=engine, store=ArtifactStore(tmp_path / "b"))

    def test_invalid_lambda_error_is_both_families(self):
        from repro.errors import InvalidLambdaError, ReproError
        from repro.utils.numeric import canonical_lam

        with pytest.raises(InvalidLambdaError):
            canonical_lam(float("nan"))
        assert issubclass(InvalidLambdaError, ValueError)
        assert issubclass(InvalidLambdaError, ReproError)
