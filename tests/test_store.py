"""The persistent artifact store: fingerprints, round-trips, corruption, eviction.

Contract under test (see :mod:`repro.store.store`):

* fingerprints are content addresses — stable across conversions, sensitive to
  any change in topology, weights or node labels;
* trajectories round-trip bit-identically through the append-only ``.traj``
  file and results through ``.npz``;
* loads are corruption-tolerant: truncated, foreign, schema-mismatching,
  fingerprint-mismatching and wrong-width files all read as misses, never
  wrong answers;
* writes are atomic (no temp files survive); a trajectory save appends only
  the rows the file does not yet publish;
* ``purge`` / ``evict`` / ``info`` manage the footprint.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine.base import get_engine
from repro.errors import StoreError
from repro.graph.csr import csr_fingerprint, graph_fingerprint, graph_to_csr
from repro.graph.graph import Graph
from repro.store import SCHEMA_VERSION, ArtifactStore
from repro.store.traj import HEADER_NAME, ROWS_NAME, published_rounds


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def csr(two_communities):
    return graph_to_csr(two_communities)


@pytest.fixture
def fingerprint(csr):
    return csr_fingerprint(csr)


class TestFingerprint:
    def test_stable_across_conversions(self, two_communities):
        assert graph_fingerprint(two_communities) == \
            graph_fingerprint(two_communities)
        assert graph_fingerprint(two_communities) == \
            csr_fingerprint(graph_to_csr(two_communities))

    def test_is_hex_sha256(self, fingerprint):
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_sensitive_to_weights(self):
        g1 = Graph([("a", "b", 1.0), ("b", "c", 1.0)])
        g2 = Graph([("a", "b", 1.0), ("b", "c", 2.0)])
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_sensitive_to_topology(self):
        g1 = Graph([("a", "b"), ("b", "c")])
        g2 = Graph([("a", "b"), ("a", "c")])
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_sensitive_to_labels_and_their_types(self):
        g1 = Graph([(1, 2)])
        g2 = Graph([("1", "2")])
        g3 = Graph([(1, 3)])
        prints = {graph_fingerprint(g) for g in (g1, g2, g3)}
        assert len(prints) == 3

    def test_sensitive_to_self_loops(self):
        g1 = Graph([("a", "b")])
        g2 = Graph([("a", "b"), ("a", "a", 2.0)])
        assert graph_fingerprint(g1) != graph_fingerprint(g2)

    def test_insertion_order_is_part_of_the_address(self):
        # The CSR id assignment is insertion order, and stored arrays are
        # indexed by id — a different order is a different artifact space.
        g1 = Graph(nodes=["a", "b"])
        g1.add_edge("a", "b")
        g2 = Graph(nodes=["b", "a"])
        g2.add_edge("a", "b")
        assert graph_fingerprint(g1) != graph_fingerprint(g2)


class TestTrajectoryArtifacts:
    def test_round_trip_bit_identical(self, store, csr, fingerprint):
        trajectory = get_engine("vectorized").run(
            csr.to_graph(), 6, track_kept=False).trajectory
        store.save_trajectory(fingerprint, 0.0, trajectory, labels=csr.labels())
        loaded = store.load_trajectory(fingerprint, 0.0, num_nodes=csr.num_nodes)
        assert loaded.dtype == np.float64
        assert isinstance(loaded, np.memmap) and not loaded.flags.writeable
        assert np.array_equal(loaded, trajectory)
        assert published_rounds(store.root, fingerprint, 0.0) == 6

    def test_missing_reads_as_none(self, store, fingerprint):
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None
        assert published_rounds(store.root, fingerprint, 0.0) is None

    def test_lambda_is_part_of_the_key(self, store, fingerprint):
        trajectory = np.zeros((3, 4))
        store.save_trajectory(fingerprint, 0.5, trajectory)
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None
        assert store.load_trajectory(fingerprint, 0.5, num_nodes=4) is not None

    def test_saves_append_only_the_unpublished_rows(self, store, fingerprint):
        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        store.save_trajectory(fingerprint, 0.0, np.ones((5, 4)))
        # A shorter save appends nothing and shortens nothing.
        store.save_trajectory(fingerprint, 0.0, np.full((2, 4), 2.0))
        loaded = store.load_trajectory(fingerprint, 0.0, num_nodes=4)
        assert np.array_equal(loaded, np.vstack([np.zeros((3, 4)),
                                                 np.ones((2, 4))]))

    def test_no_temp_files_survive_a_write(self, store, fingerprint):
        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        leftovers = [p for p in store.graph_dir(fingerprint).rglob("*")
                     if ".tmp" in p.name]
        assert leftovers == []

    def test_legacy_npz_trajectories_are_ignored_but_purged(self, store,
                                                             fingerprint):
        legacy = store.graph_dir(fingerprint) / "trajectory-lam0.0.npz"
        legacy.parent.mkdir(parents=True)
        np.savez(legacy, trajectory=np.zeros((3, 4)))
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None
        assert store.info(fingerprint)["files"] == 1
        assert store.purge(fingerprint) == 1
        assert not legacy.exists()

    def test_rejects_non_trajectory_arrays(self, store, fingerprint):
        with pytest.raises(StoreError):
            store.save_trajectory(fingerprint, 0.0, np.zeros(4))

    def test_rejects_malformed_fingerprints(self, store):
        with pytest.raises(StoreError):
            store.graph_dir("../escape")
        with pytest.raises(StoreError):
            store.graph_dir("")


class TestCorruptionTolerance:
    @staticmethod
    def _edit_header(directory, **fields):
        header = json.loads((directory / HEADER_NAME).read_text())
        header.update(fields)
        (directory / HEADER_NAME).write_text(json.dumps(header))

    @pytest.mark.parametrize("name", [HEADER_NAME, ROWS_NAME])
    def test_truncated_file_reads_as_miss(self, store, fingerprint, name):
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4))) / name
        path.write_bytes(path.read_bytes()[:20])
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None

    @pytest.mark.parametrize("name", [HEADER_NAME, ROWS_NAME])
    def test_garbage_file_reads_as_miss(self, store, fingerprint, name):
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4))) / name
        path.write_bytes(b"not a trajectory")
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None

    def test_foreign_fingerprint_reads_as_miss(self, store, fingerprint):
        # A directory copied under the wrong graph directory must not be served.
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        other = "ab" * 32
        target = store.graph_dir(other) / path.name
        target.mkdir(parents=True)
        for name in (HEADER_NAME, ROWS_NAME):
            (target / name).write_bytes((path / name).read_bytes())
        assert store.load_trajectory(other, 0.0, num_nodes=4) is None

    def test_schema_version_mismatch_reads_as_miss(self, store, fingerprint):
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        self._edit_header(path, schema="repro-traj/999")
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None

    def test_shape_metadata_mismatch_reads_as_miss(self, store, fingerprint):
        # The 96 bytes of rows read as rows of 3 values: not this graph's.
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        self._edit_header(path, n=3)
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None
        # ... and a 4-wide file is no 5-node graph's trajectory either.
        store.save_trajectory(fingerprint, 0.5, np.zeros((3, 4)))
        assert store.load_trajectory(fingerprint, 0.5, num_nodes=5) is None

    def test_wrong_typed_metadata_reads_as_miss(self, store, fingerprint):
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        self._edit_header(path, rounds="two")
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is None
        assert published_rounds(store.root, fingerprint, 0.0) is None


class TestResultArtifacts:
    def _result(self, graph, rounds=4, track_kept=True):
        return get_engine("faithful").run(graph, rounds, track_kept=track_kept)

    def test_values_and_kept_round_trip(self, store, two_communities,
                                        csr, fingerprint):
        result = self._result(two_communities)
        store.save_result(fingerprint, result, lam=0.0, tie_break="history",
                          track_kept=True, labels=csr.labels())
        loaded = store.load_result(fingerprint, rounds=4, lam=0.0,
                                   tie_break="history", track_kept=True,
                                   labels=csr.labels(), grid=result.grid)
        assert loaded.values == result.values
        assert loaded.kept == result.kept
        assert loaded.rounds == result.rounds
        assert loaded.guarantee == result.guarantee
        assert loaded.stats_summary == result.stats_summary

    def test_untracked_kept_sets_are_stored_and_loaded_empty(
            self, store, two_communities, csr, fingerprint):
        result = self._result(two_communities)   # tracked: non-empty N_v
        path = store.save_result(fingerprint, result, lam=0.0,
                                 tie_break="history", track_kept=False,
                                 labels=csr.labels())
        with np.load(path) as archive:
            assert archive["kept_indices"].size == 0
            assert not archive["kept_indptr"].any()
        # Older files stored the initial N_v = N(v) under the untracked key.
        meta = {"schema": SCHEMA_VERSION, "kind": "result",
                "fingerprint": fingerprint, "lam": 0.0, "rounds": 4,
                "n": csr.num_nodes, "tie_break": "history",
                "track_kept": False, "stats_summary": ""}
        store._write_npz(path, meta, {
            "values": np.array([result.values[v] for v in csr.labels()]),
            "kept_indices": csr.indices, "kept_indptr": csr.indptr})
        loaded = store.load_result(fingerprint, rounds=4, lam=0.0,
                                   tie_break="history", track_kept=False,
                                   labels=csr.labels(), grid=result.grid)
        assert loaded.values == result.values
        assert loaded.kept == {v: () for v in csr.labels()}

    def test_request_key_fields_address_distinct_artifacts(
            self, store, two_communities, csr, fingerprint):
        result = self._result(two_communities)
        store.save_result(fingerprint, result, lam=0.0, tie_break="history",
                          track_kept=True, labels=csr.labels())
        for rounds, tie_break, track_kept in (
                (5, "history", True), (4, "stable", True), (4, "history", False)):
            assert store.load_result(
                fingerprint, rounds=rounds, lam=0.0, tie_break=tie_break,
                track_kept=track_kept, labels=csr.labels(),
                grid=result.grid) is None

    def test_node_count_mismatch_reads_as_miss(self, store, two_communities,
                                               csr, fingerprint):
        result = self._result(two_communities)
        store.save_result(fingerprint, result, lam=0.0, tie_break="history",
                          track_kept=True, labels=csr.labels())
        assert store.load_result(fingerprint, rounds=4, lam=0.0,
                                 tie_break="history", track_kept=True,
                                 labels=csr.labels()[:-1], grid=result.grid) is None


class TestManagement:
    def _populate(self, store, fingerprint, lams=(0.0, 0.5)):
        for lam in lams:
            store.save_trajectory(fingerprint, lam, np.zeros((3, 4)))

    def test_info_counts_files_and_bytes(self, store, fingerprint):
        self._populate(store, fingerprint)
        info = store.info()
        assert [row["fingerprint"] for row in info["graphs"]] == [fingerprint]
        assert info["files"] == 5  # 2 x (header.json + rows.bin) + graph.json
        assert info["bytes"] > 0
        assert info["graphs"][0]["kinds"] == ["graph", "trajectory"]

    def test_graph_json_uses_the_serialize_protocol(self, store, fingerprint):
        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)),
                              labels=(1, "1", (2, 3), None))
        meta = json.loads(
            (store.graph_dir(fingerprint) / "graph.json").read_text())
        assert meta["schema"] == SCHEMA_VERSION
        assert meta["sample_labels"] == [1, "1", "(2, 3)", None]

    def test_purge_one_graph(self, store, fingerprint):
        other = "ab" * 32
        self._populate(store, fingerprint)
        self._populate(store, other, lams=(0.0,))
        removed = store.purge(fingerprint)
        assert removed == 5
        assert store.fingerprints() == (other,)

    def test_purge_everything(self, store, fingerprint):
        self._populate(store, fingerprint)
        assert store.purge() == 5
        assert store.fingerprints() == ()
        assert store.info()["files"] == 0

    def test_purge_empty_store_is_a_noop(self, store):
        assert store.purge() == 0

    def test_evict_drops_oldest_until_under_budget(self, store, fingerprint):
        import os

        dirs = [store.save_trajectory(fingerprint, lam, np.zeros((3, 4)))
                for lam in (0.0, 0.25, 0.5)]
        # Pin distinct mtimes so the LRU order is deterministic.
        for age, directory in enumerate(dirs):
            os.utime(directory / ROWS_NAME, (1_000_000 + age, 1_000_000 + age))
        sizes = [(d / ROWS_NAME).stat().st_size for d in dirs]
        removed = store.evict(max_bytes=sizes[1] + sizes[2])
        assert removed == 1  # rows.bin; its header.json goes as a descriptor
        assert not dirs[0].exists()
        assert dirs[1].exists() and dirs[2].exists()

    def test_evict_to_zero_clears_the_store(self, store, fingerprint):
        self._populate(store, fingerprint)
        assert store.evict(max_bytes=0) == 2
        assert store.fingerprints() == ()

    def test_evict_rejects_negative_budget(self, store):
        with pytest.raises(StoreError):
            store.evict(max_bytes=-1)

    def test_root_must_be_a_directory(self, tmp_path):
        rogue = tmp_path / "file"
        rogue.write_text("x")
        with pytest.raises(StoreError):
            ArtifactStore(rogue)


class TestStrictFingerprints:
    """Regression: any-length hex used to mint stray store directories.

    ``graph_dir("abc")`` happily created ``<root>/abc`` before, and
    ``cache ls`` / ``purge`` then misreported the stray entry as a graph.
    A content address is exactly 64 lowercase hex characters — everything
    else is rejected before it touches the filesystem.
    """

    @pytest.mark.parametrize("bad", ["abc", "ABC" + "0" * 61, "0" * 63,
                                     "0" * 65, "g" * 64, "..", "a/b"])
    def test_malformed_fingerprint_raises(self, store, bad):
        with pytest.raises(StoreError, match="fingerprint"):
            store.graph_dir(bad)
        with pytest.raises(StoreError, match="fingerprint"):
            store.info(bad)

    def test_nothing_is_created_for_a_rejected_fingerprint(self, store,
                                                           fingerprint):
        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        before = sorted(p.name for p in store.root.iterdir())
        with pytest.raises(StoreError):
            store.graph_dir("abc")
        assert sorted(p.name for p in store.root.iterdir()) == before

    def test_stray_directories_are_not_listed_as_graphs(self, store,
                                                        fingerprint):
        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        (store.root / "not-a-fingerprint").mkdir()
        (store.root / "not-a-fingerprint" / "junk").write_text("x")
        assert store.fingerprints() == (fingerprint,)
        info = store.info()  # must not trip over the stray directory
        assert [row["fingerprint"] for row in info["graphs"]] == [fingerprint]
        store.purge()
        assert (store.root / "not-a-fingerprint").exists()  # not ours to delete


class TestLambdaCanonicalisation:
    """Regression: ``repr(-0.0)`` split the λ caches between disk and memory.

    Dict keys collapse ``-0.0 == 0.0`` (the in-memory caches see one entry)
    but the filename spelling used ``repr`` verbatim, so the store kept two
    artifacts and a restart with the other spelling missed.  Non-finite λ
    produced un-reloadable filenames; it is now rejected with ``ValueError``.
    """

    def test_minus_zero_addresses_the_same_artifact(self, store, fingerprint):
        store.save_trajectory(fingerprint, -0.0, np.zeros((3, 4)))
        assert store.load_trajectory(fingerprint, 0.0, num_nodes=4) is not None
        assert store.load_trajectory(fingerprint, -0.0, num_nodes=4) is not None
        files = [p.name for p in store.graph_dir(fingerprint).iterdir()
                 if p.name.startswith("trajectory")]
        assert files == ["trajectory-lam0.0.traj"]
        # ... and saving the positive spelling does not add a second file.
        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        assert len([p for p in store.graph_dir(fingerprint).iterdir()
                    if p.name.startswith("trajectory")]) == 1

    def test_minus_zero_result_artifacts_collapse_too(self, store,
                                                      two_communities):
        from repro.core.rounding import grid_for_graph

        csr = graph_to_csr(two_communities)
        fp = csr_fingerprint(csr)
        result = get_engine("faithful").run(two_communities, 3, track_kept=True)
        store.save_result(fp, result, lam=-0.0, tie_break="history",
                          track_kept=True, labels=csr.labels())
        loaded = store.load_result(fp, rounds=3, lam=0.0, tie_break="history",
                                   track_kept=True, labels=csr.labels(),
                                   grid=grid_for_graph(two_communities, 0.0))
        assert loaded is not None and loaded.values == result.values

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_lambda_rejected_everywhere(self, store, fingerprint,
                                                   bad):
        with pytest.raises(ValueError, match="finite"):
            store.save_trajectory(fingerprint, bad, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="finite"):
            store.load_trajectory(fingerprint, bad, num_nodes=4)
        with pytest.raises(ValueError, match="finite"):
            published_rounds(store.root, fingerprint, bad)
        assert not store.graph_dir(fingerprint).exists()  # nothing was minted

    def test_stored_metadata_carries_the_canonical_spelling(self, store,
                                                            fingerprint):
        path = store.save_trajectory(fingerprint, -0.0, np.zeros((3, 4)))
        header = json.loads((path / HEADER_NAME).read_text())
        assert repr(header["lam"]) == "0.0"


class TestInFlightVisibility:
    """Regression: a stalled writer's temp file leaked into info/purge/evict.

    ``_artifact_files`` yielded the hidden ``.…tmp-…`` files a concurrent (or
    crashed) writer leaves while an atomic replace is in flight, so ``info``
    counted phantom bytes, ``purge`` deleted a file another process was about
    to ``os.replace``, and ``evict`` could pick one as its oldest victim.
    Hidden files are now invisible to the management surface, and ``info``
    tolerates files vanishing between ``iterdir`` and ``stat``.
    """

    def test_stalled_temp_files_are_invisible(self, store, fingerprint):
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        stalled = path / f".{HEADER_NAME}.tmp-999-1"  # a publish in flight
        stalled.write_bytes(b"half-written")
        info = store.info(fingerprint)
        assert info["files"] == 3  # graph.json + header + rows, not the temp
        assert info["graphs"][0]["kinds"] == ["graph", "trajectory"]
        assert store.evict(max_bytes=0) == 1  # rows.bin, never the temp
        assert stalled.exists()

    def test_purge_leaves_in_flight_writes_alone(self, store, fingerprint):
        path = store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        stalled = path / f".{HEADER_NAME}.tmp-999-1"
        stalled.write_bytes(b"half-written")
        assert store.purge(fingerprint) == 3
        assert stalled.exists()  # not ours to delete mid-replace

    def test_info_tolerates_files_vanishing_mid_scan(self, store, fingerprint,
                                                     monkeypatch):
        from pathlib import Path

        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)))
        victim = store.save_trajectory(fingerprint, 0.5, np.zeros((3, 4)))
        real_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self.parent == victim:
                # Deleted between iterdir and stat.
                import errno

                raise FileNotFoundError(errno.ENOENT, "vanished", str(self))
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        info = store.info(fingerprint)
        assert info["files"] == 3  # graph.json + the surviving trajectory
        assert info["graphs"][0]["fingerprint"] == fingerprint


class TestLegacyCsrDirectory:
    """Stores written by earlier versions may hold memory-mapped CSR arrays
    under ``<fingerprint>/csr/``: never read, but counted and removed."""

    @pytest.fixture
    def legacy(self, store, csr, fingerprint):
        store.save_trajectory(fingerprint, 0.0, np.zeros((3, 4)),
                              labels=csr.labels())
        directory = store.graph_dir(fingerprint) / "csr"
        directory.mkdir()
        (directory / "meta.json").write_text("{}\n", encoding="utf-8")
        for name in ("indptr", "indices", "weights", "loops"):
            (directory / f"{name}.bin").write_bytes(b"\x00" * 16)
        return fingerprint

    def test_info_counts_the_legacy_files(self, store, legacy):
        row = store.info(legacy)["graphs"][0]
        assert row["files"] == 8  # graph.json + 2 trajectory + meta + 4 arrays
        assert row["bytes"] >= 4 * 16 + row["traj_bytes"]
        assert "csr_bytes" not in row

    def test_purge_removes_the_csr_directory(self, store, legacy):
        assert store.purge(legacy) == 8
        assert not store.graph_dir(legacy).exists()

    def test_evict_to_zero_clears_the_csr_directory_too(self, store, legacy):
        assert store.evict(max_bytes=0) == 6  # rows.bin + meta + 4 arrays
        assert store.fingerprints() == ()
        assert not store.graph_dir(legacy).exists()
