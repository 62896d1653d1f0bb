"""The out-of-core trajectory buffer: append protocol, engines, sessions.

Contract under test (see :mod:`repro.store.traj` and the spill of
:class:`repro.session.Session`):

* the append protocol — rows first, then an atomic ``header.json`` publish —
  round-trips bit-identically, resumes from whatever prefix is on disk, and
  clamps torn tails (a crash mid-append costs at most the unpublished rounds,
  never a wrong or unreadable prefix);
* a foreign, corrupt or mismatching header reads as absent and a fresh writer
  starts over — corruption can cost a recompute, never a wrong answer;
* every trajectory engine (vectorized, sequential or threaded sharded) handed
  an ``out=`` appender produces trajectories bit-identical to an in-memory
  run, including after a simulated crash;
* a session spills only with a store and a trajectory of
  :data:`~repro.session.SPILL_BYTES` or more — root runs, prefix resumes
  and frontier re-solves alike — into its own store's file, so one engine
  instance serves any number of stores, and it hashes its view once;
* the threaded mode reuses one pool per engine (and ``close`` shuts it
  down) instead of paying pool startup on every call;
* a store-backed :class:`~repro.session.Session` adopts, extends, accounts
  for, and purges the ``.traj`` artifact — the store's only trajectory
  format — appending without rewriting published rows or invalidating a
  live mapping, and counts the rows it did not compute as reused;
* malformed fingerprints never touch the filesystem, and
  ``atomic_write_bytes`` publishes whole files through a hidden, per-thread
  temp name that never survives a failed replace.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

import repro.session as session_module
import repro.store.traj as traj_module
from repro.engine import get_engine
from repro.engine.vectorized import TrajectoryEngine
from repro.errors import StoreError
from repro.graph.csr import csr_fingerprint, graph_to_csr
from repro.graph.generators.random_graphs import barabasi_albert
from repro.graph.graph import Graph
from repro.session import Session
from repro.store import AppendTrajectory, ArtifactStore
from repro.store.traj import (
    HEADER_NAME,
    ROWS_NAME,
    atomic_write_bytes,
    is_fingerprint,
    is_traj_dir,
    open_trajectory,
    published_rounds,
    rows_path,
    traj_dir,
)

#: A syntactically valid fingerprint for format-level tests.
FP = "ab" * 32


@pytest.fixture
def graph():
    return barabasi_albert(120, 3, seed=11)


#: The trajectory engines; each takes an ``out=`` sink.
SPILLING = ("vectorized", "sharded:3", "sharded:shards=3,workers=2")


@pytest.fixture
def spill_everything(monkeypatch):
    """Store-backed sessions spill every trajectory (threshold patched to 0)."""
    monkeypatch.setattr(session_module, "SPILL_BYTES", 0)


def _sink(root, graph, lam=0.0) -> AppendTrajectory:
    """An explicit appender for ``graph``'s trajectory under ``root``."""
    csr = graph_to_csr(graph)
    return AppendTrajectory.open(root, csr_fingerprint(csr), lam,
                                 num_nodes=csr.num_nodes)


def _maps_own_traj(trajectory, session, lam=0.0) -> bool:
    """Whether ``trajectory`` maps the ``.traj`` rows of ``session``'s own
    store for its fingerprint and ``lam``."""
    return isinstance(trajectory, np.memmap) and os.path.samefile(
        trajectory.filename,
        rows_path(session.store.root, session.fingerprint, lam))


def _rows(count, n=4):
    """``count`` distinct, easily recognisable float64 rows."""
    return np.arange(count * n, dtype=np.float64).reshape(count, n) + 1.0


class TestAppendFormat:
    def test_empty_file_seeds_the_all_inf_initial_row(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            assert traj.ensure_prefix() == 0
            assert np.all(np.isposinf(traj.row(0)))
        assert published_rounds(tmp_path, FP, 0.0) == 0

    def test_appended_rounds_round_trip_and_reopen_resumes(self, tmp_path):
        rows = _rows(3)
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix()
            for row in rows:
                traj.append_row(row)
            assert traj.rounds == 3
        # A fresh handle resumes from the on-disk rows — they ARE the state.
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            assert traj.ensure_prefix() == 3
            assert np.array_equal(traj.as_array()[1:], rows)
        mapped = open_trajectory(tmp_path, FP, 0.0)
        assert mapped.shape == (4, 4)
        assert np.array_equal(mapped[1:], rows)

    def test_torn_tail_is_clamped_never_served(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(4))
        # Crash mid-append: the file holds 2 full rows plus a partial one,
        # while the header still claims 3 rounds.
        path = rows_path(tmp_path, FP, 0.0)
        with open(path, "r+b") as handle:
            handle.truncate(2 * 4 * 8 + 5)
        assert published_rounds(tmp_path, FP, 0.0) == 1
        assert open_trajectory(tmp_path, FP, 0.0).shape == (2, 4)
        # A writer resumes after the surviving prefix, not the torn claim.
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            assert traj.ensure_prefix() == 1

    def test_foreign_header_reads_as_absent_and_is_wiped(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(3))
        header = traj_dir(tmp_path, FP, 0.0) / HEADER_NAME
        header.write_text(header.read_text().replace(FP, "cd" * 32))
        assert published_rounds(tmp_path, FP, 0.0) is None
        assert open_trajectory(tmp_path, FP, 0.0) is None
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            assert traj.rounds == -1  # started over
            assert traj.ensure_prefix() == 0

    def test_corrupt_header_reads_as_absent(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(2))
        (traj_dir(tmp_path, FP, 0.0) / HEADER_NAME).write_text("{not json")
        assert published_rounds(tmp_path, FP, 0.0) is None

    @pytest.mark.parametrize("field, value", [("rounds", -5), ("rounds", True),
                                              ("n", True)])
    def test_malformed_header_counts_read_as_absent_and_start_over(
            self, tmp_path, field, value):
        # A negative count would send the appender seeking before row 0, and
        # a JSON boolean is an int to isinstance (true would read as 1).
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(4))
        path = traj_dir(tmp_path, FP, 0.0) / HEADER_NAME
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    field: value}))
        assert published_rounds(tmp_path, FP, 0.0) is None
        assert open_trajectory(tmp_path, FP, 0.0) is None
        rows = _rows(5)
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            assert traj.rounds == -1  # started over
            assert traj.ensure_prefix(rows) == 4
        assert np.array_equal(open_trajectory(tmp_path, FP, 0.0), rows)

    def test_node_count_mismatch_starts_over(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(2))
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=5) as traj:
            assert traj.rounds == -1

    def test_ensure_prefix_appends_only_the_missing_rows(self, tmp_path):
        rows = _rows(5)
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            assert traj.ensure_prefix(rows[:3]) == 2
            assert traj.ensure_prefix(rows) == 4
            # A shorter prefix never truncates what is already published.
            assert traj.ensure_prefix(rows[:2]) == 4
            assert np.array_equal(traj.as_array(), rows)

    def test_ensure_prefix_rejects_wrong_width(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            with pytest.raises(StoreError, match="does not fit"):
                traj.ensure_prefix(np.zeros((2, 5)))

    def test_fill_to_repeats_the_fixed_point_row(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(2))
            fixed = traj.row(1)
            traj.fill_to(6, fixed)
            array = traj.as_array()
        assert array.shape == (7, 4)
        assert np.array_equal(array[1:], np.broadcast_to(fixed, (6, 4)))

    def test_as_array_caps_to_the_requested_rounds(self, tmp_path):
        rows = _rows(5)
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(rows)
            assert traj.as_array(2).shape == (3, 4)
            assert np.array_equal(traj.as_array(2), rows[:3])

    def test_unpublished_rows_are_unreadable(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(2))
            with pytest.raises(StoreError, match="not published"):
                traj.row(5)

    def test_minus_zero_lambda_addresses_the_same_artifact(self, tmp_path):
        assert traj_dir(tmp_path, FP, -0.0) == traj_dir(tmp_path, FP, 0.0)
        with AppendTrajectory.open(tmp_path, FP, -0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(2))
        assert published_rounds(tmp_path, FP, 0.0) == 1

    def test_malformed_fingerprint_never_touches_the_filesystem(self, tmp_path):
        with pytest.raises(StoreError, match="fingerprint"):
            traj_dir(tmp_path, "abc", 0.0)
        assert not any(tmp_path.iterdir())

    def test_num_nodes_must_be_positive(self, tmp_path):
        with pytest.raises(StoreError, match="n >= 1"):
            AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=0)

    def test_no_temp_files_survive_a_publish(self, tmp_path):
        with AppendTrajectory.open(tmp_path, FP, 0.0, num_nodes=4) as traj:
            traj.ensure_prefix(_rows(3))
        names = {p.name for p in traj_dir(tmp_path, FP, 0.0).iterdir()}
        assert names == {HEADER_NAME, ROWS_NAME}

    def test_is_traj_dir_recognises_the_layout(self, tmp_path):
        assert is_traj_dir(traj_dir(tmp_path, FP, 0.0))
        assert not is_traj_dir(tmp_path / FP / "csr")


class TestFingerprintHygiene:
    @pytest.mark.parametrize("bad", ["abc", "", "A" * 64, "g" * 64,
                                     "0" * 63, "0" * 65, None, 42])
    def test_malformed_fingerprints_rejected(self, bad, tmp_path):
        assert not is_fingerprint(bad)
        with pytest.raises(StoreError, match="fingerprint"):
            traj_dir(tmp_path, bad, 0.0)
        assert not any(tmp_path.iterdir())  # nothing touched the filesystem

    def test_real_fingerprints_accepted(self, graph):
        assert is_fingerprint(csr_fingerprint(graph_to_csr(graph)))


class TestAtomicWrite:
    """``atomic_write_bytes``: the header publish and every store document."""

    def test_publishes_the_payload_and_leaves_no_temp_file(self, tmp_path):
        atomic_write_bytes(tmp_path / "doc.json", b"payload")
        assert (tmp_path / "doc.json").read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_replaces_an_existing_file_whole(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"a much longer previous payload")
        atomic_write_bytes(path, b"short")
        assert path.read_bytes() == b"short"

    def test_a_failed_replace_keeps_the_old_file_and_no_temp(self, tmp_path,
                                                             monkeypatch):
        path = tmp_path / "doc.json"
        path.write_bytes(b"published")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(traj_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(path, b"torn")
        assert path.read_bytes() == b"published"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_temp_name_is_hidden_and_unique_per_thread(self, tmp_path,
                                                       monkeypatch):
        real_replace = os.replace
        temps = []

        def recording_replace(src, dst):
            temps.append(os.path.basename(src))
            real_replace(src, dst)

        monkeypatch.setattr(traj_module.os, "replace", recording_replace)
        path = tmp_path / "doc.json"
        atomic_write_bytes(path, b"main")
        writer = threading.Thread(target=atomic_write_bytes,
                                  args=(path, b"thread"))
        writer.start()
        writer.join()
        assert len(temps) == 2 and temps[0] != temps[1]
        for name in temps:
            # Hidden, so the store's info/purge/evict never see it in flight.
            assert name.startswith(".doc.json.tmp-")
            assert f"-{os.getpid()}-" in name
        assert path.read_bytes() == b"thread"


class TestEngineEquivalence:
    """Trajectory engines handed an ``out=`` appender are bit-identical to
    in-memory runs."""

    @pytest.mark.parametrize("spec", SPILLING)
    def test_all_modes_bit_identical_and_spilled(self, graph, tmp_path, spec):
        reference = get_engine("vectorized").run(graph, 6, track_kept=True)
        engine = get_engine(spec)
        with _sink(tmp_path, graph) as sink:
            result = engine.run(graph, 6, track_kept=True, out=sink)
        assert result.values == reference.values
        assert result.kept == reference.kept
        assert np.array_equal(result.trajectory, reference.trajectory)
        # The trajectory really is the on-disk buffer, not a copy.
        assert isinstance(result.trajectory, np.memmap)
        if isinstance(engine, TrajectoryEngine):
            engine.close()

    def test_fresh_engine_resumes_from_the_spilled_prefix(self, graph,
                                                          tmp_path):
        reference = get_engine("vectorized").run(graph, 9, track_kept=False)
        with _sink(tmp_path, graph) as sink:
            TrajectoryEngine(num_shards=4).run(graph, 5, track_kept=False,
                                            out=sink)
        with _sink(tmp_path, graph) as sink:
            result = TrajectoryEngine(num_shards=4).run(graph, 9,
                                                     track_kept=False,
                                                     out=sink)
        assert np.array_equal(result.trajectory, reference.trajectory)

    def test_crash_recovery_through_the_engine(self, graph, tmp_path):
        reference = get_engine("vectorized").run(graph, 8, track_kept=False)
        engine = TrajectoryEngine(num_shards=4)
        with _sink(tmp_path, graph) as sink:
            engine.run(graph, 8, track_kept=False, out=sink)
        fingerprint = csr_fingerprint(graph_to_csr(graph))
        # Tear the file mid-row: 3 intact rows plus a partial fourth.
        with open(rows_path(tmp_path, fingerprint, 0.0), "r+b") as handle:
            handle.truncate(3 * graph.num_nodes * 8 + 17)
        assert published_rounds(tmp_path, fingerprint, 0.0) == 2
        with _sink(tmp_path, graph) as sink:
            result = engine.run(graph, 8, track_kept=False, out=sink)
        assert np.array_equal(result.trajectory, reference.trajectory)

    def test_edgeless_graph_spills_and_matches(self, tmp_path):
        graph = Graph(nodes=range(5))
        reference = get_engine("vectorized").run(graph, 3, track_kept=True)
        with _sink(tmp_path, graph) as sink:
            result = TrajectoryEngine(num_shards=2).run(graph, 3,
                                                     track_kept=True,
                                                     out=sink)
        assert result.values == reference.values
        assert np.array_equal(result.trajectory, reference.trajectory)
        assert isinstance(result.trajectory, np.memmap)

    def test_corrupt_header_through_the_engine_recomputes(self, graph,
                                                          tmp_path):
        reference = get_engine("vectorized").run(graph, 6, track_kept=False)
        engine = TrajectoryEngine(num_shards=4)
        with _sink(tmp_path, graph) as sink:
            engine.run(graph, 6, track_kept=False, out=sink)
        fingerprint = csr_fingerprint(graph_to_csr(graph))
        (traj_dir(tmp_path, fingerprint, 0.0) / HEADER_NAME) \
            .write_text("{not json", encoding="utf-8")
        assert published_rounds(tmp_path, fingerprint, 0.0) is None
        with _sink(tmp_path, graph) as sink:
            result = engine.run(graph, 6, track_kept=False, out=sink)
        assert np.array_equal(result.trajectory, reference.trajectory)
        assert published_rounds(tmp_path, fingerprint, 0.0) == 6


class TestSessionOwnsTheSink:
    """The session opens the sink on its own store: one engine instance
    serves many stores, and each view is hashed once."""

    def test_fingerprint_hashed_once_per_live_csr(self, graph, tmp_path,
                                                  monkeypatch,
                                                  spill_everything):
        import hashlib
        import types

        import repro.graph.csr as csr_module

        session = Session(graph, engine="sharded:4",
                          store=ArtifactStore(tmp_path / "store"))
        hashes = []

        def counting_sha256(*args):
            hashes.append(args)
            return hashlib.sha256(*args)

        monkeypatch.setattr(csr_module, "hashlib",
                            types.SimpleNamespace(sha256=counting_sha256))
        for rounds in (2, 3, 4):
            session.coreness(rounds=rounds)
        assert len(hashes) == 1  # warm requests must not re-hash O(m) arrays
        assert published_rounds(session.store.root, session.fingerprint,
                                0.0) == 4

    def test_one_engine_instance_spills_into_each_sessions_store(
            self, graph, tmp_path, spill_everything):
        engine = TrajectoryEngine(num_shards=2)
        first = Session(graph, engine=engine,
                        store=ArtifactStore(tmp_path / "a"))
        second = Session(graph, engine=engine,
                         store=ArtifactStore(tmp_path / "b"))
        for session in (first, second):
            trajectory = session.coreness(rounds=5).surviving.trajectory
            assert _maps_own_traj(trajectory, session)
        assert first.stats.cold_runs == second.stats.cold_runs == 1


class TestThreadPoolReuse:
    """Perf fix: one pool per engine, not a fresh ThreadPoolExecutor per call."""

    def test_pool_is_created_lazily_and_reused(self, graph):
        engine = TrajectoryEngine(num_shards=4, max_workers=2)
        assert engine._thread_pool is None
        engine.run(graph, 3, track_kept=False)
        pool = engine._thread_pool
        assert pool is not None
        engine.run(graph, 4, track_kept=False)
        assert engine._thread_pool is pool

    def test_close_shuts_the_pool_down(self, graph):
        engine = TrajectoryEngine(num_shards=4, max_workers=2)
        engine.run(graph, 3, track_kept=False)
        pool = engine._thread_pool
        engine.close()
        assert engine._thread_pool is None
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)  # really shut down
        # The engine stays usable: a new pool is built on demand.
        result = engine.run(graph, 3, track_kept=False)
        assert engine._thread_pool is not None
        assert engine._thread_pool is not pool
        assert result.values == get_engine("vectorized").run(
            graph, 3, track_kept=False).values

    def test_close_without_a_pool_is_a_noop(self):
        TrajectoryEngine(num_shards=2).close()


class TestStoreIntegration:
    def test_info_purge_and_evict_account_for_traj_files(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save_trajectory(FP, 0.0, _rows(3))
        row = store.info(FP)["graphs"][0]
        assert row["traj_bytes"] > 0
        assert "trajectory" in row["kinds"]
        assert row["files"] == 3  # graph.json + header.json + rows.bin
        assert store.purge(FP) == 3
        assert not store.graph_dir(FP).exists()

    def test_evict_to_zero_clears_traj_artifacts(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.save_trajectory(FP, 0.0, _rows(3))
        # Only the data file counts; header.json is descriptor cleanup.
        assert store.evict(max_bytes=0) == 1
        assert store.fingerprints() == ()
        assert not traj_dir(store.root, FP, 0.0).exists()

    def test_published_rows_are_never_rewritten(self, graph, tmp_path,
                                                monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        first = Session(graph, store=store)
        first.coreness(rounds=6)
        path = rows_path(store.root, first.fingerprint, 0.0)
        published, inode = path.read_bytes(), path.stat().st_ino
        written = []
        write_rows = AppendTrajectory._write_rows

        def spy(self, first_row, block):
            written.append(first_row)
            write_rows(self, first_row, block)

        monkeypatch.setattr(AppendTrajectory, "_write_rows", spy)
        Session(graph, store=store).coreness(rounds=9)
        assert written == [7]  # rows 7..9 only, appended in one block
        assert path.stat().st_ino == inode  # appended, not recreated
        data = path.read_bytes()
        assert data[:len(published)] == published
        reference = get_engine("vectorized").run(graph, 9, track_kept=False)
        assert data == reference.trajectory.tobytes()

    def test_a_live_mapping_survives_an_append(self, graph, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        Session(graph, store=store).coreness(rounds=6)
        reader = Session(graph, store=store)
        mapped = reader.coreness(rounds=6).surviving.trajectory
        assert isinstance(mapped, np.memmap)
        before = np.array(mapped)
        Session(graph, store=store).coreness(rounds=9)
        assert np.array_equal(mapped, before)
        # A writer that must start over unlinks the file, never truncates it.
        (traj_dir(store.root, reader.fingerprint, 0.0) / HEADER_NAME) \
            .write_text("{not json")
        Session(graph, store=store).coreness(rounds=3)
        assert np.array_equal(mapped, before)
        assert reader.coreness(rounds=4).values == \
            Session(graph).coreness(rounds=4).values


class TestSessionSpill:
    def test_store_backed_session_auto_spills_and_matches(
            self, graph, tmp_path, spill_everything):
        store = ArtifactStore(tmp_path / "store")
        reference = Session(graph).coreness(rounds=6)
        session = Session(graph, engine="sharded:shards=4", store=store)
        result = session.coreness(rounds=6)
        assert result.values == reference.values
        # The engine appended to the store's own file: the result maps it.
        assert _maps_own_traj(result.surviving.trajectory, session)
        assert published_rounds(store.root, session.fingerprint, 0.0) == 6
        row = store.info(session.fingerprint)["graphs"][0]
        assert "trajectory" in row["kinds"] and row["traj_bytes"] > 0

    def test_spill_needs_a_store_and_a_big_trajectory(self, graph, tmp_path,
                                                      monkeypatch):
        def spilled(session, rounds):
            trajectory = session.coreness(rounds=rounds).surviving.trajectory
            return isinstance(trajectory, np.memmap)

        stored = Session(graph, store=ArtifactStore(tmp_path / "a"))
        assert not spilled(stored, 4)  # fits in memory
        monkeypatch.setattr(session_module, "SPILL_BYTES", 6 * 120 * 8)
        fresh = Session(graph, store=ArtifactStore(tmp_path / "b"))
        assert not spilled(fresh, 4)
        assert spilled(fresh, 5)  # read at decision time
        assert not spilled(Session(graph), 5)  # no store: nowhere to spill

    @pytest.mark.parametrize("engine", SPILLING)
    def test_sessions_without_store_stay_in_memory(self, graph, engine,
                                                   spill_everything):
        session = Session(graph, engine=engine)
        result = session.coreness(rounds=6)
        assert not isinstance(result.surviving.trajectory, np.memmap)

    @pytest.mark.parametrize("spill", [False, True], ids=["ram", "spilled"])
    @pytest.mark.parametrize("engine", ["vectorized", "sharded:4"])
    def test_session_spills_traj_instead_of_npz(self, graph, tmp_path, engine,
                                                spill, monkeypatch):
        if spill:
            monkeypatch.setattr(session_module, "SPILL_BYTES", 0)
        store = ArtifactStore(tmp_path / "store")
        reference = Session(graph).coreness(rounds=6)
        session = Session(graph, engine=engine, store=store)
        assert session.coreness(rounds=6).values == reference.values
        names = {p.name for p in store.graph_dir(session.fingerprint).iterdir()}
        assert "trajectory-lam0.0.traj" in names
        assert not any(name.endswith(".npz") for name in names)
        assert session.stats.disk_writes == 1
        assert published_rounds(store.root, session.fingerprint, 0.0) == 6
        row = store.info(session.fingerprint)["graphs"][0]
        assert row["traj_bytes"] > 0 and "trajectory" in row["kinds"]

    @pytest.mark.parametrize("engine", SPILLING)
    def test_root_resume_and_frontier_child_append_to_the_stores_traj(
            self, graph, tmp_path, spill_everything, engine):
        """A root run, its prefix resume and a one-edge child's frontier
        re-solve each append to the store's own ``.traj`` of their version,
        and each trajectory maps that file, byte for byte a store-less
        run's."""
        from repro.graph.delta import GraphDelta

        parent = Session(graph, engine=engine,
                         store=ArtifactStore(tmp_path / "store"))
        root = parent.coreness(rounds=4).surviving.trajectory
        resumed = parent.coreness(rounds=8).surviving.trajectory
        assert (parent.stats.cold_runs, parent.stats.prefix_resumes) == (1, 1)
        child = parent.apply_delta(GraphDelta(add_edges=[(0, 119, 1.0)]),
                                   max_frontier_fraction=1.0)
        frontier = child.coreness(rounds=8).surviving.trajectory
        assert child.stats.incremental_runs == 1
        for session, trajectory, rounds in ((parent, root, 4),
                                            (parent, resumed, 8),
                                            (child, frontier, 8)):
            assert _maps_own_traj(trajectory, session)
            in_ram = Session(session.graph, engine=engine).coreness(
                rounds=rounds).surviving.trajectory
            assert trajectory.tobytes() == in_ram.tobytes()

    def test_each_lambda_appends_to_its_own_file(self, graph, tmp_path,
                                                 spill_everything):
        session = Session(graph, engine="sharded:4",
                          store=ArtifactStore(tmp_path / "store"))
        for lam, rounds in ((0.5, 5), (0.0, 3)):
            reference = get_engine("vectorized").run(graph, rounds, lam=lam,
                                                     track_kept=False)
            trajectory = session.coreness(rounds=rounds,
                                          lam=lam).surviving.trajectory
            assert _maps_own_traj(trajectory, session, lam)
            assert np.array_equal(trajectory, reference.trajectory)
        assert published_rounds(session.store.root, session.fingerprint,
                                0.5) == 5
        assert published_rounds(session.store.root, session.fingerprint,
                                0.0) == 3

    def test_rows_published_by_another_session_count_as_reused(
            self, graph, tmp_path, spill_everything):
        """Rows another writer appended after this session last probed the
        store are the sink's prefix: not recomputed, counted as reused."""
        from repro.obs import trace as obs_trace

        store = ArtifactStore(tmp_path / "store")
        reader = Session(graph, store=store)
        reader.coreness(rounds=3)
        Session(graph, store=store).coreness(rounds=6)
        tracer = obs_trace.enable()
        try:
            trajectory = reader.coreness(rounds=9).surviving.trajectory
            names = [record["name"] for record in tracer.spans()]
        finally:
            obs_trace.disable()
        assert names.count("kernel.round_range") == 3
        assert (reader.stats.rounds_reused, reader.stats.rounds_executed,
                reader.stats.prefix_resumes) == (6, 3 + 3, 1)
        reference = get_engine("vectorized").run(graph, 9, track_kept=False)
        assert trajectory.tobytes() == reference.trajectory.tobytes()

    def test_a_failed_run_closes_the_sink_and_the_next_one_recovers(
            self, graph, tmp_path, spill_everything, monkeypatch):
        from repro.engine import kernels

        closed = []
        close = AppendTrajectory.close

        def spy(self):
            closed.append(self.rounds)
            close(self)

        def failing(*args):
            raise RuntimeError("injected round failure")

        real = kernels.compact_round_range
        monkeypatch.setattr(AppendTrajectory, "close", spy)
        monkeypatch.setattr(kernels, "compact_round_range", failing)
        session = Session(graph, store=ArtifactStore(tmp_path / "store"))
        with pytest.raises(RuntimeError, match="injected round failure"):
            session.coreness(rounds=4)
        assert closed == [0]  # row 0 was published, then round 1 failed
        monkeypatch.setattr(kernels, "compact_round_range", real)
        result = session.coreness(rounds=4)
        assert result.values == Session(graph).coreness(rounds=4).values
        assert published_rounds(session.store.root, session.fingerprint,
                                0.0) == 4

    def test_restart_resumes_bit_identically_from_the_traj(
            self, graph, tmp_path, spill_everything):
        store = ArtifactStore(tmp_path / "store")
        first = Session(graph, engine="sharded:shards=4", store=store)
        warmed = first.coreness(rounds=6)
        restarted = Session(graph, engine="sharded:shards=4", store=store)
        again = restarted.coreness(rounds=6)
        assert restarted.stats.disk_hits == 1
        assert again.values == warmed.values
        # Extending past the stored prefix appends, bit-identically.
        reference = get_engine("vectorized").run(graph, 9, track_kept=False)
        extended = restarted.coreness(rounds=9)
        assert np.array_equal(extended.surviving.trajectory,
                              reference.trajectory)

    def test_torn_traj_resumes_from_the_surviving_prefix(
            self, graph, tmp_path, spill_everything):
        store = ArtifactStore(tmp_path / "store")
        session = Session(graph, engine="sharded:shards=4", store=store)
        session.coreness(rounds=8)
        reference = get_engine("vectorized").run(graph, 8, track_kept=False)
        path = rows_path(store.root, session.fingerprint, 0.0)
        with open(path, "r+b") as handle:
            handle.truncate(4 * graph.num_nodes * 8 + 9)
        restarted = Session(graph, engine="sharded:shards=4", store=store)
        result = restarted.coreness(rounds=8)
        assert np.array_equal(result.surviving.trajectory,
                              reference.trajectory)

    def test_a_child_whose_traj_is_published_runs_no_round(
            self, graph, tmp_path, spill_everything):
        """A second session of the same child version finds the first one's
        ``.traj`` rows in the store: they are its trajectory, and no
        frontier or full round runs."""
        from repro.graph.delta import GraphDelta
        from repro.obs import trace as obs_trace

        parent = Session(graph, engine="sharded:3",
                         store=ArtifactStore(tmp_path / "store"))
        parent.coreness(rounds=6)
        delta = GraphDelta(add_edges=[(0, 119, 1.0)])
        first = parent.apply_delta(delta, max_frontier_fraction=1.0)
        expected = first.coreness(rounds=6).surviving.trajectory
        again = parent.apply_delta(delta, max_frontier_fraction=1.0)
        tracer = obs_trace.enable()
        try:
            trajectory = again.coreness(rounds=6).surviving.trajectory
            names = {record["name"] for record in tracer.spans()}
        finally:
            obs_trace.disable()
        assert not names & {"kernel.round_range", "kernel.frontier_round"}
        assert _maps_own_traj(trajectory, again)
        assert trajectory.tobytes() == expected.tobytes()
        stats = again.stats
        assert stats.disk_hits == 1
        assert (stats.cold_runs, stats.incremental_fallbacks,
                stats.incremental_runs, stats.rounds_executed) == (0, 0, 0, 0)

    def test_purge_removes_the_spilled_session_artifacts(
            self, graph, tmp_path, spill_everything):
        store = ArtifactStore(tmp_path / "store")
        session = Session(graph, engine="sharded:shards=4", store=store)
        session.coreness(rounds=4)
        assert store.purge() >= 3  # graph.json + header.json + rows.bin
        assert store.fingerprints() == ()
        assert not store.graph_dir(session.fingerprint).exists()
