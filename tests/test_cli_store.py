"""CLI surfaces of the persistent store: ``repro cache ls|info|purge`` and
``repro batch --store``."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.graph.generators.structured import complete_graph
from repro.graph.io import write_edge_list
from repro.store import ArtifactStore


@pytest.fixture
def k6_file(tmp_path):
    path = tmp_path / "k6.edges"
    write_edge_list(complete_graph(6), path)
    return path


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestBatchStoreFlag:
    def test_second_run_is_served_from_disk(self, tmp_path, k6_file):
        store_dir = tmp_path / "store"
        argv = ["batch", "--input", str(k6_file), "--rounds", "4",
                "--store", str(store_dir)]
        code, first = _run(argv)
        assert code == 0
        assert "disk_writes=1" in first
        code, second = _run(argv)
        assert code == 0
        assert "disk_hits=1" in second
        assert "disk_writes=0" in second

    def test_disk_served_json_matches_a_storeless_run(self, tmp_path, k6_file):
        store_dir = tmp_path / "store"
        base = ["batch", "--input", str(k6_file), "--rounds", "3",
                "--rounds", "5", "--json", "-"]
        code, storeless = _run(base)
        assert code == 0
        for _ in range(2):   # the first run writes the store, the second reads it
            code, stored = _run(base + ["--store", str(store_dir)])
            assert code == 0
        assert ArtifactStore(store_dir).info()["files"] > 0

        def stable(text):  # everything but the wall-clock must be identical
            return [{k: v for k, v in row.items() if k != "seconds"}
                    for row in json.loads(text)]

        assert stable(stored) == stable(storeless)

    @pytest.mark.parametrize("flag", [["--async"], ["--serve-workers", "3"]],
                             ids=["async", "serve-workers"])
    def test_async_flags_are_rejected(self, k6_file, capsys, flag):
        # A batch always runs in order on one BatchRunner; the async path
        # is the JobQueue behind repro serve.
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--input", str(k6_file), "--rounds", "4", *flag],
                 out=io.StringIO())
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestCacheCommand:
    def _populate(self, tmp_path, k6_file):
        store_dir = tmp_path / "store"
        code, _ = _run(["batch", "--input", str(k6_file), "--rounds", "4",
                        "--store", str(store_dir)])
        assert code == 0
        return store_dir

    def test_ls_lists_graphs(self, tmp_path, k6_file):
        store_dir = self._populate(tmp_path, k6_file)
        code, text = _run(["cache", "ls", "--store", str(store_dir)])
        assert code == 0
        assert "trajectory" in text
        assert "graphs=1" in text

    def test_ls_empty_store(self, tmp_path):
        code, text = _run(["cache", "ls", "--store", str(tmp_path / "empty")])
        assert code == 0
        assert "(store is empty)" in text

    def test_info_reports_totals(self, tmp_path, k6_file):
        store_dir = self._populate(tmp_path, k6_file)
        code, text = _run(["cache", "info", "--store", str(store_dir)])
        assert code == 0
        assert "files=3" in text   # header.json + rows.bin + graph.json

    def test_purge_empties_the_store(self, tmp_path, k6_file):
        store_dir = self._populate(tmp_path, k6_file)
        code, text = _run(["cache", "purge", "--store", str(store_dir)])
        assert code == 0
        assert "purged 3 file(s)" in text
        code, text = _run(["cache", "ls", "--store", str(store_dir)])
        assert "(store is empty)" in text

    def test_purge_single_fingerprint(self, tmp_path, k6_file):
        store_dir = self._populate(tmp_path, k6_file)
        fingerprint = ArtifactStore(store_dir).fingerprints()[0]
        code, text = _run(["cache", "purge", "--store", str(store_dir),
                           "--fingerprint", fingerprint])
        assert code == 0
        assert "purged 3 file(s)" in text

    def test_bad_fingerprint_is_reported_as_error(self, tmp_path, k6_file):
        store_dir = self._populate(tmp_path, k6_file)
        code, _ = _run(["cache", "purge", "--store", str(store_dir),
                        "--fingerprint", "NOT-HEX"])
        assert code == 2
