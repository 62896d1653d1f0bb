"""Tests for the CLI's engine surfaces: --engine, `engines`, `problems`, `batch`."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.core.api import approximate_densest_subsets, approximate_orientation
from repro.graph.generators.structured import complete_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def k6_file(tmp_path):
    path = tmp_path / "k6.edges"
    write_edge_list(complete_graph(6), path)
    return path


class TestEngineFlag:
    @pytest.mark.parametrize("engine", ["vectorized", "faithful", "sharded:2"])
    def test_coreness_with_engine(self, k6_file, engine):
        out = io.StringIO()
        code = main(["coreness", "--input", str(k6_file), "--rounds", "3",
                     "--engine", engine, "--top", "3"], out=out)
        assert code == 0
        assert "5" in out.getvalue()

    def test_orientation_with_engine(self, k6_file):
        out = io.StringIO()
        code = main(["orientation", "--input", str(k6_file), "--rounds", "3",
                     "--engine", "sharded:3"], out=out)
        assert code == 0
        assert "max weighted in-degree" in out.getvalue()

    def test_unknown_engine_is_reported(self, k6_file):
        code = main(["coreness", "--input", str(k6_file), "--rounds", "2",
                     "--engine", "quantum"], out=io.StringIO())
        assert code == 2

    def test_engine_spec_options_run_threaded_shards(self, k6_file):
        baseline, threaded = io.StringIO(), io.StringIO()
        assert main(["coreness", "--input", str(k6_file), "--rounds", "3",
                     "--engine", "sharded:2", "--top", "3"], out=baseline) == 0
        assert main(["coreness", "--input", str(k6_file), "--rounds", "3",
                     "--engine", "sharded:shards=2,workers=2", "--top", "3"],
                    out=threaded) == 0
        assert threaded.getvalue() == baseline.getvalue()

    @pytest.mark.parametrize("command", ["coreness", "orientation", "batch"])
    @pytest.mark.parametrize("flag", [["--workers", "2"],
                                      ["--trajectory-storage", "mmap"]],
                             ids=["workers", "trajectory-storage"])
    def test_engine_option_flags_are_rejected(self, k6_file, capsys, command,
                                              flag):
        # Engine options are spelled only in the --engine spec
        # ('sharded:shards=4,workers=2'); where a trajectory lives is the
        # session's choice, not an engine option.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--input", str(k6_file), "--rounds", "2",
                  "--engine", "sharded:2", *flag], out=io.StringIO())
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_parallel_flag_is_rejected(self, k6_file, capsys):
        # Threads are selected by the spec's workers= alone; there is no
        # mode flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["coreness", "--input", str(k6_file), "--rounds", "2",
                  "--engine", "sharded:shards=2,workers=2",
                  "--parallel", "thread"], out=io.StringIO())
        assert excinfo.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_storage_flag_is_rejected(self, k6_file, capsys):
        # The CSR arrays always live in memory; only the trajectory spills.
        with pytest.raises(SystemExit) as excinfo:
            main(["coreness", "--input", str(k6_file), "--rounds", "2",
                  "--engine", "sharded:2", "--storage", "mmap"],
                 out=io.StringIO())
        assert excinfo.value.code == 2
        assert "--storage" in capsys.readouterr().err

    def test_non_finite_lambda_is_reported_cleanly(self, k6_file):
        code = main(["coreness", "--input", str(k6_file), "--rounds", "2",
                     "--lam", "nan"], out=io.StringIO())
        assert code == 2


class TestEnginesCommand:
    def test_lists_all_engines(self):
        out = io.StringIO()
        assert main(["engines"], out=out) == 0
        text = out.getvalue()
        for name in ("faithful", "vectorized", "sharded"):
            assert name in text


class TestBatchCommand:
    def test_batch_over_datasets(self):
        out = io.StringIO()
        code = main(["batch", "--dataset", "caveman", "--epsilon", "1.0",
                     "--rounds", "3", "--engine", "sharded:2"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "jobs=2" in text
        assert "caveman;eps=1" in text
        assert "caveman;T=3" in text

    def test_batch_over_files_with_lambda_sweep(self, k6_file, tmp_path):
        target = tmp_path / "stats.tsv"
        out = io.StringIO()
        code = main(["batch", "--input", str(k6_file), "--rounds", "2",
                     "--lam", "0.0", "--lam", "0.5", "--output", str(target)], out=out)
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 jobs
        assert lines[0].startswith("job\tengine")

    def test_batch_keeps_same_named_files_from_different_dirs(self, tmp_path):
        """Regression: inputs are keyed by full path, not basename."""
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            write_edge_list(complete_graph(4), d / "g.edges")
        out = io.StringIO()
        code = main(["batch", "--input", str(tmp_path / "one" / "g.edges"),
                     "--input", str(tmp_path / "two" / "g.edges"), "--rounds", "2"],
                    out=out)
        assert code == 0
        assert "jobs=2" in out.getvalue()

    def test_batch_without_graphs_is_an_error(self):
        code = main(["batch", "--epsilon", "1.0"], out=io.StringIO())
        assert code == 2

    def test_batch_without_budget_is_an_error(self):
        code = main(["batch", "--dataset", "caveman"], out=io.StringIO())
        assert code == 2


class TestProblemsCommand:
    def test_lists_all_problems(self):
        out = io.StringIO()
        assert main(["problems"], out=out) == 0
        text = out.getvalue()
        for name in ("coreness", "orientation", "densest"):
            assert name in text


class TestBatchProblemSelection:
    def test_orientation_problem_with_json_file(self, k6_file, tmp_path):
        target = tmp_path / "results.json"
        out = io.StringIO()
        code = main(["batch", "--input", str(k6_file), "--rounds", "3",
                     "--problem", "orientation", "--json", str(target)], out=out)
        assert code == 0
        assert "problem=orientation" in out.getvalue()
        payload = json.loads(target.read_text())
        assert len(payload) == 1
        direct = approximate_orientation(complete_graph(6), rounds=3)
        assert payload[0]["problem"] == "orientation"
        assert payload[0]["objective"] == direct.max_in_weight
        assert payload[0]["result"]["max_in_weight"] == direct.max_in_weight
        assert len(payload[0]["result"]["assignment"]) == 15

    def test_densest_problem_with_json_to_stdout(self, k6_file):
        out = io.StringIO()
        code = main(["batch", "--input", str(k6_file), "--rounds", "3",
                     "--problem", "densest", "--json", "-"], out=out)
        assert code == 0
        # `--json -` keeps stdout pure JSON (no table/header interleaved)
        payload = json.loads(out.getvalue())
        direct = approximate_densest_subsets(complete_graph(6), rounds=3)
        assert payload[0]["objective"] == pytest.approx(direct.best_density)
        assert payload[0]["result"]["subsets_disjoint"] is True

    def test_coreness_json_round_trips(self, k6_file, tmp_path):
        target = tmp_path / "core.json"
        code = main(["batch", "--input", str(k6_file), "--rounds", "2",
                     "--json", str(target)], out=io.StringIO())
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload[0]["result"]["max_value"] == 5.0
        assert sorted(v for _, v in payload[0]["result"]["values"]) == [5.0] * 6

    def test_lambda_sweep_rejected_for_orientation(self, k6_file):
        code = main(["batch", "--input", str(k6_file), "--rounds", "2",
                     "--problem", "orientation", "--lam", "0.5"],
                    out=io.StringIO())
        assert code == 2

    def test_explicit_lambda_zero_accepted_for_orientation(self, k6_file):
        # λ=0 is Λ = R — exactly what orientation runs with; only non-zero
        # grids are rejected.
        code = main(["batch", "--input", str(k6_file), "--rounds", "2",
                     "--problem", "orientation", "--lam", "0"],
                    out=io.StringIO())
        assert code == 0

    def test_unknown_problem_rejected_by_argparse(self, k6_file):
        with pytest.raises(SystemExit):
            main(["batch", "--input", str(k6_file), "--rounds", "2",
                  "--problem", "sorting"], out=io.StringIO())

    def test_objective_column_in_table(self, k6_file):
        out = io.StringIO()
        code = main(["batch", "--input", str(k6_file), "--rounds", "2"], out=out)
        assert code == 0
        assert "objective" in out.getvalue()
