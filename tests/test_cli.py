"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import io

import pytest

from repro.cli import main
from repro.graph.generators.structured import complete_graph
from repro.graph.io import write_edge_list


@pytest.fixture
def k6_file(tmp_path):
    path = tmp_path / "k6.edges"
    write_edge_list(complete_graph(6), path)
    return path


class TestCorenessCommand:
    def test_on_edge_list_file(self, k6_file):
        out = io.StringIO()
        code = main(["coreness", "--input", str(k6_file), "--rounds", "3", "--top", "3"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "rounds=3" in text
        assert "approx coreness" in text
        assert "5" in text   # every K6 node has value 5

    def test_on_bundled_dataset(self):
        out = io.StringIO()
        code = main(["coreness", "--dataset", "caveman", "--epsilon", "1.0", "--top", "5"], out=out)
        assert code == 0
        assert "guarantee" in out.getvalue()

    def test_tsv_output(self, k6_file, tmp_path):
        target = tmp_path / "values.tsv"
        out = io.StringIO()
        code = main(["coreness", "--input", str(k6_file), "--rounds", "2",
                     "--output", str(target)], out=out)
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 6
        assert all(line.split("\t")[1] == "5" for line in lines)

    def test_lambda_flag(self, k6_file):
        out = io.StringIO()
        code = main(["coreness", "--input", str(k6_file), "--rounds", "2", "--lam", "0.5"], out=out)
        assert code == 0

    def test_missing_file_is_reported(self, tmp_path):
        code = main(["coreness", "--input", str(tmp_path / "nope.edges"), "--rounds", "2"],
                    out=io.StringIO())
        assert code == 2

    def test_negative_top_is_rejected(self, k6_file, capsys):
        # --top -1 used to print every row but the last.
        out = io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            main(["coreness", "--input", str(k6_file), "--rounds", "2",
                  "--top", "-1"], out=out)
        assert excinfo.value.code == 2
        assert "--top" in capsys.readouterr().err
        assert out.getvalue() == ""


class TestOrientationCommand:
    def test_reports_objective(self, k6_file):
        out = io.StringIO()
        code = main(["orientation", "--input", str(k6_file), "--epsilon", "0.5"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "max weighted in-degree" in text
        assert "uncovered edges: 0" in text

    def test_assignment_output_file(self, k6_file, tmp_path):
        target = tmp_path / "orientation.tsv"
        code = main(["orientation", "--input", str(k6_file), "--rounds", "3",
                     "--output", str(target)], out=io.StringIO())
        assert code == 0
        assert len(target.read_text().strip().splitlines()) == 15


class TestDensestCommand:
    def test_reports_subsets(self, k6_file):
        out = io.StringIO()
        code = main(["densest", "--input", str(k6_file), "--epsilon", "1.0"], out=out)
        text = out.getvalue()
        assert code == 0
        assert "true density" in text
        assert "2.5" in text

    def test_node_assignment_file(self, k6_file, tmp_path):
        target = tmp_path / "assignment.tsv"
        code = main(["densest", "--input", str(k6_file), "--epsilon", "1.0",
                     "--output", str(target)], out=io.StringIO())
        assert code == 0
        assert len(target.read_text().strip().splitlines()) == 6


class TestDatasetsCommandAndParsing:
    def test_datasets_listing(self):
        out = io.StringIO()
        assert main(["datasets"], out=out) == 0
        text = out.getvalue()
        assert "collab-small" in text and "road-grid" in text

    def test_requires_budget_argument(self, k6_file):
        with pytest.raises(SystemExit):
            main(["coreness", "--input", str(k6_file)])

    def test_requires_graph_source(self):
        with pytest.raises(SystemExit):
            main(["coreness", "--rounds", "3"])

    def test_input_and_dataset_are_exclusive(self, k6_file):
        with pytest.raises(SystemExit):
            main(["coreness", "--input", str(k6_file), "--dataset", "caveman",
                  "--rounds", "2"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
