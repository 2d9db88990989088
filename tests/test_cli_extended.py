"""Tests for the cluster / similar / stats CLI subcommands."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import save_embeddings


class TestParserExtensions:
    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.k == 5
        assert args.method == "distger"

    def test_similar_requires_node(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["similar"])

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats", "--dataset", "TW"])
        assert args.dataset == "TW"

    @pytest.mark.parametrize("kernel", ("deepwalk", "node2vec", "huge",
                                        "huge+"))
    def test_every_kernel_accepted(self, kernel):
        args = build_parser().parse_args(["embed", "--kernel", kernel])
        assert args.kernel == kernel

    def test_removed_alias_kernel_refused(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["embed", "--kernel", "node2vec-alias"])
        assert "invalid choice: 'node2vec-alias'" in capsys.readouterr().err


class TestClusterCommand:
    def test_reports_nmi_on_labelled_dataset(self, capsys):
        code = main([
            "cluster", "--dataset", "FL", "--scale", "0.2",
            "--dim", "16", "--epochs", "1", "--machines", "2", "--k", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "modularity" in out
        assert "NMI" in out  # FL stand-in carries planted communities

    def test_edge_list_has_no_ground_truth(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        rng = np.random.default_rng(0)
        edges = {(int(a), int(b))
                 for a, b in rng.integers(0, 30, size=(200, 2)) if a != b}
        edge_file.write_text(
            "\n".join(f"{a} {b}" for a, b in sorted(edges)))
        code = main([
            "cluster", "--edges", str(edge_file), "--dim", "8",
            "--epochs", "1", "--machines", "2", "--k", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "modularity" in out
        assert "NMI" not in out


class TestSimilarCommand:
    def test_lists_neighbours(self, capsys):
        code = main([
            "similar", "--dataset", "FL", "--scale", "0.2",
            "--dim", "16", "--epochs", "1", "--machines", "2",
            "--node", "0", "--k", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "top-5" in out
        assert len([l for l in out.splitlines() if l.startswith("  ")]) == 5

    def test_reuses_saved_embeddings(self, tmp_path, capsys):
        emb = np.random.default_rng(0).normal(size=(50, 4))
        path = str(tmp_path / "e.txt")
        save_embeddings(path, emb)
        code = main([
            "similar", "--dataset", "FL", "--scale", "0.1",
            "--node", "1", "--k", "3", "--embeddings", path,
        ])
        assert code == 0
        assert "top-3" in capsys.readouterr().out

    def test_node_out_of_range(self, capsys):
        code = main([
            "similar", "--dataset", "FL", "--scale", "0.1",
            "--node", "999999", "--k", "3",
        ])
        assert code == 2
        assert "outside" in capsys.readouterr().err


class TestStatsCommand:
    def test_prints_statistics(self, capsys):
        code = main(["stats", "--dataset", "YT", "--scale", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        for field in ("nodes", "edges", "average degree", "degree gini",
                      "approx. diameter", "clustering coeff"):
            assert field in out

    def test_edge_list_stats(self, tmp_path, capsys):
        edge_file = tmp_path / "tri.txt"
        edge_file.write_text("0 1\n1 2\n0 2\n")
        code = main(["stats", "--edges", str(edge_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "nodes" in out and "3" in out
