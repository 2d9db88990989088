"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import load_embeddings


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_embed_defaults(self):
        args = build_parser().parse_args(["embed"])
        assert args.dataset == "LJ"
        assert args.method == "distger"
        assert args.machines == 4

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["embed", "--method", "gcn"])

    @pytest.mark.parametrize("argv", [
        ["embed", "--walk-backend", "loop"],
        ["evaluate", "--partition-backend", "loop"],
        ["partition", "--backend", "loop"],
        ["embed", "--train-backend", "loop"],
    ])
    def test_removed_backend_flags_are_argparse_errors(self, argv):
        """One engine per phase: only --train-backend {auto,torch}
        remains."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_edges_overrides_dataset(self):
        args = build_parser().parse_args(
            ["embed", "--dataset", "LJ", "--edges", "x.txt"]
        )
        assert args.edges == "x.txt"  # _load_graph prefers the file


class TestCommands:
    def test_embed_writes_output(self, tmp_path, capsys):
        out = str(tmp_path / "emb.txt")
        code = main([
            "embed", "--dataset", "FL", "--scale", "0.2",
            "--method", "distger", "--dim", "8", "--epochs", "1",
            "--machines", "2", "--out", out,
        ])
        assert code == 0
        emb = load_embeddings(out)
        assert emb.shape[1] == 8
        assert np.all(np.isfinite(emb))
        assert "walker messages" in capsys.readouterr().out

    def test_embed_saves_corpus(self, tmp_path, capsys):
        from repro.walks import Corpus

        out = str(tmp_path / "walks.npz")
        code = main([
            "embed", "--dataset", "FL", "--scale", "0.2",
            "--method", "distger", "--dim", "8", "--epochs", "1",
            "--machines", "2", "--save-corpus", out,
        ])
        assert code == 0
        assert "walk corpus" in capsys.readouterr().out
        corpus = Corpus.load(out)
        assert corpus.num_walks > 0
        # Flat invariants survive the round trip.
        assert corpus.offsets[-1] == corpus.tokens.size

    def test_save_corpus_rejected_for_corpusless_methods(self, capsys):
        """The check runs before the embedding, so a long run is never
        wasted on a flag that cannot be honoured."""
        code = main([
            "embed", "--dataset", "FL", "--scale", "0.2",
            "--method", "pbg", "--dim", "8", "--epochs", "1",
            "--machines", "2", "--save-corpus", "/tmp/never.npz",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "no walk corpus" in captured.err
        assert "Embedding" not in captured.out  # failed fast, no run

    def test_embed_from_edge_list(self, tmp_path, capsys):
        edge_file = tmp_path / "g.txt"
        rng = np.random.default_rng(0)
        lines = set()
        for _ in range(200):
            u, v = rng.integers(0, 40, size=2)
            if u != v:
                lines.add(f"{min(u, v)} {max(u, v)}")
        edge_file.write_text("\n".join(sorted(lines)) + "\n")
        code = main([
            "embed", "--edges", str(edge_file), "--method", "knightking",
            "--dim", "8", "--epochs", "1", "--machines", "2",
        ])
        assert code == 0

    def test_evaluate_prints_auc(self, capsys):
        code = main([
            "evaluate", "--dataset", "FL", "--scale", "0.25",
            "--method", "distger", "--dim", "8", "--epochs", "1",
            "--machines", "2", "--trials", "1",
        ])
        assert code == 0
        assert "AUC" in capsys.readouterr().out

    def test_embed_execution_flags_write_the_serial_bytes(self, tmp_path,
                                                          capsys):
        """The four execution flags build one context: worker pools and
        file-backed blocks change where the work runs, not one byte of
        the embedding file."""
        base = ["embed", "--dataset", "FL", "--scale", "0.2", "--method",
                "distger", "--dim", "8", "--epochs", "1", "--machines", "2"]
        serial, pooled = tmp_path / "serial.emb", tmp_path / "pooled.emb"
        assert main(base + ["--execution", "serial", "--backing", "shm",
                            "--out", str(serial)]) == 0
        assert main(base + ["--execution", "process", "--workers", "2",
                            "--backing", "mmap", "--spill-dir",
                            str(tmp_path / "spill"), "--out",
                            str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_partition_parallel_mpgp_on_workers(self, capsys):
        """``--execution``/``--workers`` reach parallel MPGP; its cut and
        balance columns match the serial run."""
        rows = {}
        for flags in ([], ["--execution", "process", "--workers", "2"]):
            code = main(["partition", "--dataset", "FL", "--scale", "0.25",
                         "--machines", "2", "--schemes", "mpgp-parallel",
                         *flags])
            assert code == 0
            row = capsys.readouterr().out.splitlines()[-1].split()
            assert row[0] == "mpgp-parallel"
            rows[bool(flags)] = row[2:]  # drop the seconds column
        assert rows[True] == rows[False]

    def test_partition_table(self, capsys):
        code = main([
            "partition", "--dataset", "FL", "--scale", "0.25",
            "--machines", "2", "--schemes", "hash", "mpgp",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mpgp" in out
        assert "hash" in out

    def test_update_requires_one_stream_source(self, capsys):
        code = main(["update", "--dataset", "FL", "--scale", "0.2"])
        assert code == 2
        assert "--stream" in capsys.readouterr().err
        code = main(["update", "--dataset", "FL", "--scale", "0.2",
                     "--churn", "0.01", "--stream", "x.txt"])
        assert code == 2

    def test_update_with_random_churn(self, tmp_path, capsys):
        out = str(tmp_path / "upd.emb")
        code = main([
            "update", "--dataset", "FL", "--scale", "0.2",
            "--method", "distger", "--dim", "8", "--epochs", "1",
            "--machines", "2", "--churn", "0.02", "--audit", "arc",
            "--out", out,
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "walks resampled" in text
        assert "speedup vs full recompute" in text
        matrix = load_embeddings(out)
        assert matrix.shape[1] == 8
        assert np.isfinite(matrix).all()

    def test_update_from_stream_file(self, tmp_path, capsys):
        stream = tmp_path / "edits.txt"
        stream.write_text("- 0 1\n+ 2 40\n")
        code = main([
            "update", "--dataset", "FL", "--scale", "0.2",
            "--method", "distger", "--dim", "8", "--epochs", "1",
            "--machines", "2", "--stream", str(stream),
        ])
        assert code == 0
        assert "1 insertions + 1 deletions" in capsys.readouterr().out


class TestServe:
    @pytest.fixture
    def saved_embeddings(self, tmp_path):
        rng = np.random.default_rng(6)
        matrix = rng.integers(-2, 3, size=(30, 8)).astype(np.float32)
        path = tmp_path / "emb.npy"
        np.save(path, matrix)
        return str(path), matrix

    def test_serve_requires_a_query_mode(self, saved_embeddings, capsys):
        path, _ = saved_embeddings
        code = main(["serve", "--embeddings", path])
        assert code == 2
        assert "--nodes" in capsys.readouterr().err

    def test_serve_answers_node_queries(self, saved_embeddings, capsys):
        path, matrix = saved_embeddings
        code = main(["serve", "--embeddings", path,
                     "--nodes", "0,3", "--k", "4", "--metric", "dot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving 30 x 8 embeddings" in out
        # Answers match the library path byte-for-byte.
        from repro.serving import BatchTopKScorer

        want = BatchTopKScorer(matrix).top_k(
            np.array([0, 3]), k=4, metric="dot").as_lists()
        for row, expected in zip(out.strip().splitlines()[1:], want):
            for node_id, _ in expected:
                assert f"{node_id}:" in row

    def test_serve_rejects_out_of_range_node(self, saved_embeddings,
                                             capsys):
        path, _ = saved_embeddings
        code = main(["serve", "--embeddings", path, "--nodes", "999"])
        assert code == 2
        assert "outside" in capsys.readouterr().err

    def test_serve_replays_trace_with_workers(self, saved_embeddings,
                                              capsys):
        path, _ = saved_embeddings
        code = main(["serve", "--embeddings", path, "--trace", "200",
                     "--batch", "32", "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed 200 queries" in out
        assert "queries/s" in out
        assert "p99" in out

    def test_serve_word2vec_text_in_process_trace(self, tmp_path,
                                                  capsys):
        from repro.graph.io import save_embeddings

        rng = np.random.default_rng(2)
        path = tmp_path / "vectors.emb"
        save_embeddings(str(path), rng.standard_normal((12, 4)))
        code = main(["serve", "--embeddings", str(path), "--trace", "50",
                     "--batch", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "in-process" in out
        assert "replayed 50 queries" in out
