import argparse
import hashlib
import json
import logging
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import flowrag.embed as embed_module
import flowrag.ged as ged_module
from flowrag.cli import build_parser, main
from flowrag.ged import GED_REPORT_COLUMNS
from flowrag.graph_model import (
    FlowGraph,
    GraphIntegrityError,
    parse_json,
    read_graphs_jsonl,
    serialize_json,
)
from flowrag.jsonio import shown
from flowrag.synthgen import read_qa_jsonl

from helpers import NEEDS_FORK, StubEmbedServer, disjoint_corpus


def write_corpus(tmp_path, count=4):
    from flowrag.graph_model import write_graphs_jsonl
    from flowrag.synthgen import write_qa_jsonl

    graphs, qa = disjoint_corpus(count)
    graphs_path = tmp_path / "graphs.jsonl"
    qa_path = tmp_path / "qa.jsonl"
    write_graphs_jsonl(graphs, graphs_path)
    write_qa_jsonl(qa, qa_path)
    return graphs, graphs_path, qa_path


def abort_eval(tmp_path, monkeypatch):
    """An eval whose remote embedder fails from its third request on, so it
    aborts and leaves a partial report; returns its out-dir."""
    monkeypatch.setattr(embed_module, "_BACKOFF_BASE_S", 0.001)
    _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
    out_dir = tmp_path / "out"
    with StubEmbedServer(dimension=8, status_plan=[200, 200, 500, 500, 500]) as server:
        config_path = tmp_path / "eval.json"
        config_path.write_text(
            json.dumps(
                {
                    "provider": {
                        "kind": "remote",
                        "endpoint": server.endpoint,
                        "model_name": "m",
                        "batch_size": 1000,
                    },
                    "strategies": ["per-node", "full-json"],
                    "ks": [1],
                }
            )
        )
        code = main(
            [
                "eval",
                "--graphs", str(graphs_path),
                "--qa", str(qa_path),
                "--config", str(config_path),
                "--out-dir", str(out_dir),
            ]
        )
    assert code == 1
    return out_dir


# One JSON value nested far deeper than the interpreter's recursion limit.
DEEP = "[" * 200_000 + "]" * 200_000 + "\n"

# A bad value far longer than any error line should be.
LONG = "x" * 100_000


def local_provider_file(tmp_path, dimension=64):
    path = tmp_path / "provider.json"
    path.write_text(json.dumps({"kind": "local-hashed", "dimension": dimension}))
    return path


class TestGen:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["gen", "--count", "50", "--out", str(out), "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["splits"] == {"train": 32, "validation": 8, "test": 10}
        for name, expected in (
            ("graphs.train.jsonl", 32),
            ("graphs.val.jsonl", 8),
            ("graphs.test.jsonl", 10),
        ):
            assert len(read_graphs_jsonl(out / name)) == expected
        qa = read_qa_jsonl(out / "qa.jsonl")
        test_ids = {g.graph_id for g in read_graphs_jsonl(out / "graphs.test.jsonl")}
        assert qa
        assert {item.graph_id for item in qa} <= test_ids

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--count", "30", "--out", str(a), "--seed", "9"]) == 0
        assert main(["gen", "--count", "30", "--out", str(b), "--seed", "9"]) == 0
        for name in (
            "graphs.train.jsonl",
            "graphs.val.jsonl",
            "graphs.test.jsonl",
            "qa.jsonl",
            "manifest.json",
        ):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_qa_bytes_pinned(self, tmp_path):
        # Pin of unchanged output: the QA items built from the test split.
        out = tmp_path / "corpus"
        assert main(["gen", "--count", "50", "--out", str(out), "--seed", "3"]) == 0
        assert hashlib.sha256((out / "qa.jsonl").read_bytes()).hexdigest() == (
            "0cbba3e64c71857d52296d4db6f087f9f9e30ef36839e3f903acc4d362f1603d"
        )

    def test_spec_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"node_count_range": [2, 3], "seed": 5}))
        out = tmp_path / "corpus"
        assert main(["gen", "--count", "10", "--spec", str(spec_path), "--out", str(out)]) == 0
        for graph in read_graphs_jsonl(out / "graphs.train.jsonl"):
            assert 2 <= len(graph.nodes) <= 3

    def test_bad_split_is_data_error(self, tmp_path, capsys):
        code = main(["gen", "--count", "10", "--split", "1/1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_qa_per_graph_below_one_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        out.mkdir()
        code = main(["gen", "--count", "10", "--qa-per-graph", "0", "--out", str(out)])
        assert code == 1
        assert "error: --qa-per-graph must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_empty_vocabulary_writes_nothing(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"vocabulary": []}))
        out = tmp_path / "corpus"
        out.mkdir()
        code = main(["gen", "--count", "10", "--spec", str(spec_path), "--out", str(out)])
        assert code == 1
        assert "error: vocabulary must not be empty" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_zero_count_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen", "--count", "0", "--out", str(out)]) == 1
        assert "error: count must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestParseRender:
    def test_round_trip_through_files(self, tmp_path):
        mmd = tmp_path / "chart.mmd"
        mmd.write_text("flowchart TD\nA[Start] --> B{OK?}\nB -->|Yes| C[Done]\n")
        graph_path = tmp_path / "graph.json"
        assert main(["parse", "--mermaid", str(mmd), "--out", str(graph_path)]) == 0
        graph = parse_json(graph_path.read_bytes())
        assert len(graph.nodes) == 3
        rendered = tmp_path / "out.mmd"
        assert main(
            ["render", "--graph", str(graph_path), "--direction", "LR", "--out", str(rendered)]
        ) == 0
        assert rendered.read_text().startswith("flowchart LR\n")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        mmd = tmp_path / "bad.mmd"
        mmd.write_text("flowchart TD\nsubgraph S\n")
        assert main(["parse", "--mermaid", str(mmd)]) == 1
        assert "unsupported" in capsys.readouterr().err

    def test_parse_to_stdout(self, tmp_path, capsys):
        mmd = tmp_path / "chart.mmd"
        mmd.write_text("flowchart TD\nA[Start]\n")
        assert main(["parse", "--mermaid", str(mmd)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nodes"][0]["id"] == "A"

    def test_render_to_stdout(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        graph_path.write_text('{"nodes":[{"id":"A","value":"Start"}],"edges":[]}')
        assert main(["render", "--graph", str(graph_path)]) == 0
        assert capsys.readouterr().out.startswith("flowchart TD\n")


class TestGed:
    def test_wiring_and_report(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path)
        preds_path = tmp_path / "preds.jsonl"
        with open(preds_path, "w") as fh:
            for graph in graphs:
                record = {
                    "graph_id": graph.graph_id,
                    "predicted": json.loads(serialize_json(graph)),
                }
                fh.write(json.dumps(record) + "\n")
        report_path = tmp_path / "out.md"
        code = main(
            ["ged", "--pred", str(preds_path), "--truth", str(graphs_path), "--report", str(report_path)]
        )
        assert code == 0
        text = report_path.read_text()
        for column in GED_REPORT_COLUMNS:
            assert column in text

    def test_blank_prediction_lines_skipped(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=2)
        records = [
            json.dumps({"graph_id": g.graph_id, "predicted": json.loads(serialize_json(g))})
            for g in graphs
        ]
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("\n" + "\n  \n".join(records) + "\n\n")
        report_path = tmp_path / "out.csv"
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(report_path)]) == 0
        err = capsys.readouterr().err
        assert "warning:" not in err
        assert "average edit distance 0.00" in err

    def test_unparseable_and_missing_predictions(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=3)
        preds_path = tmp_path / "preds.jsonl"
        lines = [
            json.dumps({"graph_id": graphs[0].graph_id, "predicted": {"nodes": [], "edges": []}}),
            "this is not json",
        ]
        preds_path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "out.csv"
        code = main(
            ["ged", "--pred", str(preds_path), "--truth", str(graphs_path), "--report", str(report_path)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "no prediction for" in err
        rows = report_path.read_text().splitlines()
        assert rows[0].startswith("Model,")

    def test_deeply_nested_prediction_is_unreadable(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        good = {"graph_id": graphs[0].graph_id, "predicted": json.loads(serialize_json(graphs[0]))}
        preds_path.write_text(json.dumps(good) + "\n" + DEEP)
        report_path = tmp_path / "out.md"
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(report_path)]) == 0
        err = capsys.readouterr().err
        assert (
            f"warning: 1 prediction lines are unreadable (first: {preds_path}:2: "
            f"unreadable prediction: value nested too deep"
        ) in err
        assert "Traceback" not in err

    def test_repeated_and_unknown_ids_warn_once(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=3)

        def record(graph_id, graph):
            return json.dumps(
                {"graph_id": graph_id, "predicted": json.loads(serialize_json(graph))}
            )

        empty = FlowGraph()
        lines = [record(g.graph_id, g) for g in graphs]
        # Two repeats of the first graph, the last one empty: the last wins.
        lines += [record(graphs[0].graph_id, graphs[0]), record(graphs[0].graph_id, empty)]
        lines += [record(f"stray{i}", graphs[1]) for i in range(7)]
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "out.csv"
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(report_path)]) == 0
        err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 2
        assert warnings[0].startswith("warning: 2 prediction lines repeat")
        assert repr(graphs[0].graph_id) in warnings[0]
        assert "last line wins" in warnings[0]
        assert warnings[1].startswith("warning: 7 predictions have a graph_id not among")
        assert "'stray4'" in warnings[1] and "'stray5'" not in warnings[1]
        assert "scored 3 pairs (0 above the node budget of 12, by ged_approx)" in err

        # The report equals one scored from the deduplicated file.
        clean_path = tmp_path / "clean.jsonl"
        clean_path.write_text(
            "\n".join([record(graphs[0].graph_id, empty)] + lines[1:3]) + "\n"
        )
        clean_report = tmp_path / "clean.csv"
        argv = ["ged", "--pred", str(clean_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(clean_report)]) == 0
        assert "warning:" not in capsys.readouterr().err
        assert report_path.read_text() == clean_report.read_text()

    def test_repeated_truth_ids_warn_once(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=2)
        graphs_path.write_text(graphs_path.read_text() * 2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text(
            json.dumps({"graph_id": graphs[0].graph_id, "predicted": json.loads(serialize_json(graphs[0]))})
            + "\n"
        )
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(tmp_path / "out.md")]) == 0
        err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert warnings[0] == (
            f"warning: 2 truths repeat an earlier graph_id ({graphs[0].graph_id!r}, "
            f"{graphs[1].graph_id!r}); each copy is scored"
        )
        assert warnings[1].startswith("warning: 2 truths have no prediction")
        assert "scored 4 pairs" in err

    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_report_directory_checked_before_any_input(self, tmp_path, capsys, parent):
        report_dir = tmp_path / "out"
        if parent == "file":
            report_dir.write_text("")
        report_path = report_dir / "report.md"
        # Neither input exists: the report's directory is checked first.
        argv = ["ged", "--pred", str(tmp_path / "preds.jsonl"),
                "--truth", str(tmp_path / "truth.jsonl"), "--report", str(report_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: cannot write the report {shown(str(report_path))}: "
            f"{shown(str(report_dir))} is not a directory\n"
        )

    @NEEDS_FORK
    def test_dead_worker_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=64)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("".join(
            json.dumps({"graph_id": g.graph_id, "predicted": json.loads(serialize_json(g))}) + "\n"
            for g in graphs
        ))
        parent = os.getpid()
        solve = ged_module.ged_exact
        caller_solves = []

        def dying(predicted, truth, *args):
            # The worker dies on the first pair it claims; the caller pauses
            # on each of its own, so the worker claims one before the caller
            # has claimed them all.
            if os.getpid() != parent:
                os._exit(1)
            caller_solves.append(truth.graph_id)
            time.sleep(0.005)
            return solve(predicted, truth, *args)

        # Forked workers inherit the patched solver.
        monkeypatch.setattr(ged_module, "ged_exact", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        report_path = tmp_path / "out.md"
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a GED worker process died: ")
        assert "Traceback" not in err
        # The caller stopped claiming pairs once the worker was gone.
        assert len(caller_solves) < len(graphs) // 2
        assert not report_path.exists()
        assert multiprocessing.active_children() == []

    def test_non_string_graph_id_is_unreadable(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text(
            json.dumps({"graph_id": [graphs[0].graph_id], "predicted": {"nodes": [], "edges": []}})
            + "\n"
        )
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(tmp_path / "out.md")]) == 0
        assert "preds.jsonl:1: unreadable prediction: graph_id must be a string" in (
            capsys.readouterr().err
        )

    def test_chunks_file_as_predictions_warns_once(self, tmp_path, capsys):
        _, graphs_path, _ = write_corpus(tmp_path, count=14)
        chunks_path = tmp_path / "chunks.jsonl"
        assert main(["chunk", "--graphs", str(graphs_path), "--strategy", "all-nodes",
                     "--out", str(chunks_path)]) == 0
        assert len(chunks_path.read_text().splitlines()) == 14
        capsys.readouterr()
        argv = ["ged", "--pred", str(chunks_path), "--truth", str(graphs_path)]
        assert main(argv + ["--report", str(tmp_path / "out.md")]) == 0
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "does not parse" in line]
        assert line.startswith(
            f"warning: 14 prediction lines do not parse (first: {chunks_path}:1: prediction for "
        )
        assert line.endswith("; they score as full reconstruction of the truth")
        assert "scored 14 pairs" in err

    def test_summary_counts_pairs_above_budget(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=3)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text(
            json.dumps({"graph_id": graphs[0].graph_id, "predicted": {"nodes": [], "edges": []}})
            + "\n"
        )
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--budget", "3", "--report", str(tmp_path / "out.md")]) == 0
        err = capsys.readouterr().err
        assert "scored 3 pairs (3 above the node budget of 3, by ged_approx)" in err

    @pytest.mark.parametrize("budget", ["-1", "-12"])
    def test_negative_budget_is_an_error_line(self, tmp_path, capsys, budget):
        # Before, every pair went to ged_approx and the command exited 0.
        graphs, graphs_path, _ = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("".join(
            json.dumps({"graph_id": g.graph_id, "predicted": json.loads(serialize_json(g))}) + "\n"
            for g in graphs
        ))
        report_path = tmp_path / "out.md"
        argv = ["ged", "--pred", str(preds_path), "--truth", str(graphs_path)]
        assert main(argv + ["--budget", budget, "--report", str(report_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: node budget must be a non-negative integer, got {budget}"
        ]
        assert not report_path.exists()

    def test_empty_truth_file_is_named(self, tmp_path, capsys):
        truth_path = tmp_path / "truth.jsonl"
        truth_path.write_text("\n")
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("")
        report_path = tmp_path / "out.md"
        argv = ["ged", "--pred", str(preds_path), "--truth", str(truth_path)]
        assert main(argv + ["--report", str(report_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: no truth graphs in {truth_path}"]
        assert not report_path.exists()

    def test_bad_costs_exit_1(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("")
        costs_path = tmp_path / "costs.json"
        costs_path.write_text('{"edge_insert": Infinity}')
        report_path = tmp_path / "out.md"
        code = main(
            ["ged", "--pred", str(preds_path), "--truth", str(graphs_path),
             "--costs", str(costs_path), "--report", str(report_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: edge_insert must be finite" in err
        assert not report_path.exists()

        costs_path.write_text('{"edge_insert": null}')
        code = main(
            ["ged", "--pred", str(preds_path), "--truth", str(graphs_path),
             "--costs", str(costs_path), "--report", str(report_path)]
        )
        assert code == 1
        assert "error: edge_insert must be a number" in capsys.readouterr().err


class TestPipeline:
    def test_chunk_ingest_query(self, tmp_path, capsys):
        graphs, graphs_path, _ = write_corpus(tmp_path)
        chunks_path = tmp_path / "chunks.jsonl"
        assert main(
            ["chunk", "--graphs", str(graphs_path), "--strategy", "per-node", "--out", str(chunks_path)]
        ) == 0
        provider = local_provider_file(tmp_path)
        snapshot = tmp_path / "index.snap"
        assert main(
            [
                "ingest",
                "--chunks", str(chunks_path),
                "--provider-config", str(provider),
                "--snapshot", str(snapshot),
            ]
        ) == 0
        capsys.readouterr()
        target = graphs[1].nodes[2]
        assert main(
            [
                "query",
                "--snapshot", str(snapshot),
                "--text", target.value,
                "--k", "3",
                "--provider-config", str(provider),
            ]
        ) == 0
        hits = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert hits[0]["graph_id"] == graphs[1].graph_id
        assert hits[0]["node_id"] == target.id
        assert [h["rank"] for h in hits] == [1, 2, 3]

    def test_chunk_warns_once_for_skipped_connectors(self, tmp_path, caplog):
        from flowrag.graph_model import write_graphs_jsonl
        from flowrag.synthgen import GenSpec, generate_graph

        graphs = [generate_graph(GenSpec(seed=5), i) for i in range(20)]
        empty = [(g.graph_id, n.id) for g in graphs for n in g.nodes if not n.value]
        graphs_path = tmp_path / "graphs.jsonl"
        write_graphs_jsonl(graphs, graphs_path)
        argv = ["chunk", "--graphs", str(graphs_path), "--out", str(tmp_path / "chunks.jsonl")]
        with caplog.at_level(logging.WARNING, logger="flowrag.chunker"):
            assert main(argv + ["--strategy", "per-node"]) == 0
            assert main(argv + ["--strategy", "all-nodes"]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"skipped {len(empty)} empty-value nodes under per-node chunking "
            f"(first: node {empty[0][1]!r} of graph {empty[0][0]!r})"
        ]

    def test_eval_end_to_end(self, tmp_path):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=5)
        config_path = tmp_path / "eval.json"
        config_path.write_text(
            json.dumps({"provider": {"kind": "local-hashed", "dimension": 256}})
        )
        out_dir = tmp_path / "eval-out"
        code = main(
            [
                "eval",
                "--graphs", str(graphs_path),
                "--qa", str(qa_path),
                "--config", str(config_path),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        for name in ("report.md", "report.csv", "report.json", "trace.jsonl"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        top1 = [
            cell for cell in report["cells"]
            if cell["k"] == 1 and cell["category"] == "All" and cell["strategy"] == "per-node"
        ]
        assert top1[0]["accuracy"] == 1.0

    def test_eval_unreachable_endpoint_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(embed_module, "_BACKOFF_BASE_S", 0.001)
        _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
        config_path = tmp_path / "eval.json"
        config_path.write_text(
            json.dumps(
                {
                    "provider": {
                        "kind": "remote",
                        "endpoint": "http://127.0.0.1:1",
                        "model_name": "m",
                        "timeout_s": 0.5,
                    }
                }
            )
        )
        code = main(
            [
                "eval",
                "--graphs", str(graphs_path),
                "--qa", str(qa_path),
                "--config", str(config_path),
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "aborted" in capsys.readouterr().err

    def test_eval_rerun_is_byte_identical(self, tmp_path):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=5)
        config_path = tmp_path / "eval.json"
        config_path.write_text(json.dumps({"provider": {"kind": "local-hashed"}}))
        out_dir = tmp_path / "out"
        argv = [
            "eval",
            "--graphs", str(graphs_path),
            "--qa", str(qa_path),
            "--config", str(config_path),
            "--out-dir", str(out_dir),
        ]
        names = ("report.md", "report.csv", "report.json", "trace.jsonl")
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            runs.append({name: (out_dir / name).read_bytes() for name in names})
        assert runs[0] == runs[1]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)

    def test_eval_partial_progress_written(self, tmp_path, monkeypatch):
        out_dir = abort_eval(tmp_path, monkeypatch)
        partial = json.loads((out_dir / "report.partial.json").read_text())
        per_node = [
            c for c in partial["cells"] if c["strategy"] == "per-node" and c["category"] == "All"
        ]
        assert per_node[0]["denominator"] == 2

    def test_eval_success_removes_stale_partial(self, tmp_path, monkeypatch):
        out_dir = abort_eval(tmp_path, monkeypatch)
        assert (out_dir / "report.partial.json").exists()
        config_path = tmp_path / "eval.json"
        config_path.write_text(json.dumps({"provider": {"kind": "local-hashed"}}))
        assert main(
            [
                "eval",
                "--graphs", str(tmp_path / "graphs.jsonl"),
                "--qa", str(tmp_path / "qa.jsonl"),
                "--config", str(config_path),
                "--out-dir", str(out_dir),
            ]
        ) == 0
        assert not (out_dir / "report.partial.json").exists()
        assert (out_dir / "report.json").exists()

    def test_report_rerender(self, tmp_path, capsys):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=3)
        config_path = tmp_path / "eval.json"
        config_path.write_text(json.dumps({"provider": {"kind": "local-hashed"}}))
        out_dir = tmp_path / "out"
        assert main(
            [
                "eval",
                "--graphs", str(graphs_path),
                "--qa", str(qa_path),
                "--config", str(config_path),
                "--out-dir", str(out_dir),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", "--in", str(out_dir / "report.json"), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("scenario,")
        assert out == (out_dir / "report.csv").read_text()


class TestIdempotence:
    def test_chunk_and_ingest_byte_identical(self, tmp_path):
        _, graphs_path, _ = write_corpus(tmp_path, count=3)
        provider = local_provider_file(tmp_path)
        outputs = []
        for run in ("a", "b"):
            chunks_path = tmp_path / f"chunks-{run}.jsonl"
            snapshot = tmp_path / f"index-{run}.snap"
            assert main(
                ["chunk", "--graphs", str(graphs_path), "--strategy", "all-nodes",
                 "--out", str(chunks_path)]
            ) == 0
            assert main(
                ["ingest", "--chunks", str(chunks_path),
                 "--provider-config", str(provider), "--snapshot", str(snapshot)]
            ) == 0
            outputs.append(chunks_path.read_bytes() + snapshot.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_provider_config_is_data_error(self, tmp_path, capsys):
        _, graphs_path, _ = write_corpus(tmp_path, count=2)
        chunks_path = tmp_path / "chunks.jsonl"
        main(["chunk", "--graphs", str(graphs_path), "--strategy", "per-node",
              "--out", str(chunks_path)])
        bad = tmp_path / "provider.json"
        bad.write_text(json.dumps({"kind": "quantum"}))
        code = main(["ingest", "--chunks", str(chunks_path),
                     "--provider-config", str(bad), "--snapshot", str(tmp_path / "x.snap")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [{"dimension": "256"}, {"max_concurrency": 0}, {"timeout_s": 0},
         {"batch_size": True}, {"endpoint": "localhost:8080"}],
    )
    def test_invalid_provider_field_is_data_error(self, tmp_path, capsys, overrides):
        _, graphs_path, _ = write_corpus(tmp_path, count=2)
        chunks_path = tmp_path / "chunks.jsonl"
        main(["chunk", "--graphs", str(graphs_path), "--strategy", "per-node",
              "--out", str(chunks_path)])
        capsys.readouterr()
        bad = tmp_path / "provider.json"
        bad.write_text(json.dumps({"kind": "remote", "endpoint": "http://127.0.0.1:1",
                                   "model_name": "m", **overrides}))
        code = main(["ingest", "--chunks", str(chunks_path),
                     "--provider-config", str(bad), "--snapshot", str(tmp_path / "x.snap")])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and next(iter(overrides)) in line
        assert not (tmp_path / "x.snap").exists()

    def test_provider_config_not_an_object_is_data_error(self, tmp_path, capsys, monkeypatch):
        _, graphs_path, _ = write_corpus(tmp_path, count=2)
        chunks_path = tmp_path / "chunks.jsonl"
        main(["chunk", "--graphs", str(graphs_path), "--strategy", "per-node",
              "--out", str(chunks_path)])
        monkeypatch.setenv("EMBED_MODEL", "env-model")
        bad = tmp_path / "provider.json"
        bad.write_text("[1]")
        code = main(["ingest", "--chunks", str(chunks_path),
                     "--provider-config", str(bad), "--snapshot", str(tmp_path / "x.snap")])
        assert code == 1
        assert "error: provider config must be a JSON object" in capsys.readouterr().err


class TestEnvOverrides:
    def test_embed_endpoint_env(self, tmp_path, monkeypatch, capsys):
        _, graphs_path, _ = write_corpus(tmp_path, count=2)
        chunks_path = tmp_path / "chunks.jsonl"
        main(["chunk", "--graphs", str(graphs_path), "--strategy", "full-json", "--out", str(chunks_path)])
        with StubEmbedServer(dimension=8) as server:
            monkeypatch.setenv("EMBED_ENDPOINT", server.endpoint)
            monkeypatch.setenv("EMBED_MODEL", "env-model")
            snapshot = tmp_path / "index.snap"
            assert main(
                ["ingest", "--chunks", str(chunks_path), "--snapshot", str(snapshot)]
            ) == 0
            assert server.requests
            assert all(r["model"] == "env-model" for r in server.requests)

    def test_eval_applies_env_overrides(self, tmp_path, monkeypatch):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
        config_path = tmp_path / "eval.json"
        config_path.write_text(
            json.dumps({"provider": {"kind": "local-hashed", "dimension": 256}})
        )
        with StubEmbedServer(dimension=8) as server:
            monkeypatch.setenv("EMBED_ENDPOINT", server.endpoint)
            monkeypatch.setenv("EMBED_MODEL", "env-model")
            out_dir = tmp_path / "eval-out"
            assert main(
                [
                    "eval",
                    "--graphs", str(graphs_path),
                    "--qa", str(qa_path),
                    "--config", str(config_path),
                    "--out-dir", str(out_dir),
                ]
            ) == 0
            assert server.requests
            assert all(r["model"] == "env-model" for r in server.requests)
        report = json.loads((out_dir / "report.json").read_text())
        assert report["metadata"]["provider"] == f"remote(env-model@{server.endpoint})"


class TestMalformedFiles:
    """Each malformed input exits 1 with one ``error:`` line, no traceback."""

    def one_error(self, capsys, code) -> str:
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        return line

    @pytest.mark.parametrize(
        "config, message",
        [
            ([1], "eval config must be a JSON object"),
            ({"ks": 5}, "ks must be an array"),
            ({"ks": [1.7]}, "each item of ks must be an integer, got 1.7"),
            ({"ks": [True]}, "each item of ks must be an integer, got True"),
            ({"dimention": 64}, "unknown eval config keys: ['dimention']"),
            ({"provider": {"dimention": 64}}, "unknown provider config keys: ['dimention']"),
            # An integer too large for a float, and a float too large for a socket.
            ({"provider": {"kind": "local-hashed", "timeout_s": 10**400}},
             "timeout_s must be > 0 and at most"),
            ({"provider": {"kind": "local-hashed", "timeout_s": 1e300}},
             "timeout_s must be > 0 and at most"),
        ],
    )
    def test_bad_eval_config(self, tmp_path, capsys, config, message):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
        config_path = tmp_path / "eval.json"
        config_path.write_text(json.dumps(config))
        code = main(["eval", "--graphs", str(graphs_path), "--qa", str(qa_path),
                     "--config", str(config_path), "--out-dir", str(tmp_path / "out")])
        assert message in self.one_error(capsys, code)

    def test_env_model_completes_remote_eval_config(self, tmp_path, monkeypatch):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
        config_path = tmp_path / "eval.json"
        with StubEmbedServer(dimension=8) as server:
            config_path.write_text(
                json.dumps({"provider": {"kind": "remote", "endpoint": server.endpoint}})
            )
            monkeypatch.setenv("EMBED_MODEL", "env-model")
            assert main(["eval", "--graphs", str(graphs_path), "--qa", str(qa_path),
                         "--config", str(config_path), "--out-dir", str(tmp_path / "out")]) == 0
            assert all(r["model"] == "env-model" for r in server.requests)

    @pytest.mark.parametrize(
        "record, message",
        [
            ([1], "a chunk must be an object"),
            ({"chunk_id": "x", "text": 5, "source_kind": "graph"}, "text must be a string"),
        ],
    )
    def test_bad_chunk_record(self, tmp_path, capsys, record, message):
        chunks_path = tmp_path / "chunks.jsonl"
        good = {"chunk_id": "c", "text": "t", "source_kind": "text"}
        chunks_path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        code = main(["ingest", "--chunks", str(chunks_path),
                     "--provider-config", str(local_provider_file(tmp_path)),
                     "--snapshot", str(tmp_path / "x.snap")])
        assert f"error: {chunks_path}:2: bad chunk record: {message}" in self.one_error(capsys, code)

    @pytest.mark.parametrize(
        "record, message",
        [
            ([1], "a QA item must be an object"),
            ({"question": "q", "graph_id": "g", "gold_node_ids": 5, "category": "N"},
             "gold_node_ids must be an array"),
            ({"question": "q", "graph_id": "g", "gold_node_ids": [5], "category": "N"},
             "each item of gold_node_ids must be a string"),
        ],
    )
    def test_bad_qa_record(self, tmp_path, capsys, record, message):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
        qa_path.write_text(qa_path.read_text() + "\n" + json.dumps(record) + "\n")
        line_no = len(qa_path.read_text().splitlines())
        config_path = tmp_path / "eval.json"
        config_path.write_text("{}")
        code = main(["eval", "--graphs", str(graphs_path), "--qa", str(qa_path),
                     "--config", str(config_path), "--out-dir", str(tmp_path / "out")])
        assert f"error: {qa_path}:{line_no}: bad QA record: {message}" in self.one_error(
            capsys, code
        )

    def eval_error(self, tmp_path, capsys, graphs_path, qa_path) -> str:
        config_path = tmp_path / "eval.json"
        config_path.write_text("{}")
        code = main(["eval", "--graphs", str(graphs_path), "--qa", str(qa_path),
                     "--config", str(config_path), "--out-dir", str(tmp_path / "out")])
        line = self.one_error(capsys, code)
        assert len(line) < 200
        return line

    def test_empty_question_names_its_qa_item(self, tmp_path, capsys):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=4)
        records = [json.loads(line) for line in qa_path.read_text().splitlines()]
        records[2]["question"] = ""
        qa_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        line = self.eval_error(tmp_path, capsys, graphs_path, qa_path)
        assert line == "error: QA item 3 (graph 'g002') has an empty question"

    def test_missing_graphs_are_counted_not_listed(self, tmp_path, capsys):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=300)
        graphs_path.write_text(graphs_path.read_text().splitlines()[0] + "\n")
        line = self.eval_error(tmp_path, capsys, graphs_path, qa_path)
        assert line == (
            "error: QA items reference graph ids missing from the corpus (299 in all), "
            "the first 'g001'"
        )

    def test_ingest_of_empty_chunks_file(self, tmp_path, capsys):
        chunks_path = tmp_path / "chunks.jsonl"
        chunks_path.write_text("\n")
        snapshot = tmp_path / "x.snap"
        code = main(["ingest", "--chunks", str(chunks_path),
                     "--provider-config", str(local_provider_file(tmp_path)),
                     "--snapshot", str(snapshot)])
        assert f"error: no chunks in {chunks_path}" in self.one_error(capsys, code)
        assert not snapshot.exists()

    def test_bad_snapshot_chunk_record(self, tmp_path, capsys):
        chunks_path = tmp_path / "chunks.jsonl"
        chunks_path.write_text(json.dumps({"chunk_id": "c", "text": "t", "source_kind": "text"}))
        provider = local_provider_file(tmp_path)
        snapshot = tmp_path / "index.snap"
        assert main(["ingest", "--chunks", str(chunks_path), "--provider-config",
                     str(provider), "--snapshot", str(snapshot)]) == 0
        header, _, blob = snapshot.read_bytes().split(b"\n", 2)
        snapshot.write_bytes(header + b"\n[1]\n" + blob)
        capsys.readouterr()
        code = main(["query", "--snapshot", str(snapshot), "--text", "t",
                     "--provider-config", str(provider)])
        assert f"error: {snapshot}:2: bad chunk record: a chunk must be an object" in (
            self.one_error(capsys, code)
        )

    def test_snapshot_header_beyond_its_payload(self, tmp_path, capsys):
        chunks_path = tmp_path / "chunks.jsonl"
        chunks_path.write_text(json.dumps({"chunk_id": "c", "text": "t", "source_kind": "text"}))
        provider = local_provider_file(tmp_path)
        snapshot = tmp_path / "index.snap"
        assert main(["ingest", "--chunks", str(chunks_path), "--provider-config",
                     str(provider), "--snapshot", str(snapshot)]) == 0
        header, rest = snapshot.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["dimension"] = 10**15
        snapshot.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        capsys.readouterr()
        code = main(["query", "--snapshot", str(snapshot), "--text", "t",
                     "--provider-config", str(provider)])
        assert "error: truncated snapshot: missing vector for 'c'" in self.one_error(capsys, code)

    @pytest.mark.parametrize(
        "report, message",
        [
            ({"cells": []}, "evaluation report lacks 'scenario'"),
            ({"scenario": "graph-only", "ks": [1], "strategies": ["per-node"],
              "categories": [], "cells": []},
             "evaluation report lacks the cell (per-node, k=1, All)"),
        ],
    )
    def test_malformed_report(self, tmp_path, capsys, report, message):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        code = main(["report", "--in", str(report_path)])
        assert message in self.one_error(capsys, code)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"ks": [1.5]}, "each item of ks must be an integer, got 1.5"),
            ({"cells": [{"strategy": "per-node", "k": 1, "category": "All",
                         "numerator": "1", "denominator": 2}]},
             "numerator must be an integer, got '1'"),
            ({"categories": "DNE"}, "categories must be an array, got 'DNE'"),
            ({"ks": []}, "ks and strategies must not be empty"),
            ({"strategies": []}, "ks and strategies must not be empty"),
        ],
    )
    def test_mistyped_report(self, tmp_path, capsys, change, message):
        report = {"scenario": "graph-only", "ks": [1], "strategies": ["per-node"],
                  "categories": [], "cells": [{"strategy": "per-node", "k": 1, "category": "All",
                                               "numerator": 1, "denominator": 2}]}
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps({**report, **change}))
        code = main(["report", "--in", str(report_path)])
        assert f"error: malformed evaluation report: {message}" in self.one_error(capsys, code)

    @pytest.mark.parametrize(
        "text, message",
        [("{bad", "Expecting property name"), ("{}", "missing required key 'nodes'")],
    )
    def test_bad_render_graph_names_the_file(self, tmp_path, capsys, text, message):
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(text)
        line = self.one_error(capsys, main(["render", "--graph", str(graph_path)]))
        assert line.startswith(f"error: {graph_path}: ") and message in line

    @pytest.mark.parametrize("flag", ["render --graph", "ged --truth", "report --in",
                                      "eval --config", "query --snapshot"])
    def test_value_nested_too_deep(self, tmp_path, capsys, flag):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("")
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP)
        command, option = flag.split()
        others = {
            "render": [],
            "ged": ["--pred", preds_path, "--report", tmp_path / "out.md"],
            "report": [],
            "eval": ["--graphs", graphs_path, "--qa", qa_path, "--out-dir", tmp_path / "out"],
            "query": ["--text", "t"],
        }[command]
        code = main([command, option, str(deep)] + [str(arg) for arg in others])
        assert "value nested too deep" in self.one_error(capsys, code)

    @pytest.mark.parametrize(
        "flag, text, field",
        [
            pytest.param("eval --config", json.dumps({"scenario": LONG}), "scenario",
                         id="eval-scenario"),
            pytest.param("eval --config", json.dumps({"ks": [LONG]}), "each item of ks",
                         id="eval-ks-item"),
            pytest.param("eval --config", json.dumps({"provider": {"dimension": LONG}}),
                         "dimension", id="eval-provider-dimension"),
            pytest.param("eval --qa", json.dumps({"question": "q", "graph_id": "g",
                                                  "gold_node_ids": ["A"], "category": LONG}),
                         "category", id="qa-category"),
            pytest.param("ingest --chunks", json.dumps({"chunk_id": "c", "text": "t",
                                                        "source_kind": LONG}),
                         "source_kind", id="chunk-source-kind"),
            pytest.param("parse --mermaid", "flowchart TD\nA -- x" + " " * 100_000 + "y\n",
                         "malformed link", id="mermaid-link"),
            pytest.param("render --graph", json.dumps(
                {"nodes": [{"id": "A", "value": "v", "shape": LONG}], "edges": []}
            ), "shape", id="graph-shape"),
            pytest.param("render --graph", json.dumps(
                {"nodes": [{"id": LONG, "value": "v"}] * 2, "edges": []}
            ), "duplicate node id", id="graph-repeated-id"),
            pytest.param("query --snapshot", json.dumps({"format": LONG}) + "\n", "format",
                         id="snapshot-format"),
            pytest.param("report --in", json.dumps(
                {"scenario": "graph-only", "ks": [1], "strategies": ["per-node"],
                 "categories": [], "cells": [{"strategy": LONG, "k": 1, "category": "All",
                                              "numerator": 1, "denominator": 2}]}
            ), "strategy", id="report-strategy"),
        ],
    )
    def test_long_value_is_cut(self, tmp_path, capsys, flag, text, field):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=2)
        config_path = tmp_path / "eval.json"
        config_path.write_text("{}")
        bad = tmp_path / "bad"
        bad.write_text(text)
        command, option = flag.split()
        others = {
            "eval --config": ["--graphs", graphs_path, "--qa", qa_path],
            "eval --qa": ["--graphs", graphs_path, "--config", config_path],
            "ingest --chunks": ["--provider-config", local_provider_file(tmp_path),
                                "--snapshot", tmp_path / "x.snap"],
            "parse --mermaid": [],
            "render --graph": [],
            "query --snapshot": ["--text", "t"],
            "report --in": [],
        }[flag]
        if command == "eval":
            others += ["--out-dir", tmp_path / "out"]
        line = self.one_error(capsys, main([command, option, str(bad)] + list(map(str, others))))
        assert len(line) <= 300 and field in line

    def test_many_graph_violations_are_counted(self, tmp_path, capsys):
        doc = {"nodes": [{"id": "A", "value": "v"}] * 20_000,
               "edges": [{"from": "A", "to": "B"}] * 20_000}
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(doc))
        with pytest.raises(GraphIntegrityError) as excinfo:
            parse_json(graph_path.read_bytes())
        violations = excinfo.value.violations
        assert len(violations) > 40_000
        line = self.one_error(capsys, main(["render", "--graph", str(graph_path)]))
        assert len(line) < 500
        assert line.endswith(f"; and {len(violations) - 5} more")
        assert "; ".join(violations[:5]) in line

    def test_invalid_costs_json_names_the_file(self, tmp_path, capsys):
        _, graphs_path, _ = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("")
        costs_path = tmp_path / "costs.json"
        costs_path.write_text("{edge_insert: 1}")
        code = main(["ged", "--pred", str(preds_path), "--truth", str(graphs_path),
                     "--costs", str(costs_path), "--report", str(tmp_path / "out.md")])
        assert f"error: {costs_path}: invalid JSON: Expecting property name" in (
            self.one_error(capsys, code)
        )

    def test_cost_too_large_for_a_float(self, tmp_path, capsys):
        _, graphs_path, _ = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("")
        costs_path = tmp_path / "costs.json"
        costs_path.write_text('{"node_substitute": 1' + "0" * 400 + "}")
        code = main(["ged", "--pred", str(preds_path), "--truth", str(graphs_path),
                     "--costs", str(costs_path), "--report", str(tmp_path / "out.md")])
        line = self.one_error(capsys, code)
        assert line.startswith("error: node_substitute must be finite, got 10000")
        assert len(line) < 120

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([1], "generator spec must be a JSON object, got list"),
            ({"node_count_range": "ab"}, "node_count_range must be an array, got 'ab'"),
            ({"node_count_range": [2, 3, 4]}, "node_count_range must be [min, max]"),
        ],
    )
    def test_bad_gen_spec(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["gen", "--count", "3", "--spec", str(spec_path),
                     "--out", str(tmp_path / "corpus")])
        assert message in self.one_error(capsys, code)


class TestImports:
    """Only ``flowrag ged`` imports scipy; every other command runs without
    paying for its import."""

    def scipy_after(self, code: str) -> list[str]:
        """The scipy modules loaded once ``code`` has run in a new process."""
        script = (
            "import json, sys\n" + code + "\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def main_calls(self, *argvs) -> str:
        calls = "".join(
            f"assert main({[str(arg) for arg in argv]!r}) == 0\n" for argv in argvs
        )
        return "from flowrag.cli import main\n" + calls

    def test_importing_the_cli(self):
        assert self.scipy_after("import flowrag.cli") == []

    def test_eval(self, tmp_path):
        _, graphs_path, qa_path = write_corpus(tmp_path, count=3)
        config_path = tmp_path / "eval.json"
        config_path.write_text("{}")
        code = self.main_calls(
            ["eval", "--graphs", graphs_path, "--qa", qa_path,
             "--config", config_path, "--out-dir", tmp_path / "out"]
        )
        assert self.scipy_after(code) == []
        assert (tmp_path / "out" / "report.json").exists()

    def test_ingest_then_query(self, tmp_path):
        _, graphs_path, _ = write_corpus(tmp_path, count=3)
        chunks_path = tmp_path / "chunks.jsonl"
        snapshot = tmp_path / "index.snap"
        code = self.main_calls(
            ["chunk", "--graphs", graphs_path, "--strategy", "per-node", "--out", chunks_path],
            ["ingest", "--chunks", chunks_path, "--snapshot", snapshot],
            ["query", "--snapshot", snapshot, "--text", "t"],
        )
        assert self.scipy_after(code) == []

    def test_ged_does_import_scipy(self, tmp_path):
        _, graphs_path, _ = write_corpus(tmp_path, count=2)
        preds_path = tmp_path / "preds.jsonl"
        preds_path.write_text("")
        code = self.main_calls(
            ["ged", "--pred", preds_path, "--truth", graphs_path, "--report", tmp_path / "out.md"]
        )
        assert "scipy.optimize" in self.scipy_after(code)


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--count", "5", "--out", "x", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_help_documents_every_flag(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                for option in action.option_strings:
                    assert option in help_text, f"{name}: {option} missing from help"
