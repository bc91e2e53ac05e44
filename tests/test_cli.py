import argparse
import json

import pytest

import flowrag.embed as embed_module
from flowrag.cli import build_parser, main
from flowrag.ged import GED_REPORT_COLUMNS
from flowrag.graph_model import FlowGraph, parse_json, read_graphs_jsonl, serialize_json
from flowrag.synthgen import read_qa_jsonl

from helpers import StubEmbedServer, disjoint_corpus


def write_corpus(tmp_path, count=4):
    from flowrag.graph_model import write_graphs_jsonl
    from flowrag.synthgen import write_qa_jsonl

    graphs, qa = disjoint_corpus(count)
    graphs_path = tmp_path / "graphs.jsonl"
    qa_path = tmp_path / "qa.jsonl"
    write_graphs_jsonl(graphs, graphs_path)
    write_qa_jsonl(qa, qa_path)
    return graphs, graphs_path, qa_path


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

    def test_eval_partial_progress_written(self, tmp_path, capsys, monkeypatch):
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
        partial = json.loads((out_dir / "report.partial.json").read_text())
        per_node = [
            c for c in partial["cells"] if c["strategy"] == "per-node" and c["category"] == "All"
        ]
        assert per_node[0]["denominator"] == 2

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
