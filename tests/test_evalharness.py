import hashlib
import json
import logging
import re
from itertools import product

import pytest

import flowrag.chunker as chunker_module
import flowrag.embed as embed_module
import flowrag.evalharness as evalharness_module
from flowrag.chunker import ChunkStrategy
from flowrag.embed import ProviderConfig, ProviderKind, TransportError
from flowrag.errors import ConfigError, FlowragError
from flowrag.graph_model import serialize_json
from flowrag.evalharness import (
    ALL_CATEGORY,
    Cell,
    DatasetError,
    EvalAborted,
    EvalConfig,
    EvalReport,
    ReportFormat,
    Scenario,
    judge,
    render_report,
    run_eval,
    write_trace_jsonl,
)
from flowrag.synthgen import GenSpec, QaCategory, QaItem, generate_graph, generate_qa
from flowrag.vstore import RetrievalHit

from helpers import StubEmbedServer, disjoint_corpus, mismatch_qa

LOCAL = ProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=256)


def hit(rank: int, chunk_id: str, graph_id: str | None, node_id: str | None = None):
    return RetrievalHit(
        chunk_id=chunk_id, score=1.0 / rank, rank=rank, graph_id=graph_id, node_id=node_id
    )


def item(graph_id: str = "g1", gold=("N1",), category=QaCategory.NODE) -> QaItem:
    return QaItem(
        question="What happens after x?",
        graph_id=graph_id,
        gold_node_ids=frozenset(gold),
        category=category,
    )


NODE_IDS = {"g1": {"N1", "N2"}, "g2": {"N1", "N2", "N3"}, "g3": {"N9"}}


class TestJudge:
    def test_full_json_rank_threshold(self):
        hits = [
            hit(1, "g2:json", "g2"),
            hit(2, "g3:json", "g3"),
            hit(3, "g1:json", "g1"),
        ]
        qa = item(graph_id="g1")
        assert judge(ChunkStrategy.FULL_JSON, hits, qa, 3, NODE_IDS) is True
        assert judge(ChunkStrategy.FULL_JSON, hits, qa, 1, NODE_IDS) is False

    def test_per_node_gold_hit_at_rank_one(self):
        hits = [hit(1, "g1:node:N1", "g1", "N1")]
        assert judge(ChunkStrategy.PER_NODE, hits, item(), 1, NODE_IDS) is True

    def test_per_node_wrong_graph_or_node(self):
        wrong_graph = [hit(1, "g2:node:N1", "g2", "N1")]
        assert judge(ChunkStrategy.PER_NODE, wrong_graph, item(), 1, NODE_IDS) is False
        wrong_node = [hit(1, "g1:node:N2", "g1", "N2")]
        assert judge(ChunkStrategy.PER_NODE, wrong_node, item(), 1, NODE_IDS) is False

    def test_all_nodes_single_graph_containment(self):
        qa = item(graph_id="g1", gold=("N1", "N2"))
        own_chunk = [hit(1, "g1:nodes", "g1")]
        assert judge(ChunkStrategy.ALL_NODES, own_chunk, qa, 1, NODE_IDS) is True
        # g3 lacks N2, so its chunk cannot cover the gold set.
        other = [hit(1, "g3:nodes", "g3")]
        assert judge(ChunkStrategy.ALL_NODES, other, qa, 1, NODE_IDS) is False
        # g2 contains ids N1 and N2, so the literal containment reading holds.
        superset = [hit(1, "g2:nodes", "g2")]
        assert judge(ChunkStrategy.ALL_NODES, superset, qa, 1, NODE_IDS) is True

    def test_all_nodes_union_reading(self):
        qa = item(graph_id="g1", gold=("N1", "N9"))
        hits = [hit(1, "g1:nodes", "g1"), hit(2, "g3:nodes", "g3")]
        assert judge(ChunkStrategy.ALL_NODES, hits, qa, 2, NODE_IDS) is False
        assert (
            judge(ChunkStrategy.ALL_NODES, hits, qa, 2, NODE_IDS, allnodes_union=True)
            is True
        )

    def test_text_chunks_never_satisfy(self):
        text_hits = [hit(1, "doc:text:00000", None)]
        for strategy in ChunkStrategy:
            assert judge(strategy, text_hits, item(), 1, NODE_IDS) is False


def reference_judge(strategy, hits, qa, k, node_ids_by_graph, allnodes_union=False):
    """``judge`` as a filter of the top-k hits, the rule it must keep."""
    within = [h for h in hits if h.rank <= k and h.graph_id is not None]
    if strategy is ChunkStrategy.PER_NODE:
        return any(h.graph_id == qa.graph_id and h.node_id in qa.gold_node_ids for h in within)
    if strategy is ChunkStrategy.ALL_NODES:
        if allnodes_union:
            covered: set[str] = set()
            for h in within:
                covered |= node_ids_by_graph.get(h.graph_id, set())
            return qa.gold_node_ids <= covered
        return any(qa.gold_node_ids <= node_ids_by_graph.get(h.graph_id, set()) for h in within)
    return any(h.graph_id == qa.graph_id for h in within)


class TestJudgeMatchesReference:
    @pytest.mark.parametrize(
        "hits, gold",
        [
            # Out of rank order, with a shared rank.
            ([hit(3, "g1:node:N1", "g1", "N1"), hit(1, "x", None), hit(2, "g3:n", "g3", "N9")],
             ("N1", "N9")),
            ([hit(2, "g2:n", "g2", "N2"), hit(2, "g1:n", "g1", "N1"), hit(1, "g1:n2", "g1", "N2")],
             ("N1", "N2")),
            # An empty gold set, and a graph missing from the node ids.
            ([hit(2, "g1:n", "g1", "N1"), hit(1, "x", None)], ()),
            ([hit(1, "g9:n", "g9", "N1")], ()),
            ([], ("N1",)),
            ([], ()),
        ],
    )
    @pytest.mark.parametrize("union", [False, True], ids=["literal", "union"])
    @pytest.mark.parametrize("strategy", list(ChunkStrategy), ids=lambda s: s.value)
    def test_hand_made_hits(self, strategy, union, hits, gold):
        qa = item(graph_id="g1", gold=gold)
        for k in range(0, 5):
            assert judge(strategy, hits, qa, k, NODE_IDS, union) is reference_judge(
                strategy, hits, qa, k, NODE_IDS, union
            )

    @pytest.mark.parametrize("union", [False, True], ids=["literal", "union"])
    def test_run_eval_records(self, union):
        spec = GenSpec(seed=51, decision_fraction=0.4, edge_value_probability=1.0)
        graphs = [generate_graph(spec, i) for i in range(12)]
        qa = [q for graph in graphs for q in generate_qa(graph, 5, seed=51)]
        # Prose quoting node values, so text chunks take ranks from graph hits.
        documents = tuple(
            f"See {graph.nodes[1].value} and {graph.nodes[2].value}." for graph in graphs
        )
        config = EvalConfig(
            provider=LOCAL,
            ks=(1, 2, 4),
            scenario=Scenario.GRAPH_WITH_TEXT,
            text_documents=documents,
            allnodes_union=union,
        )
        report = run_eval(graphs, qa, config)
        node_ids = {g.graph_id: g.node_ids() for g in graphs}
        records = report.trace
        assert len(records) == len(qa) * len(config.strategies)
        assert any(h.graph_id is None for record in records for h in record["hits"])
        outcomes = set()
        for record, qa_item in zip(records, qa * len(config.strategies)):
            strategy = ChunkStrategy(record["strategy"])
            assert record["question"] == qa_item.question
            for k in range(1, max(config.ks) + 2):
                expected = reference_judge(strategy, record["hits"], qa_item, k, node_ids, union)
                assert judge(strategy, record["hits"], qa_item, k, node_ids, union) is expected
                if k in config.ks:
                    assert record["judgments"][str(k)] is expected
            outcomes.add(tuple(record["judgments"].values()))
        assert {(False, False, False), (True, True, True)} < outcomes
        for strategy, k in product(config.strategies, config.ks):
            for category in report.categories + (ALL_CATEGORY,):
                chosen = [
                    record for record in records
                    if record["strategy"] == strategy.value
                    and category in (record["category"], ALL_CATEGORY)
                ]
                cell = report.cells[(strategy, k, category)]
                assert cell.denominator == len(chosen)
                assert cell.numerator == sum(record["judgments"][str(k)] for record in chosen)


class TestRunEval:
    def test_single_graph_per_node_top1(self):
        graphs, qa = disjoint_corpus(1)
        config = EvalConfig(provider=LOCAL, strategies=(ChunkStrategy.PER_NODE,), ks=(1,))
        report = run_eval(graphs, qa, config)
        assert report.cell(ChunkStrategy.PER_NODE, 1).accuracy == 1.0

    def test_disjoint_fixture_full_json_top1(self):
        graphs, qa = disjoint_corpus(5)
        config = EvalConfig(provider=LOCAL, ks=(1,))
        report = run_eval(graphs, qa, config)
        assert report.cell(ChunkStrategy.FULL_JSON, 1).accuracy == 1.0
        assert report.cell(ChunkStrategy.PER_NODE, 1).accuracy == 1.0

    def test_negative_control_is_zero(self):
        graphs, qa = disjoint_corpus(5)
        config = EvalConfig(provider=LOCAL, ks=(1,))
        report = run_eval(graphs, mismatch_qa(qa), config)
        assert report.cell(ChunkStrategy.FULL_JSON, 1).accuracy == 0.0
        assert report.cell(ChunkStrategy.PER_NODE, 1).accuracy == 0.0

    def test_monotone_in_k_and_category_denominators(self):
        spec = GenSpec(seed=51, decision_fraction=0.4, edge_value_probability=1.0)
        graphs = [generate_graph(spec, i) for i in range(12)]
        qa = []
        for graph in graphs:
            qa.extend(generate_qa(graph, 5, seed=51))
        config = EvalConfig(provider=LOCAL)
        report = run_eval(graphs, qa, config)
        for strategy in config.strategies:
            for category in report.categories + (ALL_CATEGORY,):
                accuracies = [
                    report.cells[(strategy, k, category)].accuracy for k in config.ks
                ]
                assert accuracies == sorted(accuracies)
        by_category = {}
        for qa_item in qa:
            by_category[qa_item.category.value] = (
                by_category.get(qa_item.category.value, 0) + 1
            )
        for strategy in config.strategies:
            for k in config.ks:
                for category, count in by_category.items():
                    assert report.cells[(strategy, k, category)].denominator == count
                all_cell = report.cells[(strategy, k, ALL_CATEGORY)]
                assert all_cell.denominator == len(qa)
                assert all_cell.numerator == sum(
                    report.cells[(strategy, k, c)].numerator for c in by_category
                )

    def test_skipped_connectors_warn_once(self, caplog):
        spec = GenSpec(seed=5)
        graphs = [generate_graph(spec, i) for i in range(20)]
        qa = [q for graph in graphs for q in generate_qa(graph, 2, seed=5)]
        empty = [(g.graph_id, n.id) for g in graphs for n in g.nodes if not n.value]
        assert len(empty) > 1
        with caplog.at_level(logging.WARNING, logger="flowrag.chunker"):
            run_eval(graphs, qa, EvalConfig(provider=LOCAL))
        assert [r.getMessage() for r in caplog.records] == [
            f"skipped {len(empty)} empty-value nodes under per-node chunking "
            f"(first: node {empty[0][1]!r} of graph {empty[0][0]!r})"
        ]

    def test_question_with_no_token_warns_once(self, caplog):
        # The local embedder reads only [0-9a-z] runs: "???" and "信号" embed
        # to the zero vector, so every chunk scores 0 against them.
        graphs, qa = disjoint_corpus(3)
        blank = [
            QaItem(question, graphs[i].graph_id, frozenset({"N1"}), QaCategory.NODE)
            for i, question in enumerate(("???", "信号", "???"))
        ]
        with caplog.at_level(logging.WARNING, logger="flowrag.evalharness"):
            report = run_eval(graphs, qa + blank, EvalConfig(provider=LOCAL))
        assert [r.getMessage() for r in caplog.records] == [
            "3 QA items ask a question that embeds to the zero vector (first: '???'); "
            "every chunk scores 0 against it, so its hits come in chunk-id order"
        ]
        scores = [
            hit.score for record in report.trace if record["question"] == "???"
            for hit in record["hits"]
        ]
        assert scores and set(scores) == {0.0}

    def test_text_chunks_never_increase_accuracy(self):
        graphs, qa = disjoint_corpus(8)
        # Text that reuses graph vocabulary so it actually competes.
        documents = tuple(
            f"Discussion of {graph.nodes[1].value}. More prose follows here."
            for graph in graphs[:4]
        )
        base = run_eval(graphs, qa, EvalConfig(provider=LOCAL))
        with_text = run_eval(
            graphs,
            qa,
            EvalConfig(
                provider=LOCAL,
                scenario=Scenario.GRAPH_WITH_TEXT,
                text_documents=documents,
            ),
        )
        assert with_text.metadata["text_chunk_count"] > 0
        for key, cell in with_text.cells.items():
            assert cell.numerator <= base.cells[key].numerator

    @pytest.mark.parametrize(
        "strategies, scenario",
        [
            ((ChunkStrategy.FULL_JSON,), Scenario.GRAPH_ONLY),
            ((ChunkStrategy.PER_NODE,), Scenario.GRAPH_ONLY),
            (EvalConfig.strategies, Scenario.GRAPH_WITH_TEXT),
        ],
        ids=["full-json", "per-node", "all-with-text"],
    )
    def test_corpus_hash_serializes_each_graph_once(self, monkeypatch, strategies, scenario):
        graphs, qa = disjoint_corpus(4)
        digest = hashlib.sha256()
        for graph in graphs:
            digest.update(serialize_json(graph) + b"\n")
        calls = []

        def counting(graph):
            calls.append(graph.graph_id)
            return serialize_json(graph)

        monkeypatch.setattr(chunker_module, "serialize_json", counting)
        monkeypatch.setattr(evalharness_module, "serialize_json", counting)
        config = EvalConfig(
            provider=LOCAL,
            strategies=strategies,
            ks=(1,),
            scenario=scenario,
            text_documents=("Some prose.",) if scenario is Scenario.GRAPH_WITH_TEXT else (),
        )
        report = run_eval(graphs, qa, config)
        assert report.metadata["corpus_hash"] == digest.hexdigest()
        assert sorted(calls) == sorted(g.graph_id for g in graphs)

    def test_missing_graph_ids_rejected(self):
        graphs, qa = disjoint_corpus(2)
        bad = qa + [item(graph_id="missing-graph")]
        with pytest.raises(DatasetError) as excinfo:
            run_eval(graphs, bad, EvalConfig(provider=LOCAL))
        assert "missing-graph" in str(excinfo.value)

    def test_empty_inputs_rejected(self):
        graphs, qa = disjoint_corpus(2)
        with pytest.raises(DatasetError):
            run_eval([], qa, EvalConfig(provider=LOCAL))
        with pytest.raises(DatasetError):
            run_eval(graphs, [], EvalConfig(provider=LOCAL))

    def test_deterministic_reports(self):
        graphs, qa = disjoint_corpus(6)
        config = EvalConfig(provider=LOCAL)
        a = run_eval(graphs, qa, config)
        b = run_eval(graphs, qa, config)
        assert render_report(a, ReportFormat.JSON) == render_report(b, ReportFormat.JSON)

    def test_transport_failure_aborts_with_partial(self, monkeypatch):
        monkeypatch.setattr(embed_module, "_BACKOFF_BASE_S", 0.001)
        graphs, qa = disjoint_corpus(3)
        # Requests: questions, strategy-1 chunks, then persistent failures.
        with StubEmbedServer(dimension=8, status_plan=[200, 200, 500, 500, 500]) as server:
            provider = ProviderConfig(
                kind=ProviderKind.REMOTE,
                endpoint=server.endpoint,
                model_name="stub",
                batch_size=1000,
                timeout_s=5.0,
            )
            config = EvalConfig(
                provider=provider,
                strategies=(ChunkStrategy.PER_NODE, ChunkStrategy.FULL_JSON),
                ks=(1,),
            )
            with pytest.raises(EvalAborted) as excinfo:
                run_eval(graphs, qa, config)
        partial = excinfo.value.partial
        assert partial is not None
        assert partial.cell(ChunkStrategy.PER_NODE, 1).denominator == len(qa)
        assert partial.cell(ChunkStrategy.FULL_JSON, 1).denominator == 0

    def test_abort_keeps_every_finished_strategy_cell(self, monkeypatch):
        spec = GenSpec(seed=51, decision_fraction=0.4, edge_value_probability=1.0)
        graphs = [generate_graph(spec, i) for i in range(12)]
        qa = [q for graph in graphs for q in generate_qa(graph, 5, seed=51)]
        config = EvalConfig(provider=LOCAL, ks=(1, 3))
        full = run_eval(graphs, qa, config)
        calls = []

        def failing_third_strategy(provider, texts):
            calls.append(len(texts))
            # Calls: the questions, then one per strategy.
            if len(calls) == 4:
                raise TransportError("connection reset", attempts=3)
            return embed_module.embed_batch(provider, texts)

        monkeypatch.setattr(evalharness_module, "embed_batch", failing_third_strategy)
        with pytest.raises(EvalAborted) as excinfo:
            run_eval(graphs, qa, config)
        partial = excinfo.value.partial
        assert partial.cells.keys() == full.cells.keys()
        for (strategy, k, category), cell in partial.cells.items():
            if strategy is ChunkStrategy.FULL_JSON:
                assert cell == Cell()
            else:
                assert cell == full.cells[(strategy, k, category)]
        assert len(partial.trace) == 2 * len(qa)
        assert any(cell.numerator for cell in partial.cells.values())

    def test_trace_written(self, tmp_path):
        graphs, qa = disjoint_corpus(2)
        config = EvalConfig(provider=LOCAL, strategies=(ChunkStrategy.PER_NODE,), ks=(1,))
        report = run_eval(graphs, qa, config)
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(report, path)
        assert count == len(qa)
        record = json.loads(path.read_text().splitlines()[0])
        assert set(record) == {"question", "graph_id", "category", "strategy", "hits", "judgments"}

    def test_trace_holds_the_hits_query_batch_returned(self):
        graphs, qa = disjoint_corpus(3)
        # The first question twice: its records share one hit list's objects.
        qa = qa + qa[:1]
        config = EvalConfig(provider=LOCAL, strategies=(ChunkStrategy.PER_NODE,), ks=(1, 3))
        report = run_eval(graphs, qa, config)
        assert len(report.trace) == len(qa)
        hits = [record["hits"] for record in report.trace]
        assert all(type(hit) is RetrievalHit for record_hits in hits for hit in record_hits)
        first, repeat = report.trace[0], report.trace[-1]
        assert first["question"] == repeat["question"]
        assert len(first["hits"]) == 3
        assert all(a is b for a, b in zip(first["hits"], repeat["hits"], strict=True))
        assert all(
            a is not b for a, b in zip(first["hits"], report.trace[1]["hits"], strict=True)
        )

    def test_each_distinct_question_is_ranked_once(self, monkeypatch):
        graphs, qa = disjoint_corpus(4)
        qa = qa + qa[:2] + qa[:1]  # the first question three times, the second twice
        calls = []
        query_batch = evalharness_module.VectorIndex.query_batch

        def recording(self, queries, k):
            calls.append(len(queries))
            return query_batch(self, queries, k)

        monkeypatch.setattr(evalharness_module.VectorIndex, "query_batch", recording)
        report = run_eval(graphs, qa, EvalConfig(provider=LOCAL, ks=(1, 3)))
        assert calls == [4] * 3  # once per strategy, one row per distinct question
        for strategy in ("per-node", "all-nodes", "full-json"):
            records = [r for r in report.trace if r["strategy"] == strategy]
            assert [r["question"] for r in records] == [item.question for item in qa]
            assert records[0]["hits"] is records[4]["hits"] is records[6]["hits"]
            assert records[1]["hits"] is records[5]["hits"]
            assert records[0]["hits"] is not records[1]["hits"]

    def test_records_share_one_judgments_dict_per_outcome(self):
        graphs, qa = disjoint_corpus(4)
        # Right and wrong gold graphs, so both outcomes occur.
        config = EvalConfig(provider=LOCAL, ks=(1, 3))
        report = run_eval(graphs, qa + mismatch_qa(qa), config)
        by_outcome: dict = {}
        for record in report.trace:
            outcome = tuple(record["judgments"].items())
            assert by_outcome.setdefault(outcome, record["judgments"]) is record["judgments"]
        assert (("1", True), ("3", True)) in by_outcome
        assert (("1", False), ("3", False)) in by_outcome


class TestEvalConfig:
    def test_ks_must_be_ascending_distinct(self):
        with pytest.raises(FlowragError):
            EvalConfig(provider=LOCAL, ks=(3, 1))
        with pytest.raises(FlowragError):
            EvalConfig(provider=LOCAL, ks=(1, 1, 3))

    def test_text_scenario_requires_documents(self):
        with pytest.raises(FlowragError):
            EvalConfig(provider=LOCAL, scenario=Scenario.GRAPH_WITH_TEXT)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ks", (1.5, 3), "each item of ks must be an integer, got 1.5"),
            ("ks", (True, 3), "each item of ks must be an integer, got True"),
            ("ks", 5, "ks must be an array, got 5"),
            ("text_max_chars", 800.0, "text_max_chars must be an integer, got 800.0"),
            ("text_overlap_chars", "100", "text_overlap_chars must be an integer, got '100'"),
            ("allnodes_union", 1, "allnodes_union must be true or false, got 1"),
            (
                "strategies",
                ("per-node",),
                "each item of strategies must be a ChunkStrategy, got 'per-node'",
            ),
            ("strategies", (), "at least one chunking strategy is required"),
            ("strategies", "per-node", "strategies must be an array, got 'per-node'"),
            ("scenario", "graph-only", "scenario must be a Scenario, got 'graph-only'"),
        ],
    )
    def test_constructor_checks_field_types(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            EvalConfig(provider=LOCAL, **{field: value})

    def test_from_file_reads_documents(self, tmp_path):
        (tmp_path / "doc.txt").write_text("Some accompanying text.", encoding="utf-8")
        config_path = tmp_path / "eval.json"
        config_path.write_text(
            json.dumps(
                {
                    "provider": {"kind": "local-hashed", "dimension": 64},
                    "ks": [1, 3],
                    "strategies": ["per-node"],
                    "scenario": "graph-with-text",
                    "text_documents": ["doc.txt"],
                }
            ),
            encoding="utf-8",
        )
        config = EvalConfig.from_file(config_path)
        assert config.text_documents == ("Some accompanying text.",)
        assert config.ks == (1, 3)
        assert config.strategies == (ChunkStrategy.PER_NODE,)

    def test_unreadable_document_is_dataset_error(self, tmp_path):
        data = {"scenario": "graph-with-text", "text_documents": ["missing.txt"]}
        with pytest.raises(DatasetError, match="cannot read text document .*missing.txt"):
            EvalConfig.from_dict(data, base_dir=tmp_path)


class TestRenderReport:
    def build_report(self):
        graphs, qa = disjoint_corpus(4)
        return run_eval(graphs, qa, EvalConfig(provider=LOCAL))

    def test_markdown_layout(self):
        report = self.build_report()
        text = render_report(report, ReportFormat.MARKDOWN)
        assert "## Retrieval accuracy: Graph structures only" in text
        assert "| Chunking approach | Top-1 | Top-3 | Top-5 |" in text
        for label in (
            "Each node as one chunk",
            "All nodes as one chunk",
            "Entire graph JSON as one chunk",
        ):
            assert label in text
        # One best value bolded per column (ties may bold several).
        assert "**" in text

    def test_bold_ties_all_marked(self):
        report = EvalReport(
            scenario=Scenario.GRAPH_ONLY,
            ks=(1,),
            strategies=(ChunkStrategy.PER_NODE, ChunkStrategy.FULL_JSON),
            categories=(),
            cells={
                (ChunkStrategy.PER_NODE, 1, ALL_CATEGORY): Cell(3, 4),
                (ChunkStrategy.FULL_JSON, 1, ALL_CATEGORY): Cell(6, 8),
            },
        )
        text = render_report(report, ReportFormat.MARKDOWN)
        assert text.count("**75.00%**") == 2

    def test_csv_flat(self):
        report = self.build_report()
        lines = render_report(report, ReportFormat.CSV).splitlines()
        assert lines[0] == "scenario,strategy,k,category,numerator,denominator,accuracy"
        assert len(lines) == 1 + len(report.cells)

    def test_json_lossless_round_trip(self):
        report = self.build_report()
        text = render_report(report, ReportFormat.JSON)
        recovered = EvalReport.from_dict(json.loads(text))
        assert recovered.cells == report.cells
        assert recovered.scenario == report.scenario
        assert recovered.metadata == report.metadata
