"""``retrieval``: the ``flowrag eval`` path at the ROADMAP "quick" size.

``flowrag gen --count 2000 --split 64/16/20 --qa-per-graph 5`` builds the
inputs (400 test graphs, about 1 960 questions). The timed pass is what
``flowrag eval`` does with a local-hashed dim-256 config, all three
strategies, graph-only: read both files, ``run_eval``, render md/csv/json,
write ``trace.jsonl``.

The traced pass rebuilds ``run_eval`` from the calls it makes
(``chunk_graph``, ``embed_batch``, ``VectorIndex.upsert``/``query``,
``judge``) with a span around each, and must write byte-identical reports.
"""
from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

import flowrag.chunker as chunker_module
from flowrag.chunker import ChunkStrategy, chunk_graph
from flowrag.embed import embed_batch
from flowrag.evalharness import (
    ALL_CATEGORY,
    Cell,
    EvalConfig,
    EvalReport,
    ReportFormat,
    judge,
    render_report,
    run_eval,
    write_trace_jsonl,
)
from flowrag.graph_model import read_graphs_jsonl, serialize_json
from flowrag.synthgen import (
    GenSpec,
    QaCategory,
    SplitConfig,
    generate_corpus,
    generate_graph,
    generate_qa,
    read_qa_jsonl,
    write_qa_jsonl,
)
from flowrag.vstore import IndexEntry, VectorIndex

from oracle import ScanOracle, hits_match, tie_at_k

GRAPHS = 2000
SPLIT = "64/16/20"
QA_PER_GRAPH = 5
EVAL_CONFIG = {"provider": {"kind": "local-hashed", "dimension": 256}}
_REPORTS = (
    (ReportFormat.MARKDOWN, "report.md"),
    (ReportFormat.CSV, "report.csv"),
    (ReportFormat.JSON, "report.json"),
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _vector_rows(vectors) -> np.ndarray:
    return np.array([v.values for v in vectors], dtype=np.float32)


class Workload:
    def __init__(self, work_dir: Path, seed: int):
        self.dir = work_dir
        self.seed = seed
        self.corpus = work_dir / "corpus"

    def setup(self, tracer) -> None:
        """``flowrag gen``: three splits, QA over the test split, eval config."""
        spec = GenSpec(seed=self.seed)
        with tracer.span("synthgen.generate_corpus"):
            manifest = generate_corpus(spec, GRAPHS, SplitConfig.parse(SPLIT), self.corpus)
        qa = []
        for index in range(manifest.train + manifest.validation, manifest.count):
            with tracer.span("synthgen.generate_graph"):
                graph = generate_graph(spec, index)
            with tracer.span("synthgen.generate_qa"):
                qa.extend(generate_qa(graph, QA_PER_GRAPH, spec.seed))
        with tracer.span("synthgen.write_qa_jsonl"):
            write_qa_jsonl(qa, self.corpus / "qa.jsonl")
        tracer.count("synthgen.graphs", manifest.count + manifest.test)
        tracer.count("synthgen.qa_items", len(qa))
        (self.dir / "eval.json").write_text(json.dumps(EVAL_CONFIG), encoding="utf-8")

    def _write_outputs(self, report: EvalReport, out: Path, tracer) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for fmt, filename in _REPORTS:
            with tracer.span("evalharness.render_report"):
                text = render_report(report, fmt)
            (out / filename).write_text(text, encoding="utf-8")
        with tracer.span("evalharness.write_trace_jsonl"):
            write_trace_jsonl(report, out / "trace.jsonl")

    def run_pass(self, tracer) -> dict:
        """``flowrag eval``, timed from reading the inputs to the last byte."""
        out = self.dir / "eval-out"
        started = time.perf_counter()
        graphs = read_graphs_jsonl(self.corpus / "graphs.test.jsonl")
        qa = read_qa_jsonl(self.corpus / "qa.jsonl")
        config = EvalConfig.from_file(self.dir / "eval.json")
        report = run_eval(graphs, qa, config)
        self._write_outputs(report, out, tracer)
        elapsed = time.perf_counter() - started
        return {
            "command_s": elapsed,
            "phases": {"eval_s": elapsed},
            "output": (_sha256(out / "report.json"), _sha256(out / "trace.jsonl")),
        }

    def traced_pass(self, tracer) -> dict:
        """``run_eval`` rebuilt from its calls, a span around each one."""
        out = self.dir / "eval-traced"
        original_serialize = chunker_module.serialize_json

        def traced_serialize(graph):
            with tracer.span("graph_model.serialize_json"):
                return original_serialize(graph)

        chunker_module.serialize_json = traced_serialize
        try:
            started = time.perf_counter()
            with tracer.span("graph_model.read_graphs_jsonl"):
                graphs = read_graphs_jsonl(self.corpus / "graphs.test.jsonl")
            with tracer.span("synthgen.read_qa_jsonl"):
                qa = read_qa_jsonl(self.corpus / "qa.jsonl")
            with tracer.span("evalharness.EvalConfig.from_file"):
                config = EvalConfig.from_file(self.dir / "eval.json")
            report = self._rebuilt_run_eval(graphs, qa, config, tracer)
            self._write_outputs(report, out, tracer)
            elapsed = time.perf_counter() - started
        finally:
            chunker_module.serialize_json = original_serialize
        tracer.count("evalharness.trace_bytes", (out / "trace.jsonl").stat().st_size)
        return {
            "command_s": elapsed,
            "output": (_sha256(out / "report.json"), _sha256(out / "trace.jsonl")),
        }

    def _rebuilt_run_eval(self, graphs, qa, config: EvalConfig, tracer) -> EvalReport:
        """Mirrors ``run_eval`` for the graph-only scenario the config uses."""
        node_ids_by_graph = {g.graph_id: g.node_ids() for g in graphs}
        categories = tuple(
            c.value for c in (QaCategory.DECISION, QaCategory.NODE, QaCategory.EDGE)
            if any(item.category is c for item in qa)
        )
        kmax = max(config.ks)
        cells = {
            (s, k, c): Cell()
            for s in config.strategies for k in config.ks for c in categories + (ALL_CATEGORY,)
        }
        questions = [item.question for item in qa]
        with tracer.span("embed.embed_batch"):
            question_vectors = embed_batch(config.provider, questions)
        tracer.count("embed.texts", len(questions))
        tracer.seen("embed.texts", questions)
        trace = []
        for strategy in config.strategies:
            chunks = []
            for graph in graphs:
                with tracer.span("chunker.chunk_graph"):
                    got = chunk_graph(graph, strategy)
                if strategy is ChunkStrategy.PER_NODE:
                    tracer.count("chunker.empty_skipped", len(graph.nodes) - len(got))
                chunks.extend(got)
            tracer.count(f"chunker.chunks.{strategy.value}", len(chunks))
            texts = [c.text for c in chunks]
            with tracer.span("embed.embed_batch"):
                vectors = embed_batch(config.provider, texts)
            tracer.count("embed.texts", len(texts))
            tracer.seen("embed.texts", texts)
            index = VectorIndex()
            entries = [IndexEntry(chunk=c, vector=v) for c, v in zip(chunks, vectors)]
            with tracer.span("vstore.upsert"):
                index.upsert(entries)
            tracer.count("vstore.rows", len(entries))
            for i, (item, question_vector) in enumerate(zip(qa, question_vectors)):
                run_id = f"{strategy.value}:{i}"
                with tracer.span(f"vstore.query.{strategy.value}", run_id=run_id):
                    hits = index.query(question_vector, kmax)
                tracer.count("vstore.queries")
                judgments = {}
                for k in config.ks:
                    with tracer.span("evalharness.judge", run_id=run_id):
                        correct = judge(
                            strategy, hits, item, k, node_ids_by_graph, config.allnodes_union
                        )
                    judgments[k] = correct
                    for category in (item.category.value, ALL_CATEGORY):
                        cell = cells[(strategy, k, category)]
                        cell.denominator += 1
                        cell.numerator += int(correct)
                trace.append({
                    "question": item.question,
                    "graph_id": item.graph_id,
                    "category": item.category.value,
                    "strategy": strategy.value,
                    "hits": [h.to_dict() for h in hits],
                    "judgments": {str(k): v for k, v in judgments.items()},
                })
        digest = hashlib.sha256()
        for graph in graphs:
            with tracer.span("graph_model.serialize_json"):
                digest.update(serialize_json(graph))
            digest.update(b"\n")
        return EvalReport(
            scenario=config.scenario,
            ks=config.ks,
            strategies=config.strategies,
            categories=categories,
            cells=cells,
            metadata={
                "provider": config.provider.describe(),
                "corpus_hash": digest.hexdigest(),
                "graph_count": len(graphs),
                "question_count": len(qa),
                "allnodes_union": config.allnodes_union,
                "text_chunk_count": 0,
            },
            trace=tuple(trace),
        )

    def check(self, passes: list[dict], tracer) -> tuple[int, int, dict]:
        """Every trace record of the last pass against a linear-scan oracle,
        and the report cells against judgments recomputed from the checked
        hits. Returns
        (attempted, failed, fingerprints)."""
        out = self.dir / "eval-out"
        graphs = read_graphs_jsonl(self.corpus / "graphs.test.jsonl")
        qa = read_qa_jsonl(self.corpus / "qa.jsonl")
        config = EvalConfig.from_file(self.dir / "eval.json")
        with open(out / "trace.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))

        node_ids = {g.graph_id: g.node_ids() for g in graphs}
        kmax = max(config.ks)
        questions = sorted({item.question for item in qa})
        qrow = {q: i for i, q in enumerate(questions)}
        qmatrix = _vector_rows(embed_batch(config.provider, questions))
        queries = qmatrix[[qrow[item.question] for item in qa]]
        attempted = failed = ties = 0
        cells: Counter = Counter()
        for strategy in config.strategies:
            chunks = [c for g in graphs for c in chunk_graph(g, strategy)]
            distinct = sorted({c.text for c in chunks})
            row_of = {t: i for i, t in enumerate(distinct)}
            matrix = _vector_rows(embed_batch(config.provider, distinct))
            rows = matrix[[row_of[c.text] for c in chunks]]
            by_id = {c.chunk_id: c for c in chunks}
            oracle = ScanOracle([c.chunk_id for c in chunks], rows)
            rankings = oracle.rank(queries, kmax)
            for item, ranking in zip(qa, rankings):
                ties += tie_at_k(ranking, kmax)
                record = records[attempted] if attempted < len(records) else None
                attempted += 1
                hits = [(h["chunk_id"], h["score"]) for h in record["hits"]] if record else []
                hits_ok = (
                    record is not None
                    and record["question"] == item.question
                    and record["strategy"] == strategy.value
                    and hits_match(oracle, hits, ranking, kmax)
                )
                # Judged from the checked hits: a near-tie the index may
                # order either way can decide a judgment at the last place.
                judged = hits if hits_ok else ranking[:kmax]
                judgments = {}
                for k in config.ks:
                    top = [by_id[cid] for cid, _ in judged[:k]]
                    if strategy is ChunkStrategy.PER_NODE:
                        ok = any(c.graph_id == item.graph_id and c.node_id in item.gold_node_ids
                                 for c in top)
                    elif strategy is ChunkStrategy.ALL_NODES:
                        ok = any(item.gold_node_ids <= node_ids[c.graph_id] for c in top)
                    else:
                        ok = any(c.graph_id == item.graph_id for c in top)
                    judgments[str(k)] = ok
                    for category in (item.category.value, ALL_CATEGORY):
                        cells[(strategy.value, k, category, "n")] += int(ok)
                        cells[(strategy.value, k, category, "d")] += 1
                failed += not hits_ok or record["judgments"] != judgments
        tracer.count("vstore.kboundary_ties", ties)
        tracer.count("oracle.queries", attempted)
        reported = {
            (row["strategy"], row["k"], row["category"], part): row[key]
            for row in report["cells"]
            for part, key in (("n", "numerator"), ("d", "denominator"))
        }
        if reported != dict(cells) or len(records) != attempted:
            failed = attempted
        fingerprints = {
            "report_json": passes[0]["output"][0],
            "trace_jsonl": passes[0]["output"][1],
            "corpus": _sha256(self.corpus / "graphs.test.jsonl"),
        }
        return attempted, failed, fingerprints
