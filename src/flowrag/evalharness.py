"""Retrieval evaluation: per-strategy indexes, top-k judgment, reporting.

Each chunking strategy gets its own index so scores never interfere across
strategies. In the text-interspersed scenario the plain-text chunks join
every index; they can displace graph hits but never satisfy a judgment, so
accuracy can only move down relative to the graph-only scenario.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from pathlib import Path
from typing import Iterable

import numpy as np

from .chunker import Chunk, ChunkStrategy, chunk_graphs, chunk_text
from .embed import ProviderConfig, TransportError, embed_batch
from .errors import ConfigError, FlowragError
from .graph_model import FlowGraph, serialize_json
from .jsonio import config_kwargs, expect, expect_list, member, read_json, shown, write_jsonl
from .synthgen import QaCategory, QaItem
from .vstore import IndexEntry, RetrievalHit, VectorIndex


class DatasetError(FlowragError):
    pass


class EvalAborted(FlowragError):
    """Provider failure mid-run; carries whatever was already computed."""

    def __init__(self, message: str, partial: "EvalReport | None"):
        super().__init__(message)
        self.partial = partial


class Scenario(Enum):
    GRAPH_ONLY = "graph-only"
    GRAPH_WITH_TEXT = "graph-with-text"


_STRATEGY_LABELS = {
    ChunkStrategy.PER_NODE: "Each node as one chunk",
    ChunkStrategy.ALL_NODES: "All nodes as one chunk",
    ChunkStrategy.FULL_JSON: "Entire graph JSON as one chunk",
}

_SCENARIO_LABELS = {
    Scenario.GRAPH_ONLY: "Graph structures only",
    Scenario.GRAPH_WITH_TEXT: "Graph structures interspersed with text",
}

ALL_CATEGORY = "All"


@dataclass(frozen=True)
class EvalConfig:
    provider: ProviderConfig
    ks: tuple[int, ...] = (1, 3, 5)
    strategies: tuple[ChunkStrategy, ...] = (
        ChunkStrategy.PER_NODE,
        ChunkStrategy.ALL_NODES,
        ChunkStrategy.FULL_JSON,
    )
    scenario: Scenario = Scenario.GRAPH_ONLY
    text_documents: tuple[str, ...] = ()
    allnodes_union: bool = False
    text_max_chars: int = 800
    text_overlap_chars: int = 100

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(expect_list(self.ks, int, "ks")))
        for key, kind in (
            ("allnodes_union", bool), ("text_max_chars", int), ("text_overlap_chars", int)
        ):
            expect(getattr(self, key), kind, key)
        strategies = tuple(expect_list(self.strategies, ChunkStrategy, "strategies"))
        object.__setattr__(self, "strategies", strategies)
        expect(self.scenario, Scenario, "scenario")
        object.__setattr__(self, "text_documents", tuple(self.text_documents))
        if not self.ks or list(self.ks) != sorted(set(self.ks)) or self.ks[0] < 1:
            raise FlowragError(f"ks must be distinct ascending positive, got {shown(self.ks)}")
        if not self.strategies:
            raise ConfigError("at least one chunking strategy is required")
        if self.scenario is Scenario.GRAPH_WITH_TEXT and not self.text_documents:
            raise FlowragError("graph-with-text scenario requires text documents")

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | Path = ".") -> "EvalConfig":
        kwargs = config_kwargs(cls, data, "eval config")
        kwargs["provider"] = ProviderConfig.from_dict(kwargs.get("provider", {}))
        if "strategies" in kwargs:
            names = expect_list(kwargs["strategies"], str, "strategies")
            kwargs["strategies"] = [
                member(name, ChunkStrategy, "each item of strategies") for name in names
            ]
        if "scenario" in kwargs:
            kwargs["scenario"] = member(kwargs["scenario"], Scenario, "scenario")
        if "text_documents" in kwargs:
            texts = []
            for rel in expect_list(kwargs["text_documents"], str, "text_documents"):
                doc_path = Path(base_dir) / rel
                try:
                    texts.append(doc_path.read_text(encoding="utf-8"))
                except OSError as exc:
                    raise DatasetError(f"cannot read text document {doc_path}: {exc}") from exc
            kwargs["text_documents"] = texts
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "EvalConfig":
        return cls.from_dict(read_json(path), base_dir=Path(path).parent)


@dataclass
class Cell:
    numerator: int = 0
    denominator: int = 0

    @property
    def accuracy(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0


@dataclass(frozen=True)
class EvalReport:
    scenario: Scenario
    ks: tuple[int, ...]
    strategies: tuple[ChunkStrategy, ...]
    categories: tuple[str, ...]  # category letters present in the QA set
    cells: dict = field(default_factory=dict)  # (strategy, k, category) -> Cell
    metadata: dict = field(default_factory=dict)
    trace: tuple = ()  # one dict per (strategy, question); hits are RetrievalHits or dicts

    def cell(self, strategy: ChunkStrategy, k: int, category: str = ALL_CATEGORY) -> Cell:
        return self.cells[(strategy, k, category)]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.value,
            "ks": list(self.ks),
            "strategies": [s.value for s in self.strategies],
            "categories": list(self.categories),
            "cells": [
                {
                    "strategy": strategy.value,
                    "k": k,
                    "category": category,
                    "numerator": cell.numerator,
                    "denominator": cell.denominator,
                    "accuracy": cell.accuracy,
                }
                for (strategy, k, category), cell in sorted(
                    self.cells.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])
                )
            ],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        """The report :meth:`to_dict` wrote; anything else is a FlowragError."""
        expect(data, dict, "an evaluation report")
        try:
            cells = {}
            for row in expect_list(data["cells"], dict, "cells"):
                key = (
                    member(row["strategy"], ChunkStrategy, "strategy"),
                    expect(row["k"], int, "k"),
                    expect(row["category"], str, "category"),
                )
                cells[key] = Cell(
                    numerator=expect(row["numerator"], int, "numerator"),
                    denominator=expect(row["denominator"], int, "denominator"),
                )
            report = cls(
                scenario=member(data["scenario"], Scenario, "scenario"),
                ks=tuple(expect_list(data["ks"], int, "ks")),
                strategies=tuple(
                    member(name, ChunkStrategy, "each item of strategies")
                    for name in expect_list(data["strategies"], str, "strategies")
                ),
                categories=tuple(expect_list(data["categories"], str, "categories")),
                cells=cells,
                metadata=dict(data.get("metadata", {})),
            )
        except KeyError as exc:
            raise FlowragError(f"evaluation report lacks {exc}") from exc
        except (TypeError, ConfigError) as exc:
            raise FlowragError(f"malformed evaluation report: {exc}") from exc
        if not report.ks or not report.strategies:
            raise FlowragError("malformed evaluation report: ks and strategies must not be empty")
        categories = report.categories + (ALL_CATEGORY,)
        for strategy, k, category in product(report.strategies, report.ks, categories):
            if (strategy, k, category) not in cells:
                raise FlowragError(
                    f"evaluation report lacks the cell ({strategy.value}, k={k}, {category})"
                )
        return report


def judge(
    strategy: ChunkStrategy,
    hits: list[RetrievalHit],
    item: QaItem,
    k: int,
    node_ids_by_graph: dict[str, set[str]],
    allnodes_union: bool = False,
) -> bool:
    """Strategy-specific correctness of the top-k hits for one question.

    Text chunks carry no graph id and never satisfy any criterion.
    """
    within = [h for h in hits if h.rank <= k and h.graph_id is not None]
    if strategy is ChunkStrategy.PER_NODE:
        return any(
            h.graph_id == item.graph_id and h.node_id in item.gold_node_ids
            for h in within
        )
    if strategy is ChunkStrategy.ALL_NODES:
        if allnodes_union:
            covered: set[str] = set()
            for h in within:
                covered |= node_ids_by_graph.get(h.graph_id, set())
            return item.gold_node_ids <= covered
        return any(
            item.gold_node_ids <= node_ids_by_graph.get(h.graph_id, set())
            for h in within
        )
    return any(h.graph_id == item.graph_id for h in within)


def _corpus_hash(documents: Iterable[bytes]) -> str:
    """SHA-256 of the graphs' serialized documents, each followed by a
    newline."""
    digest = hashlib.sha256()
    for document in documents:
        digest.update(document)
        digest.update(b"\n")
    return digest.hexdigest()


def run_eval(
    graphs: list[FlowGraph], qa: list[QaItem], config: EvalConfig
) -> EvalReport:
    """Index each strategy's chunks, retrieve for every question, judge at
    every k, and aggregate per category and overall."""
    if not graphs:
        raise DatasetError("graph corpus is empty")
    if not qa:
        raise DatasetError("QA set is empty")
    known_ids = {g.graph_id for g in graphs}
    missing = sorted({item.graph_id for item in qa} - known_ids)
    if missing:
        raise DatasetError(f"QA items reference graphs missing from the corpus: {missing}")
    node_ids_by_graph = {g.graph_id: g.node_ids() for g in graphs}
    categories = tuple(
        c.value for c in (QaCategory.DECISION, QaCategory.NODE, QaCategory.EDGE)
        if any(item.category is c for item in qa)
    )
    kmax = max(config.ks)

    text_chunks: list[Chunk] = []
    if config.scenario is Scenario.GRAPH_WITH_TEXT:
        for i, document in enumerate(config.text_documents):
            text_chunks.extend(
                chunk_text(
                    document,
                    config.text_max_chars,
                    config.text_overlap_chars,
                    doc_id=f"doc{i:03d}",
                )
            )

    # Full-json chunks are the serialized graphs, in corpus order; when that
    # strategy runs, the corpus hash reads them instead of serializing again.
    corpus_hash = None

    cells: dict = {}
    for strategy in config.strategies:
        for k in config.ks:
            for category in categories + (ALL_CATEGORY,):
                cells[(strategy, k, category)] = Cell()

    def build_report(trace: list[dict]) -> EvalReport:
        return EvalReport(
            scenario=config.scenario,
            ks=config.ks,
            strategies=config.strategies,
            categories=categories,
            cells=cells,
            metadata={
                "provider": config.provider.describe(),
                "corpus_hash": corpus_hash or _corpus_hash(map(serialize_json, graphs)),
                "graph_count": len(graphs),
                "question_count": len(qa),
                "allnodes_union": config.allnodes_union,
                "text_chunk_count": len(text_chunks),
            },
            trace=tuple(trace),
        )

    trace: list[dict] = []
    # One judgments dict per tuple of outcomes, at most 2 ** len(ks), shared
    # by every record with those outcomes.
    judgments_of: dict[tuple[bool, ...], dict[str, bool]] = {}
    try:
        question_vectors = embed_batch(config.provider, [item.question for item in qa])
    except TransportError as exc:
        raise EvalAborted(f"question embedding failed: {exc}", partial=None) from exc
    questions = np.stack([v.as_array() for v in question_vectors])
    del question_vectors

    for strategy in config.strategies:
        chunks = chunk_graphs(graphs, strategy) + text_chunks
        if strategy is ChunkStrategy.FULL_JSON:
            corpus_hash = _corpus_hash(c.text.encode("utf-8") for c in chunks[: len(graphs)])
        try:
            vectors = embed_batch(config.provider, [c.text for c in chunks])
        except TransportError as exc:
            raise EvalAborted(
                f"chunk embedding failed for strategy {strategy.value}: {exc}",
                partial=build_report(trace),
            ) from exc
        index = VectorIndex()
        index.upsert(
            [IndexEntry(chunk=c, vector=v) for c, v in zip(chunks, vectors)]
        )
        del vectors
        # Records hold the hits query_batch returned (a repeated question's
        # records share them) and are encoded only when the trace is written.
        for item, hits in zip(qa, index.query_batch(questions, kmax)):
            outcomes = tuple(
                judge(strategy, hits, item, k, node_ids_by_graph, config.allnodes_union)
                for k in config.ks
            )
            for k, correct in zip(config.ks, outcomes):
                for category in (item.category.value, ALL_CATEGORY):
                    cell = cells[(strategy, k, category)]
                    cell.denominator += 1
                    if correct:
                        cell.numerator += 1
            judgments = judgments_of.get(outcomes)
            if judgments is None:
                judgments = judgments_of[outcomes] = {
                    str(k): correct for k, correct in zip(config.ks, outcomes)
                }
            trace.append(
                {
                    "question": item.question,
                    "graph_id": item.graph_id,
                    "category": item.category.value,
                    "strategy": strategy.value,
                    "hits": hits,
                    "judgments": judgments,
                }
            )
    return build_report(trace)


class ReportFormat(Enum):
    MARKDOWN = "markdown"
    CSV = "csv"
    JSON = "json"


def _format_cell(cell: Cell, best: float) -> str:
    text = f"{cell.accuracy * 100:.2f}%"
    if cell.denominator and abs(cell.accuracy - best) < 1e-12:
        return f"**{text}**"
    return text


def _markdown_table(
    report: EvalReport, columns: list[tuple[int, str | None]], title: str
) -> str:
    """One table: strategy rows by (k, category) columns, best per column
    bolded (ties all bolded)."""

    def cell_for(strategy: ChunkStrategy, k: int, category: str | None) -> Cell:
        return report.cells[(strategy, k, category or ALL_CATEGORY)]

    headers = ["Chunking approach"]
    for k, category in columns:
        headers.append(f"Top-{k}" if category is None else f"Top-{k} {category}")
    lines = [f"### {title}", ""]
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "---|" * len(headers))
    best = {
        (k, category): max(
            cell_for(s, k, category).accuracy for s in report.strategies
        )
        for k, category in columns
    }
    for strategy in report.strategies:
        row = [_STRATEGY_LABELS[strategy]]
        for k, category in columns:
            row.append(_format_cell(cell_for(strategy, k, category), best[(k, category)]))
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def render_report(report: EvalReport, fmt: ReportFormat = ReportFormat.MARKDOWN) -> str:
    if fmt is ReportFormat.JSON:
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if fmt is ReportFormat.CSV:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ["scenario", "strategy", "k", "category", "numerator", "denominator", "accuracy"]
        )
        for cell in report.to_dict()["cells"]:
            writer.writerow(
                [
                    report.scenario.value,
                    cell["strategy"],
                    cell["k"],
                    cell["category"],
                    cell["numerator"],
                    cell["denominator"],
                    f"{cell['accuracy']:.6f}",
                ]
            )
        return buffer.getvalue()

    sections = [f"## Retrieval accuracy: {_SCENARIO_LABELS[report.scenario]}", ""]
    overall = _markdown_table(
        report, [(k, None) for k in report.ks], "All questions"
    )
    sections.append(overall)
    if report.categories:
        columns = [(k, c) for k in report.ks for c in report.categories]
        sections.append("")
        sections.append(_markdown_table(report, columns, "By question category"))
    return "\n".join(sections) + "\n"


def write_trace_jsonl(report: EvalReport, path: str | Path) -> int:
    return write_jsonl(path, report.trace)
