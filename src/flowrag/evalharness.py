"""Retrieval evaluation: per-strategy indexes, top-k judgment, reporting.

Each chunking strategy gets its own index so scores never interfere across
strategies. In the text-interspersed scenario the plain-text chunks join
every index; they can displace graph hits but never satisfy a judgment, so
accuracy can only move down relative to the graph-only scenario.

Each record of a run is judged once: the first rank at which its hits
answer the question decides its outcome at every k, and each strategy's
cells are summed from a tally of (category, outcomes). Each distinct
question is embedded once and ranked once per strategy. The trace repeats
values: a repeated question's records share one hit list, records with
equal outcomes share one judgments dict, and questions and graph ids recur
in every strategy. ``write_trace_jsonl`` encodes each such string, hit list
and judgments dict once per strategy and joins every line from those
fragments, so its bytes are ``jsonio.encode`` of the record. Its cache is
emptied when the strategy changes, because no hit list is shared across
strategies. On the retrieval benchmark's seed-3 inputs 5 841 records hold
461 distinct questions and 1 383 hit lists, one per question and strategy,
of which 1 131 differ in their hits; the trace is written in about 40 % of
the time a whole encoding of each record takes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from operator import attrgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from .chunker import Chunk, ChunkStrategy, chunk_graphs, chunk_text
from .embed import ProviderConfig, TransportError, embed_batch
from .errors import ConfigError, FlowragError
from .graph_model import FlowGraph, serialize_json
from .jsonio import config_kwargs, create, encode, expect, expect_list, member, read_json, shown
from .synthgen import QaCategory, QaItem
from .vstore import IndexEntry, RetrievalHit, VectorIndex

logger = logging.getLogger(__name__)


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
_NO_NODES: frozenset[str] = frozenset()


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
    return _first_correct_rank(strategy, hits, item, node_ids_by_graph, allnodes_union) <= k


def _first_correct_rank(
    strategy: ChunkStrategy,
    hits: list[RetrievalHit],
    item: QaItem,
    node_ids_by_graph: dict[str, set[str]],
    allnodes_union: bool,
) -> float:
    """The rank r from which the hits answer ``item``: the hits ranked at
    most k answer it exactly when r <= k. ``inf`` when no k gives an answer,
    ``-inf`` when every k does. This is the one judging rule: ``judge``
    compares it with one k, and ``run_eval`` places it among all its ks."""
    gold = item.gold_node_ids
    if strategy is ChunkStrategy.ALL_NODES and allnodes_union:
        # The union only grows with rank, so the first rank at which it
        # covers the gold set is r; an empty gold set needs no hit.
        if not gold:
            return -math.inf
        covered: set[str] = set()
        for h in sorted(hits, key=attrgetter("rank")):
            if h.graph_id is not None:
                covered |= node_ids_by_graph.get(h.graph_id, _NO_NODES)
                if gold <= covered:
                    return h.rank
        return math.inf
    first = math.inf
    if strategy is ChunkStrategy.PER_NODE:
        for h in hits:
            if h.rank < first and h.graph_id is not None and h.graph_id == item.graph_id:
                if h.node_id in gold:
                    first = h.rank
    elif strategy is ChunkStrategy.ALL_NODES:
        for h in hits:
            if h.rank < first and h.graph_id is not None:
                if gold <= node_ids_by_graph.get(h.graph_id, _NO_NODES):
                    first = h.rank
    else:
        for h in hits:
            if h.rank < first and h.graph_id is not None and h.graph_id == item.graph_id:
                first = h.rank
    return first


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
    every k, and aggregate per category and overall.

    Each distinct question text is embedded once and ranked once per
    strategy, by one ``query_batch`` call; the records of a repeated
    question hold its one hit list. A QA item whose graph is not in the
    corpus, or whose question is empty, is a ``DatasetError`` before
    anything is embedded. Questions that embed to the zero vector, whose
    hits all score 0, get one logged warning: their count and the first."""
    if not graphs:
        raise DatasetError("graph corpus is empty")
    if not qa:
        raise DatasetError("QA set is empty")
    known_ids = {g.graph_id for g in graphs}
    missing = sorted({item.graph_id for item in qa} - known_ids)
    if missing:
        raise DatasetError(
            f"QA items reference graph ids missing from the corpus ({len(missing)} in all), "
            f"the first {shown(missing[0])}"
        )
    # Each distinct question is embedded and ranked once; a record reads its
    # question's hits through its slot.
    slot_of: dict[str, int] = {}
    slots = []
    for position, item in enumerate(qa, start=1):
        if not item.question:
            raise DatasetError(
                f"QA item {position} (graph {shown(item.graph_id)}) has an empty question"
            )
        slots.append(slot_of.setdefault(item.question, len(slot_of)))
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
    # A record is right at every k from its first correct rank on, so the
    # number of ks it is wrong at names its outcomes: records share one
    # judgments dict per such number, and each strategy's cells are summed
    # from a tally of (category, that number).
    judgments_of = [
        {str(k): i >= wrong for i, k in enumerate(config.ks)}
        for wrong in range(len(config.ks) + 1)
    ]
    try:
        question_vectors = embed_batch(config.provider, list(slot_of))
    except TransportError as exc:
        raise EvalAborted(f"question embedding failed: {exc}", partial=None) from exc
    questions = np.stack([v.as_array() for v in question_vectors])
    del question_vectors
    zero = ~questions.any(axis=1)
    if zero.any():
        # Slots are numbered in first-seen order, so the first zero slot is
        # the first such question in the QA set.
        logger.warning(
            "%d QA items ask a question that embeds to the zero vector (first: %s); "
            "every chunk scores 0 against it, so its hits come in chunk-id order",
            int(zero[slots].sum()),
            shown(list(slot_of)[int(np.argmax(zero))]),
        )

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
        name = strategy.value
        tally: Counter[tuple[str, int]] = Counter()
        # Records hold the hit lists query_batch returned (a repeated
        # question's records share one) and are encoded only when the trace
        # is written.
        ranked = index.query_batch(questions, kmax)
        for item, slot in zip(qa, slots):
            hits = ranked[slot]
            wrong = bisect_left(
                config.ks,
                _first_correct_rank(strategy, hits, item, node_ids_by_graph, config.allnodes_union),
            )
            category = item.category.value
            tally[category, wrong] += 1
            trace.append(
                {
                    "question": item.question,
                    "graph_id": item.graph_id,
                    "category": category,
                    "strategy": name,
                    "hits": hits,
                    "judgments": judgments_of[wrong],
                }
            )
        # Folded before the next strategy embeds, so a partial report holds
        # every finished strategy's cells.
        for (category, wrong), count in tally.items():
            for i, k in enumerate(config.ks):
                for cell in (cells[(strategy, k, category)], cells[(strategy, k, ALL_CATEGORY)]):
                    cell.denominator += count
                    if i >= wrong:
                        cell.numerator += count
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
    """Write each trace record as one ``jsonio.encode`` line. Returns the
    count.

    A dict record's line is joined from cached fragments: one prefix per
    tuple of keys, and one encoding per string value, per list value (keyed
    by the identity of its items) and per dict value (keyed by its own
    identity). Other values are encoded where they stand: ``True``, ``1``
    and ``1.0`` are equal keys but different JSON. The cache holds each
    keyed value, so an identity is never reused while it is cached. It is
    emptied whenever the record's ``"strategy"`` changes: no hit list is
    shared across strategies, so one cache for the whole write would only
    hold every strategy's encoded hits at once. The saving follows how often
    values repeat; where nearly every hit list is distinct, a line costs a
    few percent more than encoding the record whole.
    """
    count = 0
    heads_of: dict[tuple, list[bytes] | None] = {}
    encoded: dict = {}
    strategy = None
    with create(path) as fh:
        for record in report.trace:
            count += 1
            heads = None
            if type(record) is dict:
                keys = tuple(record)
                heads = heads_of.get(keys)
                if heads is None and keys not in heads_of:
                    heads = heads_of[keys] = _key_heads(keys)
            if heads is None:
                fh.write(encode(record) + b"\n")
                continue
            if record.get("strategy") != strategy:
                strategy = record.get("strategy")
                encoded.clear()
            parts = []
            for head, value in zip(heads, record.values()):
                parts.append(head)
                kind = type(value)
                if kind is str:
                    key = value
                elif kind is list:
                    key = tuple(map(id, value))
                elif kind is dict:
                    key = id(value)
                else:
                    parts.append(encode(value))
                    continue
                cached = encoded.get(key)
                if cached is None:
                    cached = encoded[key] = (value, encode(value))
                parts.append(cached[1])
            parts.append(b"}\n")
            fh.write(b"".join(parts))
    return count


def _key_heads(keys: tuple) -> list[bytes] | None:
    """The bytes before each value of a record with these keys, in order:
    ``{"first":``, then ``,"next":``. None unless there is a key and every
    key is a string; such a record is encoded whole."""
    if not keys or any(type(key) is not str for key in keys):
        return None
    return [(b"," if i else b"{") + encode(key) + b":" for i, key in enumerate(keys)]

