"""Chunking: map graphs (three strategies) and plain text into embeddable
units.

Graph strategies:
  per-node   one chunk per node, the node's text alone
  all-nodes  one chunk, every node text joined by newlines (no edge text)
  full-json  one chunk, the entire serialized graph document

The all-nodes/full-json asymmetry (edge labels only in full-json) is
deliberate: the two strategies embed different slices of the graph.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import FlowragError
from .graph_model import FlowGraph, serialize_json
from .jsonio import expect, member, read_jsonl, shown, write_jsonl

logger = logging.getLogger(__name__)


class ChunkStrategy(Enum):
    PER_NODE = "per-node"
    ALL_NODES = "all-nodes"
    FULL_JSON = "full-json"


class SourceKind(Enum):
    GRAPH = "graph"
    TEXT = "text"


class ChunkError(FlowragError):
    pass


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    text: str
    source_kind: SourceKind
    graph_id: str | None = None
    node_id: str | None = None
    strategy: ChunkStrategy | None = None

    def to_dict(self) -> dict:
        obj: dict = {
            "chunk_id": self.chunk_id,
            "text": self.text,
            "source_kind": self.source_kind.value,
        }
        if self.graph_id is not None:
            obj["graph_id"] = self.graph_id
        if self.node_id is not None:
            obj["node_id"] = self.node_id
        if self.strategy is not None:
            obj["strategy"] = self.strategy.value
        return obj

    @classmethod
    def from_dict(cls, data: dict) -> "Chunk":
        expect(data, dict, "a chunk")
        return cls(
            chunk_id=expect(data["chunk_id"], str, "chunk_id"),
            text=expect(data["text"], str, "text"),
            source_kind=member(data["source_kind"], SourceKind, "source_kind"),
            graph_id=expect(data.get("graph_id"), (str, type(None)), "graph_id"),
            node_id=expect(data.get("node_id"), (str, type(None)), "node_id"),
            strategy=(
                member(data["strategy"], ChunkStrategy, "strategy")
                if data.get("strategy")
                else None
            ),
        )


def chunk_graph(graph: FlowGraph, strategy: ChunkStrategy) -> list[Chunk]:
    """Chunk one graph under the given strategy.

    Nodes with empty values (connectors) carry nothing to embed: per-node
    skips them silently (``chunk_graphs`` warns once for a whole corpus),
    and the other strategies ignore them.
    """
    if strategy is ChunkStrategy.PER_NODE:
        chunks = []
        for node in graph.nodes:
            if not node.value:
                continue
            chunks.append(
                Chunk(
                    chunk_id=f"{graph.graph_id}:node:{node.id}",
                    text=node.value,
                    source_kind=SourceKind.GRAPH,
                    graph_id=graph.graph_id,
                    node_id=node.id,
                    strategy=strategy,
                )
            )
        return chunks
    if strategy is ChunkStrategy.ALL_NODES:
        values = [node.value for node in graph.nodes if node.value]
        if not values:
            raise ChunkError(
                f"graph {shown(graph.graph_id)} has no node text to embed under all-nodes"
            )
        return [
            Chunk(
                chunk_id=f"{graph.graph_id}:nodes",
                text="\n".join(values),
                source_kind=SourceKind.GRAPH,
                graph_id=graph.graph_id,
                strategy=strategy,
            )
        ]
    return [
        Chunk(
            chunk_id=f"{graph.graph_id}:json",
            text=serialize_json(graph).decode("utf-8"),
            source_kind=SourceKind.GRAPH,
            graph_id=graph.graph_id,
            strategy=strategy,
        )
    ]


# Sentence boundaries: punctuation followed by whitespace. The separator is
# captured and glued to the preceding sentence so segments concatenate back
# to the exact document.
_SENTENCE_SPLIT_RE = re.compile(r"((?<=[.!?\n])\s+)")


def _segments(document: str, limit: int) -> list[str]:
    parts = _SENTENCE_SPLIT_RE.split(document)
    merged: list[str] = []
    for i in range(0, len(parts), 2):
        text = parts[i]
        if i + 1 < len(parts):
            text += parts[i + 1]
        if text:
            merged.append(text)
    # Hard-split anything longer than one chunk core.
    out: list[str] = []
    for seg in merged:
        while len(seg) > limit:
            out.append(seg[:limit])
            seg = seg[limit:]
        if seg:
            out.append(seg)
    return out


def chunk_graphs(graphs: Iterable[FlowGraph], strategy: ChunkStrategy) -> list[Chunk]:
    """Chunk every graph under one strategy, in order. Empty-value nodes
    skipped under per-node get one warning for the whole call: their count
    and the first one's graph and node id."""
    chunks: list[Chunk] = []
    skipped: list[tuple[str, str]] = []
    for graph in graphs:
        chunks.extend(chunk_graph(graph, strategy))
        if strategy is ChunkStrategy.PER_NODE:
            skipped.extend((graph.graph_id, node.id) for node in graph.nodes if not node.value)
    if skipped:
        logger.warning(
            "skipped %d empty-value nodes under per-node chunking (first: node %s of graph %s)",
            len(skipped),
            shown(skipped[0][1]),
            shown(skipped[0][0]),
        )
    return chunks


def chunk_text(
    document: str, max_chars: int, overlap_chars: int = 0, doc_id: str = "doc"
) -> list[Chunk]:
    """Sliding sentence-boundary windows over plain text.

    Each chunk after the first starts with the trailing ``overlap_chars``
    characters of the text accumulated so far, so stripping that prefix from
    every chunk but the first reassembles the document exactly.
    """
    if max_chars <= overlap_chars or overlap_chars < 0:
        raise ChunkError(
            "require max_chars > overlap_chars >= 0, "
            f"got {shown(max_chars)}/{shown(overlap_chars)}"
        )
    if not document:
        return []
    core_limit = max_chars - overlap_chars
    segments = _segments(document, core_limit)
    cores: list[str] = []
    current: list[str] = []
    current_len = 0
    first_limit = max_chars  # the first chunk has no overlap prefix
    for seg in segments:
        limit = first_limit if not cores else core_limit
        if current and current_len + len(seg) > limit:
            cores.append("".join(current))
            current = []
            current_len = 0
        current.append(seg)
        current_len += len(seg)
    if current:
        cores.append("".join(current))
    chunks: list[Chunk] = []
    consumed = 0
    for i, core in enumerate(cores):
        prefix = "" if i == 0 else document[max(0, consumed - overlap_chars) : consumed]
        chunks.append(
            Chunk(
                chunk_id=f"{doc_id}:text:{i:05d}",
                text=prefix + core,
                source_kind=SourceKind.TEXT,
            )
        )
        consumed += len(core)
    return chunks


def write_chunks_jsonl(chunks: Iterable[Chunk], path: str | Path) -> int:
    return write_jsonl(path, chunks)


def read_chunks_jsonl(path: str | Path) -> list[Chunk]:
    return read_jsonl(path, Chunk.from_dict, "chunk")
