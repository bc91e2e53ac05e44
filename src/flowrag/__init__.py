"""Flowchart graphs as data: corpora, edit-distance scoring, and retrieval
benchmarks over chunked graph embeddings."""

__version__ = "0.1.0"

from .chunker import Chunk, ChunkStrategy, SourceKind, chunk_graph, chunk_text
from .embed import EmbeddingVector, ProviderConfig, ProviderKind, embed_batch
from .errors import FlowragError
from .evalharness import EvalConfig, EvalReport, Scenario, judge, render_report, run_eval
from .ged import (
    CostModel,
    GedReport,
    GedResult,
    apply_edit_path,
    content_signature,
    evaluate_predictions,
    ged_approx,
    ged_exact,
)
from .graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    LineStyle,
    NodeShape,
    canonicalize,
    parse_json,
    serialize_json,
)
from .mermaid import parse_mermaid, render_mermaid
from .synthgen import (
    GenSpec,
    QaCategory,
    QaItem,
    SplitConfig,
    generate_corpus,
    generate_graph,
    generate_qa,
)
from .vstore import IndexEntry, RetrievalHit, VectorIndex

__all__ = [
    "Chunk",
    "ChunkStrategy",
    "CostModel",
    "EmbeddingVector",
    "EvalConfig",
    "EvalReport",
    "FlowEdge",
    "FlowGraph",
    "FlowNode",
    "FlowragError",
    "GedReport",
    "GedResult",
    "GenSpec",
    "IndexEntry",
    "LineStyle",
    "NodeShape",
    "ProviderConfig",
    "ProviderKind",
    "QaCategory",
    "QaItem",
    "RetrievalHit",
    "Scenario",
    "SourceKind",
    "SplitConfig",
    "VectorIndex",
    "apply_edit_path",
    "canonicalize",
    "chunk_graph",
    "chunk_text",
    "content_signature",
    "embed_batch",
    "evaluate_predictions",
    "ged_approx",
    "ged_exact",
    "generate_corpus",
    "generate_graph",
    "generate_qa",
    "judge",
    "parse_json",
    "parse_mermaid",
    "render_mermaid",
    "render_report",
    "run_eval",
    "serialize_json",
]
