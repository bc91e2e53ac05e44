import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrag.chunker import (
    Chunk,
    ChunkError,
    ChunkStrategy,
    SourceKind,
    chunk_graph,
    chunk_graphs,
    chunk_text,
    read_chunks_jsonl,
    write_chunks_jsonl,
)
from flowrag.graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    GraphIntegrityError,
    NodeShape,
    parse_json,
)
from flowrag.synthgen import GenSpec, generate_graph

from helpers import random_graph


def three_node_graph() -> FlowGraph:
    return FlowGraph(
        nodes=(
            FlowNode("A", "check alarm"),
            FlowNode("B", "send report"),
            FlowNode("C", "stop"),
        ),
        edges=(FlowEdge("A", "B", value="yes"), FlowEdge("B", "C")),
        graph_id="g1",
    )


class TestChunkGraph:
    def test_per_node(self):
        chunks = chunk_graph(three_node_graph(), ChunkStrategy.PER_NODE)
        assert len(chunks) == 3
        assert [c.node_id for c in chunks] == ["A", "B", "C"]
        assert [c.text for c in chunks] == ["check alarm", "send report", "stop"]
        assert all(c.source_kind is SourceKind.GRAPH for c in chunks)
        assert all(c.graph_id == "g1" for c in chunks)

    def test_all_nodes_joins_values_without_edge_text(self):
        chunks = chunk_graph(three_node_graph(), ChunkStrategy.ALL_NODES)
        assert len(chunks) == 1
        assert chunks[0].text == "check alarm\nsend report\nstop"
        assert "yes" not in chunks[0].text
        assert chunks[0].node_id is None

    def test_full_json_parses_back(self):
        graph = three_node_graph()
        chunks = chunk_graph(graph, ChunkStrategy.FULL_JSON)
        assert len(chunks) == 1
        assert parse_json(chunks[0].text.encode("utf-8")) == graph

    def test_empty_value_node_skipped_with_warning(self, caplog):
        # One graph skips its connectors silently; a corpus gets one
        # aggregate line: the count and the first skipped node.
        graphs = [
            FlowGraph(
                nodes=(
                    FlowNode("A", "x"),
                    FlowNode("C", "", NodeShape.CONNECTOR),
                    FlowNode("D", "", NodeShape.CONNECTOR),
                ),
                edges=(FlowEdge("A", "C"), FlowEdge("C", "D")),
                graph_id=graph_id,
            )
            for graph_id in ("g2", "g3")
        ]
        with caplog.at_level(logging.WARNING, logger="flowrag.chunker"):
            single = chunk_graph(graphs[0], ChunkStrategy.PER_NODE)
            assert not caplog.records
            chunks = chunk_graphs(graphs, ChunkStrategy.PER_NODE)
            chunk_graphs(graphs, ChunkStrategy.ALL_NODES)
        assert [c.node_id for c in single] == ["A"]
        assert [c.chunk_id for c in chunks] == ["g2:node:A", "g3:node:A"]
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 4 empty-value nodes under per-node chunking (first: node 'C' of graph 'g2')"
        ]

    def test_chunk_ids_deterministic(self):
        a = chunk_graph(three_node_graph(), ChunkStrategy.PER_NODE)
        b = chunk_graph(three_node_graph(), ChunkStrategy.PER_NODE)
        assert a == b
        assert a[0].chunk_id == "g1:node:A"
        full = chunk_graph(three_node_graph(), ChunkStrategy.FULL_JSON)
        assert full[0].chunk_id == "g1:json"

    def test_invalid_graph_rejected(self):
        # An invalid graph cannot be built, so it never reaches chunk_graph.
        with pytest.raises(GraphIntegrityError) as excinfo:
            FlowGraph(nodes=(FlowNode("A", "x"), FlowNode("A", "y")))
        assert excinfo.value.violations == ["duplicate node id 'A'"]

    def test_all_connector_graph_has_nothing_to_embed(self):
        graph = FlowGraph(nodes=(FlowNode("A", "", NodeShape.CONNECTOR),), graph_id="g3")
        with pytest.raises(ChunkError):
            chunk_graph(graph, ChunkStrategy.ALL_NODES)

    def test_chunk_count_laws_on_generated_corpus(self):
        spec = GenSpec(seed=21)
        for index in range(60):
            graph = generate_graph(spec, index)
            non_empty = sum(1 for n in graph.nodes if n.value)
            assert len(chunk_graph(graph, ChunkStrategy.PER_NODE)) == non_empty
            assert len(chunk_graph(graph, ChunkStrategy.ALL_NODES)) == 1
            assert len(chunk_graph(graph, ChunkStrategy.FULL_JSON)) == 1


def reassemble(chunks: list[Chunk], overlap: int) -> str:
    """Independent inverse of chunk_text's documented overlap rule."""
    out = []
    consumed = 0
    for i, chunk in enumerate(chunks):
        prefix = 0 if i == 0 else min(overlap, consumed)
        core = chunk.text[prefix:]
        out.append(core)
        consumed += len(core)
    return "".join(out)


def synthetic_document(rng: random.Random, size: int) -> str:
    words = ["alarm", "handover", "threshold", "retry", "node", "cell", "timer"]
    parts = []
    total = 0
    while total < size:
        sentence = " ".join(rng.choice(words) for _ in range(rng.randint(3, 12)))
        sentence += rng.choice([". ", "! ", "? ", ".\n"])
        parts.append(sentence)
        total += len(sentence)
    return "".join(parts)


class TestChunkText:
    def test_short_document_single_chunk(self):
        chunks = chunk_text("0123456789", max_chars=100)
        assert len(chunks) == 1
        assert chunks[0].text == "0123456789"
        assert chunks[0].source_kind is SourceKind.TEXT

    def test_empty_document(self):
        assert chunk_text("", max_chars=100) == []

    def test_reassembly_large_document(self):
        rng = random.Random(31)
        document = synthetic_document(rng, 10_000)
        chunks = chunk_text(document, max_chars=800, overlap_chars=100)
        assert len(chunks) > 1
        assert all(len(c.text) <= 800 for c in chunks)
        assert reassemble(chunks, 100) == document

    def test_overlap_prefix_present(self):
        rng = random.Random(37)
        document = synthetic_document(rng, 3_000)
        chunks = chunk_text(document, max_chars=500, overlap_chars=80)
        consumed = len(chunks[0].text)
        for chunk in chunks[1:]:
            assert chunk.text[:80] == document[consumed - 80 : consumed]
            consumed += len(chunk.text) - 80

    def test_sentence_boundaries_respected(self):
        document = "One sentence. Two sentence. Three sentence. Four sentence."
        chunks = chunk_text(document, max_chars=30, overlap_chars=0)
        for chunk in chunks[:-1]:
            assert chunk.text.rstrip().endswith(".")

    def test_bad_window_parameters(self):
        with pytest.raises(ChunkError):
            chunk_text("abc", max_chars=10, overlap_chars=10)
        with pytest.raises(ChunkError):
            chunk_text("abc", max_chars=10, overlap_chars=-1)

    @settings(max_examples=60, deadline=None)
    @given(
        document=st.text(
            alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
            max_size=2_000,
        ),
        max_chars=st.integers(min_value=20, max_value=400),
        overlap=st.integers(min_value=0, max_value=19),
    )
    def test_reassembly_property(self, document, max_chars, overlap):
        chunks = chunk_text(document, max_chars=max_chars, overlap_chars=overlap)
        assert reassemble(chunks, overlap) == document
        assert all(len(c.text) <= max_chars for c in chunks)
        assert all(c.text for c in chunks)


def test_chunks_jsonl_round_trip(tmp_path):
    rng = random.Random(41)
    chunks = []
    for i in range(10):
        graph = random_graph(rng, graph_id=f"g{i}")
        for strategy in ChunkStrategy:
            try:
                chunks.extend(chunk_graph(graph, strategy))
            except ChunkError:
                pass
    chunks.extend(chunk_text("Some text. More text here.", 12, 4))
    path = tmp_path / "chunks.jsonl"
    count = write_chunks_jsonl(chunks, path)
    assert count == len(chunks)
    assert read_chunks_jsonl(path) == chunks
