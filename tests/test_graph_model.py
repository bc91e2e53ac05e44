import json
import random

import pytest

from flowrag.errors import ConfigError
from flowrag.graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    GraphIntegrityError,
    GraphJsonParseError,
    GraphSchemaError,
    LineStyle,
    NodeShape,
    canonicalize,
    parse_json,
    read_graphs_jsonl,
    serialize_json,
    write_graphs_jsonl,
)
from flowrag.synthgen import GenSpec, generate_graph

from helpers import random_graph

MINIMAL = b'{"nodes":[{"id":"A","value":"Start"}],"edges":[]}'


def two_node_graph() -> FlowGraph:
    return FlowGraph(
        nodes=(FlowNode("A", "Start"), FlowNode("B", "End")),
        edges=(FlowEdge("A", "B", value="Yes"),),
    )


def violations_of(**fields) -> list[str]:
    with pytest.raises(GraphIntegrityError) as excinfo:
        FlowGraph(**fields)
    return excinfo.value.violations


class TestValidate:
    def test_well_formed_graph(self):
        assert two_node_graph().node_ids() == {"A", "B"}

    def test_dangling_endpoint(self):
        assert violations_of(
            nodes=(FlowNode("A", "Start"),), edges=(FlowEdge("A", "C"),)
        ) == ["edge references unknown node 'C'"]

    def test_duplicate_node_id(self):
        assert violations_of(nodes=(FlowNode("A", "x"), FlowNode("A", "y"))) == [
            "duplicate node id 'A'"
        ]

    def test_empty_value_requires_connector(self):
        assert violations_of(nodes=(FlowNode("A", "", NodeShape.PROCESS),)) == [
            "node 'A' has empty value but shape Process"
        ]
        FlowGraph(nodes=(FlowNode("A", "", NodeShape.CONNECTOR),))

    def test_duplicate_edge_triple(self):
        assert violations_of(
            nodes=(FlowNode("A", "x"), FlowNode("B", "y")),
            edges=(FlowEdge("A", "B", value="v"), FlowEdge("A", "B", value="v")),
        ) == ["duplicate edge ('A', 'B', 'v')"]

    def test_self_loop_and_duplicate_values_permitted(self):
        FlowGraph(
            nodes=(FlowNode("A", "same"), FlowNode("B", "same")),
            edges=(FlowEdge("A", "A"),),
        )

    def test_every_violation_listed_in_order(self):
        assert violations_of(
            nodes=(FlowNode("", "x"), FlowNode("A", ""), FlowNode("A", "y")),
            edges=(FlowEdge("A", "B"), FlowEdge("A", "B")),
        ) == [
            "empty node id",
            "node 'A' has empty value but shape Unspecified",
            "duplicate node id 'A'",
            "edge references unknown node 'B'",
            "edge references unknown node 'B'",
            "duplicate edge ('A', 'B', None)",
        ]


class TestFieldTypes:
    def test_node_shape_must_be_a_node_shape(self):
        with pytest.raises(ConfigError, match="shape must be a NodeShape, got 'Process'"):
            FlowNode("A", "x", "Process")

    def test_edge_line_style_must_be_a_line_style(self):
        with pytest.raises(ConfigError, match="line_style must be a LineStyle, got 'Dotted'"):
            FlowEdge("A", "B", line_style="Dotted")


class TestParseJson:
    def test_minimal_document(self):
        graph = parse_json(MINIMAL)
        assert len(graph.nodes) == 1
        assert graph.nodes[0] == FlowNode("A", "Start", NodeShape.UNSPECIFIED)
        assert graph.edges == ()

    def test_two_nodes_one_labeled_edge(self):
        graph = parse_json(
            b'{"nodes":[{"id":"A","value":"Start"},{"id":"B","value":"End"}],'
            b'"edges":[{"from":"A","to":"B","value":"Yes"}]}'
        )
        assert graph == two_node_graph()

    def test_dangling_endpoints_rejected(self):
        with pytest.raises(GraphIntegrityError) as excinfo:
            parse_json(b'{"nodes":[],"edges":[{"from":"A","to":"B"}]}')
        assert len(excinfo.value.violations) == 2

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(GraphJsonParseError) as excinfo:
            parse_json(b'{"nodes": [X]}')
        assert excinfo.value.offset == 11

    def test_byte_offset_counts_multibyte_characters(self):
        # é is two UTF-8 bytes, so the byte offset exceeds the char offset.
        text = '{"aé": X}'.encode("utf-8")
        with pytest.raises(GraphJsonParseError) as excinfo:
            parse_json(text)
        assert excinfo.value.offset == text.index(b"X")

    def test_schema_error_names_path(self):
        with pytest.raises(GraphSchemaError) as excinfo:
            parse_json(b'{"nodes":[],"edges":[{"to":"B"}]}')
        assert excinfo.value.path == "$.edges[0].from"

    def test_missing_node_value_is_schema_error(self):
        with pytest.raises(GraphSchemaError) as excinfo:
            parse_json(b'{"nodes":[{"id":"A"}],"edges":[]}')
        assert excinfo.value.path == "$.nodes[0].value"

    @pytest.mark.parametrize(
        "doc, message, path",
        [
            (b'{"nodes":[1],"edges":[]}', "expected object", "$.nodes[0]"),
            (
                b'{"nodes":[{"value":"x"}],"edges":[]}',
                "missing required key 'id'",
                "$.nodes[0].id",
            ),
            (
                b'{"nodes":[{"id":"A","value":"x"}],'
                b'"edges":[{"from":"A","to":"A","line_style":"Wavy"}]}',
                "unknown line_style 'Wavy'",
                "$.edges[0].line_style",
            ),
        ],
    )
    def test_schema_error_message_and_path(self, doc, message, path):
        with pytest.raises(GraphSchemaError) as excinfo:
            parse_json(doc)
        assert str(excinfo.value) == f"{message} at {path}"
        assert excinfo.value.path == path

    def test_unknown_shape_rejected(self):
        with pytest.raises(GraphSchemaError):
            parse_json(b'{"nodes":[{"id":"A","value":"x","shape":"Blob"}],"edges":[]}')

    def test_unknown_keys_ignored(self):
        graph = parse_json(
            b'{"nodes":[{"id":"A","value":"x","color":"red"}],"edges":[],"layout":"TD"}'
        )
        assert graph.nodes[0].value == "x"

    def test_optional_fields_defaulted(self):
        graph = parse_json(
            b'{"nodes":[{"id":"A","value":"x"}],"edges":[{"from":"A","to":"A"}]}'
        )
        assert graph.nodes[0].shape is NodeShape.UNSPECIFIED
        assert graph.edges[0].bidirectional is False
        assert graph.edges[0].line_style is LineStyle.SOLID

    def test_invalid_utf8_is_parse_error(self):
        with pytest.raises(GraphJsonParseError):
            parse_json(b'{"nodes": "\xff"}')


class TestSerializeJson:
    def test_minimal_round_trip_anchor(self):
        graph = FlowGraph(nodes=(FlowNode("A", "Start"),))
        assert serialize_json(graph) == MINIMAL

    def test_defaults_omitted(self):
        graph = FlowGraph(
            nodes=(FlowNode("A", "x"),),
            edges=(FlowEdge("A", "A", value=None, bidirectional=False),),
        )
        doc = json.loads(serialize_json(graph))
        assert doc["edges"][0] == {"from": "A", "to": "A"}
        assert "shape" not in doc["nodes"][0]
        assert "graph_id" not in doc

    def test_non_defaults_serialized(self):
        graph = FlowGraph(
            nodes=(FlowNode("A", "x", NodeShape.DECISION),),
            edges=(
                FlowEdge("A", "A", value="v", bidirectional=True, line_style=LineStyle.DASHED),
            ),
            graph_id="g1",
        )
        doc = json.loads(serialize_json(graph))
        assert doc["graph_id"] == "g1"
        assert doc["nodes"][0]["shape"] == "Decision"
        assert doc["edges"][0]["bidirectional"] is True
        assert doc["edges"][0]["line_style"] == "Dashed"

    def test_invalid_graph_rejected(self):
        with pytest.raises(GraphIntegrityError):
            serialize_json(FlowGraph(nodes=(FlowNode("A", "x"), FlowNode("A", "y"))))

    def test_round_trip_random_graphs(self):
        rng = random.Random(20240811)
        for _ in range(80):
            graph = random_graph(rng)
            assert parse_json(serialize_json(graph)) == graph

    def test_round_trip_generator_graphs(self):
        spec = GenSpec(seed=11)
        for index in range(60):
            graph = generate_graph(spec, index)
            assert parse_json(serialize_json(graph)) == graph

    def test_deterministic_bytes(self):
        graph = two_node_graph()
        assert serialize_json(graph) == serialize_json(two_node_graph())


class TestCanonicalize:
    def test_sorts_nodes_and_edges(self):
        graph = FlowGraph(
            nodes=(FlowNode("B", "b"), FlowNode("A", "a")),
            edges=(FlowEdge("B", "A"), FlowEdge("A", "B")),
        )
        result = canonicalize(graph)
        assert [n.id for n in result.nodes] == ["A", "B"]
        assert [(e.src, e.dst) for e in result.edges] == [("A", "B"), ("B", "A")]

    def test_collapses_node_whitespace(self):
        graph = FlowGraph(nodes=(FlowNode("A", "  Send\n  Alarm "),))
        assert canonicalize(graph).nodes[0].value == "Send Alarm"

    def test_whitespace_only_value_raises(self):
        graph = FlowGraph(nodes=(FlowNode("A", " \n ", NodeShape.PROCESS),))
        with pytest.raises(GraphIntegrityError) as excinfo:
            canonicalize(graph)
        assert excinfo.value.violations == ["node 'A' has empty value but shape Process"]

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(40):
            graph = random_graph(rng)
            once = canonicalize(graph)
            assert canonicalize(once) == once

    def test_preserves_stats(self):
        rng = random.Random(13)
        for _ in range(40):
            graph = random_graph(rng)
            result = canonicalize(graph)
            assert len(result.nodes) == len(graph.nodes)
            assert len(result.edges) == len(graph.edges)


def test_jsonl_corpus_round_trip(tmp_path):
    rng = random.Random(99)
    graphs = [random_graph(rng, graph_id=f"g{i}") for i in range(20)]
    path = tmp_path / "graphs.jsonl"
    assert write_graphs_jsonl(graphs, path) == 20
    assert read_graphs_jsonl(path) == graphs
