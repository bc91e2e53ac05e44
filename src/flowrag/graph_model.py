"""Attributed directed graph representation of flowcharts.

A flowchart block becomes a node carrying its text as an attribute; a link
becomes an edge with optional link text. Graphs serialize to a canonical
JSON document and corpora are stored as JSON-Lines, one graph per line.

Every ``FlowGraph`` satisfies the graph invariant: unique non-empty node
ids, edge endpoints that name nodes, unique ``(from, to, value)`` edge
triples, and empty values only on ``Connector`` nodes. The constructor
checks it and raises :class:`GraphIntegrityError` holding every violation,
so no other code re-checks a graph it is given.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import count
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, FlowragError
from .jsonio import decode, encode, read_jsonl, shown, write_jsonl


class NodeShape(Enum):
    PROCESS = "Process"
    TERMINATOR = "Terminator"
    DECISION = "Decision"
    INPUT_OUTPUT = "InputOutput"
    CONNECTOR = "Connector"
    UNSPECIFIED = "Unspecified"


class LineStyle(Enum):
    SOLID = "Solid"
    DOTTED = "Dotted"
    DASHED = "Dashed"


class GraphJsonParseError(FlowragError):
    """Malformed JSON input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class GraphSchemaError(FlowragError):
    """Well-formed JSON that does not match the graph document schema."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} at {path}")
        self.path = path


class GraphIntegrityError(FlowragError):
    """A structurally complete graph that violates graph invariants. The
    message names the first five violations and counts the rest;
    ``violations`` holds every one."""

    def __init__(self, violations: list[str]):
        message = "; ".join(violations[:5])
        if len(violations) > 5:
            message += f"; and {len(violations) - 5} more"
        super().__init__(message)
        self.violations = list(violations)


@dataclass(frozen=True)
class FlowNode:
    """One flowchart block: short id, block text, block shape."""

    id: str
    value: str
    shape: NodeShape = NodeShape.UNSPECIFIED

    def __post_init__(self):
        # An inline check, not jsonio.expect: nodes are built in hot loops.
        if not isinstance(self.shape, NodeShape):
            raise ConfigError(f"shape must be a NodeShape, got {shown(self.shape)}")


@dataclass(frozen=True)
class FlowEdge:
    """One link between blocks; ``value`` is the optional link text."""

    src: str
    dst: str
    value: str | None = None
    bidirectional: bool = False
    line_style: LineStyle = LineStyle.SOLID

    def __post_init__(self):
        if not isinstance(self.line_style, LineStyle):
            raise ConfigError(f"line_style must be a LineStyle, got {shown(self.line_style)}")


@dataclass(frozen=True)
class FlowGraph:
    """Immutable attributed directed graph that satisfies the graph
    invariant; safe to share across threads."""

    nodes: tuple[FlowNode, ...] = ()
    edges: tuple[FlowEdge, ...] = ()
    graph_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        violations = _violations(self)
        if violations:
            raise GraphIntegrityError(violations)

    def node_ids(self) -> set[str]:
        return {n.id for n in self.nodes}


def _violations(graph: FlowGraph) -> list[str]:
    """One description per violated invariant, in node then edge order."""
    violations: list[str] = []
    seen_ids: set[str] = set()
    for node in graph.nodes:
        if not node.id:
            violations.append("empty node id")
        elif node.id in seen_ids:
            violations.append(f"duplicate node id {shown(node.id)}")
        else:
            seen_ids.add(node.id)
        if not node.value and node.shape is not NodeShape.CONNECTOR:
            violations.append(
                f"node {shown(node.id)} has empty value but shape {node.shape.value}"
            )
    seen_edges: set[tuple[str, str, str | None]] = set()
    for edge in graph.edges:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in seen_ids:
                violations.append(f"edge references unknown node {shown(endpoint)}")
        triple = (edge.src, edge.dst, edge.value)
        if triple in seen_edges:
            violations.append(
                f"duplicate edge {shown((edge.src, edge.dst, edge.value))}"
            )
        seen_edges.add(triple)
    return violations


_SHAPES_BY_NAME = {s.value: s for s in NodeShape}
_STYLES_BY_NAME = {s.value: s for s in LineStyle}


def _path(where) -> str:
    """The JSON path of ``where``, keys and array positions under ``$``;
    built only for an error, so a record that passes every check formats none."""
    return "$" + "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in where)


def _expect(value, types, what: str, *where):
    if not isinstance(value, types):
        raise GraphSchemaError(f"expected {what}", _path(where))
    return value


def _node_from_obj(obj, i: int) -> FlowNode:
    _expect(obj, dict, "object", "nodes", i)
    for key in ("id", "value"):
        if key not in obj:
            raise GraphSchemaError(f"missing required key '{key}'", _path(("nodes", i, key)))
    node_id = _expect(obj["id"], str, "string", "nodes", i, "id")
    value = _expect(obj["value"], str, "string", "nodes", i, "value")
    shape = NodeShape.UNSPECIFIED
    if obj.get("shape") is not None:
        name = _expect(obj["shape"], str, "string", "nodes", i, "shape")
        if name not in _SHAPES_BY_NAME:
            raise GraphSchemaError(f"unknown shape {shown(name)}", _path(("nodes", i, "shape")))
        shape = _SHAPES_BY_NAME[name]
    return FlowNode(id=node_id, value=value, shape=shape)


def _edge_from_obj(obj, i: int) -> FlowEdge:
    _expect(obj, dict, "object", "edges", i)
    for key in ("from", "to"):
        if key not in obj:
            raise GraphSchemaError(f"missing required key '{key}'", _path(("edges", i, key)))
    src = _expect(obj["from"], str, "string", "edges", i, "from")
    dst = _expect(obj["to"], str, "string", "edges", i, "to")
    value = obj.get("value")
    if value is not None:
        value = _expect(value, str, "string or null", "edges", i, "value")
    bidirectional = obj.get("bidirectional", False)
    _expect(bidirectional, bool, "boolean", "edges", i, "bidirectional")
    line_style = LineStyle.SOLID
    if obj.get("line_style") is not None:
        name = _expect(obj["line_style"], str, "string", "edges", i, "line_style")
        if name not in _STYLES_BY_NAME:
            raise GraphSchemaError(
                f"unknown line_style {shown(name)}", _path(("edges", i, "line_style"))
            )
        line_style = _STYLES_BY_NAME[name]
    return FlowEdge(
        src=src, dst=dst, value=value, bidirectional=bidirectional, line_style=line_style
    )


def parse_json(text: bytes | str) -> FlowGraph:
    """Parse a graph JSON document into a validated :class:`FlowGraph`.

    Unknown keys are ignored; optional fields default to shape=Unspecified,
    bidirectional=false, line_style=Solid.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphJsonParseError("invalid UTF-8", exc.start) from exc
    try:
        doc = decode(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise GraphJsonParseError(exc.msg, offset) from exc
    return graph_from_doc(doc)


def graph_from_doc(doc) -> FlowGraph:
    """Build a validated :class:`FlowGraph` from a decoded graph document."""
    _expect(doc, dict, "object")
    graph_id = doc.get("graph_id", "")
    _expect(graph_id, str, "string", "graph_id")
    for key in ("nodes", "edges"):
        if key not in doc:
            raise GraphSchemaError(f"missing required key '{key}'", f"$.{key}")
        _expect(doc[key], list, "array", key)
    nodes = tuple(map(_node_from_obj, doc["nodes"], count()))
    edges = tuple(map(_edge_from_obj, doc["edges"], count()))
    return FlowGraph(nodes=nodes, edges=edges, graph_id=graph_id)


def _node_to_obj(node: FlowNode) -> dict:
    obj: dict = {"id": node.id, "value": node.value}
    if node.shape is not NodeShape.UNSPECIFIED:
        obj["shape"] = node.shape.value
    return obj


def _edge_to_obj(edge: FlowEdge) -> dict:
    obj: dict = {"from": edge.src, "to": edge.dst}
    if edge.value is not None:
        obj["value"] = edge.value
    if edge.bidirectional:
        obj["bidirectional"] = True
    if edge.line_style is not LineStyle.SOLID:
        obj["line_style"] = edge.line_style.value
    return obj


def _graph_to_doc(graph: FlowGraph) -> dict:
    doc: dict = {}
    if graph.graph_id:
        doc["graph_id"] = graph.graph_id
    doc["nodes"] = [_node_to_obj(n) for n in graph.nodes]
    doc["edges"] = [_edge_to_obj(e) for e in graph.edges]
    return doc


def serialize_json(graph: FlowGraph) -> bytes:
    """Serialize to the canonical compact document; deterministic bytes.

    Fields at their defaults are omitted so that the output is minimal and
    ``parse_json(serialize_json(g)) == g`` holds field-for-field.
    """
    return encode(_graph_to_doc(graph))


def collapse_whitespace(text: str) -> str:
    return " ".join(text.split())


def _edge_sort_key(edge: FlowEdge):
    # None-valued edges sort before empty-string values; key stays total.
    return (edge.src, edge.dst, edge.value is not None, edge.value or "")


def canonicalize(graph: FlowGraph) -> FlowGraph:
    """Sort nodes by id and edges by (from, to, value); collapse runs of
    whitespace in node values. Idempotent. Raises
    :class:`GraphIntegrityError` when a non-connector value is whitespace
    only, since it would collapse to empty."""
    nodes = tuple(
        FlowNode(id=n.id, value=collapse_whitespace(n.value), shape=n.shape)
        for n in sorted(graph.nodes, key=lambda n: n.id)
    )
    edges = tuple(sorted(graph.edges, key=_edge_sort_key))
    return FlowGraph(nodes=nodes, edges=edges, graph_id=graph.graph_id)


def write_graphs_jsonl(graphs: Iterable[FlowGraph], path: str | Path) -> int:
    """Write a corpus file, one serialized graph per line. Returns count."""
    return write_jsonl(path, map(_graph_to_doc, graphs))


def read_graphs_jsonl(path: str | Path) -> list[FlowGraph]:
    """Read a corpus file written by :func:`write_graphs_jsonl`."""
    return read_jsonl(path, graph_from_doc, "graph")
