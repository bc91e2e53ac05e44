"""Mermaid flowchart subset: parse scripts into FlowGraphs and render back.

Supported constructs:
  node shapes   A[text] process, A([text]) terminator, A{text} decision,
                A[/text/] input/output, A((text)) connector
  links         -->  solid arrow        ---   undirected (stored bidirectional)
                -.-> dotted arrow       -..-> dashed arrow (two dots)
                ==>  heavy arrow (collapses to solid)
                <--> <-.-> <-..-> <==>  bidirectional arrows
  edge labels   A -->|label| B   and   A -- label --> B
Anything else (subgraph, class, click, style, ...) errors loudly with a
1-based line number rather than silently dropping content.

Mermaid offers no escape mechanism inside node text, so bracket characters,
pipes and slashes are swapped for fullwidth lookalikes on render and swapped
back on parse.
"""
from __future__ import annotations

import re

from .errors import FlowragError
from .graph_model import FlowEdge, FlowGraph, FlowNode, LineStyle, NodeShape
from .jsonio import shown

DIRECTIONS = ("TD", "TB", "LR", "RL", "BT")


class MermaidSyntaxError(FlowragError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedFeatureError(FlowragError):
    def __init__(self, feature: str, line: int):
        super().__init__(f"line {line}: unsupported construct '{feature}'")
        self.feature = feature
        self.line = line


_ESCAPES = {
    "[": "［",  # fullwidth [
    "]": "］",
    "{": "｛",
    "}": "｝",
    "(": "（",
    ")": "）",
    "|": "｜",
    "/": "／",
}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_UNESCAPE_TABLE = str.maketrans({v: k for k, v in _ESCAPES.items()})


def escape_text(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def unescape_text(text: str) -> str:
    return text.translate(_UNESCAPE_TABLE)


_HEADER_RE = re.compile(r"^(?:flowchart|graph)\s+(TD|TB|LR|RL|BT)\s*$")
_UNSUPPORTED_RE = re.compile(
    r"^(subgraph|end|class|classDef|click|style|linkStyle|direction)\b"
)

# One node: an id plus an optional shape. Each shape's text is captured by a
# group named after its NodeShape value, so ``lastgroup`` names the shape
# (``"id"`` for a bare node). Order matters: two-character openers before
# their one-character prefixes.
_NODE_RE = re.compile(
    r"(?P<id>\w+)(?:"
    r"\(\((?P<Connector>[^()]*)\)\)"
    r"|\(\[(?P<Terminator>[^\[\]]*)\]\)"
    r"|\[/(?P<InputOutput>[^\[\]/]*)/\]"
    r"|\[(?P<Process>[^\[\]]*)\]"
    r"|\{(?P<Decision>[^{}]*)\}"
    r")?"
)

# Label-between-dashes link forms, A -- label --> B, A -. label .-> B and
# A == label ==> B: each opener's closer and line style.
_INLINE_LABEL_FORMS = {
    "--": ("-->", LineStyle.SOLID),
    "-.": (".->", LineStyle.DOTTED),
    "==": ("==>", LineStyle.SOLID),
}


def _blanks(text: str, start: int) -> int:
    """The length of the whitespace run at ``text[start:]``."""
    return len(text) - start - len(text[start:].lstrip())


def _match_inline_label(rest: str) -> tuple[str, LineStyle, int] | None:
    r"""What ``^\s*OPEN\s+(.+?)\s+CLOSE\s*`` matches in ``rest`` for one
    inline label form: (group 1, the form's style, the match's end), or None.

    One forward scan finds it, where the regex backtracks through every
    split of a whitespace run and takes quadratic time. The regex's first
    choice starts the label at the first non-blank after the opener and
    ends it at the blanks before the first closer after that which follows
    a blank. Failing that, it gives blanks back to the label: ``--   -->``
    has a one-blank label.
    """
    opener_at = _blanks(rest, 0)
    form = _INLINE_LABEL_FORMS.get(rest[opener_at : opener_at + 2])
    if form is None:
        return None
    close, style = form
    after = opener_at + 2
    blanks = _blanks(rest, after)
    if not blanks:
        return None
    start = after + blanks
    close_at = rest.find(close, start + 1)
    while close_at != -1 and not rest[close_at - 1].isspace():
        close_at = rest.find(close, close_at + 1)
    if close_at != -1:
        label = rest[start:close_at].rstrip()
    elif blanks >= 3 and rest.startswith(close, start):
        label, close_at = rest[start - 2], start
    else:
        return None
    end = close_at + len(close)
    return label, style, end + _blanks(rest, end)


_ARROW_RE = re.compile(
    r"^\s*(?P<bidi><)?(?P<body>-(?P<dots>\.+)->|-(?P<udots>\.+)-(?!>)|-{2,}>|-{3,}|={2,}>|={3,})"
    r"(?:\|(?P<label>[^|]*)\|)?\s*"
)


def _classify_arrow(match: re.Match, line_no: int) -> tuple[bool, LineStyle]:
    """Return (bidirectional, line_style) for a plain arrow match."""
    body = match.group("body")
    bidi = bool(match.group("bidi"))
    if match.group("dots") is not None:
        style = LineStyle.DOTTED if len(match.group("dots")) == 1 else LineStyle.DASHED
        return bidi, style
    if match.group("udots") is not None:
        if bidi:
            raise MermaidSyntaxError(f"malformed link {shown(match.group(0).strip())}", line_no)
        style = LineStyle.DOTTED if len(match.group("udots")) == 1 else LineStyle.DASHED
        return True, style
    if body.endswith(">"):
        return bidi, LineStyle.SOLID
    # --- or === with no arrowhead: undirected, stored as bidirectional
    if bidi:
        raise MermaidSyntaxError(f"malformed link {shown(match.group(0).strip())}", line_no)
    return True, LineStyle.SOLID


class _Builder:
    def __init__(self):
        self.nodes: dict[str, FlowNode] = {}
        self.edges: list[FlowEdge] = []

    def declare(self, node_id: str, value: str | None, shape: NodeShape | None):
        if node_id not in self.nodes:
            self.nodes[node_id] = FlowNode(
                id=node_id,
                value=node_id if value is None else value,
                shape=shape or NodeShape.UNSPECIFIED,
            )
        elif value is not None:
            # Explicit definition overrides an earlier implicit mention.
            self.nodes[node_id] = FlowNode(id=node_id, value=value, shape=shape)

    def build(self, graph_id: str) -> FlowGraph:
        nodes = tuple(self.nodes.values())  # first mention order; overrides keep their place
        return FlowGraph(nodes=nodes, edges=tuple(self.edges), graph_id=graph_id)


def _declare_node(builder: _Builder, match: re.Match) -> str:
    """Declare the node that ``_NODE_RE`` matched; returns its id."""
    node_id, shape = match.group("id"), match.lastgroup
    if shape == "id":
        builder.declare(node_id, None, None)
    else:
        builder.declare(node_id, unescape_text(match.group(shape)).strip(), NodeShape(shape))
    return node_id


def _parse_node_ref(builder: _Builder, text: str, line_no: int) -> tuple[str, str]:
    """Consume one node reference; returns (node_id, rest_of_line)."""
    match = _NODE_RE.match(text)
    if not match:
        raise MermaidSyntaxError(f"expected a node reference near {shown(text)}", line_no)
    return _declare_node(builder, match), text[match.end():]


def _parse_link_line(builder: _Builder, line: str, line_no: int) -> None:
    src_id, rest = _parse_node_ref(builder, line, line_no)
    inline = _match_inline_label(rest)
    if inline:
        label, style, end = inline
        bidirectional = False
    else:
        match = _ARROW_RE.match(rest)
        if not match:
            raise MermaidSyntaxError(f"malformed link near {shown(rest.strip())}", line_no)
        bidirectional, style = _classify_arrow(match, line_no)
        label, end = match.group("label"), match.end()
    if label is not None:
        label = unescape_text(label).strip()
    rest = rest[end:]
    dst_id, rest = _parse_node_ref(builder, rest, line_no)
    if rest.strip():
        raise MermaidSyntaxError(
            f"unexpected trailing content {shown(rest.strip())}", line_no
        )
    builder.edges.append(
        FlowEdge(
            src=src_id,
            dst=dst_id,
            value=label or None,
            bidirectional=bidirectional,
            line_style=style,
        )
    )


def parse_mermaid(script: str, graph_id: str = "") -> FlowGraph:
    """Parse a flowchart script into a FlowGraph.

    The direction header is required and recorded nowhere: graph content is
    layout-independent. Nodes first mentioned bare get their id as value and
    shape Unspecified.
    """
    if not script.strip():
        raise MermaidSyntaxError("empty script", 1)
    builder = _Builder()
    header_seen = False
    for line_no, raw in enumerate(script.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("%%"):
            continue
        if not header_seen:
            if not _HEADER_RE.match(line):
                raise MermaidSyntaxError(
                    "expected 'flowchart <dir>' or 'graph <dir>' header", line_no
                )
            header_seen = True
            continue
        unsupported = _UNSUPPORTED_RE.match(line)
        if unsupported:
            raise UnsupportedFeatureError(unsupported.group(1), line_no)
        node = _NODE_RE.fullmatch(line)
        if node:
            _declare_node(builder, node)
        else:
            _parse_link_line(builder, line, line_no)
    if not header_seen:
        raise MermaidSyntaxError("expected 'flowchart <dir>' or 'graph <dir>' header", 1)
    return builder.build(graph_id)


_SHAPE_BRACKETS = {
    NodeShape.PROCESS: ("[", "]"),
    NodeShape.UNSPECIFIED: ("[", "]"),
    NodeShape.TERMINATOR: ("([", "])"),
    NodeShape.DECISION: ("{", "}"),
    NodeShape.INPUT_OUTPUT: ("[/", "/]"),
    NodeShape.CONNECTOR: ("((", "))"),
}

_STYLE_ARROWS = {
    LineStyle.SOLID: "-->",
    LineStyle.DOTTED: "-.->",
    LineStyle.DASHED: "-..->",
}


def render_mermaid(graph: FlowGraph, direction: str = "TD") -> str:
    """Render a FlowGraph as a flowchart script (UTF-8, LF, trailing
    newline). Unspecified shapes render as process boxes."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}, got {shown(direction)}")
    lines = [f"flowchart {direction}"]
    for node in graph.nodes:
        opener, closer = _SHAPE_BRACKETS[node.shape]
        lines.append(f"{node.id}{opener}{escape_text(node.value)}{closer}")
    for edge in graph.edges:
        arrow = _STYLE_ARROWS[edge.line_style]
        if edge.bidirectional:
            arrow = "<" + arrow
        if edge.value is not None:
            arrow = f"{arrow}|{escape_text(edge.value)}|"
        lines.append(f"{edge.src} {arrow} {edge.dst}")
    return "\n".join(lines) + "\n"
