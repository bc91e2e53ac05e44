import itertools
import random
import re
import time

import pytest

from flowrag.graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    GraphIntegrityError,
    LineStyle,
    NodeShape,
    canonicalize,
)
from flowrag.mermaid import (
    MermaidSyntaxError,
    UnsupportedFeatureError,
    _match_inline_label,
    parse_mermaid,
    render_mermaid,
)
from flowrag.synthgen import GenSpec, generate_graph

from helpers import random_graph


def unspecified_as_process(graph: FlowGraph) -> FlowGraph:
    nodes = tuple(
        FlowNode(n.id, n.value, NodeShape.PROCESS if n.shape is NodeShape.UNSPECIFIED else n.shape)
        for n in graph.nodes
    )
    return FlowGraph(nodes=nodes, edges=graph.edges, graph_id=graph.graph_id)


class TestParse:
    def test_basic_flow(self):
        graph = parse_mermaid("flowchart TD\nA[Start] --> B{OK?}\nB -->|Yes| C[Done]")
        assert [n.shape for n in graph.nodes] == [
            NodeShape.PROCESS,
            NodeShape.DECISION,
            NodeShape.PROCESS,
        ]
        assert len(graph.edges) == 2
        assert graph.edges[0].value is None
        assert graph.edges[1].value == "Yes"

    def test_undirected_link_becomes_bidirectional(self):
        graph = parse_mermaid("flowchart LR\nA --- B")
        assert [n.value for n in graph.nodes] == ["A", "B"]
        assert graph.edges[0].bidirectional is True
        assert graph.edges[0].line_style is LineStyle.SOLID

    def test_subgraph_unsupported_with_line_number(self):
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            parse_mermaid("flowchart TD\nsubgraph S\nA-->B\nend")
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "line,feature",
        [
            ("classDef red fill:#f00", "classDef"),
            ("class A red", "class"),
            ("click A href", "click"),
            ("style A fill:#f00", "style"),
            ("linkStyle 0 stroke:red", "linkStyle"),
        ],
    )
    def test_other_unsupported_constructs(self, line, feature):
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            parse_mermaid(f"flowchart TD\nA --> B\n{line}")
        assert excinfo.value.feature == feature
        assert excinfo.value.line == 3

    def test_all_shapes(self):
        script = (
            "flowchart TD\n"
            "P[proc]\n"
            "T([term])\n"
            "D{dec?}\n"
            "I[/io/]\n"
            "C((c))\n"
            "P --> T\nP --> D\nP --> I\nP --> C"
        )
        # The same nodes declared inline, on both sides of a link.
        inline = (
            "flowchart TD\n"
            "P[proc] --> T([term])\n"
            "P --> D{dec?}\n"
            "I[/io/] --- P\n"
            "P --> C((c))"
        )
        expected = {
            "P": (NodeShape.PROCESS, "proc"),
            "T": (NodeShape.TERMINATOR, "term"),
            "D": (NodeShape.DECISION, "dec?"),
            "I": (NodeShape.INPUT_OUTPUT, "io"),
            "C": (NodeShape.CONNECTOR, "c"),
        }
        for text in (script, inline):
            graph = parse_mermaid(text)
            assert {n.id: (n.shape, n.value) for n in graph.nodes} == expected

    @pytest.mark.parametrize(
        "arrow,bidirectional,style",
        [
            ("-->", False, LineStyle.SOLID),
            ("--->", False, LineStyle.SOLID),
            ("---", True, LineStyle.SOLID),
            ("-.->", False, LineStyle.DOTTED),
            ("-..->", False, LineStyle.DASHED),
            ("==>", False, LineStyle.SOLID),
            ("===", True, LineStyle.SOLID),
            ("<-->", True, LineStyle.SOLID),
            ("<-.->", True, LineStyle.DOTTED),
            ("<-..->", True, LineStyle.DASHED),
            ("<==>", True, LineStyle.SOLID),
            ("-.-", True, LineStyle.DOTTED),
        ],
    )
    def test_link_forms(self, arrow, bidirectional, style):
        graph = parse_mermaid(f"flowchart TD\nA {arrow} B")
        edge = graph.edges[0]
        assert edge.bidirectional is bidirectional
        assert edge.line_style is style

    def test_label_between_dashes(self):
        graph = parse_mermaid("flowchart TD\nA -- not ok --> B")
        assert graph.edges[0].value == "not ok"

    def test_dotted_inline_label(self):
        graph = parse_mermaid("flowchart TD\nA -. later .-> B")
        assert graph.edges[0].value == "later"
        assert graph.edges[0].line_style is LineStyle.DOTTED

    def test_implicit_node_gets_id_as_value(self):
        graph = parse_mermaid("flowchart TD\nA --> B[End]")
        assert graph.nodes[0] == FlowNode("A", "A", NodeShape.UNSPECIFIED)

    def test_explicit_definition_overrides_implicit(self):
        graph = parse_mermaid("flowchart TD\nA --> B\nA[Start]")
        assert graph.nodes[0] == FlowNode("A", "Start", NodeShape.PROCESS)

    def test_malformed_link_line_number(self):
        with pytest.raises(MermaidSyntaxError) as excinfo:
            parse_mermaid("flowchart TD\nA[ok] --> B\nA -> B")
        assert excinfo.value.line == 3

    def test_chained_links_rejected(self):
        with pytest.raises(MermaidSyntaxError):
            parse_mermaid("flowchart TD\nA --> B --> C")

    @pytest.mark.parametrize("arrow", ["<-.-", "<---"])
    def test_half_bidirectional_link_is_malformed(self, arrow):
        with pytest.raises(MermaidSyntaxError, match="malformed link") as excinfo:
            parse_mermaid(f"flowchart TD\nA {arrow} B")
        assert excinfo.value.line == 2

    def test_link_without_target(self):
        with pytest.raises(MermaidSyntaxError, match="expected a node reference") as excinfo:
            parse_mermaid("flowchart TD\nA -->")
        assert excinfo.value.line == 2

    def test_blank_script_is_empty(self):
        with pytest.raises(MermaidSyntaxError, match="empty script") as excinfo:
            parse_mermaid("  \n")
        assert excinfo.value.line == 1

    def test_comment_only_script_lacks_header(self):
        with pytest.raises(MermaidSyntaxError, match="header") as excinfo:
            parse_mermaid("%% nothing but a comment\n\n")
        assert excinfo.value.line == 1

    def test_missing_header(self):
        with pytest.raises(MermaidSyntaxError) as excinfo:
            parse_mermaid("A --> B")
        assert excinfo.value.line == 1

    def test_bad_direction(self):
        with pytest.raises(MermaidSyntaxError):
            parse_mermaid("flowchart XX\nA --> B")

    def test_graph_header_accepted(self):
        graph = parse_mermaid("graph LR\nA --> B")
        assert len(graph.edges) == 1

    def test_comments_and_blank_lines_skipped(self):
        graph = parse_mermaid("\n%% comment\nflowchart TD\n\nA --> B\n%% tail\n")
        assert len(graph.edges) == 1

    def test_duplicate_links_are_integrity_errors(self):
        with pytest.raises(GraphIntegrityError):
            parse_mermaid("flowchart TD\nA --> B\nA --> B")

    def test_self_loop(self):
        graph = parse_mermaid("flowchart TD\nA --> A")
        assert graph.edges[0].src == graph.edges[0].dst == "A"


# The backtracking patterns the inline label scan replaced, kept as its
# reference.
REFERENCE_INLINE_LABEL_RES = [
    (re.compile(r"^\s*--\s+(.+?)\s+-->\s*"), LineStyle.SOLID),
    (re.compile(r"^\s*-\.\s+(.+?)\s+\.->\s*"), LineStyle.DOTTED),
    (re.compile(r"^\s*==\s+(.+?)\s+==>\s*"), LineStyle.SOLID),
]


def reference_inline_label(rest: str):
    for pattern, style in REFERENCE_INLINE_LABEL_RES:
        match = pattern.match(rest)
        if match:
            return match.group(1), style, match.end()
    return None


class TestInlineLabelScan:
    @pytest.mark.parametrize("opener", ["--", "-.", "=="])
    def test_whitespace_run_fails_in_linear_time(self, opener):
        # The backtracking patterns took about 0.7 s at 32 000 blanks, and four
        # times as long for each doubling.
        script = f"flowchart TD\nA {opener} x{' ' * 200_000}y"
        started = time.perf_counter()
        with pytest.raises(MermaidSyntaxError, match="malformed link") as excinfo:
            parse_mermaid(script)
        assert time.perf_counter() - started < 2.0
        assert excinfo.value.line == 2

    def test_same_match_as_the_reference_patterns(self):
        # Every line of up to five pieces, each piece one of ` -.=>x|` or a
        # closer, after nothing, a blank or an opener: it covers each form's
        # label, closer and given-back blanks.
        pieces = list(" -.=>x|") + ["-->", ".->", "==>"]
        tails = [
            "".join(chosen)
            for size in range(6)
            for chosen in itertools.product(pieces, repeat=size)
        ]
        matched = 0
        for head in ("", " ", "--", "-.", "==", " -- "):
            for tail in tails:
                rest = head + tail
                expected = reference_inline_label(rest)
                assert _match_inline_label(rest) == expected, rest
                matched += expected is not None
        assert matched > 600

    @pytest.mark.parametrize(
        "rest",
        [
            "\t--\u3000a\xa0b\t-->\u2003B",
            " == a ==> b  ==> B",
            " -. .-> x .-> B",
            "--\x1c\t\u3000-->B",
        ],
    )
    def test_longer_lines_and_unicode_blanks_match_the_reference(self, rest):
        assert _match_inline_label(rest) == reference_inline_label(rest)


class TestRender:
    def test_two_node_graph(self):
        graph = FlowGraph(
            nodes=(FlowNode("A", "Start", NodeShape.PROCESS), FlowNode("B", "End", NodeShape.PROCESS)),
            edges=(FlowEdge("A", "B"),),
        )
        assert render_mermaid(graph) == "flowchart TD\nA[Start]\nB[End]\nA --> B\n"

    def test_decision_with_labeled_branches(self):
        graph = FlowGraph(
            nodes=(
                FlowNode("B", "OK?", NodeShape.DECISION),
                FlowNode("C", "yes path", NodeShape.PROCESS),
                FlowNode("D", "no path", NodeShape.PROCESS),
            ),
            edges=(FlowEdge("B", "C", value="Yes"), FlowEdge("B", "D", value="No")),
        )
        script = render_mermaid(graph)
        assert "B{OK?}" in script
        assert "B -->|Yes| C" in script
        assert "B -->|No| D" in script

    def test_direction_choices(self):
        graph = FlowGraph(nodes=(FlowNode("A", "x"),))
        assert render_mermaid(graph, "LR").startswith("flowchart LR\n")
        with pytest.raises(ValueError):
            render_mermaid(graph, "XY")

    def test_invalid_graph_rejected(self):
        with pytest.raises(GraphIntegrityError):
            render_mermaid(FlowGraph(nodes=(FlowNode("A", "x"), FlowNode("A", "y"))))

    def test_bracket_characters_escaped_and_restored(self):
        graph = FlowGraph(
            nodes=(
                FlowNode("A", "a[b]{c}(d)|e/f", NodeShape.PROCESS),
                FlowNode("B", "plain", NodeShape.TERMINATOR),
            ),
            edges=(FlowEdge("A", "B", value="x|y"),),
        )
        script = render_mermaid(graph)
        parsed = parse_mermaid(script)
        assert parsed.nodes[0].value == "a[b]{c}(d)|e/f"
        assert parsed.edges[0].value == "x|y"


class TestRoundTrip:
    def test_generator_graphs(self):
        spec = GenSpec(seed=5)
        for index in range(60):
            graph = generate_graph(spec, index)
            parsed = parse_mermaid(render_mermaid(graph))
            assert canonicalize(parsed) == canonicalize(
                unspecified_as_process(FlowGraph(nodes=graph.nodes, edges=graph.edges))
            )

    def test_random_graphs(self):
        rng = random.Random(17)
        for _ in range(60):
            graph = random_graph(rng)
            parsed = parse_mermaid(render_mermaid(graph, "LR"))
            assert canonicalize(parsed) == canonicalize(unspecified_as_process(graph))

    def test_parser_total_on_renderer_output(self):
        rng = random.Random(29)
        for _ in range(60):
            graph = random_graph(rng)
            parse_mermaid(render_mermaid(graph))  # must not raise
