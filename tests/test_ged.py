import random
from dataclasses import replace

import pytest

from flowrag.graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    LineStyle,
    NodeShape,
)
from flowrag.ged import (
    CostModel,
    GraphTooLargeError,
    apply_edit_path,
    content_signature,
    evaluate_predictions,
    ged_approx,
    ged_exact,
    render_ged_report_csv,
    render_ged_report_markdown,
    GED_REPORT_COLUMNS,
)

from helpers import oracle_ged, oracle_tie_break, random_graph

UNIT = CostModel()
# Every cost a small multiple of a power of two: sums stay exact in floating
# point, so equal-cost mappings really tie.
DYADIC = CostModel(
    node_insert=2.0,
    node_delete=1.5,
    node_substitute=0.5,
    edge_insert=0.75,
    edge_delete=1.25,
    edge_substitute=1.0,
)


def chain(values: list[str], ids: list[str] | None = None) -> FlowGraph:
    ids = ids or [chr(ord("A") + i) for i in range(len(values))]
    nodes = tuple(FlowNode(i, v) for i, v in zip(ids, values))
    edges = tuple(FlowEdge(ids[i], ids[i + 1]) for i in range(len(values) - 1))
    return FlowGraph(nodes=nodes, edges=edges)


def pair_rng(seed: int) -> random.Random:
    return random.Random(f"ged-pairs-{seed}")


class TestCostModel:
    def test_defaults_are_unit(self):
        assert UNIT.node_substitute == 1.0
        assert UNIT.edge_insert == 1.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(node_delete=-1.0)

    def test_dominated_substitution_rejected(self):
        with pytest.raises(ValueError):
            CostModel(node_substitute=3.0, node_insert=1.0, node_delete=1.0)
        with pytest.raises(ValueError):
            CostModel(edge_substitute=2.5)

    def test_from_dict(self):
        model = CostModel.from_dict({"node_substitute": 0.5})
        assert model.node_substitute == 0.5
        with pytest.raises(ValueError):
            CostModel.from_dict({"bogus": 1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["node_insert", "node_delete", "edge_substitute"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            CostModel(**{name: value})

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_from_dict_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="edge_insert"):
            CostModel.from_dict({"edge_insert": float(value)})
        with pytest.raises(ValueError, match="node_insert"):
            CostModel.from_dict({"node_insert": float(value), "node_delete": float(value)})

    @pytest.mark.parametrize(
        "data", [{"edge_insert": None}, {"edge_insert": True}, {"edge_insert": "1"}, [1.0], 2.0]
    )
    def test_from_dict_malformed_rejected(self, data):
        with pytest.raises(ValueError):
            CostModel.from_dict(data)


class TestGedExact:
    def test_identity_zero_distance_empty_path(self):
        graph = chain(["start", "check", "end"])
        result = ged_exact(graph, graph)
        assert result.distance == 0.0
        assert result.edit_path == ()
        assert result.exact is True
        assert result.nodes_detected == 3
        assert result.edges_detected == 2

    def test_single_substitution(self):
        a = chain(["start", "check", "end"])
        b = chain(["start", "verify", "end"])
        result = ged_exact(a, b)
        assert result.distance == 1.0
        kinds = [op.kind for op in result.edit_path]
        assert kinds == ["substitute-node"]

    def test_value_normalization_is_casefold_and_whitespace(self):
        a = chain(["Send  Alarm"])
        b = chain(["send alarm"])
        assert ged_exact(a, b).distance == 0.0

    def test_empty_vs_graph(self):
        graph = chain(["a", "b"])
        assert ged_exact(FlowGraph(), graph).distance == 3.0  # 2 nodes + 1 edge
        assert ged_exact(graph, FlowGraph()).distance == 3.0

    def test_directed_never_matches_bidirectional(self):
        nodes = (FlowNode("A", "x"), FlowNode("B", "y"))
        directed = FlowGraph(nodes=nodes, edges=(FlowEdge("A", "B"),))
        bidir = FlowGraph(nodes=nodes, edges=(FlowEdge("A", "B", bidirectional=True),))
        assert ged_exact(directed, bidir).distance == 2.0  # delete + insert

    def test_bidirectional_matches_reversed_storage(self):
        nodes = (FlowNode("A", "x"), FlowNode("B", "y"))
        forward = FlowGraph(nodes=nodes, edges=(FlowEdge("A", "B", bidirectional=True),))
        backward = FlowGraph(nodes=nodes, edges=(FlowEdge("B", "A", bidirectional=True),))
        assert ged_exact(forward, backward).distance == 0.0

    def test_multi_edges_between_same_pair(self):
        nodes = (FlowNode("A", "x"), FlowNode("B", "y"))
        two = FlowGraph(
            nodes=nodes,
            edges=(FlowEdge("A", "B", value="yes"), FlowEdge("A", "B", value="no")),
        )
        one = FlowGraph(nodes=nodes, edges=(FlowEdge("A", "B", value="yes"),))
        assert ged_exact(two, one).distance == 1.0

    def test_budget_enforced(self):
        big = FlowGraph(nodes=tuple(FlowNode(f"N{i}", "x") for i in range(6)))
        with pytest.raises(GraphTooLargeError) as excinfo:
            ged_exact(big, big, node_budget=5)
        assert "ged_approx" in str(excinfo.value)

    def test_oracle_equivalence(self):
        rng = pair_rng(1)
        for _ in range(60):
            a, b = random_graph(rng), random_graph(rng)
            expected = oracle_ged(a, b, UNIT)
            assert ged_exact(a, b).distance == pytest.approx(expected, abs=1e-9)

    def test_oracle_equivalence_non_unit_costs(self):
        costs = CostModel(
            node_insert=2.0,
            node_delete=1.5,
            node_substitute=3.0,
            edge_insert=0.7,
            edge_delete=1.2,
            edge_substitute=1.1,
        )
        rng = pair_rng(2)
        for _ in range(40):
            a, b = random_graph(rng), random_graph(rng)
            expected = oracle_ged(a, b, costs)
            assert ged_exact(a, b, costs).distance == pytest.approx(expected, abs=1e-9)

    def test_metric_axioms(self):
        rng = pair_rng(3)
        for _ in range(30):
            a, b, c = (random_graph(rng) for _ in range(3))
            d_ab = ged_exact(a, b).distance
            assert ged_exact(a, a).distance == 0.0
            assert d_ab == pytest.approx(ged_exact(b, a).distance, abs=1e-9)
            assert ged_exact(a, c).distance <= d_ab + ged_exact(b, c).distance + 1e-9

    def test_deterministic_tie_break(self):
        # Both mappings cost 1; the winner maps A to the smaller truth id.
        pred = FlowGraph(nodes=(FlowNode("A", "x"),))
        truth = FlowGraph(nodes=(FlowNode("T1", "x"), FlowNode("T2", "x")))
        result = ged_exact(pred, truth)
        assert result.mapping == (("A", "T1"),)
        again = ged_exact(pred, truth)
        assert again == result

    @pytest.mark.parametrize("costs", [UNIT, DYADIC], ids=["unit", "dyadic"])
    def test_tie_break_is_lexicographic_minimum(self, costs):
        # Against brute force: of all minimum-cost mappings, the one whose
        # truth ids in pred node order (deletion last) are smallest.
        rng = pair_rng(4)
        for _ in range(60):
            a, b = random_graph(rng), random_graph(rng)
            assert ged_exact(a, b, costs).mapping == oracle_tie_break(a, b, costs)


class TestGedApprox:
    def test_identity_is_zero(self):
        rng = pair_rng(4)
        for _ in range(40):
            graph = random_graph(rng)
            result = ged_approx(graph, graph)
            assert result.distance == 0.0
            assert result.exact is False

    def test_identity_with_symmetric_duplicates(self):
        # Two interchangeable "a" nodes whose neighborhoods only differ two
        # hops out; a careless assignment would swap them at nonzero cost.
        graph = FlowGraph(
            nodes=(
                FlowNode("X", "a"),
                FlowNode("Y", "a"),
                FlowNode("P", "p"),
                FlowNode("Q", "q"),
            ),
            edges=(FlowEdge("X", "P"), FlowEdge("Y", "Q")),
        )
        assert ged_approx(graph, graph).distance == 0.0

    def test_upper_bound_on_exact(self):
        rng = pair_rng(5)
        for _ in range(60):
            a, b = random_graph(rng), random_graph(rng)
            assert ged_approx(a, b).distance >= ged_exact(a, b).distance - 1e-9

    def test_disjoint_graphs_full_reconstruction(self):
        # All values globally unique and every node has an incident edge, so
        # no node-level mapping is strictly cheaper than delete plus insert.
        rng = pair_rng(6)
        for case in range(20):
            a = _disjoint_cycle(rng, f"a{case}")
            b = _disjoint_cycle(rng, f"b{case}")
            expected = len(a.nodes) + len(b.nodes) + len(a.edges) + len(b.edges)
            result = ged_approx(a, b)
            assert result.distance == pytest.approx(expected)
            assert result.distance >= oracle_ged(a, b, UNIT) - 1e-9

    def test_empty_sides(self):
        graph = chain(["a", "b"])
        assert ged_approx(FlowGraph(), graph).distance == 3.0
        assert ged_approx(graph, FlowGraph()).distance == 3.0
        assert ged_approx(FlowGraph(), FlowGraph()).distance == 0.0

    def test_deterministic(self):
        rng = pair_rng(7)
        for _ in range(20):
            a, b = random_graph(rng), random_graph(rng)
            assert ged_approx(a, b) == ged_approx(a, b)


def _disjoint_cycle(rng: random.Random, tag: str) -> FlowGraph:
    n = rng.randint(2, 5)
    nodes = tuple(FlowNode(f"{tag}n{i}", f"{tag} value {i}") for i in range(n))
    edges = tuple(
        FlowEdge(nodes[i].id, nodes[(i + 1) % n].id, value=f"{tag} label {i}")
        for i in range(n)
    )
    return FlowGraph(nodes=nodes, edges=edges)


class TestEditPaths:
    @pytest.mark.parametrize("solver", [ged_exact, ged_approx])
    def test_apply_transforms_predicted_into_truth(self, solver):
        rng = pair_rng(8)
        for _ in range(60):
            a, b = random_graph(rng), random_graph(rng)
            result = solver(a, b)
            applied = apply_edit_path(a, result.edit_path)
            assert content_signature(applied) == content_signature(b)

    def test_distance_equals_path_cost(self):
        rng = pair_rng(9)
        for _ in range(40):
            a, b = random_graph(rng), random_graph(rng)
            for solver in (ged_exact, ged_approx):
                result = solver(a, b)
                assert result.distance == pytest.approx(
                    sum(op.cost for op in result.edit_path), abs=1e-9
                )

    def test_zero_cost_rename_included(self):
        a = FlowGraph(nodes=(FlowNode("P", "same"),))
        b = FlowGraph(nodes=(FlowNode("T", "same"),))
        result = ged_exact(a, b)
        assert result.distance == 0.0
        assert [op.kind for op in result.edit_path] == ["substitute-node"]
        assert result.edit_path[0].cost == 0.0


class TestShapeBlindness:
    def test_shapes_change_nothing(self):
        rng = pair_rng(10)
        for _ in range(30):
            a, b = random_graph(rng), random_graph(rng)
            reshaped_a = FlowGraph(
                nodes=tuple(replace(n, shape=rng.choice(list(NodeShape))) for n in a.nodes),
                edges=a.edges,
            )
            assert ged_exact(a, b) == ged_exact(reshaped_a, b)

    def test_line_styles_change_nothing(self):
        rng = pair_rng(11)
        for _ in range(30):
            a, b = random_graph(rng), random_graph(rng)
            restyled = FlowGraph(
                nodes=a.nodes,
                edges=tuple(
                    replace(e, line_style=rng.choice(list(LineStyle))) for e in a.edges
                ),
            )
            assert ged_exact(a, b).distance == ged_exact(restyled, b).distance


class TestEvaluatePredictions:
    def test_identical_pairs(self):
        rng = pair_rng(12)
        graphs = [random_graph(rng, graph_id=f"g{i}") for i in range(5)]
        report = evaluate_predictions([(g, g) for g in graphs])
        assert report.avg_distance == 0.0
        assert report.avg_nodes_detected == report.avg_truth_nodes
        assert report.avg_edges_detected == report.avg_truth_edges

    def test_single_substitution_pair(self):
        a = chain(["start", "check", "end"])
        b = chain(["start", "verify", "end"])
        report = evaluate_predictions([(a, b)])
        assert report.avg_distance == 1.0

    def test_unparseable_prediction_scores_full_cost(self):
        truth = chain(["a", "b", "c"])  # 3 nodes + 2 edges
        good = truth
        report = evaluate_predictions([(good, truth), (None, truth)])
        assert report.pair_scores[1].result.distance == 5.0
        assert report.pair_scores[1].result.nodes_detected == 0
        assert report.pair_scores[1].predicted_parsed is False
        assert report.avg_distance == 2.5

    def test_budget_selects_solver(self):
        small = chain(["a", "b"])
        big = chain([f"v{i}" for i in range(15)], ids=[f"N{i}" for i in range(15)])
        report = evaluate_predictions([(small, small), (big, big)], node_budget=12)
        assert report.pair_scores[0].result.exact is True
        assert report.pair_scores[1].result.exact is False

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            evaluate_predictions([])

    def test_report_renderers(self):
        a = chain(["start", "check", "end"])
        report = evaluate_predictions([(a, a)], label="demo")
        markdown = render_ged_report_markdown(report)
        for column in GED_REPORT_COLUMNS:
            assert column in markdown
        assert "| demo |" in markdown
        csv_text = render_ged_report_csv(report)
        assert csv_text.splitlines()[0] == "Model," + ",".join(
            f'"{c}"' if "," in c else c for c in GED_REPORT_COLUMNS
        )
