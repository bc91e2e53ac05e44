import hashlib
import multiprocessing
import os
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

import flowrag.ged as ged_module

from flowrag.graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    GraphIntegrityError,
    LineStyle,
    NodeShape,
    parse_json,
    serialize_json,
)
from flowrag.ged import (
    CostModel,
    GedReport,
    GraphTooLargeError,
    apply_edit_path,
    content_signature,
    evaluate_predictions,
    ged_approx,
    ged_exact,
    PairScore,
    render_ged_report_csv,
    render_ged_report_markdown,
    GED_REPORT_COLUMNS,
    _anchor_costs,
    _count_cost,
    _multiset_cost,
    _Pair,
)

from helpers import (
    NEEDS_FORK,
    oracle_ged,
    oracle_tie_break,
    random_graph,
    reference_anchor_costs,
    reference_ged_approx,
    same_label_digraph,
)

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
# The model of test_oracle_equivalence_non_unit_costs: its sums round in
# binary floating point.
NON_DYADIC = CostModel(
    node_insert=2.0,
    node_delete=1.5,
    node_substitute=3.0,
    edge_insert=0.7,
    edge_delete=1.2,
    edge_substitute=1.1,
)


def chain(values: list[str], ids: list[str] | None = None) -> FlowGraph:
    ids = ids or [chr(ord("A") + i) for i in range(len(values))]
    nodes = tuple(FlowNode(i, v) for i, v in zip(ids, values))
    edges = tuple(FlowEdge(ids[i], ids[i + 1]) for i in range(len(values) - 1))
    return FlowGraph(nodes=nodes, edges=edges)


def pair_rng(seed: int) -> random.Random:
    return random.Random(f"ged-pairs-{seed}")


# Node and edge values that differ only in case or whitespace, so that edges
# tie on their normalized value but not on their raw one.
SPELLINGS = ["start", "Start", " start", "check  alarm", "Check alarm", "stop"]
LABEL_SPELLINGS = [None, "", "yes", "Yes", " yes ", "no", "NO"]


def _op_record(op):
    """An edit op as plain values, for hashing."""
    edges = [
        None if e is None else (e.src, e.dst, e.value, e.bidirectional, e.line_style.value)
        for e in (op.pred_edge, op.truth_edge)
    ]
    return (op.kind, op.cost.hex(), op.pred_id, op.truth_id, op.value, *edges)


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
        "data",
        [
            {"edge_insert": None},
            {"edge_insert": True},
            {"edge_insert": "1"},
            {"edge_insert": 10**400},  # too large for a float
            [1.0],
            2.0,
        ],
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
        assert ged_exact(FlowGraph(), FlowGraph()).distance == 0.0
        # The bound prices the completion, at any scale of costs.
        large = CostModel(node_insert=4e6, node_delete=4e6)
        assert ged_exact(FlowGraph(), graph, large).distance == 8e6 + 1.0
        assert ged_exact(graph, FlowGraph(), large).distance == 8e6 + 1.0
        node = (FlowNode("A", "x"),)
        for bidirectional in (False, True):
            loop = FlowGraph(nodes=node, edges=(FlowEdge("A", "A", bidirectional=bidirectional),))
            for predicted, truth in ((FlowGraph(), loop), (loop, FlowGraph())):
                result = ged_exact(predicted, truth)
                assert result.distance == 2.0  # 1 node + 1 loop, priced once
                applied = apply_edit_path(predicted, result.edit_path)
                assert content_signature(applied) == content_signature(truth)

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

    @pytest.mark.parametrize(
        "nodes, edges, violation",
        [
            ((FlowNode("A", "x"), FlowNode("A", "y")), (), "duplicate node id 'A'"),
            ((FlowNode("A", "x"),), (FlowEdge("A", "B"),), "edge references unknown node 'B'"),
        ],
    )
    def test_invalid_prediction_never_scored(self, nodes, edges, violation):
        truth = FlowGraph(nodes=(FlowNode("A", "x"), FlowNode("B", "y")))
        with pytest.raises(GraphIntegrityError) as excinfo:
            ged_exact(FlowGraph(nodes=nodes, edges=edges), truth)
        assert excinfo.value.violations == [violation]

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

    @pytest.mark.parametrize(
        "costs", [UNIT, DYADIC, NON_DYADIC], ids=["unit", "dyadic", "non-dyadic"]
    )
    def test_truth_node_order_changes_nothing(self, costs):
        # random_graph lists its nodes in id order, as the tie-break tests
        # above use them. The search numbers truth nodes by id, so shuffling
        # them moves no tie, not even one that rounding decides (these
        # non-dyadic pairs include one).
        rng = pair_rng(16)
        for _ in range(60):
            a, b = random_graph(rng, max_nodes=6), random_graph(rng, max_nodes=6)
            shuffled = replace(b, nodes=rng.sample(b.nodes, len(b.nodes)))
            assert ged_exact(a, shuffled, costs) == ged_exact(a, b, costs)

    @pytest.mark.parametrize(
        "costs", [UNIT, DYADIC, NON_DYADIC], ids=["unit", "dyadic", "non-dyadic"]
    )
    def test_anchor_costs_match_counter_reference(self, costs):
        rng = pair_rng(10)
        for _ in range(60):
            a, b = random_graph(rng, max_nodes=7), random_graph(rng, max_nodes=7)
            got = _anchor_costs(_Pair(a, b, costs))
            for array, expected in zip(got, reference_anchor_costs(a, b, costs)):
                assert array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "costs", [UNIT, DYADIC, NON_DYADIC], ids=["unit", "dyadic", "non-dyadic"]
    )
    def test_count_cost_matches_multiset_cost(self, costs):
        # The search prices its open edges with Python ints, the cost tables
        # with NumPy arrays: the two must give the same float, bit for bit.
        rng = random.Random("count-cost")
        for _ in range(500):
            labels = rng.randint(0, 6)
            top = rng.choice((1, 3, 40))
            c1, c2 = ([rng.randint(0, top) for _ in range(labels)] for _ in range(2))
            expected = float(_multiset_cost(np.array(c1, dtype=np.int64), np.array(c2), costs))
            assert _count_cost(c1, c2, costs).hex() == expected.hex()

    @pytest.mark.parametrize("costs, expected", [
        (UNIT, [47, 8, 14, 31, 3, 12]),
        (NON_DYADIC, [45, 7, 14, 19, 3, 20]),
    ], ids=["unit", "non-dyadic"])
    def test_search_effort_is_pinned(self, monkeypatch, costs, expected):
        # A bound that gets weaker but stays admissible returns the same
        # distances and only expands more states. The number of assignments
        # solved per pair, one per bound, shows it.
        calls = []
        solve = ged_module.linear_sum_assignment
        monkeypatch.setattr(
            ged_module, "linear_sum_assignment", lambda matrix: calls.append(1) or solve(matrix)
        )
        rng = pair_rng(12)
        pairs = [(same_label_digraph(rng, 7, 8), same_label_digraph(rng, 7, 8))]
        pairs += [(random_graph(rng, 7), random_graph(rng, 7)) for _ in range(5)]
        counts = []
        for a, b in pairs:
            calls.clear()
            ged_exact(a, b, costs)
            counts.append(len(calls))
        assert counts == expected

    @pytest.mark.parametrize("costs", [UNIT, DYADIC], ids=["unit", "dyadic"])
    def test_same_label_ties_pop_in_order(self, costs):
        # Every node carries one value, so every ordering ties on label and
        # most states tie on f: the lazily bounded search must still return
        # the brute-force minimum and its lexicographic tie-break.
        rng = pair_rng(8)
        for _ in range(8):
            a, b = (
                same_label_digraph(rng, n, rng.randint(n - 1, 2 * n))
                for n in (rng.randint(4, 5), rng.randint(4, 6))
            )
            result = ged_exact(a, b, costs)
            assert result.distance == oracle_ged(a, b, costs)
            assert result.mapping == oracle_tie_break(a, b, costs)


    @pytest.mark.parametrize("costs, expected", [
        (UNIT, "714ab9a9afb31f709efceb0b2990b6bfe095b2224d7b5dd99d6644d0f05f8e88"),
        (DYADIC, "267aa76af8d768389450e6a2654de478d7703a7efcd77520bc015732edaed1d7"),
    ], ids=["unit", "dyadic"])
    def test_golden_digest(self, costs, expected):
        # Distance, mapping and edit path over a fixed pair set, hashed. A
        # refactor that leaves results alone leaves the digest alone. Only
        # costs that sum exactly in binary floating point are hashed: their
        # distances and tie-breaks cannot move with the NumPy or SciPy
        # version, so the recorded digest holds on every platform.
        rng = pair_rng(13)
        pairs = [(random_graph(rng, 7), random_graph(rng, 7)) for _ in range(100)]
        pairs += [
            (random_graph(rng, 6, value_pool=SPELLINGS, label_pool=LABEL_SPELLINGS),
             random_graph(rng, 6, value_pool=SPELLINGS, label_pool=LABEL_SPELLINGS))
            for _ in range(100)
        ]
        pairs += [
            (same_label_digraph(rng, 6, 9), same_label_digraph(rng, 7, 10)) for _ in range(4)
        ]
        digest = hashlib.sha256()
        for a, b in pairs:
            result = ged_exact(a, b, costs)
            digest.update(repr((
                result.distance.hex(),
                result.mapping,
                [_op_record(op) for op in result.edit_path],
            )).encode())
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("solver", [ged_exact, ged_approx])
    def test_each_value_is_normalized_once(self, monkeypatch, solver):
        # One solve normalizes each node value and each edge value of the
        # two graphs once, however many tables and edit ops read them.
        calls = []
        normalize = ged_module.normalize_label
        monkeypatch.setattr(
            ged_module, "normalize_label", lambda value: calls.append(1) or normalize(value)
        )
        rng = pair_rng(14)
        for _ in range(20):
            a, b = random_graph(rng, 7), random_graph(rng, 7)
            calls.clear()
            solver(a, b)
            assert len(calls) <= len(a.nodes) + len(a.edges) + len(b.nodes) + len(b.edges)


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

    @pytest.mark.parametrize(
        "costs", [UNIT, DYADIC, NON_DYADIC], ids=["unit", "dyadic", "non-dyadic"]
    )
    def test_matches_counter_reference(self, costs):
        # The array-native assignment matrix against the pair-by-pair
        # Counter construction it replaced, bit for bit.
        rng = pair_rng(9)
        for _ in range(200):
            a, b = random_graph(rng, max_nodes=7), random_graph(rng, max_nodes=7)
            result, expected = ged_approx(a, b, costs), reference_ged_approx(a, b, costs)
            assert result.distance.hex() == expected.distance.hex()
            assert result.mapping == expected.mapping
            assert result.edit_path == expected.edit_path

    @pytest.mark.parametrize(
        "costs", [UNIT, DYADIC, NON_DYADIC], ids=["unit", "dyadic", "non-dyadic"]
    )
    def test_truth_node_order_changes_nothing(self, costs):
        # The assignment breaks cost ties by column, and columns follow the
        # truth's node ids, not the order the truth lists its nodes in.
        rng = pair_rng(17)
        for _ in range(1000):
            a, b = random_graph(rng), random_graph(rng)
            shuffled = replace(b, nodes=rng.sample(b.nodes, len(b.nodes)))
            assert ged_approx(a, shuffled, costs) == ged_approx(a, b, costs)


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

    @pytest.mark.parametrize("solver", [ged_exact, ged_approx])
    def test_emptied_and_inserted_nodes_become_connectors(self, solver):
        pred = FlowGraph(
            nodes=(FlowNode("A", "Start", NodeShape.PROCESS),
                   FlowNode("B", "Check", NodeShape.PROCESS)),
            edges=(FlowEdge("A", "B"),),
        )
        truth = FlowGraph(
            nodes=(FlowNode("A", "Start", NodeShape.PROCESS),
                   FlowNode("B", "", NodeShape.CONNECTOR),
                   FlowNode("C", "", NodeShape.CONNECTOR)),
            edges=(FlowEdge("A", "B"), FlowEdge("B", "C")),
        )
        result = solver(pred, truth)
        # "Check" becomes one empty connector, the other is inserted.
        assert [(op.kind, op.pred_id) for op in result.edit_path if "node" in op.kind] == [
            ("substitute-node", "B"),
            ("insert-node", None),
        ]
        applied = apply_edit_path(pred, result.edit_path)
        assert content_signature(applied) == content_signature(truth)
        assert {n.id: n.shape for n in applied.nodes} == {
            "A": NodeShape.PROCESS, "B": NodeShape.CONNECTOR, "C": NodeShape.CONNECTOR,
        }
        assert parse_json(serialize_json(applied)) == applied

    def test_distance_equals_path_cost(self):
        rng = pair_rng(9)
        for _ in range(40):
            a, b = random_graph(rng), random_graph(rng)
            for solver in (ged_exact, ged_approx):
                result = solver(a, b)
                assert result.distance == pytest.approx(
                    sum(op.cost for op in result.edit_path), abs=1e-9
                )

    def test_path_order(self):
        """Edge deletes, node deletes, node substitutions, node inserts, edge
        substitutions, edge inserts; node ops by id, edge ops by edge. Unit
        costs make one substitution cheaper than a delete plus an insert, so
        the exact solver never emits both; ged_approx unmaps C and D here."""
        pred = FlowGraph(
            nodes=(FlowNode("F", "first"), FlowNode("E", "end"), FlowNode("C", "old"),
                   FlowNode("B", "check"), FlowNode("A", "start")),
            edges=(FlowEdge("A", "E", "ok"), FlowEdge("A", "B", "go"),
                   FlowEdge("C", "C", "x"), FlowEdge("C", "C", "w")),
        )
        truth = FlowGraph(
            nodes=(FlowNode("A", "start"), FlowNode("B", "verify"), FlowNode("D", "new"),
                   FlowNode("E", "end"), FlowNode("F", "last")),
            edges=(FlowEdge("A", "B", "go"), FlowEdge("A", "E", "fine"),
                   FlowEdge("D", "D", "z"), FlowEdge("D", "D", "v")),
        )
        result = ged_approx(pred, truth, UNIT)

        def step(op):
            edge = op.pred_edge or op.truth_edge
            if edge is None:
                return op.kind, op.pred_id or op.truth_id
            return op.kind, (edge.src, edge.dst, edge.value)

        assert [step(op) for op in result.edit_path] == [
            ("delete-edge", ("C", "C", "w")),
            ("delete-edge", ("C", "C", "x")),
            ("delete-node", "C"),
            ("substitute-node", "B"),
            ("substitute-node", "F"),
            ("insert-node", "D"),
            ("substitute-edge", ("A", "E", "ok")),
            ("insert-edge", ("D", "D", "v")),
            ("insert-edge", ("D", "D", "z")),
        ]
        assert result.distance == 9.0

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

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="at least one pair"):
            GedReport(label="empty", pair_scores=())

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


MIXED_BUDGET = 5


def mixed_batch(count: int = 72) -> list:
    """Pairs of up to 7 nodes: every ninth prediction is unparseable (None),
    and pairs above ``MIXED_BUDGET`` nodes take ``ged_approx``."""
    rng = pair_rng(40)
    pairs = []
    for i in range(count):
        truth = random_graph(rng, max_nodes=7, graph_id=f"g{i:03d}")
        predicted = None if i % 9 == 4 else random_graph(rng, max_nodes=7)
        pairs.append((predicted, truth))
    return pairs


def expected_scores(pairs, costs) -> tuple:
    """``evaluate_predictions``'s scores, from one solver call per pair."""
    scores = []
    for predicted, truth in pairs:
        graph = predicted if predicted is not None else FlowGraph()
        if max(len(graph.nodes), len(truth.nodes)) <= MIXED_BUDGET:
            result = ged_exact(graph, truth, costs, MIXED_BUDGET)
        else:
            result = ged_approx(graph, truth, costs)
        scores.append(PairScore(truth.graph_id, len(truth.nodes), len(truth.edges),
                                predicted is not None, result))
    return tuple(scores)


def forbid_processes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(ged_module, "ProcessPoolExecutor", refuse)


@NEEDS_FORK
class TestEvaluateInProcesses:
    def test_process_path_matches_per_pair_solves(self, monkeypatch):
        pairs = mixed_batch()
        expected = expected_scores(pairs, NON_DYADIC)
        assert any(p is None for p, _ in pairs)
        assert any(s.result.exact for s in expected) and not all(s.result.exact for s in expected)
        started = []

        class Recorded(ged_module.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                started.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(ged_module, "ProcessPoolExecutor", Recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        report = evaluate_predictions(pairs, NON_DYADIC, MIXED_BUDGET)
        assert started == [2]  # 72 pairs hold two processes' worth, not three
        assert report.pair_scores == expected
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "cpus, count", [({0}, 72), ({0, 1}, 63)], ids=["one-cpu", "small-batch"]
    )
    def test_in_process_below_two_workers(self, monkeypatch, cpus, count):
        pairs = mixed_batch(count)
        forbid_processes(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        report = evaluate_predictions(pairs, NON_DYADIC, MIXED_BUDGET)
        assert report.pair_scores == expected_scores(pairs, NON_DYADIC)
        assert ged_module._worker_job is None

    def test_second_thread_scores_in_process(self, monkeypatch):
        pairs = mixed_batch()
        forbid_processes(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            report = evaluate_predictions(pairs, NON_DYADIC, MIXED_BUDGET)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert report.pair_scores == expected_scores(pairs, NON_DYADIC)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        pairs = mixed_batch()
        solve = ged_exact

        def failing(predicted, truth, *args):
            if truth.graph_id == "g040":
                raise ValueError("cannot score g040")
            return solve(predicted, truth, *args)

        # Forked workers inherit the patched solver.
        monkeypatch.setattr(ged_module, "ged_exact", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ValueError, match="^cannot score g040$"):
            evaluate_predictions(pairs, UNIT, 12)
        assert multiprocessing.active_children() == []
