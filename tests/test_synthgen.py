import json
import random
import re
import types

import pytest

import flowrag.synthgen as synthgen
from flowrag.errors import FlowragError
from flowrag.graph_model import FlowGraph, FlowNode, LineStyle, NodeShape, serialize_json
from flowrag.synthgen import (
    ConfigError,
    GenSpec,
    QaCategory,
    SplitConfig,
    generate_corpus,
    generate_graph,
    generate_qa,
    read_qa_jsonl,
    write_qa_jsonl,
)


def reachable_from_start(graph) -> set[str]:
    forward = {}
    for edge in graph.edges:
        forward.setdefault(edge.src, set()).add(edge.dst)
        if edge.bidirectional:
            forward.setdefault(edge.dst, set()).add(edge.src)
    seen = {"N1"}
    frontier = ["N1"]
    while frontier:
        node = frontier.pop()
        for nxt in forward.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def supported_questions(graph) -> set[str]:
    """Every question text ``generate_qa`` can draw from ``graph``."""
    by_id = {n.id: n for n in graph.nodes}
    questions = {f"What happens after {n.value}?" for n in graph.nodes if n.value}
    questions |= {
        f"Which step follows {by_id[e.src].value} when {e.value}?"
        for e in graph.edges
        if e.value and by_id[e.src].value
    }
    for node in graph.nodes:
        if node.shape is not NodeShape.DECISION:
            continue
        after = {e.dst for e in graph.edges if e.src == node.id}
        after |= {e.src for e in graph.edges if e.bidirectional and e.dst == node.id}
        named = [by_id[i].value for i in after if by_id[i].value]
        if len(named) >= 2:
            questions |= {
                f"What is checked to decide between {a} and {b}?"
                for i, a in enumerate(named)
                for j, b in enumerate(named)
                if i != j
            }
    return questions


class BoundedRandom(random.Random):
    """A generator that fails once it has made more draws than any graph of
    the tests below needs, so a loop that keeps drawing fails fast."""

    limit = 20_000

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def _count(self):
        self.draws += 1
        assert self.draws <= self.limit, "generate_qa kept drawing"

    def choice(self, seq):
        self._count()
        return super().choice(seq)

    def sample(self, population, k):
        self._count()
        return super().sample(population, k)


class TestGenerateGraph:
    def test_smallest_graph(self):
        spec = GenSpec(node_count_range=(1, 1), decision_fraction=0.0, seed=1)
        graph = generate_graph(spec, 0)
        assert len(graph.nodes) == 1
        assert graph.nodes[0].shape is NodeShape.TERMINATOR
        assert graph.edges == ()

    def test_deterministic_per_seed_and_index(self):
        spec = GenSpec(seed=42)
        assert serialize_json(generate_graph(spec, 3)) == serialize_json(
            generate_graph(spec, 3)
        )
        assert serialize_json(generate_graph(spec, 3)) != serialize_json(
            generate_graph(spec, 4)
        )
        other = GenSpec(seed=43)
        assert serialize_json(generate_graph(spec, 3)) != serialize_json(
            generate_graph(other, 3)
        )

    def test_all_graphs_valid_and_connected(self):
        spec = GenSpec(seed=2)
        for index in range(200):
            graph = generate_graph(spec, index)
            assert reachable_from_start(graph) == {n.id for n in graph.nodes}

    def test_node_count_within_range_and_decision_fraction(self):
        spec = GenSpec(node_count_range=(5, 9), decision_fraction=0.3, seed=3)
        counts = []
        decisions = 0
        others = 0
        for index in range(1000):
            graph = generate_graph(spec, index)
            counts.append(len(graph.nodes))
            for node in graph.nodes[1:]:
                if node.shape is NodeShape.DECISION:
                    decisions += 1
                else:
                    others += 1
        assert all(5 <= c <= 9 for c in counts)
        mean = sum(counts) / len(counts)
        assert 5 <= mean <= 9
        fraction = decisions / (decisions + others)
        assert abs(fraction - 0.3) <= 0.05

    def test_decision_nodes_branch_at_least_twice(self):
        spec = GenSpec(decision_fraction=0.5, seed=4)
        for index in range(100):
            graph = generate_graph(spec, index)
            for node in graph.nodes:
                if node.shape is NodeShape.DECISION:
                    out = sum(1 for e in graph.edges if e.src == node.id)
                    assert out >= 2

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ConfigError, match="vocabulary must not be empty"):
            GenSpec(vocabulary=())

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            GenSpec(node_count_range=(0, 3))
        with pytest.raises(ConfigError):
            GenSpec(decision_fraction=1.5)
        with pytest.raises(ConfigError):
            GenSpec(style_mix={style: 0.0 for style in GenSpec().style_mix})
        with pytest.raises(ConfigError, match="style_mix weights must be non-negative"):
            GenSpec(style_mix={LineStyle.SOLID: 1.0, LineStyle.DOTTED: -0.5})
        with pytest.raises(
            ConfigError,
            match="each style_mix key must be one of Solid, Dotted, Dashed, got 'Wavy'",
        ):
            GenSpec.from_dict({"style_mix": {"Wavy": 1}})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("node_count_range", (2.5, 4), "each item of node_count_range must be an integer, got 2.5"),
            ("node_count_range", "ab", "node_count_range must be an array, got 'ab'"),
            ("seed", "1", "seed must be an integer, got '1'"),
            ("seed", True, "seed must be an integer, got True"),
            ("vocabulary", ("a", 2), "each item of vocabulary must be a string, got 2"),
            ("style_mix", {"Solid": 1.0}, "each style_mix key must be a LineStyle, got 'Solid'"),
            ("shape_mix", {"Process": 1.0}, "each shape_mix key must be a NodeShape, got 'Process'"),
            ("shape_mix", [("Process", 1.0)], "shape_mix must be an object, got [('Process', 1.0)]"),
        ],
    )
    def test_constructor_checks_field_types(self, field, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            GenSpec(**{field: value})

    def test_decision_only_shape_mix_falls_back_to_process(self):
        spec = GenSpec(node_count_range=(6, 6), decision_fraction=0.0,
                       shape_mix={NodeShape.DECISION: 1.0}, seed=15)
        graph = generate_graph(spec, 0)
        assert [n.shape for n in graph.nodes[1:]] == [NodeShape.PROCESS] * 5

    def test_spec_dict_round_trip(self):
        spec = GenSpec(seed=9, node_count_range=(2, 4), vocabulary=("a", "b"))
        assert GenSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ConfigError):
            GenSpec.from_dict({"nope": 1})


class TestSplit:
    def test_proportions(self):
        split = SplitConfig.parse("64/16/20")
        assert split.sizes(100) == (64, 16, 20)
        assert split.sizes(10000) == (6400, 1600, 2000)

    def test_remainder_to_train(self):
        split = SplitConfig.parse("64/16/20")
        assert split.sizes(1) == (1, 0, 0)
        # floor(7 * 0.16) = 1, floor(7 * 0.2) = 1, remainder 5 to train
        assert split.sizes(7) == (5, 1, 1)
        assert sum(split.sizes(7)) == 7

    def test_fraction_form(self):
        assert SplitConfig.parse("0.64/0.16/0.2") == SplitConfig.parse("64/16/20")

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError):
            SplitConfig.parse("50/50")
        with pytest.raises(ConfigError):
            SplitConfig(0.5, 0.4, 0.2)
        for text in ("nan/0/0", "0/0/nan"):
            with pytest.raises(ConfigError):
                SplitConfig.parse(text)
        with pytest.raises(ConfigError, match="must be non-negative"):
            SplitConfig(1.2, -0.2, 0)
        with pytest.raises(ConfigError, match="invalid split 'a/b/c'"):
            SplitConfig.parse("a/b/c")


class TestGenerateCorpus:
    def test_writes_splits_and_manifest(self, tmp_path):
        spec = GenSpec(seed=5)
        manifest = generate_corpus(spec, 25, SplitConfig.parse("64/16/20"), tmp_path)
        # floor(25 * 0.16) = 4, floor(25 * 0.2) = 5, remainder 16 to train
        assert (manifest.train, manifest.validation, manifest.test) == (16, 4, 5)
        train_lines = (tmp_path / "graphs.train.jsonl").read_bytes().splitlines()
        val_lines = (tmp_path / "graphs.val.jsonl").read_bytes().splitlines()
        test_lines = (tmp_path / "graphs.test.jsonl").read_bytes().splitlines()
        assert (len(train_lines), len(val_lines), len(test_lines)) == (16, 4, 5)
        record = json.loads((tmp_path / "manifest.json").read_text())
        assert record["seed"] == 5
        assert record["spec_hash"] == spec.content_hash()
        assert record["splits"] == {"train": 16, "validation": 4, "test": 5}

    def test_each_graph_in_exactly_one_split(self, tmp_path):
        spec = GenSpec(seed=6)
        generate_corpus(spec, 30, SplitConfig.parse("64/16/20"), tmp_path)
        ids = []
        for name in ("graphs.train.jsonl", "graphs.val.jsonl", "graphs.test.jsonl"):
            for line in (tmp_path / name).read_text().splitlines():
                ids.append(json.loads(line)["graph_id"])
        assert len(ids) == 30 == len(set(ids))

    def test_byte_identical_across_runs(self, tmp_path):
        spec = GenSpec(seed=7)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_corpus(spec, 40, SplitConfig.parse("64/16/20"), a_dir)
        generate_corpus(spec, 40, SplitConfig.parse("64/16/20"), b_dir)
        for name in ("graphs.train.jsonl", "graphs.val.jsonl", "graphs.test.jsonl", "manifest.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_zero_count_rejected(self, tmp_path):
        out = tmp_path / "corpus"
        with pytest.raises(ConfigError, match="count must be >= 1, got 0"):
            generate_corpus(GenSpec(), 0, SplitConfig(), out)
        assert not out.exists()


class TestGenerateQa:
    def test_per_graph_below_one_rejected(self):
        graph = generate_graph(GenSpec(seed=16), 0)
        with pytest.raises(ConfigError, match="per_graph must be >= 1, got 0"):
            generate_qa(graph, 0, seed=16)

    def test_lone_connector_yields_nothing(self):
        graph = FlowGraph(nodes=(FlowNode("C", "", NodeShape.CONNECTOR),), graph_id="g")
        assert generate_qa(graph, 5, seed=17) == []

    def test_no_decisions_means_no_decision_items(self):
        spec = GenSpec(decision_fraction=0.0, seed=8)
        graph = generate_graph(spec, 0)
        items = generate_qa(graph, 5, seed=8)
        assert items
        assert all(i.category in {QaCategory.NODE, QaCategory.EDGE} for i in items)

    def test_single_node_graph_yields_node_items_only(self):
        spec = GenSpec(node_count_range=(1, 1), decision_fraction=0.0, seed=9)
        graph = generate_graph(spec, 0)
        items = generate_qa(graph, 5, seed=9)
        assert items
        assert all(i.category is QaCategory.NODE for i in items)
        assert all(i.gold_node_ids == frozenset({"N1"}) for i in items)

    def test_items_validate_against_graph(self):
        spec = GenSpec(decision_fraction=0.4, seed=10)
        for index in range(50):
            graph = generate_graph(spec, index)
            node_ids = {n.id for n in graph.nodes}
            shapes = {n.id: n.shape for n in graph.nodes}
            for item in generate_qa(graph, 5, seed=10):
                assert item.graph_id == graph.graph_id
                assert item.gold_node_ids
                assert item.gold_node_ids <= node_ids
                if item.category is QaCategory.DECISION:
                    assert any(
                        shapes[g] is NodeShape.DECISION for g in item.gold_node_ids
                    )

    def test_covers_all_categories_when_possible(self):
        spec = GenSpec(node_count_range=(6, 9), decision_fraction=0.5,
                       edge_value_probability=1.0, seed=11)
        graph = generate_graph(spec, 0)
        items = generate_qa(graph, 6, seed=11)
        assert {i.category for i in items} == {
            QaCategory.NODE,
            QaCategory.EDGE,
            QaCategory.DECISION,
        }

    def test_deterministic(self):
        spec = GenSpec(seed=12)
        graph = generate_graph(spec, 0)
        assert generate_qa(graph, 5, seed=12) == generate_qa(graph, 5, seed=12)

    def test_jsonl_round_trip(self, tmp_path):
        spec = GenSpec(seed=13)
        items = []
        for index in range(10):
            items.extend(generate_qa(generate_graph(spec, index), 5, seed=13))
        path = tmp_path / "qa.jsonl"
        assert write_qa_jsonl(items, path) == len(items)
        assert read_qa_jsonl(path) == items

    def test_record_without_question_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps({"graph_id": "g", "gold_node_ids": [], "category": "N"}))
        with pytest.raises(FlowragError, match="qa.jsonl:1: bad QA record: missing 'question'"):
            read_qa_jsonl(path)

    def test_huge_per_graph_makes_every_question_once(self, monkeypatch):
        spec = GenSpec(node_count_range=(6, 9), decision_fraction=0.5,
                       edge_value_probability=1.0, seed=18)
        graphs = [generate_graph(spec, index) for index in range(20)]
        smaller = [generate_qa(graph, 7, seed=18) for graph in graphs]
        monkeypatch.setattr(synthgen, "random", types.SimpleNamespace(Random=BoundedRandom))
        for graph, prefix in zip(graphs, smaller):
            items = generate_qa(graph, 10**8, seed=18)
            questions = [item.question for item in items]
            assert len(set(questions)) == len(questions)
            assert set(questions) == supported_questions(graph)
            assert items[: len(prefix)] == prefix

    def test_per_graph_density(self):
        spec = GenSpec(seed=14)
        total = 0
        for index in range(105):
            total += len(generate_qa(generate_graph(spec, index), 5, seed=14))
        assert 500 <= total <= 525
