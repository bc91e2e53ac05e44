"""Seeded generation of synthetic flowchart corpora and QA datasets.

Every graph is derived from (seed, index) alone, so corpora are byte-stable
across runs and machines, and distinct indices can be generated in parallel
without changing the output.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import ConfigError
from .graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    LineStyle,
    NodeShape,
    write_graphs_jsonl,
)
from .jsonio import (
    NUMBER,
    config_kwargs,
    create,
    expect,
    expect_list,
    member,
    read_json,
    read_jsonl,
    shown,
    write_jsonl,
)


DEFAULT_VOCABULARY = (
    "Send alarm to node",
    "Check RRC connection state",
    "Handover to target cell",
    "Reset power supply",
    "Measure signal threshold",
    "Retry attach procedure",
    "Update neighbor list",
    "Trigger fault report",
    "Verify license key",
    "Collect performance counters",
    "Escalate to operator",
    "Apply configuration change",
    "Wait for acknowledgement",
    "Release radio bearer",
    "Start supervision timer",
    "Synchronize clock source",
    "Run self test",
    "Page the device",
    "Activate carrier",
    "Block the cell",
    "Audit alarm list",
    "Restart the board",
    "Query subscriber profile",
    "Schedule maintenance window",
)

# Short branch labels for decision successors, in deterministic order.
_BRANCH_LABELS = ("Yes", "No", "Timeout", "Error", "Retry", "Skip")
_EDGE_WORDS = ("OK", "Failed", "Timeout", "Done", "Retry", "Skip")

_DEFAULT_STYLE_MIX = {LineStyle.SOLID: 0.8, LineStyle.DOTTED: 0.1, LineStyle.DASHED: 0.1}
_DEFAULT_SHAPE_MIX = {
    NodeShape.PROCESS: 0.6,
    NodeShape.INPUT_OUTPUT: 0.15,
    NodeShape.UNSPECIFIED: 0.1,
    NodeShape.TERMINATOR: 0.05,
    NodeShape.CONNECTOR: 0.1,
}


@dataclass(frozen=True)
class GenSpec:
    """Knobs for the corpus generator; all randomness flows from ``seed``."""

    node_count_range: tuple[int, int] = (4, 9)
    decision_fraction: float = 0.25
    edge_value_probability: float = 0.6
    bidirectional_probability: float = 0.1
    style_mix: dict[LineStyle, float] = field(
        default_factory=lambda: dict(_DEFAULT_STYLE_MIX)
    )
    shape_mix: dict[NodeShape, float] = field(
        default_factory=lambda: dict(_DEFAULT_SHAPE_MIX)
    )
    vocabulary: tuple[str, ...] = DEFAULT_VOCABULARY
    seed: int = 0

    def __post_init__(self):
        bounds = tuple(expect_list(self.node_count_range, int, "node_count_range"))
        object.__setattr__(self, "node_count_range", bounds)
        vocabulary = tuple(expect_list(self.vocabulary, str, "vocabulary"))
        object.__setattr__(self, "vocabulary", vocabulary)
        if not vocabulary:
            raise ConfigError("vocabulary must not be empty")
        expect(self.seed, int, "seed")
        if len(bounds) != 2 or not 1 <= bounds[0] <= bounds[1]:
            raise ConfigError(
                "node_count_range must be [min, max] with 1 <= min <= max, "
                f"got {shown(list(bounds))}"
            )
        for name in ("decision_fraction", "edge_value_probability", "bidirectional_probability"):
            p = expect(getattr(self, name), NUMBER, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {shown(p)}")
        for name, mix, kind in (
            ("style_mix", self.style_mix, LineStyle), ("shape_mix", self.shape_mix, NodeShape)
        ):
            for key in expect(mix, dict, name):
                expect(key, kind, f"each {name} key")
            if any(expect(w, NUMBER, f"each {name} weight") < 0 for w in mix.values()):
                raise ConfigError(f"{name} weights must be non-negative")
            if not any(w > 0 for w in mix.values()):
                raise ConfigError(f"{name} weights must not all be zero")

    def to_dict(self) -> dict:
        return {
            "node_count_range": list(self.node_count_range),
            "decision_fraction": self.decision_fraction,
            "edge_value_probability": self.edge_value_probability,
            "bidirectional_probability": self.bidirectional_probability,
            "style_mix": {s.value: w for s, w in self.style_mix.items()},
            "shape_mix": {s.value: w for s, w in self.shape_mix.items()},
            "vocabulary": list(self.vocabulary),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenSpec":
        kwargs = config_kwargs(cls, data, "generator spec")
        for key, kind in (("style_mix", LineStyle), ("shape_mix", NodeShape)):
            if key in kwargs:
                kwargs[key] = {
                    member(name, kind, f"each {key} key"): weight
                    for name, weight in expect(kwargs[key], dict, key).items()
                }
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str | Path) -> "GenSpec":
        return cls.from_dict(read_json(path))

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class QaCategory(Enum):
    DECISION = "D"
    NODE = "N"
    EDGE = "E"


@dataclass(frozen=True)
class QaItem:
    question: str
    graph_id: str
    gold_node_ids: frozenset[str]
    category: QaCategory

    def __post_init__(self):
        object.__setattr__(self, "gold_node_ids", frozenset(self.gold_node_ids))

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "graph_id": self.graph_id,
            "gold_node_ids": sorted(self.gold_node_ids),
            "category": self.category.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QaItem":
        expect(data, dict, "a QA item")
        return cls(
            question=expect(data["question"], str, "question"),
            graph_id=expect(data["graph_id"], str, "graph_id"),
            gold_node_ids=frozenset(expect_list(data["gold_node_ids"], str, "gold_node_ids")),
            category=member(data["category"], QaCategory, "category"),
        )


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.64
    validation_fraction: float = 0.16
    test_fraction: float = 0.20

    def __post_init__(self):
        fractions = (self.train_fraction, self.validation_fraction, self.test_fraction)
        if not all(map(math.isfinite, fractions)):
            raise ConfigError(f"split fractions must be finite, got {fractions}")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {total}")
        if min(fractions) < 0:
            raise ConfigError("split fractions must be non-negative")

    @classmethod
    def parse(cls, text: str) -> "SplitConfig":
        """Parse '64/16/20' or '0.64/0.16/0.2' into a SplitConfig."""
        parts = text.split("/")
        if len(parts) != 3:
            raise ConfigError(f"split must have three components, got {shown(text)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"invalid split {shown(text)}") from exc
        if sum(values) > 1.5:
            values = [v / 100.0 for v in values]
        return cls(*values)

    def sizes(self, count: int) -> tuple[int, int, int]:
        """Floor-based validation/test sizes; the remainder goes to train.

        The epsilon keeps products like 25 * 0.2 from flooring one short
        when the exact value is an integer."""
        n_val = math.floor(count * self.validation_fraction + 1e-9)
        n_test = math.floor(count * self.test_fraction + 1e-9)
        return count - n_val - n_test, n_val, n_test


def _weighted_choice(rng: random.Random, weights: dict) -> object:
    keys = list(weights.keys())
    return rng.choices(keys, weights=[weights[k] for k in keys], k=1)[0]


def _graph_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def generate_graph(spec: GenSpec, index: int) -> FlowGraph:
    """Generate one connected graph, deterministic for (spec.seed, index).

    The first node is always a Terminator start node; every other node is
    attached to an earlier node, so everything is reachable from the start.
    Decision nodes get at least two outgoing edges. ``decision_fraction``
    applies to the non-start nodes.
    """
    rng = _graph_rng(spec.seed, index)
    n = rng.randint(*spec.node_count_range)
    graph_id = f"g{index:05d}"

    non_decision_mix = {
        s: w for s, w in spec.shape_mix.items() if s is not NodeShape.DECISION and w > 0
    }
    if not non_decision_mix:
        non_decision_mix = {NodeShape.PROCESS: 1.0}

    nodes: list[FlowNode] = [
        FlowNode(id="N1", value=rng.choice(spec.vocabulary), shape=NodeShape.TERMINATOR)
    ]
    for i in range(2, n + 1):
        if rng.random() < spec.decision_fraction:
            shape = NodeShape.DECISION
            value = rng.choice(spec.vocabulary) + "?"
        else:
            shape = _weighted_choice(rng, non_decision_mix)
            value = "" if shape is NodeShape.CONNECTOR else rng.choice(spec.vocabulary)
        nodes.append(FlowNode(id=f"N{i}", value=value, shape=shape))

    edges: list[FlowEdge] = []
    triples: set[tuple[str, str, str | None]] = set()
    branch_counters: dict[str, int] = {}

    def next_branch_label(src_id: str) -> str:
        k = branch_counters.get(src_id, 0)
        branch_counters[src_id] = k + 1
        if k < len(_BRANCH_LABELS):
            return _BRANCH_LABELS[k]
        return f"Case {k + 1}"

    def edge_value_for(src: FlowNode, labeled: bool) -> str | None:
        if not labeled:
            return None
        if src.shape is NodeShape.DECISION:
            return next_branch_label(src.id)
        return rng.choice(_EDGE_WORDS)

    def add_edge(src_id: str, dst_id: str, value: str | None, bidirectional: bool) -> bool:
        attempt_value = value
        for bump in range(len(_BRANCH_LABELS) + 2):
            if (src_id, dst_id, attempt_value) not in triples:
                triples.add((src_id, dst_id, attempt_value))
                edges.append(
                    FlowEdge(
                        src=src_id,
                        dst=dst_id,
                        value=attempt_value,
                        bidirectional=bidirectional,
                        line_style=_weighted_choice(rng, spec.style_mix),
                    )
                )
                return True
            # Collision on the (from, to, value) triple: force a fresh label.
            attempt_value = next_branch_label(src_id)
        return False

    # Spanning tree: each later node hangs off an earlier one.
    for i in range(2, n + 1):
        parent = nodes[rng.randrange(i - 1)]
        labeled = rng.random() < spec.edge_value_probability
        bidirectional = (
            parent.shape is not NodeShape.DECISION
            and rng.random() < spec.bidirectional_probability
        )
        add_edge(parent.id, f"N{i}", edge_value_for(parent, labeled), bidirectional)

    # Decision nodes branch at least twice.
    for node in nodes:
        if node.shape is not NodeShape.DECISION:
            continue
        targets = [m.id for m in nodes if m.id != node.id]
        while sum(1 for e in edges if e.src == node.id) < 2:
            labeled = rng.random() < spec.edge_value_probability
            add_edge(node.id, rng.choice(targets), edge_value_for(node, labeled), False)

    return FlowGraph(nodes=tuple(nodes), edges=tuple(edges), graph_id=graph_id)


@dataclass(frozen=True)
class CorpusManifest:
    seed: int
    spec_hash: str
    count: int
    train: int
    validation: int
    test: int
    files: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "spec_hash": self.spec_hash,
            "count": self.count,
            "splits": {"train": self.train, "validation": self.validation, "test": self.test},
            "files": dict(self.files),
        }


def generate_corpus(
    spec: GenSpec, count: int, split: SplitConfig, out_dir: str | Path
) -> CorpusManifest:
    """Write graphs.{train,val,test}.jsonl plus manifest.json under out_dir."""
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_train, n_val, n_test = split.sizes(count)
    files = {
        "train": "graphs.train.jsonl",
        "validation": "graphs.val.jsonl",
        "test": "graphs.test.jsonl",
    }
    start = 0
    for filename, size in zip(files.values(), (n_train, n_val, n_test)):
        graphs = (generate_graph(spec, index) for index in range(start, start + size))
        write_graphs_jsonl(graphs, out_dir / filename)
        start += size
    manifest = CorpusManifest(
        seed=spec.seed,
        spec_hash=spec.content_hash(),
        count=count,
        train=n_train,
        validation=n_val,
        test=n_test,
        files=files,
    )
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
    with create(out_dir / "manifest.json") as fh:
        fh.write(payload.encode("utf-8"))
    return manifest


def _successors(graph: FlowGraph, node_id: str) -> list[str]:
    out = []
    for edge in graph.edges:
        if edge.src == node_id and edge.dst not in out:
            out.append(edge.dst)
        elif edge.bidirectional and edge.dst == node_id and edge.src not in out:
            out.append(edge.src)
    return out


def _node_question(node: FlowNode) -> str:
    return f"What happens after {node.value}?"


def _edge_question(source: FlowNode, edge: FlowEdge) -> str:
    return f"Which step follows {source.value} when {edge.value}?"


def _decision_question(first: FlowNode, second: FlowNode) -> str:
    return f"What is checked to decide between {first.value} and {second.value}?"


def generate_qa(graph: FlowGraph, per_graph: int, seed: int) -> list[QaItem]:
    """Build up to ``per_graph`` QA items cycling the three categories.

    Node questions reference one block's text; edge questions need a labeled
    edge; decision questions need a decision node with two labeled-value
    successors. Categories that the graph cannot support are skipped, and
    duplicate question texts are dropped, so small graphs may yield fewer
    than ``per_graph`` items. Generation stops once every question the graph
    supports has been made: later slots could only draw repeats.
    """
    if per_graph < 1:
        raise ConfigError(f"per_graph must be >= 1, got {per_graph}")
    rng = random.Random(f"{seed}:{graph.graph_id}:qa")
    by_id = {node.id: node for node in graph.nodes}

    node_pool = [n for n in graph.nodes if n.value]
    edge_pool = [
        e for e in graph.edges if e.value and by_id[e.src].value
    ]
    decision_pool = []
    for node in graph.nodes:
        if node.shape is not NodeShape.DECISION:
            continue
        named_successors = [s for s in _successors(graph, node.id) if by_id[s].value]
        if len(named_successors) >= 2:
            decision_pool.append((node, named_successors))

    available: list[QaCategory] = []
    if node_pool:
        available.append(QaCategory.NODE)
    if edge_pool:
        available.append(QaCategory.EDGE)
    if decision_pool:
        available.append(QaCategory.DECISION)
    if not available:
        return []
    supported = {_node_question(node) for node in node_pool}
    supported.update(_edge_question(by_id[edge.src], edge) for edge in edge_pool)
    supported.update(
        _decision_question(by_id[first], by_id[second])
        for _, successors in decision_pool
        for first, second in itertools.permutations(successors, 2)
    )

    items: list[QaItem] = []
    seen_questions: set[str] = set()
    for slot in range(per_graph):
        if len(seen_questions) == len(supported):
            break
        category = available[slot % len(available)]
        for _attempt in range(6):
            if category is QaCategory.NODE:
                node = rng.choice(node_pool)
                question = _node_question(node)
                gold = {node.id}
            elif category is QaCategory.EDGE:
                edge = rng.choice(edge_pool)
                question = _edge_question(by_id[edge.src], edge)
                gold = {edge.src, edge.dst}
            else:
                node, successors = rng.choice(decision_pool)
                first, second = rng.sample(successors, 2)
                question = _decision_question(by_id[first], by_id[second])
                gold = {node.id, *_successors(graph, node.id)}
            if question not in seen_questions:
                seen_questions.add(question)
                items.append(
                    QaItem(
                        question=question,
                        graph_id=graph.graph_id,
                        gold_node_ids=frozenset(gold),
                        category=category,
                    )
                )
                break
    return items


def write_qa_jsonl(items: Iterable[QaItem], path: str | Path) -> int:
    return write_jsonl(path, items)


def read_qa_jsonl(path: str | Path) -> list[QaItem]:
    return read_jsonl(path, QaItem.from_dict, "QA")
