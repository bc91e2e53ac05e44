"""``ged``: the ``flowrag parse`` + ``flowrag ged`` path.

Truths are generator graphs at 4-16 nodes, each size equally often; each
prediction is its truth with 1-3 node or edge edits, rendered to Mermaid.
Every twentieth pair is instead two random digraphs of 7 nodes and 8 edges
whose nodes all carry one label, which keeps the label-ambiguity cost of
the exact search in view. Sizes, edit counts and edit kinds follow the
pair's position, and the seed picks the graphs and where each edit lands,
so a seed changes which pairs are scored but not how many of each shape:
drawn sizes moved the run time by a fifth between seeds. The same-label
pairs are the same under every seed: one such pair alone takes 0.08-0.67 s,
so drawing them per seed moved the run time between seeds by about a tenth.
Pairs above the node budget of 12 take ``ged_approx``, the rest
``ged_exact``. The timed pass parses the scripts, runs
``evaluate_predictions`` and renders the report.

The traced pass scores pair by pair with the solver ``evaluate_predictions``
picks, and must render the same report.
"""
from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path

from flowrag.ged import (
    CostModel,
    GedReport,
    PairScore,
    apply_edit_path,
    content_signature,
    evaluate_predictions,
    ged_approx,
    ged_exact,
    render_ged_report_markdown,
)
from flowrag.graph_model import (
    FlowEdge,
    FlowGraph,
    FlowNode,
    NodeShape,
    read_graphs_jsonl,
    write_graphs_jsonl,
)
from flowrag.mermaid import parse_mermaid, render_mermaid
from flowrag.synthgen import GenSpec, generate_graph

PAIRS = 300
NODE_RANGE = (4, 16)
BUDGET = 12
SAME_LABEL_EVERY = 20
SAME_LABEL_NODES = 7
SAME_LABEL_EDGES = 8
EDGE_WORDS = ("OK", "Failed", "Timeout", "Done", "Retry", "Skip", "Later")


def _next_id(graph: FlowGraph) -> str:
    return f"N{max(int(n.id[1:]) for n in graph.nodes) + 1}"


EDIT_KINDS = ("relabel-node", "delete-node", "insert-node",
              "delete-edge", "insert-edge", "relabel-edge")


def perturb(graph: FlowGraph, rng: random.Random, vocabulary, kinds) -> FlowGraph:
    """Apply one edit of each kind listed, at places ``rng`` picks; the
    result stays valid."""
    nodes, edges = list(graph.nodes), list(graph.edges)
    for op in kinds:
        if op == "relabel-node":
            named = [i for i, n in enumerate(nodes) if n.value]
            i = rng.choice(named)
            nodes[i] = FlowNode(nodes[i].id, rng.choice(vocabulary), nodes[i].shape)
        elif op == "delete-node" and len(nodes) > 2:
            gone = nodes.pop(rng.randrange(1, len(nodes))).id
            edges = [e for e in edges if gone not in (e.src, e.dst)]
        elif op == "insert-node":
            new_id = _next_id(FlowGraph(nodes=tuple(nodes)))
            anchor = rng.choice(nodes).id
            nodes.append(FlowNode(new_id, rng.choice(vocabulary), NodeShape.PROCESS))
            edges.append(FlowEdge(anchor, new_id, rng.choice((None,) + EDGE_WORDS)))
        elif op == "delete-edge" and edges:
            edges.pop(rng.randrange(len(edges)))
        else:
            triples = {(e.src, e.dst, e.value) for e in edges}
            if op == "relabel-edge" and edges:
                i = rng.randrange(len(edges))
                old = edges[i]
                value = rng.choice(EDGE_WORDS)
                if (old.src, old.dst, value) not in triples:
                    edges[i] = FlowEdge(old.src, old.dst, value, old.bidirectional, old.line_style)
            else:
                src, dst = rng.choice(nodes).id, rng.choice(nodes).id
                value = rng.choice((None,) + EDGE_WORDS)
                if (src, dst, value) not in triples:
                    edges.append(FlowEdge(src, dst, value))
    return FlowGraph(nodes=tuple(nodes), edges=tuple(edges), graph_id=graph.graph_id)


def same_label_digraph(rng: random.Random, graph_id: str) -> FlowGraph:
    ids = [f"N{i + 1}" for i in range(SAME_LABEL_NODES)]
    nodes = tuple(FlowNode(i, "Check state", NodeShape.PROCESS) for i in ids)
    links = rng.sample([(a, b) for a in ids for b in ids if a != b], SAME_LABEL_EDGES)
    return FlowGraph(nodes=nodes, edges=tuple(FlowEdge(a, b) for a, b in links), graph_id=graph_id)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    def __init__(self, work_dir: Path, seed: int):
        self.dir = work_dir
        self.seed = seed
        self.truth_path = work_dir / "truth.jsonl"
        self.pred_dir = work_dir / "pred"
        self.expected: dict[str, tuple] = {}

    def setup(self, tracer) -> None:
        """Truths to JSONL, perturbed predictions to one Mermaid file each."""
        lo, hi = NODE_RANGE
        specs = [GenSpec(node_count_range=(n, n), seed=self.seed) for n in range(lo, hi + 1)]
        rng = random.Random(f"perfbench-ged:{self.seed}")
        same_label_rng = random.Random("perfbench-ged:same-label")
        truths, predictions = [], []
        for index in range(PAIRS):
            graph_id = f"g{index:05d}"
            if index % SAME_LABEL_EVERY == SAME_LABEL_EVERY - 1:
                truth = same_label_digraph(same_label_rng, graph_id)
                predicted = same_label_digraph(same_label_rng, graph_id)
            else:
                spec = specs[index % len(specs)]
                with tracer.span("synthgen.generate_graph"):
                    truth = generate_graph(spec, index)
                edits = 1 + (index // len(specs)) % 3
                kinds = [EDIT_KINDS[(index + j) % len(EDIT_KINDS)] for j in range(edits)]
                predicted = perturb(truth, rng, spec.vocabulary, kinds)
            truths.append(truth)
            predictions.append(predicted)
        tracer.count("synthgen.graphs", PAIRS - PAIRS // SAME_LABEL_EVERY)
        with tracer.span("graph_model.write_graphs_jsonl"):
            write_graphs_jsonl(truths, self.truth_path)
        self.pred_dir.mkdir(parents=True, exist_ok=True)
        for predicted in predictions:
            with tracer.span("mermaid.render_mermaid"):
                script = render_mermaid(predicted)
            (self.pred_dir / f"{predicted.graph_id}.mmd").write_text(script, encoding="utf-8")
        self.expected = {p.graph_id: content_signature(p) for p in predictions}

    def _parse_predictions(self, truths, tracer) -> dict:
        predictions = {}
        for truth in truths:
            script = (self.pred_dir / f"{truth.graph_id}.mmd").read_text(encoding="utf-8")
            with tracer.span("mermaid.parse_mermaid", run_id=truth.graph_id):
                predictions[truth.graph_id] = parse_mermaid(script, graph_id=truth.graph_id)
            tracer.count("mermaid.scripts")
        return predictions

    def run_pass(self, tracer) -> dict:
        """``flowrag parse`` of every script, then ``flowrag ged``."""
        started = time.perf_counter()
        truths = read_graphs_jsonl(self.truth_path)
        predictions = self._parse_predictions(truths, tracer)
        pairs = [(predictions[t.graph_id], t) for t in truths]
        report = evaluate_predictions(pairs, node_budget=BUDGET)
        text = render_ged_report_markdown(report)
        (self.dir / "ged.md").write_text(text, encoding="utf-8")
        elapsed = time.perf_counter() - started
        return {
            "command_s": elapsed,
            "phases": {"ged_s": elapsed},
            "pairs": pairs,
            "report": report,
            "output": (text, distance_fingerprint(report)),
        }

    def traced_pass(self, tracer) -> dict:
        """``evaluate_predictions`` rebuilt pair by pair, a span per solve."""
        costs = CostModel()
        started = time.perf_counter()
        with tracer.span("graph_model.read_graphs_jsonl"):
            truths = read_graphs_jsonl(self.truth_path)
        predictions = self._parse_predictions(truths, tracer)
        scores = []
        for truth in truths:
            predicted = predictions[truth.graph_id]
            if max(len(predicted.nodes), len(truth.nodes)) <= BUDGET:
                with tracer.span("ged.ged_exact", run_id=truth.graph_id):
                    result = ged_exact(predicted, truth, costs, BUDGET)
                tracer.count("ged.exact_pairs")
            else:
                with tracer.span("ged.ged_approx", run_id=truth.graph_id):
                    result = ged_approx(predicted, truth, costs)
                tracer.count("ged.approx_pairs")
            scores.append(PairScore(
                graph_id=truth.graph_id,
                truth_nodes=len(truth.nodes),
                truth_edges=len(truth.edges),
                predicted_parsed=True,
                result=result,
            ))
        report = GedReport(label="predictions", pair_scores=tuple(scores))
        with tracer.span("ged.render_ged_report_markdown"):
            text = render_ged_report_markdown(report)
        (self.dir / "ged.traced.md").write_text(text, encoding="utf-8")
        elapsed = time.perf_counter() - started
        return {"command_s": elapsed, "output": (text, distance_fingerprint(report))}

    def check(self, passes: list[dict], tracer) -> tuple[int, int, dict]:
        """Each prediction must parse back to what was rendered; each edit
        path must cost its distance and turn the prediction into the truth;
        no exact distance may exceed the ``ged_approx`` distance, which is
        the cost of another valid path.

        The approximation is also the exact search's pruning bound; how far
        it sits above the exact distance is counted here, outside the timing.
        """
        costs = CostModel()
        bounds = {
            truth.graph_id: ged_approx(predicted, truth, costs).distance
            for (predicted, truth), score in zip(passes[0]["pairs"], passes[0]["report"].pair_scores)
            if score.result.exact
        }
        for (_, truth), score in zip(passes[0]["pairs"], passes[0]["report"].pair_scores):
            if score.result.exact:
                excess = bounds[truth.graph_id] - score.result.distance
                tracer.count("ged.approx_excess_sum", excess)
                tracer.count("ged.approx_tight", int(excess == 0))
        attempted = failed = 0
        for p in passes:
            for (predicted, truth), score in zip(p["pairs"], p["report"].pair_scores):
                attempted += 1
                result = score.result
                try:
                    applied = apply_edit_path(predicted, result.edit_path)
                except ValueError:  # an op names an edge the graph lacks
                    failed += 1
                    continue
                if (
                    content_signature(predicted) != self.expected[truth.graph_id]
                    or content_signature(applied) != content_signature(truth)
                    or abs(result.distance - sum(op.cost for op in result.edit_path)) > 1e-9
                    or (result.exact and result.distance > bounds[truth.graph_id] + 1e-9)
                ):
                    failed += 1
        return attempted, failed, {
            "distances": passes[0]["output"][1],
            "exact_distances": exact_fingerprint(passes[0]["report"]),
            "truth_jsonl": _sha256(self.truth_path),
        }


def distance_fingerprint(report: GedReport) -> str:
    digest = hashlib.sha256()
    for score in report.pair_scores:
        digest.update(f"{score.graph_id} {score.result.distance!r} {score.result.exact}\n".encode())
    return digest.hexdigest()


def exact_fingerprint(report: GedReport) -> str:
    """Over the exact pairs alone: their distances are minima, so no correct
    change to the solvers may move them."""
    digest = hashlib.sha256()
    for score in report.pair_scores:
        if score.result.exact:
            digest.update(f"{score.graph_id} {score.result.distance!r}\n".encode())
    return digest.hexdigest()
