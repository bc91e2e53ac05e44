"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to watch them stream)."""
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import flowrag.embed as embed_module
from flowrag.chunker import ChunkStrategy, chunk_graph
from flowrag.embed import (
    EmbeddingVector,
    ProtocolError,
    ProviderConfig,
    ProviderKind,
    TransportError,
    embed_batch,
)
from flowrag.evalharness import (
    ALL_CATEGORY,
    EvalConfig,
    ReportFormat,
    Scenario,
    render_report,
    run_eval,
)
from flowrag.ged import (
    GED_REPORT_COLUMNS,
    CostModel,
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
    LineStyle,
    NodeShape,
    canonicalize,
    parse_json,
    serialize_json,
)
from flowrag.mermaid import parse_mermaid, render_mermaid
from flowrag.synthgen import GenSpec, generate_graph, generate_qa
from flowrag.vstore import IndexEntry, VectorIndex

from helpers import (
    StubEmbedServer,
    disjoint_corpus,
    mismatch_qa,
    oracle_ged,
    random_graph,
    stub_vector,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
UNIT = CostModel()


def ok(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def ged_pairs(count: int, seed: str):
    rng = random.Random(seed)
    return [(random_graph(rng), random_graph(rng)) for _ in range(count)]


# A generator spec whose 500-graph corpus exercises every node shape, every
# line style, bidirectional edges, and labeled edges.
FULL_COVERAGE_SPEC = GenSpec(
    node_count_range=(3, 9),
    decision_fraction=0.25,
    edge_value_probability=0.7,
    bidirectional_probability=0.25,
    style_mix={LineStyle.SOLID: 0.6, LineStyle.DOTTED: 0.2, LineStyle.DASHED: 0.2},
    shape_mix={
        NodeShape.PROCESS: 0.4,
        NodeShape.TERMINATOR: 0.12,
        NodeShape.INPUT_OUTPUT: 0.16,
        NodeShape.CONNECTOR: 0.12,
        NodeShape.UNSPECIFIED: 0.2,
    },
    seed=20250810,
)


@pytest.fixture(scope="module")
def coverage_corpus():
    return [generate_graph(FULL_COVERAGE_SPEC, index) for index in range(500)]


def test_criterion_01_ged_oracle_equivalence():
    started = time.monotonic()
    for predicted, truth in ged_pairs(200, "acceptance-1"):
        expected = oracle_ged(predicted, truth, UNIT)
        assert ged_exact(predicted, truth, UNIT).distance == pytest.approx(
            expected, abs=0.0
        )
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    ok("1 ged-oracle-equivalence")


def test_criterion_02_ged_metric_axioms():
    rng = random.Random("acceptance-2")
    violations = 0
    for _ in range(100):
        a, b, c = (random_graph(rng) for _ in range(3))
        if ged_exact(a, a, UNIT).distance != 0.0:
            violations += 1
        d_ab = ged_exact(a, b, UNIT).distance
        d_ba = ged_exact(b, a, UNIT).distance
        if abs(d_ab - d_ba) > 1e-9:
            violations += 1
        d_ac = ged_exact(a, c, UNIT).distance
        d_bc = ged_exact(b, c, UNIT).distance
        if d_ac > d_ab + d_bc + 1e-9:
            violations += 1
    assert violations == 0
    ok("2 ged-metric-axioms")


def test_criterion_03_approximation_soundness():
    for predicted, truth in ged_pairs(200, "acceptance-3"):
        approx = ged_approx(predicted, truth, UNIT).distance
        exact = ged_exact(predicted, truth, UNIT).distance
        assert approx >= exact - 1e-9
    rng = random.Random("acceptance-3-identity")
    for _ in range(100):
        graph = random_graph(rng)
        assert ged_approx(graph, graph, UNIT).distance == 0.0
    ok("3 approximation-soundness")


def test_criterion_04_edit_path_validity():
    for solver in (ged_exact, ged_approx):
        for predicted, truth in ged_pairs(200, f"acceptance-4-{solver.__name__}"):
            result = solver(predicted, truth, UNIT)
            applied = apply_edit_path(predicted, result.edit_path)
            assert content_signature(applied) == content_signature(truth)
    ok("4 edit-path-validity")


def test_criterion_05_mermaid_round_trip(coverage_corpus):
    shapes_seen = set()
    styles_seen = set()
    bidir_seen = False
    started = time.monotonic()
    for graph in coverage_corpus:
        shapes_seen.update(n.shape for n in graph.nodes)
        styles_seen.update(e.line_style for e in graph.edges)
        bidir_seen = bidir_seen or any(e.bidirectional for e in graph.edges)
        parsed = parse_mermaid(render_mermaid(graph))
        expected = FlowGraph(
            nodes=tuple(
                FlowNode(
                    n.id,
                    n.value,
                    NodeShape.PROCESS if n.shape is NodeShape.UNSPECIFIED else n.shape,
                )
                for n in graph.nodes
            ),
            edges=graph.edges,
        )
        assert canonicalize(parsed) == canonicalize(expected)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"round trip took {elapsed:.1f}s"
    assert shapes_seen == set(NodeShape)
    assert styles_seen == set(LineStyle)
    assert bidir_seen
    ok("5 mermaid-round-trip")


def test_criterion_06_graph_json_round_trip(coverage_corpus, tmp_path):
    for graph in coverage_corpus:
        assert parse_json(serialize_json(graph)) == graph
    # Byte determinism across two separate processes, via the CLI.
    outputs = []
    for name in ("run-a", "run-b"):
        out_dir = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-m", "flowrag.cli",
                "gen", "--count", "120", "--seed", "77", "--out", str(out_dir),
            ],
            check=True,
            capture_output=True,
        )
        outputs.append(
            b"".join(
                (out_dir / f).read_bytes()
                for f in (
                    "graphs.train.jsonl",
                    "graphs.val.jsonl",
                    "graphs.test.jsonl",
                    "qa.jsonl",
                    "manifest.json",
                )
            )
        )
    assert outputs[0] == outputs[1]
    ok("6 graph-json-round-trip")


def test_criterion_07_chunk_count_laws(coverage_corpus):
    for graph in coverage_corpus:
        non_empty = sum(1 for n in graph.nodes if n.value)
        assert len(chunk_graph(graph, ChunkStrategy.PER_NODE)) == non_empty
        assert len(chunk_graph(graph, ChunkStrategy.ALL_NODES)) == 1
        assert len(chunk_graph(graph, ChunkStrategy.FULL_JSON)) == 1
    ok("7 chunk-count-laws")


def test_criterion_08_vector_store_exactness(tmp_path):
    rng = random.Random("acceptance-8")
    dimension = 32
    entries = []
    for i in range(1000):
        values = [rng.gauss(0.0, 1.0) for _ in range(dimension)]
        from flowrag.chunker import Chunk, SourceKind

        entries.append(
            (
                Chunk(
                    chunk_id=f"c{i:05d}",
                    text=f"entry {i}",
                    source_kind=SourceKind.GRAPH,
                    graph_id=f"g{i % 11}",
                ),
                EmbeddingVector(values=tuple(values)),
            )
        )
    index = VectorIndex()
    index.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
    queries = [
        EmbeddingVector(values=tuple(rng.gauss(0.0, 1.0) for _ in range(dimension)))
        for _ in range(50)
    ]

    import numpy as np

    def scan(query, k):
        q = np.asarray(query.values, dtype=np.float64)
        qn = float(np.linalg.norm(q))
        scored = []
        for chunk, vector in entries:
            v = np.asarray(vector.values, dtype=np.float64)
            denom = float(np.linalg.norm(v)) * qn
            score = 0.0 if denom == 0.0 else float(np.dot(v, q) / denom)
            scored.append((score, chunk.chunk_id))
        scored.sort(key=lambda t: (-t[0], t[1]))
        return scored[:k]

    before = []
    for query in queries:
        for k in (1, 3, 5):
            hits = index.query(query, k=k)
            assert [(h.score, h.chunk_id) for h in hits] == scan(query, k)
        before.append([h.to_dict() for h in index.query(query, k=5)])

    snapshot = tmp_path / "acceptance.snap"
    index.save(snapshot)
    loaded = VectorIndex.load(snapshot)
    after = [[h.to_dict() for h in loaded.query(query, k=5)] for query in queries]
    assert json.dumps(before) == json.dumps(after)
    ok("8 vector-store-exactness")


@pytest.fixture(scope="module")
def retrieval_fixture():
    graphs, qa = disjoint_corpus(100)
    return graphs, qa


def test_criterion_09_retrieval_sanity(retrieval_fixture):
    graphs, qa = retrieval_fixture
    provider = ProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=256)
    config = EvalConfig(
        provider=provider,
        strategies=(ChunkStrategy.PER_NODE, ChunkStrategy.FULL_JSON),
    )
    report = run_eval(graphs, qa, config)
    assert report.cell(ChunkStrategy.PER_NODE, 1).accuracy == 1.0
    assert report.cell(ChunkStrategy.FULL_JSON, 1).accuracy == 1.0
    negative = run_eval(graphs, mismatch_qa(qa), config)
    assert negative.cell(ChunkStrategy.PER_NODE, 1).accuracy == 0.0
    assert negative.cell(ChunkStrategy.FULL_JSON, 1).accuracy == 0.0
    ok("9 retrieval-sanity")


def test_criterion_10_harness_laws(retrieval_fixture):
    graphs, qa = retrieval_fixture
    qa = mismatch_qa(qa[:40]) + qa[40:]  # mix of hits and misses
    provider = ProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=256)
    base = run_eval(graphs, qa, EvalConfig(provider=provider))
    documents = tuple(
        f"Operating notes about {graph.nodes[2].value} and related steps. "
        f"Also mentions {graph.nodes[1].value}."
        for graph in graphs[:30]
    )
    with_text = run_eval(
        graphs,
        qa,
        EvalConfig(
            provider=provider,
            scenario=Scenario.GRAPH_WITH_TEXT,
            text_documents=documents,
        ),
    )
    assert with_text.metadata["text_chunk_count"] > 0
    for strategy in base.strategies:
        for category in base.categories + (ALL_CATEGORY,):
            accuracies = [base.cells[(strategy, k, category)].accuracy for k in base.ks]
            assert accuracies == sorted(accuracies)
    degraded_somewhere = False
    for key, cell in with_text.cells.items():
        assert cell.numerator <= base.cells[key].numerator
        if cell.numerator < base.cells[key].numerator:
            degraded_somewhere = True
    assert degraded_somewhere, "text chunks displaced no graph hits; fixture too weak"
    ok("10 harness-laws")


def test_criterion_11_paper_proportions(tmp_path):
    started = time.monotonic()
    out_dir = tmp_path / "big"
    subprocess.run(
        [
            sys.executable, "-m", "flowrag.cli",
            "gen", "--count", "10000", "--split", "64/16/20",
            "--seed", "1", "--out", str(out_dir),
        ],
        check=True,
        capture_output=True,
    )
    counts = {}
    for name in ("train", "val", "test"):
        with open(out_dir / f"graphs.{name}.jsonl", "rb") as fh:
            counts[name] = sum(1 for _ in fh)
    assert counts == {"train": 6400, "val": 1600, "test": 2000}

    spec = GenSpec(seed=105)
    total = 0
    for index in range(105):
        total += len(generate_qa(generate_graph(spec, index), 5, seed=105))
    assert 500 <= total <= 525, f"QA density {total} outside 500..525"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"generation took {elapsed:.1f}s"
    ok("11 paper-proportions")


def test_criterion_12_report_fidelity():
    # Graph-metrics report: column set pinned by golden file.
    identical = FlowGraph(
        nodes=(FlowNode("A", "check alarm"), FlowNode("B", "send report")),
        edges=(FlowEdge("A", "B", value="yes"),),
        graph_id="demo-0",
    )
    relabeled = FlowGraph(
        nodes=(FlowNode("A", "check alarm"), FlowNode("B", "page operator")),
        edges=(FlowEdge("A", "B", value="yes"),),
        graph_id="demo-1",
    )
    ged_report = evaluate_predictions(
        [(identical, identical), (relabeled, identical), (None, identical)],
        label="demo",
    )
    assert list(GED_REPORT_COLUMNS) == [
        "Avg. #Nodes (Ground Truth)",
        "Avg. #Edges (Ground Truth)",
        "Avg. #Nodes Detected",
        "Avg. #Edges Detected",
        "Avg. Graph Edit Distance (GED)",
    ]
    rendered = render_ged_report_markdown(ged_report)
    assert rendered == (GOLDEN_DIR / "ged_report.md").read_text()

    # Retrieval report: strategy rows by top-1/3/5 columns, best bolded.
    graphs, qa = disjoint_corpus(4)
    qa = qa[:2] + mismatch_qa(qa[2:])
    provider = ProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=256)
    report = run_eval(graphs, qa, EvalConfig(provider=provider))
    markdown = render_report(report, ReportFormat.MARKDOWN)
    assert markdown == (GOLDEN_DIR / "eval_report.md").read_text()
    ok("12 report-fidelity")


def test_criterion_13_remote_provider_contract(monkeypatch):
    monkeypatch.setattr(embed_module, "_BACKOFF_BASE_S", 0.01)
    texts = [f"document {i} payload" for i in range(9)]

    with StubEmbedServer(dimension=16) as server:
        config = ProviderConfig(
            kind=ProviderKind.REMOTE,
            endpoint=server.endpoint,
            model_name="contract-model",
            batch_size=4,
            timeout_s=5.0,
        )
        vectors = embed_batch(config, texts)
        # Order preservation: response i corresponds to request text i.
        assert [v.values for v in vectors] == [
            EmbeddingVector(values=tuple(stub_vector(t, 16))).values for t in texts
        ]
        # Batch splitting at batch_size.
        sizes = sorted((len(r["inputs"]) for r in server.requests), reverse=True)
        assert sizes == [4, 4, 1]
        assert all(r["model"] == "contract-model" for r in server.requests)

    with StubEmbedServer(dimension=16, status_plan=[500]) as server:
        config = ProviderConfig(
            kind=ProviderKind.REMOTE,
            endpoint=server.endpoint,
            model_name="contract-model",
            batch_size=16,
            timeout_s=5.0,
        )
        assert len(embed_batch(config, texts)) == len(texts)
        assert len(server.requests) == 2  # retried once after the 500

    with StubEmbedServer(dimension=16, status_plan=[404]) as server:
        config = ProviderConfig(
            kind=ProviderKind.REMOTE,
            endpoint=server.endpoint,
            model_name="contract-model",
            batch_size=16,
            timeout_s=5.0,
        )
        with pytest.raises(ProtocolError):
            embed_batch(config, texts)
        assert len(server.requests) == 1  # 4xx never retried

    with StubEmbedServer(dimension=16, status_plan=[500, 500, 500]) as server:
        config = ProviderConfig(
            kind=ProviderKind.REMOTE,
            endpoint=server.endpoint,
            model_name="contract-model",
            batch_size=16,
            timeout_s=5.0,
        )
        with pytest.raises(TransportError) as excinfo:
            embed_batch(config, ["only text"])
        assert excinfo.value.attempts == 3
    ok("13 remote-provider-contract")
