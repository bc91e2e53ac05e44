"""``serve``: ``flowrag chunk`` + ``flowrag ingest``, then ``flowrag query``
many times.

About 1 000 generator graphs over a benchmark-built vocabulary wide enough
that nine in ten per-node texts are distinct. The timed pass chunks them per
node (about 6 000 chunks), embeds through the remote provider against the
loopback stub (``batch_size`` 32, ``max_concurrency`` 2), upserts, saves;
then loads the snapshot cold and answers 1 000 questions one after another,
each as ``embed_batch(provider, [q])`` followed by ``query(v, 5)``.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from flowrag.chunker import ChunkStrategy, chunk_graph, read_chunks_jsonl, write_chunks_jsonl
from flowrag.embed import ProviderConfig, embed_batch
from flowrag.errors import FlowragError
from flowrag.graph_model import read_graphs_jsonl, write_graphs_jsonl
from flowrag.synthgen import GenSpec, generate_graph, generate_qa
from flowrag.vstore import IndexEntry, VectorIndex

from oracle import ScanOracle, hits_match, tie_at_k
from stub import DIMENSION, StubVectors

GRAPHS = 1000
QUESTIONS = 1000
BATCH_SIZE = 32
CONCURRENCY = 2
K = 5
# Questions answered by the index before and after the snapshot round trip.
ROUND_TRIP_SAMPLE = 50

_VERBS = (
    "Check", "Reset", "Send", "Verify", "Update", "Measure", "Release", "Trigger",
    "Collect", "Escalate", "Apply", "Audit", "Restart", "Query", "Schedule", "Block",
    "Activate", "Page", "Synchronize", "Validate", "Reload", "Suspend", "Resume",
    "Archive", "Notify", "Compare", "Lock", "Unlock", "Calibrate", "Inspect",
    "Register", "Revoke", "Rotate", "Drain", "Throttle", "Probe", "Replay", "Map",
    "Flush", "Clear",
)
_OBJECTS = (
    "alarm list", "radio bearer", "power supply", "neighbor list", "license key",
    "fault report", "carrier", "board", "subscriber profile", "clock source",
    "signal threshold", "attach request", "handover target", "paging queue",
    "cell state", "config change", "counter set", "session table", "link budget",
    "firmware image", "backup path", "routing entry", "access token", "uplink grant",
    "downlink buffer", "timer wheel", "trace log", "billing record", "quota",
    "cache entry", "port mapping", "sync marker", "heartbeat", "retry budget",
    "peer address", "service area", "spectrum slice", "antenna tilt", "rack fan",
    "battery bank",
)
_QUALIFIERS = (
    "on standby node", "for primary cell", "after timeout", "before handover",
    "in maintenance window", "at boot", "per sector", "on remote site",
    "for roaming users", "under high load", "during failover", "at shift change",
    "for emergency calls", "on secondary link", "after upgrade", "in test mode",
    "for legacy devices", "at midnight", "per tenant", "on edge router",
    "for idle sessions", "after alarm", "in dry run", "with operator approval",
    "across clusters",
)


def vocabulary(seed: int) -> tuple[str, ...]:
    """30 000 distinct phrases, shuffled by the seed."""
    phrases = [f"{v} {o} {q}" for v, o, q in itertools.product(_VERBS, _OBJECTS, _QUALIFIERS)]
    random.Random(f"perfbench-serve:{seed}").shuffle(phrases)
    return tuple(phrases[:30000])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    def __init__(self, work_dir: Path, seed: int):
        self.dir = work_dir
        self.seed = seed
        self.graphs_path = work_dir / "graphs.jsonl"
        self.chunks_path = work_dir / "chunks.jsonl"
        self.snapshot = work_dir / "index.snap"
        self.provider_path = work_dir / "provider.json"
        self.questions: list[str] = []
        self.stub: subprocess.Popen | None = None
        self.endpoint = ""

    def setup(self, tracer) -> None:
        """Corpus and questions to disk, then a fresh stub server."""
        spec = GenSpec(vocabulary=vocabulary(self.seed), seed=self.seed)
        graphs = []
        for index in range(GRAPHS):
            with tracer.span("synthgen.generate_graph"):
                graphs.append(generate_graph(spec, index))
        questions = []
        for graph in graphs[:QUESTIONS]:
            with tracer.span("synthgen.generate_qa"):
                questions.extend(item.question for item in generate_qa(graph, 1, spec.seed))
        tracer.count("synthgen.graphs", GRAPHS)
        tracer.count("synthgen.qa_items", len(questions))
        with tracer.span("graph_model.write_graphs_jsonl"):
            write_graphs_jsonl(graphs, self.graphs_path)
        self.questions = questions
        self.stop()
        self.stub = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py"))],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"stub server did not start: {line!r}")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"
        self.provider_path.write_text(json.dumps({
            "kind": "remote", "endpoint": self.endpoint, "model_name": "perfbench-stub",
            "dimension": DIMENSION, "batch_size": BATCH_SIZE,
            "max_concurrency": CONCURRENCY, "timeout_s": 30.0,
        }), encoding="utf-8")

    def stop(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None

    def _stub_stats(self) -> dict:
        with urllib.request.urlopen(self.endpoint + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def _embed(self, provider, texts, tracer, run_id=None):
        with tracer.span("embed.embed_batch", run_id=run_id):
            vectors = embed_batch(provider, texts)
        tracer.count("embed.texts", len(texts))
        tracer.count("embed.batches", -(-len(texts) // provider.batch_size))
        tracer.seen("embed.texts", texts)
        return vectors

    def run_pass(self, tracer) -> dict:
        if tracer.enabled:
            before = self._stub_stats()
        started = time.perf_counter()
        with tracer.span("graph_model.read_graphs_jsonl"):
            graphs = read_graphs_jsonl(self.graphs_path)
        chunks = []
        for graph in graphs:
            with tracer.span("chunker.chunk_graph"):
                got = chunk_graph(graph, ChunkStrategy.PER_NODE)
            tracer.count("chunker.empty_skipped", len(graph.nodes) - len(got))
            chunks.extend(got)
        tracer.count("chunker.chunks.per-node", len(chunks))
        with tracer.span("chunker.write_chunks_jsonl"):
            write_chunks_jsonl(chunks, self.chunks_path)
        with tracer.span("chunker.read_chunks_jsonl"):
            chunks = read_chunks_jsonl(self.chunks_path)
        provider = ProviderConfig.from_dict(
            json.loads(self.provider_path.read_text(encoding="utf-8"))
        )
        vectors = self._embed(provider, [c.text for c in chunks], tracer)
        index = VectorIndex()
        entries = [IndexEntry(chunk=c, vector=v) for c, v in zip(chunks, vectors)]
        with tracer.span("vstore.upsert"):
            index.upsert(entries)
        tracer.count("vstore.rows", len(entries))
        with tracer.span("vstore.save"):
            index.save(self.snapshot)
        ingest_s = time.perf_counter() - started

        # Untimed: the check's own requests are left out of the stub counts.
        if tracer.enabled:
            paused = self._stub_stats()
        sample = self.questions[:ROUND_TRIP_SAMPLE]
        before_save = [index.query(v, K) for v in embed_batch(provider, sample)]
        del index, entries, vectors
        if tracer.enabled:
            resumed = self._stub_stats()

        started = time.perf_counter()
        with tracer.span("vstore.load"):
            loaded = VectorIndex.load(self.snapshot)
        load_s = time.perf_counter() - started
        latencies, answers = [], []
        for i, question in enumerate(self.questions):
            run_id = f"q{i}"
            started = time.perf_counter()
            try:
                vector = self._embed(provider, [question], tracer, run_id)[0]
                with tracer.span("vstore.query.per-node", run_id=run_id):
                    hits = loaded.query(vector, K)
            except FlowragError as exc:
                print(f"query {i} failed: {exc}", file=sys.stderr)
                hits = None
            latencies.append(time.perf_counter() - started)
            answers.append(hits)
        tracer.count("vstore.queries", len(answers))
        if tracer.enabled:
            after = self._stub_stats()
            for key, metric in (("requests", "embed.requests"), ("busy_s", "embed.stub_busy_s")):
                tracer.count(metric, after[key] - resumed[key] + paused[key] - before[key])
            tracer.count("vstore.snapshot_bytes", self.snapshot.stat().st_size)
        return {
            "command_s": ingest_s + load_s + sum(latencies),
            "phases": {"ingest_s": ingest_s, "load_s": load_s},
            "query_s": latencies,
            "chunks": chunks,
            "answers": answers,
            "round_trip": before_save == answers[:ROUND_TRIP_SAMPLE],
            "output": (_sha256(self.snapshot), answers),
        }

    traced_pass = run_pass

    def check(self, passes: list[dict], tracer) -> tuple[int, int, dict]:
        """Every answer against a float64 linear scan over the stub's own
        vectors, and the loaded index against the index before ``save``."""
        stub_vectors = StubVectors()
        attempted = failed = ties = 0
        broken = False
        for p in passes:
            chunks = p["chunks"]
            oracle = ScanOracle([c.chunk_id for c in chunks],
                                stub_vectors.embed([c.text for c in chunks]))
            rankings = oracle.rank(stub_vectors.embed(self.questions), K)
            for hits, ranking in zip(p["answers"], rankings):
                attempted += 1
                ties += tie_at_k(ranking, K)
                if hits is None or not hits_match(
                    oracle, [(h.chunk_id, h.score) for h in hits], ranking, K
                ):
                    failed += 1
            broken |= not p["round_trip"] or len(p["answers"]) != len(self.questions)
        tracer.count("vstore.kboundary_ties", ties)
        tracer.count("oracle.queries", attempted)
        return attempted, attempted if broken else failed, {
            "corpus": _sha256(self.graphs_path),
            "snapshot": passes[0]["output"][0],
        }
