"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the package's test collection.
"""
from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from oracle import ScanOracle, hits_match, tie_at_k  # noqa: E402
from probe import Probe  # noqa: E402
from run import layer_metrics  # noqa: E402
from tracing import Span, Tracer, covered, self_times  # noqa: E402


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),   # overlaps a
        Span("c", 8.0, 12.0, 0, "r"),  # runs past its parent's end
        Span("a.child", 2.0, 3.0, 1, "r"),
    ]
    # root: 10 minus the union [1, 6] + [8, 10]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    assert covered([(5.0, 6.0), (1.0, 2.0), (1.5, 3.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_tracer_links_parents_and_inherits_run_ids():
    tracer = Tracer()
    with tracer.span("outer", run_id="q1"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    outer, inner, nxt = tracer.spans
    assert (inner.parent, inner.run_id) == (0, "q1")
    assert (nxt.parent, nxt.run_id) == (None, "run")
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_probe_samples_while_started_and_restores_the_signal():
    probe = Probe()
    probe.start()
    begin = time.perf_counter()
    while time.perf_counter() - begin < 0.3:
        pass
    end = time.perf_counter()
    probe.stop()
    assert len(probe.samples) >= 3
    assert probe.loop_s(begin, end) > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    with pytest.raises(RuntimeError):
        probe.loop_s(end + 1, end + 2)


def _tied_oracle():
    rows = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0.5, 0.5, 0]], dtype=np.float32)
    # c2 and c1 hold the same vector; listed out of id order on purpose.
    return ScanOracle(["c0", "c2", "c1", "c3"], rows)


def test_oracle_orders_ties_by_chunk_id_and_rejects_a_swap():
    oracle = _tied_oracle()
    query = np.array([[0, 1, 0]], dtype=np.float32)
    ranking = oracle.rank(query, 3)[0]
    assert [cid for cid, _ in ranking] == ["c1", "c2", "c3"]
    assert ranking[0][1] == ranking[1][1]
    assert hits_match(oracle, ranking[:3], ranking, 3)
    swapped = [ranking[1], ranking[0], ranking[2]]
    assert not hits_match(oracle, swapped, ranking, 3)
    assert not hits_match(oracle, [ranking[0], ranking[2], ranking[1]], ranking, 3)
    assert not hits_match(oracle, ranking[:2], ranking, 3)
    assert oracle.rank(query, 1)[0] == ranking[:2]  # the exact tie goes on
    assert tie_at_k(ranking, 1)
    assert not tie_at_k(ranking, 2)


def test_oracle_allows_rounding_but_not_a_wrong_score():
    # c0 and c1 differ but score the same against this query; rounding may
    # order them either way, and either may take the last place.
    rows = np.array([[1, 1, 0], [1, 0, 1], [0, 0, 1]], dtype=np.float32)
    oracle = ScanOracle(["c0", "c1", "c2"], rows)
    ranking = oracle.rank(np.array([[1, 0, 0]], dtype=np.float32), 2)[0]
    first, second = ranking
    assert [first[0], second[0]] == ["c0", "c1"] and first[1] == second[1]
    assert hits_match(oracle, [second, first], ranking, 2)
    assert hits_match(oracle, [second], ranking, 1)
    nudged = (first[0], first[1] + 1e-13)
    assert hits_match(oracle, [nudged, second], ranking, 2)
    wrong = (first[0], first[1] + 1e-9)
    assert not hits_match(oracle, [wrong, second], ranking, 2)


def test_oracle_agrees_with_vector_index():
    from flowrag.chunker import Chunk, SourceKind
    from flowrag.embed import EmbeddingVector
    from flowrag.vstore import IndexEntry, VectorIndex

    rng = random.Random(7)
    base = [[rng.gauss(0, 1) for _ in range(16)] for _ in range(40)]
    vectors = [base[rng.randrange(len(base))] for _ in range(300)]  # many exact ties
    ids = [f"c{rng.randrange(10**6):06d}-{i}" for i in range(len(vectors))]
    index = VectorIndex()
    index.upsert([
        IndexEntry(Chunk(cid, "t", SourceKind.TEXT), EmbeddingVector(tuple(v)))
        for cid, v in zip(ids, vectors)
    ])
    oracle = ScanOracle(ids, np.array(vectors, dtype=np.float32))
    queries = [[rng.gauss(0, 1) for _ in range(16)] for _ in range(30)] + base[:5]
    expected = oracle.rank(np.array(queries, dtype=np.float32), 7)
    for query, want in zip(queries, expected):
        hits = index.query(EmbeddingVector(tuple(query)), 7)
        assert hits_match(oracle, [(h.chunk_id, h.score) for h in hits], want, 7)


def test_metric_names_agree_with_benchmark_json():
    definitions = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {n: d["unit"] for n, d in definitions["end_to_end"].items() if d.get("gated")}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == gated
    layers = {n: d["unit"] for n, d in definitions["per_layer"].items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert set(layer_metrics(Tracer(), 0.0)) == set(layers)
    known = set(definitions["end_to_end"])
    for name, d in definitions["per_layer"].items():
        assert set(d["moves"]) <= known, name
