import hashlib
import json
import random
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowrag.chunker import Chunk, ChunkStrategy, SourceKind
from flowrag.embed import EmbeddingVector
from flowrag.errors import FlowragError
from flowrag.vstore import (
    DimensionMismatchError,
    IndexEntry,
    SnapshotError,
    VectorIndex,
    _norms,
)


def make_chunk(i: int) -> Chunk:
    return Chunk(
        chunk_id=f"c{i:04d}",
        text=f"text {i}",
        source_kind=SourceKind.GRAPH,
        graph_id=f"g{i % 7}",
        node_id=f"N{i % 3}",
        strategy=ChunkStrategy.PER_NODE,
    )


def random_vector(rng: random.Random, dim: int) -> EmbeddingVector:
    values = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = sum(v * v for v in values) ** 0.5 or 1.0
    return EmbeddingVector(values=tuple(v / norm for v in values))


def build_index(rng: random.Random, count: int, dim: int = 16) -> VectorIndex:
    index = VectorIndex()
    index.upsert(
        [IndexEntry(chunk=make_chunk(i), vector=random_vector(rng, dim)) for i in range(count)]
    )
    return index


def scan_oracle(entries, query: EmbeddingVector, k: int):
    """Linear scan with float64 cosine; ties by ascending chunk id."""
    import numpy as np

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


class TestUpsert:
    def test_insert_and_replace(self):
        rng = random.Random(1)
        index = VectorIndex()
        entries = [
            IndexEntry(chunk=make_chunk(i), vector=random_vector(rng, 8)) for i in range(3)
        ]
        assert index.upsert(entries) == 3
        assert len(index) == 3
        replacement = IndexEntry(chunk=make_chunk(1), vector=random_vector(rng, 8))
        assert index.upsert([replacement]) == 1
        assert len(index) == 3

    def test_empty_upsert_is_noop(self):
        index = VectorIndex()
        assert index.upsert([]) == 0
        assert len(index) == 0

    def test_mixed_dimensions_rejected_atomically(self):
        rng = random.Random(2)
        index = VectorIndex()
        index.upsert([IndexEntry(chunk=make_chunk(0), vector=random_vector(rng, 8))])
        bad = [
            IndexEntry(chunk=make_chunk(1), vector=random_vector(rng, 8)),
            IndexEntry(chunk=make_chunk(2), vector=random_vector(rng, 9)),
        ]
        with pytest.raises(DimensionMismatchError) as excinfo:
            index.upsert(bad)
        assert "c0002" in str(excinfo.value)
        assert len(index) == 1

    def test_zero_dimension_rejected(self):
        index = VectorIndex()
        with pytest.raises(DimensionMismatchError):
            index.upsert([IndexEntry(chunk=make_chunk(0), vector=EmbeddingVector(values=()))])
        assert len(index) == 0

    def test_duplicate_ids_within_call_rejected(self):
        rng = random.Random(3)
        index = VectorIndex()
        entries = [
            IndexEntry(chunk=make_chunk(1), vector=random_vector(rng, 8)),
            IndexEntry(chunk=make_chunk(1), vector=random_vector(rng, 8)),
        ]
        with pytest.raises(FlowragError):
            index.upsert(entries)
        assert len(index) == 0

    def test_repeated_new_id_rejected_before_the_merge(self):
        # The merge keeps one entry per id, so the check must come first.
        rng = random.Random(37)
        index = build_index(rng, 3, dim=4)
        saved = snapshot_bytes(index)
        entries = [
            IndexEntry(chunk=make_chunk(7), vector=random_vector(rng, 4)),
            IndexEntry(chunk=make_chunk(7), vector=random_vector(rng, 4)),
        ]
        with pytest.raises(FlowragError, match="duplicate chunk_id 'c0007'"):
            index.upsert(entries)
        assert len(index) == 3
        assert snapshot_bytes(index) == saved


class TestQuery:
    def test_stored_vector_is_rank_one(self):
        rng = random.Random(4)
        index = VectorIndex()
        entries = [
            IndexEntry(chunk=make_chunk(i), vector=random_vector(rng, 16)) for i in range(20)
        ]
        index.upsert(entries)
        hits = index.query(entries[7].vector, k=1)
        assert hits[0].chunk_id == "c0007"
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)
        assert hits[0].rank == 1

    def test_k_larger_than_index(self):
        rng = random.Random(5)
        index = build_index(rng, 4)
        hits = index.query(random_vector(rng, 16), k=10)
        assert len(hits) == 4
        assert [h.rank for h in hits] == [1, 2, 3, 4]
        assert all(hits[i].score >= hits[i + 1].score for i in range(3))

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(6)
        entries = [
            (make_chunk(i), random_vector(rng, 16)) for i in range(300)
        ]
        index = VectorIndex()
        index.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
        for _ in range(20):
            query = random_vector(rng, 16)
            for k in (1, 3, 5):
                hits = index.query(query, k=k)
                expected = scan_oracle(entries, query, k)
                assert [(h.score, h.chunk_id) for h in hits] == expected

    def test_tie_break_by_chunk_id(self):
        vector = EmbeddingVector(values=(1.0, 0.0))
        index = VectorIndex()
        index.upsert(
            [
                IndexEntry(chunk=make_chunk(9), vector=vector),
                IndexEntry(chunk=make_chunk(2), vector=vector),
                IndexEntry(chunk=make_chunk(5), vector=vector),
            ]
        )
        hits = index.query(vector, k=3)
        assert [h.chunk_id for h in hits] == ["c0002", "c0005", "c0009"]

    def test_dimension_mismatch(self):
        rng = random.Random(8)
        index = build_index(rng, 3, dim=8)
        with pytest.raises(DimensionMismatchError):
            index.query(random_vector(rng, 16), k=1)

    def test_empty_index_rejected(self):
        with pytest.raises(FlowragError):
            VectorIndex().query(EmbeddingVector(values=(1.0,)), k=1)

    def test_zero_norm_row_scores_zero(self):
        index = VectorIndex()
        index.upsert(
            [
                IndexEntry(chunk=make_chunk(i), vector=EmbeddingVector(values=v))
                for i, v in enumerate([(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)])
            ]
        )
        hits = index.query(EmbeddingVector(values=(-1.0, -1.0)), k=3)
        assert (hits[0].chunk_id, hits[0].score) == ("c0001", 0.0)
        assert all(h.score < 0.0 for h in hits[1:])

    def test_scores_are_scale_invariant(self):
        a, b = (0.3, -0.4, 0.5), (-0.1, 0.9, 0.2)
        expected = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        index = VectorIndex()
        index.upsert(
            [
                IndexEntry(chunk=make_chunk(i), vector=EmbeddingVector(values=v))
                for i, v in enumerate([a, tuple(7.0 * v for v in a)])
            ]
        )
        for query in (b, tuple(7.0 * v for v in b)):
            hits = index.query(EmbeddingVector(values=query), k=2)
            assert [h.score for h in hits] == pytest.approx([expected, expected], abs=1e-6)

    def test_hits_carry_chunk_metadata(self):
        rng = random.Random(9)
        index = build_index(rng, 5)
        hit = index.query(random_vector(rng, 16), k=1)[0]
        assert hit.graph_id is not None
        assert hit.node_id is not None


class TestSnapshot:
    def test_round_trip_preserves_queries(self, tmp_path):
        rng = random.Random(10)
        index = build_index(rng, 50)
        queries = [random_vector(rng, 16) for _ in range(50)]
        before = [index.query(q, k=5) for q in queries]
        path = tmp_path / "index.snap"
        index.save(path)
        loaded = VectorIndex.load(path)
        after = [loaded.query(q, k=5) for q in queries]
        assert json.dumps([[h.to_dict() for h in hits] for hits in before]) == json.dumps(
            [[h.to_dict() for h in hits] for hits in after]
        )

    def test_byte_identical_snapshots(self, tmp_path):
        rng_a, rng_b = random.Random(11), random.Random(11)
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        build_index(rng_a, 30).save(a)
        build_index(rng_b, 30).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file(self, tmp_path):
        rng = random.Random(12)
        path = tmp_path / "index.snap"
        build_index(rng, 10).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(SnapshotError):
            VectorIndex.load(path)

    def test_version_mismatch(self, tmp_path):
        rng = random.Random(13)
        path = tmp_path / "index.snap"
        build_index(rng, 3).save(path)
        lines = path.read_bytes().split(b"\n", 1)
        header = json.loads(lines[0])
        header["version"] = 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + lines[1])
        with pytest.raises(SnapshotError) as excinfo:
            VectorIndex.load(path)
        assert "expected" in str(excinfo.value) and "99" in str(excinfo.value)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "index.snap"
        path.write_bytes(b'{"format":"other","version":1}\n')
        with pytest.raises(SnapshotError):
            VectorIndex.load(path)

    def test_empty_index_round_trip(self, tmp_path):
        path = tmp_path / "empty.snap"
        VectorIndex().save(path)
        loaded = VectorIndex.load(path)
        assert len(loaded) == 0
        assert VectorIndex().dimension is None and loaded.dimension is None
        # A header written by another tool keeps its dimension on a re-save.
        snapshot = b'{"count":0,"dimension":256,"format":"flowrag-vstore","version":1}\n'
        path.write_bytes(snapshot)
        resaved = tmp_path / "resaved.snap"
        VectorIndex.load(path).save(resaved)
        assert resaved.read_bytes() == snapshot

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = random.Random(14)
        path = tmp_path / "index.snap"
        build_index(rng, 3).save(path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(SnapshotError):
            VectorIndex.load(path)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def hits_key(hits):
    return [(h.chunk_id, h.score, h.rank) for h in hits]


class TestNonFinite:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_upsert_rejects_all_or_nothing(self, bad):
        rng = random.Random(20)
        index = build_index(rng, 3, dim=4)
        probe = random_vector(rng, 4)
        before = hits_key(index.query(probe, k=3))
        saved = snapshot_bytes(index)
        entries = [
            IndexEntry(chunk=make_chunk(1), vector=random_vector(rng, 4)),
            IndexEntry(chunk=make_chunk(7), vector=EmbeddingVector(values=(0.5, bad, 0.1, 0.2))),
        ]
        with pytest.raises(FlowragError) as excinfo:
            index.upsert(entries)
        assert "c0007" in str(excinfo.value)
        assert len(index) == 3
        assert hits_key(index.query(probe, k=3)) == before
        assert snapshot_bytes(index) == saved

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejected_first_upsert_leaves_index_empty(self, bad):
        index = VectorIndex()
        with pytest.raises(FlowragError):
            index.upsert(
                [IndexEntry(chunk=make_chunk(0), vector=EmbeddingVector(values=(bad, 1.0)))]
            )
        assert len(index) == 0
        assert index.dimension is None

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_query_rejects(self, bad):
        index = build_index(random.Random(22), 5, dim=3)
        with pytest.raises(FlowragError):
            index.query(EmbeddingVector(values=(1.0, bad, 0.0)), k=2)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_query_batch_rejects(self, bad):
        index = build_index(random.Random(23), 5, dim=3)
        queries = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, bad]])
        with pytest.raises(FlowragError) as excinfo:
            index.query_batch(queries, k=2)
        assert "query 1" in str(excinfo.value)

    def test_float32_overflow_rejected(self):
        index = build_index(random.Random(24), 5, dim=3)
        with pytest.raises(FlowragError):
            index.query_batch(np.array([[1e39, 0.0, 0.0]]), k=2)


def rewrite_header(path, **changes):
    header_line, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + rest)


class TestSnapshotHeader:
    def test_header_not_json(self, tmp_path):
        path = tmp_path / "index.snap"
        path.write_bytes(b"flowrag-vstore 1\n")
        with pytest.raises(SnapshotError, match="unreadable snapshot header"):
            VectorIndex.load(path)

    def test_header_json_array(self, tmp_path):
        path = tmp_path / "index.snap"
        path.write_bytes(b'["flowrag-vstore", 1]\n')
        with pytest.raises(SnapshotError, match="must be a JSON object"):
            VectorIndex.load(path)

    def test_cut_inside_chunk_lines(self, tmp_path):
        path = tmp_path / "index.snap"
        build_index(random.Random(36), 3, dim=4).save(path)
        header, first = path.read_bytes().split(b"\n")[:2]
        path.write_bytes(header + b"\n" + first + b"\n")
        with pytest.raises(SnapshotError, match="missing chunk 1"):
            VectorIndex.load(path)

    def test_negative_dimension(self, tmp_path):
        path = tmp_path / "index.snap"
        VectorIndex().save(path)
        rewrite_header(path, dimension=-3)
        with pytest.raises(SnapshotError):
            VectorIndex.load(path)

    def test_zero_dimension_with_entries(self, tmp_path):
        path = tmp_path / "index.snap"
        build_index(random.Random(30), 2, dim=4).save(path)
        rewrite_header(path, dimension=0)
        with pytest.raises(SnapshotError):
            VectorIndex.load(path)

    def test_missing_count(self, tmp_path):
        path = tmp_path / "index.snap"
        build_index(random.Random(31), 2, dim=4).save(path)
        rewrite_header(path, count=None)
        with pytest.raises(SnapshotError) as excinfo:
            VectorIndex.load(path)
        assert "count" in str(excinfo.value)

    def test_string_dimension(self, tmp_path):
        path = tmp_path / "index.snap"
        build_index(random.Random(32), 2, dim=4).save(path)
        rewrite_header(path, dimension="4")
        with pytest.raises(SnapshotError):
            VectorIndex.load(path)

    @pytest.mark.parametrize("changes", [{"count": True}, {"count": -1}, {"count": 2.0}])
    def test_bad_count(self, tmp_path, changes):
        path = tmp_path / "index.snap"
        build_index(random.Random(33), 2, dim=4).save(path)
        rewrite_header(path, **changes)
        with pytest.raises(SnapshotError):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "dimension, missing", [(5, "c0001"), (10**15, "c0000")], ids=["small", "huge"]
    )
    def test_header_claims_more_payload_than_the_file_holds(self, tmp_path, dimension, missing):
        # The payload is read as it is, never as large as the header says.
        path = tmp_path / "index.snap"
        build_index(random.Random(38), 2, dim=4).save(path)
        rewrite_header(path, dimension=dimension)
        with pytest.raises(SnapshotError, match=f"missing vector for '{missing}'"):
            VectorIndex.load(path)

    def test_duplicate_chunk_id(self, tmp_path):
        path = tmp_path / "index.snap"
        build_index(random.Random(35), 2, dim=4).save(path)
        header, first, second, blob = path.read_bytes().split(b"\n", 3)
        path.write_bytes(b"\n".join([header, first, first, blob]))
        with pytest.raises(SnapshotError) as excinfo:
            VectorIndex.load(path)
        assert "duplicate" in str(excinfo.value)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "index.snap"
        build_index(random.Random(34), 2, dim=4).save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-4] + np.array([np.nan], dtype="<f4").tobytes())
        with pytest.raises(SnapshotError) as excinfo:
            VectorIndex.load(path)
        assert "c0001" in str(excinfo.value)


# Vectors drawn from a small pool, so the index holds many exact duplicates;
# the pool may hold the zero vector, and -0.0 and 0.0 are different bytes.
_COMPONENT = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.25, -3.0]) | st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, width=32
)


@st.composite
def index_and_queries(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    vector = st.lists(_COMPONENT, min_size=dim, max_size=dim)
    pool = draw(st.lists(vector, min_size=1, max_size=5))
    if draw(st.booleans()):
        pool.append([0.0] * dim)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    extra = draw(st.lists(vector, max_size=3))
    queries = [pool[i] for i in draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=90)
    )] + extra + [[0.0] * dim]
    k = draw(st.integers(min_value=1, max_value=len(picks) + 3))
    ids = draw(st.permutations(range(len(picks))))
    entries = [
        (make_chunk(ids[i]), EmbeddingVector(values=tuple(pool[p])))
        for i, p in enumerate(picks)
    ]
    return entries, queries, k


class TestQueryBatch:
    @settings(max_examples=150, deadline=None)
    @given(index_and_queries())
    def test_matches_single_queries_and_scan_bit_for_bit(self, case):
        entries, queries, k = case
        index = VectorIndex()
        index.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
        batch = index.query_batch(np.array(queries, dtype=np.float32), k)
        single = [index.query(EmbeddingVector(values=tuple(q)), k) for q in queries]
        assert [hits_key(h) for h in batch] == [hits_key(h) for h in single]
        for query, hits in zip(queries, batch):
            expected = scan_oracle(entries, EmbeddingVector(values=tuple(query)), k)
            assert [(h.score, h.chunk_id) for h in hits] == expected
            assert [h.rank for h in hits] == list(range(1, len(expected) + 1))

    def test_dense_gaussian_rows_match_scan(self):
        rng = random.Random(40)
        entries = [(make_chunk(i), random_vector(rng, 256)) for i in range(400)]
        index = VectorIndex()
        index.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
        queries = [random_vector(rng, 256) for _ in range(150)]
        batch = index.query_batch(np.stack([q.as_array() for q in queries]), 5)
        for query, hits in zip(queries, batch):
            assert [(h.score, h.chunk_id) for h in hits] == scan_oracle(entries, query, 5)

    def test_near_ties_from_rounding_match_scan(self):
        # Permutations of one set of values score equally in exact
        # arithmetic against the all-ones query; the wide exponent range
        # makes every summation order round differently.
        rng = random.Random(50)
        values = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-40, 40) for _ in range(64)]
        entries = []
        for i in range(200):
            rng.shuffle(values)
            entries.append((make_chunk(i), EmbeddingVector(values=tuple(values))))
        index = VectorIndex()
        index.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
        query = EmbeddingVector(values=(1.0,) * 64)
        for k in (1, 3, 5):
            hits = index.query(query, k)
            assert [(h.score, h.chunk_id) for h in hits] == scan_oracle(entries, query, k)

    def test_zero_query_ranks_by_chunk_id(self):
        rng = random.Random(41)
        index = build_index(rng, 12, dim=4)
        hits = index.query(EmbeddingVector(values=(0.0,) * 4), k=3)
        assert [(h.chunk_id, h.score) for h in hits] == [
            ("c0000", 0.0), ("c0001", 0.0), ("c0002", 0.0)
        ]

    def test_k_below_one(self):
        index = build_index(random.Random(45), 4, dim=4)
        with pytest.raises(FlowragError, match="k must be positive"):
            index.query_batch(np.ones((2, 4)), 0)

    def test_one_dimensional_queries(self):
        index = build_index(random.Random(46), 4, dim=4)
        with pytest.raises(FlowragError, match="2-D array"):
            index.query_batch(np.ones(4), 3)

    def test_dimension_mismatch(self):
        index = build_index(random.Random(43), 4, dim=4)
        with pytest.raises(DimensionMismatchError):
            index.query_batch(np.ones((2, 5)), 3)

    def test_incremental_upserts_rank_like_one_bulk_upsert(self, tmp_path):
        rng = random.Random(44)
        pool = [random_vector(rng, 8) for _ in range(40)]
        final = {i: rng.choice(pool) for i in range(500)}
        incremental = VectorIndex()
        for i in range(500):
            incremental.upsert([IndexEntry(chunk=make_chunk(i), vector=rng.choice(pool))])
        for i in range(0, 500, 3):
            incremental.upsert([IndexEntry(chunk=make_chunk(i), vector=final[i])])
        replaced = list(range(1, 500, 3))
        incremental.upsert(
            [IndexEntry(chunk=make_chunk(i), vector=final[i]) for i in replaced]
        )
        for i in range(2, 500, 3):
            incremental.upsert([IndexEntry(chunk=make_chunk(i), vector=final[i])])
        bulk = VectorIndex()
        bulk.upsert([IndexEntry(chunk=make_chunk(i), vector=final[i]) for i in range(500)])
        assert len(incremental) == len(bulk) == 500
        queries = np.stack([v.as_array() for v in pool[:10]] + [random_vector(rng, 8).as_array()])
        assert [hits_key(h) for h in incremental.query_batch(queries, 7)] == [
            hits_key(h) for h in bulk.query_batch(queries, 7)
        ]
        incremental.save(tmp_path / "a.snap")
        bulk.save(tmp_path / "b.snap")
        assert (tmp_path / "a.snap").read_bytes() == (tmp_path / "b.snap").read_bytes()


class TestBlockRanker:
    """One ``query_batch`` call whose blocks mix every case the block ranker
    handles, checked against the linear scan."""

    @staticmethod
    def entries_and_queries():
        rng = random.Random(61)
        e1, e2 = (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)
        pool = [e1, e2] * 5  # two rows of five chunks each, ids interleaved
        pool += [(1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
        # Other rows score below 0 against the tie query.
        pool += [
            (-rng.random(), -rng.random(), rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(12)
        ]
        order = list(range(len(pool)))
        rng.shuffle(order)
        entries = [(make_chunk(i), EmbeddingVector(values=pool[i])) for i in order]
        tie = [1.0, 1.0, 0.0, 0.0]  # e1's and e2's ten chunks score 1/sqrt(2) each
        queries = [tie, [0.0, 0.0, 0.0, 0.0]]
        queries += [[rng.uniform(-1, 1) for _ in range(4)] for _ in range(70)]
        # Copies of the first two queries far enough on to land in later
        # blocks: one equal in bytes, one equal only in value (-0.0), and
        # one scaled, which ranks alike.
        queries += [tie, [0.0, -0.0, 0.0, 0.0], [1.0, 1.0, -0.0, 0.0], [4.0, 4.0, 0.0, 0.0]]
        return entries, np.array(queries, dtype=np.float32)

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_mixed_blocks_match_scan(self, k, monkeypatch):
        entries, queries = self.entries_and_queries()
        index = VectorIndex()
        index.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
        assert len(index._rows) == len(entries) - 8 and max(index._counts) == 5
        blocks = []
        rank_block = VectorIndex._rank_block

        def recording(self, block, *args):
            blocks.append(len(block))
            return rank_block(self, block, *args)

        monkeypatch.setattr(VectorIndex, "_rank_block", recording)
        batch = index.query_batch(queries, k)
        # The byte-equal copy is ranked once; the -0.0 copies are other rows.
        assert blocks == [64, len(queries) - 1 - 64]
        for query, hits in zip(queries, batch):
            expected = scan_oracle(entries, EmbeddingVector(values=tuple(query)), k)
            assert [(h.score, h.chunk_id) for h in hits] == expected
            assert [h.rank for h in hits] == list(range(1, len(expected) + 1))
        tie, zero = hits_key(batch[0]), hits_key(batch[1])
        assert hits_key(batch[72]) == hits_key(batch[74]) == hits_key(batch[75]) == tie
        assert hits_key(batch[73]) == zero
        assert batch[72] is not batch[0]
        if k == 3:
            # The k-th place falls among ten tied chunks of two rows (ids 0-9).
            assert [h.chunk_id for h in batch[0]] == ["c0010", "c0000", "c0001"]
            assert batch[0][1].score == batch[0][2].score == 1 / 2**0.5


@st.composite
def upserts_and_queries(draw):
    """Upserts over a few chunk ids (later ones replace earlier ones) and
    queries, all drawn from a small pool of vectors."""
    dim = draw(st.integers(min_value=1, max_value=4))
    vector = st.lists(_COMPONENT, min_size=dim, max_size=dim)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    pick = st.integers(0, len(pool) - 1)
    batches = draw(st.lists(
        st.dictionaries(st.integers(0, 15), pick, min_size=1, max_size=12),
        min_size=1, max_size=4,
    ))
    queries = [pool[i] for i in draw(st.lists(pick, min_size=1, max_size=30))]
    k = draw(st.integers(min_value=1, max_value=18))
    return pool, batches, queries + [[0.0] * dim], k


def snapshot_bytes(index: VectorIndex) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.snap"
        index.save(path)
        return path.read_bytes()


def pool_entry(i: int, values) -> IndexEntry:
    return IndexEntry(chunk=make_chunk(i), vector=EmbeddingVector(values=tuple(values)))


class TestDistinctRows:
    @settings(max_examples=150, deadline=None)
    @given(upserts_and_queries())
    def test_upserts_of_copies_match_scan_and_bulk_snapshot(self, case):
        pool, batches, queries, k = case
        index = VectorIndex()
        final: dict[int, int] = {}  # chunk id -> pool index, in first-insertion order
        for batch in batches:
            index.upsert([pool_entry(i, pool[p]) for i, p in batch.items()])
            final.update(batch)
        entries = [(make_chunk(i), EmbeddingVector(values=tuple(pool[p]))) for i, p in final.items()]
        batch_hits = index.query_batch(np.array(queries, dtype=np.float32), k)
        for query, hits in zip(queries, batch_hits):
            expected = scan_oracle(entries, EmbeddingVector(values=tuple(query)), k)
            assert [(h.score, h.chunk_id) for h in hits] == expected
        assert len(index._rows) == len({v.as_array().tobytes() for _, v in entries})
        bulk = VectorIndex()
        bulk.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
        assert snapshot_bytes(index) == snapshot_bytes(bulk)

    def test_copies_of_a_query_are_scored_once(self, monkeypatch):
        index = build_index(random.Random(60), 30, dim=4)
        scored = []
        rank_block = VectorIndex._rank_block

        def counting(self, block, *args):
            scored.extend(query.tobytes() for query in block)
            return rank_block(self, block, *args)

        monkeypatch.setattr(VectorIndex, "_rank_block", counting)
        a, b = [0.5, -1.0, 0.0, 2.0], [1.0, 1.0, 1.0, 1.0]
        signed = [0.5, -1.0, -0.0, 2.0]  # equal to a, but not in its bytes
        batch = index.query_batch(np.array([a, b, a, a, signed, b], dtype=np.float32), 4)
        assert len(scored) == 3
        assert batch[0] == batch[2] == batch[3] == batch[4]
        assert batch[1] == batch[5]
        assert len({id(hits) for hits in batch}) == len(batch)

    def test_replaced_chunk_leaves_no_ranked_row(self):
        a, b, c = (1.0, 0.0), (0.0, 1.0), (0.6, 0.8)
        index = VectorIndex()
        index.upsert([pool_entry(0, a), pool_entry(1, b), pool_entry(2, c), pool_entry(3, b)])
        index.upsert([pool_entry(0, c)])  # no chunk holds a any more
        assert len(index._rows) == 2
        entries = [(make_chunk(i), EmbeddingVector(values=v)) for i, v in enumerate((c, b, c, b))]
        query = EmbeddingVector(values=a)
        for k in (1, 2, 3, 4, 5):
            hits = index.query(query, k)
            assert [(h.score, h.chunk_id) for h in hits] == scan_oracle(entries, query, k)
            assert all(h.score < 0.7 for h in hits)

    def test_duplicate_heavy_snapshot_bytes_pinned(self, tmp_path):
        # Pin of unchanged output: the snapshot expands shared rows, so these
        # are the bytes a one-row-per-chunk index wrote.
        pool = [(1.0, 0.0, -0.0), (0.0, 0.0, 0.0), (0.5, -0.25, 2.0), (-0.0, 0.0, 0.0)]
        index = VectorIndex()
        index.upsert([pool_entry(i, pool[i * 3 % 4]) for i in (7, 2, 9, 4, 0, 11, 5)])
        index.upsert([pool_entry(i, pool[i % 4]) for i in (2, 3, 9, 12)])
        path = tmp_path / "index.snap"
        index.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "768f40ba84bbfdcbfa6c9d8b6d476f30dad2d77b166cfe15c47158e6eca9f4f5"
        )
        loaded = VectorIndex.load(path)
        assert len(index._rows) == len(loaded._rows) == 4
        assert snapshot_bytes(loaded) == path.read_bytes()


def array_entries(rows: np.ndarray) -> list:
    return [(make_chunk(i), EmbeddingVector(values=tuple(row))) for i, row in enumerate(rows)]


def assert_ranks_like_scan(entries, queries: np.ndarray, ks=(1, 3, 10)):
    index = VectorIndex()
    index.upsert([IndexEntry(chunk=c, vector=v) for c, v in entries])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in ks:
            batch = index.query_batch(queries, k)
            for query, hits in zip(queries, batch):
                expected = scan_oracle(entries, EmbeddingVector(values=tuple(query)), k)
                assert [(h.score, h.chunk_id) for h in hits] == expected


class TestFloat32Rows:
    def test_near_ties_inside_the_error_bound_match_scan(self):
        # Rows a few float32 ulps apart in a few components: their cosines
        # against the query differ by less than the float32 product's error
        # bound, so the approximate scores alone cannot order them.
        rng = np.random.default_rng(70)
        dim = 64
        base = rng.standard_normal(dim).astype(np.float32)
        rows = np.repeat(base[np.newaxis, :], 300, axis=0)
        for row in rows:
            for i in rng.integers(0, dim, size=3):
                step = np.float32(np.inf if rng.random() < 0.5 else -np.inf)
                for _ in range(rng.integers(1, 4)):
                    row[i] = np.nextafter(row[i], step)
        rows = np.concatenate([rows, rng.standard_normal((100, dim)).astype(np.float32)])
        entries = array_entries(rows)
        nudged = base + np.float32(1e-3) * rng.standard_normal(dim).astype(np.float32)
        queries = np.stack([base, nudged])
        for query in queries:
            top = scan_oracle(entries, EmbeddingVector(values=tuple(query)), 300)
            scores = [score for score, _ in top]
            assert 0.0 < scores[0] - scores[-1] < (dim + 4) * 2.0**-24
        assert_ranks_like_scan(entries, queries, ks=(1, 5, 50, 299, 301))

    def test_components_near_float32_max_match_scan(self):
        # A float32 product of these rows and an unscaled query overflows.
        rng = np.random.default_rng(71)
        dim = 32
        huge = np.float32(3.0e38)
        rows = (rng.uniform(-1.0, 1.0, (60, dim)) * huge).astype(np.float32)
        rows[:10, :] = huge
        rows[10, :] = -huge
        rows = np.concatenate([rows, rng.standard_normal((20, dim)).astype(np.float32)])
        queries = np.concatenate([
            (rng.uniform(-1.0, 1.0, (8, dim)) * huge).astype(np.float32),
            np.full((1, dim), huge, dtype=np.float32),
            rng.standard_normal((4, dim)).astype(np.float32),
        ])
        assert_ranks_like_scan(array_entries(rows), queries)

    def test_subnormal_rows_and_queries_match_scan(self):
        # Products with these rows underflow in float32, so their
        # approximate scores are mostly rounding error.
        rng = np.random.default_rng(72)
        dim = 16
        tiny = np.float32(2.0**-149)
        rows = np.concatenate([
            (rng.integers(-3, 4, (40, dim)) * tiny).astype(np.float32),
            (rng.standard_normal((20, dim)) * 1e-39).astype(np.float32),
            rng.standard_normal((40, dim)).astype(np.float32),
        ])
        rows[0, :] = tiny
        queries = np.concatenate([
            rng.standard_normal((6, dim)).astype(np.float32),
            (rng.integers(-3, 4, (3, dim)) * tiny).astype(np.float32),
            np.full((1, dim), tiny, dtype=np.float32),
        ])
        assert_ranks_like_scan(array_entries(rows), queries)

    @pytest.mark.parametrize("dim", [1, 3, 16, 33, 256])
    def test_norms_match_linalg_norm_bit_for_bit(self, dim):
        # Rows with subnormal components, components near float32 max and
        # ordinary ones, more of them than one block of rows.
        rng = np.random.default_rng(74)
        count = 300
        tiny = np.float32(2.0**-149)
        huge = np.finfo(np.float32).max
        rows = rng.standard_normal((count, dim)).astype(np.float32)
        rows[: count // 3] *= np.float32(1e-39)
        rows[count // 2 :: 7, ::2] *= tiny
        rows[count // 3 : count // 2] = (
            rng.uniform(-1.0, 1.0, (count // 2 - count // 3, dim)) * huge
        ).astype(np.float32)
        rows[0, :] = huge
        rows[1, :] = -tiny
        rows[2, :] = 0.0
        expected = np.array([np.linalg.norm(row.astype(np.float64)) for row in rows])
        assert np.isfinite(expected).all()
        assert np.array_equal(_norms(rows).view(np.int64), expected.view(np.int64))

    def test_rows_are_one_float32_matrix(self, tmp_path):
        rng = random.Random(73)
        pool = [random_vector(rng, 24) for _ in range(30)]
        index = VectorIndex()
        index.upsert([IndexEntry(chunk=make_chunk(i), vector=pool[i % 30]) for i in range(90)])
        # Two new rows; chunks 35 and 65 still hold chunk 5's old one.
        index.upsert([pool_entry(i, random_vector(rng, 24).values) for i in (5, 200)])
        index.save(tmp_path / "index.snap")
        for stored in (index, VectorIndex.load(tmp_path / "index.snap")):
            rows = stored._rows
            assert rows.dtype == np.float32 and rows.flags.c_contiguous
            assert rows.shape == (32, 24)
            assert rows.nbytes == 32 * 24 * 4


def index_state(index: VectorIndex) -> tuple:
    """The stored rows, norms and chunk-to-row array, as bytes."""
    return (
        index._rows.tobytes(),
        index._rows.shape,
        index._norms.tobytes(),
        index._row_of.tolist(),
        [c.chunk_id for c in index._chunks],
    )


class TestUpsertRows:
    """The chunks-plus-rows write against ``upsert(entries)``."""

    @settings(max_examples=100, deadline=None)
    @given(upserts_and_queries())
    def test_matches_upsert_of_entries(self, case):
        pool, batches, queries, k = case
        pool_rows = np.array(pool, dtype=np.float32)
        by_rows, by_entries = VectorIndex(), VectorIndex()
        for batch in batches:
            ids, picks = list(batch), list(batch.values())
            chunks = [make_chunk(i) for i in ids]
            # Every pool row, held or not, with each chunk's row number.
            assert by_rows.upsert_rows(chunks, pool_rows, picks) == len(chunks)
            by_entries.upsert([pool_entry(i, pool[p]) for i, p in batch.items()])
            assert index_state(by_rows) == index_state(by_entries)
        query_rows = np.array(queries, dtype=np.float32)
        assert by_rows.query_batch(query_rows, k) == by_entries.query_batch(query_rows, k)
        assert snapshot_bytes(by_rows) == snapshot_bytes(by_entries)

    def test_rows_equal_in_bytes_share_one_row(self):
        # Two texts that embed alike give two equal rows: one is stored.
        rows = np.array([[0.6, 0.8], [1.0, 0.0], [0.6, 0.8]], dtype=np.float32)
        index = VectorIndex()
        index.upsert_rows([make_chunk(i) for i in range(4)], rows, [0, 1, 2, 0])
        assert index._rows.tolist() == [[np.float32(0.6), np.float32(0.8)], [1.0, 0.0]]
        assert index._row_of.tolist() == [0, 1, 0, 0]

    def test_signed_zero_rows_stay_apart(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0]], dtype=np.float32)
        index = VectorIndex()
        index.upsert_rows([make_chunk(0), make_chunk(1)], rows, [0, 1])
        assert len(index._rows) == 2
        assert [h.score for h in index.query_batch(rows[:1], 2)[0]] == [1.0, 1.0]

    def test_non_finite_row_named_by_its_first_chunk(self):
        rows = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, np.inf]], dtype=np.float32)
        index = build_index(random.Random(80), 3, dim=2)
        saved = snapshot_bytes(index)
        with pytest.raises(FlowragError, match="chunk 'c0012' has a non-finite vector value"):
            index.upsert_rows([make_chunk(i) for i in (11, 12, 13, 14)], rows, [0, 2, 1, 2])
        assert snapshot_bytes(index) == saved

    def test_row_no_chunk_holds_is_not_stored_or_checked(self):
        rows = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]], dtype=np.float32)
        index = VectorIndex()
        index.upsert_rows([make_chunk(0), make_chunk(1)], rows, [2, 0])
        assert index._rows.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert index._row_of.tolist() == [0, 1]

    def test_dimension_mismatch_names_its_chunk(self):
        index = build_index(random.Random(82), 3, dim=3)
        saved = snapshot_bytes(index)
        rows = np.ones((2, 4), dtype=np.float32)
        rows[1, 0] = 2.0
        # Chunk 1 keeps its place ahead of the new chunks 4 and 6, so it is
        # the first chunk, in merged order, of a wrong-length row.
        with pytest.raises(DimensionMismatchError, match="chunk 'c0001' has dimension 4, index uses 3"):
            index.upsert_rows([make_chunk(i) for i in (4, 1, 6)], rows, [1, 0, 1])
        assert snapshot_bytes(index) == saved

    @pytest.mark.parametrize(
        "rows, got",
        [
            (np.array([[1e39, 0.0]]), "float64 array of shape (1, 2)"),
            (np.array([[1, 0]], dtype=np.int32), "int32 array of shape (1, 2)"),
            (np.array([1.0, 0.0], dtype=np.float32), "float32 array of shape (2,)"),
            (np.eye(3, dtype=np.float32)[:, :2], "float32 array of shape (3, 2)"),
            (np.eye(2, dtype=">f4"), ">f4 array of shape (2, 2)"),
            ([np.ones(2, dtype=np.float32)], "list"),
        ],
        ids=["float64", "int32", "one-dimensional", "not-c-contiguous", "big-endian", "list"],
    )
    def test_rows_other_than_a_float32_matrix_rejected(self, rows, got):
        index = build_index(random.Random(83), 2, dim=2)
        saved = snapshot_bytes(index)
        with pytest.raises(FlowragError, match=re.escape(
            f"rows must be a 2-D C-contiguous float32 array, got {got}"
        )):
            index.upsert_rows([make_chunk(7)], rows, [0])
        assert snapshot_bytes(index) == saved

    def test_rows_write_survives_a_snapshot_round_trip(self, tmp_path):
        rows = np.array([[0.6, 0.8], [3.0e38, -1.0], [0.6, 0.8]], dtype=np.float32)
        rows.flags.writeable = False
        index = VectorIndex()
        index.upsert_rows([make_chunk(i) for i in range(4)], rows, [2, 1, 0, 1])
        index.save(tmp_path / "rows.idx")
        loaded = VectorIndex.load(tmp_path / "rows.idx")
        assert index_state(loaded) == index_state(index)
        assert loaded.query_batch(rows, 4) == index.query_batch(rows, 4)

    def test_merge_into_a_non_empty_index(self):
        rng = random.Random(81)
        pool = [random_vector(rng, 5) for _ in range(4)]
        rows = np.stack([v.as_array() for v in pool])
        by_rows, by_entries = VectorIndex(), VectorIndex()
        first, second = [3, 1, 0, 1, 2], {2: 0, 3: 3, 9: 3, 6: 2}
        by_rows.upsert_rows([make_chunk(i) for i in range(5)], rows, first)
        by_entries.upsert([IndexEntry(make_chunk(i), pool[p]) for i, p in enumerate(first)])
        by_rows.upsert_rows([make_chunk(i) for i in second], rows, list(second.values()))
        by_entries.upsert([IndexEntry(make_chunk(i), pool[p]) for i, p in second.items()])
        assert index_state(by_rows) == index_state(by_entries)
        query = pool[0].as_array()[np.newaxis, :]
        assert by_rows.query_batch(query, 8) == by_entries.query_batch(query, 8)

    @pytest.mark.parametrize("row_of", [[0], [0, 2], [0, -1], [0.0, 1.0], [[0, 1]]])
    def test_bad_row_numbers_rejected(self, row_of):
        rows = np.eye(2, dtype=np.float32)
        index = VectorIndex()
        with pytest.raises(FlowragError, match="row_of must give each chunk a row number below 2"):
            index.upsert_rows([make_chunk(0), make_chunk(1)], rows, row_of)
        assert len(index) == 0

    def test_read_only_rows_are_kept_and_writeable_ones_copied(self):
        rows = np.eye(3, dtype=np.float32)
        index = VectorIndex()
        index.upsert_rows([make_chunk(i) for i in range(3)], rows, [0, 1, 2])
        assert index._rows is not rows and not np.shares_memory(index._rows, rows)
        rows.flags.writeable = False
        index = VectorIndex()
        index.upsert_rows([make_chunk(i) for i in range(3)], rows, [0, 1, 2])
        assert index._rows is rows
