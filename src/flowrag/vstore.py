"""In-memory vector index with exact cosine top-k retrieval.

The index stores each distinct vector once: one row matrix (float64, holding
float32-exact values) with a vector of row norms, and a chunk -> row index
array. Rows are told apart by their exact float32 bytes, so ``-0.0`` and
``0.0`` stay separate rows; duplicates are found through a hash of each
row's bytes, compared against the row itself on a hit. Every write merges
the new chunks into the stored ones (a known chunk id keeps its place, a new
one is appended) and rebuilds the rows, norms and ranking layout from the
merged list, so every row has a chunk.

``query_batch`` scores each distinct query once, up to ``_QUERY_BLOCK`` of
them with one matrix product over the distinct rows. For each query it walks
the rows by approximate cosine until their chunks cover k, or every chunk
when there are fewer, and every row whose approximate cosine comes within
``_CANDIDATE_SLACK`` of that k-th chunk's is a candidate. A zero query
scores every row 0, so the same rule makes every row a candidate and chunk
ids decide. Each candidate row is rescored with the row-at-a-time formula
``np.dot(row, q) / (norm * qnorm)``, and the first k chunks of each, in
chunk-id order, are merged by (-score, chunk id).
Reported scores are therefore bit-identical to a linear scan's over the
chunks, and ties break by ascending chunk id so runs are deterministic.

Snapshot format (single file), unchanged by the distinct-row storage:
  line 1   JSON header {"format", "version", "dimension", "count"}
  n lines  chunk metadata, one JSON object per entry
  blob     n * dimension little-endian float32 vector values, one row per
           chunk in chunk order (a shared row is written once per chunk)
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .chunker import Chunk
from .embed import EmbeddingVector
from .errors import FlowragError
from .jsonio import create, encode

_SNAPSHOT_FORMAT = "flowrag-vstore"
_SNAPSHOT_VERSION = 1
# Queries scored per matrix product; bounds the (block, rows) score matrix.
_QUERY_BLOCK = 64
# A matrix product differs from a row-at-a-time dot product only in the last
# bits; rows whose approximate cosine lies this close to the k-th are
# rescored exactly.
_CANDIDATE_SLACK = 1e-9
# Chunk rows expanded per snapshot write; bounds the temporary copy.
_SAVE_BLOCK = 1024


class DimensionMismatchError(FlowragError):
    pass


class SnapshotError(FlowragError):
    pass


@dataclass(frozen=True)
class IndexEntry:
    chunk: Chunk
    vector: EmbeddingVector


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    score: float
    rank: int
    graph_id: str | None = None
    node_id: str | None = None

    def to_dict(self) -> dict:
        obj: dict = {"chunk_id": self.chunk_id, "score": self.score, "rank": self.rank}
        if self.graph_id is not None:
            obj["graph_id"] = self.graph_id
        if self.node_id is not None:
            obj["node_id"] = self.node_id
        return obj


def _first_non_finite(rows: np.ndarray) -> int | None:
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    return int(bad[0]) if len(bad) else None


def _distinct(rows) -> tuple[list[int], np.ndarray]:
    """Group float32 ``rows`` (a 2-D array or a list of 1-D arrays) by their
    exact bytes, numbering distinct rows in first-seen order. Returns
    (position in ``rows`` of each distinct row's first copy, row id of each
    row). The table holds a hash of each row's bytes, not the bytes: a hit
    is compared against the row itself."""
    ids_by_hash: dict[int, list[int]] = {}
    firsts: list[int] = []
    row_of = np.empty(len(rows), dtype=np.intp)
    for i, row in enumerate(rows):
        data = row.tobytes()
        ids = ids_by_hash.setdefault(hash(data), [])
        for row_id in ids:
            if rows[firsts[row_id]].tobytes() == data:
                break
        else:
            row_id = len(firsts)
            firsts.append(i)
            ids.append(row_id)
        row_of[i] = row_id
    return firsts, row_of


def _header_int(header: dict, key: str) -> int:
    if key not in header:
        raise SnapshotError(f"snapshot header lacks {key!r}")
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SnapshotError(f"snapshot header {key!r} must be an integer, found {value!r}")
    return value


class _Layout(NamedTuple):
    """Chunk orders for ranking; rebuilt by every write."""

    id_rank: np.ndarray  # each chunk's place in ascending chunk-id order
    members: np.ndarray  # chunk positions grouped by row, in chunk-id order
    starts: np.ndarray  # row r's chunks are members[starts[r]:starts[r] + counts[r]]
    counts: np.ndarray  # chunks per row


class VectorIndex:
    """Exact cosine index over chunks; one writer, then many readers."""

    def __init__(self):
        self._chunks: list[Chunk] = []
        self._rows = np.zeros((0, 0))  # distinct rows
        self._norms = np.zeros(0)
        self._inv_norms = np.zeros(0)
        self._row_of = np.zeros(0, dtype=np.intp)  # chunk position -> row
        self._layout: _Layout | None = None

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def dimension(self) -> int | None:
        return self._rows.shape[1] if self._chunks else None

    def upsert(self, entries: list[IndexEntry]) -> int:
        """Insert or replace entries; all-or-nothing on bad input."""
        if not entries:
            return 0
        dimension = self.dimension
        seen: set[str] = set()
        for entry in entries:
            if entry.chunk.chunk_id in seen:
                raise FlowragError(
                    f"duplicate chunk_id {entry.chunk.chunk_id!r} in one upsert call"
                )
            seen.add(entry.chunk.chunk_id)
            if dimension is None:
                dimension = entry.vector.dimension
            elif entry.vector.dimension != dimension:
                raise DimensionMismatchError(
                    f"chunk {entry.chunk.chunk_id!r} has dimension "
                    f"{entry.vector.dimension}, index uses {dimension}"
                )
        if dimension == 0:
            raise DimensionMismatchError("vectors need at least one component")
        self._put(
            [entry.chunk for entry in entries],
            [entry.vector.as_array() for entry in entries],
            FlowragError,
        )
        return len(entries)

    def _put(self, chunks: list[Chunk], vectors, error: type[FlowragError]) -> None:
        """Write one float32 vector per chunk (a 2-D array or a list of 1-D
        arrays): merge them into the stored chunks, where a known chunk id
        keeps its place and a new one is appended, then rebuild the rows,
        norms and ranking layout from the merged list. Raises ``error`` and
        changes nothing when a vector is not finite."""
        if self._chunks:
            # Merging into an empty index changes nothing; skipping it spares
            # a bulk write one view per row (about 1 MB at 6 000 chunks).
            stored = self._rows.astype(np.float32)
            merged = {c.chunk_id: (c, stored[r]) for c, r in zip(self._chunks, self._row_of)}
            merged.update((c.chunk_id, (c, v)) for c, v in zip(chunks, vectors))
            chunks = [chunk for chunk, _ in merged.values()]
            vectors = [vector for _, vector in merged.values()]
        firsts, row_of = _distinct(vectors)
        rows = np.empty((len(firsts), len(vectors[0])))
        for row, i in zip(rows, firsts):
            row[:] = vectors[i]
        bad = _first_non_finite(rows)
        if bad is not None:
            raise error(
                f"chunk {chunks[firsts[bad]].chunk_id!r} has a non-finite vector value"
            )
        # The norm of a 1-D row is sqrt(dot(row, row)); an axis=1 norm would
        # sum in another order and break bit-identity with a linear scan.
        norms = np.array([np.linalg.norm(row) for row in rows], dtype=np.float64)
        by_id = np.array(
            sorted(range(len(chunks)), key=lambda i: chunks[i].chunk_id), dtype=np.intp
        )
        id_rank = np.empty_like(by_id)
        id_rank[by_id] = np.arange(len(by_id))
        members = by_id[np.argsort(row_of[by_id], kind="stable")]
        counts = np.bincount(row_of, minlength=len(rows))
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        self._chunks, self._rows, self._norms, self._row_of = chunks, rows, norms, row_of
        self._inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        self._layout = _Layout(id_rank, members, starts, counts)

    def query(self, vector: EmbeddingVector, k: int) -> list[RetrievalHit]:
        """Exact top-k by cosine."""
        return self.query_batch(vector.as_array()[np.newaxis, :], k)[0]

    def query_batch(self, queries: np.ndarray, k: int) -> list[list[RetrievalHit]]:
        """``[query(q, k) for q in queries]`` for an (n, dimension) array of
        queries. Each distinct query row is scored once, in blocks of one
        matrix product; its copies get equal hit lists."""
        if not self._chunks:
            raise FlowragError("query on an empty index")
        if k < 1:
            raise FlowragError(f"k must be positive, got {k}")
        with np.errstate(over="ignore"):  # overflow to inf is rejected below
            queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2:
            raise FlowragError(f"queries must form a 2-D array, got shape {queries.shape}")
        if queries.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"query dimension {queries.shape[1]}, index uses {self.dimension}"
            )
        bad = _first_non_finite(queries)
        if bad is not None:
            raise FlowragError(f"query {bad} has a non-finite vector value")
        firsts, query_of = _distinct(queries)
        distinct = queries if len(firsts) == len(queries) else queries[firsts]
        ranked: list[list[RetrievalHit]] = []
        for start in range(0, len(distinct), _QUERY_BLOCK):
            block = distinct[start : start + _QUERY_BLOCK].astype(np.float64)
            approx = (block @ self._rows.T) * self._inv_norms
            for query, scores in zip(block, approx):
                ranked.append(self._top_k(query, scores, k))
        return [list(ranked[i]) for i in query_of]

    def _top_k(self, query: np.ndarray, approx: np.ndarray, k: int) -> list[RetrievalHit]:
        """Exact top-k of one query, given ``approx[r]``, an approximation of
        row r . query / row norm."""
        layout = self._layout
        query_norm = float(np.linalg.norm(query))
        # Every row has a chunk, so the k best rows hold the k-th best chunk:
        # walk them in approximate order to reach it. A zero query scores
        # every row 0, so every row is a candidate and chunk ids decide.
        k = min(k, len(self._chunks))
        slack = _CANDIDATE_SLACK * query_norm
        rows = np.arange(len(approx))
        if len(approx) > k:
            floor = np.partition(approx, len(approx) - k)[len(approx) - k]
            rows = np.flatnonzero(approx >= floor - slack)
        walk = rows[np.argsort(-approx[rows])]
        kth = approx[walk[np.searchsorted(np.cumsum(layout.counts[walk]), k)]]
        rows = rows[approx[rows] >= kth - slack]
        row_scores = np.empty(len(rows))
        for i, row in enumerate(rows):
            denom = self._norms[row] * query_norm
            row_scores[i] = 0.0 if denom == 0.0 else np.dot(self._rows[row], query) / denom
        # Only the first k chunks of a row, in chunk-id order, can rank.
        take = np.minimum(layout.counts[rows], k)
        chosen = np.concatenate([
            layout.members[layout.starts[row] : layout.starts[row] + n]
            for row, n in zip(rows, take)
        ])
        scores = np.repeat(row_scores, take)
        order = np.lexsort((layout.id_rank[chosen], -scores))[:k]
        hits = []
        for rank, (position, score) in enumerate(zip(chosen[order], scores[order]), start=1):
            chunk = self._chunks[position]
            hits.append(
                RetrievalHit(
                    chunk_id=chunk.chunk_id,
                    score=float(score),
                    rank=rank,
                    graph_id=chunk.graph_id,
                    node_id=chunk.node_id,
                )
            )
        return hits

    def save(self, path: str | Path) -> None:
        with create(path) as fh:
            # Keys in sorted order: the header bytes are part of the format.
            header = {
                "count": len(self._chunks),
                "dimension": self._rows.shape[1],
                "format": _SNAPSHOT_FORMAT,
                "version": _SNAPSHOT_VERSION,
            }
            fh.write(encode(header) + b"\n")
            for chunk in self._chunks:
                fh.write(encode(chunk.to_dict()))
                fh.write(b"\n")
            # One row per chunk, expanded a block at a time.
            for start in range(0, len(self._chunks), _SAVE_BLOCK):
                rows = self._rows[self._row_of[start : start + _SAVE_BLOCK]]
                fh.write(rows.astype("<f4"))

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        index = cls()
        with open(path, "rb") as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise SnapshotError(f"unreadable snapshot header: {exc}") from exc
            if not isinstance(header, dict):
                raise SnapshotError("snapshot header must be a JSON object")
            if header.get("format") != _SNAPSHOT_FORMAT:
                raise SnapshotError(
                    f"expected format {_SNAPSHOT_FORMAT!r}, found {header.get('format')!r}"
                )
            if header.get("version") != _SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"expected snapshot version {_SNAPSHOT_VERSION}, "
                    f"found {header.get('version')}"
                )
            count = _header_int(header, "count")
            dimension = _header_int(header, "dimension")
            if count < 0:
                raise SnapshotError(f"snapshot count must be >= 0, found {count}")
            if dimension < (1 if count else 0):
                raise SnapshotError(f"snapshot dimension {dimension} is invalid")
            chunks = []
            seen: set[str] = set()
            for i in range(count):
                line = fh.readline()
                if not line:
                    raise SnapshotError(f"truncated snapshot: missing chunk {i}")
                try:
                    chunk = Chunk.from_dict(json.loads(line))
                except (KeyError, ValueError, FlowragError) as exc:
                    raise SnapshotError(f"{path}:{i + 2}: bad chunk record: {exc}") from exc
                if chunk.chunk_id in seen:
                    raise SnapshotError(f"duplicate chunk_id {chunk.chunk_id!r} in snapshot")
                seen.add(chunk.chunk_id)
                chunks.append(chunk)
            row_bytes = 4 * dimension
            blob = fh.read(row_bytes * count)
            if len(blob) != row_bytes * count:
                raise SnapshotError(
                    f"truncated snapshot: missing vector for "
                    f"{chunks[len(blob) // row_bytes].chunk_id!r}"
                )
            if fh.read(1):
                raise SnapshotError("trailing bytes after snapshot payload")
        # An empty snapshot stores no row, but its dimension is saved back.
        index._rows = np.zeros((0, dimension))
        if count:
            index._put(
                chunks, np.frombuffer(blob, dtype="<f4").reshape(count, dimension), SnapshotError
            )
        return index
