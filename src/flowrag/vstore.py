"""In-memory vector index with exact cosine top-k retrieval.

The index keeps one row matrix (float64, holding float32-exact values) and a
vector of row norms. ``query_batch`` scores up to ``_QUERY_BLOCK`` queries
with one matrix product. For each query, every row whose approximate cosine
comes within ``_CANDIDATE_SLACK`` of the k-th is a candidate, and each
candidate is rescored with the row-at-a-time formula
``np.dot(row, q) / (norm * qnorm)``; byte-identical candidates share one
rescoring. Reported scores are therefore bit-identical to a linear scan's,
and ties break by ascending chunk id so runs are deterministic.

Snapshot format (single file):
  line 1   JSON header {"format", "version", "dimension", "count"}
  n lines  chunk metadata, one JSON object per entry
  blob     n * dimension little-endian float32 vector values
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chunker import Chunk
from .embed import EmbeddingVector
from .errors import FlowragError
from .jsonio import encode

_SNAPSHOT_FORMAT = "flowrag-vstore"
_SNAPSHOT_VERSION = 1
# Queries scored per matrix product; bounds the (block, rows) score matrix.
_QUERY_BLOCK = 64
# A matrix product differs from a row-at-a-time dot product only in the last
# bits; rows whose approximate cosine lies this close to the k-th are
# rescored exactly.
_CANDIDATE_SLACK = 1e-9


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


def _header_int(header: dict, key: str) -> int:
    if key not in header:
        raise SnapshotError(f"snapshot header lacks {key!r}")
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SnapshotError(f"snapshot header {key!r} must be an integer, found {value!r}")
    return value


class VectorIndex:
    """Exact cosine index over chunks; one writer, then many readers."""

    def __init__(self):
        self._chunks: list[Chunk] = []
        self._by_id: dict[str, int] = {}
        self._dimension: int | None = None
        self._rows = np.zeros((0, 0))
        self._norms = np.zeros(0)
        self._inv_norms = np.zeros(0)
        self._id_rank: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def dimension(self) -> int | None:
        return self._dimension

    def upsert(self, entries: list[IndexEntry]) -> int:
        """Insert or replace entries; all-or-nothing on bad input."""
        if not entries:
            return 0
        dimension = self._dimension
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
        rows = np.empty((len(entries), dimension))
        for row, entry in zip(rows, entries):
            row[:] = entry.vector.as_array()
        bad = _first_non_finite(rows)
        if bad is not None:
            raise FlowragError(
                f"chunk {entries[bad].chunk.chunk_id!r} has a non-finite vector value"
            )
        self._dimension = dimension
        self._put([entry.chunk for entry in entries], rows)
        return len(entries)

    def _put(self, chunks: list[Chunk], rows: np.ndarray) -> None:
        """Write validated float64 rows: replace known chunk ids in place,
        append the rest in one step."""
        # The norm of a 1-D row is sqrt(dot(row, row)); an axis=1 norm would
        # sum in another order and break bit-identity with a linear scan.
        norms = np.array([np.linalg.norm(row) for row in rows], dtype=np.float64)
        was_empty = not self._chunks
        if was_empty:
            self._rows, self._norms = rows, norms
        fresh = []
        for i, chunk in enumerate(chunks):
            position = self._by_id.get(chunk.chunk_id)
            if position is None:
                self._by_id[chunk.chunk_id] = len(self._chunks)
                self._chunks.append(chunk)
                fresh.append(i)
            else:
                self._chunks[position] = chunk
                self._rows[position] = rows[i]
                self._norms[position] = norms[i]
        if fresh and not was_empty:
            self._rows = np.concatenate([self._rows, rows[fresh]])
            self._norms = np.concatenate([self._norms, norms[fresh]])
        if fresh:
            self._id_rank = None
        self._inv_norms = np.divide(
            1.0, self._norms, out=np.zeros_like(self._norms), where=self._norms > 0
        )

    def _chunk_id_rank(self) -> np.ndarray:
        """Each row's position in ascending chunk-id order."""
        if self._id_rank is None:
            order = sorted(range(len(self._chunks)), key=lambda i: self._chunks[i].chunk_id)
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order))
            self._id_rank = rank
        return self._id_rank

    def query(self, vector: EmbeddingVector, k: int) -> list[RetrievalHit]:
        """Exact top-k by cosine."""
        return self.query_batch(vector.as_array()[np.newaxis, :], k)[0]

    def query_batch(self, queries: np.ndarray, k: int) -> list[list[RetrievalHit]]:
        """``[query(q, k) for q in queries]`` for an (n, dimension) array of
        queries, one matrix product per block."""
        if not self._chunks:
            raise FlowragError("query on an empty index")
        if k < 1:
            raise FlowragError(f"k must be positive, got {k}")
        with np.errstate(over="ignore"):  # overflow to inf is rejected below
            queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2:
            raise FlowragError(f"queries must form a 2-D array, got shape {queries.shape}")
        if queries.shape[1] != self._dimension:
            raise DimensionMismatchError(
                f"query dimension {queries.shape[1]}, index uses {self._dimension}"
            )
        bad = _first_non_finite(queries)
        if bad is not None:
            raise FlowragError(f"query {bad} has a non-finite vector value")
        id_rank = self._chunk_id_rank()
        results: list[list[RetrievalHit]] = []
        for start in range(0, len(queries), _QUERY_BLOCK):
            block = queries[start : start + _QUERY_BLOCK].astype(np.float64)
            approx = (block @ self._rows.T) * self._inv_norms
            for query, scores in zip(block, approx):
                results.append(self._top_k(query, scores, k, id_rank))
        return results

    def _top_k(
        self, query: np.ndarray, approx: np.ndarray, k: int, id_rank: np.ndarray
    ) -> list[RetrievalHit]:
        """Exact top-k of one query, given ``approx[i]``, an approximation of
        row i . query / row norm."""
        count = len(self._chunks)
        query_norm = float(np.linalg.norm(query))
        if query_norm == 0.0:
            # Every score is zero: the chunk-id order alone decides.
            candidates = np.arange(count)
            scores = np.zeros(count)
        else:
            if count > k:
                kth = np.partition(approx, count - k)[count - k]
                candidates = np.flatnonzero(approx >= kth - _CANDIDATE_SLACK * query_norm)
            else:
                candidates = np.arange(count)
            # Rows with the same bytes score the same. Such rows share an
            # approximate score, so each row is rescored unless it has the
            # bytes of the first candidate with its approximate score.
            rows = self._rows[candidates]
            _, first, group = np.unique(
                approx[candidates], return_index=True, return_inverse=True
            )
            leader = first[group]
            bits = rows.view(np.int64)
            copies = (bits == bits[leader]).all(axis=1)
            copies[first] = False
            norms = self._norms[candidates]
            scores = np.empty(len(candidates))
            for i in np.flatnonzero(~copies):
                denom = norms[i] * query_norm
                scores[i] = 0.0 if denom == 0.0 else np.dot(rows[i], query) / denom
            scores[copies] = scores[leader[copies]]
        order = np.lexsort((id_rank[candidates], -scores))[:k]
        hits = []
        for rank, i in enumerate(order, start=1):
            chunk = self._chunks[candidates[i]]
            hits.append(
                RetrievalHit(
                    chunk_id=chunk.chunk_id,
                    score=float(scores[i]),
                    rank=rank,
                    graph_id=chunk.graph_id,
                    node_id=chunk.node_id,
                )
            )
        return hits

    def save(self, path: str | Path) -> None:
        if self._dimension is None and self._chunks:
            raise SnapshotError("index dimension is unset")
        dimension = self._dimension or 0
        with open(path, "wb") as fh:
            # Keys in sorted order: the header bytes are part of the format.
            header = {
                "count": len(self._chunks),
                "dimension": dimension,
                "format": _SNAPSHOT_FORMAT,
                "version": _SNAPSHOT_VERSION,
            }
            fh.write(encode(header) + b"\n")
            for chunk in self._chunks:
                fh.write(encode(chunk.to_dict()))
                fh.write(b"\n")
            fh.write(self._rows.astype("<f4"))

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
        if not count:
            return index
        rows = np.frombuffer(blob, dtype="<f4").reshape(count, dimension).astype(np.float64)
        bad = _first_non_finite(rows)
        if bad is not None:
            raise SnapshotError(f"chunk {chunks[bad].chunk_id!r} has a non-finite vector value")
        index._dimension = dimension
        index._put(chunks, rows)
        return index
