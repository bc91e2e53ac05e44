"""In-memory vector index with exact cosine top-k retrieval.

The index stores each distinct vector once: one C-contiguous float32 row
matrix, 4 * dimension bytes per distinct row, with float64 row norms and a
chunk -> row index array. Rows are told apart by their exact float32 bytes,
so ``-0.0`` and ``0.0`` stay separate rows; duplicates are found through a
hash of each row's bytes, compared against the row itself on a hit. Every
write (``upsert`` or ``load``) goes through ``_put``, which holds every
write check, merges the new chunks into the stored ones (a known chunk id
keeps its place, a new one is appended) and rebuilds the rows, norms and
ranking orders from the merged list, so every row has a chunk.

``query_batch`` ranks each distinct query once, a block of up to
``_QUERY_BLOCK`` of them at a time, with array operations over the whole
block and no loop over its queries. One float32 matrix product scores the
block against the rows: each query is scaled to norm ``2**-shift`` (so that
no finite row can overflow a partial sum) and each product is divided by
its row's float64 norm. The result lies within
``err[r] = gamma(d + 4) + d * 2**(shift - 149) / norm[r]`` of the exact score
(see ``_error_bounds``), so ``approx - err`` and ``approx + err`` bound it.
The k-th chunk's score is at least the k-th largest lower bound, counting
each row once per chunk; every row whose upper bound reaches that floor is
a candidate, and no other row can rank. The slack is thus doubled: both the
k-th score and each candidate's are approximate. One lexsort of the block's
(query, row) pairs by (query, -lower bound), one cumulative sum of their
chunk counts and one ``searchsorted`` find each query's floor. A zero query
scores every row 0, so every row is a candidate and chunk ids decide. Each
candidate pair is rescored with the row-at-a-time float64 formula
``np.dot(row, q) / (norm * qnorm)``; the first k chunks of each candidate
row, in chunk-id order, are gathered for the whole block with one
``np.repeat`` and ordered by one lexsort on (query, -score, chunk id).
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
import math
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

import numpy as np

from .chunker import Chunk
from .embed import EmbeddingVector
from .errors import FlowragError
from .jsonio import create, decode, encode, shown

_SNAPSHOT_FORMAT = "flowrag-vstore"
_SNAPSHOT_VERSION = 1
# Queries scored per matrix product; bounds the (block, rows) score matrix.
_QUERY_BLOCK = 64
# Chunk rows expanded per snapshot write; bounds the temporary copy.
_SAVE_BLOCK = 1024
# Rows converted to float64 per norm block: a small temporary (128 KB at
# dimension 256) beside a loaded snapshot, and as fast as larger blocks.
_NORM_BLOCK = 64


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


def _norms(rows: np.ndarray) -> np.ndarray:
    """Each float32 row's float64 norm: sqrt(dot(row, row)) of the row alone,
    as ``np.linalg.norm`` takes a 1-D norm, so the bits are the same, with
    the rows converted to float64 a block at a time. An axis=1 norm would
    sum in another order and break bit-identity with a linear scan."""
    norms = np.empty(len(rows))
    for start in range(0, len(rows), _NORM_BLOCK):
        block = rows[start : start + _NORM_BLOCK].astype(np.float64)
        norms[start : start + len(block)] = [math.sqrt(row.dot(row)) for row in block]
    return norms


def _query_shift(dimension: int) -> int:
    """The least s with 2**s >= 2 * sqrt(dimension). A query scaled to norm
    2**-s keeps every partial sum of its product with a finite float32 row
    below (1 + gamma) * ||row|| * 2**-s <= (1 + gamma) * FLT_MAX / 2, since
    ||row|| <= sqrt(dimension) * FLT_MAX, so the product cannot overflow."""
    return ((dimension - 1).bit_length() + 1) // 2 + 1


def _error_bounds(dimension: int, inv_norms: np.ndarray) -> np.ndarray:
    """Per row r, a bound on |approx - score| for every query, where approx
    is the float32 product of row r with the query scaled to norm 2**-shift,
    times 2**shift / norm[r], and score is the float64 rescoring.

    The dot-product error bound |fl(r . q) - r . q| <= gamma(n) |r| . |q|
    <= gamma(n) ||r|| ||q|| (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1; any summation order, with or without FMA), with
    gamma(n) = n u / (1 - n u) and u = 2**-24, counts n = d + 4 roundings:
    d in the product, 1 rounding the query to float32, 1 each for the
    float64 steps on the query's side (norm, division, scaling) and the
    row's side (inverse norm, unscaling, the rescoring's own error), each
    far below 2**-24 for any dimension below 2**28, and 1 that covers the
    query components that underflow (at most sqrt(d) * 2**(shift - 150) in
    all). Products that underflow each lose at most 2**-150, which the
    division by the row norm scales up: d * 2**(shift - 149) / norm[r]
    covers them twice over, and so covers the float64 rounding of the
    bounds themselves. Sums of subnormals are exact. A zero row scores 0
    both ways."""
    n = dimension + 4
    gamma = n * 2.0**-24 / (1.0 - n * 2.0**-24)
    return gamma + dimension * 2.0 ** (_query_shift(dimension) - 149) * inv_norms


def _header_int(header: dict, key: str) -> int:
    if key not in header:
        raise SnapshotError(f"snapshot header lacks '{key}'")
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SnapshotError(f"snapshot header '{key}' must be an integer, found {shown(value)}")
    return value


class VectorIndex:
    """Exact cosine index over chunks; one writer, then many readers."""

    def __init__(self):
        self._chunks: list[Chunk] = []
        self._rows = np.zeros((0, 0), dtype=np.float32)  # distinct rows
        self._norms = np.zeros(0)
        self._scale = np.zeros(0)  # 2**shift / norm: unscales a row's product
        self._err = np.zeros(0)  # bound on a row's approximation error
        self._row_of = np.zeros(0, dtype=np.intp)  # chunk position -> row
        # Chunk orders for ranking: row r's chunks, in chunk-id order, are
        # members[starts[r]:starts[r] + counts[r]], and id_rank is each
        # chunk's place in ascending chunk-id order.
        self._id_rank = self._members = self._starts = self._counts = self._row_of

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def dimension(self) -> int | None:
        return self._rows.shape[1] if self._chunks else None

    def upsert(self, entries: list[IndexEntry]) -> int:
        """Insert or replace entries; all-or-nothing on bad input."""
        if entries:
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
        norms and ranking orders from the merged list. Every write check is
        here, before anything changes: a chunk id repeated among ``chunks``
        or a non-finite value raises ``error``; a vector with no component,
        or of another dimension than the index's (the first vector's, for an
        empty index), raises ``DimensionMismatchError`` naming its chunk."""
        # Repeats are checked before the merge, which would keep the last alone.
        seen: set[str] = set()
        for chunk in chunks:
            if chunk.chunk_id in seen:
                raise error(f"duplicate chunk_id {shown(chunk.chunk_id)}")
            seen.add(chunk.chunk_id)
        if self._chunks:
            # Merging into an empty index changes nothing; skipping it spares
            # a bulk write one view per row (about 1 MB at 6 000 chunks).
            merged = {
                c.chunk_id: (c, self._rows[r]) for c, r in zip(self._chunks, self._row_of)
            }
            merged.update((c.chunk_id, (c, v)) for c, v in zip(chunks, vectors))
            chunks = [chunk for chunk, _ in merged.values()]
            vectors = [vector for _, vector in merged.values()]
        firsts, row_of = _distinct(vectors)
        # Equal rows have equal lengths, so the first chunk of a wrong length
        # is the first copy of its row.
        dimension = self.dimension or len(vectors[firsts[0]])
        if dimension < 1:
            raise DimensionMismatchError("vectors need at least one component")
        for i in firsts:
            if len(vectors[i]) != dimension:
                raise DimensionMismatchError(
                    f"chunk {shown(chunks[i].chunk_id)} has dimension "
                    f"{len(vectors[i])}, index uses {dimension}"
                )
        if isinstance(vectors, np.ndarray) and len(firsts) == len(vectors):
            rows = vectors  # every row distinct: the rows are the input
        else:
            rows = np.stack([vectors[i] for i in firsts])
        bad = _first_non_finite(rows)
        if bad is not None:
            raise error(
                f"chunk {shown(chunks[firsts[bad]].chunk_id)} has a non-finite vector value"
            )
        norms = _norms(rows)
        by_id = np.array(
            sorted(range(len(chunks)), key=lambda i: chunks[i].chunk_id), dtype=np.intp
        )
        self._id_rank = np.empty_like(by_id)
        self._id_rank[by_id] = np.arange(len(by_id))
        self._members = by_id[np.argsort(row_of[by_id], kind="stable")]
        self._counts = np.bincount(row_of, minlength=len(rows))
        self._starts = np.concatenate([[0], np.cumsum(self._counts)[:-1]])
        self._chunks, self._rows, self._norms, self._row_of = chunks, rows, norms, row_of
        inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        self._scale = 2.0 ** _query_shift(rows.shape[1]) * inv_norms
        self._err = _error_bounds(rows.shape[1], inv_norms)

    def query(self, vector: EmbeddingVector, k: int) -> list[RetrievalHit]:
        """Exact top-k by cosine."""
        return self.query_batch(vector.as_array()[np.newaxis, :], k)[0]

    def query_batch(self, queries: np.ndarray, k: int) -> list[list[RetrievalHit]]:
        """``[query(q, k) for q in queries]`` for an (n, dimension) array of
        queries. Each distinct query row is ranked once, in blocks of
        ``_QUERY_BLOCK``. When every row is distinct the ranked lists are
        returned as they are; otherwise each copy of a row gets its own list
        of the same hits."""
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
        k = min(k, len(self._chunks))
        ranked: list[list[RetrievalHit]] = []
        for start in range(0, len(distinct), _QUERY_BLOCK):
            block = distinct[start : start + _QUERY_BLOCK].astype(np.float64)
            ranked += self._rank_block(block, k)
        if len(firsts) == len(queries):
            return ranked
        return [list(ranked[i]) for i in query_of]

    def _rank_block(self, block: np.ndarray, k: int) -> list[list[RetrievalHit]]:
        """Exact top-k of each float64 query of ``block``, for k at most the
        chunk count, with array operations over the whole block."""
        lengths = np.sqrt(np.einsum("ij,ij->i", block, block))
        factor = np.divide(
            2.0 ** -_query_shift(block.shape[1]),
            lengths,
            out=np.zeros_like(lengths),
            where=lengths > 0,
        )
        units = (block * factor[:, np.newaxis]).astype(np.float32)
        approx = (units @ self._rows.T).astype(np.float64)
        approx *= self._scale
        lower = approx - self._err
        upper = np.add(approx, self._err, out=approx)
        # The least of k rows' lower bounds is at most the k-th best row's,
        # and every row has a chunk, so at most the k-th best chunk's and
        # its score: the least of the maxima of k row groups is a floor.
        # Every query keeps at least the k rows holding those maxima.
        n_rows = len(self._rows)
        if n_rows > k:
            groups = np.arange(k) * n_rows // k
            floor = np.maximum.reduceat(lower, groups, axis=1).min(axis=1)
            pairs = np.flatnonzero(upper >= floor[:, np.newaxis])
        else:
            pairs = np.arange(upper.size)
        owner, rows = np.divmod(pairs, n_rows)  # grouped by query
        lower, upper = lower.ravel()[pairs], upper.ravel()[pairs]
        # Walk each query's rows by falling lower bound until their chunks
        # cover k: that row's lower bound, the k-th best chunk's, is the
        # tightest floor, whatever the order of equal lower bounds.
        walk = np.lexsort((-lower, owner))
        covered = np.concatenate([[0], np.cumsum(self._counts[rows[walk]])])
        before = covered[np.searchsorted(owner, np.arange(len(block)))]
        kth = lower[walk[np.searchsorted(covered, before + k) - 1]]
        keep = upper >= kth[owner]
        owner, rows = owner[keep], rows[keep]
        # Each candidate pair is rescored with the row-at-a-time float64
        # formula, so its score has a linear scan's bits.
        query_norms = np.array([np.linalg.norm(query) for query in block])
        dots = np.fromiter(
            map(np.dot, self._rows[rows].astype(np.float64), block[owner]),
            dtype=np.float64,
            count=len(rows),
        )
        denoms = self._norms[rows] * query_norms[owner]
        scores = np.divide(dots, denoms, out=np.zeros_like(dots), where=denoms != 0.0)
        # Only the first k chunks of a row, in chunk-id order, can rank.
        take = np.minimum(self._counts[rows], k)
        pair_of = np.repeat(np.arange(len(rows)), take)
        ends = np.cumsum(take)
        chosen = self._members[
            np.repeat(self._starts[rows] - ends + take, take) + np.arange(ends[-1])
        ]
        chosen_owner = owner[pair_of]
        order = np.lexsort((self._id_rank[chosen], -scores[pair_of], chosen_owner))
        # Each query holds at least k chunks; its first k in that order rank.
        firsts = np.searchsorted(chosen_owner, np.arange(len(block)))
        top = order[(firsts[:, np.newaxis] + np.arange(k)).ravel()]
        chunks = self._chunks
        hits = [
            RetrievalHit(
                chunk_id=chunk.chunk_id,
                score=score,
                rank=rank,
                graph_id=chunk.graph_id,
                node_id=chunk.node_id,
            )
            for chunk, score, rank in zip(
                map(chunks.__getitem__, chosen[top].tolist()),
                scores[pair_of[top]].tolist(),
                cycle(range(1, k + 1)),
            )
        ]
        return [hits[i : i + k] for i in range(0, len(hits), k)]

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
                fh.write(encode(chunk))
                fh.write(b"\n")
            # One row per chunk, expanded a block at a time.
            for start in range(0, len(self._chunks), _SAVE_BLOCK):
                rows = self._rows[self._row_of[start : start + _SAVE_BLOCK]]
                fh.write(rows.astype("<f4", copy=False))

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        index = cls()
        with open(path, "rb") as fh:
            header_line = fh.readline()
            try:
                header = decode(header_line)
            except json.JSONDecodeError as exc:
                raise SnapshotError(f"unreadable snapshot header: {exc}") from exc
            if not isinstance(header, dict):
                raise SnapshotError("snapshot header must be a JSON object")
            if header.get("format") != _SNAPSHOT_FORMAT:
                raise SnapshotError(
                    f"expected format '{_SNAPSHOT_FORMAT}', found {shown(header.get('format'))}"
                )
            if header.get("version") != _SNAPSHOT_VERSION:
                raise SnapshotError(
                    f"expected snapshot version {_SNAPSHOT_VERSION}, "
                    f"found {shown(header.get('version'))}"
                )
            count = _header_int(header, "count")
            dimension = _header_int(header, "dimension")
            if count < 0:
                raise SnapshotError(f"snapshot count must be >= 0, found {shown(count)}")
            if dimension < (1 if count else 0):
                raise SnapshotError(f"snapshot dimension {shown(dimension)} is invalid")
            chunks = []
            for i in range(count):
                line = fh.readline()
                if not line:
                    raise SnapshotError(f"truncated snapshot: missing chunk {i}")
                try:
                    chunk = Chunk.from_dict(decode(line))
                except (KeyError, ValueError, FlowragError) as exc:
                    raise SnapshotError(f"{path}:{i + 2}: bad chunk record: {exc}") from exc
                chunks.append(chunk)
            # The payload is whatever follows, so a header can claim no more
            # than the file holds.
            row_bytes = 4 * dimension
            blob = fh.read()
            if len(blob) < row_bytes * count:
                raise SnapshotError(
                    f"truncated snapshot: missing vector for "
                    f"{shown(chunks[len(blob) // row_bytes].chunk_id)}"
                )
            if len(blob) > row_bytes * count:
                raise SnapshotError("trailing bytes after snapshot payload")
        # An empty snapshot stores no row, but its dimension is saved back.
        index._rows = np.zeros((0, dimension), dtype=np.float32)
        if count:
            index._put(
                chunks, np.frombuffer(blob, dtype="<f4").reshape(count, dimension), SnapshotError
            )
        return index
