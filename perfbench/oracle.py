"""Linear-scan ranking oracle for checking ``VectorIndex.query``.

The documented ranking is exact cosine in float64 over the stored float32
vectors, ties broken by ascending chunk id. A matrix product finds the
candidates near the top; each candidate is then rescored one row at a time
in float64. An index may compute its scores another way (one matrix product
for a batch of queries, say), so scores are compared within ``SCORE_TOL``
and near-ties between different vectors may come out in either order.
Chunks holding the same vector tie exactly, whatever the arithmetic, and
must come out in ascending chunk-id order.
"""
from __future__ import annotations

import numpy as np

# Matrix-product scores differ from row-at-a-time scores only in the last
# bits; anything this close to the k-th score is rescored exactly.
_CANDIDATE_SLACK = 1e-9
# How far a returned score may sit from the oracle's float64 score.
SCORE_TOL = 1e-12


def _exact_score(row32: np.ndarray, query: np.ndarray, query_norm: float) -> float:
    row = np.asarray(row32, dtype=np.float64)
    denom = float(np.linalg.norm(row)) * query_norm
    return 0.0 if denom == 0.0 else float(np.dot(row, query) / denom)


class ScanOracle:
    """Exact top-k over ``rows`` (float32, one per chunk id)."""

    def __init__(self, chunk_ids: list[str], rows: np.ndarray):
        if len(chunk_ids) != len(rows):
            raise ValueError("one row per chunk id")
        self.chunk_ids = list(chunk_ids)
        self._row_of = {cid: i for i, cid in enumerate(self.chunk_ids)}
        self.rows = np.asarray(rows, dtype=np.float32)
        wide = self.rows.astype(np.float64)
        self._wide = wide
        norms = np.linalg.norm(wide, axis=1)
        self._inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)

    def same_vector(self, a: str, b: str) -> bool:
        return bool(np.array_equal(self.rows[self._row_of[a]], self.rows[self._row_of[b]]))

    def rank(self, queries: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
        """Top-k (chunk_id, score) lists, one per float32 query row; each
        goes on with every further chunk scoring within ``SCORE_TOL`` of the
        k-th, since an index may return any of those that do not tie
        exactly."""
        queries = np.asarray(queries, dtype=np.float32)
        approx = (queries.astype(np.float64) @ self._wide.T) * self._inv_norms
        n = len(self.chunk_ids)
        out = []
        for qi, query32 in enumerate(queries):
            query = np.asarray(query32, dtype=np.float64)
            query_norm = float(np.linalg.norm(query))
            if n <= k:
                candidates = range(n)
            else:
                scores = approx[qi]
                if query_norm > 0:
                    scores = scores / query_norm
                kth = np.partition(scores, n - k)[n - k]
                candidates = np.nonzero(scores >= kth - _CANDIDATE_SLACK)[0]
            scored = [
                (self.chunk_ids[i], _exact_score(self.rows[i], query, query_norm))
                for i in candidates
            ]
            scored.sort(key=lambda item: (-item[1], item[0]))
            cut = min(k, len(scored))
            while cut < len(scored) and scored[cut][1] >= scored[k - 1][1] - SCORE_TOL:
                cut += 1
            out.append(scored[:cut])
        return out


def tie_at_k(ranking: list[tuple[str, float]], k: int) -> bool:
    """True when the k-th and (k+1)-th scores of a ranking tie, so the
    chunk-id tie-break decides which of them is returned."""
    return len(ranking) > k and ranking[k - 1][1] == ranking[k][1]


def hits_match(oracle: ScanOracle, hits: list[tuple[str, float]],
               ranking: list[tuple[str, float]], k: int) -> bool:
    """Whether ``hits`` (chunk_id, score) is a correct top-k answer, given the
    oracle's ``rank(..., k)`` for the same query.

    Every score must lie within ``SCORE_TOL`` of the oracle's, and the ids
    must come in the oracle's order, with one exception: two chunks whose
    oracle scores are within ``SCORE_TOL`` of each other and whose vectors
    differ may swap, the last place included, since rounding orders them.
    Chunks with the same vector tie exactly and may not swap.
    """
    if len(hits) != min(k, len(oracle.chunk_ids)):
        return False
    expected = dict(ranking)
    if any(cid not in expected or abs(score - expected[cid]) > SCORE_TOL
           for cid, score in hits):
        return False
    got = [cid for cid, _ in hits]
    if got == [cid for cid, _ in ranking[:k]]:
        return True
    place = {cid: i for i, cid in enumerate(got)}
    if len(place) != len(got):
        return False
    for i, (first, first_score) in enumerate(ranking):
        for second, second_score in ranking[i + 1:]:
            jumped = second in place and (first not in place or place[first] > place[second])
            if jumped and not (
                abs(first_score - second_score) <= SCORE_TOL
                and not oracle.same_vector(first, second)
            ):
                return False
    return True
