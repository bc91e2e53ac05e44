"""Embedding providers: a deterministic local hashed embedder and a remote
HTTP client.

The local provider exists so the whole evaluation pipeline runs with zero
network access: it tokenizes on non-alphanumeric boundaries, case-folds,
hashes each token into a fixed number of buckets with a keyed 64-bit hash
(sign from a second hash), accumulates counts and L2-normalizes. Everything
is derived from blake2b, so vectors are identical across runs and platforms.

The remote protocol is deliberately minimal:

    POST {endpoint}/embed
    request  {"model": "<name>", "inputs": ["text", ...]}
    response {"embeddings": [[...], ...]}         (HTTP 200)
    errors   {"error": "message"}                 (any other status)

Requests are sent in batches of at most ``batch_size``; transport failures
and HTTP 5xx are retried three times with exponential backoff starting at
250 ms, HTTP 4xx is never retried.
"""
from __future__ import annotations

import hashlib
import math
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
import requests

from .errors import FlowragError


class EmbedInputError(FlowragError):
    pass


class TransportError(FlowragError):
    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


class ProtocolError(FlowragError):
    pass


class EmbeddingVector:
    """Fixed-length vector of 32-bit reals, held as one read-only float32
    array, so in-memory scoring and snapshots agree."""

    __slots__ = ("_array",)

    def __init__(self, values):
        array = np.array(values, dtype=np.float32)
        if array.ndim != 1:
            raise EmbedInputError(f"expected a flat vector, got shape {array.shape}")
        array.flags.writeable = False
        self._array = array

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    @property
    def dimension(self) -> int:
        return len(self._array)

    def as_array(self) -> np.ndarray:
        return self._array

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return bool(np.array_equal(self._array, other._array))

    def __hash__(self) -> int:
        # Adding zero turns -0.0 into 0.0, which compares equal to it.
        return hash((self._array + np.float32(0.0)).tobytes())

    def __repr__(self) -> str:
        return f"EmbeddingVector(values={self.values!r})"


class ProviderKind(Enum):
    LOCAL_HASHED = "local-hashed"
    REMOTE = "remote"


@dataclass(frozen=True)
class ProviderConfig:
    kind: ProviderKind
    dimension: int = 256
    endpoint: str = ""
    model_name: str = ""
    timeout_s: float = 10.0
    batch_size: int = 32
    max_concurrency: int = 4

    def __post_init__(self):
        if self.kind is ProviderKind.REMOTE:
            if not self.endpoint or not self.model_name:
                raise ValueError("remote provider requires endpoint and model_name")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def describe(self) -> str:
        if self.kind is ProviderKind.LOCAL_HASHED:
            return f"local-hashed(dim={self.dimension})"
        return f"remote({self.model_name}@{self.endpoint})"

    @classmethod
    def from_dict(cls, data: dict) -> "ProviderConfig":
        kind = ProviderKind(data.get("kind", "local-hashed"))
        kwargs: dict = {"kind": kind}
        for key in ("dimension", "endpoint", "model_name", "timeout_s", "batch_size", "max_concurrency"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)


_TOKEN_RE = re.compile(r"[0-9a-z]+")

_RETRY_ATTEMPTS = 3
_BACKOFF_BASE_S = 0.25


def _token_hash(token: str, key: bytes) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _hash_embed(text: str, dimension: int) -> EmbeddingVector:
    buckets = np.zeros(dimension, dtype=np.float64)
    for token in _TOKEN_RE.findall(text.casefold()):
        bucket = _token_hash(token, b"bucket") % dimension
        buckets[bucket] += 1.0 if _token_hash(token, b"sign") & 1 else -1.0
    # Bucket counts are small integers, so the squared norm is exact.
    norm = math.sqrt(float(np.dot(buckets, buckets)))
    if norm > 0:
        buckets /= norm
    return EmbeddingVector(buckets)


class _RemoteClient:
    def __init__(self, config: ProviderConfig):
        self.config = config
        self.session = requests.Session()

    def embed_one_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        url = self.config.endpoint.rstrip("/") + "/embed"
        payload = {"model": self.config.model_name, "inputs": texts}
        last_error = ""
        for attempt in range(1, _RETRY_ATTEMPTS + 1):
            try:
                response = self.session.post(
                    url, json=payload, timeout=self.config.timeout_s
                )
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc}"
            else:
                if response.status_code == 200:
                    return self._parse(response)
                if 400 <= response.status_code < 500:
                    raise ProtocolError(
                        f"embedding service rejected the request "
                        f"(HTTP {response.status_code}): {_error_text(response)}"
                    )
                last_error = f"HTTP {response.status_code}: {_error_text(response)}"
            if attempt < _RETRY_ATTEMPTS:
                time.sleep(_BACKOFF_BASE_S * 2 ** (attempt - 1))
        raise TransportError(last_error, attempts=_RETRY_ATTEMPTS)

    def _parse(self, response) -> list[EmbeddingVector]:
        try:
            embeddings = response.json()["embeddings"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed embedding response: {exc}") from exc
        if not isinstance(embeddings, list):
            raise ProtocolError("embeddings must be an array of rows")
        vectors = []
        for i, row in enumerate(embeddings):
            if not isinstance(row, list) or not row:
                raise ProtocolError("embedding rows must be non-empty arrays")
            try:
                with np.errstate(over="ignore"):  # overflow to inf is rejected below
                    vector = EmbeddingVector(row)
            except (TypeError, ValueError, EmbedInputError) as exc:
                raise ProtocolError(f"embedding row {i} is not numeric: {exc}") from exc
            if not np.isfinite(vector.as_array()).all():
                raise ProtocolError(f"embedding row {i} holds a non-finite value")
            vectors.append(vector)
        return vectors


def _error_text(response) -> str:
    try:
        return response.json().get("error", response.text[:200])
    except ValueError:
        return response.text[:200]


def embed_batch(provider: ProviderConfig, texts: list[str]) -> list[EmbeddingVector]:
    """Embed texts in order; one vector per input text."""
    if not texts:
        raise EmbedInputError("texts must be non-empty")
    for i, text in enumerate(texts):
        if not text:
            raise EmbedInputError(f"text at index {i} is empty")
    if provider.kind is ProviderKind.LOCAL_HASHED:
        return [_hash_embed(text, provider.dimension) for text in texts]

    client = _RemoteClient(provider)
    batches = [
        texts[i : i + provider.batch_size]
        for i in range(0, len(texts), provider.batch_size)
    ]
    if len(batches) == 1:
        results = [client.embed_one_batch(batches[0])]
    else:
        with ThreadPoolExecutor(max_workers=provider.max_concurrency) as pool:
            results = list(pool.map(client.embed_one_batch, batches))
    vectors: list[EmbeddingVector] = []
    for batch, batch_vectors in zip(batches, results):
        if len(batch_vectors) != len(batch):
            raise ProtocolError(
                f"embedding service returned {len(batch_vectors)} vectors "
                f"for {len(batch)} inputs"
            )
        vectors.extend(batch_vectors)
    dimensions = {v.dimension for v in vectors}
    if len(dimensions) > 1:
        raise ProtocolError(f"inconsistent embedding dimensions: {sorted(dimensions)}")
    return vectors


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity; zero when either vector has zero norm."""
    if a.dimension != b.dimension:
        raise EmbedInputError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    va = a.as_array().astype(np.float64)
    vb = b.as_array().astype(np.float64)
    norm = float(np.linalg.norm(va)) * float(np.linalg.norm(vb))
    if norm == 0.0:
        return 0.0
    return float(np.dot(va, vb) / norm)
