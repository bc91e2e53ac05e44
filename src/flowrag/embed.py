"""Embedding providers: a deterministic local hashed embedder and a remote
HTTP client.

The local provider exists so the whole evaluation pipeline runs with zero
network access: it case-folds, takes each run of ASCII letters and digits
(``[0-9a-z]``) as a token, hashes each token into a fixed number of buckets
with a keyed 64-bit hash (sign from a second hash), accumulates counts and
L2-normalizes. Any other character, an accented or CJK letter included, only
separates tokens: "Prüfe" gives ``pr`` and ``fe``, and a text with no token
at all, such as "信号" or "???", embeds to the zero vector. Everything is
derived from blake2b, so vectors are identical across runs and platforms.
Rows are computed ``_EMBED_BLOCK`` texts at a time, with one ``np.bincount``
per block (``_hash_rows``), and equal, bit for bit, a loop that adds one
token at a time to each text's buckets.

The remote protocol is deliberately minimal:

    POST {endpoint}/embed
    request  {"model": "<name>", "inputs": ["text", ...]}
    response {"embeddings": [[...], ...]}         (HTTP 200)
    errors   {"error": "message"}                 (any other status)

``embed_rows`` embeds each distinct text of one call once and returns the
rows as one read-only float32 matrix, with each text's row number;
``embed_batch`` wraps it and hands a text's copies the same vector, a view
of that matrix. Nothing is cached across calls. Requests are sent
in batches of at most ``batch_size``; transport failures and HTTP 5xx are
retried three times with exponential backoff starting at 250 ms, HTTP 4xx is
never retried.

The client is built on ``http.client`` and keeps HTTP/1.1 connections alive:
each distinct ``ProviderConfig`` gets one client per process, holding at most
``max_concurrency`` idle connections that later ``embed_batch`` calls reuse.
A reused connection that the server closed while it sat idle fails before
any response arrives; the request is then sent again at once on a fresh
connection, and that re-send is not one of the three attempts. Proxy
environment variables (``HTTP(S)_PROXY``, ``NO_PROXY``) are not consulted.
"""
from __future__ import annotations

import functools
import hashlib
import http.client
import json
import numbers
import re
import ssl
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from urllib.parse import urlsplit

import numpy as np

from .errors import ConfigError, FlowragError
from .jsonio import NUMBER, config_kwargs, decode, expect, member, shown


class EmbedInputError(FlowragError):
    pass


class TransportError(FlowragError):
    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


class ProtocolError(FlowragError):
    pass


def _is_real(kind: type) -> bool:
    """Whether values of type ``kind`` are real numbers: Python or numpy
    integers and floats, not bool, str, bytes, None or object."""
    return kind is not bool and issubclass(kind, numbers.Real)


def _float32_vector(values) -> np.ndarray:
    """A new float32 copy of ``values``, a flat sequence or array of real
    numbers; EmbedInputError for anything else."""
    # A float32 array would read "0.5" and True as numbers and None as NaN.
    if isinstance(values, np.ndarray):
        if not _is_real(values.dtype.type):
            raise EmbedInputError(
                f"vector values must be real numbers, got a {values.dtype} array"
            )
    else:
        try:
            types = set(map(type, values))
        except TypeError as exc:
            raise EmbedInputError(
                f"expected a flat vector, got {type(values).__name__}"
            ) from exc
        if not all(map(_is_real, types)):
            bad = next(v for v in values if not _is_real(type(v)))
            raise EmbedInputError(f"vector values must be real numbers, found {shown(bad)}")
    array = np.array(values, dtype=np.float32)
    if array.ndim != 1:
        raise EmbedInputError(f"expected a flat vector, got shape {array.shape}")
    return array


class EmbeddingVector:
    """Fixed-length vector of 32-bit reals, held as one read-only float32
    array, so in-memory scoring and snapshots agree."""

    __slots__ = ("_array",)

    def __init__(self, values):
        array = _float32_vector(values)
        array.flags.writeable = False
        self._array = array

    @classmethod
    def _of_row(cls, row: np.ndarray) -> "EmbeddingVector":
        """A vector over ``row``, a row of a read-only float32 matrix that
        nothing writes to, shared rather than copied."""
        vector = cls.__new__(cls)
        vector._array = row
        return vector

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
        return f"EmbeddingVector(values={self.values})"


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
        expect(self.kind, ProviderKind, "kind")
        for name in ("dimension", "batch_size", "max_concurrency"):
            value = expect(getattr(self, name), int, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {shown(value)}")
        timeout = expect(self.timeout_s, NUMBER, "timeout_s")
        # A socket takes no timeout above TIMEOUT_MAX; comparing an integer
        # too large for a float with it is exact, where converting it raises.
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(
                f"timeout_s must be > 0 and at most {threading.TIMEOUT_MAX:.0f}, "
                f"got {shown(timeout)}"
            )
        if self.kind is ProviderKind.REMOTE:
            endpoint = expect(self.endpoint, str, "endpoint")
            if not endpoint or not expect(self.model_name, str, "model_name"):
                raise ConfigError("remote provider requires endpoint and model_name")
            _split_endpoint(endpoint)

    def describe(self) -> str:
        if self.kind is ProviderKind.LOCAL_HASHED:
            return f"local-hashed(dim={self.dimension})"
        return f"remote({self.model_name}@{self.endpoint})"

    @classmethod
    def from_dict(cls, data: dict) -> "ProviderConfig":
        kwargs = config_kwargs(cls, data, "provider config")
        kwargs["kind"] = member(kwargs.get("kind", "local-hashed"), ProviderKind, "kind")
        return cls(**kwargs)


_TOKEN_RE = re.compile(r"[0-9a-z]+")
# http.client refuses to send these in a host or path.
_UNSENDABLE_RE = re.compile(r"[\x00-\x20\x7f]")

# Texts per bincount in the local kernel: a block's code arrays and its
# (texts, dimension) float64 sums are the kernel's only temporaries, about
# 0.45 MB at 32 and 2.1 MB at 256 for 100-token texts (BENCH_30.json).
_EMBED_BLOCK = 32

_RETRY_ATTEMPTS = 3
_BACKOFF_BASE_S = 0.25


def _token_hash(token: str, key: bytes) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


class _BucketCodes(dict):
    """token -> 2 * bucket + sign bit, for one call: a token missing from
    the table is hashed once, on its first lookup."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension

    def __missing__(self, token: str) -> int:
        bucket = _token_hash(token, b"bucket") % self.dimension
        code = self[token] = 2 * bucket + (_token_hash(token, b"sign") & 1)
        return code


def _hash_rows(texts: list[str], dimension: int) -> np.ndarray:
    """One float32 row per text, computed ``_EMBED_BLOCK`` texts at a time.

    Each text's tokens become bucket codes at once, so no token string
    outlives its text unless it is new to the call. Per block: one
    ``np.bincount`` over the (text, bucket) cells with weights of +1.0 and
    -1.0, the row norms and one division. Bucket sums and squared norms are
    integers below 2**53, so they are exact in any order, and sqrt and
    division are correctly rounded: each row has the bits of a loop that
    adds one token at a time to one text's buckets."""
    codes = _BucketCodes(dimension)
    rows = np.empty((len(texts), dimension), dtype=np.float32)
    for start in range(0, len(texts), _EMBED_BLOCK):
        parts = [
            np.fromiter(map(codes.__getitem__, _TOKEN_RE.findall(text.casefold())), np.intp)
            for text in texts[start : start + _EMBED_BLOCK]
        ]
        code = np.concatenate(parts)
        cells = np.repeat(np.arange(len(parts)) * dimension, list(map(len, parts)))
        cells += code >> 1
        # With no token at all, bincount counts in integers.
        sums = np.bincount(
            cells, weights=(code & 1) * 2.0 - 1.0, minlength=len(parts) * dimension
        ).astype(np.float64, copy=False).reshape(len(parts), dimension)
        norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))[:, np.newaxis]
        np.divide(sums, norms, out=sums, where=norms > 0)
        rows[start : start + len(parts)] = sums
    return rows


def _split_endpoint(endpoint: str):
    """The endpoint's URL parts; ValueError unless it is an http:// or
    https:// URL with a host that can be sent (no blank or control
    character anywhere, each host label 1-63 characters once encoded with
    IDNA) and no credentials, query or fragment."""
    if _UNSENDABLE_RE.search(endpoint):
        raise ValueError(
            f"endpoint {shown(endpoint)} must not hold blanks or control characters"
        )
    try:
        parts = urlsplit(endpoint)
        parts.port  # raises ValueError on a malformed port
        if parts.hostname:
            parts.hostname.encode("idna")  # UnicodeError, a ValueError, on a bad label
    except ValueError as exc:
        raise ValueError(f"endpoint {shown(endpoint)} is not a valid URL: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(
            f"endpoint must be an http:// or https:// URL with a host, got {shown(endpoint)}"
        )
    if parts.username is not None or parts.query or parts.fragment:
        raise ValueError(
            f"endpoint {shown(endpoint)} must not carry credentials, a query or a fragment"
        )
    return parts


# A reused connection the server closed while idle fails with one of these
# before any response arrives (http.client.RemoteDisconnected is a
# ConnectionResetError).
_STALE_CONNECTION = (ConnectionResetError, BrokenPipeError)


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for conn in connections:
        conn.close()


class _RemoteClient:
    """Posts to one endpoint over HTTP/1.1 keep-alive connections. Idle
    connections wait in a lock-guarded list for the next request; at most
    ``max_concurrency`` are kept, extra ones are closed."""

    def __init__(self, config: ProviderConfig):
        self.config = config
        parts = _split_endpoint(config.endpoint)
        https = parts.scheme == "https"
        self._host = parts.hostname
        # Explicit, because http.client would read the tail of a bare IPv6
        # host such as "::1" as a port.
        self._port = parts.port or (443 if https else 80)
        self._path = parts.path.rstrip("/") + "/embed"
        self._ssl = ssl.create_default_context() if https else None
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        # Close the idle connections once the client is dropped from the cache.
        weakref.finalize(self, _close_all, self._idle)

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        if self._ssl is not None:
            return http.client.HTTPSConnection(
                self._host, self._port, timeout=self.config.timeout_s, context=self._ssl
            )
        return http.client.HTTPConnection(
            self._host, self._port, timeout=self.config.timeout_s
        )

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < self.config.max_concurrency:
                self._idle.append(conn)
                return
        conn.close()

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
        # A connection that is already open was used before; one the server
        # answered with "Connection: close" has no socket and reconnects.
        reused = conn.sock is not None
        try:
            conn.request("POST", self._path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
        except _STALE_CONNECTION:
            if not reused:
                raise
            conn.close()
            conn.request("POST", self._path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
        return response.status, response.read()

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """Status and body of one POST."""
        conn = self._checkout()
        try:
            reply = self._exchange(conn, body)
        except BaseException:
            conn.close()
            raise
        self._checkin(conn)
        return reply

    def embed_one_batch(self, texts: list[str]) -> list[np.ndarray]:
        body = json.dumps({"model": self.config.model_name, "inputs": texts}).encode()
        last_error = ""
        for attempt in range(1, _RETRY_ATTEMPTS + 1):
            try:
                status, reply = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport failure: {exc}"
            else:
                if status == 200:
                    return self._parse(reply)
                if 400 <= status < 500:
                    raise ProtocolError(
                        f"embedding service rejected the request "
                        f"(HTTP {status}): {_error_text(reply)}"
                    )
                last_error = f"HTTP {status}: {_error_text(reply)}"
            if attempt < _RETRY_ATTEMPTS:
                time.sleep(_BACKOFF_BASE_S * 2 ** (attempt - 1))
        raise TransportError(last_error, attempts=_RETRY_ATTEMPTS)

    def _parse(self, reply: bytes) -> list[np.ndarray]:
        """One checked float32 vector per row of a 200 reply."""
        try:
            embeddings = decode(reply)["embeddings"]
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
                    vector = _float32_vector(row)
            except EmbedInputError as exc:  # a JSON value other than a number
                # decode gives bool for true and false; type() keeps it out.
                bad = next(item for item in row if type(item) not in NUMBER)
                raise ProtocolError(
                    f"embedding row {i} is not numeric: found {shown(bad)}"
                ) from exc
            except OverflowError as exc:  # an integer beyond any float
                raise ProtocolError(f"embedding row {i} holds a non-finite value") from exc
            if not np.isfinite(vector).all():
                raise ProtocolError(f"embedding row {i} holds a non-finite value")
            vectors.append(vector)
        return vectors


def _error_text(reply: bytes) -> str:
    text = reply.decode("utf-8", errors="replace")[:200]
    try:
        payload = decode(reply)
    except ValueError:
        payload = None
    if isinstance(payload, dict) and isinstance(payload.get("error"), str):
        return payload["error"][:200]
    return text


@functools.lru_cache(maxsize=16)
def _client(config: ProviderConfig) -> _RemoteClient:
    """One client per distinct config, so later calls in the process reuse
    its warm connections."""
    return _RemoteClient(config)


def embed_rows(provider: ProviderConfig, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Embed texts as rows of one read-only float32 matrix: returns the rows
    of the distinct texts, in first-seen order, and each text's row number,
    so text i embeds to ``rows[row_of[i]]``. Each distinct text is embedded
    once; nothing is cached across calls."""
    if not texts:
        raise EmbedInputError("texts must be non-empty")
    for i, text in enumerate(texts):
        if not text:
            raise EmbedInputError(f"text at index {i} is empty")
    slot_of: dict[str, int] = {}
    row_of = np.fromiter(
        (slot_of.setdefault(text, len(slot_of)) for text in texts), dtype=np.intp, count=len(texts)
    )
    if provider.kind is ProviderKind.LOCAL_HASHED:
        rows = _hash_rows(list(slot_of), provider.dimension)
    else:
        rows = _remote_rows(provider, list(slot_of))
    rows.flags.writeable = False
    return rows, row_of


def embed_batch(provider: ProviderConfig, texts: list[str]) -> list[EmbeddingVector]:
    """Embed texts in order; one vector per input text. Each distinct text is
    embedded once, and its copies share that one read-only vector: a view of
    ``embed_rows``'s matrix, not a copy."""
    rows, row_of = embed_rows(provider, texts)
    vectors = list(map(EmbeddingVector._of_row, rows))
    if len(vectors) == len(texts):
        return vectors
    return [vectors[row] for row in row_of.tolist()]


def _remote_rows(provider: ProviderConfig, texts: list[str]) -> np.ndarray:
    client = _client(provider)
    batches = [
        texts[i : i + provider.batch_size]
        for i in range(0, len(texts), provider.batch_size)
    ]
    if len(batches) == 1:
        results = [client.embed_one_batch(batches[0])]
    else:
        with ThreadPoolExecutor(max_workers=provider.max_concurrency) as pool:
            results = list(pool.map(client.embed_one_batch, batches))
    for batch, vectors in zip(batches, results):
        if len(vectors) != len(batch):
            raise ProtocolError(
                f"embedding service returned {len(vectors)} vectors "
                f"for {len(batch)} inputs"
            )
    dimensions = {len(vector) for vectors in results for vector in vectors}
    if len(dimensions) > 1:
        raise ProtocolError(f"inconsistent embedding dimensions: {sorted(dimensions)}")
    # Each batch's vectors are dropped once copied, so the replies and the
    # matrix are never both held whole.
    rows = np.empty((len(texts), dimensions.pop()), dtype=np.float32)
    for i, batch in enumerate(batches):
        start = i * provider.batch_size
        rows[start : start + len(batch)] = results[i]
        results[i] = None
    return rows
