"""Loopback embedding server for the ``serve`` workload.

Serves the documented remote protocol (``POST /embed`` with
``{"model", "inputs"}``, answered by ``{"embeddings": [...]}``) plus
``GET /stats`` with the request, text and busy-time counters. Vectors come
from ``stub_vectors`` below, not from ``flowrag.embed``, so a change to the
package's embedder cannot change what the server costs or returns.

Each response goes out in a single write: headers written apart from the
body meet Nagle's algorithm and the client's delayed ACK, which adds tens of
milliseconds per request.

Run: ``python3 perfbench/stub.py``; it prints ``PORT <n>``
on stdout once it listens on 127.0.0.1 and serves until terminated.
"""
from __future__ import annotations

import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

_TOKEN_RE = re.compile(r"[0-9a-z]+")
# Width of the vectors the stub serves; the serve workload's provider config
# declares the same.
DIMENSION = 256


class StubVectors:
    """Sum of per-token Gaussian vectors, L2-normalized, as float32.

    Token vectors are seeded from a keyed hash of the token, so the same
    text always gets the same vector and distinct texts almost never tie.
    """

    def __init__(self):
        self._tokens: dict[str, np.ndarray] = {}

    def _token(self, token: str) -> np.ndarray:
        vec = self._tokens.get(token)
        if vec is None:
            seed = int.from_bytes(
                hashlib.blake2b(token.encode(), key=b"perfbench", digest_size=8).digest(),
                "little",
            )
            vec = np.random.default_rng(seed).standard_normal(DIMENSION)
            self._tokens[token] = vec
        return vec

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), DIMENSION), dtype=np.float32)
        for i, text in enumerate(texts):
            acc = np.zeros(DIMENSION)
            for token in _TOKEN_RE.findall(text.casefold()):
                acc += self._token(token)
            norm = np.linalg.norm(acc)
            if norm > 0:
                out[i] = acc / norm
        return out


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.texts = 0
        self.busy_s = 0.0

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "texts": self.texts, "busy_s": self.busy_s}


def make_handler(vectors: StubVectors, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _reply(self, status: int, body: bytes) -> None:
            head = (
                f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, b'{"error": "not found"}')
                return
            self._reply(200, json.dumps(counters.snapshot()).encode())

        def do_POST(self):
            started = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path != "/embed":
                self._reply(404, b'{"error": "not found"}')
                return
            try:
                inputs = json.loads(body)["inputs"]
            except (ValueError, KeyError, TypeError) as exc:
                self._reply(400, json.dumps({"error": str(exc)}).encode())
                return
            # Two handler threads may fill the token cache at once; both
            # compute the same vector, so the race is harmless.
            rows = vectors.embed(inputs).tolist()
            self._reply(200, json.dumps({"embeddings": rows}).encode())
            with counters.lock:
                counters.requests += 1
                counters.texts += len(inputs)
                counters.busy_s += time.perf_counter() - started

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    counters = Counters()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(StubVectors(), counters))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
