import json
import math
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import flowrag.embed as embed_module
from flowrag.embed import (
    EmbedInputError,
    EmbeddingVector,
    ProtocolError,
    ProviderConfig,
    ProviderKind,
    TransportError,
    embed_batch,
)

from helpers import StubEmbedServer, stub_vector


LOCAL64 = ProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=64)
LOCAL256 = ProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=256)


@pytest.fixture
def fast_backoff(monkeypatch):
    monkeypatch.setattr(embed_module, "_BACKOFF_BASE_S", 0.001)


def remote_config(endpoint: str, **kwargs) -> ProviderConfig:
    defaults = dict(
        kind=ProviderKind.REMOTE,
        endpoint=endpoint,
        model_name="stub-model",
        timeout_s=5.0,
        batch_size=4,
    )
    defaults.update(kwargs)
    return ProviderConfig(**defaults)


class TestLocalHashed:
    def test_identical_texts_identical_vectors(self):
        a, b = embed_batch(LOCAL64, ["alarm", "alarm"])
        assert a == b

    def test_distinct_texts_differ(self):
        a, b = embed_batch(LOCAL64, ["alarm", "handover"])
        assert np.dot(a.as_array(), b.as_array()) < 1.0

    def test_vectors_are_normalized(self):
        vectors = embed_batch(LOCAL256, ["send alarm to node", "reset power supply"])
        for vector in vectors:
            norm = math.sqrt(sum(v * v for v in vector.values))
            assert abs(norm - 1.0) <= 1e-4

    def test_related_texts_score_higher(self):
        query, close, far = embed_batch(
            LOCAL256,
            ["send alarm to node", "alarm sent to the node", "reset power supply"],
        )
        q = query.as_array()
        assert np.dot(q, close.as_array()) > np.dot(q, far.as_array())

    def test_stateless_concatenation(self):
        xs = ["check alarm", "handover now"]
        ys = ["stop", "retry attach"]
        combined = embed_batch(LOCAL64, xs + ys)
        assert combined == embed_batch(LOCAL64, xs) + embed_batch(LOCAL64, ys)

    def test_dimension_respected(self):
        (vector,) = embed_batch(LOCAL64, ["alarm"])
        assert vector.dimension == 64

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmbedInputError):
            embed_batch(LOCAL64, [])
        with pytest.raises(EmbedInputError):
            embed_batch(LOCAL64, ["ok", ""])

    def test_tokenless_text_gives_zero_vector(self):
        (vector,) = embed_batch(LOCAL64, ["!!!"])
        assert all(v == 0.0 for v in vector.values)


class TestEmbeddingVector:
    def test_values_quantized_to_float32(self):
        vector = EmbeddingVector(values=(0.1, 1 / 3))
        assert vector.values == (float(np.float32(0.1)), float(np.float32(1 / 3)))
        assert all(type(v) is float for v in vector.values)
        assert vector.as_array().dtype == np.float32

    def test_array_is_read_only(self):
        vector = EmbeddingVector(values=(1.0, 2.0))
        with pytest.raises(ValueError):
            vector.as_array()[0] = 5.0

    def test_source_copied(self):
        source = np.array([1.0, 2.0], dtype=np.float32)
        vector = EmbeddingVector(source)
        source[0] = 9.0
        assert vector.values == (1.0, 2.0)

    def test_equality_and_hash(self):
        a = EmbeddingVector(values=(0.0, 1.0))
        b = EmbeddingVector(np.array([-0.0, 1.0]))
        assert a == b and hash(a) == hash(b)
        assert a != EmbeddingVector(values=(0.0, 1.0, 0.0))
        assert a != EmbeddingVector(values=(1.0, 0.0))
        assert len({a, b}) == 1

    def test_nested_values_rejected(self):
        with pytest.raises(EmbedInputError):
            EmbeddingVector([[1.0, 2.0]])

    @pytest.mark.parametrize(
        "values",
        [
            ("0.5", True, 2),
            [None, 1.0],
            [b"1", 2.0],
            [1.0, True],
            [np.True_, 1.0],
            np.array([True, False]),
            np.array(["1", "2"]),
            np.array([1.0, 2.0], dtype=object),
            1.0,
        ],
        ids=["str", "none", "bytes", "bool", "numpy-bool", "bool-array", "str-array",
             "object-array", "scalar"],
    )
    def test_non_numeric_values_rejected(self, values):
        with pytest.raises(EmbedInputError):
            EmbeddingVector(values)

    @pytest.mark.parametrize(
        "values",
        [
            (1, 2.5),
            (np.float32(1.0), np.float32(2.5)),
            [np.int64(1), np.float64(2.5)],
            np.array([1.0, 2.5]),
            np.array([1.0, 2.5], dtype=np.float16),
            np.array([1, 2], dtype=np.int8),
        ],
        ids=["python", "float32-scalars", "numpy-scalars", "float64-array", "float16-array",
             "int-array"],
    )
    def test_numeric_values_accepted(self, values):
        assert EmbeddingVector(values).values == tuple(float(np.float32(v)) for v in values)

    def test_two_dimensional_array_rejected(self):
        with pytest.raises(EmbedInputError, match=r"expected a flat vector, got shape \(2, 2\)"):
            EmbeddingVector(np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestRemote:
    def test_order_preserved_and_batches_split(self):
        texts = [f"text number {i}" for i in range(10)]
        with StubEmbedServer(dimension=8) as server:
            vectors = embed_batch(remote_config(server.endpoint, batch_size=4), texts)
        assert [v.values for v in vectors] == [
            EmbeddingVector(values=tuple(stub_vector(t, 8))).values for t in texts
        ]
        batch_sizes = [len(r["inputs"]) for r in server.requests]
        assert sorted(batch_sizes, reverse=True) == [4, 4, 2]
        served = [t for r in server.requests for t in r["inputs"]]
        assert sorted(served) == sorted(texts)

    def test_model_name_sent(self):
        with StubEmbedServer() as server:
            embed_batch(remote_config(server.endpoint), ["hello"])
            assert server.requests[0]["model"] == "stub-model"

    def test_retry_on_5xx_then_success(self, fast_backoff):
        with StubEmbedServer(status_plan=[500]) as server:
            vectors = embed_batch(remote_config(server.endpoint), ["hello"])
            assert len(server.requests) == 2
        assert vectors[0].dimension == 8

    def test_no_retry_on_4xx(self, fast_backoff):
        with StubEmbedServer(status_plan=[400]) as server:
            with pytest.raises(ProtocolError):
                embed_batch(remote_config(server.endpoint), ["hello"])
            assert len(server.requests) == 1

    def test_transport_error_after_retries(self, fast_backoff):
        with StubEmbedServer(status_plan=[500, 502, 503]) as server:
            with pytest.raises(TransportError) as excinfo:
                embed_batch(remote_config(server.endpoint), ["hello"])
            assert len(server.requests) == 3
        assert excinfo.value.attempts == 3

    def test_connection_refused_is_transport_error(self, fast_backoff):
        config = remote_config("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(TransportError):
            embed_batch(config, ["hello"])

    def test_short_response_is_protocol_error(self, fast_backoff):
        with StubEmbedServer(dimension=4, truncate=True) as server:
            with pytest.raises(ProtocolError):
                embed_batch(remote_config(server.endpoint), ["a", "b"])

    def test_ragged_dimensions_are_protocol_error(self, fast_backoff):
        with StubEmbedServer(dimension=4, ragged=True) as server:
            with pytest.raises(ProtocolError):
                embed_batch(remote_config(server.endpoint), ["a", "b"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1e39, None])
    def test_non_finite_row_is_protocol_error(self, bad):
        client = embed_module._RemoteClient(remote_config("http://127.0.0.1:1"))
        with pytest.raises(ProtocolError) as excinfo:
            client._parse(json.dumps({"embeddings": [[0.5, 0.5], [0.1, bad]]}).encode())
        assert "row 1" in str(excinfo.value)

    @pytest.mark.parametrize(
        "row",
        [["a", 1.0], [[1.0], [2.0]], [{"x": 1}], ["0.5", "0.25"], [True, False], [0.5, True]],
    )
    def test_non_numeric_row_is_protocol_error(self, row):
        client = embed_module._RemoteClient(remote_config("http://127.0.0.1:1"))
        with pytest.raises(ProtocolError):
            client._parse(json.dumps({"embeddings": [row]}).encode())

    def test_integer_beyond_float_range_is_protocol_error(self):
        client = embed_module._RemoteClient(remote_config("http://127.0.0.1:1"))
        with pytest.raises(ProtocolError, match="row 1 holds a non-finite value"):
            client._parse(b'{"embeddings": [[0.5], [1' + b"0" * 400 + b"]]}")

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"not json", "malformed embedding response"),
            (b'{"embeddings": {}}', "embeddings must be an array of rows"),
            (b'{"embeddings": [[]]}', "embedding rows must be non-empty arrays"),
        ],
    )
    def test_malformed_200_body_is_protocol_error(self, body, message):
        client = embed_module._RemoteClient(remote_config("http://127.0.0.1:1"))
        with pytest.raises(ProtocolError, match=message):
            client._parse(body)

    def test_deeply_nested_reply_is_protocol_error(self):
        deep = b'{"embeddings": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"
        client = embed_module._RemoteClient(remote_config("http://127.0.0.1:1"))
        with pytest.raises(ProtocolError, match="malformed embedding response"):
            client._parse(deep)
        assert embed_module._error_text(deep) == deep[:200].decode()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind=ProviderKind.REMOTE, endpoint="", model_name="m")
        with pytest.raises(ValueError):
            ProviderConfig(kind=ProviderKind.LOCAL_HASHED, dimension=0)
        with pytest.raises(ValueError):
            ProviderConfig(
                kind=ProviderKind.REMOTE,
                endpoint="http://x",
                model_name="m",
                batch_size=0,
            )

    def test_from_dict(self):
        config = ProviderConfig.from_dict(
            {"kind": "remote", "endpoint": "http://x", "model_name": "m", "batch_size": 9}
        )
        assert config.kind is ProviderKind.REMOTE
        assert config.batch_size == 9
        local = ProviderConfig.from_dict({"kind": "local-hashed", "dimension": 32})
        assert local.dimension == 32


class TestDuplicateTexts:
    TEXTS = ["beta", "alpha", "beta", "gamma", "alpha", "alpha", "delta"]

    def test_remote_sends_each_distinct_text_once(self):
        with StubEmbedServer(dimension=8) as server:
            config = remote_config(server.endpoint, batch_size=2)
            vectors = embed_batch(config, self.TEXTS)
        assert [v.values for v in vectors] == [
            EmbeddingVector(stub_vector(t, 8)).values for t in self.TEXTS
        ]
        served = [t for r in server.requests for t in r["inputs"]]
        assert sorted(served) == ["alpha", "beta", "delta", "gamma"]
        assert len(server.requests) == 2
        assert vectors[0] is vectors[2] and vectors[1] is vectors[4] is vectors[5]

    def test_local_copies_share_one_vector(self):
        vectors = embed_batch(LOCAL64, self.TEXTS)
        assert vectors[0] is vectors[2] and vectors[1] is vectors[4] is vectors[5]
        assert vectors[0] is not vectors[1]

    def test_local_hashes_each_token_once_per_call(self, monkeypatch):
        calls = []
        token_hash = embed_module._token_hash

        def counting(token, key):
            calls.append((token, key))
            return token_hash(token, key)

        monkeypatch.setattr(embed_module, "_token_hash", counting)
        embed_batch(LOCAL64, ["send alarm", "alarm to node", "send alarm", "node node"])
        assert sorted(calls) == sorted(
            (token, key) for token in ("send", "alarm", "to", "node")
            for key in (b"bucket", b"sign")
        )

    def test_local_bytes_match_embedding_each_text_alone(self):
        # Pin of unchanged output: sharing the token table across the texts
        # of one call must not change any vector's bytes.
        texts = self.TEXTS + ["Alarm, BETA; gamma?", "send alarm to node 7", "!!!"]
        together = embed_batch(LOCAL256, texts)
        alone = [embed_batch(LOCAL256, [text])[0] for text in texts]
        assert [v.as_array().tobytes() for v in together] == [
            v.as_array().tobytes() for v in alone
        ]


class TestErrorText:
    def test_error_field_of_an_object(self):
        assert embed_module._error_text(b'{"error": "overloaded"}') == "overloaded"

    def test_error_field_is_cut_like_the_raw_body(self):
        body = json.dumps({"error": "x" * 100_000}).encode()
        assert embed_module._error_text(body) == "x" * 200

    @pytest.mark.parametrize("error", [5, None, ["busy"], {"deep": "x" * 1000}])
    def test_error_field_that_is_not_a_string_gives_the_raw_text(self, error):
        body = json.dumps({"error": error}).encode()
        assert embed_module._error_text(body) == body[:200].decode()

    def test_non_json_body_is_raw_text(self):
        assert embed_module._error_text(b"upstream exploded") == "upstream exploded"

    @pytest.mark.parametrize("payload", [[1], "busy", 3, None, {"detail": "x"}])
    def test_other_json_falls_back_to_raw_text(self, payload):
        body = json.dumps(payload)
        assert embed_module._error_text(body.encode()) == body

    @pytest.mark.parametrize("body", [b"[1]", b'"busy"'])
    def test_5xx_with_non_object_body_is_retried(self, fast_backoff, body):
        with StubEmbedServer(status_plan=[500], error_body=body) as server:
            (vector,) = embed_batch(remote_config(server.endpoint), ["hello"])
            assert len(server.requests) == 2
        assert vector.values == EmbeddingVector(stub_vector("hello", 8)).values

    def test_non_object_body_named_in_transport_error(self, fast_backoff):
        with StubEmbedServer(status_plan=[503, 503, 503], error_body=b"[1]") as server:
            with pytest.raises(TransportError, match=r"HTTP 503: \[1\]"):
                embed_batch(remote_config(server.endpoint), ["hello"])


REMOTE = dict(kind=ProviderKind.REMOTE, endpoint="http://x", model_name="m")


class TestProviderConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dimension", "256"),
            ("dimension", 0),
            ("dimension", True),
            ("dimension", 2.0),
            ("batch_size", True),
            ("batch_size", 0),
            ("max_concurrency", 0),
            ("max_concurrency", -1),
            ("max_concurrency", False),
            ("timeout_s", 0),
            ("timeout_s", -1.0),
            ("timeout_s", float("nan")),
            ("timeout_s", float("inf")),
            ("timeout_s", True),
            ("timeout_s", "10"),
            ("endpoint", "localhost:8080"),
            ("endpoint", "ftp://x"),
            ("endpoint", "http://"),
            ("endpoint", "http://x:port"),
            ("endpoint", "http://user:pw@x"),
            ("endpoint", "http://x/?key=1"),
            ("endpoint", "http://" + "a" * 64 + ".example.com:9/"),
            ("endpoint", "http://a..b:9/"),
            ("endpoint", "http://exa mple.com:9/"),
            ("endpoint", 8080),
            ("model_name", 5),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            ProviderConfig(**{**REMOTE, field: value})
        with pytest.raises(ValueError):
            ProviderConfig.from_dict({**REMOTE, "kind": "remote", field: value})

    def test_string_kind_rejected(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="remote", endpoint="http://x", model_name="m")

    @pytest.mark.parametrize("data", [[1], "remote", None, 3])
    def test_from_dict_rejects_non_mapping(self, data):
        with pytest.raises(ValueError):
            ProviderConfig.from_dict(data)

    @pytest.mark.parametrize(
        "endpoint", ["http://x", "https://x:8443", "http://127.0.0.1:1/api/", "http://[::1]:80"]
    )
    def test_valid_endpoints_accepted(self, endpoint):
        config = ProviderConfig(**{**REMOTE, "endpoint": endpoint, "timeout_s": 5})
        assert config.endpoint == endpoint

    @pytest.mark.parametrize(
        "endpoint, host, port",
        [("http://[::1]", "::1", 80), ("https://[::1]", "::1", 443), ("http://x:81/a/", "x", 81)],
    )
    def test_client_connects_to_endpoint_host_and_port(self, endpoint, host, port):
        conn = embed_module._RemoteClient(remote_config(endpoint))._checkout()
        assert (conn.host, conn.port) == (host, port)

    def test_local_provider_ignores_endpoint(self):
        config = ProviderConfig(kind=ProviderKind.LOCAL_HASHED, endpoint="localhost:8080")
        assert config.describe() == "local-hashed(dim=256)"


class TestKeepAlive:
    @pytest.fixture(autouse=True)
    def fresh_clients(self):
        embed_module._client.cache_clear()
        yield
        embed_module._client.cache_clear()

    def test_sequential_calls_share_one_connection(self):
        with StubEmbedServer(keep_alive=True) as server:
            config = remote_config(server.endpoint)
            for i in range(20):
                (vector,) = embed_batch(config, [f"question {i}"])
                assert vector.values == EmbeddingVector(stub_vector(f"question {i}", 8)).values
            assert len(server.requests) == 20
            assert server.connections == 1

    def test_concurrent_batches_reuse_at_most_max_concurrency(self):
        texts = [f"text number {i}" for i in range(40)]
        with StubEmbedServer(keep_alive=True) as server:
            config = remote_config(server.endpoint, batch_size=2, max_concurrency=3)
            for _ in range(3):
                vectors = embed_batch(config, texts)
            assert [v.values for v in vectors] == [
                EmbeddingVector(stub_vector(t, 8)).values for t in texts
            ]
            assert len(server.requests) == 60
            assert server.connections <= 3

    def test_threads_sharing_a_client(self):
        texts = [f"text number {i}" for i in range(12)]
        expected = [EmbeddingVector(stub_vector(t, 8)).values for t in texts]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with StubEmbedServer(keep_alive=True) as server:
                config = remote_config(server.endpoint, batch_size=3, max_concurrency=2)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(embed_batch, config, texts) for _ in range(16)]
                    results = [f.result(timeout=60) for f in futures]
                assert len(server.requests) == 16 * 4
                assert len(embed_module._client(config)._idle) <= 2
        finally:
            sys.setswitchinterval(old_interval)
        assert all([v.values for v in vectors] == expected for vectors in results)

    def test_connection_per_call_when_server_closes(self):
        with StubEmbedServer() as server:
            config = remote_config(server.endpoint)
            for i in range(3):
                embed_batch(config, [f"question {i}"])
            assert server.connections == 3

    def test_dropped_idle_connection_is_replaced_without_retry(self, monkeypatch):
        with StubEmbedServer(keep_alive=True) as server:
            config = remote_config(server.endpoint)
            embed_batch(config, ["first"])
            server.drop_connections()

            def no_sleep(seconds):
                raise AssertionError(f"backoff of {seconds} s: the re-send counted as an attempt")

            monkeypatch.setattr(embed_module.time, "sleep", no_sleep)
            (vector,) = embed_batch(config, ["second"])
            assert [r["inputs"] for r in server.requests] == [["first"], ["second"]]
            assert server.connections == 2
        assert vector.values == EmbeddingVector(stub_vector("second", 8)).values

    def test_runs_without_requests_installed(self):
        with StubEmbedServer(keep_alive=True) as server:
            script = textwrap.dedent(
                f"""
                import json, sys
                sys.modules["requests"] = None
                import flowrag
                import flowrag.cli
                from flowrag.embed import ProviderConfig, ProviderKind, embed_batch
                config = ProviderConfig(
                    kind=ProviderKind.REMOTE, endpoint={server.endpoint!r},
                    model_name="m", dimension=8,
                )
                vectors = embed_batch(config, ["alpha", "beta"])
                print(json.dumps([list(v.values) for v in vectors]))
                """
            )
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
            )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [
            list(EmbeddingVector(stub_vector(t, 8)).values) for t in ("alpha", "beta")
        ]
