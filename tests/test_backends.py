from __future__ import annotations

import json
import math
import random
import socket
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from lexrag.backends import (
    BackendConfig,
    BackendError,
    MockEmbedder,
    MockGenerator,
    HttpBackend,
    RetryPolicy,
)

# Pinned output of MockEmbedder(dim=8) for "a"; guards cross-process stability.
FROZEN_A = [
    0.226258816573,
    -0.613330712504,
    0.225728070896,
    -0.503755992483,
    0.091208738665,
    -0.323182455177,
    0.390327774006,
    -0.052796008985,
]


def norm(vec):
    return math.sqrt(math.fsum(x * x for x in vec))


class TestMockEmbedder:
    def test_deterministic(self):
        embedder = MockEmbedder(dim=8)
        assert embedder.embed_texts(["hello"]) == embedder.embed_texts(["hello"])

    def test_pinned_value(self):
        vec = MockEmbedder(dim=8).embed_texts(["a"])[0]
        assert vec == pytest.approx(FROZEN_A, abs=1e-9)

    def test_distinct_inputs_distinct_unit_vectors(self):
        vectors = MockEmbedder(dim=8).embed_texts(["a", "b"])
        assert vectors[0] != vectors[1]
        for vec in vectors:
            assert norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_independent_of_call_order(self):
        one = MockEmbedder(dim=8)
        two = MockEmbedder(dim=8)
        one.embed_texts(["noise", "more noise"])
        assert one.embed_texts(["target"]) == two.embed_texts(["target"])

    def test_embed_tokens(self):
        vectors = MockEmbedder(dim=8).embed_tokens(["the", "cat"])
        assert len(vectors) == 2
        assert all(norm(v) == pytest.approx(1.0, abs=1e-9) for v in vectors)

    def test_identical_token_lists_identical_vectors(self):
        embedder = MockEmbedder(dim=8)
        assert embedder.embed_tokens(["x", "y"]) == embedder.embed_tokens(["x", "y"])

    def test_empty_inputs_rejected(self):
        embedder = MockEmbedder(dim=8)
        with pytest.raises(ValueError):
            embedder.embed_texts([])
        with pytest.raises(ValueError):
            embedder.embed_tokens([])

    def test_call_counter(self):
        embedder = MockEmbedder(dim=8)
        embedder.embed_texts(["a", "b"])
        embedder.embed_texts(["c"])
        assert embedder.calls == 2


class TestMockGenerator:
    def test_echoes_glossary_targets_in_order(self):
        prompt = "Intro\n\nGlossary:\nwater → ᎠᎹ\nsun → ᏅᏓ\n\nTranslate.\nthe water sun"
        result = MockGenerator().generate(prompt)
        assert result.text == "ᎠᎹ ᏅᏓ"
        assert result.model_id == "mock-gen"

    def test_no_glossary_marker(self):
        result = MockGenerator().generate("Translate.\nhello")
        assert result.text == "⟨no-entries⟩"

    def test_deterministic(self):
        prompt = "Glossary:\na → b\n\nTranslate.\na"
        assert MockGenerator().generate(prompt) == MockGenerator().generate(prompt)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves scripted status codes, records requests and peak concurrency."""

    server_version = "stub"

    def do_POST(self):
        with self.server.lock:
            self.server.in_flight += 1
            self.server.peak_in_flight = max(self.server.peak_in_flight, self.server.in_flight)
        try:
            if self.server.handler_delay:
                import time

                time.sleep(self.server.handler_delay)
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            with self.server.lock:
                self.server.requests.append(
                    {
                        "path": self.path,
                        "payload": payload,
                        "auth": self.headers.get("Authorization"),
                    }
                )
                script = self.server.script
                status = script.pop(0) if script else 200
            if status != 200:
                body = json.dumps({"error": "scripted"}).encode()
                self.send_response(status)
            else:
                body = json.dumps(self.server.respond(self.path, payload)).encode()
                self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        finally:
            with self.server.lock:
                self.server.in_flight -= 1

    def log_message(self, *args):
        pass


def _default_respond(path, payload):
    if path.endswith("/embeddings"):
        dim = 4
        return {"data": [{"embedding": [float(len(t))] + [1.0] * (dim - 1)} for t in payload["input"]]}
    return {
        "choices": [{"message": {"content": "ᎠᎹ ᎤᏓᏅᏘ  "}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.lock = threading.Lock()
    server.requests = []
    server.script = []
    server.in_flight = 0
    server.peak_in_flight = 0
    server.handler_delay = 0.0
    server.respond = _default_respond
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _config(server, **overrides) -> BackendConfig:
    host, port = server.server_address
    defaults = dict(
        base_url=f"http://{host}:{port}",
        api_key_env="LEXRAG_TEST_KEY",
        retry=RetryPolicy(max_attempts=3, initial_backoff_ms=1, multiplier=2.0),
        timeout_s=5.0,
    )
    defaults.update(overrides)
    return BackendConfig(**defaults)


class TestHttpBackend:
    def test_embeddings_round_trip(self, stub_server):
        backend = HttpBackend(_config(stub_server))
        vectors = backend.embed_texts(["ab", "xyz"])
        assert vectors == [[2.0, 1.0, 1.0, 1.0], [3.0, 1.0, 1.0, 1.0]]
        request = stub_server.requests[0]
        assert request["path"] == "/embeddings"
        assert request["payload"]["input"] == ["ab", "xyz"]

    def test_generate_returns_canned_text_rstripped(self, stub_server):
        backend = HttpBackend(_config(stub_server))
        result = backend.generate("translate this")
        assert result.text == "ᎠᎹ ᎤᏓᏅᏘ"
        assert result.model_id == backend.config.chat_model_id
        payload = stub_server.requests[0]["payload"]
        assert payload["messages"] == [{"role": "user", "content": "translate this"}]

    def test_bearer_token_from_environment(self, stub_server, monkeypatch):
        monkeypatch.setenv("LEXRAG_TEST_KEY", "sekrit")
        backend = HttpBackend(_config(stub_server))
        backend.generate("x")
        assert stub_server.requests[0]["auth"] == "Bearer sekrit"

    def test_retry_on_429_succeeds_third_attempt(self, stub_server):
        stub_server.script = [429, 429]
        backend = HttpBackend(_config(stub_server))
        assert backend.embed_texts(["q"]) == [[1.0, 1.0, 1.0, 1.0]]
        assert len(stub_server.requests) == 3

    def test_non_retryable_4xx_fails_immediately(self, stub_server):
        stub_server.script = [404]
        backend = HttpBackend(_config(stub_server))
        with pytest.raises(BackendError, match="404"):
            backend.embed_texts(["q"])
        assert len(stub_server.requests) == 1

    def test_retries_exhausted(self, stub_server):
        stub_server.script = [500, 500, 500]
        backend = HttpBackend(_config(stub_server))
        with pytest.raises(BackendError, match="after 3 attempts"):
            backend.generate("x")
        assert len(stub_server.requests) == 3

    def test_transport_error_retried_then_raised(self, stub_server):
        # close the server so connections are refused
        host, port = stub_server.server_address
        stub_server.shutdown()
        stub_server.server_close()
        backend = HttpBackend(
            BackendConfig(
                base_url=f"http://{host}:{port}",
                retry=RetryPolicy(max_attempts=2, initial_backoff_ms=1),
                timeout_s=0.5,
            )
        )
        with pytest.raises(BackendError, match="after 2 attempts"):
            backend.embed_texts(["q"])

    def test_in_flight_bounded(self, stub_server):
        stub_server.handler_delay = 0.05
        backend = HttpBackend(_config(stub_server, max_in_flight=2))
        threads = [
            threading.Thread(target=lambda: backend.embed_texts(["t"])) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(stub_server.requests) == 8
        assert stub_server.peak_in_flight <= 2

    def test_malformed_response_payload(self, stub_server):
        stub_server.respond = lambda path, payload: {"unexpected": True}
        backend = HttpBackend(_config(stub_server))
        with pytest.raises(BackendError, match="malformed"):
            backend.embed_texts(["q"])

    def test_chat_reply_usage_is_not_read(self, stub_server):
        stub_server.respond = lambda path, payload: {
            "choices": [{"message": {"content": "ᎠᎹ"}}],
            "usage": [7, 3],
        }
        assert HttpBackend(_config(stub_server)).generate("x").text == "ᎠᎹ"


def _reply(status: int, body: bytes = b"", *headers: str) -> bytes:
    head = [f"HTTP/1.1 {status} Scripted", f"Content-Length: {len(body)}", "Connection: close"]
    return ("\r\n".join([*head, *headers]) + "\r\n\r\n").encode("latin-1") + body


OK_CHAT = _reply(200, json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode())


class _RawServer:
    """A loopback server speaking raw bytes: each connection gets the next
    scripted reply, sent as is, and is then closed; a float in the script
    means wait that many seconds and close without replying.  The body of
    every request received is kept in ``bodies``."""

    def __init__(self, script) -> None:
        self.script = list(script)
        self.bodies: list[bytes] = []
        self._stop = threading.Event()
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.05)
        self.base_url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                self.bodies.append(self._read_body(conn))
                reply = self.script.pop(0) if self.script else OK_CHAT
                if isinstance(reply, float):
                    self._stop.wait(reply)
                else:
                    conn.sendall(reply)

    @staticmethod
    def _read_body(conn: socket.socket) -> bytes:
        data = b""
        while b"\r\n\r\n" not in data:
            data += conn.recv(65536)
        head, body = data.split(b"\r\n\r\n", 1)
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += conn.recv(65536)
        return body

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()


@pytest.fixture
def raw_server():
    servers: list[_RawServer] = []

    def start(*script) -> _RawServer:
        servers.append(_RawServer(script))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def _raw_backend(server: _RawServer, max_attempts: int = 2, timeout_s: float = 5.0) -> HttpBackend:
    return HttpBackend(
        BackendConfig(
            base_url=server.base_url,
            api_key_env="",
            retry=RetryPolicy(max_attempts=max_attempts, initial_backoff_ms=1),
            timeout_s=timeout_s,
        )
    )


class TestTransportContract:
    """Every way a reply can go wrong ends in ``BackendError``."""

    def test_body_cut_short_retried_then_raised(self, raw_server):
        cut = b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\nConnection: close\r\n\r\n{"choices": ['
        server = raw_server(cut, cut)
        with pytest.raises(BackendError, match="after 2 attempts"):
            _raw_backend(server).generate("x")
        assert len(server.bodies) == 2

    def test_status_line_not_http_retried_then_raised(self, raw_server):
        server = raw_server(b"SSH-2.0-OpenSSH_9.6\r\n", b"SSH-2.0-OpenSSH_9.6\r\n")
        with pytest.raises(BackendError, match="after 2 attempts"):
            _raw_backend(server).generate("x")
        assert len(server.bodies) == 2

    def test_204_raised_at_once(self, raw_server):
        server = raw_server(_reply(204))
        with pytest.raises(BackendError, match="HTTP 204"):
            _raw_backend(server).generate("x")
        assert len(server.bodies) == 1

    def test_200_not_json(self, raw_server):
        server = raw_server(_reply(200, b"<html>not json</html>"))
        with pytest.raises(BackendError, match="response is not JSON"):
            _raw_backend(server).generate("x")
        assert len(server.bodies) == 1

    def test_reply_slower_than_timeout_retried_then_raised(self, raw_server):
        server = raw_server(1.0, 1.0)
        with pytest.raises(BackendError, match="after 2 attempts"):
            _raw_backend(server, timeout_s=0.2).generate("x")

    def test_400_with_non_utf8_body_raised_at_once(self, raw_server):
        server = raw_server(_reply(400, b"\xff\xfe bad \xc3(\x80"))
        with pytest.raises(BackendError, match="HTTP 400"):
            _raw_backend(server).generate("x")
        assert len(server.bodies) == 1

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_not_followed(self, raw_server, status, monkeypatch):
        elsewhere = raw_server()
        server = raw_server(_reply(status, b"moved", f"Location: {elsewhere.base_url}/chat/completions"))
        monkeypatch.setenv("LRL_TEST_KEY", "sk-secret")
        backend = HttpBackend(
            BackendConfig(base_url=server.base_url, api_key_env="LRL_TEST_KEY", timeout_s=5.0)
        )
        with pytest.raises(BackendError, match=f"HTTP {status}"):
            backend.generate("x")
        assert len(server.bodies) == 1
        assert elsewhere.bodies == []

    @pytest.mark.parametrize("base_url", ["file:///nonexistent", "localhost:9/v1"])
    def test_url_that_is_not_http(self, base_url):
        backend = HttpBackend(
            BackendConfig(base_url=base_url, retry=RetryPolicy(max_attempts=2, initial_backoff_ms=1))
        )
        with pytest.raises(BackendError):
            backend.generate("x")

    def test_request_body_is_the_json_encoding(self, raw_server):
        server = raw_server(OK_CHAT)
        backend = _raw_backend(server)
        prompt = "ᏣᎳᎩ: water → ᎠᎹ, café"
        assert backend.generate(prompt).text == "ok"
        payload = {
            "model": backend.config.chat_model_id,
            "messages": [{"role": "user", "content": prompt}],
        }
        assert server.bodies == [json.dumps(payload).encode()]


class _TopOfRange:
    """Stands in for the backend's RNG: records each ``uniform`` draw and
    returns its upper bound."""

    def __init__(self) -> None:
        self.draws: list[tuple[float, float]] = []

    def uniform(self, low: float, high: float) -> float:
        self.draws.append((low, high))
        return high


class TestBackoff:
    @pytest.fixture
    def sleeps(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)
        return slept

    @pytest.mark.parametrize("seed", range(5))
    def test_full_jitter_within_cap(self, raw_server, sleeps, seed):
        server = raw_server(*[_reply(500)] * 5)
        backend = _raw_backend(server, max_attempts=5)
        backend._rng = random.Random(seed)
        with pytest.raises(BackendError, match="after 5 attempts"):
            backend.generate("x")
        caps = [0.001, 0.002, 0.004, 0.008]
        expected = random.Random(seed)
        assert sleeps == [expected.uniform(0.0, cap) for cap in caps]
        assert all(0.0 <= s <= cap for s, cap in zip(sleeps, caps))
        assert backend.backoff_s == pytest.approx(sum(sleeps))

    def test_retry_after_honoured_and_capped(self, raw_server, sleeps):
        server = raw_server(
            _reply(429, b"", "Retry-After: 2"),
            _reply(503, b"", "Retry-After: 120"),
            _reply(503, b"", "Retry-After: Wed, 21 Oct 2015 07:28:00 GMT"),
            _reply(500, b"", "Retry-After: 3"),
            OK_CHAT,
        )
        backend = _raw_backend(server, max_attempts=5, timeout_s=5.0)
        backend._rng = rng = _TopOfRange()
        assert backend.generate("x").text == "ok"
        # 2 s as asked; 120 s capped at timeout_s; the date form, and any
        # Retry-After on a 500, fall back to the jittered backoff.
        assert sleeps == [2.0, 5.0, 0.004, 0.008]
        assert rng.draws == [(0.0, 0.004), (0.0, 0.008)]
        assert backend.backoff_s == pytest.approx(7.012)

    @pytest.mark.parametrize("value", ["-1", "1.5", "", "soon", "²", "2, 3"])
    def test_malformed_retry_after_ignored(self, raw_server, sleeps, value):
        server = raw_server(_reply(429, b"", f"Retry-After: {value}"), OK_CHAT)
        backend = _raw_backend(server)
        backend._rng = _TopOfRange()
        backend.generate("x")
        assert sleeps == [0.001]

    def test_counters_match_request_log(self, raw_server, sleeps):
        statuses = [503, 429, 200, 500, 200, 404]
        script = [_reply(s) if s != 200 else OK_CHAT for s in statuses]
        server = raw_server(*script, *[b"not http\r\n"] * 3)
        backend = _raw_backend(server, max_attempts=3)
        backend._rng = _TopOfRange()
        assert backend.generate("a").text == "ok"
        assert backend.generate("b").text == "ok"
        with pytest.raises(BackendError, match="HTTP 404"):
            backend.generate("c")
        with pytest.raises(BackendError, match="after 3 attempts"):
            backend.generate("d")
        assert backend.calls == 4
        assert backend.attempts == len(server.bodies) == 9
        assert backend.retry_statuses == Counter({503: 1, 429: 1, 500: 1, "transport": 3})
        assert backend.backoff_s == pytest.approx(sum(sleeps))
        assert sleeps == [0.001, 0.002, 0.001, 0.001, 0.002]


def test_counters_under_concurrent_calls(stub_server):
    stub_server.script = [429, 200, 503, 200] * 30
    # Enough attempts that no call runs out, however the threads interleave.
    retry = RetryPolicy(max_attempts=61, initial_backoff_ms=0.01, multiplier=1.0)
    backend = HttpBackend(_config(stub_server, max_in_flight=8, retry=retry))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [backend.embed_texts(["t"]) for _ in range(10)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert backend.calls == 80
    assert backend.attempts == len(stub_server.requests) == 140
    assert backend.retry_statuses == Counter({429: 30, 503: 30})
