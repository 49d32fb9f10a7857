"""Pluggable embedding and text-generation providers.

Two families ship here: deterministic in-process mocks so the whole pipeline
can run and be tested offline, and an HTTP client speaking the common
chat-completion / embeddings wire format:

* ``POST {base_url}/embeddings`` with ``{"model": ..., "input": [texts]}``,
  answered by ``{"data": [{"embedding": [...]}, ...]}``
* ``POST {base_url}/chat/completions`` with a single user message, answered
  by ``{"choices": [{"message": {"content": ...}}]}``

The HTTP client fixes its route to ``base_url`` when it is built and sends
each request through ``http.client`` on a connection of its own, closed
after the reply.  The API key is read from the environment variable named
in the config and is never stored in configuration files.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import math
import os
import random
import re
import threading
import time
import urllib.parse
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np


class BackendError(Exception):
    """Transport or provider failure, raised after retries are exhausted."""


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    initial_backoff_ms: float = 100.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not (self.initial_backoff_ms >= 0 and self.multiplier >= 0):
            raise ValueError("initial_backoff_ms and multiplier must be >= 0")


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = "https://api.openai.com/v1"
    api_key_env: str = "LRL_API_KEY"
    embed_model_id: str = "text-embedding-ada-002"
    chat_model_id: str = "gpt-4o"
    max_in_flight: int = 4
    timeout_s: float = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be > 0")


@dataclass(frozen=True)
class GenerationResult:
    text: str
    model_id: str


class Embedder(Protocol):
    embedder_id: str

    def embed_texts(self, texts: Sequence[str]) -> list[list[float]]: ...

    def embed_tokens(self, tokens: Sequence[str]) -> list[list[float]]: ...


class Generator(Protocol):
    model_id: str

    def generate(self, prompt: str) -> GenerationResult: ...


MAX_MOCK_DIM = 65536  # far above the few thousand dimensions of real embedding models


class MockEmbedder:
    """Deterministic embedder: each text maps to a fixed unit vector derived
    from the SHA-256 of the text (digest seeds a Mersenne Twister; one
    ``getrandbits`` draw per text holds the bits of ``dim`` per-value
    ``uniform(-1, 1)`` calls, then fsum-normalized); seeding is the cost floor.

    Bit-identical across processes and runs; ``calls`` counts backend
    invocations so tests can assert cache hits and fallback behavior.
    """

    def __init__(self, dim: int = 8) -> None:
        if not 1 <= dim <= MAX_MOCK_DIM:
            raise ValueError(f"dim must be >= 1 and <= {MAX_MOCK_DIM}")
        self.dim = dim
        self.embedder_id = f"mock-embed-{dim}"
        self.calls = 0
        self._lock = threading.Lock()
        self._rng = random.Random(0)  # reseeded per text; a fixed seed reads no entropy

    def embed_texts(self, texts: Sequence[str]) -> list[list[float]]:
        if not texts:
            raise ValueError("embed_texts requires at least one text")
        keys = [int.from_bytes(hashlib.sha256(t.encode("utf-8")).digest(), "big") for t in texts]
        bits = bytearray()
        with self._lock:  # guards the shared twister between its seed and its draw
            self.calls += 1
            for key in keys:
                self._rng.seed(key)
                bits += self._rng.getrandbits(64 * self.dim).to_bytes(8 * self.dim, "little")
        words = np.frombuffer(bits, dtype="<u4").reshape(len(texts), self.dim, 2)
        a, b = words[..., 0] >> 5, words[..., 1] >> 6  # CPython's random(), then uniform(-1, 1)
        values = -1.0 + 2.0 * ((a * 67108864.0 + b) / 9007199254740992.0)
        norms = [math.sqrt(math.fsum(row)) for row in (values * values).tolist()]
        return (values / np.array(norms)[:, None]).tolist()

    def embed_tokens(self, tokens: Sequence[str]) -> list[list[float]]:
        if not tokens:
            raise ValueError("embed_tokens requires at least one token")
        return self.embed_texts(tokens)


EMPTY_GLOSSARY_OUTPUT = "⟨no-entries⟩"
GLOSSARY_SEPARATOR = " → "


class MockGenerator:
    """Deterministic generator for end-to-end tests: echoes, in order, every
    target string found on the prompt's glossary lines (the lines using the
    ``headword → target`` separator), or a fixed marker when there are none.
    This lets tests distinguish "retrieval reached the prompt" from
    "retrieval silently empty".
    """

    def __init__(self, model_id: str = "mock-gen") -> None:
        self.model_id = model_id
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, prompt: str) -> GenerationResult:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        with self._lock:
            self.calls += 1
        targets = [
            line.split(GLOSSARY_SEPARATOR, 1)[1]
            for line in prompt.split("\n")
            if GLOSSARY_SEPARATOR in line
        ]
        text = " ".join(targets) if targets else EMPTY_GLOSSARY_OUTPUT
        return GenerationResult(text=text, model_id=self.model_id)


def _route(base_url: str) -> tuple | None:
    """How every request to ``base_url`` travels: the ``http.client``
    connection class, the host to connect to, the host to tunnel to with
    ``CONNECT`` (or ``None``), the request-target prefix and the proxy's
    headers.  The proxy is the one urllib's ``ProxyHandler`` would use
    (``HTTP_PROXY``/``HTTPS_PROXY``, unless ``NO_PROXY`` names the host),
    with ``Proxy-Authorization`` when its URL has a user and a password.
    ``None`` when ``base_url`` is not ``http(s)://`` with a host, a numeric
    port and no user info: a user in the host would only fail to resolve."""
    try:
        url = urllib.parse.urlsplit(base_url.rstrip("/"))
        url.port  # raises ValueError unless the port is a number in range
    except ValueError:
        return None
    if url.scheme not in ("http", "https") or not url.hostname or "@" in url.netloc:
        return None
    host = urllib.parse.unquote(url.netloc)
    prefix = urllib.parse.urlunsplit(("", "", url.path, url.query, ""))
    connection = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
    proxy = urllib.request.getproxies().get(url.scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        return connection, host, None, prefix, {}
    scheme, sep, rest = proxy.partition("://")
    authority = rest.split("/", 1)[0] if sep else proxy
    userinfo, _, proxy_host = authority.rpartition("@")
    user, _, password = userinfo.partition(":")
    headers = {}
    if user and password:
        credentials = f"{urllib.parse.unquote(user)}:{urllib.parse.unquote(password)}"
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode()).decode()
    proxy_host = urllib.parse.unquote(proxy_host)
    if url.scheme == "https":  # CONNECT, then TLS to the host
        return connection, proxy_host, host, prefix, headers
    if sep and scheme == "https":  # TLS to the proxy itself
        connection = http.client.HTTPSConnection
    absolute = urllib.parse.urlunsplit(url._replace(fragment=""))  # the form a proxy takes
    return connection, proxy_host, None, absolute, headers


class HttpBackend:
    """Chat-completion / embeddings client with bounded concurrency and
    exponential-backoff retries.

    Retries cover transport errors and HTTP 429/5xx only; any other status,
    2xx other than 200 and every 3xx included, fails immediately: redirects
    are not followed.  Before a retry the client sleeps a "full jitter"
    delay, uniform in ``[0, backoff]``, where ``backoff`` starts at
    ``initial_backoff_ms`` and grows by ``multiplier``; a 429 or 503 carrying
    ``Retry-After`` in seconds sleeps that long instead, capped at
    ``timeout_s``.  At most ``max_in_flight`` requests are on the
    wire at any moment, enforced with a semaphore, so the client is safe to
    call from multiple threads.  Each request opens an ``http.client``
    connection and closes it after the reply.  The route, with the proxy of
    ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY``, is fixed when the client
    is built; a ``base_url`` that has none fails each call before any attempt.

    Counters: ``calls`` (logical requests), ``attempts`` (requests sent),
    ``retry_statuses`` (attempts that failed in a retryable way, by HTTP
    status or ``"transport"``) and ``backoff_s`` (total seconds slept).
    """

    def __init__(self, config: BackendConfig) -> None:
        self.config = config
        self.embedder_id = config.embed_model_id
        self.model_id = config.chat_model_id
        self.calls = 0
        self.attempts = 0
        self.retry_statuses: Counter[int | str] = Counter()
        self.backoff_s = 0.0
        self._rng = random.Random()
        self._lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(config.max_in_flight)
        self._route = _route(config.base_url)

    def _send(self, endpoint: str, data: bytes) -> tuple[int, bytes, str | None]:
        """One POST on a new connection along the route: the status, the body
        and the ``Retry-After`` header of whatever reply came back
        (``http.client`` follows no redirect, so ``Authorization`` never
        reaches a ``Location`` host); transport failures raise."""
        connection, host, tunnel, prefix, proxy_headers = self._route
        headers = {"Content-Type": "application/json", "Connection": "close"}
        key = os.environ.get(self.config.api_key_env, "") if self.config.api_key_env else ""
        if key:
            headers["Authorization"] = f"Bearer {key}"
        conn = connection(host, timeout=self.config.timeout_s)
        if tunnel is None:
            headers.update(proxy_headers)
        else:
            conn.set_tunnel(tunnel, headers=proxy_headers)
        try:
            conn.request("POST", prefix + endpoint, data, headers)
            with conn.getresponse() as response:
                return response.status, response.read(), response.headers.get("Retry-After")
        finally:
            conn.close()

    def _post(self, endpoint: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + endpoint
        if self._route is None:
            shown = re.sub(r"//[^/?#]*@", "//***@", url)  # the user info may hold a password
            raise BackendError(
                f"{shown}: base_url must be an http:// or https:// URL with a host, a valid port "
                "and no user info"
            )
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        retry = self.config.retry
        ceiling_s = retry.initial_backoff_ms / 1000.0
        last_error: Exception | None = None
        with self._lock:
            self.calls += 1
        for attempt in range(1, retry.max_attempts + 1):
            with self._lock:
                self.attempts += 1
            try:
                with self._slots:
                    status, body, retry_after = self._send(endpoint, data)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                outcome: int | str = "transport"
                last_error = exc
            else:
                if status == 200:
                    try:
                        return json.loads(body)
                    except (ValueError, RecursionError) as exc:
                        raise BackendError(f"{url}: response is not JSON") from exc
                text = body.decode("utf-8", errors="replace")[:200]
                last_error = BackendError(f"{url}: HTTP {status}: {text}")
                if status != 429 and status < 500:
                    raise last_error
                outcome = status
            delay_s = 0.0
            if attempt < retry.max_attempts:
                # Only the seconds form counts; an HTTP-date gets the backoff.
                seconds = (retry_after or "").strip() if outcome in (429, 503) else ""
                if seconds.isascii() and seconds.isdigit():
                    delay_s = min(float(seconds), self.config.timeout_s)
                else:
                    delay_s = self._rng.uniform(0.0, ceiling_s)
                ceiling_s *= retry.multiplier
            with self._lock:
                self.retry_statuses[outcome] += 1
                self.backoff_s += delay_s
            if delay_s:
                time.sleep(delay_s)
        raise BackendError(
            f"{url}: failed after {retry.max_attempts} attempts: {last_error}"
        ) from last_error

    def embed_texts(self, texts: Sequence[str]) -> list[list[float]]:
        if not texts:
            raise ValueError("embed_texts requires at least one text")
        payload = {"model": self.config.embed_model_id, "input": list(texts)}
        body = self._post("/embeddings", payload)
        try:
            vectors = [item["embedding"] for item in body["data"]]
            for vector in vectors:
                if type(vector) is not list or not set(map(type, vector)) <= {int, float}:
                    raise ValueError("embedding must be a list of numbers")
            return [list(map(float, vector)) for vector in vectors]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BackendError(f"malformed embeddings response: {exc}") from exc

    def embed_tokens(self, tokens: Sequence[str]) -> list[list[float]]:
        if not tokens:
            raise ValueError("embed_tokens requires at least one token")
        return self.embed_texts(tokens)

    def generate(self, prompt: str) -> GenerationResult:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        payload = {
            "model": self.config.chat_model_id,
            "messages": [{"role": "user", "content": prompt}],
        }
        body = self._post("/chat/completions", payload)
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat response: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError("malformed chat response: content is not a string")
        return GenerationResult(text=text.rstrip(), model_id=self.config.chat_model_id)
