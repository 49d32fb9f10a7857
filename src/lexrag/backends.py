"""Pluggable embedding and text-generation providers.

Two families ship here: deterministic in-process mocks so the whole pipeline
can run and be tested offline, and an HTTP client speaking the common
chat-completion / embeddings wire format:

* ``POST {base_url}/embeddings`` with ``{"model": ..., "input": [texts]}``,
  answered by ``{"data": [{"embedding": [...]}, ...]}``
* ``POST {base_url}/chat/completions`` with a single user message, answered
  by ``{"choices": [{"message": {"content": ...}}]}``

The API key is read from the environment variable named in the config and is
never stored in configuration files.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from typing import Protocol, Sequence


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


class MockEmbedder:
    """Deterministic embedder: each text maps to a fixed unit vector derived
    from the SHA-256 of the text (digest seeds a PRNG that fills ``dim``
    values in [-1, 1], which are then normalized).

    Bit-identical across processes and runs; ``calls`` counts backend
    invocations so tests can assert cache hits and fallback behavior.
    """

    def __init__(self, dim: int = 8) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.embedder_id = f"mock-embed-{dim}"
        self.calls = 0
        self._lock = threading.Lock()

    def _vector(self, text: str) -> list[float]:
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        values = [rng.uniform(-1.0, 1.0) for _ in range(self.dim)]
        norm = math.sqrt(math.fsum(v * v for v in values))
        return [v / norm for v in values]

    def embed_texts(self, texts: Sequence[str]) -> list[list[float]]:
        if not texts:
            raise ValueError("embed_texts requires at least one text")
        with self._lock:
            self.calls += 1
        return [self._vector(text) for text in texts]

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


def _is_retryable_status(status: int) -> bool:
    return status == 429 or status >= 500


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Follows no redirect: a 3xx reaches the caller as an ``HTTPError``, so
    the ``Authorization`` header is never re-sent to the ``Location`` host."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


_OPENER = urllib.request.build_opener(_NoRedirect)


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
    call from multiple threads.

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

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env, "") if self.config.api_key_env else ""
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _send(self, url: str, data: bytes) -> tuple[int, bytes, str | None]:
        """One POST: the status, the body and the ``Retry-After`` header of
        whatever reply came back; transport failures raise."""
        request = urllib.request.Request(url, data=data, headers=self._headers(), method="POST")
        try:
            with _OPENER.open(request, timeout=self.config.timeout_s) as response:
                return response.status, response.read(), response.headers.get("Retry-After")
        except urllib.error.HTTPError as exc:
            with exc:
                return exc.code, exc.read(), exc.headers.get("Retry-After")

    def _post(self, endpoint: str, payload: dict) -> dict:
        url = self.config.base_url.rstrip("/") + endpoint
        if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
            raise BackendError(f"{url}: base_url must be an http:// or https:// URL")
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
                    status, body, retry_after = self._send(url, data)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                outcome: int | str = "transport"
                last_error = exc
            else:
                if status == 200:
                    try:
                        return json.loads(body)
                    except ValueError as exc:
                        raise BackendError(f"{url}: response is not JSON") from exc
                text = body.decode("utf-8", errors="replace")[:200]
                last_error = BackendError(f"{url}: HTTP {status}: {text}")
                if not _is_retryable_status(status):
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
            vectors = [list(map(float, item["embedding"])) for item in body["data"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(f"malformed embeddings response: {exc}") from exc
        if len(vectors) != len(texts):
            raise BackendError(
                f"embeddings response count {len(vectors)} != input count {len(texts)}"
            )
        dims = {len(v) for v in vectors}
        if len(dims) > 1:
            raise BackendError(f"embedding dimensions drifted within one response: {sorted(dims)}")
        return vectors

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
