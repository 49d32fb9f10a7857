"""Loopback stand-in for an embeddings / chat-completions provider.

The stub answers ``POST /embeddings`` and ``POST /chat/completions`` from
lexrag's own mock backends, so replies over HTTP equal what the in-process
mocks return.  It is single-threaded and speaks HTTP/1.0, closing the
connection after every reply: ``HttpBackend`` opens a new connection per
request (``requests.post`` without a session), and a single-threaded
keep-alive server would sit on the previous connection until the client
timed out.

A seeded share of requests is answered with a retryable 429 or 503.  At
most one request in any two consecutive ones is injected, so with a single
client every call succeeds within its second attempt.
"""

from __future__ import annotations

import json
import random
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from lexrag.backends import MockEmbedder, MockGenerator

INJECT_EVERY = 100  # one injected failure per block of this many requests
RETRYABLE = (429, 503)


class InjectionSchedule:
    """Status to send for the n-th request (0-based): 200, or one injected
    429/503 at a seeded offset inside each block of ``INJECT_EVERY``."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"stub:{seed}")
        self._blocks: list[tuple[int, int]] = []

    def status(self, n: int) -> int:
        block, offset = divmod(n, INJECT_EVERY)
        while len(self._blocks) <= block:
            # Offsets 1..INJECT_EVERY-2 keep injections of adjacent blocks apart.
            self._blocks.append(
                (self._rng.randint(1, INJECT_EVERY - 2), self._rng.choice(RETRYABLE))
            )
        at, status = self._blocks[block]
        return status if offset == at else 200


class _Server(HTTPServer):
    def server_bind(self) -> None:
        # HTTPServer.server_bind resolves the host name; a loopback stub has
        # no use for it, so bind without any name lookup.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]


class StubServer:
    """Run the stub on 127.0.0.1 in one background thread.  Use as a
    context manager; ``close`` stops and joins the thread."""

    def __init__(self, seed: int, dim: int) -> None:
        self.schedule = InjectionSchedule(seed)
        self.requests = {"/embeddings": 0, "/chat/completions": 0}
        self.injected = 0
        self.busy_s = 0.0
        self.statuses: list[int] = []
        embedder, generator = MockEmbedder(dim), MockGenerator()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.0"

            def do_POST(self) -> None:  # noqa: N802 (http.server naming)
                started = time.perf_counter()
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                if self.path not in stub.requests:
                    status, reply = 404, {"error": "unknown endpoint"}
                else:
                    status = stub.schedule.status(stub.total_requests())
                    stub.requests[self.path] += 1
                if status in RETRYABLE:
                    stub.injected += 1
                    reply = {"error": "injected"}
                elif status == 200:
                    payload = json.loads(body)
                    if self.path == "/embeddings":
                        vectors = embedder.embed_texts(payload["input"])
                        reply = {"data": [{"embedding": v} for v in vectors]}
                    else:
                        text = generator.generate(payload["messages"][0]["content"]).text
                        reply = {"choices": [{"message": {"content": text}}]}
                data = json.dumps(reply).encode("utf-8")
                # Counters are final before the reply leaves, so the client
                # never reads them mid-update.
                stub.statuses.append(status)
                stub.busy_s += time.perf_counter() - started
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format: str, *args) -> None:  # noqa: A002
                pass

        self._server = _Server(("127.0.0.1", 0), Handler)
        self.base_url = f"http://127.0.0.1:{self._server.server_port}"
        self._thread = threading.Thread(target=self._server.serve_forever, name="stub")
        self._thread.start()

    def total_requests(self) -> int:
        return sum(self.requests.values())

    def counters(self) -> dict:
        return {
            "requests": self.total_requests(),
            "embeddings": self.requests["/embeddings"],
            "injected": self.injected,
            "busy_s": self.busy_s,
        }

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def __enter__(self) -> "StubServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
