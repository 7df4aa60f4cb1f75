"""Stand-in model server for the http workload.

Answers POSTed `{system, user, temperature}` bodies with `{text}` from
btevolve's synthetic world, so a run through `HttpBackend` sees the same
kind of replies as an in-process synthetic run, with no added latency.

The wire format carries no seed, so the synthetic seed of each reply is
derived from a hash of the request body plus how many times that body has
been seen; without the count, the n identical sampling requests of a run
would all return the same candidate and every judgment would be a tie.

`GET /stats` returns the requests and connections served since the last
`/stats` call and clears them and the seen-body counts, so the benchmark
reads them once per op.  Control calls are not counted.

Run: python3 perfbench/server.py   (prints the port it listens on, then serves)
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from btevolve import CompletionRequest, SyntheticBackend  # noqa: E402


class Counters:
    """Per-op request and connection counts plus the seen-body tally."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.seen: dict[bytes, int] = {}

    def take(self) -> dict:
        with self.lock:
            snapshot = {"requests": self.requests, "connections": self.connections}
            self.requests = 0
            self.connections = 0
            self.seen.clear()
        return snapshot


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # lets a keep-alive client reuse its connection
    backend = SyntheticBackend()
    counters = Counters()

    def setup(self) -> None:
        super().setup()
        # with Nagle on, a keep-alive client waits on delayed ACKs (~40 ms per call)
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.counted = False

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            request = json.loads(body)
            user, system, temperature = request["user"], request["system"], request["temperature"]
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": f"bad request body: {exc}"})
            return
        counters = self.counters
        with counters.lock:
            counters.requests += 1
            if not self.counted:
                counters.connections += 1
                self.counted = True
            seen = counters.seen.get(body, 0)
            counters.seen[body] = seen + 1
        digest = hashlib.sha256(body + seen.to_bytes(8, "little")).digest()
        seed = int.from_bytes(digest[:8], "little")
        text = self.backend.complete(
            CompletionRequest(user_prompt=user, system_prompt=system, temperature=temperature, seed=seed)
        )
        self._reply(200, {"text": text})

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._reply(200, self.counters.take())
        else:
            self._reply(404, {"error": "not found"})

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
