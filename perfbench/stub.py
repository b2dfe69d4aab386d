"""Loopback chat-completions stub for the ``live`` workload.

Run as ``python3 perfbench/stub.py TABLE LATENCY_MS``. ``TABLE`` is a JSON file
``{"replies": {key: text}, "malformed": [key, ...]}`` where ``key`` is
:func:`request_key` of a request's system and user messages. The stub binds
127.0.0.1 on a free port, prints ``{"port": N}`` as its first stdout line and
serves until its stdin closes. It then prints one JSON line with the number
of requests, the TCP connections it accepted and its per-request service
times, and exits.

Every reply waits a fixed latency. A request whose key is listed under
``malformed`` gets a reply that is not JSON; its repair request has another
user message, hence another key, and gets the captured reply. An unknown key
gets HTTP 404. The stub never answers 429 or 5xx: the client sleeps a second
or more before each such retry, which would swamp the run.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

MALFORMED_TEXT = "reply withheld by the stub"


def request_key(system: str, user: str) -> str:
    return hashlib.sha256(f"{system}\x00{user}".encode("utf-8")).hexdigest()


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replies: dict[str, str], malformed: set[str], latency_s: float):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.replies = replies
        self.malformed = malformed
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.connections = 0
        self.service_ms: list[float] = []
        self.unknown = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": len(self.service_ms),
                "connections": self.connections,
                "unknown": self.unknown,
                "service_ms": list(self.service_ms),
            }


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        started = time.perf_counter()
        server: StubServer = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        messages = {m["role"]: m["content"] for m in body["messages"]}
        key = request_key(messages["system"], messages["user"])
        text = server.replies.get(key)
        time.sleep(server.latency_s)
        if text is None:
            status, payload = 404, {"error": "no captured reply for this request"}
            with server.lock:
                server.unknown += 1
        else:
            if key in server.malformed:
                text = MALFORMED_TEXT
            status, payload = 200, {"choices": [{"message": {"role": "assistant", "content": text}}]}
        raw = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)
        with server.lock:
            server.service_ms.append((time.perf_counter() - started) * 1000.0)

    def log_message(self, format, *args):
        pass


def main(argv: list[str]) -> int:
    table_path, latency_ms = argv[0], float(argv[1])
    with open(table_path, encoding="utf-8") as handle:
        table = json.load(handle)
    server = StubServer(table["replies"], set(table["malformed"]), latency_ms / 1000.0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        print(json.dumps({"port": server.server_address[1]}), flush=True)
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    print(json.dumps(server.stats()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
