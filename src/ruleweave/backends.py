"""Chat backends: a live HTTP client and a scripted exchange store.

Every backend answers ``complete(request)`` with the raw response text plus a
parsed JSON payload when the text contains one. The scripted backend maps
``(instance_id, step)`` to a reply text. On its own it replays a fixture and
never touches the network. ``ruleweave run`` wraps every backend it builds in
one, so within a run each (instance, step) is asked once and later asks are
replayed; ``--record`` only saves what the store holds.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Protocol

from .errors import BackendError

log = logging.getLogger(__name__)

API_KEY_ENV = "RULEWEAVE_API_KEY"
DEFAULT_TIMEOUT = 120.0
RETRYABLE_ATTEMPTS = 3
_DIGEST_JSON = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


class _Schema(dict):
    """A read-only response schema shared by its requests, with three pieces made once: ``prompt_dump``
    (the text that ends each prompt), ``prompt_json`` (that text as a JSON string) and ``digest_dump``."""

    def __init__(self, schema: dict):
        super().__init__(schema)
        self.prompt_dump = json.dumps(schema, indent=2, ensure_ascii=False)
        self.prompt_json = _DIGEST_JSON.encode(self.prompt_dump)
        self.digest_dump = _DIGEST_JSON.encode(schema)


@dataclass(frozen=True)
class ChatRequest:
    """One structured-output request to a model; ``response_schema`` may be shared and is read-only."""

    system: str
    user: str
    response_schema: dict
    model: str
    instance_id: str
    step: str
    temperature: float = 0.0

    def __post_init__(self):
        if not self.response_schema:
            raise BackendError("response_schema must be non-empty")

    def digest(self) -> str:
        """sha256 of the seven fields as one ``_DIGEST_JSON`` object, written key by key in sorted order.
        A ``_Schema`` goes in as its ``digest_dump``. JSON escapes a string one character at a time, so
        when ``user`` ends with that schema's ``prompt_dump`` only the rest is escaped, joined to
        ``prompt_json``; any other ``user`` is escaped whole."""
        encode, schema, user = _DIGEST_JSON.encode, self.response_schema, self.user
        cached = isinstance(schema, _Schema)
        if cached and isinstance(user, str) and user.endswith(schema.prompt_dump):
            user_json = encode(user[: len(user) - len(schema.prompt_dump)])[:-1] + schema.prompt_json[1:]
        else:
            user_json = encode(user)
        payload = (
            f'{{"instance_id": {encode(self.instance_id)}, "model": {encode(self.model)}, '
            f'"response_schema": {schema.digest_dump if cached else encode(schema)}, '
            f'"step": {encode(self.step)}, "system": {encode(self.system)}, '
            f'"temperature": {encode(self.temperature)}, "user": {user_json}}}'
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BackendResponse:
    text: str
    data: object = None


def _json_candidates(text: str):
    stripped = text.strip()
    yield stripped
    if stripped.startswith("```"):
        body = stripped.strip("`")
        if body.startswith("json"):
            body = body[4:]
        yield body.strip()
    start, end = text.find("{"), text.rfind("}")
    if 0 <= start < end:
        yield text[start : end + 1]


def parse_json_payload(text: str):
    """Best-effort JSON extraction, making each candidate only if needed; None when nothing parses."""
    for candidate in _json_candidates(text):
        try:
            return json.loads(candidate)
        except ValueError:
            continue
    return None


class Backend(Protocol):
    def complete(self, request: ChatRequest) -> BackendResponse: ...


class ScriptedBackend:
    """One map from (instance_id, step) to a reply text that replays and records.

    A held key is replayed and never sent on. A missing key goes to the inner
    backend, when there is one, and its reply is held from then on, also at
    temperature > 0, so ``save`` writes a file that replays the run. With no
    inner backend a repair step falls back to its base step, so a well-formed
    fixture does not need one entry per retry.
    """

    def __init__(self, responses: dict[tuple[str, str], str], inner: Optional[Backend] = None):
        self._responses = dict(responses)
        self._inner = inner
        self._lock = threading.Lock()

    @classmethod
    def from_records(cls, records) -> "ScriptedBackend":
        responses: dict[tuple[str, str], str] = {}
        for i, record in enumerate(records):
            if not isinstance(record, dict) or not {"instance_id", "step", "response"} <= set(record):
                raise BackendError(f"replay record {i} needs instance_id, step, response")
            for name in ("instance_id", "step", "response"):
                if not isinstance(record[name], str):
                    raise BackendError(f"replay record {i}: {name} must be a string")
            key = (record["instance_id"], record["step"])
            if key in responses:
                raise BackendError(f"duplicate replay entry for {key}")
            responses[key] = record["response"]
        return cls(responses)

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        try:
            with open(path, encoding="utf-8") as handle:
                records = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
            raise BackendError(f"cannot load replay file {path}: {exc}") from exc
        if not isinstance(records, list):
            raise BackendError(f"replay file {path} must hold a JSON array")
        return cls.from_records(records)

    def complete(self, request: ChatRequest) -> BackendResponse:
        key = (request.instance_id, request.step)
        text = self._responses.get(key)
        if text is None and self._inner is not None:
            response = self._inner.complete(request)
            with self._lock:
                self._responses.setdefault(key, response.text)
            return response
        if text is None and request.step.endswith("_repair"):
            text = self._responses.get((request.instance_id, request.step[: -len("_repair")]))
        if text is None:
            raise BackendError(f"no scripted response for {key}")
        return BackendResponse(text=text, data=parse_json_payload(text))

    @property
    def held(self) -> int:
        return len(self._responses)

    def save(self, path) -> None:
        """Write every held reply as a replay file, sorted by key."""
        with self._lock:
            held = sorted(self._responses.items())
        records = [
            {"instance_id": instance_id, "step": step, "response": text}
            for (instance_id, step), text in held
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2, ensure_ascii=False)
            handle.write("\n")


class _RateLimiter:
    """Simple sliding-window requests-per-minute gate."""

    def __init__(self, rpm: Optional[int]):
        self.rpm = rpm
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def wait(self) -> None:
        if not self.rpm:
            return
        while True:
            with self._lock:
                now = time.monotonic()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.rpm:
                    self._stamps.append(now)
                    return
                delay = 60.0 - (now - self._stamps[0])
            time.sleep(max(delay, 0.05))


class HttpBackend:
    """Client for a chat-completions-compatible JSON endpoint.

    ``endpoint`` must be an ``http`` or ``https`` URL with a host; anything
    else raises ``BackendError`` here, before any request. Each request is one
    POST through ``urllib.request`` on a connection of its own, so the standard
    proxy variables apply and HTTPS uses the default SSL context (the system
    trust store, or ``SSL_CERT_FILE``). 429 and 5xx replies are retried with
    backoff; any other non-200 reply and any transport failure raise
    ``BackendError``. ``urllib.request`` is imported on the first request, so
    importing ruleweave loads neither it nor ``ssl``. ``max_concurrency`` caps
    nothing here: it is ``ruleweave run``'s pool size when ``--workers`` is
    not given.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_concurrency: int = 4,
        rpm: Optional[int] = None,
    ):
        from urllib.parse import urlsplit

        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendError(f"no API key: set {API_KEY_ENV} or pass api_key")
        if not endpoint:
            raise BackendError("endpoint must be set for the HTTP backend")
        try:
            parts = urlsplit(endpoint)
            usable = parts.scheme in ("http", "https") and bool(parts.hostname)
        except ValueError:  # e.g. an unclosed IPv6 bracket
            usable = False
        if not usable:
            raise BackendError(f"endpoint {endpoint!r} must be an http:// or https:// URL with a host")
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self._api_key = key
        self.max_concurrency = max_concurrency
        self._limiter = _RateLimiter(rpm)

    def complete(self, request: ChatRequest) -> BackendResponse:
        import http.client
        import urllib.error
        import urllib.request

        body = {
            "model": request.model or self.model,
            "temperature": request.temperature,
            "response_format": {"type": "json_object"},
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
        }
        outbound = urllib.request.Request(
            self.endpoint,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        # Unredirected: a redirect, possibly to another host, does not carry the key.
        outbound.add_unredirected_header("Authorization", f"Bearer {self._api_key}")
        last_error = "unknown"
        for attempt in range(RETRYABLE_ATTEMPTS):
            self._limiter.wait()
            try:
                try:
                    reply = urllib.request.urlopen(outbound, timeout=self.timeout)
                except urllib.error.HTTPError as exc:
                    reply = exc  # a non-2xx reply: its status and body are read below
                with reply:
                    status, raw = reply.status, reply.read()
            except (OSError, http.client.HTTPException) as exc:
                raise BackendError(f"request to {self.endpoint} failed: {exc}") from exc
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                log.warning("retryable %s from %s (attempt %d)", last_error, self.endpoint, attempt + 1)
                if attempt + 1 < RETRYABLE_ATTEMPTS:
                    time.sleep(2.0**attempt)
                continue
            if status != 200:
                text = raw.decode("utf-8", errors="replace")
                raise BackendError(f"HTTP {status} from {self.endpoint}: {text[:500]}")
            try:
                payload = json.loads(raw)
                text = payload["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"message content is {type(text).__name__}, not a string")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"unexpected response shape from {self.endpoint}: {exc}") from exc
            return BackendResponse(text=text, data=parse_json_payload(text))
        raise BackendError(f"gave up after {RETRYABLE_ATTEMPTS} attempts ({last_error})")
