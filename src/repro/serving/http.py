"""Production HTTP front end over the async serving engine.

:class:`HttpServer` turns an :class:`~repro.serving.aio.AsyncEngine` into a
network service using nothing but stdlib ``asyncio`` streams — no web
framework, no new dependency.  One server task parses HTTP/1.1 requests off
each connection and routes them:

* ``POST /v1/generate`` — submit a generation.  The JSON body carries the
  prompt token ids plus the SLA envelope: ``priority`` (larger = more
  urgent; drives admission order and mid-decode preemption of
  lower-priority rows), ``timeout`` (seconds; doubles as the deadline that
  orders co-arriving same-priority admissions), ``tenant`` (rate-limit
  accounting key) and ``stream``.  Non-streaming calls block on the
  request future and return one JSON document; streaming calls return
  Server-Sent Events, one ``data:`` frame per decoded token, fed by the
  engine's existing token-stream subscription — the engine pushes tokens
  through the connection's event loop as each decode step completes.
* ``GET /metrics`` — the engine's :class:`~repro.serving.engine
  .EngineStats`/``sla_summary()``, the prefix pool's counters and the
  server's own HTTP counters in Prometheus text exposition format.
* ``GET /healthz`` — liveness plus queue depth.

Overload protection happens *before* a request touches the engine:

* **Per-tenant token buckets** (``rate_limit`` requests/second, burst
  ``rate_burst``) — an over-rate tenant gets ``429`` with a
  ``Retry-After`` telling it exactly when its bucket refills, and cannot
  starve other tenants.
* **Queue-depth load shedding** — when the engine already holds
  ``max_inflight`` unresolved requests, new arrivals are shed with ``429``
  + ``Retry-After`` instead of joining an unbounded queue.  Shedding is
  what keeps admitted-request TTFT bounded under overload: the open-loop
  ``http_serving`` benchmark drives the server at 2x its measured capacity
  and gates on admitted p99 TTFT staying within 3x the unloaded p99 while
  goodput holds.

Connections are ``Connection: close`` (one request per connection): SSE
responses are close-delimited, parsing stays trivial, and every client —
including the benchmark's hand-rolled reader loop — sees unambiguous
framing.  A client that disconnects mid-stream cancels its request, so an
abandoned stream frees its batch row at the next step boundary.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving.aio import AsyncEngine, RequestCancelled, RequestTimeout

__all__ = ["HttpServer", "HttpStats", "TokenBucket"]

#: Hard caps on one request's wire size — a malformed or malicious client
#: cannot balloon the parser.
_MAX_BODY_BYTES = 1 << 20
_MAX_HEADER_LINES = 64

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    499: "Client Closed Request",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class TokenBucket:
    """Classic token-bucket rate limiter (one per tenant).

    Refills continuously at ``rate`` tokens/second up to ``burst``; a
    request costs one token.  :meth:`try_acquire` returns ``0.0`` on
    admission or the seconds until the bucket holds a full token again —
    exactly the ``Retry-After`` an over-rate client should honour.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._tokens = float(burst)
        self._updated = clock()

    def try_acquire(self, cost: float = 1.0) -> float:
        """Take ``cost`` tokens; returns 0.0, or seconds until retry."""
        now = self.clock()
        self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now
        if self._tokens >= cost:
            self._tokens -= cost
            return 0.0
        return (cost - self._tokens) / self.rate


@dataclass
class HttpStats:
    """The HTTP layer's own counters (the engine keeps the SLA timings)."""

    requests: int = 0
    #: Responses by status code (covers shed/rate-limited/error paths).
    responses: dict = field(default_factory=dict)
    #: Arrivals refused because the engine held ``max_inflight`` requests.
    shed: int = 0
    #: Arrivals refused by a tenant's token bucket.
    rate_limited: int = 0
    streams_opened: int = 0
    tokens_streamed: int = 0

    def count(self, status: int) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "responses": dict(self.responses),
            "shed": self.shed,
            "rate_limited": self.rate_limited,
            "streams_opened": self.streams_opened,
            "tokens_streamed": self.tokens_streamed,
        }


class HttpServer:
    """asyncio-streams HTTP front end over one :class:`AsyncEngine`.

    The server borrows the engine — it never starts or shuts the engine's
    stepping thread; the owner that built the engine closes it.  Start with
    ``async with HttpServer(engine) as server`` (or :meth:`start` /
    :meth:`stop`), then point clients at ``server.address``.  ``port=0``
    binds an ephemeral port, the test- and bench-friendly default.
    """

    def __init__(
        self,
        engine: AsyncEngine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        clock=time.monotonic,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be positive, got {rate_limit}")
        self.engine = engine
        self.host = host
        self.port = port
        #: Queue-depth backpressure: arrivals beyond this many unresolved
        #: engine requests (inbox + queued + live) are shed with 429.
        self.max_inflight = max_inflight
        #: Per-tenant request rate (requests/second); ``None`` disables
        #: rate limiting.  ``rate_burst`` defaults to the rate (1s burst).
        self.rate_limit = rate_limit
        self.rate_burst = (
            None
            if rate_limit is None
            else max(1.0, float(rate_burst if rate_burst is not None else rate_limit))
        )
        self.clock = clock
        self.stats = HttpStats()
        self._buckets: dict[str, TokenBucket] = {}
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "HttpServer":
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting connections (in-flight handlers finish on their own)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "HttpServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # wire plumbing
    # ------------------------------------------------------------------ #
    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; returns (method, path, headers, body).

        Raises ``ValueError`` on malformed input (mapped to 400/413 by the
        connection handler) and returns ``None`` on an empty connection.
        """
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ValueError(f"malformed request line: {line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError("too many header lines")
        length = int(headers.get("content-length", "0") or 0)
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ValueError(f"body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        *,
        content_type: str = "application/json",
        extra_headers: tuple = (),
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        self.stats.count(status)

    def _write_json(
        self, writer, status: int, payload: dict, *, extra_headers: tuple = ()
    ) -> None:
        self._write_response(
            writer,
            status,
            json.dumps(payload).encode("utf-8"),
            extra_headers=extra_headers,
        )

    def _write_error(
        self, writer, status: int, message: str, *, retry_after: float | None = None
    ) -> None:
        extra = ()
        payload = {"error": {"code": status, "message": message}}
        if retry_after is not None:
            seconds = max(1, int(math.ceil(retry_after)))
            extra = (("Retry-After", str(seconds)),)
            payload["error"]["retry_after"] = seconds
        self._write_json(writer, status, payload, extra_headers=extra)

    # ------------------------------------------------------------------ #
    # connection handler / routing
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
            except (ValueError, asyncio.IncompleteReadError) as exc:
                self._write_error(writer, 400, f"bad request: {exc}")
                return
            if parsed is None:
                return
            method, path, headers, body = parsed
            self.stats.requests += 1
            if path == "/healthz":
                if method != "GET":
                    self._write_error(writer, 405, "healthz is GET-only")
                    return
                self._write_json(
                    writer,
                    200,
                    {"status": "ok", "pending": self.engine.num_pending},
                )
            elif path == "/metrics":
                if method != "GET":
                    self._write_error(writer, 405, "metrics is GET-only")
                    return
                self._write_response(
                    writer,
                    200,
                    self.metrics_text().encode("utf-8"),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/v1/generate":
                if method != "POST":
                    self._write_error(writer, 405, "generate is POST-only")
                    return
                await self._handle_generate(writer, body)
            else:
                self._write_error(writer, 404, f"no route for {path}")
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; the generate path already cancelled
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the server
            try:
                self._write_error(writer, 500, f"{type(exc).__name__}: {exc}")
            except Exception:
                pass
        finally:
            try:
                if not writer.is_closing():
                    await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass

    # ------------------------------------------------------------------ #
    # POST /v1/generate
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_generate(body: bytes) -> dict:
        """Validate the request body into engine submit kwargs (ValueError on bad input)."""
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
        prompt = payload.get("prompt_ids")
        if not isinstance(prompt, list) or not prompt:
            raise ValueError("prompt_ids must be a non-empty list of token ids")
        if not all(isinstance(t, int) and not isinstance(t, bool) for t in prompt):
            raise ValueError("prompt_ids must contain integers only")
        timeout = payload.get("timeout")
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ValueError(f"timeout must be positive, got {timeout}")
        stop_ids = payload.get("stop_ids") or []
        if not isinstance(stop_ids, list):
            raise ValueError("stop_ids must be a list of token ids")
        return {
            "prompt_ids": np.asarray(prompt, dtype=np.int64),
            "max_new_tokens": int(payload.get("max_new_tokens", 16)),
            "temperature": float(payload.get("temperature", 0.0)),
            "stop_ids": {int(t) for t in stop_ids},
            "timeout": timeout,
            "priority": int(payload.get("priority", 0)),
            "stream": bool(payload.get("stream", False)),
            "tenant": str(payload.get("tenant", "default")),
        }

    def _admission_control(self, writer, tenant: str) -> bool:
        """Rate-limit and shed before the engine sees the request."""
        if self.rate_limit is not None:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.rate_limit, self.rate_burst, clock=self.clock
                )
            retry_after = bucket.try_acquire()
            if retry_after > 0:
                self.stats.rate_limited += 1
                self._write_error(
                    writer,
                    429,
                    f"tenant {tenant!r} is over its request rate",
                    retry_after=retry_after,
                )
                return False
        pending = self.engine.num_pending
        if pending >= self.max_inflight:
            self.stats.shed += 1
            # A full queue drains at roughly one request per decode-slot
            # turnover; 1s is an honest floor without a latency model.
            self._write_error(
                writer,
                429,
                f"server is at capacity ({pending} requests in flight)",
                retry_after=1.0,
            )
            return False
        return True

    async def _handle_generate(self, writer, body: bytes) -> None:
        try:
            spec = self._parse_generate(body)
        except ValueError as exc:
            self._write_error(writer, 400, str(exc))
            return
        if not self._admission_control(writer, spec["tenant"]):
            return
        try:
            request = self.engine.submit(
                spec["prompt_ids"],
                spec["max_new_tokens"],
                temperature=spec["temperature"],
                stop_ids=spec["stop_ids"],
                timeout=spec["timeout"],
                priority=spec["priority"],
            )
        except ValueError as exc:  # e.g. prompt beyond the context window
            self._write_error(writer, 400, str(exc))
            return
        except RuntimeError as exc:  # engine shut down
            self._write_error(writer, 503, str(exc))
            return
        if spec["stream"]:
            await self._stream_response(writer, request, len(spec["prompt_ids"]))
        else:
            await self._unary_response(writer, request, len(spec["prompt_ids"]))

    async def _unary_response(self, writer, request, prompt_len: int) -> None:
        try:
            result = await asyncio.wrap_future(request.future)
        except RequestTimeout as exc:
            self._write_json(
                writer,
                504,
                {
                    "error": {"code": 504, "message": str(exc)},
                    "partial": [int(t) for t in exc.partial[prompt_len:]],
                },
            )
            return
        except RequestCancelled as exc:
            self._write_json(
                writer,
                499,
                {
                    "error": {"code": 499, "message": str(exc)},
                    "partial": [int(t) for t in exc.partial[prompt_len:]],
                },
            )
            return
        except Exception as exc:  # noqa: BLE001 - engine-side failure
            self._write_error(writer, 500, f"{type(exc).__name__}: {exc}")
            return
        self._write_json(
            writer,
            200,
            {
                "request_id": request.request_id,
                "generated": [int(t) for t in result[prompt_len:]],
                "tokens": [int(t) for t in result],
                "finish_reason": request.finish_reason,
            },
        )

    async def _stream_response(self, writer, request, prompt_len: int) -> None:
        """Server-Sent Events: one ``data:`` frame per decoded token.

        The response is close-delimited (no chunked encoding): frames flow
        until the terminal ``[DONE]`` frame, then the connection closes.
        A broken pipe mid-stream cancels the request so its row retires.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        self.stats.count(200)
        self.stats.streams_opened += 1
        terminal: dict = {"done": True, "request_id": request.request_id}
        try:
            writer.write(head.encode("latin-1"))
            writer.write(_sse_frame({"request_id": request.request_id}))
            await writer.drain()
            async for token in request.tokens():
                self.stats.tokens_streamed += 1
                writer.write(_sse_frame({"token": int(token)}))
                await writer.drain()
            terminal["finish_reason"] = request.finish_reason
        except RequestTimeout:
            terminal["finish_reason"] = "timeout"
        except RequestCancelled:
            terminal["finish_reason"] = "cancelled"
        except (ConnectionResetError, BrokenPipeError):
            request.cancel()
            return
        try:
            writer.write(_sse_frame(terminal))
            writer.write(b"data: [DONE]\n\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            request.cancel()

    # ------------------------------------------------------------------ #
    # GET /metrics
    # ------------------------------------------------------------------ #
    def metrics_text(self) -> str:
        """Engine, pool and HTTP counters in Prometheus text exposition format."""
        lines: list[str] = []

        def emit(name: str, value, mtype: str = "gauge", labels: str = "") -> None:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return
            if isinstance(value, float) and not math.isfinite(value):
                return
            lines.append(f"# TYPE {name} {mtype}")
            lines.append(f"{name}{labels} {value}")

        for key, value in self.engine.stats.sla_summary().items():
            emit(f"repro_engine_{key}", value)
        pool = self.engine.cache_pool
        if pool is not None:
            for key, value in pool.stats.as_dict().items():
                emit(f"repro_pool_{key}", value)
            emit("repro_pool_entries", len(pool))
            emit("repro_pool_pinned_entries", pool.pinned_entries)
            emit("repro_pool_kv_bytes", pool.kv_bytes())
        http = self.stats
        emit("repro_http_requests_total", http.requests, "counter")
        emit("repro_http_shed_total", http.shed, "counter")
        emit("repro_http_rate_limited_total", http.rate_limited, "counter")
        emit("repro_http_streams_opened_total", http.streams_opened, "counter")
        emit("repro_http_tokens_streamed_total", http.tokens_streamed, "counter")
        lines.append("# TYPE repro_http_responses_total counter")
        for status in sorted(http.responses):
            lines.append(
                f'repro_http_responses_total{{code="{status}"}} '
                f"{http.responses[status]}"
            )
        emit("repro_http_inflight", self.engine.num_pending)
        return "\n".join(lines) + "\n"


def _sse_frame(payload: dict) -> bytes:
    return f"data: {json.dumps(payload)}\n\n".encode("utf-8")
