"""Stdlib-asyncio HTTP JSON front end of :class:`SweepService`.

No third-party server framework: requests are parsed straight off
:func:`asyncio.start_server` streams, which keeps the service runnable
anywhere the repo's baked-in toolchain runs.  The protocol surface is a
small JSON-over-POST API (every body is a JSON object, every response a
JSON object with ``"ok"``):

====================  =====================================================
endpoint              body / result
====================  =====================================================
``GET  /healthz``     liveness + readiness: ``{"ok", "status",
                      "version", "uptime_s", "ready"}``; ``?ready=1``
                      turns it into a readiness probe (503 until the
                      engine/coordinator can serve)
``GET  /stats``       cache + coalescing counters
``GET  /metrics``     Prometheus text exposition: per-tenant request
                      counters + latency histograms, plus every numeric
                      ``/stats`` leaf
``POST /cluster/drain``  stop leasing to the current worker generation
                      (rolling restart); admin tenants only
``POST /sweep``       ``{"grid": {...}}`` -> evaluation summary (shape,
                      size, engine, resolved grid)
``POST /result``      ``{"grid": {...}}`` -> full ``SweepResult`` payload
                      (:meth:`~repro.core.dse.SweepResult.to_payload`)
``POST /records``     ``{"grid": {...}, "limit": n?}`` -> flat per-point
                      records
``POST /pareto``      ``{"grid", "scheme"?, "n_pixels"?, "app"?,
                      "gridtype"?, "log2_hashmap_size"?,
                      "per_level_scale"?}`` -> list of design points
``POST /cheapest``    ``{"grid", "app", "fps" | "train_steps_per_s",
                      "n_pixels"?, "scheme"?, encoding selectors?}``
                      -> design point or null
``POST /point``       ``{"grid", "app"?, "scheme"?, "scale_factor"?,
                      "n_pixels"?, "clock_ghz"?, ...}`` -> one
                      emulation record
====================  =====================================================

Two endpoints stream instead of answering once:

- ``POST /result?wait=SECONDS`` long-polls: the full payload when the
  sweep finishes within the window, else HTTP **202** with
  ``{"ok": true, "pending": true, "progress": {...}}`` — the sweep
  keeps evaluating, so polling again eventually returns 200.
- ``POST /sweep/stream`` (same body as ``/pareto``) answers with a
  chunked ``application/x-ndjson`` response: one JSON event per line —
  ``progress`` counters, exact partial ``front`` refinements, and a
  final ``front`` + ``complete`` (or an in-band ``error`` event).  A
  client that disconnects mid-stream only unsubscribes; the sweep keeps
  running for every other subscriber and still lands in the cache.

Failures are structured: a scalar query against a swept axis without a
selector returns HTTP 400 with ``error.code == "ambiguous-axis"`` and
``error.axis`` naming the offending axis (see
:mod:`repro.service.errors`).  Request bodies over the server's
``max_body_bytes`` (default 64 MiB, configurable per server) are
rejected with a structured 413 *before* the body is read.

Connections are keep-alive by default, so a pooling client reuses one
socket across requests; ``/stats`` counts ``http.connections`` /
``http.requests`` / ``http.reused`` so the reuse is observable.  Every
response envelope carries the served ``schema_version``; a request body
naming an unsupported ``schema_version`` gets a structured 400
(``error.code == "unsupported-schema"``) listing the versions this
build serves.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import time
import urllib.parse
from typing import Dict, Optional, Set, Tuple

from repro._version import __version__
from repro.core.dse import (
    PAYLOAD_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    check_schema_version,
)
from repro.service.errors import ServiceError, as_service_error
from repro.service.ops import ANONYMOUS, CURRENT_TENANT, METRICS_CONTENT_TYPE, OpsLayer
from repro.service.sweep_service import SweepService

#: default request-body cap; grid specs are tiny, but cluster workers
#: POST dense block arrays on the same port, so the ceiling is generous.
#: Configurable per server (``start_http_server(max_body_bytes=...)`` /
#: ``repro serve --max-body-mb``).
MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADERS = 100

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _emulation_record(result) -> Dict:
    record = dataclasses.asdict(result)
    record["speedup"] = result.speedup
    record["fps"] = result.fps
    return record


async def _handle_sweep(service: SweepService, payload: Dict) -> Dict:
    result = await service.sweep(payload.get("grid"))
    return {
        "grid": result.grid.to_dict(),
        "shape": list(result.grid.shape),
        "size": result.grid.size,
        "engine": result.engine,
    }


async def _handle_result(service: SweepService, payload: Dict) -> Dict:
    result = await service.sweep(payload.get("grid"))
    return result.to_payload()


async def _handle_records(service: SweepService, payload: Dict) -> list:
    limit = payload.get("limit")
    if limit is not None:
        try:
            limit = int(limit)
        except (TypeError, ValueError):
            raise ServiceError(400, "bad-request", "limit must be an integer")
        if limit < 0:
            raise ServiceError(400, "bad-request", "limit must be non-negative")
    result = await service.sweep(payload.get("grid"))
    return result.to_records(limit=limit)


def _encoding_selectors(payload: Dict) -> Dict:
    """The optional encoding-axis selectors of a query body."""
    return {
        "gridtype": payload.get("gridtype"),
        "log2_hashmap_size": payload.get("log2_hashmap_size"),
        "per_level_scale": payload.get("per_level_scale"),
    }


async def _handle_pareto(service: SweepService, payload: Dict) -> list:
    points = await service.pareto_front(
        payload.get("grid"),
        scheme=payload.get("scheme"),
        n_pixels=payload.get("n_pixels"),
        app=payload.get("app"),
        **_encoding_selectors(payload),
    )
    return [point.to_dict() for point in points]


async def _handle_cheapest(service: SweepService, payload: Dict):
    if "fps" not in payload and "train_steps_per_s" not in payload:
        raise ServiceError(
            400, "bad-request",
            "body must name a target 'fps' or 'train_steps_per_s'",
        )
    target = "train_steps_per_s" if "train_steps_per_s" in payload else "fps"
    point = await service.cheapest(
        payload.get("grid"),
        app=payload.get("app"),
        n_pixels=payload.get("n_pixels"),
        scheme=payload.get("scheme"),
        **{target: float(payload[target])},
        **_encoding_selectors(payload),
    )
    return None if point is None else point.to_dict()


async def _handle_point(service: SweepService, payload: Dict) -> Dict:
    result = await service.point(
        payload.get("grid"),
        app=payload.get("app"),
        scheme=payload.get("scheme"),
        scale_factor=payload.get("scale_factor"),
        n_pixels=payload.get("n_pixels"),
        clock_ghz=payload.get("clock_ghz"),
        grid_sram_kb=payload.get("grid_sram_kb"),
        n_engines=payload.get("n_engines"),
        n_batches=payload.get("n_batches"),
        **_encoding_selectors(payload),
    )
    return _emulation_record(result)


_POST_ROUTES = {
    "/sweep": _handle_sweep,
    "/result": _handle_result,
    "/records": _handle_records,
    "/pareto": _handle_pareto,
    "/cheapest": _handle_cheapest,
    "/point": _handle_point,
}


async def _read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Optional[Tuple[str, str, Dict[str, str], bytes, Dict[str, str]]]:
    """Parse one HTTP/1.1 request; None on a closed connection.

    The body cap is enforced on the declared Content-Length *before* a
    single body byte is read, so an oversized upload costs the server
    one header parse, not ``max_body_bytes`` of buffering; the 413
    carries the limit and the declared length so the client can react
    programmatically.
    """
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 3:
        raise ServiceError(400, "bad-request", "malformed HTTP request line")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ServiceError(400, "bad-request", "too many headers")
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise ServiceError(400, "bad-request", "bad Content-Length")
    if length < 0:
        raise ServiceError(400, "bad-request", "bad Content-Length")
    if length > max_body_bytes:
        raise ServiceError(
            413, "payload-too-large",
            f"request body of {length} bytes exceeds this server's limit "
            f"of {max_body_bytes} bytes",
            limit_bytes=max_body_bytes, content_length=length,
        )
    body = await reader.readexactly(length) if length else b""
    path, _, query_string = target.partition("?")
    query: Dict[str, str] = {}
    if query_string:
        for pair in query_string.split("&"):
            name, _, value = pair.partition("=")
            if name:
                query[urllib.parse.unquote_plus(name)] = (
                    urllib.parse.unquote_plus(value)
                )
    return method, path, headers, body, query


def _encode_raw_response(
    status: int,
    content_type: str,
    data: bytes,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(data)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    for name, value in (extra_headers or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1") + data


def _encode_response(
    status: int,
    body: Dict,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    # every envelope — success or error — carries the served schema
    # version so clients can detect an incompatible server generation
    body.setdefault("schema_version", PAYLOAD_SCHEMA_VERSION)
    data = json.dumps(body).encode("utf-8")
    return _encode_raw_response(
        status, "application/json", data, keep_alive, extra_headers
    )


def _error_headers(error: ServiceError) -> Optional[Dict[str, str]]:
    """Protocol-level headers a structured error implies.

    429s carry ``Retry-After`` (whole seconds, rounded up from the
    structured ``retry_after_s`` detail) and 401s the
    ``WWW-Authenticate`` challenge, so generic HTTP clients back off /
    re-authenticate without parsing the JSON envelope.
    """
    headers: Dict[str, str] = {}
    if error.status == 429:
        retry_s = error.details.get("retry_after_s")
        try:
            retry_s = max(1, int(-(-float(retry_s) // 1)))  # ceil
        except (TypeError, ValueError):
            retry_s = 1
        headers["Retry-After"] = str(retry_s)
    if error.status == 401:
        headers["WWW-Authenticate"] = "Bearer"
    return headers or None


def _parse_payload(body: bytes) -> Dict:
    """Decode + schema-check one JSON request body (shared by routes)."""
    if body:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ServiceError(400, "bad-request", f"invalid JSON body: {exc}")
        if not isinstance(payload, dict):
            raise ServiceError(400, "bad-request", "body must be a JSON object")
    else:
        payload = {}
    # schema negotiation: a client naming a payload version this build
    # cannot serve gets a structured 400 instead of misread arrays
    try:
        check_schema_version(payload.pop("schema_version", None))
    except ValueError as exc:
        raise ServiceError(
            400, "unsupported-schema", str(exc),
            supported=list(SUPPORTED_SCHEMA_VERSIONS),
        )
    return payload


async def _handle_result_wait(
    service: SweepService, payload: Dict, wait: str
):
    """The ``/result?wait=SECONDS`` long-poll.

    Awaits the (cached, coalesced) sweep up to the window; on timeout
    the evaluation keeps running — the waiter is shielded off a task —
    and the reply is a 202 carrying the live progress counters, so a
    client can poll ``/result?wait=`` in a loop and watch ``points_done``
    climb until the 200 with the full payload.
    """
    try:
        wait_s = float(wait)
    except (TypeError, ValueError):
        raise ServiceError(
            400, "bad-request", f"wait={wait!r} is not a number of seconds"
        )
    if wait_s < 0:
        raise ServiceError(400, "bad-request", "wait must be non-negative")
    task = asyncio.ensure_future(service.sweep(payload.get("grid")))
    # a failure after the window closed was still handled by design
    # (the next poll re-raises it); silence the never-retrieved warning
    task.add_done_callback(
        lambda t: t.exception() if not t.cancelled() else None
    )
    try:
        result = await asyncio.wait_for(asyncio.shield(task), wait_s)
    except asyncio.TimeoutError:
        return 202, {
            "ok": True,
            "pending": True,
            "progress": service.progress_snapshot(payload.get("grid")),
        }
    return 200, {"ok": True, "result": result.to_payload()}


async def _dispatch(
    service: SweepService,
    method: str,
    path: str,
    body: bytes,
    query: Optional[Dict[str, str]] = None,
    ops: Optional[OpsLayer] = None,
    cluster=None,
):
    """Route one request; returns (status, json body)."""
    query = query or {}
    if method == "GET" and path == "/healthz":
        # liveness by default; ``?ready=1`` makes it a readiness probe
        # (503 until the engine/coordinator can actually serve sweeps)
        if ops is None:
            return 200, {
                "ok": True, "status": "healthy", "version": __version__,
            }
        health = ops.healthz(__version__)
        if query.get("ready") and not health["ready"]:
            return 503, health
        return 200, health
    if method == "GET" and path == "/stats":
        return 200, {"ok": True, "result": service.stats()}
    if path == "/cluster/drain":
        # the one JSON (non-frame) /cluster/ endpoint: an operator verb,
        # not part of the worker wire protocol
        if method != "POST":
            raise ServiceError(
                405, "method-not-allowed", f"{method} {path} not allowed"
            )
        if ops is not None:
            ops.require_admin(
                CURRENT_TENANT.get() or ANONYMOUS, "POST /cluster/drain"
            )
        if cluster is None:
            raise ServiceError(
                404, "no-cluster",
                "this server has no shard coordinator mounted",
            )
        return 200, {"ok": True, "result": await cluster.drain()}
    handler = _POST_ROUTES.get(path)
    if handler is None and path not in ("/healthz", "/stats"):
        raise ServiceError(404, "unknown-endpoint", f"no endpoint {path!r}")
    if handler is None or method != "POST":
        raise ServiceError(405, "method-not-allowed", f"{method} {path} not allowed")
    payload = _parse_payload(body)
    if path == "/result" and query.get("wait") is not None:
        return await _handle_result_wait(service, payload, query["wait"])
    result = await handler(service, payload)
    return 200, {"ok": True, "result": result}


async def _serve_stream(
    service: SweepService,
    method: str,
    body: bytes,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Serve one ``POST /sweep/stream`` request as chunked ndjson.

    Failures *before* the first event (bad JSON, unknown selector, bad
    schema) ship as one ordinary structured JSON response — the client
    sees the same 400/404 it would get from ``/pareto``.  Once the
    chunked response starts, evaluation failures arrive as an in-band
    ``{"event": "error"}`` line.  A peer that disconnects mid-stream
    just ends this generator (``finally`` unsubscribes it from the
    sweep's progress hub); the evaluation itself is owned by the
    service's single-flight task and keeps running for every other
    subscriber.  The response is ``Connection: close``: a stream is the
    last exchange on its connection.
    """
    stream = None
    try:
        if method != "POST":
            raise ServiceError(
                405, "method-not-allowed", f"{method} /sweep/stream not allowed"
            )
        payload = _parse_payload(body)
        stream = service.sweep_stream(
            payload.get("grid"),
            scheme=payload.get("scheme"),
            n_pixels=payload.get("n_pixels"),
            app=payload.get("app"),
            **_encoding_selectors(payload),
        )
        # the generator body runs on the first pull: selector validation
        # errors surface here, while a plain pre-stream response is
        # still possible
        first = await stream.__anext__()
    except StopAsyncIteration:  # pragma: no cover - streams always emit
        first = None
    except Exception as exc:
        if stream is not None:
            await stream.aclose()
        error = as_service_error(exc)
        writer.write(_encode_response(error.status, error.to_payload(), False))
        await writer.drain()
        return
    eof_watch = None
    try:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )

        async def send_event(event: Dict) -> None:
            data = json.dumps(event).encode("utf-8") + b"\n"
            writer.write(b"%x\r\n%s\r\n" % (len(data), data))
            await writer.drain()

        # disconnect watcher: /sweep/stream is the connection's last
        # exchange, so the client sends nothing more — any read
        # completing (EOF or stray bytes) means it is gone.  Racing it
        # against the event pull releases the subscription immediately
        # even while the sweep is between blocks, instead of waiting
        # for the next write to fail.
        eof_watch = asyncio.ensure_future(reader.read(1))
        event = first
        while event is not None:
            await send_event(event)
            next_pull = asyncio.ensure_future(stream.__anext__())
            done, _ = await asyncio.wait(
                {next_pull, eof_watch},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if next_pull not in done:
                next_pull.cancel()
                try:
                    await next_pull
                except (asyncio.CancelledError, StopAsyncIteration):
                    pass
                return  # client went away; the sweep keeps running
            try:
                event = next_pull.result()
            except StopAsyncIteration:
                event = None
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    except (ConnectionError, RuntimeError, OSError):
        pass  # client went away mid-stream; the sweep keeps running
    finally:
        if eof_watch is not None and not eof_watch.done():
            eof_watch.cancel()
            try:
                await eof_watch
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
        if stream is not None:
            await stream.aclose()


async def _handle_connection(
    service: SweepService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    connections: Optional[Set[asyncio.StreamWriter]] = None,
    cluster=None,
    tasks: Optional[Set] = None,
    max_body_bytes: int = MAX_BODY_BYTES,
    ops: Optional[OpsLayer] = None,
) -> None:
    """Serve one client connection; loops over keep-alive requests.

    Requests after the first on a connection count as keep-alive reuses
    in the service's ``/stats`` (``http.reused``), so the saving from a
    connection-pooling client is observable server-side.

    With an :class:`~repro.service.ops.OpsLayer` mounted every request
    runs the full ops path: authenticate (bearer key -> tenant, 401/403)
    -> admit (token-bucket debit, 429 + ``Retry-After``) -> handler ->
    observe (per-tenant metrics sample + one structured access-log
    line).  The resolved tenant rides the request's context
    (``CURRENT_TENANT``), which is how a cold sweep's admission slot
    gets attributed without threading tenant objects through the
    service API.
    """
    service.http["connections"] += 1
    if connections is not None:
        connections.add(writer)
    if tasks is not None:
        # registered so a closing server can await in-flight handlers
        # (long-polling workers) instead of leaving them to be cancelled
        # noisily at loop shutdown
        tasks.add(asyncio.current_task())
    n_requests = 0

    async def send(encoded: bytes) -> bool:
        """Write one response; False when the peer is gone (stop serving)."""
        try:
            writer.write(encoded)
            await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            return False
        return True

    try:
        while True:
            try:
                request = await _read_request(reader, max_body_bytes)
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            except ValueError:  # e.g. a request line over the stream limit
                await send(_encode_response(
                    400,
                    ServiceError(400, "bad-request", "malformed request").to_payload(),
                    False,
                ))
                break
            except ServiceError as exc:
                await send(_encode_response(exc.status, exc.to_payload(), False))
                break
            if request is None:
                break
            method, path, headers, body, query = request
            service.http["requests"] += 1
            if n_requests:
                service.http["reused"] += 1
            n_requests += 1
            keep_alive = headers.get("connection", "keep-alive").lower() != "close"
            started = time.monotonic()
            tenant = ANONYMOUS
            if ops is not None:
                try:
                    tenant = ops.authenticate(method, path, headers)
                    ops.admit(tenant, method, path)
                except ServiceError as exc:
                    # auth/quota rejections are ordinary responses: the
                    # connection stays usable (a 429'd client retries on
                    # the same socket after Retry-After)
                    sent = await send(_encode_response(
                        exc.status, exc.to_payload(), keep_alive,
                        _error_headers(exc),
                    ))
                    ops.observe(
                        tenant, method, path, exc.status,
                        time.monotonic() - started, code=exc.code,
                    )
                    if not sent or not keep_alive:
                        break
                    continue
            token = CURRENT_TENANT.set(tenant) if ops is not None else None
            try:
                if path == "/sweep/stream":
                    # chunked ndjson: its own writer path, and always the
                    # connection's last exchange (Connection: close)
                    await _serve_stream(service, method, body, reader, writer)
                    if ops is not None:
                        ops.observe(
                            tenant, method, path, 200,
                            time.monotonic() - started, streamed=True,
                        )
                    break
                if method == "GET" and path == "/metrics" and ops is not None \
                        and ops.metrics is not None:
                    data = ops.render_metrics().encode("utf-8")
                    sent = await send(_encode_raw_response(
                        200, METRICS_CONTENT_TYPE, data, keep_alive
                    ))
                    ops.observe(
                        tenant, method, path, 200, time.monotonic() - started
                    )
                    if not sent or not keep_alive:
                        break
                    continue
                if path.startswith("/cluster/") and path != "/cluster/drain":
                    # the shard-cluster worker protocol: binary frame bodies
                    # (:mod:`repro.transport`), routed to the mounted
                    # coordinator (404 when none)
                    if cluster is None:
                        error = ServiceError(
                            404, "no-cluster",
                            "this server has no shard coordinator mounted",
                        )
                        status = error.status
                        encoded = _encode_response(
                            error.status, error.to_payload(), keep_alive
                        )
                    else:
                        status, data = await cluster.handle_http(method, path, body)
                        encoded = _encode_raw_response(
                            status, cluster.content_type, data, keep_alive
                        )
                    sent = await send(encoded)
                    if ops is not None:
                        ops.observe(
                            tenant, method, path, status,
                            time.monotonic() - started,
                        )
                    if not sent or not keep_alive:
                        break
                    continue
                err_code = None
                extra_headers = None
                try:
                    status, response = await _dispatch(
                        service, method, path, body, query,
                        ops=ops, cluster=cluster,
                    )
                except Exception as exc:  # every failure ships as structured JSON
                    error = as_service_error(exc)
                    status, response = error.status, error.to_payload()
                    err_code = error.code
                    extra_headers = _error_headers(error)
                sent = await send(_encode_response(
                    status, response, keep_alive, extra_headers
                ))
                if ops is not None:
                    ops.observe(
                        tenant, method, path, status,
                        time.monotonic() - started, code=err_code,
                    )
                if not sent:
                    break
                if not keep_alive:
                    break
            finally:
                if token is not None:
                    CURRENT_TENANT.reset(token)
    finally:
        if connections is not None:
            connections.discard(writer)
        if tasks is not None:
            tasks.discard(asyncio.current_task())
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SweepHTTPServer:
    """Handle for a running server: its port and a clean ``close()``."""

    def __init__(
        self,
        service: SweepService,
        cluster=None,
        max_body_bytes: int = MAX_BODY_BYTES,
        ops: Optional[OpsLayer] = None,
    ):
        self.service = service
        #: optional mounted shard coordinator serving ``/cluster/*``
        self.cluster = cluster
        #: the ops layer consulted per request (auth/quotas/metrics/logs)
        self.ops = ops
        #: request bodies above this are rejected with a structured 413
        self.max_body_bytes = int(max_body_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        # open keep-alive connections; force-closed on shutdown so a
        # pooling client cannot hold the server's close() hostage
        self._connections: Set[asyncio.StreamWriter] = set()
        self._tasks: Set[asyncio.Task] = set()

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        # stop accepting, wake long-polling workers with a clean stop,
        # drop open connections, then wait for in-flight handlers so
        # none is left to be cancelled noisily at loop shutdown
        self._server.close()
        if self.cluster is not None:
            await self.cluster.close()
        for writer in list(self._connections):
            writer.close()
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        await self._server.wait_closed()


async def start_http_server(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 8787,
    cluster=None,
    max_body_bytes: int = MAX_BODY_BYTES,
    ops: Optional[OpsLayer] = None,
) -> SweepHTTPServer:
    """Bind and start serving; ``port=0`` picks an ephemeral port.

    Pass a :class:`~repro.service.cluster.ShardCoordinator` as
    ``cluster`` to mount the worker protocol on the same port: workers
    talk to ``/cluster/*`` while clients use the JSON endpoints, so one
    address serves both halves of a distributed deployment.
    ``max_body_bytes`` caps every request body (structured 413 above
    it); the default fits the largest block completion a cluster worker
    legitimately posts.

    Every server gets an :class:`~repro.service.ops.OpsLayer` — the
    default one is open (no tenants file, no rate limits, anonymous
    admin) but still serves ``/metrics``, the upgraded ``/healthz`` and
    the structured access log; pass ``ops`` to configure auth/quotas.
    """
    if ops is None:
        ops = OpsLayer()
    handle = SweepHTTPServer(
        service, cluster=cluster, max_body_bytes=max_body_bytes, ops=ops
    )
    if cluster is not None:
        await cluster.start()
        service.stats_extra["cluster"] = cluster.stats
    ops.attach(service, cluster)
    handle._server = await asyncio.start_server(
        lambda reader, writer: _handle_connection(
            service, reader, writer, handle._connections, cluster,
            handle._tasks, handle.max_body_bytes, ops,
        ),
        host,
        port,
    )
    return handle


def run_server(
    service: SweepService,
    host: str = "127.0.0.1",
    port: int = 8787,
    cluster=None,
    spawn_workers: int = 0,
    max_body_bytes: int = MAX_BODY_BYTES,
    ops: Optional[OpsLayer] = None,
) -> int:
    """Blocking entry point for ``python -m repro serve``.

    Every operator-facing line is one structured JSON log record; the
    startup record's ``message`` keeps the machine-parseable
    ``listening on http://host:port`` text (the CI smoke reads it to
    discover an ephemeral port).  Serves until SIGINT/SIGTERM, then
    closes the listener cleanly; SIGHUP re-reads the tenants file
    in place.

    With a ``cluster`` coordinator the same port serves the worker
    protocol; ``spawn_workers`` local ``repro worker`` subprocesses are
    started after the bind (remote hosts join by running ``repro
    worker --host <this> --port <this>`` themselves) and terminated on
    shutdown.
    """
    if ops is None:
        ops = OpsLayer()
    log = ops.logger

    async def _serve() -> None:
        server = await start_http_server(
            service, host, port, cluster=cluster,
            max_body_bytes=max_body_bytes, ops=ops,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # non-main thread
                pass
        if hasattr(signal, "SIGHUP"):
            try:
                loop.add_signal_handler(signal.SIGHUP, ops.reload)
            except (NotImplementedError, RuntimeError):
                pass
        workers = []
        if cluster is not None and spawn_workers:
            from repro.service.cluster import spawn_local_workers

            workers = spawn_local_workers(host, server.port, spawn_workers)
        log.info(
            "server.start",
            f"repro serve: listening on http://{host}:{server.port} "
            f"(engine={service.engine}"
            + (f", cluster workers={spawn_workers} local + external joinable"
               if cluster is not None else "")
            + ")",
            host=host, port=server.port, engine=service.engine,
            version=__version__,
            tenants=(
                len(ops.registry) if ops.registry is not None else None
            ),
            metrics=ops.metrics is not None,
        )
        try:
            await stop.wait()
        finally:
            if workers:
                from repro.service.cluster import terminate_workers

                terminate_workers(workers)
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    log.info("server.stop", "repro serve: shut down cleanly")
    return 0
