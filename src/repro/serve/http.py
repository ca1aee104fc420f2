"""Stdlib-only HTTP/1.1 front end on raw asyncio streams.

No ``http.server``, no threads per connection: one
:class:`ExperimentServer` owns an :class:`ExperimentService` and
serves keep-alive connections straight off the event loop, so a warm
cache hit is answered without ever leaving it.

Endpoints
---------
``GET  /v1/healthz``               liveness probe
``GET  /v1/stats``                 queue depths, hit rate, latency
                                   percentiles, engine counters
``POST /v1/jobs``                  submit a job batch;
                                   body ``{"jobs": [...], "lane":
                                   "interactive"|"bulk", "wait":
                                   bool, "include_stats": bool}``.
                                   ``wait`` (default true) answers
                                   with every result inline;
                                   otherwise a batch id for polling/
                                   streaming.  Overload -> 429 with
                                   ``Retry-After``.
``GET  /v1/batches/<id>``          batch status (done counts,
                                   per-job state)
``GET  /v1/batches/<id>/stream``   NDJSON progress stream: one line
                                   per job in completion order, then
                                   a summary line
``POST /v1/shutdown``              graceful stop (CI and tests)
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from urllib.parse import urlsplit

from repro.errors import ServeError, ServeOverloadedError
from repro.serve.protocol import job_from_dict, run_to_dict
from repro.serve.service import WARM, ExperimentService, ServeConfig

#: Largest accepted request body (a fig4-scale batch is ~100 KiB;
#: this bounds a misbehaving client, not a legitimate sweep).
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


class _HttpError(Exception):
    """Route-level failure that maps straight to a status code."""

    def __init__(self, status: int, message: str,
                 headers: dict | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    def json(self):
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError:
            raise _HttpError(400, "request body is not valid JSON") \
                from None


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line; a line over the stream's limit is a 400 (``readline``
    reports it as a ``ValueError``)."""
    try:
        return await reader.readline()
    except ValueError:
        raise _HttpError(400, f"{what} too long") from None


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one HTTP/1.1 request; None on a cleanly closed socket."""
    try:
        line = await _read_line(reader, "request line")
    except ConnectionError:
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        raw = await _read_line(reader, "header line")
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 100:
            raise _HttpError(400, "too many headers")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length < 0:
        raise _HttpError(400, "bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    return _Request(method.upper(), split.path, split.query, headers,
                    body)


def _encode_response(status: int, body: bytes,
                     content_type: str = "application/json",
                     headers: dict | None = None,
                     keep_alive: bool = True) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


class ExperimentServer:
    """The asyncio HTTP server wrapping one :class:`ExperimentService`."""

    def __init__(self, service: ExperimentService | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service or ExperimentService()
        self.host = host
        self.port = port  #: 0 until :meth:`start` binds a socket
        self._server: asyncio.AbstractServer | None = None
        self._stopped = asyncio.Event()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "ExperimentServer":
        """Bind the socket and start the service dispatcher."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (the shutdown endpoint) fires."""
        await self._stopped.wait()
        await self.aclose()

    def stop(self) -> None:
        self._stopped.set()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    writer.write(_encode_response(
                        exc.status, _json_body({"error": str(exc)}),
                        keep_alive=False))
                    break
                if request is None:
                    break
                keep_alive = request.headers.get(
                    "connection", "keep-alive").lower() != "close"
                try:
                    handled = await self._route(request, writer,
                                                keep_alive)
                except _HttpError as exc:
                    writer.write(_encode_response(
                        exc.status, _json_body({"error": str(exc)}),
                        headers=exc.headers, keep_alive=keep_alive))
                except ServeOverloadedError as exc:
                    writer.write(_encode_response(
                        429, _json_body({
                            "error": str(exc),
                            "retry_after_s": exc.retry_after}),
                        headers={"Retry-After":
                                 f"{max(1, round(exc.retry_after))}"},
                        keep_alive=keep_alive))
                except ServeError as exc:
                    writer.write(_encode_response(
                        400, _json_body({"error": str(exc)}),
                        keep_alive=keep_alive))
                except Exception as exc:  # never kill the connection loop
                    writer.write(_encode_response(
                        500, _json_body({"error": f"internal: {exc}"}),
                        keep_alive=False))
                    keep_alive = False
                else:
                    if handled == "close":
                        keep_alive = False
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            pass  # server shutdown cancels in-flight connections
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: _Request, writer,
                     keep_alive: bool) -> str | None:
        method, path = request.method, request.path
        if path == "/v1/healthz" and method == "GET":
            return self._reply(writer, keep_alive, {"ok": True})
        if path == "/v1/stats" and method == "GET":
            return self._reply(writer, keep_alive,
                               self.service.stats())
        if path == "/v1/jobs" and method == "POST":
            return await self._submit(request, writer, keep_alive)
        if path == "/v1/shutdown" and method == "POST":
            self._reply(writer, False, {"ok": True,
                                        "stopping": True})
            self.stop()
            return "close"
        if path.startswith("/v1/batches/") and method == "GET":
            rest = path[len("/v1/batches/"):]
            if rest.endswith("/stream"):
                return await self._stream(rest[:-len("/stream")],
                                          writer)
            return self._status(rest, writer, keep_alive)
        if path.startswith("/v1/"):
            raise _HttpError(404, f"no such endpoint: "
                                  f"{method} {path}")
        raise _HttpError(404, "unknown path (the API lives under /v1/)")

    def _reply(self, writer, keep_alive: bool, payload: dict,
               status: int = 200) -> None:
        writer.write(_encode_response(status, _json_body(payload),
                                      keep_alive=keep_alive))
        return None

    # -- endpoints -----------------------------------------------------
    async def _submit(self, request: _Request, writer,
                      keep_alive: bool) -> None:
        t0 = time.perf_counter()
        payload = request.json()
        specs = payload.get("jobs")
        if not isinstance(specs, list) or not specs:
            raise ServeError('body needs a non-empty "jobs" array')
        jobs = [job_from_dict(spec) for spec in specs]
        lane = payload.get("lane", "interactive")
        include_stats = bool(payload.get("include_stats", False))
        handle = self.service.submit(jobs, lane=lane)
        if not payload.get("wait", True):
            return self._reply(writer, keep_alive, {
                "batch": handle.id, "lane": lane,
                "total": handle.total, "counts": handle.counts()})
        results = await handle.results()
        body = {
            "batch": handle.id,
            "lane": lane,
            "counts": handle.counts(),
            "elapsed_ms": round(1e3 * (time.perf_counter() - t0), 3),
            "results": [
                _result_payload(entry, result, include_stats)
                for entry, result in zip(handle.entries, results)
            ],
        }
        return self._reply(writer, keep_alive, body)

    def _status(self, batch_id: str, writer,
                keep_alive: bool) -> None:
        try:
            handle = self.service.batch(batch_id)
        except ServeError as exc:
            raise _HttpError(404, str(exc)) from None
        jobs = []
        for entry in handle.entries:
            state = "done"
            if entry["source"] != WARM:
                future = entry["future"]
                if not future.done():
                    state = "pending"
                elif future.exception() is not None:
                    state = "error"
            jobs.append({"index": entry["index"], "key": entry["key"],
                         "source": entry["source"], "state": state})
        return self._reply(writer, keep_alive, {
            "batch": handle.id, "lane": handle.lane,
            "total": handle.total, "done": handle.done_count(),
            "counts": handle.counts(), "jobs": jobs})

    async def _stream(self, batch_id: str, writer) -> str:
        """NDJSON progress: jobs in completion order, then a summary.

        The response is close-delimited (no Content-Length), so lines
        flow to the client the moment each job finishes.
        """
        try:
            handle = self.service.batch(batch_id)
        except ServeError as exc:
            raise _HttpError(404, str(exc)) from None
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        warm = [e for e in handle.entries if e["source"] == WARM]
        pending = {e["future"]: e for e in handle.entries
                   if e["source"] != WARM}
        errors = 0
        for entry in warm:
            writer.write(_json_body(_result_payload(
                entry, entry["run"], False)))
        await writer.drain()
        futures = set(pending)
        while futures:
            done, futures = await asyncio.wait(
                futures, return_when=asyncio.FIRST_COMPLETED)
            for future in done:
                entry = pending[future]
                result = (future.exception()
                          if future.exception() is not None
                          else future.result())
                if isinstance(result, Exception):
                    errors += 1
                writer.write(_json_body(_result_payload(
                    entry, result, False)))
            await writer.drain()
        writer.write(_json_body({
            "done": True, "batch": handle.id, "total": handle.total,
            "errors": errors, "counts": handle.counts()}))
        await writer.drain()
        return "close"


def _json_body(payload: dict) -> bytes:
    """``payload`` as one compact JSON line: a whole response body, or
    one line of an NDJSON stream."""
    return (json.dumps(payload, separators=(",", ":"))
            + "\n").encode()


def _result_payload(entry: dict, result, include_stats: bool) -> dict:
    payload = {"index": entry["index"], "key": entry["key"],
               "source": entry["source"]}
    if isinstance(result, Exception):
        payload["error"] = str(result)
    else:
        payload.update(run_to_dict(result,
                                   include_stats=include_stats))
    return payload


# ======================================================================
# Embedded server (tests, benches, and `repro serve`)
# ======================================================================
async def _amain(server: ExperimentServer,
                 ready: "threading.Event | None" = None,
                 announce=None) -> None:
    await server.start()
    if announce is not None:
        announce(server)
    if ready is not None:
        ready.set()
    await server.serve_forever()


def serve_forever(service: ExperimentService | None = None,
                  host: str = "127.0.0.1", port: int = 0,
                  announce=None) -> None:
    """Blocking entry point: run a server until shut down (the CLI's
    ``repro serve``).  ``announce(server)`` fires once the socket is
    bound — print the URL there."""
    server = ExperimentServer(service=service, host=host, port=port)
    asyncio.run(_amain(server, announce=announce))


class ServerThread:
    """An :class:`ExperimentServer` on a background thread.

    The test suite embeds the whole server in-process::

        with ServerThread(ServeConfig(...)) as server:
            client = ServeClient(server.url)
            ...

    The context exit requests shutdown and joins the thread.
    """

    def __init__(self, config: ServeConfig | None = None,
                 engine=None, host: str = "127.0.0.1", port: int = 0,
                 start_timeout: float = 20.0):
        self.service = ExperimentService(engine=engine, config=config)
        self.server = ExperimentServer(service=self.service,
                                       host=host, port=port)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True)
        self._start_timeout = start_timeout

    def _run(self) -> None:
        asyncio.run(_amain(self.server, ready=self._ready))

    @property
    def url(self) -> str:
        return self.server.url

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(self._start_timeout):
            raise ServeError("embedded server failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.serve.client import ServeClient

        try:
            with ServeClient(self.url, timeout=5.0) as client:
                client.shutdown()
        except ServeError:
            pass  # already down
        self._thread.join(timeout=self._start_timeout)
