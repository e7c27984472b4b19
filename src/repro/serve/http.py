"""Asyncio JSON-over-HTTP front-end for the tuning service.

Stdlib only: a hand-rolled HTTP/1.1 server on ``asyncio.start_server``
(the container bakes in no web framework, and the protocol is six
routes of small JSON bodies — a dependency would buy nothing).

Division of labour:

* The **event loop** owns sockets: request parsing, keep-alive,
  response framing, timeouts.  It never runs tuning code.
* A **bounded thread pool** runs the CPU-bound
  :class:`~repro.serve.sessions.SessionManager` calls (``ask`` refits
  models, ``create`` builds pools).  Admission is a semaphore sized
  ``workers + backlog``: when the pool is saturated *and* the backlog
  is full, requests are refused immediately with ``overloaded`` rather
  than queueing without bound.
* Per-request **timeouts** return a structured ``timeout`` error; the
  worker thread finishes in the background (a thread cannot be
  cancelled) and its session simply reaches its next cycle boundary.

Graceful shutdown (SIGTERM/SIGINT): stop accepting connections, refuse
new requests with ``overloaded``, wait for in-flight work to drain,
then :meth:`SessionManager.shutdown` — every session is left at a
durable cycle-boundary checkpoint, so a restarted daemon resumes
bit-identically (proven by the serve tests and the CI smoke job).

Routes (all JSON; success bodies carry ``"protocol"``)::

    GET    /v1/healthz                 liveness + manager stats
    GET    /v1/sessions                list sessions (active + evicted)
    POST   /v1/sessions                create  {"spec": {...}, "name"?}
    GET    /v1/sessions/<name>         status
    DELETE /v1/sessions/<name>[?delete=1]  close (evict) / delete
    POST   /v1/sessions/<name>/ask     propose the next batch
    POST   /v1/sessions/<name>/tell    {"ask_id": "a3"} digest it
    GET    /v1/sessions/<name>/best    best-so-far / recommendation
    POST   /v1/sessions/<name>/evict   force eviction (ops/tests)
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import signal
import sys
import threading
import time
from urllib.parse import parse_qs, urlsplit

from repro import telemetry
from repro.serve.protocol import PROTOCOL_VERSION, ServeError
from repro.serve.sessions import SessionManager

__all__ = ["BackgroundServer", "TuningServer", "run_daemon"]

#: Largest accepted request body; every real body here is < 1 KiB.
MAX_BODY_BYTES = 1 << 20

#: How long a connection refused for a malformed request keeps reading
#: (and dropping) what the client is still sending before it closes.
LINGER_SECONDS = 1.0

#: Latency histogram buckets (seconds) for request timing.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class TuningServer:
    """The daemon: a :class:`SessionManager` behind an asyncio socket."""

    def __init__(
        self,
        manager: SessionManager,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 4,
        backlog: int = 32,
        request_timeout: float = 60.0,
        drain_timeout: float = 30.0,
    ):
        self.manager = manager
        self.host = host
        self.port = port
        self.workers = max(1, int(workers))
        self.backlog = max(0, int(backlog))
        self.request_timeout = float(request_timeout)
        self.drain_timeout = float(drain_timeout)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._slots: asyncio.Semaphore | None = None
        self._stopping = False
        self._inflight = 0
        self._idle: asyncio.Event | None = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self._slots = asyncio.Semaphore(self.workers + self.backlog)
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Drain-and-checkpoint; see the module docstring."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), self.drain_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            telemetry.get().counter("serve.http.drain_timeouts").inc()
        self._executor.shutdown(wait=True)
        self.manager.shutdown()

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServeError as exc:
                    self._write_response(
                        writer, exc.http_status, exc.as_dict(), False
                    )
                    await self._linger(reader, writer)
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                status, payload = await self._dispatch(
                    method, path, query, headers, body
                )
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                    and not self._stopping
                )
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _linger(reader, writer) -> None:
        """Half-close after an error reply, then drop the unread request.

        Closing a socket whose input is still queued makes the kernel
        answer with a reset, which can destroy the reply before the
        client has read it.
        """
        await writer.drain()
        writer.write_eof()

        async def discard():
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), LINGER_SECONDS)
        except (asyncio.TimeoutError, TimeoutError):
            pass

    @classmethod
    async def _read_request(cls, reader):
        try:
            return await cls._parse_request(reader)
        except ValueError as exc:  # a line past the reader's limit, a bad URL
            raise ServeError("bad_request", f"malformed request: {exc}") from exc

    @staticmethod
    async def _parse_request(reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3:
            raise ServeError("bad_request", "malformed request line")
        method, target, _version = parts
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1", "replace").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise ServeError("bad_request", "bad Content-Length") from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise ServeError(
                "bad_request", f"body larger than {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        url = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        return method.upper(), url.path, query, headers, body

    @staticmethod
    def _write_response(writer, status, payload, keep_alive) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(self, method, path, query, headers, body):
        started = time.perf_counter()
        endpoint = "not_found"
        tel = telemetry.get()
        try:
            self._check_protocol(headers)
            data = self._parse_body(body)
            self._check_protocol_body(data)
            endpoint, handler = self._route(method, path, query, data)
            tel.counter(f"serve.http.{endpoint}.requests").inc()
            payload = await self._offload(endpoint, handler)
            payload["protocol"] = PROTOCOL_VERSION
            return 200, payload
        except ServeError as exc:
            tel.counter(f"serve.http.{endpoint}.errors").inc()
            tel.counter(f"serve.http.errors.{exc.code}").inc()
            return exc.http_status, exc.as_dict()
        except Exception as exc:  # pragma: no cover - bug trap
            tel.counter(f"serve.http.{endpoint}.errors").inc()
            err = ServeError("internal", f"{type(exc).__name__}: {exc}")
            return err.http_status, err.as_dict()
        finally:
            tel.histogram(
                f"serve.http.{endpoint}.seconds", _LATENCY_BUCKETS
            ).observe(time.perf_counter() - started)

    @staticmethod
    def _check_protocol(headers) -> None:
        advertised = headers.get("x-repro-protocol")
        if advertised is not None and advertised != str(PROTOCOL_VERSION):
            raise ServeError(
                "protocol_mismatch",
                f"client speaks protocol {advertised}, server speaks "
                f"{PROTOCOL_VERSION}",
            )

    @staticmethod
    def _check_protocol_body(data) -> None:
        advertised = data.get("protocol")
        if advertised is not None and advertised != PROTOCOL_VERSION:
            raise ServeError(
                "protocol_mismatch",
                f"client speaks protocol {advertised}, server speaks "
                f"{PROTOCOL_VERSION}",
            )

    @staticmethod
    def _parse_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServeError("bad_request", f"body is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ServeError("bad_request", "body must be a JSON object")
        return data

    def _route(self, method, path, query, data):
        manager = self.manager
        parts = [p for p in path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise ServeError("not_found", f"no route {method} {path}")
        parts = parts[1:]
        if parts == ["healthz"] and method == "GET":
            return "healthz", lambda: {"ok": True, "stats": manager.stats()}
        if parts == ["sessions"]:
            if method == "GET":
                return "list", lambda: {"sessions": manager.list_sessions()}
            if method == "POST":
                spec = data.get("spec", {})
                name = data.get("name")
                return "create", lambda: manager.create(spec, name=name)
        if len(parts) == 2 and parts[0] == "sessions":
            name = parts[1]
            if method == "GET":
                return "status", lambda: manager.status(name)
            if method == "DELETE":
                delete = query.get("delete", "") in ("1", "true", "yes") or (
                    data.get("delete") is True
                )
                return "close", lambda: manager.close(name, delete=delete)
        if len(parts) == 3 and parts[0] == "sessions":
            name, action = parts[1], parts[2]
            if action == "ask" and method == "POST":
                return "ask", lambda: manager.ask(name)
            if action == "tell" and method == "POST":
                return "tell", lambda: manager.tell(name, data.get("ask_id"))
            if action == "best" and method == "GET":
                return "best", lambda: manager.best(name)
            if action == "evict" and method == "POST":
                return "evict", lambda: {
                    "session": name, "evicted": manager.evict(name)
                }
        raise ServeError("not_found", f"no route {method} {path}")

    async def _offload(self, endpoint, handler) -> dict:
        """Run ``handler`` on the worker pool under admission control."""
        if self._stopping:
            raise ServeError("overloaded", "server is draining")
        if self._slots.locked():
            raise ServeError(
                "overloaded",
                f"worker pool saturated ({self.workers} workers, "
                f"{self.backlog} backlog)",
            )
        await self._slots.acquire()
        self._inflight += 1
        self._idle.clear()
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._executor, handler)
            try:
                return await asyncio.wait_for(future, self.request_timeout)
            except (asyncio.TimeoutError, TimeoutError):
                telemetry.get().counter("serve.http.timeouts").inc()
                raise ServeError(
                    "timeout",
                    f"{endpoint} exceeded {self.request_timeout:g}s",
                ) from None
        finally:
            self._slots.release()
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()


def run_daemon(
    manager: SessionManager,
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    workers: int = 4,
    backlog: int = 32,
    request_timeout: float = 60.0,
    drain_timeout: float = 30.0,
    out=None,
    ready=None,
) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns a CLI exit code.

    Prints one machine-greppable readiness line (``listening on ...``)
    so wrappers (CI smoke, perfbench's ``served_churn``) can wait for startup,
    and exits 0 on a graceful signal — the CLI then flushes telemetry
    through the normal post-command path.
    """
    out = out if out is not None else sys.stdout
    server = TuningServer(
        manager,
        host,
        port,
        workers=workers,
        backlog=backlog,
        request_timeout=request_timeout,
        drain_timeout=drain_timeout,
    )

    async def _amain() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await server.start()
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(sessions={server.manager.stats()['known']}, "
            f"workers={server.workers})",
            file=out,
            flush=True,
        )
        if ready is not None:
            ready(server)
        await stop.wait()
        print("repro serve: draining...", file=out, flush=True)
        await server.stop()
        print("repro serve: checkpointed and stopped", file=out, flush=True)

    with telemetry.get().span(
        "serve.daemon", category="serve", host=host, workers=workers
    ):
        asyncio.run(_amain())
    return 0


class BackgroundServer:
    """An in-process daemon on a background thread (tests).

    Usage::

        with BackgroundServer(manager) as server:
            client = ServeClient(port=server.port)
            ...

    The context exit performs the same graceful drain as SIGTERM.
    """

    def __init__(self, manager: SessionManager, **kwargs):
        self.manager = manager
        self.kwargs = dict(kwargs)
        self.kwargs.setdefault("port", 0)
        self.host = self.kwargs.setdefault("host", "127.0.0.1")
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-daemon", daemon=True
        )

    def _run(self) -> None:
        async def _amain() -> None:
            server = TuningServer(self.manager, **self.kwargs)
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await server.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                raise
            self.port = server.port
            self._ready.set()
            await self._stop.wait()
            await server.stop()

        asyncio.run(_amain())

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve daemon failed to start in 30s")
        if self._failure is not None:
            raise RuntimeError(
                f"serve daemon failed to start: {self._failure}"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60.0)
