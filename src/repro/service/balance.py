"""``repro-serve balance`` — a round-robin HTTP balancer on the event loop.

The pool (:mod:`repro.service.workers`) scales one machine; the
replication layer (:mod:`repro.service.replica`) scales to many.  What
joins them into one endpoint is deliberately boring: a reverse proxy
that round-robins requests across backends, **ejects** a backend whose
``/v1/ready`` probe fails (a follower that fell past its staleness
bound answers 503 there — that is the contract this proxy consumes),
and **re-admits** it as soon as the probe passes again.

The front is the same :class:`~repro.service.eventloop.EventLoopServer`
every ``serve`` process runs — one parser, writer, keep-alive, idle
sweep and lingering close — with this module's :class:`Balancer` as
its service.  A GET or HEAD becomes a non-blocking upstream exchange on
the loop's own selector, over a small pool of idle keep-alive
connections per backend (connects are non-blocking too), so a proxied
read costs no thread and, in steady state, no TCP connect.  A HEAD is
sent upstream as a GET, so it answers the representation's
``Content-Length`` exactly as the backend answers a HEAD; the loop drops
the body.  A POST runs on the loop's POST worker thread over a fresh
blocking connection.

No queueing, no weights, no sticky sessions: every backend serves
byte-identical payloads for a given store version (the differential
tests assert it), so any admitted backend is as good as any other and
round-robin is optimal.  Connection errors are the proxy's to absorb;
HTTP statuses (including a backend's own 5xx) are the backend's to
answer and pass through verbatim.  Retries respect idempotency:

* **GET/HEAD** are retried on the next admitted backend after *any*
  connection failure, a malformed response or an exchange past
  ``timeout`` — re-reading is always safe — and the failing backend is
  ejected.  A *pooled* connection that reaches EOF or a reset before a
  single response byte was closed by the backend while idle: the read
  is retried once on a fresh connection to the same backend, with no
  error counted and no ejection.
* **POST** (and anything else non-idempotent) goes only to admitted
  backends whose last ``/v1/ready`` answer did not name the
  ``follower`` role (a follower is read-only and answers 403), and
  fails over only when the connection died *before* the request was
  transmitted.  Once any request byte may have reached a backend, a
  replay could apply the same ingest twice (the first backend may have
  appended the day and died before answering), so the proxy answers
  502 and leaves the retry decision to the client, who can ask the
  store whether the write landed.

Every request carries an ``X-Request-Id`` upstream: the client's,
verbatim, or one minted here, echoed on the answer either way, so a
client's id, the balancer's and the backend's log lines correlate.

``GET /v1/balancer`` on the proxy itself reports the rotation: per
backend admitted/ejected state, last probed role, probe counters,
proxied request tallies, ejection/re-admission counts.  ``GET
/v1/metrics`` exports the same tallies (plus this process's HTTP
metrics) in the Prometheus text format.
"""

from __future__ import annotations

import errno
import json
import os
import selectors
import socket
import threading
import time
from typing import Any, Callable, Optional
from urllib.parse import urlsplit

from repro.obs import logging as obslog
from repro.obs import metrics, tracing
from repro.service.api import Response, json_bytes
from repro.service.eventloop import EventLoopServer, Pending

__all__ = ["Backend", "Balancer"]

#: Methods safe to replay on another backend after a mid-request
#: connection failure (RFC 9110 §9.2.2).
_IDEMPOTENT_METHODS = frozenset({"GET", "HEAD"})

#: Idle keep-alive connections kept per backend.  The loop proxies one
#: read per upstream connection at a time, so this bounds how many
#: concurrent reads keep their connection; beyond it, a finished
#: connection is closed instead of pooled.
_IDLE_PER_BACKEND = 16

#: Longest upstream response head accepted.
_MAX_RESPONSE_HEAD = 1 << 16

_RECV_CHUNK = 65536

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE

#: Headers the proxy does not copy between client and backend: the
#: hop-by-hop set (each side frames its own connection), the ones each
#: hop writes itself (``Host``, ``Server``, ``Date``, ``Content-Length``)
#: and ``X-Request-Id``, which the proxy sets on both legs.
_NOT_FORWARDED = frozenset({
    "connection", "keep-alive", "proxy-authenticate",
    "proxy-authorization", "te", "trailers", "transfer-encoding",
    "upgrade", "host", "content-length", "server", "date", "x-request-id",
})

#: Per-backend tallies exported by ``GET /v1/metrics``.
_COUNTERS = (
    ("requests", "Requests proxied to the backend (each attempt)."),
    ("errors", "Connection failures, malformed answers and timeouts."),
    ("ejections", "Times the backend left the rotation."),
    ("readmissions", "Times the backend re-entered the rotation."),
    ("retries", "Attempts on the backend that retried a failed one."),
    ("upstream_connects", "TCP connections opened to the backend for "
                          "proxied requests."),
)


def _error_response(status: int, message: str) -> Response:
    """The API layer's canonical JSON error envelope."""
    return Response(status,
                    json_bytes({"error": {"status": status,
                                          "message": message}}),
                    {"Content-Type": "application/json"})


class _ConnectFailed(OSError):
    """Connection failed before a single request byte was transmitted."""


class _BadResponse(OSError):
    """The backend answered something this proxy cannot frame."""


def _request_bytes(method: str, target: str, backend: "Backend",
                   headers: dict[str, str], body: bytes,
                   trace_id: Optional[str]) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", f"Host: {backend.netloc}"]
    # A bare CR inside a client's header could read as a line break
    # to some other parser upstream: such a header is not forwarded.
    lines += [f"{name}: {value}" for name, value in headers.items()
              if name.lower() not in _NOT_FORWARDED
              and "\r" not in name + value]
    if trace_id:
        lines.append(f"X-Request-Id: {trace_id}")
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _parse_response(buf: bytearray, eof: bool
                    ) -> Optional[tuple[Response, bool]]:
    """One upstream response off ``buf``: ``(response, reusable)``.

    ``None`` while incomplete.  Bodies are framed by ``Content-Length``;
    a response without one is close-delimited (complete at EOF, and its
    connection is not reused), as is any answer with ``Connection:
    close`` or from HTTP/1.0.  Raises :class:`_BadResponse` for framing
    it cannot follow.
    """
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        if eof or len(buf) > _MAX_RESPONSE_HEAD:
            raise _BadResponse("truncated or oversized response head")
        return None
    lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
    version, _, rest = lines[0].partition(" ")
    if not (version.startswith("HTTP/1.") and rest[:3].isdecimal()):
        raise _BadResponse(f"bad status line {lines[0][:80]!r}")
    status = int(rest[:3])
    reusable = version == "HTTP/1.1"
    length: Optional[int] = None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name, value = name.strip(), value.strip()
        key = name.lower()
        if key == "content-length":
            if not (value.isascii() and value.isdecimal()):
                raise _BadResponse(f"bad Content-Length {value[:40]!r}")
            length = int(value)
        elif key == "connection" and "close" in value.lower():
            reusable = False
        elif key == "transfer-encoding":
            raise _BadResponse("transfer-encoded responses are not supported")
        if key not in _NOT_FORWARDED:
            headers[name] = value
    start = end + 4
    if status in (204, 304):
        length = 0
    if length is None:
        if not eof:
            return None
        return Response(status, bytes(buf[start:]), headers), False
    if len(buf) - start < length:
        if eof:
            raise _BadResponse("response body shorter than Content-Length")
        return None
    reusable = reusable and len(buf) == start + length
    return Response(status, bytes(buf[start:start + length]), headers), \
        reusable


def _blocking_connect(backend: "Backend", timeout: float) -> socket.socket:
    """A fresh blocking connection (POSTs and probes); nothing sent yet."""
    try:
        return socket.create_connection((backend.host, backend.port),
                                        timeout=timeout)
    except OSError as error:
        raise _ConnectFailed(str(error)) from error


def _blocking_exchange(sock: socket.socket, request: bytes) -> Response:
    """Send ``request`` on ``sock``, read the answer, close ``sock``."""
    with sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(request)
        buf = bytearray()
        while True:
            data = sock.recv(_RECV_CHUNK)
            buf += data
            parsed = _parse_response(buf, eof=not data)
            if parsed is not None:
                return parsed[0]


def _probe_role(body: bytes) -> Optional[str]:
    """The ``role`` a ``/v1/ready`` body names, or ``None``."""
    try:
        role = json.loads(body).get("role")
    except (ValueError, AttributeError):
        return None
    return role if isinstance(role, str) else None


class Backend:
    """One upstream server in the rotation."""

    def __init__(self, url: str) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http") or parts.hostname is None:
            raise ValueError(f"backend must be a plain http URL (got {url!r})")
        self.host: str = parts.hostname
        self.port: int = parts.port or 80
        self.netloc = f"{self.host}:{self.port}"
        self.url = f"http://{self.netloc}"
        self.admitted = True
        #: ``role`` from the last ``/v1/ready`` answer (``None`` until one
        #: arrives); a ``follower`` takes no POSTs.
        self.role: Optional[str] = None
        self.consecutive_failures = 0
        self.probes = 0
        self.requests = 0
        self.errors = 0
        self.ejections = 0
        self.readmissions = 0
        self.retries = 0
        self.upstream_connects = 0
        self.last_probe_error: Optional[str] = None
        #: Idle keep-alive connections; touched only on the loop thread.
        self.idle: list[_Upstream] = []

    def describe(self) -> dict[str, Any]:
        return {
            "url": self.url,
            "admitted": self.admitted,
            "role": self.role,
            "probes": self.probes,
            "consecutive_failures": self.consecutive_failures,
            "requests": self.requests,
            "errors": self.errors,
            "ejections": self.ejections,
            "readmissions": self.readmissions,
            "retries": self.retries,
            "upstream_connects": self.upstream_connects,
            "last_probe_error": self.last_probe_error,
        }


class _Upstream:
    """One non-blocking connection to a backend, owned by the loop thread.

    Registered on the loop's selector for its whole life with
    :meth:`on_event` as the key's data: while it carries an exchange it
    sends the request and reads the answer; while idle in the pool a
    readable event means the backend closed it, and it is discarded.
    """

    __slots__ = ("balancer", "backend", "sock", "connecting", "out", "buf",
                 "exchange", "events")

    def __init__(self, balancer: "Balancer", backend: Backend,
                 sock: socket.socket, connecting: bool) -> None:
        self.balancer = balancer
        self.backend = backend
        self.sock: Optional[socket.socket] = sock
        self.connecting = connecting
        self.out = b""
        self.buf = bytearray()
        self.exchange: Optional[_Exchange] = None
        self.events = _WRITE if connecting else _READ
        balancer.server.selector.register(sock, self.events,
                                          data=self.on_event)

    def send(self, exchange: "_Exchange", request: bytes) -> None:
        self.exchange = exchange
        self.out = request
        if not self.connecting:
            self._write()
        self._watch()

    def _watch(self) -> None:
        if self.sock is None:
            return
        events = _WRITE if (self.out or self.connecting) else _READ
        if events != self.events:
            self.balancer.server.selector.modify(self.sock, events,
                                                 data=self.on_event)
            self.events = events

    def on_event(self, mask: int) -> None:
        if self.exchange is None:
            self.balancer.discard(self)  # closed (or junk) while idle
            return
        if self.connecting:
            error = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if error:
                self._broken(_ConnectFailed(error, os.strerror(error)))
                return
            self.connecting = False
            self._write()
        elif mask & _WRITE:
            self._write()
        if self.sock is not None and not self.out:
            self._read()
        self._watch()

    def _write(self) -> None:
        try:
            sent = self.sock.send(self.out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as error:
            self._broken(error)
            return
        self.out = self.out[sent:]

    def _read(self) -> None:
        while self.sock is not None:
            try:
                data = self.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as error:
                self._broken(error)
                return
            self.buf += data
            try:
                parsed = _parse_response(self.buf, eof=not data)
            except _BadResponse as error:
                self._broken(error)
                return
            if parsed is not None:
                response, reusable = parsed
                exchange, self.exchange = self.exchange, None
                self.buf.clear()
                exchange.answered(self, response, reusable)
                return
            if len(data) < _RECV_CHUNK:
                return

    def _broken(self, error: OSError) -> None:
        exchange, self.exchange = self.exchange, None
        got_bytes = bool(self.buf)
        self.close()
        exchange.broken(self, error, got_bytes)

    def close(self) -> None:
        if self.sock is None:
            return
        try:
            self.balancer.server.selector.unregister(self.sock)
        except (KeyError, ValueError):
            pass
        self.sock.close()
        self.sock = None


class _Exchange(Pending):
    """One proxied GET/HEAD, attempted on admitted backends in turn."""

    def __init__(self, balancer: "Balancer", target: str,
                 headers: dict[str, str], trace_id: Optional[str]) -> None:
        self.balancer = balancer
        self.target = target
        self.headers = headers
        self.trace_id = trace_id
        self.attempts_left = len(balancer.backends)
        self.upstream: Optional[_Upstream] = None
        self.reused = False
        self.finish: Callable[[Response], None]

    def start(self, finish: Callable[[Response], None]) -> None:
        self.finish = finish
        self._attempt(retry=False)

    def _attempt(self, retry: bool) -> None:
        backend = self.balancer.pick(retry=retry) \
            if self.attempts_left else None
        if backend is None:
            self.finish(self.balancer.unavailable())
            return
        self.attempts_left -= 1
        self._send(backend, reuse=True)

    def _send(self, backend: Backend, reuse: bool) -> None:
        balancer = self.balancer
        upstream = backend.idle.pop() if reuse and backend.idle else None
        self.reused = upstream is not None
        if upstream is None:
            try:
                upstream = balancer.connect(backend)
            except OSError:
                self._failed(backend, "connection failure")
                return
        self.upstream = upstream
        self.deadline = time.monotonic() + balancer.timeout
        upstream.send(self, _request_bytes(
            "GET", self.target, backend, self.headers, b"", self.trace_id))

    def answered(self, upstream: _Upstream, response: Response,
                 reusable: bool) -> None:
        self.upstream = None
        self.balancer.release(upstream, reusable)
        self.finish(response)

    def broken(self, upstream: _Upstream, error: OSError,
               got_bytes: bool) -> None:
        self.upstream = None
        backend = upstream.backend
        if self.reused and not got_bytes:
            # The backend closed this pooled connection while it sat
            # idle: not a backend failure.  One retry, on a fresh one.
            self.balancer.count_retry(backend)
            self._send(backend, reuse=False)
            return
        self._failed(backend, "connection failure mid-request")

    def expire(self) -> None:
        upstream, self.upstream = self.upstream, None
        if upstream is None:
            return  # answered; the loop resumes the connection next
        upstream.exchange = None
        upstream.close()
        self._failed(upstream.backend, "upstream timeout")

    def _failed(self, backend: Backend, reason: str) -> None:
        self.balancer.record_failure(backend, reason)
        self._attempt(retry=True)


class Balancer:
    """Round-robin proxy with readiness-driven ejection.

    ``start()`` boots the health-check thread and the proxy's event
    loop; ``stop()`` drains both.  ``eject_after`` consecutive failed
    probes remove a backend from rotation; one passing probe re-admits
    it.  A proxied request that fails at the connection level also
    ejects its backend immediately — faster than waiting out a probe
    period — and is retried on the next admitted backend.  ``timeout``
    bounds each upstream exchange (and each probe).
    """

    def __init__(self, backends: list[str] | list[Backend], *,
                 host: str = "127.0.0.1", port: int = 0,
                 check_interval: float = 0.25, eject_after: int = 1,
                 timeout: float = 10.0) -> None:
        if not backends:
            raise ValueError("at least one backend required")
        if eject_after < 1:
            raise ValueError(f"eject_after must be >= 1 (got {eject_after})")
        self.backends = [b if isinstance(b, Backend) else Backend(b)
                         for b in backends]
        self.host = host
        self._requested_port = port
        self.check_interval = check_interval
        self.eject_after = eject_after
        self.timeout = timeout
        self.port: Optional[int] = None
        self.server: Optional[EventLoopServer] = None
        self._lock = threading.Lock()
        self._rr = 0
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- rotation ---------------------------------------------------------
    def pick(self, retry: bool = False,
             writes: bool = False) -> Optional[Backend]:
        """Next admitted backend (round-robin), or ``None`` if all out.

        ``writes`` skips read-only followers.  Counts the request
        against the backend it returns (and, for ``retry``, the retry).
        """
        with self._lock:
            admitted = [b for b in self.backends if b.admitted and not (
                writes and b.role == "follower")]
            if not admitted:
                return None
            backend = admitted[self._rr % len(admitted)]
            self._rr += 1
            backend.requests += 1
            if retry:
                backend.retries += 1
            return backend

    def count_retry(self, backend: Backend) -> None:
        with self._lock:
            backend.retries += 1

    def record_failure(self, backend: Backend, reason: str) -> None:
        """A proxied request failed at the connection level: eject."""
        with self._lock:
            backend.errors += 1
        self._eject(backend, reason)

    def _eject(self, backend: Backend, reason: str) -> None:
        with self._lock:
            if not backend.admitted:
                return
            backend.admitted = False
            backend.ejections += 1
        if self.server is not None:
            self.server.call_soon(lambda: self._close_idle(backend))
        obslog.log_event("balance.eject", level="warning",
                         backend=backend.url, reason=reason)

    def _readmit(self, backend: Backend) -> None:
        with self._lock:
            if backend.admitted:
                return
            backend.admitted = True
            backend.readmissions += 1
        obslog.log_event("balance.readmit", backend=backend.url)

    # -- upstream connections (loop thread) -------------------------------
    def connect(self, backend: Backend) -> _Upstream:
        """Open a non-blocking connection; raises if it fails at once."""
        family, kind, proto, _, address = socket.getaddrinfo(
            backend.host, backend.port, type=socket.SOCK_STREAM)[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            error = sock.connect_ex(address)
            if error not in (0, errno.EINPROGRESS):
                raise _ConnectFailed(error, os.strerror(error))
            upstream = _Upstream(self, backend, sock, connecting=bool(error))
        except BaseException:
            sock.close()
            raise
        with self._lock:
            backend.upstream_connects += 1
        return upstream

    def release(self, upstream: _Upstream, reusable: bool) -> None:
        """Pool a connection whose exchange finished, or close it."""
        backend = upstream.backend
        if (reusable and not upstream.out and backend.admitted
                and len(backend.idle) < _IDLE_PER_BACKEND):
            backend.idle.append(upstream)
        else:
            upstream.close()

    def discard(self, upstream: _Upstream) -> None:
        """Drop an idle connection the backend closed."""
        if upstream in upstream.backend.idle:
            upstream.backend.idle.remove(upstream)
        upstream.close()

    def _close_idle(self, backend: Backend) -> None:
        if backend.admitted:
            return  # re-admitted meanwhile
        while backend.idle:
            backend.idle.pop().close()

    # -- health probing ---------------------------------------------------
    def check_once(self) -> None:
        """Probe every backend's ``/v1/ready`` once and adjust rotation."""
        for backend in self.backends:
            backend.probes += 1
            request = _request_bytes("GET", "/v1/ready", backend, {}, b"",
                                     None)
            try:
                response = _blocking_exchange(
                    _blocking_connect(backend, self.timeout), request)
                ok = response.status == 200
                error = None if ok else f"status {response.status}"
            except OSError as probe_error:
                ok = False
                error = f"{type(probe_error).__name__}: {probe_error}"
            else:
                backend.role = _probe_role(response.body)
            backend.last_probe_error = error
            if ok:
                backend.consecutive_failures = 0
                self._readmit(backend)
            else:
                backend.consecutive_failures += 1
                if backend.consecutive_failures >= self.eject_after:
                    self._eject(backend, error or "probe failed")

    def _probe_loop(self) -> None:
        # start() already probed once: the next round is one interval on.
        while not self._stop.wait(self.check_interval):
            self.check_once()

    # -- status -----------------------------------------------------------
    def status(self) -> dict[str, Any]:
        with self._lock:
            backends = [b.describe() for b in self.backends]
        return {
            "service": "repro-serve balance",
            "port": self.port,
            "check_interval": self.check_interval,
            "eject_after": self.eject_after,
            "admitted": sum(1 for b in backends if b["admitted"]),
            "backends": backends,
        }

    def _metrics_families(self) -> list:
        """Per-backend tallies as render-time sample families."""
        with self._lock:
            rows = [(b.url, b.admitted,
                     [getattr(b, key) for key, _ in _COUNTERS])
                    for b in self.backends]
        families = [
            (f"repro_balancer_{key}_total", "counter", help,
             [({"backend": url}, values[i]) for url, _, values in rows])
            for i, (key, help) in enumerate(_COUNTERS)]
        families.append((
            "repro_balancer_admitted", "gauge",
            "1 while the backend is in the rotation, else 0.",
            [({"backend": url}, int(admitted)) for url, admitted, _ in rows]))
        return families

    def unavailable(self) -> Response:
        response = _error_response(503, "no admitted backend available")
        response.headers["Retry-After"] = "1"
        return response

    # -- proxying ---------------------------------------------------------
    def handle_request(self, target: str, headers: dict[str, str],
                       method: str = "GET", body: bytes = b""
                       ) -> Response | Pending:
        """The front loop's service: the proxy's own endpoints, or a
        proxied request (GET/HEAD on the loop, anything else blocking
        on the POST worker)."""
        if target == "/v1/balancer":
            return Response(200, (json.dumps(self.status(), indent=2)
                                  + "\n").encode("utf-8"),
                            {"Content-Type": "application/json"})
        if target == "/v1/metrics":
            return Response(200, metrics.render(
                extra=self._metrics_families()), {
                "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                "Cache-Control": "no-store"})
        if method in _IDEMPOTENT_METHODS:
            return _Exchange(self, target, headers,
                             tracing.current_trace_id())
        return self.handle(method, target, headers, body)

    def handle(self, method: str, path: str, headers: dict[str, str],
               body: bytes) -> Response:
        """Route one non-idempotent request over a fresh blocking
        connection: fail over only while nothing was transmitted."""
        trace_id = tracing.current_trace_id()
        for attempt in range(len(self.backends)):
            backend = self.pick(retry=attempt > 0, writes=True)
            if backend is None:
                break
            try:
                sock = _blocking_connect(backend, self.timeout)
            except _ConnectFailed:
                self.record_failure(backend, "connection failure")
                continue
            with self._lock:
                backend.upstream_connects += 1
            try:
                return _blocking_exchange(sock, _request_bytes(
                    method, path, backend, headers, body, trace_id))
            except OSError:
                self.record_failure(backend,
                                    "connection failure mid-request")
                # The request (an ingest, say) may already have been
                # applied by the dead backend; replaying it elsewhere
                # could double-apply.  Surface the ambiguity instead.
                obslog.log_event("balance.abort_nonidempotent",
                                 level="warning", backend=backend.url,
                                 method=method, path=path)
                return _error_response(
                    502, "backend connection lost after the request was "
                         "sent; not retried because the method is not "
                         "idempotent — the request may have been applied")
        return self.unavailable()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "Balancer":
        self.server = EventLoopServer(self, self.host, self._requested_port)
        self.port = self.server.server_address[1]
        self.check_once()  # seed rotation state before the first request
        for name, target in (("balance-probe", self._probe_loop),
                             ("balance-serve", self.server.serve_forever)):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        obslog.log_event("balance.start", port=self.port,
                         backends=[b.url for b in self.backends])
        return self

    def __enter__(self) -> "Balancer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        if self._stop.is_set():
            return
        self._stop.set()
        if self.server is not None:
            self.server.shutdown()  # drains in-flight exchanges
        for thread in self._threads:
            thread.join(timeout=5)
        if self.server is not None:
            for backend in self.backends:  # the loop has stopped
                while backend.idle:
                    backend.idle.pop().close()
            self.server.server_close()
        obslog.log_event("balance.stop", port=self.port)
