"""``selectors``/epoll event-loop HTTP server: the one ``/v1`` transport.

Every ``repro-serve serve`` process runs this server: the single-process
leader, the ``--follow`` follower, and each process of the pre-fork
pool, writer included.  It serves the
:class:`~repro.service.api.QueryService` contract from one non-blocking
loop, so an idle keep-alive connection costs one registered file
descriptor and a ~200-byte state object, not a thread.

The wire semantics are locked down by ``tests/test_service_keepalive.py``
and ``tests/test_service_fuzz.py``:

* clean client errors (404/400/405-without-body) answer inside the
  persistent connection; protocol failures (chunked, missing/oversized/
  short ``Content-Length``) answer with ``Connection: close``;
* malformed request lines and unsupported HTTP versions answer bare
  JSON envelopes, the stdlib's HTTP/0.9 degradation;
* a drained body keeps pipelined keep-alive connections in sync, with
  a 1 MiB discard bound;
* nothing a client sends escapes the loop: would-be escapes land in
  ``unhandled_errors``, the tripwire the suites assert stays empty;
  the fault-injection points ``api.request.read`` and
  ``api.response.write`` fire on the wire path.

Responses are written **zero-copy**: the service's shared-payload-cache
hits arrive as :class:`memoryview` slices over the mmap'd segment
(:meth:`repro.service.shared_cache.SharedPayloadCache.get`), and the
loop hands header and body straight to ``socket.sendmsg`` (scatter-
gather ``writev``) — the payload bytes go from the page cache to the
socket without ever being copied into a Python ``bytes`` object.

GET and HEAD dispatch inline on the loop thread: a cached read costs
microseconds.  A POST is the one request that can block for long — an
ingest appends and fsyncs, and a pool reader forwards it to the writer
— so the loop hands each complete POST body to a single worker thread
and stops parsing that connection until the answer is ready; the answer
comes back through the loop's wake-up socketpair.  Other connections,
probes included, keep being served meanwhile.

:meth:`EventLoopServer.shutdown` drains: the loop stops accepting,
closes idle connections, lets in-flight POSTs finish and flushes their
answers, and joins the worker thread before ``serve_forever`` returns —
so a caller can close the store right after it.
"""

from __future__ import annotations

import collections
import errno
import os
import queue
import selectors
import socket
import threading
import time
from email.utils import formatdate
from http.client import responses as _REASONS
from typing import Any, Optional
from urllib.parse import urlsplit

from repro import faults
from repro.obs import logging as obslog
from repro.obs import tracing
from repro.service.api import (
    MAX_BODY_BYTES, UNHANDLED_ERRORS_CAPACITY, QueryService, Response,
    _M_ERRORS, _M_REQUESTS, _M_REQUEST_SECONDS, _M_UNHANDLED,
    allowed_methods, json_bytes)
from repro.util.ringlog import RingLog

__all__ = ["EventLoopServer"]

#: One recv per readiness event reads up to this much.
_RECV_CHUNK = 65536

#: Longest tolerated request line (stdlib parity: 65536 + fudge).
_MAX_REQUEST_LINE = 65536

#: Total request-head bound (line + headers) before 431.
_MAX_HEAD_BYTES = 1 << 20

#: Upper bound on a discarded non-POST body: keeps keep-alive
#: connections in sync without letting a client stream gigabytes.
_MAX_DISCARDED_BODY = 1 << 20

_WRITEISH_METHODS = frozenset({"PUT", "DELETE", "PATCH"})

_READ = selectors.EVENT_READ
_WRITE = selectors.EVENT_WRITE


class _Connection:
    """Per-socket state: one of these per client, however idle."""

    __slots__ = ("sock", "fd", "inbuf", "scan_pos", "out", "events",
                 "closing", "draining", "discard", "pending", "need", "eof",
                 "busy", "last_activity")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock: Optional[socket.socket] = sock
        self.fd = sock.fileno()
        self.inbuf = bytearray()
        self.scan_pos = 0           # head-scan resume point (O(n) total)
        self.out: list[Any] = []    # bytes / memoryview, in write order
        self.events = _READ         # registered interest; 0 = unregistered
        self.closing = False        # no more requests; close once flushed
        self.draining = False       # FIN sent; discarding until client EOF
        self.discard = 0            # request-body bytes still to skip
        self.pending: Optional[tuple[str, dict[str, str], bool]] = None
        self.need = 0               # body bytes the pending POST awaits
        self.eof = False
        self.busy = False           # a POST is on the worker thread
        self.last_activity = now


class EventLoopServer:
    """Non-blocking HTTP server: one ``selectors`` loop, one POST worker.

    ``server_address``, ``serve_forever()``/``shutdown()``/
    ``server_close()`` and ``unhandled_errors`` follow the stdlib
    ``socketserver`` shapes.  Construct with either ``host``/``port`` or
    an already-listening ``listen_socket`` (the pre-fork pool's shared
    socket).  ``service`` is read on every dispatch, so tests can
    monkeypatch its routes.

    ``crash_exit_code``: when set, an injected crash
    (:class:`repro.faults.InjectedCrash`) on the loop or the POST worker
    terminates the process with this exit code — the pool's
    crash-to-exit contract.  Unset, the crash re-raises out of
    ``serve_forever``.
    """

    #: Idle keep-alive connections are reaped after this many seconds.
    timeout = 30.0

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0, listen_socket: Optional[socket.socket] = None,
                 crash_exit_code: Optional[int] = None) -> None:
        self.service = service
        #: Bounded drop-oldest trace (a tripwire, not a leak): tests
        #: assert it stays empty, long-running workers keep only the
        #: most recent failures plus a ``dropped`` count.
        self.unhandled_errors: RingLog = RingLog(UNHANDLED_ERRORS_CAPACITY)
        self.crash_exit_code = crash_exit_code
        if listen_socket is None:
            self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listen.bind((host, port))
            self._listen.listen(128)
            self._owns_listen = True
        else:
            self._listen = listen_socket
            self._owns_listen = False
        self._listen.setblocking(False)
        self.server_address = self._listen.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._conns: dict[int, _Connection] = {}
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        #: POST jobs for the worker thread, and its finished answers.
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: collections.deque = collections.deque()
        self._accepting = False
        self._shutdown_request = False
        self._stopping = False
        self._stopped = threading.Event()
        self._stopped.set()
        self._loop_thread: Optional[threading.Thread] = None
        self._date_cache: tuple[int, bytes] = (0, b"")
        self._closed = False

    # -- lifecycle --------------------------------------------------------
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._loop_thread = threading.current_thread()
        self._stopping = False
        self._stopped.clear()
        worker = threading.Thread(target=self._post_worker,
                                  name="http-post", daemon=True)
        worker.start()
        sel = self._selector
        sel.register(self._wake_recv, _READ, data="wake")
        self._resume_accept()
        next_sweep = time.monotonic() + poll_interval
        try:
            while True:
                if self._shutdown_request:
                    if not self._stopping:
                        self._begin_stop()
                    if not self._conns:
                        break
                for key, mask in sel.select(poll_interval):
                    if key.data == "listen":
                        self._accept()
                    elif key.data == "wake":
                        self._finish_posts()
                    else:
                        self._handle_event(key.data, mask)
                now = time.monotonic()
                if now >= next_sweep:
                    self._sweep_idle(now)
                    next_sweep = now + poll_interval
        finally:
            self._jobs.put(None)
            worker.join()
            self._pause_accept()
            try:
                sel.unregister(self._wake_recv)
            except (KeyError, ValueError):
                pass
            self._shutdown_request = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Drain and stop ``serve_forever``; wait for it from other threads.

        The loop stops accepting and closes idle connections; in-flight
        POSTs finish and their answers are flushed (with ``Connection:
        close``) before the loop exits and joins its worker thread.
        """
        self._shutdown_request = True
        self._wake()
        if threading.current_thread() is not self._loop_thread:
            self._stopped.wait()

    def server_close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            self._close_conn(conn)
        if self._owns_listen:
            self._listen.close()
        for sock in (self._wake_recv, self._wake_send):
            sock.close()
        self._selector.close()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass

    def _begin_stop(self) -> None:
        self._stopping = True
        self._pause_accept()
        for conn in list(self._conns.values()):
            if conn.busy or conn.out:
                conn.closing = True
            else:
                self._close_conn(conn)

    # -- connection plumbing ----------------------------------------------
    def _pause_accept(self) -> None:
        if self._accepting:
            self._accepting = False
            self._selector.unregister(self._listen)

    def _resume_accept(self) -> None:
        if not (self._accepting or self._stopping or self._closed):
            self._accepting = True
            self._selector.register(self._listen, _READ, data="listen")

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as error:
                if error.errno in (errno.EMFILE, errno.ENFILE):
                    # Out of fds: the level-triggered listen socket stays
                    # readable and would spin the loop.  Stop watching it
                    # until a connection closes or the next idle sweep.
                    self._pause_accept()
                    obslog.log_event("http.accept_paused", level="warning",
                                     error=errno.errorcode[error.errno])
                return
            sock.setblocking(False)
            try:
                # Headers and body go out as separate segments; without
                # TCP_NODELAY a keep-alive client waits out its delayed
                # ACK (~40 ms) on every small response.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP test sockets
                pass
            conn = _Connection(sock, time.monotonic())
            self._conns[conn.fd] = conn
            self._selector.register(sock, _READ, data=conn)

    def _set_events(self, conn: _Connection, events: int) -> None:
        if conn.sock is None or conn.events == events:
            return
        if not events:
            self._selector.unregister(conn.sock)
        elif not conn.events:
            self._selector.register(conn.sock, events, data=conn)
        else:
            self._selector.modify(conn.sock, events, data=conn)
        conn.events = events

    def _close_conn(self, conn: _Connection) -> None:
        if conn.sock is None:
            return
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        self._conns.pop(conn.fd, None)
        try:
            conn.sock.close()
        except OSError:
            pass
        conn.sock = None
        conn.out.clear()
        self._resume_accept()  # an fd came free

    def _sweep_idle(self, now: float) -> None:
        cutoff = now - self.timeout
        for conn in [c for c in self._conns.values()
                     if c.last_activity < cutoff and not c.busy]:
            self._close_conn(conn)
        self._resume_accept()

    def _handle_event(self, conn: _Connection, mask: int) -> None:
        try:
            if mask & _WRITE:
                self._flush(conn)
            if conn.sock is not None and mask & _READ and not conn.busy:
                self._read(conn)
        except BaseException as error:  # noqa: BLE001 — loop must survive
            self._handle_error(conn, error)

    def _handle_error(self, conn: _Connection, error: BaseException) -> None:
        if faults.is_crash(error):
            if self.crash_exit_code is not None:
                os._exit(self.crash_exit_code)
            raise error
        if not isinstance(error, Exception):
            raise error  # KeyboardInterrupt / SystemExit
        if isinstance(error, (ConnectionResetError, BrokenPipeError,
                              TimeoutError)):
            self._close_conn(conn)
            return
        self.unhandled_errors.append(error)
        _M_UNHANDLED.inc()
        obslog.log_event("http.unhandled_error", level="error",
                         error=type(error).__name__)
        try:
            self._queue_error(conn, 500, "internal server error", close=True)
            self._flush(conn)
        except OSError:
            self._close_conn(conn)

    # -- the POST worker ---------------------------------------------------
    def _post_worker(self) -> None:
        """Answer POSTs off the loop, one at a time, until the sentinel."""
        while True:
            job = self._jobs.get()
            if job is None:
                return
            conn, target, headers, body, close = job
            response = error = None
            try:
                response = self._service_call("POST", target, headers, body)
            except BaseException as exc:  # noqa: BLE001 — handed to the loop
                if faults.is_crash(exc) and self.crash_exit_code is not None:
                    os._exit(self.crash_exit_code)
                error = exc
            self._done.append((conn, response, error, close))
            self._wake()

    def _finish_posts(self) -> None:
        """Queue the worker's answers and resume parsing their connections."""
        try:
            self._wake_recv.recv(4096)
        except OSError:
            pass
        while self._done:
            conn, response, error, close = self._done.popleft()
            conn.busy = False
            if conn.sock is None:
                continue  # the client went away meanwhile
            conn.last_activity = time.monotonic()
            try:
                if error is not None:
                    raise error
                self._queue_response(conn, response, send_body=True,
                                     close=close or self._stopping)
                self._process(conn)
            except BaseException as exc:  # noqa: BLE001 — loop must survive
                self._handle_error(conn, exc)

    def _read(self, conn: _Connection) -> None:
        assert conn.sock is not None
        while True:
            try:
                data = conn.sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            if not data:
                conn.eof = True
                break
            if conn.draining:
                continue  # lingering close: discard until client EOF
            conn.inbuf += data
            if len(data) < _RECV_CHUNK:
                break
        if conn.draining:
            if conn.eof:
                self._close_conn(conn)
            return
        conn.last_activity = time.monotonic()
        self._process(conn)

    # -- request parsing ---------------------------------------------------
    def _process(self, conn: _Connection) -> None:
        """Drive the parse state machine over whatever is buffered."""
        while conn.sock is not None and not conn.closing and not conn.busy:
            if conn.discard:
                take = min(len(conn.inbuf), conn.discard)
                del conn.inbuf[:take]
                conn.scan_pos = 0
                conn.discard -= take
                if conn.discard:
                    if conn.eof:
                        conn.closing = True  # drained body never arriving
                    break
            if conn.pending is not None:
                if len(conn.inbuf) < conn.need:
                    if conn.eof:
                        self._queue_error(
                            conn, 400,
                            "request body shorter than Content-Length",
                            close=True)
                    break
                body = bytes(conn.inbuf[:conn.need])
                del conn.inbuf[:conn.need]
                conn.scan_pos = 0
                target, headers, close_requested = conn.pending
                conn.pending = None
                self._dispatch_post(conn, target, headers, close_requested,
                                    body)
                continue
            if not self._parse_head(conn):
                break
        self._flush(conn)

    def _parse_head(self, conn: _Connection) -> bool:
        """Parse one request head if fully buffered.

        Returns ``True`` when a request was consumed (the caller loops
        for pipelining), ``False`` when more bytes are needed — after
        queueing whatever protocol-error answer applies.
        """
        buf = conn.inbuf
        nl = buf.find(b"\n")
        if nl < 0:
            if len(buf) > _MAX_REQUEST_LINE:
                self._queue_bare_error(conn, 414, "Request-URI Too Long")
            elif conn.eof:
                if buf.strip():
                    self._queue_bare_error(conn, 400, "Bad request syntax")
                else:
                    conn.closing = True  # clean half-close between requests
            return False
        line = bytes(buf[:nl]).rstrip(b"\r")
        parts = line.split()
        if len(parts) == 2:
            # An HTTP/0.9 simple request: serve the bare body (no status
            # line, no headers) and close — stdlib parity.
            del buf[:nl + 1]
            conn.scan_pos = 0
            if parts[0] == b"GET":
                self._dispatch_simple(conn, parts[1].decode("latin-1"))
            else:
                self._queue_bare_error(conn, 400, "Bad HTTP/0.9 request type")
            return False
        if len(parts) != 3:
            del buf[:nl + 1]
            conn.scan_pos = 0
            self._queue_bare_error(conn, 400, "Bad request syntax")
            return False
        version = parts[2]
        version_ok = False
        if version.startswith(b"HTTP/"):
            fields = version[5:].split(b".")
            if len(fields) == 2 and fields[0].isdigit() and fields[1].isdigit():
                version_ok = True
                vnum = (int(fields[0]), int(fields[1]))
        if not version_ok:
            del buf[:nl + 1]
            conn.scan_pos = 0
            self._queue_bare_error(conn, 400,
                                   f"Bad request version {version!r}")
            return False
        if vnum >= (2, 0):
            del buf[:nl + 1]
            conn.scan_pos = 0
            self._queue_bare_error(
                conn, 505, f"Invalid HTTP version ({vnum[0]}.{vnum[1]})")
            return False
        # HTTP/1.x: the full head (terminated by a blank line) must be
        # buffered before anything dispatches.
        head_end = self._find_head_end(conn, nl + 1)
        if head_end < 0:
            if len(buf) > _MAX_HEAD_BYTES:
                self._queue_error(conn, 431,
                                  "request header section too large",
                                  close=True)
            elif conn.eof:
                self._queue_bare_error(conn, 400, "truncated request head")
            return False
        headers: dict[str, str] = {}
        for raw in bytes(buf[nl + 1:head_end]).split(b"\n"):
            raw = raw.rstrip(b"\r")
            if not raw:
                continue
            key, sep, value = raw.partition(b":")
            if not sep:
                continue
            headers[key.decode("latin-1").strip().title()] = \
                value.decode("latin-1").strip()
        del buf[:head_end + 1]
        conn.scan_pos = 0
        method = parts[0].decode("latin-1")
        target = parts[1].decode("latin-1")
        if vnum < (1, 1):
            keep = headers.get("Connection", "").lower() == "keep-alive"
        else:
            keep = "close" not in headers.get("Connection", "").lower()
        self._dispatch_head(conn, method, target, headers,
                            close_requested=not keep)
        return True

    def _find_head_end(self, conn: _Connection, start: int) -> int:
        """Index of the ``\\n`` ending the blank line after the headers.

        Resumes from ``conn.scan_pos`` (always a line start) so repeated
        partial fills stay linear in total bytes received.
        """
        buf = conn.inbuf
        pos = max(start, conn.scan_pos)
        while True:
            nl = buf.find(b"\n", pos)
            if nl < 0:
                conn.scan_pos = pos
                return -1
            if buf[pos:nl].rstrip(b"\r") == b"":
                return nl
            pos = nl + 1

    # -- dispatch ----------------------------------------------------------
    def _dispatch_head(self, conn: _Connection, method: str, target: str,
                       headers: dict[str, str],
                       close_requested: bool) -> None:
        if method == "POST":
            if headers.get("Transfer-Encoding"):
                self._queue_error(
                    conn, 400, "chunked transfer encoding is not supported; "
                               "send Content-Length", close=True)
                return
            declared = headers.get("Content-Length")
            if declared is None:
                self._queue_error(conn, 411, "POST requires Content-Length",
                                  close=True)
                return
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                self._queue_error(conn, 400,
                                  f"invalid Content-Length {declared!r}",
                                  close=True)
                return
            if length > MAX_BODY_BYTES:
                # Answer without reading a single body byte.
                self._queue_error(
                    conn, 413,
                    f"request body exceeds {MAX_BODY_BYTES} bytes",
                    close=True)
                return
            conn.pending = (target, headers, close_requested)
            conn.need = length
            return
        # Non-POST: any method may carry a body; drain a declared one so
        # its bytes are not parsed as the next pipelined request.  Chunked
        # or oversized framing cannot be drained by length: close.
        must_close = close_requested
        if headers.get("Transfer-Encoding"):
            must_close = True
        else:
            declared = headers.get("Content-Length")
            if declared is not None:
                try:
                    length = int(declared)
                except ValueError:
                    length = -1
                if length < 0:
                    must_close = True
                else:
                    conn.discard = min(length, _MAX_DISCARDED_BODY)
                    must_close = must_close or length > _MAX_DISCARDED_BODY
        if method in ("GET", "HEAD"):
            response = self._service_call(method, target, headers, b"")
            self._queue_response(conn, response, send_body=method != "HEAD",
                                 close=must_close)
        elif method in _WRITEISH_METHODS:
            allow = allowed_methods(urlsplit(target).path)
            self._queue_error(
                conn, 405,
                f"method {method} not allowed (allowed: {allow})",
                close=must_close, allow=allow)
        else:
            self._queue_error(conn, 501,
                              f"unsupported method ({method!r})", close=True)

    def _dispatch_post(self, conn: _Connection, target: str,
                       headers: dict[str, str], close_requested: bool,
                       body: bytes) -> None:
        """Hand a complete POST to the worker thread; pause the connection."""
        if faults.ACTIVE is not None:
            # Injection point "api.request.read": a drop is the client
            # vanishing mid-upload, an error rule a socket-level read
            # failure.
            try:
                faults.ACTIVE.hit("api.request.read")
            except ConnectionResetError:
                self._close_conn(conn)
                return
            except faults.InjectedFault:
                self.unhandled_errors.append(
                    faults.InjectedFault("api.request.read"))
                self._queue_error(conn, 500, "internal server error",
                                  close=True)
                return
        conn.busy = True
        self._jobs.put((conn, target, headers, body, close_requested))

    def _dispatch_simple(self, conn: _Connection, target: str) -> None:
        """HTTP/0.9: body only, then close (stdlib degradation parity)."""
        response = self._service_call("GET", target, {}, b"")
        if response.body:
            conn.out.append(self._fault_body(conn, response.body))
        conn.closing = True

    def _service_call(self, method: str, target: str,
                      headers: dict[str, str], body: bytes) -> Response:
        """One traced service call: the wire layer's telemetry lives here.

        A request either presents an ``X-Request-Id`` (propagated
        verbatim — this is how a leader correlates a follower's fetches)
        or gets a fresh id; the id is active (``repro.obs.tracing``)
        for the duration of the call, echoed on the response, and
        stamped into every structured log line the call emits.  Wire
        requests cost far more than a cached in-process read, so
        registry counters and a histogram observation are affordable
        here — unlike in :meth:`QueryService.handle_request`.
        """
        trace_id = headers.get("X-Request-Id") or tracing.new_trace_id()
        start = time.perf_counter()
        token = tracing.activate(trace_id)
        try:
            response = self.service.handle_request(
                target, headers, method=method, body=body)
            duration = time.perf_counter() - start
            response.headers["X-Request-Id"] = trace_id
            _M_REQUESTS.labels(method=method).inc()
            _M_REQUEST_SECONDS.observe(duration)
            if obslog.enabled("debug"):
                obslog.log_event(
                    "http.request", level="debug", method=method,
                    path=target, status=response.status,
                    duration_ms=round(duration * 1000.0, 3),
                    cache=response.headers.get("X-Repro-Cache"))
            return response
        finally:
            tracing.deactivate(token)

    # -- response assembly -------------------------------------------------
    def _date_bytes(self) -> bytes:
        now = int(time.time())
        if self._date_cache[0] != now:
            self._date_cache = (
                now, formatdate(now, usegmt=True).encode("latin-1"))
        return self._date_cache[1]

    def _fault_body(self, conn: _Connection, body) -> Any:
        """Apply the ``api.response.write`` injection point to ``body``.

        A ``torn`` rule truncates the body (the declared Content-Length
        stays full, so the client observes a torn response) and closes;
        a ``drop`` ships nothing and closes — from the server's side,
        a connection lost mid-body.
        """
        if faults.ACTIVE is None:
            return body
        try:
            keep = faults.ACTIVE.on_write("api.response.write", len(body))
        except (faults.InjectedFault, ConnectionResetError):
            conn.closing = True
            return b""
        if keep is None:
            return body
        conn.closing = True
        return body[:keep]

    def _queue_response(self, conn: _Connection, response: Response,
                        send_body: bool, close: bool) -> None:
        status = response.status
        reason = _REASONS.get(status, "")
        head = [f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1"),
                b"Server: repro-serve/1.1\r\nDate: ", self._date_bytes(),
                b"\r\n"]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}\r\n".encode("latin-1"))
        head.append(b"Content-Length: %d\r\n" % len(response.body))
        if close:
            head.append(b"Connection: close\r\n")
        head.append(b"\r\n")
        conn.out.append(b"".join(head))
        if (send_body and response.body and status >= 200
                and status not in (204, 205, 304)):
            # The body rides as its own iovec: a shared-cache memoryview
            # goes to sendmsg untouched (zero-copy), bytes likewise.
            conn.out.append(self._fault_body(conn, response.body))
        if close:
            conn.closing = True

    def _queue_error(self, conn: _Connection, status: int, message: str,
                     close: bool = False,
                     allow: Optional[str] = None) -> None:
        """A transport-level error in the same envelope the API uses."""
        _M_ERRORS.labels(code=str(status)).inc()
        body = json_bytes({"error": {"status": status, "message": message}})
        headers = {"Content-Type": "application/json; charset=utf-8"}
        if allow:
            headers = {"Allow": allow, **headers}
        self._queue_response(
            conn, Response(status, body, headers), send_body=True,
            close=close)

    def _queue_bare_error(self, conn: _Connection, status: int,
                          message: str) -> None:
        """Protocol failure before HTTP/1.1 framing was agreed.

        Stdlib parity: when the request line never parsed (or declared
        an unsupported version), the answer is the JSON envelope *body
        only* — no status line, no headers — and the connection closes.
        """
        conn.out.append(json_bytes(
            {"error": {"status": status, "message": message}}))
        conn.closing = True

    # -- writing -----------------------------------------------------------
    def _flush(self, conn: _Connection) -> None:
        if conn.sock is None:
            return
        while conn.out:
            try:
                sent = conn.sock.sendmsg(conn.out[:32])
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close_conn(conn)
                return
            # Pop what went out, empty chunks (a dropped body) included.
            while conn.out and sent >= len(conn.out[0]):
                sent -= len(conn.out.pop(0))
            if sent:
                first = conn.out[0]
                view = first if isinstance(first, memoryview) \
                    else memoryview(first)
                conn.out[0] = view[sent:]
        # A connection whose POST is on the worker reads nothing more
        # until the answer is queued.
        reading = 0 if conn.busy else _READ
        if conn.out:
            self._set_events(conn, reading | _WRITE)
            return
        self._set_events(conn, reading)
        if conn.busy:
            return
        if conn.closing or (conn.eof and conn.pending is None
                            and not conn.inbuf.strip()):
            if conn.eof:
                # The client already finished sending: a plain close
                # delivers a clean FIN.
                self._close_conn(conn)
            else:
                self._linger_close(conn)

    def _linger_close(self, conn: _Connection) -> None:
        """Send FIN, then drain until the client closes its side.

        Closing outright here would RST a pipelined request the client
        already has in flight (data arriving at a closed socket), and
        the client would see a connection *reset* instead of the clean
        EOF the wire contract promises after a ``Connection: close``
        answer.  The drain is bounded by the idle sweep.
        """
        if conn.draining or conn.sock is None:
            return
        conn.draining = True
        conn.inbuf.clear()
        try:
            conn.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._close_conn(conn)
            return
        self._set_events(conn, _READ)
