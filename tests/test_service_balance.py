"""Balancer tests: round-robin, readiness ejection, re-admission.

The proxy's contract: any admitted backend may answer any request
(byte-identical payloads make round-robin safe), a backend failing
``/v1/ready`` leaves the rotation until the probe passes again, and
backend HTTP statuses — including clean 4xx — pass through verbatim
while connection-level failures are absorbed by retrying the next
backend.  The event-loop proxy's own cases come last: one ``Server``
and ``Date`` per answer, HEAD parity with a direct HEAD, edge request
ids, per-backend metrics, upstream connection reuse, and the pool's
failure modes (idle reaps, a close racing a reused connection, a
stalled backend).
"""

import datetime as dt
import http.client
import io
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repro.obs import logging as obslog
from repro.obs.metrics import parse_exposition
from repro.providers.base import ListArchive, ListSnapshot
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.balance import Backend, Balancer
from repro.service.replica import Replica
from repro.service.store import ArchiveStore


def _get(url: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture()
def backends(tmp_path):
    """Two single-process servers over one store, plus their service."""
    snapshots = [
        ListSnapshot("alexa", dt.date(2018, 5, 1) + dt.timedelta(days=day),
                     ("a.com", "b.org"))
        for day in range(3)
    ]
    store = ArchiveStore.from_archives(
        tmp_path / "store",
        {"alexa": ListArchive.from_snapshots(snapshots)})
    service = QueryService(store)
    servers = [EventLoopServer(service) for _ in range(2)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    yield servers, service
    for server in servers:
        server.shutdown()
        server.server_close()
    store.close()


def _urls(servers) -> list[str]:
    return [f"http://127.0.0.1:{server.server_address[1]}"
            for server in servers]


class TestRotation:
    def test_round_robin_spreads_requests(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            for _ in range(8):
                status, _ = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
                assert status == 200
            counts = [b["requests"] for b in balancer.status()["backends"]]
            assert counts == [4, 4]

    def test_payloads_and_clean_errors_pass_through(self, backends):
        servers, service = backends
        expected = service.handle_request("/v1/meta")
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            base = f"http://127.0.0.1:{balancer.port}"
            status, body = _get(base + "/v1/meta")
            assert (status, body) == (200, expected.body)
            status, body = _get(base + "/v1/nope")
            assert status == 404
            assert json.loads(body)["error"]["status"] == 404

    def test_balancer_status_endpoint(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            status, body = _get(
                f"http://127.0.0.1:{balancer.port}/v1/balancer")
            payload = json.loads(body)
            assert status == 200
            assert payload["admitted"] == 2
            assert all(b["admitted"] for b in payload["backends"])


class TestEjection:
    def test_dead_backend_is_ejected_and_traffic_continues(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.05) as balancer:
            base = f"http://127.0.0.1:{balancer.port}"
            servers[0].shutdown()
            servers[0].server_close()
            deadline = _deadline(5)
            while _now() < deadline:
                payload = json.loads(_get(base + "/v1/balancer")[1])
                if payload["admitted"] == 1:
                    break
            assert payload["admitted"] == 1
            dead, live = payload["backends"]
            assert not dead["admitted"] and dead["ejections"] == 1
            for _ in range(6):
                status, _ = _get(base + "/v1/meta")
                assert status == 200

    def test_unready_backend_is_ejected_then_readmitted(self, backends):
        """A follower answering 503 on /v1/ready leaves and re-enters."""
        servers, service = backends

        class _Gate:
            ready = True

            def staleness(self):
                return 0 if self.ready else 99

            def status(self):
                return {"mode": "test-gate", "last_error": None,
                        "breaker": "closed"}

            def ready(self=None):  # bound below
                raise NotImplementedError

        gate = _Gate()
        gate.ready_flag = True
        gate.ready = lambda: gate.ready_flag
        service.role = "follower"
        service._replica = gate
        try:
            with Balancer(_urls(servers), check_interval=0.05) as balancer:
                base = f"http://127.0.0.1:{balancer.port}"
                gate.ready_flag = False
                deadline = _deadline(5)
                while _now() < deadline:
                    payload = json.loads(_get(base + "/v1/balancer")[1])
                    if payload["admitted"] == 0:
                        break
                assert payload["admitted"] == 0
                status, _ = _get(base + "/v1/meta")
                assert status == 503  # no admitted backend
                gate.ready_flag = True
                deadline = _deadline(5)
                while _now() < deadline:
                    payload = json.loads(_get(base + "/v1/balancer")[1])
                    if payload["admitted"] == 2:
                        break
                assert payload["admitted"] == 2
                assert all(b["readmissions"] >= 1
                           for b in payload["backends"])
                status, _ = _get(base + "/v1/meta")
                assert status == 200
        finally:
            service.role = "leader"
            service._replica = None

    def test_all_backends_out_answers_503(self, backends):
        servers, _ = backends
        urls = _urls(servers)
        for server in servers:
            server.shutdown()
            server.server_close()
        with Balancer(urls, check_interval=0.05) as balancer:
            status, body = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
            assert status == 503
            assert json.loads(body)["error"]["status"] == 503


class _FlakyBackendHandler(BaseHTTPRequestHandler):
    """A backend that answers probes but dies on real traffic.

    ``/v1/ready`` passes so the balancer keeps it admitted; any other
    GET closes the connection before a status line (mid-request death);
    a POST *applies* the ingest to the shared service first and then
    dies — the nightmare case for a retrying proxy, because a replay on
    another backend would double-apply the day.
    """

    protocol_version = "HTTP/1.1"
    service: QueryService = None  # type: ignore[assignment]
    posts: list[bytes] = []
    drops = 0

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def _die(self) -> None:
        type(self).drops += 1
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/v1/ready":
            body = b'{"ready": true}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._die()

    def do_POST(self) -> None:  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        type(self).posts.append(body)
        type(self).service.handle_request(
            "/v1/ingest", headers=dict(self.headers.items()),
            method="POST", body=body)
        self._die()


@pytest.fixture()
def flaky_first(backends):
    """[flaky, real] rotation: the dropper is always picked first."""
    servers, service = backends

    class Handler(_FlakyBackendHandler):
        posts = []
        drops = 0

    Handler.service = service
    flaky = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    flaky.daemon_threads = True
    threading.Thread(target=flaky.serve_forever, daemon=True).start()
    urls = [f"http://127.0.0.1:{flaky.server_address[1]}",
            _urls(servers)[1]]
    yield urls, Handler, service
    flaky.shutdown()
    flaky.server_close()


def _post(url: str, payload: bytes) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url, data=payload, method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestRetryIdempotency:
    """The retry-semantics bugfix: replay GETs, never replay POSTs."""

    def test_get_is_retried_after_midrequest_death(self, flaky_first):
        urls, handler, service = flaky_first
        expected = service.handle_request("/v1/meta")
        # Long check interval: only the seeding probe runs, so the flaky
        # backend is admitted when the request arrives and the failover
        # is driven by the proxied request itself, not a health probe.
        with Balancer(urls, check_interval=30) as balancer:
            status, body = _get(f"http://127.0.0.1:{balancer.port}/v1/meta")
            assert status == 200
            assert body == bytes(expected.body)
            assert handler.drops == 1  # the flaky backend did die first
            flaky_state = balancer.status()["backends"][0]
            assert not flaky_state["admitted"]
            assert flaky_state["errors"] == 1

    def test_post_applied_then_dropped_is_never_replayed(self, flaky_first):
        """Acceptance: the balancer must not double-apply an ingest.

        The flaky backend applies the POST and dies before answering.
        The old code replayed it on the next backend (409 at best,
        double-applied data at worst); the fix answers 502 and leaves
        the ambiguity to the client.
        """
        urls, handler, service = flaky_first
        before = service.store.version
        payload = json.dumps({
            "provider": "alexa", "date": "2018-06-01",
            "entries": ["retry-a.com", "retry-b.org"]}).encode()
        with Balancer(urls, check_interval=30) as balancer:
            status, body = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 502
            envelope = json.loads(body)["error"]
            assert envelope["status"] == 502
            assert "not retried" in envelope["message"]
            # The ingest landed exactly once (via the dying backend) …
            assert service.store.version == before + 1
            assert handler.posts == [payload]
            # … and the healthy backend never saw the POST.
            real_state = balancer.status()["backends"][1]
            assert real_state["requests"] == 0
            # Proof the day exists exactly once: a replay now conflicts.
            status, _ = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 409

    def test_post_fails_over_when_nothing_was_transmitted(self, backends):
        """Connect-refused is pre-transmit: POSTs may fail over safely."""
        servers, service = backends
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        urls = [f"http://127.0.0.1:{dead_port}", _urls(servers)[1]]
        before = service.store.version
        payload = json.dumps({
            "provider": "alexa", "date": "2018-06-02",
            "entries": ["failover.com"]}).encode()
        # eject_after=3 keeps the dead backend admitted past the two
        # seeding probes (one in start(), one at probe-loop entry), so
        # the POST itself hits the refused connection.
        with Balancer(urls, check_interval=30, eject_after=3) as balancer:
            status, _ = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 200
            assert service.store.version == before + 1
            dead_state = balancer.status()["backends"][0]
            assert dead_state["errors"] == 1
            assert not dead_state["admitted"]


class TestWriteRouting:
    def test_ingests_skip_the_read_only_follower(self, tmp_path):
        """Every POSTed ingest reaches the leader, none the follower.

        A follower answers ``POST /v1/ingest`` with 403, so plain
        round-robin over [leader, follower] would fail every other
        ingest.  The probe's ``role`` keeps writes off the follower
        while reads still use both.
        """
        snapshots = [ListSnapshot("alexa", dt.date(2018, 5, 1), ("a.com",))]
        leader_store = ArchiveStore.from_archives(
            tmp_path / "leader",
            {"alexa": ListArchive.from_snapshots(snapshots)})
        leader = QueryService(leader_store)
        follower_store = ArchiveStore(tmp_path / "follower")
        follower = QueryService(follower_store, role="follower")

        def fetch(since, limit):
            return leader.handle_request(
                f"/v1/replication/log?since={since}&max={limit}").json()

        replica = Replica(follower_store, fetch, sleep=lambda s: None)
        follower.attach_replica(replica)
        replica.sync_to_leader()
        servers = [EventLoopServer(leader), EventLoopServer(follower)]
        for server in servers:
            threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            before = leader_store.version
            with Balancer(_urls(servers), check_interval=0.1) as balancer:
                base = f"http://127.0.0.1:{balancer.port}"
                for day in range(6):
                    payload = json.dumps({
                        "provider": "alexa",
                        "date": f"2018-05-{day + 2:02d}",
                        "entries": ["a.com", f"day{day}.org"]}).encode()
                    status, body = _post(base + "/v1/ingest", payload)
                    assert status == 200, body
                state = json.loads(_get(base + "/v1/balancer")[1])
                for _ in range(4):
                    assert _get(base + "/v1/meta")[0] == 200
                counts = [b["requests"] for b in balancer.status()["backends"]]
            assert leader_store.version == before + 6
            assert [b["role"] for b in state["backends"]] == \
                ["leader", "follower"]
            assert counts[1] == 2  # reads still round-robin over both
        finally:
            for server in servers:
                server.shutdown()
                server.server_close()
            leader_store.close()
            follower_store.close()


class TestContentLengthValidation:
    """The parse bugfix: a garbage Content-Length used to kill the
    handler thread with an unhandled ValueError (connection reset, no
    response).  It must answer the API layer's 400 envelope."""

    def _raw(self, port: int, payload: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(payload)
            s.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    @pytest.mark.parametrize("declared", ["banana", "-1", "", "1e3",
                                          "0x10", "9" * 60])
    def test_fuzzed_content_length_answers_envelope(self, backends,
                                                    declared):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            raw = self._raw(balancer.port, (
                f"POST /v1/ingest HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {declared}\r\n\r\n").encode())
            head, _, body = raw.partition(b"\r\n\r\n")
            status = int(head.split()[1])
            expected = 413 if declared == "9" * 60 else 400
            assert status == expected, raw[:200]
            envelope = json.loads(body)["error"]
            assert envelope["status"] == expected
            assert b"Connection: close" in head

    def test_valid_length_still_proxies(self, backends):
        servers, _ = backends
        payload = json.dumps({"provider": "alexa", "date": "2018-06-03",
                              "entries": ["len-ok.com"]}).encode()
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            status, _ = _post(
                f"http://127.0.0.1:{balancer.port}/v1/ingest", payload)
            assert status == 200


class TestBackendParsing:
    def test_accepts_url_and_hostport(self):
        assert Backend("http://127.0.0.1:8098").port == 8098
        assert Backend("127.0.0.1:8099").port == 8099

    def test_rejects_non_http(self):
        with pytest.raises(ValueError):
            Backend("https://127.0.0.1:1")

    def test_requires_backends(self):
        with pytest.raises(ValueError):
            Balancer([])


def _now():
    import time

    return time.monotonic()


def _deadline(seconds: float) -> float:
    return _now() + seconds


# -- the event-loop balancer ----------------------------------------------

def _raw_exchange(port: int, payload: bytes) -> bytes:
    """Send ``payload``, half-close, return every byte the server sent."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _head_lines(raw: bytes) -> tuple[bytes, list[tuple[str, str]]]:
    head = raw.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n")
    fields = [tuple(part.strip() for part in line.split(":", 1))
              for line in head[1:]]
    return head[0].encode(), fields


class TestProxiedHeaders:
    def test_one_server_and_one_date_header(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            raw = _raw_exchange(balancer.port,
                                b"GET /v1/meta HTTP/1.1\r\nHost: t\r\n\r\n")
        _, fields = _head_lines(raw)
        names = [name.lower() for name, _ in fields]
        assert names.count("server") == 1, fields
        assert names.count("date") == 1, fields
        assert names.count("content-length") == 1, fields

    def test_head_answers_like_head_sent_direct(self, backends):
        servers, _ = backends
        request = b"HEAD /v1/meta HTTP/1.1\r\nHost: t\r\n\r\n"
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            assert _get(f"http://127.0.0.1:{balancer.port}/v1/meta")[0] \
                == 200  # warm the cache: both HEADs below are hits
            direct = _raw_exchange(servers[0].server_address[1], request)
            proxied = _raw_exchange(balancer.port, request)

        def comparable(raw):
            status, fields = _head_lines(raw)
            return status, [(name, value) for name, value in fields
                            if name not in ("Date", "X-Request-Id")]

        assert comparable(proxied) == comparable(direct)
        length = dict(_head_lines(direct)[1])["Content-Length"]
        assert int(length) > 0
        assert proxied.endswith(b"\r\n\r\n")  # and no body


class TestEdgeRequestIds:
    def test_backend_log_and_response_carry_the_edge_id(self, tmp_path):
        """The balancer mints the id, forwards it and echoes it; a
        client's own id passes through verbatim."""
        snapshots = [ListSnapshot("alexa", dt.date(2018, 5, 1),
                                  ("a.com", "b.org"))]
        ArchiveStore.from_archives(
            tmp_path / "store",
            {"alexa": ListArchive.from_snapshots(snapshots)}).close()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                / "src")
        log_path = tmp_path / "backend.log"
        with open(log_path, "wb") as log:
            backend = subprocess.Popen(
                [sys.executable, "-m", "repro.service.cli", "serve",
                 "--store", str(tmp_path / "store"), "--port", "0",
                 "--log-level", "debug"], stderr=log, env=env)
        try:
            port = None
            deadline = time.monotonic() + 30
            while port is None and time.monotonic() < deadline:
                for line in log_path.read_text().splitlines():
                    if '"serve.start"' in line and line.endswith("}"):
                        url = json.loads(line)["url"]
                        port = int(url.split(":")[2].split("/")[0])
                time.sleep(0.05)
            assert port is not None, log_path.read_text()
            stream = io.StringIO()
            saved = dict(obslog._state)
            obslog.configure(level="debug", stream=stream)
            try:
                with Balancer([f"http://127.0.0.1:{port}"],
                              check_interval=30) as balancer:
                    url = f"http://127.0.0.1:{balancer.port}/v1/meta"
                    with urllib.request.urlopen(url, timeout=10) as response:
                        minted = response.headers["X-Request-Id"]
                    request = urllib.request.Request(
                        url, headers={"X-Request-Id": "client-chosen-1"})
                    with urllib.request.urlopen(request,
                                                timeout=10) as response:
                        echoed = response.headers["X-Request-Id"]
            finally:
                obslog._state.update(saved)
        finally:
            backend.terminate()
            backend.wait(timeout=10)
        assert minted and len(minted) == 16
        assert echoed == "client-chosen-1"

        def request_ids(text):
            return {record["trace_id"] for record in map(
                json.loads, text.splitlines())
                if record["event"] == "http.request"
                and record["path"] == "/v1/meta"}

        assert {minted, echoed} <= request_ids(log_path.read_text())
        assert {minted, echoed} <= request_ids(stream.getvalue())


class TestBalancerMetrics:
    def test_metrics_export_per_backend_tallies(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=30) as balancer:
            base = f"http://127.0.0.1:{balancer.port}"
            for _ in range(6):
                assert _get(base + "/v1/meta")[0] == 200
            with urllib.request.urlopen(base + "/v1/metrics",
                                        timeout=10) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                samples = parse_exposition(response.read().decode())
            state = balancer.status()["backends"]
        for backend in state:
            label = f'{{backend="{backend["url"]}"}}'
            for key in ("requests", "errors", "ejections", "readmissions",
                        "retries", "upstream_connects"):
                assert samples[f"repro_balancer_{key}_total{label}"] \
                    == backend[key], key
            assert samples[f"repro_balancer_admitted{label}"] == 1
            assert backend["requests"] == 3

    def test_serial_gets_reuse_upstream_connections(self, backends):
        servers, _ = backends
        with Balancer(_urls(servers), check_interval=0.1) as balancer:
            client = http.client.HTTPConnection("127.0.0.1", balancer.port,
                                                timeout=10)
            try:
                for _ in range(200):
                    client.request("GET", "/v1/meta")
                    response = client.getresponse()
                    response.read()
                    assert response.status == 200
            finally:
                client.close()
            state = balancer.status()["backends"]
        assert [b["requests"] for b in state] == [100, 100]
        assert all(1 <= b["upstream_connects"] <= 2 for b in state), state


class _ScriptedBackend:
    """A raw-socket backend whose answers a test scripts.

    ``/v1/ready`` always answers 200.  Any other request is passed to
    ``script(n)``, ``n`` counting requests on that connection from 1:
    ``"answer"`` sends a keep-alive 200, ``"answer-close"`` a 200 with
    ``Connection: close``, ``"answer-eof"`` a 200 whose body ends at
    EOF (no ``Content-Length``), ``"close"`` closes without a byte and
    ``"stall"`` holds the connection silently until ``close()``.
    """

    BODY = b'{"scripted": true}'

    def __init__(self, script) -> None:
        self.script = script
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.released = threading.Event()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(sock,),
                             daemon=True).start()

    def _serve(self, sock: socket.socket) -> None:
        with sock:
            buf, n = b"", 0
            while True:
                while b"\r\n\r\n" not in buf:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    buf += chunk
                head, buf = buf.split(b"\r\n\r\n", 1)
                path = head.split()[1]
                action = "answer"
                if path != b"/v1/ready":
                    n += 1
                    action = self.script(n)
                if action == "close":
                    return
                if action == "stall":
                    self.released.wait()
                    return
                framing = b"" if action == "answer-eof" else \
                    b"Content-Length: %d\r\n" % len(self.BODY)
                if action == "answer-close":
                    framing += b"Connection: close\r\n"
                sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: "
                             b"application/json\r\n" + framing + b"\r\n"
                             + self.BODY)
                if action != "answer":
                    return

    def close(self) -> None:
        self.released.set()
        self.listener.close()


class TestUpstreamFailures:
    def test_backend_idle_reap_is_not_a_failure(self, backends):
        """A pooled connection the backend reaped while idle: the next
        GET still answers, with no error and no ejection."""
        servers, _ = backends
        for server in servers:
            server.timeout = 0.2
        with Balancer(_urls(servers), check_interval=30) as balancer:
            base = f"http://127.0.0.1:{balancer.port}"
            for _ in range(2):
                assert _get(base + "/v1/meta")[0] == 200
            time.sleep(1.5)  # past the reap and a backend sweep
            for _ in range(2):
                assert _get(base + "/v1/meta")[0] == 200
            state = balancer.status()["backends"]
        assert [(b["errors"], b["ejections"]) for b in state] == \
            [(0, 0), (0, 0)]
        assert [b["upstream_connects"] for b in state] == [2, 2]

    def test_reused_connection_closed_before_answer_is_retried_fresh(self):
        """The race the idle watch cannot see: the backend closes a
        pooled connection just as a request goes out on it."""
        scripted = _ScriptedBackend(
            lambda n: "answer" if n == 1 else "close")
        try:
            with Balancer([scripted.url], check_interval=30) as balancer:
                base = f"http://127.0.0.1:{balancer.port}"
                for _ in range(2):
                    assert _get(base + "/v1/meta") == (200,
                                                       scripted.BODY)
                (state,) = balancer.status()["backends"]
        finally:
            scripted.close()
        assert state["admitted"]
        assert (state["errors"], state["ejections"]) == (0, 0)
        assert (state["requests"], state["retries"],
                state["upstream_connects"]) == (2, 1, 2)

    @pytest.mark.parametrize("action", ["answer-close", "answer-eof"])
    def test_closing_answers_are_not_pooled(self, action):
        scripted = _ScriptedBackend(lambda n: action)
        try:
            with Balancer([scripted.url], check_interval=30) as balancer:
                base = f"http://127.0.0.1:{balancer.port}"
                for _ in range(3):
                    assert _get(base + "/v1/meta") == (200, scripted.BODY)
                (state,) = balancer.status()["backends"]
        finally:
            scripted.close()
        assert (state["errors"], state["retries"],
                state["upstream_connects"]) == (0, 0, 3)

    def test_stalled_backend_does_not_block_other_reads(self, backends):
        """One backend accepts and never answers: reads routed to the
        other backend answer within 0.5 s, and the stalled read is
        retried there once ``timeout`` (1 s) has passed."""
        servers, _ = backends
        stalled = _ScriptedBackend(lambda n: "stall")
        try:
            with Balancer([stalled.url, _urls(servers)[1]],
                          check_interval=30, timeout=1.0) as balancer:
                base = f"http://127.0.0.1:{balancer.port}"
                outcome = {}

                def stalled_read():
                    began = time.monotonic()
                    outcome["result"] = _get(base + "/v1/meta")
                    outcome["elapsed"] = time.monotonic() - began

                thread = threading.Thread(target=stalled_read)
                thread.start()
                deadline = time.monotonic() + 5
                while (balancer.status()["backends"][0]["requests"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)  # until the read is on the stalled one
                began = time.monotonic()
                assert _get(base + "/v1/meta")[0] == 200  # the other one
                assert time.monotonic() - began < 0.5
                thread.join(timeout=10)
                assert not thread.is_alive()
                state = balancer.status()["backends"]
        finally:
            stalled.close()
        assert outcome["result"][0] == 200
        assert 1.0 <= outcome["elapsed"] < 3.0, outcome
        assert not state[0]["admitted"]
        assert (state[0]["errors"], state[0]["ejections"]) == (1, 1)
        assert state[1]["retries"] == 1
