"""Balancer tests: round-robin, readiness ejection, re-admission.

The proxy's contract: any admitted backend may answer any request
(byte-identical payloads make round-robin safe), a backend failing
``/v1/ready`` leaves the rotation until the probe passes again, and
backend HTTP statuses — including clean 4xx — pass through verbatim
while connection-level failures are absorbed by retrying the next
backend.
"""

import datetime as dt
import json
import socket
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.providers.base import ListArchive, ListSnapshot
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.balance import Backend, Balancer
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
