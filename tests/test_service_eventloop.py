"""Event-loop transport specifics: idle cost, zero-copy, fd exhaustion.

The wire contract itself is locked by ``tests/test_service_keepalive.py``
and ``tests/test_service_fuzz.py``, which run against the same
:class:`repro.service.eventloop.EventLoopServer`.
"""

import datetime as dt
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.obs.metrics import parse_exposition
from repro.providers.base import ListArchive, ListSnapshot
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.shared_cache import SharedPayloadCache
from repro.service.store import ArchiveStore

from test_service_keepalive import _get, _port, _read_response, _request


def _serve(server: EventLoopServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def keepalive_server(tmp_path_factory):
    snapshots = [
        ListSnapshot("alexa", dt.date(2018, 5, 1) + dt.timedelta(days=day),
                     ("a.com", "b.org", "c.net"))
        for day in range(3)
    ]
    store = ArchiveStore.from_archives(
        tmp_path_factory.mktemp("elkeepalive"),
        {"alexa": ListArchive.from_snapshots(snapshots)})
    server = EventLoopServer(QueryService(store))
    _serve(server)
    yield server
    assert server.unhandled_errors == [], server.unhandled_errors
    server.shutdown()
    server.server_close()
    store.close()


class TestIdleConnectionCost:
    def test_idle_keepalive_connections_cost_no_threads(self, keepalive_server):
        """The module's reason to exist: parked sockets are just fds."""
        port = _port(keepalive_server)
        before = threading.active_count()
        idle = []
        try:
            for _ in range(64):
                sock = socket.create_connection(("127.0.0.1", port),
                                                timeout=10)
                idle.append(sock)
            # The server never grows a thread for any of them ...
            assert threading.active_count() == before
            # ... and still answers interleaved traffic promptly.
            responses = _request(port, [_get("/v1/meta")] * 3)
            assert [status for status, _, _ in responses] == [200] * 3
            assert threading.active_count() == before
        finally:
            for sock in idle:
                sock.close()

    def test_idle_connections_are_reaped_after_timeout(self, tmp_path):
        snapshots = [ListSnapshot("alexa", dt.date(2018, 5, 1), ("a.com",))]
        store = ArchiveStore.from_archives(
            tmp_path / "s", {"alexa": ListArchive.from_snapshots(snapshots)})
        server = EventLoopServer(QueryService(store))
        server.timeout = 0.3
        _serve(server)
        try:
            with socket.create_connection(
                    ("127.0.0.1", server.server_address[1]), timeout=10) as s:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if s.recv(1) == b"":  # server closed the idle socket
                        break
                else:
                    raise AssertionError("idle connection never reaped")
        finally:
            server.shutdown()
            server.server_close()
            store.close()


class TestZeroCopySharedPayloads:
    def test_shared_cache_returns_memoryview(self, tmp_path):
        cache = SharedPayloadCache(tmp_path / "seg.bin")
        assert cache.put(7, "/v1/meta", b"payload-bytes", "w/tag")
        body, etag = cache.get(7, "/v1/meta")
        assert isinstance(body, memoryview)
        assert body == b"payload-bytes" and etag == "w/tag"
        cache.close()

    def test_view_survives_cache_remap_and_close(self, tmp_path):
        cache = SharedPayloadCache(tmp_path / "seg.bin")
        cache.put(1, "/a", b"first-body", "t1")
        body, _ = cache.get(1, "/a")
        # Growing the file forces a remap while the view is exported;
        # closing with a live export must not raise either.
        cache.put(1, "/b", b"x" * 4096, "t2")
        assert cache.get(1, "/b") is not None
        cache.close()
        assert bytes(body) == b"first-body"

    def test_event_loop_serves_shared_hit_zero_copy(self, tmp_path):
        snapshots = [
            ListSnapshot("alexa", dt.date(2018, 5, 1) + dt.timedelta(days=d),
                         ("a.com", "b.org")) for d in range(2)]
        store = ArchiveStore.from_archives(
            tmp_path / "s", {"alexa": ListArchive.from_snapshots(snapshots)})
        segment = tmp_path / "seg.bin"
        renderer = QueryService(store)
        renderer.attach_shared_cache(SharedPayloadCache(segment))
        rendered = renderer.handle_request("/v1/meta", {})
        assert rendered.status == 200

        serving = QueryService(ArchiveStore(tmp_path / "s"))
        shared = SharedPayloadCache(segment)
        serving.attach_shared_cache(shared)
        server = EventLoopServer(serving)
        _serve(server)
        try:
            responses = _request(server.server_address[1],
                                 [_get("/v1/meta")])
            status, headers, body = responses[0]
            assert status == 200
            assert headers["x-repro-cache"] == "shared"
            assert body == bytes(rendered.body)
            assert headers["etag"] == rendered.headers["ETag"]
            assert server.unhandled_errors == []
        finally:
            server.shutdown()
            server.server_close()


#: A server process that exhausts its own fd table once it is serving.
_EXHAUSTED_SERVER = textwrap.dedent('''
    import datetime as dt, os, resource, sys, threading, time
    from repro.providers.base import ListArchive, ListSnapshot
    from repro.service.api import QueryService
    from repro.service.eventloop import EventLoopServer
    from repro.service.store import ArchiveStore

    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (256, hard))
    store = ArchiveStore.from_archives(sys.argv[1], {"alexa":
        ListArchive.from_snapshots([ListSnapshot(
            "alexa", dt.date(2018, 5, 1), ("a.com", "b.org"))])})
    service = QueryService(store)
    assert service.handle_request("/v1/meta").status == 200
    server = EventLoopServer(service)
    threading.Thread(target=server.serve_forever,
                     kwargs={"poll_interval": 0.05}, daemon=True).start()
    hogs = []
    while True:
        try:
            hogs.append(os.open(os.devnull, os.O_RDONLY))
        except OSError:
            break
    print(server.server_address[1], flush=True)
    for line in sys.stdin:
        if line.strip() == "free":
            for fd in hogs:
                os.close(fd)
        print(time.process_time(), flush=True)
''')


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_NOFILE exhaustion test needs Linux")
class TestFdExhaustion:
    def test_emfile_pauses_accept_then_recovers(self, tmp_path):
        """Out of fds, the loop must neither spin nor stop accepting.

        With every descriptor taken, ``accept`` fails with EMFILE while
        the listen socket stays readable; a loop that kept watching it
        would burn a core.  Once fds free up, the waiting client is
        accepted and answered, and ``/v1/metrics`` counts the pause.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             env.get("PYTHONPATH", "")])
        with subprocess.Popen(
                [sys.executable, "-c", _EXHAUSTED_SERVER, str(tmp_path / "s")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, env=env) as proc:

            def cpu_seconds(command: str = "cpu") -> float:
                proc.stdin.write(command + "\n")
                proc.stdin.flush()
                return float(proc.stdout.readline())

            try:
                port = int(proc.stdout.readline())
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=10) as sock:
                    sock.sendall(_get("/v1/meta"))
                    time.sleep(0.2)  # the loop has met EMFILE by now
                    before = cpu_seconds()
                    time.sleep(1.5)
                    spent = cpu_seconds() - before
                    assert spent < 0.3, \
                        f"loop spun: {spent:.2f} CPU s in 1.5 s"
                    cpu_seconds("free")
                    with sock.makefile("rb") as reader:
                        status, _, body = _read_response(reader)
                        assert status == 200
                        assert b'"store_version"' in body
                        sock.sendall(_get("/v1/metrics"))
                        status, _, body = _read_response(reader)
                    assert status == 200
                    samples = parse_exposition(body.decode("utf-8"))
                    assert samples["repro_http_accept_pauses_total"] >= 1
            finally:
                proc.kill()
