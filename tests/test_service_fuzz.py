"""Wire-level fuzz tests for the HTTP serving layer.

The serving contract under hostile input: every answerable request gets
a JSON error envelope with a 4xx status, nothing a client sends escapes
the transport (``server.unhandled_errors`` is the tripwire), and
resource-shaped attacks — oversized bodies, truncated chunk streams,
half-sent bodies — neither stall the server nor desync a connection.
"""

import datetime as dt
import json
import random
import socket
import string
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.providers.base import ListArchive, ListSnapshot
from repro.service.api import QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.store import ArchiveStore


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzzstore")
    store = ArchiveStore(root / "s")
    store.append_archive(ListArchive.from_snapshots([
        ListSnapshot("alexa", dt.date(2018, 1, 1) + dt.timedelta(days=day),
                     (f"a{day}.example.com", "b.example.com", "c.example.org"))
        for day in range(3)]))
    service = QueryService(store)
    server = EventLoopServer(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    assert server.unhandled_errors == [], server.unhandled_errors
    server.shutdown()
    server.server_close()


def _port(server) -> int:
    return server.server_address[1]


def _raw_exchange(server, payload: bytes, timeout=10) -> bytes:
    """Send raw bytes, half-close, read the full response."""
    with socket.create_connection(("127.0.0.1", _port(server)),
                                  timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = b""
        while True:
            piece = sock.recv(65536)
            if not piece:
                return chunks
            chunks += piece


def _assert_4xx_envelope(response: bytes, context: str) -> None:
    """The response is a 4xx and (when a body exists) a JSON envelope.

    Requests whose line never parsed are answered as HTTP/0.9 by the
    stdlib (no status line, body only) — the envelope still carries the
    status.
    """
    assert response, f"{context}: server sent nothing"
    if response.startswith(b"HTTP/1.1 "):
        status = int(response.split(b" ", 2)[1])
        body = response.split(b"\r\n\r\n", 1)[1] if b"\r\n\r\n" in response else b""
    else:
        status, body = None, response
    if body:
        envelope = json.loads(body.decode("utf-8", "replace"))
        assert 400 <= envelope["error"]["status"] < 500, context
        if status is not None:
            assert envelope["error"]["status"] == status, context
    assert status is None or 400 <= status < 500, f"{context}: got {status}"


class TestMalformedRequestLines:
    def test_handpicked_garbage(self, fuzz_server):
        for payload in (
                b"GARBAGE\r\n\r\n",
                b"GET\r\n\r\n",
                b"GET /v1/meta\r\nHost: x\r\n\r\n",  # missing version → 0.9
                b"GET /v1/meta HTTP/9.9\r\n\r\n",
                b"\x00\x01\x02\r\n\r\n",
                b"GET " + b"/" * 70000 + b" HTTP/1.1\r\n\r\n",
        ):
            response = _raw_exchange(fuzz_server, payload)
            if payload.startswith(b"GET /v1/meta\r\n"):
                # A valid HTTP/0.9 simple request: bare 200 body, no
                # status line — the one non-4xx in the set.
                assert response.lstrip().startswith(b"{")
                continue
            if payload == b"GET /v1/meta HTTP/9.9\r\n\r\n":
                # Version negotiation failed before HTTP/1.1 framing was
                # agreed: a bare 505 JSON envelope, no status line.
                envelope = json.loads(response.decode("utf-8"))
                assert envelope["error"]["status"] == 505
                continue
            _assert_4xx_envelope(response, repr(payload[:40]))
        assert fuzz_server.unhandled_errors == []

    def test_seeded_random_request_lines(self, fuzz_server):
        rng = random.Random(0x5EED)
        alphabet = string.ascii_letters + string.digits + "/?#%&=+*()[]{}<>.,;:!@"
        for trial in range(25):
            line = "".join(rng.choices(alphabet, k=rng.randint(1, 120)))
            response = _raw_exchange(fuzz_server, line.encode() + b"\r\n\r\n")
            _assert_4xx_envelope(response, f"trial {trial}: {line[:40]!r}")
        assert fuzz_server.unhandled_errors == []


class TestIngestBodies:
    def _post(self, server, body: bytes, target="/v1/ingest",
              content_type="application/json"):
        request = urllib.request.Request(
            f"http://127.0.0.1:{_port(server)}{target}", data=body,
            method="POST", headers={"Content-Type": content_type})
        try:
            with urllib.request.urlopen(request, timeout=10) as wire:
                return wire.status, wire.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def test_seeded_random_bodies_are_400(self, fuzz_server):
        rng = random.Random(0xF00D)
        for trial in range(25):
            body = bytes(rng.randrange(256) for _ in range(rng.randint(1, 300)))
            status, payload = self._post(fuzz_server, body)
            assert status == 400, f"trial {trial}: {status}"
            assert json.loads(payload)["error"]["status"] == 400
        assert fuzz_server.unhandled_errors == []

    def test_structurally_invalid_documents_are_400(self, fuzz_server):
        documents = [
            b"[]", b'"entries"', b"{}",
            b'{"provider": "alexa"}',
            b'{"provider": "alexa", "date": "2018-13-99", "entries": ["a.com"]}',
            b'{"provider": "alexa", "date": "2018-02-01", "entries": []}',
            b'{"provider": "alexa", "date": "2018-02-01", "entries": "a.com"}',
            b'{"provider": "alexa", "date": "2018-02-01", "entries": [42]}',
            b'{"provider": "alexa", "date": "2018-02-01", "entries": ["' +
            b"x" * 300 + b'.com"]}',
            b'{"provider": "alexa", "date": "2018-02-01", "entries": ["a..com"]}',
            # Structurally fine but outside the wire charset: printable
            # junk must not occupy append-only interner id space.
            b'{"provider": "alexa", "date": "2018-02-01", "entries": ["q!z#a.x%y"]}',
            b'{"provider": "alexa", "date": "2018-02-01", "entries": ["a|b.com"]}',
            b'{"provider": "", "date": "2018-02-01", "entries": ["a.com"]}',
            b'{"provider": "a/b", "date": "2018-02-01", "entries": ["a.com"]}',
            b'{"provider": "alexa", "date": "2018-02-01", "entries": ["a.com"], '
            b'"extra": 1}',
        ]
        for document in documents:
            status, payload = self._post(fuzz_server, document)
            assert status == 400, (document[:60], status, payload[:120])
            assert json.loads(payload)["error"]["status"] == 400
        # Out-of-order (stale) days are a conflict, not a bad request.
        status, _ = self._post(
            fuzz_server,
            b'{"provider": "alexa", "date": "2018-01-01", "entries": ["a.com"]}')
        assert status == 409
        assert fuzz_server.unhandled_errors == []

    def test_oversized_declared_body_is_413_without_reading(self, fuzz_server):
        started = time.monotonic()
        response = _raw_exchange(
            fuzz_server,
            b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999\r\n\r\ntiny")
        assert time.monotonic() - started < 8, "413 path read the body"
        assert response.startswith(b"HTTP/1.1 413"), response[:40]
        assert fuzz_server.unhandled_errors == []

    def test_truncated_chunked_body_is_4xx(self, fuzz_server):
        response = _raw_exchange(
            fuzz_server,
            b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n10\r\nonly-part-of-a-chu")
        _assert_4xx_envelope(response, "truncated chunked")
        assert fuzz_server.unhandled_errors == []

    def test_body_shorter_than_declared_is_400(self, fuzz_server):
        response = _raw_exchange(
            fuzz_server,
            b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 500\r\n\r\nnot 500 bytes")
        assert response.startswith(b"HTTP/1.1 400"), response[:40]
        assert fuzz_server.unhandled_errors == []

    def test_missing_content_length_is_411(self, fuzz_server):
        response = _raw_exchange(
            fuzz_server, b"POST /v1/ingest HTTP/1.1\r\nHost: x\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 411"), response[:40]
        assert fuzz_server.unhandled_errors == []


class TestHeaderAndParamFuzz:
    def test_bad_if_none_match_values_never_error(self, fuzz_server):
        rng = random.Random(0xE7A6)
        alphabet = string.printable.replace("\r", "").replace("\n", "")
        for trial in range(20):
            value = "".join(rng.choices(alphabet, k=rng.randint(1, 80)))
            response = _raw_exchange(
                fuzz_server,
                b"GET /v1/meta HTTP/1.1\r\nHost: x\r\n"
                b"If-None-Match: " + value.encode() + b"\r\n\r\n")
            assert (response.startswith(b"HTTP/1.1 200")
                    or response.startswith(b"HTTP/1.1 304")), \
                f"trial {trial}: {response[:40]!r}"
        # The exact stored ETag still revalidates among the noise.
        with urllib.request.urlopen(
                f"http://127.0.0.1:{_port(fuzz_server)}/v1/meta",
                timeout=10) as wire:
            etag = wire.headers["ETag"]
        response = _raw_exchange(
            fuzz_server,
            b"GET /v1/meta HTTP/1.1\r\nHost: x\r\nIf-None-Match: "
            + etag.encode() + b"\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 304")
        assert fuzz_server.unhandled_errors == []

    def test_unknown_query_params_are_400(self, fuzz_server):
        targets = [
            "/v1/meta?verbose=1",
            "/v1/meta?verbose=",  # blank values must not slip past
            "/v1/domains/a0.example.com/history?frobnicate=2",
            "/v1/domains/a0.example.com/history?topk=10",  # typo of top_k
            "/v1/providers/alexa/stability?top_m=5",
            "/v1/compare?providers=alexa&provider=alexa",
            "/v1/scenarios/missing/report?format=xml",
        ]
        for target in targets:
            request = urllib.request.Request(
                f"http://127.0.0.1:{_port(fuzz_server)}{target}")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400, target
            envelope = json.loads(excinfo.value.read())
            assert "unknown query parameter" in envelope["error"]["message"]
        # A known parameter with a blank value fails validation loudly
        # instead of silently serving the default.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{_port(fuzz_server)}"
                "/v1/providers/alexa/stability?top_n=", timeout=10)
        assert excinfo.value.code == 400
        assert fuzz_server.unhandled_errors == []

    def test_get_with_body_keeps_keepalive_in_sync(self, fuzz_server):
        # A GET carrying Content-Length is unusual but legal; its body
        # must be drained, or the next pipelined request on the same
        # connection would be parsed starting at the body bytes.
        with socket.create_connection(("127.0.0.1", _port(fuzz_server)),
                                      timeout=10) as sock:
            sock.sendall(
                b"GET /v1/meta HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n"
                b"\r\nhello"
                b"GET /v1/meta HTTP/1.1\r\nHost: x\r\n\r\n")
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                piece = sock.recv(65536)
                if not piece:
                    break
                data += piece
        assert data.count(b"HTTP/1.1 200") == 2, data[:200]
        assert b"501" not in data.split(b"\r\n")[0]
        assert fuzz_server.unhandled_errors == []

    def test_internal_errors_answer_generic_500(self, fuzz_server,
                                                monkeypatch):
        # An unexpected exception answers a 500 envelope naming only the
        # exception type — str(error) can carry server-side paths.
        service = fuzz_server.service

        def explode():
            raise OSError("[Errno 28] No space left on device: '/srv/secret'")

        monkeypatch.setattr(service, "meta_payload", explode)
        service.clear_cache()
        request = urllib.request.Request(
            f"http://127.0.0.1:{_port(fuzz_server)}/v1/meta")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 500
        body = excinfo.value.read().decode("utf-8")
        assert "/srv/secret" not in body
        assert "OSError" in body
        assert any(isinstance(e, OSError) for e in service.internal_errors)
        service.clear_cache()
        assert fuzz_server.unhandled_errors == []

    def test_unsupported_methods_answer_envelopes(self, fuzz_server):
        # PUT/DELETE/PATCH → 405 with Allow; never a raw 501 HTML page.
        for method, allow in (("PUT", "GET, HEAD"), ("DELETE", "GET, HEAD"),
                              ("PATCH", "POST")):
            target = "/v1/ingest" if allow == "POST" else "/v1/meta"
            response = _raw_exchange(
                fuzz_server,
                f"{method} {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            assert response.startswith(b"HTTP/1.1 405"), (method, response[:40])
            assert f"Allow: {allow}".encode() in response, (method, response)
        assert fuzz_server.unhandled_errors == []
