"""The keep-alive and fuzz wire contracts, through ``repro-serve balance``.

The balancer's front is the same event loop every ``serve`` process
runs, and a proxied answer must be the backend's answer.  So the cases
of ``test_service_keepalive.py`` and ``test_service_fuzz.py`` run here
once more with the balancer as the target: this module overrides their
server fixtures with a :class:`Balancer` fronting an ``EventLoopServer``
over the same kind of store, and imports the test classes instead of
copying them.  Each fixture yields the balancer's front server, so the
cases' ``unhandled_errors`` and socket checks apply to the proxy; the
backend's tripwire is checked at teardown.

Left out: ``test_internal_errors_answer_generic_500``, which
monkeypatches the in-process ``QueryService`` behind the target.
"""

import threading

import pytest

import test_service_fuzz as fuzz
import test_service_keepalive as keepalive
from repro.service.api import QueryService
from repro.service.balance import Balancer
from repro.service.eventloop import EventLoopServer
from test_service_fuzz import (  # noqa: F401 — collected against the proxy
    TestIngestBodies, TestMalformedRequestLines)
from test_service_keepalive import (  # noqa: F401 — collected likewise
    TestCleanErrorsKeepAlive, TestIfNoneMatchRFC7232, TestNoDelay,
    TestProtocolFailuresClose)


def _through_balancer(store):
    """Yield a balancer's front server over one backend serving ``store``."""
    backend = EventLoopServer(QueryService(store))
    threading.Thread(target=backend.serve_forever, daemon=True).start()
    balancer = Balancer(
        [f"http://127.0.0.1:{backend.server_address[1]}"],
        check_interval=0.1).start()
    try:
        yield balancer.server
    finally:
        balancer.stop()
        backend.shutdown()
        backend.server_close()
        store.close()
    assert balancer.server.unhandled_errors == [], \
        balancer.server.unhandled_errors
    assert backend.unhandled_errors == [], backend.unhandled_errors


@pytest.fixture(scope="module")
def keepalive_server(tmp_path_factory):
    yield from _through_balancer(keepalive.build_store(
        tmp_path_factory.mktemp("keepalive-balanced")))


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    yield from _through_balancer(fuzz.build_store(
        tmp_path_factory.mktemp("fuzz-balanced")))


class TestHeaderAndParamFuzz(fuzz.TestHeaderAndParamFuzz):
    test_internal_errors_answer_generic_500 = None  # direct only
