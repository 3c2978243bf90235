"""Chaos differential tests: replicated serving under injected faults.

The headline robustness claim of the serving layer, as a test: under a
*seeded* chaos schedule — leader processes killed mid-append, shard
tails torn, manifest renames failing, replication responses dropped —
the leader recovers, the follower resyncs, and at every shared version
the two serve **byte-identical** payloads from byte-identical store
files, with zero unhandled errors escaping a serving thread.

Every schedule is a :class:`repro.faults.FaultPlan`, so a failing run
reproduces exactly from its seed.  ``REPRO_CHAOS_SEED`` (the CI seed
matrix) shifts all schedule seeds, widening coverage across jobs
without giving up determinism within one.

Process deaths are simulated, not real: an ``InjectedCrash`` unwinds to
the harness (no rollback, no flush — dead processes run no cleanup),
which "restarts" the node by reopening its store from disk, exactly the
recovery path a real supervisor restart would take.
"""

import datetime as dt
import http.client
import json
import os
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultRule, InjectedCrash
from repro.providers.base import ListSnapshot
from repro.service.api import ApiError, QueryService
from repro.service.eventloop import EventLoopServer
from repro.service.replica import Replica, http_fetcher
from repro.service.store import ArchiveStore
from repro.util.retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryExhaustedError,
    RetryPolicy,
)

#: CI shifts this to widen seed coverage across jobs (matrix dimension).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

BASE_DATE = dt.date(2018, 5, 1)
PROVIDERS = ("alexa", "umbrella")
DAYS = 6

#: Endpoints whose payloads must be byte-identical at a shared version.
DIFFERENTIAL_TARGETS = (
    "/v1/meta",
    "/v1/providers/alexa/stability",
    "/v1/providers/umbrella/stability?top_n=3",
    "/v1/domains/shared.org/history",
    "/v1/compare?providers=alexa,umbrella",
    "/v1/replication/log?since=0&max=256",
)

#: The named chaos schedules of the acceptance criteria, plus extras.
SCHEDULES = {
    "leader-kill-mid-append": [
        FaultRule("store.shard.write", "crash", probability=0.2, max_fires=2),
        FaultRule("store.table.write", "crash", probability=0.15, max_fires=1),
        FaultRule("store.manifest.rename.before", "crash",
                  probability=0.2, max_fires=1),
    ],
    "torn-shard-tail": [
        FaultRule("store.shard.write", "torn", probability=0.35, max_fires=4),
        FaultRule("store.table.write", "torn", probability=0.2, max_fires=2),
    ],
    "failed-manifest-rename": [
        FaultRule("store.manifest.rename.before", "error",
                  probability=0.35, max_fires=4),
        FaultRule("store.manifest.fsync", "error",
                  probability=0.2, max_fires=2),
    ],
    "dropped-replication-responses": [
        FaultRule("replica.fetch", "drop", probability=0.45, max_fires=8),
    ],
    "crash-after-manifest-publish": [
        # The data is durable, only post-rename cleanup dies: restart
        # must keep the record (re-ingest answers 409 Conflict).
        FaultRule("store.manifest.rename.after", "crash", on_calls=(2,)),
    ],
    "replica-crash-mid-apply": [
        FaultRule("replica.apply", "crash", on_calls=(3, 11)),
        FaultRule("store.dirty.fsync", "error", probability=0.2, max_fires=2),
    ],
    "kitchen-sink": [
        FaultRule("store.shard.write", "torn", probability=0.12, max_fires=2),
        FaultRule("store.manifest.rename.before", "error",
                  probability=0.12, max_fires=2),
        FaultRule("store.shard.fsync", "crash", probability=0.08, max_fires=1),
        FaultRule("replica.fetch", "drop", probability=0.25, max_fires=4),
        FaultRule("replica.apply", "crash", probability=0.06, max_fires=1),
    ],
}


def _snapshot(provider: str, day: int) -> ListSnapshot:
    entries = tuple(f"{provider}-d{day}-r{rank}.com" for rank in range(4)) + (
        "shared.org", f"rotating-{day % 3}.net")
    return ListSnapshot(provider, BASE_DATE + dt.timedelta(days=day), entries)


class _ChaosHarness:
    """A leader and a follower whose 'processes' the plan may kill.

    Node state lives behind this object so a simulated restart can drop
    the in-memory objects and reopen from disk — the only recovery a
    real crash leaves available.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.leader_store = ArchiveStore(root / "leader")
        self.leader = QueryService(self.leader_store)
        self.follower_store = ArchiveStore(root / "follower")
        self.follower = QueryService(self.follower_store, role="follower")
        self.replica = self._make_replica()
        self.leader_restarts = 0
        self.follower_restarts = 0

    # -- node lifecycle ---------------------------------------------------
    def restart_leader(self) -> None:
        self.leader_store = ArchiveStore(self.root / "leader", create=False)
        self.leader = QueryService(self.leader_store)
        self.leader_restarts += 1

    def restart_follower(self) -> None:
        self.follower_store = ArchiveStore(self.root / "follower",
                                           create=False)
        self.follower = QueryService(self.follower_store, role="follower")
        self.replica = self._make_replica()
        self.follower_restarts += 1

    def _make_replica(self) -> Replica:
        replica = Replica(
            self.follower_store, self._fetch, batch=3, sleep=lambda s: None,
            policy=RetryPolicy(max_attempts=10, base_delay=0.0, max_delay=0.0),
            breaker=CircuitBreaker(failure_threshold=100))
        self.follower.attach_replica(replica)
        return replica

    def _fetch(self, since: int, limit: int) -> dict:
        response = self.leader.handle_request(
            f"/v1/replication/log?since={since}&max={limit}")
        if response.status != 200:
            raise OSError(f"replication fetch failed: {response.status}")
        return response.json()

    # -- chaos-tolerant operations ----------------------------------------
    def ingest(self, snapshot: ListSnapshot) -> None:
        """Ingest one day on the leader, surviving faults and crashes."""
        for _ in range(25):
            try:
                self.leader.ingest(snapshot)
                return
            except InjectedCrash:
                self.restart_leader()
                # The append may have become durable before the death
                # (crash after the manifest rename): the retry below
                # then answers 409, which is success.
            except ApiError as error:
                if error.status == 409:
                    return
                raise
            except OSError:
                continue  # injected I/O failure; append rolled back
        raise AssertionError(f"could not ingest {snapshot.date} under chaos")

    def sync(self) -> None:
        """Drive the follower to staleness 0, surviving its crashes."""
        for _ in range(40):
            try:
                self.replica.sync_once()
                if self.replica.staleness() == 0:
                    return
            except InjectedCrash:
                self.restart_follower()
            except (RetryExhaustedError, CircuitOpenError, OSError):
                continue
        raise AssertionError("follower could not catch up under chaos")

    # -- oracles ----------------------------------------------------------
    def assert_converged(self) -> None:
        assert self.follower_store.version == self.leader_store.version
        assert self.replica.staleness() == 0
        for name in ("interner.tbl",):
            assert (self.root / "leader" / name).read_bytes() == \
                (self.root / "follower" / name).read_bytes()
        leader_shards = sorted(
            p.relative_to(self.root / "leader")
            for p in (self.root / "leader").rglob("*.rls"))
        follower_shards = sorted(
            p.relative_to(self.root / "follower")
            for p in (self.root / "follower").rglob("*.rls"))
        assert leader_shards == follower_shards
        for shard in leader_shards:
            assert (self.root / "leader" / shard).read_bytes() == \
                (self.root / "follower" / shard).read_bytes(), shard

    def assert_payloads_identical(self) -> None:
        for target in DIFFERENTIAL_TARGETS:
            left = self.leader.handle_request(target)
            right = self.follower.handle_request(target)
            assert left.status == right.status == 200, target
            assert left.body == right.body, target

    def assert_no_internal_errors(self) -> None:
        assert self.leader.internal_errors == []
        assert self.follower.internal_errors == []


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_chaos_differential(schedule: str, tmp_path: Path) -> None:
    """The headline oracle, once per named fault schedule."""
    harness = _ChaosHarness(tmp_path)
    seed = CHAOS_SEED * 1000 + sum(ord(c) for c in schedule)
    plan = FaultPlan(seed, SCHEDULES[schedule])
    with faults.injected(plan):
        for day in range(DAYS):
            for provider in PROVIDERS:
                harness.ingest(_snapshot(provider, day))
            harness.sync()
            # Shared version reached: the differential must hold *now*,
            # mid-chaos, not only after the dust settles.
            harness.assert_payloads_identical()
    harness.sync()
    harness.assert_converged()
    harness.assert_payloads_identical()
    harness.assert_no_internal_errors()
    # The schedule must have actually executed faults — a plan that
    # never fired proves nothing about robustness.
    assert plan.fired, f"schedule {schedule!r} fired no faults"


def test_crash_after_publish_keeps_record(tmp_path: Path) -> None:
    """A death after the manifest rename must preserve the append."""
    harness = _ChaosHarness(tmp_path)
    plan = FaultPlan(1, [FaultRule("store.manifest.rename.after", "crash",
                                   on_calls=(1,))])
    snapshot = _snapshot("alexa", 0)
    with faults.injected(plan):
        harness.ingest(snapshot)
    assert faults.fired_crash(plan)
    assert harness.leader_restarts == 1
    assert harness.leader_store.dates("alexa") == [snapshot.date]
    assert harness.leader_store.load_snapshot(
        "alexa", snapshot.date).entries == snapshot.entries


def test_seeded_schedule_is_reproducible(tmp_path: Path) -> None:
    """Two runs of one schedule+seed fire the identical fault sequence."""
    def run(root: Path) -> list:
        harness = _ChaosHarness(root)
        plan = FaultPlan(99, SCHEDULES["torn-shard-tail"])
        with faults.injected(plan):
            for day in range(3):
                harness.ingest(_snapshot("alexa", day))
            harness.sync()
        return list(plan.fired)

    assert run(tmp_path / "a") == run(tmp_path / "b")


def test_wire_chaos_keeps_serving_threads_alive(tmp_path: Path) -> None:
    """Socket-level faults: the transport survives, tripwire empty.

    The leader's HTTP server runs under torn/dropped response writes and
    failing request reads; a real follower tails it over HTTP through
    the retry policy, and clients keep querying both.  Nothing may land
    in ``EventLoopServer.unhandled_errors`` — connection deaths are a
    handled condition, not an escape.
    """
    leader_store = ArchiveStore(tmp_path / "leader")
    for day in range(2):
        leader_store.append(_snapshot("alexa", day))
    leader = QueryService(leader_store)
    leader_server = EventLoopServer(leader, port=0)
    leader_port = leader_server.server_address[1]
    threading.Thread(target=leader_server.serve_forever, daemon=True).start()

    follower_store = ArchiveStore(tmp_path / "follower")
    follower = QueryService(follower_store, role="follower")
    replica = Replica(
        follower_store, http_fetcher(f"http://127.0.0.1:{leader_port}"),
        policy=RetryPolicy(max_attempts=12, base_delay=0.0, max_delay=0.01),
        breaker=CircuitBreaker(failure_threshold=200), sleep=lambda s: None)
    follower.attach_replica(replica)

    plan = FaultPlan(CHAOS_SEED * 1000 + 7, [
        FaultRule("api.response.write", "torn", probability=0.3, max_fires=6),
        FaultRule("api.response.write", "drop", probability=0.2, max_fires=4),
        FaultRule("api.request.read", "drop", probability=0.3, max_fires=3),
    ])
    try:
        with faults.injected(plan):
            for _ in range(30):
                try:
                    replica.sync_once()
                except (RetryExhaustedError, CircuitOpenError, OSError,
                        ValueError):
                    continue
                if replica.staleness() == 0:
                    break
            # Clients keep hammering the leader while responses tear.
            for _ in range(20):
                try:
                    with urllib.request.urlopen(
                            f"http://127.0.0.1:{leader_port}/v1/meta",
                            timeout=5) as response:
                        response.read()
                except (OSError, urllib.error.URLError,
                        http.client.HTTPException):
                    # Torn responses reach the client as IncompleteRead —
                    # client-visible damage is the point; the *server*
                    # side must stay clean (asserted below).
                    continue
            # Ingest POSTs whose body reads may be dropped mid-upload.
            body = json.dumps({
                "provider": "umbrella", "date": "2018-05-01",
                "entries": ["wire-a.com", "wire-b.org"]}).encode()
            for _ in range(10):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{leader_port}/v1/ingest", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST")
                try:
                    with urllib.request.urlopen(request, timeout=5):
                        break
                except urllib.error.HTTPError as error:
                    if error.code == 409:
                        break
                    continue
                except (OSError, urllib.error.URLError):
                    continue
        # Chaos off: the follower must now converge fully.
        replica.sync_to_leader()
    finally:
        leader_server.shutdown()
        leader_server.server_close()
    assert plan.fired, "wire schedule fired no faults"
    assert leader_server.unhandled_errors == []
    assert follower_store.version == leader_store.version
    for target in ("/v1/meta", "/v1/providers/alexa/stability"):
        assert leader.handle_request(target).body == \
            follower.handle_request(target).body, target


def test_degraded_admission_answers_503(tmp_path: Path) -> None:
    """An ``error`` rule at api.request is load-shedding, not a 500."""
    store = ArchiveStore(tmp_path / "s")
    store.append(_snapshot("alexa", 0))
    service = QueryService(store)
    plan = FaultPlan(3, [FaultRule("api.request", "error", on_calls=(2,))])
    with faults.injected(plan):
        assert service.handle_request("/v1/meta").status == 200
        degraded = service.handle_request("/v1/meta")
        assert degraded.status == 503
        assert "degraded" in degraded.json()["error"]["message"]
        assert service.handle_request("/v1/meta").status == 200
    # Deliberate degradation is not an internal error.
    assert service.internal_errors == []


class TestPoolWriterChaos:
    """Writer-process death under the pre-fork pool — real processes.

    The harness-level schedules above *simulate* a process death by
    unwinding ``InjectedCrash`` to the test.  Here the same seeded
    schedule runs under :class:`~repro.service.workers.WorkerPool`,
    where the crash is a real ``os._exit`` in a forked writer: the
    parent respawns the slot, the retried ingest goes through the
    store's recovery path on disk, and every read worker converges to
    byte-identical payloads.
    """

    POOL_TARGETS = (
        "/v1/meta",
        "/v1/providers/alexa/stability",
        "/v1/domains/shared.org/history",
    )

    @staticmethod
    def _writer_init_factory(counter: Path):
        """Per-incarnation seeded plans for the writer process.

        Incarnation 0 crashes deterministically on its second shard
        append (mid-run, with data already durable); later incarnations
        draw from their own child streams with bounded fires, so every
        respawn can make progress and the whole schedule replays from
        ``REPRO_CHAOS_SEED``.
        """
        def worker_init(role: str, index: int) -> None:
            if role != "writer":
                return
            incarnation = int(counter.read_text()) if counter.exists() else 0
            counter.write_text(str(incarnation + 1))
            if incarnation == 0:
                rules = [FaultRule("store.shard.write", "crash",
                                   on_calls=(2,))]
            else:
                rules = [FaultRule("store.*.write", "crash",
                                   probability=0.2, max_fires=1)]
            faults.install(
                FaultPlan(CHAOS_SEED * 4099 + incarnation, rules))
        return worker_init

    @pytest.mark.skipif(not hasattr(os, "fork"),
                        reason="worker pool requires os.fork")
    def test_writer_crash_mid_append_under_pool(self, tmp_path: Path) -> None:
        from repro.service.workers import CRASH_EXIT_CODE, WorkerPool

        root = tmp_path / "pool-store"
        store = ArchiveStore(root)
        store.append(_snapshot("alexa", 0))
        store.append(_snapshot("umbrella", 0))
        store.close()

        import time

        def post_ingest(base: str, snapshot: ListSnapshot) -> None:
            body = json.dumps({
                "provider": snapshot.provider,
                "date": snapshot.date.isoformat(),
                "entries": list(snapshot.entries)}).encode()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                request = urllib.request.Request(
                    base + "/v1/ingest", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST")
                try:
                    with urllib.request.urlopen(request, timeout=10) as r:
                        assert r.status == 200
                        return
                except urllib.error.HTTPError as error:
                    if error.code == 409:
                        return  # durable before the death: success
                    assert error.code == 503, error.code
                except (ConnectionError, http.client.RemoteDisconnected,
                        TimeoutError, OSError):
                    pass  # writer mid-death; retry
                time.sleep(0.1)
            raise AssertionError(f"ingest of {snapshot.date} never landed")

        def converged_bodies(base: str, version: int) -> dict:
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                meta = set()
                for _ in range(6):
                    try:
                        with urllib.request.urlopen(base + "/v1/meta",
                                                    timeout=10) as r:
                            meta.add(r.read())
                    except (ConnectionError,
                            http.client.RemoteDisconnected):
                        break
                if len(meta) == 1 and json.loads(
                        meta.pop())["store_version"] == version:
                    return {
                        target: urllib.request.urlopen(
                            base + target, timeout=10).read()
                        for target in TestPoolWriterChaos.POOL_TARGETS}
                time.sleep(0.1)
            raise AssertionError(f"pool never converged on v{version}")

        counter = tmp_path / "writer-incarnation"
        with WorkerPool(root, workers=2, poll_interval=0.05,
                        worker_init=self._writer_init_factory(counter)
                        ) as pool:
            base = f"http://127.0.0.1:{pool.port}"
            with urllib.request.urlopen(base + "/v1/meta") as r:
                start_version = json.loads(r.read())["store_version"]
            for day in range(1, DAYS):
                for provider in PROVIDERS:
                    post_ingest(base, _snapshot(provider, day))
            final = start_version + (DAYS - 1) * len(PROVIDERS)
            bodies = converged_bodies(base, final)
            # The schedule executed: the writer really died and came
            # back (incarnation counter past 1, crash exit recorded).
            writer = next(w for w in pool.describe()["workers"]
                          if w["role"] == "writer")
            assert writer["restarts"] >= 1
            assert writer["last_exit"] == CRASH_EXIT_CODE
            assert int(counter.read_text()) == writer["restarts"] + 1
            # Byte-identity at the converged version, across many hits
            # of the kernel-balanced accept loop.
            for target, expected in bodies.items():
                for _ in range(6):
                    with urllib.request.urlopen(base + target,
                                                timeout=10) as r:
                        assert r.read() == expected, target
