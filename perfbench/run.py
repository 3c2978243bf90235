#!/usr/bin/env python3
"""One benchmark for the deployed top-list service and the paper battery.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run generates a ``paper_bench`` corpus (100k entries x 10 days x 3
providers, :func:`repro.scale.synthetic_archives`) from ``--seed``, plus
later days of the same series for ingest.  Workloads:

``read_hot``
    Zipf over 64 targets spanning every read route, smaller than the
    256-entry response LRU: after priming nearly every read is a hit.
``read_cold``
    A working set far beyond the LRU (history of uniformly drawn
    domains, stability and compare with random ``top_n``): most reads
    are rendered.
``paper_battery``
    No HTTP: the analysis battery (``battery.py``) in a child process
    on the stored days, after one offline ``repro-serve ingest`` per
    provider.
``ingest_mixed``
    ``read_hot``'s stream at half the rate beside a ``text/csv`` ``POST
    /v1/ingest`` of one 100k-row day every 3.5 s of the open loop.

``BENCHMARK.json`` gates the first two; the spreads of the other two
exceed the largest bound (``README.md``).

The HTTP workloads boot the deployed topology through the CLI
(``topology.py``) and drive it from one separate client process
(``client.py``): an open loop at the workload's fixed rate, then a
closed loop over ``nproc`` keep-alive connections.  Then come ingests
to the pool, then the battery on the final store.  Every end-to-end
metric is measured on every workload; ``README.md`` says what each
means where.

Each run checks its outputs: every distinct (store version, target)
body equals ``QueryService.handle_request`` on a read-only store at
that version, every ETag is the SHA-256 of its body, every ingest
advances ``store_version`` exactly once, and the battery equals the
same battery on the in-memory archives plus the ingested days.
A failed check prints ``"correct": false`` and exits 1.

``--trace 1`` runs the same workload with spans recorded and reports
the per-layer metrics instead (``layers.py`` and the probes below).
The last stdout line is the JSON result; every run also appends its
stamped record to ``.perfbench/results.jsonl`` (``--record`` to change),
which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import http.client
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (INF, Inputs, Tracer, percentile,  # noqa: E402
                     poisson_arrivals, samples_beyond, self_time_by_name)

#: Days of the series generated beyond the stored ``paper_bench`` days,
#: per provider (the ingest material).
EXTRA_DAYS = 4

#: Ingests after the timed phases of an HTTP run (round-robin over
#: providers); ``ingest_p50_s`` is their median on the read workloads.
TRAILING_INGESTS = 6

#: Share of ``--seconds`` given to the open loop; the closed loop gets
#: the rest.
OPEN_SHARE = 0.7

#: Timed GETs of each serial keep-alive probe (after 50 untimed ones).
PROBE_GETS = 400


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    http: bool
    stream: str = "hot"            # "hot" | "cold"
    rate: float = 0.0              # open-loop offered reads per second
    ingest_every: Optional[float] = None   # seconds, during the timed phases


#: Offered open-loop rates are about a quarter (``read_hot``, ~1100/s)
#: and a fifth (``read_cold``, ~550/s) of the closed-loop
#: ``throughput_rps`` on 2 cores: the open loop measures service time,
#: not a queue.  ``ingest_mixed`` offers half of ``read_hot``'s rate.
WORKLOADS = {
    "read_hot": Workload("read_hot", http=True, stream="hot", rate=250.0),
    "read_cold": Workload("read_cold", http=True, stream="cold", rate=100.0),
    "ingest_mixed": Workload("ingest_mixed", http=True, stream="hot",
                             rate=125.0, ingest_every=3.5),
    "paper_battery": Workload("paper_battery", http=False),
}

#: The traced ``paper_battery`` run boots the topology under this
#: workload so every per-layer metric exists on every workload.
PROBE = WORKLOADS["read_hot"]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(args: argparse.Namespace) -> dict[str, Any]:
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": dt.datetime.now(dt.timezone.utc).isoformat(),
    }


def stored_version(store: Path) -> int:
    from repro.service.store import ArchiveStore

    with ArchiveStore(store, create=False, read_only=True) as opened:
        return opened.version


def post_csv(port: int, target: str, body: bytes) -> tuple[int, Optional[int]]:
    """``POST /v1/ingest`` of one CSV day; ``(status, store_version)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", target, body=body,
                     headers={"Content-Type": "text/csv"})
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    version = json.loads(data)["store_version"] if response.status == 200 else None
    return response.status, version


class Run:
    """One benchmark run: inputs, phases, checks and metrics."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        from repro.providers.base import ListArchive
        from repro.scale import get_scale, synthetic_archives

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.traced = bool(args.trace)
        self.tracer = Tracer(enabled=self.traced)
        self.workdir = workdir
        self.nproc = nproc()
        self.lines: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}

        self.scale = get_scale("paper_bench")
        grown = dataclasses.replace(self.scale, name="paper_bench+ingest",
                                    n_days=self.scale.n_days + EXTRA_DAYS)
        full = synthetic_archives(grown, seed=args.seed)
        n = self.scale.n_days
        self.providers = sorted(full)
        self.base = {p: ListArchive.from_snapshots(full[p].snapshots()[:n],
                                                   provider=p)
                     for p in self.providers}
        #: Ingest material, round-robin over providers, so consecutive
        #: indices keep each provider's dates in order.
        self.days = [full[p].snapshots()[n + d]
                     for d in range(EXTRA_DAYS) for p in self.providers]
        universe = self.scale.universe_size
        self.inputs = Inputs(seed=args.seed, universe=universe,
                             width=max(7, len(str(grown.universe_size - 1))),
                             providers=tuple(self.providers))

    # -- bookkeeping ------------------------------------------------------
    def latencies(self, seconds: list[float], what: str) -> None:
        """Set the latency percentiles of one sample (``inf`` = failed).

        p90 and p99 are recorded and printed but not gated by
        ``BENCHMARK.json``: their run-to-run spread on a 2-core machine
        exceeds any bound the benchmark may set (see ``README.md``).
        """
        n = len(seconds)
        for q in (50, 90, 99):
            self.e2e[f"latency_p{q}_ms"] = percentile(seconds, q) * 1e3
        self.say(f"{what}: {n} samples, p50 {self.e2e['latency_p50_ms']:.3f} ms, "
                 f"p90 {self.e2e['latency_p90_ms']:.3f} ms "
                 f"({samples_beyond(n, 90)} beyond), p99 "
                 f"{self.e2e['latency_p99_ms']:.3f} ms "
                 f"({samples_beyond(n, 99)} beyond)")

    def say(self, line: str) -> None:
        self.lines.append(line)
        print(line, flush=True)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.failed += 1
        self.say(f"CHECK FAILED: {message}")

    def write_csv(self, index: int) -> Path:
        snapshot = self.days[index]
        path = self.workdir / f"day-{index}.csv"
        if not path.exists():
            path.write_text("".join(f"{rank},{name}\n" for rank, name
                                    in enumerate(snapshot.entries, 1)),
                            encoding="utf-8")
        return path

    def ingest_target(self, index: int) -> str:
        snapshot = self.days[index]
        return (f"/v1/ingest?provider={snapshot.provider}"
                f"&date={snapshot.date.isoformat()}")

    # -- the battery child --------------------------------------------------
    def start_battery(self, store: Path, sweep: bool = False
                      ) -> tuple[subprocess.Popen, Path]:
        """Start the battery child on ``store``; :meth:`battery` collects it."""
        out = self.workdir / f"battery-{store.parent.name}.json"
        err = open(self.workdir / f"battery-{store.parent.name}.err", "wb")
        extra = ["--sweep-seed", str(self.args.seed)] if sweep else []
        try:
            child = subprocess.Popen(
                [sys.executable, str(HERE / "battery.py"), "--store",
                 str(store), "--out", str(out), "--trace",
                 str(int(self.traced)), *extra],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                stdout=subprocess.DEVNULL, stderr=err)
        finally:
            err.close()
        return child, out

    def battery(self, child: subprocess.Popen, out: Path) -> dict:
        try:
            code = child.wait(timeout=170)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if code != 0:
            stderr = out.with_suffix(".err").read_text(errors="replace")
            raise RuntimeError(f"battery child failed:\n{stderr[-3000:]}")
        doc = json.loads(out.read_text(encoding="utf-8"))
        self.attempted += 1
        results = json.loads(doc["results"])
        churn = self.scale.churn_per_day
        for provider, change in results["full_width_change"].items():
            if change != churn:
                self.fail(f"battery: full-width mean daily change of "
                          f"{provider} is {change}, corpus churn is {churn}")
        if self.traced:
            self.tracer.spans.extend(_spans(doc["spans"], self.tracer))
            durations = {}
            for span in doc["spans"]:
                durations[span["name"]] = (durations.get(span["name"], 0.0)
                                           + span["end"] - span["start"])
            for layer in ("stability", "intersection", "kendall", "churn",
                          "weekly", "structure"):
                self.layers[f"core.{layer}_ms"] = durations[f"core.{layer}"] * 1e3
            self.layers["store.load_archive_ms"] = \
                durations["store.load_archives"] * 1e3
            self.layers["store.chunks_inflated"] = doc["chunks_inflated"]
        return doc

    # -- HTTP workloads -----------------------------------------------------
    def plan(self, spec: Workload, seconds: float, port: int,
             ingest_port: int) -> dict:
        open_s = seconds * OPEN_SHARE
        closed_s = seconds - open_s
        dues = poisson_arrivals(self.inputs.rng("open-arrivals"), spec.rate,
                                open_s)
        draw = (self.inputs.hot_stream if spec.stream == "hot"
                else self.inputs.cold_stream)
        requests = list(zip(dues, draw("open", len(dues))))
        per_thread = 6000 if spec.stream == "hot" else 4000
        streams = [draw(f"closed-{i}", per_thread) for i in range(self.nproc)]
        phases = [{"name": "open", "kind": "open", "duration": open_s,
                   "requests": requests, "ingests": []},
                  {"name": "closed", "kind": "closed", "duration": closed_s,
                   "streams": streams}]
        if spec.ingest_every:
            # Ingests ride the open loop only, ending early enough that
            # their adoption has settled before the closed loop starts,
            # and leaving days for the trailing ingests.
            due, index = 0.5, 0
            while (due <= open_s - 1.25
                   and index + TRAILING_INGESTS < len(self.days)):
                snapshot = self.days[index]
                phases[0]["ingests"].append({
                    "due": due, "index": index,
                    "target": self.ingest_target(index),
                    "csv": str(self.write_csv(index)),
                    "provider": snapshot.provider,
                    "date": snapshot.date.isoformat()})
                index += 1
                due += spec.ingest_every
        return {"host": "127.0.0.1", "port": port, "ingest_port": ingest_port,
                "threads": self.nproc, "trace": int(self.traced),
                "phases": phases,
                "out": str(self.workdir / f"client-{spec.name}.json")}

    def serial_probe(self, port: int, target: str, name: str) -> float:
        """Median seconds of serial keep-alive GETs of one cached target."""
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        costs = []
        try:
            for i in range(PROBE_GETS + 50):
                start = time.perf_counter()
                conn.request("GET", target)
                response = conn.getresponse()
                response.read()
                end = time.perf_counter()
                if response.status != 200:
                    raise RuntimeError(f"{name} probe: status {response.status}")
                if i >= 50:
                    costs.append(end - start)
                    self.tracer.record(name, start, end)
        finally:
            conn.close()
        return statistics.median(costs)

    def run_http(self, spec: Workload, seconds: float,
                 with_battery: bool = True) -> None:
        from repro.service.store import ArchiveStore
        from topology import Topology

        work = self.workdir / spec.name
        work.mkdir(parents=True)
        store, follower = work / "store", work / "follower"
        reference, probe_store = work / "reference", work / "probe"

        began = time.perf_counter()
        with self.tracer.span("setup.store_build"):
            ArchiveStore.from_archives(store, self.base).close()
        build_s = time.perf_counter() - began
        for copy in (reference, probe_store):   # pristine copies, untimed
            shutil.copytree(store, copy)
        topo = Topology(ROOT, work, store, follower, self.nproc)
        began = time.perf_counter()
        try:
            with self.tracer.span("setup.boot"):
                shutil.copytree(store, follower)
                topo.start()
            with self.tracer.span("setup.warm"):
                topo.warm()
            setup_s = build_s + time.perf_counter() - began
            self.e2e["setup_s"] = setup_s
            self.layers["pool.ready_s"] = topo.pool_ready_s
            self.say(f"setup: store build {build_s:.2f}s, boot+warm "
                     f"{setup_s - build_s:.2f}s ({self.nproc} readers + "
                     "writer, follower, balancer)")

            if spec.stream == "hot":
                # Prime the hot set in every serving process (untimed),
                # so the timed phases see the cache state they model.
                for name, port in topo.private_ports.items():
                    if name.startswith("writer"):
                        continue
                    primer = http.client.HTTPConnection("127.0.0.1", port,
                                                        timeout=60)
                    try:
                        for target in self.inputs.hot_targets():
                            primer.request("GET", target)
                            primer.getresponse().read()
                    finally:
                        primer.close()

            counters_before = topo.counters()
            balancer_before = topo.balancer_state()
            plan = self.plan(spec, seconds, topo.balancer_port, topo.pool_port)
            plan_path = work / "plan.json"
            plan_path.write_text(json.dumps(plan), encoding="utf-8")
            with self.tracer.span("client"):
                done = subprocess.run(
                    [sys.executable, str(HERE / "client.py"), str(plan_path)],
                    capture_output=True, text=True, timeout=seconds + 150)
            if done.returncode != 0:
                raise RuntimeError(f"client failed:\n{done.stderr[-3000:]}")
            self.e2e["mem_mb"] = topo.pss_mb()
            counters_after = topo.counters()
            client = json.loads(Path(plan["out"]).read_text(encoding="utf-8"))

            if self.traced:
                target = self.inputs.hot_targets()[0]
                via_balancer = self.serial_probe(topo.balancer_port, target,
                                                 "probe.balancer_get")
                direct = self.serial_probe(topo.pool_port, target,
                                           "probe.direct_get")
                self.layers["balance.self_us"] = (via_balancer - direct) * 1e6

            # Trailing ingests: the read workloads' ingest_p50_s, each
            # on a settled deployment; a traced run reports visibility.
            first_trailing = len(plan["phases"][0]["ingests"])
            trailing = [] if (spec.ingest_every and not self.traced) else \
                list(range(first_trailing, first_trailing + TRAILING_INGESTS))
            parent_ingests = self.trailing_ingests(topo, trailing)
            balancer_after = topo.balancer_state()
        finally:
            topo.stop()
        self.say("topology stopped: no process survived, every port freed")

        self.account_client(spec, plan, client, parent_ingests,
                            counters_before, counters_after,
                            balancer_before, balancer_after)
        # The reference checks run here while the battery child runs on
        # the other core; the layer probes wait for both.
        child = self.start_battery(store) if with_battery else None
        try:
            service = self.check_reference(reference, client, parent_ingests)
            if with_battery:
                applied = sorted((r for r in client["ingests"] + parent_ingests
                                  if r["status"] == 200),
                                 key=lambda r: r["version"])
                expected = self.reference_battery(
                    [r["index"] for r in applied], sweep=False)
        finally:
            if child is not None:
                doc = self.battery(*child)
                self.e2e["battery_s"] = doc["battery_s"]
        if with_battery:
            self.check_battery(expected, doc)
        try:
            if self.traced:
                self.layer_probes(service, plan, client, probe_store, work,
                                  direct)
        finally:
            service.store.close()

    def trailing_ingests(self, topo, indices: list[int]) -> list[dict]:
        """Ingests to the pool, each sent once every process has adopted
        the previous version, so each is timed on a settled deployment."""
        records = []
        readers = [name for name in topo.private_ports
                   if name.startswith("reader")]
        if indices:
            writer = topo.versions(["writer-0"])["writer-0"]
            self.visibility(topo, readers, writer, time.perf_counter())
        for index in indices:
            body = self.write_csv(index).read_bytes()
            sent = time.perf_counter()
            with self.tracer.span("ingest.post"):
                status, version = post_csv(topo.pool_port,
                                           self.ingest_target(index), body)
            done = time.perf_counter()
            record = {"index": index, "sent": sent, "done": done,
                      "status": status, "version": version}
            records.append(record)
            if status == 200:
                record.update(self.visibility(topo, readers, version, done))
        return records

    def visibility(self, topo, readers: list[str], version: int,
                   since: float) -> dict:
        """Seconds until each reader and the follower serve ``version``."""
        pending = set(readers) | {"follower"}
        seen: dict[str, float] = {}
        deadline = since + 30
        with self.tracer.span("ingest.visibility"):
            while pending and time.perf_counter() < deadline:
                for name, served in topo.versions(sorted(pending)).items():
                    if served >= version:
                        seen[name] = time.perf_counter() - since
                        pending.discard(name)
                time.sleep(0.005)
        if pending:
            raise RuntimeError(f"version {version} never visible on "
                               f"{sorted(pending)}")
        return {"tailer_visible": max(seen[name] for name in readers),
                "replica_visible": seen["follower"]}

    def account_client(self, spec: Workload, plan: dict, client: dict,
                       parent_ingests: list[dict], counters_before: dict,
                       counters_after: dict, balancer_before: dict,
                       balancer_after: dict) -> None:
        opened = client["phases"]["open"]
        closed = client["phases"]["closed"]
        latency = opened["latency"]
        failures = sum(1 for value in latency if value == INF)
        self.attempted += opened["attempted"] + closed["attempted"]
        self.failed += failures + closed["failed"]
        for message in client["mismatches"]:
            self.failures.append(message)
            self.say(f"CHECK FAILED: {message}")
        self.latencies(latency, f"open loop at {spec.rate:g}/s offered over "
                                f"{plan['phases'][0]['duration']:.1f}s, "
                                f"{failures} failed")
        self.e2e["throughput_rps"] = statistics.median(closed["windows"])
        self.say(f"closed loop: {closed['completed']} reads on {self.nproc} "
                 f"keep-alive connections in {closed['elapsed']:.2f}s, "
                 f"per second {closed['windows']}, {closed['failed']} failed")
        late = opened["late"]
        self.layers["client.late_p99_ms"] = percentile(late, 99) * 1e3
        if self.traced:
            self.tracer.spans.extend(_spans(client["spans"], self.tracer))

        ingests = client["ingests"] + parent_ingests
        self.attempted += len(ingests)
        for record in ingests:
            if record["status"] != 200:
                self.fail(f"ingest {record['index']}: status {record['status']}")
        measured = client["ingests"] if spec.ingest_every else parent_ingests
        ok = [r["done"] - r["sent"] for r in measured if r["status"] == 200]
        if ok:
            self.e2e["ingest_p50_s"] = statistics.median(ok)
            self.say(f"ingest: {len(ok)} CSV days of 100k rows, p50 "
                     f"{self.e2e['ingest_p50_s']:.3f}s send-to-200")
        if self.traced:
            visible = [r for r in parent_ingests if "tailer_visible" in r]
            self.layers["tailer.visible_ms"] = statistics.median(
                r["tailer_visible"] for r in visible) * 1e3
            self.layers["replica.visible_ms"] = statistics.median(
                r["replica_visible"] for r in visible) * 1e3

        def delta(key: str) -> float:
            return counters_after.get(key, 0.0) - counters_before.get(key, 0.0)

        hits, misses = delta("repro_cache_hits_total"), delta("repro_cache_misses_total")
        shared_hits = delta("repro_shared_cache_hits_total")
        shared_misses = delta("repro_shared_cache_misses_total")
        self.layers["api.lru_lookups"] = hits + misses
        self.layers["api.lru_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        self.layers["api.shared_lookups"] = shared_hits + shared_misses
        self.layers["api.shared_hit_ratio"] = (
            shared_hits / (shared_hits + shared_misses)
            if shared_hits + shared_misses else 0.0)
        self.layers["shared_cache.skipped_puts"] = delta(
            "repro_shared_cache_skipped_puts_total")

        def balancer_total(state: dict, key: str) -> int:
            return sum(backend[key] for backend in state["backends"])

        self.layers["balance.errors"] = (balancer_total(balancer_after, "errors")
                                         - balancer_total(balancer_before, "errors"))
        self.layers["balance.ejections"] = (
            balancer_total(balancer_after, "ejections")
            - balancer_total(balancer_before, "ejections"))

    def check_reference(self, reference: Path, client: dict,
                        parent_ingests: list[dict]):
        """Compare every served body with the in-process answer."""
        from repro.service.api import QueryService
        from repro.service.store import ArchiveStore

        writer = ArchiveStore(reference)
        service = QueryService(ArchiveStore(reference, create=False,
                                            read_only=True), role="reader")
        base_version = writer.version
        applied = sorted((r for r in client["ingests"] + parent_ingests
                          if r["status"] == 200), key=lambda r: r["version"])
        versions = [r["version"] for r in applied]
        expected = list(range(base_version + 1, base_version + 1 + len(applied)))
        if versions != expected:
            self.fail(f"ingests produced store versions {versions}, "
                      f"expected each to advance the version once: {expected}")
        by_version: dict[int, list[tuple[str, str]]] = {}
        for key, seen in client["bodies"].items():
            version, target = key.split(" ", 1)
            by_version.setdefault(int(version), []).append((target, seen["body"]))
        mismatched = 0
        try:
            pending = list(applied)
            with self.tracer.span("check.reference"):
                for version in sorted(by_version):
                    while writer.version < version and pending:
                        record = pending.pop(0)
                        writer.append(self.days[record["index"]])
                        service.refresh_from_disk()
                    if service.store.version != version:
                        self.fail(f"served version {version} was never "
                                  "published by an ingest")
                        continue
                    for target, body in by_version[version]:
                        want = bytes(service.handle_request(target).body)
                        if want != body.encode("utf-8"):
                            mismatched += 1
                            if mismatched <= 5:
                                self.fail(f"v{version} {target}: served body "
                                          "differs from handle_request")
                for record in pending:
                    writer.append(self.days[record["index"]])
                service.refresh_from_disk()
        finally:
            writer.close()
        self.failed += max(0, mismatched - 5)
        checked = sum(len(v) for v in by_version.values())
        self.say(f"reference: {checked} distinct (version, target) bodies "
                 f"across {len(by_version)} store versions compared with "
                 f"handle_request, {mismatched} differ")
        return service

    def layer_probes(self, service, plan: dict, client: dict,
                     probe_store: Path, work: Path, direct_get_s: float
                     ) -> None:
        from layers import api_probes, ingest_probes, shared_cache_probes

        stream = [target for _, target in plan["phases"][0]["requests"]]
        api = api_probes(service, self.inputs, stream, self.tracer)
        self.layers.update(api)
        self.layers["transport.self_us"] = direct_get_s * 1e6 - api["api.hit_us"]
        bodies = [(key, seen["body"].encode("utf-8"))
                  for key, seen in list(client["bodies"].items())[:500]]
        self.layers.update(shared_cache_probes(work / "segment.bin", bodies,
                                               self.tracer))
        self.layers.update(ingest_probes(probe_store, self.days[:3],
                                         self.tracer))

    # -- paper_battery --------------------------------------------------------
    def reference_battery(self, indices: list[int], sweep: bool) -> str:
        """The battery on the in-memory archives plus ingest days ``indices``."""
        from repro.providers.base import ListArchive
        from battery import canonical, run_battery, stability_sweep

        snapshots = {p: list(self.base[p].snapshots()) for p in self.providers}
        for index in indices:
            snapshots[self.days[index].provider].append(self.days[index])
        archives = {p: ListArchive.from_snapshots(days, provider=p)
                    for p, days in snapshots.items()}
        with self.tracer.span("check.battery"):
            results = run_battery(archives, Tracer(False), [])
            if sweep:
                results["sweep"] = stability_sweep(archives, self.args.seed, [])
        return canonical(results)

    def check_battery(self, expected: str, doc: dict) -> None:
        if expected != doc["results"]:
            self.fail("battery results on the store differ from the same "
                      "battery on the in-memory archives")
        else:
            self.say("reference: battery results equal the in-memory battery")

    def run_paper_battery(self) -> None:
        from repro.service.store import ArchiveStore

        builds = []
        for i in range(3):
            store = self.workdir / f"store-{i}"
            began = time.perf_counter()
            with self.tracer.span("setup.store_build"):
                ArchiveStore.from_archives(store, self.base).close()
            builds.append(time.perf_counter() - began)
            if i < 2:
                shutil.rmtree(store)
        self.e2e["setup_s"] = statistics.median(builds)
        self.say(f"setup: store build x3, median {self.e2e['setup_s']:.3f}s")

        # One offline ingest per provider, the way a researcher appends
        # a downloaded day before re-running the analyses.
        ingest_s = []
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        for index in range(len(self.providers)):
            snapshot = self.days[index]
            csv = self.write_csv(index)
            before = stored_version(store)
            began = time.perf_counter()
            with self.tracer.span("ingest.cli"):
                done = subprocess.run(
                    [sys.executable, "-m", "repro.service.cli", "ingest",
                     "--store", str(store), "--provider", snapshot.provider,
                     "--date", snapshot.date.isoformat(), str(csv)],
                    env=env, capture_output=True, text=True, timeout=120)
            ingest_s.append(time.perf_counter() - began)
            self.attempted += 1
            after = stored_version(store)
            if done.returncode != 0 or after != before + 1:
                self.fail(f"offline ingest {index}: exit {done.returncode}, "
                          f"version {before} -> {after}: {done.stderr[-500:]}")
        self.e2e["ingest_p50_s"] = statistics.median(ingest_s)
        self.say(f"ingest: {len(ingest_s)} offline CSV days, p50 "
                 f"{self.e2e['ingest_p50_s']:.3f}s")

        doc = self.battery(*self.start_battery(store, sweep=True))
        self.check_battery(self.reference_battery(
            list(range(len(self.providers))), sweep=True), doc)
        calls = [seconds for _, seconds in doc["sweep"]]
        self.e2e["battery_s"] = doc["battery_s"]
        self.e2e["mem_mb"] = doc["peak_rss_mb"]
        self.e2e["throughput_rps"] = len(calls) / sum(calls)
        self.say(f"battery: {doc['battery_s']:.3f}s over {sum(doc['days'].values())} "
                 f"stored days, {len(doc['calls'])} analysis calls, peak RSS "
                 f"{doc['peak_rss_mb']:.1f} MB")
        self.latencies(calls, "stability sweep calls")

        if self.traced:
            # Boot the topology too, so the topology-side per-layer
            # metrics exist for this workload.
            self.run_http(PROBE, self.args.seconds, with_battery=False)

    # -- the result -----------------------------------------------------------
    def execute(self) -> None:
        if self.workload.http:
            self.run_http(self.workload, self.args.seconds)
        else:
            self.run_paper_battery()


def _spans(raw: list[dict], tracer: Tracer) -> list:
    """Spans recorded by a child process, renumbered into ``tracer``'s ids."""
    from harness import Span

    offset = tracer._next_id
    tracer._next_id += len(raw) + 1
    return [Span(offset + s["id"], s["name"], s["start"], s["end"],
                 None if s["parent"] is None else offset + s["parent"],
                 s["request_id"]) for s in raw]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--record", default=str(ROOT / ".perfbench" / "results.jsonl"),
                        help="JSON-lines file the stamped record is appended to")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench" / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    envelope = stamp(args)
    run = None
    try:
        run = Run(args, workdir)
        run.say(f"perfbench {args.workload} seed {args.seed}, {args.seconds}s"
                f"{' (traced)' if args.trace else ''}: commit "
                f"{envelope['commit']}{' (dirty)' if envelope['dirty'] else ''}, "
                f"{envelope['nproc']} cpus ({envelope['cpu']}), Python "
                f"{envelope['python']}")
        run.execute()
    except Exception as error:  # noqa: BLE001 — report, then fail without a result
        traceback.print_exc()
        record_failure(args, envelope, run, f"{type(error).__name__}: {error}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = run.layers if args.trace else run.e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        record_failure(args, envelope, run, f"metrics not measured: {missing}")
        return 1
    units = {metric["name"]: metric["unit"] for metric in wanted}
    error_share = run.failed / run.attempted if run.attempted else 1.0
    # Recorded and compared by compare.py, but not gated: the tail
    # percentiles (see Run.latencies) and the error share (0 on a
    # healthy run; any failure already fails the run).
    extra = {} if args.trace else {"latency_p90_ms": "ms", "latency_p99_ms": "ms",
                                   "error_share": "ratio"}
    values = dict(values, error_share=error_share)
    metrics = {}
    for name, unit in {**units, **extra}.items():
        value = values[name]
        metrics[name] = {
            "value": None if isinstance(value, float) and math.isinf(value) else value,
            "unit": unit}
        run.say(f"{name} = {value} {unit}")
    run.say(f"{run.failed} failed of {run.attempted} attempted operations")
    if args.trace:
        layers = run.layers
        if args.workload == "read_hot":
            holds = (layers["balance.self_us"] + layers["transport.self_us"]
                     > layers["render.self_us"])
            run.say(f"design check (read_hot): balance + transport self time "
                    f"exceeds render self time: {'holds' if holds else 'FAILS'}")
        if args.workload == "read_cold":
            holds = layers["render.self_us"] > layers["transport.self_us"]
            run.say(f"design check (read_cold): render self time exceeds "
                    f"transport self time: {'holds' if holds else 'FAILS'}")
        top = sorted(self_time_by_name(run.tracer.spans).items(),
                     key=lambda item: -item[1])[:12]
        run.say("span self time: " + ", ".join(f"{name} {seconds:.3f}s"
                                               for name, seconds in top))
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        run.tracer.write(traces / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
        say_trace_overhead(run, args, envelope["commit"])

    correct = not run.failures and run.failed == 0
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: metrics[name] for name in units}}
    record = dict(envelope, correct=correct, attempted=run.attempted,
                  failed=run.failed, metrics=metrics,
                  failures=run.failures, lines=run.lines)
    if run.workload.http:
        # Traced and untraced runs both keep their open-loop p50, so
        # compare.py can report the tracing overhead.
        record["open_loop_p50_ms"] = run.e2e["latency_p50_ms"]
    append_record(args.record, record)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def record_failure(args: argparse.Namespace, envelope: dict,
                   run: Optional[Run], message: str) -> None:
    """Append a ``correct: false`` record without metrics for a run that
    printed no result, so ``compare.py`` still counts it."""
    append_record(args.record, dict(
        envelope, correct=False,
        attempted=max(1, run.attempted if run else 0),
        failed=max(1, run.failed if run else 0), metrics={},
        failures=(run.failures if run else []) + [message],
        lines=run.lines if run else []))


def append_record(path: str, record: dict) -> None:
    record_path = Path(path)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    with record_path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def say_trace_overhead(run: Run, args: argparse.Namespace,
                       commit: Optional[str]) -> None:
    """Print the traced minus untraced open-loop p50 of this workload,
    against the untraced runs of this commit already in the record file."""
    from compare import read_records, trace_overhead

    path = Path(args.record)
    if not run.workload.http or not path.is_file():
        return
    records = [r for r in read_records(path) if r.get("commit") == commit] + [
        {"workload": args.workload, "trace": 1, "correct": True,
         "open_loop_p50_ms": run.e2e["latency_p50_ms"]}]
    overhead = trace_overhead(records).get(args.workload)
    if overhead is not None:
        run.say(f"tracing overhead: {overhead[0]:+.1f} us on the open-loop "
                f"p50 (this traced run against {overhead[2]} untraced "
                f"runs of this commit in {path})")


if __name__ == "__main__":
    raise SystemExit(main())
