"""In-process per-layer probes of the traced run.

Each probe times calls into one layer's public functions on the run's
own corpus and inputs, from here rather than from inside the program:

* :func:`api_probes` -- ``QueryService.handle_request`` on an LRU hit and
  after ``clear_cache()`` per render route, the workload's own request
  stream replayed in order, ``DomainIndex.history`` + ``longevity``;
* :func:`shared_cache_probes` -- ``SharedPayloadCache.put``/``get`` on a
  scratch segment filled with the run's response bodies;
* :func:`ingest_probes` -- one ingest taken apart: ``ArchiveStore.append``
  (fsynced), ``extend_base_id_sets``, ``DomainIndex.add``, a read-only
  store's ``refresh`` and a reader's ``QueryService.refresh_from_disk``.

Every probe records spans through the run's :class:`~harness.Tracer`.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Sequence

from harness import Inputs, Tracer, domain_name


def _per_call(fn, calls: int, batches: int = 7) -> float:
    """Median over ``batches`` of the mean seconds per call."""
    results = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        results.append((time.perf_counter() - start) / calls)
    return statistics.median(results)


def api_probes(service, inputs: Inputs, stream: Sequence[str],
               tracer: Tracer) -> dict[str, float]:
    """API hit/miss costs, the stream's render cost and index lookups."""
    out: dict[str, float] = {}
    hot = inputs.hot_targets()[0]
    service.handle_request(hot)
    with tracer.span("api.hit"):
        out["api.hit_us"] = _per_call(
            lambda: service.handle_request(hot), 300) * 1e6
    for route, targets in inputs.route_samples(25).items():
        costs = []
        for target in targets:
            service.clear_cache()
            start = time.perf_counter()
            with tracer.span(f"api.miss.{route}"):
                response = service.handle_request(target)
            costs.append(time.perf_counter() - start)
            if response.status != 200:
                raise RuntimeError(f"{target}: status {response.status}")
        out[f"api.miss_us.{route}"] = statistics.median(costs) * 1e6
    # The workload's own reads, in order, on one process with a fresh
    # LRU: the render and cache work a single server process would do.
    service.clear_cache()
    start = time.perf_counter()
    with tracer.span("api.render_stream"):
        for target in stream:
            service.handle_request(target)
    out["render.self_us"] = (time.perf_counter() - start) / len(stream) * 1e6

    index = service.index
    rng = inputs.rng("index-probe")
    names = [domain_name(rng.randrange(inputs.universe), inputs.width)
             for _ in range(300)]
    providers = list(inputs.providers)

    def lookups() -> None:
        for name in names:
            for provider in providers:
                index.history(name, provider)
                index.longevity(name, provider)

    with tracer.span("index.history"):
        out["index.history_us"] = (
            _per_call(lookups, 1, batches=5) / (len(names) * len(providers))
            * 1e6)
    return out


def shared_cache_probes(path: Path, bodies: Sequence[tuple[str, bytes]],
                        tracer: Tracer) -> dict[str, float]:
    """Mean ``put`` and ``get`` cost on a fresh segment of ``bodies``."""
    import hashlib

    from repro.service.shared_cache import SharedPayloadCache

    cache = SharedPayloadCache(path)
    try:
        records = [(target, body, '"' + hashlib.sha256(body).hexdigest() + '"')
                   for target, body in bodies]
        start = time.perf_counter()
        with tracer.span("shared_cache.put"):
            for target, body, etag in records:
                if not cache.put(1, target, body, etag):
                    raise RuntimeError(f"shared-cache put refused: {target}")
        put = (time.perf_counter() - start) / len(records)
        start = time.perf_counter()
        with tracer.span("shared_cache.get"):
            for target, body, _ in records:
                found = cache.get(1, target)
                if found is None or bytes(found[0]) != body:
                    raise RuntimeError(f"shared-cache get lost {target}")
        get = (time.perf_counter() - start) / len(records)
    finally:
        cache.close()
    return {"shared_cache.put_us": put * 1e6, "shared_cache.get_us": get * 1e6}


def _tree_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def ingest_probes(store_dir: Path, days: Sequence, tracer: Tracer
                  ) -> dict[str, float]:
    """One ingest's layers, per day of ``days``, on a scratch store copy."""
    from repro.core.cache import extend_base_id_sets
    from repro.service.api import QueryService
    from repro.service.index import DomainIndex
    from repro.service.store import ArchiveStore

    writer = ArchiveStore(store_dir)
    archives = writer.load_archives()
    index = DomainIndex.from_archives(archives)
    plain = ArchiveStore(store_dir, create=False, read_only=True)
    reader = QueryService(ArchiveStore(store_dir, create=False,
                                       read_only=True), role="reader")
    reader.handle_request("/v1/meta")
    timings: dict[str, list[float]] = {}

    def timed(name: str, fn) -> None:
        start = time.perf_counter()
        with tracer.span(name):
            fn()
        timings.setdefault(name, []).append(time.perf_counter() - start)

    per_entry = []
    try:
        for snapshot in days:
            before = _tree_bytes(store_dir)
            with tracer.span("ingest.day"):
                timed("store.append", lambda: writer.append(snapshot))
                timed("core.extend", lambda: extend_base_id_sets(
                    archives[snapshot.provider], snapshot))
                timed("index.add", lambda: index.add(snapshot))
            per_entry.append((_tree_bytes(store_dir) - before) / len(snapshot))
            timed("store.refresh", plain.refresh)
            timed("tailer.adopt", reader.refresh_from_disk)
            if reader.store.version != writer.version:
                raise RuntimeError("reader did not adopt the appended day")
    finally:
        reader.store.close()
        plain.close()
        writer.close()
    median_ms = {name: statistics.median(values) * 1e3
                 for name, values in timings.items()}
    return {
        "store.append_ms": median_ms["store.append"],
        "core.extend_ms": median_ms["core.extend"],
        "index.add_ms": median_ms["index.add"],
        "store.refresh_ms": median_ms["store.refresh"],
        "tailer.adopt_ms": median_ms["tailer.adopt"],
        "store.bytes_per_entry": statistics.median(per_entry),
    }
