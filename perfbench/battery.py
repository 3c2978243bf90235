"""The paper battery: the analyses no ``/v1`` route runs.

:func:`run_battery` computes, on one set of archives:

* Section 6.1 stability and Figure 1a intersections at top-1k;
* Figure 4 Kendall tau series at top-1k (every provider) and at full
  width (the first provider);
* Figure 1c churn by rank;
* Section 6.2 weekday/weekend KS distances and SLD group dynamics;
* Table 2 structure summary on every fifth day (the first provider);
* full-width mean daily change per provider (the corpus invariant).

Run as a script it is the battery's child process: it opens a store
read-only, loads its archives, runs the battery and writes one JSON
document with the results, the per-call timings, the spans, the
store's inflated-chunk count and the process's peak RSS::

    python3 perfbench/battery.py --store DIR --out FILE [--trace 1]
                                 [--sweep-seed N]

``--sweep-seed`` adds :func:`stability_sweep` after the battery: the
Section 6.1 stability calls at many seeded head sizes, each call timed
on its own.

The benchmark runs the same :func:`run_battery` on the in-memory
generated archives and requires identical results.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
import random
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import Tracer  # noqa: E402

TOP_K = 1_000
CHURN_SUBSETS = (10, 100, 1_000, 10_000, 100_000)
#: Head sizes per provider in :func:`stability_sweep`.
SWEEP_SIZES = 120


def _plain(value: Any) -> Any:
    """JSON-ready form of an analysis result (dates, tuples, dataclasses)."""
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (dt.date, dt.datetime)):
        return value.isoformat()
    return value


def _key(key: Any) -> str:
    if isinstance(key, tuple):
        return "&".join(str(part) for part in key)
    if isinstance(key, dt.date):
        return key.isoformat()
    return str(key)


def canonical(results: Mapping[str, Any]) -> str:
    """The byte-comparable form of a battery result."""
    return json.dumps(_plain(results), sort_keys=True)


def stability(archive, top_n: int) -> dict[str, Any]:
    """Section 6.1: daily change, new and cumulative names, tenure, decay."""
    from repro.core.stability import (cumulative_unique_domains,
                                      days_in_list,
                                      intersection_with_reference,
                                      mean_daily_change, new_domains_per_day)

    counts = days_in_list(archive, top_n)
    return {
        "mean_daily_change": mean_daily_change(archive, top_n),
        "new_per_day": new_domains_per_day(archive, top_n),
        "cumulative_unique": cumulative_unique_domains(archive, top_n),
        "always_listed": sum(1 for v in counts.values() if v == len(archive)),
        "reference_decay": intersection_with_reference(
            archive, reference_days=range(7), top_n=top_n),
    }


def stability_sweep(archives: Mapping[str, Any], seed: int,
                    calls: list) -> dict[str, Any]:
    """:func:`stability` at :data:`SWEEP_SIZES` seeded head sizes per provider.

    Every head size is new to the archive's analysis caches, so each
    call does its own work; ``calls`` gets one ``(name, seconds)`` each.
    """
    rng = random.Random(f"perfbench:{seed}:sweep")
    results: dict[str, Any] = {}
    for provider in sorted(archives):
        sizes = rng.sample(range(10, 1_001), SWEEP_SIZES)
        for top_n in sizes:
            start = time.perf_counter()
            value = stability(archives[provider], top_n)
            calls.append(("stability_sweep", time.perf_counter() - start))
            results[f"{provider}@{top_n}"] = value
    return results


def run_battery(archives: Mapping[str, Any], tracer: Tracer,
                calls: list) -> dict[str, Any]:
    """Run the battery; append ``(name, seconds)`` per analysis call."""
    from repro.core.intersection import intersection_over_time
    from repro.core.rank_dynamics import churn_by_rank, kendall_tau_series
    from repro.core.stability import mean_daily_change
    from repro.core.structure import summarise_archive
    from repro.core.weekly import sld_group_dynamics, weekday_weekend_ks

    def call(name: str, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        with tracer.span(name):
            value = fn()
        calls.append((name, time.perf_counter() - start))
        return value

    names = sorted(archives)
    first = archives[names[0]]
    results: dict[str, Any] = {}
    with tracer.span("core.stability"):
        results["stability"] = {p: call("stability", lambda a=archives[p]:
                                        stability(a, TOP_K)) for p in names}
    with tracer.span("core.intersection"):
        results["intersection"] = call(
            "intersection",
            lambda: intersection_over_time(archives, top_n=TOP_K))
    with tracer.span("core.kendall"):
        results["kendall_top1k"] = {
            p: call("kendall_top1k",
                    lambda a=archives[p]: kendall_tau_series(a, TOP_K))
            for p in names}
        results["kendall_full"] = call(
            "kendall_full", lambda: kendall_tau_series(first))
    with tracer.span("core.churn"):
        results["churn_by_rank"] = {
            p: call("churn_by_rank",
                    lambda a=archives[p]: churn_by_rank(a, CHURN_SUBSETS))
            for p in names}
    with tracer.span("core.weekly"):
        results["weekday_weekend_ks"] = {
            p: call("weekday_weekend_ks",
                    lambda a=archives[p]: weekday_weekend_ks(a, TOP_K))
            for p in names}
        results["sld_group_dynamics"] = {
            p: call("sld_group_dynamics",
                    lambda a=archives[p]: sld_group_dynamics(a, TOP_K))
            for p in names}
    with tracer.span("core.structure"):
        results["structure"] = call(
            "summarise_archive",
            lambda: summarise_archive(first, sample_every=5))
    with tracer.span("core.full_width_change"):
        results["full_width_change"] = {
            p: call("full_width_change",
                    lambda a=archives[p]: mean_daily_change(a))
            for p in names}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--sweep-seed", type=int, default=None)
    args = parser.parse_args()

    from repro.service.store import ArchiveStore

    tracer = Tracer(enabled=bool(args.trace))
    calls: list = []
    start = time.perf_counter()
    with tracer.span("battery"):
        with tracer.span("store.load_archives"):
            store = ArchiveStore(args.store, create=False, read_only=True)
            archives = {}
            for provider in store.providers():
                with tracer.span("store.load_archive"):
                    archives[provider] = store.load_archive(provider)
        load_s = time.perf_counter() - start
        results = run_battery(archives, tracer, calls)
    battery_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sweep: list = []
    if args.sweep_seed is not None:
        with tracer.span("core.stability_sweep"):
            results["sweep"] = stability_sweep(archives, args.sweep_seed,
                                               sweep)
    document = {
        "battery_s": battery_s,
        "load_archives_s": load_s,
        "chunks_inflated": store.chunks_inflated,
        "days": {p: len(a) for p, a in archives.items()},
        "peak_rss_mb": peak_rss_mb,
        "calls": calls,
        "sweep": sweep,
        "results": canonical(results),
        "spans": [span.to_json() for span in tracer.spans],
    }
    store.close()
    Path(args.out).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
