#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per (metric, workload).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON-lines records ``run.py`` appends, one per run
(by default to ``.perfbench/results.jsonl``; pass ``--record`` to keep
the two sides apart).  For every metric measured on both sides the
table shows each side's median and quartiles with the run count, the
relative move of the median (positive = better) and a verdict:

``improved``    the new side wins at least 9 in 10 run pairs and its
                median beats the base by more than the base's own spread;
``worse``       the new median is worse than the base by more than the
                metric's bound in ``BENCHMARK.json`` (per-layer metrics,
                which have no bound: the mirror image of improved);
``unresolved``  the base runs spread wider than the bound, so no verdict;
``unchanged``   otherwise.

Runs whose outputs failed their checks, or that ended in an error, are
left out of the rows and counted.  Each side's tracing overhead per
workload is printed too: the median open-loop p50 of its traced runs
minus that of its untraced runs.

Exits 1 if any row is worse, if the new side has more failed runs than
the base, or if a row the base has is missing from the new side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import Row, classify, quartiles  # noqa: E402


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines() if line.strip()]


def load(records: list[dict]) -> tuple[dict[tuple[str, str], list[float]], int]:
    """Values per (metric, workload), in run order; plus failed runs."""
    values: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for record in records:
        if not record.get("correct"):
            failed += 1
            continue
        for name, metric in record["metrics"].items():
            if metric["value"] is not None:
                values.setdefault((name, record["workload"]), []).append(
                    float(metric["value"]))
    return values, failed


def trace_overhead(records: list[dict]) -> dict[str, tuple[float, int, int]]:
    """Per workload: ``(us, traced runs, untraced runs)``, where ``us`` is
    the median open-loop p50 of the traced runs minus the untraced ones."""
    p50s: dict[tuple[str, int], list[float]] = {}
    for record in records:
        if record.get("correct") and record.get("open_loop_p50_ms") is not None:
            p50s.setdefault((record["workload"], int(record["trace"])),
                            []).append(record["open_loop_p50_ms"])
    overhead = {}
    for workload in sorted({w for w, _ in p50s}):
        traced, plain = p50s.get((workload, 1)), p50s.get((workload, 0))
        if traced and plain:
            overhead[workload] = ((statistics.median(traced)
                                   - statistics.median(plain)) * 1e3,
                                  len(traced), len(plain))
    return overhead


#: Recorded by every untraced run but not gated by ``BENCHMARK.json``;
#: compared like per-layer metrics (no bound).
UNGATED = [{"name": "latency_p90_ms", "unit": "ms", "better": "lower"},
           {"name": "latency_p99_ms", "unit": "ms", "better": "lower"},
           {"name": "error_share", "unit": "ratio", "better": "lower"}]


def compare(base: dict, new: dict, spec: dict) -> list[Row]:
    metrics = {m["name"]: m
               for m in spec["end_to_end"] + UNGATED + spec["per_layer"]}
    order = list(metrics)
    rows = []
    for key in sorted(set(base) & set(new),
                      key=lambda k: (order.index(k[0]) if k[0] in metrics
                                     else len(order), k[1])):
        metric = metrics.get(key[0])
        if metric is None:
            continue
        verdict, change = classify(base[key], new[key], metric["better"],
                                   metric.get("bound"))
        rows.append(Row(key[0], key[1], metric["unit"], quartiles(base[key]),
                        quartiles(new[key]), (len(base[key]), len(new[key])),
                        verdict, change))
    return rows


def _side(q: tuple[float, float, float], n: int) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] ({n})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=HERE.parent / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    base_records, new_records = read_records(args.base), read_records(args.new)
    base, base_failed = load(base_records)
    new, new_failed = load(new_records)
    rows = compare(base, new, spec)
    header = ("metric", "workload", "unit", "base median [q1, q3] (n)",
              "new median [q1, q3] (n)", "change", "verdict")
    table = [header] + [
        (row.metric, row.workload, row.unit, _side(row.base, row.runs[0]),
         _side(row.new, row.runs[1]), f"{row.change:+.1%}", row.verdict)
        for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(r, widths)))
    for side, records in (("base", base_records), ("new", new_records)):
        for workload, (us, traced, plain) in trace_overhead(records).items():
            print(f"tracing overhead ({side}, {workload}): {us:+.1f} us on the "
                  f"open-loop p50, {traced} traced vs {plain} untraced runs")

    known = {m["name"] for m in spec["end_to_end"] + UNGATED + spec["per_layer"]}
    missing = sorted(key for key in set(base) - set(new) if key[0] in known)
    worse = [row for row in rows if row.verdict == "worse"]
    if base_failed or new_failed:
        print(f"left out: {base_failed} base and {new_failed} new runs "
              "that failed their checks or ended in an error")
    if new_failed > base_failed:
        print(f"FAIL: the new side has more failed runs ({new_failed}) "
              f"than the base ({base_failed})")
    if missing:
        print("FAIL: rows of the base missing from the new side: "
              + ", ".join(f"{metric}/{workload}" for metric, workload in missing))
    if worse:
        print(f"FAIL: {len(worse)} rows worse")
    return 1 if worse or missing or new_failed > base_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
