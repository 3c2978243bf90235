"""Tests for the harness's own logic (no server, no corpus).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
from harness import (INF, Inputs, Span, Tracer, classify,  # noqa: E402
                     percentile, poisson_arrivals, quartiles,
                     samples_beyond, self_time_by_name, self_times)


# -- percentiles --------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(1000, 99) == 10


def test_failures_count_as_infinite_latency():
    values = [float(v) for v in range(1, 100)] + [INF]
    assert percentile(values, 99) == 99.0     # one failure sits beyond p99
    values[0] = INF
    assert percentile(values, 99) == INF      # two failures reach p99
    assert percentile([INF, 1.0, 2.0], 50) == 2.0
    assert percentile([INF, INF, 1.0], 50) == INF


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


# -- spans and self time ------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "request", 0.0, 10.0, None, "r1"),
        Span(1, "render", 1.0, 3.0, 0, "r1"),
        Span(2, "render", 2.0, 5.0, 0, "r1"),     # overlaps its sibling
        Span(3, "encode", 7.0, 8.0, 0, "r1"),
        Span(4, "index", 1.5, 2.5, 1, "r1"),      # grandchild
        Span(5, "late", 9.5, 12.0, 0, "r1"),      # clipped to the parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    by_name = self_time_by_name(spans)
    assert by_name["render"] == pytest.approx(1.0 + 3.0)
    assert own[5] == pytest.approx(2.5)   # a leaf keeps its whole duration


def test_tracer_nests_per_thread_and_records_nothing_when_off():
    tracer = Tracer()
    with tracer.span("outer", "req-1"):
        with tracer.span("inner", "req-1"):
            pass
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.request_id == "req-1"
    assert outer.start <= inner.start <= inner.end <= outer.end

    off = Tracer(enabled=False)
    ran = []
    with off.span("outer"):
        ran.append(True)
    assert ran == [True] and off.spans == []
    assert off.record("x", 0.0, 1.0) is None


def test_tracer_writes_json_lines(tmp_path):
    tracer = Tracer()
    tracer.record("a", 1.0, 2.0, request_id="r")
    tracer.write(tmp_path / "t.jsonl")
    (line,) = (tmp_path / "t.jsonl").read_text().splitlines()
    assert json.loads(line) == {"id": 0, "name": "a", "start": 1.0,
                                "end": 2.0, "parent": None, "request_id": "r"}


# -- compare rows -------------------------------------------------------------

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_clear_gain_is_improved():
    new = [v * 0.8 for v in BASE]
    verdict, change = classify(BASE, new, "lower", 0.1)
    assert verdict == "improved" and change == pytest.approx(0.2)


def test_small_move_inside_the_bound_is_unchanged():
    new = [v * 1.03 for v in BASE]
    assert classify(BASE, new, "lower", 0.1)[0] == "unchanged"


def test_move_past_the_bound_is_worse():
    new = [v * 1.2 for v in BASE]
    verdict, change = classify(BASE, new, "lower", 0.1)
    assert verdict == "worse" and change == pytest.approx(-0.2)


def test_higher_is_better_metrics_flip_direction():
    assert classify(BASE, [v * 1.3 for v in BASE], "higher", 0.1)[0] == "improved"
    assert classify(BASE, [v * 0.7 for v in BASE], "higher", 0.1)[0] == "worse"


def test_noise_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    new = [v * 0.97 for v in noisy]
    assert classify(noisy, new, "lower", 0.1)[0] == "unresolved"
    # ...unless every new run beats every base run.
    assert classify(noisy, [1.0] * 10, "lower", 0.1)[0] == "improved"


def test_gain_needs_nine_in_ten_pair_wins():
    new = [v * 0.8 for v in BASE]
    new[0], new[1] = 20.0, 20.0      # two losing pairs of ten
    assert classify(BASE, new, "lower", 0.5)[0] == "unchanged"


def test_per_layer_rows_without_a_bound():
    assert classify(BASE, [v * 1.5 for v in BASE], "lower", None)[0] == "worse"
    assert classify(BASE, [v * 1.01 for v in BASE], "lower", None)[0] == "unchanged"


def test_compare_command_reads_records(tmp_path, capsys):
    def records(path, factor, correct=True):
        lines = [json.dumps({"workload": "read_hot", "correct": correct,
                             "metrics": {"latency_p50_ms": {
                                 "value": v * factor, "unit": "ms"}}})
                 for v in BASE]
        path.write_text("\n".join(lines) + "\n")

    records(tmp_path / "base.jsonl", 1.0)
    records(tmp_path / "new.jsonl", 1.5)
    assert compare.main([str(tmp_path / "base.jsonl"),
                         str(tmp_path / "new.jsonl")]) == 1
    out = capsys.readouterr().out
    assert "latency_p50_ms" in out and "worse" in out
    records(tmp_path / "new.jsonl", 0.5)
    assert compare.main([str(tmp_path / "base.jsonl"),
                         str(tmp_path / "new.jsonl")]) == 0
    assert "improved" in capsys.readouterr().out


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def record(value, correct=True, metric="latency_p50_ms", trace=0, **extra):
    return dict({"workload": "read_hot", "trace": trace, "correct": correct,
                 "metrics": {metric: {"value": value, "unit": "ms"}}}, **extra)


def test_compare_fails_when_every_new_run_failed(tmp_path, capsys):
    write_records(tmp_path / "base.jsonl", [record(v) for v in BASE])
    # Failed checks, and a run that ended in an error (no metrics).
    write_records(tmp_path / "new.jsonl",
                  [record(v, correct=False) for v in BASE[:9]]
                  + [{"workload": "read_hot", "trace": 0, "correct": False,
                      "metrics": {}}])
    assert compare.main([str(tmp_path / "base.jsonl"),
                         str(tmp_path / "new.jsonl")]) == 1
    out = capsys.readouterr().out
    assert "more failed runs" in out and "latency_p50_ms/read_hot" in out


def test_compare_fails_when_a_base_row_is_missing(tmp_path, capsys):
    write_records(tmp_path / "base.jsonl",
                  [record(v) for v in BASE]
                  + [record(v, metric="setup_s") for v in BASE])
    write_records(tmp_path / "new.jsonl", [record(v) for v in BASE])
    assert compare.main([str(tmp_path / "base.jsonl"),
                         str(tmp_path / "new.jsonl")]) == 1
    assert "setup_s/read_hot" in capsys.readouterr().out


def test_trace_overhead_is_traced_minus_untraced_p50():
    records = ([record(0.0, open_loop_p50_ms=p) for p in (1.0, 1.2, 1.1)]
               + [record(0.0, trace=1, open_loop_p50_ms=p) for p in (1.3, 1.5)]
               + [record(0.0, trace=1, correct=False, open_loop_p50_ms=9.0)])
    us, traced, plain = compare.trace_overhead(records)["read_hot"]
    assert us == pytest.approx(300.0) and (traced, plain) == (2, 3)
    assert compare.trace_overhead(records[:3]) == {}


# -- seeded inputs ------------------------------------------------------------
def route_of(target: str) -> str:
    """The API route a request target addresses."""
    path = target.split("?", 1)[0]
    parts = [part for part in path.split("/") if part]
    if parts[1:2] == ["domains"]:
        return "history"
    if parts[1:2] == ["providers"]:
        return "stability"
    return parts[1] if len(parts) > 1 else path



def make_inputs(seed: int) -> Inputs:
    return Inputs(seed=seed, universe=109_000, width=7)


def test_inputs_repeat_exactly_for_one_seed():
    a, b = make_inputs(7), make_inputs(7)
    assert a.hot_targets() == b.hot_targets()
    assert a.hot_stream("open", 500) == b.hot_stream("open", 500)
    assert a.cold_stream("open", 500) == b.cold_stream("open", 500)
    assert a.route_samples(10) == b.route_samples(10)
    assert (poisson_arrivals(a.rng("arrivals"), 100.0, 5.0)
            == poisson_arrivals(b.rng("arrivals"), 100.0, 5.0))
    # Calling again on the same object gives the same inputs too.
    assert a.cold_stream("open", 50) == a.cold_stream("open", 50)


def test_inputs_differ_across_seeds_and_streams():
    a, b = make_inputs(7), make_inputs(8)
    assert a.hot_targets() != b.hot_targets()
    assert a.cold_stream("open", 50) != b.cold_stream("open", 50)
    assert a.cold_stream("open", 50) != a.cold_stream("closed-0", 50)


def test_hot_set_spans_every_read_route():
    targets = make_inputs(3).hot_targets()
    assert len(targets) == len(set(targets)) == 64
    assert {route_of(t) for t in targets} == {"meta", "history",
                                              "stability", "compare"}


def test_cold_mix_and_arrival_rate():
    inputs = make_inputs(5)
    routes = [route_of(t) for t in inputs.cold_stream("open", 4000)]
    # Exact shares, in a seeded order.
    assert [routes.count(r) for r in ("history", "stability", "compare")] \
        == [2400, 1000, 600]
    assert routes[:40].count("history") < 40
    dues = poisson_arrivals(inputs.rng("arrivals"), 200.0, 20.0)
    assert len(dues) == pytest.approx(4000, rel=0.05)
    assert dues == sorted(dues) and dues[-1] < 20.0
