"""Pure logic of the perfbench harness: statistics, spans, compare rows, inputs.

Nothing here starts a process or opens a socket, so the unit tests in
``test_perfbench.py`` exercise it directly:

* :func:`percentile` -- nearest-rank percentiles where a failed request
  counts as infinite latency (it missed every latency limit);
* :class:`Tracer` and :func:`self_times` -- in-memory spans (name, start,
  end, parent, request id) and each span's self time, its duration minus
  the part of its interval its children cover;
* :func:`classify` -- one compare row: each side's median and quartiles,
  classed improved, unchanged, worse or unresolved against a bound;
* :class:`Inputs` -- every generated input of a run (targets, arrival
  schedules, ingest days), derived from the workload seed alone.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

INF = float("inf")

#: Read routes of the ``/v1`` API the workloads draw from.
PROVIDERS = ("alexa", "majestic", "umbrella")

#: Distinct targets of the hot set, below the 256-entry response LRU.
HOT_SIZE = 64

#: Exponent of the Zipf draws over the hot set.
ZIPF_EXPONENT = 1.1

#: The cold stream's shares of history, stability and compare reads.
COLD_MIX = (0.60, 0.25, 0.15)


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile; ``inf`` entries sort last.

    A failed request is recorded as ``inf``, so once failures make up
    more than ``100 - q`` percent of the sample the percentile itself is
    infinite -- a refused request misses every latency limit.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100] (got {q})")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- spans --------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "request_id": self.request_id}


class Tracer:
    """Spans kept in memory; written out once, when the run ends.

    A disabled tracer's :meth:`span` still runs its block, so traced and
    untraced runs execute the same code apart from the recording.
    Parents nest per thread.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None,
               request_id: Optional[str] = None) -> Optional[int]:
        """Add a finished span measured by the caller; returns its id."""
        if not self.enabled:
            return None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(Span(span_id, name, start, end, parent,
                                   request_id))
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[str] = None
             ) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       request_id))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(span.to_json()) + "\n")


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children (concurrent work under one parent) are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {span.span_id: span.duration - _covered(children.get(span.span_id, ()))
            for span in spans}


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


# -- compare rows -------------------------------------------------------------

@dataclass
class Row:
    metric: str
    workload: str
    unit: str
    base: tuple[float, float, float]     # q1, median, q3
    new: tuple[float, float, float]
    runs: tuple[int, int]
    verdict: str
    change: float                        # relative move, positive = better


def classify(base: Sequence[float], new: Sequence[float], better: str,
             bound: Optional[float]) -> tuple[str, float]:
    """Class one (metric, workload) row; returns ``(verdict, change)``.

    ``change`` is the relative median move, positive when ``new`` is
    better.  The rules:

    * **improved** -- the new side wins at least nine tenths of the
      run pairs (ties count for neither) and its median beats the base
      median by more than the base runs' own interquartile spread;
    * **worse** -- with a bound, the new median is worse by more than
      the bound; without one (per-layer metrics), the mirror image of
      *improved*;
    * **unresolved** -- otherwise, when the base spread exceeds the bound
      and not every new run beats every base run;
    * **unchanged** -- everything else.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher' (got {better!r})")
    if not base or not new:
        raise ValueError("both sides need at least one run")
    sign = 1.0 if better == "lower" else -1.0
    base_q = quartiles(base)
    new_q = quartiles(new)
    base_median, new_median = base_q[1], new_q[1]
    scale = abs(base_median) or 1.0
    change = sign * (base_median - new_median) / scale
    noise = (base_q[2] - base_q[0]) / scale

    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if wins >= 0.9 * len(pairs) and change > noise:
        return "improved", change
    if bound is not None:
        if -change > bound:
            return "worse", change
    elif losses >= 0.9 * len(pairs) and -change > noise:
        return "worse", change
    if bound is not None and noise > bound:
        if all(sign * (b - n) > 0 for b in base for n in new):
            return "improved", change
        return "unresolved", change
    return "unchanged", change


# -- seeded inputs ------------------------------------------------------------

def domain_name(index: int, width: int) -> str:
    """The synthetic corpus's name for universe slot ``index``."""
    return f"s{index:0{width}d}.scale.example"


def zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, n + 1)]


def poisson_arrivals(rng: random.Random, rate: float,
                     duration: float) -> list[float]:
    """Due offsets (seconds) of a Poisson process at ``rate`` per second."""
    due: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        due.append(t)
        t += rng.expovariate(rate)
    return due


@dataclass
class Inputs:
    """Every input of one run, generated from the workload seed.

    ``universe`` and ``width`` describe the synthetic corpus's name
    space (:func:`repro.scale.universe_ids`), so targets name domains
    the store really holds.  Each stream draws from its own
    ``random.Random`` keyed by seed and stream name, so adding a stream
    never shifts another.
    """

    seed: int
    universe: int
    width: int
    providers: Sequence[str] = PROVIDERS
    _hot: Optional[list[str]] = field(default=None, repr=False)

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"perfbench:{self.seed}:{stream}")

    def _history(self, rng: random.Random) -> str:
        return (f"/v1/domains/"
                f"{domain_name(rng.randrange(self.universe), self.width)}"
                "/history")

    def _stability(self, rng: random.Random) -> str:
        return (f"/v1/providers/{rng.choice(self.providers)}/stability"
                f"?top_n={rng.randint(10, 1000)}")

    def _compare(self, rng: random.Random) -> str:
        pair = sorted(rng.sample(list(self.providers), 2))
        return (f"/v1/compare?providers={','.join(pair)}"
                f"&top_n={rng.randint(10, 1000)}")

    def hot_targets(self) -> list[str]:
        """The ``HOT_SIZE`` read targets of the hot set, Zipf rank order.

        Every read route is represented: ``/v1/meta``, history,
        stability and compare.  Duplicates are redrawn, so the set has
        exactly ``HOT_SIZE`` distinct targets.
        """
        if self._hot is None:
            rng = self.rng("hot-set")
            targets = ["/v1/meta"]
            makers = (self._history, self._stability, self._compare)
            while len(targets) < HOT_SIZE:
                target = makers[len(targets) % 3](rng)
                if target not in targets:
                    targets.append(target)
            rng.shuffle(targets)
            self._hot = targets
        return list(self._hot)

    def hot_stream(self, stream: str, n: int) -> list[str]:
        """``n`` Zipf draws over the hot set."""
        rng = self.rng(stream)
        return rng.choices(self.hot_targets(),
                           weights=zipf_weights(HOT_SIZE), k=n)

    def cold_stream(self, stream: str, n: int) -> list[str]:
        """``n`` draws from the cold mix (history, stability, compare).

        Each route gets exactly its share of the ``n`` reads, in seeded
        order: the seed varies which targets are read, not how many of
        each route, so the mix's sampling noise does not move the p50.
        """
        rng = self.rng(stream)
        stability, compare = (round(n * share) for share in COLD_MIX[1:])
        makers = ([self._history] * (n - stability - compare)
                  + [self._stability] * stability + [self._compare] * compare)
        rng.shuffle(makers)
        return [maker(rng) for maker in makers]

    def route_samples(self, per_route: int) -> dict[str, list[str]]:
        """Distinct cold targets per render route (for miss timings)."""
        rng = self.rng("route-samples")
        samples: dict[str, list[str]] = {}
        for route, maker in (("history", self._history),
                             ("stability", self._stability),
                             ("compare", self._compare)):
            chosen: list[str] = []
            while len(chosen) < per_route:
                target = maker(rng)
                if target not in chosen:
                    chosen.append(target)
            samples[route] = chosen
        return samples

