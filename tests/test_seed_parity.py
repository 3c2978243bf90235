"""The fast analysis paths against the seed algorithms they replaced.

The incremental delta engine (base-domain sets, SLD count events, rank
partitions) and the Fenwick Kendall tau must reproduce the seed's
straightforward per-day recomputations exactly: Figure 1a's
intersections, Figure 3a's weekday/weekend KS distances, Figures
3b/3c's SLD group dynamics and Figure 4's day-over-day tau.  The seed
implementations below are kept verbatim in structure as the oracle: the
candidate-enumeration PSL re-parsing every name every day, the rank
dicts rebuilt from scratch, the recursive merge-sort inversion count.

Everything runs on one 6-day ``SimulationConfig.benchmark`` archive
(4000-entry lists, three providers), simulated once per session.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations

import pytest

from repro.core.intersection import intersection_over_time
from repro.core.weekly import (WEEKEND_WEEKDAYS, sld_group_dynamics,
                               weekday_weekend_ks)
from repro.domain.name import normalise
from repro.domain.psl import DEFAULT_RULES
from repro.stats.kendall import kendall_tau_ranked_lists
from repro.stats.ks import ks_distance
from test_domain_psl_trie import ReferencePsl


class SeedPsl(ReferencePsl):
    """The seed PSL matcher plus the seed's per-name pipeline helpers."""

    def __init__(self) -> None:
        super().__init__(DEFAULT_RULES)

    def base_or_name(self, name: str) -> str:
        cleaned = normalise(name)
        base = self.base_domain(cleaned)
        return base if base is not None else cleaned

    def sld(self, name: str):
        base = self.base_domain(normalise(name))
        return None if base is None else base.split(".")[0]


def seed_intersection_over_time(archives, psl: SeedPsl):
    """The seed Figure-1a pipeline: full per-day per-provider re-normalisation."""
    common_dates = sorted(set.intersection(
        *(set(a.dates()) for a in archives.values())))
    series = {}
    for date in common_dates:
        sets = {name: frozenset(psl.base_or_name(entry)
                                for entry in archive[date].entries)
                for name, archive in archives.items()}
        result = {}
        for name_a, name_b in combinations(sorted(sets), 2):
            result[(name_a, name_b)] = len(sets[name_a] & sets[name_b])
        if len(sets) >= 3:
            result[tuple(sorted(sets))] = len(
                set.intersection(*(set(s) for s in sets.values())))
        series[date] = result
    return series


def seed_sld_group_dynamics(archive, psl: SeedPsl, threshold=0.4,
                            weekend=WEEKEND_WEEKDAYS, min_group_size=3):
    """The seed Figure-3b/3c pipeline: per-day full SLD re-parsing."""
    snapshots = archive.snapshots()
    all_dates = [s.date for s in snapshots]
    series = defaultdict(dict)
    for snapshot in snapshots:
        counts = Counter()
        for domain in snapshot.entries:
            sld = psl.sld(domain)
            if sld is not None:
                counts[sld] += 1
        for group, count in counts.items():
            series[group][snapshot.date] = count
    if not (any(d.weekday() not in weekend for d in all_dates)
            and any(d.weekday() in weekend for d in all_dates)):
        return {}
    result = {}
    for group, per_day in series.items():
        weekday_counts = [per_day.get(d, 0) for d in all_dates
                          if d.weekday() not in weekend]
        weekend_counts = [per_day.get(d, 0) for d in all_dates
                          if d.weekday() in weekend]
        weekday_mean = sum(weekday_counts) / len(weekday_counts)
        weekend_mean = sum(weekend_counts) / len(weekend_counts)
        if max(weekday_mean, weekend_mean) < min_group_size:
            continue
        base = max(weekday_mean, 1e-9)
        if abs(weekend_mean - weekday_mean) / base > threshold:
            result[group] = (weekday_mean, weekend_mean,
                             {d: per_day.get(d, 0) for d in all_dates})
    return result


def seed_weekday_weekend_ks(archive, weekend=WEEKEND_WEEKDAYS,
                            min_observations=2):
    """The seed Figure-3a pipeline: rebuild the rank dicts from scratch."""
    weekday_ranks, weekend_ranks = defaultdict(list), defaultdict(list)
    for snapshot in archive.snapshots():
        target = (weekend_ranks if snapshot.date.weekday() in weekend
                  else weekday_ranks)
        for rank, domain in enumerate(snapshot.entries, start=1):
            target[domain].append(rank)
    distances = {}
    for domain in set(weekday_ranks) | set(weekend_ranks):
        a = weekday_ranks.get(domain, [])
        b = weekend_ranks.get(domain, [])
        if len(a) < min_observations or len(b) < min_observations:
            continue
        distances[domain] = ks_distance(a, b)
    return distances


def _seed_merge_sort_count(values):
    n = len(values)
    if n <= 1:
        return values, 0
    mid = n // 2
    left, inv_left = _seed_merge_sort_count(values[:mid])
    right, inv_right = _seed_merge_sort_count(values[mid:])
    merged, inversions, i, j = [], inv_left + inv_right, 0, 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inversions += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inversions


def seed_kendall_tau_ranked_lists(list_a, list_b):
    """The seed Figure-4 path: recursive merge sort + full tie accounting."""
    rank_a = {item: idx for idx, item in enumerate(list_a)}
    rank_b = {item: idx for idx, item in enumerate(list_b)}
    common = [item for item in list_a if item in rank_b]
    if len(common) < 2:
        raise ValueError("need at least two common items")
    missing = max(len(list_a), len(list_b))
    x = [rank_a.get(item, missing) for item in common]
    y = [rank_b.get(item, missing) for item in common]
    paired = sorted(zip(x, y), key=lambda p: (p[0], p[1]))
    _, discordant = _seed_merge_sort_count([p[1] for p in paired])
    n = len(x)
    total = n * (n - 1) // 2

    def ties(values):
        counts = Counter(values)
        return sum(c * (c - 1) // 2 for c in counts.values())

    ties_x, ties_y, ties_xy = ties(x), ties(y), ties(list(zip(x, y)))
    concordant = total - discordant - ties_x - ties_y + ties_xy
    denom_x, denom_y = total - ties_x, total - ties_y
    if denom_x == 0 or denom_y == 0:
        return 0.0
    return (concordant - discordant) / (denom_x * denom_y) ** 0.5


@pytest.fixture(scope="module")
def archives(benchmark_run_6d):
    return benchmark_run_6d.archives


@pytest.fixture(scope="module")
def seed_psl():
    return SeedPsl()


def test_intersection_over_time_matches_seed(archives, seed_psl):
    fast = intersection_over_time(archives)
    assert len(fast) == 6
    assert fast == seed_intersection_over_time(archives, seed_psl)


def test_sld_group_dynamics_matches_seed(archives, seed_psl):
    compared = 0
    for name, archive in archives.items():
        seed = seed_sld_group_dynamics(archive, seed_psl)
        fast = sld_group_dynamics(archive)
        assert set(fast) == set(seed), name
        compared += len(seed)
        for group, (weekday_mean, weekend_mean, per_day) in seed.items():
            dynamics = fast[group]
            assert dynamics.weekday_mean == weekday_mean, (name, group)
            assert dynamics.weekend_mean == weekend_mean, (name, group)
            assert dict(dynamics.series) == per_day, (name, group)
    assert compared


def test_weekday_weekend_ks_matches_seed(archives):
    for name, archive in archives.items():
        fast = weekday_weekend_ks(archive)
        assert fast, name
        assert fast == seed_weekday_weekend_ks(archive), name


def test_kendall_tau_matches_seed(archives):
    alexa = archives["alexa"].snapshots()
    for a, b in zip(alexa, alexa[1:]):
        fast = kendall_tau_ranked_lists(a.entries, b.entries)
        seed = seed_kendall_tau_ranked_lists(a.entries, b.entries)
        assert abs(fast - seed) < 1e-12, (a.date, fast, seed)
        # The pipeline feeds the interned id columns, not the strings.
        ids = kendall_tau_ranked_lists(a.entry_ids(), b.entry_ids())
        assert abs(ids - seed) < 1e-12, (a.date, ids, seed)
