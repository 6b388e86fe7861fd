"""Counters backing the complexity checks.

One per-call ``Stats`` counts probes (direct access), sort comparisons (a
counted build) and rows touched (selection): callers that want numbers pass
one in, everyone else pays nothing. Index structures never mutate shared
state on the access path, so concurrent readers stay safe.
"""

from dataclasses import dataclass


@dataclass
class Stats:
    probes: int = 0  # binary-search loop iterations
    comparisons: int = 0  # key comparisons inside preprocessing sorts
    rows_touched: int = 0  # rows scanned by the counting tree's passes and fixes


# kept only for the import in perfbench/worker.py, until the benchmark moves to Stats
AccessStats = SelectStats = Stats


class CountingKey:
    """Sort key wrapper that counts comparisons (sorts only use ``<``)."""

    __slots__ = ("key", "stats")

    def __init__(self, key, stats):
        self.key = key
        self.stats = stats

    def __lt__(self, other):
        self.stats.comparisons += 1
        return self.key < other.key


def sorted_counted(items, key, stats=None):
    """``sorted`` that feeds comparison counts into ``stats`` when given."""
    if stats is not None:
        return sorted(items, key=lambda x: CountingKey(key(x), stats))
    return sorted(items, key=key)


def bisect_gt(arr, x, stats=None):
    """First index i with arr[i] > x (arr ascending), counting probes."""
    lo, hi = 0, len(arr)
    while lo < hi:
        if stats is not None:
            stats.probes += 1
        mid = (lo + hi) // 2
        if arr[mid] > x:
            hi = mid
        else:
            lo = mid + 1
    return lo
