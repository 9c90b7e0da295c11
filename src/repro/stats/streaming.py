"""Single-pass streaming statistics.

Large traces should be analysable without materialising every record in
memory.  :class:`StreamingMoments` (Welford's algorithm) and
:class:`SpaceSavingTopK` (Metwally et al.'s space-saving heavy hitters)
give the aggregate analyses O(1)/O(k) memory per stream.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable
from dataclasses import dataclass


class StreamingMoments:
    """Running count / mean / variance / min / max via Welford's algorithm."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two streams' moments (Chan et al. parallel variance)."""
        merged = StreamingMoments()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * other.count / merged.count
        merged._m2 = self._m2 + other._m2 + delta**2 * self.count * other.count / merged.count
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged


@dataclass
class _Counter:
    count: int
    error: int


class _Bucket:
    """Stream-summary node: all keys currently sharing one estimate.

    Buckets form a doubly-linked list in strictly increasing ``count``
    order, so the minimum-count bucket is always the head — eviction never
    scans the counter table.  ``keys`` is a dict used as an ordered set
    (insertion order = order the keys reached this count).
    """

    __slots__ = ("count", "keys", "prev", "next")

    def __init__(self, count: int):
        self.count = count
        self.keys: dict[Hashable, None] = {}
        self.prev: _Bucket | None = None
        self.next: _Bucket | None = None


class SpaceSavingTopK:
    """Approximate top-k heavy hitters over a key stream.

    Maintains at most ``capacity`` counters; when a new key arrives with the
    table full, the minimum counter is evicted and its count inherited as
    the newcomer's error bound.  Guarantees every key with true frequency
    above ``N / capacity`` is present.

    Counters live in the Metwally et al. *stream-summary* structure: a
    doubly-linked list of count buckets in increasing order, with each key
    attached to the bucket holding its current estimate.  The eviction
    victim is read off the head (minimum) bucket in O(1), where the naive
    layout needs an O(capacity) min-scan per eviction — quadratic on an
    adversarial stream of all-distinct keys.  Increments move a key at
    most one bucket hop per count step observed, O(1) for the unit-count
    updates the trace analyses issue.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"top-k capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._counters: dict[Hashable, _Counter] = {}
        self._buckets: dict[Hashable, _Bucket] = {}
        self._head: _Bucket | None = None
        self.total = 0

    # -- stream-summary plumbing --------------------------------------------

    def _unlink(self, bucket: _Bucket) -> None:
        if bucket.prev is not None:
            bucket.prev.next = bucket.next
        else:
            self._head = bucket.next
        if bucket.next is not None:
            bucket.next.prev = bucket.prev

    def _insert_after(self, bucket: _Bucket, prev: _Bucket | None) -> None:
        if prev is None:
            bucket.prev = None
            bucket.next = self._head
            if self._head is not None:
                self._head.prev = bucket
            self._head = bucket
        else:
            bucket.prev = prev
            bucket.next = prev.next
            if prev.next is not None:
                prev.next.prev = bucket
            prev.next = bucket

    def _place(self, key: Hashable, count: int, anchor: _Bucket | None) -> None:
        """Attach ``key`` to the bucket for ``count``, walking from ``anchor``.

        ``anchor`` is a bucket known to hold a smaller count (or ``None``
        to start at the head); the walk only crosses buckets with counts
        in between, so unit increments hop at most one bucket.
        """
        prev = anchor
        nxt = self._head if prev is None else prev.next
        while nxt is not None and nxt.count < count:
            prev = nxt
            nxt = nxt.next
        if nxt is not None and nxt.count == count:
            nxt.keys[key] = None
            self._buckets[key] = nxt
            return
        bucket = _Bucket(count)
        bucket.keys[key] = None
        self._insert_after(bucket, prev)
        self._buckets[key] = bucket

    def _detach(self, key: Hashable) -> _Bucket | None:
        """Remove ``key`` from its bucket; returns the walk anchor."""
        bucket = self._buckets.pop(key)
        del bucket.keys[key]
        if bucket.keys:
            return bucket
        anchor = bucket.prev
        self._unlink(bucket)
        return anchor

    # -- updates -------------------------------------------------------------

    def add(self, key: Hashable, count: int = 1) -> None:
        if count < 1:
            raise ValueError(f"count must be a positive increment, got {count}")
        self.total += count
        counter = self._counters.get(key)
        if counter is not None:
            counter.count += count
            self._place(key, counter.count, self._detach(key))
            return
        if len(self._counters) < self.capacity:
            self._counters[key] = _Counter(count=count, error=0)
            self._place(key, count, None)
            return
        head = self._head
        assert head is not None  # table is full, so buckets are non-empty
        victim_key = next(iter(head.keys))
        victim = self._counters.pop(victim_key)
        anchor = self._detach(victim_key)
        self._counters[key] = _Counter(count=victim.count + count, error=victim.count)
        self._place(key, victim.count + count, anchor)

    def extend(self, keys: Iterable[Hashable]) -> None:
        for key in keys:
            self.add(key)

    def top(self, k: int | None = None) -> list[tuple[Hashable, int]]:
        """The ``k`` heaviest keys as ``(key, estimated_count)`` pairs."""
        ranked = sorted(self._counters.items(), key=lambda item: item[1].count, reverse=True)
        if k is not None:
            ranked = ranked[:k]
        return [(key, counter.count) for key, counter in ranked]

    def guaranteed_count(self, key: Hashable) -> int:
        """Lower bound on the true count of ``key`` (0 if untracked)."""
        counter = self._counters.get(key)
        if counter is None:
            return 0
        return counter.count - counter.error

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counters

    def __len__(self) -> int:
        return len(self._counters)
