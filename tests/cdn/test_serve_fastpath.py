"""The serve path's caches and reused state change no outcome.

* ``Chunker`` builds each object's chunk table once and slices ranges out
  of it: the result must equal the chunking formula for any size and
  range, invalid ranges must still raise, and a caller mutating a returned
  list must not corrupt the table.
* ``GdsfPolicy`` rebuilds its lazy heap once stale entries pile up: the
  victim sequence and the floor must equal those of the uncompacted lazy
  heap kept here as the reference.
* ``SimulatorShard`` draws every request through one reused
  ``CounterStream``: a shard pickled the way the parallel path ships it
  to a worker, and back, must serve exactly what the original serves.
"""

from __future__ import annotations

import heapq
import pickle
import random

import pytest

from repro.cdn.chunking import Chunker
from repro.cdn.policies import GDSF_COMPACT_FACTOR, GdsfPolicy
from repro.cdn.simulator import CdnSimulator, SimulationConfig
from repro.errors import CachePolicyError, CdnError
from repro.types import ContentCategory, TrendClass
from repro.workload.catalog import ContentObject
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import profile_v1, profile_v2
from repro.workload.scale import ScaleConfig


def make_object(category: ContentCategory, size: int, object_id: str | None = None) -> ContentObject:
    return ContentObject(
        object_id=object_id or f"{category.value}-{size}",
        site="V-1",
        category=category,
        extension="mp4" if category is ContentCategory.VIDEO else "jpg",
        size_bytes=size,
        birth_time=0.0,
        trend=TrendClass.DIURNAL,
        popularity_weight=1.0,
    )


def reference_chunks(chunk_bytes: int, obj: ContentObject, start: int, length: int) -> list[tuple]:
    """The chunking formula, evaluated from scratch for every range."""
    size = obj.size_bytes
    if obj.category is not ContentCategory.VIDEO or size <= chunk_bytes:
        return [(obj.object_id, 0, size)]
    count = (size + chunk_bytes - 1) // chunk_bytes
    length = min(length, size - start)
    first, last = start // chunk_bytes, (start + length - 1) // chunk_bytes
    return [
        (f"{obj.object_id}#c{index}", index, chunk_bytes if index < count - 1 else size - chunk_bytes * (count - 1))
        for index in range(first, last + 1)
    ]


def as_tuples(chunks) -> list[tuple]:
    return [(chunk.key, chunk.index, chunk.size) for chunk in chunks]


class TestChunkTables:
    def test_matches_formula_over_random_sizes_and_ranges(self):
        rng = random.Random(2016)
        chunker = Chunker(chunk_bytes=1_000)
        for _ in range(400):
            category = rng.choice(list(ContentCategory))
            size = rng.choice([1, 999, 1_000, 1_001, 2_000, 2_001, rng.randrange(1, 25_000)])
            obj = make_object(category, size)
            for _ in range(5):
                start = rng.randrange(size)
                length = rng.choice([1, rng.randrange(1, 3 * size + 2)])
                expected = reference_chunks(1_000, obj, start, length)
                assert as_tuples(chunker.chunks_for_range(obj, start, length)) == expected
            assert as_tuples(chunker.all_chunks(obj)) == reference_chunks(1_000, obj, 0, size)

    @pytest.mark.parametrize("warm", [False, True])
    def test_invalid_ranges_still_raise(self, warm):
        chunker = Chunker(chunk_bytes=1_000)
        obj = make_object(ContentCategory.VIDEO, 2_500)
        if warm:
            chunker.all_chunks(obj)
        for start, length in [(0, 0), (10, -1), (-1, 10), (2_500, 10), (9_999, 1)]:
            with pytest.raises(CdnError):
                chunker.chunks_for_range(obj, start, length)

    def test_mutating_a_returned_list_leaves_the_table_intact(self):
        chunker = Chunker(chunk_bytes=1_000)
        video = make_object(ContentCategory.VIDEO, 4_500)
        image = make_object(ContentCategory.IMAGE, 300)
        for obj in (video, image):
            first = chunker.all_chunks(obj)
            expected = as_tuples(first)
            first.clear()
            ranged = chunker.chunks_for_range(obj, 0, 1)
            ranged.append(ranged[0])
            assert as_tuples(chunker.all_chunks(obj)) == expected

    def test_same_id_with_new_size_rebuilds(self):
        chunker = Chunker(chunk_bytes=1_000)
        short = make_object(ContentCategory.VIDEO, 2_500, object_id="v")
        long = make_object(ContentCategory.VIDEO, 5_500, object_id="v")
        assert len(chunker.all_chunks(short)) == 3
        assert as_tuples(chunker.all_chunks(long)) == reference_chunks(1_000, long, 0, 5_500)

    def test_pickling_drops_tables(self):
        chunker = Chunker(chunk_bytes=1_000)
        obj = make_object(ContentCategory.VIDEO, 7_000)
        expected = as_tuples(chunker.all_chunks(obj))
        copy = pickle.loads(pickle.dumps(chunker))
        assert copy.chunk_bytes == 1_000 and copy._tables == {}
        assert as_tuples(copy.all_chunks(obj)) == expected


class LazyGdsf:
    """GDSF over a lazy heap that is never compacted (the reference)."""

    def __init__(self) -> None:
        self.priority: dict[str, float] = {}
        self.frequency: dict[str, int] = {}
        self.size: dict[str, int] = {}
        self.floor = 0.0
        self.heap: list[tuple[float, str]] = []

    def _push(self, key: str) -> None:
        self.priority[key] = self.floor + self.frequency[key] / max(1, self.size[key])
        heapq.heappush(self.heap, (self.priority[key], key))

    def on_insert(self, key: str, size: int) -> None:
        self.frequency[key] = 1
        self.size[key] = size
        self._push(key)

    def on_hit(self, key: str) -> None:
        self.frequency[key] += 1
        self._push(key)

    def on_evict(self, key: str) -> None:
        priority = self.priority.pop(key, None)
        if priority is not None:
            self.floor = max(self.floor, priority)
        self.frequency.pop(key, None)
        self.size.pop(key, None)

    def victim(self) -> str:
        while self.heap:
            priority, key = self.heap[0]
            if self.priority.get(key) != priority:
                heapq.heappop(self.heap)
                continue
            return key
        raise CachePolicyError("empty")


class TestGdsfCompaction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_victims_and_floor_match_uncompacted_reference(self, seed):
        rng = random.Random(seed)
        policy, reference = GdsfPolicy(), LazyGdsf()
        live: list[str] = []
        victims, expected_victims = [], []
        next_key = 0
        reference_peak = 0
        for step in range(6_000):
            action = rng.random()
            if not live or action < 0.15:
                key, size = f"k{next_key}", rng.choice([0, 1, rng.randrange(1, 5_000_000)])
                next_key += 1
                policy.on_insert(key, size, float(step))
                reference.on_insert(key, size)
                live.append(key)
            elif action < 0.80:
                # Hits skewed towards a few hot keys pile up stale entries.
                key = live[min(int(rng.expovariate(0.5)), len(live) - 1)]
                policy.on_hit(key, float(step))
                reference.on_hit(key)
            elif action < 0.95:
                victims.append(policy.victim())
                expected_victims.append(reference.victim())
                policy.on_evict(victims[-1])
                reference.on_evict(expected_victims[-1])
                live.remove(expected_victims[-1])
            else:
                # Removal outside victim(): expiry or invalidation.
                key = live.pop(rng.randrange(len(live)))
                policy.on_evict(key)
                reference.on_evict(key)
            assert len(policy) == len(live)
            if action < 0.80:
                # The heap only grows on a push, and a push compacts it.
                assert len(policy._heap) <= GDSF_COMPACT_FACTOR * len(live)
            reference_peak = max(reference_peak, len(reference.heap) / max(1, len(live)))
        assert victims == expected_victims
        assert policy._floor == reference.floor
        assert reference_peak > GDSF_COMPACT_FACTOR  # compaction really ran
        while live:
            assert policy.victim() == reference.victim()
            key = reference.victim()
            policy.on_evict(key)
            reference.on_evict(key)
            live.remove(key)
        assert policy._floor == reference.floor


SEED = 23


@pytest.fixture(scope="module")
def simulator_and_requests():
    profiles = (profile_v1(), profile_v2())
    generator = WorkloadGenerator(profiles=profiles, scale=ScaleConfig.tiny(), seed=SEED)
    workloads = generator.generate_all()
    requests = []
    for request in generator.merged_requests(workloads):
        requests.append(request)
        if len(requests) >= 1_200:
            break
    config = SimulationConfig(seed=SEED, cache_capacity_bytes=500_000_000)
    simulator = CdnSimulator(profiles=profiles, config=config)
    simulator.warm(w.catalog for w in workloads.values())
    return simulator, requests


def test_pickled_shard_serves_identically(simulator_and_requests):
    simulator, requests = simulator_and_requests
    key = simulator._shard_key(requests[0].user)
    shard = simulator._shards[key]
    own = [r for r in requests if simulator._shard_key(r.user) == key]
    head, tail = own[: len(own) // 2], own[len(own) // 2 :]
    for request in head:
        shard.process(request)
    # Mid-run, with chunk tables built and the stream left mid-draw.
    copy = pickle.loads(pickle.dumps(shard))
    served = [record for request in tail for record in shard.process(request)]
    replayed = [record for request in tail for record in copy.process(request)]
    assert len(served) > 100
    assert replayed == served
    assert copy.metrics == shard.metrics
    assert copy.edge.large_cache.stats == shard.edge.large_cache.stats
