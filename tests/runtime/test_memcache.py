"""Tests for the in-memory LRU result-cache tier."""

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.core.simulation import simulate
from repro.runtime import MemCache, PointSpec
from repro.runtime.memcache import entry_key
from repro.runtime.serialization import canonical_json, result_payload

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=100, batches=2, seed=7)


@pytest.fixture(scope="module")
def sample():
    spec = PointSpec.of(RingSystemConfig(topology="2:4"), WORKLOAD, PARAMS)
    result = simulate(spec.system, spec.workload, spec.params)
    return result, canonical_json(result_payload(result))


class TestMemCache:
    def test_miss_then_hit_round_trip(self, sample):
        result, text = sample
        cache = MemCache(max_entries=4, max_bytes=1 << 20)
        assert cache.get("k1") is None
        cache.put("k1", text, result)
        hit = cache.get("k1")
        assert hit is not None
        assert hit[0] == text
        # Text-only tier: the object is parsed back from the text, so it
        # is what a disk hit returns, not the instance that was put.
        assert hit[1] is not result
        assert canonical_json(result_payload(hit[1])) == text
        assert cache.get_text("k1") == text
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (2, 1, 1)
        assert stats.bytes == len(text.encode("utf-8"))

    def test_lru_eviction_order(self, sample):
        result, text = sample
        cache = MemCache(max_entries=2, max_bytes=1 << 20)
        cache.put("a", text, result)
        cache.put("b", text, result)
        assert cache.get("a") is not None  # bumps "a" over "b"
        cache.put("c", text, result)
        assert cache.get("b") is None  # LRU evicted
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats().evictions == 1

    def test_byte_bound_evicts(self, sample):
        result, text = sample
        size = len(text.encode("utf-8"))
        cache = MemCache(max_entries=100, max_bytes=2 * size)
        cache.put("a", text, result)
        cache.put("b", text, result)
        cache.put("c", text, result)
        assert len(cache) == 2
        assert cache.get("a") is None
        assert cache.stats().bytes <= 2 * size

    def test_oversized_entry_not_stored(self, sample):
        result, text = sample
        cache = MemCache(max_entries=10, max_bytes=len(text) // 2)
        cache.put("a", text, result)
        assert cache.get("a") is None
        assert cache.stats().bytes == 0

    def test_replacing_key_adjusts_bytes(self, sample):
        result, text = sample
        cache = MemCache(max_entries=10, max_bytes=1 << 20)
        cache.put("a", text, result)
        cache.put("a", text, result)
        assert len(cache) == 1
        assert cache.stats().bytes == len(text.encode("utf-8"))

    def test_zero_bounds_disable(self, sample):
        result, text = sample
        cache = MemCache(max_entries=0, max_bytes=0)
        assert not cache.enabled
        cache.put("a", text, result)
        assert len(cache) == 0

    def test_clear(self, sample):
        result, text = sample
        cache = MemCache()
        cache.put("a", text, result)
        cache.put("b", text, result)
        assert cache.clear() == 2
        assert cache.stats().bytes == 0
        assert cache.get("a") is None

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            MemCache(max_entries=-1)

    def test_entry_key_separates_roots_and_salts(self):
        assert entry_key("/a", "s1", "k") != entry_key("/b", "s1", "k")
        assert entry_key("/a", "s1", "k") != entry_key("/a", "s2", "k")
        assert entry_key("/a", "s1", "k") == entry_key("/a", "s1", "k")
