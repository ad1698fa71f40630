"""Tests for the content-addressed on-disk result cache."""

import os

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.core.simulation import simulate
from repro.runtime import (
    PointSpec,
    ResultCache,
    code_version_salt,
    prime_code_version_salt,
)
from repro.runtime.serialization import canonical_json, result_payload

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=100, batches=2, seed=7)


def _spec(topology="2:4"):
    return PointSpec.of(RingSystemConfig(topology=topology), WORKLOAD, PARAMS)


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        assert cache.get(spec) is None
        result = simulate(spec.system, spec.workload, spec.params)
        cache.put(spec, result)
        hit = cache.get(spec)
        assert hit is not None
        assert hit.latency.mean == result.latency.mean
        assert hit.system == result.system
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = simulate(spec.system, spec.workload, spec.params)
        cache.put(spec, result)
        cache.path_for(spec).write_text("{not json")
        assert cache.get(spec) is None

    def test_entries_are_salted_by_code_version(self, tmp_path):
        """Entries written by a different simulator version never hit."""
        spec = _spec()
        old = ResultCache(tmp_path, salt="0123456789abcdef")
        old.put(spec, simulate(spec.system, spec.workload, spec.params))
        current = ResultCache(tmp_path)
        assert current.get(spec) is None
        assert current.entry_count() == 0

    def test_clear_removes_all_salts(self, tmp_path):
        spec = _spec()
        result = simulate(spec.system, spec.workload, spec.params)
        ResultCache(tmp_path, salt="aaaa").put(spec, result)
        cache = ResultCache(tmp_path)
        cache.put(spec, result)
        assert cache.clear() == 2
        assert not tmp_path.exists()
        assert cache.get(spec) is None

    def test_salt_is_stable_within_a_process(self):
        assert code_version_salt() == code_version_salt()
        assert len(code_version_salt()) == 16

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, simulate(spec.system, spec.workload, spec.params))
        path = cache.path_for(spec)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.get(spec) is None
        assert cache.get_entry(spec) is None

    def test_racing_writers_leave_a_clean_entry(self, tmp_path):
        """Two put() calls racing on one key: atomic replace wins cleanly.

        Interleaves the tmp-file/rename steps the way two processes
        would: both write their temp files, then both rename.  The
        survivor must be one writer's complete, parseable entry, and no
        temp litter may remain.
        """
        spec = _spec()
        result = simulate(spec.system, spec.workload, spec.params)
        a = ResultCache(tmp_path)
        b = ResultCache(tmp_path)
        path = a.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp_a = path.with_name(f".{path.name}.writer-a.tmp")
        tmp_b = path.with_name(f".{path.name}.writer-b.tmp")
        # what put() writes: the canonical text
        tmp_a.write_text(canonical_json(result_payload(result)))
        tmp_b.write_text(canonical_json(result_payload(result)))
        os.replace(tmp_a, path)
        os.replace(tmp_b, path)
        hit = b.get_entry(spec)
        assert hit is not None
        assert hit[0] == canonical_json(result_payload(result))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        spec = _spec()
        result = simulate(spec.system, spec.workload, spec.params)
        cache = ResultCache(tmp_path)
        cache.path_for(spec).mkdir(parents=True)  # os.replace onto a directory fails
        with pytest.raises(OSError):
            cache.put(spec, result)
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.skipif(os.geteuid() == 0, reason="root writes through directory modes")
    def test_unwritable_parent_raises_and_leaves_no_temp_file(self, tmp_path):
        spec = _spec()
        result = simulate(spec.system, spec.workload, spec.params)
        cache = ResultCache(tmp_path)
        parent = cache.path_for(spec).parent
        parent.mkdir(parents=True)
        parent.chmod(0o500)
        try:
            with pytest.raises(PermissionError):
                cache.put(spec, result)
        finally:
            parent.chmod(0o700)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_get_entry_text_is_canonical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = simulate(spec.system, spec.workload, spec.params)
        cache.put(spec, result)
        entry = cache.get_entry(spec)
        assert entry is not None
        text, round_tripped = entry
        assert text == canonical_json(result_payload(result))
        assert result_payload(round_tripped) == result_payload(result)


class TestSaltPriming:
    def test_primed_salt_overrides_computation(self):
        computed = code_version_salt()
        prime_code_version_salt("feedfacecafebeef")
        try:
            assert code_version_salt() == "feedfacecafebeef"
            assert ResultCache("unused").salt == "feedfacecafebeef"
        finally:
            import repro.runtime.cache as cache_module

            cache_module._primed_salt = None
        assert code_version_salt() == computed


class TestStatsAndPrune:
    def _fill(self, tmp_path, topologies, salt=None):
        cache = ResultCache(tmp_path) if salt is None else ResultCache(tmp_path, salt=salt)
        for topology in topologies:
            spec = _spec(topology)
            cache.put(spec, simulate(spec.system, spec.workload, spec.params))
        return cache

    def test_stats_cover_every_salt(self, tmp_path):
        self._fill(tmp_path, ["2:4", "2:5"])
        self._fill(tmp_path, ["2:6"], salt="0123456789abcdef")
        stats = ResultCache(tmp_path).stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert "0123456789abcdef" in stats.salts
        assert code_version_salt() in stats.salts
        assert "entries" in stats.describe()

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = self._fill(tmp_path, ["2:4", "2:5", "2:6"])
        paths = [cache.path_for(_spec(t)) for t in ("2:4", "2:5", "2:6")]
        # Deterministic mtime order regardless of write speed.
        for age, path in enumerate(paths):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        keep = paths[2].stat().st_size  # newest entry alone fits
        report = cache.prune(max_bytes=keep)
        assert report.removed_entries == 2
        assert report.kept_entries == 1
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists()
        assert cache.stats().total_bytes <= keep

    def test_prune_zero_removes_everything_and_empty_dirs(self, tmp_path):
        cache = self._fill(tmp_path, ["2:4", "2:5"])
        report = cache.prune(max_bytes=0)
        assert report.kept_entries == 0
        assert report.removed_entries == 2
        # entry subdirectories are cleaned up with their entries
        assert not list(tmp_path.rglob("*.json"))
        assert not any(p.is_dir() for p in tmp_path.iterdir())

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache = self._fill(tmp_path, ["2:4"])
        before = cache.stats()
        report = cache.prune(max_bytes=before.total_bytes)
        assert report.removed_entries == 0
        assert report.kept_bytes == before.total_bytes

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(max_bytes=-1)
