"""Tests for the parallel point runner: ordering, caching, determinism."""

import json
from dataclasses import replace

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.core.errors import ConfigurationError
from repro.experiments._shared import clear_sweep_caches
from repro.experiments.base import Scale, get_experiment
from repro.runtime import workers
from repro.runtime import (
    PointSpec,
    Progress,
    ResultCache,
    resolve_jobs,
    run_point,
    run_points,
    runtime_context,
)
from repro.runtime.serialization import result_payload

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=100, batches=2, seed=7)

SPECS = [
    PointSpec.of(RingSystemConfig(topology=(n,)), WORKLOAD, PARAMS)
    for n in (3, 4, 5, 6)
]


def _payloads(results):
    return [result_payload(r) for r in results]


class TestRunPoints:
    def test_results_in_input_order(self):
        results = run_points(SPECS, jobs=1, cache=None)
        assert [r.system.processors for r in results] == [3, 4, 5, 6]

    def test_parallel_matches_serial_exactly(self):
        serial = run_points(SPECS, jobs=1, cache=None)
        parallel = run_points(SPECS, jobs=3, cache=None)
        assert _payloads(serial) == _payloads(parallel)

    def test_progress_hook_sees_every_point(self):
        seen = []
        run_points(SPECS, jobs=1, cache=None, progress=lambda p: seen.append(p.done))
        assert seen == [1, 2, 3, 4]

    def test_cache_hits_reported(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_points(SPECS, jobs=1, cache=cache)
        trackers: list[Progress] = []
        replay = run_points(SPECS, jobs=1, cache=cache, progress=trackers.append)
        assert trackers[-1].cache_hits == len(SPECS)
        assert trackers[-1].computed == 0
        assert _payloads(replay) == _payloads(run_points(SPECS, jobs=1, cache=None))

    def test_parallel_run_fills_and_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_points(SPECS, jobs=2, cache=cache)
        assert cache.entry_count() == len(SPECS)
        trackers: list[Progress] = []
        second = run_points(SPECS, jobs=2, cache=cache, progress=trackers.append)
        assert trackers[-1].cache_hits == len(SPECS)
        assert _payloads(first) == _payloads(second)

    def test_run_point_single(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_point(SPECS[0], cache=cache)
        assert result.system.processors == 3
        assert cache.entry_count() == 1


class TestStragglers:
    def test_pool_path_submits_longest_expected_first(self, monkeypatch):
        """Cost is PM count x simulated cycles; ties keep spec order and
        results still come back in input order."""
        sent = []
        run_all = workers.run_all

        def spy(specs, *args):
            sent.extend(specs)  # the pool sends them in this order
            return run_all(specs, *args)

        monkeypatch.setattr(workers, "run_all", spy)
        long_small = replace(SPECS[0], params=replace(PARAMS, batches=5))  # 3 PMs x 500
        specs = [SPECS[1], SPECS[3], long_small, SPECS[2], SPECS[3]]  # costs 800, 1200, 1500, 1000, dup
        results = run_points(specs, jobs=2, cache=None)
        assert sent == [long_small, SPECS[3], SPECS[2], SPECS[1]]
        assert [r.system.processors for r in results] == [4, 6, 3, 5, 6]
        assert results[2].params.batches == 5


class TestJobResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4

    def test_context_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        with runtime_context(jobs=2):
            assert resolve_jobs() == 2
        assert resolve_jobs() == 4

    def test_explicit_overrides_context(self):
        with runtime_context(jobs=2):
            assert resolve_jobs(3) == 3

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)


MICRO = Scale(
    name="quick",
    sim=SimulationParams(batch_cycles=250, batches=2, seed=5),
    max_nodes=26,
    t_values=(2,),
    cache_lines=(32,),
    mesh_sides=(2, 3),
    locality_values=(0.2,),
    run_checks=False,
)


class TestFigureSweepDeterminism:
    def test_fig6_identical_json_serial_vs_parallel(self):
        """The acceptance bar: a figure sweep at --jobs 1 and --jobs N
        produces byte-identical series JSON."""
        experiment = get_experiment("fig6")
        clear_sweep_caches()
        with runtime_context(cache=None):
            serial = experiment.run(MICRO, jobs=1).to_json()
        clear_sweep_caches()
        with runtime_context(cache=None):
            parallel = experiment.run(MICRO, jobs=2).to_json()
        assert serial == parallel
        assert json.loads(serial)["series"]

    def test_fig6_cache_replay_identical(self, tmp_path):
        experiment = get_experiment("fig6")
        cache = ResultCache(tmp_path)
        clear_sweep_caches()
        with runtime_context(cache=cache):
            cold = experiment.run(MICRO, jobs=1).to_json()
        assert cache.entry_count() > 0
        trackers: list[Progress] = []
        clear_sweep_caches()
        with runtime_context(cache=cache, progress=trackers.append):
            warm = experiment.run(MICRO, jobs=1).to_json()
        assert warm == cold
        assert sum(t.cache_hits == t.total for t in trackers if t.done == t.total)
