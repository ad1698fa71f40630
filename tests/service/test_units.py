"""Unit tests for the service building blocks (no HTTP, no threads)."""

import asyncio
import json
import multiprocessing

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.core.simulation import simulate
from repro.runtime import MemCache, PointSpec, ResultCache, code_version_salt, run_point
from repro.runtime.serialization import canonical_json, result_payload
from repro.service import EventLog, Job, JobQueue, ShardedPools, SweepService, TieredCache
from repro.service.__main__ import banner

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=100, batches=2, seed=7)


def _spec(n=4):
    return PointSpec.of(RingSystemConfig(topology=(n,)), WORKLOAD, PARAMS)


@pytest.fixture(scope="module")
def sample():
    """A spec and its canonical text: what a shard worker hands back."""
    spec = _spec()
    result = simulate(spec.system, spec.workload, spec.params)
    return spec, canonical_json(result_payload(result))


class TestJobQueue:
    def test_priority_order_fifo_within_priority(self):
        async def run():
            queue = JobQueue()
            for index, priority in enumerate([0, 5, 5, 1]):
                await queue.push(Job(job_id=f"j{index}", specs=[], priority=priority))
            assert len(queue) == 4
            return [(await queue.pop()).job_id for __ in range(4)]

        assert asyncio.run(run()) == ["j1", "j2", "j3", "j0"]

    def test_close_drains_then_returns_none(self):
        async def run():
            queue = JobQueue()
            await queue.push(Job(job_id="j1", specs=[]))
            await queue.close()
            drained = await queue.pop()
            assert drained is not None and drained.job_id == "j1"
            assert await queue.pop() is None
            with pytest.raises(RuntimeError):
                await queue.push(Job(job_id="j2", specs=[]))

        asyncio.run(run())

    def test_close_wakes_blocked_pop(self):
        async def run():
            queue = JobQueue()
            waiter = asyncio.create_task(queue.pop())
            await asyncio.sleep(0)
            await queue.close()
            return await asyncio.wait_for(waiter, timeout=5)

        assert asyncio.run(run()) is None

    def test_job_status_payload(self, sample):
        spec, __ = sample
        job = Job(job_id="j1", specs=[spec, spec])
        assert job.total == 2 and job.done == 0
        job.results[0] = "{}"
        job.sources[0] = "mem"
        status = job.status_payload()
        assert status["done"] == 1
        assert status["sources"] == {"mem": 1}
        assert status["state"] == "queued"


class TestEventLog:
    def test_subscriber_sees_history_and_live_events(self):
        async def run():
            log = EventLog()
            await log.append({"event": "a"})

            async def subscribe():
                return [event["event"] async for event in log.stream()]

            task = asyncio.create_task(subscribe())
            await asyncio.sleep(0)
            await log.append({"event": "b"})
            await log.append({"event": "c", "final": True})
            return await asyncio.wait_for(task, timeout=5)

        assert asyncio.run(run()) == ["a", "b", "c"]

    def test_multiple_subscribers_each_get_every_event(self):
        async def run():
            log = EventLog()

            async def subscribe():
                return [event["event"] async for event in log.stream()]

            tasks = [asyncio.create_task(subscribe()) for __ in range(3)]
            await asyncio.sleep(0)
            await log.append({"event": "x"})
            await log.append({"event": "y", "final": True})
            return await asyncio.gather(*tasks)

        assert asyncio.run(run()) == [["x", "y"]] * 3

    def test_append_after_close_raises(self):
        async def run():
            log = EventLog()
            await log.append({"event": "end", "final": True})
            assert log.closed
            with pytest.raises(RuntimeError):
                await log.append({"event": "late"})

        asyncio.run(run())


class TestTieredCache:
    def test_compute_then_memory_hit(self, sample):
        spec, expected = sample

        async def run():
            tiers = TieredCache(None, MemCache())
            calls = []

            async def compute(*args):
                calls.append(args)
                return expected

            first = await tiers.fetch(spec, compute)
            second = await tiers.fetch(spec, compute)
            return first, second, dict(tiers.counters), calls

        first, second, counters, calls = asyncio.run(run())
        # compute is handed the key the tiers already computed
        assert calls == [(spec, spec.key())]
        assert first == (expected, "computed")
        assert second == (expected, "mem")
        assert counters["computed"] == 1 and counters["mem"] == 1

    def test_disk_tier_promotes_and_serves(self, sample, tmp_path):
        """The computing side writes the disk entry (a shard worker does);
        the tiers serve it from disk with the same bytes, then promote it."""
        spec, expected = sample
        disk = ResultCache(tmp_path)

        async def run():
            tiers = TieredCache(disk, MemCache())

            async def compute(spec, spec_key):
                disk.put(spec, simulate(spec.system, spec.workload, spec.params))
                return expected

            await tiers.fetch(spec, compute)
            tiers.mem.clear()  # forget memory; disk must serve
            assert await tiers.fetch(spec, compute) == (expected, "disk")
            __, source = await tiers.fetch(spec, compute)
            return source

        assert asyncio.run(run()) == "mem"  # the disk hit was promoted

    def test_single_flight_coalesces_concurrent_fetches(self, sample):
        spec, expected = sample

        async def run():
            tiers = TieredCache(None, MemCache())
            release = asyncio.Event()
            calls = 0

            async def compute(spec, spec_key):
                nonlocal calls
                calls += 1
                await release.wait()
                return expected

            leader = asyncio.create_task(tiers.fetch(spec, compute))
            await asyncio.sleep(0)  # leader registers in the inflight map
            assert tiers.inflight == 1
            waiters = [
                asyncio.create_task(tiers.fetch(spec, compute)) for __ in range(5)
            ]
            await asyncio.sleep(0)
            release.set()
            outcomes = await asyncio.gather(leader, *waiters)
            return calls, outcomes, dict(tiers.counters), tiers.inflight

        calls, outcomes, counters, inflight = asyncio.run(run())
        assert calls == 1
        assert {text for text, __ in outcomes} == {expected}
        assert [source for __, source in outcomes] == ["computed"] + ["dedup"] * 5
        assert counters == {"mem": 0, "disk": 0, "dedup": 5, "computed": 1}
        assert inflight == 0

    def test_compute_failure_propagates_to_waiters_then_clears(self, sample):
        spec, expected = sample

        async def run():
            tiers = TieredCache(None, MemCache())
            release = asyncio.Event()

            async def explode(spec, spec_key):
                await release.wait()
                raise RuntimeError("boom")

            leader = asyncio.create_task(tiers.fetch(spec, explode))
            await asyncio.sleep(0)
            waiter = asyncio.create_task(tiers.fetch(spec, explode))
            await asyncio.sleep(0)
            release.set()
            with pytest.raises(RuntimeError):
                await leader
            with pytest.raises(RuntimeError):
                await waiter
            assert tiers.inflight == 0

            async def recover(spec, spec_key):
                return expected

            return await tiers.fetch(spec, recover)

        text, source = asyncio.run(run())
        assert source == "computed"
        assert text == expected


# Runs in a child interpreter: this process imported the simulator long
# ago, so any worker it forks would trivially hold it.  The worker's
# point body is swapped for a report of what the worker holds; a forked
# worker runs the parent's copy of the module, swap included.
_WARMED_WORKER = """
import asyncio, json, sys
from repro.runtime import PointSpec, code_version_salt
from repro.runtime import workers
from repro.service import ShardedPools

def simulator_loaded(spec, cache):
    kernel = sys.modules.get("repro.core.ckernel")
    return json.dumps({
        "kernel_bound": kernel is not None and kernel._lib is not None,
        "modules": [
            name
            for name in ("repro.core.columnar", "repro.core.plan", "repro.core.engine")
            if name in sys.modules
        ],
    })

workers._answer = simulator_loaded
pools = ShardedPools(1, 1, code_version_salt())
try:
    pools.warm_up()
    spec = PointSpec.from_payload(json.loads(sys.argv[1]))
    # one shard, one worker: this lands on the worker warm_up started
    loaded = asyncio.run(pools.run(spec, spec.key()))
finally:
    pools.shutdown()
print(loaded)
"""


class TestShardedPools:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the service process's modules",
    )
    def test_warmed_worker_already_holds_the_simulator(self, run_child):
        """The first never-seen point after ``warm_up`` must not pay the
        simulator's import inside the request: the worker was forked
        holding what a default point runs on — the kernel tier with the
        kernel bound, and the engine only on a host that has no kernel."""
        from repro.core import ckernel

        worker = run_child(_WARMED_WORKER, json.dumps(_spec().payload()))
        if ckernel.available():
            assert worker["kernel_bound"]
            assert worker["modules"] == ["repro.core.columnar", "repro.core.plan"]
        else:
            assert "repro.core.engine" in worker["modules"]

    def test_worker_writes_the_disk_entry_the_tiers_serve(self, tmp_path):
        """A miss's disk entry is the worker's: served from ``disk`` by
        fresh tiers with the bytes the worker answered, which are a
        direct run_point's; a shard without a disk cache writes none."""
        spec = _spec()
        salt = code_version_salt()
        pools = ShardedPools(1, 1, salt, cache=ResultCache(tmp_path, salt))
        bare = ShardedPools(1, 1, salt)
        try:
            text = asyncio.run(pools.run(spec, spec.key()))
            bare_text = asyncio.run(bare.run(spec, spec.key()))
        finally:
            pools.shutdown()
            bare.shutdown()
        assert text == bare_text == canonical_json(result_payload(run_point(spec, cache=None)))
        tiers = TieredCache(ResultCache(tmp_path, salt), MemCache())
        assert tiers.lookup(spec, spec.key()) == (text, "disk")
        assert len(list(tmp_path.rglob("*.json"))) == 1


class TestBanner:
    @pytest.mark.parametrize(
        ("disk", "mem_entries", "tiers"),
        [
            (True, 100, "mem+disk"),
            (True, 0, "disk-only"),
            (False, 100, "mem-only"),
            (False, 0, "no cache"),
        ],
    )
    def test_start_up_line_names_the_tiers_that_serve(
        self, tmp_path, disk, mem_entries, tiers
    ):
        """``--mem-entries 0`` (or ``--mem-bytes 0``) turns the memory
        tier off, ``--no-cache`` the disk tier; the line says which
        are left."""
        service = SweepService(
            "127.0.0.1",
            8650,
            shards=3,
            workers_per_shard=2,
            cache=ResultCache(tmp_path, "feedfacecafebeef") if disk else None,
            mem=MemCache(max_entries=mem_entries),
        )
        line = banner(service)
        assert line.startswith("repro-service listening on 127.0.0.1:8650 (")
        assert f"(3 shards x 2 workers, {tiers}, salt " in line
        if disk:
            assert line.endswith("salt feedfacecafebeef)")
