"""Forced failures of the shard workers: a defined outcome for each.

* ``kill -9`` of a worker mid-point: that worker is respawned and the
  point retried once — same bytes, ``/stats`` ``pools`` counts it;
* a second death on the same point: HTTP 500 naming the error, and the
  service keeps serving;
* a request cancelled while its point runs: the worker stays reserved
  until the late reply has been read and dropped, so that reply never
  answers the next point;
* a worker forked lazily, mid-request: it holds none of the service's
  descriptors, so a connection the service closes is EOF for its client;
* a garbled disk entry (truncated JSON, JSON of another schema, zero
  bytes): a miss through ``run_points`` and through the service, and
  the recomputed point's atomic write replaces it with the bytes a
  fresh ``run_point`` gives.
"""

import asyncio
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.runtime import (
    GLOBAL_MEMCACHE,
    MemCache,
    PointSpec,
    ResultCache,
    code_version_salt,
    run_point,
    run_points,
)
from repro.runtime.serialization import canonical_json, result_payload
from repro.service import (
    ServiceClient,
    ServiceError,
    ShardedPools,
    SweepService,
    start_in_thread,
)

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.04, outstanding=4)

#: ~0.2 s on the C kernel: long enough to be killed or cancelled mid-point.
LONG = PointSpec(
    system=RingSystemConfig(topology="3:5:8", cache_line_bytes=32),
    workload=WORKLOAD,
    params=SimulationParams(batch_cycles=40000, batches=3, seed=5),
)
SHORT = PointSpec(
    system=RingSystemConfig(topology="2:4"),
    workload=WORKLOAD,
    params=SimulationParams(batch_cycles=300, batches=2, seed=6),
)


def _direct(spec):
    return canonical_json(result_payload(run_point(spec, cache=None)))


def _busy_pid(pools, *, other_than=None, timeout=30.0):
    """Pid of the worker holding a point, polled from another thread."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for worker in pools._workers:
            process = worker.process
            if worker.pending is not None and process is not None:
                if process.pid != other_than:
                    return process.pid
        time.sleep(0.001)
    raise AssertionError("no worker picked the point up")


def _kill_busy_workers(pools, deaths):
    """Background thread: SIGKILL *deaths* successive busy workers."""
    killed = []

    def kill():
        pid = None
        for __ in range(deaths):
            pid = _busy_pid(pools, other_than=pid)
            os.kill(pid, signal.SIGKILL)
            killed.append(pid)

    thread = threading.Thread(target=kill)
    thread.start()
    return thread, killed


@pytest.fixture
def service(tmp_path):
    svc = SweepService(
        "127.0.0.1",
        0,
        shards=1,
        workers_per_shard=1,
        cache=ResultCache(tmp_path),
        mem=MemCache(),
        job_workers=1,
    )
    handle = start_in_thread(svc, warm_up=True)
    client = ServiceClient("127.0.0.1", svc.port)
    yield svc, client
    client.shutdown()
    handle.stop()
    assert not handle.thread.is_alive()


class TestWorkerDeath:
    def test_killed_worker_is_respawned_and_the_point_retried(self, service):
        svc, client = service
        killer, killed = _kill_busy_workers(svc.pools, deaths=1)
        text, source = client.run_point(LONG.payload())
        killer.join(timeout=30)
        assert not killer.is_alive() and len(killed) == 1
        assert source == "computed"
        assert text == _direct(LONG)
        assert client.stats()["pools"]["respawned"] == [1]
        # the retried point wrote its disk entry, with the same bytes
        assert svc.tiers.disk.get_entry(LONG)[0] == text

    def test_second_death_answers_500_and_the_service_keeps_serving(self, service):
        svc, client = service
        killer, killed = _kill_busy_workers(svc.pools, deaths=2)
        with pytest.raises(ServiceError) as excinfo:
            client.run_point(LONG.payload())
        killer.join(timeout=30)
        assert not killer.is_alive() and len(set(killed)) == 2
        assert excinfo.value.status == 500
        assert "WorkerDied" in str(excinfo.value)
        assert client.stats()["pools"]["respawned"] == [2]
        # nothing was cached for the failed point; the next one is served
        assert svc.tiers.inflight == 0
        text, source = client.run_point(SHORT.payload())
        assert (text, source) == (_direct(SHORT), "computed")


class TestCancellation:
    def test_late_reply_of_a_cancelled_point_never_answers_the_next(self):
        """One worker: the next point must wait for the cancelled one's
        reply to be read and dropped, then get its own bytes."""
        pools = ShardedPools(1, 1, code_version_salt())

        async def scenario():
            running = asyncio.create_task(pools.run(LONG, LONG.key()))
            while pools._workers[0].pending is None:
                await asyncio.sleep(0.001)
            running.cancel()
            with pytest.raises(asyncio.CancelledError):
                await running
            assert pools._workers[0].pending is not None  # still reserved
            return await asyncio.wait_for(pools.run(SHORT, SHORT.key()), timeout=60)

        try:
            text = asyncio.run(scenario())
        finally:
            pools.shutdown()
        assert text == _direct(SHORT)
        assert pools.describe()["respawned"] == [0]

    def test_cancelled_waiter_does_not_hold_a_worker(self):
        """A request cancelled while queued for a busy shard leaves the
        worker to the requests behind it."""
        pools = ShardedPools(1, 1, code_version_salt())

        async def scenario():
            first = asyncio.create_task(pools.run(LONG, LONG.key()))
            queued = asyncio.create_task(pools.run(SHORT, SHORT.key()))
            await asyncio.sleep(0.01)
            queued.cancel()
            last = asyncio.create_task(pools.run(SHORT, SHORT.key()))
            return await asyncio.wait_for(asyncio.gather(first, last), timeout=60)

        try:
            long_text, short_text = asyncio.run(scenario())
        finally:
            pools.shutdown()
        assert long_text == _direct(LONG)
        assert short_text == _direct(SHORT)

    def test_many_points_with_cancellations_each_get_their_own_bytes(self):
        """More points than workers, every third one cancelled while it
        is queued or running: each survivor's reply is its own point's."""
        pools = ShardedPools(2, 1, code_version_salt())
        specs = [
            PointSpec(
                system=SHORT.system,
                workload=WORKLOAD,
                params=SimulationParams(batch_cycles=300, batches=2, seed=seed),
            )
            for seed in range(100, 124)
        ]

        async def scenario():
            tasks = [asyncio.create_task(pools.run(s, s.key())) for s in specs]
            for index in range(0, len(tasks), 3):
                await asyncio.sleep(0.002)
                tasks[index].cancel()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=120
            )
            # No cancellation lost a worker: every shard still answers.
            again = [pools.run(s, s.key()) for s in specs[:4]]
            return outcomes, await asyncio.wait_for(asyncio.gather(*again), timeout=60)

        try:
            outcomes, again = asyncio.run(scenario())
        finally:
            pools.shutdown()
        for index, (spec, outcome) in enumerate(zip(specs, outcomes)):
            if isinstance(outcome, asyncio.CancelledError):
                assert index % 3 == 0
            else:
                assert outcome == _direct(spec), index
        assert again == [_direct(spec) for spec in specs[:4]]


class TestForkHygiene:
    def test_connection_closed_by_the_service_is_eof_while_the_lazy_worker_lives(
        self, tmp_path
    ):
        """``--no-warm-up``: the first point forks its worker while the
        client's connection is open.  The service answers and closes it
        (``Connection: close``); the client must read EOF at once, not
        when that worker exits."""
        svc = SweepService(
            "127.0.0.1", 0, shards=1, workers_per_shard=1,
            cache=ResultCache(tmp_path), mem=MemCache(), job_workers=1,
        )
        handle = start_in_thread(svc)
        try:
            assert svc.pools._workers[0].process is None  # nothing forked yet
            body = json.dumps(SHORT.payload()).encode()
            with socket.create_connection(("127.0.0.1", svc.port), timeout=10) as sock:
                sock.sendall(
                    b"POST /points HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                response = b""
                while True:
                    chunk = sock.recv(65536)  # socket.timeout fails the test
                    if not chunk:
                        break
                    response += chunk
            assert response.startswith(b"HTTP/1.1 200")
            assert response.endswith(_direct(SHORT).encode())
            worker = svc.pools._workers[0].process
            assert worker is not None and worker.is_alive()
        finally:
            ServiceClient("127.0.0.1", svc.port).shutdown()
            handle.stop()
        assert not handle.thread.is_alive()


#: What a disk entry can be garbled into: a write cut short, JSON that
#: is not a result payload (an object of another schema, not an object
#: at all), nothing.
GARBLED = {
    "truncated": lambda text: text[: len(text) // 2],
    "other-schema": lambda text: json.dumps({"version": 1, "cycles": 3}),
    "not-an-object": lambda text: "[1, 2]",
    "empty": lambda text: "",
}


def _garble(cache, spec, how):
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(GARBLED[how](_direct(spec)))
    return path


@pytest.mark.parametrize("how", list(GARBLED))
class TestGarbledDiskEntry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_points_misses_and_rewrites_it(self, tmp_path, how, jobs):
        cache = ResultCache(tmp_path)
        path = _garble(cache, SHORT, how)
        GLOBAL_MEMCACHE.clear()
        trackers = []
        (result,) = run_points([SHORT], jobs=jobs, cache=cache, progress=trackers.append)
        assert trackers[-1].cache_hits == 0
        assert canonical_json(result_payload(result)) == _direct(SHORT)
        assert path.read_text() == _direct(SHORT)

    def test_the_service_misses_and_rewrites_it(self, service, how):
        svc, client = service
        path = _garble(svc.tiers.disk, SHORT, how)
        text, source = client.run_point(SHORT.payload())
        assert (text, source) == (_direct(SHORT), "computed")
        assert path.read_text() == text
