"""End-to-end tests: a real service in a thread, driven over HTTP."""

import socket
import statistics
import threading
import time
from dataclasses import replace

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.core.simulation import simulate
from repro.runtime import MemCache, PointSpec, ResultCache, run_point
from repro.runtime.serialization import canonical_json, result_payload
from repro.service import (
    ServiceClient,
    ServiceError,
    SweepService,
    start_in_thread,
)

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=150, batches=2, seed=7)


def _payload(seed):
    return PointSpec(
        system=RingSystemConfig(topology="2:4"),
        workload=WORKLOAD,
        params=SimulationParams(
            batch_cycles=PARAMS.batch_cycles, batches=PARAMS.batches, seed=seed
        ),
    ).payload()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("service-cache")
    svc = SweepService(
        "127.0.0.1",
        0,  # ephemeral port
        shards=1,
        workers_per_shard=2,
        cache=ResultCache(cache_root),
        mem=MemCache(),
        job_workers=2,
    )
    handle = start_in_thread(svc)
    client = ServiceClient("127.0.0.1", svc.port)
    yield svc, client
    client.shutdown()
    handle.stop()


class TestEndpoints:
    def test_healthz(self, service):
        svc, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["salt"] == svc.salt

    def test_point_computed_then_served_from_memory(self, service):
        """Two requests on one keep-alive connection: computed, then the
        same bytes from memory."""
        __, client = service
        payload = _payload(seed=21)
        before = client.stats()["requests"].get("POST /points", 0)
        connection = client._connection()
        first, source_first = client.run_point(payload)
        second, source_second = client.run_point(payload)
        assert client._connection() is connection
        assert source_first == "computed"
        assert source_second == "mem"
        assert first == second
        assert client.stats()["requests"]["POST /points"] >= before + 2

    def test_served_text_is_byte_identical_to_run_point(self, service):
        """... and both — the default route, in a pool worker and in
        this process — to the closure engine's bytes for that point."""
        __, client = service
        payload = _payload(seed=22)
        served, __source = client.run_point(payload)
        spec = PointSpec.from_payload(payload)
        direct = run_point(spec, cache=None)
        assert served == canonical_json(result_payload(direct))
        oracle = simulate(
            spec.system, spec.workload, replace(spec.params, scheduler="compiled")
        )
        assert served == canonical_json(result_payload(oracle))

    def test_array_topology_is_served_as_its_string_form(self, service):
        """A JSON array names the hierarchy as well as ``"2:4"`` does,
        on the point route and in a job."""
        __, client = service
        payload = _payload(seed=23)
        listed = {**payload, "system": {**payload["system"], "topology": [2, 4]}}
        expected = canonical_json(
            result_payload(run_point(PointSpec.from_payload(payload), cache=None))
        )
        served, __source = client.run_point(listed)
        assert served == expected
        job_id = client.submit_job([listed])
        status = client.wait_for_job(job_id)
        assert (status["state"], status["error"]) == ("done", None)
        (parsed,) = client.job_status(job_id, results=True)["results"]
        assert canonical_json(parsed) == expected

    def test_derive_seed_accepted(self, service):
        __, client = service
        payload = _payload(seed=1)
        del payload["params"]["seed"]
        text, source = client.run_point(payload, derive_seed=True)
        assert source in ("mem", "disk", "dedup", "computed")
        assert text.startswith("{")

    def test_job_lifecycle_with_results_and_events(self, service):
        __, client = service
        payloads = [_payload(seed) for seed in (31, 32, 33)]
        job_id = client.submit_job(payloads, priority=3)
        status = client.wait_for_job(job_id)
        assert status["state"] == "done"
        assert status["done"] == status["total"] == 3
        assert status["error"] is None

        with_results = client.job_status(job_id, results=True)
        results = with_results["results"]
        assert len(results) == 3
        # Spliced results are byte-exact: re-serializing each element
        # canonically must reproduce the spliced text.
        for payload, parsed in zip(payloads, results):
            direct = run_point(PointSpec.from_payload(payload), cache=None)
            assert canonical_json(parsed) == canonical_json(result_payload(direct))

        events = list(client.stream_events(job_id))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted"
        assert kinds[1] == "started"
        assert kinds.count("point") == 3
        assert kinds[-1] == "finished"
        assert events[-1]["final"] is True
        assert events[-1]["state"] == "done"

    def test_event_stream_closes_the_connection_it_announced(self, service):
        """``Connection: close`` on the stream is a promise: a keep-alive
        client reading the raw socket reaches EOF right after the
        terminating zero chunk instead of hanging on an open socket."""
        svc, client = service
        job_id = client.submit_job([_payload(seed=41)])
        client.wait_for_job(job_id)
        request = f"GET /jobs/{job_id}/events HTTP/1.1\r\nHost: test\r\n\r\n"
        with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
            sock.sendall(request.encode("latin-1"))
            raw = b""
            while chunk := sock.recv(65536):  # times out if left open
                raw += chunk
        assert b"Connection: close\r\n" in raw
        assert raw.endswith(b"\r\n0\r\n\r\n")

    def test_shutdown_closes_the_connection_it_announced(self, tmp_path):
        """``POST /shutdown`` answers ``Connection: close`` too: a
        keep-alive client reaches EOF right after the body, while the
        service is still stopping (pool teardown is held open here),
        not when the event loop is finally torn down around it."""
        svc = SweepService(
            "127.0.0.1",
            0,
            shards=1,
            workers_per_shard=1,
            cache=ResultCache(tmp_path),
            mem=MemCache(),
            job_workers=1,
        )
        release = threading.Event()
        close_pools = svc.pools.shutdown
        svc.pools.shutdown = lambda: (release.wait(30), close_pools())
        handle = start_in_thread(svc)
        request = "POST /shutdown HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n"
        try:
            with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
                sock.sendall(request.encode("latin-1"))
                raw = b""
                while chunk := sock.recv(65536):  # times out if left open
                    raw += chunk
        finally:
            release.set()
            handle.stop()
        assert b"Connection: close\r\n" in raw
        assert raw.endswith(b'"stopping"}')
        assert not handle.thread.is_alive()

    def test_stats_shape(self, service):
        __, client = service
        stats = client.stats()
        assert set(stats) >= {"uptime_sec", "requests", "tiers", "pools", "jobs"}
        assert set(stats["tiers"]["sources"]) == {"mem", "disk", "dedup", "computed"}
        assert stats["requests"].get("GET /healthz", 0) >= 1


class TestWarmPath:
    def test_warm_p50_is_50x_under_cold_p50(self, service):
        """The serving contract: re-requesting a point costs at most a
        fiftieth of computing it (closed loop, one keep-alive client).
        "Computing it" has to mean simulating, so the point is the
        paper's 120-node ring for 12,000 cycles: ~80 ms on the C kernel
        (150-250x a warm reply; the warm side is 0.3-0.9 ms depending on
        what else the host is doing), where a 12-node, 2,000-cycle point
        is ~3 ms and mostly request handling on both sides."""
        __, client = service
        payloads = [
            PointSpec(
                system=RingSystemConfig(topology="3:5:8", cache_line_bytes=32),
                workload=WorkloadConfig(locality=1.0, miss_rate=0.04, outstanding=4),
                params=SimulationParams(batch_cycles=6000, batches=2, seed=seed),
            ).payload()
            for seed in range(1000, 1006)
        ]

        def timed(payload):
            start = time.perf_counter()
            __, source = client.run_point(payload)
            return time.perf_counter() - start, source

        cold = [timed(payload) for payload in payloads]
        warm = [timed(payload) for __ in range(5) for payload in payloads]
        assert {source for __, source in cold} == {"computed"}
        assert {source for __, source in warm} <= {"mem", "disk"}
        cold_p50 = statistics.median(seconds for seconds, __ in cold)
        warm_p50 = statistics.median(seconds for seconds, __ in warm)
        assert cold_p50 >= 50 * warm_p50


class TestBadRequests:
    def test_unknown_route_is_404(self, service):
        __, client = service
        status, __, ___ = client._request("GET", "/nope")
        assert status == 404

    def test_invalid_json_body_is_400(self, service):
        __, client = service
        status, text, __ = client._request("POST", "/points")
        assert status == 400
        assert "JSON" in text

    def test_malformed_point_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.run_point({"system": {"kind": "nonsense"}})
        assert excinfo.value.status == 400

    def test_empty_job_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job([])
        assert excinfo.value.status == 400

    def test_non_integer_priority_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._json(
                "POST", "/jobs", {"points": [_payload(1)], "priority": "high"}
            )
        assert excinfo.value.status == 400

    def test_unknown_job_is_400(self, service):
        __, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.job_status("job-424242")
        assert excinfo.value.status == 400


class TestThunderingHerd:
    def test_identical_concurrent_requests_simulate_once(self, service):
        """A herd of identical requests collapses onto one simulation.

        Every client's connection is open and parked at a barrier before
        any request fires, and the simulation is sized to far outlast
        the request fan-in, so all non-leader requests land while the
        leader is still in flight.
        """
        svc, __ = service
        herd = 8
        payload = PointSpec(
            system=RingSystemConfig(topology="2:4"),
            workload=WORKLOAD,
            params=SimulationParams(batch_cycles=2500, batches=3, seed=515151),
        ).payload()
        clients = [ServiceClient("127.0.0.1", svc.port) for __i in range(herd)]
        for client in clients:
            client.healthz()  # force the connection open before the barrier
        computed_before = svc.tiers.counters["computed"]

        barrier = threading.Barrier(herd)
        texts = [None] * herd
        sources = [None] * herd

        def fire(index):
            barrier.wait()
            texts[index], sources[index] = clients[index].run_point(payload)

        threads = [
            threading.Thread(target=fire, args=(index,)) for index in range(herd)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for client in clients:
            client.close()

        assert svc.tiers.counters["computed"] - computed_before == 1
        assert sources.count("computed") == 1
        assert len(set(texts)) == 1
