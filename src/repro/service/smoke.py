"""End-to-end service smoke: the CI gate for ``repro.service``.

Drives a real server over HTTP and asserts the serving contract:

1. a small fig07-style two-level-ring sweep job completes (cold);
2. resubmitting the identical job is answered entirely from cache
   (warm hits, zero new simulations);
3. 16 identical concurrent requests for a fresh point coalesce onto
   one simulation (dedup ratio >= 15/16);
4. a served result is byte-identical JSON to a direct
   :func:`repro.runtime.run_point` of the same spec;
5. the server shuts down cleanly on request;
6. with ``--spawn``: a second server on the same cache directory, its
   memory tier off (``--mem-entries 0``), answers the sweep's points
   from ``disk`` with the first server's bytes — the entries its shard
   workers wrote are whole and canonical.

Usage::

    PYTHONPATH=src python -m repro.service.smoke --spawn             # own server
    PYTHONPATH=src python -m repro.service.smoke --port 8650         # existing one
"""

from __future__ import annotations

import argparse
import concurrent.futures
import subprocess
import sys
import tempfile
import threading
import time

from ..core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from ..runtime import PointSpec, ResultCache, run_point
from ..runtime.serialization import canonical_json, result_payload
from .client import ServiceClient

#: fig07's workload: R=1.0 locality, C=0.04 miss rate, T=4 outstanding.
FIG07_WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.04, outstanding=4)
SMOKE_PARAMS = SimulationParams(batch_cycles=400, batches=2, seed=11)
HERD_PARAMS = SimulationParams(batch_cycles=2500, batches=3, seed=424242)
HERD_CLIENTS = 16


def fig07_points() -> "list[dict]":
    """A small slice of fig7's 2-level ring sweep as spec payloads."""
    points = []
    for locals_per_ring in (4, 6, 8):
        spec = PointSpec.of(
            RingSystemConfig(topology=f"2:{locals_per_ring}", cache_line_bytes=32),
            FIG07_WORKLOAD,
            SMOKE_PARAMS,
        )
        points.append(spec.payload())
    return points


def herd_point() -> dict:
    """A pinned-seed point no other smoke step has put in any cache."""
    spec = PointSpec(
        system=RingSystemConfig(topology="2:8", cache_line_bytes=32),
        workload=FIG07_WORKLOAD,
        params=HERD_PARAMS,
    )
    return spec.payload()


def _wait_healthy(client: ServiceClient, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout  # repro: noqa[RPR002]
    last_error: "Exception | None" = None
    while time.monotonic() < deadline:  # repro: noqa[RPR002]
        try:
            if client.healthz().get("status") == "ok":
                return
        except Exception as exc:
            last_error = exc
        time.sleep(0.2)
    raise RuntimeError(f"service never became healthy: {last_error}")


def _run_herd(host: str, port: int, point: dict) -> "list[tuple[str, str]]":
    """Fire HERD_CLIENTS identical requests as concurrently as possible."""
    barrier = threading.Barrier(HERD_CLIENTS)

    def one() -> "tuple[str, str]":
        client = ServiceClient(host, port)
        try:
            client.healthz()  # open the connection before the barrier
            barrier.wait(timeout=30)
            return client.run_point(point)
        finally:
            client.close()

    with concurrent.futures.ThreadPoolExecutor(max_workers=HERD_CLIENTS) as pool:
        return list(pool.map(lambda __: one(), range(HERD_CLIENTS)))


def run_smoke(host: str, port: int, *, shutdown: bool) -> "list[str]":
    """Steps 1-5; returns the served texts of the sweep's points."""
    client = ServiceClient(host, port)
    _wait_healthy(client)
    print(f"smoke: service healthy on {host}:{port}")

    points = fig07_points()
    job_id = client.submit_job(points)
    status = client.wait_for_job(job_id)
    assert status["state"] == "done", f"cold job failed: {status}"
    cold_sources = status["sources"]
    print(f"smoke: cold fig07 job {job_id} done, sources {cold_sources}")
    served = [client.run_point(point)[0] for point in points]

    # The same sweep again: every point must be a cache hit now.
    job_id = client.submit_job(points)
    events = [e["event"] for e in client.stream_events(job_id)]
    status = client.job_status(job_id, results=True)
    assert status["state"] == "done", f"warm job failed: {status}"
    warm_sources = status["sources"]
    warm_hits = warm_sources.get("mem", 0) + warm_sources.get("disk", 0)
    assert warm_hits == len(points), (
        f"warm resubmission was not served from cache: {warm_sources}"
    )
    assert "finished" in events and events.count("point") == len(points)
    print(f"smoke: warm fig07 job {job_id} all {warm_hits} points from cache")

    # Byte-identity: the served raw response vs a direct local run_point.
    served_text, source = client.run_point(points[0])
    spec = PointSpec.from_payload(points[0])
    with tempfile.TemporaryDirectory() as tmp:
        local = run_point(spec, cache=ResultCache(tmp))
    expected = canonical_json(result_payload(local))
    assert served_text == expected, "served result != direct run_point bytes"
    assert canonical_json(status["results"][0]) == expected
    print(f"smoke: served result ({source}) byte-identical to direct run_point")

    # Thundering herd: 16 identical concurrent requests, one simulation.
    before = client.stats()["tiers"]["sources"]
    responses = _run_herd(host, port, herd_point())
    after = client.stats()["tiers"]["sources"]
    computed = after["computed"] - before["computed"]
    dedup = after["dedup"] - before["dedup"]
    assert len(set(text for text, __ in responses)) == 1, (
        "herd responses were not byte-identical"
    )
    ratio = (HERD_CLIENTS - computed) / HERD_CLIENTS
    assert computed == 1, f"herd cost {computed} simulations, expected 1"
    assert ratio >= 15 / 16, f"dedup ratio {ratio:.3f} below 15/16"
    print(
        f"smoke: herd of {HERD_CLIENTS} -> {computed} simulation, "
        f"{dedup} dedup waits (ratio {ratio:.3f})"
    )

    if shutdown:
        client.shutdown()
        print("smoke: shutdown requested")
    else:
        client.close()
    return served


def check_disk_tier(host: str, port: int, served: "list[str]") -> None:
    """Step 6, against a server whose memory tier is off."""
    client = ServiceClient(host, port)
    _wait_healthy(client)
    for point, expected in zip(fig07_points(), served):
        text, source = client.run_point(point)
        assert source == "disk", f"second server answered from {source}, not disk"
        assert text == expected, "disk-tier bytes differ from the first server's"
    print(f"smoke: second server (memory tier off) served all {len(served)} "
          "points from disk, byte-identical")
    client.shutdown()


def _spawn_server(
    args: argparse.Namespace, cache_dir: str, *extra: str
) -> "subprocess.Popen[bytes]":
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--host",
            args.host,
            "--port",
            str(args.port),
            "--shards",
            "2",
            "--workers-per-shard",
            "2",
            "--cache-dir",
            cache_dir,
            *extra,
        ],
    )


def _stop(proc: "subprocess.Popen[bytes]") -> None:
    """Wait for a server asked to shut down; it must exit 0."""
    exit_code = proc.wait(timeout=60)
    assert exit_code == 0, f"server exited {exit_code}, expected 0"
    print("smoke: server exited cleanly")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8650)
    parser.add_argument(
        "--spawn",
        action="store_true",
        help="start (and cleanly stop) a server subprocess on --port",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="disk cache root for a --spawn'd server (default: a temp dir)",
    )
    args = parser.parse_args(argv)

    if not args.spawn:
        run_smoke(args.host, args.port, shutdown=False)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = args.cache_dir or tmp
        procs = [_spawn_server(args, cache_dir)]
        try:
            served = run_smoke(args.host, args.port, shutdown=True)
            _stop(procs[0])
            procs.append(_spawn_server(args, cache_dir, "--mem-entries", "0"))
            check_disk_tier(args.host, args.port, served)
            _stop(procs[1])
            return 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=30)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
