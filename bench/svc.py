"""Service workloads: svc_cold and svc_warm, over real HTTP.

A spawned ``python -m repro.service --port 0 --shards 1
--workers-per-shard 2`` is driven by one load-generator process with two
keep-alive connections in a closed loop (the callers are sweep scripts
that wait for each reply).  Latency is request write to last body byte.
The port is parsed from the service's first stdout line; nothing is
hard-coded.  The client is a raw-socket one of the benchmark's own, so a
change to ``repro.service.client`` cannot move the ruler.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import shutil
import socket
import statistics
import subprocess
import tempfile
import threading
import time
from typing import Any, Callable

from . import proc, stats, workloads
from .outcome import Checks, Outcome, latency_metrics
from .trace import Tracer

CONNECTIONS = 2
SHARDS = 1
WORKERS_PER_SHARD = 2
REQUEST_TIMEOUT_SEC = 60.0
#: Discarded requests before the window opens.
COLD_WARMUP_REQUESTS = 4
WARM_WARMUP_REQUESTS = 400
#: At most this many requests get a span in trace.json.
MAX_REQUEST_SPANS = 2000


class Connection:
    """One keep-alive HTTP/1.1 connection; Content-Length bodies only."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=REQUEST_TIMEOUT_SEC)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        self.sock.close()

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
        self.sock.sendall(head.encode("latin-1") + body)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("service closed the connection")
            data += chunk
        head_bytes, __, rest = data.partition(b"\r\n\r\n")
        lines = head_bytes.split(b"\r\n")
        status = int(lines[0].split(None, 2)[1])
        length = 0
        for line in lines[1:]:
            name, __, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("service closed the connection mid-body")
            rest += chunk
        return status, rest

    def read_event_stream(self, path: str) -> bytes:
        """GET a chunked NDJSON event feed up to its terminating chunk.

        The service announces ``Connection: close`` on this route but
        leaves the socket open, so the end of the stream is the zero
        chunk, not EOF.
        """
        self.sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1"))
        data = b""
        while not data.endswith(b"\r\n0\r\n\r\n"):
            chunk = self.sock.recv(65536)
            if not chunk:
                break
            data += chunk
        return data


class Service:
    """A spawned ``repro.service`` process on an ephemeral port."""

    def __init__(self, cache_dir: pathlib.Path, *extra: str) -> None:
        self.proc = subprocess.Popen(
            proc.python(
                "-m", "repro.service", "--port", "0",
                "--shards", str(SHARDS), "--workers-per-shard", str(WORKERS_PER_SHARD),
                "--cache-dir", str(cache_dir), *extra,
            ),
            start_new_session=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=proc.child_env(),
            cwd=str(proc.ROOT),
        )
        try:
            line = self.proc.stdout.readline()
            # "repro-service listening on 127.0.0.1:40785 (...)"
            address = line.partition("listening on ")[2].split()[0]
            self.host, __, port = address.rpartition(":")
            self.port = int(port)
            conn = self.connect()
            try:
                status, __ = conn.request("GET", "/healthz")
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            proc.reap(self.proc)
            raise

    def connect(self) -> Connection:
        return Connection(self.host, self.port)

    def stats(self) -> dict[str, Any]:
        conn = self.connect()
        try:
            return json.loads(conn.request("GET", "/stats")[1])
        finally:
            conn.close()

    def stop(self) -> None:
        proc.reap(self.proc)


def closed_loop(
    service: Service,
    next_body: Callable[[int], "tuple[Any, bytes] | None"],
    seconds: float,
    on_reply: Callable[[Any, int, bytes, float, float], None],
) -> None:
    """CONNECTIONS threads, each: take a request, send, wait, repeat.

    ``next_body(connection_index)`` yields ``(tag, body)`` or ``None`` to
    stop early; ``on_reply(tag, status, body, start, end)`` runs under a
    lock outside the timed region (status 0 = transport failure or
    timeout).
    """
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        conn = service.connect()
        try:
            while time.perf_counter() < deadline:
                with lock:
                    item = next_body(index)
                if item is None:
                    return
                tag, body = item
                begin = time.perf_counter()
                try:
                    status, reply = conn.request("POST", "/points", body)
                except (OSError, ValueError):
                    status, reply = 0, b""
                end = time.perf_counter()
                with lock:
                    on_reply(tag, status, reply, begin, end)
                if status == 0:
                    conn.close()
                    conn = service.connect()
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def reference_text(payload: workloads.Payload) -> bytes:
    """What the service must answer: a direct, uncached ``run_point``."""
    from repro.runtime import PointSpec, run_point
    from repro.runtime.serialization import canonical_json, result_payload

    spec = PointSpec.from_payload(payload)
    return canonical_json(result_payload(run_point(spec, cache=None))).encode("utf-8")


class SvcWorkload:
    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.seed = seed
        self.quick = quick
        self.warm = name == "svc_warm"
        self.checks = Checks()
        self.dir = pathlib.Path()
        self.service: Service | None = None
        self.next_index = 0
        self.cycles_per_op = workloads.simulated_cycles(self.payload(0))
        #: svc_warm: request bodies and the replies the fill produced
        self.bodies: list[bytes] = []
        self.expected: list[bytes] = []
        #: svc_cold: (index, reply) of the window's first two points, verified after it
        self.kept: list[tuple[int, bytes]] = []
        self.sent = {"cold": 0, "warm": 0}

    def payload(self, index: int) -> workloads.Payload:
        return workloads.svc_point(self.name, self.seed, index, self.quick)

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.dir = pathlib.Path(tempfile.mkdtemp(prefix="svc-"))
        self.service = Service(self.dir / "cache")
        if self.warm:
            points = workloads.SVC_POINTS
            self.bodies = [_body(self.payload(i)) for i in range(points)]
            # Fill: every point once, cold; then the discarded warm-up.
            self.expected = [reply for __, reply in self._cold_window([], count=points, keep=points)]
            self.checks.expect(len(self.expected) == points, "the fill lost a point")
            self._warm_window([], count=WARM_WARMUP_REQUESTS)
        else:
            self._cold_window([], count=COLD_WARMUP_REQUESTS)

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------
    def _cold_window(
        self, latencies: list[float], *, seconds: float = REQUEST_TIMEOUT_SEC,
        count: int | None = None, keep: int = 0, tracer: Tracer | None = None,
    ) -> list[tuple[int, bytes]]:
        """Never-seen points, for *seconds* or for *count* requests; returns
        ``(point index, reply)`` of the first *keep* points, in point order."""
        first = self.next_index
        kept: dict[int, bytes] = {}

        def next_body(__: int) -> "tuple[int, bytes] | None":
            index = self.next_index
            if count is not None and index - first >= count:
                return None
            self.next_index += 1
            return index, _body(self.payload(index))

        def on_reply(index: int, status: int, reply: bytes, begin: float, end: float) -> None:
            self.sent["cold"] += 1
            self.checks.expect(status == 200, f"POST /points answered {status}")
            if status == 200:
                latencies.append(end - begin)
                if index < first + keep:
                    kept[index] = reply
                if tracer is not None:
                    tracer.add("POST /points", begin, end)

        closed_loop(self.service, next_body, seconds, on_reply)
        return sorted(kept.items())

    def _warm_window(
        self, latencies: list[float], *, seconds: float = REQUEST_TIMEOUT_SEC,
        count: int | None = None, tracer: Tracer | None = None,
    ) -> None:
        """Cached points round-robin, for *seconds* or for *count* requests."""
        cursors = [i * (len(self.bodies) // CONNECTIONS) for i in range(CONNECTIONS)]
        start = sum(cursors)

        def next_body(conn_index: int) -> "tuple[int, bytes] | None":
            if count is not None and sum(cursors) - start >= count:
                return None
            which = cursors[conn_index] % len(self.bodies)
            cursors[conn_index] += 1
            return which, self.bodies[which]

        def on_reply(which: int, status: int, reply: bytes, begin: float, end: float) -> None:
            self.sent["warm"] += 1
            self.checks.expect(
                status == 200 and reply == self.expected[which],
                f"warm reply for point {which}: status {status}, body differs from the fill's",
            )
            if status == 200:
                latencies.append(end - begin)
                if tracer is not None and len(latencies) <= MAX_REQUEST_SPANS:
                    tracer.add("POST /points", begin, end)

        closed_loop(self.service, next_body, seconds, on_reply)

    # ------------------------------------------------------------------
    def _verify(self) -> dict[str, int]:
        """Served bytes equal a direct run_point; /stats tier counts equal
        the requests sent."""
        if self.warm:
            for i, reply in enumerate(self.expected):
                self.checks.expect(
                    reply == reference_text(self.payload(i)),
                    f"served body of point {i} differs from run_point",
                )
        for index, reply in self.kept:
            self.checks.expect(
                reply == reference_text(self.payload(index)),
                f"served body of point {index} differs from run_point",
            )
        sources = self.service.stats()["tiers"]["sources"]
        want = {"computed": self.sent["cold"], "mem": self.sent["warm"], "disk": 0, "dedup": 0}
        self.checks.expect(sources == want, f"/stats sources {sources}, requests sent {want}")
        return sources

    def _digest(self) -> str:
        """SHA-256 over the verified bodies: the fill's (svc_warm) or the
        first replies' in point order (svc_cold)."""
        sha = hashlib.sha256()
        for body in self.expected or [reply for __, reply in self.kept]:
            sha.update(body + b"\n")
        return sha.hexdigest()

    def measure(self, seconds: float) -> Outcome:
        # Latencies stay as the clock read them: the work happens in the
        # service and its workers while this process sleeps, and scaling by
        # host-speed probes taken between segments doubled the run-to-run
        # spread instead of halving it (README "Noise").
        latencies: list[float] = []
        if self.warm:
            self._warm_window(latencies, seconds=seconds)
        else:
            self.kept = self._cold_window(latencies, seconds=seconds, keep=2)
        self._verify()
        self.close()  # reap the service so its peak RSS is on the books
        if not latencies:
            latencies = [REQUEST_TIMEOUT_SEC]
        metrics = latency_metrics(latencies)
        # Closed loop, no think time: every connection always has one request
        # in flight, so throughput is connections over (mid)mean latency.
        req_per_s = CONNECTIONS / stats.midmean(latencies)
        metrics["sim_cycles_per_s"] = self.cycles_per_op * req_per_s
        metrics["peak_rss_mb"] = proc.peak_rss_mb(children=True)
        detail = {
            "digest": self._digest(),
            "request_s": stats.summarize(latencies),
            "req_per_s": req_per_s,
            "p90_ms": 1e3 * stats.percentile(latencies, 90),
            "p99_ms": 1e3 * stats.percentile(latencies, 99),
        }
        return Outcome(metrics, self.checks, detail)

    # ------------------------------------------------------------------
    def trace(self, seconds: float, tracer: Tracer) -> Outcome:
        latencies: list[float] = []
        if self.warm:
            self._warm_window(latencies, seconds=seconds / 3, tracer=tracer)
        else:
            self.kept = self._cold_window(latencies, seconds=seconds / 2, keep=2, tracer=tracer)
        sources = self._verify()
        requests = sum(sources.values())
        p50 = statistics.median(latencies)
        metrics: dict[str, float] = {
            "service.app.req_per_s": CONNECTIONS * len(latencies) / sum(latencies),
            "service.app.p90_ms": 1e3 * stats.percentile(latencies, 90),
            "service.app.p99_ms": 1e3 * stats.percentile(latencies, 99),
            "service.tiers.computed": sources["computed"],
            "service.tiers.mem": sources["mem"],
            "service.tiers.disk": sources["disk"],
            "service.tiers.dedup": sources["dedup"],
            "service.tiers.hit_ratio": (sources["mem"] + sources["disk"]) / requests,
            "service.shards.submitted": sum(self.service.stats()["pools"]["submitted"]),
            "trace.overhead_ratio": 1.0,  # spans are the generator's own clock reads
        }
        if self.warm:
            metrics.update(self._warm_layers(p50))
        else:
            metrics.update(self._cold_layers(p50))
        return Outcome(metrics, self.checks, {"request_s": stats.summarize(latencies)})

    def _cold_layers(self, cold_p50: float) -> dict[str, float]:
        """Queue + dispatch + store share of a cold request: cold p50
        minus the in-process simulate() median of the same points."""
        from repro import simulate
        from repro.runtime import PointSpec, code_version_salt
        from repro.service import ShardedPools

        walls = []
        for index in range(COLD_WARMUP_REQUESTS, COLD_WARMUP_REQUESTS + 5):
            spec = PointSpec.from_payload(self.payload(index))
            begin = time.perf_counter()
            simulate(spec.system, spec.workload, spec.params)
            walls.append(time.perf_counter() - begin)
        in_process = statistics.median(walls)

        begin = time.perf_counter()
        pools = ShardedPools(SHARDS, WORKERS_PER_SHARD, code_version_salt())
        try:
            pools.warm_up()
            warm_up = time.perf_counter() - begin
            tiny = workloads.point(
                workloads.ring_system("2:6", 32), workloads.mmrp(0.04), workloads.params(1, 2, self.seed)
            )
            spec = PointSpec.from_payload(tiny)

            async def dispatch() -> float:
                walls = []
                for __ in range(50):
                    begin = time.perf_counter()
                    await pools.run(spec, spec.key())
                    walls.append(time.perf_counter() - begin)
                return statistics.median(walls)

            dispatch_s = asyncio.run(dispatch())
        finally:
            pools.shutdown()
        return {
            "service.app.cold_overhead_ms": 1e3 * (cold_p50 - in_process),
            "service.app.cold_simulate_ms": 1e3 * in_process,
            "service.shards.warm_up_s": warm_up,
            "service.shards.dispatch_ms": 1e3 * dispatch_s,
        }

    def _warm_layers(self, warm_p50: float) -> dict[str, float]:
        from repro.runtime import MemCache, PointSpec, ResultCache
        from repro.service import TieredCache

        conn = self.service.connect()
        try:
            healthz = []
            for __ in range(1000):
                begin = time.perf_counter()
                status, __body = conn.request("GET", "/healthz")
                healthz.append(time.perf_counter() - begin)
            metrics = {
                "service.app.healthz_us": 1e6 * statistics.median(healthz),
                # parse + hash + lookup share of a warm request
                "service.app.warm_overhead_us": 1e6 * (warm_p50 - statistics.median(healthz)),
            }
            metrics.update(self._job_layers(conn))
        finally:
            conn.close()

        specs = [PointSpec.from_payload(self.payload(i)) for i in range(len(self.bodies))]
        keyed = [(spec, spec.key()) for spec in specs]
        tiers = TieredCache(ResultCache(self.dir / "cache"), MemCache())
        self.checks.expect(
            all(tiers.lookup(*k) is not None for k in keyed), "TieredCache misses a served point"
        )  # promotes every point into the memory tier
        metrics["service.tiers.mem_hit_us"] = stats.per_call_us(lambda k: tiers.lookup(*k), keyed)

        # Disk tier over HTTP: a second service on the same dir, memory tier off.
        disk_service = Service(self.dir / "cache", "--mem-entries", "0", "--no-warm-up")
        try:
            conn = disk_service.connect()
            try:
                walls = []
                for i in range(10 * len(self.bodies)):
                    which = i % len(self.bodies)
                    begin = time.perf_counter()
                    status, reply = conn.request("POST", "/points", self.bodies[which])
                    walls.append(time.perf_counter() - begin)
                    self.checks.expect(
                        status == 200 and reply == self.expected[which],
                        f"disk-tier reply for point {which} differs",
                    )
            finally:
                conn.close()
            sources = disk_service.stats()["tiers"]["sources"]
            self.checks.expect(
                sources["disk"] == len(walls) and sources["computed"] == 0,
                f"disk-tier service sources {sources}",
            )
        finally:
            disk_service.stop()
        metrics["service.tiers.disk_hit_us"] = 1e6 * statistics.median(walls)
        return metrics

    def _job_layers(self, conn: Connection) -> dict[str, float]:
        """Job/queue/event overhead without the engine, then the herd:
        one fresh point x64 in one job must compute exactly once."""
        points = [self.payload(i) for i in range(len(self.bodies))] * 4
        begin = time.perf_counter()
        results = self._run_job(conn, points)
        warm_job = time.perf_counter() - begin
        self.checks.expect(
            [_body_of(r) for r in results] == self.expected * 4,
            "job results differ from the served bodies",
        )
        before = self.service.stats()["tiers"]["sources"]
        self._run_job(conn, [self.payload(len(self.bodies))] * 64)
        after = self.service.stats()["tiers"]["sources"]
        herd = after["computed"] - before["computed"]
        self.checks.expect(herd == 1, f"herd of 64 identical points computed {herd} times")
        return {"service.queue.warm_job_ms": 1e3 * warm_job, "service.queue.herd_computed": herd}

    def _run_job(self, conn: Connection, points: list[workloads.Payload]) -> list[Any]:
        status, reply = conn.request("POST", "/jobs", json.dumps({"points": points}).encode("utf-8"))
        if status != 202:
            self.checks.expect(False, f"POST /jobs answered {status}")
            return []
        job = json.loads(reply)["job"]
        events = self.service.connect()
        try:
            feed = events.read_event_stream(f"/jobs/{job}/events")
        finally:
            events.close()
        self.checks.expect(b'"state": "done"' in feed, f"job {job} did not finish: {feed[-200:]!r}")
        status, reply = conn.request("GET", f"/jobs/{job}?results=1")
        return json.loads(reply).get("results", []) if status == 200 else []


def _body(payload: workloads.Payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _body_of(result: Any) -> bytes:
    """Re-canonicalize a parsed job result for comparison with served bytes."""
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode("utf-8")
