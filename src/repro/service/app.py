"""The async sweep service: HTTP/JSON job API over ``repro.runtime``.

A long-running asyncio server that turns the figure-sweep runner into a
shared simulation service.  Request path for every point: in-memory LRU
→ salted disk cache → single-flight in-flight map → sharded persistent
worker processes (shard chosen by point content hash; the worker writes
the disk entry and hands back the canonical text).  Served results are
byte-identical to a direct :func:`repro.runtime.run_point` of the same
spec — responses carry the canonical result payload text.

Endpoints (all JSON):

===========================  ========================================
``GET  /healthz``            liveness + uptime
``GET  /stats``              request, cache-tier and shard counters
``POST /points``             run one point synchronously; body is the
                             spec payload ``{system, workload,
                             params}`` (optionally ``{"point": ...,
                             "derive_seed": true}``); response body is
                             the canonical result text, the
                             ``X-Repro-Source`` header says which tier
                             produced it
``POST /jobs``               submit a sweep: ``{"points": [...],
                             "priority": 0, "derive_seed": false}`` →
                             ``{"job": "<id>"}``; higher priority runs
                             first
``GET  /jobs/<id>``          job status; ``?results=1`` splices each
                             point's canonical result text into a
                             ``results`` array (byte-exact); 410 for
                             ids evicted by finished-job retention
                             (TTL + cap, oldest completion first),
                             400 for ids never issued
``GET  /jobs/<id>/events``   NDJSON progress event stream (chunked)
                             until the job reaches a terminal state
``POST /shutdown``           graceful stop: drain, stop shard workers, exit
===========================  ========================================

The HTTP layer is a deliberately small HTTP/1.1 subset on asyncio
streams (keep-alive, Content-Length bodies, chunked responses for event
streams) — the container ships no third-party web framework, and the
service needs nothing more.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any
from urllib.parse import parse_qs, urlsplit

from ..core.errors import ConfigurationError
from ..runtime import GLOBAL_MEMCACHE, MemCache, PointSpec, ResultCache, code_version_salt
from .queue import Job, JobQueue
from .shards import ShardedPools
from .tiers import TieredCache

#: Default bind address for ``python -m repro.service``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8650

_MAX_BODY_BYTES = 64 * 1024 * 1024


class BadRequest(Exception):
    """Client error carried to an HTTP 400 response."""


class Gone(Exception):
    """A job id that existed but was evicted by retention — HTTP 410."""


#: Default retention for terminal (done/failed) jobs: evicted once
#: older than the TTL or once more than the cap are tracked, oldest
#: completion first.  Queued/running jobs are never evicted.
DEFAULT_JOB_TTL_SEC = 3600.0
DEFAULT_MAX_FINISHED_JOBS = 512


def _json_bytes(payload: "dict[str, Any]") -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class SweepService:
    """Service state: queue, shards, tiered cache, jobs, HTTP server."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        shards: int = 2,
        workers_per_shard: int = 2,
        cache: "ResultCache | None" = None,
        mem: "MemCache | None" = None,
        job_workers: int = 2,
        job_ttl_sec: "float | None" = DEFAULT_JOB_TTL_SEC,
        max_finished_jobs: int = DEFAULT_MAX_FINISHED_JOBS,
    ) -> None:
        if job_workers < 1:
            raise ConfigurationError(f"job_workers must be >= 1, got {job_workers}")
        if job_ttl_sec is not None and job_ttl_sec <= 0:
            raise ConfigurationError(
                f"job_ttl_sec must be positive or None (no TTL), got {job_ttl_sec}"
            )
        if max_finished_jobs < 1:
            raise ConfigurationError(
                f"max_finished_jobs must be >= 1, got {max_finished_jobs}"
            )
        self.host = host
        self.port = port
        # The salt is computed once here, in the parent; every shard
        # worker is primed with it and writes the disk entries of the
        # points it runs through the same cache, which pins it for the
        # service's lifetime.
        self.salt = cache.salt if cache is not None else code_version_salt()
        self.pools = ShardedPools(shards, workers_per_shard, self.salt, cache=cache)
        self.tiers = TieredCache(cache, mem)
        self.queue = JobQueue()
        self.jobs: "dict[str, Job]" = {}
        self.job_workers = job_workers
        self.job_ttl_sec = job_ttl_sec
        self.max_finished_jobs = max_finished_jobs
        self.requests: "dict[str, int]" = {}
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_evicted = 0
        self._job_seq = 0
        # Bounds how many points one job hands to the shards at once.
        self._point_slots = asyncio.Semaphore(self.pools.total_workers * 4)
        self._server: "asyncio.base_events.Server | None" = None
        self._runners: "list[asyncio.Task[None]]" = []
        self._stopping = asyncio.Event()
        # Host wall-clock for uptime reporting only.
        self._started = time.monotonic()  # repro: noqa[RPR002]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the job-runner tasks."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self.port = bound[1]
        self._runners = [
            asyncio.create_task(self._job_runner(), name=f"job-runner-{i}")
            for i in range(self.job_workers)
        ]

    async def serve(self, *, warm_up: bool = False) -> None:
        """After :meth:`start`: optionally pre-spawn the shard workers,
        then serve until shutdown."""
        if warm_up:
            await asyncio.get_running_loop().run_in_executor(None, self.pools.warm_up)
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.queue.close()
        if self._runners:
            await asyncio.gather(*self._runners, return_exceptions=True)
        await asyncio.get_running_loop().run_in_executor(
            None, self.pools.shutdown
        )

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                try:
                    keep_alive = await self._dispatch(
                        method, target, body, writer, keep_alive
                    )
                except BadRequest as exc:
                    await self._respond_json(
                        writer, 400, {"error": str(exc)}, keep_alive
                    )
                except Gone as exc:
                    await self._respond_json(
                        writer, 410, {"error": str(exc)}, keep_alive
                    )
                except Exception as exc:  # surface, don't kill the server
                    await self._respond_json(
                        writer,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                        keep_alive,
                    )
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BadRequest):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> "tuple[str, str, dict[str, str], bytes] | None":
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise BadRequest(f"malformed request line: {line!r}")
        method, target, __version = parts
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, __, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise BadRequest(f"unacceptable content-length: {length}")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        *,
        content_type: str = "application/json",
        extra_headers: "dict[str, str] | None" = None,
    ) -> None:
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 405: "Method Not Allowed",
                  410: "Gone", 500: "Internal Server Error"}.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        extras = extra_headers or {}
        for name in sorted(extras):
            head.append(f"{name}: {extras[name]}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    async def _respond_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict[str, Any]",
        keep_alive: bool,
    ) -> None:
        await self._respond(writer, status, _json_bytes(payload), keep_alive)

    async def _dispatch(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Answer one request; returns whether the connection stays open."""
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        self.requests[f"{method} {path}"] = self.requests.get(f"{method} {path}", 0) + 1

        if method == "GET" and path == "/healthz":
            await self._respond_json(
                writer,
                200,
                {
                    "status": "ok",
                    # repro: noqa[RPR002] — host uptime telemetry only
                    "uptime_sec": round(time.monotonic() - self._started, 3),
                    "salt": self.salt,
                },
                keep_alive,
            )
        elif method == "GET" and path == "/stats":
            await self._respond_json(writer, 200, self.stats_payload(), keep_alive)
        elif method == "POST" and path == "/points":
            await self._handle_point(body, writer, keep_alive)
        elif method == "POST" and path == "/jobs":
            await self._handle_submit(body, writer, keep_alive)
        elif method == "GET" and path.startswith("/jobs/") and path.endswith("/events"):
            await self._handle_events(path.split("/")[2], writer)
            return False  # the stream announced ``Connection: close``
        elif method == "GET" and path.startswith("/jobs/"):
            await self._handle_job_status(
                path.split("/")[2], query, writer, keep_alive
            )
        elif method == "POST" and path == "/shutdown":
            await self._respond_json(writer, 200, {"status": "stopping"}, False)
            await self.stop()
            return False  # the response announced ``Connection: close``
        else:
            await self._respond_json(
                writer, 404, {"error": f"no route for {method} {path}"}, keep_alive
            )
        return keep_alive

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _parse_specs(
        self, payloads: "list[dict[str, Any]]", derive_seed: bool
    ) -> "list[PointSpec]":
        specs = []
        for index, payload in enumerate(payloads):
            if not isinstance(payload, dict):
                raise BadRequest(f"point {index}: payload must be an object")
            try:
                specs.append(PointSpec.from_payload(payload, derive_seed=derive_seed))
            except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
                raise BadRequest(f"point {index}: {exc}") from exc
        return specs

    def _parse_body(self, body: bytes) -> "dict[str, Any]":
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    async def _handle_point(
        self, body: bytes, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        payload = self._parse_body(body)
        derive_seed = bool(payload.pop("derive_seed", False))
        point = payload.pop("point", None)
        spec = self._parse_specs([point if point is not None else payload], derive_seed)[0]
        text, source = await self.tiers.fetch(spec, self.pools.run)
        await self._respond(
            writer,
            200,
            text.encode("utf-8"),
            keep_alive,
            extra_headers={"X-Repro-Source": source},
        )

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        payload = self._parse_body(body)
        points = payload.get("points")
        if not isinstance(points, list) or not points:
            raise BadRequest('"points" must be a non-empty array of spec payloads')
        specs = self._parse_specs(points, bool(payload.get("derive_seed", False)))
        priority = payload.get("priority", 0)
        if not isinstance(priority, int):
            raise BadRequest('"priority" must be an integer')
        self._job_seq += 1
        job = Job(job_id=f"job-{self._job_seq}", specs=specs, priority=priority)
        self.jobs[job.job_id] = job
        await job.events.append(
            {"event": "accepted", "job": job.job_id, "total": job.total,
             "priority": priority}
        )
        await self.queue.push(job)
        await self._respond_json(
            writer, 202, {"job": job.job_id, "total": job.total}, keep_alive
        )

    def _retire_finished(self) -> None:
        """Evict terminal jobs past the TTL or beyond the tracked cap.

        Eviction order is completion time, oldest first; queued and
        running jobs are never touched.  Keeps ``self.jobs`` bounded no
        matter how long the service runs.
        """
        finished = sorted(
            (
                (job.finished_at, job_id)
                for job_id, job in self.jobs.items()
                if job.finished_at is not None
            ),
        )
        # Host wall-clock drives retention telemetry only, never results.
        now = time.monotonic()  # repro: noqa[RPR002]
        evict: "list[str]" = []
        keep = len(finished)
        for finished_at, job_id in finished:
            assert finished_at is not None
            expired = (
                self.job_ttl_sec is not None
                and now - finished_at > self.job_ttl_sec
            )
            if expired or keep > self.max_finished_jobs:
                evict.append(job_id)
                keep -= 1
        for job_id in evict:
            del self.jobs[job_id]
            self.jobs_evicted += 1

    def _was_issued(self, job_id: str) -> bool:
        """Whether *job_id* is an id this service instance handed out.

        Ids are sequential (``job-1 .. job-<seq>``) and every issued id
        enters ``self.jobs``, so a well-formed id at or below the
        sequence counter that is now missing must have been evicted —
        an O(1) test with no tombstone bookkeeping.
        """
        prefix, __, number = job_id.partition("-")
        if prefix != "job" or not number.isdigit():
            return False
        return 1 <= int(number) <= self._job_seq

    def _job_or_bad_request(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is not None:
            return job
        if self._was_issued(job_id):
            raise Gone(
                f"job {job_id} was evicted after completion (retention: "
                f"ttl={self.job_ttl_sec}s, max_finished={self.max_finished_jobs})"
            )
        raise BadRequest(f"unknown job: {job_id}")

    async def _handle_job_status(
        self,
        job_id: str,
        query: "dict[str, list[str]]",
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> None:
        job = self._job_or_bad_request(job_id)
        status = job.status_payload()
        body = _json_bytes(status)
        if query.get("results", ["0"])[-1] in ("1", "true"):
            # The result texts are canonical already; splice them in
            # verbatim so every element stays byte-identical to a
            # direct run_point serialization of the same spec.
            texts = [text for text in job.results if text is not None]
            if len(texts) == job.total:
                spliced = b",".join(text.encode("utf-8") for text in texts)
                body = body[:-1] + b',"results":[' + spliced + b"]}"
        await self._respond(writer, 200, body, keep_alive)

    async def _handle_events(self, job_id: str, writer: asyncio.StreamWriter) -> None:
        job = self._job_or_bad_request(job_id)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        async for event in job.events.stream():
            chunk = _json_bytes(event) + b"\n"
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    async def _job_runner(self) -> None:
        while True:
            job = await self.queue.pop()
            if job is None:
                return
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        await job.events.append({"event": "started", "job": job.job_id})

        async def run_one(index: int, spec: PointSpec) -> None:
            async with self._point_slots:
                text, source = await self.tiers.fetch(spec, self.pools.run)
            job.results[index] = text
            job.sources[index] = source
            await job.events.append(
                {"event": "point", "job": job.job_id, "index": index,
                 "source": source, "done": job.done, "total": job.total}
            )

        outcomes = await asyncio.gather(
            *(run_one(i, spec) for i, spec in enumerate(job.specs)),
            return_exceptions=True,
        )
        errors = [exc for exc in outcomes if isinstance(exc, BaseException)]
        if errors:
            job.state = "failed"
            job.error = f"{type(errors[0]).__name__}: {errors[0]}"
            self.jobs_failed += 1
        else:
            job.state = "done"
            self.jobs_done += 1
        await job.events.append(
            {"event": "finished", "job": job.job_id, "state": job.state,
             "error": job.error, "final": True}
        )
        # Terminal-state stamp (host clock, retention telemetry only),
        # then sweep: completing a job is the only way the finished set
        # grows, so retiring here keeps the dict bounded.
        job.finished_at = time.monotonic()  # repro: noqa[RPR002]
        self._retire_finished()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats_payload(self) -> "dict[str, Any]":
        # TTL expiry between job completions becomes visible on the
        # next stats read.
        self._retire_finished()
        return {
            # repro: noqa[RPR002] — host uptime telemetry only
            "uptime_sec": round(time.monotonic() - self._started, 3),
            "requests": dict(self.requests),
            "tiers": self.tiers.describe(),
            "pools": self.pools.describe(),
            "jobs": {
                "queued": len(self.queue),
                "tracked": len(self.jobs),
                "done": self.jobs_done,
                "failed": self.jobs_failed,
                "evicted": self.jobs_evicted,
                "retention": {
                    "ttl_sec": self.job_ttl_sec,
                    "max_finished": self.max_finished_jobs,
                },
            },
        }


class ServiceHandle:
    """A service running in a dedicated thread (tests)."""

    def __init__(self, service: SweepService, thread: threading.Thread) -> None:
        self.service = service
        self.thread = thread

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self, timeout: float = 30.0) -> None:
        loop = getattr(self.service, "_loop", None)
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service._stopping.set)
        self.thread.join(timeout=timeout)


def start_in_thread(service: SweepService, *, warm_up: bool = False) -> ServiceHandle:
    """Run *service* on a fresh event loop in a daemon thread.

    Returns once the listener is bound (so :attr:`SweepService.port`
    holds the real ephemeral port).
    """
    ready = threading.Event()
    failure: "list[BaseException]" = []

    def _main() -> None:
        async def _serve() -> None:
            service._loop = asyncio.get_running_loop()  # type: ignore[attr-defined]
            try:
                await service.start()
            except BaseException as exc:
                failure.append(exc)
                ready.set()
                raise
            ready.set()
            await service.serve(warm_up=warm_up)

        asyncio.run(_serve())

    thread = threading.Thread(target=_main, name="repro-sweep-service", daemon=True)
    thread.start()
    ready.wait()
    if failure:
        raise failure[0]
    return ServiceHandle(service, thread)
