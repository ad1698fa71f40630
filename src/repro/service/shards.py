"""Sharded persistent workers for the sweep service.

Each shard is a fixed set of worker processes; the shard for a point is
chosen by its content hash (:meth:`PointSpec.key`), so identical points
always land on the same shard — together with the single-flight layer
above, a burst of identical requests can never fan the same simulation
across shards.

Worker protocol.  Every worker owns one duplex pipe to the service
process, which the event loop watches with ``loop.add_reader`` while a
point is out:

* request: the pickled :class:`PointSpec`, or ``None`` to exit;
* the worker runs the point, writes the disk entry through
  :meth:`ResultCache.put` (under the service's pinned salt, when the
  service has a disk tier), and replies ``(True, text)`` with
  ``text = canonical_json(result_payload(result))`` — the exact bytes
  the service answers with — or ``(False, "<Type>: <message>")`` when
  the point raised.  On a miss the service process neither unpickles
  nor encodes a :class:`SimulationResult`, nor writes the disk entry:
  it puts the text into the memory tier and writes the response.

Supervision.  A worker is reserved from the moment a point is sent to
it until its reply has been read — also when the request that sent it
was cancelled (a client disconnect, shutdown), so a late reply is read
and dropped and can never answer the next request.  EOF on a worker's
pipe (the process died, e.g. ``kill -9``) respawns that one worker and
retries the point once; a second death on the same point raises
:class:`WorkerDied` (HTTP 500) and the shard keeps serving.  ``respawned``
in :meth:`ShardedPools.describe` (``/stats`` ``pools``) counts the
replacements per shard.

Workers are forked where the platform has ``fork``, from a process that
already holds the kernel tier (the package loads it on import, see
``__init__.py``), so they inherit its modules and the C kernel's
mapping rather than importing it inside their first point; elsewhere
they start from the default context.  Every worker is primed with the
parent's code-version salt (:func:`repro.runtime.prime_code_version_salt`),
so none re-hashes the package's sources.

Measured on ``svc_cold`` (``python3 bench/run.py --workload svc_cold
--trace 1``, 2-core host): ``service.shards.dispatch_ms`` 0.39–0.41 ms
and ``service.app.cold_overhead_ms`` 0.80–1.32 ms, against 0.49–0.66 ms
and 1.87–2.26 ms with one executor process pool per shard, whose
management thread each point crossed twice and whose result the event
loop unpickled, encoded twice and wrote to disk before answering
(EXPERIMENTS.md, "The request path").
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import threading
from collections import deque
from typing import TYPE_CHECKING, Any

from ..core.errors import ConfigurationError
from ..runtime import PointSpec, ResultCache, prime_code_version_salt
from ..runtime.runner import _execute
from ..runtime.serialization import canonical_json, result_payload

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess


class WorkerDied(RuntimeError):
    """A shard worker exited while it held a point (twice, once retried)."""


class PointFailed(RuntimeError):
    """The point raised inside its worker; the message names the error."""


def _answer(spec: PointSpec, cache: ResultCache | None) -> str:
    """Run one point in a worker; write its disk entry; return its text."""
    result = _execute(spec)
    if cache is not None:
        cache.put(spec, result)
    return canonical_json(result_payload(result))


def _serve(
    conn: Connection,
    salt: str,
    cache: ResultCache | None,
    inherited: Connection | None,
) -> None:
    """Worker main loop: one point per request until ``None`` or EOF.

    *inherited* is the service's end of this pipe when ``fork`` copied
    it into the worker: closed first, so that the service's exit, even
    a ``kill -9``, is EOF here and the worker exits too.
    """
    if inherited is not None:
        inherited.close()
    # The service supervises this process.  A forked worker inherits the
    # service's signal wakeup fd, through which a signal delivered here
    # would run the *service's* handlers; Ctrl-C reaches the whole
    # process group, and the service drains its workers itself.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    prime_code_version_salt(salt)
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        if spec is None:
            return
        reply: tuple[bool, str]
        try:
            reply = (True, _answer(spec, cache))
        except Exception as exc:  # the point's own failure goes back as text
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:  # the service is gone
            return


class _Worker:
    """One worker slot: its process, the service's end of its pipe, and
    the future of the point it holds (``None`` while idle)."""

    __slots__ = ("shard", "process", "conn", "pending")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.process: BaseProcess | None = None
        self.conn: Connection | None = None
        self.pending: asyncio.Future[tuple[bool, str] | None] | None = None


class ShardedPools:
    """A fixed ring of worker shards, addressed by point content hash."""

    def __init__(
        self,
        shards: int,
        workers_per_shard: int,
        salt: str,
        *,
        cache: ResultCache | None = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers_per_shard < 1:
            raise ConfigurationError(
                f"workers_per_shard must be >= 1, got {workers_per_shard}"
            )
        self.workers_per_shard = workers_per_shard
        self.salt = salt
        self.cache = cache
        self._fork = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if self._fork else None)
        self._workers = [
            _Worker(shard) for shard in range(shards) for __ in range(workers_per_shard)
        ]
        self._idle = [
            deque(w for w in self._workers if w.shard == shard) for shard in range(shards)
        ]
        self._waiters: list[deque[asyncio.Future[_Worker]]] = [
            deque() for __ in range(shards)
        ]
        # Guards process start / reap, every write to a pipe and the
        # ``pending`` hand-off: ``warm_up`` and ``shutdown`` run on other
        # threads than the event loop that dispatches and reads replies.
        self._lock = threading.Lock()
        self._closed = False
        self.submitted = [0] * shards
        self.respawned = [0] * shards

    @property
    def shards(self) -> int:
        return len(self._idle)

    @property
    def total_workers(self) -> int:
        return len(self._workers)

    def shard_for(self, spec_key: str) -> int:
        """Stable shard index from the leading bits of the content hash."""
        return int(spec_key[:8], 16) % self.shards

    # ------------------------------------------------------------------
    # process lifecycle (callers hold the lock)
    # ------------------------------------------------------------------
    def _start(self, worker: _Worker) -> None:
        if self._closed:
            raise RuntimeError("shard workers are shut down")
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_serve,
            args=(child_end, self.salt, self.cache, parent_end if self._fork else None),
            name=f"repro-shard{worker.shard}",
            daemon=True,
        )
        process.start()
        # Closed here right away (forks under the lock cannot copy it),
        # so EOF on ``parent_end`` means "this worker is gone".
        child_end.close()
        worker.process, worker.conn = process, parent_end

    def _reap(self, worker: _Worker) -> None:
        assert worker.process is not None and worker.conn is not None
        worker.conn.close()
        worker.process.kill()
        worker.process.join()
        worker.process = worker.conn = None

    def warm_up(self) -> None:
        """Start every worker now so first requests don't pay the fork
        (nor the kernel tier's import: the workers inherit it).  Safe to
        call from a thread other than the serving loop's."""
        with self._lock:
            for worker in self._workers:
                if worker.process is None:
                    self._start(worker)

    # ------------------------------------------------------------------
    # dispatch (event-loop side)
    # ------------------------------------------------------------------
    async def run(self, spec: PointSpec, spec_key: str) -> str:
        """Run *spec* on its home shard; returns its canonical text."""
        shard = self.shard_for(spec_key)
        self.submitted[shard] += 1
        try:
            return await self._call(shard, spec)
        except WorkerDied:
            return await self._call(shard, spec)

    async def _acquire(self, shard: int) -> _Worker:
        idle = self._idle[shard]
        if idle:
            return idle.popleft()
        waiter: asyncio.Future[_Worker] = asyncio.get_running_loop().create_future()
        self._waiters[shard].append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            # Handed a worker, then cancelled before resuming: pass it on.
            if waiter.done() and not waiter.cancelled():
                self._release(waiter.result())
            raise

    def _release(self, worker: _Worker) -> None:
        waiters = self._waiters[worker.shard]
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(worker)
                return
        self._idle[worker.shard].append(worker)

    async def _call(self, shard: int, spec: PointSpec) -> str:
        worker = await self._acquire(shard)
        loop = asyncio.get_running_loop()
        reply: asyncio.Future[tuple[bool, str] | None] = loop.create_future()
        try:
            with self._lock:
                if self._closed or worker.process is None:
                    self._start(worker)  # raises once shut down
                assert worker.conn is not None
                try:
                    worker.conn.send(spec)
                except OSError:  # died while idle: its pipe is broken
                    self._replace(worker)
                    raise WorkerDied(f"shard {shard} worker died idle") from None
                worker.pending = reply
                fd = worker.conn.fileno()
        except BaseException:
            self._release(worker)
            raise
        # From here the worker stays reserved until _on_reply has read
        # its answer, whether or not this request is still waiting.
        loop.add_reader(fd, self._on_reply, worker, loop, fd)
        outcome = await reply
        if outcome is None:
            raise WorkerDied(f"shard {shard} worker died running a point")
        ok, text = outcome
        if not ok:
            raise PointFailed(text)
        return text

    def _replace(self, worker: _Worker) -> None:
        """Reap a dead worker and start its successor (lock held)."""
        self._reap(worker)
        self.respawned[worker.shard] += 1
        self._start(worker)

    def _on_reply(
        self, worker: _Worker, loop: asyncio.AbstractEventLoop, fd: int
    ) -> None:
        loop.remove_reader(fd)
        outcome: tuple[bool, str] | None
        with self._lock:
            assert worker.conn is not None
            try:
                outcome = worker.conn.recv()
            except (EOFError, OSError):
                outcome = None
                if not self._closed:  # after shutdown, join() reaps it
                    self._replace(worker)
            reply, worker.pending = worker.pending, None
            if self._closed and worker.conn is not None:
                worker.conn.close()
                worker.conn = None
        self._release(worker)
        if reply is not None and not reply.done():  # done: cancelled, dropped
            reply.set_result(outcome)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Let running points finish, then stop every worker.  Blocking;
        safe to call from a thread other than the serving loop's."""
        with self._lock:
            self._closed = True
            started = [w for w in self._workers if w.process is not None]
            for worker in started:
                assert worker.conn is not None
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already gone; join() reaps it
        for worker in started:
            assert worker.process is not None
            worker.process.join()
        with self._lock:
            for worker in started:
                # A worker whose reply is still unread closes its pipe in
                # _on_reply once the loop has read it.
                if worker.pending is None and worker.conn is not None:
                    worker.conn.close()
                    worker.conn = None
                worker.process = None

    def describe(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "workers_per_shard": self.workers_per_shard,
            "submitted": list(self.submitted),
            "respawned": list(self.respawned),
        }
