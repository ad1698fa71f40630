"""Sharded persistent workers for the sweep service.

Each shard is a fixed set of worker processes; the shard for a point is
chosen by its content hash (:meth:`PointSpec.key`), so identical points
always land on the same shard — together with the single-flight layer
above, a burst of identical requests can never fan the same simulation
across shards.

The workers are the runtime's one pool (:mod:`repro.runtime.workers`:
protocol, retry-once death policy, descriptor hygiene); this is its
asyncio driver, which watches a busy worker's pipe with
``loop.add_reader``.  A worker is reserved from the moment a point is
sent to it until its reply has been read — also when the request that
sent it was cancelled (a client disconnect, shutdown), so a late reply
is read and dropped and can never answer the next request.
``respawned`` in :meth:`ShardedPools.describe` (``/stats`` ``pools``)
counts the replacements of dead workers per shard.  Measured against
one executor pool per shard: EXPERIMENTS.md, "The request path".
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any

from ..core.errors import ConfigurationError
from ..runtime import PointSpec, ResultCache
from ..runtime.workers import Worker, WorkerDied, unwrap


class _ShardWorker(Worker):
    """A worker of one shard, and the future of the point it holds
    (``None`` while idle)."""

    __slots__ = ("shard", "pending")

    def __init__(self, shard: int) -> None:
        super().__init__()
        self.shard = shard
        self.pending: asyncio.Future[tuple[Any, ...] | None] | None = None


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
        self._workers = [
            _ShardWorker(shard)
            for shard in range(shards)
            for __ in range(workers_per_shard)
        ]
        self._idle = [
            deque(w for w in self._workers if w.shard == shard) for shard in range(shards)
        ]
        self._waiters: list[deque[asyncio.Future[_ShardWorker]]] = [
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

    # ------------------------------------------------------------------
    # process lifecycle (callers hold the lock)
    # ------------------------------------------------------------------
    def _start(self, worker: _ShardWorker) -> None:
        if self._closed:
            raise RuntimeError("shard workers are shut down")
        worker.start(self.salt, self.cache)

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
        shard = int(spec_key[:8], 16) % self.shards  # the content hash's leading bits
        self.submitted[shard] += 1
        try:
            return await self._call(shard, spec)
        except WorkerDied:
            return await self._call(shard, spec)

    async def _acquire(self, shard: int) -> _ShardWorker:
        idle = self._idle[shard]
        if idle:
            return idle.popleft()
        waiter: asyncio.Future[_ShardWorker] = asyncio.get_running_loop().create_future()
        self._waiters[shard].append(waiter)
        try:
            return await waiter
        except asyncio.CancelledError:
            # Handed a worker, then cancelled before resuming: pass it on.
            if waiter.done() and not waiter.cancelled():
                self._release(waiter.result())
            raise

    def _release(self, worker: _ShardWorker) -> None:
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
        reply: asyncio.Future[tuple[Any, ...] | None] = loop.create_future()
        try:
            with self._lock:
                if self._closed or worker.process is None:
                    self._start(worker)  # raises once shut down
                worker.send(spec)  # died idle: _on_reply reads its EOF
                worker.pending = reply
                assert worker.conn is not None
                fd = worker.conn.fileno()
        except BaseException:
            self._release(worker)
            raise
        # From here the worker stays reserved until _on_reply has read
        # its answer, whether or not this request is still waiting.
        loop.add_reader(fd, self._on_reply, worker, loop, fd)
        return unwrap(await reply)

    def _replace(self, worker: _ShardWorker) -> None:
        """Reap a dead worker and start its successor (lock held)."""
        worker.stop()
        self.respawned[worker.shard] += 1
        self._start(worker)

    def _on_reply(
        self, worker: _ShardWorker, loop: asyncio.AbstractEventLoop, fd: int
    ) -> None:
        loop.remove_reader(fd)
        with self._lock:
            outcome = worker.receive()
            if outcome is None and not self._closed:  # after shutdown, join() reaps it
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
                worker.send(None)  # already gone: join() reaps it
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
