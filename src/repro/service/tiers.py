"""Two-tier cache with single-flight deduplication (asyncio side).

Request path for one point, in order:

1. **memory** — the process-wide
   :class:`~repro.runtime.memcache.MemCache` LRU (canonical text served
   verbatim, no JSON parse, no disk I/O);
2. **disk** — the code-version-salted
   :class:`~repro.runtime.cache.ResultCache` (the entry is canonical
   text, served as read and promoted into memory);
3. **in-flight** — another request is already computing this exact
   key: await its future instead of simulating again (``dedup``);
4. **compute** — run the point on its shard; the worker writes the
   disk entry and hands back the canonical text, which goes into the
   memory tier and resolves the in-flight future for any coalesced
   waiters.  A miss builds no :class:`~repro.core.simulation.SimulationResult`
   in the service process and writes nothing to disk from it: it costs
   the service one ``MemCache.put``.

Steps 1–3 happen without yielding to the event loop, so the
check-then-register window for the in-flight map is atomic under
asyncio's cooperative scheduling: N identical concurrent requests cost
exactly one simulation and N−1 awaits.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from ..runtime import GLOBAL_MEMCACHE, MemCache, PointSpec, ResultCache
from ..runtime.memcache import entry_key

#: How a response was produced, in increasing order of cost.
SOURCES = ("mem", "disk", "dedup", "computed")


class TieredCache:
    """Memory + disk caching and single-flight dedup for the service."""

    def __init__(
        self, disk: ResultCache | None, mem: MemCache | None = None
    ) -> None:
        self.disk = disk
        self.mem = mem if mem is not None else GLOBAL_MEMCACHE
        self._inflight: dict[str, asyncio.Future[str]] = {}
        self.counters = {source: 0 for source in SOURCES}

    def _mem_key(self, spec_key: str) -> str:
        root = str(self.disk.root) if self.disk is not None else "<no-disk>"
        salt = self.disk.salt if self.disk is not None else "<no-disk>"
        return entry_key(root, salt, spec_key)

    def lookup(self, spec: PointSpec, spec_key: str) -> "tuple[str, str] | None":
        """Synchronous tier probe: ``(canonical_text, source)`` or None.

        :func:`~repro.runtime.runner.cache_lookup` for a caller that
        only wants the text: a memory hit parses nothing.
        """
        key = self._mem_key(spec_key)
        if self.mem.enabled:
            text = self.mem.get_text(key)
            if text is not None:
                return text, "mem"
        if self.disk is not None:
            entry = self.disk.get_entry(spec, spec_key)
            if entry is not None:
                self.mem.put(key, *entry)
                return entry[0], "disk"
        return None

    async def fetch(
        self,
        spec: PointSpec,
        compute: Callable[[PointSpec, str], Awaitable[str]],
    ) -> "tuple[str, str]":
        """Serve one point: ``(canonical_text, source)``.

        ``compute(spec, spec_key)`` is only awaited on a full miss with
        no identical request already in flight; it returns the point's
        canonical text and has written the disk entry itself (a shard
        worker does, see :mod:`repro.service.shards`).
        """
        spec_key = spec.key()
        hit = self.lookup(spec, spec_key)
        if hit is not None:
            self.counters[hit[1]] += 1
            return hit
        pending = self._inflight.get(spec_key)
        if pending is not None:
            self.counters["dedup"] += 1
            # shield(): one cancelled waiter must not tear down the
            # shared computation other waiters (and the cache) rely on.
            text = await asyncio.shield(pending)
            return text, "dedup"
        future: asyncio.Future[str] = asyncio.get_running_loop().create_future()
        self._inflight[spec_key] = future
        try:
            text = await compute(spec, spec_key)
            self.mem.put(self._mem_key(spec_key), text)
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # A failure with no coalesced waiters would otherwise log
                # "exception was never retrieved" at GC time.
                future.exception()
            raise
        else:
            if not future.cancelled():
                future.set_result(text)
            self.counters["computed"] += 1
            return text, "computed"
        finally:
            self._inflight.pop(spec_key, None)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def describe(self) -> dict:
        info = {
            "sources": dict(self.counters),
            "inflight": self.inflight,
            "memory": vars(self.mem.stats()),
        }
        if self.disk is not None:
            info["disk_root"] = str(self.disk.root)
            info["salt"] = self.disk.salt
        return info
