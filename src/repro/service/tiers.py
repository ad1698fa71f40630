"""Two-tier cache with single-flight deduplication (asyncio side).

Request path for one point, in order:

1. **memory** — the process-wide
   :class:`~repro.runtime.memcache.MemCache` LRU (canonical text served
   verbatim, no JSON parse, no disk I/O);
2. **disk** — the code-version-salted
   :class:`~repro.runtime.cache.ResultCache` (hit re-canonicalized and
   promoted into memory);
3. **in-flight** — another request is already computing this exact
   key: await its future instead of simulating again (``dedup``);
4. **compute** — submit to the sharded pools, write through both cache
   tiers, resolve the in-flight future for any coalesced waiters.

Steps 1–3 happen without yielding to the event loop, so the
check-then-register window for the in-flight map is atomic under
asyncio's cooperative scheduling: N identical concurrent requests cost
exactly one simulation and N−1 awaits.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Awaitable, Callable

from ..runtime import GLOBAL_MEMCACHE, MemCache, PointSpec, ResultCache
from ..runtime.memcache import entry_key
from ..runtime.runner import cache_store
from ..runtime.serialization import canonical_json, result_payload

if TYPE_CHECKING:
    from ..core.simulation import SimulationResult

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
            entry = self.disk.get_entry(spec)
            if entry is not None:
                self.mem.put(key, *entry)
                return entry[0], "disk"
        return None

    def store(self, spec: PointSpec, spec_key: str, result: SimulationResult) -> str:
        """Write *result* through every active tier; returns its text."""
        if self.disk is not None:
            return cache_store(self.disk, spec, result, spec_key, mem=self.mem)
        text = canonical_json(result_payload(result))
        self.mem.put(self._mem_key(spec_key), text, result)
        return text

    async def fetch(
        self,
        spec: PointSpec,
        compute: Callable[[], Awaitable[SimulationResult]],
    ) -> "tuple[str, str]":
        """Serve one point: ``(canonical_text, source)``.

        *compute* is only awaited on a full miss with no identical
        request already in flight.
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
            result = await compute()
            text = self.store(spec, spec_key, result)
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
