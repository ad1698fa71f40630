"""Process-wide in-memory LRU result cache (the fast tier).

Sits in front of the code-version-salted disk
:class:`~repro.runtime.cache.ResultCache`: the plain CLI runner and the
sweep service both consult it before touching disk, and populate it on
every disk hit or computed point.  Entries are keyed by
``(disk-cache root, code salt, spec key)`` so two different disk caches
never serve each other's results from memory, and a source edit (new
salt) implicitly invalidates the memory tier exactly like the disk one.

Each entry stores the *canonical result text* — the byte-exact
:func:`~repro.runtime.serialization.canonical_json` of the result
payload — and nothing else.  Serving the stored text keeps service
responses byte-identical to a direct ``run_point``; a caller that wants
the :class:`SimulationResult` (the runner) gets it parsed from that
text on the hit (~20 us, a tenth of a disk hit).  Keeping the
deserialized object beside the text would cost 4-5 KB an entry that the
byte bound cannot see and the service never reads.

The cache is bounded twice: by entry count and by total stored text
bytes (UTF-8 length).  Either bound evicts least-recently-used entries;
an entry bigger than the whole byte budget is simply not stored.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .serialization import result_from_payload

if TYPE_CHECKING:
    from ..core.simulation import SimulationResult

#: Defaults, overridable via ``REPRO_MEMCACHE_ENTRIES`` /
#: ``REPRO_MEMCACHE_BYTES`` (0 disables the memory tier).
#:
#: An entry is ~1.5 KB resident (1.1 KB of text, the key, the LRU node),
#: and a service on the C kernel computes ~170 never-seen points a
#: second, so the entry bound is reached within seconds and is what the
#: process weighs: 256 is +0.4 MB.  It covers every single figure of the
#: paper at every scale (the largest, fig17 at ``--scale full``, asks
#: for 240 points; a whole ``default`` campaign is 689 distinct points,
#: ``full`` 969).  A working set past the bound is served by the disk
#: tier at about twice the latency (served p50 0.5-0.6 ms against
#: 0.2-0.3 ms from memory); ``--mem-entries`` / the env var raise it for
#: a service that wants a campaign resident.
DEFAULT_MAX_ENTRIES = 256
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass(slots=True)
class _Entry:
    text: str
    size: int


@dataclass
class MemCacheStats:
    """Live counters of one :class:`MemCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes: int = 0

    def describe(self) -> str:
        return (
            f"{self.entries} entries, {self.bytes} bytes, "
            f"{self.hits} hits / {self.misses} misses, "
            f"{self.evictions} evictions"
        )


class MemCache:
    """Thread-safe LRU of canonical result texts, bounded twice.

    Thread safety matters because the asyncio service touches the cache
    from the event loop while executor callbacks may complete on other
    threads, and the CLI runner shares one process-wide instance across
    nested sweeps.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if max_entries < 0 or max_bytes < 0:
            raise ValueError("memcache bounds must be >= 0")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0 and self.max_bytes > 0

    def get_text(self, key: str) -> "str | None":
        """Hit as the canonical text, bumping recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.text

    def get(self, key: str) -> "tuple[str, SimulationResult] | None":
        """Hit as ``(canonical_text, result)``, the result parsed from the text."""
        text = self.get_text(key)
        if text is None:
            return None
        return text, result_from_payload(json.loads(text))

    def put(self, key: str, text: str, result: "SimulationResult | None" = None) -> None:
        """Store *text*; *result* (what it serializes) is not retained."""
        if not self.enabled:
            return
        size = len(text.encode("utf-8"))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.size
            if size > self.max_bytes:
                return  # would evict everything and still not fit
            self._entries[key] = _Entry(text=text, size=size)
            self._bytes += size
            while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
                __, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.size
                self._evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return dropped

    def stats(self) -> MemCacheStats:
        with self._lock:
            return MemCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes=self._bytes,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def entry_key(cache_root: str, salt: str, spec_key: str) -> str:
    """Memory-tier key: disk root + code salt + point content hash."""
    return f"{cache_root}\0{salt}\0{spec_key}"


def _env_bound(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(value, 0)


#: The process-wide instance shared by the CLI runner and the service.
GLOBAL_MEMCACHE = MemCache(
    max_entries=_env_bound("REPRO_MEMCACHE_ENTRIES", DEFAULT_MAX_ENTRIES),
    max_bytes=_env_bound("REPRO_MEMCACHE_BYTES", DEFAULT_MAX_BYTES),
)
