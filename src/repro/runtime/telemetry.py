"""Progress and telemetry for sweep execution.

:class:`Progress` is the live counters of one :func:`~repro.runtime.runner.run_points`
call; a progress hook (any ``Callable[[Progress], None]``) is invoked
after every completed point.  :class:`ProgressPrinter` is the CLI's
hook: it paints a single updating status line to a stream and
accumulates totals across the many ``run_points`` calls one experiment
makes, so the CLI can report aggregate cache-hit ratios per figure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, TextIO


@dataclass
class Progress:
    """Counters for one batch of sweep points."""

    total: int
    done: int = 0
    cache_hits: int = 0
    #: Of :attr:`cache_hits`, how many were served by the in-memory
    #: tier (the rest came off disk).
    memcache_hits: int = 0
    #: Duplicate points coalesced onto another point's computation
    #: (single-flight dedup); these count toward ``done`` but neither
    #: toward ``cache_hits`` nor ``computed``.
    dedup_hits: int = 0
    started: float = field(default_factory=time.monotonic)

    @property
    def computed(self) -> int:
        """Points actually simulated (not cached, not deduplicated)."""
        return self.done - self.cache_hits - self.dedup_hits

    @property
    def misses(self) -> int:
        """Points that had to leave the cache tiers (computed + dedup)."""
        return self.done - self.cache_hits

    @property
    def elapsed(self) -> float:
        # Wall clock is fine here: progress reporting measures the host,
        # never influences simulated behaviour or cached results.
        return time.monotonic() - self.started  # repro: noqa[RPR002]

    @property
    def points_per_sec(self) -> float:
        elapsed = self.elapsed
        return self.done / elapsed if elapsed > 0 else math.inf

    @property
    def eta_seconds(self) -> float:
        """Projected seconds to finish the remaining points."""
        if self.done == 0:
            return math.inf
        return (self.total - self.done) * (self.elapsed / self.done)


#: Invoked after every completed point with the batch's live counters.
ProgressHook = Callable[[Progress], None]


class ProgressPrinter:
    """Progress hook that renders a one-line live status to *stream*."""

    def __init__(self, stream: TextIO, label: str = "", live: bool = True) -> None:
        self.stream = stream
        self.label = label
        self.live = live
        self.points = 0
        self.cache_hits = 0
        self.memcache_hits = 0
        self.dedup_hits = 0
        self._line_open = False

    def update(self, progress: Progress) -> None:
        if self.live:
            eta = progress.eta_seconds
            eta_text = f"{eta:.0f}s" if math.isfinite(eta) else "?"
            prefix = f"[{self.label}] " if self.label else ""
            self.stream.write(
                f"\r{prefix}{progress.done}/{progress.total} points · "
                f"{progress.cache_hits} cache hits · "
                f"{progress.points_per_sec:.1f} pts/s · eta {eta_text}"
            )
            self.stream.flush()
            self._line_open = True
        if progress.done == progress.total:
            self.points += progress.total
            self.cache_hits += progress.cache_hits
            self.memcache_hits += progress.memcache_hits
            self.dedup_hits += progress.dedup_hits
            self.finish_line()

    def finish_line(self) -> None:
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False

    def summary(self) -> str:
        """Aggregate over every batch seen."""
        if self.points == 0:
            return "0 points"
        percent = 100.0 * self.cache_hits / self.points
        line = f"{self.points} points, {self.cache_hits} cache hits ({percent:.0f}%)"
        if self.memcache_hits:
            disk_hits = self.cache_hits - self.memcache_hits
            line += f", {self.memcache_hits} mem / {disk_hits} disk"
        if self.dedup_hits:
            line += f", {self.dedup_hits} deduplicated"
        return line
