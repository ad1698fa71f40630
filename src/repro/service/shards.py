"""Sharded persistent worker pools for the sweep service.

One long-lived :class:`~concurrent.futures.ProcessPoolExecutor` per
shard; the shard for a point is chosen by its content hash
(:meth:`PointSpec.key`), so identical points always land on the same
shard — together with the single-flight layer above, a burst of
identical requests can never fan the same simulation across pools.

Every pool worker is initialized with the parent's precomputed
code-version salt (:func:`repro.runtime.prime_code_version_salt`), so
workers never re-hash the whole package's sources, and every pool forks
from a process that already holds the kernel tier (the package loads it
on import, see ``__init__.py``), so workers inherit it rather than
importing it inside their first point.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING

from ..core.errors import ConfigurationError
from ..runtime import PointSpec, prime_code_version_salt
from ..runtime.runner import _execute

if TYPE_CHECKING:
    from ..core.simulation import SimulationResult


def _warm() -> bool:
    """No-op worker task used to pre-spawn pool processes."""
    return True


class ShardedPools:
    """A fixed ring of process pools, addressed by point content hash."""

    def __init__(self, shards: int, workers_per_shard: int, salt: str) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if workers_per_shard < 1:
            raise ConfigurationError(
                f"workers_per_shard must be >= 1, got {workers_per_shard}"
            )
        self.workers_per_shard = workers_per_shard
        self._pools = [
            ProcessPoolExecutor(
                max_workers=workers_per_shard,
                initializer=prime_code_version_salt,
                initargs=(salt,),
            )
            for __ in range(shards)
        ]
        self.submitted = [0] * shards

    @property
    def shards(self) -> int:
        return len(self._pools)

    @property
    def total_workers(self) -> int:
        return self.shards * self.workers_per_shard

    def shard_for(self, spec_key: str) -> int:
        """Stable shard index from the leading bits of the content hash."""
        return int(spec_key[:8], 16) % len(self._pools)

    def warm_up(self) -> None:
        """Spawn every worker now so first requests don't pay fork cost
        (nor the kernel tier's import: the workers inherit it)."""
        waits = []
        for pool in self._pools:
            waits.extend(pool.submit(_warm) for __ in range(self.workers_per_shard))
        for future in waits:
            future.result()

    async def run(self, spec: PointSpec, spec_key: str) -> SimulationResult:
        """Simulate *spec* on its home shard; awaitable from the loop."""
        shard = self.shard_for(spec_key)
        self.submitted[shard] += 1
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pools[shard], _execute, spec)

    def shutdown(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)

    def describe(self) -> dict:
        return {
            "shards": self.shards,
            "workers_per_shard": self.workers_per_shard,
            "submitted": list(self.submitted),
        }
