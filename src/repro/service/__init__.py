"""repro.service — async simulation-as-a-service over ``repro.runtime``.

The production-serving layer of the reproduction: a long-running
asyncio HTTP/JSON server (:class:`SweepService`) with

* a priority job queue (:mod:`repro.service.queue`) and per-job
  progress event streams (:mod:`repro.service.events`);
* sharded persistent worker processes (:mod:`repro.service.shards`) —
  shard chosen by point content hash, workers primed with the parent's
  code-version salt, each on its own pipe to the event loop; a worker
  runs the point, writes its disk entry and hands back the canonical
  text, and one that dies mid-point is respawned and the point retried;
* a two-tier cache with single-flight deduplication
  (:mod:`repro.service.tiers`): process-wide in-memory LRU in front of
  the salted disk cache, identical concurrent requests coalesced onto
  one in-flight simulation.

Served results are byte-identical to a direct
:func:`repro.runtime.run_point` of the same spec.  Start it with
``python -m repro.service``; drive it with
:class:`~repro.service.client.ServiceClient`; measure it with the
``svc_cold`` / ``svc_warm`` workloads of ``python -m bench.run``.
"""

# The service process exists to simulate, so it loads what a served
# point runs on — the kernel tier: the column driver, the topology plan
# and the C kernel (compiled here, once, on a host whose kernel cache is
# still empty) — first thing: every shard worker it forks inherits the
# loaded modules and the kernel's mapping (``warm_up`` then leaves
# nothing for a first request to import).  It cannot know whether a
# request will ever need the object model (a slotted or bursty point,
# an explicit scheduler), so the engine stack is not loaded here: the
# worker that first meets such a point imports it.  Only a host without
# a loadable kernel loads the engine up front — ahead of asyncio and
# the HTTP stack, which keeps the process's peak RSS where it was
# (DESIGN.md §5, "Import closure").
from ..runtime.runner import _load_simulator

_load_simulator()

from .app import DEFAULT_HOST, DEFAULT_PORT, ServiceHandle, SweepService, start_in_thread
from .client import ServiceClient, ServiceError
from .events import EventLog
from .queue import Job, JobQueue
from .shards import ShardedPools
from .tiers import TieredCache

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "EventLog",
    "Job",
    "JobQueue",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "ShardedPools",
    "SweepService",
    "TieredCache",
    "start_in_thread",
]
