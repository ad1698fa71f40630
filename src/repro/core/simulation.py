"""High-level simulation front end.

``simulate(system_config, workload, params)`` runs the paper's
batch-means schedule (first batch discarded as warm-up) on the engine
``params.scheduler`` names and returns a :class:`SimulationResult` with
round-trip latency, per-level network utilization and throughput
summaries.  ``simulate_batch``, the kernel tier's ``simulate_columnar``
and :func:`repro.core.adaptive.simulate_to_precision` run the same
schedule: one loop (:func:`_run_batches`) over per-replica
:class:`BatchMeters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from .config import (
    DEFAULT_SIM,
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from .errors import ConfigurationError, DeadlockError
from .statistics import MetricsHub, RateMeter, Summary

# This module defines the result type every cached-replay path
# deserializes into, so importing it must not import the simulator:
# ``simulate``/``simulate_batch``/``build_network`` import the engine
# stack on their first call (DESIGN.md §5, "Import closure";
# tests/runtime/test_import_closure.py holds the line).
if TYPE_CHECKING:
    from ..mesh.network import MeshNetwork
    from ..ring.network import HierarchicalRingNetwork
    from .columnar import ColumnarEngine
    from .engine import Engine
    from .processor import MissSource

SystemConfig = RingSystemConfig | MeshSystemConfig

#: A run counts as saturated when the latency CI half-width exceeds
#: this fraction of the mean: past saturation, latencies grow without
#: bound over the run, so the batch means never tighten.  0.5 is loose
#: enough that short CI-style runs (few retained batches) of a stable
#: system stay below it.
SATURATION_RELATIVE_HALF_WIDTH = 0.5


@dataclass
class SimulationResult:
    """Measured outputs of one simulation run."""

    system: SystemConfig
    workload: WorkloadConfig
    params: SimulationParams
    cycles: int
    latency: Summary
    local_latency: Summary
    utilization: dict[str, Summary] = field(default_factory=dict)
    throughput: Summary | None = None
    remote_transactions: int = 0
    local_transactions: int = 0
    flits_moved: int = 0
    #: Steady-state (post-warm-up) remote latency extremes, display only:
    #: deliberately excluded from the cached-result payload so adding it
    #: did not invalidate every on-disk cache entry.
    latency_range: tuple[float, float] | None = None

    @property
    def avg_latency(self) -> float:
        """Mean remote round-trip latency in network cycles."""
        return self.latency.mean

    def utilization_percent(self, level: str) -> float:
        """Mean utilization of a link class, in percent of maximum."""
        if level not in self.utilization:
            return math.nan
        return 100.0 * self.utilization[level].mean

    @property
    def network_utilization_percent(self) -> float:
        """Utilization over all network links (the paper's mesh metric)."""
        return self.utilization_percent("__all__")

    @property
    def saturated(self) -> bool:
        """Heuristic: latency CI too wide or no transactions completed.

        "Too wide" means ``latency.relative_half_width`` above
        :data:`SATURATION_RELATIVE_HALF_WIDTH`; a single retained batch
        (infinite half-width) therefore also reads as saturated, since
        the run gives no evidence of stability.
        """
        return (
            self.remote_transactions == 0
            or math.isnan(self.latency.mean)
            or self.latency.relative_half_width > SATURATION_RELATIVE_HALF_WIDTH
        )

    def describe(self) -> str:
        lines = [
            f"system        : {self.system}",
            f"workload      : R={self.workload.locality} C={self.workload.miss_rate} "
            f"T={self.workload.outstanding}",
            f"cycles        : {self.cycles}",
            f"remote latency: {self.latency.mean:.1f} +/- {self.latency.half_width:.1f} cycles "
            f"({self.remote_transactions} transactions)",
        ]
        if self.latency_range is not None and self.latency_range[0] <= self.latency_range[1]:
            lines.append(
                f"latency range : {self.latency_range[0]:.0f}..{self.latency_range[1]:.0f} "
                "cycles (steady state)"
            )
        for level in sorted(self.utilization):
            if level == "__all__":
                continue
            lines.append(
                f"util[{level:<12}]: {self.utilization_percent(level):.1f}%"
            )
        if self.throughput is not None:
            lines.append(f"throughput    : {self.throughput.mean:.4f} transactions/cycle")
        return "\n".join(lines)


def build_network(
    system: SystemConfig,
    workload: WorkloadConfig,
    metrics: MetricsHub,
    seed: int,
    miss_sources: Sequence[MissSource] | None = None,
) -> "HierarchicalRingNetwork | MeshNetwork":
    """Instantiate the network matching the config type."""
    # Imported here to keep core free of circular imports.
    from ..mesh.network import MeshNetwork
    from ..ring.network import HierarchicalRingNetwork

    if isinstance(system, RingSystemConfig):
        return HierarchicalRingNetwork(
            system, workload, metrics, seed=seed, miss_sources=miss_sources
        )
    if isinstance(system, MeshSystemConfig):
        return MeshNetwork(
            system, workload, metrics, seed=seed, miss_sources=miss_sources
        )
    raise ConfigurationError(f"unknown system config type: {type(system).__name__}")


class BatchMeters:
    """One replica's batch-means meters, and the result they assemble.

    ``metrics`` is the latency and transaction hub the object model's
    PMs record into (the kernel's tallies are folded in per batch); the
    :class:`RateMeter` s per level, ``__all__`` and ``throughput`` turn
    cumulative counters into batch rates.  ``opportunities`` maps each level, in
    the order :meth:`close_batch` gets its counts, to its opportunities per cycle.
    """

    def __init__(
        self, opportunities: dict[str, float], metrics: MetricsHub | None = None
    ) -> None:
        self.metrics = MetricsHub() if metrics is None else metrics
        self.opportunities = opportunities
        self.levels = {level: RateMeter(level) for level in opportunities}
        self.all = RateMeter("__all__")
        self.throughput = RateMeter("throughput")
        self.cycles = 0
        self.flits_moved = 0

    def close_batch(self, carried: Sequence[int], cycle: int, flits_moved: int) -> None:
        """Close one batch from the flits carried so far per level (in
        ``opportunities`` order), the clock and the flits moved so far."""
        metrics = self.metrics
        metrics.close_batch()
        for (level, rate), flits in zip(self.opportunities.items(), carried):
            self.levels[level].close_batch(flits, rate * cycle)
        self.all.close_batch(sum(carried), sum(self.opportunities.values()) * cycle)
        self.throughput.close_batch(metrics.remote_completed + metrics.local_completed, cycle)
        self.cycles = cycle
        self.flits_moved = flits_moved

    def result(
        self, system: SystemConfig, workload: WorkloadConfig, params: SimulationParams
    ) -> SimulationResult:
        metrics = self.metrics
        utilization = {level: meter.summary() for level, meter in self.levels.items()}
        utilization["__all__"] = self.all.summary()
        return SimulationResult(
            system=system,
            workload=workload,
            params=params,
            cycles=self.cycles,
            latency=metrics.remote_latency.batch.summary(),
            local_latency=metrics.local_latency.batch.summary(),
            utilization=utilization,
            throughput=self.throughput.summary(),
            remote_transactions=metrics.remote_completed,
            local_transactions=metrics.local_completed,
            flits_moved=self.flits_moved,
            latency_range=(metrics.remote_latency.minimum, metrics.remote_latency.maximum),
        )


def replica_seeds(params: SimulationParams, seeds: Sequence[int] | None) -> tuple[int, ...]:
    """*seeds*, by default ``params.seed, ..., params.seed + replicas - 1``."""
    default = range(params.seed, params.seed + params.replicas)
    seeds = tuple(default if seeds is None else seeds)
    if not seeds:
        raise ConfigurationError("a run needs at least one seed")
    return seeds


#: ``stop(batches_run, meters)`` ends a run early after a batch.
StopRule = Callable[[int, "list[BatchMeters]"], bool]


def _run_batches(
    system: SystemConfig,
    workload: WorkloadConfig | None,
    params: SimulationParams | None,
    seeds: Sequence[int] | None,
    miss_sources: Sequence[MissSource] | None = None,
    stop: StopRule | None = None,
    cycle_hook: Callable[[ColumnarEngine], None] | None = None,
    hook_interval: int = 0,
) -> list[SimulationResult]:
    """The batch-means schedule behind every entry point; one result per seed.

    Runs ``params.batches`` batches of ``params.batch_cycles`` cycles —
    fewer if *stop* says so after one — and closes every replica's
    :class:`BatchMeters` after each; the first batch is the discarded
    warm-up.  Each result's ``params`` carries its replica's seed,
    ``replicas=1`` and the batches that ran.  What steps the replicas:
    under ``"columnar"`` the C kernel (the only route that calls
    *cycle_hook*), or seed by seed ``compiled`` where
    :func:`repro.core.columnar.kernel_can_run` says no; under
    ``"batched"``, or for several seeds, a lockstep
    :class:`~repro.core.batched.BatchedEngine`; under any other
    scheduler a solo :class:`~repro.core.engine.Engine`.
    """
    workload = (workload or WorkloadConfig()).validate()
    params = (params or DEFAULT_SIM).validate()
    seeds = replica_seeds(params, seeds)
    if miss_sources is not None:
        if len(seeds) != 1:
            raise ConfigurationError("miss_sources requires a batch of exactly one replica")
        if len(miss_sources) != system.processors:
            raise ConfigurationError(
                f"need one miss source per processor "
                f"({system.processors}), got {len(miss_sources)}"
            )
    engine: Engine | ColumnarEngine
    close: Callable[[list[BatchMeters]], None]
    if params.scheduler != "columnar":
        engine, meters, close = _object_replicas(system, workload, params, seeds, miss_sources)
    else:
        from .columnar import ColumnarEngine, kernel_can_run

        if not kernel_can_run(system, workload, miss_sources):
            return _on_compiled(system, workload, params, seeds, miss_sources, stop)
        engine = columns = ColumnarEngine(system, workload, params, seeds)
        columns.cycle_hook = cycle_hook
        columns.hook_interval = hook_interval
        meters = [BatchMeters(columns.opportunities_per_cycle) for _ in seeds]
        close = columns.close_batch

    batches = 0
    while batches < params.batches:
        engine.run(params.batch_cycles)
        close(meters)
        batches += 1
        if stop is not None and stop(batches, meters):
            break
    return [
        replica.result(
            system, workload, replace(params, seed=seed, replicas=1, batches=batches)
        )
        for seed, replica in zip(seeds, meters)
    ]


def _object_replicas(
    system: SystemConfig,
    workload: WorkloadConfig,
    params: SimulationParams,
    seeds: Sequence[int],
    miss_sources: Sequence[MissSource] | None,
) -> tuple[Engine, list[BatchMeters], Callable[[list[BatchMeters]], None]]:
    """One object network per seed, registered on one engine: a solo
    :class:`Engine` under ``params.scheduler``, or the replica-axis
    :class:`BatchedEngine` (see its module docstring for the layout)."""
    batched = params.scheduler == "batched" or len(seeds) > 1
    engine: Engine
    if batched:
        try:
            from .batched import BatchedEngine
        except ImportError as exc:  # numpy missing
            raise ConfigurationError(
                "the batched scheduler requires numpy; install it or use "
                "scheduler='compiled'"
            ) from exc
        engine = lockstep = BatchedEngine(
            deadlock_threshold=params.deadlock_threshold,
            flow_control=params.flow_control,
        )
    else:
        from .engine import Engine

        engine = Engine(
            deadlock_threshold=params.deadlock_threshold,
            flow_control=params.flow_control,
            scheduler=params.scheduler,
        )
    networks: list[HierarchicalRingNetwork | MeshNetwork] = []
    meters: list[BatchMeters] = []
    for seed in seeds:
        metrics = MetricsHub()
        network = build_network(
            system, workload, metrics, seed=seed, miss_sources=miss_sources
        )
        network.register(engine)
        if batched:
            lockstep.seal_replica()
        networks.append(network)
        opportunities = {
            level: network.opportunities(1, level) for level in network.levels_present
        }
        meters.append(BatchMeters(opportunities, metrics))

    def close(meters: list[BatchMeters]) -> None:
        for r, (network, replica) in enumerate(zip(networks, meters)):
            replica.close_batch(
                [network.flits_carried(level) for level in replica.opportunities],
                engine.cycle,
                int(lockstep.replica_flits[r]) if batched else engine.flits_moved,
            )

    return engine, meters, close


def _on_compiled(
    system: SystemConfig,
    workload: WorkloadConfig,
    params: SimulationParams,
    seeds: Sequence[int],
    miss_sources: Sequence[MissSource] | None,
    stop: StopRule | None,
) -> list[SimulationResult]:
    """The kernel tier without its kernel: each seed alone under ``compiled``.

    Same bytes, one seed at a time; each result keeps the caller's
    scheduler.  A lockstep batch stops at the replica that wedges first
    in simulated time, so a deadlock is only reported once every seed
    has run, for the earliest one — as ``compiled`` words it when the
    batch is one seed.
    """
    results: list[SimulationResult] = []
    wedged: tuple[DeadlockError, int] | None = None
    for replica, seed in enumerate(seeds):
        solo = replace(params, scheduler="compiled", seed=seed)
        try:
            (result,) = _run_batches(system, workload, solo, (seed,), miss_sources, stop)
        except DeadlockError as exc:
            if len(seeds) == 1:
                raise
            if wedged is None or exc.cycle < wedged[0].cycle:
                wedged = (exc, replica)
            continue
        results.append(
            replace(result, params=replace(result.params, scheduler=params.scheduler))
        )
    if wedged is not None:
        exc, replica = wedged
        raise DeadlockError(
            exc.cycle,
            exc.stalled_cycles,
            detail=f"columnar replica {replica} (seed {seeds[replica]})",
        )
    return results


def simulate(
    system: SystemConfig,
    workload: WorkloadConfig | None = None,
    params: SimulationParams | None = None,
    miss_sources: Sequence[MissSource] | None = None,
) -> SimulationResult:
    """Run one batch-means simulation and collect all paper metrics.

    With the default ``params.scheduler`` (``"columnar"``) the run is a
    batch of one on the C kernel (:mod:`repro.core.columnar`), or —
    where the kernel cannot run it, see
    :func:`repro.core.columnar.kernel_can_run` — on the ``"compiled"``
    object engine; the result is the same to the byte either way, and
    the same as naming any other scheduler.

    ``miss_sources`` optionally replaces each PM's M-MRP generator with
    a caller-provided :class:`~repro.core.processor.MissSource` (one per
    processor) — used by the trace-replay workflow in
    :mod:`repro.workload.trace`.
    """
    seed = (params or DEFAULT_SIM).seed
    return _run_batches(system, workload, params, (seed,), miss_sources)[0]


def simulate_batch(
    system: SystemConfig,
    workload: WorkloadConfig | None = None,
    params: SimulationParams | None = None,
    seeds: Sequence[int] | None = None,
    miss_sources: Sequence[MissSource] | None = None,
) -> list[SimulationResult]:
    """Run N seeds of one point in lockstep; one result per seed.

    Under the default ``"columnar"`` scheduler the batch runs on the C
    kernel (:func:`repro.core.columnar.simulate_columnar`).  Under
    ``"batched"``, or any other scheduler given several seeds, the
    replicas share a single :class:`~repro.core.batched.BatchedEngine`,
    so per-cycle scheduling overhead is paid once per batch cycle
    instead of once per replica cycle.  Each replica owns its network,
    meters and RNG streams, and its :class:`SimulationResult` is
    byte-identical to running that seed alone under the ``compiled``
    scheduler — each result's ``params`` carries the replica's own seed
    (with ``replicas=1``), so results drop into the content-addressed
    cache as N independent entries.

    ``seeds`` defaults to ``params.seed, ..., params.seed + replicas - 1``.
    ``miss_sources`` is only meaningful for a batch of one (each
    network would otherwise share the caller's source objects).
    """
    return _run_batches(system, workload, params, seeds, miss_sources)
