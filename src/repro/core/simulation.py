"""High-level simulation front end.

``simulate(system_config, workload, params)`` builds the network
(dispatching on the config type), runs the paper's batch-means schedule
(first batch discarded as warm-up), and returns a
:class:`SimulationResult` with round-trip latency, per-level network
utilization and throughput summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Sequence

from .config import (
    DEFAULT_SIM,
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from .errors import ConfigurationError
from .statistics import RateMeter, Summary

# This module defines the result type every cached-replay path
# deserializes into, so importing it must not import the simulator:
# ``simulate``/``simulate_batch``/``build_network`` import the engine
# stack on their first call (DESIGN.md §5, "Import closure";
# tests/runtime/test_import_closure.py holds the line).
if TYPE_CHECKING:
    from ..mesh.network import MeshNetwork
    from ..ring.network import HierarchicalRingNetwork
    from .pm import MetricsHub
    from .processor import MissSource

SystemConfig = RingSystemConfig | MeshSystemConfig

#: A run counts as saturated when the latency CI half-width exceeds
#: this fraction of the mean: past saturation, latencies grow without
#: bound over the run, so the batch means never tighten.  0.5 is loose
#: enough that short CI-style runs (few retained batches) of a stable
#: system stay below it.
SATURATION_RELATIVE_HALF_WIDTH = 0.5


def _processors_of(system: SystemConfig) -> int:
    return system.processors


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
    workload = (workload or WorkloadConfig()).validate()
    params = (params or DEFAULT_SIM).validate()
    if miss_sources is not None and len(miss_sources) != _processors_of(system):
        raise ConfigurationError(
            f"need one miss source per processor "
            f"({_processors_of(system)}), got {len(miss_sources)}"
        )
    if params.scheduler == "batched":
        # A solo "batched" run is a lockstep batch of one: same datapath,
        # same per-replica result (byte-identical to "compiled" — the
        # equivalence matrix enforces it).
        return simulate_batch(
            system, workload, params, seeds=(params.seed,), miss_sources=miss_sources
        )[0]
    if params.scheduler == "columnar":
        # A solo run is a column batch of one (same bytes as "compiled",
        # which is also what runs whatever the kernel cannot).
        from .columnar import simulate_columnar

        return simulate_columnar(
            system, workload, params, seeds=(params.seed,), miss_sources=miss_sources
        )[0]

    from .engine import Engine
    from .pm import MetricsHub

    metrics = MetricsHub()
    network = build_network(
        system, workload, metrics, seed=params.seed, miss_sources=miss_sources
    )
    engine = Engine(
        deadlock_threshold=params.deadlock_threshold,
        flow_control=params.flow_control,
        scheduler=params.scheduler,
    )
    network.register(engine)

    levels = list(network.levels_present)
    util_meters = {level: RateMeter(level) for level in levels}
    all_meter = RateMeter("__all__")
    throughput_meter = RateMeter("throughput")

    for __ in range(params.batches):
        engine.run(params.batch_cycles)
        metrics.close_batch()
        for level, meter in util_meters.items():
            meter.close_batch(
                network.flits_carried(level), network.opportunities(engine.cycle, level)
            )
        all_meter.close_batch(
            network.flits_carried(None), network.opportunities(engine.cycle, None)
        )
        completed = metrics.remote_completed + metrics.local_completed
        throughput_meter.close_batch(completed, engine.cycle)

    utilization = {level: meter.summary() for level, meter in util_meters.items()}
    utilization["__all__"] = all_meter.summary()

    return SimulationResult(
        system=system,
        workload=workload,
        params=params,
        cycles=engine.cycle,
        latency=metrics.remote_latency.batch.summary(),
        local_latency=metrics.local_latency.batch.summary(),
        utilization=utilization,
        throughput=throughput_meter.summary(),
        remote_transactions=metrics.remote_completed,
        local_transactions=metrics.local_completed,
        flits_moved=engine.flits_moved,
        latency_range=(
            metrics.remote_latency.minimum,
            metrics.remote_latency.maximum,
        ),
    )


def simulate_batch(
    system: SystemConfig,
    workload: WorkloadConfig | None = None,
    params: SimulationParams | None = None,
    seeds: Sequence[int] | None = None,
    miss_sources: Sequence[MissSource] | None = None,
) -> list[SimulationResult]:
    """Run N seeds of one point in lockstep; one result per seed.

    Under the default ``"columnar"`` scheduler the batch runs on the C
    kernel (:func:`repro.core.columnar.simulate_columnar`).  Under any
    other, the replicas share a single
    :class:`~repro.core.batched.BatchedEngine` (see its module docstring
    for the replica-axis layout), so per-cycle scheduling overhead is
    paid once per batch cycle instead of once per replica cycle.  Each
    replica owns its network, metrics and RNG streams, and its
    :class:`SimulationResult` is byte-identical to running that seed
    alone under the ``compiled`` scheduler — each result's ``params``
    carries the replica's own seed (with ``replicas=1``), so results
    drop into the content-addressed cache as N independent entries.

    ``seeds`` defaults to ``params.seed, ..., params.seed + replicas - 1``.
    ``miss_sources`` is only meaningful for a batch of one (each
    network would otherwise share the caller's source objects).
    """
    workload = (workload or WorkloadConfig()).validate()
    params = (params or DEFAULT_SIM).validate()
    if params.scheduler == "columnar":
        from .columnar import simulate_columnar

        return simulate_columnar(
            system, workload, params, seeds=seeds, miss_sources=miss_sources
        )
    if seeds is None:
        seeds = tuple(range(params.seed, params.seed + params.replicas))
    else:
        seeds = tuple(seeds)
    if not seeds:
        raise ConfigurationError("simulate_batch needs at least one seed")
    if miss_sources is not None:
        if len(seeds) != 1:
            raise ConfigurationError(
                "miss_sources requires a batch of exactly one replica"
            )
        if len(miss_sources) != _processors_of(system):
            raise ConfigurationError(
                f"need one miss source per processor "
                f"({_processors_of(system)}), got {len(miss_sources)}"
            )
    try:
        from .batched import BatchedEngine
    except ImportError as exc:  # numpy missing
        raise ConfigurationError(
            "the batched scheduler requires numpy; install it or use "
            "scheduler='compiled'"
        ) from exc
    from .pm import MetricsHub

    engine = BatchedEngine(
        deadlock_threshold=params.deadlock_threshold,
        flow_control=params.flow_control,
    )
    hubs: list[MetricsHub] = []
    networks: list[HierarchicalRingNetwork | MeshNetwork] = []
    for seed in seeds:
        metrics = MetricsHub()
        network = build_network(
            system, workload, metrics, seed=seed, miss_sources=miss_sources
        )
        network.register(engine)
        engine.seal_replica()
        hubs.append(metrics)
        networks.append(network)

    levels = list(networks[0].levels_present)
    util_meters = [
        {level: RateMeter(level) for level in levels} for __ in seeds
    ]
    all_meters = [RateMeter("__all__") for __ in seeds]
    throughput_meters = [RateMeter("throughput") for __ in seeds]

    for __ in range(params.batches):
        engine.run(params.batch_cycles)
        for replica, metrics in enumerate(hubs):
            network = networks[replica]
            metrics.close_batch()
            for level, meter in util_meters[replica].items():
                meter.close_batch(
                    network.flits_carried(level),
                    network.opportunities(engine.cycle, level),
                )
            all_meters[replica].close_batch(
                network.flits_carried(None), network.opportunities(engine.cycle, None)
            )
            completed = metrics.remote_completed + metrics.local_completed
            throughput_meters[replica].close_batch(completed, engine.cycle)

    results: list[SimulationResult] = []
    for replica, (seed, metrics) in enumerate(zip(seeds, hubs)):
        utilization = {
            level: meter.summary() for level, meter in util_meters[replica].items()
        }
        utilization["__all__"] = all_meters[replica].summary()
        results.append(
            SimulationResult(
                system=system,
                workload=workload,
                params=replace(params, seed=seed, replicas=1),
                cycles=engine.cycle,
                latency=metrics.remote_latency.batch.summary(),
                local_latency=metrics.local_latency.batch.summary(),
                utilization=utilization,
                throughput=throughput_meters[replica].summary(),
                remote_transactions=metrics.remote_completed,
                local_transactions=metrics.local_completed,
                flits_moved=int(engine.replica_flits[replica]),
                latency_range=(
                    metrics.remote_latency.minimum,
                    metrics.remote_latency.maximum,
                ),
            )
        )
    return results
