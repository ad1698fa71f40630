"""Hierarchical ring network assembly.

Builds the complete simulated system for a
:class:`~repro.core.config.RingSystemConfig`: one
:class:`~repro.core.pm.ProcessingModule` plus
:class:`~repro.ring.nic.RingNIC` per processor, one
:class:`~repro.ring.iri.InterRingInterface` per non-root ring, and the
unidirectional channels stitching each ring together.

Ring membership order (flow direction) at each ring is: the IRI to the
parent ring first (absent at the root), then the children in index
order — child rings' IRI upper ports on inner rings, PM NICs on local
rings.

Channels are grouped for utilization reporting into ``"global"``,
``"intermediate"`` and ``"local"`` levels (a single-ring system's only
ring counts as local).  With ``global_ring_speed == 2`` (Section 6),
the global ring's ports and channels run in the fast clock domain.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.channel import Channel
from ..core.config import RingSystemConfig, WorkloadConfig
from ..core.engine import Engine
from ..core.errors import ConfigurationError
from ..core.pm import MetricsHub, ProcessingModule
from ..core.processor import MissSource
from ..workload.patterns import TargetSpace, build_target_selector
from .iri import InterRingInterface
from .nic import RingNIC
from .port import RingPort
from .topology import HierarchySpec, level_name, ring_members, ring_speed


class HierarchicalRingNetwork:
    """A fully wired hierarchical-ring multiprocessor system."""

    def __init__(
        self,
        config: RingSystemConfig,
        workload: WorkloadConfig,
        metrics: MetricsHub,
        seed: int = 1,
        miss_sources: "Sequence[MissSource] | None" = None,
    ):
        config.validate()
        workload.validate()
        self.config = config
        self.workload = workload
        self.metrics = metrics
        self.spec = HierarchySpec.parse(config.topology)

        if config.global_ring_speed == 2 and self.spec.levels == 1:
            raise ConfigurationError(
                "a double-speed global ring requires a multi-level hierarchy"
            )

        buffer_flits = config.ring_buffer_flits
        geometry = config.geometry
        processors = self.spec.processors
        selector = build_target_selector(workload, TargetSpace.ring(processors))

        self.pms: list[ProcessingModule] = [
            ProcessingModule(
                pm_id=pm_id,
                geometry=geometry,
                workload=workload,
                memory_latency=config.memory_latency,
                select_target=selector,
                rng=random.Random(seed * 1_000_003 + pm_id),
                metrics=metrics,
                miss_source=miss_sources[pm_id] if miss_sources else None,
            )
            for pm_id in range(processors)
        ]

        self.nics: list[RingNIC] = []
        self.iris: dict[tuple[int, ...], InterRingInterface] = {}
        self.channels: list[Channel] = []
        self._links_per_level: dict[str, int] = {}
        self._opportunities_per_cycle: dict[str, float] = {}

        self._build()

    # ------------------------------------------------------------------
    def _ring_speed(self, depth: int) -> int:
        return ring_speed(depth, self.spec.levels, self.config.global_ring_speed)

    def _build(self) -> None:
        spec = self.spec
        buffer_flits = self.config.ring_buffer_flits

        # One IRI per non-root ring; lower side at that ring's speed,
        # upper side at the parent ring's speed.
        for depth in range(1, spec.levels):
            for prefix in spec.rings_at_depth(depth):
                self.iris[prefix] = InterRingInterface(
                    name=f"iri{list(prefix)}",
                    spec=spec,
                    child_prefix=prefix,
                    buffer_flits=buffer_flits,
                    lower_speed=self._ring_speed(depth),
                    upper_speed=self._ring_speed(depth - 1),
                    transit_first=self.config.transit_priority,
                    response_first=self.config.response_priority,
                    slotted=self.config.switching == "slotted",
                )

        # NICs on local rings, in PM-id order.
        local_depth = spec.levels - 1
        nic_speed = self._ring_speed(local_depth)
        for pm in self.pms:
            self.nics.append(
                RingNIC(
                    f"nic{pm.pm_id}",
                    pm,
                    buffer_flits,
                    speed=nic_speed,
                    transit_first=self.config.transit_priority,
                    response_first=self.config.response_priority,
                    slotted=self.config.switching == "slotted",
                )
            )

        # Wire every ring.
        for depth in range(spec.levels):
            speed = self._ring_speed(depth)
            level = level_name(depth, spec.levels)
            for prefix in spec.rings_at_depth(depth):
                members = self._ring_members(prefix)
                for position, port in enumerate(members):
                    downstream = members[(position + 1) % len(members)]
                    channel = Channel(
                        name=f"ring{list(prefix)}.link{position}",
                        klass=level,
                        speed=speed,
                    )
                    port.connect(downstream, channel)
                    self.channels.append(channel)
                    self._links_per_level[level] = self._links_per_level.get(level, 0) + 1
                    self._opportunities_per_cycle[level] = (
                        self._opportunities_per_cycle.get(level, 0.0) + speed
                    )

    def _ring_members(self, prefix: tuple[int, ...]) -> list[RingPort]:
        members: list[RingPort] = []
        for role, where in ring_members(self.spec, prefix):
            if isinstance(where, int):
                members.append(self.nics[where])
            elif role == "lower":
                members.append(self.iris[where].lower_port)
            else:
                members.append(self.iris[where].upper_port)
        return members

    # ------------------------------------------------------------------
    def register(self, engine: Engine) -> None:
        # RPR001 regression note: registration order is behaviour — it
        # fixes update order, metric recording order and therefore the
        # float-summation order behind byte-identical results.  PMs and
        # NICs register in PM-id order; IRIs in the depth-then-prefix
        # insertion order of ``self.iris`` (a dict, never a set), which
        # _build() constructs deterministically.  Do not reorder.
        for pm in self.pms:
            engine.add_component(pm)
        for nic in self.nics:
            engine.add_component(nic)
        for iri in self.iris.values():
            engine.add_component(iri.lower_port)
            engine.add_component(iri.upper_port)
        for channel in self.channels:
            engine.register_channel(channel)

    # ------------------------------------------------------------------
    # utilization accounting
    # ------------------------------------------------------------------
    @property
    def levels_present(self) -> list[str]:
        return sorted(self._links_per_level)

    def flits_carried(self, level: str | None = None) -> int:
        return sum(
            c.flits_carried
            for c in self.channels
            if level is None or c.klass == level
        )

    def opportunities(self, cycles: int, level: str | None = None) -> float:
        """Flit-transfer opportunities over *cycles* base cycles."""
        if level is not None:
            return self._opportunities_per_cycle.get(level, 0.0) * cycles
        return sum(self._opportunities_per_cycle.values()) * cycles

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HierarchicalRingNetwork({self.spec}, cl={self.config.cache_line_bytes}B, "
            f"{self.spec.processors} PMs)"
        )
