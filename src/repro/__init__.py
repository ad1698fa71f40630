"""repro — flit-level simulation of hierarchical-ring and 2D-mesh
shared-memory multiprocessor interconnects.

A from-scratch reproduction of Ravindran & Stumm, "A Performance
Comparison of Hierarchical Ring- and Mesh-connected Multiprocessor
Networks" (HPCA 1997).

Quickstart::

    from repro import RingSystemConfig, MeshSystemConfig, WorkloadConfig, simulate

    ring = simulate(RingSystemConfig(topology="3:3:8", cache_line_bytes=32))
    mesh = simulate(MeshSystemConfig.for_processors(64, cache_line_bytes=32))
    print(ring.avg_latency, mesh.avg_latency)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "1.0.0"

# Public names resolve on first access (PEP 562), so ``import repro`` —
# which every ``import repro.<anything>`` runs first — loads no
# submodule: a process that only replays cached results never imports
# the engine (DESIGN.md §5, "Import closure").  The imports below are
# what ``__getattr__`` performs, spelled out for mypy and IDEs.
if TYPE_CHECKING:
    from .core.config import (
        CACHE_LINE_SIZES,
        CL_BUFFER,
        DEFAULT_SIM,
        QUICK_SIM,
        THOROUGH_SIM,
        MeshSystemConfig,
        PacketGeometry,
        RingSystemConfig,
        SimulationParams,
        WorkloadConfig,
        format_hierarchy,
        hierarchy_processors,
        mesh_packet_geometry,
        parse_hierarchy,
        ring_packet_geometry,
    )
    from .core.errors import (
        ConfigurationError,
        DeadlockError,
        ReproError,
        SimulationError,
        TopologyError,
    )
    from .core.adaptive import AdaptiveResult, simulate_to_precision
    from .core.packet import Flit, Packet, PacketType
    from .core.simulation import SimulationResult, simulate
    from .core.statistics import BatchMeans, RateMeter, Summary
    from .ring.topology import (
        PAPER_TABLE2,
        SINGLE_RING_MAX,
        HierarchySpec,
        candidate_topologies,
        recommended_topology,
    )

#: Defining submodule of every public name.
_EXPORTS = {
    "core.adaptive": ("AdaptiveResult", "simulate_to_precision"),
    "core.config": (
        "CACHE_LINE_SIZES",
        "CL_BUFFER",
        "DEFAULT_SIM",
        "QUICK_SIM",
        "THOROUGH_SIM",
        "MeshSystemConfig",
        "PacketGeometry",
        "RingSystemConfig",
        "SimulationParams",
        "WorkloadConfig",
        "format_hierarchy",
        "hierarchy_processors",
        "mesh_packet_geometry",
        "parse_hierarchy",
        "ring_packet_geometry",
    ),
    "core.errors": (
        "ConfigurationError",
        "DeadlockError",
        "ReproError",
        "SimulationError",
        "TopologyError",
    ),
    "core.packet": ("Flit", "Packet", "PacketType"),
    "core.simulation": ("SimulationResult", "simulate"),
    "core.statistics": ("BatchMeans", "RateMeter", "Summary"),
    "ring.topology": (
        "PAPER_TABLE2",
        "SINGLE_RING_MAX",
        "HierarchySpec",
        "candidate_topologies",
        "recommended_topology",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "CACHE_LINE_SIZES",
    "CL_BUFFER",
    "DEFAULT_SIM",
    "QUICK_SIM",
    "THOROUGH_SIM",
    "AdaptiveResult",
    "BatchMeans",
    "ConfigurationError",
    "DeadlockError",
    "Flit",
    "HierarchySpec",
    "MeshSystemConfig",
    "PAPER_TABLE2",
    "Packet",
    "PacketGeometry",
    "PacketType",
    "RateMeter",
    "ReproError",
    "RingSystemConfig",
    "SINGLE_RING_MAX",
    "SimulationError",
    "SimulationParams",
    "SimulationResult",
    "Summary",
    "TopologyError",
    "WorkloadConfig",
    "candidate_topologies",
    "format_hierarchy",
    "hierarchy_processors",
    "mesh_packet_geometry",
    "parse_hierarchy",
    "recommended_topology",
    "ring_packet_geometry",
    "simulate",
    "simulate_to_precision",
]


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later accesses never reach __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
