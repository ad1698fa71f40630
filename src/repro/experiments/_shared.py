"""Cached sweep runners shared by the experiment modules.

Several paper figures draw different projections of the same runs
(e.g. Figure 7 plots latency and Figure 8 utilization of the identical
2-level sweep), so runners are memoized on their full parameterization.
:class:`~repro.experiments.base.Scale` and the workload knobs are
hashable, making the cache key exact.

Each runner builds its full list of :class:`~repro.runtime.PointSpec`
first and executes it through :func:`repro.runtime.run_points`, so
every sweep transparently picks up the ambient job count (``--jobs`` /
``REPRO_JOBS``) and on-disk result cache configured by the CLI.
"""

from __future__ import annotations

from functools import lru_cache

from ..analysis.sweeps import (
    growth_topologies,
    hierarchy_sweep,
    mesh_point_spec,
    ring_point_spec,
    single_ring_sizes,
)
from ..core.config import WorkloadConfig
from ..core.simulation import SimulationResult
from ..ring.topology import PAPER_TABLE2
from ..runtime import run_points
from .base import Scale

#: (nodes, result) samples of one sweep.
Sweep = tuple[tuple[int, SimulationResult], ...]


def _measured(points) -> Sweep:
    """Drop degenerate points that completed no remote transactions.

    This happens for configs whose locality region contains only the
    local PM (e.g. a 4-node mesh at R=0.2): there is no network traffic
    and hence no latency to report.
    """
    return tuple(
        (nodes, result) for nodes, result in points if result.remote_transactions > 0
    )


def workload(locality: float, outstanding: int) -> WorkloadConfig:
    return WorkloadConfig(locality=locality, miss_rate=0.04, outstanding=outstanding)


def clear_sweep_caches() -> None:
    """Drop all memoized sweeps (tests use it to force real runs)."""
    single_ring_sweep.cache_clear()
    level_growth_sweep.cache_clear()
    table2_size_ring_sweep.cache_clear()
    mesh_sweep.cache_clear()


@lru_cache(maxsize=None)
def single_ring_sweep(scale: Scale, cache_line: int, outstanding: int) -> Sweep:
    """Latency of single rings across node counts (Figure 6 grid)."""
    sizes = single_ring_sizes(cache_line, min(scale.max_nodes, 64))
    wl = workload(1.0, outstanding)
    specs = [ring_point_spec((n,), cache_line, wl, scale.sim) for n in sizes]
    return _measured(zip(sizes, run_points(specs)))


@lru_cache(maxsize=None)
def level_growth_sweep(
    scale: Scale,
    levels: int,
    cache_line: int,
    outstanding: int,
    locality: float = 1.0,
    global_ring_speed: int = 1,
    include_smaller: bool = True,
    max_nodes: int | None = None,
) -> Sweep:
    """Hierarchy growth sweep at a fixed depth (Figures 7-11, 19, 20)."""
    cap = min(scale.max_nodes, max_nodes) if max_nodes else scale.max_nodes
    if include_smaller:
        schedule = hierarchy_sweep(levels, cache_line, cap)
    else:
        schedule = growth_topologies(levels, cache_line, cap)
    wl = workload(locality, outstanding)
    specs = [
        ring_point_spec(
            branching,
            cache_line,
            wl,
            scale.sim,
            global_ring_speed=global_ring_speed if len(branching) > 1 else 1,
        )
        for __, branching in schedule
    ]
    sizes = [nodes for nodes, __ in schedule]
    return _measured(zip(sizes, run_points(specs)))


@lru_cache(maxsize=None)
def table2_size_ring_sweep(
    scale: Scale,
    cache_line: int,
    outstanding: int,
    locality: float = 1.0,
    global_ring_speed: int = 1,
) -> Sweep:
    """Rings at the paper's Table 2 system sizes (comparison figures).

    With a double-speed global ring the 3-level design rule allows five
    second-level rings, so the sweep extends beyond Table 2 with the
    Section 6 growth schedule.
    """
    wl = workload(locality, outstanding)
    schedule: list[tuple[int, tuple[int, ...]]] = []
    for nodes in sorted(PAPER_TABLE2[cache_line]):
        if nodes > scale.max_nodes:
            continue
        schedule.append((nodes, PAPER_TABLE2[cache_line][nodes]))
    if global_ring_speed == 2:
        for nodes, branching in growth_topologies(
            3, cache_line, scale.max_nodes, max_top_fan=5
        ):
            if all(nodes != existing for existing, __ in schedule):
                schedule.append((nodes, branching))
    schedule.sort(key=lambda item: item[0])
    specs = [
        ring_point_spec(
            branching,
            cache_line,
            wl,
            scale.sim,
            global_ring_speed=global_ring_speed if len(branching) > 1 else 1,
        )
        for __, branching in schedule
    ]
    sizes = [nodes for nodes, __ in schedule]
    return _measured(zip(sizes, run_points(specs)))


@lru_cache(maxsize=None)
def mesh_sweep(
    scale: Scale,
    cache_line: int,
    buffer_flits,
    outstanding: int,
    locality: float = 1.0,
) -> Sweep:
    """Meshes across the scale's side lengths (Figures 12-18, 21)."""
    wl = workload(locality, outstanding)
    sides = [side for side in scale.mesh_sides if side * side <= scale.max_nodes]
    specs = [
        mesh_point_spec(side, cache_line, buffer_flits, wl, scale.sim)
        for side in sides
    ]
    return _measured(zip((side * side for side in sides), run_points(specs)))
