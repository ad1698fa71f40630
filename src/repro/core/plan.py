"""Topology plan: the kernel tier's replica-independent tables, from the spec.

:func:`topology_plan` computes, for one ``(system, workload)`` pair,
every table :class:`~repro.core.columnar.ColumnarEngine` tiles across
replicas and hands to the C kernel — buffer ids, capacities and names,
ring ports with their priority sources and routing rows, mesh router
ports and the e-cube next-hop table, the utilization levels, the target
pools — by arithmetic on :class:`~repro.ring.topology.HierarchySpec` /
:class:`~repro.mesh.topology.MeshShape` and the config.  No object
network is built: nothing here imports the engine, the processing
modules, the flit buffers, or the ring / mesh component classes.

That the tables are the ones the object model wires is a *checked*
statement, not a convention: :func:`repro.audit.plan_check.plan_from_network`
reads the same :class:`TopologyPlan` back out of a built network (the
walk this module replaced, kept as oracle), and the two are compared
for equality over the paper's systems in ``tests/core/test_plan.py`` and
on every topology ``python -m repro.audit fuzz --include-columnar``
draws.  The wiring rules both sides need — ring membership order, level
names, per-depth ring speed, subtree id ranges — live once, in
:mod:`repro.ring.topology`; the target pools come from the one
:func:`~repro.workload.patterns.build_target_selector`.

A plan is the same for every seed, miss rate, ``T`` and read fraction
of its topology, so :func:`topology_plan` computes it once per process
and hands every later point of the topology the same object (a small
LRU, :data:`PLAN_CACHE_SIZE` plans); :func:`build_plan` computes a fresh
one, which is what the oracle compares.  Because it is shared, a
:class:`TopologyPlan` is frozen and holds only tuples and a read-only
map; the replica-tiled kernel columns built from it are shared the same
way, per (plan, replica count), by :mod:`repro.core.columnar`.

The id layout (DESIGN.md §9 has it as a table), with ``P`` processors:

* buffers ``3*pm + {0, 1, 2}`` — PM *pm*'s ejection sink, response
  output queue, request output queue;
* ring: ``3P + pm`` — NIC *pm*'s ring buffer; then six per non-root
  ring in depth-then-prefix order — lower ring buffer, upper ring
  buffer, ``up_req``, ``up_resp``, ``down_req``, ``down_resp``; ports
  are the NICs in PM order, then each IRI's lower and upper port;
* mesh: ``3P + 4*v + {0, 1, 2, 3}`` — router *v*'s ``N, E, S, W``
  input FIFOs; ports are every connected ``(router, output)`` pair in
  router-then-port order.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping

from ..mesh.routing import LOCAL, PORT_ORDER, ecube_next_hop_rows
from ..mesh.topology import OPPOSITE, MeshShape
from ..ring.topology import HierarchySpec, level_name, ring_members, ring_speed
from ..workload.mmrp import RegionTargetSelector
from ..workload.patterns import (
    PatternTargetSelector,
    TargetSpace,
    build_target_selector,
)
from .config import MeshSystemConfig, RingSystemConfig, WorkloadConfig
from .errors import ConfigurationError

#: Effectively-unbounded capacity for ejection sinks.
SINK_CAP = 1 << 30

#: The four router inputs that are buffers (``LOCAL`` is the PM's queues).
_MESH_INPUTS = PORT_ORDER[:4]


@dataclass(frozen=True)
class TopologyPlan:
    """Everything about one point's topology the kernel tier reads.

    All ids are local to one replica.  Ring-only and mesh-only tables
    are empty for the other fabric.  A plan is shared by every point of
    its topology (:func:`topology_plan` caches it), so it is immutable:
    its tables are tuples and its one map is a read-only view.
    """

    kind: str  # "ring" | "mesh"
    processors: int
    #: utilization levels, sorted, and flit opportunities per base cycle by level
    levels: tuple[str, ...]
    opportunities_per_cycle: Mapping[str, float]
    header_flits: int
    cl_flits: int
    memory_latency: int
    #: clock subcycles per base cycle (2 with a double-speed global ring)
    subcycles: int

    # -- buffers, in id order ------------------------------------------
    buffer_names: tuple[str, ...]
    caps: tuple[int, ...]
    #: the PM a buffer ejects into, -1 for every bounded buffer
    sink_pm: tuple[int, ...]
    out_resp: tuple[int, ...]
    out_req: tuple[int, ...]
    #: ``(buffer, lo, hi, inside, is_resp)`` routing contracts of the
    #: IRI change queues, for the materialization audit
    iri_contracts: tuple[tuple[int, int, int, bool, bool], ...]

    # -- target pools ----------------------------------------------------
    #: distinct pools, concatenated
    pool: tuple[int, ...]
    #: per PM ``(offset, length, getrandbits width)``; width 0: no draw
    pool_row: tuple[int, ...]

    port_names: tuple[str, ...]

    # -- ring ports ------------------------------------------------------
    #: per send priority, each port's source buffer
    srcs: tuple[tuple[int, ...], ...] = ()
    #: six words per port, ``ckernel``'s ``ring_routes`` input: the pm
    #: range behind the downstream port, then the buffer a (request,
    #: response) takes inside that range and outside it
    routes: tuple[int, ...] = ()
    fast: tuple[bool, ...] = ()
    #: index into ``levels`` of the ring the port sends on
    lvl: tuple[int, ...] = ()

    # -- mesh ports ------------------------------------------------------
    routers: int = 0
    m_router: tuple[int, ...] = ()
    #: output direction, as an index into ``PORT_ORDER``
    m_dir: tuple[int, ...] = ()
    m_dst: tuple[int, ...] = ()
    #: whether the output is a counted channel (ejection is not)
    m_chan: tuple[bool, ...] = ()
    #: five per router (N, E, S, W, LOCAL); the LOCAL entry is a
    #: placeholder, resolved per cycle from the two local queues
    in_buf: tuple[int, ...] = ()
    lq_resp: tuple[int, ...] = ()
    lq_req: tuple[int, ...] = ()
    #: ``ecube_next_hop_rows`` flattened, one entry per (node, destination)
    route_flat: tuple[int, ...] = ()


def target_pool_rows(
    selector: "RegionTargetSelector | PatternTargetSelector",
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A target selector's pools as the kernel's ``(pool, pool_row)``.

    Same pools in the same order as the PMs draw from (a target's
    multiplicity is its weight, so hotspot is exact).  The two selector
    classes differ on a lone target: ``RegionTargetSelector`` (M-MRP)
    still calls ``randrange``, ``PatternTargetSelector`` returns it
    without touching the stream.
    """
    if isinstance(selector, RegionTargetSelector):
        pools, lone_bits = selector.regions, 1
    else:
        pools, lone_bits = selector.pools, 0
    flat: list[int] = []
    offsets: dict[tuple[int, ...], int] = {}
    rows: list[int] = []
    for pool in pools:
        offset = offsets.setdefault(tuple(pool), len(flat))
        if offset == len(flat):
            flat.extend(pool)
        n = len(pool)
        bits = lone_bits if n == 1 else n.bit_length()
        if bits > 32:
            raise ConfigurationError("target pools are limited to 2**32 - 1 entries")
        rows += (offset, n, bits)
    return tuple(flat), tuple(rows)


def _pm_buffers(processors: int, queue_flits: int) -> tuple[list[str], list[int], list[int]]:
    """Names, capacities and sink PMs of the ``3 * P`` endpoint buffers."""
    names: list[str] = []
    sink_pm: list[int] = []
    for pm in range(processors):
        names += (f"pm{pm}.in", f"pm{pm}.out_resp", f"pm{pm}.out_req")
        sink_pm += (pm, -1, -1)
    return names, [SINK_CAP, queue_flits, queue_flits] * processors, sink_pm


def _ring_plan(system: RingSystemConfig, workload: WorkloadConfig) -> TopologyPlan:
    spec = HierarchySpec.parse(system.topology)
    depth_count = spec.levels
    if system.global_ring_speed == 2 and depth_count == 1:
        raise ConfigurationError(
            "a double-speed global ring requires a multi-level hierarchy"
        )
    P = spec.processors
    geometry = system.geometry
    cl = geometry.cl_packet_flits
    pool, pool_row = target_pool_rows(build_target_selector(workload, TargetSpace.ring(P)))

    names, caps, sink_pm = _pm_buffers(P, cl)
    buffer_flits = system.ring_buffer_flits
    names += [f"nic{pm}.ring_buffer" for pm in range(P)]
    port_names = [f"nic{pm}" for pm in range(P)]

    # One IRI per non-root ring, depth then prefix: six buffers from
    # ``base`` (lower/upper ring buffer, up_req, up_resp, down_req,
    # down_resp), two ports (lower, upper), and the subtree's pm range.
    iri: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
    contracts: list[tuple[int, int, int, bool, bool]] = []
    rings = [spec.rings_at_depth(depth) for depth in range(depth_count)]
    for depth in range(1, depth_count):
        for prefix in rings[depth]:
            name = f"iri{list(prefix)}"
            base = len(names)
            lo, hi = spec.subtree_range(prefix)
            iri[prefix] = (base, len(port_names), lo, hi)
            names += (
                f"{name}.lower_ring_buffer",
                f"{name}.upper_ring_buffer",
                f"{name}.up_req",
                f"{name}.up_resp",
                f"{name}.down_req",
                f"{name}.down_resp",
            )
            port_names += (f"{name}.lower", f"{name}.upper")
            contracts += (
                (base + 2, lo, hi, False, False),
                (base + 3, lo, hi, False, True),
                (base + 4, lo, hi, True, False),
                (base + 5, lo, hi, True, True),
            )
    caps += [buffer_flits] * (P + 6 * len(iri))
    sink_pm += [-1] * (P + 6 * len(iri))

    # Send priority: the transit buffer against the two injection
    # queues (responses over requests unless switched off).
    resp, req = (0, 1) if system.response_priority else (1, 0)
    first, tail = (0, 1) if system.transit_priority else (2, 0)
    U = len(port_names)
    srcs = [[-1] * U for _ in range(3)]
    for pm in range(P):
        srcs[first][pm] = 3 * P + pm
        srcs[tail + resp][pm] = 3 * pm + 1
        srcs[tail + req][pm] = 3 * pm + 2
    for base, u, _, _ in iri.values():
        srcs[first][u] = base  # lower port: down queues onto the child ring
        srcs[tail + resp][u] = base + 5
        srcs[tail + req][u] = base + 4
        srcs[first][u + 1] = base + 1  # upper port: up queues onto the parent
        srcs[tail + resp][u + 1] = base + 3
        srcs[tail + req][u + 1] = base + 2

    speeds = [
        ring_speed(depth, depth_count, system.global_ring_speed)
        for depth in range(depth_count)
    ]
    level_of_depth = [level_name(depth, depth_count) for depth in range(depth_count)]
    levels = sorted(set(level_of_depth))
    opportunities: dict[str, float] = {}
    fast = [speeds[-1] == 2] * P
    lvl = [levels.index(level_of_depth[-1])] * P
    for depth in map(len, iri):
        fast += (speeds[depth] == 2, speeds[depth - 1] == 2)
        lvl += (levels.index(level_of_depth[depth]), levels.index(level_of_depth[depth - 1]))

    # Routing row of a port = how its *downstream* neighbour classifies.
    routes = [0] * (6 * U)
    for depth in range(depth_count):
        level, speed = level_of_depth[depth], speeds[depth]
        for prefix in rings[depth]:
            members = ring_members(spec, prefix)
            opportunities[level] = opportunities.get(level, 0.0) + speed * len(members)
            ports = [
                where if isinstance(where, int) else iri[where][1] + (role == "upper")
                for role, where in members
            ]
            for position, u in enumerate(ports):
                role, where = members[(position + 1) % len(members)]
                if isinstance(where, int):  # a NIC: eject or pass
                    row = (where, where + 1, 3 * where, 3 * where, 3 * P + where, 3 * P + where)
                else:
                    base, _, lo, hi = iri[where]
                    if role == "lower":  # stay below, or climb
                        row = (lo, hi, base, base, base + 2, base + 3)
                    else:  # descend, or pass on the parent ring
                        row = (lo, hi, base + 4, base + 5, base + 1, base + 1)
                routes[6 * u : 6 * u + 6] = row

    return TopologyPlan(
        kind="ring",
        processors=P,
        levels=tuple(levels),
        opportunities_per_cycle=MappingProxyType(opportunities),
        header_flits=geometry.header_flits,
        cl_flits=cl,
        memory_latency=int(system.memory_latency),
        subcycles=2 if any(fast) else 1,
        buffer_names=tuple(names),
        caps=tuple(caps),
        sink_pm=tuple(sink_pm),
        out_resp=tuple(range(1, 3 * P, 3)),
        out_req=tuple(range(2, 3 * P, 3)),
        iri_contracts=tuple(contracts),
        pool=pool,
        pool_row=pool_row,
        port_names=tuple(port_names),
        srcs=tuple(map(tuple, srcs)),
        routes=tuple(routes),
        fast=tuple(fast),
        lvl=tuple(lvl),
    )


def _mesh_plan(system: MeshSystemConfig, workload: WorkloadConfig) -> TopologyPlan:
    shape = MeshShape(system.side)
    side = system.side
    P = shape.processors
    geometry = system.geometry
    pool, pool_row = target_pool_rows(
        build_target_selector(workload, TargetSpace.mesh(side))
    )

    names, caps, sink_pm = _pm_buffers(P, geometry.cl_packet_flits)
    caps += [system.input_buffer_flits] * (4 * P)
    sink_pm += [-1] * (4 * P)
    out_resp, out_req = tuple(range(1, 3 * P, 3)), tuple(range(2, 3 * P, 3))

    in_buf: list[int] = []
    m_router: list[int] = []
    m_dir: list[int] = []
    m_dst: list[int] = []
    m_chan: list[bool] = []
    port_names: list[str] = []
    local = PORT_ORDER.index(LOCAL)
    # A flit sent out of direction d lands in the neighbour's input
    # buffer on the opposite side.
    landing = [_MESH_INPUTS.index(OPPOSITE[d]) for d in _MESH_INPUTS]
    for v in range(P):
        name = f"router{v}"
        base = 3 * P + 4 * v
        names += [f"{name}.in_{d}" for d in _MESH_INPUTS]
        in_buf += (base, base + 1, base + 2, base + 3, 3 * v + 1)
        neighbors = shape.neighbors(v)
        for out, direction in enumerate(_MESH_INPUTS):
            if direction in neighbors:
                m_router.append(v)
                m_dir.append(out)
                m_dst.append(3 * P + 4 * neighbors[direction] + landing[out])
                m_chan.append(True)
                port_names.append(f"{name}.{direction}")
        m_router.append(v)
        m_dir.append(local)
        m_dst.append(3 * v)
        m_chan.append(False)
        port_names.append(f"{name}.{LOCAL}")

    return TopologyPlan(
        kind="mesh",
        processors=P,
        levels=("mesh",),
        opportunities_per_cycle=MappingProxyType({"mesh": float(shape.internal_links())}),
        header_flits=geometry.header_flits,
        cl_flits=geometry.cl_packet_flits,
        memory_latency=int(system.memory_latency),
        subcycles=1,
        buffer_names=tuple(names),
        caps=tuple(caps),
        sink_pm=tuple(sink_pm),
        out_resp=out_resp,
        out_req=out_req,
        iri_contracts=(),
        pool=pool,
        pool_row=pool_row,
        port_names=tuple(port_names),
        routers=P,
        m_router=tuple(m_router),
        m_dir=tuple(m_dir),
        m_dst=tuple(m_dst),
        m_chan=tuple(m_chan),
        in_buf=tuple(in_buf),
        # a router's local port is fed by its PM's two output queues
        lq_resp=out_resp,
        lq_req=out_req,
        # the routers' shared next-hop rows (one byte per entry, an
        # index into the port order)
        route_flat=tuple(b"".join(ecube_next_hop_rows(shape))),
    )


def _validated_builder(
    system: "RingSystemConfig | MeshSystemConfig", workload: WorkloadConfig
) -> "Callable[[Any, WorkloadConfig], TopologyPlan]":
    """The plan builder of *system*'s fabric, once both configs validate."""
    build: "Callable[[Any, WorkloadConfig], TopologyPlan]"
    if isinstance(system, RingSystemConfig):
        build = _ring_plan
    elif isinstance(system, MeshSystemConfig):
        build = _mesh_plan
    else:
        raise ConfigurationError(f"unknown system config type: {type(system).__name__}")
    system.validate()
    workload.validate()
    return build


def build_plan(
    system: "RingSystemConfig | MeshSystemConfig", workload: WorkloadConfig
) -> TopologyPlan:
    """A fresh plan for *system* under *workload*, computed now.

    Validates as building the object network would — same exception
    types, same messages, same order: the configs, the hierarchy, the
    double-speed rule, the pattern's size requirements.
    """
    return _validated_builder(system, workload)(system, workload)


#: Plans one process keeps; beyond it the least recently used is dropped.
PLAN_CACHE_SIZE = 64

_plans: "OrderedDict[tuple[object, ...], TopologyPlan]" = OrderedDict()
_plans_lock = threading.Lock()


def topology_plan(
    system: "RingSystemConfig | MeshSystemConfig", workload: WorkloadConfig
) -> TopologyPlan:
    """The kernel tier's tables for *system* under *workload*, cached.

    A plan depends on the system and on the workload fields the target
    selector reads (``pattern``, ``locality``, ``hotspot_count``,
    ``hotspot_weight``), so every seed, miss rate, ``T`` and read
    fraction of one topology shares one plan object — computed once per
    process by :func:`build_plan`, the least recently used of
    :data:`PLAN_CACHE_SIZE` kept.  The configs are validated on every
    call, before the lookup, and a call that raises caches nothing: a
    hit fails exactly as a fresh build would.
    """
    build = _validated_builder(system, workload)
    if isinstance(system, RingSystemConfig):
        # "2:6", (2, 6) and [2, 6] name one hierarchy, and a list is unhashable
        system = replace(system, topology=system.branching)
    key = (
        system,
        workload.pattern,
        workload.locality,
        workload.hotspot_count,
        workload.hotspot_weight,
    )
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
            return plan
    plan = build(system, workload)
    with _plans_lock:
        # a racing thread's plan, if it got in first: one object per key
        plan = _plans.setdefault(key, plan)
        while len(_plans) > PLAN_CACHE_SIZE:
            _plans.popitem(last=False)
    return plan


__all__ = [
    "PLAN_CACHE_SIZE",
    "SINK_CAP",
    "TopologyPlan",
    "build_plan",
    "target_pool_rows",
    "topology_plan",
]
