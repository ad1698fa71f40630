"""The topology plan's oracle: the same tables, read out of a built network.

Until the plan (:mod:`repro.core.plan`) existed, the kernel tier got
its tables by building the object network for every point and walking
it — ids handed out in visiting order, capacities and wiring read off
the components.  That walk is what :func:`plan_from_network` still
does, so "what the kernel runs is what the object model wires" is an
equality anyone can check: :func:`plan_problem` builds the network for
a point, walks it, and names the first field in which the arithmetic
plan differs.  ``tests/core/test_plan.py`` runs it over the paper's
systems; ``python -m repro.audit fuzz --include-columnar`` over every
topology it draws.
"""

from __future__ import annotations

from dataclasses import fields
from types import MappingProxyType
from typing import Any

from ..core.config import WorkloadConfig
from ..core.plan import SINK_CAP, TopologyPlan, build_plan, target_pool_rows
from ..core.processor import MissGenerator
from ..core.simulation import SystemConfig, build_network
from ..core.statistics import MetricsHub
from ..mesh.network import MeshNetwork
from ..mesh.router import OUTPUT_ORDER
from ..mesh.routing import ecube_next_hop_rows
from ..ring.iri import InterRingInterface
from ..ring.network import HierarchicalRingNetwork
from ..ring.nic import RingNIC
from ..workload.mmrp import RegionTargetSelector
from ..workload.patterns import PatternTargetSelector


def plan_from_network(network: "HierarchicalRingNetwork | MeshNetwork") -> TopologyPlan:
    """Walk one object network and emit its flat tables."""
    levels: list[str] = list(network.levels_present)
    geometry = network.config.geometry

    names: list[str] = []
    caps: list[int] = []
    sink_pm: list[int] = []
    index: dict[int, int] = {}

    def add(buf: object, cap: int | None, pm: int = -1) -> int:
        idx = len(names)
        index[id(buf)] = idx
        names.append(getattr(buf, "name", f"buf{idx}"))
        caps.append(SINK_CAP if cap is None else int(cap))
        sink_pm.append(pm)
        return idx

    for pm_obj in network.pms:
        add(pm_obj.in_queue, None, pm_obj.pm_id)
        add(pm_obj.out_resp, pm_obj.out_resp.capacity)
        add(pm_obj.out_req, pm_obj.out_req.capacity)

    iri_contracts: list[tuple[int, int, int, bool, bool]] = []
    if isinstance(network, HierarchicalRingNetwork):
        for nic in network.nics:
            add(nic.transit_buffer, nic.transit_buffer.capacity)
        for iri in network.iris.values():
            for buf in iri.buffers:
                add(buf, buf.capacity)
            lo, hi = iri.subtree_range
            iri_contracts += [
                (index[id(iri.up_req)], lo, hi, False, False),
                (index[id(iri.up_resp)], lo, hi, False, True),
                (index[id(iri.down_req)], lo, hi, True, False),
                (index[id(iri.down_resp)], lo, hi, True, True),
            ]
        ports = _ring_ports(network, index, levels)
    else:
        for router in network.routers:
            for direction in ("N", "E", "S", "W"):
                buf = router.input_buffers[direction]
                add(buf, buf.capacity)
        ports = _mesh_ports(network, index)

    # The kernel draws targets from the selector the PMs were built with.
    generator = network.pms[0].generator
    assert isinstance(generator, MissGenerator)
    selector = generator._select
    assert isinstance(selector, (RegionTargetSelector, PatternTargetSelector))
    pool, pool_row = target_pool_rows(selector)

    return TopologyPlan(
        processors=len(network.pms),
        levels=tuple(levels),
        opportunities_per_cycle=MappingProxyType(
            {level: network.opportunities(1, level) for level in levels}
        ),
        header_flits=geometry.header_flits,
        cl_flits=geometry.cl_packet_flits,
        memory_latency=int(network.pms[0].memory.latency),
        buffer_names=tuple(names),
        caps=tuple(caps),
        sink_pm=tuple(sink_pm),
        out_resp=tuple(index[id(pm.out_resp)] for pm in network.pms),
        out_req=tuple(index[id(pm.out_req)] for pm in network.pms),
        iri_contracts=tuple(iri_contracts),
        pool=pool,
        pool_row=pool_row,
        **ports,
    )


def _ring_ports(
    network: HierarchicalRingNetwork, index: dict[int, int], levels: list[str]
) -> dict[str, Any]:
    ports = list(network.nics) + [
        p for iri in network.iris.values() for p in (iri.lower_port, iri.upper_port)
    ]
    owner: dict[int, tuple[str, InterRingInterface]] = {}
    for iri in network.iris.values():
        owner[id(iri.lower_port)] = ("lower", iri)
        owner[id(iri.upper_port)] = ("upper", iri)

    srcs: list[list[int]] = [[-1] * len(ports) for _ in range(3)]
    routes: list[int] = []
    fast: list[bool] = []
    lvl: list[int] = []

    for u, port in enumerate(ports):
        for j, buf in enumerate(port.sources_by_priority):
            srcs[j][u] = index[id(buf)]
        fast.append(port.speed == 2)
        assert port.out_channel is not None and port.downstream is not None
        lvl.append(levels.index(port.out_channel.klass))
        dp = port.downstream
        if isinstance(dp, RingNIC):
            lo, hi = dp._pm_id, dp._pm_id + 1
            din_q = din_r = index[id(dp._pm_in_queue)]
            dout_q = dout_r = index[id(dp.transit_buffer)]
        else:
            side, iri = owner[id(dp)]
            lo, hi = iri.subtree_range
            if side == "lower":
                din_q = din_r = index[id(dp.transit_buffer)]
                dout_q, dout_r = index[id(iri.up_req)], index[id(iri.up_resp)]
            else:
                din_q, din_r = index[id(iri.down_req)], index[id(iri.down_resp)]
                dout_q = dout_r = index[id(dp.transit_buffer)]
        routes += (lo, hi, din_q, din_r, dout_q, dout_r)

    return dict(
        kind="ring",
        port_names=tuple(p.name for p in ports),
        srcs=tuple(map(tuple, srcs)),
        routes=tuple(routes),
        fast=tuple(fast),
        lvl=tuple(lvl),
        subcycles=2 if any(fast) else 1,
    )


def _mesh_ports(network: MeshNetwork, index: dict[int, int]) -> dict[str, Any]:
    routers = network.routers

    in_buf: list[int] = []
    lq_resp: list[int] = []
    lq_req: list[int] = []
    for router in routers:
        lq_resp.append(index[id(router._local_queues[0])])
        lq_req.append(index[id(router._local_queues[1])])
        in_buf += [index[id(router.input_buffers[d])] for d in ("N", "E", "S", "W")]
        in_buf.append(lq_resp[-1])

    # Ports: every *connected* (router, output) pair.
    m_router: list[int] = []
    m_dir: list[int] = []
    m_dst: list[int] = []
    m_chan: list[bool] = []
    port_names: list[str] = []
    for v, router in enumerate(routers):
        for out_key in router.connected_outputs:
            m_router.append(v)
            m_dir.append(OUTPUT_ORDER.index(out_key))
            m_dst.append(index[id(router._out_dest[out_key])])
            m_chan.append(router._out_channel[out_key] is not None)
            port_names.append(f"{router.name}.{out_key}")

    return dict(
        kind="mesh",
        port_names=tuple(port_names),
        subcycles=1,
        routers=len(routers),
        m_router=tuple(m_router),
        m_dir=tuple(m_dir),
        m_dst=tuple(m_dst),
        m_chan=tuple(m_chan),
        in_buf=tuple(in_buf),
        lq_resp=tuple(lq_resp),
        lq_req=tuple(lq_req),
        route_flat=tuple(b"".join(ecube_next_hop_rows(network.shape))),
    )


def plan_problem(system: SystemConfig, workload: WorkloadConfig) -> str | None:
    """First field in which the plan differs from the walk, or ``None``.

    The plan is computed afresh (:func:`~repro.core.plan.build_plan`),
    not taken from the per-process cache, so what is checked is the
    arithmetic as it stands.
    """
    plan = build_plan(system, workload)
    walked = plan_from_network(build_network(system, workload, MetricsHub(), seed=0))
    for spec in fields(TopologyPlan):
        ours, theirs = getattr(plan, spec.name), getattr(walked, spec.name)
        if ours != theirs:
            return f"plan.{spec.name} differs from the object network's: {ours!r} vs {theirs!r}"
    return None


__all__ = ["plan_from_network", "plan_problem"]
