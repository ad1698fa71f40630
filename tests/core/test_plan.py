"""The topology plan (``repro.core.plan``): the kernel tier's tables
computed from the spec.

Three contracts.  The plan *is* the walk: field for field what
``repro.audit.plan_check.plan_from_network`` reads out of the object
network ``build_network`` wires, over the paper's systems.  It fails
*like* the walk: the same exception, worded the same, for every input
the network constructors reject.  And it replaced the walk: a default
``simulate()`` on the kernel builds no network and the plan's import
closure holds none of the object model.
"""

from dataclasses import fields, replace

import pytest

from repro.audit.plan_check import plan_from_network, plan_problem
from repro.core import ckernel, profiling
from repro.core import simulation as simulation_module
from repro.core.config import (
    CACHE_LINE_SIZES,
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.plan import TopologyPlan, topology_plan
from repro.core.simulation import build_network, simulate
from repro.core.statistics import MetricsHub
from repro.runtime.serialization import canonical_json, result_payload

needs_kernel = pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")

#: Single rings (Fig 6), two-, three- and four-level hierarchies
#: (Table 2, Figs 7-11) and the double-speed systems' shapes (Figs
#: 19-21), small to full scale.
RING_SHAPES = (
    "4", "8", "12", "2:6", "3:8", "3:12", "2:3:6", "3:3:8", "3:3:12",
    "3:5:8", "2:3:3:6", "3:3:3:4",
)
MESH_SIDES = range(2, 12)

#: The target shapes the kernel's pool table distinguishes: every PM
#: one shared pool, per-PM windows, lone targets, a weighted pool.
TARGET_SHAPES = (
    WorkloadConfig(locality=1.0),
    WorkloadConfig(locality=0.1),
    WorkloadConfig(pattern="tornado"),
    WorkloadConfig(pattern="hotspot"),
)


def assert_plan_is_walk(system, workload):
    problem = plan_problem(system, workload)
    assert problem is None, f"{system} / {workload}: {problem}"


@pytest.mark.parametrize("topology", RING_SHAPES)
def test_ring_plan_equals_the_network_walk(topology):
    levels = topology.count(":") + 1
    for cache_line in CACHE_LINE_SIZES:
        for speed in (1, 2) if levels > 1 else (1,):
            for transit in (True, False):
                for response in (True, False):
                    system = RingSystemConfig(
                        topology=topology,
                        cache_line_bytes=cache_line,
                        global_ring_speed=speed,
                        transit_priority=transit,
                        response_priority=response,
                    )
                    for workload in TARGET_SHAPES:
                        assert_plan_is_walk(system, workload)


@pytest.mark.parametrize("side", MESH_SIDES)
def test_mesh_plan_equals_the_network_walk(side):
    for cache_line in CACHE_LINE_SIZES:
        for buffer_flits in (1, 4, "cl"):
            system = MeshSystemConfig(
                side=side, cache_line_bytes=cache_line, buffer_flits=buffer_flits
            )
            for workload in TARGET_SHAPES:
                assert_plan_is_walk(system, workload)


def test_every_plan_field_is_compared_and_a_difference_is_named(monkeypatch):
    """``plan_problem`` walks the dataclass's own field list, so a new
    table cannot be added to the plan without being held to the walk —
    and it names the field that differs."""
    system, workload = RingSystemConfig(topology="2:2:4", global_ring_speed=2), WorkloadConfig()
    plan = topology_plan(system, workload)
    walked = plan_from_network(build_network(system, workload, MetricsHub(), seed=0))
    assert plan == walked
    assert {f.name for f in fields(TopologyPlan)} >= {
        "buffer_names", "caps", "sink_pm", "srcs", "routes", "fast", "lvl",
        "m_router", "m_dir", "m_dst", "m_chan", "in_buf", "lq_resp", "lq_req",
        "route_flat", "levels", "opportunities_per_cycle", "iri_contracts",
        "port_names", "memory_latency", "header_flits", "cl_flits", "pool", "pool_row",
    }
    # the plan forgets the global ring is fast; the network does not
    monkeypatch.setattr("repro.core.plan.ring_speed", lambda depth, levels, speed: 1)
    assert "plan.opportunities_per_cycle differs" in plan_problem(system, workload)


# ----------------------------------------------------------------------
# error parity: the plan rejects what the network constructors reject
# ----------------------------------------------------------------------
BAD_INPUTS = [
    pytest.param(RingSystemConfig(topology="8", global_ring_speed=2), WorkloadConfig(),
                 id="double-speed-single-ring"),
    pytest.param(RingSystemConfig(topology="2:x"), WorkloadConfig(), id="unparsable-hierarchy"),
    pytest.param(RingSystemConfig(topology="1:4"), WorkloadConfig(), id="one-child-inner-ring"),
    pytest.param(RingSystemConfig(topology=()), WorkloadConfig(), id="empty-hierarchy"),
    pytest.param(RingSystemConfig(topology="2:4", cache_line_bytes=48), WorkloadConfig(),
                 id="ring-cache-line"),
    pytest.param(RingSystemConfig(topology="2:4", global_ring_speed=3), WorkloadConfig(),
                 id="ring-speed"),
    pytest.param(RingSystemConfig(topology="2:4", memory_latency=-1), WorkloadConfig(),
                 id="ring-memory-latency"),
    pytest.param(RingSystemConfig(topology="2:4", switching="store"), WorkloadConfig(),
                 id="ring-switching"),
    pytest.param(MeshSystemConfig(side=0), WorkloadConfig(), id="mesh-side"),
    pytest.param(MeshSystemConfig(side=3, buffer_flits=0), WorkloadConfig(), id="mesh-buffers"),
    pytest.param(MeshSystemConfig(side=3, cache_line_bytes=20), WorkloadConfig(),
                 id="mesh-cache-line"),
    pytest.param(RingSystemConfig(topology="2:4"), WorkloadConfig(pattern="transpose"),
                 id="ring-transpose-needs-4^k"),
    pytest.param(RingSystemConfig(topology="2:3"), WorkloadConfig(pattern="shuffle"),
                 id="ring-shuffle-needs-2^k"),
    pytest.param(MeshSystemConfig(side=3), WorkloadConfig(pattern="bitrev"),
                 id="mesh-bitrev-needs-2^k"),
    pytest.param(MeshSystemConfig(side=2),
                 WorkloadConfig(pattern="hotspot", hotspot_count=5), id="more-hotspots-than-pms"),
]

TINY = SimulationParams(batch_cycles=50, batches=2, seed=3)


def raised_by(system, workload, params):
    with pytest.raises(Exception) as caught:
        simulate(system, workload, params)
    return type(caught.value), str(caught.value)


@needs_kernel
@pytest.mark.parametrize("system, workload", BAD_INPUTS)
def test_default_simulate_fails_like_compiled(system, workload, kernel_plans):
    compiled = raised_by(system, workload, replace(TINY, scheduler="compiled"))
    assert not kernel_plans  # ... which never asks for a plan
    assert raised_by(system, workload, TINY) == compiled
    assert kernel_plans == [system]  # the error came out of the plan


def test_unknown_system_type_is_refused_in_the_networks_words():
    with pytest.raises(Exception) as walked:
        build_network(object(), WorkloadConfig(), MetricsHub(), seed=0)
    with pytest.raises(Exception) as planned:
        topology_plan(object(), WorkloadConfig())
    assert (type(planned.value), str(planned.value)) == (type(walked.value), str(walked.value))


# ----------------------------------------------------------------------
# the walk is gone from the default path
# ----------------------------------------------------------------------
@pytest.fixture
def kernel_plans(monkeypatch):
    """Systems the column engine asked a plan for while the test ran."""
    from repro.core import columnar

    asked = []

    def spy(system, workload):
        asked.append(system)
        return topology_plan(system, workload)

    monkeypatch.setattr(columnar, "topology_plan", spy)
    return asked


@pytest.fixture
def networks_built(monkeypatch):
    """Systems ``build_network`` was called for while the test ran."""
    built = []
    real = simulation_module.build_network

    def spy(system, *args, **kwargs):
        built.append(system)
        return real(system, *args, **kwargs)

    monkeypatch.setattr(simulation_module, "build_network", spy)
    return built


RING = RingSystemConfig(topology="2:4", cache_line_bytes=32)
MESH = MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4)
RUN = SimulationParams(batch_cycles=200, batches=2, seed=5)
LOAD = WorkloadConfig(miss_rate=0.05)


@needs_kernel
@pytest.mark.parametrize("system", [RING, MESH], ids=["ring", "mesh"])
def test_default_simulate_never_builds_a_network(system, monkeypatch):
    oracle = canonical_json(
        result_payload(simulate(system, LOAD, replace(RUN, scheduler="compiled")))
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel route built an object network")

    monkeypatch.setattr(simulation_module, "build_network", refuse)
    assert canonical_json(result_payload(simulate(system, LOAD, RUN))) == oracle


@needs_kernel
def test_kernel_meters_levels_by_name_not_by_map_order(monkeypatch):
    """The kernel counts flits in ``plan.levels`` order; the meters must
    pair each count with its own level whatever order the plan's
    opportunities map happens to be in."""
    from repro.core import columnar

    system = RingSystemConfig(topology="2:2:4", cache_line_bytes=32, global_ring_speed=2)
    expected = canonical_json(result_payload(simulate(system, LOAD, RUN)))

    def reversed_opportunities(system, workload):
        plan = topology_plan(system, workload)
        assert len(plan.levels) == 3
        shuffled = dict(reversed(plan.opportunities_per_cycle.items()))
        return replace(plan, opportunities_per_cycle=shuffled)

    monkeypatch.setattr(columnar, "topology_plan", reversed_opportunities)
    assert canonical_json(result_payload(simulate(system, LOAD, RUN))) == expected


def _slotted():
    return simulate(replace(RING, switching="slotted"), LOAD, RUN)


def _bursty():
    return simulate(RING, replace(LOAD, burst_on=20.0, burst_off=60.0), RUN)


def _miss_sources():
    from repro.workload.mmrp import RegionTargetSelector
    from repro.workload.trace import record_mmrp_trace, trace_miss_sources

    selector = RegionTargetSelector.for_ring(RING.processors, LOAD.locality)
    trace = record_mmrp_trace(RING.processors, RUN.total_cycles, LOAD, selector, seed=9)
    return simulate(RING, LOAD, RUN, miss_sources=trace_miss_sources(trace))


def _audited():
    from repro import audit

    with audit.enabled(audit.Auditor()):
        return simulate(RING, LOAD, RUN)


def _profiled():
    with profiling.enabled(profiling.PhaseProfile()):
        return simulate(RING, LOAD, RUN)


def _kernel_off(monkeypatch):
    monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
    return simulate(RING, LOAD, RUN)


@pytest.mark.parametrize(
    "edge", [_slotted, _bursty, _miss_sources, _audited, _profiled, _kernel_off]
)
def test_every_fallback_edge_still_builds_the_network(
    edge, networks_built, kernel_plans, monkeypatch
):
    """What ``kernel_can_run`` refuses runs on the object model: the
    network is built, and no plan is."""
    edge(monkeypatch) if edge is _kernel_off else edge()
    assert len(networks_built) == 1
    assert not kernel_plans


# ----------------------------------------------------------------------
# import closure of the plan itself
# ----------------------------------------------------------------------
OBJECT_MODEL = (
    "repro.core.engine",
    "repro.core.pm",
    "repro.core.buffers",
    "repro.ring.port",
    "repro.ring.nic",
    "repro.ring.iri",
    "repro.ring.network",
    "repro.mesh.router",
    "repro.mesh.network",
)

_PLAN_CHILD = f"""
import json, sys
from repro.core.config import MeshSystemConfig, RingSystemConfig, WorkloadConfig
from repro.core.plan import topology_plan

ring = topology_plan(RingSystemConfig(topology="2:3:4", global_ring_speed=2), WorkloadConfig())
mesh = topology_plan(MeshSystemConfig(side=4), WorkloadConfig(locality=0.3))
print(json.dumps({{
    "ports": [len(ring.port_names), len(mesh.port_names)],
    "leaked": [name for name in {OBJECT_MODEL!r} if name in sys.modules],
}}))
"""


def test_plan_imports_none_of_the_object_model(run_child):
    report = run_child(_PLAN_CHILD)
    # 24 NICs + 2 ports for each of the 2 + 6 non-root rings; 16 routers
    # with 2 * 4 * 3 * 2 neighbour links and one ejection port each
    assert report["ports"] == [24 + 2 * 8, 48 + 16]
    assert report["leaked"] == []
