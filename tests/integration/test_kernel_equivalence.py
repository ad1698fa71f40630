"""Scheduler equivalence: compiled, active, naive and batched agree.

The active-set scheduler (``SimulationParams.scheduler="active"``) skips
components it can prove idle and fast-forwards the clock over dead
cycles; the compiled scheduler (the default) additionally flattens the
propose/resolve/commit datapath into finalize-built closures over
parallel integer columns, eliding per-proposal structural checks its
component invariants make unreachable; the batched scheduler runs the
point as a lockstep replica batch over the compiled datapath (here a
batch of one — multi-replica identity is covered by
test_batched_replicas.py).  All are only legal if they are
*behavior-identical* to the full-scan scheduler — the same
``SimulationResult``, the same random streams, the same flit movements —
for every topology, switching mode, clock-domain layout and buffer
shape the simulator supports.  This matrix enforces it, including
byte-identical canonical result JSON so the PR 1 content-addressed
cache may treat the scheduler as a pure execution detail
(``params_payload`` deliberately omits it).
"""

import time
from dataclasses import replace

import pytest

from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.simulation import simulate
from repro.runtime.serialization import canonical_json, result_payload

#: Short but non-trivial: long enough for multi-level round trips and
#: wormhole contention, short enough to keep the matrix fast.
PARAMS = SimulationParams(batch_cycles=350, batches=3, seed=11)

SCHEDULERS = ("compiled", "active", "naive", "batched")

SYSTEMS = [
    pytest.param(RingSystemConfig(topology="8", cache_line_bytes=32), id="ring-1level"),
    pytest.param(RingSystemConfig(topology="2:4", cache_line_bytes=32), id="ring-2level"),
    pytest.param(
        RingSystemConfig(topology="2:2:4", cache_line_bytes=32), id="ring-3level"
    ),
    pytest.param(
        RingSystemConfig(topology="2:2:4", cache_line_bytes=32, global_ring_speed=2),
        id="ring-3level-fast-global",
    ),
    pytest.param(
        RingSystemConfig(topology="2:4", cache_line_bytes=32, switching="slotted"),
        id="ring-2level-slotted",
    ),
    pytest.param(
        MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=1), id="mesh-buf1"
    ),
    pytest.param(
        MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4), id="mesh-buf4"
    ),
    pytest.param(
        MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits="cl"), id="mesh-bufcl"
    ),
]

OUTSTANDING = [1, 2, 4]


def run_all(system, workload, params=PARAMS):
    return {
        scheduler: simulate(system, workload, replace(params, scheduler=scheduler))
        for scheduler in SCHEDULERS
    }


def assert_identical(results):
    """Byte-identical canonical JSON across every scheduler's result."""
    payloads = {
        scheduler: canonical_json(result_payload(result))
        for scheduler, result in results.items()
    }
    baseline = payloads["naive"]
    for scheduler, payload in payloads.items():
        assert payload == baseline, f"{scheduler} result diverged from naive"


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("outstanding", OUTSTANDING, ids=lambda t: f"T{t}")
def test_schedulers_bit_identical(system, outstanding):
    workload = WorkloadConfig(miss_rate=0.05, outstanding=outstanding)
    results = run_all(system, workload)
    naive = results["naive"]

    # Every measured field, at full float precision.
    for scheduler in ("compiled", "active", "batched"):
        fast = results[scheduler]
        assert fast.cycles == naive.cycles
        assert fast.flits_moved == naive.flits_moved
        assert fast.remote_transactions == naive.remote_transactions
        assert fast.local_transactions == naive.local_transactions
        assert fast.latency == naive.latency
        assert fast.local_latency == naive.local_latency
        assert fast.utilization == naive.utilization
        assert fast.throughput == naive.throughput

    # And byte-identical cached-result JSON: the cache must not be able
    # to tell which scheduler computed a point.
    assert_identical(results)


def test_saturated_ring_bit_identical():
    """The compiled datapath's design point: a saturated 2-level ring
    where full buffers rotate through bypass flow control every cycle."""
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.2, outstanding=8)
    assert_identical(run_all(system, workload))


@pytest.mark.parametrize("cache_line", [32, 128], ids=lambda b: f"cl{b}")
@pytest.mark.parametrize("buffer_flits", [1, 4, "cl"], ids=lambda b: f"buf{b}")
def test_saturated_mesh_bit_identical(buffer_flits, cache_line):
    """The mesh propose closure's design point: a saturated 4x4 mesh
    whose four interior routers see five-way contention, with worms
    (36 flits at 128 B lines) holding crossbar locks across many cycles
    and, at one-flit buffers, stretching over as many routers."""
    system = MeshSystemConfig(
        side=4, cache_line_bytes=cache_line, buffer_flits=buffer_flits
    )
    workload = WorkloadConfig(miss_rate=0.2, outstanding=8)
    results = run_all(system, workload)
    assert results["naive"].remote_transactions > 0
    assert_identical(results)


def test_compiled_mesh_clears_the_speed_floor_over_naive():
    """The compiled datapath has to *pay* on a mesh, not only on a ring:
    on a saturated 8x8, 4-flit-buffer mesh (the ``mesh_sat`` shape)
    ``compiled`` must simulate >= 1.3x the cycles per second of the
    full-scan ``naive`` oracle (measured ~2.3x with the router's propose
    closure; 0.97x without it).  Same flits first — a speed ratio
    between different simulations means nothing — then best of three
    interleaved repeats, since noise only ever slows a run down."""
    system = MeshSystemConfig(side=8, cache_line_bytes=32, buffer_flits=4)
    workload = WorkloadConfig(locality=1.0, miss_rate=0.04, outstanding=4)
    params = SimulationParams(batch_cycles=300, batches=2, seed=1)
    rates = {"naive": [], "compiled": []}
    flits = {}
    for __ in range(3):
        for scheduler in rates:
            start = time.perf_counter()
            result = simulate(system, workload, replace(params, scheduler=scheduler))
            rates[scheduler].append(result.cycles / (time.perf_counter() - start))
            flits[scheduler] = result.flits_moved
    assert flits["compiled"] == flits["naive"] > 0
    assert max(rates["compiled"]) >= 1.3 * max(rates["naive"])


def test_low_load_fast_forward_matches():
    """The empty-active-set clock jump must not skip any miss."""
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.001, outstanding=2)
    results = run_all(system, workload)
    assert_identical(results)
    # the jump did not starve the run
    assert results["naive"].remote_transactions > 0


def test_near_zero_load_is_identical_and_quiet():
    """Effectively zero load (the lookahead-chunk path): nothing happens,
    under any scheduler, and this run's seed provably draws no miss."""
    system = RingSystemConfig(topology="2:4", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=1e-9, outstanding=2)
    results = run_all(system, workload)
    for result in results.values():
        assert result.flits_moved == 0
        assert result.remote_transactions == 0
    assert_identical(results)


@pytest.mark.parametrize("system", SYSTEMS)
def test_profiled_run_bit_identical(system):
    """An active PhaseProfile must observe, never perturb.

    The step brackets the same phases with perf_counter laps; results
    must stay byte-identical to unprofiled runs under every scheduler,
    on every system of the matrix (two subcycles on the double-speed
    global ring, slotted switching, meshes), while the profile actually
    records cycles and all four phases for each of them.
    """
    from repro.core import profiling

    workload = WorkloadConfig(miss_rate=0.05, outstanding=4)
    plain = run_all(system, workload)
    profile = profiling.PhaseProfile()
    with profiling.enabled(profile):
        profiled = run_all(system, workload)

    payloads = {
        scheduler: canonical_json(result_payload(result))
        for scheduler, result in plain.items()
    }
    for scheduler, result in profiled.items():
        assert canonical_json(result_payload(result)) == payloads[scheduler], (
            f"profiling perturbed the {scheduler} scheduler's result"
        )
    for scheduler in SCHEDULERS:
        assert profile.cycles.get(scheduler, 0) > 0
        for phase in profiling.PHASES:
            assert (scheduler, phase) in profile.seconds


def test_scheduler_not_in_cache_identity():
    """params_payload omits scheduler and replicas: cache keys coincide."""
    from repro.runtime.serialization import params_payload

    payloads = [
        params_payload(replace(PARAMS, scheduler=scheduler))
        for scheduler in SCHEDULERS
    ]
    assert all(payload == payloads[0] for payload in payloads)
    assert "scheduler" not in payloads[0]
    assert params_payload(replace(PARAMS, replicas=8)) == payloads[0]
    assert "replicas" not in payloads[0]
