"""Columnar scheduler integration: determinism, kernel identity, caching.

The columnar engine (``SimulationParams.scheduler="columnar"``) drops
the byte-identity contract the other four schedulers share: it keeps
all replicas of a point as flat numpy columns and resolves contention
with masked array ops, so its results are only *statistically*
equivalent to the object engines (enforced by repro.audit.stat_equiv).
What this module pins down instead:

* the columnar path is still **self-deterministic** — same seeds, same
  bytes, run after run, and each seed's result is independent of which
  other seeds share the batch;
* the optional C kernel (repro.core.ckernel) is bit-identical to the
  numpy columnar path it replaces (``REPRO_COLUMNAR_KERNEL=0``), and
  with it a batch clears the aggregate-throughput floor over solo
  ``compiled`` that the tier exists for;
* configuration guards reject what the engine cannot model (slotted
  ring switching, externally supplied miss sources);
* cache identity: columnar payloads carry ``"fidelity":
  "statistical"`` so they can never be served for a bit-exact request,
  while the four bit-exact schedulers still share one identity.
"""

import math
import time
from dataclasses import replace

import pytest

from repro.core import ckernel
from repro.core.columnar import ColumnarEngine, simulate_columnar
from repro.core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.errors import ConfigurationError, DeadlockError
from repro.core.simulation import simulate, simulate_batch
from repro.runtime.serialization import (
    canonical_json,
    params_from_payload,
    params_payload,
    result_payload,
)

PARAMS = SimulationParams(batch_cycles=300, batches=3, seed=7, scheduler="columnar")
WORKLOAD = WorkloadConfig(locality=0.9, miss_rate=0.04, outstanding=4)

RING = RingSystemConfig(topology="2:4", cache_line_bytes=32)
MESH = MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4)

SYSTEMS = [
    pytest.param(RING, id="ring-2level"),
    pytest.param(
        RingSystemConfig(topology="2:2:4", cache_line_bytes=32, global_ring_speed=2),
        id="ring-3level-fast-global",
    ),
    pytest.param(MESH, id="mesh-buf4"),
]


def payloads(results):
    return [canonical_json(result_payload(r)) for r in results]


def on_both_paths(system, workload, params, monkeypatch):
    """Seeds 7 and 8 with the C kernel, then on the numpy fallback."""
    kernel = simulate_columnar(system, workload, params, seeds=(7, 8))
    monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
    numpy_only = simulate_columnar(system, workload, params, seeds=(7, 8))
    return kernel, numpy_only


@pytest.mark.parametrize("system", SYSTEMS)
def test_columnar_is_self_deterministic(system):
    """Same seeds twice -> byte-identical canonical result JSON."""
    first = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(7, 8, 9))
    second = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(7, 8, 9))
    assert payloads(first) == payloads(second)


@pytest.mark.parametrize("system", [SYSTEMS[0], SYSTEMS[2]])
def test_seed_results_independent_of_batch_composition(system):
    """Philox streams are keyed per replica *seed*, not per column
    index: seed 8's result must not change when its neighbours do."""
    trio = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(7, 8, 9))
    solo = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(8,))
    assert payloads([trio[1]]) == payloads(solo)


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
@pytest.mark.parametrize("system", SYSTEMS)
def test_c_kernel_matches_numpy_path(system, monkeypatch):
    """The compiled kernel is an execution detail: forcing the numpy
    fallback (REPRO_COLUMNAR_KERNEL=0) must reproduce the same bytes."""
    kernel, numpy_only = on_both_paths(system, WORKLOAD, PARAMS, monkeypatch)
    assert payloads(kernel) == payloads(numpy_only)


#: What the kernel's worklist resolver, per-router request pass and
#: proposal list could get wrong without the three cells above noticing:
#: a lone ring and a deep one carrying 128-B lines, one-flit and
#: whole-packet mesh buffers under 36-flit worms (long lock tenures and
#: revocation chains), the second subcycle of a double-speed ring.
KERNEL_SYSTEMS = [
    *SYSTEMS,
    pytest.param(RingSystemConfig(topology="8", cache_line_bytes=32), id="ring-single"),
    pytest.param(
        RingSystemConfig(topology="3:3:4", cache_line_bytes=128), id="ring-3level-128B"
    ),
    pytest.param(
        MeshSystemConfig(side=4, cache_line_bytes=128, buffer_flits=1),
        id="mesh-buf1-128B",
    ),
    pytest.param(
        MeshSystemConfig(side=4, cache_line_bytes=128, buffer_flits="cl"),
        id="mesh-bufcl-128B",
    ),
]


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
@pytest.mark.parametrize("flow_control", ["bypass", "conservative"])
@pytest.mark.parametrize("miss_rate", [0.002, 0.04, 0.2])
@pytest.mark.parametrize("system", KERNEL_SYSTEMS)
def test_c_kernel_matches_numpy_path_matrix(
    system, miss_rate, flow_control, monkeypatch
):
    """Kernel identity from a nearly idle network (quiet jumps) to every
    buffer full (the whole ring rotates: every row is seeded for
    revocation and none may be revoked), under both flow controls."""
    workload = replace(WORKLOAD, miss_rate=miss_rate)
    params = replace(PARAMS, batch_cycles=200, flow_control=flow_control)
    kernel, numpy_only = on_both_paths(system, workload, params, monkeypatch)
    assert payloads(kernel) == payloads(numpy_only)


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
def test_c_kernel_matches_numpy_path_through_hand_backs(monkeypatch):
    """Long enough that the kernel hands control back for both of its
    Python-side services: a grown packet table and fresh miss blocks."""
    refills = []
    draw = ColumnarEngine._refill

    def counting(engine, columns):
        refills.append(len(columns))
        draw(engine, columns)

    monkeypatch.setattr(ColumnarEngine, "_refill", counting)
    workload = replace(WORKLOAD, miss_rate=0.5)
    params = replace(PARAMS, batch_cycles=1000)
    kernel, numpy_only = on_both_paths(RING, workload, params, monkeypatch)
    assert payloads(kernel) == payloads(numpy_only)
    # more packets than the initial table holds; more block draws than
    # the one per path that fills every column at build
    assert 2 * sum(r.remote_transactions for r in kernel) > 4096
    assert len(refills) > 2


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
@pytest.mark.parametrize("flow_control", ["bypass", "conservative"])
@pytest.mark.parametrize("system", [SYSTEMS[0], SYSTEMS[2]])
def test_c_kernel_watchdog_matches_numpy_path(system, flow_control, monkeypatch):
    """Wedge one replica mid-run (its bounded buffers stop accepting, so
    every row it proposes is revoked): both paths must name the same
    replica at the same cycle, and leave its neighbours running."""
    params = replace(PARAMS, flow_control=flow_control, deadlock_threshold=7)

    def report():
        engine = ColumnarEngine(system, WORKLOAD, params, seeds=(7, 8, 9))
        engine.run(100)
        per_replica = engine.buffers_per_replica
        caps = engine._cap[per_replica : 2 * per_replica]
        caps[~engine._is_sink[per_replica : 2 * per_replica]] = 0
        with pytest.raises(DeadlockError, match=r"columnar replica 1 \(seed 8\)") as excinfo:
            engine.run(1000)
        return str(excinfo.value), engine.cycle

    kernel = report()
    monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
    assert report() == kernel


@pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")
def test_columnar_batch_clears_the_throughput_floor():
    """What the tier trades byte-identity for: at mid load an 8-replica
    columnar batch must move >= 5x the aggregate cycles x replicas per
    second of a solo ``compiled`` run.  Best of three
    interleaved repeats: noise only slows a run down, and the first
    columnar call of a process pays one-time set-up."""
    system = RingSystemConfig(topology="3:8", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.02, outstanding=4)
    solo_params = SimulationParams(batch_cycles=600, batches=3, seed=1)
    batch_params = replace(solo_params, scheduler="columnar", replicas=8)
    solo_rates, batch_rates = [], []
    for __ in range(3):
        start = time.perf_counter()
        solo = simulate(system, workload, solo_params)
        solo_rates.append(solo.cycles / (time.perf_counter() - start))
        start = time.perf_counter()
        batch = simulate_batch(system, workload, batch_params)
        batch_rates.append(
            len(batch) * batch[0].cycles / (time.perf_counter() - start)
        )
    assert len(batch) == 8
    assert max(batch_rates) >= 5.0 * max(solo_rates)


def test_slotted_switching_rejected():
    slotted = replace(RING, switching="slotted")
    with pytest.raises(ConfigurationError, match="slotted"):
        simulate_columnar(slotted, WORKLOAD, PARAMS, seeds=(1,))


def test_empty_seed_list_rejected():
    with pytest.raises(ConfigurationError, match="seed"):
        simulate_columnar(RING, WORKLOAD, PARAMS, seeds=())


def test_miss_sources_rejected():
    """The engine generates misses from its own per-column Philox
    streams; injected MissSource objects cannot be honoured."""
    with pytest.raises(ConfigurationError, match="miss"):
        simulate(RING, WORKLOAD, PARAMS, miss_sources=[])


def test_simulate_dispatches_columnar():
    """scheduler="columnar" flows through the ordinary entry points."""
    solo = simulate(RING, WORKLOAD, PARAMS)
    assert solo.params.scheduler == "columnar"
    assert solo.flits_moved > 0
    batch = simulate_batch(RING, WORKLOAD, replace(PARAMS, replicas=2))
    assert [r.params.seed for r in batch] == [7, 8]
    direct = simulate_columnar(RING, WORKLOAD, PARAMS, seeds=(7, 8))
    assert payloads(batch) == payloads(direct)
    assert payloads([solo]) == payloads([direct[0]])


def test_results_are_plausible():
    """Sanity on the metered outputs: finite latency, extremes bracket
    the mean, throughput positive, flits conserved per replica."""
    results = simulate_columnar(MESH, WORKLOAD, PARAMS, seeds=(7, 8, 9))
    for result in results:
        assert result.cycles == PARAMS.batch_cycles * PARAMS.batches
        assert math.isfinite(result.avg_latency)
        lo, hi = result.latency_range
        assert lo <= result.avg_latency <= hi
        assert result.throughput.mean > 0
        assert result.remote_transactions > 0
        assert result.flits_moved > 0


class TestCacheFidelity:
    def test_bit_exact_schedulers_share_one_identity(self):
        base = SimulationParams(batch_cycles=300, batches=3, seed=7)
        payloads_ = {
            scheduler: params_payload(replace(base, scheduler=scheduler))
            for scheduler in ("compiled", "active", "naive", "batched")
        }
        assert len({canonical_json(p) for p in payloads_.values()}) == 1
        assert "fidelity" not in payloads_["compiled"]

    def test_columnar_identity_is_disjoint(self):
        """A columnar cache entry can never be served for a bit-exact
        request (and vice versa): the payloads differ structurally."""
        exact = params_payload(replace(PARAMS, scheduler="compiled"))
        statistical = params_payload(PARAMS)
        assert statistical.pop("fidelity") == "statistical"
        assert statistical == exact  # only the tag separates them

    def test_columnar_round_trips_through_payload(self):
        restored = params_from_payload(params_payload(PARAMS))
        assert restored.scheduler == "columnar"
        assert restored.batch_cycles == PARAMS.batch_cycles
        assert restored.seed == PARAMS.seed

    def test_bit_exact_round_trip_restores_default_scheduler(self):
        restored = params_from_payload(
            params_payload(replace(PARAMS, scheduler="batched"))
        )
        assert restored.scheduler == "compiled"
