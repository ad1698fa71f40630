"""Kernel tier integration: ``compiled`` is the oracle, byte for byte.

The columnar scheduler — what ``SimulationParams()`` selects — keeps
all replicas of a point as flat columns and steps them in a C kernel
(repro.core.ckernel) that draws each PM's miss stream from the same
MT19937 words, in the same order, as the object model's
``random.Random``.  What this module pins down:

* every replica of a batch, and a default ``simulate()`` of its first
  seed, serializes to the bytes of a solo ``scheduler="compiled"`` run
  of that seed — over fabrics, loads, flow controls, workload knobs,
  traffic patterns, degenerate target pools, draw-chunk continuations
  and multi-word seeds — both against ``compiled`` directly and against
  the tier's own no-kernel route (``REPRO_COLUMNAR_KERNEL=0``, which
  *is* ``compiled``);
* each column is seeded the way ``random.Random(n)`` seeds itself;
* a wedged replica raises ``compiled``'s ``DeadlockError`` numbers, a
  wedged solo run its very message;
* a batch clears the aggregate-throughput floor the tier exists for;
* the one fallback rule: what the kernel cannot run (slotted ring
  switching, bursty injection, caller-supplied miss sources, a run
  under the auditor or the profiler, a host without a kernel) runs
  under ``compiled`` — same bytes, and the kernel is not entered;
* cache identity: all five schedulers share one, and a legacy
  ``"fidelity": "statistical"`` payload still loads.
"""

import math
import random
import time
from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro import audit
from repro.core import ckernel, columnar, profiling
from repro.core.columnar import ColumnarEngine, simulate_columnar
from repro.core.config import (
    TRAFFIC_PATTERNS,
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from repro.core.errors import ConfigurationError, DeadlockError
from repro.core.simulation import simulate, simulate_batch
from repro.runtime import PointSpec, ResultCache, run_points
from repro.runtime.runner import run_replica_batch
from repro.runtime.serialization import (
    canonical_json,
    params_from_payload,
    params_payload,
    result_payload,
)
from repro.workload.mmrp import RegionTargetSelector
from repro.workload.trace import record_mmrp_trace, trace_miss_sources

#: No scheduler named: every run below that does not pin one takes the
#: route every caller gets.
PARAMS = SimulationParams(batch_cycles=300, batches=3, seed=7)
assert PARAMS.scheduler == "columnar"
WORKLOAD = WorkloadConfig(locality=0.9, miss_rate=0.04, outstanding=4)

RING = RingSystemConfig(topology="2:4", cache_line_bytes=32)
MESH = MeshSystemConfig(side=3, cache_line_bytes=32, buffer_flits=4)
FAST_RING = RingSystemConfig(topology="2:2:4", cache_line_bytes=32, global_ring_speed=2)

SYSTEMS = [
    pytest.param(RING, id="ring-2level"),
    pytest.param(FAST_RING, id="ring-3level-fast-global"),
    pytest.param(MESH, id="mesh-buf4"),
]

needs_kernel = pytest.mark.skipif(not ckernel.available(), reason="no C toolchain")


def payloads(results):
    return [canonical_json(result_payload(r)) for r in results]


@pytest.fixture
def kernel_runs(monkeypatch):
    """The ``ColumnarEngine.run`` calls made while the test runs (cycles
    asked for, in order): which datapath a simulation took."""
    calls = []
    real = ColumnarEngine.run

    def spy(self, cycles):
        calls.append(cycles)
        real(self, cycles)

    monkeypatch.setattr(ColumnarEngine, "run", spy)
    return calls


def on_both_paths(system, workload, params, monkeypatch):
    """Seeds 7 and 8 on the C kernel, then with the kernel switched off,
    which runs each seed alone under ``compiled``."""
    kernel = simulate_columnar(system, workload, params, seeds=(7, 8))
    monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
    fallback = simulate_columnar(system, workload, params, seeds=(7, 8))
    return kernel, fallback


def compiled_payloads(system, workload, params, seeds):
    """The oracle, spelled out: one solo ``compiled`` run per seed."""
    solo = replace(params, scheduler="compiled", replicas=1)
    return payloads(
        simulate(system, workload, replace(solo, seed=seed)) for seed in seeds
    )


def assert_batch_is_compiled(system, workload, params, seeds=(7, 8)):
    """A batch on the tier, and a default ``simulate()`` of its first
    seed, against the oracle."""
    assert params.scheduler == "columnar"
    oracle = compiled_payloads(system, workload, params, seeds)
    batch = simulate_columnar(system, workload, params, seeds=seeds)
    assert payloads(batch) == oracle
    solo = simulate(system, workload, replace(params, seed=seeds[0]))
    assert payloads([solo]) == oracle[:1]
    return batch


@pytest.mark.parametrize("system", SYSTEMS)
def test_columnar_is_self_deterministic(system):
    """Same seeds twice -> byte-identical canonical result JSON."""
    first = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(7, 8, 9))
    second = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(7, 8, 9))
    assert payloads(first) == payloads(second)


@pytest.mark.parametrize("system", [SYSTEMS[0], SYSTEMS[2]])
def test_seed_results_independent_of_batch_composition(system):
    """Streams are keyed per replica *seed*, not per column index:
    seed 8's result must not change when its neighbours do."""
    trio = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(7, 8, 9))
    solo = simulate_columnar(system, WORKLOAD, PARAMS, seeds=(8,))
    assert payloads([trio[1]]) == payloads(solo)


@needs_kernel
@pytest.mark.parametrize("system", SYSTEMS)
def test_c_kernel_matches_numpy_path(system, monkeypatch):
    """The kernel is an execution detail: switching it off
    (REPRO_COLUMNAR_KERNEL=0 runs ``compiled``) must reproduce the same
    bytes.  The ``numpy_path`` in this test's name and the three below
    is the stepping path the kernel replaced; the no-kernel route they
    compare with has been ``compiled`` since."""
    kernel, fallback = on_both_paths(system, WORKLOAD, PARAMS, monkeypatch)
    assert payloads(kernel) == payloads(fallback)
    assert [r.params.scheduler for r in fallback] == ["columnar", "columnar"]


#: What the kernel's worklist resolver, per-router request pass,
#: proposal list and one-pass commit could get wrong without the three
#: cells above noticing: a lone ring and a deep one carrying 128-B
#: lines, one-flit and whole-packet mesh buffers under 36-flit worms
#: (long lock tenures and revocation chains), the second subcycle of a
#: double-speed ring, and 16-B lines, whose ring buffers and
#: whole-packet mesh buffers fill their slot columns (cap == capm: a
#: full buffer that drains and fills in one subcycle reuses its head
#: slot).
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
    pytest.param(RingSystemConfig(topology="2:4", cache_line_bytes=16), id="ring-16B"),
    pytest.param(
        MeshSystemConfig(side=4, cache_line_bytes=16, buffer_flits="cl"),
        id="mesh-bufcl-16B",
    ),
]


@needs_kernel
@pytest.mark.parametrize("flow_control", ["bypass", "conservative"])
@pytest.mark.parametrize("miss_rate", [0.002, 0.04, 0.2])
@pytest.mark.parametrize("system", KERNEL_SYSTEMS)
def test_c_kernel_matches_numpy_path_matrix(
    system, miss_rate, flow_control, monkeypatch
):
    """Kernel == ``compiled`` from a nearly idle network (quiet jumps) to
    every buffer full (the whole ring rotates: every row is seeded for
    revocation and none may be revoked), under both flow controls."""
    workload = replace(WORKLOAD, miss_rate=miss_rate)
    params = replace(PARAMS, batch_cycles=200, flow_control=flow_control)
    solo = simulate(system, workload, params)  # the default route, seed 7
    kernel, fallback = on_both_paths(system, workload, params, monkeypatch)
    assert payloads(kernel) == payloads(fallback)
    assert payloads([solo]) == payloads(fallback[:1])


@needs_kernel
def test_c_kernel_matches_numpy_path_through_hand_backs(monkeypatch):
    """Long enough that the kernel hands control back to Python for the
    one service it still needs: a grown packet table."""
    workload = replace(WORKLOAD, miss_rate=0.5)
    params = replace(PARAMS, batch_cycles=1000)
    kernel, fallback = on_both_paths(RING, workload, params, monkeypatch)
    assert payloads(kernel) == payloads(fallback)
    # more packets than the initial table holds
    assert 2 * sum(r.remote_transactions for r in kernel) > 4096


@needs_kernel
@pytest.mark.parametrize("flow_control", ["bypass", "conservative"])
@pytest.mark.parametrize("topology", ["8", "2:8", "3:8"])
def test_c_kernel_watchdog_matches_numpy_path(topology, flow_control, monkeypatch):
    """Injection-first arbitration deadlocks these rings at the paper's
    load (DESIGN.md §5 'Ablations').  The kernel must raise ``compiled``'s
    two numbers — a default ``simulate()``, being a batch of one, its
    very message; a batch stops at the replica that wedges first in
    simulated time and names it, and the no-kernel route reports the
    same one."""
    system = RingSystemConfig(topology=topology, transit_priority=False)
    workload = WorkloadConfig(miss_rate=0.04, outstanding=4)
    params = SimulationParams(
        batch_cycles=3000,
        batches=3,
        deadlock_threshold=2000,
        flow_control=flow_control,
    )

    def wedge(run, *args, **kwargs):
        with pytest.raises(DeadlockError) as excinfo:
            run(system, workload, *args, **kwargs)
        return excinfo.value

    solo = [
        wedge(simulate, replace(params, scheduler="compiled", seed=seed))
        for seed in (1, 2, 3)
    ]
    first = min(range(3), key=lambda replica: solo[replica].cycle)
    if flow_control == "bypass":
        assert solo[0].cycle == {"8": 3134, "2:8": 2234, "3:8": 2235}[topology]

    alone = wedge(simulate, params)  # seed 1, on the kernel
    assert (alone.cycle, alone.stalled_cycles) == (solo[0].cycle, 2000)
    assert str(alone) == str(solo[0])
    batch = wedge(simulate_columnar, params, seeds=(1, 2, 3))
    assert (batch.cycle, batch.stalled_cycles) == (solo[first].cycle, 2000)
    assert f"columnar replica {first} (seed {first + 1})" in str(batch)

    monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")
    assert str(wedge(simulate_columnar, params, seeds=(1, 2, 3))) == str(batch)
    assert str(wedge(simulate, params)) == str(solo[0])


# ----------------------------------------------------------------------
# cells the on/off matrix lacks, against solo ``compiled`` runs directly
# (not skipped without a kernel: the no-kernel route must hold them too)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "locality, outstanding", [(0.3, 1), (0.9, 2)], ids=["R0.3-T1", "R0.9-T2"]
)
@pytest.mark.parametrize("system", KERNEL_SYSTEMS)
def test_kernel_matches_compiled_over_locality_and_outstanding(
    system, locality, outstanding
):
    """Small regions (short ``_randbelow`` widths, many rejections) and a
    blocking processor (T=1: every second miss parks, freezing its
    stream until the response returns)."""
    workload = replace(WORKLOAD, locality=locality, outstanding=outstanding)
    assert_batch_is_compiled(system, workload, replace(PARAMS, batch_cycles=200))


@pytest.mark.parametrize("pattern", [p for p in TRAFFIC_PATTERNS if p != "mmrp"])
@pytest.mark.parametrize(
    "system",
    [
        pytest.param(FAST_RING, id="ring-3level-fast-global"),
        pytest.param(MeshSystemConfig(side=8, cache_line_bytes=32), id="mesh-8x8"),
    ],
)
def test_kernel_matches_compiled_on_every_pattern(system, pattern):
    """Pools come off the selector the PMs draw from: weighted (hotspot
    multiplicity), whole-machine (uniform) and lone-target pools — a
    permutation's selector returns its target without a draw."""
    workload = WorkloadConfig(miss_rate=0.04, outstanding=4, pattern=pattern)
    assert_batch_is_compiled(system, workload, replace(PARAMS, batch_cycles=150))


@pytest.mark.parametrize(
    "system, workload",
    [
        pytest.param(
            MeshSystemConfig(side=4, cache_line_bytes=32),
            replace(WORKLOAD, locality=0.05),
            id="mesh-4x4-one-pm-regions",
        ),
        pytest.param(
            RingSystemConfig(topology="1", cache_line_bytes=32), WORKLOAD, id="ring-1"
        ),
    ],
)
def test_kernel_matches_compiled_on_one_pm_regions(system, workload):
    """M-MRP's selector calls ``randrange`` even when the region is the
    PM alone: ``_randbelow(1)`` burns words until a zero bit.  Skipping
    that draw (as the permutation selector rightly does) shifts every
    later gap."""
    batch = assert_batch_is_compiled(system, workload, PARAMS)
    assert all(r.local_transactions > 0 and r.remote_transactions == 0 for r in batch)


def test_kernel_matches_compiled_across_draw_chunks():
    """Mean gap 5000 > the 4096-draw chunk: most countdowns end a run of
    failures, not a miss, and drawing must pick up where it stopped."""
    workload = replace(WORKLOAD, miss_rate=0.0002)
    params = replace(PARAMS, batch_cycles=3000)
    batch = assert_batch_is_compiled(RING, workload, params)
    assert 0 < sum(r.remote_transactions for r in batch) < 40


@pytest.mark.parametrize("seed", [0, 123456789])
def test_kernel_matches_compiled_on_edge_seeds(seed):
    """Key 0 (one zero word) and a key that needs two 32-bit words."""
    assert 123456789 * 1_000_003 >= 1 << 32
    for system in (RING, MESH):
        assert_batch_is_compiled(system, WORKLOAD, PARAMS, seeds=(seed, seed + 1))


@pytest.mark.parametrize("memory_latency", [1, 30])
@pytest.mark.parametrize("read_fraction", [0.5, 1.0])
def test_kernel_matches_compiled_over_memory_and_read_mix(
    memory_latency, read_fraction
):
    workload = replace(WORKLOAD, read_fraction=read_fraction)
    for system in (RING, MESH):
        system = replace(system, memory_latency=memory_latency)
        assert_batch_is_compiled(system, workload, replace(PARAMS, batch_cycles=200))


@pytest.mark.parametrize("outstanding", [1, 4])
@pytest.mark.parametrize("miss_rate", [0.001, 0.3])
@pytest.mark.parametrize(
    "system",
    [
        pytest.param(RingSystemConfig(topology="3:3:8", cache_line_bytes=32), id="ring-3:3:8"),
        pytest.param(MeshSystemConfig(side=8, cache_line_bytes=32), id="mesh-8x8"),
    ],
)
def test_kernel_matches_compiled_on_multi_word_live_sets(system, miss_rate, outstanding):
    """Eight replicas put 768 ring ports / 512 mesh routers in the
    kernel's live bitmap: twelve and eight 64-bit words, walked lowest
    bit first, emptied out at C=0.001 and held full at C=0.3."""
    workload = WorkloadConfig(miss_rate=miss_rate, outstanding=outstanding)
    params = replace(PARAMS, batch_cycles=200, batches=2)
    assert_batch_is_compiled(system, workload, params, seeds=tuple(range(1, 9)))


def test_kernel_matches_compiled_at_exact_thresholds():
    """A miss rate and a read fraction that are multiples of 2**-53:
    ``random() < p`` is decided by a tie on the threshold's high bits
    followed by the low word's ``b < 0``."""
    workload = replace(WORKLOAD, miss_rate=0.0625, read_fraction=0.5)
    for system in (RING, MESH):
        assert_batch_is_compiled(system, workload, replace(PARAMS, batch_cycles=200))


def test_kernel_matches_compiled_on_the_bench_replicas():
    """The benchmark's ``columnar_mid`` inputs (``--seed 1``, variant 0):
    eight replicas of each system vs eight solo ``compiled`` runs."""
    workload = WorkloadConfig(miss_rate=0.02, outstanding=4)
    seeds = tuple(range(1000, 1008))
    for system, batch_cycles in (
        (RingSystemConfig(topology="3:3:8", cache_line_bytes=32), 1000),
        (MeshSystemConfig(side=8, cache_line_bytes=32, buffer_flits=4), 400),
    ):
        params = replace(PARAMS, batch_cycles=batch_cycles)
        assert_batch_is_compiled(system, workload, params, seeds=seeds)


@needs_kernel
def test_columns_are_seeded_like_random_Random(monkeypatch):
    """``init_by_array`` in C over the key's little-endian words: after
    build, each column's 624 words + index are those of
    ``random.Random(n)`` once it, too, has drawn Bernoullis up to its
    first success — for one-, two- and three-word keys."""
    keys = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 7 * 1_000_003 + 5, 2**31, 12345]
    monkeypatch.setattr(columnar, "_stream_keys", lambda seeds, processors: keys)
    system = RingSystemConfig(topology="8", cache_line_bytes=32)
    engine = ColumnarEngine(system, WORKLOAD, PARAMS, seeds=(7,))
    for column, key in enumerate(keys):
        rng = random.Random(key)
        gap = 1
        while rng.random() >= WORKLOAD.miss_rate:
            gap += 1
        state = engine._mt[625 * column : 625 * (column + 1)]
        assert tuple(state) == rng.getstate()[1], key
        assert engine._countdown[column] == gap


@needs_kernel
def test_columnar_batch_clears_the_throughput_floor():
    """What the tier is for: at mid load an 8-replica columnar batch
    must move >= 5x the aggregate cycles x replicas per second of a
    solo run on the closure engine (the floor was calibrated against
    ``scheduler="compiled"``, so the solo side pins it) and returns its
    bytes.  Best of three interleaved repeats: noise only slows a run
    down, and the first columnar call of a process pays one-time set-up."""
    system = RingSystemConfig(topology="3:8", cache_line_bytes=32)
    workload = WorkloadConfig(miss_rate=0.02, outstanding=4)
    batch_params = SimulationParams(batch_cycles=600, batches=3, seed=1, replicas=8)
    solo_params = replace(batch_params, scheduler="compiled", replicas=1)
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


@needs_kernel
def test_default_simulate_runs_on_the_kernel(kernel_runs):
    """Positive control for the fallback cells below: nothing in the
    way, so the default route enters the kernel once per batch."""
    simulate(RING, WORKLOAD, PARAMS)
    assert kernel_runs == [PARAMS.batch_cycles] * PARAMS.batches


def _trace_players():
    """Fresh (stateful) replay sources for RING's eight PMs."""
    selector = RegionTargetSelector.for_ring(8, locality=WORKLOAD.locality)
    trace = record_mmrp_trace(8, 600, WORKLOAD, selector, seed=9)
    return trace_miss_sources(trace)


@pytest.mark.parametrize(
    "why", ["slotted", "bursty", "miss-sources", "auditor", "profile", "kernel-off"]
)
def test_what_the_kernel_cannot_run_runs_under_compiled(why, kernel_runs, monkeypatch):
    """The one fallback rule, a cell per condition: a default
    ``simulate()`` returns the bytes of an explicit ``compiled`` run —
    nothing is rejected — and never enters the kernel."""
    system, workload, sources, context = RING, WORKLOAD, lambda: None, nullcontext()
    observed = None
    if why == "slotted":
        system = replace(RING, switching="slotted")
    elif why == "bursty":
        workload = replace(WORKLOAD, burst_on=25.0, burst_off=75.0)
    elif why == "miss-sources":
        sources = _trace_players
    elif why == "auditor":
        observed = audit.Auditor()
        context = audit.enabled(observed)
    elif why == "profile":
        observed = profiling.PhaseProfile()
        context = profiling.enabled(observed)
    else:
        monkeypatch.setenv("REPRO_COLUMNAR_KERNEL", "0")

    with context:
        got = simulate(system, workload, PARAMS, miss_sources=sources())
    assert kernel_runs == []
    assert got.params.scheduler == "columnar"
    oracle = simulate(
        system, workload, replace(PARAMS, scheduler="compiled"), miss_sources=sources()
    )
    assert payloads([got]) == payloads([oracle])
    # the context got the engine it attaches to (idle cycles are
    # fast-forwarded, so it sees most of the run, not every cycle)
    if why == "auditor":
        assert observed.cycles_audited > PARAMS.total_cycles // 2
    elif why == "profile":
        assert list(observed.cycles) == ["compiled"]
        assert observed.cycles["compiled"] > PARAMS.total_cycles // 2


@needs_kernel
def test_the_engine_refuses_what_it_does_not_model_not_who_is_watching():
    """Routing around an auditor or profiler is ``simulate_columnar``'s
    job; ``ColumnarEngine`` itself only refuses a datapath it lacks."""
    with audit.enabled(audit.Auditor()), profiling.enabled(profiling.PhaseProfile()):
        engine = ColumnarEngine(RING, WORKLOAD, PARAMS, seeds=(7,))
    engine.run(50)
    assert engine.cycle == 50
    for system, workload in (
        (replace(RING, switching="slotted"), WORKLOAD),
        (RING, replace(WORKLOAD, burst_on=25.0, burst_off=75.0)),
    ):
        with pytest.raises(ConfigurationError, match="models"):
            ColumnarEngine(system, workload, PARAMS, seeds=(7,))


def test_miss_sources_need_a_batch_of_one():
    with pytest.raises(ConfigurationError, match="exactly one"):
        simulate_columnar(
            RING, WORKLOAD, PARAMS, seeds=(1, 2), miss_sources=_trace_players()
        )


def test_empty_seed_list_rejected():
    with pytest.raises(ConfigurationError, match="seed"):
        simulate_columnar(RING, WORKLOAD, PARAMS, seeds=())


def test_simulate_dispatches_columnar():
    """The default scheduler flows through the ordinary entry points."""
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

    def test_columnar_shares_the_canonical_identity(self):
        """No scheduler writes a ``fidelity`` key: a columnar result is
        the entry a ``compiled`` request for that seed reads."""
        exact = params_payload(replace(PARAMS, scheduler="compiled"))
        assert params_payload(PARAMS) == exact
        assert "fidelity" not in exact
        spec = PointSpec(RING, WORKLOAD, PARAMS)
        assert spec.key() == replace(spec, params=replace(PARAMS, scheduler="compiled")).key()

    def test_tagged_legacy_payload_still_selects_columnar(self):
        """Frozen inputs written while the tier was statistical (the
        benchmark's ``columnar_mid`` points) keep meaning "run this on
        the kernel tier" — which is what an untagged payload means too,
        now that the tier is the default."""
        tagged = {**params_payload(PARAMS), "fidelity": "statistical"}
        restored = params_from_payload(tagged)
        assert restored.scheduler == "columnar"
        assert restored.batch_cycles == PARAMS.batch_cycles
        assert restored.seed == PARAMS.seed
        assert params_from_payload(params_payload(PARAMS)) == restored

    def test_replica_batch_fills_the_entries_compiled_reads(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = PointSpec(RING, WORKLOAD, replace(PARAMS, replicas=3))
        batch = run_replica_batch(spec, cache=cache)
        assert [r.params.seed for r in batch] == [7, 8, 9]

        for result in batch:
            solo = replace(PARAMS, scheduler="compiled", seed=result.params.seed)
            trackers = []
            (hit,) = run_points(
                [PointSpec(RING, WORKLOAD, solo)], jobs=1, cache=cache,
                progress=trackers.append,
            )
            assert trackers[-1].cache_hits == 1, f"cache miss: {solo}"
            assert payloads([hit]) == payloads([result])
        # and the other way round: the bytes a solo run computes
        assert payloads(batch) == compiled_payloads(RING, WORKLOAD, PARAMS, (7, 8, 9))

    def test_bit_exact_round_trip_restores_default_scheduler(self):
        restored = params_from_payload(
            params_payload(replace(PARAMS, scheduler="batched"))
        )
        assert restored.scheduler == SimulationParams().scheduler == "columnar"
