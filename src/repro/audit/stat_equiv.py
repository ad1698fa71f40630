"""Equivalence gating and column audits for the kernel tier.

The kernel tier (:mod:`repro.core.columnar`) draws each PM's misses
from the same MT19937 stream as the object model, so a replica's result
serializes to the bytes of a solo ``compiled`` run of its seed.  This
module holds the two checks that ride on a *running* campaign rather
than on the unit-test matrix:

**Paired campaigns** (:func:`run_campaign`, :func:`paired_point`) run
the same point under the columnar scheduler and a bit-exact baseline
across a common set of seeds and require, per seed, byte-equal
canonical result payloads.  The statistics the tier was gated on while
its streams differed are still reported — cross-seed 95% confidence
intervals of mean remote latency and throughput, the flit-volume ratio
against :data:`FLIT_RATIO_BAND` — but equal payloads imply all of them
(the intervals coincide, the ratio reads exactly 1.0).  The default
campaign (:func:`paper_points`) covers every topology family the paper
evaluates: single ring, 2- and 3-level hierarchies, the double-speed
global ring, and the mesh at 1-flit, 4-flit and cache-line buffers.

**Sampled materialization audits** (:func:`audit_replica`,
:class:`SamplingAuditor`) periodically freeze one replica of a running
columnar engine, materialize its struct-of-arrays columns back into the
object model's :class:`~repro.core.buffers.FlitBuffer` /
:class:`~repro.core.packet.Packet` vocabulary, and check the structural
invariants the object engine's auditor enforces: occupancy bounds,
wormhole contiguity, IRI routing contracts, mid-packet lock
consistency, transaction-count conservation and network flit
conservation.  A violation raises
:class:`~repro.audit.invariants.AuditError`, same as the object-model
auditor.  There are columns to look at only while the C kernel is
loaded; without it the tier *is* ``compiled``, which the object-model
auditor covers.

Command line: ``python -m repro.audit stat-equiv`` (see
:mod:`repro.audit.cli`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.buffers import FlitBuffer
from ..core.config import (
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from ..core.packet import Packet, PacketType
from ..core.statistics import _t_critical

if TYPE_CHECKING:
    from ..core.columnar import ColumnarEngine
    from ..core.simulation import SimulationResult, SystemConfig

#: Flit-volume agreement band for paired campaigns, from when the tier
#: drew its own streams.  The ratio now reads exactly 1.0; the band
#: stays because the benchmark harness imports it.
FLIT_RATIO_BAND = (0.75, 1.3333)

#: Default seed count per side of a paired campaign point.
DEFAULT_SEEDS = 8


# ----------------------------------------------------------------------
# cross-seed confidence intervals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A cross-seed 95% t confidence interval for one metric."""

    mean: float
    half_width: float
    n: int

    @property
    def lo(self) -> float:
        return self.mean - self.half_width

    @property
    def hi(self) -> float:
        return self.mean + self.half_width

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def cross_seed_interval(values: Sequence[float]) -> Interval:
    """95% t interval of per-seed metric means (seeds are independent)."""
    clean = [v for v in values if not math.isnan(v)]
    n = len(clean)
    if n == 0:
        return Interval(mean=math.nan, half_width=math.inf, n=0)
    mean = sum(clean) / n
    if n == 1:
        return Interval(mean=mean, half_width=math.inf, n=1)
    var = sum((v - mean) ** 2 for v in clean) / (n - 1)
    half = _t_critical(n - 1) * math.sqrt(var / n)
    return Interval(mean=mean, half_width=half, n=n)


# ----------------------------------------------------------------------
# paired campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairedReport:
    """Outcome of one columnar-vs-baseline point comparison."""

    name: str
    seeds: tuple[int, ...]
    #: metric -> (columnar interval, baseline interval)
    intervals: dict[str, tuple[Interval, Interval]]
    #: total columnar flits / total baseline flits
    flit_ratio: float
    failures: tuple[str, ...]
    #: seeds whose canonical payload differs from the baseline's
    mismatched: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [f"[{self.name}] {'PASS' if self.passed else 'FAIL'}"]
        for metric, (col, base) in sorted(self.intervals.items()):
            lines.append(
                f"  {metric}: columnar {col.mean:.3f}±{col.half_width:.3f}"
                f" vs baseline {base.mean:.3f}±{base.half_width:.3f}"
                f" ({'overlap' if col.overlaps(base) else 'DISJOINT'})"
            )
        lines.append(f"  flit ratio: {self.flit_ratio:.4f}")
        lines.append(
            f"  payloads: {len(self.seeds) - len(self.mismatched)}/"
            f"{len(self.seeds)} seeds byte-identical"
        )
        lines.extend(f"  FAIL: {f}" for f in self.failures)
        return "\n".join(lines)


def _metric_values(
    results: "Sequence[SimulationResult]",
) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {"latency": [], "throughput": []}
    for result in results:
        out["latency"].append(result.latency.mean)
        if result.throughput is not None:
            out["throughput"].append(result.throughput.mean)
    if not out["throughput"]:
        del out["throughput"]
    return out


def paired_point(
    name: str,
    system: "SystemConfig",
    workload: WorkloadConfig,
    params: SimulationParams,
    seeds: Sequence[int] | None = None,
    baseline: str = "compiled",
) -> PairedReport:
    """Run one point columnar vs *baseline* and gate on equal bytes.

    Both sides run the same seed set and every seed's canonical result
    payload must be byte-equal.  That implies the older gates, which
    are still evaluated and reported: the 95% t intervals of the
    per-seed mean latencies and throughputs must overlap, and total
    flit volume must agree within :data:`FLIT_RATIO_BAND`.
    ``baseline`` may be any bit-exact scheduler — they are all
    byte-identical to each other (enforced by the
    scheduler-equivalence tests), so ``"batched"`` is a legitimate
    faster stand-in for ``"compiled"``.
    """
    from ..core.columnar import simulate_columnar
    from ..core.simulation import simulate_batch
    from ..runtime.serialization import canonical_json, result_payload

    if seeds is None:
        seeds = tuple(range(params.seed, params.seed + DEFAULT_SEEDS))
    seeds = tuple(int(s) for s in seeds)
    col_params = replace(params, scheduler="columnar")
    base_params = replace(params, scheduler=baseline)
    col_results = simulate_columnar(system, workload, col_params, seeds=seeds)
    base_results = simulate_batch(system, workload, base_params, seeds=seeds)

    failures: list[str] = []
    mismatched = tuple(
        seed
        for seed, col, base in zip(seeds, col_results, base_results)
        if canonical_json(result_payload(col)) != canonical_json(result_payload(base))
    )
    if mismatched:
        failures.append(
            f"payloads: seeds {list(mismatched)} differ from {baseline} byte for byte"
        )

    col_metrics = _metric_values(col_results)
    base_metrics = _metric_values(base_results)
    intervals: dict[str, tuple[Interval, Interval]] = {}
    for metric in sorted(set(col_metrics) & set(base_metrics)):
        col_iv = cross_seed_interval(col_metrics[metric])
        base_iv = cross_seed_interval(base_metrics[metric])
        intervals[metric] = (col_iv, base_iv)
        if col_iv.n == 0 and base_iv.n == 0:
            continue  # neither side measured it (e.g. zero remote traffic)
        if col_iv.n == 0 or base_iv.n == 0:
            failures.append(f"{metric}: measured on only one side")
        elif not col_iv.overlaps(base_iv):
            failures.append(
                f"{metric}: disjoint 95% CIs "
                f"(columnar [{col_iv.lo:.3f}, {col_iv.hi:.3f}] vs "
                f"baseline [{base_iv.lo:.3f}, {base_iv.hi:.3f}])"
            )

    col_flits = sum(r.flits_moved for r in col_results)
    base_flits = sum(r.flits_moved for r in base_results)
    if base_flits == 0 and col_flits == 0:
        ratio = 1.0
    elif base_flits == 0 or col_flits == 0:
        ratio = math.inf
        failures.append(
            f"flit volume: one side moved no flits "
            f"(columnar {col_flits}, baseline {base_flits})"
        )
    else:
        ratio = col_flits / base_flits
        lo, hi = FLIT_RATIO_BAND
        if not lo <= ratio <= hi:
            failures.append(
                f"flit volume ratio {ratio:.4f} outside [{lo}, {hi}] "
                f"(columnar {col_flits}, baseline {base_flits})"
            )

    return PairedReport(
        name=name,
        seeds=seeds,
        intervals=intervals,
        flit_ratio=ratio,
        failures=tuple(failures),
        mismatched=mismatched,
    )


def paper_points() -> "list[tuple[str, SystemConfig]]":
    """One system per topology family the paper evaluates."""
    return [
        ("ring-1level", RingSystemConfig(topology="8", cache_line_bytes=32)),
        ("ring-2level", RingSystemConfig(topology="4:4", cache_line_bytes=32)),
        ("ring-3level", RingSystemConfig(topology="2:2:4", cache_line_bytes=32)),
        (
            "ring-fast-global",
            RingSystemConfig(
                topology="4:4", cache_line_bytes=32, global_ring_speed=2
            ),
        ),
        ("mesh-buf1", MeshSystemConfig(side=4, cache_line_bytes=32, buffer_flits=1)),
        ("mesh-buf4", MeshSystemConfig(side=4, cache_line_bytes=32, buffer_flits=4)),
        (
            "mesh-bufcl",
            MeshSystemConfig(side=4, cache_line_bytes=64, buffer_flits="cl"),
        ),
    ]


def run_campaign(
    points: "Sequence[tuple[str, SystemConfig]] | None" = None,
    workload: WorkloadConfig | None = None,
    params: SimulationParams | None = None,
    seeds: Sequence[int] | None = None,
    baseline: str = "compiled",
    log: Callable[[str], None] | None = None,
) -> list[PairedReport]:
    """Paired columnar-vs-baseline campaign over *points*.

    Defaults to :func:`paper_points` under the paper's workload
    (R=1.0, C=0.04, T=4) at a quick simulation scale.  Returns one
    :class:`PairedReport` per point; the campaign passes iff every
    report does.
    """
    if points is None:
        points = paper_points()
    if workload is None:
        workload = WorkloadConfig(locality=1.0, miss_rate=0.04, outstanding=4)
    if params is None:
        params = SimulationParams(batch_cycles=500, batches=3)
    reports: list[PairedReport] = []
    for name, system in points:
        report = paired_point(
            name, system, workload, params, seeds=seeds, baseline=baseline
        )
        reports.append(report)
        if log is not None:
            log(report.describe())
    return reports


# ----------------------------------------------------------------------
# sampled materialization audit
# ----------------------------------------------------------------------
@dataclass
class MaterializedReplica:
    """One replica's columns rebuilt in the object model's vocabulary."""

    replica: int
    cycle: int
    #: buffer name -> object-model FlitBuffer holding real Flit objects
    buffers: dict[str, FlitBuffer]
    #: packet id -> materialized Packet (only packets with flits in flight)
    packets: dict[int, Packet]


def _packet_type(resp: bool, read: bool) -> PacketType:
    if resp:
        return PacketType.READ_RESPONSE if read else PacketType.WRITE_RESPONSE
    return PacketType.READ_REQUEST if read else PacketType.WRITE_REQUEST


def _buffer_pids(engine: "ColumnarEngine", buf: int) -> list[int]:
    """Head-to-tail packet ids of the occupied slots of global buffer *buf*."""
    occ = int(engine._occ[buf])
    if occ == 0:
        return []
    head = int(engine._head[buf])
    base = buf << engine._blog
    mask = engine._smask
    return [int(engine._slots[base + ((head + i) & mask)]) for i in range(occ)]


def _materialize_packet(engine: "ColumnarEngine", pid: int) -> Packet:
    return Packet(
        _packet_type(bool(engine._pkt_resp[pid]), bool(engine._pkt_read[pid])),
        source=int(engine._pkt_src[pid]),
        destination=int(engine._pkt_dest[pid]),
        size_flits=int(engine._pkt_size[pid]),
        transaction_id=pid,
        issue_cycle=int(engine._pkt_issue[pid]),
    )


def materialize_replica(engine: "ColumnarEngine", replica: int) -> MaterializedReplica:
    """Rebuild one replica's buffer columns as object-model FlitBuffers.

    Each occupied slot run becomes real :class:`Flit` objects of a real
    :class:`Packet`; ``FlitBuffer.push`` enforces the object layer's
    capacity contract while filling, so a column that overflowed its
    buffer surfaces as the same :class:`OverflowError` the object
    engine would raise.  Flit indices are positional within the run
    (a wormhole packet may legitimately span several buffers, so the
    absolute flit index is not recoverable from one buffer alone).
    """
    B = engine.buffers_per_replica
    base = replica * B
    buffers: dict[str, FlitBuffer] = {}
    packets: dict[int, Packet] = {}
    for t, name in enumerate(engine.buffer_names):
        cap = int(engine._t_caps[t])
        sink = bool(engine._is_sink[base + t])
        fb = FlitBuffer(name, None if sink else cap)
        run_pid, run_len = -1, 0
        for pid in _buffer_pids(engine, base + t):
            if pid not in packets:
                packets[pid] = _materialize_packet(engine, pid)
            if pid == run_pid:
                run_len += 1
            else:
                run_pid, run_len = pid, 0
            packet = packets[pid]
            fb.push(packet.flits[min(run_len, packet.size_flits - 1)])
        buffers[name] = fb
    return MaterializedReplica(
        replica=replica, cycle=engine.cycle, buffers=buffers, packets=packets
    )


def audit_replica(engine: "ColumnarEngine", replica: int) -> list[str]:
    """Structural invariant check of one replica's columns.

    Returns a list of problem descriptions (empty when clean).  The
    checks mirror the object-model auditor's per-cycle invariants,
    re-expressed over the struct-of-arrays state:

    * buffer occupancy within ``[0, capacity]``; sink occupancy zero
      (sink arrivals eject into the receive counters immediately)
    * every occupied slot holds a live packet id, wormhole-contiguously
      (a packet's flits in one buffer form a single run no longer than
      the packet)
    * IRI routing contracts: up queues hold only packets leaving the
      subtree, down queues only packets entering it, with the
      request/response split intact (ring)
    * mid-packet port state: ``mid`` implies a positive remaining count
      below the packet size and a real continuation buffer (ring);
      a locked output implies its claimed input slot (mesh)
    * partial receives: a PM's receive counter stays below its packet's
      size
    * transaction conservation: per PM column,
      ``outstanding == open remote transactions + pending local
      accesses``, bounded by the workload's T
    * network flit conservation (whole engine, replica-independent):
      the net-flit counter equals total occupancy of the non-sink
      buffers
    """
    problems: list[str] = []
    B = engine.buffers_per_replica
    U = engine.ports_per_replica
    P = engine.processors
    base = replica * B

    npkt = engine._npkt
    runs: dict[int, list[int]] = {}
    for t, name in enumerate(engine.buffer_names):
        b = base + t
        occ = int(engine._occ[b])
        cap = int(engine._t_caps[t])
        sink = bool(engine._is_sink[b])
        if sink:
            if occ != 0:
                problems.append(f"{name}: sink occupancy {occ} != 0")
            continue
        if not 0 <= occ <= cap:
            problems.append(f"{name}: occupancy {occ} outside [0, {cap}]")
            continue
        pids = _buffer_pids(engine, b)
        seen: set[int] = set()
        run_pid, run_len = -1, 0
        for pid in pids:
            if not 1 <= pid < npkt:
                problems.append(f"{name}: slot holds invalid packet id {pid}")
                break
            if pid != run_pid:
                if pid in seen:
                    problems.append(
                        f"{name}: packet {pid} flits not contiguous "
                        f"(wormhole interleaving)"
                    )
                    break
                seen.add(pid)
                run_pid, run_len = pid, 0
            run_len += 1
            if run_len > int(engine._pkt_size[pid]):
                problems.append(
                    f"{name}: packet {pid} has {run_len} flits queued, "
                    f"size is {int(engine._pkt_size[pid])}"
                )
                break
            runs.setdefault(pid, []).append(t)

    # IRI routing contracts (ring only; the list is empty for meshes).
    for t, lo, hi, inside, is_resp in engine.iri_contracts:
        name = engine.buffer_names[t]
        for pid in _buffer_pids(engine, base + t):
            dest = int(engine._pkt_dest[pid])
            if (lo <= dest < hi) != inside:
                where = "inside" if inside else "outside"
                problems.append(
                    f"{name}: packet {pid} dest {dest} should be {where} "
                    f"subtree [{lo}, {hi})"
                )
            if bool(engine._pkt_resp[pid]) != is_resp:
                kind = "responses" if is_resp else "requests"
                problems.append(f"{name}: packet {pid} in {kind}-only queue")

    # Port wormhole state.  The engine's columns are stdlib ``array``
    # buffers; whole-column reductions read them in place through the
    # buffer protocol.
    ports = slice(replica * U, (replica + 1) * U)
    if engine.kind == "ring":
        mid = np.frombuffer(engine._mid, dtype=np.uint8)[ports]
        rem = engine._rem[ports]
        cont = engine._cont_src[ports]
        for u in np.nonzero(mid)[0]:
            if rem[u] < 1:
                problems.append(
                    f"port {engine._t_port_names[u]}: mid-packet with "
                    f"remaining count {int(rem[u])}"
                )
            if cont[u] >= engine._sent:
                problems.append(
                    f"port {engine._t_port_names[u]}: mid-packet with "
                    f"sentinel continuation source"
                )
    else:
        lock = np.frombuffer(engine._lock, dtype=np.int64)[ports]
        rem = engine._rem[ports]
        for u in range(U):
            lk = int(lock[u])
            if lk == -1:
                continue
            if not 0 <= lk < 5:
                problems.append(
                    f"port {engine._t_port_names[u]}: lock {lk} outside [0, 5)"
                )
                continue
            gu = replica * U + u
            if not bool(engine._claimed[engine._m_router5[gu] + lk]):
                problems.append(
                    f"port {engine._t_port_names[u]}: locked input {lk} "
                    f"not claimed"
                )
            if rem[u] < 1:
                problems.append(
                    f"port {engine._t_port_names[u]}: locked with "
                    f"remaining count {int(rem[u])}"
                )
        # claimed is router-major (5 slots per router) while border
        # routers have their off-mesh output ports pruned, so the
        # replica's claim range is routers*5 wide, not U wide
        v5 = engine._routers_per_replica * 5
        claimed = np.frombuffer(engine._claimed, dtype=np.uint8)
        claims = int(np.count_nonzero(claimed[replica * v5 : (replica + 1) * v5]))
        locks = int(np.count_nonzero(lock >= 0))
        if claims != locks:
            problems.append(
                f"replica {replica}: {claims} claimed input slots "
                f"vs {locks} locked outputs"
            )

    # Partial receives and transaction conservation, per PM column.
    cols = slice(replica * P, (replica + 1) * P)
    rx_cnt = engine._rx_cnt[cols]
    rx_pid = engine._rx_pid[cols]
    outstanding = engine._outstanding[cols]
    rem_open = engine._rem_open[cols]
    local_pending = engine.local_pending_counts()[cols]
    limit = engine._t_limit
    for p in range(P):
        if rx_cnt[p] < 0 or (
            rx_cnt[p] > 0 and rx_cnt[p] >= int(engine._pkt_size[rx_pid[p]])
        ):
            problems.append(
                f"pm {p}: receive counter {int(rx_cnt[p])} not within "
                f"packet {int(rx_pid[p])}"
            )
        if not 0 <= int(outstanding[p]) <= limit:
            problems.append(
                f"pm {p}: outstanding {int(outstanding[p])} outside "
                f"[0, {limit}]"
            )
        if int(outstanding[p]) != int(rem_open[p]) + int(local_pending[p]):
            problems.append(
                f"pm {p}: outstanding {int(outstanding[p])} != "
                f"{int(rem_open[p])} open remote + "
                f"{int(local_pending[p])} pending local"
            )

    # Whole-engine flit conservation (independent of the sampled replica).
    real = np.frombuffer(engine._is_sink, dtype=np.uint8)[: engine.replicas * B] == 0
    occ = np.frombuffer(engine._occ, dtype=np.int64)
    in_network = int(occ[: engine.replicas * B][real].sum())
    if in_network != engine._net_flits:
        problems.append(
            f"net flit counter {engine._net_flits} != "
            f"{in_network} flits in non-sink buffers"
        )
    return problems


class SamplingAuditor:
    """Cycle hook that materializes and audits replicas on a rotation.

    Attach via :func:`repro.core.columnar.simulate_columnar`'s
    ``cycle_hook`` / ``hook_interval`` arguments (or set the engine
    attributes directly).  Each firing audits one replica — rotating
    through all of them — and additionally exercises the full object
    materialization (:func:`materialize_replica`), so buffer-capacity
    violations surface through ``FlitBuffer.push`` exactly as they
    would in the object engine.  Raises
    :class:`~repro.audit.invariants.AuditError` on the first problem.
    """

    def __init__(self) -> None:
        self.samples = 0
        self._next_replica = 0

    def __call__(self, engine: "ColumnarEngine") -> None:
        from .invariants import AuditError

        replica = self._next_replica % engine.replicas
        self._next_replica = replica + 1
        self.samples += 1
        problems = audit_replica(engine, replica)
        if problems:
            raise AuditError(
                "columnar_materialization",
                engine.cycle,
                f"replica {replica} (seed {engine.seeds[replica]}): "
                + "; ".join(problems),
            )
        materialized = materialize_replica(engine, replica)
        for fb in materialized.buffers.values():
            # push() already enforced capacity; the conservation counter
            # must agree with content for a freshly filled buffer.
            if fb.conservation_delta() != 0:
                raise AuditError(
                    "columnar_materialization",
                    engine.cycle,
                    f"{fb.name}: conservation delta "
                    f"{fb.conservation_delta()} after materialization",
                )

    def describe(self) -> str:
        return f"materialization audit: {self.samples} samples, clean"
