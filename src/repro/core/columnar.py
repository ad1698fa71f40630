"""Kernel tier: every replica of one point as flat columns, stepped in C.

The ``"columnar"`` scheduler is what ``SimulationParams()`` selects, and
the fifth *bit-exact* scheduler.  All replica state lives in
struct-of-arrays columns (stdlib :mod:`array` buffers — nothing here
imports numpy) flattened across replicas, and :mod:`repro.core.ckernel`
— a C kernel compiled once per host — runs the cycle loop over them:

* every flit buffer is a circular column of packet ids
  (``_slots``/``_head``/``_occ``) — a flit is just its packet id, since
  wormhole contiguity pins which flit of the packet each slot holds;
* every ring/mesh output port is a row of static columns (send-priority
  sources, the downstream classification table) plus dynamic wormhole
  state (``_mid``/``_rem``/``_cont_src``/``_cont_dst``);
* the PM update phase (eject, memory service, local completion, M-MRP
  generation, staging drain — in the object model's order) runs over
  flattened ``(replica, pm)`` columns, with the memory pipeline and
  local-completion queues as circular timer arrays and the staging
  FIFOs as lists linked through the packet table;
* every ``(replica, pm)`` column owns one MT19937 state, seeded in C
  the way ``random.Random(seed * 1_000_003 + pm_id)`` seeds itself, and
  the kernel consumes it draw for draw as
  :meth:`~repro.core.processor.MissGenerator._advance_schedule` does
  (DESIGN.md §9 has the discipline table).

A replica's result therefore serializes to the same bytes as a solo
``compiled`` run of its seed — ``tests/integration/test_columnar.py``
holds the kernel to that over fabrics, loads, flow controls, patterns
and seeds — so columnar results are ordinary canonical cache entries.
This module builds the columns from the point's topology plan
(:func:`repro.core.plan.topology_plan`: one replica's tables, computed
from the spec without building an object network), hands them to the
kernel and closes each batch's tallies into the batch-means meters
every entry point shares (:class:`repro.core.simulation.BatchMeters`).
What a point costs before its first cycle is what its seeds cost: the
plan is computed once per topology per process and is immutable, and
its static columns — tiled across the batch by the kernel's
``tile_offset`` / ``ring_routes`` — are a :class:`ColumnLayout` built
once per (plan, replica count) and shared by reference by every engine
of that pair, which the kernel only reads; an engine allocates its
dynamic state, builds its pointer table and seeds its streams.  The
audit tier can materialize a replica's columns back into object form at
sampled cycles (:mod:`repro.audit.stat_equiv`) and holds the network
walk the plan replaced as its oracle (:mod:`repro.audit.plan_check`).
Nothing on this route imports the object model — the engine, the PMs,
the flit buffers, the ring / mesh components; they load when a point
takes the fallback below.

**The one fallback rule** (:func:`kernel_can_run`): whatever the kernel
cannot run, :func:`simulate_columnar` runs seed by seed under
``compiled`` — same bytes, the closure engine's speed.  That is a host
without a loadable kernel (no C compiler, or ``REPRO_COLUMNAR_KERNEL=0``),
slotted ring switching, bursty (Markov-modulated) injection,
caller-supplied miss sources, and any run inside an active
:mod:`~repro.core.profiling` or :mod:`repro.audit` context, both of
which attach to :class:`~repro.core.engine.Engine`.  Nothing is
rejected: a default must run everything ``compiled`` runs.

The ``last`` latency diagnostic is recorded in ascending port order,
which matches the object model's PM-order recording except when a
double-speed system completes two packets for one replica in different
subcycles of the same cycle; it is not part of any result.
"""

from __future__ import annotations

import ctypes
import math
import threading
from array import array
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

from . import ckernel, profiling
from .ckernel import KS, PRM, PTR, STATUS_DEADLOCK, STATUS_PKT_GROW
from .config import (
    DEFAULT_SIM,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from .errors import ConfigurationError, DeadlockError
from .plan import SINK_CAP, TopologyPlan, topology_plan
from .processor import LOOKAHEAD_CHUNK

if TYPE_CHECKING:
    from .processor import MissSource
    from .simulation import BatchMeters, SimulationResult, SystemConfig

#: One replica's latency tallies for a batch: sum, count, min, max, last.
_Tally = tuple[float, int, float, float, float]
#: Words of one MT19937 column: the 624-word state and its read index.
_MT_STATE = 625
#: Initial rows of the (growable) packet table.
_PKT_ROWS = 4096


def _pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _ints(n: int, fill: int = 0, code: str = "q") -> "array[int]":
    """An *n*-entry integer column: int64, or uint8 ``"B"`` / uint32 ``"I"``."""
    return array(code, [fill]) * n


def _floats(n: int, fill: float = 0.0) -> "array[float]":
    return array("d", [fill]) * n


def _addr(column: "array[int] | array[float]") -> int:
    return column.buffer_info()[0]


def _kernel_models(system: "SystemConfig", workload: WorkloadConfig) -> bool:
    """Whether the point is one the kernel's datapath implements:
    wormhole switching, one Bernoulli miss draw per cycle."""
    slotted = isinstance(system, RingSystemConfig) and system.switching == "slotted"
    return not slotted and not workload.bursty


def kernel_can_run(
    system: "SystemConfig",
    workload: WorkloadConfig,
    miss_sources: "Sequence[MissSource] | None" = None,
) -> bool:
    """Whether the C kernel runs this point, here, now — the tier's one rule.

    The kernel models wormhole switching and draws ``MissGenerator``'s
    stream itself (one Bernoulli per cycle: no Markov on/off chain in
    front of it, no caller-supplied sources), and nothing can watch it
    step, so a run under a profiler or the invariant auditor belongs to
    the engine they attach to.  Everything this refuses runs under
    ``compiled`` instead, with the same bytes.
    """
    from ..audit import runtime as audit_runtime  # leaf-level, as in Engine

    return (
        _kernel_models(system, workload)
        and miss_sources is None
        and profiling.current() is None
        and audit_runtime.current() is None
        and ckernel.load() is not None
    )


def _stream_keys(seeds: Sequence[int], processors: int) -> list[int]:
    """What ``random.Random`` is seeded with, per (replica, pm) column.

    The networks give PM *pm* of a run ``random.Random(seed * 1_000_003
    + pm)``, which seeds from the absolute value.
    """
    return [abs(seed * 1_000_003 + pm) for seed in seeds for pm in range(processors)]


#: Column layouts one process keeps, per (plan, replica count); beyond
#: it the least recently used is dropped.
LAYOUT_CACHE_SIZE = 8


class ColumnLayout:
    """One plan's static columns tiled across *replicas* — shared.

    Everything here is a function of the plan and the replica count
    alone: buffer capacities and sink flags, the ring ports' priority
    sources, routing table, speed and level columns, the mesh ports'
    destinations, directions and input tables, the PM and replica of
    every (replica, pm) column, the staging queues and their
    capacities, the target pools, and the constant part of the kernel's
    parameter vector.  :func:`column_layout` builds it once per (plan,
    replica count) and every :class:`ColumnarEngine` of that pair points
    the kernel at the same arrays; the kernel only reads them.
    """

    __slots__ = (
        "plan", "sent", "smask", "blog", "cap", "is_sink",
        "sink_pm", "r_of_port", "psrc3", "rt_tbl", "fast", "lvl_of",
        "m_dst", "m_dir", "m_router5", "in_buf", "lq_resp", "lq_req",
        "route", "pm_local", "r_of_pm", "stg_q", "stg_qcap", "pool",
        "pool_row", "prm",
    )

    def __init__(self, kernel: ctypes.CDLL, plan: TopologyPlan, replicas: int):
        self.plan = plan
        R = replicas
        B = len(plan.buffer_names)
        P = plan.processors
        L = len(plan.levels)
        U = len(plan.port_names)
        V = plan.routers
        NB = R * B
        self.sent = NB  # sentinel buffer: occupancy pinned to 0

        def tiled(column: Sequence[int], stride: int, none: int = -1) -> "array[int]":
            """*column* once per replica, replica ``r``'s copy shifted by
            ``r * stride`` (negative entries become *none*, unshifted)."""
            src = array("q", column)
            out = _ints(len(src) * R)
            kernel.tile_offset(_addr(out), _addr(src), len(src), R, stride, none)
            return out

        def tiled_buffers(column: Sequence[int]) -> "array[int]":
            """A buffer-id column across replicas (-1 -> the sentinel)."""
            return tiled(column, B, NB)

        capm = _pow2(max(cap for cap in plan.caps if cap < SINK_CAP))
        self.smask = capm - 1
        self.blog = capm.bit_length() - 1
        self.cap = array("q", plan.caps) * R
        self.cap.append(SINK_CAP)
        self.is_sink = array("B", [pm >= 0 for pm in plan.sink_pm]) * R
        self.is_sink.append(0)
        self.sink_pm = tiled(plan.sink_pm, P)
        self.sink_pm.append(-1)
        self.r_of_port = tiled([0] * U, 1)

        # the other fabric's slots: any valid column, never read
        self.psrc3 = self.rt_tbl = self.fast = self.m_dst = self.m_dir = self.cap
        self.m_router5 = self.in_buf = self.lq_resp = self.lq_req = self.route = self.cap
        if plan.kind == "ring":
            # (3, NU): the j-th priority source of every port
            self.psrc3 = array("q")
            for column in plan.srcs:
                self.psrc3 += tiled_buffers(column)
            # Flat routing table: port x (2*dest + is_resp) -> output
            # buffer.  One gather replaces the classifier compare/where
            # chain in the propose hot path.
            self.rt_tbl = _ints(R * U * P * 2)
            routes = array("q", plan.routes)
            kernel.ring_routes(_addr(self.rt_tbl), _addr(routes), U, P, R, B)
            self.fast = array("B", plan.fast) * R
            self.lvl_of = tiled(plan.lvl, L)
        else:
            self.m_dst = tiled_buffers(plan.m_dst)
            self.m_dir = array("q", plan.m_dir) * R
            self.m_router5 = tiled([5 * v for v in plan.m_router], 5 * V)
            self.in_buf = tiled_buffers(plan.in_buf)
            self.lq_resp = tiled_buffers(plan.lq_resp)
            self.lq_req = tiled_buffers(plan.lq_req)
            self.route = array("q", plan.route_flat)
            # ejection ports carry no channel: tallied in a spare slot
            self.lvl_of = tiled([0 if chan else -1 for chan in plan.m_chan], L, none=R * L)

        self.pm_local = array("q", range(P)) * R
        self.r_of_pm = tiled([0] * P, 1)
        # Staging: responses occupy columns [0, R*P), requests
        # [R*P, 2*R*P), each draining into its PM's output queue.
        self.stg_q = array("q")
        self.stg_qcap = array("q")
        for queues in (plan.out_resp, plan.out_req):
            self.stg_q += tiled_buffers(queues)
            self.stg_qcap += array("q", [plan.caps[q] for q in queues]) * R
        self.pool = array("q", plan.pool)
        self.pool_row = array("q", plan.pool_row)

        prm = self.prm = _ints(PRM.COUNT)
        prm[PRM.KIND] = 0 if plan.kind == "ring" else 1
        prm[PRM.R] = R
        prm[PRM.U] = U
        prm[PRM.P] = P
        prm[PRM.L] = L
        prm[PRM.NB] = NB
        prm[PRM.NU] = R * U
        prm[PRM.NPM] = R * P
        prm[PRM.V] = V
        prm[PRM.SENT] = NB
        prm[PRM.SMASK] = self.smask
        prm[PRM.BLOG] = self.blog
        prm[PRM.SUBC] = plan.subcycles
        prm[PRM.MEM_LAT] = plan.memory_latency
        prm[PRM.HDR] = plan.header_flits
        prm[PRM.CL] = plan.cl_flits
        prm[PRM.CHUNK] = LOOKAHEAD_CHUNK


_layouts: "OrderedDict[tuple[int, int], ColumnLayout]" = OrderedDict()
_layouts_lock = threading.Lock()


def column_layout(kernel: ctypes.CDLL, plan: TopologyPlan, replicas: int) -> ColumnLayout:
    """The shared :class:`ColumnLayout` of *plan* over *replicas*.

    Keyed on the plan object itself (a layout holds its plan, so the
    identity cannot be reused while the entry lives): a plan the cache
    in :func:`~repro.core.plan.topology_plan` hands out again gets the
    same columns, any other plan its own.
    """
    key = (id(plan), replicas)
    with _layouts_lock:
        layout = _layouts.get(key)
        if layout is not None and layout.plan is plan:
            _layouts.move_to_end(key)
            return layout
    layout = ColumnLayout(kernel, plan, replicas)
    with _layouts_lock:
        held = _layouts.get(key)
        if held is not None and held.plan is plan:
            return held  # a racing thread's, built first
        _layouts[key] = layout
        _layouts.move_to_end(key)
        while len(_layouts) > LAYOUT_CACHE_SIZE:
            _layouts.popitem(last=False)
    return layout


class ColumnarEngine:
    """All replicas of one simulation point as flat columns for the kernel.

    The static columns come from the shared :class:`ColumnLayout` of the
    point's plan; an engine allocates only its dynamic state, its
    pointer table, and its miss streams.
    """

    def __init__(
        self,
        system: "SystemConfig",
        workload: WorkloadConfig,
        params: SimulationParams,
        seeds: Sequence[int],
    ):
        if not seeds:
            raise ConfigurationError("ColumnarEngine needs at least one seed")
        kernel = ckernel.load()
        if kernel is None or not _kernel_models(system, workload):
            raise ConfigurationError(
                "ColumnarEngine needs the compiled kernel and a point it "
                "models (wormhole switching, no bursty injection); "
                "simulate_columnar runs anything else under "
                "scheduler='compiled' instead"
            )
        self._kernel = kernel
        self.system = system
        self.workload = workload
        self.params = params
        self.seeds = tuple(int(s) for s in seeds)
        self.replicas = len(self.seeds)
        self.cycle = 0
        self._bypass = params.flow_control == "bypass"
        self._threshold = params.deadlock_threshold
        #: Optional sampled-cycle hook (the materialization audit):
        #: called with the engine every ``hook_interval`` active cycles.
        self.cycle_hook: Callable[["ColumnarEngine"], None] | None = None
        self.hook_interval = 0

        # ---- replica-independent topology tables (local ids) ----
        plan = self.plan = topology_plan(system, workload)
        self.kind = plan.kind
        self.processors = plan.processors
        self.levels = plan.levels
        self.opportunities_per_cycle = {n: plan.opportunities_per_cycle[n] for n in self.levels}
        #: Per-replica buffer names, for diagnostics and materialization.
        self.buffer_names = plan.buffer_names
        self.buffers_per_replica = len(plan.buffer_names)
        self.ports_per_replica = len(plan.port_names)
        self.iri_contracts = plan.iri_contracts
        self._t_caps = plan.caps
        self._t_port_names = plan.port_names
        self._routers_per_replica = plan.routers
        # ---- the shared static columns, tiled across replicas ----
        layout = self._layout = column_layout(kernel, plan, self.replicas)
        self._sent = layout.sent
        self._smask = layout.smask
        self._blog = layout.blog
        self._is_sink = layout.is_sink
        self._m_router5 = layout.m_router5
        self._route_flat = layout.route
        # ---- this point's dynamic state ----
        self._build_state()
        # ---- pointer/param tables; seed and prime the miss streams ----
        self._k_init()

    # ------------------------------------------------------------------
    # replica-tiled dynamic state
    # ------------------------------------------------------------------
    def _build_state(self) -> None:
        plan = self.plan
        R = self.replicas
        B = self.buffers_per_replica
        P = self.processors
        L = len(self.levels)
        NB = R * B
        capm = self._smask + 1
        self._occ = _ints(NB + 1)
        self._head = _ints(NB + 1)
        self._slots = _ints((NB + 1) * capm)

        U = self.ports_per_replica
        NU = R * U
        self._mid = _ints(NU, code="B")
        self._rem = _ints(NU)
        self._cont_src = _ints(NU, self._sent)
        self._cont_dst = _ints(NU, self._sent)

        if self.kind == "mesh":
            NI = R * self._routers_per_replica * 5
            self._claimed = _ints(NI, code="B")
            self._rr = _ints(NU)
            self._lock = _ints(NU, -1)
            # per row, the input that won; per router, its first output
            # port (the kernel derives it from ``_m_router5``)
            self._k_row_in = _ints(NU)
            self._k_port_lo = _ints(R * self._routers_per_replica + 1)

        NP_ = R * P
        self._np_ = NP_
        self._outstanding = _ints(NP_)
        self._rem_open = _ints(NP_)
        self._rx_cnt = _ints(NP_)
        self._rx_pid = _ints(NP_)
        self._t_limit = self.workload.outstanding

        # M-MRP columns: cycles to the next miss, the "that countdown
        # ends a run of failures, not a miss" flag, the parked miss, and
        # one MT19937 state per column with the key it is seeded from
        # (little-endian 32-bit words, zero-padded to the widest key).
        self._countdown = _ints(NP_)
        self._draw_more = _ints(NP_, code="B")
        self._pend = _ints(NP_, code="B")
        self._pend_read = _ints(NP_, code="B")
        self._pend_tgt = _ints(NP_)
        self._mt = _ints(NP_ * _MT_STATE, code="I")
        keys = _stream_keys(self.seeds, P)
        self._key_words = max(1, (max(keys).bit_length() + 31) // 32)
        self._mt_key = array(
            "I",
            [(key >> 32 * w) & 0xFFFFFFFF for key in keys for w in range(self._key_words)],
        )

        # Memory and local-completion pipelines: the service latency is
        # one constant, so ready times are non-decreasing in accept
        # order and a flat circular FIFO needs one head comparison.
        mq = _pow2(NP_ * self._t_limit + NP_ + 8)
        self._k_mq_mask = mq - 1
        self._k_mem_ready = _ints(mq)
        self._k_mem_pm = _ints(mq)
        self._k_mem_pid = _ints(mq)
        self._k_loc_ready = _ints(mq)
        self._k_loc_pm = _ints(mq)
        # Staging for packets waiting on output-queue space, one FIFO
        # per queue (``ColumnLayout.stg_q``), linked through the packet
        # table's ``_pkt_next`` (packet 0 ends a list) — the queues are
        # independent, so the order columns drain in cannot show.  The
        # kernel's scratch: the columns its drain must try, and per
        # buffer the column waiting for it to pop.
        self._stg_head = _ints(2 * NP_)
        self._stg_tail = _ints(2 * NP_)
        self._k_stg_dirty = _ints(2 * NP_)
        self._k_stg_wait = _ints(NB + 1)

        # Packet table (flat, growable; row 0 is a reserved dummy).
        self._pkt_dest = _ints(_PKT_ROWS)
        self._pkt_src = _ints(_PKT_ROWS)
        self._pkt_size = _ints(_PKT_ROWS, 1)
        self._pkt_issue = _ints(_PKT_ROWS)
        self._pkt_resp = _ints(_PKT_ROWS, code="B")
        self._pkt_read = _ints(_PKT_ROWS, code="B")
        # Routing code ``2*dest + is_resp`` — the propose path's single
        # per-packet gather, indexing the flat port routing table.
        self._pkt_rt = _ints(_PKT_ROWS)
        self._pkt_next = _ints(_PKT_ROWS)

        # One subcycle's proposal rows (at most one per port, appended
        # in ascending port order): port, source and destination
        # buffer, packet id, survives-resolve flag.
        self._k_row_port = _ints(NU)
        self._k_row_src = _ints(NU)
        self._k_row_dst = _ints(NU)
        self._k_row_pid = _ints(NU)
        self._k_row_live = _ints(NU, code="B")
        # Per buffer, the stamped row that drains / fills it, and the
        # resolver's stack (<= NU seeds + one push per revocation).
        self._k_drainer = _ints(NB + 1)
        self._k_filler = _ints(NB + 1)
        self._k_work = _ints(2 * NU)
        # Packets completed this cycle as (pm, packet) pairs: a PM
        # ejects at most one flit per subcycle.
        self._k_comp = _ints(2 * plan.subcycles * NP_)
        # The kernel's live sets, rebuilt from the columns on every
        # entry (units: ring ports, mesh routers): the unit reading each
        # buffer, and per unit its flits and a live bit; per PM column,
        # a bit for "generate must visit it".
        units = NU if self.kind == "ring" else R * self._routers_per_replica
        self._k_live_of = _ints(NB + 1)
        self._k_live_cnt = _ints(units)
        self._k_live_bits = _ints((units + 63) // 64, code="Q")
        self._k_pm_bits = _ints((NP_ + 63) // 64, code="Q")

        # Statistics: batch-scoped latency tallies + cumulative counters.
        self._rem_sum = _floats(R)
        self._rem_cnt = _ints(R)
        self._rem_min = _floats(R, math.inf)
        self._rem_max = _floats(R, -math.inf)
        self._rem_last = _floats(R, math.nan)
        self._loc_sum = _floats(R)
        self._loc_cnt_stat = _ints(R)
        self._loc_min = _floats(R, math.inf)
        self._loc_max = _floats(R, -math.inf)
        self._loc_last = _floats(R, math.nan)
        self.remote_completed = _ints(R)
        self.local_completed = _ints(R)
        self.remote_issued = _ints(R)
        self.local_issued = _ints(R)
        self._flits_level = _ints(R * L + 1)
        self.flits_moved_replica = _ints(R)
        self._cyc_prop = _ints(R)
        self._cyc_comm = _ints(R)
        self._stalled = _ints(R)

        # Scalars the kernel owns (``_kstate``) and their mirrors here.
        self._kstate = _ints(KS.COUNT)
        self._kstate[KS.NPKT] = 1
        self._kstate[KS.PKT_CAP] = _PKT_ROWS
        self._npkt = 1
        self._net_flits = 0

    # ------------------------------------------------------------------
    # the kernel's tables (see repro.core.ckernel)
    # ------------------------------------------------------------------
    def _k_init(self) -> None:
        """Fill the parameter vector and pointer table, then seed.

        The kernel shares every state column in place.  ``seed_streams``
        seeds each column's MT19937 from its key and draws its first
        inter-miss gap; from then on a column draws only when its miss
        is consumed.
        """
        # the layout's constant part, then what this point sets
        prm = (ctypes.c_int64 * PRM.COUNT).from_buffer_copy(self._layout.prm)
        prm[PRM.T_LIMIT] = self._t_limit
        prm[PRM.BYPASS] = int(self._bypass)
        prm[PRM.THRESHOLD] = self._threshold
        prm[PRM.MQ_MASK] = self._k_mq_mask
        prm[PRM.KEY_WORDS] = self._key_words
        prm[PRM.MISS_THR] = ckernel.bernoulli_threshold(self.workload.miss_rate)
        prm[PRM.READ_THR] = ckernel.bernoulli_threshold(self.workload.read_fraction)
        self._k_build_ptrs()
        # both tables are only ever written in place
        self._k_args = (self._k_ptr, prm)
        self._kernel.seed_streams(*self._k_args)

    def _k_build_ptrs(self) -> None:
        lay = self._layout
        dummy = self._occ  # valid pointer for slots the kind never reads
        ring = self.kind == "ring"
        cols: "list[array[int] | array[float]]" = [
            self._occ,
            self._head,
            self._slots,
            lay.cap,
            lay.is_sink,
            lay.sink_pm,
            self._mid,
            self._rem,
            self._cont_src,
            self._cont_dst,
            lay.psrc3,
            lay.rt_tbl,
            lay.fast,
            lay.lvl_of,
            lay.r_of_port,
            lay.in_buf,
            lay.lq_resp,
            lay.lq_req,
            lay.route,
            lay.m_dst,
            lay.m_dir,
            lay.m_router5,
            dummy if ring else self._claimed,
            dummy if ring else self._rr,
            dummy if ring else self._lock,
            lay.stg_q,
            lay.stg_qcap,
            self._stg_head,
            self._stg_tail,
            self._pkt_next,
            self._outstanding,
            self._rem_open,
            self._rx_cnt,
            self._rx_pid,
            lay.pm_local,
            lay.r_of_pm,
            self._pend,
            self._pend_read,
            self._pend_tgt,
            self._countdown,
            self._draw_more,
            self._mt,
            self._mt_key,
            lay.pool,
            lay.pool_row,
            self._pkt_dest,
            self._pkt_src,
            self._pkt_size,
            self._pkt_issue,
            self._pkt_resp,
            self._pkt_read,
            self._pkt_rt,
            self._k_mem_ready,
            self._k_mem_pm,
            self._k_mem_pid,
            self._k_loc_ready,
            self._k_loc_pm,
            self._stalled,
            self._rem_sum,
            self._rem_cnt,
            self._rem_min,
            self._rem_max,
            self._rem_last,
            self._loc_sum,
            self._loc_cnt_stat,
            self._loc_min,
            self._loc_max,
            self._loc_last,
            self.remote_completed,
            self.local_completed,
            self.remote_issued,
            self.local_issued,
            self._flits_level,
            self.flits_moved_replica,
            self._k_row_port,
            self._k_row_src,
            self._k_row_dst,
            self._k_row_pid,
            dummy if ring else self._k_row_in,
            self._k_row_live,
            self._k_drainer,
            self._k_filler,
            self._k_work,
            self._k_comp,
            self._cyc_prop,
            self._cyc_comm,
            self._k_live_of,
            self._k_live_cnt,
            self._k_live_bits,
            dummy if ring else self._k_port_lo,
            self._k_stg_dirty,
            self._k_stg_wait,
            self._k_pm_bits,
            self._kstate,
        ]
        assert PTR.COUNT == len(cols)
        # A column's address is good for as long as nothing resizes it:
        # only the packet table ever is, and that refreshes its slots.
        self._k_ptr = (ctypes.c_void_p * PTR.COUNT)(*map(_addr, cols))

    def _k_grow_packets(self) -> None:
        """Grow the packet table and refresh the kernel pointer slots."""
        ks = self._kstate
        n = ks[KS.NPKT]
        need = n + 2 * self._np_ + 4
        rows = len(self._pkt_dest)
        if need <= rows:
            return
        new_rows = _pow2(2 * need)
        for slot, column in (
            (PTR.PKT_DEST, self._pkt_dest),
            (PTR.PKT_SRC, self._pkt_src),
            (PTR.PKT_SIZE, self._pkt_size),
            (PTR.PKT_ISSUE, self._pkt_issue),
            (PTR.PKT_RESP, self._pkt_resp),
            (PTR.PKT_READ, self._pkt_read),
            (PTR.PKT_RT, self._pkt_rt),
            (PTR.PKT_NEXT, self._pkt_next),
        ):
            column.extend(_ints(new_rows - rows, code=column.typecode))
            self._k_ptr[slot] = _addr(column)
        ks[KS.PKT_CAP] = new_rows

    def _k_sync(self) -> None:
        """Refresh the python-side mirrors of the kernel's scalar state."""
        ks = self._kstate
        self.cycle = ks[KS.CYCLE]
        self._npkt = ks[KS.NPKT]
        self._net_flits = ks[KS.NET_FLITS]

    # ------------------------------------------------------------------
    # the clock loop
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        """Step *cycles* cycles, handing back only to grow the packet
        table or to fire the sampled-cycle hook."""
        step = self._kernel.step_cycles
        ks = self._kstate
        target = self.cycle + cycles
        hook = self.cycle_hook
        interval = self.hook_interval if hook is not None else 0
        last_hooked = -1
        while self.cycle < target:
            if interval > 0:
                seg = min(target, (self.cycle // interval + 1) * interval)
            else:
                seg = target
            self._k_grow_packets()
            ks[KS.CYCLE] = self.cycle
            status = int(step(*self._k_args, seg - self.cycle))
            self._k_sync()
            if status == STATUS_PKT_GROW:
                continue
            if status == STATUS_DEADLOCK:
                replica = ks[KS.ARG]
                # a batch of one is a solo run: ``compiled``'s message
                detail = (
                    f"columnar replica {replica} (seed {self.seeds[replica]})"
                    if self.replicas > 1
                    else ""
                )
                raise DeadlockError(self.cycle, self._stalled[replica], detail=detail)
            if (
                hook is not None
                and interval > 0
                and self.cycle % interval == 0
                and self.cycle != last_hooked
                and self.cycle > 0
            ):
                last_hooked = self.cycle
                hook(self)

    # ------------------------------------------------------------------
    # statistics handoff
    # ------------------------------------------------------------------
    def local_pending_counts(self) -> list[int]:
        """In-flight local accesses per (replica, pm) column (audit use)."""
        ks = self._kstate
        head = ks[KS.LOC_HEAD]
        counts = [0] * self._np_
        for i in range(ks[KS.LOC_CNT]):
            counts[self._k_loc_pm[(head + i) & self._k_mq_mask]] += 1
        return counts

    def take_batch(self) -> "tuple[list[_Tally], list[_Tally]]":
        """Per replica, the remote and the local latency tallies of the
        batch just run as ``(sum, count, min, max, last)``; resets them
        (the ``last`` diagnostics carry over)."""
        groups: "tuple[tuple[array[int] | array[float], ...], ...]" = (
            (self._rem_sum, self._rem_cnt, self._rem_min, self._rem_max, self._rem_last),
            (self._loc_sum, self._loc_cnt_stat, self._loc_min, self._loc_max, self._loc_last),
        )
        taken: "list[list[_Tally]]" = []
        for columns in groups:
            taken.append(list(zip(*columns)))
            for column, start in zip(columns, (0.0, 0, math.inf, -math.inf)):
                column[:] = array(column.typecode, [start]) * self.replicas
        return taken[0], taken[1]

    def close_batch(self, meters: "Sequence[BatchMeters]") -> None:
        """Close the batch just run into every replica's meters: the
        latency tallies through :meth:`LatencyStats.observe_batch`, the
        cumulative transaction and flit counters as they stand."""
        remote, local = self.take_batch()
        L = len(self.levels)
        for r, replica in enumerate(meters):
            metrics = replica.metrics
            metrics.remote_latency.observe_batch(*remote[r])
            metrics.local_latency.observe_batch(*local[r])
            metrics.remote_completed = self.remote_completed[r]
            metrics.local_completed = self.local_completed[r]
            replica.close_batch(
                self._flits_level[r * L : (r + 1) * L], self.cycle, self.flits_moved_replica[r]
            )


def simulate_columnar(
    system: "SystemConfig",
    workload: WorkloadConfig | None = None,
    params: SimulationParams | None = None,
    seeds: Sequence[int] | None = None,
    cycle_hook: Callable[[ColumnarEngine], None] | None = None,
    hook_interval: int = 0,
    miss_sources: "Sequence[MissSource] | None" = None,
) -> "list[SimulationResult]":
    """Run N seeds of one point on the kernel tier; one result per seed.

    The batch-means schedule is :func:`repro.core.simulation.simulate_batch`'s
    own (one loop, per-replica :class:`~repro.core.simulation.BatchMeters`);
    the kernel's part is :meth:`ColumnarEngine.close_batch`.  Each
    result serializes to the bytes of a solo ``compiled`` run of its
    seed and carries ``scheduler="columnar"`` in its ``params`` (an
    execution detail, like ``"batched"``).  Where :func:`kernel_can_run`
    says no, the seeds run under ``compiled`` one by one, and
    ``cycle_hook`` — which needs columns to look at — is not called.
    ``miss_sources`` (always that route) is only meaningful for a batch
    of one: the sources are stateful objects.
    """
    from .simulation import _run_batches

    params = replace(params or DEFAULT_SIM, scheduler="columnar")
    return _run_batches(
        system, workload, params, seeds, miss_sources,
        cycle_hook=cycle_hook, hook_interval=hook_interval,
    )


__all__ = [
    "LAYOUT_CACHE_SIZE",
    "ColumnLayout",
    "ColumnarEngine",
    "column_layout",
    "kernel_can_run",
    "simulate_columnar",
]
