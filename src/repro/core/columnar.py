"""Kernel tier: every replica of one point as flat columns, stepped in C.

The ``"columnar"`` scheduler is the fifth *bit-exact* scheduler.  All
replica state lives in struct-of-arrays numpy buffers flattened across
replicas, and :mod:`repro.core.ckernel` — a C kernel compiled once per
process — runs the cycle loop over them:

* every flit buffer is a circular column of packet ids
  (``_slots``/``_head``/``_occ``) — a flit is just its packet id, since
  wormhole contiguity pins which flit of the packet each slot holds;
* every ring/mesh output port is a row of static columns (send-priority
  sources, the downstream classification table) plus dynamic wormhole
  state (``_mid``/``_rem``/``_cont_src``/``_cont_dst``);
* the PM update phase (eject, memory service, local completion, M-MRP
  generation, staging drain — in the object model's order) runs over
  flattened ``(replica, pm)`` columns, with the memory pipeline,
  local-completion and staging queues as circular timer arrays;
* every ``(replica, pm)`` column owns one MT19937 state, seeded in C
  the way ``random.Random(seed * 1_000_003 + pm_id)`` seeds itself, and
  the kernel consumes it draw for draw as
  :meth:`~repro.core.processor.MissGenerator._advance_schedule` does
  (DESIGN.md §9 has the discipline table).

A replica's result therefore serializes to the same bytes as a solo
``compiled`` run of its seed — ``tests/integration/test_columnar.py``
holds the kernel to that over fabrics, loads, flow controls, patterns
and seeds — so columnar results are ordinary canonical cache entries,
and a host without a C compiler (or with ``REPRO_COLUMNAR_KERNEL=0``)
loses speed, not behaviour: :func:`simulate_columnar` then runs each
seed under ``compiled``.  This module builds the columns, hands them to
the kernel and turns its tallies into :class:`SimulationResult` s; the
audit tier (:mod:`repro.audit.stat_equiv`) can materialize a replica's
columns back into object form at sampled cycles.

What the tier does not model, it rejects on either route: slotted ring
switching, bursty (Markov-modulated) injection, and caller-supplied
miss sources.

The ``last`` latency diagnostic is recorded in ascending port order,
which matches the object model's PM-order recording except when a
double-speed system completes two packets for one replica in different
subcycles of the same cycle; it is not part of any result.
"""

from __future__ import annotations

import ctypes
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from . import ckernel
from .ckernel import KS, PRM, PTR, STATUS_DEADLOCK, STATUS_PKT_GROW
from .config import (
    DEFAULT_SIM,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from .errors import ConfigurationError, DeadlockError
from .pm import MetricsHub
from .processor import LOOKAHEAD_CHUNK, MissGenerator
from .statistics import RateMeter

if TYPE_CHECKING:
    from .simulation import SimulationResult, SystemConfig

I64 = NDArray[np.int64]
F64 = NDArray[np.float64]
B1 = NDArray[np.bool_]

#: Effectively-unbounded capacity for ejection sinks and the sentinel.
_SINK_CAP = 1 << 30
#: Words of one MT19937 column: the 624-word state and its read index.
_MT_STATE = 625


def _pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _reject_unmodelled(system: "SystemConfig", workload: WorkloadConfig) -> None:
    """What the tier cannot run, refused the same with or without a kernel."""
    if isinstance(system, RingSystemConfig) and system.switching == "slotted":
        raise ConfigurationError(
            "the columnar scheduler does not support slotted switching; "
            "use scheduler='compiled'"
        )
    if workload.bursty:
        # The kernel draws MissGenerator's stream only: one Bernoulli
        # per cycle, no Markov on/off chain in front of it.
        raise ConfigurationError(
            "the columnar scheduler does not support bursty "
            "(burst_on/burst_off) injection; use scheduler='compiled'"
        )


def _stream_keys(seeds: Sequence[int], processors: int) -> list[int]:
    """What ``random.Random`` is seeded with, per (replica, pm) column.

    The networks give PM *pm* of a run ``random.Random(seed * 1_000_003
    + pm)``, which seeds from the absolute value.
    """
    return [abs(seed * 1_000_003 + pm) for seed in seeds for pm in range(processors)]


class ColumnarEngine:
    """All replicas of one simulation point as flat columns for the kernel."""

    def __init__(
        self,
        system: "SystemConfig",
        workload: WorkloadConfig,
        params: SimulationParams,
        seeds: Sequence[int],
    ):
        _reject_unmodelled(system, workload)
        if not seeds:
            raise ConfigurationError("ColumnarEngine needs at least one seed")
        kernel = ckernel.load()
        if kernel is None:
            raise ConfigurationError(
                "ColumnarEngine needs the compiled kernel (no C compiler, "
                "or REPRO_COLUMNAR_KERNEL=0); simulate_columnar runs the "
                "same seeds under scheduler='compiled' instead"
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
        self._extract_topology()
        # ---- tile across replicas + allocate dynamic state ----
        self._build_state()
        # ---- pointer/param tables; seed and prime the miss streams ----
        self._k_init()

    # ------------------------------------------------------------------
    # topology extraction: walk one object network, emit flat tables
    # ------------------------------------------------------------------
    def _extract_topology(self) -> None:
        from .simulation import build_network

        network = build_network(self.system, self.workload, MetricsHub(), seed=0)
        self.processors = len(network.pms)
        self.levels: list[str] = list(network.levels_present)
        self.opportunities_per_cycle: dict[str, float] = {
            level: network.opportunities(1, level) for level in self.levels
        }

        geometry = self.system.geometry
        self._hdr_size = geometry.header_flits
        self._cl_size = geometry.cl_packet_flits

        names: list[str] = []
        caps: list[int] = []
        sink_pm: list[int] = []
        index: dict[int, int] = {}

        def add(buf: object, cap: int | None, pm: int = -1) -> int:
            idx = len(names)
            index[id(buf)] = idx
            names.append(getattr(buf, "name", f"buf{idx}"))
            caps.append(_SINK_CAP if cap is None else int(cap))
            sink_pm.append(pm)
            return idx

        for pm_obj in network.pms:
            add(pm_obj.in_queue, None, pm_obj.pm_id)
            add(pm_obj.out_resp, pm_obj.out_resp.capacity)
            add(pm_obj.out_req, pm_obj.out_req.capacity)

        #: ``(buffer, lo, hi, inside, is_resp)`` routing contracts of the
        #: IRI change queues, for the materialization audit.
        self.iri_contracts: list[tuple[int, int, int, bool, bool]] = []

        from ..ring.network import HierarchicalRingNetwork

        if isinstance(network, HierarchicalRingNetwork):
            self.kind = "ring"
            for nic in network.nics:
                add(nic.transit_buffer, nic.transit_buffer.capacity)
            for iri in network.iris.values():
                for buf in iri.buffers:
                    add(buf, buf.capacity)
                lo, hi = iri.subtree_range
                self.iri_contracts += [
                    (index[id(iri.up_req)], lo, hi, False, False),
                    (index[id(iri.up_resp)], lo, hi, False, True),
                    (index[id(iri.down_req)], lo, hi, True, False),
                    (index[id(iri.down_resp)], lo, hi, True, True),
                ]
            self._extract_ring_ports(network, index)
        else:
            self.kind = "mesh"
            for router in network.routers:
                for direction in ("N", "E", "S", "W"):
                    buf = router.input_buffers[direction]
                    add(buf, buf.capacity)
            self._extract_mesh_ports(network, index)

        #: Per-replica buffer names, for diagnostics and materialization.
        self.buffer_names = names
        self._t_caps = np.asarray(caps, dtype=np.int64)
        self._t_sink_pm = np.asarray(sink_pm, dtype=np.int64)
        self.buffers_per_replica = len(names)
        self._t_out_resp = np.asarray(
            [index[id(pm.out_resp)] for pm in network.pms], dtype=np.int64
        )
        self._t_out_req = np.asarray(
            [index[id(pm.out_req)] for pm in network.pms], dtype=np.int64
        )
        # The kernel draws targets from the selector the PMs were built
        # with: same pools in the same order, by construction (a
        # target's multiplicity is its weight, so hotspot is exact).
        # Row = (offset, length, getrandbits width of ``_randbelow``);
        # width 0 means "no draw".  The two selectors differ on a lone
        # target: RegionTargetSelector (M-MRP) still calls randrange,
        # PatternTargetSelector returns it without touching the stream.
        from ..workload.mmrp import RegionTargetSelector
        from ..workload.patterns import PatternTargetSelector

        generator = network.pms[0].generator
        assert isinstance(generator, MissGenerator)
        selector = generator._select
        if isinstance(selector, RegionTargetSelector):
            pools, lone_bits = selector.regions, 1
        else:
            assert isinstance(selector, PatternTargetSelector)
            pools, lone_bits = selector.pools, 0
        flat: list[int] = []
        offsets: dict[tuple[int, ...], int] = {}
        rows: list[tuple[int, int, int]] = []
        for pool in pools:
            offset = offsets.setdefault(tuple(pool), len(flat))
            if offset == len(flat):
                flat.extend(pool)
            n = len(pool)
            rows.append((offset, n, lone_bits if n == 1 else n.bit_length()))
        if max(row[2] for row in rows) > 32:
            raise ConfigurationError("target pools are limited to 2**32 - 1 entries")
        self._pool = np.asarray(flat, dtype=np.int64)
        self._pool_row = np.asarray(rows, dtype=np.int64)
        self._mem_lat = int(network.pms[0].memory.latency)

    def _extract_ring_ports(
        self, network: object, index: dict[int, int]
    ) -> None:
        from ..ring.iri import InterRingInterface
        from ..ring.network import HierarchicalRingNetwork
        from ..ring.nic import RingNIC

        assert isinstance(network, HierarchicalRingNetwork)
        ports = list(network.nics) + [
            p
            for iri in network.iris.values()
            for p in (iri.lower_port, iri.upper_port)
        ]
        owner: dict[int, tuple[str, InterRingInterface]] = {}
        for iri in network.iris.values():
            owner[id(iri.lower_port)] = ("lower", iri)
            owner[id(iri.upper_port)] = ("upper", iri)

        srcs = np.full((len(ports), 3), -1, dtype=np.int64)
        lo = np.zeros(len(ports), dtype=np.int64)
        hi = np.zeros(len(ports), dtype=np.int64)
        din_r = np.zeros(len(ports), dtype=np.int64)
        din_q = np.zeros(len(ports), dtype=np.int64)
        dout_r = np.zeros(len(ports), dtype=np.int64)
        dout_q = np.zeros(len(ports), dtype=np.int64)
        fast = np.zeros(len(ports), dtype=np.bool_)
        lvl = np.zeros(len(ports), dtype=np.int64)

        for u, port in enumerate(ports):
            for j, buf in enumerate(port.sources_by_priority):
                srcs[u, j] = index[id(buf)]
            fast[u] = port.speed == 2
            assert port.out_channel is not None and port.downstream is not None
            lvl[u] = self.levels.index(port.out_channel.klass)
            dp = port.downstream
            if isinstance(dp, RingNIC):
                lo[u], hi[u] = dp._pm_id, dp._pm_id + 1
                din_r[u] = din_q[u] = index[id(dp._pm_in_queue)]
                dout_r[u] = dout_q[u] = index[id(dp.transit_buffer)]
            else:
                side, iri = owner[id(dp)]
                lo[u], hi[u] = iri.subtree_range
                if side == "lower":
                    din_r[u] = din_q[u] = index[id(dp.transit_buffer)]
                    dout_r[u] = index[id(iri.up_resp)]
                    dout_q[u] = index[id(iri.up_req)]
                else:
                    din_r[u] = index[id(iri.down_resp)]
                    din_q[u] = index[id(iri.down_req)]
                    dout_r[u] = dout_q[u] = index[id(dp.transit_buffer)]

        self.ports_per_replica = len(ports)
        self._t_port_names = [p.name for p in ports]
        self._t_srcs = srcs
        self._t_lo, self._t_hi = lo, hi
        self._t_din_r, self._t_din_q = din_r, din_q
        self._t_dout_r, self._t_dout_q = dout_r, dout_q
        self._t_fast = fast
        self._t_lvl = lvl
        self._subcycles = 2 if bool(fast.any()) else 1

    def _extract_mesh_ports(self, network: object, index: dict[int, int]) -> None:
        from ..mesh.network import MeshNetwork
        from ..mesh.router import OUTPUT_ORDER
        from ..mesh.routing import ecube_next_hop_rows

        assert isinstance(network, MeshNetwork)
        routers = network.routers
        P = self.processors
        V = len(routers)

        # Router-input tables: 5 columns per router (N,E,S,W,LOCAL).
        in_buf = np.zeros((V, 5), dtype=np.int64)
        lq_resp = np.zeros(V, dtype=np.int64)
        lq_req = np.zeros(V, dtype=np.int64)
        for v, router in enumerate(routers):
            for j, direction in enumerate(("N", "E", "S", "W")):
                in_buf[v, j] = index[id(router.input_buffers[direction])]
            lq_resp[v] = index[id(router._local_queues[0])]
            lq_req[v] = index[id(router._local_queues[1])]
            in_buf[v, 4] = lq_resp[v]  # placeholder; resolved per cycle

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

        # The compiled routers' cached next-hop rows (one byte per
        # (node, destination), an index into the shared port order),
        # widened to the columns' dtype.
        rows = ecube_next_hop_rows(network.shape)
        route = (
            np.frombuffer(b"".join(rows), dtype=np.uint8)
            .astype(np.int64)
            .reshape(V, P)
        )

        self.ports_per_replica = len(m_router)
        self._t_port_names = port_names
        self._t_m_router = np.asarray(m_router, dtype=np.int64)
        self._t_m_dir = np.asarray(m_dir, dtype=np.int64)
        self._t_m_dst = np.asarray(m_dst, dtype=np.int64)
        self._t_m_chan = np.asarray(m_chan, dtype=np.bool_)
        self._t_in_buf = in_buf
        self._t_lq_resp, self._t_lq_req = lq_resp, lq_req
        self._t_route = route
        self._routers_per_replica = V
        self._subcycles = 1

    # ------------------------------------------------------------------
    # replica-tiled dynamic state
    # ------------------------------------------------------------------
    def _tile_buf(self, col: I64) -> I64:
        """Tile a buffer-id column across replicas (-1 -> sentinel)."""
        R, B = self.replicas, self.buffers_per_replica
        base = np.tile(col, R)
        off = np.repeat(np.arange(R, dtype=np.int64) * B, col.shape[0])
        out = base + off
        out[base < 0] = self._sent
        return out

    def _build_state(self) -> None:
        R = self.replicas
        B = self.buffers_per_replica
        P = self.processors
        L = len(self.levels)
        NB = R * B
        self._sent = NB  # sentinel buffer: occupancy pinned to 0

        capm = _pow2(int(self._t_caps[self._t_caps < _SINK_CAP].max()))
        self._smask = capm - 1
        self._blog = capm.bit_length() - 1
        self._occ = np.zeros(NB + 1, dtype=np.int64)
        self._head = np.zeros(NB + 1, dtype=np.int64)
        self._slots = np.zeros((NB + 1) * capm, dtype=np.int64)
        self._cap = np.concatenate(
            [np.tile(self._t_caps, R), np.asarray([_SINK_CAP], dtype=np.int64)]
        )
        self._is_sink = np.concatenate(
            [np.tile(self._t_sink_pm >= 0, R), np.asarray([False])]
        )
        sink_local = np.tile(self._t_sink_pm, R)
        sink_off = np.repeat(np.arange(R, dtype=np.int64) * P, B)
        self._sink_pm = np.concatenate(
            [
                np.where(sink_local >= 0, sink_local + sink_off, -1),
                np.asarray([-1], dtype=np.int64),
            ]
        )

        U = self.ports_per_replica
        NU = R * U
        self._r_of_port = np.repeat(np.arange(R, dtype=np.int64), U)
        self._mid = np.zeros(NU, dtype=np.bool_)
        self._rem = np.zeros(NU, dtype=np.int64)
        self._cont_src = np.full(NU, self._sent, dtype=np.int64)
        self._cont_dst = np.full(NU, self._sent, dtype=np.int64)

        if self.kind == "ring":
            self._psrc3 = np.stack(
                [self._tile_buf(self._t_srcs[:, j]) for j in range(3)]
            )
            # Flat routing table: port x (2*dest + is_resp) -> output
            # buffer.  One gather replaces the classifier compare/where
            # chain in the propose hot path.
            dests = np.arange(P, dtype=np.int64)
            inr = (self._t_lo[:, None] <= dests[None, :]) & (
                dests[None, :] < self._t_hi[:, None]
            )
            tbl = np.empty((U, P, 2), dtype=np.int64)
            tbl[:, :, 0] = np.where(
                inr, self._t_din_q[:, None], self._t_dout_q[:, None]
            )
            tbl[:, :, 1] = np.where(
                inr, self._t_din_r[:, None], self._t_dout_r[:, None]
            )
            self._rt_tbl = self._tile_buf(tbl.reshape(-1))
            self._fast = np.tile(self._t_fast, R)
            self._lvl_of = np.tile(self._t_lvl, R) + self._r_of_port * L
        else:
            V = self._routers_per_replica
            self._m_dst = self._tile_buf(self._t_m_dst)
            self._m_dir = np.tile(self._t_m_dir, R)
            router_flat = np.tile(self._t_m_router, R) + np.repeat(
                np.arange(R, dtype=np.int64) * V, U
            )
            self._m_router5 = router_flat * 5
            self._in_buf = self._tile_buf(self._t_in_buf.reshape(-1))
            self._lq_resp = self._tile_buf(self._t_lq_resp)
            self._lq_req = self._tile_buf(self._t_lq_req)
            self._route_flat = self._t_route.reshape(-1)
            NI = R * V * 5
            self._claimed = np.zeros(NI, dtype=np.bool_)
            self._rr = np.zeros(NU, dtype=np.int64)
            self._lock = np.full(NU, -1, dtype=np.int64)
            # ejection ports carry no channel: tallied in a spare slot
            self._lvl_of = np.where(
                np.tile(self._t_m_chan, R), self._r_of_port * L, R * L
            )
            # Per (router, direction) the mask of inputs whose head
            # requests it, per router input the buffer that head would
            # leave, and per row the input that won.
            self._k_req = np.zeros(NI, dtype=np.int64)
            self._k_req_src = np.zeros(NI, dtype=np.int64)
            self._k_row_in = np.zeros(NU, dtype=np.int64)

        NP_ = R * P
        self._np_ = NP_
        self._pm_local = np.tile(np.arange(P, dtype=np.int64), R)
        self._r_of_pm = np.repeat(np.arange(R, dtype=np.int64), P)
        self._outstanding = np.zeros(NP_, dtype=np.int64)
        self._rem_open = np.zeros(NP_, dtype=np.int64)
        self._rx_cnt = np.zeros(NP_, dtype=np.int64)
        self._rx_pid = np.zeros(NP_, dtype=np.int64)
        self._t_limit = self.workload.outstanding

        # M-MRP columns: cycles to the next miss, the "that countdown
        # ends a run of failures, not a miss" flag, the parked miss, and
        # one MT19937 state per column with the key it is seeded from.
        self._countdown = np.zeros(NP_, dtype=np.int64)
        self._draw_more = np.zeros(NP_, dtype=np.uint8)
        self._pend = np.zeros(NP_, dtype=np.bool_)
        self._pend_read = np.zeros(NP_, dtype=np.bool_)
        self._pend_tgt = np.zeros(NP_, dtype=np.int64)
        self._mt = np.zeros(NP_ * _MT_STATE, dtype=np.uint32)
        keys = _stream_keys(self.seeds, P)
        width = max(1, (max(keys).bit_length() + 31) // 32)
        self._mt_key = np.frombuffer(
            b"".join(key.to_bytes(4 * width, "little") for key in keys), dtype="<u4"
        ).astype(np.uint32)
        self._draw_p = np.asarray(
            [self.workload.miss_rate, self.workload.read_fraction], dtype=np.float64
        )

        # Memory and local-completion pipelines: the service latency is
        # one constant, so ready times are non-decreasing in accept
        # order and a flat circular FIFO needs one head comparison.
        mq = _pow2(NP_ * self._t_limit + NP_ + 8)
        self._k_mq_mask = mq - 1
        self._k_mem_ready = np.zeros(mq, dtype=np.int64)
        self._k_mem_pm = np.zeros(mq, dtype=np.int64)
        self._k_mem_pid = np.zeros(mq, dtype=np.int64)
        self._k_loc_ready = np.zeros(mq, dtype=np.int64)
        self._k_loc_pm = np.zeros(mq, dtype=np.int64)
        # Staging for packets waiting on output-queue space: responses
        # occupy columns [0, NP_), requests [NP_, 2*NP_) — the queues
        # are independent, so draining every response column before any
        # request column is the object model's responses-first order.
        self._stgcap = _pow2(max(2, P * self._t_limit))
        self._stgmask = self._stgcap - 1
        self._stg_pid = np.zeros(2 * NP_ * self._stgcap, dtype=np.int64)
        self._stg_head = np.zeros(2 * NP_, dtype=np.int64)
        self._stg_cnt = np.zeros(2 * NP_, dtype=np.int64)
        self._stg_q = np.concatenate(
            [self._tile_buf(self._t_out_resp), self._tile_buf(self._t_out_req)]
        )
        self._stg_qcap = self._cap[self._stg_q]

        # Packet table (flat, growable; row 0 is a reserved dummy).
        cap0 = 4096
        self._pkt_dest = np.zeros(cap0, dtype=np.int64)
        self._pkt_src = np.zeros(cap0, dtype=np.int64)
        self._pkt_size = np.ones(cap0, dtype=np.int64)
        self._pkt_issue = np.zeros(cap0, dtype=np.int64)
        self._pkt_resp = np.zeros(cap0, dtype=np.bool_)
        self._pkt_read = np.zeros(cap0, dtype=np.bool_)
        # Routing code ``2*dest + is_resp`` — the propose path's single
        # per-packet gather, indexing the flat port routing table.
        self._pkt_rt = np.zeros(cap0, dtype=np.int64)

        # One subcycle's proposal rows (at most one per port, appended
        # in ascending port order): port, source and destination
        # buffer, packet id, survives-resolve flag.
        self._k_row_port = np.zeros(NU, dtype=np.int64)
        self._k_row_src = np.zeros(NU, dtype=np.int64)
        self._k_row_dst = np.zeros(NU, dtype=np.int64)
        self._k_row_pid = np.zeros(NU, dtype=np.int64)
        self._k_row_live = np.zeros(NU, dtype=np.uint8)
        # Per buffer, the stamped row that drains / fills it, and the
        # resolver's stack (<= NU seeds + one push per revocation).
        self._k_drainer = np.zeros(NB + 1, dtype=np.int64)
        self._k_filler = np.zeros(NB + 1, dtype=np.int64)
        self._k_work = np.zeros(2 * NU, dtype=np.int64)
        # Packets completed this cycle as (pm, packet) pairs: a PM
        # ejects at most one flit per subcycle.
        self._k_comp = np.zeros(2 * self._subcycles * NP_, dtype=np.int64)

        # Statistics: batch-scoped latency tallies + cumulative counters.
        self._rem_sum = np.zeros(R, dtype=np.float64)
        self._rem_cnt = np.zeros(R, dtype=np.int64)
        self._rem_min = np.full(R, np.inf)
        self._rem_max = np.full(R, -np.inf)
        self._rem_last = np.full(R, np.nan)
        self._loc_sum = np.zeros(R, dtype=np.float64)
        self._loc_cnt_stat = np.zeros(R, dtype=np.int64)
        self._loc_min = np.full(R, np.inf)
        self._loc_max = np.full(R, -np.inf)
        self._loc_last = np.full(R, np.nan)
        self.remote_completed = np.zeros(R, dtype=np.int64)
        self.local_completed = np.zeros(R, dtype=np.int64)
        self.remote_issued = np.zeros(R, dtype=np.int64)
        self.local_issued = np.zeros(R, dtype=np.int64)
        self._flits_level = np.zeros(R * L + 1, dtype=np.int64)
        self.flits_moved_replica = np.zeros(R, dtype=np.int64)
        self._cyc_prop = np.zeros(R, dtype=np.int64)
        self._cyc_comm = np.zeros(R, dtype=np.int64)
        self._stalled = np.zeros(R, dtype=np.int64)

        # Scalars the kernel owns (``_kstate``) and their mirrors here.
        self._kstate = np.zeros(KS.COUNT, dtype=np.int64)
        self._kstate[KS.NPKT] = 1
        self._kstate[KS.PKT_CAP] = cap0
        self._npkt = 1
        self._net_flits = 0

    # ------------------------------------------------------------------
    # the kernel's tables (see repro.core.ckernel)
    # ------------------------------------------------------------------
    def _k_init(self) -> None:
        """Fill the parameter vector and pointer table, then seed.

        The kernel shares every state array in place.  ``seed_streams``
        seeds each column's MT19937 from its key and draws its first
        inter-miss gap; from then on a column draws only when its miss
        is consumed.
        """
        prm = np.zeros(PRM.COUNT, dtype=np.int64)
        prm[PRM.KIND] = 0 if self.kind == "ring" else 1
        prm[PRM.R] = self.replicas
        prm[PRM.U] = self.ports_per_replica
        prm[PRM.P] = self.processors
        prm[PRM.L] = len(self.levels)
        prm[PRM.NB] = self.replicas * self.buffers_per_replica
        prm[PRM.NU] = self._mid.shape[0]
        prm[PRM.NPM] = self._np_
        prm[PRM.V] = getattr(self, "_routers_per_replica", 0)
        prm[PRM.SENT] = self._sent
        prm[PRM.SMASK] = self._smask
        prm[PRM.BLOG] = self._blog
        prm[PRM.SUBC] = self._subcycles
        prm[PRM.MEM_LAT] = self._mem_lat
        prm[PRM.T_LIMIT] = self._t_limit
        prm[PRM.HDR] = self._hdr_size
        prm[PRM.CL] = self._cl_size
        prm[PRM.BYPASS] = int(self._bypass)
        prm[PRM.THRESHOLD] = self._threshold
        prm[PRM.STGCAP] = self._stgcap
        prm[PRM.STGMASK] = self._stgmask
        prm[PRM.MQ_MASK] = self._k_mq_mask
        prm[PRM.CHUNK] = LOOKAHEAD_CHUNK
        prm[PRM.KEY_WORDS] = self._mt_key.shape[0] // self._np_
        self._k_prm = prm
        self._k_build_ptrs()
        assert PTR.COUNT == len(self._k_arrs)
        # both tables are only ever written in place
        self._k_args = (
            self._k_ptr.ctypes.data_as(ctypes.POINTER(ctypes.c_void_p)),
            prm.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        )
        self._kernel.seed_streams(*self._k_args)

    def _k_build_ptrs(self) -> None:
        dummy = self._occ  # valid pointer for slots the kind never reads
        ring = self.kind == "ring"
        arrs: list[NDArray[np.int64] | NDArray[np.uint32] | NDArray[np.uint8] | B1 | F64] = [
            self._occ,
            self._head,
            self._slots,
            self._cap,
            self._is_sink.view(np.uint8),
            self._sink_pm,
            self._mid.view(np.uint8),
            self._rem,
            self._cont_src,
            self._cont_dst,
            self._psrc3 if ring else dummy,
            self._rt_tbl if ring else dummy,
            self._fast.view(np.uint8) if ring else dummy,
            self._lvl_of,
            self._r_of_port,
            dummy if ring else self._in_buf,
            dummy if ring else self._lq_resp,
            dummy if ring else self._lq_req,
            dummy if ring else self._route_flat,
            dummy if ring else self._m_dst,
            dummy if ring else self._m_dir,
            dummy if ring else self._m_router5,
            dummy if ring else self._claimed.view(np.uint8),
            dummy if ring else self._rr,
            dummy if ring else self._lock,
            self._stg_q,
            self._stg_qcap,
            self._stg_pid,
            self._stg_head,
            self._stg_cnt,
            self._outstanding,
            self._rem_open,
            self._rx_cnt,
            self._rx_pid,
            self._pm_local,
            self._r_of_pm,
            self._pend.view(np.uint8),
            self._pend_read.view(np.uint8),
            self._pend_tgt,
            self._countdown,
            self._draw_more,
            self._mt,
            self._mt_key,
            self._pool,
            self._pool_row,
            self._draw_p,
            self._pkt_dest,
            self._pkt_src,
            self._pkt_size,
            self._pkt_issue,
            self._pkt_resp.view(np.uint8),
            self._pkt_read.view(np.uint8),
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
            dummy if ring else self._k_req,
            dummy if ring else self._k_req_src,
            self._k_comp,
            self._cyc_prop,
            self._cyc_comm,
            self._kstate,
        ]
        self._k_arrs = arrs
        self._k_ptr = np.asarray(
            [a.ctypes.data for a in arrs], dtype=np.uint64
        )

    def _k_grow_packets(self) -> None:
        """Grow the packet table and refresh the kernel pointer slots."""
        ks = self._kstate
        n = int(ks[KS.NPKT])
        need = n + 2 * self._np_ + 4
        if need <= self._pkt_dest.shape[0]:
            return
        new_cap = _pow2(2 * need)
        for slot, attr in (
            (PTR.PKT_DEST, "_pkt_dest"),
            (PTR.PKT_SRC, "_pkt_src"),
            (PTR.PKT_SIZE, "_pkt_size"),
            (PTR.PKT_ISSUE, "_pkt_issue"),
            (PTR.PKT_RESP, "_pkt_resp"),
            (PTR.PKT_READ, "_pkt_read"),
            (PTR.PKT_RT, "_pkt_rt"),
        ):
            old = getattr(self, attr)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, attr, grown)
            shared = grown.view(np.uint8) if grown.dtype == np.bool_ else grown
            self._k_arrs[slot] = shared
            self._k_ptr[slot] = shared.ctypes.data
        ks[KS.PKT_CAP] = new_cap

    def _k_sync(self) -> None:
        """Refresh the python-side mirrors of the kernel's scalar state."""
        ks = self._kstate
        self.cycle = int(ks[KS.CYCLE])
        self._npkt = int(ks[KS.NPKT])
        self._net_flits = int(ks[KS.NET_FLITS])

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
                replica = int(ks[KS.ARG])
                raise DeadlockError(
                    self.cycle,
                    int(self._stalled[replica]),
                    detail=(
                        f"columnar replica {replica} "
                        f"(seed {self.seeds[replica]})"
                    ),
                )
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
    def local_pending_counts(self) -> I64:
        """In-flight local accesses per (replica, pm) column (audit use)."""
        ks = self._kstate
        head = int(ks[KS.LOC_HEAD])
        n = int(ks[KS.LOC_CNT])
        idx = (head + np.arange(n, dtype=np.int64)) & self._k_mq_mask
        return np.bincount(self._k_loc_pm[idx], minlength=self._np_)

    def take_batch(self) -> dict[str, F64 | I64]:
        """Per-replica latency tallies for the batch just run; resets them."""
        out: dict[str, F64 | I64] = {
            "remote_sum": self._rem_sum.copy(),
            "remote_count": self._rem_cnt.copy(),
            "remote_min": self._rem_min.copy(),
            "remote_max": self._rem_max.copy(),
            "remote_last": self._rem_last.copy(),
            "local_sum": self._loc_sum.copy(),
            "local_count": self._loc_cnt_stat.copy(),
            "local_min": self._loc_min.copy(),
            "local_max": self._loc_max.copy(),
            "local_last": self._loc_last.copy(),
        }
        self._rem_sum[:] = 0.0
        self._rem_cnt[:] = 0
        self._rem_min[:] = np.inf
        self._rem_max[:] = -np.inf
        self._loc_sum[:] = 0.0
        self._loc_cnt_stat[:] = 0
        self._loc_min[:] = np.inf
        self._loc_max[:] = -np.inf
        return out

    @property
    def flits_level(self) -> I64:
        """Cumulative channel flits as a (replicas, levels) matrix."""
        L = len(self.levels)
        return self._flits_level[: self.replicas * L].reshape(self.replicas, L)


def _simulate_on_compiled(
    system: "SystemConfig",
    workload: WorkloadConfig,
    params: SimulationParams,
    seeds: Sequence[int],
) -> "list[SimulationResult]":
    """The tier without its kernel: each seed alone under ``compiled``.

    Same bytes, one seed at a time.  A lockstep batch stops at the
    replica that wedges first in simulated time, so a deadlock is only
    reported once every seed has run, for the earliest one.
    """
    from .simulation import simulate

    _reject_unmodelled(system, workload)
    results: list[SimulationResult] = []
    wedged: tuple[DeadlockError, int] | None = None
    for replica, seed in enumerate(seeds):
        solo = replace(params, seed=seed, replicas=1)
        try:
            result = simulate(system, workload, replace(solo, scheduler="compiled"))
        except DeadlockError as exc:
            if wedged is None or exc.cycle < wedged[0].cycle:
                wedged = (exc, replica)
            continue
        results.append(replace(result, params=solo))
    if wedged is not None:
        exc, replica = wedged
        raise DeadlockError(
            exc.cycle,
            exc.stalled_cycles,
            detail=f"columnar replica {replica} (seed {seeds[replica]})",
        )
    return results


def simulate_columnar(
    system: "SystemConfig",
    workload: WorkloadConfig | None = None,
    params: SimulationParams | None = None,
    seeds: Sequence[int] | None = None,
    cycle_hook: Callable[[ColumnarEngine], None] | None = None,
    hook_interval: int = 0,
) -> "list[SimulationResult]":
    """Run N seeds of one point on the kernel tier; one result per seed.

    Mirrors :func:`repro.core.simulation.simulate_batch`'s metering —
    per-replica batch-means latency, per-level utilization and
    throughput — but feeds the latency recorders from the engine's
    array tallies via :meth:`LatencyStats.observe_batch`.  Each result
    serializes to the bytes of a solo ``compiled`` run of its seed and
    keeps ``scheduler="columnar"`` in its ``params`` (an execution
    detail, like ``"batched"``).  Without a kernel the seeds run under
    ``compiled`` one by one, and ``cycle_hook`` — which needs columns
    to look at — is not called.
    """
    from .simulation import SimulationResult

    workload = (workload or WorkloadConfig()).validate()
    params = (params or DEFAULT_SIM).validate()
    if seeds is None:
        seeds = tuple(range(params.seed, params.seed + params.replicas))
    else:
        seeds = tuple(seeds)
    if not seeds:
        raise ConfigurationError("simulate_columnar needs at least one seed")
    if ckernel.load() is None:
        return _simulate_on_compiled(system, workload, params, seeds)

    engine = ColumnarEngine(system, workload, params, seeds)
    engine.cycle_hook = cycle_hook
    engine.hook_interval = hook_interval
    R = len(seeds)
    hubs = [MetricsHub() for _ in range(R)]
    levels = engine.levels
    util_meters = [{level: RateMeter(level) for level in levels} for _ in range(R)]
    all_meters = [RateMeter("__all__") for _ in range(R)]
    throughput_meters = [RateMeter("throughput") for _ in range(R)]
    opp = engine.opportunities_per_cycle

    for _ in range(params.batches):
        engine.run(params.batch_cycles)
        batch = engine.take_batch()
        flits = engine.flits_level
        for r, metrics in enumerate(hubs):
            metrics.remote_latency.observe_batch(
                float(batch["remote_sum"][r]),
                int(batch["remote_count"][r]),
                float(batch["remote_min"][r]),
                float(batch["remote_max"][r]),
                float(batch["remote_last"][r]),
            )
            metrics.local_latency.observe_batch(
                float(batch["local_sum"][r]),
                int(batch["local_count"][r]),
                float(batch["local_min"][r]),
                float(batch["local_max"][r]),
                float(batch["local_last"][r]),
            )
            metrics.close_batch()
            total = 0
            for li, level in enumerate(levels):
                carried = int(flits[r, li])
                total += carried
                util_meters[r][level].close_batch(
                    carried, opp[level] * engine.cycle
                )
            all_meters[r].close_batch(
                total, sum(opp.values()) * engine.cycle
            )
            completed = int(
                engine.remote_completed[r] + engine.local_completed[r]
            )
            throughput_meters[r].close_batch(completed, engine.cycle)

    results: list[SimulationResult] = []
    for r, seed in enumerate(seeds):
        metrics = hubs[r]
        utilization = {
            level: meter.summary() for level, meter in util_meters[r].items()
        }
        utilization["__all__"] = all_meters[r].summary()
        results.append(
            SimulationResult(
                system=system,
                workload=workload,
                params=replace(params, seed=seed, replicas=1),
                cycles=engine.cycle,
                latency=metrics.remote_latency.batch.summary(),
                local_latency=metrics.local_latency.batch.summary(),
                utilization=utilization,
                throughput=throughput_meters[r].summary(),
                remote_transactions=int(engine.remote_completed[r]),
                local_transactions=int(engine.local_completed[r]),
                flits_moved=int(engine.flits_moved_replica[r]),
                latency_range=(
                    metrics.remote_latency.minimum,
                    metrics.remote_latency.maximum,
                ),
            )
        )
    return results


__all__ = ["ColumnarEngine", "simulate_columnar"]
