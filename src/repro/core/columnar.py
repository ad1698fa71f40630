"""Columnar throughput mode: a vectorized multi-replica flit datapath.

The ``"columnar"`` scheduler trades the byte-identity contract of the
other four schedulers for raw aggregate speed.  All replica state lives
in struct-of-arrays numpy buffers flattened across replicas:

* every flit buffer is a circular column of packet ids
  (``_slots``/``_head``/``_occ``) — a flit is just its packet id, since
  wormhole contiguity pins which flit of the packet each slot holds;
* every ring/mesh output port is a row of static columns (send-priority
  sources, the downstream classification window) plus dynamic wormhole
  state (``_mid``/``_rem``/``_cont_src``/``_cont_dst``);
* propose, the GFP revocation fixed point and commit run as masked
  array ops across *all* replicas at once (the fixed point is a bounded
  vectorized loop over the whole proposal set);
* the PM update phase (eject, memory service, local completion, M-MRP
  generation, staging drain — in exactly the object model's order) runs
  over flattened ``(replica, pm)`` columns, with the memory pipeline,
  local-completion and staging queues as circular ``(cycle, packet)``
  timer arrays;
* RNG draws come from one ``numpy.random.Generator`` per ``(replica,
  pm)`` column over counter-based ``Philox`` streams keyed exactly like
  the object model (``seed * 1_000_003 + pm_id``), pre-drawn in blocks
  of geometric inter-miss gaps, read/write coins and region targets.

Because the per-replica random streams differ from ``random.Random``'s,
results are **not** bit-identical to ``compiled``.  They are drawn from
the same model, so correctness is re-established at the statistics
layer: :mod:`repro.audit.stat_equiv` runs paired columnar-vs-compiled
campaigns requiring overlapping batch-means confidence intervals on
every paper topology, and a sampled-cycle audit materializes one
replica's columns back into object form (real ``Packet``/``Flit``/
``FlitBuffer`` instances) to run structural invariant checks.  Cached
columnar results are tagged non-canonical (``"fidelity":
"statistical"`` in the params payload) so they can never serve a
request for a bit-exact scheduler.

Per-replica determinism still holds: replica state depends only on its
own seed, so a columnar point re-run with the same seed is reproducible
and cacheable per seed.

Model-equivalence notes (the object-model behaviours this file must
mirror; each is checked statistically by the equivalence campaigns):

* a port's send arbitration picks the first non-empty source in static
  priority order; mid-packet sends override priority and stream from
  the locked source (empty source = bubble, no proposal);
* the resolver's bypass flow control credits a destination one slot
  when its own head flit is draining in the same subcycle; revocation
  iterates to a fixed point;
* the PM ejects complete packets, serves memory after a fixed latency,
  completes local accesses, generates at most one miss per cycle
  (draws freeze only while a generated miss is parked waiting for an
  outstanding slot), and drains staged packets responses-first while
  they fit;
* a double-speed global ring adds a second subcycle in which only the
  fast ports participate.

The ``last`` latency diagnostic is scattered in ascending port order,
which matches the object model's PM-order recording except when a
double-speed system completes two packets for one replica in different
subcycles of the same cycle — a diagnostic-only divergence.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from . import ckernel
from .config import (
    DEFAULT_SIM,
    MeshSystemConfig,
    RingSystemConfig,
    SimulationParams,
    WorkloadConfig,
)
from .errors import ConfigurationError, DeadlockError
from .pm import MetricsHub
from .statistics import RateMeter

if TYPE_CHECKING:
    from .simulation import SimulationResult, SystemConfig

I64 = NDArray[np.int64]
F64 = NDArray[np.float64]
B1 = NDArray[np.bool_]

#: Pre-drawn misses per (replica, pm) column between Philox refills.
MISS_BLOCK = 256
#: Effectively-unbounded capacity for ejection sinks and the sentinel.
_SINK_CAP = 1 << 30


def _pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


class ColumnarEngine:
    """All replicas of one simulation point as flat numpy columns."""

    def __init__(
        self,
        system: "SystemConfig",
        workload: WorkloadConfig,
        params: SimulationParams,
        seeds: Sequence[int],
    ):
        if isinstance(system, RingSystemConfig) and system.switching == "slotted":
            raise ConfigurationError(
                "the columnar scheduler does not support slotted switching; "
                "use scheduler='compiled'"
            )
        if workload.bursty:
            # The columnar miss model pre-draws geometric inter-miss
            # gaps per (replica, pm) column; a Markov-modulated rate
            # has no geometric-gap formulation, so bursty workloads run
            # on the bit-exact schedulers only.
            raise ConfigurationError(
                "the columnar scheduler does not support bursty "
                "(burst_on/burst_off) injection; use scheduler='compiled'"
            )
        if not seeds:
            raise ConfigurationError("ColumnarEngine needs at least one seed")
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
        # ---- optional compiled fast path (bit-identical results) ----
        self._kernel = ckernel.load()
        if self._kernel is not None:
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
        # Same per-PM target pools the object networks build (patterns
        # module; plain locality regions for M-MRP, weighted pools with
        # multiplicity-as-weight otherwise).  A miss target is a
        # uniform draw from the issuing PM's pool, so integer-weighted
        # patterns (hotspot) are exact, not approximated.
        from ..workload.patterns import TargetSpace, pattern_pools

        if isinstance(self.system, MeshSystemConfig):
            space = TargetSpace.mesh(self.system.side)
        else:
            space = TargetSpace.ring(self.processors)
        self._region_arrays: list[I64] = [
            np.asarray(pool, dtype=np.int64)
            for pool in pattern_pools(self.workload, space)
        ]
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

        self._capm = _pow2(int(self._t_caps[self._t_caps < _SINK_CAP].max()))
        self._smask = self._capm - 1
        self._blog = self._capm.bit_length() - 1
        self._occ = np.zeros(NB + 1, dtype=np.int64)
        self._head = np.zeros(NB + 1, dtype=np.int64)
        self._slots = np.zeros((NB + 1) * self._capm, dtype=np.int64)
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
        self._drain_flag = np.zeros(NB + 1, dtype=np.int64)

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
            self._rt_base = np.arange(NU, dtype=np.int64) * (2 * P)
            self._fast = np.tile(self._t_fast, R)
            self._lvl_of = np.tile(self._t_lvl, R) + self._r_of_port * L
            self._chan_port = np.ones(NU, dtype=np.bool_)
        else:
            V = self._routers_per_replica
            NV = R * V
            self._m_dst = self._tile_buf(self._t_m_dst)
            self._m_dir = np.tile(self._t_m_dir, R)
            router_flat = np.tile(self._t_m_router, R) + np.repeat(
                np.arange(R, dtype=np.int64) * V, U
            )
            self._m_router5 = router_flat * 5
            self._gather_j = [router_flat * 5 + j for j in range(5)]
            self._in_buf = self._tile_buf(self._t_in_buf.reshape(-1))
            self._local_cols = np.arange(NV, dtype=np.int64) * 5 + 4
            self._lq_resp = self._tile_buf(self._t_lq_resp)
            self._lq_req = self._tile_buf(self._t_lq_req)
            self._node_of_in = np.repeat(
                np.tile(np.arange(V, dtype=np.int64), R), 5
            )
            self._route_flat = self._t_route.reshape(-1)
            self._claimed = np.zeros(NV * 5, dtype=np.bool_)
            self._rr = np.zeros(NU, dtype=np.int64)
            self._lock = np.full(NU, -1, dtype=np.int64)
            self._chan_port = np.tile(self._t_m_chan, R)
            self._lvl_of = np.where(self._chan_port, self._r_of_port * L, R * L)

        NP_ = R * P
        self._pm_local = np.tile(np.arange(P, dtype=np.int64), R)
        self._r_of_pm = np.repeat(np.arange(R, dtype=np.int64), P)
        self._q_resp = self._tile_buf(self._t_out_resp)
        self._q_req = self._tile_buf(self._t_out_req)
        self._outstanding = np.zeros(NP_, dtype=np.int64)
        self._rem_open = np.zeros(NP_, dtype=np.int64)
        self._rx_cnt = np.zeros(NP_, dtype=np.int64)
        self._rx_pid = np.zeros(NP_, dtype=np.int64)
        self._t_limit = self.workload.outstanding

        # M-MRP columns: per-(replica, pm) Philox streams + block draws.
        self._pend = np.zeros(NP_, dtype=np.bool_)
        self._pend_read = np.zeros(NP_, dtype=np.bool_)
        self._pend_tgt = np.zeros(NP_, dtype=np.int64)
        self._cursor = np.zeros(NP_, dtype=np.int64)
        self._gap_blk = np.ones((NP_, MISS_BLOCK), dtype=np.int64)
        self._read_blk = np.zeros((NP_, MISS_BLOCK), dtype=np.bool_)
        self._tgt_blk = np.zeros((NP_, MISS_BLOCK), dtype=np.int64)
        # flat views of the 2-D blocks: 1-D gathers are measurably
        # cheaper than 2-D advanced indexing in the generate hot path
        self._gap_flat = self._gap_blk.reshape(-1)
        self._read_flat = self._read_blk.reshape(-1)
        self._tgt_flat = self._tgt_blk.reshape(-1)
        self._mshift = MISS_BLOCK.bit_length() - 1
        self._gens: list[np.random.Generator] = []
        for r, seed in enumerate(self.seeds):
            for pm in range(P):
                key = (seed * 1_000_003 + pm) % (1 << 64)
                self._gens.append(np.random.Generator(np.random.Philox(key=key)))
        self._refill(np.arange(NP_, dtype=np.int64))
        self._countdown = self._gap_blk[:, 0].copy()

        # Memory and local-completion pipelines: the service latency is
        # one constant, so ready times are strictly increasing across
        # accept cycles — a python FIFO of ``(ready, columns, packets)``
        # blocks needs only a scalar head comparison per cycle instead
        # of any array work.
        self._mem_fifo: deque[tuple[int, I64, I64]] = deque()
        self._loc_fifo: deque[tuple[int, I64]] = deque()
        self._mem_total = 0
        self._loc_total = 0
        # Staging for packets waiting on output-queue space: responses
        # occupy columns [0, NP_), requests [NP_, 2*NP_), so one fused
        # vectorized pass drains both (the queues are independent, so
        # the object model's responses-first order is immaterial).
        self._stgcap = _pow2(max(2, P * self._t_limit))
        self._stgmask = self._stgcap - 1
        self._stg_pid = np.zeros(2 * NP_ * self._stgcap, dtype=np.int64)
        self._stg_head = np.zeros(2 * NP_, dtype=np.int64)
        self._stg_cnt = np.zeros(2 * NP_, dtype=np.int64)
        self._stg_base = np.arange(2 * NP_, dtype=np.int64) * self._stgcap
        self._stg_q = np.concatenate([self._q_resp, self._q_req])
        self._stg_qcap = self._cap[self._stg_q]
        self._stg_total = 0
        self._np_ = NP_
        self._net_flits = 0
        # Admission can only change on a column that gained a staged
        # packet or whose output queue lost a flit, so the drain pass
        # walks a dirty set instead of every column.  The map sends
        # non-queue buffers to a dummy slot past the flag array's end.
        self._buf2stg = np.full(NB + 1, 2 * NP_, dtype=np.int64)
        self._buf2stg[self._q_resp] = np.arange(NP_, dtype=np.int64)
        self._buf2stg[self._q_req] = np.arange(NP_, dtype=np.int64) + NP_
        self._stg_dirty = np.zeros(2 * NP_ + 1, dtype=np.bool_)

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
        self._npkt = 1

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
        self._comp_pm: list[I64] = []
        self._comp_pid: list[I64] = []
        # Deferred-statistics logs, folded into the tallies above by
        # :meth:`_flush_logs` at batch boundaries: per-cycle appends are
        # O(1) python list pushes instead of bincount/scatter chains.
        self._commit_log: list[I64] = []
        self._rem_log: list[tuple[int, I64, I64]] = []
        self._loc_log: list[I64] = []
        self._iss_rem_log: list[I64] = []
        self._iss_loc_log: list[I64] = []
        # Watchdog fast path (single-subcycle systems): a cycle whose
        # commits equal its proposals cannot stall any replica, so the
        # per-replica counters only need touching after a revocation.
        self._fast_watchdog = self._subcycles == 1
        self._stall_any = False
        self._nmid = 0
        self._pend_total = 0

    # ------------------------------------------------------------------
    def _refill(self, pmfs: I64) -> None:
        """Redraw the pre-drawn miss block for the given (r, pm) columns."""
        P = self.processors
        C = self.workload.miss_rate
        rf = self.workload.read_fraction
        for f in pmfs.tolist():
            gen = self._gens[f]
            self._gap_blk[f] = gen.geometric(C, MISS_BLOCK)
            self._read_blk[f] = gen.random(MISS_BLOCK) < rf
            region = self._region_arrays[f % P]
            self._tgt_blk[f] = region[
                gen.integers(0, region.shape[0], MISS_BLOCK)
            ]

    def _alloc(self, k: int) -> I64:
        n = self._npkt
        if n + k > self._pkt_dest.shape[0]:
            new_cap = _pow2(2 * (n + k))
            for attr in (
                "_pkt_dest",
                "_pkt_src",
                "_pkt_size",
                "_pkt_issue",
                "_pkt_resp",
                "_pkt_read",
                "_pkt_rt",
            ):
                old = getattr(self, attr)
                grown = np.zeros(new_cap, dtype=old.dtype)
                grown[:n] = old[:n]
                setattr(self, attr, grown)
        self._npkt = n + k
        return np.arange(n, n + k, dtype=np.int64)

    # ------------------------------------------------------------------
    # compiled fast path (see repro.core.ckernel)
    # ------------------------------------------------------------------
    def _k_init(self) -> None:
        """Allocate the kernel-only state and the pointer/param tables.

        The kernel shares every numpy state array in place; the only
        state it owns are the two constant-latency FIFOs (flat circular
        arrays instead of the numpy path's python deques) and scratch.
        """
        from .ckernel import KS, PRM, PTR

        NU = self._mid.shape[0]
        NB1 = self._occ.shape[0]
        NP_ = self._np_
        R = self.replicas
        mq = _pow2(NP_ * self._t_limit + NP_ + 8)
        self._k_mq_mask = mq - 1
        self._k_mem_ready = np.zeros(mq, dtype=np.int64)
        self._k_mem_pm = np.zeros(mq, dtype=np.int64)
        self._k_mem_pid = np.zeros(mq, dtype=np.int64)
        self._k_loc_ready = np.zeros(mq, dtype=np.int64)
        self._k_loc_pm = np.zeros(mq, dtype=np.int64)
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
        self._k_drainer = np.zeros(NB1, dtype=np.int64)
        self._k_filler = np.zeros(NB1, dtype=np.int64)
        self._k_work = np.zeros(2 * NU, dtype=np.int64)
        if self.kind == "mesh":
            # Per (router, direction) the mask of inputs whose head
            # requests it, per router input the buffer that head would
            # leave, and per row the input that won.
            NI = self._claimed.shape[0]
            self._k_req = np.zeros(NI, dtype=np.int64)
            self._k_req_src = np.zeros(NI, dtype=np.int64)
            self._k_row_in = np.zeros(NU, dtype=np.int64)
        # Packets completed this cycle as (pm, packet) pairs: a PM
        # ejects at most one flit per subcycle.
        self._k_comp = np.zeros(2 * self._subcycles * NP_, dtype=np.int64)
        self._k_refill = np.zeros(NP_, dtype=np.int64)
        ks = np.zeros(KS.COUNT, dtype=np.int64)
        ks[KS.NPKT] = self._npkt
        ks[KS.PKT_CAP] = self._pkt_dest.shape[0]
        self._kstate = ks
        prm = np.zeros(PRM.COUNT, dtype=np.int64)
        prm[PRM.KIND] = 0 if self.kind == "ring" else 1
        prm[PRM.R] = R
        prm[PRM.U] = self.ports_per_replica
        prm[PRM.P] = self.processors
        prm[PRM.L] = len(self.levels)
        prm[PRM.NB] = self.replicas * self.buffers_per_replica
        prm[PRM.NU] = NU
        prm[PRM.NPM] = NP_
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
        prm[PRM.MB] = MISS_BLOCK
        prm[PRM.MSHIFT] = self._mshift
        prm[PRM.MQ_MASK] = self._k_mq_mask
        self._k_prm = prm
        self._k_build_ptrs()
        assert PTR.COUNT == len(self._k_arrs)

    def _k_build_ptrs(self) -> None:
        dummy = self._occ  # valid pointer for slots the kind never reads
        ring = self.kind == "ring"
        arrs: list[NDArray[np.int64] | NDArray[np.uint8] | B1 | F64] = [
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
            self._cursor,
            self._gap_flat,
            self._read_flat.view(np.uint8),
            self._tgt_flat,
            self._countdown,
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
            self._k_refill,
            self._kstate,
        ]
        self._k_arrs = arrs
        self._k_ptr = np.asarray(
            [a.ctypes.data for a in arrs], dtype=np.uint64
        )

    def _k_grow_packets(self) -> None:
        """Grow the packet table and refresh the kernel pointer slots."""
        from .ckernel import KS, PTR

        ks = self._kstate
        self._npkt = int(ks[KS.NPKT])
        need = self._npkt + 2 * self._np_ + 4
        if need <= self._pkt_dest.shape[0]:
            return
        new_cap = _pow2(2 * need)
        n = self._npkt
        for attr in (
            "_pkt_dest",
            "_pkt_src",
            "_pkt_size",
            "_pkt_issue",
            "_pkt_resp",
            "_pkt_read",
            "_pkt_rt",
        ):
            old = getattr(self, attr)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, attr, grown)
        ks[KS.PKT_CAP] = new_cap
        for slot, attr in (
            (PTR.PKT_DEST, "_pkt_dest"),
            (PTR.PKT_SRC, "_pkt_src"),
            (PTR.PKT_SIZE, "_pkt_size"),
            (PTR.PKT_ISSUE, "_pkt_issue"),
            (PTR.PKT_RT, "_pkt_rt"),
        ):
            arr = getattr(self, attr)
            self._k_arrs[slot] = arr
            self._k_ptr[slot] = arr.ctypes.data
        for slot, attr in ((PTR.PKT_RESP, "_pkt_resp"), (PTR.PKT_READ, "_pkt_read")):
            arr = getattr(self, attr).view(np.uint8)
            self._k_arrs[slot] = arr
            self._k_ptr[slot] = arr.ctypes.data

    def _k_sync(self) -> None:
        """Refresh the python-side mirrors of the kernel's scalar state."""
        from .ckernel import KS

        ks = self._kstate
        self.cycle = int(ks[KS.CYCLE])
        self._npkt = int(ks[KS.NPKT])
        self._net_flits = int(ks[KS.NET_FLITS])
        self._stg_total = int(ks[KS.STG_TOTAL])
        self._pend_total = int(ks[KS.PEND_TOTAL])
        self._mem_total = int(ks[KS.MEM_CNT])
        self._loc_total = int(ks[KS.LOC_CNT])

    def _run_kernel(self, cycles: int) -> None:
        import ctypes

        from .ckernel import (
            KS,
            STATUS_DEADLOCK,
            STATUS_PKT_GROW,
            STATUS_REFILL,
        )

        assert self._kernel is not None
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
            status = int(
                step(
                    self._k_ptr.ctypes.data_as(
                        ctypes.POINTER(ctypes.c_void_p)
                    ),
                    self._k_prm.ctypes.data_as(
                        ctypes.POINTER(ctypes.c_int64)
                    ),
                    seg - self.cycle,
                )
            )
            self._k_sync()
            if status == STATUS_REFILL:
                n = int(ks[KS.ARG])
                cols = self._k_refill[:n].copy()
                self._refill(cols)
                self._countdown[cols] = self._gap_blk[cols, 0]
            elif status == STATUS_PKT_GROW:
                self._k_grow_packets()
            elif status == STATUS_DEADLOCK:
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
    # the clock loop
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> None:
        if self._kernel is not None:
            self._run_kernel(cycles)
            return
        target = self.cycle + cycles
        hook = self.cycle_hook
        interval = self.hook_interval
        while self.cycle < target:
            if (
                self._net_flits == 0
                and self._mem_total == 0
                and self._loc_total == 0
                and self._stg_total == 0
                and self._pend_total == 0
            ):
                dt = min(int(self._countdown.min()), target - self.cycle)
                if dt > 1:
                    self._countdown -= dt - 1
                    self.cycle += dt - 1
            self._step()
            self.cycle += 1
            if hook is not None and interval > 0 and self.cycle % interval == 0:
                hook(self)

    def _step(self) -> None:
        if self._fast_watchdog:
            # Proposal/commit totals are reconciled inside _commit (one
            # subcycle means one commit call per cycle at most).
            if self.kind == "ring":
                self._sub_ring(0)
            else:
                self._sub_mesh()
        else:
            self._cyc_prop[:] = 0
            self._cyc_comm[:] = 0
            for sub in range(self._subcycles):
                self._sub_ring(sub)
            stall = (self._cyc_prop > 0) & (self._cyc_comm == 0)
            self._stalled = np.where(stall, self._stalled + 1, 0)
            if bool((self._stalled >= self._threshold).any()):
                self._raise_deadlock()
        self._update(self.cycle)

    def _raise_deadlock(self) -> None:
        replica = int(np.argmax(self._stalled))
        raise DeadlockError(
            self.cycle,
            int(self._stalled[replica]),
            detail=f"columnar replica {replica} (seed {self.seeds[replica]})",
        )

    # ------------------------------------------------------------------
    # subcycles: propose / resolve / commit
    # ------------------------------------------------------------------
    def _sub_ring(self, sub: int) -> None:
        occ = self._occ
        s3 = self._psrc3
        o3 = occ[s3] > 0
        sel = s3[2].copy()
        np.copyto(sel, s3[1], where=o3[1])
        np.copyto(sel, s3[0], where=o3[0])
        nmid = self._nmid
        if nmid:
            np.copyto(sel, self._cont_src, where=self._mid)
        have = occ[sel] > 0
        if sub == 1:
            have &= self._fast
        nprop = int(np.count_nonzero(have))
        if nprop == 0:
            if self._fast_watchdog and self._stall_any:
                self._stalled[:] = 0
                self._stall_any = False
            return
        # Rows where ``have`` is false carry garbage sel/pid/dst values,
        # but every candidate is a valid index and ``alive`` gates all
        # effects, so no masking pass is spent cleaning them up.
        pid = self._slots[(sel << self._blog) + self._head[sel]]
        dst = self._rt_tbl[self._rt_base + self._pkt_rt[pid]]
        if nmid:
            np.copyto(dst, self._cont_dst, where=self._mid)
        alive = self._resolve(sel, dst, have)
        self._commit(sel, dst, pid, alive, have, nprop)

    def _sub_mesh(self) -> None:
        occ = self._occ
        ib = self._in_buf
        ib[self._local_cols] = np.where(
            occ[self._lq_resp] > 0, self._lq_resp, self._lq_req
        )
        ihave = occ[ib] > 0
        ipid = self._slots[ib * self._capm + self._head[ib]]
        irt = self._route_flat[
            self._node_of_in * self.processors + self._pkt_dest[ipid]
        ]
        locked = self._lock >= 0
        free = ~locked
        best = np.full(self._m_dir.shape[0], 9, dtype=np.int64)
        bsrc = np.full(self._m_dir.shape[0], self._sent, dtype=np.int64)
        bj = np.zeros(self._m_dir.shape[0], dtype=np.int64)
        for j in range(5):
            gi = self._gather_j[j]
            ok = free & ihave[gi] & ~self._claimed[gi] & (irt[gi] == self._m_dir)
            score = np.where(ok, (j - self._rr) % 5, 9)
            upd = score < best
            best = np.where(upd, score, best)
            bsrc = np.where(upd, ib[gi], bsrc)
            bj = np.where(upd, j, bj)
        sel = np.where(locked, self._cont_src, bsrc)
        have = np.where(locked, occ[self._cont_src] > 0, best < 9)
        nprop = int(np.count_nonzero(have))
        if nprop == 0:
            if self._fast_watchdog and self._stall_any:
                self._stalled[:] = 0
                self._stall_any = False
            return
        dst = np.where(have, self._m_dst, self._sent)
        pid = self._slots[(sel << self._blog) + self._head[sel]]
        self._mesh_bj = bj
        alive = self._resolve(sel, dst, have)
        self._commit(sel, dst, pid, alive, have, nprop)

    def _resolve(self, sel: I64, dst: I64, have: B1) -> B1:
        """GFP revocation as a bounded vectorized fixed point.

        Fast path: if no proposal targets a full buffer even without
        bypass credit, every proposal survives and ``have`` is returned
        unmodified (the caller treats it as read-only).
        """
        occf = self._occ[dst]
        capf = self._cap[dst]
        full = occf >= capf
        over = have & full
        if int(np.count_nonzero(over)) == 0:
            return have
        if not self._bypass:
            return have & ~full
        alive = have.copy()
        drain = self._drain_flag
        while True:
            drain[:] = 0
            drain[sel[alive]] = 1
            over = alive & (occf - drain[dst] >= capf)
            if int(np.count_nonzero(over)) == 0:
                return alive
            alive &= ~over

    def _commit(
        self, sel: I64, dst: I64, pid: I64, alive: B1, have: B1, nprop: int
    ) -> None:
        idx = np.nonzero(alive)[0]
        ncomm = int(idx.shape[0])
        if self._fast_watchdog:
            if ncomm == nprop:
                if self._stall_any:
                    self._stalled[:] = 0
                    self._stall_any = False
            else:
                R, U = self.replicas, self.ports_per_replica
                prop = have.reshape(R, U).sum(axis=1)
                comm = alive.reshape(R, U).sum(axis=1)
                stall = (prop > 0) & (comm == 0)
                self._stalled = np.where(stall, self._stalled + 1, 0)
                self._stall_any = bool(self._stalled.any())
                if int(self._stalled.max()) >= self._threshold:
                    self._raise_deadlock()
        else:
            R, U = self.replicas, self.ports_per_replica
            self._cyc_prop += have.reshape(R, U).sum(axis=1)
            self._cyc_comm += alive.reshape(R, U).sum(axis=1)
        if ncomm == 0:
            return
        occ = self._occ
        head = self._head
        slots = self._slots
        smask = self._smask
        blog = self._blog
        asel = sel[idx]
        adst = dst[idx]
        apid = pid[idx]
        # flit accounting is deferred: _flush_logs bins the committed
        # port rows into per-level and per-replica tallies per batch
        self._commit_log.append(idx)
        # pops (all drains before any fill)
        occ[asel] -= 1
        head[asel] = (head[asel] + 1) & smask
        if self._stg_total:
            # a popped output queue may now admit a staged packet
            self._stg_dirty[self._buf2stg[asel]] = True
        sinkm = self._is_sink[adst]
        nsink = int(np.count_nonzero(sinkm))
        if nsink == 0:
            pos = (head[adst] + occ[adst]) & smask
            slots[(adst << blog) + pos] = apid
            occ[adst] += 1
        else:
            notsink = ~sinkm
            fdst = adst[notsink]
            if fdst.shape[0]:
                pos = (head[fdst] + occ[fdst]) & smask
                slots[(fdst << blog) + pos] = apid[notsink]
                occ[fdst] += 1
            si = np.nonzero(sinkm)[0]
            spm = self._sink_pm[adst[si]]
            spid = apid[si]
            rxc = self._rx_cnt[spm] + 1
            self._rx_cnt[spm] = rxc
            self._rx_pid[spm] = spid
            done = rxc == self._pkt_size[spid]
            if int(np.count_nonzero(done)):
                dpm = spm[done]
                self._comp_pm.append(dpm)
                self._comp_pid.append(spid[done])
                self._rx_cnt[dpm] = 0
            self._net_flits -= nsink
        # wormhole port state: a commit is a head commit iff the port
        # was not mid-packet at propose time (ring tracks `_mid`, mesh
        # tracks the output lock; neither is mutated before this point)
        szc = self._pkt_size[apid]
        if self.kind == "mesh":
            isnew = self._lock[idx] < 0
            self._commit_mesh_state(idx, asel, isnew, szc)
        else:
            # branch-free: a head commit loads the packet's remaining
            # count, a body commit decrements it; mid-packet lock state
            # and the continuation source/destination follow from it
            mid = self._mid
            oldm = mid[idx]
            remn = np.where(oldm, self._rem[idx], szc) - 1
            self._rem[idx] = remn
            newm = remn > 0
            mid[idx] = newm
            self._cont_src[idx] = asel
            self._cont_dst[idx] = adst
            self._nmid += int(np.count_nonzero(newm)) - int(
                np.count_nonzero(oldm)
            )

    def _commit_mesh_state(self, idx: I64, asel: I64, isnew: B1, szc: I64) -> None:
        # heads: advance round-robin, lock output unless single-flit
        hi2 = idx[isnew]
        if hi2.shape[0]:
            bjh = self._mesh_bj[hi2]
            self._rr[hi2] = (bjh + 1) % 5
            startm = szc[isnew] > 1
            ni = hi2[startm]
            if ni.shape[0]:
                bjn = bjh[startm]
                self._lock[ni] = bjn
                self._claimed[self._m_router5[ni] + bjn] = True
                self._cont_src[ni] = asel[isnew][startm]
                self._rem[ni] = szc[isnew][startm] - 1
        bi = idx[~isnew]
        if bi.shape[0]:
            rem = self._rem[bi] - 1
            self._rem[bi] = rem
            fin = bi[rem == 0]
            if fin.shape[0]:
                self._claimed[self._m_router5[fin] + self._lock[fin]] = False
                self._lock[fin] = -1

    # mesh propose stashes the winning input index here for commit
    _mesh_bj: I64

    # ------------------------------------------------------------------
    # the PM update phase (exact object-model order)
    # ------------------------------------------------------------------
    def _update(self, cycle: int) -> None:
        out = self._outstanding
        # --- eject completions ---
        if self._comp_pm:
            pmf = np.concatenate(self._comp_pm)
            cpid = np.concatenate(self._comp_pid)
            self._comp_pm.clear()
            self._comp_pid.clear()
            isr = self._pkt_resp[cpid]
            rp = pmf[isr]
            nresp = int(rp.shape[0])
            if nresp:
                out[rp] -= 1
                self._rem_open[rp] -= 1
                self._rem_log.append((cycle, rp, cpid[isr]))
            if nresp != pmf.shape[0]:
                qsel = ~isr
                qp = pmf[qsel]
                self._mem_fifo.append((cycle + self._mem_lat, qp, cpid[qsel]))
                self._mem_total += int(qp.shape[0])
        # --- serve memory (ready times are strictly increasing) ---
        if self._mem_total and self._mem_fifo[0][0] <= cycle:
            _, mp, reqpid = self._mem_fifo.popleft()
            k = int(mp.shape[0])
            self._mem_total -= k
            rpids = self._alloc(k)
            rd = self._pkt_read[reqpid]
            dst_pm = self._pkt_src[reqpid]
            self._pkt_dest[rpids] = dst_pm
            self._pkt_src[rpids] = self._pm_local[mp]
            self._pkt_resp[rpids] = True
            self._pkt_read[rpids] = rd
            self._pkt_size[rpids] = np.where(rd, self._cl_size, self._hdr_size)
            self._pkt_issue[rpids] = self._pkt_issue[reqpid]
            self._pkt_rt[rpids] = dst_pm * 2 + 1
            self._stage(mp, rpids)
        # --- complete local accesses ---
        if self._loc_total and self._loc_fifo[0][0] <= cycle:
            _, lp = self._loc_fifo.popleft()
            self._loc_total -= int(lp.shape[0])
            out[lp] -= 1
            self._loc_log.append(lp)
        # --- generate (M-MRP; draws freeze only while a miss is parked) ---
        self._generate(cycle)
        # --- drain staging into the output queues while packets fit ---
        if self._stg_total:
            self._drain_staging()

    def _stage(self, cols: I64, pids: I64) -> None:
        """Stage packets on output columns (responses first, then +NP_)."""
        pos = (self._stg_head[cols] + self._stg_cnt[cols]) & self._stgmask
        self._stg_pid[cols * self._stgcap + pos] = pids
        self._stg_cnt[cols] += 1
        self._stg_total += int(cols.shape[0])
        self._stg_dirty[cols] = True

    def _generate(self, cycle: int) -> None:
        out = self._outstanding
        limit = self._t_limit
        countdown = self._countdown
        pend0 = self._pend
        blocked = self._pend_total > 0
        if blocked:
            np.subtract(countdown, 1, out=countdown, where=~pend0)
            hit = (countdown == 0) & ~pend0
        else:
            countdown -= 1
            hit = countdown == 0
        if int(np.count_nonzero(hit)) == 0 and not blocked:
            return
        hp = np.nonzero(hit)[0]
        if hp.shape[0]:
            cur = self._cursor[hp]
            flat = (hp << self._mshift) + cur
            rd = self._read_flat[flat]
            tg = self._tgt_flat[flat]
            cur += 1
            wrap = cur == MISS_BLOCK
            if int(np.count_nonzero(wrap)):
                self._refill(hp[wrap])
                cur[wrap] = 0
            self._cursor[hp] = cur
            countdown[hp] = self._gap_flat[(hp << self._mshift) + cur]
            canh = out[hp] < limit
            npark = int(hp.shape[0]) - int(np.count_nonzero(canh))
            if npark:
                park = hp[~canh]
                self._pend[park] = True
                self._pend_read[park] = rd[~canh]
                self._pend_tgt[park] = tg[~canh]
                self._pend_total += npark
                hp = hp[canh]
                rd = rd[canh]
                tg = tg[canh]
        else:
            rd = np.zeros(0, dtype=np.bool_)
            tg = np.zeros(0, dtype=np.int64)
        if blocked:
            rel = pend0 & (out < limit)
            rl = np.nonzero(rel)[0]
            if rl.shape[0]:
                self._pend[rl] = False
                self._pend_total -= int(rl.shape[0])
                hp = np.concatenate([hp, rl])
                rd = np.concatenate([rd, self._pend_read[rl]])
                tg = np.concatenate([tg, self._pend_tgt[rl]])
        if hp.shape[0] == 0:
            return
        out[hp] += 1
        isloc = tg == self._pm_local[hp]
        nloc = int(np.count_nonzero(isloc))
        if nloc:
            lp = hp[isloc]
            self._loc_fifo.append((cycle + self._mem_lat, lp))
            self._loc_total += nloc
            self._iss_loc_log.append(lp)
        if nloc != hp.shape[0]:
            rp = hp[~isloc]
            k = int(rp.shape[0])
            pids = self._alloc(k)
            rdr = rd[~isloc]
            tgr = tg[~isloc]
            self._pkt_dest[pids] = tgr
            self._pkt_src[pids] = self._pm_local[rp]
            self._pkt_resp[pids] = False
            self._pkt_read[pids] = rdr
            self._pkt_size[pids] = np.where(rdr, self._hdr_size, self._cl_size)
            self._pkt_issue[pids] = cycle
            self._pkt_rt[pids] = tgr * 2
            self._rem_open[rp] += 1
            self._stage(rp + self._np_, pids)
            self._iss_rem_log.append(rp)

    def _drain_staging(self) -> None:
        """Drain staged packets into their output queues while they fit.

        One fused pass covers every (replica, pm) response and request
        column; the loop re-runs only while a column that just drained
        still has staged packets (whole-packet admission, so a column
        can admit several packets in one cycle if they all fit).
        """
        occ = self._occ
        head = self._head
        slots = self._slots
        smask = self._smask
        blog = self._blog
        stg_q = self._stg_q
        flag = self._stg_dirty
        flag[-1] = False
        cols = np.nonzero(flag)[0]
        flag[cols] = False
        if cols.shape[0] == 0:
            return
        while True:
            hpid = self._stg_pid[self._stg_base[cols] + self._stg_head[cols]]
            sz = self._pkt_size[hpid]
            qc = stg_q[cols]
            can = (self._stg_cnt[cols] > 0) & (
                self._stg_qcap[cols] - occ[qc] >= sz
            )
            ncan = int(np.count_nonzero(can))
            if ncan == 0:
                return
            cp = cols[can]
            pp = hpid[can]
            szc = sz[can]
            self._stg_head[cp] = (self._stg_head[cp] + 1) & self._stgmask
            self._stg_cnt[cp] -= 1
            qb = qc[can]
            tail = (head[qb] + occ[qb]) & smask
            total = int(szc.sum())
            cs = np.cumsum(szc)
            ramp = np.arange(total, dtype=np.int64) - np.repeat(cs - szc, szc)
            pos = (np.repeat(tail, szc) + ramp) & smask
            slots[(np.repeat(qb, szc) << blog) + pos] = np.repeat(pp, szc)
            occ[qb] += szc
            self._net_flits += total
            self._stg_total -= ncan
            if self._stg_total == 0:
                return
            cols = cp

    # ------------------------------------------------------------------
    # statistics handoff
    # ------------------------------------------------------------------
    def _flush_logs(self) -> None:
        """Fold the deferred per-cycle logs into the batch tallies.

        Called at batch boundaries (and before any external read of the
        flit counters); per-cycle work is thereby reduced to python list
        appends of arrays the hot path had already computed.
        """
        R = self.replicas
        P = self.processors
        L = len(self.levels)
        if self._commit_log:
            cat = np.concatenate(self._commit_log)
            self._commit_log.clear()
            self._flits_level += np.bincount(
                self._lvl_of[cat], minlength=R * L + 1
            )
            self.flits_moved_replica += np.bincount(
                self._r_of_port[cat], minlength=R
            )
        if self._rem_log:
            rp = np.concatenate([entry[1] for entry in self._rem_log])
            rpid = np.concatenate([entry[2] for entry in self._rem_log])
            cyc = np.repeat(
                np.asarray([entry[0] for entry in self._rem_log], dtype=np.int64),
                np.asarray(
                    [entry[1].shape[0] for entry in self._rem_log],
                    dtype=np.int64,
                ),
            )
            self._rem_log.clear()
            lat = (cyc - self._pkt_issue[rpid]).astype(np.float64)
            r = rp // P
            cnt = np.bincount(r, minlength=R)
            self._rem_cnt += cnt
            self._rem_sum += np.bincount(r, weights=lat, minlength=R)
            np.minimum.at(self._rem_min, r, lat)
            np.maximum.at(self._rem_max, r, lat)
            # chronological append order: a duplicate-index scatter
            # leaves each replica's most recent completion, as record()
            # would have
            self._rem_last[r] = lat
            self.remote_completed += cnt
        if self._loc_log:
            lp = np.concatenate(self._loc_log)
            self._loc_log.clear()
            cnt = np.bincount(lp // P, minlength=R)
            lat = float(self._mem_lat)
            self._loc_cnt_stat += cnt
            self._loc_sum += cnt * lat
            seen = cnt > 0
            self._loc_min[seen] = np.minimum(self._loc_min[seen], lat)
            self._loc_max[seen] = np.maximum(self._loc_max[seen], lat)
            self._loc_last[seen] = lat
            self.local_completed += cnt
        if self._iss_rem_log:
            self.remote_issued += np.bincount(
                np.concatenate(self._iss_rem_log) // P, minlength=R
            )
            self._iss_rem_log.clear()
        if self._iss_loc_log:
            self.local_issued += np.bincount(
                np.concatenate(self._iss_loc_log) // P, minlength=R
            )
            self._iss_loc_log.clear()

    def local_pending_counts(self) -> I64:
        """In-flight local accesses per (replica, pm) column (audit use)."""
        counts = np.zeros(self._np_, dtype=np.int64)
        if self._kernel is not None:
            from .ckernel import KS

            ks = self._kstate
            head = int(ks[KS.LOC_HEAD])
            n = int(ks[KS.LOC_CNT])
            if n:
                idx = (head + np.arange(n, dtype=np.int64)) & self._k_mq_mask
                counts += np.bincount(
                    self._k_loc_pm[idx], minlength=self._np_
                )
            return counts
        for _, lp in self._loc_fifo:
            counts += np.bincount(lp, minlength=self._np_)
        return counts

    def take_batch(self) -> dict[str, F64 | I64]:
        """Per-replica latency tallies for the batch just run; resets them."""
        self._flush_logs()
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
        self._flush_logs()
        L = len(self.levels)
        return self._flits_level[: self.replicas * L].reshape(self.replicas, L)


def simulate_columnar(
    system: "SystemConfig",
    workload: WorkloadConfig | None = None,
    params: SimulationParams | None = None,
    seeds: Sequence[int] | None = None,
    cycle_hook: Callable[[ColumnarEngine], None] | None = None,
    hook_interval: int = 0,
) -> "list[SimulationResult]":
    """Run N seeds of one point on the columnar engine; one result per seed.

    Mirrors :func:`repro.core.simulation.simulate_batch`'s metering —
    per-replica batch-means latency, per-level utilization and
    throughput — but feeds the latency recorders from the engine's
    array tallies via :meth:`LatencyStats.observe_batch`.  Results are
    statistically equivalent (not byte-identical) to ``compiled`` runs
    of the same seeds; each result's ``params`` keeps
    ``scheduler="columnar"`` so the cache stores them under the
    non-canonical ``"fidelity": "statistical"`` identity.
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

    from dataclasses import replace

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


__all__ = ["ColumnarEngine", "simulate_columnar", "MISS_BLOCK"]
