"""Processing module: processor + local memory + network-facing queues.

A :class:`ProcessingModule` is the endpoint component shared by both
network types.  It owns

* an unbounded **ejection sink** (``in_queue``) that the attached
  NIC/router delivers arriving packets into (see DESIGN.md §4 on why
  endpoint sinks are unbounded — it rules out request/response protocol
  deadlock without touching the network buffering under study);
* two bounded **output queues** (``out_req``, ``out_resp``), each sized
  to hold one cache-line packet, which the attached NIC/router drains —
  the paper's split request/response output buffers;
* the :class:`~repro.core.processor.MissGenerator` driving the M-MRP
  workload and the :class:`~repro.core.memory.MemoryModel` answering
  remote requests.

Round-trip latency is recorded when the tail flit of a response is
ejected: ``latency = now - request.issue_cycle`` in network cycles,
matching the paper's definition (request issue to response receipt).
Local accesses bypass the network entirely (Section 2: "Local memory
accesses do not involve the network"); they occupy an outstanding slot
for the memory latency and are tallied separately.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from typing import Callable

from .buffers import FlitBuffer
from .config import PacketGeometry, WorkloadConfig
from .engine import Component, Engine
from .errors import SimulationError
from .memory import MemoryModel
from .packet import Packet, PacketType
from .processor import MissGenerator, MissSource, TargetSelector, make_miss_generator
# MetricsHub lives beside the recorders it bundles; it is re-exported
# here because the PMs are what feed it.
from .statistics import MetricsHub as MetricsHub


class ProcessingModule(Component):
    """One processor + memory endpoint, network-agnostic."""

    speed = 1

    #: The fused update closure wakes the output ports at its drain
    #: push sites (see :meth:`compiled_update_handler`).
    compiled_update_self_wakes = True

    def __init__(
        self,
        pm_id: int,
        geometry: PacketGeometry,
        workload: WorkloadConfig,
        memory_latency: int,
        select_target: TargetSelector,
        rng: random.Random,
        metrics: MetricsHub,
        miss_source: MissSource | None = None,
    ):
        self.pm_id = pm_id
        self.geometry = geometry
        self.workload = workload
        self.metrics = metrics
        self.memory = MemoryModel(memory_latency)
        self.generator: MissSource = (
            miss_source
            if miss_source is not None
            else make_miss_generator(pm_id, workload, select_target, rng)
        )

        queue_depth = geometry.cl_packet_flits
        self.in_queue = FlitBuffer(f"pm{pm_id}.in", capacity=None)
        self.out_req = FlitBuffer(f"pm{pm_id}.out_req", capacity=queue_depth)
        self.out_resp = FlitBuffer(f"pm{pm_id}.out_resp", capacity=queue_depth)

        self._req_staging: deque[Packet] = deque()
        self._resp_staging: deque[Packet] = deque()
        # Packet reassembly: flits received so far, per packet.  With
        # wormhole switching arrivals are contiguous; with the slotted
        # ring extension a packet's independently routed slots may
        # interleave and arrive out of order, so completion is detected
        # by count, not by seeing the tail flit.
        self._rx_counts: dict[int, int] = {}
        self._local_pending: list[tuple[int, int]] = []  # (ready_cycle, issue_cycle)
        self._txn_seq = itertools.count()
        self.outstanding = 0
        self.open_transactions: set[int] = set()
        #: Set False to stop issuing new misses (used to drain the
        #: network at the end of conservation tests).
        self.generation_enabled = True
        self._outstanding_limit = workload.outstanding
        self._can_issue = lambda: self.outstanding < self._outstanding_limit
        self._next_issue_cycle = getattr(self.generator, "next_issue_cycle", None)

    # ------------------------------------------------------------------
    def _new_transaction_id(self) -> int:
        return (self.pm_id << 40) | next(self._txn_seq)

    def _make_request(self, ptype: PacketType, target: int, cycle: int) -> Packet:
        return Packet(
            ptype=ptype,
            source=self.pm_id,
            destination=target,
            size_flits=self.geometry.size_of(ptype),
            transaction_id=self._new_transaction_id(),
            issue_cycle=cycle,
        )

    def _make_response(self, request: Packet) -> Packet:
        ptype = request.ptype.response_type
        return Packet(
            ptype=ptype,
            source=self.pm_id,
            destination=request.source,
            size_flits=self.geometry.size_of(ptype),
            transaction_id=request.transaction_id,
            issue_cycle=request.issue_cycle,
        )

    def issue_remote(self, target: int, is_read: bool = True, cycle: int = 0) -> Packet:
        """Explicitly issue one remote transaction (bypasses the M-MRP).

        Used by tests and trace-driven examples to place a single
        request into the injection pipeline; it behaves exactly like a
        generated miss (occupies an outstanding slot, is answered by
        the target memory, and is recorded on completion).
        """
        if target == self.pm_id:
            raise ValueError("issue_remote targets a different PM")
        ptype = PacketType.READ_REQUEST if is_read else PacketType.WRITE_REQUEST
        request = self._make_request(ptype, target, cycle)
        self.outstanding += 1
        # Deliberate phase exception: issue_remote is external stimulus
        # (tests, trace players) applied between engine cycles, never
        # from inside the clock loop, so these issue counters cannot
        # race a phase hook's metric recording.
        if is_read:
            self.metrics.reads_issued += 1  # repro: noqa[RPR003]
        else:
            self.metrics.writes_issued += 1  # repro: noqa[RPR003]
        self.metrics.remote_issued += 1  # repro: noqa[RPR003]
        self.open_transactions.add(request.transaction_id)
        self._req_staging.append(request)
        if self._engine is not None:
            self._engine.wake(self)
        return request

    # ------------------------------------------------------------------
    # per-cycle endpoint logic
    # ------------------------------------------------------------------
    def update(self, engine: Engine) -> None:
        cycle = engine.cycle
        self._eject(engine, cycle)
        self._serve_memory(cycle)
        self._complete_local(cycle)
        self._generate(cycle)
        self._drain_staging(engine, cycle)

    def _eject(self, engine: Engine, cycle: int) -> None:
        while not self.in_queue.is_empty:
            flit = self.in_queue.pop()
            packet = flit.packet
            if packet.destination != self.pm_id:
                raise SimulationError(
                    f"{packet!r} ejected at PM {self.pm_id}, not its destination"
                )
            received = self._rx_counts.get(packet.packet_id, 0) + 1
            if received < packet.size_flits:
                self._rx_counts[packet.packet_id] = received
                continue
            self._rx_counts.pop(packet.packet_id, None)
            if packet.ptype.is_request:
                self.memory.accept(packet, cycle)
            else:
                if packet.transaction_id not in self.open_transactions:
                    raise SimulationError(
                        f"response for unknown transaction {packet.transaction_id}"
                    )
                self.open_transactions.remove(packet.transaction_id)
                self.outstanding -= 1
                self.metrics.record_remote(cycle - packet.issue_cycle)
                engine.packets_in_flight -= 1

    def _serve_memory(self, cycle: int) -> None:
        for request in self.memory.ready_requests(cycle):
            self._resp_staging.append(self._make_response(request))

    def _complete_local(self, cycle: int) -> None:
        while self._local_pending and self._local_pending[0][0] <= cycle:
            __, issue_cycle = heapq.heappop(self._local_pending)
            self.outstanding -= 1
            self.metrics.record_local(cycle - issue_cycle)

    def _generate(self, cycle: int) -> None:
        if not self.generation_enabled:
            return
        miss = self.generator.poll(cycle, can_issue=self._can_issue)
        if miss is None:
            return
        self.outstanding += 1
        if miss.is_read:
            self.metrics.reads_issued += 1
        else:
            self.metrics.writes_issued += 1
        if miss.target == self.pm_id:
            self.metrics.local_issued += 1
            heapq.heappush(self._local_pending, (cycle + self.memory.latency, cycle))
            return
        self.metrics.remote_issued += 1
        ptype = MissGenerator.request_type(miss)
        request = self._make_request(ptype, miss.target, cycle)
        self.open_transactions.add(request.transaction_id)
        self._req_staging.append(request)

    def _drain_staging(self, engine: Engine, cycle: int) -> None:
        for staging, queue in (
            (self._resp_staging, self.out_resp),
            (self._req_staging, self.out_req),
        ):
            while staging:
                packet = staging[0]
                free = queue.free_slots
                if free is not None and free < packet.size_flits:
                    break
                staging.popleft()
                packet.inject_cycle = cycle
                queue.push_packet(iter(packet.flits))
                if packet.ptype.is_request:
                    engine.packets_in_flight += 1

    # ------------------------------------------------------------------
    # compiled datapath: the whole per-cycle update as one closure
    # ------------------------------------------------------------------
    def compiled_update_handler(
        self, engine: Engine
    ) -> "Callable[[int], int | None] | None":
        """Fuse :meth:`update` and :meth:`next_update_cycle` into one call.

        The five update sub-phases and the next-cycle query dispatch
        through seven method calls per active PM per cycle; at
        saturation the PMs are the engine's single hottest update
        population, so the compiled scheduler gets all of it as one
        flat closure over state bound at finalize.  The closure's work
        — including every random draw the miss generator makes — is
        call-for-call identical to the plain methods (the kernel
        equivalence matrix runs both datapaths against each other),
        with three elisions justified by module-local invariants:

        * ``out_req``/``out_resp`` are always bounded (constructor), so
          the drain loop's unbounded-queue branch is dead;
        * ``_req_staging`` only ever holds requests and
          ``_resp_staging`` only responses (``_generate``,
          ``issue_remote``, ``_serve_memory``), so the per-packet
          ``is_request`` test in the drain loop is constant per queue;
        * packet-type predicates (``is_request``, ``response_type``,
          ``size_of``) are total functions of the four-value
          :class:`PacketType`, precomputed here as dict lookups.

        Only the plain :class:`MissGenerator` is fused — its
        ``_advance_schedule`` draw discipline is part of this module's
        contract.  Custom miss sources (trace players) return ``None``
        and keep the generic two-method protocol.
        """
        generator = self.generator
        if type(generator) is not MissGenerator:
            return None
        pm = self
        pm_id = self.pm_id
        metrics = self.metrics
        memory = self.memory
        mem_pending = memory._pending
        mem_seq = memory._seq
        mem_latency = memory.latency
        in_queue = self.in_queue
        in_flits = in_queue._flits
        rx_counts = self._rx_counts
        open_txns = self.open_transactions
        local_pending = self._local_pending
        req_staging = self._req_staging
        resp_staging = self._resp_staging
        out_req = self.out_req
        out_resp = self.out_resp
        out_req_flits = out_req._flits
        out_resp_flits = out_resp._flits
        req_cap = out_req.capacity
        resp_cap = out_resp.capacity
        assert req_cap is not None and resp_cap is not None
        req_push = out_req.push_packet
        resp_push = out_resp.push_packet
        txn_seq = self._txn_seq
        txn_base = pm_id << 40
        limit = self._outstanding_limit
        record_remote = metrics.record_remote
        record_local = metrics.record_local
        gen_advance = generator._advance_schedule
        gen_next_issue = generator.next_issue_cycle
        heappush = heapq.heappush
        heappop = heapq.heappop
        read_request = PacketType.READ_REQUEST
        write_request = PacketType.WRITE_REQUEST
        is_request = {ptype: ptype.is_request for ptype in PacketType}
        response_of = {
            ptype: (ptype.response_type, self.geometry.size_of(ptype.response_type))
            for ptype in PacketType
            if ptype.is_request
        }
        read_req_size = self.geometry.size_of(read_request)
        write_req_size = self.geometry.size_of(write_request)
        # Self-waking drains (see Component.compiled_update_self_wakes):
        # injection wakes the output ports right at the push site, on the
        # empty -> non-empty edge only, instead of the engine re-scanning
        # both queues after every update.  Wake tuples exist once
        # `_finalize_active_sets` has run, which precedes handler
        # construction in `Engine._finalize`.
        active_prop = engine._active_prop
        req_pair = out_req._wake_on_push
        resp_pair = out_resp._wake_on_push
        req_wakes = None if req_pair is None else req_pair[0]
        resp_wakes = None if resp_pair is None else resp_pair[0]

        def fused_update(cycle: int) -> int | None:
            # --- _eject -----------------------------------------------
            while in_flits:
                flit = in_flits.popleft()
                in_queue.flits_dequeued += 1
                packet = flit.packet
                if packet.destination != pm_id:
                    raise SimulationError(
                        f"{packet!r} ejected at PM {pm_id}, not its destination"
                    )
                pid = packet.packet_id
                received = rx_counts.get(pid, 0) + 1
                if received < packet.size_flits:
                    rx_counts[pid] = received
                    continue
                rx_counts.pop(pid, None)
                if is_request[packet.ptype]:
                    heappush(
                        mem_pending, (cycle + mem_latency, next(mem_seq), packet)
                    )
                else:
                    txn = packet.transaction_id
                    if txn not in open_txns:
                        raise SimulationError(
                            f"response for unknown transaction {txn}"
                        )
                    open_txns.remove(txn)
                    pm.outstanding -= 1
                    record_remote(cycle - packet.issue_cycle)
                    engine.packets_in_flight -= 1
            # --- _serve_memory ----------------------------------------
            while mem_pending and mem_pending[0][0] <= cycle:
                __, __, request = heappop(mem_pending)
                memory.accesses_served += 1
                rtype, rsize = response_of[request.ptype]
                resp_staging.append(
                    Packet(
                        ptype=rtype,
                        source=pm_id,
                        destination=request.source,
                        size_flits=rsize,
                        transaction_id=request.transaction_id,
                        issue_cycle=request.issue_cycle,
                    )
                )
            # --- _complete_local --------------------------------------
            while local_pending and local_pending[0][0] <= cycle:
                __, issue_cycle = heappop(local_pending)
                pm.outstanding -= 1
                record_local(cycle - issue_cycle)
            # --- _generate, MissGenerator.poll inlined ----------------
            if pm.generation_enabled:
                miss = generator._pending
                if miss is not None:
                    if pm.outstanding < limit:
                        generator._pending = None
                        generator._next_draw_cycle = cycle + 1
                    else:
                        miss = None
                else:
                    # _advance_schedule early-returns when a miss is
                    # already scheduled, so only call it when not.
                    miss = generator._scheduled
                    if miss is None:
                        gen_advance(cycle)
                        miss = generator._scheduled
                    if miss is not None and generator._scheduled_cycle <= cycle:
                        generator._scheduled = None
                        generator.misses_generated += 1
                        if pm.outstanding < limit:
                            generator._next_draw_cycle = cycle + 1
                        else:
                            generator._pending = miss
                            miss = None
                    else:
                        miss = None
                if miss is not None:
                    pm.outstanding += 1
                    if miss.is_read:
                        metrics.reads_issued += 1
                    else:
                        metrics.writes_issued += 1
                    target = miss.target
                    if target == pm_id:
                        metrics.local_issued += 1
                        heappush(local_pending, (cycle + mem_latency, cycle))
                    else:
                        metrics.remote_issued += 1
                        request = Packet(
                            ptype=read_request if miss.is_read else write_request,
                            source=pm_id,
                            destination=target,
                            size_flits=(
                                read_req_size if miss.is_read else write_req_size
                            ),
                            transaction_id=txn_base | next(txn_seq),
                            issue_cycle=cycle,
                        )
                        open_txns.add(request.transaction_id)
                        req_staging.append(request)
            # --- _drain_staging (responses before requests) -----------
            while resp_staging:
                packet = resp_staging[0]
                if resp_cap - len(out_resp_flits) < packet.size_flits:
                    break
                resp_staging.popleft()
                packet.inject_cycle = cycle
                if resp_wakes is not None and not out_resp_flits:
                    active_prop.update(resp_wakes)
                resp_push(iter(packet.flits))
            while req_staging:
                packet = req_staging[0]
                if req_cap - len(out_req_flits) < packet.size_flits:
                    break
                req_staging.popleft()
                packet.inject_cycle = cycle
                if req_wakes is not None and not out_req_flits:
                    active_prop.update(req_wakes)
                req_push(iter(packet.flits))
                engine.packets_in_flight += 1
            # --- next_update_cycle, inlined ---------------------------
            nxt = mem_pending[0][0] if mem_pending else None
            if local_pending:
                local = local_pending[0][0]
                if nxt is None or local < nxt:
                    nxt = local
            if pm.generation_enabled:
                if generator._pending is not None:
                    issue = None
                elif generator._scheduled is not None:
                    issue = generator._scheduled_cycle
                else:
                    issue = gen_next_issue(cycle)
                if issue is not None and (nxt is None or issue < nxt):
                    nxt = issue
            if nxt is None:
                return None
            return nxt if nxt > cycle else cycle + 1

        return fused_update

    # ------------------------------------------------------------------
    # active-set scheduling contract (see core.engine.Component)
    # ------------------------------------------------------------------
    def may_sleep_propose(self) -> bool:
        return True  # PMs never propose; injection happens in update()

    def update_wake_buffers(self) -> tuple[FlitBuffer, ...]:
        return (self.in_queue,)

    def drain_wake_buffers(self) -> tuple[FlitBuffer, ...]:
        return (self.out_req, self.out_resp)

    def update_output_buffers(self) -> tuple[FlitBuffer, ...]:
        return (self.out_resp, self.out_req)

    def next_update_cycle(self, engine: Engine) -> int | None:
        """Earliest future cycle with work: a timer, or a staged packet.

        Staged packets that could not drain this cycle are waiting for
        the output queue to free up, which is a declared drain-wake
        event — so they do not keep the PM hot by themselves.  Ejection
        is fill-woken through ``in_queue``; only the three timer-like
        events (memory service, local completion, next generated miss)
        need an explicit wake cycle.
        """
        cycle = engine.cycle
        nxt = self.memory.next_ready_cycle
        if self._local_pending:
            local = self._local_pending[0][0]
            if nxt is None or local < nxt:
                nxt = local
        if self.generation_enabled:
            if self._next_issue_cycle is None:
                return cycle + 1  # unknown miss source: poll every cycle
            issue = self._next_issue_cycle(cycle)
            if issue is not None and (nxt is None or issue < nxt):
                nxt = issue
        if nxt is None:
            return None
        return nxt if nxt > cycle else cycle + 1
