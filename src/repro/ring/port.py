"""The generic ring node port.

Every position on a ring — a processing module's NIC or one side of an
inter-ring interface — behaves identically at the flit level
(Section 2.1):

* it owns a *transit* (ring) buffer holding packets passing through;
* it owns lower-priority *injection* sources (the PM's response and
  request output queues at a NIC; the down or up queues at an IRI);
* each cycle it sends at most one flit onto its output link, giving
  strict priority to transit packets, then responses, then requests,
  at packet granularity (wormhole: once a packet's head is sent the
  output is held until its tail passes);
* arriving packets are *classified* by the receiving port: continue on
  the ring (transit buffer), eject (PM input queue), or change rings
  (up/down queue) — decided on the head flit and pinned on the channel
  for the body flits.

:class:`RingPort` implements all of that; NICs and IRIs differ only in
their classifier and in which buffers they wire up.
"""

from __future__ import annotations

from typing import Callable

from ..core.buffers import FlitBuffer
from ..core.channel import Channel
from ..core.engine import CommitHandler, Component, Engine, Transfer
from ..core.errors import SimulationError
from ..core.packet import Flit, Packet

#: A classifier maps an arriving packet to the receiving buffer.
Classifier = Callable[[Packet], FlitBuffer]


class RingPort(Component):
    """One node position on a unidirectional ring."""

    #: Both switching modes only touch state at packet boundaries
    #: (counters and wormhole acquire on the head, release on the
    #: tail); body flits are pure data movement.
    commit_on_head_tail_only = True

    def __init__(
        self,
        name: str,
        transit_buffer: FlitBuffer,
        injection_sources: list[FlitBuffer],
        classify: Classifier,
        speed: int = 1,
        transit_first: bool = True,
        slotted: bool = False,
    ):
        self.name = name
        self.transit_buffer = transit_buffer
        self.injection_sources = injection_sources
        self.classify = classify
        self.speed = speed
        #: The paper gives transit packets strict priority; False is the
        #: injection-first ablation, which deadlocks a loaded ring (see
        #: tests/ring/test_arbitration_ablations.py).
        self.transit_first = transit_first
        #: Slotted (non-blocking) switching: flits move as independently
        #: routed slots; the station interleaves passing slots with
        #: local insertions (register-insertion style) so neither can
        #: starve the other.
        self.slotted = slotted
        #: Send arbitration order, precomputed: priority never changes
        #: after construction and propose() walks it every active cycle.
        self.sources_by_priority: tuple[FlitBuffer, ...] = (
            (transit_buffer, *injection_sources)
            if transit_first
            else (*injection_sources, transit_buffer)
        )
        self._insertion_turn = False
        # Wired by the network builder:
        self.out_channel: Channel | None = None
        self.in_channel: Channel | None = None
        self.downstream: "RingPort | None" = None
        # Wormhole send state: the packet currently holding the output
        # link and the buffer its flits stream from.
        self._sending: Packet | None = None
        self._sending_source: FlitBuffer | None = None
        # Compiled-datapath twin of the open route: the dense engine ids
        # of the (source, dest) pair, stashed by the head commit so the
        # continuation proposals of the packet's body flits skip the id
        # resolution entirely.  Only meaningful while `_sending` is set.
        self._cont_src = -1
        self._cont_dst = -1
        # Diagnostics
        self.packets_sent = 0
        self.transit_packets_sent = 0

    # ------------------------------------------------------------------
    def connect(self, downstream: "RingPort", channel: Channel) -> None:
        self.downstream = downstream
        self.out_channel = channel
        downstream.in_channel = channel

    # ------------------------------------------------------------------
    # active-set scheduling contract (see core.engine.Component)
    # ------------------------------------------------------------------
    def propose_wake_buffers(self) -> tuple[FlitBuffer, ...]:
        return self.sources_by_priority

    def may_sleep_propose(self) -> bool:
        """Idle iff no open wormhole send and every send buffer is empty."""
        if self._sending is not None:
            return False
        for source in self.sources_by_priority:
            if source._flits:
                return False
        return True

    def next_update_cycle(self, engine: Engine) -> int | None:
        return None  # ports have no update(); all work happens in propose()

    @property
    def is_mid_packet(self) -> bool:
        """True while a wormhole send holds this port's output link.

        Between a head flit's commit and the matching tail's commit the
        port streams body flits and ignores send priority; the runtime
        auditor (:mod:`repro.audit`) uses this to scope its
        transit-over-injection check to fresh arbitration decisions, and
        to require all sends closed at quiescence.
        """
        return self._sending is not None

    # ------------------------------------------------------------------
    def propose(self, engine: Engine) -> None:
        if self.downstream is None or self.out_channel is None:
            raise SimulationError(f"ring port {self.name!r} is not wired")
        if self.slotted:
            self._propose_slotted(engine)
            return
        flit, source = self._pick_flit()
        if flit is None or source is None:
            return
        if flit.is_head:
            dest = self.downstream.classify(flit.packet)
        else:
            dest = self.out_channel.incoming_route
            if dest is None:
                raise SimulationError(
                    f"{self.name}: body flit of {flit.packet!r} has no open route"
                )
        engine.propose(flit, source, dest, self.out_channel, self)

    def _propose_slotted(self, engine: Engine) -> None:
        """Slotted switching: every flit is an independently routed slot.

        This is how the slotted hierarchical-ring machines (Hector,
        NUMAchine) actually move data — a packet's slots need not be
        contiguous, the destination reassembles — which is what makes
        the switching non-blocking: any single slot can always either
        advance, drop into a change queue with a free entry, or
        recirculate.  It also means a packet longer than a ring's
        station count simply wraps, where wormhole contiguity would
        corrupt itself.

        Arbitration is register-insertion style: transit slots and
        local insertions alternate whenever both are waiting (a passing
        slot parks in the packet-sized insertion buffer for the one
        cycle an insertion takes).  Strict transit priority would let
        an IRI's own recirculating slots starve its change queues into
        a stable livelock; strict insertion priority would stall the
        ring.  The alternation bound keeps both draining.
        """
        transit_flit = self.transit_buffer.peek()
        insertion_flit = None
        insertion_source = None
        for candidate in self.injection_sources:
            insertion_flit = candidate.peek()
            if insertion_flit is not None:
                insertion_source = candidate
                break

        if transit_flit is not None and (
            insertion_flit is None
            or not self._insertion_turn
            or self.transit_buffer.is_full
        ):
            flit, source = transit_flit, self.transit_buffer
            self._insertion_turn = True
        elif insertion_flit is not None:
            flit, source = insertion_flit, insertion_source
            self._insertion_turn = False
        else:
            return
        dest = self.downstream.classify(flit.packet)
        engine.propose(flit, source, dest, self.out_channel, self)

    def compiled_propose_handler(
        self, engine: Engine
    ) -> "Callable[[Engine], None] | None":
        """Flat wormhole propose for the compiled datapath.

        A finalize-built closure equivalent to :meth:`propose` +
        ``engine.propose``, with the call tower and the engine's
        per-proposal structural checks flattened away.  The elisions are
        justified by this port's invariants (and guarded by the
        scheduler-equivalence matrix, since the object datapath keeps
        validating):

        * *head-of-buffer*: the offered flit **is** ``source._flits[0]``
          — the arbitration below peeks it from there;
        * *one drain per source*: each buffer is read by exactly one
          port, and a port writes at most one row per subcycle;
        * *one fill per bounded destination*: each receive buffer is
          fed by exactly one upstream link.

        Slotted ports keep the generic path — their per-slot
        classification and insertion-turn arbitration is not on the
        saturated hot path the compiled loop targets — as do unwired
        ports, so mis-wiring still raises through :meth:`propose`.  A
        port already mid-packet at finalize (only possible when reused
        across engines) also falls back: its stashed continuation ids
        would index the previous engine's columns.
        """
        if (
            self.slotted
            or self.downstream is None
            or self.out_channel is None
            or self._sending is not None
        ):
            return None
        port = self
        name = self.name
        classify = self.downstream.classify
        chan = engine.compiled_channel_id(self.out_channel)
        owner_id = self._engine_index
        # Send buffers are fixed at construction: bake their ids into
        # the arbitration walk so the hot path never re-resolves them.
        sources = tuple(
            (buffer, engine.compiled_buffer_id(buffer))
            for buffer in self.sources_by_priority
        )
        buf_objs = engine._buf_objs
        buf_cap = engine._buf_cap
        prop_of_src = engine._prop_of_src
        prop_of_dst = engine._prop_of_dst
        p_flit = engine._p_flit
        p_src = engine._p_src
        p_dst = engine._p_dst
        p_chan = engine._p_chan
        p_owner = engine._p_owner
        p_live = engine._p_live
        p_srcbuf = engine._p_srcbuf
        p_n = engine._p_n
        work = engine._work
        register_buffer = engine._register_buffer

        def propose_compiled(_engine: Engine) -> None:
            # --- arbitration: mirror of propose()/_pick_flit() ---
            sending = port._sending
            if sending is not None:
                source = port._sending_source
                if source is None:
                    return
                flits = source._flits
                if not flits:
                    return  # bubble: next flit not yet arrived
                flit = flits[0]
                if flit.packet is not sending:
                    raise SimulationError(
                        f"{name}: buffer {source.name!r} interleaved packets "
                        f"({flit.packet!r} inside {sending!r})"
                    )
                # Continuation flits are never heads (the head commit is
                # what set `_sending`), so the classify branch is dead
                # here and the endpoint ids are the ones the head commit
                # stashed — the compiled twin of the object path's
                # `out_channel.incoming_route` pin.
                src = port._cont_src
                dst = port._cont_dst
                dest = buf_objs[dst]
            else:
                flit = None
                for source, src in sources:
                    queued = source._flits
                    if queued:
                        flit = queued[0]
                        break
                if flit is None:
                    return
                if not flit.is_head:
                    raise SimulationError(
                        f"{name}: idle output but buffer {source.name!r} "
                        f"heads with mid-packet flit {flit!r}"
                    )
                dest = classify(flit.packet)
                dst = dest._buf_id
                if dst < 0 or len(buf_objs) <= dst or buf_objs[dst] is not dest:
                    dst = register_buffer(dest)
            # --- row write: mirror of Engine._propose_compiled ---
            n, base = p_n
            if n == len(p_flit):
                p_flit.append(flit)
                p_src.append(src)
                p_dst.append(dst)
                p_chan.append(chan)
                p_owner.append(owner_id)
                p_live.append(1)
                p_srcbuf.append(None)
            else:
                p_flit[n] = flit
                p_src[n] = src
                p_dst[n] = dst
                p_chan[n] = chan
                p_owner[n] = owner_id
                p_live[n] = 1
            prop_of_src[src] = base + n
            cap = buf_cap[dst]
            if cap >= 0:
                prop_of_dst[dst] = base + n
                if len(dest._flits) >= cap:
                    work.append(n)  # full dest: revocation candidate
            p_n[0] = n + 1

        return propose_compiled

    def _pick_flit(self):
        """Choose the flit to offer to the output link this cycle."""
        if self._sending is not None:
            source = self._sending_source
            flit = source.peek() if source is not None else None
            if flit is None:
                return None, None  # bubble: next flit not yet arrived
            if flit.packet is not self._sending:
                raise SimulationError(
                    f"{self.name}: buffer {source.name!r} interleaved packets "
                    f"({flit.packet!r} inside {self._sending!r})"
                )
            return flit, source
        for source in self.sources_by_priority:
            flit = source.peek()
            if flit is None:
                continue
            if not flit.is_head:
                raise SimulationError(
                    f"{self.name}: idle output but buffer {source.name!r} "
                    f"heads with mid-packet flit {flit!r}"
                )
            return flit, source
        return None, None

    # ------------------------------------------------------------------
    # Commit bookkeeping.  The flat `_commit_*` forms are the single
    # implementation: `on_transfer_commit` (object datapath) unpacks the
    # Transfer into them, and `compiled_commit_handler` hands the
    # matching bound method to the engine's compiled datapath so the
    # commit loop calls it directly — one monomorphic call, no Transfer.
    def compiled_commit_handler(self) -> "CommitHandler":
        return self._commit_slotted if self.slotted else self._commit_wormhole

    def on_transfer_commit(self, transfer: Transfer, engine: Engine) -> None:
        if self.slotted:
            self._commit_slotted(
                transfer.flit, transfer.source, transfer.dest, transfer.channel
            )
        else:
            self._commit_wormhole(
                transfer.flit, transfer.source, transfer.dest, transfer.channel
            )

    def _commit_slotted(
        self,
        flit: Flit,
        source: FlitBuffer,
        dest: FlitBuffer,
        channel: Channel | None,
    ) -> None:
        # Independent slots: no wormhole state to maintain.
        if flit.is_head:
            self.packets_sent += 1
            if source is self.transit_buffer:
                self.transit_packets_sent += 1

    def _commit_wormhole(
        self,
        flit: Flit,
        source: FlitBuffer,
        dest: FlitBuffer,
        channel: Channel | None,
    ) -> None:
        if flit.is_head:
            self.packets_sent += 1
            if source is self.transit_buffer:
                self.transit_packets_sent += 1
            if not flit.is_tail:
                self._sending = flit.packet
                self._sending_source = source
                self._cont_src = source._buf_id
                self._cont_dst = dest._buf_id
                channel.open_route(flit.packet, dest)
        if flit.is_tail:
            self._sending = None
            self._sending_source = None
            channel.close_route()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RingPort({self.name})"
