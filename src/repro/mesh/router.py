"""Mesh Network Interface Controller — a 5x5 wormhole crossbar router
(paper Figure 5 and Section 2.2).

Each router has four neighbor input links with FIFO buffers of 1, 4 or
``cl`` flits, plus the local processing module's injection port (the
PM's split request/response output queues — one physical port, so at
most one flit injects per cycle, responses first).  Output ports:

* are allocated to an input at the head flit and held until the tail
  flit passes ("once a switch connection ... is established, it is
  broken only after the last flit of a packet has been transferred");
* arbitrate competing head flits round-robin (Section 2.2);
* forward at most one flit per cycle; the crossbar connects any inputs
  to any outputs within a single clock ("our mesh NIC can connect all
  inputs to outputs in a single clock cycle"), and the 1-cycle routing
  delay comes from buffering at the downstream node.

Blocked flits stay in their input buffer and back-pressure the upstream
link through the engine's flow-control resolution.
"""

from __future__ import annotations

from typing import Callable

from ..core.buffers import FlitBuffer
from ..core.channel import Channel
from ..core.engine import CommitHandler, Component, Engine, Transfer
from ..core.errors import SimulationError
from ..core.packet import Flit, Packet
from ..core.pm import ProcessingModule
from .routing import LOCAL, PORT_ORDER, ecube_next_direction, ecube_next_hop_rows
from .topology import MeshShape

#: Input arbitration order (round-robin start rotates through this).
INPUT_ORDER = PORT_ORDER
OUTPUT_ORDER = PORT_ORDER

_PORTS = len(PORT_ORDER)

#: The round-robin arbiter as a table: ``_RR_PICK[start][mask]`` is the
#: first input index at or after ``start`` (wrapping) whose bit is set
#: in the 5-bit request ``mask``, or -1 for the empty mask.
_RR_PICK = tuple(
    tuple(
        next(
            (
                (start + offset) % _PORTS
                for offset in range(_PORTS)
                if mask >> (start + offset) % _PORTS & 1
            ),
            -1,
        )
        for mask in range(1 << _PORTS)
    )
    for start in range(_PORTS)
)

#: ``_REQUEST_BIT[i][o]``: the bit input *i* sets to request output *o*
#: in a router's packed per-cycle request word (bit ``o * _PORTS + i``,
#: so ``word >> o * _PORTS & 31`` is output *o*'s ``_RR_PICK`` mask).
_REQUEST_BIT = tuple(
    tuple(1 << out * _PORTS + index for out in range(_PORTS))
    for index in range(_PORTS)
)


class MeshRouter(Component):
    """One node's router plus its processing-module port."""

    speed = 1

    #: Commit bookkeeping (round-robin advance, crossbar lock/unlock)
    #: happens on head and tail flits only; body flits of the paper's
    #: up-to-36-flit mesh packets are pure data movement.
    commit_on_head_tail_only = True

    def __init__(
        self,
        pm: ProcessingModule,
        shape: MeshShape,
        buffer_flits: int,
    ):
        self.pm = pm
        self.shape = shape
        self.node = pm.pm_id
        self.name = f"router{self.node}"

        self.input_buffers: dict[str, FlitBuffer] = {
            direction: FlitBuffer(f"{self.name}.in_{direction}", capacity=buffer_flits)
            for direction in ("N", "E", "S", "W")
        }

        # Wired by the network builder: out direction -> (dest buffer, channel)
        self._out_dest: dict[str, FlitBuffer] = {LOCAL: pm.in_queue}
        self._out_channel: dict[str, Channel | None] = {LOCAL: None}

        # Wormhole state.
        self._output_lock: dict[str, str | None] = {d: None for d in OUTPUT_ORDER}
        self._input_route: dict[str, str | None] = {d: None for d in INPUT_ORDER}
        self._input_active_buffer: dict[str, FlitBuffer | None] = {
            d: None for d in INPUT_ORDER
        }
        self._rr_pointer: dict[str, int] = {d: 0 for d in OUTPUT_ORDER}

        # Reverse maps for commit-time bookkeeping.
        self._input_of_source: dict[FlitBuffer, str] = {
            buf: direction for direction, buf in self.input_buffers.items()
        }
        self._input_of_source[pm.out_resp] = LOCAL
        self._input_of_source[pm.out_req] = LOCAL
        self._output_of_dest: dict[FlitBuffer, str] = {pm.in_queue: LOCAL}

        # Wired outputs in arbitration order, rebuilt by connect();
        # propose() walks this every active cycle.
        self._connected: tuple[str, ...] = (LOCAL,)
        self._local_queues = (pm.out_resp, pm.out_req)
        self._wake_buffers = (
            *self.input_buffers.values(),
            pm.out_resp,
            pm.out_req,
        )

        self.packets_routed = 0

    # ------------------------------------------------------------------
    def connect(self, direction: str, neighbor: "MeshRouter", channel: Channel) -> None:
        """Wire this router's *direction* output to *neighbor*'s input."""
        from .topology import OPPOSITE

        dest = neighbor.input_buffers[OPPOSITE[direction]]
        self._out_dest[direction] = dest
        self._out_channel[direction] = channel
        self._output_of_dest[dest] = direction
        self._connected = tuple(d for d in OUTPUT_ORDER if d in self._out_dest)

    @property
    def connected_outputs(self) -> list[str]:
        return list(self._connected)

    # ------------------------------------------------------------------
    # active-set scheduling contract (see core.engine.Component)
    # ------------------------------------------------------------------
    def propose_wake_buffers(self) -> tuple[FlitBuffer, ...]:
        return self._wake_buffers

    def may_sleep_propose(self) -> bool:
        """Idle iff no output is mid-packet and every feed buffer is empty."""
        for lock in self._output_lock.values():
            if lock is not None:
                return False
        for buffer in self._wake_buffers:
            if buffer._flits:
                return False
        return True

    def next_update_cycle(self, engine: Engine) -> int | None:
        return None  # routers have no update(); all work happens in propose()

    # ------------------------------------------------------------------
    def _head_candidate(self, in_key: str) -> tuple[Flit, FlitBuffer] | None:
        """The new-packet head flit offered by input *in_key*, if any."""
        if in_key == LOCAL:
            for queue in self._local_queues:
                flit = queue.peek()
                if flit is not None:
                    if not flit.is_head:
                        raise SimulationError(
                            f"{self.name}: idle local port, mid-packet flit "
                            f"at head of {queue.name!r}"
                        )
                    return flit, queue
            return None
        buffer = self.input_buffers[in_key]
        flit = buffer.peek()
        if flit is None:
            return None
        if not flit.is_head:
            raise SimulationError(
                f"{self.name}: input {in_key} idle but heads with {flit!r}"
            )
        return flit, buffer

    def route(self, packet: Packet) -> str:
        return ecube_next_direction(self.shape, self.node, packet.destination)

    # ------------------------------------------------------------------
    def propose(self, engine: Engine) -> None:
        output_lock = self._output_lock
        for out_key in self._connected:
            lock = output_lock[out_key]
            if lock is not None:
                self._propose_continuation(engine, out_key, lock)
            else:
                self._propose_new_packet(engine, out_key)

    def _propose_continuation(self, engine: Engine, out_key: str, in_key: str) -> None:
        buffer = self._input_active_buffer[in_key]
        if buffer is None:
            raise SimulationError(f"{self.name}: output {out_key} locked to idle input")
        flit = buffer.peek()
        if flit is None:
            return  # bubble: the packet's next flit has not arrived yet
        engine.propose(
            flit, buffer, self._out_dest[out_key], self._out_channel[out_key], self
        )

    def _propose_new_packet(self, engine: Engine, out_key: str) -> None:
        start = self._rr_pointer[out_key]
        order = INPUT_ORDER
        for offset in range(len(order)):
            in_key = order[(start + offset) % len(order)]
            if self._input_route[in_key] is not None:
                continue  # input is mid-packet toward some other output
            candidate = self._head_candidate(in_key)
            if candidate is None:
                continue
            flit, buffer = candidate
            if self.route(flit.packet) != out_key:
                continue
            engine.propose(
                flit, buffer, self._out_dest[out_key], self._out_channel[out_key], self
            )
            return

    def compiled_propose_handler(
        self, engine: Engine
    ) -> "Callable[[Engine], None] | None":
        """Flat crossbar propose for the compiled datapath.

        A finalize-built closure equivalent to :meth:`propose` +
        ``engine.propose``: the same proposals in the same order, from
        the same wormhole state dicts, without the per-output rescan of
        every input.  One pass over the inputs turns each idle input's
        head flit into a request bit for the output its destination
        routes to (a shared :func:`ecube_next_hop_rows` lookup); one
        walk over the connected outputs then streams the pinned input
        on a locked output and grants ``_RR_PICK[pointer][requests]`` on
        a free one.  An input's head routes to exactly one output and
        no state changes inside a propose, so the one-pass request mask
        holds what the object path's per-output scans would each find.

        Kept from the object path: both mid-packet-flit-on-an-idle-port
        errors, the locked-to-an-idle-input error, and the engine's
        one-drain-per-source / one-fill-per-bounded-destination checks.
        Elided: the engine's head-of-buffer check — every offered flit
        is read from ``source._flits[0]`` inside this call.  The errors
        fire for any idle input, where the object path only notices
        those a free output's scan reaches; both states are corrupt.

        A router already mid-packet at finalize (reused across engines)
        keeps the generic path, as :class:`RingPort` does: the pinned
        source's id would index the previous engine's columns.
        """
        if any(lock is not None for lock in self._output_lock.values()):
            return None
        name = self.name
        owner_id = self._engine_index
        output_lock = self._output_lock
        input_route = self._input_route
        input_active_buffer = self._input_active_buffer
        rr_pointer = self._rr_pointer
        next_hop = ecube_next_hop_rows(self.shape)[self.node]
        buf_id = engine.compiled_buffer_id
        buf_cap = engine._buf_cap
        local = INPUT_ORDER.index(LOCAL)
        neighbor_inputs = tuple(
            (in_key, index, self.input_buffers[in_key], _REQUEST_BIT[index])
            for index, in_key in enumerate(INPUT_ORDER)
            if index != local
        )
        local_queues = tuple((queue, buf_id(queue)) for queue in self._local_queues)
        local_bits = _REQUEST_BIT[local]
        # Per input: the head flit it offers this cycle and the engine
        # id of the buffer holding it (LOCAL's is set with the offer).
        heads: list[Flit | None] = [None] * _PORTS
        sources = [
            -1 if index == local else buf_id(self.input_buffers[in_key])
            for index, in_key in enumerate(INPUT_ORDER)
        ]
        outputs = []
        for out_key in self._connected:
            dest = self._out_dest[out_key]
            dst = buf_id(dest)
            channel = self._out_channel[out_key]
            chan = -1 if channel is None else engine.compiled_channel_id(channel)
            shift = OUTPUT_ORDER.index(out_key) * _PORTS
            outputs.append((out_key, shift, dest, dst, chan, buf_cap[dst]))
        buf_objs = engine._buf_objs
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
        rr_pick = _RR_PICK

        def propose_compiled(_engine: Engine) -> None:
            # --- requests: mirror of _head_candidate() + route() ---
            requests = 0
            for in_key, index, buffer, bits in neighbor_inputs:
                if input_route[in_key] is None:
                    flits = buffer._flits
                    if flits:
                        flit = flits[0]
                        if not flit.is_head:
                            raise SimulationError(
                                f"{name}: input {in_key} idle but heads with {flit!r}"
                            )
                        heads[index] = flit
                        requests |= bits[next_hop[flit.packet.destination]]
            if input_route[LOCAL] is None:
                for queue, src in local_queues:  # responses first
                    flits = queue._flits
                    if flits:
                        flit = flits[0]
                        if not flit.is_head:
                            raise SimulationError(
                                f"{name}: idle local port, mid-packet flit "
                                f"at head of {queue.name!r}"
                            )
                        heads[local] = flit
                        sources[local] = src
                        requests |= local_bits[next_hop[flit.packet.destination]]
                        break
            # --- grants: mirror of propose(), outputs in OUTPUT_ORDER ---
            n, base = p_n
            for out_key, shift, dest, dst, chan, cap in outputs:
                in_key = output_lock[out_key]
                if in_key is not None:
                    buffer = input_active_buffer[in_key]
                    if buffer is None:
                        raise SimulationError(
                            f"{name}: output {out_key} locked to idle input"
                        )
                    flits = buffer._flits
                    if not flits:
                        continue  # bubble: next flit not yet arrived
                    flit = flits[0]
                    src = buffer._buf_id
                else:
                    mask = requests >> shift & 31
                    if not mask:
                        continue
                    index = rr_pick[rr_pointer[out_key]][mask]
                    flit = heads[index]
                    src = sources[index]
                # --- row write: mirror of Engine._propose_compiled ---
                if prop_of_src[src] >= base:
                    raise SimulationError(
                        f"two transfers source from buffer {buf_objs[src].name!r}"
                    )
                if cap >= 0 and prop_of_dst[dst] >= base:
                    raise SimulationError(
                        f"two transfers target bounded buffer {dest.name!r}"
                    )
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
                if cap >= 0:
                    prop_of_dst[dst] = base + n
                    if len(dest._flits) >= cap:
                        work.append(n)  # full dest: revocation candidate
                n += 1
            p_n[0] = n

        return propose_compiled

    # ------------------------------------------------------------------
    # Commit bookkeeping.  `_commit_flit` is the single implementation;
    # `on_transfer_commit` (object datapath) unpacks the Transfer into
    # it and `compiled_commit_handler` exposes it to the engine's
    # compiled datapath as a direct monomorphic call.
    def compiled_commit_handler(self) -> "CommitHandler":
        return self._commit_flit

    def on_transfer_commit(self, transfer: Transfer, engine: Engine) -> None:
        self._commit_flit(transfer.flit, transfer.source, transfer.dest, transfer.channel)

    def _commit_flit(
        self,
        flit: Flit,
        source: FlitBuffer,
        dest: FlitBuffer,
        channel: Channel | None,
    ) -> None:
        in_key = self._input_of_source[source]
        out_key = self._output_of_dest[dest]
        if flit.is_head:
            self.packets_routed += 1
            self._rr_pointer[out_key] = (INPUT_ORDER.index(in_key) + 1) % len(INPUT_ORDER)
            if not flit.is_tail:
                self._output_lock[out_key] = in_key
                self._input_route[in_key] = out_key
                self._input_active_buffer[in_key] = source
        if flit.is_tail:
            self._output_lock[out_key] = None
            self._input_route[in_key] = None
            self._input_active_buffer[in_key] = None

    def audit_check_locks(self) -> str | None:
        """Crossbar lock symmetry check for :mod:`repro.audit`.

        The wormhole state is stored twice (by output and by input) so
        both the continuation and the arbitration paths get O(1)
        lookups; this verifies the two views agree: an output locked to
        an input iff that input routes to it, with its active buffer
        pinned.  Returns a human-readable violation, or ``None``.
        """
        for out_key, in_key in self._output_lock.items():
            if in_key is None:
                continue
            if self._input_route.get(in_key) != out_key:
                return (
                    f"{self.name}: output {out_key} locked to input {in_key} "
                    f"but that input routes to {self._input_route.get(in_key)!r}"
                )
            if self._input_active_buffer.get(in_key) is None:
                return (
                    f"{self.name}: output {out_key} locked to input {in_key} "
                    f"with no active source buffer"
                )
        for in_key, out_key in self._input_route.items():
            if out_key is not None and self._output_lock.get(out_key) != in_key:
                return (
                    f"{self.name}: input {in_key} routes to output {out_key} "
                    f"but that output is locked to {self._output_lock.get(out_key)!r}"
                )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MeshRouter(node={self.node})"
