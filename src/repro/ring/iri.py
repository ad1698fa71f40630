"""Inter-Ring Interface (paper Figure 4).

An IRI is a 2x2 crossbar joining a *lower* (child) ring to its *upper*
(parent) ring.  Switching is independent on the two sides, so the IRI
is modelled as two :class:`~repro.ring.port.RingPort` components that
share the up/down queues:

* the **lower port** sits on the child ring.  Arriving child-ring
  packets whose destination lies outside the child's subtree are routed
  into the *up* queues (split request/response); everything else stays
  in the lower ring buffer.  Its output link feeds the child ring from
  the lower ring buffer (priority) and the *down* queues.
* the **upper port** sits on the parent ring.  Arriving parent-ring
  packets destined inside the child subtree drop into the *down*
  queues; the rest transit via the upper ring buffer.  Its output feeds
  the parent ring from the upper ring buffer (priority) and the *up*
  queues.

"Priority is given to packets that do not change rings" (Section 2.1):
the shared :class:`RingPort` logic implements that as transit-first,
then response, then request.  All six buffers hold exactly one
cache-line packet.  When the global ring runs at double speed
(Section 6) the upper port of a global-ring IRI lives in the fast clock
domain while the lower port stays at PM speed; the up/down queues are
the domain-crossing FIFOs.
"""

from __future__ import annotations

from ..core.buffers import FlitBuffer
from ..core.packet import Packet
from .port import RingPort
from .topology import HierarchySpec


class InterRingInterface:
    """The two coupled ports joining a child ring to its parent ring."""

    def __init__(
        self,
        name: str,
        spec: HierarchySpec,
        child_prefix: tuple[int, ...],
        buffer_flits: int,
        lower_speed: int = 1,
        upper_speed: int = 1,
        transit_first: bool = True,
        response_first: bool = True,
        slotted: bool = False,
    ):
        self.name = name
        self.spec = spec
        self.child_prefix = child_prefix
        #: Slotted switching: a packet finding its up/down queue too
        #: full to hold it entirely recirculates instead of blocking.
        self.slotted = slotted

        # PM ids are assigned depth-first, so the child subtree is the
        # contiguous id range [lo, hi) — an O(1) classification test,
        # where spec.in_subtree would re-derive the mixed-radix address
        # of every head flit's destination.
        self._subtree_lo, self._subtree_hi = spec.subtree_range(child_prefix)

        self.up_req = FlitBuffer(f"{name}.up_req", capacity=buffer_flits)
        self.up_resp = FlitBuffer(f"{name}.up_resp", capacity=buffer_flits)
        self.down_req = FlitBuffer(f"{name}.down_req", capacity=buffer_flits)
        self.down_resp = FlitBuffer(f"{name}.down_resp", capacity=buffer_flits)

        lower_ring_buffer = FlitBuffer(f"{name}.lower_ring_buffer", capacity=buffer_flits)
        upper_ring_buffer = FlitBuffer(f"{name}.upper_ring_buffer", capacity=buffer_flits)

        down_sources = (
            [self.down_resp, self.down_req]
            if response_first
            else [self.down_req, self.down_resp]
        )
        up_sources = (
            [self.up_resp, self.up_req]
            if response_first
            else [self.up_req, self.up_resp]
        )
        self.lower_port = RingPort(
            f"{name}.lower",
            transit_buffer=lower_ring_buffer,
            injection_sources=down_sources,
            classify=self._classify_lower,
            speed=lower_speed,
            transit_first=transit_first,
        )
        self.upper_port = RingPort(
            f"{name}.upper",
            transit_buffer=upper_ring_buffer,
            injection_sources=up_sources,
            classify=self._classify_upper,
            speed=upper_speed,
            transit_first=transit_first,
        )
        self.lower_port.slotted = slotted
        self.upper_port.slotted = slotted
        #: Diagnostic: classification attempts that chose to recirculate
        #: (counted per arbitration retry, not per unique packet).
        self.recirculations = 0

    # ------------------------------------------------------------------
    def _take_or_recirculate(self, queue: FlitBuffer, packet: Packet,
                             transit: FlitBuffer) -> FlitBuffer:
        """Slotted switching's non-blocking rule for ring changes.

        Slots are routed independently, so the test is per slot: if the
        change queue has no free entry, this slot stays on its current
        ring and retries next revolution.  (Different slots of one
        packet may take different decisions; the destination reassembles
        out-of-order arrivals.)
        """
        if not self.slotted:
            return queue
        if queue.is_full:
            self.recirculations += 1
            return transit
        return queue

    def _classify_lower(self, packet: Packet) -> FlitBuffer:
        """Arriving on the child ring: ascend unless destined in-subtree."""
        if self._subtree_lo <= packet.destination < self._subtree_hi:
            return self.lower_port.transit_buffer
        queue = self.up_resp if packet.ptype.is_response else self.up_req
        return self._take_or_recirculate(queue, packet, self.lower_port.transit_buffer)

    def _classify_upper(self, packet: Packet) -> FlitBuffer:
        """Arriving on the parent ring: descend if destined in-subtree."""
        if self._subtree_lo <= packet.destination < self._subtree_hi:
            queue = self.down_resp if packet.ptype.is_response else self.down_req
            return self._take_or_recirculate(
                queue, packet, self.upper_port.transit_buffer
            )
        return self.upper_port.transit_buffer

    @property
    def subtree_range(self) -> tuple[int, int]:
        """Half-open PM-id range ``[lo, hi)`` of the child subtree.

        The routing contract this interface enforces — and that the
        runtime auditor (:mod:`repro.audit`) re-checks from outside —
        is expressible entirely in terms of this range: every packet
        parked in a *down* queue is destined inside it, every packet in
        an *up* queue outside it.
        """
        return (self._subtree_lo, self._subtree_hi)

    @property
    def buffers(self) -> list[FlitBuffer]:
        return [
            self.lower_port.transit_buffer,
            self.upper_port.transit_buffer,
            self.up_req,
            self.up_resp,
            self.down_req,
            self.down_resp,
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InterRingInterface({self.name})"
