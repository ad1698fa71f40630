"""The runtime invariant auditor.

An :class:`Auditor` hooks the engine's propose/resolve/commit/update
step (installed by ``Engine._finalize`` when :func:`repro.audit.enable`
is active) and re-checks, from outside the datapath, the invariants the
three schedulers' equivalence argument rests on:

**Per subcycle, after propose** (:meth:`Auditor.check_proposals`)
    * every proposed flit is the head of its source FIFO;
    * at most one drain per source buffer and one fill per bounded
      destination buffer (the resolver's structural precondition);
    * transit-over-injection priority on wormhole ring ports: a fresh
      head-flit proposal from an injection queue is only legal when the
      transit buffer is empty (paper Section 2.1, "priority is given to
      packets that do not change rings");
    * body flits of a wormhole send follow the route pinned on the
      channel by their packet's head;
    * mesh proposals obey the declarative routing spec: a head flit
      offered to output *d* must have *d* in the legal-output set of
      :func:`repro.checkers.specs.mesh_legal_outputs` for its
      destination — the same table the static CDG prover certified, so
      the static and dynamic legality models are one artifact;
    * mesh round-robin arbitration: on every connected, unlocked router
      output the proposed source is the first idle input, scanning
      ``INPUT_ORDER`` from that output's round-robin pointer, whose head
      flit the routing spec sends there — and an unlocked output with
      such a requester does carry a proposal (the mesh twin of the ring
      transit-priority check: *who* wins, not only where it goes).

**Per subcycle, after resolve** (:meth:`Auditor.check_resolution`)
    * the surviving set is a valid fixed point (no surviving fill
      overflows its destination, counting same-subcycle drains under
      bypass flow control) and *maximal* (every revoked proposal would
      overflow, i.e. the resolver never over-revokes — the greatest
      fixed point, not just any fixed point);
    * wormhole contiguity per channel: flits of different packets never
      interleave on one link, and a packet's flits cross in index order
      (slotted ring links are exempt — slots are independent by design).

**Per subcycle, after commit** (:meth:`Auditor.check_commit`)
    * the commit loop moved exactly the resolved survivors;
    * ring wormhole route state: a committed head (non-tail) leaves the
      channel's incoming route open on its packet, a committed tail
      leaves it closed;
    * mesh crossbar lock symmetry
      (:meth:`~repro.mesh.router.MeshRouter.audit_check_locks`).

**Per base cycle, after update** (:meth:`Auditor.check_cycle_end`)
    * flit conservation per buffer: ``enqueued - dequeued == occupancy``
      (:meth:`~repro.core.buffers.FlitBuffer.conservation_delta`), and
      occupancy within capacity;
    * flit conservation per channel: ``flits_carried`` advanced by
      exactly the transfers the auditor saw commit over it;
    * flit conservation globally: ``engine.flits_moved`` equals the
      audited commit total;
    * transaction lifecycle per PM: ``outstanding`` equals open remote
      transactions plus pending local ones, and never exceeds the
      workload's T; globally, issued minus completed remote
      transactions equals the open-transaction population;
    * IRI routing contract: every packet parked in a *down* queue is
      destined inside the child subtree, every packet in an *up* queue
      outside it, and request/response queues hold only their kind.

**At drain** (:meth:`Auditor.check_quiescent`, used by the fuzzer)
    * with generation disabled and the network drained, every buffer is
      empty, every wormhole route closed, every PM's transaction window
      empty, and every issued remote request was matched by exactly one
      response (``remote_issued == remote_completed``).

The auditor is deliberately slow and object-level: it re-derives each
invariant from component state using none of the compiled datapath's
caches, so a bug in those caches cannot hide itself.  All violations
raise :class:`AuditError` immediately (and are kept in
:attr:`Auditor.violations` for post-mortem inspection).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..checkers.specs import mesh_legal_outputs
from ..core.buffers import FlitBuffer
from ..core.channel import Channel
from ..core.errors import SimulationError
from ..core.pm import ProcessingModule
from ..mesh.router import INPUT_ORDER, MeshRouter
from ..mesh.routing import LOCAL
from ..ring.iri import InterRingInterface
from ..ring.port import RingPort

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..core.engine import Engine
    from ..core.packet import Flit
    from ..core.pm import MetricsHub

#: One audited proposal: (flit, source, dest, channel, owner, live).
Proposal = tuple[
    "Flit", FlitBuffer, FlitBuffer, "Channel | None", Any, bool
]
#: One audited survivor: a committed (flit, source, dest, channel, owner).
Survivor = tuple["Flit", FlitBuffer, FlitBuffer, "Channel | None", Any]


class AuditError(SimulationError):
    """A runtime invariant violation caught by the auditor."""

    def __init__(self, invariant: str, cycle: int, detail: str):
        self.invariant = invariant
        self.cycle = cycle
        self.detail = detail
        super().__init__(f"[{invariant}] cycle {cycle}: {detail}")

    def __reduce__(self) -> tuple[type, tuple[str, int, str]]:
        # Rebuilt from the constructor's own arguments, so the error a
        # pool worker raises reaches the parent as an AuditError.
        return type(self), (self.invariant, self.cycle, self.detail)


class Auditor:
    """Per-cycle invariant checker (see the module docstring).

    One instance may audit several engines in sequence (every point of
    a sweep): the engine-specific registries reset on each
    :meth:`attach`, the counters accumulate.
    """

    def __init__(self) -> None:
        #: base cycles fully audited, across all attached engines
        self.cycles_audited = 0
        #: individual proposals validated
        self.proposals_checked = 0
        #: engines attached (= simulation runs observed)
        self.engines_attached = 0
        #: violations found, as AuditError instances (raise-first: the
        #: list is only longer than one when callers swallow the raise)
        self.violations: list[AuditError] = []
        self._engine: "Engine | None" = None
        # --- per-engine registries, rebuilt by attach() ---
        # insertion-ordered buffer registry: id -> (buffer, enq0, deq0, occ0)
        self._buffers: dict[int, tuple[FlitBuffer, int, int, int]] = {}
        # channel conservation: id -> [channel, carried0, expected_delta]
        self._channels: dict[int, list[Any]] = {}
        # wormhole contiguity state: id -> [channel, open_packet, next_index]
        self._contiguity: dict[int, list[Any]] = {}
        self._slotted_channels: set[int] = set()
        # wormhole transit-first ports: id -> (port, injection buffer ids)
        self._transit_ports: dict[int, tuple[RingPort, frozenset[int]]] = {}
        self._ring_ports: list[RingPort] = []
        self._mesh_routers: list[MeshRouter] = []
        self._pms: list[ProcessingModule] = []
        self._iris: list[InterRingInterface] = []
        # One hub per replica under the batched engine; exactly one for
        # a solo run (deduped — every PM of a network shares its hub).
        self._metrics_hubs: "list[MetricsHub]" = []
        self._flits_moved_base = 0
        self._committed_total = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, engine: "Engine") -> None:
        """Index *engine*'s components; called from ``Engine._finalize``."""
        self._engine = engine
        self.engines_attached += 1
        self._buffers = {}
        self._channels = {}
        self._contiguity = {}
        self._slotted_channels = set()
        self._transit_ports = {}
        self._ring_ports = []
        self._mesh_routers = []
        self._pms = []
        self._iris = []
        self._metrics_hubs = []
        self._flits_moved_base = engine.flits_moved
        self._committed_total = 0
        seen_iris: set[int] = set()
        for component in engine.components:
            for buffer in (
                *component.propose_wake_buffers(),
                *component.update_wake_buffers(),
                *component.drain_wake_buffers(),
                *component.update_output_buffers(),
            ):
                self._track_buffer(buffer)
            if isinstance(component, RingPort):
                self._ring_ports.append(component)
                if component.out_channel is not None:
                    self._track_channel(component.out_channel)
                    if component.slotted:
                        self._slotted_channels.add(id(component.out_channel))
                if not component.slotted and component.transit_first:
                    self._transit_ports[id(component)] = (
                        component,
                        frozenset(
                            id(buffer) for buffer in component.injection_sources
                        ),
                    )
                # An IRI is not itself a component; recover it from the
                # bound classifier its two ports carry.
                owner = getattr(component.classify, "__self__", None)
                if isinstance(owner, InterRingInterface) and id(owner) not in seen_iris:
                    seen_iris.add(id(owner))
                    self._iris.append(owner)
            elif isinstance(component, MeshRouter):
                self._mesh_routers.append(component)
                for channel in component._out_channel.values():
                    if channel is not None:
                        self._track_channel(channel)
            elif isinstance(component, ProcessingModule):
                self._pms.append(component)
                if not any(hub is component.metrics for hub in self._metrics_hubs):
                    self._metrics_hubs.append(component.metrics)

    def _track_buffer(self, buffer: FlitBuffer) -> None:
        key = id(buffer)
        if key not in self._buffers:
            self._buffers[key] = (
                buffer,
                buffer.flits_enqueued,
                buffer.flits_dequeued,
                buffer.occupancy,
            )

    def _track_channel(self, channel: Channel) -> None:
        key = id(channel)
        if key not in self._channels:
            self._channels[key] = [channel, channel.flits_carried, 0]
            self._contiguity[key] = [channel, None, 0]

    # ------------------------------------------------------------------
    def _fail(self, invariant: str, detail: str) -> None:
        engine = self._engine
        error = AuditError(invariant, engine.cycle if engine else -1, detail)
        self.violations.append(error)
        raise error

    # ------------------------------------------------------------------
    # hook: after the propose phase of a subcycle
    # ------------------------------------------------------------------
    def check_proposals(self, engine: "Engine") -> None:
        proposals = engine.audit_proposals()
        self.proposals_checked += len(proposals)
        drained: set[int] = set()
        filled: set[int] = set()
        for flit, source, dest, channel, owner, _live in proposals:
            self._track_buffer(source)
            self._track_buffer(dest)
            if channel is not None:
                self._track_channel(channel)
            if not source._flits or source._flits[0] is not flit:
                self._fail(
                    "proposal-head",
                    f"{owner!r} proposed {flit!r} which is not the head "
                    f"of {source.name!r}",
                )
            if id(source) in drained:
                self._fail(
                    "one-drain-per-source",
                    f"two proposals drain buffer {source.name!r}",
                )
            drained.add(id(source))
            if dest.capacity is not None:
                if id(dest) in filled:
                    self._fail(
                        "one-fill-per-dest",
                        f"two proposals fill bounded buffer {dest.name!r}",
                    )
                filled.add(id(dest))
            entry = self._transit_ports.get(id(owner))
            if entry is not None:
                port, injection_ids = entry
                if (
                    flit.is_head
                    and not port.is_mid_packet
                    and id(source) in injection_ids
                    and port.transit_buffer._flits
                ):
                    self._fail(
                        "transit-priority",
                        f"{port.name}: injected head {flit!r} from "
                        f"{source.name!r} while transit buffer "
                        f"{port.transit_buffer.name!r} holds "
                        f"{port.transit_buffer.occupancy} flit(s)",
                    )
                if not flit.is_head and channel is not None:
                    if channel.incoming_packet is not flit.packet:
                        self._fail(
                            "wormhole-route-pin",
                            f"{port.name}: body flit {flit!r} proposed on "
                            f"{channel.name!r} whose open route belongs to "
                            f"{channel.incoming_packet!r}",
                        )
                    if channel.incoming_route is not dest:
                        self._fail(
                            "wormhole-route-pin",
                            f"{port.name}: body flit {flit!r} targets "
                            f"{dest.name!r} but the route pinned on "
                            f"{channel.name!r} is {channel.incoming_route!r}",
                        )
            elif isinstance(owner, MeshRouter) and flit.is_head:
                direction = owner._output_of_dest.get(dest)
                if direction is None:
                    self._fail(
                        "mesh-route",
                        f"{owner.name}: head {flit!r} proposed into "
                        f"{dest.name!r}, which is not one of its outputs",
                    )
                else:
                    # Legality comes from the same declarative spec
                    # table the static CDG prover certified — not from
                    # re-running the router's own route() against
                    # itself — so the static and dynamic layers cannot
                    # drift apart (LOCAL is legal exactly at the
                    # packet's destination).
                    allowed = mesh_legal_outputs(owner.shape)[
                        (owner.node, flit.packet.destination)
                    ]
                    if direction not in allowed:
                        self._fail(
                            "mesh-route",
                            f"{owner.name}: head of {flit.packet!r} offered "
                            f"to output {direction} but the routing spec "
                            f"allows {sorted(allowed)}",
                        )
        if self._mesh_routers:
            self._check_mesh_arbitration(proposals)

    def _check_mesh_arbitration(self, proposals: "list[Proposal]") -> None:
        """Round-robin conformance of every unlocked mesh router output.

        Re-derives the expected winner from router state alone (lock
        and pointer dicts, buffer heads, the routing-spec table) — not
        from ``route()``, the next-hop rows or ``_RR_PICK`` — and
        compares it with what was actually proposed.  Every router is
        checked, awake or not: one that sleeps has empty feed buffers,
        hence no requester and no proposal.
        """
        offered = {
            (id(owner), id(dest)): source
            for _flit, source, dest, _channel, owner, _live in proposals
        }
        ports = len(INPUT_ORDER)
        for router in self._mesh_routers:
            legal = mesh_legal_outputs(router.shape)
            heads: "dict[str, tuple[Flit, FlitBuffer]]" = {}
            for in_key in INPUT_ORDER:
                if router._input_route[in_key] is not None:
                    continue  # mid-packet: not arbitrating
                queues = (
                    router._local_queues
                    if in_key == LOCAL
                    else (router.input_buffers[in_key],)
                )
                for queue in queues:  # LOCAL: responses before requests
                    if queue._flits:
                        if queue._flits[0].is_head:
                            heads[in_key] = (queue._flits[0], queue)
                        break
            for out_key in router._connected:
                if router._output_lock[out_key] is not None:
                    continue
                expected: "FlitBuffer | None" = None
                start = router._rr_pointer[out_key]
                for offset in range(ports):
                    candidate = heads.get(INPUT_ORDER[(start + offset) % ports])
                    if candidate is None:
                        continue
                    flit, queue = candidate
                    if out_key in legal[(router.node, flit.packet.destination)]:
                        expected = queue
                        break
                actual = offered.get((id(router), id(router._out_dest[out_key])))
                if actual is not expected:
                    self._fail(
                        "mesh-arbitration",
                        f"{router.name}: unlocked output {out_key} (round-robin "
                        f"pointer {start}) should be granted to "
                        f"{expected.name if expected is not None else None!r} "
                        f"but the proposal sources from "
                        f"{actual.name if actual is not None else None!r}",
                    )

    # ------------------------------------------------------------------
    # hook: after the resolve phase of a subcycle
    # ------------------------------------------------------------------
    def check_resolution(self, engine: "Engine") -> list[Survivor]:
        proposals = engine.audit_proposals()
        bypass = engine.flow_control == "bypass"
        # Surviving drain per source buffer, for the bypass test.
        live_drain_of: set[int] = set()
        for _flit, source, _dest, _chan, _owner, live in proposals:
            if live:
                live_drain_of.add(id(source))
        survivors: list[Survivor] = []
        for flit, source, dest, channel, owner, live in proposals:
            cap = dest.capacity
            draining = bypass and cap is not None and id(dest) in live_drain_of
            if live:
                if cap is not None and (
                    dest.occupancy - (1 if draining else 0) + 1 > cap
                ):
                    self._fail(
                        "resolve-fixed-point",
                        f"surviving fill of {dest.name!r} overflows: "
                        f"occupancy {dest.occupancy}, capacity {cap}, "
                        f"draining={draining} ({flit!r} from {source.name!r})",
                    )
                survivors.append((flit, source, dest, channel, owner))
            else:
                if cap is None:
                    self._fail(
                        "resolve-maximality",
                        f"proposal into unbounded {dest.name!r} was revoked "
                        f"({flit!r} from {source.name!r})",
                    )
                elif dest.occupancy - (1 if draining else 0) + 1 <= cap:
                    self._fail(
                        "resolve-maximality",
                        f"revoked fill of {dest.name!r} would not overflow: "
                        f"occupancy {dest.occupancy}, capacity {cap}, "
                        f"draining={draining} ({flit!r} from {source.name!r})",
                    )
        # Wormhole contiguity: advance the per-channel packet state with
        # this subcycle's survivors (at most one per channel).
        for flit, source, _dest, channel, _owner, live in proposals:
            if not live or channel is None:
                continue
            key = id(channel)
            if key in self._slotted_channels:
                continue  # slots are independently routed by design
            if key not in self._contiguity:
                self._track_channel(channel)
            state = self._contiguity[key]
            open_packet = state[1]
            if open_packet is None:
                if not flit.is_head:
                    self._fail(
                        "wormhole-contiguity",
                        f"channel {channel.name!r}: {flit!r} crosses with no "
                        f"packet open (expected a head flit)",
                    )
            else:
                if flit.packet is not open_packet:
                    self._fail(
                        "wormhole-contiguity",
                        f"channel {channel.name!r}: {flit!r} interleaves into "
                        f"open packet {open_packet!r}",
                    )
                if flit.index != state[2]:
                    self._fail(
                        "wormhole-contiguity",
                        f"channel {channel.name!r}: flit index {flit.index} "
                        f"of {open_packet!r} crossed out of order "
                        f"(expected index {state[2]})",
                    )
            if flit.is_tail:
                state[1] = None
                state[2] = 0
            else:
                state[1] = flit.packet
                state[2] = flit.index + 1
        return survivors

    # ------------------------------------------------------------------
    # hook: after the commit phase of a subcycle
    # ------------------------------------------------------------------
    def check_commit(
        self, engine: "Engine", survivors: list[Survivor], committed: int
    ) -> None:
        if committed != len(survivors):
            self._fail(
                "commit-count",
                f"commit loop reported {committed} transfers but resolution "
                f"left {len(survivors)} survivors",
            )
        self._committed_total += committed
        routers_touched: dict[int, MeshRouter] = {}
        for flit, _source, dest, channel, owner in survivors:
            if channel is not None:
                entry = self._channels.get(id(channel))
                if entry is None:
                    self._track_channel(channel)
                    entry = self._channels[id(channel)]
                entry[2] += 1
            if isinstance(owner, MeshRouter):
                routers_touched[id(owner)] = owner
            elif (
                channel is not None
                and isinstance(owner, RingPort)
                and not owner.slotted
            ):
                if flit.is_head and not flit.is_tail:
                    if channel.incoming_packet is not flit.packet:
                        self._fail(
                            "wormhole-route-state",
                            f"{owner.name}: committed head of {flit.packet!r} "
                            f"but {channel.name!r} routes "
                            f"{channel.incoming_packet!r}",
                        )
                    if channel.incoming_route is not dest:
                        self._fail(
                            "wormhole-route-state",
                            f"{owner.name}: committed head into {dest.name!r} "
                            f"but {channel.name!r} pins "
                            f"{channel.incoming_route!r}",
                        )
                elif flit.is_tail and channel.route_is_open:
                    self._fail(
                        "wormhole-route-state",
                        f"{owner.name}: committed tail of {flit.packet!r} but "
                        f"{channel.name!r} still routes "
                        f"{channel.incoming_packet!r}",
                    )
        for router in routers_touched.values():
            problem = router.audit_check_locks()
            if problem is not None:
                self._fail("mesh-lock-symmetry", problem)

    # ------------------------------------------------------------------
    # hook: after the update phase, once per base cycle
    # ------------------------------------------------------------------
    def check_cycle_end(self, engine: "Engine") -> None:
        self.cycles_audited += 1
        for buffer, enq0, deq0, occ0 in self._buffers.values():
            expected = occ0 + (buffer.flits_enqueued - enq0) - (
                buffer.flits_dequeued - deq0
            )
            if buffer.occupancy != expected:
                self._fail(
                    "buffer-conservation",
                    f"{buffer.name!r}: occupancy {buffer.occupancy} but "
                    f"counters imply {expected} "
                    f"(delta {buffer.conservation_delta()})",
                )
            if buffer.capacity is not None and buffer.occupancy > buffer.capacity:
                self._fail(
                    "buffer-capacity",
                    f"{buffer.name!r}: occupancy {buffer.occupancy} exceeds "
                    f"capacity {buffer.capacity}",
                )
        if engine.flits_moved != self._flits_moved_base + self._committed_total:
            self._fail(
                "flit-conservation",
                f"engine counted {engine.flits_moved - self._flits_moved_base} "
                f"moved flits but the audit saw {self._committed_total} commit",
            )
        for channel, carried0, expected_delta in self._channels.values():
            actual = channel.flits_carried + self._pending_carried(engine, channel)
            if actual != carried0 + expected_delta:
                self._fail(
                    "channel-conservation",
                    f"{channel.name!r}: carried {actual - carried0} flits "
                    f"but the audit saw {expected_delta} cross",
                )
        for pm in self._pms:
            window = len(pm.open_transactions) + len(pm._local_pending)
            if pm.outstanding != window:
                self._fail(
                    "transaction-window",
                    f"pm{pm.pm_id}: outstanding={pm.outstanding} but "
                    f"{len(pm.open_transactions)} open remote + "
                    f"{len(pm._local_pending)} pending local",
                )
            if not 0 <= pm.outstanding <= pm._outstanding_limit:
                self._fail(
                    "transaction-window",
                    f"pm{pm.pm_id}: outstanding={pm.outstanding} outside "
                    f"[0, T={pm._outstanding_limit}]",
                )
        if self._metrics_hubs:
            # Summed across hubs: replicas never share PMs or hubs, so
            # the per-replica identities imply the batch-wide one (and a
            # solo run has exactly one hub — the original check).
            open_total = sum(len(pm.open_transactions) for pm in self._pms)
            in_flight = sum(
                hub.remote_issued - hub.remote_completed
                for hub in self._metrics_hubs
            )
            if in_flight != open_total:
                self._fail(
                    "transaction-lifecycle",
                    f"{in_flight} remote transactions in flight by the "
                    f"counters but {open_total} open across the PMs",
                )
        for iri in self._iris:
            self._check_iri(iri)

    @staticmethod
    def _pending_carried(engine: "Engine", channel: Channel) -> int:
        """Compiled-datapath ``flits_carried`` delta not yet flushed."""
        if not engine._compiled:
            return 0
        cid = channel._chan_id
        chan_objs = engine._chan_objs
        if 0 <= cid < len(chan_objs) and chan_objs[cid] is channel:
            return engine._chan_counts[cid]
        return 0

    def _check_iri(self, iri: InterRingInterface) -> None:
        lo, hi = iri.subtree_range
        queues = (
            (iri.up_req, False, True),
            (iri.up_resp, False, False),
            (iri.down_req, True, True),
            (iri.down_resp, True, False),
        )
        for queue, inside, want_request in queues:
            for flit in queue:
                packet = flit.packet
                if (lo <= packet.destination < hi) != inside:
                    self._fail(
                        "iri-routing",
                        f"{queue.name!r} holds {packet!r} destined "
                        f"{'outside' if inside else 'inside'} subtree "
                        f"[{lo}, {hi})",
                    )
                if packet.ptype.is_request != want_request:
                    self._fail(
                        "iri-routing",
                        f"{queue.name!r} holds {packet.ptype.name} packet "
                        f"{packet!r}",
                    )

    # ------------------------------------------------------------------
    # drain check (used by the fuzzer's lifecycle pass)
    # ------------------------------------------------------------------
    def quiescence_problem(self, engine: "Engine") -> str | None:
        """First obstacle to quiescence, or ``None`` once fully drained.

        Non-raising probe for drain loops (the fuzzer polls it between
        drain chunks); :meth:`check_quiescent` is the asserting form.
        """
        for buffer, _enq0, _deq0, _occ0 in self._buffers.values():
            if buffer._flits:
                return (
                    f"{buffer.name!r} still holds {buffer.occupancy} flit(s) "
                    f"after drain"
                )
        for channel, _carried0, _delta in self._channels.values():
            if channel.route_is_open:
                return f"{channel.name!r} still routes {channel.incoming_packet!r}"
        for port in self._ring_ports:
            if port.is_mid_packet:
                return f"{port.name} still mid-packet after drain"
        for router in self._mesh_routers:
            problem = router.audit_check_locks()
            if problem is not None:
                return problem
            for out_key, in_key in router._output_lock.items():
                if in_key is not None:
                    return (
                        f"{router.name}: output {out_key} still locked to "
                        f"{in_key} after drain"
                    )
        for pm in self._pms:
            if (
                pm.outstanding
                or pm.open_transactions
                or pm._local_pending
                or pm._req_staging
                or pm._resp_staging
                or pm._rx_counts
            ):
                return (
                    f"pm{pm.pm_id} not drained: outstanding={pm.outstanding}, "
                    f"{len(pm.open_transactions)} open remote, "
                    f"{len(pm._local_pending)} pending local, "
                    f"{len(pm._req_staging)}+{len(pm._resp_staging)} staged, "
                    f"{len(pm._rx_counts)} partial receives"
                )
        for metrics in self._metrics_hubs:
            if metrics.remote_issued != metrics.remote_completed:
                return (
                    f"{metrics.remote_issued} remote requests issued but "
                    f"{metrics.remote_completed} responses completed after drain"
                )
        return None

    def check_quiescent(self, engine: "Engine") -> None:
        """Assert the network fully drained: run after disabling packet
        generation and stepping until idle (every issued remote request
        matched by exactly one completed response, no state left)."""
        problem = self.quiescence_problem(engine)
        if problem is not None:
            self._fail("quiescence", problem)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line audit summary for CLI output."""
        return (
            f"audit: {self.cycles_audited} cycles, "
            f"{self.proposals_checked} proposals checked across "
            f"{self.engines_attached} engine(s), "
            f"{len(self.violations)} violation(s)"
        )
