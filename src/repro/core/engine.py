"""Synchronous cycle-driven simulation kernel.

The paper's simulator "reflects the behavior of the system at the
register-transfer level on a cycle-by-cycle basis" (Section 2.3).  This
kernel reproduces that model without an event calendar:

Every base (PM) clock cycle consists of one or two *subcycles* — two
when a double-speed global ring is present (Section 6), in which case
fast components are active in both subcycles and normal components only
in the first.  Each subcycle has three steps:

1. **Propose.**  Every active component proposes at most one flit
   transfer per output link, already arbitrated internally (wormhole
   packet continuity, transit-over-injection priority, round-robin in
   mesh routers).  A proposal names a source buffer, a destination
   buffer, and the channel crossed.
2. **Resolve.**  Proposals are resolved to the *greatest fixed point*
   of the flow-control constraints: start by assuming every proposal
   commits, then repeatedly revoke any proposal whose destination buffer
   would overflow given the surviving drains.  This allows a completely
   full ring to rotate one flit per cycle — the hardware behaviour the
   paper states as "within a clock cycle, each NIC can transfer one flit
   to the next adjacent node ... and receive a flit from the previous
   node" — which a conservative occupancy-at-cycle-start check would
   artificially deadlock.
3. **Commit.**  Surviving transfers move their flit and notify the
   owning component so it can update wormhole channel state (acquire the
   output on a head flit, release it on a tail flit).

After the subcycles, every component's ``update`` hook runs once per
base cycle: processors consume ejected packets, memories time their
accesses, and new packets are injected into the (bounded) output queues.

A watchdog raises :class:`~repro.core.errors.DeadlockError` if transfers
are proposed but none commits for ``deadlock_threshold`` consecutive
base cycles.

Scheduling
----------

Three schedulers drive the same propose/resolve/commit machinery here,
through one cycle step (:meth:`Engine._step`).  Two more live
elsewhere: ``"batched"`` (:mod:`repro.core.batched`) subclasses this
engine to run N replica networks in lockstep over the compiled
datapath, overriding only the resolve (a per-replica flit tally) and
the deadlock watchdog (one per replica), and ``"columnar"``
(:mod:`repro.core.columnar`) steps flat columns in a C kernel that
reproduces this engine's results byte for byte without using it:

* ``"naive"`` scans every component every subcycle and runs every
  ``update`` every cycle — the straightforward implementation;
* ``"active"`` keeps *active sets*: only components that can
  possibly do work are visited.  A component sleeps when it reports it
  may (:meth:`Component.may_sleep_propose` /
  :meth:`Component.next_update_cycle`) and is woken by one of three
  events — a committed transfer into a buffer it reads
  (:meth:`Component.propose_wake_buffers` /
  :meth:`Component.update_wake_buffers`), a committed transfer *out of*
  a buffer it refills (:meth:`Component.drain_wake_buffers`), or a
  registered timer (returned from :meth:`Component.next_update_cycle`).
  When both active sets are empty, :meth:`Engine.run` fast-forwards the
  clock straight to the earliest registered timer instead of spinning
  through empty cycles.
* ``"compiled"`` (default) is the active-set scheduler plus a
  *compiled datapath*: every buffer and channel is assigned a dense
  integer id on first use, proposals are written as index rows
  (``src_id``/``dst_id``/``chan_id``/``owner_id`` plus the flit
  reference) into reused parallel arrays instead of allocating
  :class:`Transfer` objects, the greatest-fixed-point revocation runs
  as an integer loop seeded only with the rows that can actually
  revoke (destination full at propose time — sound because the
  greatest fixed point is unique), and commit dispatches through a
  per-component handler resolved once at finalize
  (:meth:`Component.compiled_commit_handler`) instead of the
  megamorphic ``on_transfer_commit`` call.  Components may further
  provide a *compiled propose handler*
  (:meth:`Component.compiled_propose_handler`): a flat closure, built
  once at finalize, that performs the component's send arbitration
  and writes the proposal row directly into the engine's columns —
  no per-proposal engine call at all — and a *fused update handler*
  (:meth:`Component.compiled_update_handler`).  Both switching
  components provide a propose closure:
  :class:`~repro.ring.port.RingPort` (transit-first pick, continuation
  ids stashed at head commit) and :class:`~repro.mesh.router.MeshRouter`
  (one request word per cycle from shared next-hop rows, round-robin
  grants from a table).  Under saturation — every component awake,
  tens of proposals per cycle — this removes the object churn and call
  overhead that dominate the ``"active"`` profile.

Every mode runs the same step; the modes differ in the tables finalize
builds (which propose callables, which update closures) and in a few
branches per subcycle — which resolver and commit loop, and whether a
:class:`~repro.core.profiling.PhaseProfile` or an auditor is attached.
Against separate branch-free copies of the compiled step, those
branches cost +0.1 % (ring 3:3:8) and +0.7 % (8×8 mesh of 4-flit
buffers) at C=0.04, and +2.3 % / +1.9 % at C=0.002, where a cycle
does less work: medians of nine alternating runs of 3×1000 cycles at
T=4 (2 CPUs, Python 3.11).

The schedulers are behavior-identical: active sets are iterated in
component-registration order, sleeping is only allowed when the naive
scan would have been a no-op, and the compiled datapath preserves the
object path's proposal order, revocation order and commit order
exactly, so every simulation produces the same transfers, the same
metrics and the same random streams under any scheduler (see
tests/integration/test_kernel_equivalence.py and DESIGN.md for the
wake/sleep and flattening invariants).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from . import profiling
from .buffers import FlitBuffer
from .channel import Channel
from .errors import DeadlockError, SimulationError
from .packet import Flit

if TYPE_CHECKING:  # pragma: no cover - type-only import, no cycle
    from ..audit.invariants import Auditor, Proposal

SCHEDULERS = ("compiled", "active", "naive")

#: Flat commit callback used by the compiled datapath:
#: ``handler(flit, source, dest, channel)``.
CommitHandler = Callable[[Flit, FlitBuffer, FlitBuffer, Optional[Channel]], None]


class Transfer:
    """A proposed single-flit movement between two buffers.

    Instances are pooled by the engine (a sweep proposes tens of
    millions of transfers); a ``Transfer`` is only valid until the end
    of the subcycle that proposed it and must not be retained by
    ``on_transfer_commit`` hooks.
    """

    __slots__ = ("flit", "source", "dest", "channel", "owner", "committed")

    def __init__(
        self,
        flit: Flit,
        source: FlitBuffer,
        dest: FlitBuffer,
        channel: Channel | None,
        owner: "Component",
    ):
        self.flit = flit
        self.source = source
        self.dest = dest
        self.channel = channel
        self.owner = owner
        self.committed = True  # greatest fixed point: assume success

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "ok" if self.committed else "revoked"
        return f"Transfer({self.flit!r} {self.source.name}->{self.dest.name} [{state}])"


class Component:
    """Base class for clocked network components.

    Subclasses override :meth:`propose` (switching logic) and/or
    :meth:`update` (endpoint logic).  ``speed`` is the clock multiplier:
    1 for normal components, 2 for components on a double-speed ring.

    The scheduling hooks below feed the active-set scheduler.  The
    defaults are deliberately conservative — a component that overrides
    none of them is simply visited every subcycle and every cycle,
    exactly as under the naive scheduler — so custom components stay
    correct without knowing about scheduling at all.  Overriding them is
    purely a performance contract: a component may only report it can
    sleep when its :meth:`propose`/:meth:`update` would be a no-op until
    one of its declared wake events fires.
    """

    speed: int = 1

    #: Declares that this component's commit bookkeeping is a no-op for
    #: body (non-head, non-tail) flits — true for wormhole and slotted
    #: switching, where only packet boundaries mutate state.  The
    #: compiled commit loop then skips the handler call for body flits;
    #: the object datapath ignores the flag, so a wrong declaration
    #: would show up as a scheduler-equivalence failure.
    commit_on_head_tail_only: bool = False

    #: Set by the engine at finalize time; lets endpoint APIs called
    #: from *outside* the clock loop (e.g. ``ProcessingModule.issue_remote``)
    #: wake their component.
    _engine: "Engine | None" = None
    _engine_index: int = -1

    def propose(self, engine: "Engine") -> None:
        """Propose flit transfers for this subcycle via ``engine.propose``."""

    def on_transfer_commit(self, transfer: Transfer, engine: "Engine") -> None:
        """Hook called once per committed transfer owned by this component."""

    def compiled_commit_handler(self) -> CommitHandler | None:
        """Flat commit callback for the compiled scheduler, or ``None``.

        Components with commit-time state (wormhole acquire/release,
        routing locks) return a bound ``handler(flit, source, dest,
        channel)`` sharing its implementation with
        :meth:`on_transfer_commit`; it is resolved once per component at
        finalize, so the commit loop makes one monomorphic call instead
        of a megamorphic ``on_transfer_commit`` dispatch.  Returning
        ``None`` (the default) means: skip the call entirely when
        ``on_transfer_commit`` is the base-class no-op, else route
        through a compatibility adapter that rebuilds a pooled
        :class:`Transfer` and calls ``on_transfer_commit`` — custom
        components keep working unmodified.
        """
        return None

    def compiled_propose_handler(
        self, engine: "Engine"
    ) -> "Callable[[Engine], None] | None":
        """Flat propose callable for the compiled scheduler, or ``None``.

        Called once at finalize.  A component may return a closure that
        replaces its :meth:`propose` in the compiled proposal loop: the
        closure performs the same arbitration and writes the proposal
        row directly into the engine's parallel columns (see
        :meth:`Engine._propose_compiled` for the row layout).  Because the
        closure is built against a specific, already-validated wiring,
        it may elide the engine's per-proposal structural checks
        (head-of-buffer, one drain per source, one fill per bounded
        destination) *when the component's own invariants make them
        unreachable* — a wrong elision shows up as a
        scheduler-equivalence failure, not silent corruption, since the
        object datapath still validates every proposal.

        Returning ``None`` (the default) keeps :meth:`propose` with the
        engine's validating shim — custom components work unmodified.
        """
        return None

    def compiled_update_handler(
        self, engine: "Engine"
    ) -> "Callable[[int], int | None] | None":
        """Fused update callable for the compiled scheduler, or ``None``.

        Called once at finalize.  A component may return a closure
        ``fused(cycle) -> next_update_cycle`` that performs its whole
        per-cycle :meth:`update` *and* returns what
        :meth:`next_update_cycle` would — one call instead of two, with
        the sub-phase dispatch flattened into straight-line code against
        state captured at build time.  The closure must leave exactly
        the state (and consume exactly the random draws) the separate
        ``update``/``next_update_cycle`` pair would; drift shows up as
        a scheduler-equivalence failure since the object datapath still
        runs the plain methods.

        Returning ``None`` (the default) keeps the two-method protocol.
        """
        return None

    #: Declares that this component's :meth:`compiled_update_handler`
    #: closure wakes the proposers of its ``update_output_buffers``
    #: itself, at each push site, on the empty -> non-empty edge.  The
    #: compiled update loop then skips its post-update output-buffer
    #: scan for the component.  Only consulted when the handler is
    #: installed; the plain-method fallback always gets the engine scan.
    compiled_update_self_wakes: bool = False

    def update(self, engine: "Engine") -> None:
        """Per-base-cycle endpoint logic (injection, ejection, timers)."""

    # ------------------------------------------------------------------
    # active-set scheduling contract (defaults: never sleep)
    # ------------------------------------------------------------------
    def propose_wake_buffers(self) -> "tuple[FlitBuffer, ...]":
        """Buffers whose *fill* re-activates this component's propose()."""
        return ()

    def update_wake_buffers(self) -> "tuple[FlitBuffer, ...]":
        """Buffers whose *fill* re-activates this component's update()."""
        return ()

    def drain_wake_buffers(self) -> "tuple[FlitBuffer, ...]":
        """Buffers whose *drain* re-activates this component's update()."""
        return ()

    def update_output_buffers(self) -> "tuple[FlitBuffer, ...]":
        """Buffers this component's update() may fill.

        After each update the engine re-activates the proposers reading
        any of these buffers that is non-empty (covers pushes that
        bypass the transfer machinery, e.g. PM packet injection).
        """
        return ()

    def may_sleep_propose(self) -> bool:
        """True when propose() is a no-op until a declared wake event."""
        return False

    def next_update_cycle(self, engine: "Engine") -> int | None:
        """Earliest future cycle whose update() may do work.

        ``engine.cycle + 1`` (the default) keeps the component hot;
        a later cycle registers a timer; ``None`` sleeps until a
        declared buffer event (or an explicit ``Engine.wake``).
        """
        return engine.cycle + 1


class Engine:
    """The clock, transfer resolver and watchdog.

    ``flow_control`` selects the resolver:

    * ``"bypass"`` (default, the paper's hardware): a full buffer that
      drains this cycle can accept a flit this cycle — resolved as a
      greatest fixed point, letting full rings rotate;
    * ``"conservative"``: admission is decided on occupancy at cycle
      start, the simplistic model; kept as an ablation — it halves
      pipeline throughput through single-slot buffers and can wedge a
      full ring (see tests/ring/test_arbitration_ablations.py).

    ``scheduler`` selects the component visitation strategy (see the
    module docstring): ``"compiled"`` (default), ``"active"`` or
    ``"naive"``.  All three are behavior-identical and run the one
    cycle step :meth:`_step`; the slower ones are kept for the
    equivalence tests and the scheduler-ladder cells of ``bench/``.  ``"columnar"`` — the kernel tier, which has no Engine
    of its own — is accepted as an alias of ``"compiled"``, the engine
    that tier falls back to.

    ``deadlock_threshold`` counts stalled *base* (PM) clock cycles —
    not subcycles — so its meaning does not change on systems with a
    double-speed global ring.
    """

    def __init__(
        self,
        deadlock_threshold: int = 50_000,
        flow_control: str = "bypass",
        scheduler: str = "compiled",
    ):
        if flow_control not in ("bypass", "conservative"):
            raise SimulationError(f"unknown flow control mode {flow_control!r}")
        if scheduler == "columnar":
            # The kernel tier's name reaches an Engine through callers
            # that pass ``params.scheduler`` along; the tier runs what
            # its kernel cannot under "compiled", and so does this.
            scheduler = "compiled"
        if scheduler not in SCHEDULERS:
            raise SimulationError(f"unknown scheduler {scheduler!r}")
        self.flow_control = flow_control
        self.scheduler = scheduler
        self.components: list[Component] = []
        self.channels: list[Channel] = []
        self.cycle = 0
        self.deadlock_threshold = deadlock_threshold
        self.flits_moved = 0
        self.packets_in_flight = 0
        self._stalled_cycles = 0
        self._transfers: list[Transfer] = []
        self._by_source: dict[FlitBuffer, Transfer] = {}
        self._by_dest: dict[FlitBuffer, Transfer] = {}
        self._pool: list[Transfer] = []
        self._subcycles = 1
        self._finalized = False
        self._active_mode = scheduler in ("active", "compiled")
        self._compiled = scheduler == "compiled"
        # Active-set state (the naive scheduler's propose set is simply
        # every component, and its update set is unused).  The sets
        # hold component registration indices; the `_order` lists cache
        # their sorted iteration order (component order — shared with
        # the naive scan so metric-recording order is identical) and are
        # rebuilt lazily when a `_dirty` flag is raised.
        self._active_prop: set[int] = set()
        self._active_upd: set[int] = set()
        self._prop_order: list[int] = []
        self._upd_order: list[int] = []
        self._prop_dirty = True
        self._upd_dirty = True
        self._timers: list[tuple[int, int]] = []  # heap of (cycle, index)
        self._timer_at: list[int] = []  # earliest live heap entry per index
        # Quiet-cycle sweep rate limit (see `_update`): a compiled
        # propose closure makes an idle-but-awake proposer nearly free,
        # so `compiled` sweeps at most every 8th quiet cycle; the object
        # path's plain `propose` is not free (an 8x8 mesh at C=0.002
        # runs 18 % slower under `active` with the limit), so `active`
        # sweeps on every quiet cycle.
        self._sweep_gap = 8 if self._compiled else 1
        self._sweep_at = 0  # next cycle a quiet update set may sweep
        # per-component: ((output buffer, proposer indices), ...) pairs
        # checked after its update() for injection that bypasses commit;
        # empty for fused handlers that wake those proposers themselves
        # (see Component.compiled_update_self_wakes)
        self._upd_out_wakes: list[tuple[tuple[FlitBuffer, tuple[int, ...]], ...]] = []
        # ------------------------------------------------------------------
        # Compiled-datapath state (used only by the "compiled" scheduler).
        # Buffers and channels get dense ids on first use; proposals are
        # rows in the reused `_p_*` parallel columns, `_p_n[0]` of them
        # live per subcycle (a one-element list rather than an int
        # attribute so finalize-built propose closures can bump the
        # count through a captured cell).  `_prop_of_src`/`_prop_of_dst`
        # map a buffer id to its proposal row this subcycle (-1 = none)
        # and replace the `_by_source`/`_by_dest` dicts of the object
        # path.  All columns are grown strictly by appending in place —
        # closures capture the list objects themselves.
        self._buf_objs: list[FlitBuffer] = []
        self._buf_cap: list[int] = []  # capacity column; -1 = unbounded
        # Wake routing by buffer id — the `_wake_on_push`/`_wake_on_pop`
        # buffer slots copied into columns at registration time, so the
        # commit loop indexes by the ids it already holds instead of
        # dereferencing the endpoint objects.  Safe to snapshot: the
        # slots are assigned once, in `_finalize_active_sets`, which
        # always runs before the first buffer registration.
        self._wake_push_prop: list[tuple[int, ...] | None] = []
        self._wake_push_upd: list[tuple[int, ...] | None] = []
        self._wake_pop_upd: list[tuple[int, ...] | None] = []
        self._chan_objs: list[Channel] = []
        self._chan_counts: list[int] = []  # flits_carried deltas, flushed
        self._prop_of_src: list[int] = []
        self._prop_of_dst: list[int] = []
        self._p_flit: list[Flit | None] = []
        self._p_src: list[int] = []
        self._p_dst: list[int] = []
        self._p_chan: list[int] = []
        self._p_owner: list[int] = []
        self._p_live = bytearray()
        self._p_srcbuf: list[FlitBuffer | None] = []  # commit scratch column
        # [row count this subcycle, version base].  `_prop_of_src` /
        # `_prop_of_dst` store ``base + row`` and an entry is current
        # iff ``>= base``; bumping ``base`` by the row count at the end
        # of each subcycle invalidates every entry at once, so the
        # commit loop never has to walk the rows resetting them to -1.
        self._p_n = [0, 0]
        # Revocation worklist, *pre-seeded at propose time*: a row is
        # appended iff its bounded destination is already full, the only
        # rows the greatest-fixed-point iteration can ever revoke
        # directly (occupancy < capacity admits a fill regardless of
        # drains).  Cascades re-enqueue upstream rows exactly as the
        # object-path resolver does; the fixed point is unique, so
        # seeding order cannot change the outcome.
        self._work: list[int] = []
        self._owner_handlers: list[CommitHandler | None] = []
        self._owner_ht_only = bytearray()  # commit_on_head_tail_only flags
        # Per-component propose entry points (every scheduler) and their
        # active-order copy, rebuilt with `_prop_order`.
        self._prop_fns: list[Callable[[Engine], None]] = []
        self._prop_fn_order: list[Callable[[Engine], None]] = []
        self._prop_speed2 = bytearray()  # speed == 2 flags by index
        # per-component (update, next_update_cycle) bound-method pairs
        self._upd_pairs: list[
            tuple[Callable[[Engine], None], Callable[[Engine], int | None]]
        ] = []
        # per-component fused update closures (None = use _upd_pairs;
        # always None outside the compiled scheduler)
        self._upd_fused: list[Callable[[int], int | None] | None] = []
        self._shim: Transfer | None = None  # lazy compatibility Transfer
        self._profile: profiling.PhaseProfile | None = None
        self._auditor: "Auditor | None" = None
        if self._compiled:
            # Rebind the proposal entry point once instead of branching
            # per call: components always call `engine.propose(...)`;
            # under the compiled scheduler the instance attribute
            # shadows the method with the id-resolving shim.
            self.propose = self._propose_compiled  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_component(self, component: Component) -> None:
        if self._finalized:
            raise SimulationError("cannot add components after the engine started")
        self.components.append(component)

    def add_components(self, components: Iterable[Component]) -> None:
        for component in components:
            self.add_component(component)

    def register_channel(self, channel: Channel) -> None:
        self.channels.append(channel)

    def _finalize(self) -> None:
        speeds = {c.speed for c in self.components}
        unsupported = speeds - {1, 2}
        if unsupported:
            raise SimulationError(f"unsupported component speeds: {sorted(unsupported)}")
        self._subcycles = 2 if 2 in speeds else 1
        components = self.components
        if self._active_mode:
            self._finalize_active_sets()
        else:
            # The naive scan proposes everyone: its propose set starts
            # full and is never swept, so `_step` walks all components.
            self._active_prop = set(range(len(components)))
        if self._compiled:
            self._owner_handlers = [
                self._commit_handler_for(component) for component in components
            ]
            self._owner_ht_only = bytearray(
                component.commit_on_head_tail_only for component in components
            )
            # The component's own compiled propose closure when it
            # provides one, else its plain `propose` through the
            # engine's validating shim.  Built after
            # `_finalize_active_sets` so closures can rely on
            # `_engine_index` being assigned.
            self._prop_fns = [
                component.compiled_propose_handler(self) or component.propose
                for component in components
            ]
            self._upd_fused = [
                component.compiled_update_handler(self) for component in components
            ]
            # Fused handlers that wake their output-buffer readers at the
            # push site don't need the post-update scan.
            self._upd_out_wakes = [
                ()
                if fused is not None and component.compiled_update_self_wakes
                else wakes
                for component, fused, wakes in zip(
                    components, self._upd_fused, self._upd_out_wakes
                )
            ]
            # Buffers registered before finalize (direct propose calls
            # from tests) snapshotted their wake slots unassigned;
            # refresh now that `_finalize_active_sets` has filled them.
            for bid, buffer in enumerate(self._buf_objs):
                pair = buffer._wake_on_push
                self._wake_push_prop[bid] = None if pair is None else pair[0]
                self._wake_push_upd[bid] = None if pair is None else pair[1]
                self._wake_pop_upd[bid] = buffer._wake_on_pop
        else:
            self._prop_fns = [component.propose for component in components]
            self._upd_fused = [None] * len(components)
        self._prop_speed2 = bytearray(component.speed == 2 for component in components)
        self._upd_pairs = [
            (component.update, component.next_update_cycle) for component in components
        ]
        self._profile = profiling.current()
        # Local import: repro.audit.runtime is leaf-level (it pulls in
        # nothing from the simulator), so this is cycle-proof and costs
        # one module-dict lookup per engine finalize.
        from ..audit import runtime as audit_runtime

        self._auditor = audit_runtime.current()
        if self._auditor is not None:
            self._auditor.attach(self)
        self._finalized = True

    def _commit_handler_for(self, component: Component) -> CommitHandler | None:
        """Resolve one component's flat commit callback (see module doc).

        Priority: the component's own
        :meth:`Component.compiled_commit_handler`; else skip entirely if
        ``on_transfer_commit`` is the inherited no-op; else a
        compatibility adapter that rebuilds a shim :class:`Transfer`
        so custom ``on_transfer_commit`` overrides keep working.
        """
        handler = component.compiled_commit_handler()
        if handler is not None:
            return handler
        if type(component).on_transfer_commit is Component.on_transfer_commit:
            return None  # base no-op: the commit loop skips the call

        def adapter(
            flit: Flit,
            source: FlitBuffer,
            dest: FlitBuffer,
            channel: Channel | None,
            _component: Component = component,
        ) -> None:
            shim = self._shim
            if shim is None:
                shim = self._shim = Transfer(flit, source, dest, channel, _component)
            else:
                shim.flit = flit
                shim.source = source
                shim.dest = dest
                shim.channel = channel
                shim.owner = _component
                shim.committed = True
            _component.on_transfer_commit(shim, self)

        return adapter

    def _finalize_active_sets(self) -> None:
        """Index components, build the wake maps, start everything hot."""
        push_prop: dict[FlitBuffer, list[int]] = {}
        push_upd: dict[FlitBuffer, list[int]] = {}
        pop_upd: dict[FlitBuffer, list[int]] = {}
        for index, component in enumerate(self.components):
            component._engine = self
            component._engine_index = index
            for buffer in component.propose_wake_buffers():
                push_prop.setdefault(buffer, []).append(index)
            for buffer in component.update_wake_buffers():
                push_upd.setdefault(buffer, []).append(index)
            for buffer in component.drain_wake_buffers():
                pop_upd.setdefault(buffer, []).append(index)
        # Wake routing lives on the buffers themselves: the commit loop
        # reads one slot attribute per transfer endpoint instead of
        # probing dicts keyed by buffer.  Iterate the dicts in insertion
        # order rather than over a keys() union (RPR001 regression:
        # per-buffer slot writes are order-independent today, but an
        # unordered-set walk here is one refactor away from making wake
        # routing — and with it the active-set schedule — run-dependent).
        for buffer in (
            *push_prop,
            *(extra for extra in push_upd if extra not in push_prop),
        ):
            buffer._wake_on_push = (
                tuple(push_prop[buffer]) if buffer in push_prop else None,
                tuple(push_upd[buffer]) if buffer in push_upd else None,
            )
        for buffer, indices in pop_upd.items():
            buffer._wake_on_pop = tuple(indices)
        self._upd_out_wakes = [
            tuple(
                (buffer, tuple(push_prop[buffer]))
                for buffer in component.update_output_buffers()
                if buffer in push_prop
            )
            for component in self.components
        ]
        # Everything starts active; the first sweeps put idle components
        # to sleep, which keeps cycle 0 identical to the naive scan.
        everyone = range(len(self.components))
        self._active_prop = set(everyone)
        self._active_upd = set(everyone)
        self._prop_dirty = True
        self._upd_dirty = True
        self._timer_at = [0] * len(self.components)

    # ------------------------------------------------------------------
    # wake API (active scheduler; no-ops under the naive scheduler)
    # ------------------------------------------------------------------
    def wake(self, component: Component) -> None:
        """Re-activate *component* for both phases (external state change)."""
        if self._active_mode and component._engine_index >= 0:
            self._active_prop.add(component._engine_index)
            self._active_upd.add(component._engine_index)
            self._prop_dirty = True
            self._upd_dirty = True

    # ------------------------------------------------------------------
    # proposal API (called by components from propose())
    # ------------------------------------------------------------------
    def propose(
        self,
        flit: Flit,
        source: FlitBuffer,
        dest: FlitBuffer,
        channel: Channel | None,
        owner: Component,
    ) -> None:
        """Register one proposed flit transfer for the current subcycle."""
        flits = source._flits
        if not flits or flits[0] is not flit:
            raise SimulationError(
                f"component proposed non-head flit {flit!r} from {source.name!r}"
            )
        if source in self._by_source:
            raise SimulationError(f"two transfers source from buffer {source.name!r}")
        bounded_dest = dest.capacity is not None
        if bounded_dest and dest in self._by_dest:
            raise SimulationError(f"two transfers target bounded buffer {dest.name!r}")
        pool = self._pool
        if pool:
            transfer = pool.pop()
            transfer.flit = flit
            transfer.source = source
            transfer.dest = dest
            transfer.channel = channel
            transfer.owner = owner
            transfer.committed = True
        else:
            transfer = Transfer(flit, source, dest, channel, owner)
        self._by_source[source] = transfer
        if bounded_dest:
            self._by_dest[dest] = transfer
        self._transfers.append(transfer)

    # ------------------------------------------------------------------
    # compiled proposal path
    # ------------------------------------------------------------------
    def _register_buffer(self, buffer: FlitBuffer) -> int:
        """Assign *buffer* its dense id in this engine's columns."""
        bid = len(self._buf_objs)
        buffer._buf_id = bid
        self._buf_objs.append(buffer)
        self._buf_cap.append(-1 if buffer.capacity is None else buffer.capacity)
        self._prop_of_src.append(-1)
        self._prop_of_dst.append(-1)
        pair = buffer._wake_on_push
        if pair is None:
            self._wake_push_prop.append(None)
            self._wake_push_upd.append(None)
        else:
            self._wake_push_prop.append(pair[0])
            self._wake_push_upd.append(pair[1])
        self._wake_pop_upd.append(buffer._wake_on_pop)
        return bid

    def _register_compiled_channel(self, channel: Channel) -> int:
        """Assign *channel* its dense id in this engine's columns."""
        cid = len(self._chan_objs)
        channel._chan_id = cid
        self._chan_objs.append(channel)
        self._chan_counts.append(0)
        return cid

    def compiled_buffer_id(self, buffer: FlitBuffer) -> int:
        """The dense id of *buffer*, registering it on first sight.

        For finalize-time use by compiled propose handlers that want to
        bake endpoint ids into their closures.
        """
        bid = buffer._buf_id
        buf_objs = self._buf_objs
        if bid < 0 or bid >= len(buf_objs) or buf_objs[bid] is not buffer:
            bid = self._register_buffer(buffer)
        return bid

    def compiled_channel_id(self, channel: Channel) -> int:
        """The dense id of *channel*, registering it on first sight."""
        cid = channel._chan_id
        chan_objs = self._chan_objs
        if cid < 0 or cid >= len(chan_objs) or chan_objs[cid] is not channel:
            cid = self._register_compiled_channel(channel)
        return cid

    def _propose_compiled(
        self,
        flit: Flit,
        source: FlitBuffer,
        dest: FlitBuffer,
        channel: Channel | None,
        owner: Component,
    ) -> None:
        """Compatibility shim bound over :meth:`propose` when compiled.

        Resolves (lazily assigning on first sight) the dense ids of the
        endpoints, then writes the proposal row after the same
        validation, in the same order, as the object-path
        :meth:`propose`.  The row layout: ``_p_flit`` / ``_p_src`` /
        ``_p_dst`` / ``_p_chan`` / ``_p_owner`` hold the flit, the
        source and destination buffer ids, the channel id (-1 = none)
        and the owner's registration index; ``_p_live`` starts at 1.
        The identity checks guard against ids assigned by a different
        engine: a buffer carrying a stale id is simply re-registered
        here.
        """
        buf_objs = self._buf_objs
        src = source._buf_id
        if src < 0 or src >= len(buf_objs) or buf_objs[src] is not source:
            src = self._register_buffer(source)
        dst = dest._buf_id
        if dst < 0 or dst >= len(buf_objs) or buf_objs[dst] is not dest:
            dst = self._register_buffer(dest)
        if channel is None:
            chan = -1
        else:
            chan = channel._chan_id
            chan_objs = self._chan_objs
            if chan < 0 or chan >= len(chan_objs) or chan_objs[chan] is not channel:
                chan = self._register_compiled_channel(channel)
        owner_id = owner._engine_index
        if owner_id < 0 or owner._engine is not self:
            raise SimulationError(
                f"proposal owner {owner!r} is not a registered component "
                f"of this engine"
            )
        # --- row write; the compiled propose closures mirror it ---
        flits = source._flits
        if not flits or flits[0] is not flit:
            raise SimulationError(
                f"component proposed non-head flit {flit!r} from {source.name!r}"
            )
        p_n = self._p_n
        n, base = p_n
        prop_of_src = self._prop_of_src
        if prop_of_src[src] >= base:
            raise SimulationError(f"two transfers source from buffer {source.name!r}")
        cap = self._buf_cap[dst]
        if cap >= 0 and self._prop_of_dst[dst] >= base:
            raise SimulationError(
                f"two transfers target bounded buffer {dest.name!r}"
            )
        p_flit = self._p_flit
        if n == len(p_flit):
            p_flit.append(flit)
            self._p_src.append(src)
            self._p_dst.append(dst)
            self._p_chan.append(chan)
            self._p_owner.append(owner_id)
            self._p_live.append(1)
            self._p_srcbuf.append(None)
        else:
            p_flit[n] = flit
            self._p_src[n] = src
            self._p_dst[n] = dst
            self._p_chan[n] = chan
            self._p_owner[n] = owner_id
            self._p_live[n] = 1
        prop_of_src[src] = base + n
        if cap >= 0:
            self._prop_of_dst[dst] = base + n
            if len(dest._flits) >= cap:
                self._work.append(n)  # full dest: revocation candidate
        p_n[0] = n + 1

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one base clock cycle."""
        if not self._finalized:
            self._finalize()
        try:
            self._step()
        finally:
            if self._compiled:
                self._flush_channel_counts()

    def run(self, cycles: int) -> None:
        if not self._finalized:
            self._finalize()
        step = self._step
        try:
            if not self._active_mode:
                for __ in range(cycles):
                    step()
                return
            end = self.cycle + cycles
            timers = self._timers
            while self.cycle < end:
                if not self._active_prop and not self._active_upd:
                    # Nothing can propose or update: fast-forward
                    # straight to the earliest timer (every skipped
                    # cycle is a no-op under the naive scheduler too, so
                    # metrics and streams are unaffected; the watchdog
                    # counter is necessarily 0 here because an idle
                    # cycle resets it).
                    target = end if not timers else min(end, timers[0][0])
                    if target > self.cycle:
                        self.cycle = target
                        continue
                step()
        finally:
            # The compiled commit loop batches channel utilization into
            # `_chan_counts`; make the deltas visible on the Channel
            # objects whenever control returns to the caller (including
            # through a DeadlockError), since the networks read
            # `flits_carried` between batches.
            if self._compiled:
                self._flush_channel_counts()

    def _flush_channel_counts(self) -> None:
        counts = self._chan_counts
        for cid, channel in enumerate(self._chan_objs):
            delta = counts[cid]
            if delta:
                channel.flits_carried += delta
                counts[cid] = 0

    def _step(self) -> None:
        """One base cycle, for every scheduler (see the module docstring).

        The modes differ only in what the phases below walk: the naive
        propose set is every component and its update runs every
        component; ``active`` and ``compiled`` walk their active sets;
        ``compiled`` proposes through rows and finalize-built closures
        and resolves and commits over the rows.  A
        :class:`repro.core.profiling.PhaseProfile` brackets each
        propose / resolve / commit / update phase; an
        :class:`repro.audit.Auditor` (which wins when both are active:
        its checks would dominate the timers) only *reads* engine and
        component state at four points: after propose (structural and
        priority checks on the proposal set), after resolve (fixed-point
        validity and maximality, wormhole contiguity), after commit
        (conservation of the commit count, route/lock state), and after
        update (buffer/channel/global flit conservation, transaction
        lifecycle).  Neither changes the order of any call into a
        component.
        """
        aud = self._auditor
        prof = None if aud is not None else self._profile
        sched = self.scheduler
        cycle = self.cycle
        timers = self._timers
        if timers and timers[0][0] <= cycle:
            active_upd = self._active_upd
            timer_at = self._timer_at
            while timers and timers[0][0] <= cycle:
                fired, index = heappop(timers)
                active_upd.add(index)
                if timer_at[index] == fired:
                    timer_at[index] = 0
            self._upd_dirty = True
        compiled = self._compiled
        transfers = self._transfers
        prop_fns = self._prop_fns
        p_n = self._p_n
        proposed_this_cycle = 0
        committed_this_cycle = 0
        for subcycle in range(self._subcycles):
            if prof is not None:
                prof.begin()
            if self._prop_dirty:
                self._prop_order = order = sorted(self._active_prop)
                self._prop_fn_order = [prop_fns[index] for index in order]
                self._prop_dirty = False
            if subcycle == 0:
                for fn in self._prop_fn_order:
                    fn(self)
            else:
                speed2 = self._prop_speed2
                for index in self._prop_order:
                    if speed2[index]:
                        prop_fns[index](self)
            if prof is not None:
                prof.lap(sched, "propose")
            n = p_n[0] if compiled else len(transfers)
            if not n:
                continue
            proposed_this_cycle += n
            if aud is not None:
                aud.check_proposals(self)
            if compiled:
                self._resolve_compiled()
            else:
                self._resolve()
            if prof is not None:
                prof.lap(sched, "resolve")
            # Snapshot survivors *before* commit: the compiled commit
            # loop batch-clears the flit/source columns.
            survivors = aud.check_resolution(self) if aud is not None else None
            committed = self._commit_compiled() if compiled else self._commit()
            committed_this_cycle += committed
            if prof is not None:
                prof.lap(sched, "commit")
            if aud is not None:
                assert survivors is not None
                aud.check_commit(self, survivors, committed)
        if prof is not None:
            prof.begin()
        if self._active_mode:
            self._update(cycle)
        else:
            for component in self.components:
                component.update(self)
        if prof is not None:
            prof.lap(sched, "update")
            prof.count_cycle(sched)
        self.cycle = cycle + 1
        if aud is not None:
            aud.check_cycle_end(self)
        self._watchdog(proposed_this_cycle, committed_this_cycle)

    def audit_proposals(self) -> "list[Proposal]":
        """This subcycle's proposal set as object tuples, for the auditor.

        ``(flit, source, dest, channel, owner, live)`` rows in proposal
        order, read back from whichever representation the scheduler
        keeps — compiled column rows or pooled :class:`Transfer`
        objects — so :mod:`repro.audit` checks one canonical shape.
        Only meaningful between propose and commit of one subcycle.
        """
        if self._compiled:
            buf_objs = self._buf_objs
            chan_objs = self._chan_objs
            components = self.components
            p_flit = self._p_flit
            p_src = self._p_src
            p_dst = self._p_dst
            p_chan = self._p_chan
            p_owner = self._p_owner
            live = self._p_live
            rows: "list[Proposal]" = []
            for row in range(self._p_n[0]):
                flit = p_flit[row]
                assert flit is not None  # populated for every pre-commit row
                cid = p_chan[row]
                rows.append(
                    (
                        flit,
                        buf_objs[p_src[row]],
                        buf_objs[p_dst[row]],
                        chan_objs[cid] if cid >= 0 else None,
                        components[p_owner[row]],
                        bool(live[row]),
                    )
                )
            return rows
        return [
            (t.flit, t.source, t.dest, t.channel, t.owner, t.committed)
            for t in self._transfers
        ]

    def _update(self, cycle: int) -> None:
        """Update phase plus the wake/sleep bookkeeping of both sets.

        ``update``/``next_update_cycle`` are the bound methods resolved
        once at finalize, or — under ``compiled`` — the component's
        single fused closure, which computes the next-cycle answer
        during the update call.  The output-buffer wake scan runs after
        the next-cycle computation: the next-cycle computation never
        reads the active sets, and the scan only reads output-buffer
        occupancy, which is final once the update work is done.
        """
        active_upd = self._active_upd
        if active_upd:
            if self._upd_dirty:
                self._upd_order = sorted(active_upd)
                self._upd_dirty = False
            active_prop = self._active_prop
            upd_out_wakes = self._upd_out_wakes
            upd_pairs = self._upd_pairs
            upd_fused = self._upd_fused
            timers = self._timers
            timer_at = self._timer_at
            hot_threshold = cycle + 1
            upd_shrank = False
            prop_before = len(active_prop)
            for index in self._upd_order:
                fused = upd_fused[index]
                if fused is not None:
                    nxt = fused(cycle)
                else:
                    update_fn, next_fn = upd_pairs[index]
                    update_fn(self)
                    nxt = next_fn(self)
                # Wake the proposers reading any buffer this update
                # filled (injection bypasses the transfer machinery).
                out_wakes = upd_out_wakes[index]
                if out_wakes:
                    for buffer, wakes in out_wakes:
                        if buffer._flits:
                            active_prop.update(wakes)
                if nxt is None:
                    active_upd.discard(index)
                    upd_shrank = True
                elif nxt > hot_threshold:
                    active_upd.discard(index)
                    upd_shrank = True
                    # Dedup: skip the push when an earlier live timer
                    # already guarantees a wake at or before `nxt`.
                    live = timer_at[index]
                    if live <= cycle or nxt < live:
                        heappush(timers, (nxt, index))
                        timer_at[index] = nxt
            # Dirty only when the set actually grew: the wake scan fires
            # for any non-empty output buffer, which at saturation is
            # every cycle even though the proposers are all awake
            # already — rebuilding the sorted order then is pure waste.
            if len(active_prop) != prop_before:
                self._prop_dirty = True
            if upd_shrank:
                self._upd_dirty = True
        # Sweep proposers to sleep — but only every 64 cycles, or when
        # the update set just went quiet (so the fast-forward path opens
        # promptly at low load), rate-limited to every `_sweep_gap`-th
        # cycle.  Sleeping late is always safe: an awake-but-idle
        # propose() is a no-op, exactly what the naive scan does every
        # cycle.  Under load the sweep almost never finds a sleeper
        # (busy components never sleep), so the sorted() walk is nearly
        # always wasted; and at saturation the update set regularly
        # drains to empty for a cycle (every hot PM parked on a timer)
        # without the network being anywhere near idle, so sweeping on
        # each of those cycles would re-walk every busy proposer for
        # nothing.
        active_prop = self._active_prop
        if active_prop and (
            cycle & 63 == 0 or (not active_upd and cycle >= self._sweep_at)
        ):
            self._sweep_at = cycle + self._sweep_gap
            components = self.components
            swept = False
            # sorted(): sweep in component-index order, not set order
            # (RPR001 regression — discards are order-independent, but a
            # frozen set order must never leak into scheduling decisions).
            for index in sorted(active_prop):
                if components[index].may_sleep_propose():
                    active_prop.discard(index)
                    swept = True
            if swept:
                self._prop_dirty = True

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        """Revoke proposals until no destination buffer would overflow.

        Starts from the all-commit assumption (greatest fixed point) and
        revokes monotonically, so the loop terminates after at most one
        revocation per proposal.  Each buffer has one writer and one
        reader per subcycle, so the overflow test for a transfer ``t``
        reduces to: destination full and not draining this subcycle.
        """
        bypass = self.flow_control == "bypass"
        by_source = self._by_source
        by_dest = self._by_dest
        worklist = list(self._transfers)
        while worklist:
            transfer = worklist.pop()
            if not transfer.committed:
                continue
            dest = transfer.dest
            if dest.capacity is None:
                continue  # unbounded sinks always accept
            drain = by_source.get(dest)
            draining = bypass and drain is not None and drain.committed
            if dest.occupancy - (1 if draining else 0) + 1 > dest.capacity:
                transfer.committed = False
                # The source no longer drains; recheck the transfer into it.
                upstream = by_dest.get(transfer.source)
                if upstream is not None and upstream.committed:
                    worklist.append(upstream)

    def _resolve_compiled(self) -> None:
        """Integer-loop twin of :meth:`_resolve` over the proposal rows.

        The worklist arrives pre-seeded by the proposal writers with
        exactly the rows whose bounded destination was already full —
        the only rows the revocation condition can hold for, since a
        fill into a non-full buffer never overflows regardless of
        drains.  The object path checks every transfer instead; both
        iterations converge to the *same* set of surviving rows because
        the greatest fixed point is unique and revoking a row
        re-enqueues the (bounded-dest) transfer into its source for
        recheck, so cascades are never missed.
        """
        work = self._work
        if not work:
            return
        bypass = self.flow_control == "bypass"
        base = self._p_n[1]
        live = self._p_live
        p_src = self._p_src
        p_dst = self._p_dst
        prop_of_src = self._prop_of_src
        prop_of_dst = self._prop_of_dst
        buf_objs = self._buf_objs
        buf_cap = self._buf_cap
        while work:
            row = work.pop()
            if not live[row]:
                continue
            dst = p_dst[row]
            cap = buf_cap[dst]
            if cap < 0:
                continue  # unbounded sinks always accept
            drain = prop_of_src[dst]
            draining = bypass and drain >= base and live[drain - base]
            if len(buf_objs[dst]._flits) - (1 if draining else 0) + 1 > cap:
                live[row] = 0
                # The source no longer drains; recheck the transfer into it.
                upstream = prop_of_dst[p_src[row]]
                if upstream >= base and live[upstream - base]:
                    work.append(upstream - base)

    def _commit(self) -> int:
        """Move every surviving transfer's flit, then retire the transfers.

        Wake routing reads the buffers' slots, which only the active
        schedulers fill (a naive engine's are ``None``, and its propose
        set is full already).
        """
        committed = 0
        transfers = self._transfers
        # All pops first: a flit may move into a slot freed in this very
        # subcycle, so drains must complete before fills.
        for transfer in transfers:
            if transfer.committed:
                flit = transfer.source.pop()
                if flit is not transfer.flit:
                    raise SimulationError(
                        f"buffer {transfer.source.name!r} head changed between "
                        f"propose and commit"
                    )
        active_prop = self._active_prop
        active_upd = self._active_upd
        prop_before = len(active_prop)
        upd_before = len(active_upd)
        for transfer in transfers:
            if not transfer.committed:
                continue
            dest = transfer.dest
            dest.push(transfer.flit)
            channel = transfer.channel
            if channel is not None:
                channel.flits_carried += 1
            transfer.owner.on_transfer_commit(transfer, self)
            committed += 1
            pair = dest._wake_on_push
            if pair is not None:
                prop_wakes, upd_wakes = pair
                if prop_wakes is not None:
                    active_prop.update(prop_wakes)
                if upd_wakes is not None:
                    active_upd.update(upd_wakes)
            wakes = transfer.source._wake_on_pop
            if wakes is not None:
                active_upd.update(wakes)
        if len(active_prop) != prop_before:
            self._prop_dirty = True
        if len(active_upd) != upd_before:
            self._upd_dirty = True
        self.flits_moved += committed
        self._pool.extend(transfers)
        transfers.clear()
        self._by_source.clear()
        self._by_dest.clear()
        return committed

    def _commit_compiled(self) -> int:
        """Row-loop twin of :meth:`_commit` (active-set bookkeeping on).

        Same two-pass structure — all drains before any fill, then the
        rows retired for the next subcycle — with the
        per-flit work flattened: direct deque operations plus FIFO
        counter updates instead of ``pop()``/``push()`` calls (the
        resolver already guarantees no bounded destination overflows),
        channel utilization batched into ``_chan_counts`` (flushed by
        ``run()``/``step()``), and the commit notification made through
        the per-component handler resolved at finalize instead of a
        megamorphic ``owner.on_transfer_commit``.
        """
        n = self._p_n[0]
        live = self._p_live
        p_flit = self._p_flit
        p_src = self._p_src
        p_dst = self._p_dst
        p_chan = self._p_chan
        p_owner = self._p_owner
        p_srcbuf = self._p_srcbuf
        buf_objs = self._buf_objs
        # All pops first: a flit may move into a slot freed in this very
        # subcycle, so drains must complete before fills.  The resolved
        # source object is parked in the scratch column so the fill pass
        # does not look it up again.  The object path re-checks here
        # that the buffer head is still the proposed flit; on this path
        # that check is elided — propose-time validation pinned the flit
        # at the head, and only the resolver (which never touches
        # buffers) runs in between.
        for row in range(n):
            if live[row]:
                source = buf_objs[p_src[row]]
                source._flits.popleft()
                source.flits_dequeued += 1
                p_srcbuf[row] = source
        committed = 0
        chan_objs = self._chan_objs
        chan_counts = self._chan_counts
        handlers = self._owner_handlers
        ht_only = self._owner_ht_only
        active_prop = self._active_prop
        active_upd = self._active_upd
        wake_push_prop = self._wake_push_prop
        wake_push_upd = self._wake_push_upd
        wake_pop_upd = self._wake_pop_upd
        prop_before = len(active_prop)
        upd_before = len(active_upd)
        for row in range(n):
            if not live[row]:
                continue
            flit = p_flit[row]
            dst = p_dst[row]
            dest = buf_objs[dst]
            dest_flits = dest._flits
            was_empty = not dest_flits
            dest_flits.append(flit)  # type: ignore[arg-type]
            dest.flits_enqueued += 1
            cid = p_chan[row]
            if cid >= 0:
                chan_counts[cid] += 1
            owner = p_owner[row]
            handler = handlers[owner]
            if handler is not None and (
                flit.is_head or flit.is_tail or not ht_only[owner]  # type: ignore[union-attr]
            ):
                handler(
                    flit,  # type: ignore[arg-type]
                    p_srcbuf[row],  # type: ignore[arg-type]
                    dest,
                    chan_objs[cid] if cid >= 0 else None,
                )
            committed += 1
            # Propose-side fill wakes fire only on the empty -> non-empty
            # edge: every proposer that reads this buffer reports
            # ``may_sleep_propose() == False`` while it is non-empty
            # (RingPort and MeshRouter both scan their wake buffers), so
            # a reader woken when the buffer last became non-empty cannot
            # have been swept since — the wake would be a no-op.  Sound
            # because propose-read buffers have exactly one filler per
            # subcycle (the resolver's one-fill invariant), so the
            # pre-append emptiness test detects the edge exactly.
            # Update-side wakes stay eager:
            # ``next_update_cycle`` deliberately does *not* count
            # ``in_queue`` content (ejection is fill-woken), so a parked
            # PM relies on every push waking it, not just the first.
            if was_empty:
                wakes = wake_push_prop[dst]
                if wakes is not None:
                    active_prop.update(wakes)
            wakes = wake_push_upd[dst]
            if wakes is not None:
                active_upd.update(wakes)
            wakes = wake_pop_upd[p_src[row]]
            if wakes is not None:
                active_upd.update(wakes)
        # Batch-clear the object columns (do not pin revoked flits or the
        # buffers of dead engines alive): one C-level slice store instead
        # of per-row assignments in the hot loop.
        clear: list[None] = [None] * n
        p_flit[:n] = clear
        p_srcbuf[:n] = clear
        if len(active_prop) != prop_before:
            self._prop_dirty = True
        if len(active_upd) != upd_before:
            self._upd_dirty = True
        self.flits_moved += committed
        self._p_n[0] = 0
        self._p_n[1] += n  # invalidate this subcycle's prop_of_* entries
        return committed

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _watchdog(self, proposed: int, committed: int) -> None:
        if proposed > 0 and committed == 0:
            self._stalled_cycles += 1
            if self._stalled_cycles >= self.deadlock_threshold:
                raise DeadlockError(self.cycle, self._stalled_cycles)
        else:
            self._stalled_cycles = 0
