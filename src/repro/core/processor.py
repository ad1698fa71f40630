"""The M-MRP processor model (paper Section 2.4).

Each processor generates a series of cache misses.  The offered load is
controlled by the miss rate ``C``: every cycle in which the processor is
not blocked, a miss occurs with probability ``C`` (geometric inter-miss
gaps with mean ``1/C``; the paper's C=0.04 gives one miss per 25
cycles).  The generation rate is independent of the number of
outstanding requests — the multiple-context processor model of the
paper — but when ``T`` transactions are outstanding the processor
blocks: the pending miss waits for a response to free a slot, and no
further misses are drawn while blocked.

A miss is a read with probability ``read_fraction`` (0.7 in the paper)
and targets a memory module drawn uniformly from the processor's
locality region (chosen by the network-specific target selector).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Protocol

from .config import WorkloadConfig
from .packet import PacketType


class TargetSelector(Protocol):
    """Draws a target PM for one miss of a given processor."""

    def __call__(self, pm_id: int, rng: random.Random) -> int: ...


class MissSource(Protocol):
    """Anything that can feed cache misses to a processing module.

    :class:`MissGenerator` is the M-MRP implementation; the
    trace-driven workload (:mod:`repro.workload.trace`) provides a
    player with the same interface, so a PM never knows whether its
    misses are synthetic or replayed.

    Sources may additionally implement
    ``next_issue_cycle(cycle) -> int | None`` — the earliest future
    cycle at which ``poll`` could release a miss (``None`` while a
    released miss is parked waiting for an outstanding slot).  The
    active-set scheduler uses it to let an idle PM sleep; sources
    without it simply keep their PM polling every cycle.
    """

    def poll(self, cycle: int, can_issue: "Callable[[], bool]") -> "Miss | None": ...


@dataclass(frozen=True)
class Miss:
    """One generated cache miss, before packetization."""

    is_read: bool
    target: int
    generated_cycle: int


#: How many cycles of Bernoulli draws a scheduling query runs ahead of
#: real time.  Bounds the work per query at very low miss rates (where
#: the next success may be astronomically far away) while keeping the
#: timer wakes of an idle PM rare.
LOOKAHEAD_CHUNK = 4096


class MissGenerator:
    """Bernoulli-per-cycle miss source with a one-deep blocked-miss slot.

    While the processor is unblocked the per-cycle Bernoulli draws are
    independent of network state, so the generator may draw them *ahead*
    of real time: :meth:`next_issue_cycle` bursts up to
    :data:`LOOKAHEAD_CHUNK` cycles of draws looking for the next success
    and parks the resulting miss as ``_scheduled``.  Every cycle is
    drawn exactly once, in order, whether it is drawn lazily (one draw
    per ``poll``, the full-scan scheduler's pattern) or in a burst — so
    the random stream is consumed identically either way.  While a miss
    is blocked waiting for an outstanding slot no draws occur, and after
    it issues at cycle *r* drawing resumes at *r + 1* — again exactly as
    in the one-draw-per-poll formulation, making results bit-identical
    under both schedulers.
    """

    __slots__ = (
        "pm_id",
        "workload",
        "rng",
        "_pending",
        "misses_generated",
        "_select",
        "_scheduled",
        "_scheduled_cycle",
        "_next_draw_cycle",
    )

    def __init__(
        self,
        pm_id: int,
        workload: WorkloadConfig,
        select_target: TargetSelector,
        rng: random.Random,
    ):
        self.pm_id = pm_id
        self.workload = workload
        self.rng = rng
        self._select: TargetSelector = select_target
        self._pending: Miss | None = None
        self.misses_generated = 0
        self._scheduled: Miss | None = None
        self._scheduled_cycle = 0
        self._next_draw_cycle = 0

    @property
    def blocked(self) -> bool:
        """True when a generated miss is waiting for an outstanding slot."""
        return self._pending is not None

    def _advance_schedule(self, limit: int) -> None:
        """Draw the per-cycle Bernoullis for every cycle up to *limit*.

        Stops early at the first success (the scheduled miss must be
        consumed before later cycles may be drawn — consuming it while
        blocked suspends drawing entirely, exactly as lazy per-poll
        drawing would).
        """
        if self._scheduled is not None or self._pending is not None:
            return
        rng = self.rng
        rng_random = rng.random
        miss_rate = self.workload.miss_rate
        cycle = self._next_draw_cycle
        while cycle <= limit:
            if rng_random() < miss_rate:
                self._scheduled = Miss(
                    is_read=rng_random() < self.workload.read_fraction,
                    target=self._select(self.pm_id, rng),
                    generated_cycle=cycle,
                )
                self._scheduled_cycle = cycle
                self._next_draw_cycle = cycle + 1
                return
            cycle += 1
        self._next_draw_cycle = cycle

    def next_issue_cycle(self, cycle: int) -> int | None:
        """Cycle at which ``poll`` will next have a miss to release.

        ``None`` while a miss is parked blocked (its release is gated on
        an outstanding slot freeing, which the PM observes through its
        own wake events) and at zero load.  When the bounded lookahead
        finds no success, returns the first undrawn cycle so the PM
        wakes to draw the next chunk.
        """
        if self._pending is not None:
            return None
        if self._scheduled is None:
            if self.workload.miss_rate <= 0.0:
                return None  # zero load: no miss, ever
            self._advance_schedule(cycle + LOOKAHEAD_CHUNK)
        if self._scheduled is not None:
            return self._scheduled_cycle
        return self._next_draw_cycle

    def poll(self, cycle: int, can_issue: Callable[[], bool]) -> Miss | None:
        """Advance to ``cycle``; return a miss to issue now, if any.

        ``can_issue`` reports whether the processor has a free
        outstanding-transaction slot *right now* (it is re-queried after
        the pending miss is released so back-to-back issue works).
        """
        if self._pending is not None:
            if not can_issue():
                return None
            miss, self._pending = self._pending, None
            self._next_draw_cycle = cycle + 1
            return miss
        self._advance_schedule(cycle)
        if self._scheduled is None or self._scheduled_cycle > cycle:
            return None
        miss, self._scheduled = self._scheduled, None
        self.misses_generated += 1
        if can_issue():
            self._next_draw_cycle = cycle + 1
            return miss
        self._pending = miss
        return None

    @staticmethod
    def request_type(miss: Miss) -> PacketType:
        return PacketType.READ_REQUEST if miss.is_read else PacketType.WRITE_REQUEST


class BurstyMissGenerator(MissGenerator):
    """On/off Markov-modulated Bernoulli miss source.

    Each *drawn* cycle consumes one uniform for the two-state Markov
    transition (``P[leave ON] = 1/burst_on``, ``P[leave OFF] =
    1/burst_off``, evaluated before the cycle's injection decision, so
    a cycle that just turned ON may inject) and then — only while ON —
    the same miss/read/target draws as the base generator, at the
    ON-state rate ``miss_rate * (on+off)/on`` so the long-run average
    stays ``miss_rate``.  The initial state is one stationary
    (duty-cycle) draw in ``__init__`` so PM phases decorrelate.

    The chain only advances on cycles the base class would have drawn:
    it freezes while a miss is parked blocked, exactly like the
    Bernoulli stream, so lazy per-poll drawing and burst lookahead
    consume the random stream identically and results stay
    bit-identical across the naive/active/compiled/batched schedulers.
    (The compiled fast path fuses only the exact ``MissGenerator`` type
    — see ``ProcessingModule.compiled_update_handler`` — so this
    subclass automatically runs on the generic, still-correct path.
    The columnar kernel draws the plain generator's stream only, so
    that scheduler runs bursty workloads under ``compiled``.)
    """

    __slots__ = ("_on", "_p_exit_on", "_p_exit_off", "_on_rate")

    def __init__(
        self,
        pm_id: int,
        workload: WorkloadConfig,
        select_target: TargetSelector,
        rng: random.Random,
    ):
        super().__init__(pm_id, workload, select_target, rng)
        self._p_exit_on = 1.0 / workload.burst_on
        self._p_exit_off = 1.0 / workload.burst_off
        self._on_rate = workload.burst_on_rate
        duty = workload.burst_on / (workload.burst_on + workload.burst_off)
        self._on = rng.random() < duty

    def _advance_schedule(self, limit: int) -> None:
        if self._scheduled is not None or self._pending is not None:
            return
        rng = self.rng
        rng_random = rng.random
        p_exit_on = self._p_exit_on
        p_exit_off = self._p_exit_off
        on_rate = self._on_rate
        on = self._on
        cycle = self._next_draw_cycle
        while cycle <= limit:
            if on:
                if rng_random() < p_exit_on:
                    on = False
            elif rng_random() < p_exit_off:
                on = True
            if on and rng_random() < on_rate:
                self._scheduled = Miss(
                    is_read=rng_random() < self.workload.read_fraction,
                    target=self._select(self.pm_id, rng),
                    generated_cycle=cycle,
                )
                self._scheduled_cycle = cycle
                self._next_draw_cycle = cycle + 1
                self._on = on
                return
            cycle += 1
        self._next_draw_cycle = cycle
        self._on = on


def make_miss_generator(
    pm_id: int,
    workload: WorkloadConfig,
    select_target: TargetSelector,
    rng: random.Random,
) -> MissGenerator:
    """The miss generator for one PM: bursty when the workload says so."""
    if workload.bursty:
        return BurstyMissGenerator(pm_id, workload, select_target, rng)
    return MissGenerator(pm_id, workload, select_target, rng)
