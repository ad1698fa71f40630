"""Lockstep-batched replica execution over the compiled datapath.

The paper's methodology (Section 2.3) estimates every latency and
utilization point from batch means over *replicated* runs, so the
natural unit of work is a batch of identical simulations differing only
by seed.  :class:`BatchedEngine` runs such a batch in **lockstep**: the
N replica networks are registered back to back into one engine, sharing
a single compiled datapath — one clock, one active-set schedule, one
set of proposal columns — so the per-cycle interpreter overhead
(timer heap, order rebuilds, step dispatch, sleep sweeps, watchdog) is
paid once per *batch* cycle instead of once per replica cycle.

The replica axis lives in numpy columns:

* ``_rep_of_owner`` maps every component's dense engine index to its
  replica, so each subcycle's proposal rows (``_p_owner`` plus the
  ``_p_live`` version-stamped survival column inherited from the
  compiled datapath) can be attributed to replicas with two
  ``np.bincount`` calls instead of a per-row Python loop;
* ``replica_flits`` accumulates committed transfers per replica (the
  per-replica twin of ``Engine.flits_moved``);
* ``_rep_proposed`` / ``_rep_committed`` / ``_rep_stalled`` vectorize
  the deadlock watchdog across the batch, so a stalled replica raises
  :class:`~repro.core.errors.DeadlockError` at exactly the cycle, and
  with exactly the stall count, its solo compiled run would.

Why lockstep stays deterministic
--------------------------------

Replicas never share mutable state: each network owns its buffers,
channels, RNG streams and :class:`~repro.core.pm.MetricsHub`, and no
component ever names another replica's buffer in a proposal.  Within
one replica the component registration order — and therefore the
propose order, commit order, metric-recording order and float-summation
order — is identical to a solo run; across replicas the merged order is
replica-major, which cannot matter because cross-replica operations
never touch common state.  The shared clock only *couples progress*:
the engine fast-forwards solely when every replica is idle, and every
skipped cycle is a provable no-op for each replica individually, just
as in a solo run.  Per-replica results are therefore byte-identical to
the ``compiled`` scheduler's (enforced by the kernel equivalence matrix
and the differential fuzzer), and the scheduler remains a pure
execution detail outside the cached-result identity.

Divergence handling
-------------------

Replicas diverge freely in *behaviour* (different seeds draw different
misses); the lockstep is purely temporal.  The one per-replica control
decision — the deadlock watchdog — is tracked per replica, so a wedged
replica fails exactly as it would solo while healthy replicas are
unaffected up to that raise.  Wall-clock wise a batch advances at the
pace of its busiest replica; idle replicas cost only their (empty)
active-set entries.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .engine import Engine
from .errors import DeadlockError, SimulationError


class BatchedEngine(Engine):
    """N independent replicas in lockstep over one compiled datapath.

    Register each replica's components back to back and call
    :meth:`seal_replica` after each one; components registered after the
    last seal (or with no seal at all) form a final implicit replica, so
    a ``BatchedEngine`` used exactly like a plain :class:`Engine` is a
    valid batch of one.

    ``scheduler`` reads ``"batched"`` (for profiling tables and
    diagnostics); internally this *is* the compiled scheduler — the same
    finalize-built closures, proposal columns and resolver — plus the
    replica-axis bookkeeping described in the module docstring.
    """

    def __init__(
        self,
        deadlock_threshold: int = 50_000,
        flow_control: str = "bypass",
    ):
        super().__init__(
            deadlock_threshold=deadlock_threshold,
            flow_control=flow_control,
            scheduler="compiled",
        )
        self.scheduler = "batched"
        #: Component-count boundary recorded by each :meth:`seal_replica`.
        self._replica_bounds: list[int] = []
        #: Replica index per component registration index (finalize-built).
        self._rep_of_owner: NDArray[np.intp] = np.zeros(0, dtype=np.intp)
        #: Committed transfers per replica (per-replica ``flits_moved``).
        self.replica_flits: NDArray[np.int64] = np.zeros(0, dtype=np.int64)
        # Per-cycle watchdog columns, reset by _watchdog.
        self._rep_proposed: NDArray[np.int64] = np.zeros(0, dtype=np.int64)
        self._rep_committed: NDArray[np.int64] = np.zeros(0, dtype=np.int64)
        self._rep_stalled: NDArray[np.int64] = np.zeros(0, dtype=np.int64)
        #: True while any replica's stall counter is non-zero — lets the
        #: idle-cycle fast path skip the vector watchdog entirely.
        self._stall_live = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def seal_replica(self) -> int:
        """End the current replica's registrations; return its index.

        Every component added since the previous seal belongs to the
        replica whose index is returned.  Sealing an empty replica (no
        components added since the last seal) is an error — it would
        silently shift all later replica attributions.
        """
        if self._finalized:
            raise SimulationError("cannot seal replicas after the engine started")
        bound = len(self.components)
        if bound == (self._replica_bounds[-1] if self._replica_bounds else 0):
            raise SimulationError("seal_replica() with no components registered")
        self._replica_bounds.append(bound)
        return len(self._replica_bounds) - 1

    @property
    def replicas(self) -> int:
        """Number of replicas (including a trailing implicit one)."""
        bounds = self._replica_bounds
        trailing = len(self.components) > (bounds[-1] if bounds else 0)
        return len(bounds) + (1 if trailing else 0)

    def replica_of(self, component_index: int) -> int:
        """Replica owning the component at *component_index*."""
        for replica, bound in enumerate(self._replica_bounds):
            if component_index < bound:
                return replica
        return len(self._replica_bounds)

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        super()._finalize()
        # An engine with no components is a batch of zero replicas: the
        # step runs (and trivially does nothing), matching a plain empty
        # Engine.
        replicas = self.replicas
        self._rep_of_owner = np.fromiter(
            (self.replica_of(index) for index in range(len(self.components))),
            dtype=np.intp,
            count=len(self.components),
        )
        self.replica_flits = np.zeros(replicas, dtype=np.int64)
        self._rep_proposed = np.zeros(replicas, dtype=np.int64)
        self._rep_committed = np.zeros(replicas, dtype=np.int64)
        self._rep_stalled = np.zeros(replicas, dtype=np.int64)

    # ------------------------------------------------------------------
    # replica-axis tally and watchdog (the only parts of a cycle that
    # differ from the compiled scheduler's Engine._step)
    # ------------------------------------------------------------------
    def _resolve_compiled(self) -> None:
        """Resolve, then attribute the subcycle's rows to replicas."""
        super()._resolve_compiled()
        self._tally_rows(self._p_n[0])

    def _tally_rows(self, n: int) -> None:
        """Attribute this subcycle's *n* proposal rows to replicas.

        Vectorized over the replica axis: one gather through
        ``_rep_of_owner`` plus two ``bincount`` reductions, instead of a
        per-row Python loop.  The ``_p_live`` column is copied out first
        (``bytes`` of the live prefix) so numpy never holds a buffer
        export on the growable bytearray.
        """
        replicas = self._rep_of_owner[np.asarray(self._p_owner[:n], dtype=np.intp)]
        live = np.frombuffer(bytes(self._p_live[:n]), dtype=np.uint8)
        proposed = np.bincount(replicas, minlength=self.replica_flits.shape[0])
        committed = np.bincount(
            replicas[live != 0], minlength=self.replica_flits.shape[0]
        )
        self._rep_proposed += proposed
        self._rep_committed += committed
        self.replica_flits += committed

    def _watchdog(self, proposed: int, committed: int) -> None:
        """Vectorized per-replica twin of :meth:`Engine._watchdog`.

        A replica's stall counter advances exactly when *it* proposed
        and nothing of *its* committed this cycle — the same condition
        its solo run evaluates — so a wedged replica raises at the same
        cycle with the same count, regardless of batch mates.  The
        batch-wide *committed* total is not needed: the per-replica
        counts come from :meth:`_tally_rows`.
        """
        if not proposed:
            # No proposals anywhere: every replica's counter resets
            # (solo semantics: proposed == 0 resets).  Skip the vector
            # ops entirely unless a counter is actually live.
            if self._stall_live:
                self._rep_stalled.fill(0)
                self._stall_live = False
            return
        stalled = self._rep_stalled
        mask = (self._rep_proposed > 0) & (self._rep_committed == 0)
        np.add(stalled, 1, out=stalled, where=mask)
        stalled[~mask] = 0
        self._rep_proposed.fill(0)
        self._rep_committed.fill(0)
        if not mask.any():
            self._stall_live = False
            return
        self._stall_live = True
        if (stalled >= self.deadlock_threshold).any():
            replica = int(np.nonzero(stalled >= self.deadlock_threshold)[0][0])
            total = int(self.replica_flits.shape[0])
            # A batch of one must raise the exact solo message: the
            # differential fuzzer compares error strings byte-for-byte
            # across schedulers.
            detail = f"replica {replica} of {total}" if total > 1 else ""
            raise DeadlockError(self.cycle, int(stalled[replica]), detail=detail)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def occupancy_matrix(self) -> NDArray[np.int64]:
        """Buffer occupancies as a dense vector over the registered ids.

        Diagnostic snapshot of the replica-partitioned buffer space (ids
        are assigned in first-proposal order, replica-major in steady
        state); not used by the hot path, which reads the deques
        directly so update-phase pushes that bypass the transfer
        machinery can never go stale.
        """
        return np.fromiter(
            (len(buffer._flits) for buffer in self._buf_objs),
            dtype=np.int64,
            count=len(self._buf_objs),
        )

    def describe(self) -> str:
        """One-line batch summary for CLIs and debugging."""
        flits = ", ".join(str(int(count)) for count in self.replica_flits)
        return (
            f"batched: {self.replicas} replica(s), "
            f"{len(self.components)} components, cycle {self.cycle}, "
            f"flits per replica [{flits}]"
        )
