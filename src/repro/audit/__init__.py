"""Runtime invariant auditing and cross-scheduler differential fuzzing.

``repro.audit`` machine-checks, every cycle, the conservation and
protocol invariants the simulator's correctness argument rests on
(flit conservation, buffer bounds, wormhole contiguity, transaction
lifecycle, transit priority — see :mod:`repro.audit.invariants` for the
full list), and fuzzes the schedulers against each other on randomized
small configurations (:mod:`repro.audit.fuzz`).

Auditing follows the :mod:`repro.core.profiling` pattern: zero cost
when off, ambient enable/disable around a run::

    from repro.audit import Auditor, enabled

    with enabled(Auditor()) as auditor:
        result = simulate(system, workload, params)
    print(auditor.describe())

The default ``columnar`` scheduler steps flat columns in a C kernel,
out of the per-cycle auditor's reach, and returns ``compiled``'s bytes
— so while an auditor is enabled, ``simulate()`` runs the point under
``compiled`` (:func:`repro.core.columnar.kernel_can_run`), which is the
engine the auditor attaches to.  For the kernel itself,
:mod:`repro.audit.stat_equiv` runs paired columnar-vs-baseline
campaigns gated on byte-equal per-seed payloads on every paper
topology, and samples running columnar engines, materializing one
replica's columns back into object form to check the same structural
invariants.

Command line (see ``python -m repro.audit --help``)::

    python -m repro.audit fuzz --cases 50 --seed 0
    python -m repro.audit fuzz --cases 10 --include-columnar
    python -m repro.audit smoke
    python -m repro.audit stat-equiv --seeds 8

This ``__init__`` keeps heavy imports lazy: the engine imports
``repro.audit.runtime`` from inside ``_finalize`` (which executes this
module), so pulling the ring/mesh component classes in here would make
every unaudited engine pay for them.
"""

from __future__ import annotations

from typing import Any

from .runtime import current, disable, enable, enabled

__all__ = [
    "AuditError",
    "Auditor",
    "SamplingAuditor",
    "current",
    "disable",
    "enable",
    "enabled",
    "run_campaign",
]

#: Names resolved lazily on first attribute access (invariants imports
#: the ring and mesh packages; stat_equiv imports numpy and the
#: columnar engine).
_LAZY = {"Auditor", "AuditError"}
_LAZY_STAT = {"SamplingAuditor", "run_campaign"}


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        from . import invariants

        return getattr(invariants, name)
    if name in _LAZY_STAT:
        from . import stat_equiv

        return getattr(stat_equiv, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
