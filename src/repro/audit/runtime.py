"""Ambient on/off switch for the runtime invariant auditor.

Mirrors :mod:`repro.core.profiling`: at finalize time the engine asks
:func:`current` once and attaches the
:class:`~repro.audit.invariants.Auditor` installed via :func:`enable`,
if any; its one cycle step (``Engine._step``, shared with the profiler)
then calls the auditor's checks between phases.  Off, that is an
``is not None`` test per check site (the cost of the step's mode
branches is in :mod:`repro.core.engine`).

Auditing is process-local ambient state, exactly like profiling: it
only observes engines *finalized* while it is enabled, so the
experiments CLI forces ``--jobs 1`` and disables the result cache when
``--audit`` is given.

This module deliberately imports nothing from the rest of the audit
package (or from the simulator): the engine imports it from inside
``_finalize``, and keeping it leaf-level makes that import cycle-proof
and nearly free.

Usage::

    from repro.audit import Auditor, enabled

    auditor = Auditor()
    with enabled(auditor):
        result = simulate(system, workload, params)
    print(auditor.describe())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - type-only import, no cycle
    from .invariants import Auditor

#: The process-wide active auditor (None = auditing off, zero-cost).
_ACTIVE: "Auditor | None" = None


def enable(auditor: "Auditor") -> None:
    """Install *auditor*; engines finalized afterwards report into it."""
    global _ACTIVE
    _ACTIVE = auditor


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def current() -> "Auditor | None":
    return _ACTIVE


@contextmanager
def enabled(auditor: "Auditor") -> Iterator["Auditor"]:
    """Scoped :func:`enable` / :func:`disable`."""
    enable(auditor)
    try:
        yield auditor
    finally:
        disable()
