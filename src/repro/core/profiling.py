"""Per-phase wall-time profiling for the simulation kernel.

At finalize time the engine reads :func:`current` once; when a
:class:`PhaseProfile` has been installed via :func:`enable`, its one
cycle step (``Engine._step``) brackets every propose / resolve /
commit / update phase with :meth:`PhaseProfile.begin` /
:meth:`PhaseProfile.lap` calls.  Off, each of those is one
``is not None`` test; together with the step's other mode branches
they cost the compiled scheduler at most +2.3 % against separate
branch-free step copies (see :mod:`repro.core.engine`).

Wall-clock reads live only in this module (the two ``perf_counter``
calls below); the kernel itself stays free of time sources, which keeps
the RPR002 determinism lint meaningful over ``repro.core.engine``.

Usage (what ``python -m repro.experiments --profile`` does)::

    profile = PhaseProfile()
    with enabled(profile):
        result = simulate(system, workload, params)
    print(profile.format_table())

Profiling is process-local ambient state, so it only observes engines
created in this process — the experiments CLI therefore forces
``--jobs 1`` and disables the result cache when ``--profile`` is given.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

#: Phase keys in reporting order.
PHASES = ("propose", "resolve", "commit", "update")


class PhaseProfile:
    """Accumulated wall seconds per ``(scheduler, phase)``.

    One instance can span several engines (e.g. every point of a sweep);
    times for the same scheduler accumulate.
    """

    def __init__(self) -> None:
        #: seconds[(scheduler, phase)] -> accumulated wall seconds
        self.seconds: dict[tuple[str, str], float] = {}
        #: base cycles stepped while this profile was active, per scheduler
        self.cycles: dict[str, int] = {}
        self._mark = 0.0

    # The two perf_counter reads below are the only wall-clock sources
    # in repro.core; they never influence simulation behaviour.
    def begin(self) -> None:
        """Start (or restart) the phase stopwatch."""
        self._mark = time.perf_counter()  # repro: noqa[RPR002] profiling clock

    def lap(self, scheduler: str, phase: str) -> None:
        """Charge the time since the last begin()/lap() to a phase."""
        now = time.perf_counter()  # repro: noqa[RPR002] profiling clock
        key = (scheduler, phase)
        elapsed = now - self._mark
        if key in self.seconds:
            self.seconds[key] += elapsed
        else:
            self.seconds[key] = elapsed
        self._mark = now

    def count_cycle(self, scheduler: str) -> None:
        self.cycles[scheduler] = self.cycles.get(scheduler, 0) + 1

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def format_table(self) -> str:
        """Render the phase breakdown as an aligned text table."""
        if not self.seconds:
            return "phase profile: no cycles recorded"
        lines = ["phase profile (wall seconds inside the kernel step):"]
        schedulers = sorted({scheduler for scheduler, _ in self.seconds})
        header = f"  {'scheduler':<10} {'phase':<8} {'seconds':>9} {'share':>7} {'us/cycle':>9}"
        lines.append(header)
        total = self.total_seconds
        for scheduler in schedulers:
            cycles = self.cycles.get(scheduler, 0)
            for phase in PHASES:
                seconds = self.seconds.get((scheduler, phase))
                if seconds is None:
                    continue
                share = 100.0 * seconds / total if total else 0.0
                per_cycle = 1e6 * seconds / cycles if cycles else 0.0
                lines.append(
                    f"  {scheduler:<10} {phase:<8} {seconds:>9.3f} "
                    f"{share:>6.1f}% {per_cycle:>9.2f}"
                )
            lines.append(
                f"  {scheduler:<10} {'(cycles)':<8} {cycles:>9d}"
            )
        return "\n".join(lines)


#: The process-wide active profile (None = profiling off, zero-cost).
_ACTIVE: PhaseProfile | None = None


def enable(profile: PhaseProfile) -> None:
    """Install *profile*; engines finalized afterwards report into it."""
    global _ACTIVE
    _ACTIVE = profile


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


def current() -> PhaseProfile | None:
    return _ACTIVE


@contextmanager
def enabled(profile: PhaseProfile) -> Iterator[PhaseProfile]:
    """Scoped :func:`enable` / :func:`disable`."""
    enable(profile)
    try:
        yield profile
    finally:
        disable()
