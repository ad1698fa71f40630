"""Exception hierarchy for the repro simulator.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch one type to handle any simulator failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A system, workload, or simulation configuration is invalid."""


class TopologyError(ConfigurationError):
    """A network topology specification is malformed or unsupported."""


class DeadlockError(ReproError):
    """The network made no progress for longer than the watchdog allows.

    Raised by :class:`repro.core.engine.Engine` when flits are in flight,
    at least one transfer is being proposed, and no transfer commits for
    ``deadlock_threshold`` consecutive cycles.  A correctly configured
    e-cube mesh or tree-routed hierarchical ring should never trigger it;
    it exists to turn a silent hang into a diagnosable failure.
    """

    def __init__(self, cycle: int, stalled_cycles: int, detail: str = ""):
        self.cycle = cycle
        self.stalled_cycles = stalled_cycles
        self.detail = detail
        message = (
            f"no flit movement for {stalled_cycles} cycles "
            f"(at cycle {cycle}) while packets are in flight"
        )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)

    def __reduce__(self) -> tuple[type, tuple[int, int, str]]:
        # Rebuilt from the constructor's own arguments, so the error a
        # pool worker raises reaches the parent as a DeadlockError.
        return type(self), (self.cycle, self.stalled_cycles, self.detail)


class SimulationError(ReproError):
    """The simulation reached an internally inconsistent state."""
