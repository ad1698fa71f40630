"""Precision-driven simulation: run batches until the CI is tight.

The paper fixes its batch count; in practice different operating points
need very different run lengths (a saturated ring's latency variance
dwarfs an idle mesh's).  :func:`simulate_to_precision` keeps adding
batch-means batches until the latency confidence interval's relative
half-width drops below a target, or a batch budget is exhausted —
standard sequential batch-means methodology (MacDougall 1987, the
paper's own simulation reference).  It is ``simulate()``'s schedule
with a stop rule, so it runs where ``simulate()`` runs (the C kernel,
or ``compiled`` for what the kernel refuses) and its result has the
bytes of ``simulate()`` at the batch count it stopped at.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_SIM, SimulationParams, WorkloadConfig
from .errors import ConfigurationError
from .simulation import BatchMeters, SimulationResult, SystemConfig, _run_batches


@dataclass
class AdaptiveResult:
    """A :class:`SimulationResult` plus convergence bookkeeping."""

    result: SimulationResult
    converged: bool
    batches_run: int
    relative_half_width: float

    @property
    def avg_latency(self) -> float:
        return self.result.avg_latency


def simulate_to_precision(
    system: SystemConfig,
    workload: WorkloadConfig | None = None,
    relative_precision: float = 0.05,
    batch_cycles: int = 2000,
    min_batches: int = 4,
    max_batches: int = 40,
    seed: int = 1,
    deadlock_threshold: int = 50_000,
    flow_control: str = "bypass",
    scheduler: str = DEFAULT_SIM.scheduler,
) -> AdaptiveResult:
    """Run until the latency CI half-width is within *relative_precision*.

    ``min_batches`` counts all batches including the discarded warm-up
    batch, so at least ``min_batches - 1`` batches contribute to the
    estimate before convergence is evaluated.
    """
    if not 0 < relative_precision < 1:
        raise ConfigurationError("relative_precision must be in (0, 1)")
    if min_batches < 3:
        raise ConfigurationError("need min_batches >= 3 (warm-up plus two)")
    if max_batches < min_batches:
        raise ConfigurationError("max_batches must be >= min_batches")
    params = SimulationParams(
        batch_cycles=batch_cycles,
        batches=max_batches,
        seed=seed,
        deadlock_threshold=deadlock_threshold,
        flow_control=flow_control,
        scheduler=scheduler,
    )

    def precise(batches: int, meters: list[BatchMeters]) -> bool:
        return (
            batches >= min_batches
            and meters[0].metrics.remote_latency.batch.summary().relative_half_width
            <= relative_precision
        )

    (result,) = _run_batches(system, workload, params, (seed,), stop=precise)
    relative = result.latency.relative_half_width
    return AdaptiveResult(
        result=result,
        converged=relative <= relative_precision,
        batches_run=result.params.batches,
        relative_half_width=relative,
    )
