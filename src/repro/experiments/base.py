"""Experiment harness: scales, registry, and shared runners.

Every paper table/figure is an :class:`Experiment` registered here.  An
experiment maps a :class:`Scale` (how long and how wide to simulate) to
a :class:`~repro.analysis.sweeps.SweepResult` and carries qualitative
*checks* — the shape claims the paper makes about that figure — which
the integration tests and the CLI's ``--check`` flag evaluate.

Scales
------
``quick``    seconds-per-experiment; used by the tests and CI sweeps.
``default``  minutes-per-experiment; good fidelity on the shapes.
``full``     the complete paper grid (all cache lines, T values, and
             system sizes up to 121-144 nodes); used to produce
             EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from ..core.config import SimulationParams
from ..analysis.sweeps import SweepResult
from ..runtime import runtime_context


@dataclass(frozen=True)
class Scale:
    """How much of the paper grid to run."""

    name: str
    sim: SimulationParams
    max_nodes: int
    t_values: tuple[int, ...]
    cache_lines: tuple[int, ...]
    mesh_sides: tuple[int, ...]
    locality_values: tuple[float, ...] = (0.1, 0.2, 0.3)
    run_checks: bool = True


QUICK = Scale(
    name="quick",
    sim=SimulationParams(batch_cycles=500, batches=3),
    max_nodes=40,
    t_values=(4,),
    cache_lines=(32, 128),
    mesh_sides=(2, 3, 4, 6),
    locality_values=(0.2,),
    run_checks=False,
)

DEFAULT = Scale(
    name="default",
    sim=SimulationParams(batch_cycles=2000, batches=5),
    max_nodes=80,
    t_values=(1, 4),
    cache_lines=(16, 32, 64, 128),
    mesh_sides=(2, 3, 4, 5, 6, 7, 8, 9),
    locality_values=(0.1, 0.2, 0.3),
)

FULL = Scale(
    name="full",
    sim=SimulationParams(batch_cycles=4000, batches=6),
    max_nodes=150,
    t_values=(1, 2, 4),
    cache_lines=(16, 32, 64, 128),
    mesh_sides=(2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
    locality_values=(0.1, 0.2, 0.3),
)

SCALES = {scale.name: scale for scale in (QUICK, DEFAULT, FULL)}


def scale_from_env(default: str = "quick") -> Scale:
    """Scale selected by the ``REPRO_SCALE`` environment variable."""
    return SCALES[os.environ.get("REPRO_SCALE", default)]


#: A check inspects a finished sweep and returns failure messages.
Check = Callable[[SweepResult], list[str]]


@dataclass
class Experiment:
    """A registered reproduction of one paper table or figure."""

    experiment_id: str
    title: str
    paper_claim: str
    runner: Callable[[Scale], SweepResult]
    check: Check | None = None
    tags: tuple[str, ...] = ()

    def run(self, scale: Scale, jobs: int | None = None) -> SweepResult:
        """Run the experiment's sweeps at *scale*.

        ``jobs`` overrides the worker-process count for this run; when
        ``None``, the ambient :func:`repro.runtime.runtime_context` (or
        ``REPRO_JOBS``, default serial) applies.
        """
        with runtime_context(jobs=jobs):
            return self.runner(scale)

    def evaluate(self, result: SweepResult) -> list[str]:
        if self.check is None:
            return []
        return self.check(result)


EXPERIMENTS: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    if experiment.experiment_id in EXPERIMENTS:
        raise ValueError(f"duplicate experiment id {experiment.experiment_id!r}")
    EXPERIMENTS[experiment.experiment_id] = experiment
    return experiment


def get_experiment(experiment_id: str) -> Experiment:
    _load_all()
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def all_experiments() -> dict[str, Experiment]:
    _load_all()
    return dict(EXPERIMENTS)


_LOADED = False


def _load_all() -> None:
    """Import every experiment module so registration side effects run."""
    global _LOADED
    if _LOADED:
        return
    from . import (  # noqa: F401
        table1,
        table2,
        fig06_single_rings,
        fig07_two_level_latency,
        fig08_two_level_utilization,
        fig09_three_level_latency,
        fig10_three_level_utilization,
        fig11_hierarchy_benefit,
        fig12_mesh_latency,
        fig13_mesh_utilization,
        fig14_ring_vs_mesh,
        fig15_cl_buffers,
        fig16_one_flit_buffers,
        fig17_locality,
        fig18_locality_cl_buffers,
        fig19_double_speed_latency,
        fig20_double_speed_utilization,
        fig21_double_speed_vs_mesh,
        ext_slotted,
        ext_patterns,
    )

    _LOADED = True
