"""Multiprocessor Memory Reference Pattern (M-MRP) target selection.

Section 2.4 of the paper: each processor accesses a memory region whose
size is controlled by ``R``; references within the region are uniformly
distributed and independent.  "Closest" is interpreted per network:

* **rings** — processors are projected onto a line in linear
  (depth-first) order and the region is the ``ceil(R * (P - 1) / 2)``
  PMs on either side, plus the local PM: a contiguous region centered
  at the accessing PM.  The line is truncated at its ends (a PM near
  the edge has a smaller region), exactly as a line projection implies;
  wrapping instead would hand edge PMs "close" targets on the far side
  of the whole machine and destroy the locality the parameter is meant
  to model.
* **meshes** — the region is the ``ceil(R * P) - 1`` PMs closest by
  e-cube hop count, plus the local PM.  Ties at the region boundary are
  broken by PM index, deterministically.

``R = 1.0`` makes every PM a uniform random target (no locality).
"""

from __future__ import annotations

import math
import random
from typing import Sequence


def ring_region(pm_id: int, processors: int, locality: float) -> list[int]:
    """Contiguous line window of PMs around *pm_id*, including it.

    When the window spans the whole machine (``2*half + 1 >= P``, e.g.
    R=1.0) every PM is a target — the paper's "no locality" uniform
    workload — rather than a truncated half-window at the line's ends.
    """
    if not 0.0 < locality <= 1.0:
        raise ValueError(f"locality must be in (0, 1], got {locality}")
    if processors == 1:
        return [0]
    half = math.ceil(locality * (processors - 1) / 2)
    if 2 * half + 1 >= processors:
        return list(range(processors))
    lo = max(0, pm_id - half)
    hi = min(processors - 1, pm_id + half)
    return list(range(lo, hi + 1))


def mesh_region(pm_id: int, side: int, locality: float) -> list[int]:
    """The hop-count-closest PMs to *pm_id* on a *side* x *side* mesh."""
    if not 0.0 < locality <= 1.0:
        raise ValueError(f"locality must be in (0, 1], got {locality}")
    processors = side * side
    remote_count = max(0, math.ceil(locality * processors) - 1)
    if remote_count >= processors - 1:
        # the whole machine (R = 1.0, the paper's main workload): no
        # need to rank P - 1 candidates to keep all of them
        return list(range(processors))
    x0, y0 = pm_id % side, pm_id // side
    others = sorted(
        (pm for pm in range(processors) if pm != pm_id),
        key=lambda pm: (abs(pm % side - x0) + abs(pm // side - y0), pm),
    )
    return sorted([pm_id, *others[:remote_count]])


class RegionTargetSelector:
    """Uniform target draw from per-PM precomputed locality regions."""

    def __init__(self, regions: Sequence[Sequence[int]]):
        self.regions = [list(r) for r in regions]
        for pm_id, region in enumerate(self.regions):
            if pm_id not in region:
                raise ValueError(f"region of PM {pm_id} must include the PM itself")

    def __call__(self, pm_id: int, rng: random.Random) -> int:
        region = self.regions[pm_id]
        return region[rng.randrange(len(region))]

    @classmethod
    def for_ring(cls, processors: int, locality: float) -> "RegionTargetSelector":
        return cls([ring_region(pm, processors, locality) for pm in range(processors)])

    @classmethod
    def for_mesh(cls, side: int, locality: float) -> "RegionTargetSelector":
        return cls([mesh_region(pm, side, locality) for pm in range(side * side)])


def expected_remote_fraction(
    regions: Sequence[Sequence[int]],
    weights: "Sequence[Sequence[float]] | None" = None,
) -> float:
    """Mean probability that a miss leaves its PM — a load sanity check.

    ``regions[pm]`` lists PM *pm*'s candidate targets.  Draws are
    weighted: with ``weights`` given, ``weights[pm][i]`` is the draw
    weight of ``regions[pm][i]``; without it every listed entry weighs
    1, so a *pool* that repeats a target (the weighted-hotspot encoding
    of :mod:`repro.workload.patterns`) contributes its multiplicity.
    For plain locality regions — each target listed once, no weights —
    this reduces exactly to the historical uniform formula
    ``(len(region) - 1) / len(region)``.
    """
    if not regions:
        return 0.0
    total = 0.0
    for pm_id, region in enumerate(regions):
        region_weights = weights[pm_id] if weights is not None else None
        if region_weights is not None and len(region_weights) != len(region):
            raise ValueError(
                f"weights of PM {pm_id} must parallel its region: "
                f"{len(region_weights)} weights for {len(region)} targets"
            )
        total_weight = 0.0
        self_weight = 0.0
        for index, target in enumerate(region):
            weight = 1.0 if region_weights is None else float(region_weights[index])
            if weight < 0.0:
                raise ValueError(f"negative draw weight for PM {pm_id}: {weight}")
            total_weight += weight
            if target == pm_id:
                self_weight += weight
        if total_weight <= 0.0:
            raise ValueError(f"PM {pm_id} has zero total draw weight")
        total += (total_weight - self_weight) / total_weight
    return total / len(regions)
