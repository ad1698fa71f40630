"""Hierarchical ring topology, addressing and topology selection.

A hierarchy is described top-down by a branching tuple (the paper's
``"2:3:4"`` notation, Table 2): the global ring connects ``b[0]``
level-2 rings, each of which connects ``b[1]`` children, ..., and each
*local* (leaf) ring carries ``b[-1]`` processing modules.  Rings are
identified by their *prefix* — the path of child indices from the
global ring — and a PM by the full mixed-radix digit tuple.  PM ids are
assigned in depth-first (lexicographic) order, which is exactly the
paper's "linear projection" used by the locality model: consecutive ids
are topologically adjacent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator

from ..core.config import format_hierarchy, hierarchy_processors, parse_hierarchy
from ..core.errors import TopologyError

#: Maximum PMs a single ring sustains with almost no degradation for the
#: paper's baseline workload (R=1.0, C=0.04), by cache line size (Fig 6).
SINGLE_RING_MAX = {16: 12, 32: 8, 64: 6, 128: 4}

#: Maximum lower-level rings a higher-level ring sustains before the
#: global ring saturates (Sections 3 and 6): 3 at normal speed,
#: 5 with a double-speed global ring.
MAX_RINGS_PER_RING = 3
MAX_RINGS_PER_DOUBLE_SPEED_RING = 5

#: Paper Table 2: optimal topology for each (cache line size, processor
#: count) under the no-locality workload R=1.0, C=0.04.
PAPER_TABLE2: dict[int, dict[int, tuple[int, ...]]] = {
    16: {
        4: (4,), 6: (6,), 8: (8,), 12: (12,), 18: (2, 9), 24: (2, 12),
        36: (3, 12), 54: (2, 3, 9), 72: (2, 3, 12), 108: (3, 3, 12),
    },
    32: {
        4: (4,), 6: (6,), 8: (8,), 12: (2, 6), 18: (3, 6), 24: (3, 8),
        36: (2, 3, 6), 54: (3, 3, 6), 72: (3, 3, 8), 108: (2, 3, 3, 6),
    },
    64: {
        4: (4,), 6: (6,), 8: (2, 4), 12: (2, 6), 18: (3, 6), 24: (2, 2, 6),
        36: (2, 3, 6), 54: (3, 3, 6), 72: (2, 2, 3, 6), 108: (2, 3, 3, 6),
    },
    128: {
        4: (4,), 6: (2, 3), 8: (2, 4), 12: (3, 4), 18: (3, 2, 3),
        24: (2, 3, 4), 36: (3, 3, 4), 54: (3, 3, 2, 3), 72: (2, 3, 3, 4),
        108: (3, 3, 3, 4),
    },
}


@dataclass(frozen=True)
class HierarchySpec:
    """An immutable, validated hierarchical-ring shape."""

    branching: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branching", parse_hierarchy(self.branching))

    @classmethod
    def parse(cls, spec: "str | tuple[int, ...] | list[int] | HierarchySpec") -> "HierarchySpec":
        if isinstance(spec, HierarchySpec):
            return spec
        return cls(parse_hierarchy(spec))

    # -- shape ---------------------------------------------------------
    @property
    def levels(self) -> int:
        return len(self.branching)

    @property
    def processors(self) -> int:
        return hierarchy_processors(self.branching)

    @property
    def pms_per_local_ring(self) -> int:
        return self.branching[-1]

    def children_of_depth(self, depth: int) -> int:
        """Fan-out of a ring at *depth* (0 = global ring)."""
        return self.branching[depth]

    # -- rings ---------------------------------------------------------
    def rings_at_depth(self, depth: int) -> list[tuple[int, ...]]:
        """All ring prefixes at *depth* (0 = global, levels-1 = local)."""
        if not 0 <= depth <= self.levels - 1:
            raise TopologyError(f"depth {depth} out of range for {self}")

        def expand(prefix: tuple[int, ...], d: int) -> Iterator[tuple[int, ...]]:
            if d == depth:
                yield prefix
                return
            for i in range(self.branching[d]):
                yield from expand(prefix + (i,), d + 1)

        return list(expand((), 0))

    def all_rings(self) -> Iterator[tuple[int, ...]]:
        for depth in range(self.levels):
            yield from self.rings_at_depth(depth)

    def ring_count(self) -> int:
        return sum(1 for __ in self.all_rings())

    def iri_count(self) -> int:
        """Inter-ring interfaces: one per non-root ring."""
        return self.ring_count() - 1

    # -- PM addressing -------------------------------------------------
    def address_of(self, pm_id: int) -> tuple[int, ...]:
        """Mixed-radix digits of *pm_id*, top-down (DFS order)."""
        if not 0 <= pm_id < self.processors:
            raise TopologyError(f"pm_id {pm_id} out of range for {self}")
        digits = []
        remainder = pm_id
        for radix in reversed(self.branching):
            digits.append(remainder % radix)
            remainder //= radix
        return tuple(reversed(digits))

    def pm_id_of(self, address: tuple[int, ...]) -> int:
        if len(address) != self.levels:
            raise TopologyError(f"address {address} has wrong length for {self}")
        pm_id = 0
        for digit, radix in zip(address, self.branching):
            if not 0 <= digit < radix:
                raise TopologyError(f"address digit {digit} out of range (radix {radix})")
            pm_id = pm_id * radix + digit
        return pm_id

    def local_ring_of(self, pm_id: int) -> tuple[int, ...]:
        return self.address_of(pm_id)[:-1]

    def subtree_range(self, ring_prefix: tuple[int, ...]) -> tuple[int, int]:
        """Half-open PM-id range ``[lo, hi)`` below the ring *ring_prefix*.

        PM ids are assigned depth-first, so a subtree is a contiguous
        id range — the O(1) test every inter-ring interface routes by.
        """
        size = 1
        for radix in self.branching[len(ring_prefix):]:
            size *= radix
        pad = (0,) * (self.levels - len(ring_prefix))
        lo = self.pm_id_of(ring_prefix + pad)
        return lo, lo + size

    def in_subtree(self, pm_id: int, ring_prefix: tuple[int, ...]) -> bool:
        """Whether *pm_id* lives below the ring identified by *ring_prefix*."""
        return self.address_of(pm_id)[: len(ring_prefix)] == ring_prefix

    def hop_levels(self, src: int, dst: int) -> int:
        """Number of ring levels a packet from *src* to *dst* ascends."""
        a, b = self.address_of(src), self.address_of(dst)
        for depth in range(self.levels):
            if a[depth] != b[depth]:
                return self.levels - depth
        return 0

    def __str__(self) -> str:
        return format_hierarchy(self.branching)


# ----------------------------------------------------------------------
# wiring rules — read by the object network (ring/network.py) and by the
# kernel tier's table emitter (core/plan.py), so they are written once
# ----------------------------------------------------------------------
def level_name(depth: int, levels: int) -> str:
    """Utilization grouping for a ring at *depth* in an *levels*-deep tree."""
    if levels == 1 or depth == levels - 1:
        return "local"
    if depth == 0:
        return "global"
    return "intermediate"


def ring_speed(depth: int, levels: int, global_ring_speed: int) -> int:
    """Clock multiple of a ring at *depth*: only the global ring of a
    multi-level hierarchy ever runs fast (Section 6)."""
    if depth == 0 and levels > 1:
        return global_ring_speed
    return 1


#: One position on a ring, in flow order: ``("lower", prefix)`` is the
#: child-ring side of the IRI joining ring *prefix* to its parent,
#: ``("upper", prefix)`` that IRI's parent-ring side, ``("nic", pm_id)``
#: a processing module's interface.
RingMember = tuple[str, "tuple[int, ...] | int"]


def ring_members(spec: HierarchySpec, prefix: tuple[int, ...]) -> list[RingMember]:
    """Membership (flow) order of the ring *prefix*: the IRI to the
    parent ring first (absent at the root), then the children in index
    order — child rings' IRI upper ports on inner rings, PM NICs on
    local rings."""
    depth = len(prefix)
    members: list[RingMember] = []
    if depth > 0:
        members.append(("lower", prefix))
    if depth == spec.levels - 1:
        first = spec.subtree_range(prefix)[0]
        members += [("nic", first + slot) for slot in range(spec.branching[depth])]
    else:
        members += [("upper", prefix + (child,)) for child in range(spec.branching[depth])]
    return members


# ----------------------------------------------------------------------
# topology selection
# ----------------------------------------------------------------------
def max_children(depth: int, levels: int, cache_line_bytes: int, global_ring_speed: int) -> int:
    """Design-rule fan-out limit for a ring at *depth* in an *levels*-deep tree."""
    if depth == levels - 1:
        return SINGLE_RING_MAX[cache_line_bytes]
    if depth == 0 and global_ring_speed == 2:
        return MAX_RINGS_PER_DOUBLE_SPEED_RING
    return MAX_RINGS_PER_RING


def candidate_topologies(
    processors: int,
    cache_line_bytes: int,
    max_levels: int = 4,
    global_ring_speed: int = 1,
    enforce_design_rules: bool = True,
) -> list[tuple[int, ...]]:
    """All branching tuples with exactly *processors* PMs.

    With ``enforce_design_rules`` the paper's fan-out limits apply:
    local rings hold at most :data:`SINGLE_RING_MAX` PMs and upper
    rings at most 3 children (5 for a double-speed global ring).  This
    is the candidate set the Table 2 search simulates.
    """
    results: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int) -> None:
        depth = len(prefix)
        if depth >= max_levels:
            return
        # Close the tuple here: remaining PMs on one local ring.
        levels = depth + 1
        if remaining >= 1 and (depth == 0 or remaining >= 1):
            local_ok = (
                not enforce_design_rules
                or remaining <= SINGLE_RING_MAX[cache_line_bytes]
            )
            ok_prefix = all(
                not enforce_design_rules
                or prefix[d] <= max_children(d, levels, cache_line_bytes, global_ring_speed)
                for d in range(depth)
            )
            if local_ok and ok_prefix and (levels == 1 or remaining >= 1):
                results.append(prefix + (remaining,))
        # Or branch further.
        for fan in range(2, remaining + 1):
            if remaining % fan == 0 and remaining // fan >= 1:
                extend(prefix + (fan,), remaining // fan)

    extend((), processors)
    # Drop degenerate shapes: inner fan-out below 2, and local rings of
    # a single PM behind an IRI (pure overhead nobody would build).
    results = [
        r
        for r in results
        if all(b >= 2 for b in r[:-1]) and (r[-1] >= 2 or len(r) == 1)
    ]
    return sorted(set(results), key=lambda r: (len(r), r))


def recommended_topology(
    processors: int,
    cache_line_bytes: int,
    global_ring_speed: int = 1,
) -> tuple[int, ...]:
    """The hierarchy the paper would use for a given system size.

    Returns the paper's Table 2 entry when one exists; otherwise picks,
    among design-rule-conforming candidates, the one with the fewest
    levels and then the largest local rings (the construction the paper
    describes: fill local rings to their single-ring maximum first).
    """
    if global_ring_speed == 1:
        table = PAPER_TABLE2.get(cache_line_bytes, {})
        if processors in table:
            return table[processors]
    candidates = candidate_topologies(
        processors, cache_line_bytes, global_ring_speed=global_ring_speed
    )
    if not candidates:
        raise TopologyError(
            f"no design-rule hierarchy exists for P={processors}, "
            f"cl={cache_line_bytes}B (try a nearby processor count)"
        )
    return min(candidates, key=lambda r: (len(r), -r[-1], r))


def double_speed_max_processors(cache_line_bytes: int, levels: int = 3) -> int:
    """Largest 3-level system with a double-speed global ring (Section 6).

    Five second-level rings of three maximal local rings each: 180, 120,
    90 and 60 processors for 16/32/64/128-byte lines.
    """
    local = SINGLE_RING_MAX[cache_line_bytes]
    return reduce(lambda acc, fan: acc * fan, [MAX_RINGS_PER_DOUBLE_SPEED_RING, MAX_RINGS_PER_RING][: levels - 1], local)
