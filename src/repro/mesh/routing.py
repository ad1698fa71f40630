"""Deterministic e-cube (dimension-order XY) routing.

The paper chooses the bi-directional mesh without end-around links
precisely because "of its simple e-cube deterministic deadlock free
routing algorithm that does not require virtual channels" (Section 2).
A packet first corrects its X offset (East/West), then its Y offset
(North/South), then ejects at the local port.  Because all X hops
complete before any Y hop, the channel dependency graph is acyclic and
the algorithm is deadlock-free.
"""

from __future__ import annotations

from functools import lru_cache

from .topology import MeshShape

#: The local (ejection/injection) pseudo-direction.
LOCAL = "L"

#: Router port order.  Arbitration scans inputs and walks outputs in
#: this order, and the next-hop rows below name an output by its
#: position in it.
PORT_ORDER = ("N", "E", "S", "W", LOCAL)


def ecube_next_direction(shape: MeshShape, current: int, destination: int) -> str:
    """Output direction at *current* for a packet heading to *destination*."""
    cx, cy = shape.coordinates(current)
    dx, dy = shape.coordinates(destination)
    if cx < dx:
        return "E"
    if cx > dx:
        return "W"
    if cy < dy:
        return "S"
    if cy > dy:
        return "N"
    return LOCAL


@lru_cache(maxsize=None)
def ecube_next_hop_rows(shape: MeshShape) -> tuple[bytes, ...]:
    """The whole e-cube relation as a table: ``rows[node][destination]``
    is the output port, as an index into :data:`PORT_ORDER`.

    Tabulated from :func:`ecube_next_direction` once per shape and
    process; every router of every network (replica, sweep point) of
    that shape indexes the same rows, one byte per entry.
    """
    nodes = range(shape.processors)
    return tuple(
        bytes(
            PORT_ORDER.index(ecube_next_direction(shape, node, destination))
            for destination in nodes
        )
        for node in nodes
    )


def ecube_path(shape: MeshShape, source: int, destination: int) -> list[int]:
    """Node sequence (inclusive) visited by the e-cube route."""
    path = [source]
    current = source
    while current != destination:
        direction = ecube_next_direction(shape, current, destination)
        current = shape.neighbors(current)[direction]
        path.append(current)
    return path
