"""Unit and property tests for e-cube (dimension-order) routing."""

from hypothesis import given
from hypothesis import strategies as st

import pytest

from repro.checkers.specs import mesh_legal_outputs
from repro.core.columnar import ColumnarEngine
from repro.core.config import MeshSystemConfig, SimulationParams, WorkloadConfig
from repro.mesh.router import _RR_PICK, INPUT_ORDER, OUTPUT_ORDER
from repro.mesh.routing import (
    LOCAL,
    ecube_next_direction,
    ecube_next_hop_rows,
    ecube_path,
)
from repro.mesh.topology import MeshShape


class TestNextDirection:
    def test_x_corrected_first(self):
        shape = MeshShape(4)
        # From (0,0) to (2,2): must head East until x matches.
        assert ecube_next_direction(shape, 0, 10) == "E"
        # From (2,0) to (2,2): x matches, head South.
        assert ecube_next_direction(shape, 2, 10) == "S"

    def test_west_and_north(self):
        shape = MeshShape(4)
        assert ecube_next_direction(shape, 10, 8) == "W"
        assert ecube_next_direction(shape, 8, 0) == "N"

    def test_arrival_is_local(self):
        shape = MeshShape(4)
        assert ecube_next_direction(shape, 7, 7) == LOCAL


class TestNextHopRows:
    """The table the compiled mesh propose closure indexes."""

    @pytest.mark.parametrize("side", range(1, 7))
    def test_rows_match_the_function_and_the_certified_spec(self, side):
        shape = MeshShape(side)
        rows = ecube_next_hop_rows(shape)
        legal = mesh_legal_outputs(shape)
        assert len(rows) == shape.processors
        for node in range(shape.processors):
            assert len(rows[node]) == shape.processors
            for dest in range(shape.processors):
                direction = OUTPUT_ORDER[rows[node][dest]]
                assert direction == ecube_next_direction(shape, node, dest)
                assert legal[(node, dest)] == {direction}

    def test_rows_are_shared_per_shape(self):
        assert ecube_next_hop_rows(MeshShape(4)) is ecube_next_hop_rows(MeshShape(4))

    @pytest.mark.parametrize("side", range(1, 7))
    def test_columnar_route_table_is_the_rows(self, side):
        """The columnar tier reads the same tabulation, widened to int64."""
        engine = ColumnarEngine(
            MeshSystemConfig(side=side, cache_line_bytes=32, buffer_flits=4),
            WorkloadConfig(miss_rate=0.02),
            SimulationParams(scheduler="columnar"),
            seeds=(1,),
        )
        rows = ecube_next_hop_rows(MeshShape(side))
        assert engine._route_flat.typecode == "q"  # int64
        assert engine._route_flat.tolist() == [hop for row in rows for hop in row]


def test_rr_pick_matches_a_modular_scan():
    """``_RR_PICK[start][mask]``: first requester at or after the pointer."""
    ports = len(INPUT_ORDER)
    assert len(_RR_PICK) == ports
    for start in range(ports):
        assert len(_RR_PICK[start]) == 1 << ports
        for mask in range(1 << ports):
            expected = -1
            for offset in range(ports):
                candidate = (start + offset) % ports
                if mask & (1 << candidate):
                    expected = candidate
                    break
            assert _RR_PICK[start][mask] == expected


class TestPath:
    def test_path_is_x_then_y(self):
        shape = MeshShape(4)
        path = ecube_path(shape, 0, 10)  # (0,0) -> (2,2)
        assert path == [0, 1, 2, 6, 10]

    def test_path_length_is_manhattan(self):
        shape = MeshShape(5)
        for src in range(25):
            for dst in range(25):
                path = ecube_path(shape, src, dst)
                assert len(path) - 1 == shape.hop_distance(src, dst)


@given(side=st.integers(2, 7), src=st.integers(0, 48), dst=st.integers(0, 48))
def test_each_hop_reduces_distance(side, src, dst):
    shape = MeshShape(side)
    src %= shape.processors
    dst %= shape.processors
    current = src
    steps = 0
    while current != dst:
        direction = ecube_next_direction(shape, current, dst)
        nxt = shape.neighbors(current)[direction]
        assert shape.hop_distance(nxt, dst) == shape.hop_distance(current, dst) - 1
        current = nxt
        steps += 1
        assert steps <= 2 * side  # no cycles


@given(side=st.integers(2, 6), src=st.integers(0, 35), dst=st.integers(0, 35))
def test_deadlock_freedom_ordering(side, src, dst):
    """Dimension order: no E/W hop may follow an N/S hop.

    This ordering is what makes the channel dependency graph acyclic and
    e-cube deadlock-free on a mesh without end-around links.
    """
    shape = MeshShape(side)
    src %= shape.processors
    dst %= shape.processors
    path = ecube_path(shape, src, dst)
    directions = []
    for here, there in zip(path, path[1:]):
        for direction, neighbor in shape.neighbors(here).items():
            if neighbor == there:
                directions.append(direction)
    saw_y = False
    for direction in directions:
        if direction in ("N", "S"):
            saw_y = True
        elif saw_y:
            raise AssertionError(f"X hop after Y hop in {directions}")
