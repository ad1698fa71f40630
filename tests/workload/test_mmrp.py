"""Unit and property tests for M-MRP locality regions and target draws."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workload.mmrp import (
    RegionTargetSelector,
    expected_remote_fraction,
    mesh_region,
    ring_region,
)


class TestRingRegion:
    def test_full_locality_is_everyone(self):
        assert ring_region(3, 8, locality=1.0) == list(range(8))

    def test_window_centered_and_truncated(self):
        # ceil(0.25 * 7 / 2) = 1 PM on either side; truncated at the ends.
        assert ring_region(0, 8, locality=0.25) == [0, 1]
        assert ring_region(4, 8, locality=0.25) == [3, 4, 5]
        assert ring_region(7, 8, locality=0.25) == [6, 7]

    def test_region_size_formula(self):
        # ceil(0.5 * 11 / 2) = 3 on either side -> 7 PMs.
        region = ring_region(5, 12, locality=0.5)
        assert len(region) == 7
        assert region == [2, 3, 4, 5, 6, 7, 8]

    def test_includes_self(self):
        for processors in (2, 5, 24):
            for pm in range(processors):
                assert pm in ring_region(pm, processors, locality=0.1)

    def test_single_processor(self):
        assert ring_region(0, 1, locality=0.5) == [0]

    def test_invalid_locality(self):
        with pytest.raises(ValueError):
            ring_region(0, 8, locality=0.0)


class TestMeshRegion:
    def test_full_locality_is_everyone(self):
        assert mesh_region(0, 3, locality=1.0) == list(range(9))

    def test_closest_by_hops(self):
        # ceil(0.5 * 9) - 1 = 4 remote PMs closest to the center node 4.
        region = mesh_region(4, 3, locality=0.5)
        assert region == [1, 3, 4, 5, 7]  # the four 1-hop neighbors + self

    def test_corner_region(self):
        region = mesh_region(0, 3, locality=0.34)  # ceil(3.06)-1 = 3 remotes
        assert 0 in region
        assert len(region) == 4
        # Ties at distance 2 broken by PM index: neighbors 1,3 first (d=1),
        # then the lowest-id distance-2 node (2).
        assert region == [0, 1, 2, 3]

    def test_region_sizes_scale_with_r(self):
        sizes = [len(mesh_region(0, 4, r)) for r in (0.1, 0.3, 0.6, 1.0)]
        assert sizes == sorted(sizes)
        assert sizes[0] == math.ceil(0.1 * 16)

    def test_invalid_locality(self):
        with pytest.raises(ValueError):
            mesh_region(0, 3, locality=1.5)

    @pytest.mark.parametrize("side", range(2, 12))
    def test_whole_machine_shortcut_is_the_ranked_answer(self, side):
        """A region that spans the machine is returned without ranking
        the candidates; everywhere — at, next to and far from that edge
        — the answer is the hop-ranked one."""

        def ranked(pm_id, locality):
            processors = side * side
            remote_count = max(0, math.ceil(locality * processors) - 1)
            x0, y0 = pm_id % side, pm_id // side
            others = sorted(
                (pm for pm in range(processors) if pm != pm_id),
                key=lambda pm: (abs(pm % side - x0) + abs(pm // side - y0), pm),
            )
            return sorted([pm_id, *others[:remote_count]])

        for locality in (0.05, 0.1, 0.3, 0.5, 0.99, 1.0):
            for pm_id in range(side * side):
                assert mesh_region(pm_id, side, locality) == ranked(pm_id, locality)


class TestRegionTargetSelector:
    def test_targets_stay_in_region(self):
        selector = RegionTargetSelector.for_ring(12, locality=0.3)
        rng = random.Random(1)
        region = set(ring_region(4, 12, 0.3))
        for _ in range(500):
            assert selector(4, rng) in region

    def test_uniform_over_region(self):
        selector = RegionTargetSelector.for_mesh(3, locality=1.0)
        rng = random.Random(2)
        counts = {pm: 0 for pm in range(9)}
        draws = 9000
        for _ in range(draws):
            counts[selector(0, rng)] += 1
        for pm, count in counts.items():
            assert abs(count / draws - 1 / 9) < 0.03, (pm, count)

    def test_region_must_include_self(self):
        with pytest.raises(ValueError):
            RegionTargetSelector([[1, 2], [0, 1]])

    def test_expected_remote_fraction(self):
        # Regions of size 4 including self -> remote fraction 3/4.
        regions = [[0, 1, 2, 3]] * 4
        assert expected_remote_fraction(regions) == pytest.approx(0.75)
        assert expected_remote_fraction([]) == 0.0


class TestWeightedRemoteFraction:
    """The weight-aware generalization must preserve the uniform pins."""

    def test_uniform_weights_reduce_to_historical_formula(self):
        regions = [[0, 1, 2, 3]] * 4
        weights = [[1.0, 1.0, 1.0, 1.0]] * 4
        assert expected_remote_fraction(regions, weights) == pytest.approx(0.75)

    def test_repeated_targets_count_multiplicity(self):
        # The pool encoding: PM 0's pool lists itself 3 times out of 4.
        assert expected_remote_fraction([[0, 0, 0, 1]]) == pytest.approx(0.25)

    def test_weighted_self_draw(self):
        # PM 0 draws itself with weight 3 of 4 -> remote fraction 1/4.
        assert expected_remote_fraction([[0, 1]], [[3.0, 1.0]]) == pytest.approx(0.25)

    def test_zero_weight_targets_drop_out(self):
        assert expected_remote_fraction(
            [[0, 1, 2]], [[1.0, 1.0, 0.0]]
        ) == pytest.approx(0.5)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            expected_remote_fraction([[0, 1]], [[1.0]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            expected_remote_fraction([[0, 1]], [[1.0, -1.0]])

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            expected_remote_fraction([[0, 1]], [[0.0, 0.0]])

    @given(
        size=st.integers(2, 8),
        scale=st.floats(0.1, 100.0),
        raw=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=8),
    )
    def test_scale_invariance(self, size, scale, raw):
        """Multiplying every weight by a constant changes nothing."""
        size = min(size, len(raw))
        region = list(range(size))
        weights = raw[:size]
        base = expected_remote_fraction([region], [weights])
        scaled = expected_remote_fraction([region], [[w * scale for w in weights]])
        assert scaled == pytest.approx(base)


@given(
    processors=st.integers(2, 64),
    pm=st.integers(0, 63),
    locality=st.floats(0.01, 1.0),
)
def test_ring_region_properties(processors, pm, locality):
    pm %= processors
    region = ring_region(pm, processors, locality)
    assert pm in region
    assert len(region) == len(set(region))
    assert all(0 <= member < processors for member in region)
    assert region == list(range(region[0], region[-1] + 1))  # contiguous line
    half = math.ceil(locality * (processors - 1) / 2)
    assert len(region) <= 2 * half + 1
    # Interior PMs get the full window.
    if half <= pm <= processors - 1 - half:
        assert len(region) == 2 * half + 1


@given(
    side=st.integers(2, 8),
    pm=st.integers(0, 63),
    locality=st.floats(0.01, 1.0),
)
def test_mesh_region_properties(side, pm, locality):
    pm %= side * side
    region = mesh_region(pm, side, locality)
    assert pm in region
    assert len(region) == min(side * side, math.ceil(locality * side * side))
    # Everyone inside the region is at least as close as anyone outside.
    from repro.mesh.topology import MeshShape

    shape = MeshShape(side)
    inside = max(shape.hop_distance(pm, member) for member in region)
    outside = [
        shape.hop_distance(pm, other)
        for other in range(side * side)
        if other not in region
    ]
    if outside:
        assert inside <= min(outside) + 0  # ties broken by index may equal
