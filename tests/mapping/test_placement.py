"""Zig-zag placement properties (Fig. 7(c))."""

import pytest

from repro.core.perfmodel import PerformanceModel
from repro.errors import PlacementError
from repro.mapping.placement import raster_placement, zigzag_placement
from repro.mapping.segmentation import HeuristicStrategy
from repro.nn.workloads import resnet18_spec


@pytest.fixture(scope="module")
def plan():
    return HeuristicStrategy().plan(resnet18_spec(), PerformanceModel().layer_time_fn())


class TestZigZag:
    def test_chain_neighbours_are_adjacent(self, plan):
        """Consecutive cores of a node group sit one hop apart."""
        placement = zigzag_placement(plan.segments[0])
        for index in placement.dc:
            assert all(h == 1 for h in placement.chain_hops(index))

    def test_average_chain_hops_is_one(self, plan):
        placement = zigzag_placement(plan.segments[0])
        assert placement.average_chain_hops() == pytest.approx(1.0)

    def test_raster_chains_are_longer(self, plan):
        """Only zig-zag keeps every chain hop at one on a ~190-core segment."""
        segment = plan.segments[1]  # layers 7-11
        assert zigzag_placement(segment).average_chain_hops() == pytest.approx(1.0)
        assert raster_placement(segment).average_chain_hops() > 1.0

    def test_all_tiles_unique(self, plan):
        placement = zigzag_placement(plan.segments[1])
        tiles = list(placement.dc.values())
        for coords in placement.computing.values():
            tiles.extend(coords)
        assert len(tiles) == len(set(tiles))

    def test_tiles_inside_compute_region(self, plan):
        placement = zigzag_placement(plan.segments[0])
        for coords in placement.computing.values():
            for x, y in coords:
                assert 0 <= x < 15
                assert 1 <= y < 15

    def test_next_layer_dc_is_close(self, plan):
        """Zig-zag keeps the producer chain near the consumer's DC."""
        segment = plan.segments[0]
        placement = zigzag_placement(segment)
        indices = [s.index for s in segment.layers]
        for producer, consumer in zip(indices, indices[1:]):
            assert placement.cross_layer_hops(producer, consumer) < 30

    def test_oversized_segment_rejected(self, plan):
        big = plan.segments[0]
        with pytest.raises(PlacementError):
            zigzag_placement(big, width=3, height=3)
