"""NoC traffic replay of placed segments."""

import pytest

from repro.core.perfmodel import PerformanceModel
from repro.core.traffic import simulate_segment_traffic
from repro.mapping.placement import (
    random_placement,
    raster_placement,
    zigzag_placement,
)
from repro.mapping.segmentation import HeuristicStrategy
from repro.nn.workloads import resnet18_spec


@pytest.fixture(scope="module")
def segment():
    plan = HeuristicStrategy().plan(
        resnet18_spec(), PerformanceModel().layer_time_fn()
    )
    return plan.segments[2]  # layers 12-15


class TestTrafficReplay:
    def test_zigzag_minimizes_flit_hops(self, segment):
        zig = simulate_segment_traffic(segment, zigzag_placement(segment))
        rnd = simulate_segment_traffic(segment, random_placement(segment, seed=2))
        assert zig.flit_hops < rnd.flit_hops

    def test_energy_scales_with_flit_hops(self, segment):
        zig = simulate_segment_traffic(segment, zigzag_placement(segment))
        assert zig.energy_pj() == pytest.approx(zig.flit_hops * 5.4)

    def test_packet_count_placement_invariant(self, segment):
        """Placement changes distance, never the traffic volume."""
        a = simulate_segment_traffic(segment, zigzag_placement(segment))
        for other in (raster_placement(segment), random_placement(segment, seed=3)):
            assert simulate_segment_traffic(segment, other).packets == a.packets

    def test_wide_channels_double_row_traffic(self, segment):
        from repro.mapping.segmentation import Segment
        from repro.mapping.allocation import AllocationResult
        from repro.nn.workloads import ConvLayerSpec

        def one_layer_segment(c):
            spec = ConvLayerSpec(1, "t", h=7, w=7, c=c, m=10)
            alloc = AllocationResult(nodes={1: 4}, times={1: 1.0})
            return Segment(layers=[spec], allocation=alloc)

        narrow = simulate_segment_traffic(
            one_layer_segment(256), zigzag_placement(one_layer_segment(256))
        )
        wide = simulate_segment_traffic(
            one_layer_segment(512), zigzag_placement(one_layer_segment(512))
        )
        assert wide.packets == 2 * narrow.packets
