"""Single-node driver: Table 4 workload shape and scheduling trends."""

import numpy as np
import pytest

from repro.core.node import MAICCNode, table4_workload
from repro.errors import ConfigurationError
from repro.nn.workloads import ConvLayerSpec
from repro.riscv.pipeline import PipelineConfig


def reduced_table4():
    """The Table 4 workload scaled to a 5x5 ifmap for fast unit tests."""
    return ConvLayerSpec(0, "t4small", h=5, w=5, c=256, m=5, padding=0)


@pytest.fixture(scope="module")
def node_and_data():
    spec = reduced_table4()
    rng = np.random.default_rng(99)
    weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-100, 100, size=spec.m)
    ifmap = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
    return MAICCNode(spec, weights, bias), ifmap


class TestWorkload:
    def test_table4_spec(self):
        spec = table4_workload()
        assert (spec.h, spec.w, spec.c, spec.m) == (9, 9, 256, 5)
        assert spec.ofmap_hw == (7, 7)

    def test_weights_shape_validated(self):
        spec = reduced_table4()
        with pytest.raises(ConfigurationError):
            MAICCNode(spec, np.zeros((2, 2, 3, 3)))

    def test_more_than_256_channels_rejected(self):
        """One ifmap row carries 256 channels; C = 512 used to come back
        as wrong psums with no error."""
        spec = ConvLayerSpec(0, "c512", h=3, w=3, c=512, m=2, r=1, s=1, padding=0)
        with pytest.raises(ConfigurationError, match="512"):
            MAICCNode(spec, np.zeros((spec.m, spec.c, 1, 1), dtype=np.int64))

    def test_ifmap_shape_validated(self, node_and_data):
        node, _ = node_and_data
        with pytest.raises(ConfigurationError):
            node.run(np.zeros((256, 4, 4)))


class TestBitTrue(object):
    def test_accumulators_match_reference(self, node_and_data):
        node, ifmap = node_and_data
        result = node.run(ifmap)
        assert np.array_equal(result.psums, node.reference(ifmap))

    def test_cmem_busy_cycles_reported(self, node_and_data):
        node, ifmap = node_and_data
        result = node.run(ifmap)
        assert result.cmem_busy_cycles > 0
        assert result.cmem_energy_pj > 0


class TestSchedulingTrends:
    """The Table 5 relationships on the reduced workload."""

    @pytest.fixture(scope="class")
    def cycles(self, node_and_data):
        node, ifmap = node_and_data
        out = {}
        for queue in (0, 2):
            for static in (False, True):
                cfg = PipelineConfig(cmem_queue_size=queue)
                out[(queue, static)] = node.run(
                    ifmap, static=static, pipeline=cfg
                ).stats.cycles
        return out

    def test_queue_helps(self, cycles):
        assert cycles[(2, False)] <= cycles[(0, False)]

    def test_static_scheduling_helps(self, cycles):
        assert cycles[(2, True)] < cycles[(2, False)]

    def test_static_gain_substantial(self, cycles):
        gain = 1 - cycles[(2, True)] / cycles[(2, False)]
        assert gain > 0.05  # paper: ~16%

    def test_results_invariant_across_configs(self, node_and_data):
        node, ifmap = node_and_data
        ref = node.reference(ifmap)
        for queue in (0, 1, 4):
            res = node.run(ifmap, pipeline=PipelineConfig(cmem_queue_size=queue))
            assert np.array_equal(res.psums, ref)
