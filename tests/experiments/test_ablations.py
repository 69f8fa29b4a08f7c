"""The ablation experiment drivers (CLI-facing) and the claims they carry."""

import dataclasses

import numpy as np
import pytest

from repro.cmem.cmem import CMem
from repro.core.node import table4_workload
from repro.errors import CapacityError
from repro.experiments import ablations
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import resnet18_spec
from repro.sram.array import SRAMArray, SRAMArrayConfig
from repro.sram.bitserial import BitSerialALU
from repro.utils.bitops import int_to_bits


class TestSliceAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_slices()

    def test_latency_improves_with_slices(self, result):
        latencies = [
            row["latency_ms"] for row in result.rows
            if isinstance(row["latency_ms"], float)
        ]
        assert latencies == sorted(latencies, reverse=True)

    def test_capacity_grows_with_slices(self, result):
        fpn = result.column("filters_per_node")
        assert fpn == sorted(fpn)

    def test_seven_slices_is_the_feasibility_floor(self):
        """Below seven compute slices conv4_2 (512 filters of 3x3x512) no
        longer fits 208 cores even with split filters: the paper's 8-slice
        CMem is the smallest geometry that maps ResNet18 single-pass."""
        spec = resnet18_spec().layer(17)
        assert CapacityModel(compute_slices=7).min_nodes(spec, max_nodes=207) <= 207
        with pytest.raises(CapacityError):
            CapacityModel(compute_slices=5).min_nodes(spec, max_nodes=207)

    def test_fewer_slices_reduce_capacity(self):
        spec = table4_workload()
        assert (
            CapacityModel(compute_slices=4).filters_per_node(spec)
            < CapacityModel(compute_slices=7).filters_per_node(spec)
        )

    def test_fewer_slices_need_more_nodes(self):
        spec = resnet18_spec().layer(12)  # conv3_2
        assert (
            CapacityModel(compute_slices=3).min_nodes(spec)
            > CapacityModel(compute_slices=7).min_nodes(spec)
        )


class TestPrecisionAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_precision()

    def test_mac_cycles_quadratic(self, result):
        """Measured busy cycles of a bit-true MAC are n^2."""
        assert result.column("mac_cycles") == [4, 16, 64, 256]

    def test_lower_precision_faster(self, result):
        rows = {row["n_bits"]: row for row in result.rows}
        latency = {n: rows[n]["resnet_latency_ms"] for n in (2, 4, 8)}
        assert latency[2] < latency[4] < latency[8]

    def test_capacity_formula(self, result):
        rows = {row["n_bits"]: row for row in result.rows}
        for n in (2, 4, 8, 16):
            assert rows[n]["slots_per_slice"] == 64 // n - 1

    def test_16bit_exceeds_array_capacity(self):
        """At int16 (3 slots per slice) conv4_1's split-filter minimum
        exceeds the 208 cores: the paper's design point assumes int8."""
        spec = dataclasses.replace(resnet18_spec().layer(16), n_bits=16)
        with pytest.raises(CapacityError):
            CapacityModel().min_nodes(spec, max_nodes=207)


def _element_wise_dot(a, b):
    """Dot product via Neural Cache primitives on a 256x256 array:
    bit-serial multiply into product rows, then a log-step reduction."""
    alu = BitSerialALU(SRAMArray(SRAMArrayConfig(rows=256, cols=256)))
    for base, values in ((0, a), (8, b)):
        bits = int_to_bits(values, 8, signed=False)
        for i in range(8):
            alu.array.write_row(base + i, bits[i])
    alu.vector_multiply(list(range(0, 8)), list(range(8, 16)), list(range(16, 32)))
    rows = alu.reduce(list(range(16, 32)), 256, scratch_rows=list(range(32, 80)))
    total = sum(int(alu.array.read_row(r)[0]) << i for i, r in enumerate(rows))
    return total, alu.cycles


class TestPrimitiveAblation:
    def test_mac_primitive_wins(self):
        result = ablations.run_primitives()
        rows = {row["approach"]: row for row in result.rows}
        ew = rows["element-wise (Neural Cache)"]["cycles_per_dot_product"]
        mac = rows["adder-tree MAC (MAICC)"]["cycles_per_dot_product"]
        assert ew / mac > 2.0

    def test_same_answer_both_primitives(self):
        """Both primitives compute the same dot product bit-true; the
        adder-tree MAC needs well under half the element-wise cycles."""
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, 256)
        b = rng.integers(0, 256, 256)
        ew_value, ew_cycles = _element_wise_dot(a, b)

        cmem = CMem()
        cmem.store_vector_transposed(1, 0, a, 8, signed=False)
        cmem.store_vector_transposed(1, 8, b, 8, signed=False)
        assert cmem.mac(1, 0, 8, 8, signed=False) == int(np.dot(a, b))
        assert ew_value == int(np.dot(a, b))
        assert ew_cycles / cmem.stats.busy_cycles > 2.0


class TestPlacementAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row["policy"]: row for row in ablations.run_placement().rows}

    def test_zigzag_minimal(self, rows):
        assert rows["zig-zag"]["flit_hops"] < rows["raster"]["flit_hops"]
        assert rows["raster"]["flit_hops"] < rows["random"]["flit_hops"]

    def test_zigzag_completes_the_wave_first(self, rows):
        zigzag = rows["zig-zag"]["completion_cycles"]
        assert zigzag <= rows["raster"]["completion_cycles"]
        assert zigzag < rows["random"]["completion_cycles"]


class TestBatchAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row["batch"]: row for row in ablations.run_batch().rows}

    def test_throughput_monotone(self, rows):
        throughputs = [row["samples_per_s"] for row in rows.values()]
        assert throughputs == sorted(throughputs)

    def test_throughput_rises_then_saturates(self, rows):
        thr = {b: row["samples_per_s"] for b, row in rows.items()}
        assert thr[1] < thr[2] < thr[8] <= thr[32] * 1.001
        gain_1_to_8 = thr[8] / thr[1]
        assert gain_1_to_8 > 1.02
        assert thr[32] / thr[8] < gain_1_to_8
        # Batch 1 is already near steady state: one-time overheads are a
        # modest fraction (the paper's pipelining works at batch 1 too).
        assert thr[32] / thr[1] < 1.3

    def test_efficiency_improves_with_batch(self, rows):
        assert rows[32]["samples_per_s_per_w"] > rows[1]["samples_per_s_per_w"]

    def test_total_latency_scales_with_batch(self, rows):
        one, four = rows[1]["total_ms"], rows[4]["total_ms"]
        assert 3 * one < four < 4.2 * one


def test_cli_includes_ablations():
    from repro.experiments.runner import PAPER_EXPERIMENTS, REGISTRY

    assert set(PAPER_EXPERIMENTS) < set(REGISTRY)
    assert "ablation-placement" in REGISTRY
