"""Functional node-group execution == quantized reference, exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.functional import (
    FunctionalNodeGroup,
    GroupRunStats,
    bit_true_min_nodes,
    simulate_quantized_graph,
)
from repro.errors import ConfigurationError
from repro.mapping.capacity import CapacityModel
from repro.nn.models import build_residual_cnn, build_small_cnn
from repro.nn.quantize import quantize_graph
from repro.nn.workloads import ConvLayerSpec


def group_setup(spec, num_nodes, seed=0, **kw):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=(spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-200, 200, size=spec.m)
    q_in = rng.integers(-128, 128, size=(spec.c, spec.h, spec.w))
    group = FunctionalNodeGroup(spec, weights, bias, num_nodes, **kw)
    from repro.core.node import reference_accumulators

    return group, q_in, reference_accumulators(spec, weights, bias, q_in)


class TestFastMode:
    def test_single_node(self):
        spec = ConvLayerSpec(0, "t", h=6, w=6, c=32, m=4, padding=1)
        group, q_in, ref = group_setup(spec, 1)
        assert np.array_equal(group.run(q_in), ref)

    def test_filters_split_across_nodes(self):
        spec = ConvLayerSpec(0, "t", h=6, w=6, c=64, m=10, padding=1)
        group, q_in, ref = group_setup(spec, 4)
        assert np.array_equal(group.run(q_in), ref)

    def test_wide_channels_subvectors(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=512, m=3, padding=0)
        group, q_in, ref = group_setup(spec, 2)
        assert np.array_equal(group.run(q_in), ref)

    def test_strided(self):
        spec = ConvLayerSpec(0, "t", h=8, w=8, c=32, m=4, stride=2, padding=1)
        group, q_in, ref = group_setup(spec, 2)
        assert np.array_equal(group.run(q_in), ref)

    def test_mac_count_matches_model(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=256, m=2, padding=0)
        group, q_in, _ = group_setup(spec, 1)
        group.run(q_in)
        # 2x2 ofmap * 9 taps * 2 filters MACs.
        assert group.stats.macs == 4 * 9 * 2

    def test_shape_validated(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=32, m=2, padding=0)
        group, _, _ = group_setup(spec, 1)
        with pytest.raises(ConfigurationError):
            group.run(np.zeros((32, 5, 5)))


def per_pixel_oracle(group, q_in):
    """Fast mode as a per-pixel x node x tap x sub-vector loop (test oracle).

    Streams one ifmap vector at a time and issues every MAC.C the
    dataflow would, in hardware order, so its accumulators and operation
    counts are the ground truth for the vectorized fast path.  Returns
    ``(acc, stats, node_macs)`` and leaves ``group`` untouched.  Small
    shapes only.
    """
    spec = group.spec
    oh, ow = spec.ofmap_hw
    cols = group.capacity.cols
    sub_vectors = max(1, math.ceil(spec.c / cols))
    stats = GroupRunStats()
    node_macs = [0] * group.num_computing
    acc = np.zeros((spec.m, oh, ow), dtype=np.int64)
    acc += group.bias[:, None, None]
    padded_c = sub_vectors * cols
    padded = np.zeros((padded_c, spec.h, spec.w), dtype=np.int64)
    padded[: spec.c] = q_in
    for y in range(spec.h):
        for x in range(spec.w):
            stats.vectors_streamed += 1
            vector = padded[:, y, x]
            for k, (start, count) in enumerate(group.ranges):
                if count == 0:
                    continue
                stats.row_transfers += spec.n_bits * sub_vectors
                for fr in range(spec.r):
                    oy_num = y + spec.padding - fr
                    if oy_num % spec.stride:
                        continue
                    oy = oy_num // spec.stride
                    if not 0 <= oy < oh:
                        continue
                    for fs in range(spec.s):
                        ox_num = x + spec.padding - fs
                        if ox_num % spec.stride:
                            continue
                        ox = ox_num // spec.stride
                        if not 0 <= ox < ow:
                            continue
                        w_slab = np.zeros((count, padded_c), dtype=np.int64)
                        w_slab[:, : spec.c] = group.weights[
                            start : start + count, :, fr, fs
                        ]
                        for sub in range(sub_vectors):
                            lo, hi = sub * cols, (sub + 1) * cols
                            psums = w_slab[:, lo:hi] @ vector[lo:hi]
                            stats.macs += count
                            node_macs[k] += count
                            acc[start : start + count, oy, ox] += psums
    return acc, stats, node_macs


@st.composite
def fast_mode_cases(draw):
    """Small conv shapes spanning strides, paddings, kernels, sub-vectors,
    and more nodes than filters (so some nodes hold none)."""
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    c = draw(st.sampled_from([1, 17, 256, 300, 513]))
    m = draw(st.integers(1, 5))
    h = draw(st.integers(max(1, r - 2 * padding), 6))
    w = draw(st.integers(max(1, s - 2 * padding), 6))
    nodes = draw(st.integers(1, m + 3))
    n_bits = draw(st.sampled_from([4, 8]))
    spec = ConvLayerSpec(
        0, "prop", h=h, w=w, c=c, m=m, r=r, s=s,
        stride=stride, padding=padding, n_bits=n_bits,
    )
    return spec, nodes, draw(st.integers(0, 2**16))


class TestFastModeMatchesPerPixelOracle:
    @settings(max_examples=60, deadline=None)
    @given(fast_mode_cases())
    def test_acc_stats_and_node_macs_identical(self, case):
        spec, nodes, seed = case
        group, q_in, ref = group_setup(spec, nodes, seed=seed)
        want_acc, want_stats, want_node_macs = per_pixel_oracle(group, q_in)
        acc = group.run(q_in)
        assert acc.dtype == np.int64
        assert np.array_equal(acc, want_acc)
        assert np.array_equal(acc, ref)
        assert group.stats == want_stats
        assert group._node_macs == want_node_macs
        # Tallies are cumulative across runs, exactly like the loop's.
        group.run(q_in)
        assert group.stats.macs == 2 * want_stats.macs
        assert group._node_macs == [2 * n for n in want_node_macs]

    def test_some_nodes_hold_no_filters(self):
        spec = ConvLayerSpec(0, "t", h=5, w=5, c=300, m=3, stride=2, padding=2)
        group, q_in, _ = group_setup(spec, 7)
        assert [count for _, count in group.ranges].count(0) == 4
        want_acc, want_stats, want_node_macs = per_pixel_oracle(group, q_in)
        assert np.array_equal(group.run(q_in), want_acc)
        assert group.stats == want_stats
        assert group._node_macs == want_node_macs
        assert want_node_macs[3:] == [0, 0, 0, 0]

    def test_telemetry_publishes_the_oracle_counters(self):
        spec = ConvLayerSpec(0, "tele", h=6, w=5, c=513, m=5, stride=2)
        sink = telemetry.Telemetry()
        group, q_in, _ = group_setup(spec, 7, telemetry=sink)
        _, want_stats, want_node_macs = per_pixel_oracle(group, q_in)
        group.run(q_in)
        counters = {p: c.value for p, c in sink.registry.counters.items()}
        prefix = f"group/{spec.name}"
        assert {
            p: v for p, v in counters.items() if p.startswith(prefix + "/")
        } == {
            f"{prefix}/vectors_streamed": want_stats.vectors_streamed,
            f"{prefix}/row_transfers": want_stats.row_transfers,
            f"{prefix}/macs": want_stats.macs,
            f"{prefix}/cmem_energy_pj": 0.0,
        }
        spans = {
            e.track: e for e in sink.trace.events
            if e.track.startswith(("core/", "layer/"))
        }
        busy = {k: n for k, n in enumerate(want_node_macs) if n}
        assert {t for t in spans if t.startswith("core/")} == {
            f"core/{k}" for k in busy
        }
        for k, n in busy.items():
            assert spans[f"core/{k}"].dur == n
            assert spans[f"core/{k}"].args == {"macs": n}
        layer = spans[f"layer/{spec.name}"]
        assert layer.dur == max(busy.values())
        assert layer.args["macs"] == want_stats.macs
        assert layer.args["vectors"] == want_stats.vectors_streamed
        assert layer.args["row_transfers"] == want_stats.row_transfers


class TestBitTrueMode:
    def test_matches_fast_mode(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=32, m=2, padding=1)
        fast, q_in, ref = group_setup(spec, 1)
        nodes = bit_true_min_nodes(spec, CapacityModel())
        true, _, _ = group_setup(spec, nodes, bit_true=True)
        assert np.array_equal(true.run(q_in), ref)

    def test_wide_channels_rejected(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=512, m=2, padding=0)
        with pytest.raises(ConfigurationError):
            group_setup(spec, 4, bit_true=True)

    def test_energy_accounted(self):
        spec = ConvLayerSpec(0, "t", h=4, w=4, c=32, m=2, padding=0)
        group, q_in, _ = group_setup(spec, 1, bit_true=True)
        group.run(q_in)
        assert group.stats.cmem_energy_pj > 0
        assert group.stats.row_transfers > 0


class TestWholeNetworks:
    def test_small_cnn_fast_equals_reference(self):
        g = build_small_cnn()
        x = np.random.default_rng(11).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    def test_residual_cnn_fast_equals_reference(self):
        g = build_residual_cnn()
        x = np.random.default_rng(12).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    def test_explicit_node_counts_respected(self):
        g = build_small_cnn()
        x = np.random.default_rng(13).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x, nodes_per_layer={"conv1": 3})
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    @pytest.mark.slow
    def test_small_cnn_bit_true_equals_reference(self):
        g = build_small_cnn(input_shape=(8, 6, 6))
        x = np.random.default_rng(14).normal(size=(8, 6, 6))
        qg = quantize_graph(g, [x])
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x, bit_true=True)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name


class TestOtherPrecisions:
    def test_int4_network_functional_equality(self):
        """The whole stack also holds at 4-bit quantization."""
        g = build_small_cnn()
        x = np.random.default_rng(40).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x], n_bits=4)
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name

    def test_int16_network_functional_equality(self):
        g = build_small_cnn()
        x = np.random.default_rng(41).normal(size=(8, 8, 8))
        qg = quantize_graph(g, [x], n_bits=16)
        ref = qg.forward(x)
        sim = simulate_quantized_graph(qg, x)
        for name in ref:
            assert np.array_equal(ref[name], sim[name]), name
