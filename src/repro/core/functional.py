"""Functional multi-node execution of layers and whole networks.

Two fidelity levels, selected per layer:

* **bit-true** — every computing core owns a real :class:`~repro.cmem.cmem.CMem`;
  the DC transposes each ifmap vector through slice 0, rows are forwarded
  core-to-core exactly as LoadRow.RC/StoreRow.RC would, and every MAC is a
  real bit-line computation.  Tractable for small layers; used by the
  end-to-end correctness tests.
* **fast** — the same filter splitting and 256-lane sub-vector handling,
  but the accumulators come from one NumPy ``tensordot`` per filter tap
  over all filters, and the operation counts (vectors streamed, row
  transfers, per-node MACs) are computed in closed form.  Integer
  accumulation is exact in any order, so the result is identical.  Used
  for ResNet18-scale functional runs.

Either way the result must equal the quantized reference engine exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cmem.cmem import CMem, CMemStats
from repro.core.datalayout import (
    load_filters_into_cmem,
    plan_node_layout,
    split_filters_across_nodes,
)
from repro.errors import ConfigurationError
from repro.mapping.capacity import CapacityModel
from repro.nn.quantize import QConv2d, QLinear, QuantizedGraph, QInput, _requant
from repro.nn.workloads import ConvLayerSpec
from repro.telemetry import TelemetrySink, current as _current_telemetry
from repro.telemetry.hooks import publish_cmem_stats, publish_group_stats


@dataclass
class GroupRunStats:
    """Operation counts of one layer's node-group execution."""

    vectors_streamed: int = 0
    row_transfers: int = 0
    macs: int = 0
    cmem_energy_pj: float = 0.0


def bit_true_min_nodes(spec: ConvLayerSpec, capacity: CapacityModel) -> int:
    """Minimum computing cores for the unpacked (bit-true) layout.

    Whole filters per node (no lane packing, no filter splitting), so each
    node's slot demand is guaranteed to fit its CMem.
    """
    sub_vectors = max(1, math.ceil(spec.c / capacity.cols))
    slots_per_filter = spec.r * spec.s * sub_vectors
    fpn = capacity.total_vector_slots(spec.n_bits) // slots_per_filter
    if fpn < 1:
        raise ConfigurationError(
            f"{spec.name}: one filter does not fit a node without packing"
        )
    return max(1, math.ceil(spec.m / fpn))


def _spec_of_qconv(name: str, layer: QConv2d, in_shape) -> ConvLayerSpec:
    m, c, r, s = layer.weight_q.shape
    return ConvLayerSpec(
        index=0, name=name, h=in_shape[1], w=in_shape[2], c=c, m=m,
        r=r, s=s, stride=layer.stride, padding=layer.padding,
        n_bits=layer.n_bits,
    )


def _tap_span(
    offset: int, spec: ConvLayerSpec, size: int, out: int
) -> Tuple[int, int, slice]:
    """Ofmap range ``[lo, hi)`` one filter-tap offset reaches along an axis.

    Returns ``(lo, hi, window)`` where ``window`` slices the ifmap inputs
    that tap multiplies, one per ofmap position in ``[lo, hi)``: ofmap
    ``o`` reads input ``o * stride - padding + offset``, valid when it
    lies inside ``[0, size)``.
    """
    stride, pad = spec.stride, spec.padding
    lo = max(0, -((offset - pad) // stride))
    hi = min(out, (size - 1 + pad - offset) // stride + 1)
    first = lo * stride - pad + offset
    return lo, hi, slice(first, first + (hi - lo - 1) * stride + 1, stride)


class FunctionalNodeGroup:
    """One layer on a DC + chain of computing cores."""

    def __init__(
        self,
        spec: ConvLayerSpec,
        weights: np.ndarray,
        bias: np.ndarray,
        num_computing: int,
        *,
        bit_true: bool = False,
        capacity: Optional[CapacityModel] = None,
        fast_path: bool = True,
        telemetry: Optional[TelemetrySink] = None,
    ) -> None:
        self.spec = spec
        self.weights = np.asarray(weights, dtype=np.int64)
        self.bias = np.asarray(bias, dtype=np.int64)
        self.num_computing = num_computing
        self.bit_true = bit_true
        self.fast_path = fast_path
        self.capacity = capacity or CapacityModel()
        self.stats = GroupRunStats()
        self.telemetry = telemetry if telemetry is not None else _current_telemetry()
        # Per-node MAC tally (both paths), for per-core telemetry tracks.
        self._node_macs: List[int] = [0] * num_computing
        self.ranges = split_filters_across_nodes(spec.m, num_computing)
        if bit_true:
            if spec.c > self.capacity.cols:
                raise ConfigurationError(
                    "bit-true groups support C <= 256; use fast mode above"
                )
            self._nodes = []
            for k, (start, count) in enumerate(self.ranges):
                if count == 0:
                    self._nodes.append(None)
                    continue
                node_spec = ConvLayerSpec(
                    index=spec.index, name=spec.name, h=spec.h, w=spec.w,
                    c=spec.c, m=count, r=spec.r, s=spec.s,
                    stride=spec.stride, padding=spec.padding, n_bits=spec.n_bits,
                )
                layout = plan_node_layout(node_spec, count, self.capacity)
                cmem = CMem(
                    fast_path=fast_path,
                    telemetry=self.telemetry,
                    track=f"core/{k}/cmem",
                )
                load_filters_into_cmem(
                    cmem, layout, self.weights[start : start + count]
                )
                for s_idx in layout.slices_used:
                    cmem.slice(s_idx).csr_mask = layout.csr_mask
                self._nodes.append((node_spec, layout, cmem))

    # -- bit-true path ------------------------------------------------------------

    def _run_bit_true(self, q_in: np.ndarray) -> np.ndarray:
        spec = self.spec
        n = spec.n_bits
        oh, ow = spec.ofmap_hw
        acc = np.zeros((spec.m, oh, ow), dtype=np.int64)
        acc += self.bias[:, None, None]
        # DC CMem: slice 0 transposes.
        dc_buffer = CMem(fast_path=self.fast_path, telemetry=self.telemetry, track="dc/slice0")
        for y in range(spec.h):
            for x in range(spec.w):
                vector = q_in[:, y, x]
                # DC: vertical byte writes into slice 0, then row reads.
                dc_buffer.slice0.store_vector(0, [int(v) & 0xFF for v in vector], n)
                rows = [dc_buffer.slice0.read_row(r) for r in range(n)]
                self.stats.vectors_streamed += 1
                for k, (node, (start, count)) in enumerate(
                    zip(self._nodes, self.ranges)
                ):
                    if node is None:
                        continue
                    node_spec, layout, cmem = node
                    # LoadRow.RC x N: the vector lands in slice 0.
                    for r, row_bits in enumerate(rows):
                        cmem.write_row(0, r, row_bits)
                        self.stats.row_transfers += 1
                    # Broadcast and MAC (Algorithm 1).  Entries that fire at
                    # this pixel are grouped per slice so the whole slice's
                    # filters go through one batched ``mac_many`` — the
                    # cycle/energy charges are per weight row either way.
                    for s_idx in layout.slices_used:
                        cmem.move(0, 0, s_idx, 0, n)
                    by_slice: Dict[int, list] = {}
                    for entry in layout.entries:
                        oy_num = y + spec.padding - entry.fr
                        ox_num = x + spec.padding - entry.fs
                        if oy_num % spec.stride or ox_num % spec.stride:
                            continue
                        oy, ox = oy_num // spec.stride, ox_num // spec.stride
                        if not (0 <= oy < oh and 0 <= ox < ow):
                            continue
                        by_slice.setdefault(entry.slice_index, []).append(
                            (entry, oy, ox)
                        )
                    for s_idx, fired in by_slice.items():
                        psums = cmem.mac_many(
                            s_idx, 0, [e.row for e, _, _ in fired], n, signed=True
                        )
                        self.stats.macs += len(fired)
                        self._node_macs[k] += len(fired)
                        for (entry, oy, ox), psum in zip(fired, psums):
                            acc[start + entry.filter_index, oy, ox] += int(psum)
        for node in self._nodes:
            if node is not None:
                self.stats.cmem_energy_pj += node[2].energy.total_pj
        return acc

    # -- fast path -------------------------------------------------------------------

    def _run_fast(self, q_in: np.ndarray) -> np.ndarray:
        spec = self.spec
        oh, ow = spec.ofmap_hw
        sub_vectors = max(1, math.ceil(spec.c / self.capacity.cols))
        acc = np.zeros((spec.m, oh, ow), dtype=np.int64)
        acc += self.bias[:, None, None]
        row_spans = [_tap_span(fr, spec, spec.h, oh) for fr in range(spec.r)]
        col_spans = [_tap_span(fs, spec, spec.w, ow) for fs in range(spec.s)]
        # One tensordot per filter tap over every filter at once: tap
        # (fr, fs) of all M filters against the strided ifmap window it
        # meets.  Integer accumulation is exact, so the result equals the
        # per-vector, per-node, per-sub-vector order the hardware issues.
        pairs = 0  # sum over taps of the ofmap pixels each tap reaches
        for fr, (oy0, oy1, rows) in enumerate(row_spans):
            for fs, (ox0, ox1, cols) in enumerate(col_spans):
                if oy1 <= oy0 or ox1 <= ox0:
                    continue
                acc[:, oy0:oy1, ox0:ox1] += np.tensordot(
                    self.weights[:, :, fr, fs], q_in[:, rows, cols], axes=1
                )
                pairs += (oy1 - oy0) * (ox1 - ox0)
        # Operation counts of that dataflow in closed form: every ifmap
        # vector is streamed once and forwarded to each node holding
        # filters (n_bits rows per 256-lane sub-vector); each held filter
        # issues one MAC.C per sub-vector per (tap, ofmap pixel) pair.
        pixels = spec.h * spec.w
        active = sum(1 for _, count in self.ranges if count)
        self.stats.vectors_streamed += pixels
        self.stats.row_transfers += pixels * active * spec.n_bits * sub_vectors
        for k, (_, count) in enumerate(self.ranges):
            self._node_macs[k] += count * sub_vectors * pairs
        self.stats.macs += spec.m * sub_vectors * pairs
        return acc

    def run(self, q_in: np.ndarray) -> np.ndarray:
        """Stream the quantized ifmap through the group; returns int64 acc."""
        q_in = np.asarray(q_in, dtype=np.int64)
        if q_in.shape != (self.spec.c, self.spec.h, self.spec.w):
            raise ConfigurationError(
                f"ifmap shape {q_in.shape} != "
                f"({self.spec.c}, {self.spec.h}, {self.spec.w})"
            )
        telemetry = self.telemetry
        if not telemetry.enabled:
            if self.bit_true:
                return self._run_bit_true(q_in)
            return self._run_fast(q_in)
        # Snapshot cumulative tallies so only *this* run is published.
        group_before = replace(self.stats)
        node_macs_before = list(self._node_macs)
        cmem_before = [
            replace(node[2].stats) if node is not None else None
            for node in (self._nodes if self.bit_true else [])
        ]
        acc = self._run_bit_true(q_in) if self.bit_true else self._run_fast(q_in)
        self._publish_run(group_before, node_macs_before, cmem_before)
        return acc

    def _publish_run(
        self,
        group_before: GroupRunStats,
        node_macs_before: List[int],
        cmem_before: List[Optional[CMemStats]],
    ) -> None:
        """Publish this run's deltas: registry counters + layer/core spans.

        The trace clock is simulation-derived and deterministic: CMem busy
        cycles in bit-true mode, MAC counts (one logical tick per MAC.C
        the hardware would issue) in fast mode.  Spans start at each
        track's cursor so consecutive layers stack sequentially.
        """
        telemetry = self.telemetry
        assert telemetry.registry is not None and telemetry.trace is not None
        trace = telemetry.trace
        spec = self.spec
        stats = self.stats
        delta = GroupRunStats(
            vectors_streamed=stats.vectors_streamed - group_before.vectors_streamed,
            row_transfers=stats.row_transfers - group_before.row_transfers,
            macs=stats.macs - group_before.macs,
            cmem_energy_pj=stats.cmem_energy_pj - group_before.cmem_energy_pj,
        )
        publish_group_stats(telemetry, f"group/{spec.name}", delta)
        durations: List[int] = []
        for k in range(self.num_computing):
            if self.bit_true:
                node = self._nodes[k]
                if node is None:
                    continue
                before = cmem_before[k]
                assert before is not None
                after = node[2].stats
                dur = after.busy_cycles - before.busy_cycles
                cmem_delta = CMemStats(
                    macs=after.macs - before.macs,
                    moves=after.moves - before.moves,
                    set_rows=after.set_rows - before.set_rows,
                    shift_rows=after.shift_rows - before.shift_rows,
                    remote_rows=after.remote_rows - before.remote_rows,
                    vertical_writes=after.vertical_writes - before.vertical_writes,
                    busy_cycles=dur,
                )
                publish_cmem_stats(telemetry, f"core/{k}/cmem", cmem_delta)
            else:
                dur = self._node_macs[k] - node_macs_before[k]
                if dur == 0:
                    continue
            durations.append(dur)
            track = f"core/{k}"
            trace.complete(
                track, spec.name, trace.cursor(track), dur,
                args={"macs": self._node_macs[k] - node_macs_before[k]},
            )
        layer_track = f"layer/{spec.name}"
        trace.complete(
            layer_track,
            spec.name,
            trace.cursor(layer_track),
            max(durations, default=0),
            args={
                "vectors": delta.vectors_streamed,
                "row_transfers": delta.row_transfers,
                "macs": delta.macs,
                "nodes": self.num_computing,
                "clock": "cmem_busy_cycles" if self.bit_true else "macs",
            },
        )


def simulate_quantized_graph(
    qgraph: QuantizedGraph,
    x: np.ndarray,
    *,
    nodes_per_layer: Optional[Dict[str, int]] = None,
    bit_true: bool = False,
    capacity: Optional[CapacityModel] = None,
    fast_path: bool = True,
    telemetry: Optional[TelemetrySink] = None,
) -> Dict[str, np.ndarray]:
    """Run a quantized network with every conv/FC on a functional node group.

    Auxiliary layers (ReLU, pooling, residual add, requantization) execute
    through the same integer routines the scalar cores implement.  The
    returned activations must equal ``qgraph.forward(x)`` exactly.
    """
    capacity = capacity or CapacityModel()
    nodes_per_layer = nodes_per_layer or {}
    telemetry = telemetry if telemetry is not None else _current_telemetry()
    acts: Dict[str, np.ndarray] = {}
    for name in qgraph.order:
        node = qgraph.nodes[name]
        layer = node.layer
        if isinstance(layer, QInput):
            acts[name] = layer.forward(x)
        elif isinstance(layer, QConv2d):
            q_in = acts[node.inputs[0]]
            spec = _spec_of_qconv(name, layer, q_in.shape)
            default = (
                bit_true_min_nodes(spec, capacity)
                if bit_true
                else capacity.min_nodes(spec, max_nodes=spec.m)
            )
            num = nodes_per_layer.get(name, default)
            group = FunctionalNodeGroup(
                spec, layer.weight_q, layer.bias_q, num,
                bit_true=bit_true, capacity=capacity, fast_path=fast_path,
                telemetry=telemetry,
            )
            acc = group.run(q_in)
            acts[name] = _requant(acc, layer.requant_ratio, layer.n_bits)
        elif isinstance(layer, QLinear):
            q_in = acts[node.inputs[0]].reshape(-1)
            spec = ConvLayerSpec(
                index=0, name=name, h=1, w=1, c=q_in.shape[0],
                m=layer.weight_q.shape[0], r=1, s=1, stride=1, padding=0,
                n_bits=layer.n_bits,
            )
            default = (
                bit_true_min_nodes(spec, capacity)
                if bit_true
                else capacity.min_nodes(spec, max_nodes=spec.m)
            )
            num = nodes_per_layer.get(name, default)
            group = FunctionalNodeGroup(
                spec,
                layer.weight_q.reshape(spec.m, spec.c, 1, 1),
                layer.bias_q,
                num,
                bit_true=bit_true,
                capacity=capacity,
                fast_path=fast_path,
                telemetry=telemetry,
            )
            acc = group.run(q_in.reshape(spec.c, 1, 1)).reshape(spec.m)
            acts[name] = _requant(acc, layer.requant_ratio, layer.n_bits)
        else:
            acts[name] = layer.forward(*[acts[i] for i in node.inputs])
    return acts
