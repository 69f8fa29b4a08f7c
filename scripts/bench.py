#!/usr/bin/env python3
"""Wall-clock and simulation-state benchmark of the MAICC simulators.

Every bench function returns rows of one schema::

    {"bench": str, "metric": str, "value": number, "unit": str,
     "budget": number}            # "budget" only on gated rows

A row is gated when ``"<bench>/<metric>"`` has an entry in :data:`BUDGETS`,
and the gate is always ``value <= budget``.  :func:`gate` prints the gated
rows and returns the ones over budget.

The full run writes seven artifacts (:data:`ARTIFACTS`), each a metadata
header (python, numpy, machine, cpu_count) plus its benches' rows:

* ``BENCH_macc.json`` — the bit-plane MAC engine: ``CMem.mac`` fast vs.
  reference and batched ``CMem.mac_many`` (gated speed-up floors), and a
  bit-true ResNet18 conv1_x segment on a ``FunctionalNodeGroup``.
* ``BENCH_telemetry.json`` — simulated cycle counts and metrics-registry
  counters of a cycle-level node and the same segment (deterministic).
* ``BENCH_serving.json`` — the serving event loop and request batching.
* ``BENCH_backends.json`` — every ``repro.sim`` tier on ResNet18 and the
  small CNN (gated wall clock).
* ``BENCH_obs.json`` — latency-attribution overhead (gated call ratio).
* ``BENCH_fleet.json`` — the multi-chip fleet loop at 1 / 4 / 16 chips
  (gated wall clock) and at 64 chips (an ungated scale point, so
  ``--check`` skips it).
* ``BENCH_dse.json`` — the DSE smoke sweep serial vs. fork-pool (gated
  wall clock and serial-vs-workers byte equality).

``--check`` runs only the gated benches (:data:`GATED`), writes nothing,
and exits 1 on any breach — the CI ``bench-budget`` job runs exactly that.
The full run warns on every breach instead.

Run:  python scripts/bench.py [--out-dir DIR]
      python scripts/bench.py --check
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import telemetry
from repro.cmem.cmem import CMem
from repro.core.functional import FunctionalNodeGroup, bit_true_min_nodes
from repro.core.node import MAICCNode
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec, NetworkSpec

#: Every gate, keyed ``"<bench>/<metric>"``; a row passes when
#: ``value <= budget``.
BUDGETS: dict = {
    # Bit-plane MAC engine, as fast-path time over reference time: the
    # fast path must stay at least 15x faster than the per-pair reference
    # loop (~40x on a 2-vCPU x86_64 host).  A fall-back to the per-pair
    # loop, or telemetry doing work on the disabled NullSink path, reads
    # as ~1x.
    "mac/fast_over_reference": 1 / 15,
    # Seven stationary filters in one mac_many call must cost less per
    # MAC than one fast mac call, or batching stopped amortizing.
    "mac_many/per_mac_over_single_mac": 1.0,
    # Per-backend wall clock (s).  Each is roughly 10x the wall time on
    # the reference machine after the event-engine vectorization (see
    # docs/SIMULATORS.md), so CI noise never trips them but a regression
    # back to per-event Python dispatch (resnet18 event tier: 2.54 s
    # before, ~0.05 s after) blows through immediately.  The resnet18
    # cycle tier (2.1-3.5 s on a 2-vCPU x86_64 host, about half of it the
    # independent reference convolution) gets ~3x: a regression of the
    # fast node-group path back to per-pixel Python (19.4 s on the same
    # host) still trips it.
    "backends/resnet18/analytic/wall_s": 0.10,
    "backends/resnet18/streaming/wall_s": 0.50,
    "backends/resnet18/event/wall_s": 0.60,
    "backends/resnet18/cycle/wall_s": 10.0,
    "backends/small_cnn/analytic/wall_s": 0.05,
    "backends/small_cnn/streaming/wall_s": 0.05,
    "backends/small_cnn/event/wall_s": 0.10,
    "backends/small_cnn/cycle/wall_s": 1.50,
    # Fleet loop wall clock per run (s), roughly 10x the reference
    # machine: a routing loop or per-chip event engine dragged back to
    # per-request Python overhead blows through immediately.
    "fleet/chips=1/wall_s_per_run": 0.20,
    "fleet/chips=4/wall_s_per_run": 0.80,
    "fleet/chips=16/wall_s_per_run": 3.50,
    # DSE smoke sweep wall clock per run (s), roughly 10x the reference
    # machine (serial ~0.05 s, fork-pool ~0.09 s); workers=4 is wider
    # because the fork-pool run pays process startup on top.
    "dse/workers=0/wall_s_per_run": 1.0,
    "dse/workers=4/wall_s_per_run": 2.5,
    # Serial and fork-pool sweeps must emit byte-identical JSON: the
    # executor's core guarantee (docs/DSE.md).
    "dse/distinct_artifacts_minus_1": 0,
    # Attribution on may cost at most 2% over off on the NullSink
    # serving loop, as a deterministic operation-count ratio.
    "attribution/overhead_ratio": 1.02,
}

FLEET_CHIPS = (1, 4, 16)
FLEET_SCALE_CHIPS = 64
DSE_WORKERS = (0, 4)


def row(bench: str, metric: str, value, unit: str) -> dict:
    """One result row; carries its ``budget`` when :data:`BUDGETS` gates it."""
    out = {"bench": bench, "metric": metric, "value": value, "unit": unit}
    budget = BUDGETS.get(f"{bench}/{metric}")
    if budget is not None:
        out["budget"] = budget
    return out


def gate(rows) -> list:
    """Print every gated row; return the rows over budget."""
    failures = []
    for r in rows:
        if "budget" not in r:
            continue
        ok = r["value"] <= r["budget"]
        print(
            f"{r['bench'] + '/' + r['metric']:<36s} {r['value']:>10.4g} "
            f"{r['unit']:<5s} budget {r['budget']:>6g}  "
            f"{'OK' if ok else 'OVER BUDGET'}"
        )
        if not ok:
            failures.append(r)
    return failures


def _time_per_call(fn, *, min_reps: int = 5, budget_s: float = 1.0) -> float:
    """Median-of-three timing; each sample amortizes over enough reps."""
    fn()  # warm caches / JIT-less numpy dispatch
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    reps = max(min_reps, int(budget_s / 3 / max(once, 1e-9)))
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return sorted(samples)[1]


def bench_mac() -> list:
    """A 256-wide int8 dot product through ``CMem.mac``, fast vs. reference.

    Runs against the ambient NullSink, so the gated ratio also shows that
    disabled telemetry does not tax the fast path.
    """
    assert telemetry.current() is telemetry.NULL_SINK, (
        "bench_mac must run against the disabled NullSink"
    )
    rng = np.random.default_rng(1)
    a = rng.integers(-128, 128, 256)
    b = rng.integers(-128, 128, 256)

    cmems = {}
    for fast in (False, True):
        cmem = CMem(fast_path=fast)
        cmem.store_vector_transposed(1, 0, a, 8, signed=True)
        cmem.store_vector_transposed(1, 8, b, 8, signed=True)
        cmems[fast] = cmem
    expected = int(np.dot(a, b))
    assert cmems[True].mac(1, 0, 8, 8) == expected
    assert cmems[False].mac(1, 0, 8, 8) == expected

    t_ref = _time_per_call(lambda: cmems[False].mac(1, 0, 8, 8))
    t_fast = _time_per_call(lambda: cmems[True].mac(1, 0, 8, 8))
    return [
        row("mac", "reference_us_per_mac", t_ref * 1e6, "us"),
        row("mac", "fast_us_per_mac", t_fast * 1e6, "us"),
        row("mac", "reference_macs_per_sec", 1.0 / t_ref, "1/s"),
        row("mac", "fast_macs_per_sec", 1.0 / t_fast, "1/s"),
        row("mac", "speedup", t_ref / t_fast, "ratio"),
        row("mac", "fast_over_reference", t_fast / t_ref, "ratio"),
    ]


def bench_mac_many() -> list:
    """Seven stationary int8 filters per slice in one ``CMem.mac_many``."""
    rng = np.random.default_rng(2)
    a = rng.integers(-128, 128, 256)
    filters = [rng.integers(-128, 128, 256) for _ in range(7)]

    cmem = CMem(fast_path=True)
    ref = CMem(fast_path=False)
    for target in (cmem, ref):
        target.store_vector_transposed(1, 0, a, 8, signed=True)
        for i, w in enumerate(filters):
            target.store_vector_transposed(1, 8 * (i + 1), w, 8, signed=True)
    rows = [8 * (i + 1) for i in range(7)]
    assert list(cmem.mac_many(1, 0, rows, 8)) == [
        int(np.dot(a, w)) for w in filters
    ]

    t_many = _time_per_call(lambda: cmem.mac_many(1, 0, rows, 8)) / len(rows)
    t_ref = _time_per_call(lambda: ref.mac(1, 0, 8, 8))
    t_single = _time_per_call(lambda: cmem.mac(1, 0, 8, 8))
    return [
        row("mac_many", "fast_us_per_mac", t_many * 1e6, "us"),
        row("mac_many", "fast_macs_per_sec", 1.0 / t_many, "1/s"),
        row("mac_many", "speedup_vs_reference_mac", t_ref / t_many, "ratio"),
        row("mac_many", "per_mac_over_single_mac", t_many / t_single, "ratio"),
    ]


def _conv1_x_segment():
    """Bit-true node group for ResNet18 conv1_x cut to 6x6, and its ifmap.

    64 channels in/out, 3x3, stride 1; the spatial cut keeps the bit-true
    group to seconds.
    """
    spec = ConvLayerSpec(
        index=1, name="conv1_x[6x6]", h=6, w=6, c=64, m=64,
        r=3, s=3, stride=1, padding=1, n_bits=8,
    )
    rng = np.random.default_rng(3)
    group = FunctionalNodeGroup(
        spec,
        rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s)),
        rng.integers(-1000, 1000, spec.m),
        num_computing=bit_true_min_nodes(spec, CapacityModel()),
        bit_true=True,
    )
    return group, rng.integers(-128, 128, (spec.c, spec.h, spec.w))


def bench_resnet18_segment() -> list:
    """The conv1_x[6x6] segment end to end on the vectorized engine."""
    group, ifmap = _conv1_x_segment()
    t0 = time.perf_counter()
    acc = group.run(ifmap)
    wall = time.perf_counter() - t0
    macs = int(group.stats.macs)
    return [
        row("resnet18_segment", "nodes", group.num_computing, "count"),
        row("resnet18_segment", "wall_s", wall, "s"),
        row("resnet18_segment", "macs", macs, "count"),
        row("resnet18_segment", "macs_per_sec", macs / wall, "1/s"),
        row("resnet18_segment", "checksum", int(acc.sum()), "int"),
    ]


def bench_telemetry() -> list:
    """Cycle counts and registry counters under an active telemetry sink.

    A reduced cycle-level node workload plus the conv1_x[6x6] segment.
    Everything here is simulation state — deterministic across machines —
    so the snapshot is diffable along the bench trajectory.
    """
    sink = telemetry.Telemetry()
    with telemetry.use(sink):
        # 2 filters of 3x3x64 on a 5x5x64 ifmap: a scaled-down Table 4
        # shape that keeps the pipeline run under a second.
        spec = ConvLayerSpec(
            index=0, name="node[5x5x64]", h=5, w=5, c=64, m=2,
            r=3, s=3, stride=1, padding=0,
        )
        rng = np.random.default_rng(5)
        node = MAICCNode(
            spec,
            rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s)),
            rng.integers(-1000, 1000, spec.m),
        )
        node_result = node.run(rng.integers(-128, 128, (spec.c, spec.h, spec.w)))
        group, ifmap = _conv1_x_segment()
        group.run(ifmap)

    counts = {
        "node_5x5x64/cycles": node_result.stats.cycles,
        "node_5x5x64/instructions": node_result.stats.instructions,
        "node_5x5x64/cmem_busy_cycles": node_result.cmem_busy_cycles,
        "resnet18_segment/nodes": group.num_computing,
        "resnet18_segment/vectors_streamed": group.stats.vectors_streamed,
        "resnet18_segment/macs": group.stats.macs,
        "resnet18_segment/row_transfers": group.stats.row_transfers,
        "trace_events": len(sink.trace),
    }
    rows = [row("telemetry", k, int(v), "count") for k, v in counts.items()]
    counters = sink.registry.as_dict()["counters"]
    return rows + [
        row("telemetry", f"counters/{k}", v, "count")
        for k, v in sorted(counters.items())
    ]


#: Stub serving tenants: (name, Poisson rate Hz, seed, deadline ms,
#: queue capacity, fixed service ms, weight-staging share ms).
LIGHT_TENANTS = (
    ("a", 900, 21, 4.0, None, 0.8, None),
    ("b", 600, 22, 6.0, 64, 1.1, None),
    ("c", 300, 23, 9.0, None, 2.3, None),
)
#: Arrivals faster than one-at-a-time service drains them; a batch of
#: ``k`` against resident weights costs ``stage + k * (fixed - stage)``.
OVERLOADED_TENANTS = (
    ("a", 2200, 31, 50.0, 256, 0.8, 0.6),
    ("b", 1400, 32, 50.0, 256, 1.1, 0.8),
)
SERVING_WINDOW_MS = 2000.0
SERVING_BATCH = 8


def _stub_serving(table):
    """``(tenants factory, FixedServicePolicy)`` for a stub-tenant table.

    The stub network and :class:`FixedServicePolicy` put zero time into
    the chip model, so what is measured is the discrete-event loop:
    arrival generation, admission, dispatch, completion accounting.
    """
    from repro.serving import FixedServicePolicy, PoissonArrivals, TenantSpec

    net = NetworkSpec(
        name="stub",
        layers=(ConvLayerSpec(index=0, name="stub", h=1, w=1, c=1, m=1),),
    )

    def tenants() -> list:
        # No comprehension or list.append: bench_obs profiles this
        # factory, and either would add calls to the gated op count.
        out: list = []
        for name, rate, seed, deadline, capacity, _, _ in table:
            out += [TenantSpec(name, net, PoissonArrivals(rate, seed=seed),
                               deadline_ms=deadline, queue_capacity=capacity)]
        return out

    policy = FixedServicePolicy(
        {t[0]: t[5] for t in table},
        staging_ms={t[0]: t[6] for t in table if t[6] is not None},
    )
    return tenants, policy


def bench_serving() -> list:
    """Host throughput of the 3-tenant Poisson serving loop (NullSink).

    The ambient telemetry sink must be the disabled NullSink so the hot
    path pays only its one ``enabled`` read.
    """
    from repro.serving import ServingSimulator

    assert not telemetry.current().enabled, (
        "bench_serving must run against the disabled NullSink"
    )
    tenants, policy = _stub_serving(LIGHT_TENANTS)
    result = ServingSimulator(policy).run(tenants(), SERVING_WINDOW_MS)
    requests = result.total_arrivals
    t = _time_per_call(
        lambda: ServingSimulator(policy).run(tenants(), SERVING_WINDOW_MS)
    )
    return [
        row("serving_loop", "requests", requests, "count"),
        row("serving_loop", "completed", result.total_completed, "count"),
        row("serving_loop", "shed", result.total_shed, "count"),
        row("serving_loop", "wall_s_per_run", t, "s"),
        row("serving_loop", "requests_per_sec", requests / t, "1/s"),
        row("serving_loop", "sim_ms_per_wall_s", SERVING_WINDOW_MS / t, "ms/s"),
    ]


def bench_serving_batched() -> list:
    """Simulated throughput of request batching on an overloaded tenant set.

    ``ServingSimulator(batch_requests=8)`` dispatches up to 8 queued
    same-tenant requests per service slot.  Both completion counts are
    simulation state, so the gain is diffable along the bench trajectory.
    """
    from repro.serving import ServingSimulator

    tenants, policy = _stub_serving(OVERLOADED_TENANTS)
    unbatched = ServingSimulator(policy).run(tenants(), SERVING_WINDOW_MS)
    batched = ServingSimulator(policy, batch_requests=SERVING_BATCH).run(
        tenants(), SERVING_WINDOW_MS
    )
    per_s = 1000.0 / SERVING_WINDOW_MS
    return [
        row("serving_batched", "batch_requests", SERVING_BATCH, "count"),
        row("serving_batched", "arrivals", unbatched.total_arrivals, "count"),
        row("serving_batched", "completed_unbatched",
            unbatched.total_completed, "count"),
        row("serving_batched", "completed_batched",
            batched.total_completed, "count"),
        row("serving_batched", "shed_unbatched", unbatched.total_shed, "count"),
        row("serving_batched", "shed_batched", batched.total_shed, "count"),
        row("serving_batched", "throughput_unbatched_req_s",
            unbatched.total_completed * per_s, "1/s"),
        row("serving_batched", "throughput_batched_req_s",
            batched.total_completed * per_s, "1/s"),
        row("serving_batched", "throughput_gain",
            batched.total_completed / unbatched.total_completed, "ratio"),
    ]


def bench_obs() -> list:
    """Latency-attribution overhead on the serving fast path.

    The overloaded batched loop against the disabled NullSink, with
    per-request attribution off and on.  The gated quantity is the
    *operation-count* ratio (cProfile primitive calls), which is
    bit-reproducible on any machine: the attribution fast path costs
    O(tenants x batch sizes + resizes) table calls — never O(requests) —
    so a regression that sneaks per-request work back in shows up as a
    call-count jump that no scheduler noise can hide.  Wall clock is
    recorded alongside as an advisory figure (min over interleaved
    gc-fenced reps); a shared CI machine cannot resolve a 2% wall-clock
    budget reliably, which is why it does not gate.
    """
    from repro.serving import ServingSimulator

    assert not telemetry.current().enabled, (
        "bench_obs must run against the disabled NullSink"
    )
    tenants, policy = _stub_serving(OVERLOADED_TENANTS)

    def run(attribution: bool):
        return ServingSimulator(
            policy, batch_requests=SERVING_BATCH, attribution=attribution
        ).run(tenants(), SERVING_WINDOW_MS)

    baseline = run(False)
    attributed = run(True)

    def count_calls(attribution: bool) -> int:
        profile = cProfile.Profile()
        profile.enable()
        run(attribution)
        profile.disable()
        return pstats.Stats(profile).total_calls

    calls_off = count_calls(False)
    calls_on = count_calls(True)

    def timed(attribution: bool) -> float:
        # A gc fence before each rep so a collection triggered by one
        # arm's allocations is never billed to the other.
        gc.collect()
        t0 = time.perf_counter()
        run(attribution)
        return time.perf_counter() - t0

    # Advisory wall clock: interleaved A/B with the arm order alternating
    # per rep so drift lands on both sides, min-of-reps as the
    # noise-robust estimator.
    times: dict = {False: [], True: []}
    for i in range(8):
        for arm in ((False, True) if i % 2 == 0 else (True, False)):
            times[arm].append(timed(arm))
    wall_off, wall_on = min(times[False]), min(times[True])
    return [
        row("attribution", "requests", baseline.total_arrivals, "count"),
        row("attribution", "completed", attributed.total_completed, "count"),
        row("attribution", "calls_off", calls_off, "count"),
        row("attribution", "calls_on", calls_on, "count"),
        row("attribution", "overhead_ratio", calls_on / calls_off, "ratio"),
        row("attribution", "wall_s_off", wall_off, "s"),
        row("attribution", "wall_s_on", wall_on, "s"),
        row("attribution", "wall_ratio", wall_on / wall_off, "ratio"),
        *(
            row("attribution", f"phases/{name}", len(report.attribution),
                "count")
            for name, report in sorted(attributed.reports.items())
        ),
    ]


def bench_backends() -> list:
    """Wall-clock cost and cycle totals of every repro.sim backend.

    Runs ResNet18 (heuristic mapping) and the small CNN through all four
    tiers; the cycle tier executes every mapped layer on functional node
    groups and checks the numerics against a reference convolution.
    Cycle totals and ratios are deterministic simulation state; the wall
    times track how expensive each fidelity tier is on this machine.
    """
    from repro.nn.workloads import resnet18_spec, small_cnn_spec
    from repro.sim import simulate

    rows = []
    for name, network in (("resnet18", resnet18_spec()),
                          ("small_cnn", small_cnn_spec())):
        reports = {}
        walls = {}
        for backend in ("analytic", "streaming", "event", "cycle"):
            t0 = time.perf_counter()
            reports[backend] = simulate(network, backend=backend)
            walls[backend] = time.perf_counter() - t0
        reference = reports["streaming"].total_cycles
        for backend, report in reports.items():
            key = f"{name}/{backend}"
            rows += [
                row("backends", f"{key}/total_cycles", report.total_cycles,
                    "cycles"),
                row("backends", f"{key}/latency_ms", report.latency_ms, "ms"),
                row("backends", f"{key}/ratio_vs_streaming",
                    report.total_cycles / reference, "ratio"),
                row("backends", f"{key}/wall_s", walls[backend], "s"),
            ]
    return rows


def _fleet_rows(chips: int) -> list:
    """Rows of one fleet-loop point at ``chips`` chips.

    Two scripted models whose offered load scales linearly with the chip
    count (one replica of each per chip), routed by power-of-two-choices
    and simulated serially — what's measured is the whole fleet path:
    traffic generation, cluster routing, per-chip event loops, and the
    fleet rollup.  Request counts are simulation state (deterministic).
    """
    from repro.fleet import (
        FleetModelSpec,
        FleetSimulator,
        OpenLoopTraffic,
        fixed_profile,
    )

    spec = [
        FleetModelSpec(
            name="vision",
            profile=fixed_profile(
                "vision", 0.8, cores=64, staging_ms=0.2, restage_ms=4.0
            ),
            traffic=OpenLoopTraffic(rate_hz=900.0 * chips),
            deadline_ms=10.0,
            queue_capacity=256,
            replicas=chips,
        ),
        FleetModelSpec(
            name="speech",
            profile=fixed_profile(
                "speech", 1.1, cores=96, staging_ms=0.3, restage_ms=6.0
            ),
            traffic=OpenLoopTraffic(rate_hz=400.0 * chips),
            deadline_ms=15.0,
            queue_capacity=256,
            replicas=chips,
        ),
    ]
    duration_ms = 1000.0

    def run():
        return FleetSimulator(
            spec, chips, balancer="p2c", seed=0, scenario="bench-fleet"
        ).run(duration_ms)

    result = run()
    t = _time_per_call(run, min_reps=2, budget_s=0.5)
    key = f"chips={chips}"
    return [
        row("fleet", f"{key}/requests", result.total_generated, "count"),
        row("fleet", f"{key}/completed", result.total_completed, "count"),
        row("fleet", f"{key}/shed", result.total_shed, "count"),
        row("fleet", f"{key}/wall_s_per_run", t, "s"),
        row("fleet", f"{key}/requests_per_sec",
            result.total_generated / t, "1/s"),
        row("fleet", f"{key}/sim_ms_per_wall_s", duration_ms / t, "ms/s"),
    ]


def bench_fleet() -> list:
    """Throughput of the multi-chip fleet loop at N = 1 / 4 / 16 chips."""
    return [r for chips in FLEET_CHIPS for r in _fleet_rows(chips)]


def bench_fleet_scale() -> list:
    """The fleet loop at 64 chips: a recorded scale point, never gated."""
    return _fleet_rows(FLEET_SCALE_CHIPS)


def bench_dse() -> list:
    """Throughput of the DSE engine on the 16-point smoke sweep.

    Times ``repro.dse.run_sweep`` serial (workers=0) and on the fork-pool
    executor (workers=4, ``repro.utils.parallel``).  The two runs'
    consolidated JSON must be byte-identical, gated as zero extra
    distinct artifacts.
    """
    from repro.dse import SWEEPS, run_sweep

    spec = SWEEPS["smoke"]
    artifacts = set()
    rows = [row("dse", "points", spec.size, "count")]
    for workers in DSE_WORKERS:
        artifacts.add(run_sweep(spec, workers=workers).to_json())

        def run(workers: int = workers):
            run_sweep(spec, workers=workers)

        t = _time_per_call(run, min_reps=2, budget_s=0.5)
        rows += [
            row("dse", f"workers={workers}/wall_s_per_run", t, "s"),
            row("dse", f"workers={workers}/points_per_sec", spec.size / t,
                "1/s"),
        ]
    rows.append(row("dse", "distinct_artifacts_minus_1", len(artifacts) - 1,
                    "count"))
    return rows


#: Artifact file -> the benches whose rows it holds.
ARTIFACTS: dict = {
    "BENCH_macc.json": (bench_mac, bench_mac_many, bench_resnet18_segment),
    "BENCH_telemetry.json": (bench_telemetry,),
    "BENCH_serving.json": (bench_serving, bench_serving_batched),
    "BENCH_backends.json": (bench_backends,),
    "BENCH_obs.json": (bench_obs,),
    "BENCH_fleet.json": (bench_fleet, bench_fleet_scale),
    "BENCH_dse.json": (bench_dse,),
}
#: The benches ``--check`` runs: every one that carries a gated row.
GATED = (bench_mac, bench_mac_many, bench_obs, bench_backends, bench_fleet,
         bench_dse)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--out-dir",
        default=os.path.join(os.path.dirname(__file__), ".."),
        help="directory for the BENCH_*.json artifacts (default: repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run only the gated benches, write no JSON, and exit 1 on "
        "any row over its BUDGETS entry",
    )
    args = parser.parse_args(argv)

    benches = GATED if args.check else [
        fn for fns in ARTIFACTS.values() for fn in fns
    ]
    results = {fn: fn() for fn in benches}
    if not args.check:
        header = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        }
        for name, fns in ARTIFACTS.items():
            path = os.path.abspath(os.path.join(args.out_dir, name))
            rows = [r for fn in fns for r in results[fn]]
            with open(path, "w") as f:
                json.dump({**header, "rows": rows}, f, indent=2)
                f.write("\n")
            print(f"wrote {path} ({len(rows)} rows)")

    rows = [r for fn_rows in results.values() for r in fn_rows]
    problems = [
        f"{r['bench']}/{r['metric']} = {r['value']:.4g} {r['unit']} "
        f"over budget {r['budget']:g}"
        for r in gate(rows)
    ]
    seen = {f"{r['bench']}/{r['metric']}" for r in rows}
    problems += [f"{key} produced no row" for key in BUDGETS if key not in seen]
    for problem in problems:
        print(f"{'FAIL' if args.check else 'WARNING'}: {problem}",
              file=sys.stderr)
    if not problems:
        print(f"all {len(BUDGETS)} gates within budget")
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    sys.exit(main())
