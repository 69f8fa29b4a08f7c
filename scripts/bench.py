#!/usr/bin/env python3
"""Performance benchmark of the vectorized bit-plane MAC engine.

Times three workloads and writes the results to ``BENCH_macc.json`` at the
repository root:

1. **mac** — the in-cache MAC demo workload: a 256-wide int8 dot product
   through ``CMem.mac``, fast path vs. the per-pair reference path.
2. **mac_many** — a full slice of seven stationary filters evaluated with
   one batched ``CMem.mac_many`` call per pass.
3. **resnet18_segment** — a bit-true ``FunctionalNodeGroup`` running a
   downscaled ResNet18 stage-1 convolution (conv1_x, 64 channels, 3x3)
   end to end on the vectorized engine.

Alongside the timing results, a telemetry snapshot of the same workloads
(simulated cycle counts + the top-level metrics-registry counters) is
written to ``BENCH_telemetry.json`` so the bench trajectory tracks *what
the runs did*, not just how long they took.

``BENCH_fleet.json`` tracks the multi-chip fleet loop (``repro.fleet``)
at 1 / 4 / 16 chips — requests per second and simulated milliseconds per
wall-second — with per-size wall-clock budgets (``FLEET_BUDGETS``) that
``--check`` enforces alongside the backend budgets.

A further artifact, ``BENCH_backends.json``, tracks the wall-clock cost of
every ``repro.sim`` fidelity tier together with a per-backend **perf
budget** (see ``BACKEND_BUDGETS``).  ``--check`` re-times just the
backends and exits non-zero if any tier exceeds its budget — the CI
``bench-budget`` job runs exactly that, so an accidental regression of
the vectorized event engine (or any other tier) fails the build instead
of silently re-widening the event-tier gap.

``BENCH_dse.json`` tracks the design-space exploration engine
(``repro.dse``) on the 16-point smoke sweep — points per second serial
(workers=0) and on the fork-pool executor (workers=4) — with per-mode
wall-clock budgets (``DSE_BUDGETS``).  The two runs' consolidated JSON
must be byte-identical; ``--check`` gates that equality alongside the
budgets, so a nondeterministic executor fails the build.

Run:  python scripts/bench.py [--out BENCH_macc.json]
                              [--telemetry-out BENCH_telemetry.json]
      python scripts/bench.py --check         # budget enforcement only
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import platform
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


def bench_mac() -> dict:
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
    return {
        "workload": "256-wide int8 dot product (CMem.mac, slice 1)",
        "reference_us_per_mac": t_ref * 1e6,
        "fast_us_per_mac": t_fast * 1e6,
        "reference_macs_per_sec": 1.0 / t_ref,
        "fast_macs_per_sec": 1.0 / t_fast,
        "speedup": t_ref / t_fast,
    }


def bench_mac_many() -> dict:
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
    return {
        "workload": "7 stationary int8 filters per slice (CMem.mac_many)",
        "fast_us_per_mac": t_many * 1e6,
        "fast_macs_per_sec": 1.0 / t_many,
        "speedup_vs_reference_mac": t_ref / t_many,
    }


def bench_resnet18_segment() -> dict:
    # conv1_x of ResNet18 (64 ch in/out, 3x3, stride 1) with the spatial
    # extent cut to 6x6 so the bit-true group finishes in seconds.
    spec = ConvLayerSpec(
        index=1, name="conv1_x[6x6]", h=6, w=6, c=64, m=64,
        r=3, s=3, stride=1, padding=1, n_bits=8,
    )
    rng = np.random.default_rng(3)
    weights = rng.integers(-128, 128, (spec.m, spec.c, spec.r, spec.s))
    bias = rng.integers(-1000, 1000, spec.m)
    ifmap = rng.integers(-128, 128, (spec.c, spec.h, spec.w))

    num_nodes = bit_true_min_nodes(spec, CapacityModel())
    group = FunctionalNodeGroup(
        spec, weights, bias, num_computing=num_nodes, bit_true=True,
        fast_path=True,
    )
    t0 = time.perf_counter()
    acc = group.run(ifmap)
    wall = time.perf_counter() - t0

    macs = group.stats.macs
    return {
        "workload": (
            f"ResNet18 conv1_x bit-true segment (6x6 ifmap, {num_nodes} nodes)"
        ),
        "wall_s": wall,
        "macs": int(macs),
        "macs_per_sec": macs / wall,
        "checksum": int(acc.sum()),
    }


def bench_serving() -> dict:
    """Throughput of the serving event loop itself (host wall-clock).

    Uses :class:`FixedServicePolicy` so zero time goes to the chip model —
    what's measured is the discrete-event loop: arrival generation,
    admission, dispatch, completion accounting.  The ambient telemetry
    sink must be the disabled :class:`NullSink` so the hot path pays only
    its one ``enabled`` read.
    """
    from repro import telemetry as tele
    from repro.serving import (
        FixedServicePolicy,
        PoissonArrivals,
        ServingSimulator,
        TenantSpec,
    )

    assert not tele.current().enabled, (
        "bench_serving must run against the disabled NullSink"
    )

    spec = ConvLayerSpec(index=0, name="stub", h=1, w=1, c=1, m=1)
    net = NetworkSpec(name="stub", layers=(spec,))

    def tenants():
        return [
            TenantSpec("a", net, PoissonArrivals(900, seed=21), deadline_ms=4.0),
            TenantSpec("b", net, PoissonArrivals(600, seed=22), deadline_ms=6.0,
                       queue_capacity=64),
            TenantSpec("c", net, PoissonArrivals(300, seed=23), deadline_ms=9.0),
        ]

    policy = FixedServicePolicy({"a": 0.8, "b": 1.1, "c": 2.3})
    duration_ms = 2000.0

    result = ServingSimulator(policy).run(tenants(), duration_ms)
    requests = result.total_arrivals

    def run():
        ServingSimulator(policy).run(tenants(), duration_ms)

    t = _time_per_call(run)
    return {
        "workload": (
            f"3-tenant Poisson serving loop, {duration_ms:g} ms sim window, "
            f"{requests} requests (FixedServicePolicy, NullSink)"
        ),
        "requests": requests,
        "wall_s_per_run": t,
        "requests_per_sec": requests / t,
        "sim_ms_per_wall_s": duration_ms / t,
        "completed": result.total_completed,
        "shed": result.total_shed,
    }


# Per-backend wall-clock budgets (seconds), enforced by ``--check`` and
# the CI ``bench-budget`` job.  Each budget is roughly 10x the wall time
# measured on the reference machine after the event-engine vectorization
# (see docs/SIMULATORS.md), so CI noise never trips them but a
# regression back to per-event Python dispatch (resnet18 event tier:
# 2.54 s before, ~0.05 s after) blows through immediately.  The resnet18
# cycle tier (2.1-3.5 s on a 2-vCPU x86_64 host, about half of it the
# independent reference convolution) gets ~3x: a regression of the fast
# node-group path back to per-pixel Python (19.4 s on the same host)
# still trips it.
BACKEND_BUDGETS: dict = {
    "resnet18": {
        "analytic": 0.10,
        "streaming": 0.50,
        "event": 0.60,
        "cycle": 10.0,
    },
    "small_cnn": {
        "analytic": 0.05,
        "streaming": 0.05,
        "event": 0.10,
        "cycle": 1.50,
    },
}


def bench_backends() -> dict:
    """Wall-clock cost and cycle totals of every repro.sim backend.

    Runs ResNet18 (heuristic mapping) and the small CNN through all four
    tiers; the cycle tier executes every mapped layer on functional node
    groups and checks the numerics against a reference convolution.
    Cycle totals and ratios are deterministic simulation state; the wall
    times track how expensive each fidelity tier is on this machine, and
    each row carries its ``budget_s`` from ``BACKEND_BUDGETS``.
    """
    from repro.nn.workloads import resnet18_spec, small_cnn_spec
    from repro.sim import simulate

    backends = ("analytic", "streaming", "event", "cycle")
    jobs = {"resnet18": resnet18_spec(), "small_cnn": small_cnn_spec()}
    out: dict = {}
    for name, network in jobs.items():
        rows = {}
        reference = None
        for backend in backends:
            t0 = time.perf_counter()
            report = simulate(network, backend=backend)
            wall = time.perf_counter() - t0
            if backend == "streaming":
                reference = report.total_cycles
            rows[backend] = {
                "total_cycles": report.total_cycles,
                "latency_ms": report.latency_ms,
                "wall_s": wall,
            }
        for backend, row in rows.items():
            row["ratio_vs_streaming"] = row["total_cycles"] / reference
            budget = BACKEND_BUDGETS.get(name, {}).get(backend)
            if budget is not None:
                row["budget_s"] = budget
                row["within_budget"] = row["wall_s"] <= budget
        out[name] = rows
    return out


def check_budgets(backends: dict) -> list:
    """Return (network, backend, wall_s, budget_s) rows over budget."""
    breaches = []
    for name, rows in backends.items():
        for backend, row in rows.items():
            if "budget_s" in row and not row["within_budget"]:
                breaches.append((name, backend, row["wall_s"], row["budget_s"]))
    return breaches


def bench_serving_batched() -> dict:
    """Request batching on an overloaded tenant set (simulated throughput).

    Same FixedServicePolicy loop as :func:`bench_serving`, but the
    tenants arrive faster than the servers can drain one-at-a-time, and
    each tenant declares a ``staging_ms`` share of its service time —
    the weight-staging cost that a batch of requests against resident
    weights pays only once.  ``ServingSimulator(batch_requests=8)``
    dispatches up to 8 queued same-tenant requests per service slot, so
    a batch of ``k`` costs ``stage + k * (fixed - stage)`` instead of
    ``k * fixed``.  Both completion counts are simulation state
    (deterministic), so the throughput gain is diffable along the bench
    trajectory.
    """
    from repro.serving import (
        FixedServicePolicy,
        PoissonArrivals,
        ServingSimulator,
        TenantSpec,
    )

    spec = ConvLayerSpec(index=0, name="stub", h=1, w=1, c=1, m=1)
    net = NetworkSpec(name="stub", layers=(spec,))

    def tenants():
        return [
            TenantSpec("a", net, PoissonArrivals(2200, seed=31),
                       deadline_ms=50.0, queue_capacity=256),
            TenantSpec("b", net, PoissonArrivals(1400, seed=32),
                       deadline_ms=50.0, queue_capacity=256),
        ]

    policy = FixedServicePolicy(
        {"a": 0.8, "b": 1.1},
        staging_ms={"a": 0.6, "b": 0.8},
    )
    duration_ms = 2000.0
    batch = 8

    unbatched = ServingSimulator(policy).run(tenants(), duration_ms)
    batched = ServingSimulator(policy, batch_requests=batch).run(
        tenants(), duration_ms
    )
    per_s = 1000.0 / duration_ms
    return {
        "workload": (
            f"2-tenant overloaded Poisson loop, {duration_ms:g} ms sim "
            f"window (FixedServicePolicy with staging_ms, "
            f"batch_requests={batch})"
        ),
        "batch_requests": batch,
        "arrivals": unbatched.total_arrivals,
        "completed_unbatched": unbatched.total_completed,
        "completed_batched": batched.total_completed,
        "shed_unbatched": unbatched.total_shed,
        "shed_batched": batched.total_shed,
        "throughput_unbatched_req_s": unbatched.total_completed * per_s,
        "throughput_batched_req_s": batched.total_completed * per_s,
        "throughput_gain": (
            batched.total_completed / unbatched.total_completed
        ),
    }


#: Attribution-overhead ceiling enforced by ``--check`` and the CI
#: ``bench-budget`` job: the NullSink serving loop with attribution on
#: may cost at most 2% over the same loop with it off, measured as the
#: deterministic operation-count ratio (see :func:`bench_obs`).
OBS_OVERHEAD_BUDGET = 1.02


def bench_obs() -> dict:
    """Latency-attribution overhead on the serving fast path.

    Same overloaded batched loop as :func:`bench_serving_batched`,
    against the disabled NullSink, with per-request attribution off and
    on.  The gated quantity is the *operation-count* ratio (cProfile
    primitive calls), which is bit-reproducible on any machine: the
    attribution fast path costs O(tenants x batch sizes + resizes)
    table calls — never O(requests) — so a regression that sneaks
    per-request work back in (timeline objects, closures, method calls
    in dispatch/complete) shows up as a call-count jump that no
    scheduler noise can hide.  Wall clock is recorded alongside as an
    advisory figure (min over interleaved gc-fenced reps); a shared CI
    machine cannot resolve a 2% wall-clock budget reliably, which is
    why it does not gate.
    """
    from repro import telemetry as tele
    from repro.serving import (
        FixedServicePolicy,
        PoissonArrivals,
        ServingSimulator,
        TenantSpec,
    )

    assert not tele.current().enabled, (
        "bench_obs must run against the disabled NullSink"
    )

    spec = ConvLayerSpec(index=0, name="stub", h=1, w=1, c=1, m=1)
    net = NetworkSpec(name="stub", layers=(spec,))

    def tenants():
        return [
            TenantSpec("a", net, PoissonArrivals(2200, seed=31),
                       deadline_ms=50.0, queue_capacity=256),
            TenantSpec("b", net, PoissonArrivals(1400, seed=32),
                       deadline_ms=50.0, queue_capacity=256),
        ]

    policy = FixedServicePolicy(
        {"a": 0.8, "b": 1.1},
        staging_ms={"a": 0.6, "b": 0.8},
    )
    duration_ms = 2000.0
    batch = 8

    def run(attribution: bool):
        return ServingSimulator(
            policy, batch_requests=batch, attribution=attribution
        ).run(tenants(), duration_ms)

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
    ratio = calls_on / calls_off

    def timed(attribution: bool) -> float:
        # A gc fence before each rep so a collection triggered by one
        # arm's allocations is never billed to the other.
        gc.collect()
        t0 = time.perf_counter()
        run(attribution)
        return time.perf_counter() - t0

    # Advisory wall clock: interleaved A/B with the arm order
    # alternating per rep so drift lands on both sides, min-of-reps as
    # the noise-robust estimator.
    reps = 8
    off_times: list = []
    on_times: list = []
    for i in range(reps):
        if i % 2 == 0:
            off_times.append(timed(False))
            on_times.append(timed(True))
        else:
            on_times.append(timed(True))
            off_times.append(timed(False))
    return {
        "workload": (
            f"2-tenant overloaded Poisson loop, {duration_ms:g} ms sim "
            f"window, batch_requests={batch}, NullSink; attribution "
            f"off vs on, call-count ratio gated + {reps} interleaved "
            f"gc-fenced wall-clock reps (advisory)"
        ),
        "requests": baseline.total_arrivals,
        "completed": attributed.total_completed,
        "calls_off": calls_off,
        "calls_on": calls_on,
        "overhead_ratio": ratio,
        "budget_ratio": OBS_OVERHEAD_BUDGET,
        "within_budget": ratio <= OBS_OVERHEAD_BUDGET,
        "wall_s_off": min(off_times),
        "wall_s_on": min(on_times),
        "wall_ratio": min(on_times) / min(off_times),
        "attribution_phases": {
            name: len(report.attribution)
            for name, report in sorted(attributed.reports.items())
        },
    }


#: Per-fleet-size wall-clock budgets (seconds per run), enforced by
#: ``--check`` and the CI ``bench-budget`` job.  Each is roughly 10x the
#: wall time measured on the reference machine (see docs/SIMULATORS.md),
#: so CI noise never trips them but a regression that drags the routing
#: loop or the per-chip event engine back to per-request Python overhead
#: blows through immediately.
FLEET_BUDGETS: dict = {1: 0.20, 4: 0.80, 16: 3.50}


def bench_fleet() -> dict:
    """Throughput of the multi-chip fleet loop at N = 1 / 4 / 16 chips.

    Two scripted models whose offered load scales linearly with the chip
    count (one replica of each per chip), routed by power-of-two-choices
    and simulated serially — what's measured is the whole fleet path:
    traffic generation, cluster routing, per-chip event loops, and the
    fleet rollup.  Request counts are simulation state (deterministic);
    the wall-clock rows carry their ``budget_s`` from ``FLEET_BUDGETS``.
    """
    from repro.fleet import (
        FleetModelSpec,
        FleetSimulator,
        OpenLoopTraffic,
        fixed_profile,
    )

    def models(chips: int) -> list:
        return [
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
    scales = {}
    for chips in sorted(FLEET_BUDGETS):
        spec = models(chips)

        def run():
            return FleetSimulator(
                spec, chips, balancer="p2c", seed=0, scenario="bench-fleet"
            ).run(duration_ms)

        result = run()
        t = _time_per_call(run, min_reps=2, budget_s=0.5)
        scales[str(chips)] = {
            "chips": chips,
            "requests": result.total_generated,
            "completed": result.total_completed,
            "shed": result.total_shed,
            "wall_s_per_run": t,
            "requests_per_sec": result.total_generated / t,
            "sim_ms_per_wall_s": duration_ms / t,
            "budget_s": FLEET_BUDGETS[chips],
            "within_budget": t <= FLEET_BUDGETS[chips],
        }
    return {
        "workload": (
            f"2-model fleet loop, {duration_ms:g} ms sim window, offered "
            "load and replica count scaling with chips (p2c balancer, "
            "serial chip execution)"
        ),
        "scales": scales,
    }


def check_fleet_budgets(fleet: dict) -> list:
    """Return (chips, wall_s, budget_s) rows over budget."""
    return [
        (row["chips"], row["wall_s_per_run"], row["budget_s"])
        for row in fleet["scales"].values()
        if not row["within_budget"]
    ]


#: Per-worker-count wall-clock budgets (seconds per smoke-sweep run),
#: enforced by ``--check`` and the CI ``bench-budget`` job.  Roughly
#: 10x the reference-machine wall time (serial ~0.05 s, fork-pool
#: ~0.09 s); the workers=4 budget is wider because the fork-pool run
#: pays process startup on top of the sweep itself.
DSE_BUDGETS: dict = {0: 1.0, 4: 2.5}


def bench_dse() -> dict:
    """Throughput of the DSE engine on the 16-point smoke sweep.

    Times ``repro.dse.run_sweep`` serial (workers=0) and on the
    fork-pool executor (workers=4, ``repro.utils.parallel``) and
    records points per second for both.  The consolidated JSON of the
    two runs must be byte-identical — that equality is the executor's
    core guarantee (see docs/DSE.md) and is recorded as
    ``identical_bytes``, which ``--check`` gates alongside the
    per-mode wall-clock budgets.
    """
    from repro.dse import SWEEPS, run_sweep

    spec = SWEEPS["smoke"]
    points = spec.size
    artifacts = {}
    rows = {}
    for workers in sorted(DSE_BUDGETS):
        artifacts[workers] = run_sweep(spec, workers=workers).to_json()

        def run(workers: int = workers):
            run_sweep(spec, workers=workers)

        t = _time_per_call(run, min_reps=2, budget_s=0.5)
        rows[str(workers)] = {
            "workers": workers,
            "executor": "serial" if workers == 0 else "fork-pool",
            "wall_s_per_run": t,
            "points_per_sec": points / t,
            "budget_s": DSE_BUDGETS[workers],
            "within_budget": t <= DSE_BUDGETS[workers],
        }
    return {
        "workload": (
            f"{points}-point smoke sweep (small_cnn, analytic tier), "
            "serial vs fork-pool executor (repro.utils.parallel)"
        ),
        "sweep": spec.name,
        "points": points,
        "identical_bytes": len(set(artifacts.values())) == 1,
        "scales": rows,
    }


def check_dse_budgets(dse: dict) -> list:
    """Return (workers, wall_s, budget_s) rows over budget."""
    return [
        (row["workers"], row["wall_s_per_run"], row["budget_s"])
        for row in dse["scales"].values()
        if not row["within_budget"]
    ]


def bench_telemetry() -> dict:
    """Telemetry snapshot: workload cycle counts + top-level counters.

    Runs a reduced cycle-level node workload and the bit-true ResNet18
    segment with an active telemetry sink and records the registry's
    counters.  Everything here is simulation state — deterministic across
    machines — so the snapshot is diffable along the bench trajectory.
    """
    sink = telemetry.Telemetry()
    with telemetry.use(sink):
        # Cycle-level: 2 filters of 3x3x64 on a 5x5x64 ifmap (a scaled-down
        # Table 4 shape that keeps the pipeline run under a second).
        node_spec = ConvLayerSpec(
            index=0, name="node[5x5x64]", h=5, w=5, c=64, m=2,
            r=3, s=3, stride=1, padding=0,
        )
        rng = np.random.default_rng(5)
        node = MAICCNode(
            node_spec,
            rng.integers(-128, 128, (node_spec.m, node_spec.c, node_spec.r, node_spec.s)),
            rng.integers(-1000, 1000, node_spec.m),
        )
        node_result = node.run(
            rng.integers(-128, 128, (node_spec.c, node_spec.h, node_spec.w))
        )

        # Functional tier: the same segment bench_resnet18_segment times.
        seg_spec = ConvLayerSpec(
            index=1, name="conv1_x[6x6]", h=6, w=6, c=64, m=64,
            r=3, s=3, stride=1, padding=1, n_bits=8,
        )
        seg_rng = np.random.default_rng(3)
        group = FunctionalNodeGroup(
            seg_spec,
            seg_rng.integers(-128, 128, (seg_spec.m, seg_spec.c, seg_spec.r, seg_spec.s)),
            seg_rng.integers(-1000, 1000, seg_spec.m),
            num_computing=bit_true_min_nodes(seg_spec, CapacityModel()),
            bit_true=True,
        )
        group.run(seg_rng.integers(-128, 128, (seg_spec.c, seg_spec.h, seg_spec.w)))

    return {
        "workloads": {
            "node_5x5x64": {
                "cycles": int(node_result.stats.cycles),
                "instructions": int(node_result.stats.instructions),
                "cmem_busy_cycles": int(node_result.cmem_busy_cycles),
            },
            "resnet18_segment": {
                "nodes": group.num_computing,
                "vectors_streamed": int(group.stats.vectors_streamed),
                "macs": int(group.stats.macs),
                "row_transfers": int(group.stats.row_transfers),
            },
        },
        "counters": sink.registry.as_dict()["counters"],
        "trace_events": len(sink.trace),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_macc.json"),
    )
    parser.add_argument(
        "--telemetry-out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_telemetry.json"
        ),
    )
    parser.add_argument(
        "--serving-out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_serving.json"
        ),
    )
    parser.add_argument(
        "--backends-out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_backends.json"
        ),
    )
    parser.add_argument(
        "--obs-out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_obs.json"
        ),
    )
    parser.add_argument(
        "--fleet-out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_fleet.json"
        ),
    )
    parser.add_argument(
        "--dse-out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_dse.json"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "time only the sim backends, the fleet loop, the DSE smoke "
            "sweep, and the attribution overhead; fail (exit 1) on any "
            "BACKEND_BUDGETS, FLEET_BUDGETS, or DSE_BUDGETS breach, a "
            "serial-vs-workers byte mismatch in the DSE artifact, or an "
            "attribution overhead ratio over OBS_OVERHEAD_BUDGET; "
            "writes no JSON"
        ),
    )
    args = parser.parse_args()

    if args.check:
        obs = bench_obs()
        print(
            f"attribution overhead: {obs['overhead_ratio']:.4f}x ops "
            f"(budget {obs['budget_ratio']:.2f}x; "
            f"wall {obs['wall_ratio']:.3f}x advisory)  "
            f"{'OK' if obs['within_budget'] else 'OVER BUDGET'}"
        )
        backends = bench_backends()
        for name, rows in backends.items():
            for backend, row in rows.items():
                budget = row.get("budget_s")
                mark = (
                    "no budget" if budget is None
                    else "OK" if row["within_budget"] else "OVER BUDGET"
                )
                budget_txt = f"{budget:.2f}s" if budget is not None else "-"
                print(
                    f"{name:>10s}/{backend:<9s} wall {row['wall_s']:7.3f}s"
                    f"  budget {budget_txt:>6s}  {mark}"
                )
        fleet = bench_fleet()
        for key in sorted(fleet["scales"], key=int):
            row = fleet["scales"][key]
            mark = "OK" if row["within_budget"] else "OVER BUDGET"
            print(
                f"  fleet/N={row['chips']:<3d} wall {row['wall_s_per_run']:7.3f}s"
                f"  budget {row['budget_s']:5.2f}s  "
                f"({row['sim_ms_per_wall_s']:.0f} sim-ms/wall-s)  {mark}"
            )
        dse = bench_dse()
        for key in sorted(dse["scales"], key=int):
            row = dse["scales"][key]
            mark = "OK" if row["within_budget"] else "OVER BUDGET"
            print(
                f"  dse/workers={row['workers']:<2d} ({row['executor']:<9s}) "
                f"wall {row['wall_s_per_run']:7.3f}s"
                f"  budget {row['budget_s']:5.2f}s  "
                f"({row['points_per_sec']:.0f} points/s)  {mark}"
            )
        print(
            "  dse serial vs workers=4 bytes: "
            + ("identical" if dse["identical_bytes"] else "MISMATCH")
        )
        breaches = check_budgets(backends)
        failed = bool(breaches)
        if breaches:
            for name, backend, wall, budget in breaches:
                print(
                    f"FAIL: {name}/{backend} took {wall:.3f}s "
                    f"(budget {budget:.2f}s)",
                    file=sys.stderr,
                )
        for chips, wall, budget in check_fleet_budgets(fleet):
            failed = True
            print(
                f"FAIL: fleet at {chips} chip(s) took {wall:.3f}s "
                f"(budget {budget:.2f}s)",
                file=sys.stderr,
            )
        for workers, wall, budget in check_dse_budgets(dse):
            failed = True
            print(
                f"FAIL: dse sweep with workers={workers} took {wall:.3f}s "
                f"(budget {budget:.2f}s)",
                file=sys.stderr,
            )
        if not dse["identical_bytes"]:
            failed = True
            print(
                "FAIL: dse smoke sweep serial vs workers=4 JSON bytes differ",
                file=sys.stderr,
            )
        if not obs["within_budget"]:
            failed = True
            print(
                f"FAIL: attribution overhead {obs['overhead_ratio']:.4f}x "
                f"exceeds {obs['budget_ratio']:.2f}x",
                file=sys.stderr,
            )
        if failed:
            sys.exit(1)
        print(
            "all backends, the fleet loop, the dse sweep, and the "
            "attribution overhead within budget"
        )
        return

    results = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "mac": bench_mac(),
        "mac_many": bench_mac_many(),
        "resnet18_segment": bench_resnet18_segment(),
    }
    with open(args.out, "w") as f:
        json.dump(results, f, indent=2)
        f.write("\n")

    telemetry_snapshot = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **bench_telemetry(),
    }
    with open(args.telemetry_out, "w") as f:
        json.dump(telemetry_snapshot, f, indent=2, sort_keys=True)
        f.write("\n")

    serving = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "serving_loop": bench_serving(),
        "serving_batched": bench_serving_batched(),
    }
    with open(args.serving_out, "w") as f:
        json.dump(serving, f, indent=2, sort_keys=True)
        f.write("\n")

    backends = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executor": "serial",
        "backends": bench_backends(),
    }
    with open(args.backends_out, "w") as f:
        json.dump(backends, f, indent=2, sort_keys=True)
        f.write("\n")

    obs = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "attribution": bench_obs(),
    }
    with open(args.obs_out, "w") as f:
        json.dump(obs, f, indent=2, sort_keys=True)
        f.write("\n")

    fleet = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executor": "serial",
        "fleet": bench_fleet(),
    }
    with open(args.fleet_out, "w") as f:
        json.dump(fleet, f, indent=2, sort_keys=True)
        f.write("\n")

    dse = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "dse": bench_dse(),
    }
    with open(args.dse_out, "w") as f:
        json.dump(dse, f, indent=2, sort_keys=True)
        f.write("\n")

    mac = results["mac"]
    print(
        f"mac: ref {mac['reference_us_per_mac']:.1f}us  "
        f"fast {mac['fast_us_per_mac']:.1f}us  "
        f"speedup {mac['speedup']:.1f}x"
    )
    many = results["mac_many"]
    print(
        f"mac_many: {many['fast_us_per_mac']:.1f}us/MAC  "
        f"({many['speedup_vs_reference_mac']:.1f}x vs reference mac)"
    )
    seg = results["resnet18_segment"]
    print(
        f"resnet18 segment: {seg['wall_s']:.2f}s wall, "
        f"{seg['macs_per_sec']:.0f} MACs/s"
    )
    tel = telemetry_snapshot["workloads"]
    print(
        f"telemetry: node {tel['node_5x5x64']['cycles']} cycles, "
        f"segment {tel['resnet18_segment']['macs']} MACs "
        f"({telemetry_snapshot['trace_events']} trace events)"
    )
    loop = serving["serving_loop"]
    print(
        f"serving loop: {loop['requests_per_sec']:.0f} requests/s "
        f"({loop['sim_ms_per_wall_s']:.0f} sim-ms per wall-second)"
    )
    batched = serving["serving_batched"]
    print(
        f"serving batched (R={batched['batch_requests']}): "
        f"{batched['throughput_unbatched_req_s']:.0f} -> "
        f"{batched['throughput_batched_req_s']:.0f} req/s "
        f"({batched['throughput_gain']:.2f}x)"
    )
    attr = obs["attribution"]
    print(
        f"attribution overhead: {attr['overhead_ratio']:.4f}x ops "
        f"(budget {attr['budget_ratio']:.2f}x; "
        f"wall {attr['wall_ratio']:.3f}x advisory)"
    )
    print(
        "fleet loop: "
        + "  ".join(
            f"N={row['chips']} {row['requests_per_sec']:.0f} req/s"
            f"/{row['sim_ms_per_wall_s']:.0f} sim-ms/wall-s"
            for row in (
                fleet["fleet"]["scales"][k]
                for k in sorted(fleet["fleet"]["scales"], key=int)
            )
        )
    )
    dse_rows = dse["dse"]["scales"]
    print(
        "dse smoke sweep: "
        + "  ".join(
            f"workers={row['workers']} {row['points_per_sec']:.0f} points/s"
            for row in (dse_rows[k] for k in sorted(dse_rows, key=int))
        )
        + (
            "  (serial==workers bytes)"
            if dse["dse"]["identical_bytes"]
            else "  (BYTE MISMATCH)"
        )
    )
    rn18 = backends["backends"]["resnet18"]
    print(
        "backends (resnet18): "
        + "  ".join(
            f"{name} {row['wall_s'] * 1e3:.0f}ms"
            f"/{row['ratio_vs_streaming']:.3f}x"
            for name, row in rn18.items()
            if "wall_s" in row
        )
    )
    breaches = check_budgets(backends["backends"])
    for name, backend, wall, budget in breaches:
        print(
            f"WARNING: {name}/{backend} over budget "
            f"({wall:.3f}s > {budget:.2f}s)",
            file=sys.stderr,
        )
    print(f"wrote {os.path.abspath(args.out)}")
    print(f"wrote {os.path.abspath(args.telemetry_out)}")
    print(f"wrote {os.path.abspath(args.serving_out)}")
    print(f"wrote {os.path.abspath(args.backends_out)}")
    print(f"wrote {os.path.abspath(args.obs_out)}")
    print(f"wrote {os.path.abspath(args.fleet_out)}")
    print(f"wrote {os.path.abspath(args.dse_out)}")


if __name__ == "__main__":
    main()
