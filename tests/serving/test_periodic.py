"""Periodic sensor-frame serving, pinned against the pre-serving loop.

The paper motivates MAICC with sensor stacks where cameras, radars and
LiDARs produce frames at different rates that feed different networks
simultaneously (Sec. 1).  That scenario is periodic tenants served FIFO
by :class:`ServingSimulator` under either spatial partitions
(:class:`StaticPartitionPolicy`) or one time-shared array
(:class:`TimeSharedPolicy`).  Before the serving subsystem existed it ran
on an inline loop; :func:`legacy_run` keeps that loop as the
differential oracle, and the queue-based simulator must reproduce its
latencies bit for bit.
"""

from dataclasses import dataclass, field, replace
from typing import List

import pytest

from repro.core.multi_dnn import MultiDNNScheduler
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, small_cnn_spec
from repro.serving import (
    PeriodicArrivals,
    ServingSimulator,
    StaticPartitionPolicy,
    TenantSpec,
    TimeSharedPolicy,
)
from repro.sim import simulate
from repro.utils.events import EventQueue

POLICIES = {"spatial": StaticPartitionPolicy, "time-shared": TimeSharedPolicy}


def net(name, m=32, h=14, layers=2):
    specs = tuple(
        ConvLayerSpec(i + 1, f"{name}{i}", h=h, w=h, c=64, m=m)
        for i in range(layers)
    )
    return NetworkSpec(name=name, layers=specs)


def stream(network, period_ms):
    """One periodic sensor feeding one network, named after the network."""
    return TenantSpec(network.name, network, PeriodicArrivals(period_ms))


def serve(scheduler, streams, duration_ms, policy="spatial"):
    simulator = ServingSimulator(
        POLICIES[policy](scheduler), discipline="fifo", collect_timelines=True
    )
    return simulator.run(streams, duration_ms)


def latencies(report):
    """Exact per-frame latencies in completion order (collected path)."""
    return [timeline.end_to_end for timeline in report.timelines]


@pytest.fixture(scope="module")
def streams():
    # Rates chosen near chip saturation: each stream fits comfortably in
    # its spatial partition, but their combined demand oversubscribes a
    # single time-shared array — the regime the MIMD argument targets.
    return [
        stream(net("camera", m=64, h=28), period_ms=1.2),
        stream(net("lidar", m=32, h=14), period_ms=0.5),
        stream(small_cnn_spec(), period_ms=0.4),
    ]


@pytest.fixture(scope="module")
def scheduler():
    return MultiDNNScheduler()


class TestServing:
    def test_all_frames_served_under_spatial(self, scheduler, streams):
        result = serve(scheduler, streams, 100)
        for report in result.reports.values():
            assert report.completed >= report.arrivals - 1  # last may overrun

    def test_latency_includes_queueing(self, scheduler, streams):
        result = serve(scheduler, streams, 100)
        for report in result.reports.values():
            assert report.mean_latency_ms > 0
            assert report.max_latency_ms >= report.mean_latency_ms

    def test_spatial_beats_time_shared(self, scheduler, streams):
        spatial = serve(scheduler, streams, 100, "spatial")
        shared = serve(scheduler, streams, 100, "time-shared")

        def worst_mean(result):
            return max(r.mean_latency_ms for r in result.reports.values())

        assert worst_mean(spatial) < worst_mean(shared)
        assert spatial.total_completed >= shared.total_completed

    def test_deadline_accounting(self, scheduler, streams):
        # Misses against an impossible deadline = all frames; against a
        # generous one = none.
        for deadline_ms, all_miss in ((0.0001, True), (1e9, False)):
            timed = [replace(s, deadline_ms=deadline_ms) for s in streams]
            camera = serve(scheduler, timed, 100).reports["camera"]
            assert camera.deadline_misses == (camera.completed if all_miss else 0)


@dataclass
class LegacyReport:
    frames: int = 0
    completed: int = 0
    latencies: List[float] = field(default_factory=list)


def legacy_run(scheduler, streams, duration_ms, policy):
    """The pre-serving sensor-frame loop, replicated verbatim.

    It tracked one ``server_free`` float per server and folded each
    arrival inline: ``start = max(t, free); done = start + service``.
    The queue-based simulator must reproduce those floats *bit for bit*
    — same arithmetic, same operation order — which this oracle pins.
    """
    if policy == "spatial":
        run = scheduler.run([s.network for s in streams])
        service = {
            s.name: model_run.latency_ms for s, model_run in zip(streams, run.runs)
        }
        servers = {s.name: s.name for s in streams}
    else:
        service = {
            s.name: simulate(
                s.network, backend=scheduler.backend, config=scheduler.config
            ).latency_ms
            for s in streams
        }
        servers = {s.name: "chip" for s in streams}

    queue = EventQueue()
    server_free = {}
    reports = {s.name: LegacyReport() for s in streams}

    def arrive(s, t):
        report = reports[s.name]
        report.frames += 1
        server = servers[s.name]
        start = max(t, server_free.get(server, 0.0))
        done = start + service[s.name]
        server_free[server] = done
        if done <= duration_ms:
            report.completed += 1
            report.latencies.append(done - t)
        next_t = t + s.arrivals.period_ms
        if next_t < duration_ms:
            queue.schedule(next_t, lambda: arrive(s, next_t))

    for s in streams:
        queue.schedule(0.0, lambda s=s: arrive(s, 0.0))
    queue.run()
    return reports


class TestDifferentialAgainstLegacyLoop:
    """The serving-backed paths are bit-identical to the old inline loop."""

    @pytest.mark.parametrize("policy", ["spatial", "time-shared"])
    def test_latencies_bit_identical(self, scheduler, streams, policy):
        new = serve(scheduler, streams, 100, policy)
        old = legacy_run(scheduler, streams, 100, policy)
        assert set(new.reports) == set(old)
        for name, old_report in old.items():
            new_report = new.reports[name]
            assert new_report.arrivals == old_report.frames
            assert new_report.completed == old_report.completed
            # Exact float equality, not approx: the refactor must not
            # perturb a single ULP of the old arithmetic.
            assert latencies(new_report) == old_report.latencies

    def test_awkward_periods_and_ties(self, scheduler):
        # Colliding arrival times (4.2 has no exact binary representation;
        # 0.7 vs 1.4 collide every other frame) exercise the equal-time
        # ordering, where bit-identity is easiest to lose.
        streams = [
            stream(net("x", m=32, h=14), period_ms=0.7),
            stream(net("y", m=32, h=14, layers=1), period_ms=1.4),
            stream(small_cnn_spec(), period_ms=4.2),
        ]
        for policy in POLICIES:
            new = serve(scheduler, streams, 50, policy)
            old = legacy_run(scheduler, streams, 50, policy)
            for name, old_report in old.items():
                assert latencies(new.reports[name]) == old_report.latencies
