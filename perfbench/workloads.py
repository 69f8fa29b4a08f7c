"""The four named workloads.

Each workload builds its inputs from the seed, warms up on a small input,
and then runs one *operation* per call to :meth:`Workload.op`: the same
inputs every time, so every operation of one invocation must produce the
same simulated outputs (checked through :attr:`OpOutcome.digest`).

All simulation runs serially in this process (``workers=0``) with the
ambient telemetry sink left at the disabled ``NullSink``.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dse import engine as dse_engine
from repro.dse import run_sweep
from repro.dse.presets import SWEEPS
from repro.dse.result import DSEResult, PAPER_REF_RESNET18_LATENCY_MS, PAPER_REF_RESNET18_POWER_W
from repro.errors import ReproError
from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.failures import ChipCrash, FailureScenario
from repro.fleet.profiles import fixed_profile
from repro.fleet.result import FleetResult
from repro.fleet.scenarios import FleetScenario, build_scenario
from repro.fleet.simulator import FleetModelSpec, FleetSimulator, OpenLoopTraffic
from repro.fleet.traffic import DiurnalShape
from repro.nn.workloads import NetworkSpec, resnet18_spec, small_cnn_spec
from repro.sim import RunReport, SimConfig, simulate


@dataclass
class OpOutcome:
    """What one operation produced, beyond its host time."""

    digest: str
    items: int
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    simulated: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: Per-item host seconds (design points), when the workload has items
    #: cheap enough to time one by one.
    item_seconds: List[float] = field(default_factory=list)


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


class Workload:
    """One named workload: ``warm()`` once, then ``op()`` repeatedly.

    ``op()`` is the timed call into the program; ``outcome()`` inspects its
    result (or the :class:`ReproError` it raised) outside the timed region.
    """

    name = "abstract"
    #: False when the workload's inputs do not depend on ``--seed``.
    seeded = True
    #: Operations counted as attempted per ``op()`` call.
    attempted = 1
    #: Name of the items-per-host-second metric.
    rate_metric = "sim_req_per_s"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warm(self) -> None:
        raise NotImplementedError

    def op(self) -> object:
        raise NotImplementedError

    def inspect(self, result: object) -> OpOutcome:
        raise NotImplementedError

    def outcome(self, result: object) -> OpOutcome:
        if isinstance(result, ReproError):
            return OpOutcome(
                digest="", items=0, attempted=self.attempted, failed=self.attempted,
                problems=[f"{self.name} raised {type(result).__name__}: {result}"],
            )
        return self.inspect(result)

    def final_checks(self) -> List[str]:
        """Untimed checks run once after the timed operations."""
        return []


# -- cycle-r18 ------------------------------------------------------------------

#: ResNet18 layers of the slice, by 1-based Table 6 index: conv2_2 (stride 1),
#: conv3_1 (stride 2), the stage-3 1x1 shortcut, conv4_2 (512 channels, two
#: 256-lane sub-vectors) and the linear layer.
CYCLE_LAYERS = (7, 11, 10, 17, 20)


def resnet18_slice() -> NetworkSpec:
    net = resnet18_spec()
    layers = tuple(
        replace(net.layer(i), index=k) for k, i in enumerate(CYCLE_LAYERS)
    )
    return NetworkSpec(name="resnet18-slice", layers=layers)


class CycleR18(Workload):
    name = "cycle-r18"
    rate_metric = "macs_per_s"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.network = resnet18_slice()
        self.attempted = len(self.network)
        self.config = SimConfig(seed=seed)

    def warm(self) -> None:
        simulate(small_cnn_spec(), backend="cycle", config=self.config)

    def op(self) -> RunReport:
        return simulate(self.network, backend="cycle", config=self.config)

    def inspect(self, report: RunReport) -> OpOutcome:
        problems = [
            f"segment {k} not numerics_verified"
            for k, seg in enumerate(report.runs)
            if not seg.numerics_verified
        ]
        macs = sum(seg.functional_macs for seg in report.runs)
        energy = report.energy
        digest = _sha(json.dumps({
            "total_cycles": report.total_cycles,
            "latency_ms": report.latency_ms,
            "checksums": [seg.checksum for seg in report.runs],
            "functional_macs": [seg.functional_macs for seg in report.runs],
            "energy_j": [energy.dram, energy.cmem, energy.noc, energy.core, energy.llc],
        }))
        return OpOutcome(
            digest=digest,
            items=macs,
            attempted=self.attempted,
            problems=problems,
            simulated={
                "sim_latency_ms": report.latency_ms,
                "sim_cycles": report.total_cycles,
                "sim_macs": macs,
            },
        )


# -- dse-frontier ---------------------------------------------------------------

#: The paper's design point (Table 7): ResNet18, 16x16 mesh, 7 CMem slices,
#: 32 DRAM channels, streaming tier.
PAPER_POINT = "resnet18/streaming/heuristic/m16x16/s7r64/d32"

POINT_STATUSES = ("ok", "infeasible", "rejected", "error")


@contextmanager
def _timing_points(seconds: List[float]) -> Iterator[None]:
    """Time each ``evaluate_point`` call ``run_sweep`` makes."""
    original = dse_engine.evaluate_point

    def timed(point, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(point, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)

    dse_engine.evaluate_point = timed
    try:
        yield
    finally:
        dse_engine.evaluate_point = original


class DSEFrontier(Workload):
    name = "dse-frontier"
    rate_metric = "points_per_s"
    seeded = False  # every design point is a pure function of its coordinates

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spec = SWEEPS["frontier"]
        self.point_ids = [p.point_id for p in self.spec.expand()]
        self.attempted = len(self.point_ids)
        self.serial_json: Optional[str] = None
        self.point_seconds: List[float] = []

    def warm(self) -> None:
        run_sweep(SWEEPS["smoke"])

    def op(self) -> Tuple[DSEResult, str]:
        self.point_seconds = []
        with _timing_points(self.point_seconds):
            result = run_sweep(self.spec)
        return result, result.to_json()

    def inspect(self, outputs: Tuple[DSEResult, str]) -> OpOutcome:
        result, text = outputs
        self.serial_json = text
        counts = {f"dse.points.{s}": 0 for s in POINT_STATUSES}
        problems = []
        for p in result.points:
            key = f"dse.points.{p.status}"
            if key not in counts:
                problems.append(f"point {p.point.point_id} has unknown status {p.status!r}")
            counts[key] = counts.get(key, 0) + 1
        ids = [p.point.point_id for p in result.points]
        if ids != self.point_ids:
            problems.append(
                f"sweep returned {len(ids)} points, expected {len(self.point_ids)} in order"
            )
        paper = result.by_id(PAPER_POINT)
        if not paper.ok:
            problems.append(f"paper point {PAPER_POINT} is {paper.status}")
        latency = paper.latency_ms or 0.0
        power = paper.average_power_w or 0.0
        return OpOutcome(
            digest=_sha(text),
            items=len(result.points),
            attempted=self.attempted,
            failed=counts["dse.points.error"],
            problems=problems,
            simulated={
                "paper_latency_ms": latency,
                "paper_power_w": power,
                "paper_latency_err_pct": 100.0 * abs(latency - PAPER_REF_RESNET18_LATENCY_MS)
                / PAPER_REF_RESNET18_LATENCY_MS,
                "paper_power_err_pct": 100.0 * abs(power - PAPER_REF_RESNET18_POWER_W)
                / PAPER_REF_RESNET18_POWER_W,
            },
            counts=counts,
            item_seconds=self.point_seconds,
        )

    def final_checks(self) -> List[str]:
        parallel = run_sweep(self.spec, workers=2).to_json()
        if parallel != self.serial_json:
            return ["workers=2 sweep JSON differs from the serial sweep"]
        return []


# -- fleet workloads ------------------------------------------------------------

class FleetWorkload(Workload):
    """One :class:`FleetSimulator` run over a fixed simulated window."""

    window_ms = 0.0
    warm_ms = 50.0

    def scenario(self) -> FleetScenario:
        raise NotImplementedError

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sc = self.scenario()
        self.simulator = FleetSimulator(
            sc.models,
            sc.n_chips,
            balancer=sc.balancer,
            seed=seed,
            batch_requests=sc.batch_requests,
            failures=sc.failures,
            autoscale=sc.autoscale,
            scenario=sc.name,
            workers=0,
        )

    def warm(self) -> None:
        self.simulator.run(self.warm_ms)

    def op(self) -> FleetResult:
        return self.simulator.run(self.window_ms)

    def inspect(self, result: FleetResult) -> OpOutcome:
        broken = [name for name, m in sorted(result.models.items()) if not m.conserved]
        return OpOutcome(
            digest=_sha(result.to_json()),
            items=result.total_generated,
            attempted=1,
            failed=1 if broken else 0,
            problems=[f"model {name!r} breaks conservation" for name in broken],
            simulated=fleet_simulated(result),
            counts=fleet_counts(result),
        )


def fleet_simulated(result: FleetResult) -> Dict[str, float]:
    missed = sum(
        m.deadline_misses + m.shed + m.failed + m.router_shed
        for m in result.models.values()
    )
    generated = result.total_generated
    return {
        "sim_generated": generated,
        "sim_p99_ms": result.worst_model_p99_ms,
        "sim_miss_frac": missed / generated if generated else 0.0,
    }


def fleet_counts(result: FleetResult) -> Dict[str, int]:
    return {
        "fleet.router.routed": sum(result.routed.values()),
        "fleet.router.router_shed": result.total_router_shed,
        "fleet.recoveries": len(result.recoveries),
        "fleet.scale_events": len(result.scale_events),
        "serving.completed": result.total_completed,
        "serving.shed": result.total_shed,
        "serving.failed": result.total_failed,
    }


class FleetDiurnal(FleetWorkload):
    name = "fleet-diurnal"
    #: The shipped scenario simulates 36 s; 1 s of it takes about a host second,
    #: so a run times many operations.
    window_ms = 1000.0

    def scenario(self) -> FleetScenario:
        return build_scenario("diurnal-million")


CHURN_CHIPS = 64
CHURN_WINDOW_MS = 500.0


def churn_scenario() -> FleetScenario:
    """64 chips, two open-loop models on half the chips each, four crashes
    and a 10 ms-epoch autoscaler: the placement is rewritten mid-run."""
    shape = DiurnalShape(period_ms=CHURN_WINDOW_MS, floor=0.2)
    models = [
        FleetModelSpec(
            name=name,
            profile=fixed_profile(
                name, service_ms, cores=96, staging_ms=0.05, restage_ms=2.0
            ),
            traffic=OpenLoopTraffic(rate_hz=rate_hz, shape=shape),
            deadline_ms=8.0,
            queue_capacity=256,
            replicas=CHURN_CHIPS // 2,
        )
        for name, service_ms, rate_hz in (("detect", 1.0, 75000.0), ("rank", 0.6, 90000.0))
    ]
    crashes = [
        ChipCrash(chip=chip, at_ms=CHURN_WINDOW_MS * frac)
        for chip, frac in ((5, 0.2), (21, 0.4), (13, 0.6), (30, 0.8))
    ]
    return FleetScenario(
        name="fleet-churn",
        models=models,
        n_chips=CHURN_CHIPS,
        duration_ms=CHURN_WINDOW_MS,
        balancer="least-loaded",
        failures=FailureScenario(crashes=crashes),
        autoscale=AutoscaleConfig(
            epoch_ms=10.0,
            high_utilization=0.75,
            low_utilization=0.25,
            max_replicas=CHURN_CHIPS,
            down_epochs=4,
            cooldown_epochs=2,
        ),
    )


class FleetChurn(FleetWorkload):
    name = "fleet-churn"
    window_ms = CHURN_WINDOW_MS

    def scenario(self) -> FleetScenario:
        return churn_scenario()


WORKLOADS = {w.name: w for w in (CycleR18, DSEFrontier, FleetDiurnal, FleetChurn)}
