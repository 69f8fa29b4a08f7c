"""Golden byte pins of whole fleet runs.

Each pin is the sha256 of ``FleetResult.to_json()`` for one shipped
scenario under one balancer (plus a 64-chip crash-and-autoscale run),
over a window short enough for tier-1.  A router or placement change
that claims "same bytes out" must leave every digest here untouched.
"""

import hashlib

import pytest

from repro.fleet import (
    BALANCERS,
    FleetModelSpec,
    FleetSimulator,
    OpenLoopTraffic,
    build_scenario,
    fixed_profile,
)
from repro.fleet.autoscale import AutoscaleConfig
from repro.fleet.failures import ChipCrash, ChipDegradation, FailureScenario
from repro.fleet.scenarios import FleetScenario
from repro.fleet.traffic import DiurnalShape

#: Simulated window per shipped scenario (ms).  Each one still covers the
#: scenario's point: chip-crash crashes at 400 ms, autoscale-burst scales
#: up and down over its 600 ms wave.
WINDOWS_MS = {
    "fleet-smoke": 200.0,
    "mixed-rate-fleet": 500.0,
    "chip-crash": 1000.0,
    "autoscale-burst": 600.0,
    "diurnal-million": 40.0,
}

GOLDEN = {
    ("fleet-smoke", "least-loaded"):
        "47bb37c32853b84aa4ba09bd2fc60c6f4f08b03ece7ce5e499b52dcf965185a1",
    ("fleet-smoke", "p2c"):
        "2afcdad33b8e2ec6178c3afe5c3d2290f785972171e475ad1ee1e4a026eacfeb",
    ("fleet-smoke", "round-robin"):
        "e045bc591b19349f8a21ef071a9df61902a7bb45fe4ee886ab000e58ca8bc257",
    ("fleet-smoke", "sticky"):
        "84a0eb47a8998dda7f8455e569303e1670a753bb6d31cb2d36f4a97241b9e204",
    ("mixed-rate-fleet", "least-loaded"):
        "e11853076866151318bcd361bb7c5d24f67226de294b3d45ae277b3df4a668bb",
    ("mixed-rate-fleet", "p2c"):
        "9e769516204dfc827e41597f27a625bb9a1c0b0014977c0ea776273e8a2878d3",
    ("mixed-rate-fleet", "round-robin"):
        "9da9615a33946a0a37d81a85c684ffe6d73773fb6536519485cae58b4ea21b3a",
    ("mixed-rate-fleet", "sticky"):
        "ddebd6eb841b7d9a6e8d6be0d8a062f5c73f0ffc32f54b3c34f249b858fef603",
    ("chip-crash", "least-loaded"):
        "a5f78abbe3c0f48dc4224de74a228654e7764896de13a4c41d226040fa491f54",
    ("chip-crash", "p2c"):
        "b71a5b23536ebc0ba89d0de7c039d83c5d41df89e99fd279164eaee2df7472c9",
    ("chip-crash", "round-robin"):
        "b9a0560ec58916933b08378c4c65c839e467615626ace3c44752c10c6ffc7515",
    ("chip-crash", "sticky"):
        "d9e578b5a9fdf7fc2c13e7fd094d56e88c726fb9cff3b0751c491db4c2383f6f",
    ("autoscale-burst", "least-loaded"):
        "afd0c76f92c1d9ea0d6f6cde10d214765f8d59c8728d67ab38d3d172d4a20b94",
    ("autoscale-burst", "p2c"):
        "6ec7a8ddf057bd4d7923ccda0d2934e70f72ebbd31c592e23a68f01da65f81db",
    ("autoscale-burst", "round-robin"):
        "51091732b580888a1b49e5b3ad6967977f681fd7c09f93fd5b53c80ea6f4cdba",
    ("autoscale-burst", "sticky"):
        "7c5fca53bf7270a5baad716dfb6e9887a7dcca8b20b752f9e8993cf94f925bea",
    ("diurnal-million", "least-loaded"):
        "a00a71bb673a664bfd8488340a4d8308ff8ed2c8e1d1c6e56a1aeb0c592439a7",
    ("diurnal-million", "p2c"):
        "4737b1aee20d2a8e16299907db24348f4b1168432690077a92867e6659a24e67",
    ("diurnal-million", "round-robin"):
        "023f33803d052240973fb97bbd5c47220f8a9256210c43912754e018b55c9fe2",
    ("diurnal-million", "sticky"):
        "c194af874bc5bc0e5b8ea8700927e15be51ca48ef7d55312552f51bc8c4543be",
    ("churn-64", "least-loaded"):
        "7a2d1081b3f11fbf11e3d258e67c1cab48ddd740f8c0965cfe462e8ca90d3bdc",
}

CHURN_CHIPS = 64
CHURN_WINDOW_MS = 120.0


def churn_64() -> FleetScenario:
    """64 chips shaped like a churning datacenter: two open-loop models
    starting on a quarter of the chips each, a diurnal wave, four crashes,
    two slow chips and a 5 ms-epoch autoscaler that grows and shrinks the
    placement mid-run."""
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
            replicas=CHURN_CHIPS // 4,
        )
        for name, service_ms, rate_hz in (
            ("detect", 1.0, 30000.0),
            ("rank", 0.6, 40000.0),
        )
    ]
    crashes = [
        ChipCrash(chip=chip, at_ms=CHURN_WINDOW_MS * frac)
        for chip, frac in ((5, 0.2), (21, 0.4), (13, 0.6), (30, 0.8))
    ]
    degradations = [
        ChipDegradation(chip=2, from_ms=30.0, factor=2.0),
        ChipDegradation(chip=2, from_ms=10.0, factor=1.5),
        ChipDegradation(chip=40, from_ms=0.0, factor=3.0),
    ]
    return FleetScenario(
        name="churn-64",
        models=models,
        n_chips=CHURN_CHIPS,
        duration_ms=CHURN_WINDOW_MS,
        balancer="least-loaded",
        failures=FailureScenario(crashes=crashes, degradations=degradations),
        autoscale=AutoscaleConfig(
            epoch_ms=5.0,
            high_utilization=0.75,
            low_utilization=0.25,
            max_replicas=CHURN_CHIPS,
            down_epochs=2,
            cooldown_epochs=1,
        ),
    )


def run_digest(scenario: FleetScenario, balancer: str, window_ms: float) -> str:
    result = FleetSimulator(
        scenario.models,
        scenario.n_chips,
        balancer=balancer,
        seed=0,
        batch_requests=scenario.batch_requests,
        failures=scenario.failures,
        autoscale=scenario.autoscale,
        scenario=scenario.name,
    ).run(window_ms)
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def test_pins_cover_every_scenario_and_balancer():
    shipped = {
        (name, balancer) for name in WINDOWS_MS for balancer in BALANCERS
    }
    assert shipped <= set(GOLDEN)


@pytest.mark.parametrize(
    "name,balancer",
    [key for key in sorted(GOLDEN) if key[0] in WINDOWS_MS],
)
def test_shipped_scenario_bytes(name, balancer):
    scenario = build_scenario(name)
    assert run_digest(scenario, balancer, WINDOWS_MS[name]) == GOLDEN[
        (name, balancer)
    ]


def test_churn_64_bytes():
    scenario = churn_64()
    assert run_digest(
        scenario, scenario.balancer, CHURN_WINDOW_MS
    ) == GOLDEN[("churn-64", "least-loaded")]
