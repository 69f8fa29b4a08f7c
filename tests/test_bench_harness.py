"""``scripts/bench.py``: one budget table and one gate over one row schema.

The bounds are pinned literally so a loosened budget shows up as a test
diff, and :func:`gate` is fed synthetic rows so every gate kind is shown
to fail on a breach without timing anything.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_harness", BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_budgets_table_pins_every_bound(bench):
    assert bench.BUDGETS == {
        "mac/fast_over_reference": 1 / 15,
        "mac_many/per_mac_over_single_mac": 1.0,
        "backends/resnet18/analytic/wall_s": 0.10,
        "backends/resnet18/streaming/wall_s": 0.50,
        "backends/resnet18/event/wall_s": 0.60,
        "backends/resnet18/cycle/wall_s": 10.0,
        "backends/small_cnn/analytic/wall_s": 0.05,
        "backends/small_cnn/streaming/wall_s": 0.05,
        "backends/small_cnn/event/wall_s": 0.10,
        "backends/small_cnn/cycle/wall_s": 1.50,
        "fleet/chips=1/wall_s_per_run": 0.20,
        "fleet/chips=4/wall_s_per_run": 0.80,
        "fleet/chips=16/wall_s_per_run": 3.50,
        "dse/workers=0/wall_s_per_run": 1.0,
        "dse/workers=4/wall_s_per_run": 2.5,
        "dse/distinct_artifacts_minus_1": 0,
        "attribution/overhead_ratio": 1.02,
    }


def test_row_carries_its_budget(bench):
    gated = bench.row("fleet", "chips=4/wall_s_per_run", 0.1, "s")
    assert gated == {
        "bench": "fleet", "metric": "chips=4/wall_s_per_run",
        "value": 0.1, "unit": "s", "budget": 0.80,
    }
    assert "budget" not in bench.row("fleet", "chips=4/requests", 5159, "count")


def _within(bench) -> list:
    """One row per gate, each exactly at its bound, plus an ungated row."""
    rows = [
        bench.row(*key.split("/", 1), budget, "x")
        for key, budget in bench.BUDGETS.items()
    ]
    return rows + [bench.row("mac", "speedup", 1e9, "ratio")]


def test_all_within_budget_passes(bench, capsys):
    assert bench.gate(_within(bench)) == []
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(bench.BUDGETS)
    assert all(line.endswith("OK") for line in printed)


@pytest.mark.parametrize(
    "key, value",
    [
        ("mac/fast_over_reference", 1 / 14),
        ("mac_many/per_mac_over_single_mac", 1.01),
        ("backends/resnet18/event/wall_s", 2.54),
        ("fleet/chips=16/wall_s_per_run", 3.6),
        ("dse/workers=4/wall_s_per_run", 2.6),
        ("attribution/overhead_ratio", 1.03),
        ("dse/distinct_artifacts_minus_1", 1),
    ],
    ids=["mac", "mac-many", "backend", "fleet", "dse-wall", "obs-ratio", "dse-bytes"],
)
def test_breach_fails_and_is_named(bench, capsys, key, value):
    rows = _within(bench)
    for r in rows:
        if f"{r['bench']}/{r['metric']}" == key:
            r["value"] = value
    failures = bench.gate(rows)
    assert [f"{r['bench']}/{r['metric']}" for r in failures] == [key]
    over = [line for line in capsys.readouterr().out.splitlines()
            if line.endswith("OVER BUDGET")]
    assert len(over) == 1 and over[0].startswith(key)
