"""The percentile rule and the benchmark's metric catalog."""

import json
import statistics
from pathlib import Path

import pytest

from perfbench import stats

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (240, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_interpolates_like_numpy_linear():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 95) == pytest.approx(4.8)
    assert stats.median([1.0, 2.0, 3.0, 10.0]) == statistics.median([1.0, 2.0, 3.0, 10.0])


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_git_commit_without_a_repository(tmp_path):
    assert stats.git_commit(tmp_path) == "unknown"


def test_benchmark_json_agrees_with_the_catalog():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalog = json.loads((ROOT / "perfbench" / "catalog.json").read_text())
    gated = [k for k, v in catalog["end_to_end"].items() if v["gated"]]
    assert [m["name"] for m in bench["end_to_end"]] == gated
    assert [m["name"] for m in bench["per_layer"]] == list(catalog["per_layer"])
    for section in ("end_to_end", "per_layer"):
        for metric in bench[section]:
            entry = catalog[section][metric["name"]]
            assert (metric["unit"], metric["better"]) == (entry["unit"], entry["better"])
    assert [w["name"] for w in bench["workloads"]] == list(catalog["workloads"])
    for metric in catalog["end_to_end"].values():
        assert metric["kind"] in ("host", "simulated", "check")
        assert metric["workloads"] == "all" or set(metric["workloads"]) <= set(catalog["workloads"])


def test_reference_speed_uses_the_calibrations_either_side():
    ref = stats.CAL_REF_S
    # A host at half the reference speed doubles both the kernel and the work.
    assert stats.at_reference_speed(4.0, 2 * ref) == pytest.approx(2.0)
    # Operation i sits between calibrations i and i + 1.
    got = stats.flanked_at_reference_speed([3.0, 6.0], [ref, 2 * ref, 4 * ref])
    assert got == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError):
        stats.flanked_at_reference_speed([1.0, 1.0], [ref, ref])


def test_calibration_kernel_takes_cpu_time():
    assert stats.calibrate() > 0.0
