"""Self-time arithmetic, the Chrome export and the entry-point wrappers."""

import itertools

import pytest

from perfbench import spans
from repro.telemetry import validate_chrome_trace


def _recorder(ticks):
    clock = iter(ticks)
    return spans.SpanRecorder(clock=lambda: next(clock))


def _record(rec, name, children=()):
    span = rec.open(name)
    for child in children:
        child(rec)
    rec.close(span)
    return span


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    rec = _recorder([0, 1, 2, 3, 4, 5, 9, 10])
    _record(rec, "root", [
        lambda r: _record(r, "a", [lambda r: _record(r, "b")]),
        lambda r: _record(r, "c"),
    ])
    own = spans.self_time_by_name(rec.spans)
    assert own == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(own.values()) == rec.spans[0].duration


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0, 10, [(1, 4), (3, 6)]) == 5
    assert spans.covered(0, 10, [(-5, 2), (8, 15)]) == 4
    assert spans.covered(0, 10, [(2, 3), (2, 3), (1, 9)]) == 8
    assert spans.covered(0, 10, []) == 0


def test_self_time_of_overlapping_children_is_not_negative():
    root = spans.Span(0, "root", 0, None, 0.0, 10.0)
    kids = [spans.Span(1, "x", 0, 0, 1.0, 6.0), spans.Span(2, "x", 0, 0, 4.0, 8.0)]
    own = spans.self_times([root, *kids])
    assert own[0] == 3.0


def test_spans_carry_parent_and_run_id():
    rec = _recorder(itertools.count())
    rec.run = 7
    _record(rec, "root", [lambda r: _record(r, "leaf")])
    root, leaf = rec.spans
    assert (root.parent, leaf.parent) == (None, root.id)
    assert root.run == leaf.run == 7


def test_closing_out_of_order_raises():
    rec = _recorder(itertools.count())
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_chrome_trace_validates():
    rec = _recorder([0.5, 0.6, 0.7, 0.9, 1.0, 1.5])
    _record(rec, "root", [lambda r: _record(r, "a"), lambda r: _record(r, "b")])
    trace = spans.chrome_trace(rec.spans)
    assert validate_chrome_trace(trace) == 4
    root = trace["traceEvents"][1]
    assert root["ts"] == 0 and root["dur"] == pytest.approx(1e6)


def test_instrumenter_wraps_and_restores_entry_points():
    from repro.dse import engine
    from repro.fleet.router import ClusterRouter
    from repro.sim import accounting, backends

    before = (engine.plan_network, backends.plan_network, ClusterRouter.route_all)
    rec = spans.SpanRecorder()
    with spans.Instrumenter(rec):
        assert engine.plan_network is backends.plan_network is accounting.plan_network
        assert engine.plan_network is not before[0]
        assert ClusterRouter.route_all is not before[2]
    assert (engine.plan_network, backends.plan_network, ClusterRouter.route_all) == before
    assert "run" not in vars(backends.AnalyticBackend)


def test_every_span_has_a_self_time_metric_in_the_catalog():
    from perfbench import bench

    listed = set(bench.CATALOG["per_layer"])
    for name in spans.SPAN_NAMES:
        key = f"{name}.self_s"
        assert bench.SPAN_METRIC_ALIASES.get(key, key) in listed
