"""Host-time spans around the calls into each layer's public entry points.

The recorder lives in the benchmark, not in the program: :class:`Instrumenter`
swaps each entry point listed in :data:`ENTRY_POINTS` for a wrapper that
opens a span (or only counts calls) and restores the originals on exit.
Spans are kept in memory and exported once, at the end, as Chrome
trace events.

A span's *self time* is its duration minus the part of it that its direct
child spans cover, so the self times of one root span's tree add up to the
root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call: name, host interval (seconds), parent span and run id."""

    id: int
    name: str
    run: int
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """Collects spans and call counts in memory."""

    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    run: int = 0
    _stack: List[Span] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.run, parent, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the coverage of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    out: Dict[str, float] = {}
    own = self_times(spans)
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


def chrome_trace(spans: Sequence[Span], *, process: str = "perfbench") -> Dict[str, object]:
    """Complete ("X") events in microseconds from the first span's start."""
    t0 = min((s.start for s in spans), default=0.0)
    events: List[Dict[str, object]] = [
        {"ph": "M", "ts": 0, "pid": 1, "tid": 0, "name": "process_name",
         "args": {"name": process}},
    ]
    for s in sorted(spans, key=lambda s: (s.start, s.id)):
        events.append({
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": 0,
            "name": s.name,
            "args": {"span": s.id, "parent": s.parent, "run": s.run},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- entry points ---------------------------------------------------------------

#: ``(target, metric prefix, mode)``; ``target`` is ``module:attr`` or
#: ``module:Class.method``.  ``span`` records a span (self time and
#: calls), ``count`` only counts calls.  A module-level function is
#: replaced in every ``repro`` module that imported it by name.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # cycle tier
    ("repro.core.functional:FunctionalNodeGroup.run", "core.functional.run", "span"),
    ("repro.sim.backends:CycleBackend.run", "sim.cycle.run", "span"),
    # mapping -> preflight -> segment engine -> energy
    ("repro.sim.accounting:plan_network", "sim.plan_network", "span"),
    ("repro.mapping.tiling:tile_network", "mapping.tile_network", "span"),
    ("repro.analysis.system:analyze_plan", "analysis.analyze_plan", "span"),
    ("repro.sim.backends:AnalyticBackend.run", "sim.analytic.run", "span"),
    ("repro.sim.backends:StreamingBackend.run", "sim.streaming.run", "span"),
    ("repro.core.streaming:SegmentSimulator.run", "core.streaming.run", "span"),
    ("repro.energy.power:EnergyModel.breakdown", "energy.breakdown", "span"),
    ("repro.energy.area:area_breakdown", "energy.area_breakdown", "span"),
    # design-space sweep
    ("repro.dse.spec:SweepSpec.expand", "dse.expand", "span"),
    ("repro.dse.engine:evaluate_point", "dse.evaluate_point", "span"),
    ("repro.dse.engine:network_baselines", "dse.network_baselines", "span"),
    ("repro.dse.result:DSEResult.to_json", "dse.to_json", "span"),
    ("repro.utils.parallel:run_sharded", "utils.parallel.run_sharded", "span"),
    # fleet: arrivals -> router -> chip loops -> rollup
    ("repro.fleet.simulator:FleetSimulator.run", "fleet.rollup", "span"),
    ("repro.fleet.traffic:generate_open_arrivals", "fleet.generate_open_arrivals", "span"),
    ("repro.fleet.placement:place_replicas", "fleet.place_replicas", "span"),
    ("repro.fleet.router:ClusterRouter.route_all", "fleet.router.route_all", "span"),
    ("repro.fleet.router:ClusterRouter.live_candidates", "fleet.router.live_candidates", "count"),
    ("repro.fleet.placement:FleetPlacement.add", "fleet.placement.write", "span"),
    ("repro.fleet.placement:FleetPlacement.remove", "fleet.placement.write", "span"),
    ("repro.fleet.placement:FleetPlacement.evict_chip", "fleet.placement.write", "span"),
    ("repro.fleet.simulator:run_chip", "fleet.run_chip", "span"),
    ("repro.serving.simulator:ServingSimulator.open", "serving.open", "span"),
    ("repro.utils.events:EventQueue.run", "utils.events.run", "span"),
    ("repro.serving.chip:ChipHandle.finish", "serving.finish", "span"),
)

#: Operation counters read off ``FunctionalNodeGroup.stats`` around each run.
FUNCTIONAL_COUNTERS = ("macs", "vectors_streamed", "row_transfers")

SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(name for _, name, mode in ENTRY_POINTS if mode == "span")
)


def _resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute, original)`` for one ENTRY_POINTS target."""
    module_name, path = target.split(":")
    owner: object = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class Instrumenter:
    """Context manager that wraps every entry point around one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []

    def _wrap(self, fn: Callable, name: str, mode: str) -> Callable:
        rec = self.recorder
        if mode == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                rec.count(f"{name}.calls")
                return fn(*args, **kwargs)
            return counted
        if name == "core.functional.run":
            @functools.wraps(fn)
            def functional(group, *args, **kwargs):
                before = [getattr(group.stats, c) for c in FUNCTIONAL_COUNTERS]
                span = rec.open(name)
                try:
                    return fn(group, *args, **kwargs)
                finally:
                    rec.close(span)
                    for c, b in zip(FUNCTIONAL_COUNTERS, before):
                        rec.count(f"core.functional.{c}", getattr(group.stats, c) - b)
            return functional

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(span)
        return spanned

    def _set(self, owner: object, attr: str, value: object) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append(
            (lambda: setattr(owner, attr, old)) if had else (lambda: delattr(owner, attr))
        )

    def __enter__(self) -> "Instrumenter":
        try:
            for target, name, mode in ENTRY_POINTS:
                owner, attr, original = _resolve(target)
                wrapper = self._wrap(original, name, mode)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                    continue
                # A function: rebind it wherever a repro module imported it.
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "repro" or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        while self._undo:
            self._undo.pop()()
