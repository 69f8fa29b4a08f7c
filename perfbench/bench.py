"""Run one workload: set up, time its operations, check outputs, report.

Untraced (``trace=False``) runs print every end-to-end metric; traced runs
time half of the budget untraced and half with :class:`spans.Instrumenter`
installed, and print every per-layer metric plus the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

from repro import telemetry
from repro.errors import ReproError, TelemetryError

from perfbench import spans, stats
from perfbench.workloads import WORKLOADS, OpOutcome, Workload

ROOT = Path(__file__).resolve().parent.parent
CATALOG = json.loads((Path(__file__).parent / "catalog.json").read_text())
TRACE_DIR = Path(__file__).parent / "out"

#: Fresh processes whose set-up time is measured (this one included).
SETUP_SAMPLES = 3

#: Per-layer metric names that differ from ``<span>.self_s`` / ``<span>.calls``.
SPAN_METRIC_ALIASES = {
    "fleet.placement.write.self_s": "fleet.placement.write_s",
    "fleet.placement.write.calls": "fleet.placement.writes",
}

ROOT_SPAN = "op"


def set_up(name: str, seed: int) -> Workload:
    workload = WORKLOADS[name](seed)
    workload.warm()
    return workload


def setup_sample(started: float) -> Dict[str, float]:
    """This process's set-up so far: wall seconds since ``started``, CPU
    seconds since the process began, and those at reference host speed."""
    wall = time.perf_counter() - started
    cpu = time.process_time()
    return {"wall_s": wall, "cpu_s": cpu, "ref_s": stats.at_reference_speed(cpu, stats.calibrate())}


def setup_samples(name: str, seed: int, count: int) -> List[Dict[str, float]]:
    """:func:`setup_sample` of ``count`` fresh processes, one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", name, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


@dataclass
class Timed:
    """What :func:`time_ops` measured, one entry per operation."""

    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    #: Calibration CPU seconds before the first operation and after each one.
    cals: List[float] = field(default_factory=list)
    outcomes: List[OpOutcome] = field(default_factory=list)


def time_ops(
    workload: Workload,
    seconds: float,
    wrap: Optional[Callable[[int], ContextManager[object]]] = None,
) -> Timed:
    """Run operations until the next one would end past ``seconds``.

    Records each operation's host wall seconds, its CPU seconds in this
    process and its outcome, and runs :func:`stats.calibrate` before the
    first operation and after each one, outside the timed region.  At
    least one operation always runs; ``wrap(i)`` (a context manager
    factory) surrounds operation ``i`` when given.
    """
    timed = Timed(cals=[stats.calibrate()])
    start = time.perf_counter()
    while True:
        gc.collect()
        ctx = wrap(len(timed.walls)) if wrap is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        c0 = time.process_time()
        with ctx:
            try:
                result: object = workload.op()
            except ReproError as exc:
                result = exc
        timed.cpus.append(time.process_time() - c0)
        wall = time.perf_counter() - t0
        timed.walls.append(wall)
        timed.outcomes.append(workload.outcome(result))
        timed.cals.append(stats.calibrate())
        if time.perf_counter() - start + wall / 2 >= seconds:
            return timed


def check_outcomes(outcomes: List[OpOutcome]) -> List[str]:
    problems = [p for o in outcomes for p in o.problems]
    digests = {o.digest for o in outcomes}
    if len(digests) > 1:
        problems.append(f"simulated outputs differ across operations ({len(digests)} digests)")
    return problems


def mean(values: List[float]) -> float:
    return sum(values) / len(values)


@contextlib.contextmanager
def _root_span(recorder: spans.SpanRecorder, run: int) -> Iterator[None]:
    """One root span per operation, tagged with the operation's run id."""
    recorder.run = run
    span = recorder.open(ROOT_SPAN)
    try:
        yield
    finally:
        recorder.close(span)


def end_to_end(
    workload: Workload,
    timed: Timed,
    setup: List[Dict[str, float]],
    error_rate: float,
) -> Dict[str, float]:
    walls, outcomes = timed.walls, timed.outcomes
    metrics: Dict[str, float] = {
        "cpu_ref_s": stats.median(stats.flanked_at_reference_speed(timed.cpus, timed.cals)),
        "wall_s": stats.median(walls),
        "cpu_s": stats.median(timed.cpus),
        "host_speed": stats.CAL_REF_S / stats.median(timed.cals),
        "setup_s": stats.median([s["ref_s"] for s in setup]),
        "setup_wall_s": stats.median([s["wall_s"] for s in setup]),
        "peak_rss_mb": stats.peak_rss_mb(),
        "error_rate": error_rate,
        workload.rate_metric: stats.median([o.items / w for o, w in zip(outcomes, walls)]),
    }
    samples = [s for o in outcomes for s in o.item_seconds]
    if samples:
        if (stats.tail_percentile(len(samples)) or 0.0) < 95.0:
            raise RuntimeError(f"{len(samples)} item samples cannot support a p95")
        metrics["point_ms_p50"] = 1e3 * stats.percentile(samples, 50.0)
        metrics["point_ms_p95"] = 1e3 * stats.percentile(samples, 95.0)
    last = outcomes[-1]
    for key in ("sim_p99_ms", "sim_miss_frac", "sim_latency_ms",
                "paper_latency_err_pct", "paper_power_err_pct"):
        if key in last.simulated:
            metrics[key] = last.simulated[key]
    return metrics


def per_layer(
    recorder: spans.SpanRecorder,
    traced: List[float],
    untraced: List[float],
    outcomes: List[OpOutcome],
) -> Tuple[Dict[str, float], List[str]]:
    """Per-operation means of every per-layer metric, and failed checks.

    Layers a workload never calls read 0.
    """
    n = len(traced)
    measured: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for s in recorder.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    own = spans.self_time_by_name(recorder.spans)
    for name in spans.SPAN_NAMES:
        for stat, value in (("self_s", own.get(name, 0.0)), ("calls", calls.get(name, 0))):
            key = f"{name}.{stat}"
            measured[SPAN_METRIC_ALIASES.get(key, key)] = value / n
    for key, count in recorder.counts.items():
        measured[key] = count / n
    for key in outcomes[0].counts:
        measured[key] = mean([o.counts[key] for o in outcomes])
    measured["other.self_s"] = own.get(ROOT_SPAN, 0.0) / n
    measured["trace.wall_s"] = sum(s.duration for s in recorder.spans if s.name == ROOT_SPAN) / n
    measured["trace.untraced_wall_s"] = mean(untraced)
    measured["trace.overhead"] = measured["trace.wall_s"] / measured["trace.untraced_wall_s"]

    metrics = {key: measured.get(key, 0.0) for key in CATALOG["per_layer"]}
    problems = []
    # Every span's self time must be reported, or the sum below cannot hold.
    unlisted = sorted(k for k in measured if k.endswith("self_s") and k not in metrics)
    if unlisted:
        problems.append(f"self times measured but not in the catalog: {unlisted}")
    parts = sum(v for k, v in metrics.items() if k.endswith("self_s") or k.endswith("write_s"))
    if abs(parts - metrics["trace.wall_s"]) > 1e-9 * max(1.0, metrics["trace.wall_s"]):
        problems.append(
            f"self times add up to {parts!r} s, not the traced wall {metrics['trace.wall_s']!r} s"
        )
    return metrics, problems


def write_trace(
    recorder: spans.SpanRecorder, name: str, seed: int
) -> Tuple[Optional[Path], List[str]]:
    """Validate the spans as a Chrome trace and write them under ``out/``."""
    trace = spans.chrome_trace(recorder.spans, process=f"perfbench {name}")
    try:
        telemetry.validate_chrome_trace(trace)
    except TelemetryError as exc:
        return None, [f"span trace is not a valid Chrome trace: {exc}"]
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(trace))
    return path, []


def run(name: str, seed: int, seconds: float, trace: bool, started: float) -> int:
    """Run one workload in this process; print the report; return the exit code."""
    workload = set_up(name, seed)
    setup = [setup_sample(started)]
    problems: List[str] = []
    if not isinstance(telemetry.current(), telemetry.NullSink):
        problems.append(f"ambient telemetry sink is {type(telemetry.current()).__name__}, not NullSink")

    if trace:
        untraced = time_ops(workload, seconds / 2)
        recorder = spans.SpanRecorder()
        with spans.Instrumenter(recorder):
            traced = time_ops(workload, seconds / 2, wrap=lambda i: _root_span(recorder, i))
        stretches = [untraced, traced]
    else:
        setup += setup_samples(name, seed, SETUP_SAMPLES - 1)
        stretches = [time_ops(workload, seconds)]
    walls = [w for t in stretches for w in t.walls]
    outcomes = [o for t in stretches for o in t.outcomes]

    problems += check_outcomes(outcomes)
    problems += workload.final_checks()
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + len(problems)

    if trace:
        metrics, more = per_layer(recorder, traced.walls, untraced.walls, traced.outcomes)
        path, bad_trace = write_trace(recorder, name, seed)
        more += bad_trace
        failed += len(more)
        problems += more
        section = "per_layer"
    else:
        metrics = end_to_end(workload, stretches[0], setup, failed / attempted)
        path = None
        section = "end_to_end"

    catalog = CATALOG[section]
    print(f"perfbench {name}: seed={seed}{'' if workload.seeded else ' (unused)'} "
          f"trace={int(trace)} ops={len(walls)} measured={sum(walls):.2f}s")
    for key, value in metrics.items():
        entry = catalog[key]
        print(f"  {key:<38} {value:>16.6g} {entry['unit']:<6} {entry['kind']}")
    if path is not None:
        print(f"  span trace: {path.relative_to(ROOT)} ({len(recorder.spans)} spans)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    row = {
        "workload": name,
        "seed": seed,
        "seeded": workload.seeded,
        "trace": int(trace),
        "ops": len(walls),
        "op_wall_s": walls,
        "op_cpu_s": [c for t in stretches for c in t.cpus],
        "op_cal_s": [t.cals for t in stretches],
        "setup": setup,
        "digest": outcomes[-1].digest,
        "simulated": outcomes[-1].simulated,
        "problems": problems,
        **stats.environment(ROOT),
        "metrics": {k: {"value": v, "unit": catalog[k]["unit"], "kind": catalog[k]["kind"]}
                    for k, v in metrics.items()},
    }
    print(json.dumps({"row": row}, sort_keys=True))

    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": catalog[k]["unit"]}
                    for k, v in metrics.items() if k in listed},
    }))
    return 0 if failed == 0 else 1
