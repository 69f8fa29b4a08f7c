"""Order statistics, the host-speed calibration, and the host description
every result row carries."""

from __future__ import annotations

import heapq
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples a percentile needs beyond it before it may be reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    With ``n`` samples, percentile ``q`` has ``n * (100 - q) / 100``
    samples above it; ``None`` when not even the median qualifies.
    """
    best = None
    for q in TAIL_LADDER:
        # Integer arithmetic on tenths of a percent keeps 99.9 exact.
        if n * round((100.0 - q) * 10) >= MIN_BEYOND * 1000:
            best = q
    return best


#: Iterations of the calibration kernel.
CAL_ITEMS = 120_000

#: CPU seconds the calibration kernel takes on the reference host.  About
#: what it takes on a quiet 2-vCPU x86-64 virtual machine with Python 3.11.
CAL_REF_S = 0.1


def calibrate() -> float:
    """CPU seconds this process needs for a fixed heap-and-dict kernel now.

    The kernel calls nothing from the program, so no change to the program
    moves it; it moves only with how fast the host runs this process, which
    on a shared virtual machine swings by tens of percent within minutes.
    Heap pushes and dict updates are what the simulators' event loops do
    most, so the kernel and the workloads slow down together.
    """
    heap: List[Tuple[int, int]] = []
    counts: Dict[int, int] = {}
    t0 = time.process_time()
    for i in range(CAL_ITEMS):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        counts[i & 4095] = counts.get(i & 4095, 0) + 1
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.process_time() - t0


def at_reference_speed(cpu_s: float, cal_s: float) -> float:
    """``cpu_s``, measured while the kernel took ``cal_s``, scaled to the
    reference host, where the kernel takes ``CAL_REF_S``."""
    return cpu_s * CAL_REF_S / cal_s


def flanked_at_reference_speed(cpus: Sequence[float], cals: Sequence[float]) -> List[float]:
    """Each of ``cpus`` at reference speed, against the mean of the two
    calibrations taken just before and just after it."""
    if len(cals) != len(cpus) + 1:
        raise ValueError(f"{len(cpus)} timings need {len(cpus) + 1} calibrations, got {len(cals)}")
    return [at_reference_speed(c, (a + b) / 2) for c, a, b in zip(cpus, cals, cals[1:])]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """HEAD of ``root``'s own ``.git`` directory, or ``"unknown"``.

    Reads the files directly so the lookup never leaves ``root`` (a
    plain source checkout without ``.git`` reports ``"unknown"``).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> Dict[str, object]:
    """The machine fields every result row carries."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
    }
