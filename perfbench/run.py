#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload dse-frontier --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (spans around each layer's entry points, written as a
Chrome trace under ``perfbench/out/``).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("cycle-r18", "dse-frontier", "fleet-diurnal", "fleet-churn")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up times as JSON and exit")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    if args.setup_only:
        bench.set_up(args.workload, args.seed)
        print(json.dumps(bench.setup_sample(STARTED)))
        return 0
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), STARTED)


if __name__ == "__main__":
    sys.exit(main())
