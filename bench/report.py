"""Print every benchmark metric, with its unit, for every workload.

Usage, from the root of a checkout:

    python3 bench/report.py

Runs bench/run.py with seed 1 and BENCHMARK.json's run_seconds, once
untraced (end-to-end metrics) and once traced (per-layer metrics) per
workload, and prints one line per metric: workload, metric, value, unit.
Takes about five minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, run, "--workload", workload, "--seed", "1",
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload:15s} run failed (exit {done.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{workload:15s} {'correct' if result['correct'] else 'INCORRECT':30s} "
                  f"{result['failed']} of {result['attempted']} ops failed")
            for name, metric in result["metrics"].items():
                print(f"{workload:15s} {name:30s} {metric['value']:.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
