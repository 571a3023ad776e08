"""The reference computation that puts op times on a fixed machine speed.

On a shared virtual machine the CPU time of a fixed computation drifts by
tens of percent over minutes, as other guests load the host.  The child
runs a few slices of the fixed computation below after every quarter
second of op time and times them with the same clock.  A run's machine speed is the mean time of
a slice over the run divided by SLICE_NOMINAL_S, and every op time is
divided by it: the end-to-end times are CPU times on a machine where one
slice takes SLICE_NOMINAL_S.  The computation is the benchmark's own code,
so no change to gradarg changes its cost.
"""

from __future__ import annotations

import gc
import time

SLICE_NOMINAL_S = 0.0025
EVERY_S = 0.25  # op CPU seconds between two reference runs
SHARE = 0.1  # reference time, as a share of the op time since the last one
MAX_SLICES = 40


def reference_slice() -> int:
    """Graph-shaped interpreter work, about 2.5 ms of CPU: depth-first
    reachability from 15 roots of a 211-node digraph of out-degree 3,
    each followed by a keyed sort of the depths."""
    succ = {v: [(v * 7 + 3) % 211, (v * 13 + 5) % 211, (v * 31 + 1) % 211] for v in range(211)}
    total = 0
    for root in range(0, 211, 15):
        seen = {root}
        stack = [root]
        depth = {root: 0}
        while stack:
            v = stack.pop()
            for w in succ[v]:
                if w not in seen:
                    seen.add(w)
                    depth[w] = depth[v] + 1
                    stack.append(w)
        order = sorted(depth.items(), key=lambda kv: (kv[1], -kv[0]))
        total += sum(d * v for v, d in order[:50]) + len(seen)
    return total


def run_reference(op_seconds: float) -> tuple[float, int]:
    """Time slices worth about SHARE of op_seconds of op time (at least
    one), after one untimed slice that refills the caches the ops
    evicted.  The collector is off meanwhile, so the slices' cost does not
    depend on what the op left on the heap.  Returns (CPU seconds, slices)."""
    count = max(1, min(MAX_SLICES, round(SHARE * op_seconds / SLICE_NOMINAL_S)))
    gc.disable()
    try:
        reference_slice()
        t0 = time.process_time()
        for _ in range(count):
            reference_slice()
        return time.process_time() - t0, count
    finally:
        gc.enable()


def machine_speed(records) -> float:
    """Mean slice time over the ops' records, in units of SLICE_NOMINAL_S:
    above 1 the machine ran slower than nominal."""
    seconds = sum(r["reference"] for r in records)
    slices = sum(r["slices"] for r in records)
    return seconds / (slices * SLICE_NOMINAL_S) if slices else float("nan")
