"""gradarg benchmark: end-to-end metrics per workload, or a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cyclic-tuples, small-classify, large-local, scan (see
bench/README.md).  The run generates its input files from the seed,
measures interpreter set-up, then runs the op set in a fresh child
interpreter under a memory and time limit, checks every output, prints
a digest and, as the last line, one JSON object with the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from reference import SLICE_NOMINAL_S, machine_speed, run_reference  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

WORK_DIR = ".bench_work"
MEMORY_LIMIT_BYTES = 1 << 30  # RLIMIT_AS of every child interpreter
SETUP_STARTS = 9
CHILD_TIME_LIMIT_S = 110
TAIL_BEYOND = 10


def _limit_child():
    # No RLIMIT_CPU: a CPU limit makes the kernel read the process CPU clock
    # from a tick-granular group timer (4 ms steps here), which would
    # quantize every op time.  The wall-clock timeout bounds the child.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(root: str, env: dict) -> tuple[float, float, float]:
    """Median CPU time (user + system) of a fresh interpreter through
    `import gradarg.cli`, put on the nominal machine speed by reference
    slices timed after each start; also the unscaled median and the
    median wall time."""
    argv = [sys.executable, "-c", "import gradarg.cli"]
    times, walls, references = [], [], []
    for k in range(SETUP_STARTS + 1):
        t0, w0 = _children_cpu(), time.perf_counter()
        done = subprocess.run(argv, cwd=root, env=env, preexec_fn=_limit_child,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed, wall = _children_cpu() - t0, time.perf_counter() - w0
        if done.returncode != 0:
            raise RuntimeError("importing gradarg.cli failed: "
                               + done.stderr.decode(errors="replace")[-500:])
        if k:  # the first start may compile bytecode; users pay that once
            times.append(elapsed)
            walls.append(wall)
            reference, slices = run_reference(elapsed)
            references.append({"reference": reference, "slices": slices})
    raw = statistics.median(times)
    return raw / machine_speed(references), raw, statistics.median(walls)


def read_log(path: str):
    """Finished op records, plus the (pass, op) of an op that began but
    never finished (the child died or was killed during it)."""
    finished, started = [], None
    if not os.path.exists(path):
        return finished, started
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                break  # a line cut short by the child's death
            if record.get("started"):
                started = (record["pass"], record["op"])
            else:
                finished.append(record)
                started = None
    return finished, started


def check_outputs(ops, result_dir, first_pass_ok):
    """Problems per op index, from the first pass's outputs; plus the
    number of verdicts the oracles left undecided and an output digest."""
    outputs = {}
    digest = hashlib.sha256()
    for k in sorted(first_pass_ok):
        with open(os.path.join(result_dir, f"op{k}.out"), encoding="utf-8") as handle:
            outputs[k] = handle.read()
        digest.update(outputs[k].encode())
    companions = {checks.companion_key(ops[k]): text for k, text in outputs.items()}
    problems, undecided = {}, 0
    for k, text in outputs.items():
        try:
            found = checks.check_op(ops[k], text, companions)
        except Exception as exc:  # a malformed output must fail its op, not the run
            found = checks.Problems([f"check raised {type(exc).__name__}: {exc}"])
        undecided += found.undecided
        if found:
            problems[k] = list(found)
    return problems, undecided, digest.hexdigest()


def tail(samples):
    """(value, percentile, samples beyond it): the highest percentile with
    at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    fixtures = os.path.join(root, "fixtures")
    if not os.path.isfile(os.path.join(src, "gradarg", "cli.py")) or not os.path.isdir(fixtures):
        print("bench: run from the root of a gradarg checkout (src/gradarg and fixtures/ "
              "not found)", file=sys.stderr)
        return 2

    # Only the latest run is kept: outputs of a cyclic-tuples run reach 50 MB.
    shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{args.trace}")
    inputs_dir = os.path.join(workdir, "inputs")
    result_dir = os.path.join(workdir, "results")
    os.makedirs(inputs_dir)
    os.makedirs(result_dir)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)

    ops, properties = make_plan(args.workload, args.seed, args.seconds, inputs_dir, fixtures)
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump({"ops": ops}, handle)

    setup_s, setup_cpu, setup_wall = measure_setup(root, env)

    child = [sys.executable, os.path.join(BENCH_DIR, "child.py"), plan_path, result_dir,
             str(args.trace)]
    child_error = None
    try:
        done = subprocess.run(child, cwd=root, env=env, preexec_fn=_limit_child,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIME_LIMIT_S)
        if done.returncode != 0:
            child_error = f"child exited {done.returncode}: " + done.stderr.decode(
                errors="replace")[-300:]
    except subprocess.TimeoutExpired:
        child_error = f"child killed after {CHILD_TIME_LIMIT_S} s"

    finished, in_flight = read_log(os.path.join(result_dir, "ops.jsonl"))
    first_pass_ok = {r["op"] for r in finished
                     if r["pass"] == 0 and r["error"] is None and r["exit"] == 0}
    problems, undecided, digest = check_outputs(ops, result_dir, first_pass_ok)

    failures = []
    for r in finished:
        reason = r["error"] or (f"exit code {r['exit']}" if r["exit"] != 0 else None)
        if reason is None and r["op"] in problems:
            reason = "output check: " + "; ".join(problems[r["op"]][:3])
        if reason:
            failures.append((r["pass"], r["op"], reason))
    if in_flight is not None:
        failures.append((in_flight[0], in_flight[1], child_error or "op never finished"))
    attempted = len(finished) + (in_flight is not None)
    if attempted == 0:
        attempted = len(ops)
        failures = [(0, k, child_error or "not run") for k in range(len(ops))]

    untraced = [r for r in finished if not r["traced"]]
    traced = [r for r in finished if r["traced"]]
    speed = machine_speed(untraced)
    latencies = [r["seconds"] / speed for r in untraced]
    passes = len({r["pass"] for r in untraced})

    print(f"bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops_per_pass={len(ops)} passes={len({r['pass'] for r in finished})}")
    for props in properties:
        print("bench: input " + json.dumps(props, sort_keys=True))
    print(f"bench: first-pass output sha256={digest} (informational)")
    print(f"bench: output checks: {len(first_pass_ok)} ops checked, {len(problems)} failed, "
          f"{undecided} verdicts left undecided by the oracles")
    print(f"bench: failed_frac={len(failures) / attempted!r} ({len(failures)} of {attempted})")
    for pass_no, k, reason in failures[:10]:
        print(f"bench: FAILED pass {pass_no} op {k} {ops[k].get('argv') or ops[k]}: {reason}")
    if child_error:
        print(f"bench: {child_error}")

    metrics = {}
    if args.trace == 0:
        if not latencies:
            latencies = [float("nan")]
        value, percentile, beyond = tail(latencies)
        print(f"bench: op_tail_ms is p{percentile:.2f} of {len(latencies)} samples "
              f"({beyond} beyond it)")
        for clock, key in (("unscaled CPU", "seconds"), ("wall clock", "wall")):
            times = [r[key] for r in untraced] or [float("nan")]
            print(f"bench: {clock} (informational): {len(times) / sum(times)!r} ops/s, "
                  f"p50 {1000 * statistics.median(times)!r} ms, "
                  f"tail {1000 * tail(times)[0]!r} ms")
        print(f"bench: machine speed {speed!r} (mean reference slice "
              f"{1000 * speed * SLICE_NOMINAL_S!r} ms, nominal {1000 * SLICE_NOMINAL_S} ms); "
              f"setup: unscaled CPU {setup_cpu!r} s, wall clock {setup_wall!r} s")
        child_info = os.path.join(result_dir, "child.json")
        if os.path.exists(child_info):
            with open(child_info, encoding="utf-8") as handle:
                peak = json.load(handle)["maxrss_mb"]
        else:
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1000.0 * value, "ms"),
            "peak_rss_mb": (peak, "MB"),
        }
    else:
        spans_path = os.path.join(result_dir, "spans.json")
        spans = {"names": [], "name": [], "start": [], "end": [], "parent": [], "op": [],
                 "note": [], "rss_growth_mb": [], "error": {}}
        if os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
        traced_passes = len({r["pass"] for r in traced})
        layers = layer_metrics(spans, traced_passes,
                               sum(r["bytes"] for r in traced) / max(traced_passes, 1))
        traced_op_s = sum(r["seconds"] for r in traced) / max(traced_passes, 1)
        untraced_op_s = sum(r["seconds"] for r in untraced) / max(passes, 1)
        layers["trace.op_time_s"] = untraced_op_s
        layers["trace.overhead_frac"] = (traced_op_s / untraced_op_s - 1
                                         if untraced_op_s else 0.0)
        layers["failed_frac"] = len(failures) / attempted
        gap = layers["trace.self_sum_s"] / untraced_op_s - 1 if untraced_op_s else 0.0
        print(f"bench: per-layer self times sum to {layers['trace.self_sum_s']!r} s per pass, "
              f"{gap:+.4f} of the untraced op time; overhead_frac "
              f"{layers['trace.overhead_frac']:+.4f}")
        shares = sorted(((v / layers["trace.self_sum_s"], k) for k, v in layers.items()
                         if k.endswith("_s") and not k.startswith("trace.")
                         and layers["trace.self_sum_s"]), reverse=True)
        print("bench: share of traced op time: "
              + ", ".join(f"{k} {share:.3f}" for share, k in shares[:6]))
        if ops and ops[0]["kind"] == "scan":
            reported = 0
            for k in first_pass_ok:
                with open(os.path.join(result_dir, f"op{k}.out"), encoding="utf-8") as handle:
                    reported += json.load(handle)["trials_used"]
            print(f"bench: acceptability.scan_trials {layers['acceptability.scan_trials']!r}, "
                  f"sum of trials_used over the reports {reported}")
        units = {"_s": "s", "_calls": "count", "_mb": "MB", "_frac": "ratio", "_bytes": "bytes"}
        for name, value in layers.items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            metrics[name] = (value, unit)

    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
