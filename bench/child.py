"""One workload run, inside a fresh interpreter.

Usage: python3 child.py <plan.json> <result dir> <trace 0|1>

Imports gradarg.cli, then runs the op set of the plan once in a closed
loop: one op at a time, no threads, the next op sent when the previous
one has finished.  Between ops, untimed, the child times a few slices of
a fixed reference computation (reference.py).  Each op's standard
output goes to a file that the output checks read.  With trace 1 a traced pass is followed by an
untraced one, and the spans are written out at the end.  One JSON line
per op goes to ops.jsonl as it finishes, so a run that dies still
accounts for every op it began.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback

OP_TIME_LIMIT_S = 60


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIME_LIMIT_S} s")


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _scan_document(report) -> dict:
    def witness(w):
        if w is None:
            return None
        return {"argument": w.argument, "trial": w.trial,
                "arguments": list(w.graph.arguments),
                "attacks": [list(a) for a in w.graph.attacks]}

    return {"valuation": report.valuation, "trials_used": report.trials_used,
            "cleanly_not_defended": witness(report.cleanly_not_defended),
            "defended_not_cleanly": witness(report.defended_not_cleanly)}


def run_op(op, out_path, cli, acceptability):
    """Run one op with its output going to out_path.

    Returns (CPU seconds, wall seconds, exit code, error or None).  Only
    the library call is timed; for a scan, writing out the report is not.
    Latency is the process's CPU time (user + system) across the call: the
    call is single-threaded and reads and writes only page-cached files,
    and on a virtual machine wall time also counts time the hypervisor
    gives to other guests.
    """
    clock, wall_clock = time.process_time, time.perf_counter
    error, code = None, 0
    saved = sys.stdout, sys.stderr
    out = open(out_path, "w", encoding="utf-8")
    err = open(os.devnull, "w", encoding="utf-8")
    sys.stdout, sys.stderr = out, err
    signal.setitimer(signal.ITIMER_REAL, OP_TIME_LIMIT_S)
    w0, t0 = wall_clock(), clock()
    try:
        if op["kind"] == "cli":
            code = cli.main(op["argv"])
            out.flush()
            elapsed, wall = clock() - t0, wall_clock() - w0
        else:
            report = acceptability.compatibility_scan(
                op["valuation"], seed=op["seed"], trials=op["trials"])
            elapsed, wall = clock() - t0, wall_clock() - w0
            json.dump(_scan_document(report), out)
    except Exception as exc:  # an op's failure is counted, the run goes on
        elapsed, wall = clock() - t0, wall_clock() - w0
        error = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, (OpTimeout, MemoryError)):
            error += " | " + traceback.format_exc(limit=4).replace("\n", " ")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        sys.stdout, sys.stderr = saved
        out.close()
        err.close()
    return elapsed, wall, code, error


def main(argv) -> int:
    plan_path, result_dir, trace = argv[1], argv[2], argv[3] == "1"
    with open(plan_path, encoding="utf-8") as handle:
        ops = json.load(handle)["ops"]
    signal.signal(signal.SIGALRM, _on_alarm)

    import gradarg.acceptability as acceptability
    import gradarg.cli as cli
    from reference import EVERY_S, run_reference

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    log = open(os.path.join(result_dir, "ops.jsonl"), "w", encoding="utf-8")
    first_digest: dict[int, str] = {}
    scratch = os.path.join(result_dir, "scratch.out")

    since_reference = 0.0

    def one_pass(number: int, traced: bool) -> None:
        nonlocal since_reference
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        for k, op in enumerate(ops):
            keep = number == 0
            path = os.path.join(result_dir, f"op{k}.out") if keep else scratch
            if traced:
                tracer.op_id = number * len(ops) + k
            log.write(json.dumps({"pass": number, "op": k, "started": True}) + "\n")
            log.flush()
            gc.collect()  # each op starts from the same collector state
            elapsed, wall, code, error = run_op(op, path, cli, acceptability)
            since_reference += elapsed
            reference, slices = 0.0, 0
            if since_reference >= EVERY_S or k == len(ops) - 1:
                gc.collect()
                reference, slices = run_reference(since_reference)
                since_reference = 0.0
            digest = _digest(path)
            if keep:
                first_digest[k] = digest
            elif error is None and digest != first_digest.get(k):
                error = "output differs from the first pass"
            log.write(json.dumps({"pass": number, "op": k, "traced": traced,
                                  "seconds": elapsed, "wall": wall, "exit": code, "error": error,
                                  "bytes": os.path.getsize(path),
                                  "reference": reference, "slices": slices}) + "\n")
            log.flush()

    if tracer is None:
        one_pass(0, False)
    else:
        # A traced pass, then an untraced pass over the same ops: the second
        # must reproduce the first's outputs byte for byte, and the two op
        # times give the tracing overhead.  The first pass is the traced one
        # so that the tuple_eval memory rise shows.
        one_pass(0, True)
        one_pass(1, False)
        tracer.uninstall()
        tracer.dump(os.path.join(result_dir, "spans.json"))
    log.close()
    with open(os.path.join(result_dir, "child.json"), "w", encoding="utf-8") as handle:
        json.dump({"maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
                  handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
