"""Scale record: the large ROADMAP tuple cases, reported and never gated.

Usage, from the root of a checkout:

    python3 bench/scale.py

Runs `gradarg value <graph> --model tuples --depth 1` on
random_attack_graph(5, n, 2/n) for n = 200, 400 and 800, each in a fresh
interpreter under RLIMIT_AS (1 GiB) and a 120 s wall-time limit, and
prints one JSON line per case: wall seconds, peak RSS, and whether it
finished, ran out of memory or out of time.  The n=800 case (about 3.5 GB
on the seed code) fails on memory instead of exhausting the machine.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import roadmap_graph  # noqa: E402

CASES = (200, 400, 800)
MEMORY_LIMIT_MB = 1024
TIME_LIMIT_S = 120.0
CHILD = (
    "import json, resource, sys\n"
    "from gradarg.cli import main\n"
    "sys.stdout = open(sys.argv[1], 'w')\n"
    "code = main(sys.argv[2:])\n"
    "sys.stdout.close()\n"
    "sys.stderr.write(json.dumps({'maxrss_mb': "
    "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}) + '\\n')\n"
    "sys.exit(code)\n"
)


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gradarg", "cli.py")):
        print("scale: run from the root of a gradarg checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".bench_work", "scale")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    limit = MEMORY_LIMIT_MB << 20

    def limits():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for n in CASES:
        graph = os.path.join(workdir, f"roadmap{n}.apx")
        with open(graph, "w", encoding="utf-8") as handle:
            handle.write(roadmap_graph(5, n, 2 / n).apx())
        argv = [sys.executable, "-c", CHILD, os.path.join(workdir, f"roadmap{n}.out"),
                "value", graph, "--model", "tuples", "--depth", "1"]
        record = {"case": f"random_attack_graph(5, {n}, {2 / n}) --depth 1",
                  "memory_limit_mb": MEMORY_LIMIT_MB, "time_limit_s": TIME_LIMIT_S}
        t0 = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=root, env=env, preexec_fn=limits,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=TIME_LIMIT_S)
            record["wall_s"] = time.perf_counter() - t0
            err = done.stderr.decode(errors="replace")
            if done.returncode == 0:
                record["outcome"] = "finished"
                record.update(json.loads(err.strip().splitlines()[-1]))
            else:
                record["outcome"] = "out of memory" if "MemoryError" in err else \
                    f"exit {done.returncode}"
        except subprocess.TimeoutExpired:
            record["wall_s"] = time.perf_counter() - t0
            record["outcome"] = "out of time"
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
