"""Whole-process behaviour of the CLI, each case in a fresh interpreter:
the evaluation bound under a memory limit, and output that does not
depend on the interpreter's hash seed."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import fixture_path

import gradarg
from gradarg import random_attack_graph

SRC = str(Path(gradarg.__file__).resolve().parents[1])
MEMORY_LIMIT = 512 * 1024 * 1024

# Runs the CLI under an address-space limit and reports its peak RSS (KiB)
# as the last line of standard error.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from gradarg.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
raise SystemExit(code)
"""


def run_cli(argv, *, hash_seed="0", limit=None):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    if limit is None:
        command = [sys.executable, "-m", "gradarg.cli", *argv]
    else:
        command = [sys.executable, "-c", LIMITED_CLI.format(limit=limit), *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def write_graph(tmp_path, name, g):
    path = tmp_path / f"{name}.apx"
    path.write_text(g.serialize(), encoding="utf-8")
    return str(path)


class TestEvaluationBound:
    def test_oversized_horizons_fail_fast(self, tmp_path):
        # horizons of about 1,900 over 6,000 attacks
        size = 3000
        path = write_graph(tmp_path, "big", random_attack_graph(5, size, 2 / size))
        start = time.monotonic()
        done = run_cli(["value", path, "--model", "tuples", "--depth", "1"],
                       limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert "evaluation bound" in done.stderr
        assert done.stdout == ""
        assert elapsed < 20

    def test_short_horizons_on_a_large_graph_run(self, tmp_path):
        size = 800
        path = write_graph(tmp_path, "large", random_attack_graph(5, size, 2 / size))
        done = run_cli(["value", path, "--model", "tuples", "--depth", "1"],
                       limit=MEMORY_LIMIT)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == size
        peak_kib = int(done.stderr.split()[-1])
        assert peak_kib < 100 * 1024


CYCLIC = random_attack_graph(9, 30, 0.08)


@pytest.mark.parametrize("command", ["value", "well-defended"])
@pytest.mark.parametrize("source", ["mcycles", "seeded"])
def test_output_is_independent_of_the_hash_seed(tmp_path, command, source):
    if source == "seeded":
        assert not CYCLIC.is_well_founded()
        path = write_graph(tmp_path, "cyclic", CYCLIC)
    else:
        path = str(fixture_path(source))
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        done = run_cli([command, path, "--model", "tuples"], hash_seed=hash_seed)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert outputs.pop()
