"""The CLI prints the same bytes under every CPython from 3.10 on.

Float values of the local evaluators depend on how floats are rounded:
`sum()` of floats changed in 3.12 to compensated summation, so the
categoriser sums with `math.fsum`, which rounds correctly on every
version; tupled values hold big integer counts.  These checks run
`value --model categoriser` and `value --model tuples --depth 3` on
every cyclic case of the frozen-digest set under each other CPython
3.10+ that starts, importing the package from src/, and compare the
output with the running interpreter's.  They skip when no other
interpreter starts.

For each minor version the first candidate that starts and reports that
version is used: `python3.X` on PATH, then every pyenv installation
`$PYENV_ROOT/versions/3.X.*/bin/python3.X` (PYENV_ROOT defaults to
~/.pyenv).  A pyenv shim exits with code 127 unless its version is
active; trying the installations too compares every installed version
without setting PYENV_VERSION.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_frozen_tuples import cases

from gradarg import parse_framework

SRC = Path(__file__).resolve().parent.parent / "src"
PYENV_ROOT = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
RENDER = """
import sys
from gradarg.cli import main
options = sys.argv[1].split()
for path in sys.argv[2:]:
    print(path)
    main(["value", path, *options])
"""


def _run(python, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([python, *argv], env=env, capture_output=True, timeout=300)


def _version(python):
    """(major, minor) of an interpreter that starts, else None."""
    try:
        done = _run(python, ["-c", "import sys; print(*sys.version_info[:2])"])
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return tuple(map(int, done.stdout.split()))


@pytest.fixture(scope="module")
def other_pythons():
    found = {}
    for minor in range(10, 20):
        if (3, minor) == sys.version_info[:2]:
            continue
        candidates = [shutil.which(f"python3.{minor}"),
                      *sorted(PYENV_ROOT.glob(f"versions/3.{minor}.*/bin/python3.{minor}"))]
        for path in filter(None, candidates):
            if _version(path) == (3, minor):
                found[(3, minor)] = str(path)
                break
    return found


def assert_same_output(other_pythons, tmp_path, options):
    if not other_pythons:
        pytest.skip("no other CPython 3.10+ on PATH")
    paths = []
    for index, text in enumerate(cases().values()):
        if not parse_framework(text).is_well_founded():
            path = tmp_path / f"case{index}.apx"
            path.write_text(text)
            paths.append(str(path))
    assert len(paths) > 40
    here = _run(sys.executable, ["-c", RENDER, options, *paths])
    assert here.returncode == 0, here.stderr
    for version, python in other_pythons.items():
        there = _run(python, ["-c", RENDER, options, *paths])
        assert there.returncode == 0, (version, there.stderr)
        assert there.stdout == here.stdout, f"Python {version} ({python}) prints other values"


def test_cyclic_categoriser_values_match_across_interpreters(other_pythons, tmp_path):
    assert_same_output(other_pythons, tmp_path, "--model categoriser")


def test_cyclic_tuple_values_match_across_interpreters(other_pythons, tmp_path):
    assert_same_output(other_pythons, tmp_path, "--model tuples --depth 3")
