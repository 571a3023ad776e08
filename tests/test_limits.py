"""Whole-process behaviour, each case in a fresh interpreter: the input,
evaluation and fixpoint bounds under a memory limit, and output that does
not depend on the interpreter's hash seed."""

import itertools
import json
import os
import random
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import fixture_path

import gradarg
from gradarg import (LISTING_BOUND, READ_BOUND, AttackGraph, compare, evaluate_cyclic,
                     generate_family, random_attack_graph, well_defended)
from gradarg.cli import INPUT_BOUND

SRC = str(Path(gradarg.__file__).resolve().parents[1])
MEMORY_LIMIT = 512 * 1024 * 1024

# Runs the CLI under an address-space limit and reports its own peak RSS
# (KiB) as the last line of standard error.  That is the kernel's VmHWM,
# which exec starts afresh; ru_maxrss would also carry the peak of the
# process that forked it.
LIMITED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from gradarg.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(peak, file=sys.stderr)
raise SystemExit(code)
"""


# Prints the tie groups of the rooted labelling's preorder, whose order
# within a group follows the key order of the value map.
LABEL_RANKING = """
import sys
from gradarg import TotalPreorder, evaluate_local, parse_framework, rooted_labelling
with open(sys.argv[1], encoding="utf-8") as handle:
    values = evaluate_local(parse_framework(handle.read()), rooted_labelling())
print(TotalPreorder(values).ranking())
"""


def run_python(args, *, hash_seed="0", stdin=None, env=()):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed, **dict(env))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, stdin=stdin)


def run_cli(argv, *, hash_seed="0", limit=None, stdin=None, env=()):
    if limit is None:
        return run_python(["-m", "gradarg.cli", *argv], hash_seed=hash_seed,
                          stdin=stdin, env=env)
    return run_python(["-c", LIMITED_CLI.format(limit=limit), *argv],
                      hash_seed=hash_seed, stdin=stdin, env=env)


def peak_kib(done) -> int:
    """The peak RSS, in KiB, that a LIMITED_CLI run reports last."""
    return int(done.stderr.split()[-1])


def write_graph(tmp_path, name, g):
    path = tmp_path / f"{name}.apx"
    path.write_text(g.serialize(), encoding="utf-8")
    return str(path)


def skip_chain(size):
    """a_k is attacked by a_(k-1) and a_(k-2): about size**2 runs in all."""
    return ("".join(f"arg(a{k}).\n" for k in range(size))
            + "".join(f"att(a{j},a{k}).\n"
                      for k in range(size) for j in (k - 2, k - 1) if j >= 0))


def ladder(layers):
    """Two arguments a layer, each attacking both arguments of the next:
    2**L walks of each length L."""
    return ("".join(f"arg(x{k}).\narg(y{k}).\n" for k in range(layers))
            + "".join(f"att({s}{k},{t}{k + 1}).\n"
                      for k in range(layers - 1) for s in "xy" for t in "xy"))


def comb(teeth):
    """A chain a_(k-1) -> a_k with a fresh leaf l_k attacking each a_k:
    about teeth**2 / 2 runs, nearly all of count 1."""
    return ("".join(f"arg(a{k}).\narg(l{k}).\n" for k in range(teeth))
            + "".join(f"att(l{k},a{k}).\n" for k in range(teeth))
            + "".join(f"att(a{k - 1},a{k}).\n" for k in range(1, teeth)))


def mutual_pairs(budget):
    """Disjoint mutual attacks a_k <-> b_k, as many as fit in `budget`
    bytes, and their number."""
    chunks, size, pairs = [], 0, 0
    while True:
        a, b = f"a{pairs}", f"b{pairs}"
        chunk = f"arg({a}).\narg({b}).\natt({a},{b}).\natt({b},{a}).\n"
        if size + len(chunk) > budget:
            return "".join(chunks), pairs
        chunks.append(chunk)
        size += len(chunk)
        pairs += 1


def shortest_declarations(budget):
    """Declarations of distinct names, one a line, the shortest first
    (`arg(a).`, ..., `arg(z).`, `arg(aa).`, ...), as many as fit in
    `budget` bytes, and their number."""
    chunks, size = [], 0
    for length in itertools.count(1):
        for letters in itertools.product(string.ascii_lowercase, repeat=length):
            chunk = f"arg({''.join(letters)}).\n"
            if size + len(chunk) > budget:
                return "".join(chunks), len(chunks)
            chunks.append(chunk)
            size += len(chunk)


def fed_chain(budget):
    """A 3-cycle c0 -> c1 -> c2 -> c0 whose c0 attacks the head of a chain
    x0 -> x1 -> ..., with as many links as fit in `budget` bytes, and
    their number."""
    head = "arg(c0).\narg(c1).\narg(c2).\natt(c0,c1).\natt(c1,c2).\natt(c2,c0).\n"
    chunks, size, links, last = [head], len(head), 0, "c0"
    while True:
        chunk = f"arg(x{links}).\natt({last},x{links}).\n"
        if size + len(chunk) > budget:
            return "".join(chunks), links
        chunks.append(chunk)
        size += len(chunk)
        last = f"x{links}"
        links += 1


def pairs_beside_unattacked(pairs, unattacked):
    """Disjoint mutual attacks p_k <-> q_k beside unattacked arguments z_k,
    which every extension holds."""
    return ("".join(f"arg(p{k}).\narg(q{k}).\natt(p{k},q{k}).\natt(q{k},p{k}).\n"
                    for k in range(pairs))
            + "".join(f"arg(z{k}).\n" for k in range(unattacked)))


def leaf_chain(links):
    """A leaf x0 attacking x1, which attacks x2, and so on: the categoriser
    values x_k by a ratio of Fibonacci numbers of about 0.21 k digits."""
    return ("".join(f"arg(x{k}).\n" for k in range(links + 1))
            + "".join(f"att(x{k},x{k + 1}).\n" for k in range(links)))


def complete(size):
    """Every ordered pair of distinct arguments attacks."""
    names = [f"a{k}" for k in range(size)]
    return ("".join(f"arg({n}).\n" for n in names)
            + "".join(f"att({s},{t}).\n" for s in names for t in names if s != t))


EXACT_SHAPES = {
    "skip-chain": lambda: skip_chain(3000),
    "ladder": lambda: ladder(60000),
    # few count bits but many runs: stopped by the charge for each run
    "comb": lambda: comb(8000),
}


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

    def test_oversized_exact_values_fail_fast(self, tmp_path):
        # the categoriser's exact values along an n-chain take about
        # 0.69 * n**2 bits in all, past the bound from about 39,000 links.
        # The text is written directly, without building the graph in this
        # process.
        size = 200000
        path = tmp_path / "chain.apx"
        path.write_text("".join(f"arg(A{i}).\n" for i in range(1, size + 1))
                        + "".join(f"att(A{i + 1},A{i}).\n" for i in range(1, size)),
                        encoding="utf-8")
        start = time.monotonic()
        done = run_cli(["well-defended", str(path), "--model", "categoriser"],
                       limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert "evaluation bound" in done.stderr
        assert done.stdout == ""
        assert elapsed < 20

    @pytest.mark.parametrize("command", ["value", "well-defended"])
    @pytest.mark.parametrize("shape", sorted(EXACT_SHAPES))
    def test_oversized_exact_tuple_counts_fail_fast(self, tmp_path, shape, command):
        # exact parities have no horizon, so only the size of their counts
        # stops these; the text is written directly, as above
        path = tmp_path / f"{shape}.apx"
        path.write_text(EXACT_SHAPES[shape](), encoding="utf-8")
        start = time.monotonic()
        done = run_cli([command, str(path), "--model", "tuples"], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert "exact values exceed the evaluation bound" in done.stderr
        assert done.stdout == ""
        assert elapsed < 20

    @pytest.mark.parametrize("command", ["value", "well-defended"])
    def test_oversized_union_rows_fail_fast(self, tmp_path, command):
        # two self-attacking arguments attacking each other: their walk
        # counts double at each length, so rows to a horizon of 120,000
        # would take about 1.4e10 bits; the rows are charged as they fill
        path = tmp_path / "pair.apx"
        path.write_text("arg(a). arg(b). att(a,a). att(b,b). att(a,b). att(b,a).\n",
                        encoding="utf-8")
        start = time.monotonic()
        done = run_cli([command, str(path), "--model", "tuples", "--depth", "60000"],
                       limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert done.stderr.splitlines()[0] == (
            "gradarg: cycle union counts exceed the evaluation bound of 1073741824 bits")
        assert done.stdout == ""
        assert elapsed < 20

    def test_exact_tuple_counts_inside_the_bound_answer(self, tmp_path):
        # 1,000,999 runs of 661,938,543 count bits in all: the charge for
        # each run still leaves them inside the bound
        path = tmp_path / "skip-chain.apx"
        path.write_text(skip_chain(2000), encoding="utf-8")
        done = run_cli(["well-defended", str(path), "--model", "tuples"],
                       limit=MEMORY_LIMIT)
        assert done.returncode == 0, done.stderr
        assert set(done.stdout.split()) <= {f"a{k}" for k in range(2000)}
        assert done.stdout

    def test_short_horizons_on_a_large_graph_run(self, tmp_path):
        size = 800
        path = write_graph(tmp_path, "large", random_attack_graph(5, size, 2 / size))
        done = run_cli(["value", path, "--model", "tuples", "--depth", "1"],
                       limit=MEMORY_LIMIT)
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == size
        assert peak_kib(done) < 100 * 1024

    def test_the_reported_peak_is_the_child_s_own(self):
        ballast = b"x" * (160 * 1024 * 1024)  # written, so resident here
        done = run_cli(["value", str(fixture_path("example1"))], limit=MEMORY_LIMIT)
        assert done.returncode == 0, done.stderr
        assert peak_kib(done) < 100 * 1024
        del ballast


def chorded_union(size=500, seed=0):
    """A ring of `size` members plus as many random chords, its first
    member attacked by one leaf: at depth 10 a horizon of 10 * size + 1."""
    rng = random.Random(seed)
    attacks = {(f"u{k}", f"u{(k + 1) % size}") for k in range(size)}
    while len(attacks) < 2 * size:
        s, t = rng.sample(range(size), 2)
        attacks.add((f"u{s}", f"u{t}"))
    return AttackGraph(["l", *(f"u{k}" for k in range(size))],
                       [("l", "u0"), *sorted(attacks)])


class TestSettledAtDepthOne:
    """`well-defended` compares tupled values unrolled once before it
    unrolls them to --depth, so where every verdict is exact at depth 1 it
    answers past the evaluation bound of the depth asked for.  On a 2-core
    virtual machine with Python 3.11 the whole process took about 0.5 s,
    0.27 s of it in the depth-1 evaluation and its comparisons."""

    BOUND_ERROR = ("gradarg: tuple horizon 5001 over {} attacks "
                   "exceeds the evaluation bound of 2000000\n")

    def test_value_is_still_bounded(self, tmp_path):
        path = write_graph(tmp_path, "union", chorded_union())
        done = run_cli(["value", path, "--model", "tuples"], limit=MEMORY_LIMIT)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.splitlines()[0] + "\n" == self.BOUND_ERROR.format(1001)

    def test_well_defended_answers(self, tmp_path):
        g = chorded_union()
        path = write_graph(tmp_path, "union", g)
        start = time.monotonic()
        done = run_cli(["well-defended", path, "--model", "tuples"], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        values = evaluate_cyclic(g, 2)  # depth 2 fits the bound, and settles
        assert all(compare(values[b], values[a]).exact for b, a in g.attacks)
        expected = well_defended(g, values)
        assert done.stdout.split() == [a for a in g.arguments if a in expected]
        assert elapsed < 20

    def test_classify_stops_at_the_enumeration_bound(self, tmp_path):
        path = write_graph(tmp_path, "union", chorded_union())
        done = run_cli(["classify", path, "--model", "tuples"], limit=MEMORY_LIMIT)
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr.splitlines()[0] == (
            "gradarg: an undecided component of 499 arguments exceeds the "
            "enumeration bound of 25")

    def test_an_open_verdict_unrolls_to_the_depth(self, tmp_path):
        # e1 and e2 have equal values at every depth: compared at a horizon,
        # their verdict is open
        g = chorded_union()
        g = AttackGraph([*g.arguments, "e1", "e2"],
                        [*g.attacks, ("e1", "e2"), ("e2", "e1")])
        path = write_graph(tmp_path, "union-pair", g)
        done = run_cli(["well-defended", path, "--model", "tuples"])
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == self.BOUND_ERROR.format(1003)


class TestInputBound:
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_an_input_past_the_bound_exits_at_once(self, tmp_path, source):
        # NUL bytes, which do not decode as framework text: the bound is
        # checked before the input is decoded or parsed
        path = tmp_path / "big.apx"
        with open(path, "wb") as handle:
            handle.truncate(INPUT_BOUND + 1)
        start = time.monotonic()
        with open(path, "rb") as handle:
            done = run_cli(["value", str(path) if source == "file" else "-"],
                           limit=MEMORY_LIMIT, stdin=handle)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert done.stderr.splitlines()[0] == (
            f"gradarg: input exceeds the bound of {INPUT_BOUND} bytes")
        assert done.stdout == ""
        assert elapsed < 5

    def test_an_input_at_the_bound_is_parsed(self, tmp_path):
        path = tmp_path / "padded.apx"
        text = "arg(a).\n"
        path.write_text(text + " " * (INPUT_BOUND - len(text)), encoding="ascii")
        start = time.monotonic()
        done = run_cli(["value", str(path)], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        assert done.stdout == "a 1\n"
        assert elapsed < 10

    @pytest.mark.parametrize("rubbish", ["x", "x "])
    def test_rubbish_at_the_bound_is_a_parse_error(self, tmp_path, rubbish):
        # no "." after the first statement: the parser reads the rest as
        # one chunk, and must not keep a match per rejected character
        path = tmp_path / "rubbish.apx"
        text = "arg(a).\n"
        path.write_text(text + rubbish * ((INPUT_BOUND - len(text)) // len(rubbish)),
                        encoding="ascii")
        done = run_cli(["value", str(path)], limit=MEMORY_LIMIT)
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("gradarg: parse error: line 2, column 1: ")
        assert peak_kib(done) < 100 * 1024

    def test_a_bad_token_after_a_long_blank_run_is_located(self, tmp_path):
        path = tmp_path / "padded.apx"
        text = "arg(a).\n"
        blank = INPUT_BOUND - len(text) - 1
        path.write_text(text + " " * blank + "x", encoding="ascii")
        start = time.monotonic()
        done = run_cli(["value", str(path)], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines()[0] == (
            f"gradarg: parse error: line 2, column {blank + 1}: unknown statement 'x'")
        assert elapsed < 10


class TestLocalReadBound:
    def test_a_dense_union_past_the_bound_fails_fast(self, tmp_path):
        # 159,600 attack reads a round: the budget ends the rounds long
        # before the categoriser settles
        path = tmp_path / "complete.apx"
        path.write_text(complete(400), encoding="utf-8")
        start = time.monotonic()
        done = run_cli(["value", str(path)], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert f"past the bound of {READ_BOUND} reads" in done.stderr
        assert done.stdout == ""
        assert elapsed < 10

    def test_a_dense_union_inside_the_bound_answers(self, tmp_path):
        path = tmp_path / "complete.apx"
        path.write_text(complete(200), encoding="utf-8")
        done = run_cli(["value", str(path)], limit=MEMORY_LIMIT)
        assert done.returncode == 0, done.stderr
        values = [line.split()[1] for line in done.stdout.splitlines()]
        assert len(values) == 200 and len(set(values)) == 1


class TestEnumerationBound:
    def test_too_many_extensions_fail_fast(self, tmp_path):
        # 30 disjoint mutual attacks have 2**30 preferred extensions, which
        # the JSON report lists
        names = [f"p{i}" for i in range(60)]
        pairs = AttackGraph(names, [(names[i], names[i ^ 1]) for i in range(60)])
        path = write_graph(tmp_path, "pairs", pairs)
        start = time.monotonic()
        done = run_cli(["classify", path, "--format", "json"], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert "enumeration bound" in done.stderr
        assert done.stdout == ""
        assert elapsed < 20

    @pytest.mark.parametrize("argv", [["solve"], ["classify", "--format", "json"]],
                             ids=" ".join)
    def test_a_long_extension_listing_fails_fast(self, tmp_path, argv):
        # 8,192 preferred extensions, inside the cap, each listing 5,013
        # members: the listing is refused before any extension is formed
        path = tmp_path / "pairs.apx"
        path.write_text(pairs_beside_unattacked(13, 5000), encoding="ascii")
        start = time.monotonic()
        done = run_cli([*argv, str(path)], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert done.stderr.splitlines()[0] == (
            "gradarg: 8192 extensions of 41066496 members in all exceed the "
            f"enumeration bound of {LISTING_BOUND} listed members")
        assert done.stdout == ""
        assert peak_kib(done) < 100 * 1024
        assert elapsed < 5

    def test_small_undecided_components_of_a_large_graph_classify(self, tmp_path):
        size = 800
        path = write_graph(tmp_path, "large", random_attack_graph(5, size, 2 / size))
        start = time.monotonic()
        done = run_cli(["classify", path], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == size
        assert elapsed < 20


class TestDensestInput:
    """8 MiB of the shortest distinct declarations: 740,239 arguments, each
    its own component of the condensation, which holds one 8-byte entry
    for each.  `value` checks every value before it prints and then writes
    each line as it renders it.  On a 2-core virtual machine with Python
    3.11, `value` took about 4 s and peaked at about 205 MB under the
    categoriser and 215 MB under the tuples model, and JSON `classify`,
    which holds each result by declaration index until it prints it, took
    about 4 s and peaked at about 217 MB."""

    def test_json_classify_answers(self, tmp_path):
        text, count = shortest_declarations(INPUT_BOUND)
        path = tmp_path / "densest.apx"
        path.write_text(text, encoding="ascii")
        done = run_cli(["classify", str(path), "--format", "json"], limit=MEMORY_LIMIT)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith('{\n  "command": "classify",\n  "semantics": "preferred"')
        assert done.stdout.count('": "uni"') == count == 740_239
        assert peak_kib(done) < 240 * 1024

    def test_categoriser_value_answers(self, tmp_path):
        self.check_value(tmp_path, "categoriser", "1")

    def test_tuples_value_answers(self, tmp_path):
        self.check_value(tmp_path, "tuples", "[(0,...),()]")

    @staticmethod
    def check_value(tmp_path, model, shown):
        text, count = shortest_declarations(INPUT_BOUND)
        path = tmp_path / "densest.apx"
        path.write_text(text, encoding="ascii")
        done = run_cli(["value", str(path), "--model", model], limit=MEMORY_LIMIT)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == count == 740_239
        assert lines[0] == f"a {shown}" and {line.split()[1] for line in lines} == {shown}
        assert peak_kib(done) < 240 * 1024


class TestDisjointMutualAttacks:
    """8 MiB of disjoint mutual attacks: about 126,000 undecided parts of
    two arguments each, every one searched in its own numbering.  On a
    2-core virtual machine with Python 3.11, text `classify` took about 7 s
    and `solve` about 4 s."""

    @pytest.fixture(scope="class")
    def pairs(self, tmp_path_factory):
        text, pairs = mutual_pairs(INPUT_BOUND)
        path = tmp_path_factory.mktemp("pairs") / "pairs.apx"
        path.write_text(text, encoding="ascii")
        return str(path), pairs

    def test_text_classify_answers(self, pairs):
        path, count = pairs
        start = time.monotonic()
        done = run_cli(["classify", path, "--model", "labelling"], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == 2 * count
        assert elapsed < 40

    def test_solve_stops_at_the_extension_cap(self, pairs):
        path, _ = pairs
        start = time.monotonic()
        done = run_cli(["solve", path], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(
            "gradarg: more than 10000 extensions exceed the enumeration bound\n")
        assert done.stdout == ""
        assert elapsed < 40


class TestFedChain:
    """8 MiB of a 3-cycle feeding a chain: one undecided part of about
    242,000 arguments, each chain link its own component, every one of
    them undecided.  On a 2-core virtual machine with Python 3.11, `solve`
    took about 4 s and text `classify --model labelling` about 6 s."""

    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        text, links = fed_chain(INPUT_BOUND)
        path = tmp_path_factory.mktemp("chain") / "chain.apx"
        path.write_text(text, encoding="ascii")
        return str(path), links

    def test_solve_answers(self, chain):
        path, _ = chain
        start = time.monotonic()
        done = run_cli(["solve", path], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        assert done.stdout == "{}\n"  # the empty set is the one preferred extension
        assert elapsed < 40

    def test_text_classify_answers(self, chain):
        path, links = chain
        start = time.monotonic()
        done = run_cli(["classify", path, "--model", "labelling"], limit=MEMORY_LIMIT)
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == links + 3
        assert {line.split()[1] for line in lines} == {"not-accepted"}
        assert elapsed < 40


# Every argument of a complete graph with self-attacks has about 10**L
# branches of each length L, so at depth 500 some branch counts pass the
# interpreter's limit on decimal digits in integer-to-string conversion.
NAMES = [f"A{i}" for i in range(10)]
COMPLETE = AttackGraph(NAMES, [(a, b) for a in NAMES for b in NAMES])


class TestUnprintableCounts:
    def test_value_exits_with_a_one_line_message(self, tmp_path):
        path = write_graph(tmp_path, "complete", COMPLETE)
        done = run_cli(["value", path, "--model", "tuples", "--depth", "500"])
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("gradarg: ")
        assert len(done.stderr.splitlines()) == 1

    def test_json_value_exits_with_empty_output(self, tmp_path):
        path = write_graph(tmp_path, "complete", COMPLETE)
        done = run_cli(["value", path, "--model", "tuples", "--depth", "500",
                        "--format", "json"])
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("gradarg: ")
        assert len(done.stderr.splitlines()) == 1

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_a_printable_value_declared_first_is_not_printed(self, tmp_path, output):
        # z, unattacked and declared first, is a leaf; the counts of the
        # complete graph's members that follow cannot be printed
        g = AttackGraph(["z", *NAMES], [(a, b) for a in NAMES for b in NAMES])
        path = write_graph(tmp_path, "leaf-first", g)
        done = run_cli(["value", path, "--model", "tuples", "--depth", "500",
                        "--format", output])
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "gradarg: a value has too many decimal digits to print\n"

    def test_well_defended_needs_no_printing(self, tmp_path):
        path = write_graph(tmp_path, "complete", COMPLETE)
        done = run_cli(["well-defended", path, "--model", "tuples", "--depth", "500"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == NAMES


class TestUnprintableLocalValues:
    # The categoriser values a chain by ratios of consecutive Fibonacci
    # numbers; 25,000 links take them past the digit limit.
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_value_exits_with_a_one_line_message(self, tmp_path, output):
        path = write_graph(tmp_path, "chain", generate_family("chain", size=25000))
        done = run_cli(["value", path, "--model", "categoriser", "--format", output])
        assert done.returncode == 3, done.stderr
        assert done.stdout == ""
        assert done.stderr == "gradarg: a value has too many decimal digits to print\n"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_values_are_checked_before_any_is_printed(self, tmp_path, output):
        # x0, declared first, prints 1; under a limit of 640 digits the
        # values past about x3060 cannot be printed
        path = tmp_path / "chain.apx"
        path.write_text(leaf_chain(3500), encoding="ascii")
        argv = ["value", str(path), "--model", "categoriser", "--format", output]
        done = run_cli(argv, env={"PYTHONINTMAXSTRDIGITS": "640"})
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "gradarg: a value has too many decimal digits to print\n"
        done = run_cli(argv, env={"PYTHONINTMAXSTRDIGITS": "0"})
        assert done.returncode == 0, done.stderr
        if output == "json":
            shown = list(json.loads(done.stdout)["values"].items())
        else:
            shown = [tuple(line.split(" ")) for line in done.stdout.splitlines()]
        assert [name for name, _ in shown] == [f"x{k}" for k in range(3501)]
        assert shown[0][1] == "1" and len(shown[-1][1].partition("/")[0]) > 640


CYCLIC = random_attack_graph(9, 30, 0.08)


# Each case's command line, the input path going after its first word;
# label-ranking runs LABEL_RANKING instead.
HASH_SEED_COMMANDS = {
    "value": ["value", "--model", "tuples"],
    "well-defended": ["well-defended", "--model", "tuples"],
    "well-defended-categoriser": ["well-defended", "--model", "categoriser"],
    "classify-json": ["classify", "--format", "json"],
    "label-ranking": None,
}


@pytest.mark.parametrize("command", HASH_SEED_COMMANDS)
@pytest.mark.parametrize("source", ["mcycles", "seeded"])
def test_output_is_independent_of_the_hash_seed(tmp_path, command, source):
    if source == "seeded":
        assert not CYCLIC.is_well_founded()
        path = write_graph(tmp_path, "cyclic", CYCLIC)
    else:
        path = str(fixture_path(source))
    outputs = set()
    for hash_seed in ("0", "1", "4242"):
        if command == "label-ranking":
            done = run_python(["-c", LABEL_RANKING, path], hash_seed=hash_seed)
        else:
            head, *rest = HASH_SEED_COMMANDS[command]
            done = run_cli([head, path, *rest], hash_seed=hash_seed)
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert outputs.pop()
