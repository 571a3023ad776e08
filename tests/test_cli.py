import argparse
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from conftest import FIXTURES

import gradarg
from gradarg import generate_family, random_attack_graph
from gradarg import acceptability, cli, evaluate_cyclic
from gradarg.cli import MODELS, build_parser, main

CYCLE3 = "arg(a). arg(b). arg(c). att(a,b). att(b,c). att(c,a)."

# 60 arguments, 137 attacks, one 44-member cycle union: its longest tuple
# values run to a few kilobytes each.
SEEDED = random_attack_graph(1, 60, 2 / 60)


def stdin_of(text):
    """A standard input double backed by the UTF-8 bytes of `text`."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture_path(name):
    return str(FIXTURES / f"{name}.apx")


class TestValue:
    def test_sum_model_prints_exact_fractions(self, capsys):
        code, out, err = run_cli(capsys, "value", fixture_path("example4"))
        assert (code, err) == (0, "")
        assert out == (
            "A 78/283\nB1 6/13\nB2 2/3\nB3 1/2\nB4 1\n"
            "C1 2/3\nC2 1/2\nC3 1/2\nC4 1\n"
            "D1 1/2\nD2 1\nD3 1\nE1 1\n"
        )

    def test_tuple_model_prints_literals(self, capsys):
        code, out, err = run_cli(
            capsys, "value", fixture_path("example6"), "--model", "tuples"
        )
        assert (code, err) == (0, "")
        assert out == (
            "A [(2,4),(1,3)]\nB1 [(2),(1)]\nB2 [(),(3)]\n"
            "C1 [(),(1)]\nC2 [(0,...),()]\nC3 [(2),()]\n"
            "D1 [(0,...),()]\nD2 [(),(1)]\nE1 [(0,...),()]\n"
        )

    def test_label_model(self, capsys):
        code, out, err = run_cli(
            capsys, "value", fixture_path("star3"), "--model", "labelling"
        )
        assert (code, err) == (0, "")
        assert out == "A +\nB1 -\nB2 -\nB3 -\nC1 +\nC2 +\nC3 +\n"

    def test_cycles_fall_back_to_floats(self, capsys):
        code, out, err = run_cli(capsys, "value", fixture_path("example7"))
        assert (code, err) == (0, "")
        for line in out.splitlines():
            name, rendered = line.split(" ")
            assert abs(float(rendered) - 0.6180339887) < 1e-6

    def test_depth_controls_the_horizon(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", fixture_path("example7"),
            "--model", "tuples", "--depth", "3",
        )
        assert code == 0
        assert out.splitlines() == [
            "A [(2,4,6,...),(1,3,5,...)]",
            "B [(2,4,6,...),(1,3,5,...)]",
            "C [(2,4,6,...),(3,5,7,...)]",
        ]

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "value", fixture_path("example1"), "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "command": "value",
            "model": "categoriser",
            "values": {"A1": "1", "A2": "1/2", "A3": "2/5", "A4": "1"},
        }

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "source", sorted(p.stem for p in FIXTURES.glob("*.apx")) + ["seeded"]
    )
    def test_json_values_match_the_text_lines(self, capsys, tmp_path, model, source):
        if source == "seeded":
            path = tmp_path / "seeded.apx"
            path.write_text(SEEDED.serialize(), encoding="utf-8")
            path = str(path)
        else:
            path = fixture_path(source)
        code, text, _ = run_cli(capsys, "value", path, "--model", model)
        assert code == 0
        code, document, _ = run_cli(capsys, "value", path, "--model", model,
                                    "--format", "json")
        assert code == 0
        lines = [line.split(" ", 1) for line in text.splitlines()]
        values = json.loads(document)["values"]
        assert list(values.items()) == [(name, shown) for name, shown in lines]

    def test_values_and_their_text_are_not_held_whole_at_once(self, tmp_path,
                                                               monkeypatch):
        # value may add to the values the text of one value, not a copy of
        # all of it
        self.check_value_peak(tmp_path, monkeypatch, "text")

    def test_values_and_their_json_are_not_held_whole_at_once(self, tmp_path,
                                                               monkeypatch):
        # Nor may it encode the whole JSON document as one string.
        self.check_value_peak(tmp_path, monkeypatch, "json")

    @staticmethod
    def check_value_peak(tmp_path, monkeypatch, fmt):
        path = tmp_path / "seeded.apx"
        path.write_text(SEEDED.serialize(), encoding="utf-8")
        assert max(map(len, SEEDED.condensation())) >= 40

        def traced_peak(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def command(name):
            with open(os.devnull, "w", encoding="utf-8") as sink:
                monkeypatch.setattr(sys, "stdout", sink)
                try:
                    return main([name, str(path), "--model", "tuples",
                                 "--depth", "10", "--format", fmt])
                finally:
                    monkeypatch.undo()

        _, evaluation_peak = traced_peak(lambda: evaluate_cyclic(SEEDED, 10))
        value_code, value_peak = traced_peak(lambda: command("value"))
        defended_code, defended_peak = traced_peak(lambda: command("well-defended"))
        assert (value_code, defended_code) == (0, 0)
        assert value_peak <= 1.25 * evaluation_peak
        # every verdict is settled at depth 1, so no depth-10 value is made
        assert defended_peak < value_peak / 2


class TestCompare:
    def test_decided_pair(self, capsys):
        code, out, err = run_cli(capsys, "compare", "[(2),(3)]", "[(2),(1)]")
        assert (code, out, err) == (0, "first-better (exact)\n", "")

    def test_undecided_pair_is_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "[(2,2,2,...),()]", "[(2,2,2,...),()]"
        )
        assert (code, out) == (0, "equivalent (inexact)\n")

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--format", "json",
            "[(2),(1,1,1,...)]", "[(2),(1)]",
        )
        assert code == 0
        assert json.loads(out) == {
            "command": "compare",
            "verdict": "second-better",
            "exact": True,
        }

    def test_counts_beyond_float_precision_are_exact(self, capsys):
        # One more defence branch, the same attack branches; the two counts
        # are one apart above 2**53, where floats cannot tell them apart.
        code, out, err = run_cli(
            capsys, "compare",
            "[(2^9007199254740993),(1)]", "[(2^9007199254740992),(1)]",
        )
        assert (code, out, err) == (0, "first-better (exact)\n", "")


class TestSolve:
    def test_preferred(self, capsys):
        code, out, err = run_cli(capsys, "solve", fixture_path("example1"))
        assert (code, out, err) == (0, "{A1,A4}\n", "")

    def test_stable_may_be_empty(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of(CYCLE3))
        code, out, err = run_cli(capsys, "solve", "--semantics", "stable")
        assert (code, out, err) == (0, "", "")

    def test_preferred_keeps_the_empty_set(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of(CYCLE3))
        code, out, _ = run_cli(capsys, "solve")
        assert (code, out) == (0, "{}\n")

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", fixture_path("example1"), "--format", "json"
        )
        assert json.loads(out) == {
            "command": "solve",
            "semantics": "preferred",
            "extensions": [["A1", "A4"]],
        }


class TestClassify:
    def test_star_graph_full_report(self, capsys):
        code, out, err = run_cli(capsys, "classify", fixture_path("star3"))
        assert (code, err) == (0, "")
        assert out == (
            "A uni [well-defended:labelling,tuples]\n"
            "B1 not-accepted\nB2 not-accepted\nB3 not-accepted\n"
            "C1 uni [well-defended:categoriser,labelling,tuples]\n"
            "C2 uni [well-defended:categoriser,labelling,tuples]\n"
            "C3 uni [well-defended:categoriser,labelling,tuples]\n"
        )

    def test_model_selection_narrows_the_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", fixture_path("star3"), "--model", "categoriser"
        )
        assert code == 0
        assert out.splitlines()[0] == "A uni"

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", fixture_path("star3"),
            "--model", "tuples", "--format", "json",
        )
        document = json.loads(out)
        assert document["semantics"] == "preferred"
        assert document["extensions"] == [["A", "C1", "C2", "C3"]]
        assert document["levels"]["A"] == "uni"
        assert document["well_defended"] == {"tuples": ["A", "C1", "C2", "C3"]}

    def test_text_answers_past_the_extension_cap(self, capsys, tmp_path):
        # 14 disjoint mutual attacks have 2**14 preferred extensions: text
        # prints levels only, JSON lists the extensions and meets the cap
        path = tmp_path / "pairs.apx"
        path.write_text("".join(f"arg(p{i}). att(p{i},p{i ^ 1}).\n" for i in range(28)),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", str(path), "--model", "labelling")
        assert (code, err) == (0, "")
        assert out == "".join(f"p{i} only-exi [well-defended:labelling]\n"
                              for i in range(28))
        code, out, err = run_cli(capsys, "classify", str(path), "--format", "json")
        assert (code, out) == (3, "")
        assert "enumeration bound" in err

    def test_repeated_models_are_listed_once(self, capsys):
        argv = ["classify", fixture_path("star3"),
                "--model", "tuples", "--model", "labelling", "--model", "tuples"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "A uni [well-defended:tuples,labelling]"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert list(json.loads(out)["well_defended"]) == ["tuples", "labelling"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_value_map_is_held_at_a_time(self, capsys, monkeypatch, tmp_path, fmt):
        # each model's well-defended set is taken before the next value map
        # is made, and on the pair the tuples' depth-1 map, whose equal
        # values leave the verdicts open, is dropped before the depth-10 one
        alive, made = set(), []

        class ValueMap(dict):  # unlike a dict, weakly referable
            pass

        def tracked(evaluate):
            def evaluated(*args):
                values = ValueMap(evaluate(*args))
                made.append(len(alive))
                alive.add(len(made))
                weakref.finalize(values, alive.discard, len(made))
                return values
            return evaluated

        for name in ("evaluate_cyclic", "evaluate_local"):
            monkeypatch.setattr(acceptability, name,
                                tracked(getattr(acceptability, name)))
        pair = tmp_path / "pair.apx"
        pair.write_text("arg(e1). arg(e2). att(e1,e2). att(e2,e1).\n")
        for path, maps in ((fixture_path("star3"), len(MODELS)),
                           (str(pair), len(MODELS) + 1)):
            made.clear()
            code, _, err = run_cli(capsys, "classify", path, "--format", fmt)
            assert (code, err) == (0, "")
            assert made == [0] * maps
            assert not alive


class TestWellDefended:
    def test_lists_members_in_declaration_order(self, capsys):
        code, out, err = run_cli(
            capsys, "well-defended", fixture_path("star3"), "--model", "tuples"
        )
        assert (code, out, err) == (0, "A\nC1\nC2\nC3\n", "")

    def test_models_disagree_on_the_star(self, capsys):
        code, out, _ = run_cli(
            capsys, "well-defended", fixture_path("star3"),
            "--model", "categoriser",
        )
        assert (code, out) == (0, "C1\nC2\nC3\n")

    def test_branch_counts_beyond_float_range(self, capsys, tmp_path):
        # 1,101 two-argument layers, each argument attacking both arguments
        # of the next layer: the last layers have about 2**1100 branches.
        layers = 1101
        lines = [f"arg(l{i}a). arg(l{i}b)." for i in range(layers)]
        lines += [f"att(l{i}{s},l{i + 1}{t})." for i in range(layers - 1)
                  for s in "ab" for t in "ab"]
        path = tmp_path / "ladder.apx"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "well-defended", str(path),
                                 "--model", "tuples")
        assert (code, err) == (0, "")
        assert out == "".join(f"l{i}a\nl{i}b\n" for i in range(0, layers, 2))


class TestExportDot:
    def test_exact_rendering(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("arg(a). arg(b). att(a,b)."))
        code, out, err = run_cli(capsys, "export-dot")
        assert (code, err) == (0, "")
        assert out == 'digraph attack_graph {\n  "a";\n  "b";\n  "a" -> "b";\n}\n'


class TestErrors:
    def test_bad_flag_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "value", fixture_path("example1"), "--model", "nope"
        )
        assert (code, out) == (1, "")
        assert "invalid choice" in err

    def test_compare_takes_no_model(self, capsys):
        code, out, err = run_cli(
            capsys, "compare", "--model", "tuples", "[(2),(3)]", "[(2),(1)]"
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --model" in err

    def test_missing_command_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "required" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "value", "no_such_file.apx")
        assert code == 2
        assert err.startswith("gradarg: parse error:")

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_input_is_a_parse_error(self, capsys, monkeypatch,
                                                 tmp_path, source):
        data = b"arg(a).\xff\n"
        path = tmp_path / "bad.apx"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code, out, err = run_cli(capsys, "value", str(path) if source == "file" else "-")
        assert (code, out) == (2, "")
        assert err.startswith("gradarg: parse error:")
        assert "0xff" in err and err.count("\n") == 1

    @pytest.mark.parametrize("data", [b"arg(a).\xff\n", b"arg(a).\r\narg(b)\rarg(c)."])
    def test_stdin_reads_like_a_path_in_the_c_locale(self, tmp_path, data):
        path = tmp_path / "input.apx"
        path.write_bytes(data)
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        env.update(LC_ALL="C", PYTHONPATH=str(Path(gradarg.__file__).parents[1]))
        done = [
            subprocess.run([sys.executable, "-m", "gradarg.cli", "value", *argv],
                           input=data, env=env, capture_output=True, timeout=60)
            for argv in ([str(path)], ["-"])
        ]
        assert [d.returncode for d in done] == [2, 2]
        assert done[0].stderr == done[1].stderr
        assert done[0].stderr.count(b"\n") == 1

    @pytest.mark.parametrize("data", [b"arg(a).\r\narg(b)\rarg(c).",
                                      b"\r\r\n%c\rarg(a)\n\r\narg(b)x"])
    def test_input_decodes_as_open_decodes_a_path(self, tmp_path, data):
        # universal newlines: line and column of the error follow them
        path = tmp_path / "input.apx"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(gradarg.ParseError) as want:
                gradarg.parse_framework(handle.read())
        with pytest.raises(gradarg.ParseError) as got:
            cli._read_graph(str(path))
        assert str(got.value) == str(want.value)

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_closed_standard_output_ends_quietly(self, tmp_path):
        # About 340 KB of output, far more than a pipe buffers.
        names = [f"argument_{i:05d}" for i in range(20000)]
        path = tmp_path / "wide.apx"
        path.write_text("".join(f"arg({n}).\n" for n in names), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(gradarg.__file__).parents[1]))
        with subprocess.Popen([sys.executable, "-m", "gradarg.cli", "value", str(path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline() == b"argument_00000 1\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (-signal.SIGPIPE, b"")

    def test_malformed_framework(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("arg(a)\narg(b)."))
        code, _, err = run_cli(capsys, "value")
        assert code == 2
        assert "line 2, column 1" in err

    def test_malformed_tuple_literal(self, capsys):
        code, _, err = run_cli(capsys, "compare", "[(2),(3)]", "[(1,2),(3)]")
        assert code == 2
        assert "parity" in err

    def test_a_third_tuple_component_is_rejected(self, capsys):
        code, out, err = run_cli(capsys, "compare", "[(2),(1),(3)]", "[(2),(1)]")
        assert (code, out) == (2, "")
        assert "expected two components in '[(2),(1),(3)]'" in err

    @pytest.mark.parametrize("literal, read_as", [
        ("[(2_0),()]", "[(20),()]"), ("[(+2),()]", "[(2),()]"),
        ("[(\u0662),()]", "[(2),()]"), ("[(-0),()]", "[(0),()]"),
        ("[(2^+3),()]", "[(2,2,2),()]"),
    ])
    def test_tuple_elements_are_ascii_digits(self, capsys, literal, read_as):
        code, out, err = run_cli(capsys, "compare", literal, read_as)
        assert (code, out) == (2, "")
        assert "bad element" in err

    # ASCII digits naming at least 1, as in tuple literals
    @pytest.mark.parametrize("depth", ["0", "-1", "1_0", "+2", "\u0663", "abc"])
    def test_depth_must_be_positive(self, capsys, depth):
        for command in ("value", "classify", "well-defended"):
            code, out, err = run_cli(
                capsys, command, fixture_path("example1"), "--depth", depth,
            )
            assert (code, out) == (1, "")
            assert "--depth" in err
            assert "Traceback" not in err

    def test_every_bound_error_keeps_its_own_base(self):
        # the CLI exits 3 on any BoundError; callers still catch each error
        # by the base it had
        for error, base in [(gradarg.ConvergenceError, ArithmeticError),
                            (gradarg.EnumerationBoundError, ValueError),
                            (gradarg.EvaluationBoundError, ValueError),
                            (gradarg.RenderLimitError, ValueError),
                            (cli.InputBoundError, gradarg.FrameworkError)]:
            assert issubclass(error, gradarg.BoundError) and issubclass(error, base)

    def test_oversized_graph_is_a_computation_error(self, capsys, tmp_path):
        big = generate_family("unattacked-cycle", size=26)
        path = tmp_path / "big.apx"
        path.write_text(big.serialize(), encoding="utf-8")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert "enumeration bound" in err


FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.apx"))
EVERY_COMMAND = [
    *(["value", "--model", m] for m in MODELS),
    *(["well-defended", "--model", m] for m in MODELS),
    *(["solve", "--semantics", s] for s in ("preferred", "stable")),
    *(["classify", "--semantics", s] for s in ("preferred", "stable")),
    ["export-dot"],
]


class TestOutputPath:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", EVERY_COMMAND, ids=" ".join)
    def test_every_command_on_every_fixture(self, capsys, command, fmt):
        for name in FIXTURE_NAMES:
            self.check(capsys, [*command, fixture_path(name)], fmt)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_compare(self, capsys, fmt):
        self.check(capsys, ["compare", "[(2),(3)]", "[(2),(1)]"], fmt)

    @staticmethod
    def check(capsys, argv, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            document = json.loads(out)
            assert out == json.dumps(document, indent=2) + "\n"
            assert next(iter(document.items())) == ("command", argv[0])
        else:
            assert out == "" or out.endswith("\n")


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeat_runs_are_identical(self, capsys, fmt):
        first = run_cli(
            capsys, "classify", fixture_path("example4"), "--format", fmt
        )
        second = run_cli(
            capsys, "classify", fixture_path("example4"), "--format", fmt
        )
        assert first == second
        assert first[0] == 0


class TestParserReuse:
    """main builds its parser once per process; a reused parser must answer
    every call as a fresh one would."""

    SEQUENCE = [
        ["value", fixture_path("example1"), "--bogus"],
        ["classify", fixture_path("star3"), "--model", "tuples"],
        ["classify", fixture_path("star3")],
        ["--help"],
        ["classify", "--help"],
        [],
        ["solve", "--semantics", "stable", "--format", "json"],
        ["classify", fixture_path("star3")],
    ]

    @staticmethod
    def run_sequence(capsys, monkeypatch, sequence):
        results = []
        for argv in sequence:
            monkeypatch.setattr(sys, "stdin", stdin_of(CYCLE3))
            results.append(run_cli(capsys, *argv))
        return results

    def test_calls_answer_as_with_a_fresh_parser(self, capsys, monkeypatch):
        reused = self.run_sequence(capsys, monkeypatch, self.SEQUENCE)
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = self.run_sequence(capsys, monkeypatch, self.SEQUENCE)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 0, 0, 0, 1, 0, 0]
        # --model appends to a None default: no list is shared between calls
        assert reused[2] == reused[7]
        assert "well-defended:categoriser,labelling,tuples" in reused[2][1]
        assert reused[1][1] != reused[2][1]

    def test_help_width_is_read_when_help_is_printed(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        wide = run_cli(capsys, "classify", "--help")
        monkeypatch.setenv("COLUMNS", "40")
        narrow = run_cli(capsys, "classify", "--help")
        monkeypatch.setattr(cli, "_parser", build_parser)
        assert narrow == run_cli(capsys, "classify", "--help")
        assert narrow != wide

    def test_no_parser_is_built_after_the_first_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        run_cli(capsys, "export-dot", fixture_path("example1"))
        built.clear()
        path = fixture_path("example4")
        calls = [
            ["value", path], ["value", path, "--model", "tuples"],
            ["compare", "[(2),(3)]", "[(2),(1)]"], ["solve", path],
            ["solve", path, "--semantics", "stable"], ["classify", path],
            ["classify", path, "--model", "labelling"], ["well-defended", path],
            ["well-defended", path, "--model", "tuples"], ["export-dot", path],
        ]
        for argv in calls * 2:
            assert run_cli(capsys, *argv, "--format", "json")[0] == 0
        assert built == []


def readme_examples():
    """(argv, shown output lines) for every `$ gradarg` line in the README's
    sh blocks; the shown lines run to the next blank or `$` line."""
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("$ gradarg "):
                shown = []
                examples.append((shlex.split(line[len("$ gradarg "):], comments=True), shown))
            elif line and not line.startswith("$") and shown is not None:
                shown.append(line)
            else:
                shown = None
    return examples


def test_readme_examples_print_what_they_show(capsys, monkeypatch):
    # every shown line but "..." appears in the real output, in order
    examples = readme_examples()
    assert len(examples) == 9
    monkeypatch.chdir(FIXTURES.parent)
    for argv, shown in examples:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        lines = iter(out.splitlines())
        for line in shown:
            assert line == "..." or line in lines, (argv, line, out)


def test_readme_library_example_shows_what_it_computes():
    text = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library quick start\n\n```python\n(.*?)^```",
                         text, re.M | re.S)
    namespace = {}
    exec(block, namespace)
    [shown] = re.findall(r"^values = .*\n# (.*)$", block, re.M)
    assert repr(namespace["values"]) == shown
    assert namespace["ext"].render() == "{a,c}"
    assert namespace["levels"]["a"] == "uni"
    assert namespace["defended"] == {"a", "c"}
    assert namespace["walks"] == 1
