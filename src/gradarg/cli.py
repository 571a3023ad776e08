"""Command-line front end.

Subcommands: value (per-argument values under a model), compare (two
tupled-value literals), solve (extension enumeration), classify
(acceptance levels plus well-defendedness), well-defended (the set for
one model), export-dot.  Graphs are read from a file path or standard
input.  Every command prints through one path: a JSON document with
"command" first, written as it is encoded, or text lines one by one.
Exit codes: 0 success, 1 usage error, 2 parse error, 3 computation error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import signal
import sys
from fractions import Fraction
from itertools import compress
from operator import attrgetter, itemgetter

from .acceptability import (
    LEVELS,
    _defended,
    _levels,
    _named_levels,
    _semantics_search,
    _sorted_extensions,
    _values,
    preferred_extensions,
    stable_extensions,
)
from .framework import AttackGraph, BoundError, FrameworkError, ParseError, parse_framework
from .local import categoriser, rooted_labelling
from .tuples import (RenderLimitError, TupledValue, TupleFormatError, _natural, compare,
                     parse_tuple_literal)

__all__ = ["INPUT_BOUND", "InputBoundError", "build_parser", "entry", "main"]

# Model name to local instance; None stands for the tupled values.
MODELS = {"categoriser": categoriser(), "labelling": rooted_labelling(), "tuples": None}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3

# Largest framework input, in bytes, that a command reads.  The densest
# input, declarations of the shortest distinct names (`arg(a).` on), holds
# 740,239 arguments in 8 MiB.  On it, on 8 MiB of a chain, of disjoint
# mutual attacks (125,767 undecided parts) and of a 3-cycle feeding a
# chain (one undecided part of 242,275 components), every command peaks at
# 290 MB or less (VmHWM, KiB / 1,024), under every model, inside a 512 MiB
# address space.  The largest peaks are on the mutual attacks, where the
# tuples model exits 3 at 282 MB; `classify` of all three models peaks at
# 217 MB on the declarations, in text and in JSON.
# `value` peaks highest on the declarations: 204 MB under the categoriser
# and 215 MB under the tuples model.
INPUT_BOUND = 8 * 1024 * 1024
_READ_CHUNK = 64 * 1024

_COUNT = itemgetter(1)  # of a (length, count) run
_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


class InputBoundError(FrameworkError, BoundError):
    """The input is longer than INPUT_BOUND bytes."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_input(parser):
    parser.add_argument(
        "path",
        nargs="?",
        default="-",
        help="framework file ('-' or omitted reads standard input)",
    )


def _add_format(parser):
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output rendering (default text)",
    )


def _depth(text: str) -> int:
    """A --depth value: ASCII digits, as in tuple literals, naming at least 1."""
    try:
        depth = _natural(text)
    except ValueError:
        depth = 0
    if depth < 1:
        raise argparse.ArgumentTypeError(
            f"must be a whole number of at least 1, got {text!r}")
    return depth


def _add_depth(parser, help_text=None):
    parser.add_argument("--depth", type=_depth, default=10, metavar="N", help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gradarg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    value = sub.add_parser("value", help="value of every argument under a model")
    _add_input(value)
    value.add_argument("--model", choices=MODELS, default="categoriser")
    _add_depth(value, "cycle unrolling runs for --model tuples (default 10)")
    _add_format(value)

    cmp_p = sub.add_parser("compare", help="compare two tupled-value literals")
    cmp_p.add_argument("first", help="tupled value, e.g. '[(2),(3)]'")
    cmp_p.add_argument("second")
    _add_format(cmp_p)

    solve = sub.add_parser("solve", help="enumerate extensions")
    _add_input(solve)
    solve.add_argument("--semantics", choices=("preferred", "stable"),
                       default="preferred")
    _add_format(solve)

    classify_p = sub.add_parser(
        "classify", help="acceptance level and well-defendedness per argument"
    )
    _add_input(classify_p)
    classify_p.add_argument("--semantics", choices=("preferred", "stable"),
                            default="preferred")
    classify_p.add_argument(
        "--model",
        choices=MODELS,
        action="append",
        dest="models",
        help="valuation(s) for the well-defended column (repeatable; "
             "default: all)",
    )
    _add_depth(classify_p)
    _add_format(classify_p)

    wd = sub.add_parser("well-defended", help="well-defended set for one model")
    _add_input(wd)
    wd.add_argument("--model", choices=MODELS, default="categoriser")
    _add_depth(wd)
    _add_format(wd)

    dot = sub.add_parser("export-dot", help="emit the graph in DOT form")
    _add_input(dot)
    _add_format(dot)

    return parser


# One parser per process, built on first use rather than at import: it holds
# no per-call state (parse_args makes a fresh namespace, --model appends to a
# None default, help width and streams are read when a message is printed).
_parser = functools.cache(build_parser)


def _read_graph(path: str) -> AttackGraph:
    """The graph in a file, or in standard input for "-", read as bytes and
    refused past INPUT_BOUND before any parsing, then decoded as open()
    decodes a path: strict UTF-8, universal newlines."""
    chunks = []
    left = INPUT_BOUND + 1  # bytes still to read; none left is past the bound
    with (contextlib.nullcontext(sys.stdin.buffer) if path == "-"
          else open(path, "rb")) as handle:
        # In chunks: a read of n bytes first allocates all n.
        while left and (chunk := handle.read(min(left, _READ_CHUNK))):
            chunks.append(chunk)
            left -= len(chunk)
    if not left:
        raise InputBoundError(f"input exceeds the bound of {INPUT_BOUND} bytes")
    text = b"".join(chunks).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    del chunks  # not held through the parse
    return parse_framework(text)


def _emit(args, fields, lines) -> int:
    """Print a command's result: the fields that `fields()` returns as one
    JSON document, headed by the command name, or its lines.  Only the form
    printed is built, and neither is joined into one string first: a large
    tuple output would be held twice more at its peak."""
    if args.format == "json":
        json.dump({"command": args.command, **fields()}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(f"{line}\n" for line in lines)
    return EXIT_OK


def _cmd_value(args) -> int:
    g = _read_graph(args.path)
    values = _values(g, MODELS[args.model], args.depth)
    _check_printable(g, values.values())
    # Each value is dropped once its text is made; a text line is written
    # as it is made.
    shown = ((name, str(values.pop(name))) for name in g.arguments)
    return _emit(args, lambda: {"model": args.model, "values": dict(shown)},
                 (f"{name} {text}" for name, text in shown))


def _check_printable(g: AttackGraph, values) -> None:
    """Raise RenderLimitError when an integer that a value of `g` prints,
    a branch count or a Fraction's numerator or denominator, has more
    decimal digits than the interpreter's int-to-str limit allows.  It is
    checked before anything is printed, so such a value prints nothing.
    `values` is one value map's values, all of one kind."""
    # the limit (0 for none) is missing from CPython 3.10.0-3.10.6
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        return
    kinds = set(map(type, values))
    if Fraction in kinds:
        largest = max(max(map(abs, map(_NUMERATOR, values))), max(map(_DENOMINATOR, values)))
    elif TupledValue in kinds:
        # A count of walks of length L is at most d ** L, with d the most
        # attackers of any argument, so only a run tuple whose longest
        # length passes `reach` can hold a count of more than 3 * limit bits.
        reach = 3 * limit // (max(map(len, g._attackers)).bit_length() or 1)
        largest = max((max(map(_COUNT, runs)) for value in values
                       for runs in (value.even.runs, value.odd.runs)
                       if runs and runs[-1][0] > reach), default=0)
    else:
        return  # floats and labels print no long integer
    # 2 ** (3 * limit) < 10 ** limit: only a longer int can have too many digits
    if largest.bit_length() > 3 * limit and largest >= 10 ** limit:
        raise RenderLimitError("a value has too many decimal digits to print")


def _cmd_compare(args) -> int:
    first = parse_tuple_literal(args.first)
    second = parse_tuple_literal(args.second)
    outcome = compare(first, second)
    word = "exact" if outcome.exact else "inexact"
    return _emit(args, lambda: {"verdict": outcome.verdict.value, "exact": outcome.exact},
                 [f"{outcome.verdict.value} ({word})"])


def _cmd_solve(args) -> int:
    g = _read_graph(args.path)
    extensions = (preferred_extensions(g) if args.semantics == "preferred"
                  else stable_extensions(g))
    return _emit(args, lambda: {"semantics": args.semantics,
                                "extensions": [e.members for e in extensions]},
                 (e.render() for e in extensions))


def _cmd_classify(args) -> int:
    g = _read_graph(args.path)
    models = list(dict.fromkeys(args.models or MODELS))  # repeats dropped
    # One value map at a time: each is dropped once its verdicts are taken.
    defended = {m: _defended(g, MODELS[m], args.depth) for m in models}
    search = _semantics_search(g, args.semantics)
    # Text lists no extension, so it forms none: the levels are folded part
    # by part, past the extension cap.
    extensions = (None if args.format == "text"
                  else [e.members for e in _sorted_extensions(g, search)])
    level = _levels(g, search)
    del search  # not held through the printing
    names = g.arguments

    def lines():
        for name, lev, *marks in zip(names, level, *defended.values()):
            holders = [m for m, mark in zip(models, marks) if mark]
            tag = f" [well-defended:{','.join(holders)}]" if holders else ""
            yield f"{name} {LEVELS[lev]}{tag}"

    def fields():
        return {
            "semantics": args.semantics,
            "extensions": extensions,
            "levels": _named_levels(g, level),
            "well_defended": {m: [*compress(names, defended[m])] for m in models},
        }

    return _emit(args, fields, lines())


def _cmd_well_defended(args) -> int:
    g = _read_graph(args.path)
    names = [*compress(g.arguments, _defended(g, MODELS[args.model], args.depth))]
    return _emit(args, lambda: {"model": args.model, "well_defended": names}, names)


def _cmd_export_dot(args) -> int:
    g = _read_graph(args.path)
    dot = g.to_dot()
    return _emit(args, lambda: {"dot": dot}, [dot.rstrip("\n")])


_COMMANDS = {
    "value": _cmd_value,
    "compare": _cmd_compare,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "well-defended": _cmd_well_defended,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, TupleFormatError, OSError, UnicodeDecodeError) as exc:
        print(f"gradarg: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BoundError as exc:
        print(f"gradarg: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def entry() -> None:
    """Console entry point.  A reader that closes standard output early
    ends the process quietly by SIGPIPE, like other Unix filters."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
