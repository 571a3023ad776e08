"""Command-line front end.

Subcommands: value (per-argument values under a model), compare (two
tupled-value literals), solve (extension enumeration), classify
(acceptance levels plus well-defendedness), well-defended (the set for
one model), export-dot.  Graphs are read from a file path or standard
input.  Exit codes: 0 success, 1 usage error, 2 parse error, 3
computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .acceptability import (
    EnumerationBoundError,
    classification_report,
    preferred_extensions,
    stable_extensions,
    valuation_preference,
    well_defended,
)
from .framework import AttackGraph, FrameworkError, ParseError, parse_framework
from .local import (
    ConvergenceError,
    UndecidableError,
    builtin_instances,
    evaluate_local,
)
from .tuple_eval import (
    CyclicGraphError,
    EvaluationBoundError,
    PropagationDepth,
    evaluate_cyclic,
)
from .tuples import TupleFormatError, parse_tuple_literal, compare

__all__ = ["build_parser", "entry", "main"]

MODELS = ("categoriser", "labelling", "tuples")
_INSTANCE_NAME = {"categoriser": "categoriser", "labelling": "rooted_labelling"}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_COMPUTE = 3


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gradarg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    value = sub.add_parser("value", help="value of every argument under a model")
    _add_input(value)
    value.add_argument("--model", choices=MODELS, default="categoriser")
    value.add_argument("--depth", type=int, default=10, metavar="N",
                       help="cycle unrolling runs for --model tuples (default 10)")
    _add_format(value)

    cmp_p = sub.add_parser("compare", help="compare two tupled-value literals")
    cmp_p.add_argument("--model", choices=("tuples",), default="tuples")
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
    classify_p.add_argument("--depth", type=int, default=10, metavar="N")
    _add_format(classify_p)

    wd = sub.add_parser("well-defended", help="well-defended set for one model")
    _add_input(wd)
    wd.add_argument("--model", choices=MODELS, default="categoriser")
    wd.add_argument("--depth", type=int, default=10, metavar="N")
    _add_format(wd)

    dot = sub.add_parser("export-dot", help="emit the graph in DOT form")
    _add_input(dot)
    _add_format(dot)

    return parser


def _read_graph(path: str) -> AttackGraph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    return parse_framework(text)


def _render_value(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    return value.render()


def _model_values(g: AttackGraph, model: str, depth: int):
    if model == "tuples":
        return evaluate_cyclic(g, PropagationDepth(depth))
    instance = builtin_instances()[_INSTANCE_NAME[model]]
    return evaluate_local(g, instance)


def _emit(args, text_lines, document) -> int:
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK


def _cmd_value(args) -> int:
    g = _read_graph(args.path)
    values = _model_values(g, args.model, args.depth)
    rendered = {name: _render_value(values[name]) for name in g.arguments}
    lines = [f"{name} {rendered[name]}" for name in g.arguments]
    return _emit(args, lines, {"command": "value", "model": args.model,
                               "values": rendered})


def _cmd_compare(args) -> int:
    first = parse_tuple_literal(args.first)
    second = parse_tuple_literal(args.second)
    outcome = compare(first, second)
    word = "exact" if outcome.exact else "inexact"
    line = f"{outcome.verdict.value} ({word})"
    return _emit(args, [line], {"command": "compare",
                                "verdict": outcome.verdict.value,
                                "exact": outcome.exact})


def _cmd_solve(args) -> int:
    g = _read_graph(args.path)
    extensions = (preferred_extensions(g) if args.semantics == "preferred"
                  else stable_extensions(g))
    lines = [e.render() for e in extensions]
    return _emit(args, lines, {"command": "solve", "semantics": args.semantics,
                               "extensions": [list(e.members) for e in extensions]})


def _cmd_classify(args) -> int:
    g = _read_graph(args.path)
    models = args.models or list(MODELS)
    valuations = {m: _model_values(g, m, args.depth) for m in models}
    report = classification_report(g, args.semantics, valuations)
    lines = []
    for name in g.arguments:
        line = f"{name} {report.level[name]}"
        holders = [m for m in models if name in report.well_defended[m]]
        if holders:
            line += f" [well-defended:{','.join(holders)}]"
        lines.append(line)
    document = {
        "command": "classify",
        "semantics": args.semantics,
        "extensions": [list(e.members) for e in report.extensions],
        "levels": dict(report.level),
        "well_defended": {
            m: [n for n in g.arguments if n in report.well_defended[m]]
            for m in models
        },
    }
    return _emit(args, lines, document)


def _cmd_well_defended(args) -> int:
    g = _read_graph(args.path)
    values = _model_values(g, args.model, args.depth)
    defended = well_defended(g, valuation_preference(values))
    names = [n for n in g.arguments if n in defended]
    return _emit(args, names, {"command": "well-defended", "model": args.model,
                               "well_defended": names})


def _cmd_export_dot(args) -> int:
    g = _read_graph(args.path)
    dot = g.to_dot()
    return _emit(args, [dot.rstrip("\n")], {"command": "export-dot", "dot": dot})


_COMMANDS = {
    "value": _cmd_value,
    "compare": _cmd_compare,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "well-defended": _cmd_well_defended,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if getattr(args, "depth", 1) < 1:
        print("gradarg: error: --depth must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, TupleFormatError, OSError) as exc:
        print(f"gradarg: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConvergenceError, EnumerationBoundError, EvaluationBoundError,
            CyclicGraphError, UndecidableError, FrameworkError) as exc:
        print(f"gradarg: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
