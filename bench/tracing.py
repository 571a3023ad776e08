"""Spans around gradarg's public entry points, and self-time arithmetic.

The tracer wraps functions from outside the library: a wrapped function
is replaced wherever a `gradarg` module looks it up by name, and a wrapped
method is replaced on its class.  Each call records one span (name,
start, end, parent, op id); spans stay in memory in flat arrays and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from array import array

# (span name, module, attribute); a dotted attribute is Class.method.
ENTRY_POINTS = (
    ("framework.parse_framework", "gradarg.framework", "parse_framework"),
    ("framework.strongly_connected_components", "gradarg.framework",
     "AttackGraph.strongly_connected_components"),
    ("framework.find_mcycles", "gradarg.framework", "AttackGraph.find_mcycles"),
    ("framework.topological_order", "gradarg.framework", "AttackGraph.topological_order"),
    ("local.evaluate_local", "gradarg.local", "evaluate_local"),
    ("tuple_eval.evaluate_cyclic", "gradarg.tuple_eval", "evaluate_cyclic"),
    ("tuple_eval.evaluate_acyclic", "gradarg.tuple_eval", "evaluate_acyclic"),
    ("tuples.compare", "gradarg.tuples", "compare"),
    ("tuples.render", "gradarg.tuples", "TupledValue.render"),
    ("acceptability.preferred_extensions", "gradarg.acceptability", "preferred_extensions"),
    ("acceptability.stable_extensions", "gradarg.acceptability", "stable_extensions"),
    ("acceptability.classify", "gradarg.acceptability", "classify"),
    ("acceptability.classification_report", "gradarg.acceptability", "classification_report"),
    ("acceptability.well_defended", "gradarg.acceptability", "well_defended"),
    ("acceptability.valuation_preference", "gradarg.acceptability", "valuation_preference"),
    ("acceptability.compatibility_scan", "gradarg.acceptability", "compatibility_scan"),
    ("cli.main", "gradarg.cli", "main"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _note_result(name, result):
    """A small number taken from a call's result: cycle unions found,
    inexact tupled values, or scan trials used."""
    if name == "framework.find_mcycles":
        return len(result)
    if name.startswith("tuple_eval."):
        return sum(1 for v in result.values() if not v.exact)
    if name == "acceptability.compatibility_scan":
        return result.trials_used
    return 0


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.note = array("q")
        self.rss_growth = array("d")  # MB, recorded on tuple_eval spans only
        self.error: dict[int, str] = {}
        self.op_id = -1
        self._open: list[int] = []
        self._swaps: list[tuple] = []

    def wrap(self, span_name: str, fn):
        if span_name not in self.name_id:
            self.name_id[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self.name_id[span_name]
        rss = span_name.startswith("tuple_eval.")
        clock = time.process_time  # the clock ops are timed with

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.note.append(0)
            self.rss_growth.append(0.0)
            self._open.append(idx)
            before = _maxrss_mb() if rss else 0.0
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                self.error[idx] = type(exc).__name__
                self._open.pop()
                raise
            self.end[idx] = clock()
            self._open.pop()
            if rss:
                self.rss_growth[idx] = _maxrss_mb() - before
            self.note[idx] = _note_result(span_name, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every entry point wherever gradarg looks it up."""
        if not self._swaps:
            self._swaps = list(self._plan_swaps())
        for owner, key, _, wrapped in self._swaps:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._swaps:
            setattr(owner, key, original)

    def _plan_swaps(self):
        modules = [m for k, m in sys.modules.items() if k == "gradarg" or k.startswith("gradarg.")]
        for span_name, module_name, attr in ENTRY_POINTS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = getattr(cls, meth)
                yield cls, meth, original, self.wrap(span_name, original)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span_name, original)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        yield mod, key, original, wrapped

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
            "note": list(self.note),
            "rss_growth_mb": list(self.rss_growth),
            "error": {str(k): v for k, v in self.error.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans(), handle)


def _children(parent) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            out.setdefault(p, []).append(i)
    return out


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are merged as intervals (clipped to the parent), so children
    that overlap or touch are not subtracted twice.
    """
    children = _children(parent)
    out = []
    for i in range(len(start)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], start[i]), min(end[c], end[i])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end[i] - start[i]) - covered)
    return out


def _ancestor_named(spans, i, names) -> bool:
    p = spans["parent"][i]
    while p >= 0:
        if spans["names"][spans["name"][p]] in names:
            return True
        p = spans["parent"][p]
    return False


def layer_metrics(spans: dict, passes: int, output_bytes: float) -> dict:
    """Per-layer totals per pass of the op set: self seconds, call counts
    and the counters listed in README.md."""
    names = spans["names"]
    label = [names[k] for k in spans["name"]]
    self_s = self_times(spans["start"], spans["end"], spans["parent"])
    passes = max(passes, 1)
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for i, name in enumerate(label):
        total[name] = total.get(name, 0.0) + self_s[i]
        count[name] = count.get(name, 0) + 1

    def s(*keys):
        return sum(total.get(k, 0.0) for k in keys) / passes

    def c(*keys):
        return sum(count.get(k, 0) for k in keys) / passes

    children = _children(spans["parent"])
    local_exact = local_cyclic = 0.0
    convergence = 0
    for i, name in enumerate(label):
        if name != "local.evaluate_local":
            continue
        cyclic = any(label[c] == "framework.find_mcycles" and spans["note"][c] > 0
                     for c in children.get(i, ()))
        if cyclic:
            local_cyclic += self_s[i]
        else:
            local_exact += self_s[i]
        if spans["error"].get(str(i)) == "ConvergenceError":
            convergence += 1
    tuple_top = [i for i, name in enumerate(label)
                 if name.startswith("tuple_eval.")
                 and not _ancestor_named(spans, i, {"tuple_eval.evaluate_cyclic",
                                                    "tuple_eval.evaluate_acyclic"})]
    # The high-water mark only rises on a new peak, so this is the whole
    # run's rise during tuple evaluation, not a per-pass figure.
    rss_growth = sum(spans["rss_growth_mb"][i] for i in tuple_top)
    scan_spans = [i for i, name in enumerate(label) if name == "acceptability.compatibility_scan"]
    scan_trials = sum(spans["note"][i] for i in scan_spans)
    scan_evaluated = sum(1 for i in scan_spans for ch in children.get(i, ())
                         if label[ch] == "acceptability.classify")
    return {
        "framework.parse_s": s("framework.parse_framework"),
        "framework.condense_s": s("framework.strongly_connected_components",
                                  "framework.find_mcycles", "framework.topological_order"),
        "framework.condense_calls": c("framework.strongly_connected_components",
                                      "framework.find_mcycles", "framework.topological_order"),
        "local.exact_s": local_exact / passes,
        "local.cyclic_s": local_cyclic / passes,
        "local.calls": c("local.evaluate_local"),
        "local.convergence_failures": convergence / passes,
        "tuple_eval.cyclic_s": s("tuple_eval.evaluate_cyclic"),
        "tuple_eval.acyclic_s": s("tuple_eval.evaluate_acyclic"),
        "tuple_eval.calls": len(tuple_top) / passes,
        "tuple_eval.maxrss_growth_mb": rss_growth,
        "tuple_eval.inexact_values": sum(spans["note"][i] for i in tuple_top) / passes,
        "tuples.compare_s": s("tuples.compare"),
        "tuples.compare_calls": c("tuples.compare"),
        "tuples.render_s": s("tuples.render"),
        "acceptability.enumerate_s": s("acceptability.preferred_extensions",
                                       "acceptability.stable_extensions"),
        "acceptability.enumerate_calls": c("acceptability.preferred_extensions",
                                           "acceptability.stable_extensions"),
        "acceptability.classify_s": s("acceptability.classify",
                                      "acceptability.classification_report",
                                      "acceptability.well_defended",
                                      "acceptability.valuation_preference"),
        "acceptability.scan_s": s("acceptability.compatibility_scan"),
        "acceptability.scan_trials": scan_trials / passes,
        "acceptability.scan_useful_frac": scan_evaluated / scan_trials if scan_trials else 0.0,
        "cli.self_s": s("cli.main"),
        "cli.output_bytes": output_bytes,
        "trace.self_sum_s": sum(self_s) / passes,
    }
