"""Tests of the benchmark's own code: output checks and self-time arithmetic.

Run from the root of the checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Graph, count_conflict_free, draw_graph, roadmap_graph, size_properties  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")


def cli_output(*argv) -> str:
    from gradarg.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return buffer.getvalue()


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, f"{name}.apx")


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # evaluate_cyclic [0, 10] -> evaluate_acyclic [1, 9] -> topological_order [2, 3]
        start, end, parent = [0.0, 1.0, 2.0], [10.0, 9.0, 3.0], [-1, 0, 1]
        self.assertEqual(self_times(start, end, parent), [2.0, 7.0, 1.0])

    def test_siblings_and_overlap(self):
        # two children that overlap are covered once: [1, 4] u [3, 5] = 4
        start, end, parent = [0.0, 1.0, 3.0, 6.0], [10.0, 4.0, 5.0, 7.0], [-1, 0, 0, 0]
        self.assertEqual(self_times(start, end, parent)[0], 10.0 - 4.0 - 1.0)

    def test_self_times_sum_to_root(self):
        start = [0.0, 0.5, 1.0, 4.0, 6.0]
        end = [8.0, 5.0, 2.0, 4.5, 7.5]
        parent = [-1, 0, 1, 1, 0]
        self.assertAlmostEqual(sum(self_times(start, end, parent)), 8.0)

    def test_layer_metrics_split_nested_tuple_spans(self):
        spans = {
            "names": ["cli.main", "tuple_eval.evaluate_cyclic", "tuple_eval.evaluate_acyclic",
                      "framework.find_mcycles"],
            "name": [0, 1, 3, 2],
            "start": [0.0, 1.0, 1.5, 2.0],
            "end": [10.0, 9.0, 2.0, 8.0],
            "parent": [-1, 0, 1, 1],
            "op": [0, 0, 0, 0],
            "note": [0, 3, 0, 3],
            "rss_growth_mb": [0.0, 1.5, 0.0, 0.0],
            "error": {},
        }
        m = layer_metrics(spans, passes=1, output_bytes=100)
        self.assertEqual(m["tuple_eval.cyclic_s"], 8.0 - 0.5 - 6.0)
        self.assertEqual(m["tuple_eval.acyclic_s"], 6.0)
        self.assertEqual(m["tuple_eval.calls"], 1)
        self.assertEqual(m["tuple_eval.inexact_values"], 3)
        self.assertEqual(m["tuple_eval.maxrss_growth_mb"], 1.5)
        self.assertEqual(m["framework.condense_s"], 0.5)
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["trace.self_sum_s"], 10.0)


class TracerWrapping(unittest.TestCase):
    def test_wraps_where_looked_up_and_restores(self):
        import gradarg.acceptability as acceptability
        import gradarg.cli as cli
        import gradarg.tuples as tuples

        original = tuples.compare
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(acceptability.compare, original)
            self.assertIs(acceptability.compare, tuples.compare)
            self.assertIs(cli.compare, tuples.compare)
            tracer.op_id = 7
            cli_output("value", fixture("example4"), "--model", "tuples")
        finally:
            tracer.uninstall()
        self.assertIs(acceptability.compare, original)
        spans = tracer.spans()
        labels = [spans["names"][k] for k in spans["name"]]
        self.assertEqual(labels[0], "cli.main")
        cyclic = labels.index("tuple_eval.evaluate_cyclic")
        acyclic = labels.index("tuple_eval.evaluate_acyclic")
        self.assertEqual(spans["parent"][acyclic], cyclic)  # example4 is acyclic
        self.assertEqual(set(spans["op"]), {7})
        total = sum(self_times(spans["start"], spans["end"], spans["parent"]))
        self.assertAlmostEqual(total, spans["end"][0] - spans["start"][0], places=9)


class TupleCheck(unittest.TestCase):
    def setUp(self):
        self.g = checks.load_graph(fixture("mcycles"))
        self.text = cli_output("value", fixture("mcycles"), "--model", "tuples")

    def test_real_output_passes(self):
        self.assertEqual(checks.check_tuple_values(self.g, self.text), [])

    def test_dropped_walk_count_fails(self):
        lines = self.text.splitlines()
        for i, line in enumerate(lines):
            name, literal = line.split(" ", 1)
            (even, _), (odd, _) = checks.parse_tupled(literal)
            if odd and not literal.startswith("[(0,...)"):
                first = min(odd)
                # drop one branch of the shortest attack length
                lines[i] = line.replace(f",({first}", f",({first + 2}", 1) if odd[first] == 1 \
                    else line.replace(f",({first}^{odd[first]}", f",({first}^{odd[first] - 1}", 1)
                break
        corrupted = "\n".join(lines) + "\n"
        self.assertNotEqual(corrupted, self.text)
        self.assertTrue(checks.check_tuple_values(self.g, corrupted))

    def test_acyclic_fixture_and_walk_oracle(self):
        g = checks.load_graph(fixture("example6"))
        text = cli_output("value", fixture("example6"), "--model", "tuples")
        self.assertEqual(checks.check_tuple_values(g, text), [])
        corrupted = text.replace("[(2),(1)]", "[(2),(1,1)]", 1)
        self.assertNotEqual(corrupted, text)
        self.assertTrue(checks.check_tuple_values(g, corrupted))


class LocalChecks(unittest.TestCase):
    def test_flipped_label_fails(self):
        g = checks.load_graph(fixture("example1"))
        text = cli_output("value", fixture("example1"), "--model", "labelling")
        self.assertEqual(checks.check_labelling_values(g, text), [])
        name, label = text.splitlines()[0].split(" ")
        flipped = text.replace(f"{name} {label}", f"{name} {'-' if label == '+' else '+'}", 1)
        self.assertTrue(checks.check_labelling_values(g, flipped))

    def test_categoriser_exact_and_cyclic(self):
        for name in ("example4", "mcycles"):
            g = checks.load_graph(fixture(name))
            text = cli_output("value", fixture(name), "--model", "categoriser")
            self.assertEqual(checks.check_categoriser_values(g, text), [], name)
            first, value = text.splitlines()[-1].split(" ")
            bent = "0.25" if "." in value else "1/4"
            if value == bent:
                bent = "0.5" if "." in value else "1/2"
            corrupted = text.replace(f"{first} {value}", f"{first} {bent}")
            self.assertTrue(checks.check_categoriser_values(g, corrupted), name)

    def test_well_defended_against_values(self):
        path = fixture("star3")
        g = checks.load_graph(path)
        values = cli_output("value", path, "--model", "categoriser")
        defended = cli_output("well-defended", path, "--model", "categoriser")
        self.assertEqual(checks.check_well_defended(g, defended, "categoriser", values), [])
        self.assertTrue(checks.check_well_defended(g, "A\n" + defended, "categoriser", values))


class ExtensionChecks(unittest.TestCase):
    def setUp(self):
        self.path = fixture("example1")
        self.g = checks.load_graph(self.path)

    def test_real_outputs_pass(self):
        for semantics in ("preferred", "stable"):
            solve = cli_output("solve", self.path, "--semantics", semantics)
            self.assertEqual(checks.check_solve(self.g, solve, semantics), [])
            doc = cli_output("classify", self.path, "--semantics", semantics, "--format", "json")
            self.assertEqual(checks.check_classify(self.g, doc, semantics), [])

    def test_non_admissible_and_nested_extensions_fail(self):
        self.assertTrue(checks.check_solve(self.g, "{A2}\n", "preferred"))
        self.assertTrue(checks.check_extensions(self.g, [["A1"], ["A1", "A4"]], "preferred"))
        self.assertTrue(checks.check_extensions(self.g, [["A1"]], "stable"))

    def test_flipped_level_fails(self):
        doc = json.loads(cli_output("classify", self.path, "--format", "json"))
        name = next(iter(doc["levels"]))
        doc["levels"][name] = "not-accepted" if doc["levels"][name] != "not-accepted" else "uni"
        self.assertTrue(checks.check_classify(self.g, json.dumps(doc), "preferred"))

    def test_stable_must_be_preferred(self):
        op = {"kind": "cli", "graph": self.path, "command": "solve", "semantics": "stable"}
        companions = {(self.path, "solve", "preferred"): "{A3}\n"}
        stable = cli_output("solve", self.path, "--semantics", "stable")
        self.assertTrue(any("not among the preferred" in p
                            for p in checks.check_op(op, stable, companions)))


class ScanCheck(unittest.TestCase):
    def test_report_bookkeeping(self):
        doc = {"valuation": "rooted_labelling", "trials_used": 40,
               "cleanly_not_defended": None, "defended_not_cleanly": None}
        op = {"kind": "scan", "valuation": "rooted_labelling", "seed": 1, "trials": 40}
        self.assertEqual(checks.check_scan(doc, op), [])
        self.assertTrue(checks.check_scan(dict(doc, trials_used=12), op))

    def test_wrong_witness_fails(self):
        # a1 attacked by an unattacked a2: a1 is not accepted at all
        witness = {"argument": "a1", "trial": 3, "arguments": ["a1", "a2"],
                   "attacks": [["a2", "a1"]]}
        doc = {"valuation": "categoriser", "trials_used": 10,
               "cleanly_not_defended": witness, "defended_not_cleanly": None}
        op = {"kind": "scan", "valuation": "categoriser", "seed": 1, "trials": 10}
        self.assertTrue(checks.check_scan(doc, op))


BANDS = {"largest_component": (49, 53), "component_entries": (15, 18)}


class Generators(unittest.TestCase):
    def test_seeded_and_within_properties(self):
        import random

        a = draw_graph(random.Random("x"), 80, 160, bands=BANDS)
        b = draw_graph(random.Random("x"), 80, 160, bands=BANDS)
        self.assertEqual(a.apx(), b.apx())
        props = size_properties(a)
        self.assertEqual((props["arguments"], props["attacks"]), (80, 160))
        self.assertTrue(49 <= props["largest_component"] <= 53)

    def test_roadmap_graph_matches_library_generator(self):
        from gradarg import random_attack_graph

        ours = roadmap_graph(2, 24, 0.05)
        theirs = random_attack_graph(2, 24, 0.05)
        self.assertEqual([(ours.names[s], ours.names[d]) for s, d in ours.attacks],
                         list(theirs.attacks))

    def test_conflict_free_count(self):
        # a <-> b, c alone: {}, {a}, {b}, {c}, {a,c}, {b,c}
        self.assertEqual(count_conflict_free(Graph(["a", "b", "c"], [(0, 1), (1, 0)])), 6)
        # a self-attacker is in no conflict-free set
        self.assertEqual(count_conflict_free(Graph(["a", "b"], [(0, 0)])), 2)


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, percentile, beyond = run.tail([float(i) for i in range(20)])
        self.assertEqual((value, percentile, beyond), (9.0, 50.0, 10))
        self.assertEqual(run.tail([3.0, 1.0])[0], 3.0)


class Reference(unittest.TestCase):
    def test_slice_is_fixed_work(self):
        self.assertEqual(reference.reference_slice(), reference.reference_slice())

    def test_speed_is_mean_slice_over_nominal(self):
        nominal = reference.SLICE_NOMINAL_S
        records = [{"reference": 3 * nominal, "slices": 2}, {"reference": 0.0, "slices": 0},
                   {"reference": 3 * nominal, "slices": 2}]
        self.assertAlmostEqual(reference.machine_speed(records), 1.5)

    def test_slice_count_follows_op_time(self):
        seconds, count = reference.run_reference(0.0)
        self.assertEqual(count, 1)
        self.assertGreater(seconds, 0.0)
        self.assertEqual(reference.run_reference(100.0)[1], reference.MAX_SLICES)
        self.assertTrue(reference.gc.isenabled())


if __name__ == "__main__":
    unittest.main()
