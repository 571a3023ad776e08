import itertools
import random
import tracemalloc

import pytest

from conftest import assert_matches_walk_counts, load_fixture

from gradarg import (
    AttackGraph,
    BranchEdit,
    CyclicGraphError,
    EMPTY,
    EvaluationBoundError,
    LEAF_VALUE,
    Verdict,
    ZERO_INF,
    compare,
    edit_graph,
    evaluate_acyclic,
    evaluate_cyclic,
    generate_family,
    parse_framework,
    parse_tuple_literal,
    random_acyclic_graph,
    random_attack_graph,
    scan_graph_stream,
)
from gradarg.tuples import GradTuple, TupledValue


def literal(text):
    return parse_tuple_literal(text)


# -- oracles -------------------------------------------------------------


def enumerate_branch_lengths(g, target):
    """All leaf-to-target path lengths, by explicit depth-first search."""
    leaves = g.leaves()
    lengths = []
    for leaf in leaves:
        stack = [(leaf, 0)]
        while stack:
            node, length = stack.pop()
            if node == target and length > 0:
                lengths.append(length)
            for nxt in g.targets_of(node):
                stack.append((nxt, length + 1))
    return sorted(lengths)


# -- acyclic evaluation ----------------------------------------------------


class TestAcyclicEvaluation:
    def test_leaf_value(self):
        values = evaluate_acyclic(parse_framework("arg(a)."))
        assert values["a"] == LEAF_VALUE
        assert values["a"].even is ZERO_INF

    def test_published_values(self):
        values = evaluate_acyclic(load_fixture("example6"))
        assert values["D1"] == values["C2"] == values["E1"] == LEAF_VALUE
        assert values["C1"] == values["D2"] == literal("[(),(1)]")
        assert values["C3"] == literal("[(2),()]")
        assert values["B1"] == literal("[(2),(1)]")
        assert values["B2"] == literal("[(),(3)]")
        assert values["A"] == literal("[(2,4),(1,3)]")

    def test_published_values_with_duplicates(self):
        values = evaluate_acyclic(load_fixture("example4"))
        assert values["B1"] == literal("[(2),(3)]")
        assert values["A"] == literal("[(2,4),(1,3,3)]")

    def test_pruned_subgraph_ordering(self):
        values = evaluate_acyclic(load_fixture("example4_hatched"))
        assert values["A"] == literal("[(4),(3)]")

        def better(x, y):
            return compare(values[x], values[y]).verdict is Verdict.FIRST_BETTER

        for top in ("E1", "D2"):
            assert better(top, "C1")
        assert better("C1", "B1")
        assert better("B1", "A")
        for bottom in ("D1", "C2"):
            assert better("A", bottom)

    def test_matches_path_enumeration(self):
        for seed in range(100):
            g = random_acyclic_graph(seed, 3 + seed % 7, 0.45)
            values = evaluate_acyclic(g)
            for name in g.arguments:
                value = values[name]
                if not g.attackers_of(name):
                    assert value == LEAF_VALUE
                    continue
                lengths = enumerate_branch_lengths(g, name)
                assert value.even.elements() == tuple(
                    x for x in lengths if x % 2 == 0
                ), name
                assert value.odd.elements() == tuple(
                    x for x in lengths if x % 2 == 1
                ), name
                assert value.even.exact and value.odd.exact

    def test_rejects_cycles(self):
        with pytest.raises(CyclicGraphError):
            evaluate_acyclic(load_fixture("example7"))


# -- cyclic evaluation -----------------------------------------------------


class TestCyclicEvaluation:
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_unattacked_cycles_closed_form(self, size):
        g = generate_family("unattacked-cycle", size=size)
        values = evaluate_cyclic(g, 10)
        horizon = 10 * size
        for member in g.arguments:
            v = values[member]
            assert v.even.elements() == tuple(range(2, horizon + 1, 2))
            assert v.odd.elements() == tuple(range(1, horizon + 1, 2))
            assert v.even.infinite and v.odd.infinite
            assert v.even.horizon == horizon
            assert v.odd.horizon == horizon
            assert not v.even.exact

    def test_mutual_attack_with_bystanders(self):
        values = evaluate_cyclic(load_fixture("example7"))
        for member in ("A", "B"):
            v = values[member]
            assert v.even.elements()[:3] == (2, 4, 6)
            assert v.odd.elements()[:3] == (1, 3, 5)
        c = values["C"]
        assert c.even.elements()[:3] == (2, 4, 6)
        assert c.odd.elements()[:3] == (3, 5, 7)
        assert c.even.infinite and c.odd.infinite

    def test_broken_symmetry(self):
        values = evaluate_cyclic(load_fixture("example8"))
        assert values["D"] == LEAF_VALUE
        a, b, c, e = (values[k] for k in "ABCE")
        assert a.even is EMPTY or a.even.is_empty
        assert a.odd.elements()[:4] == (1, 3, 5, 7)
        assert b.even.elements()[:4] == (2, 4, 6, 8)
        assert b.odd.is_empty
        assert c.even.elements()[:4] == (2, 4, 6, 8)
        assert c.odd.is_empty
        assert e.even.is_empty
        assert e.odd.elements()[:4] == (3, 5, 7, 9)
        for v in (a, b, c, e):
            assert not (v.even.is_empty and v.odd.is_empty)

    def test_attacked_cycle_interleaves_lengths(self):
        g = generate_family("attacked-cycle", size=3)
        values = evaluate_cyclic(g)
        assert values["D"] == LEAF_VALUE
        assert values["C1"].odd.elements()[:3] == (1, 7, 13)
        assert values["C1"].even.elements()[:3] == (4, 10, 16)
        assert values["C2"].even.elements()[:3] == (2, 8, 14)
        assert values["C2"].odd.elements()[:3] == (5, 11, 17)
        assert values["C3"].odd.elements()[:3] == (3, 9, 15)
        assert values["C3"].even.elements()[:3] == (6, 12, 18)

    def test_acyclic_graphs_fall_through(self):
        g = load_fixture("example6")
        assert evaluate_cyclic(g) == evaluate_acyclic(g)

    def test_an_acyclic_graph_is_walked_for_cycles_once(self, monkeypatch):
        calls = []
        well_founded = AttackGraph.is_well_founded
        monkeypatch.setattr(AttackGraph, "is_well_founded",
                            lambda g: calls.append(g) or well_founded(g))
        g = generate_family("chain", size=1000)
        assert evaluate_cyclic(g)["A1"].odd.elements() == (999,)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name", ["example7", "example8", "example2", "mcycles", "star3"]
    )
    def test_fixtures_match_walk_counts(self, name):
        g = load_fixture(name)
        assert_matches_walk_counts(g, evaluate_cyclic(g))

    @pytest.mark.parametrize("chain", [1, 2, 3])
    def test_two_cycle_entered_by_a_chain_keeps_unreached_parities_exact(self, chain):
        # Only walks of length `chain` enter the two-cycle, so each of its
        # members has one parity with no walk at all.
        names = [f"c{i}" for i in range(chain + 1)] + ["x", "y"]
        attacks = [(names[i], names[i + 1]) for i in range(chain)]
        g = AttackGraph(names, attacks + [(names[chain], "x"), ("x", "y"), ("y", "x")])
        values = evaluate_cyclic(g)
        assert_matches_walk_counts(g, values)
        assert (values["x"].even.is_empty, values["x"].odd.is_empty) == \
            (chain % 2 == 0, chain % 2 == 1)

    @staticmethod
    def traced_peak(g):
        tracemalloc.start()
        try:
            values = evaluate_cyclic(g)
            return values, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_long_chain_holds_one_count_per_argument(self):
        # Rows indexed from length 0 would hold 12.5 million entries here
        # (100 MB); the runs hold one per argument.
        names = [f"c{i}" for i in range(5000)]
        values, peak = self.traced_peak(AttackGraph(names, list(zip(names, names[1:]))))
        assert values["c4999"].odd.runs == ((4999, 1),)
        assert peak < 20 * 1024 * 1024

    def test_chains_joined_at_a_node_hold_only_their_walks(self):
        # c2999 and the leaf both attack j, so j's walks have lengths 1 and
        # 3000.  Rows spanning every length between a row's shortest and
        # longest walk would copy that span down the d chain: 9 million
        # entries (75 MB); the runs hold two per argument.
        c = [f"c{i}" for i in range(3000)]
        d = [f"d{i}" for i in range(3000)]
        attacks = list(zip(c, c[1:])) + [(c[-1], "j"), ("leaf", "j"), ("j", d[0])]
        g = AttackGraph(c + ["leaf", "j"] + d, attacks + list(zip(d, d[1:])))
        values, peak = self.traced_peak(g)
        assert values["d2999"].odd.runs == ((3001, 1),)
        assert values["d2999"].even.runs == ((6000, 1),)
        assert peak < 20 * 1024 * 1024

    def test_random_graphs_match_walk_counts(self):
        for seed in range(60):
            g = random_attack_graph(seed=seed, size=3 + seed % 5, density=0.35)
            values = evaluate_cyclic(g, 8)
            assert_matches_walk_counts(g, values, bound=120)
        cyclic = (g for g in scan_graph_stream(7) if not g.is_well_founded())
        for g in itertools.islice(cyclic, 1000):
            for runs in (1, 3):
                assert_matches_walk_counts(g, evaluate_cyclic(g, runs))

    def test_deeper_propagation_refines_the_same_value(self):
        for name in ("example7", "example8", "mcycles"):
            g = load_fixture(name)
            shallow = evaluate_cyclic(g, 5)
            deep = evaluate_cyclic(g, 10)
            for arg in g.arguments:
                for side in ("even", "odd"):
                    a = getattr(shallow[arg], side)
                    b = getattr(deep[arg], side)
                    assert a.infinite == b.infinite
                    if a.exact:
                        assert a == b
                        continue
                    assert b.horizon >= a.horizon
                    cutoff = a.horizon
                    assert [r for r in a.runs if r[0] <= cutoff] == \
                        [r for r in b.runs if r[0] <= cutoff]

    def test_depth_must_be_positive(self):
        # checked before the graph is looked at: example4 is acyclic,
        # example7 is not
        for name in ("example4", "example7"):
            for depth in (0, -3):
                with pytest.raises(ValueError, match="depth"):
                    evaluate_cyclic(load_fixture(name), depth)

    def test_depth_must_be_an_integer(self):
        # a float is refused on an acyclic graph (example4) as on a cyclic
        # one (example7), before any value is computed
        for name in ("example4", "example7"):
            with pytest.raises(TypeError):
                evaluate_cyclic(load_fixture(name), 2.5)


# -- branch independence -----------------------------------------------------


def explode_attackers(g, root):
    """Rebuild the root's neighbourhood with one fresh single-branch
    attacker per branch of each original attacker."""
    arguments = [root]
    attacks = []
    counter = 0

    def add_chain(length):
        nonlocal counter
        counter += 1
        names = [f"w{counter}_{k}" for k in range(length)]
        arguments.extend(names)
        attacks.append((names[0], root))
        for near, far in zip(names, names[1:]):
            attacks.append((far, near))

    values = evaluate_acyclic(g)
    for attacker in g.attackers_of(root):
        if not g.attackers_of(attacker):
            add_chain(1)
            continue
        v = values[attacker]
        for element in v.even.elements() + v.odd.elements():
            # a fresh pendant chain of `element + 1` edges into the root
            # realises a single-branch attacker of the same strength
            add_chain(element + 1)

    return AttackGraph(tuple(arguments), tuple(attacks)), values


# An unattacked 2-cycle feeding a chain: the largest horizon (23 at depth
# 10) sits on the chain's last singleton.
TWO_CYCLE_CHAIN = AttackGraph(
    ["a", "b", "c1", "c2", "c3"],
    [("a", "b"), ("b", "a"), ("a", "c1"), ("c1", "c2"), ("c2", "c3")],
)
UNION = [("u1", "u2"), ("u2", "u3"), ("u3", "u1")]
XS = [f"x{i}" for i in range(1, 11)]


def two_cycle_into_union(chain):
    """The 2-cycle feeds the attacked 3-cycle u1-u2-u3 through a chain of
    `chain` arguments at u1, and a leaf attacks u2."""
    xs = XS[:chain]
    path = list(zip(["a", *xs], [*xs, "u1"]))
    return AttackGraph(["a", "b", *xs, "l", "u1", "u2", "u3"],
                       [("a", "b"), ("b", "a"), *path, ("l", "u2"), *UNION])


class TestEvaluationBound:
    """WORK_BOUND equal to the largest horizon times the number of attacks
    evaluates; one less fails, wherever that horizon sits."""

    @pytest.mark.parametrize("g, longest_at", [
        (TWO_CYCLE_CHAIN, {"c3"}),
        # relayed distance from u1 sets the horizons 22, 23, 24
        (two_cycle_into_union(1), {"u3"}),
        # the leaf's first count (0) caps every member at 0 + 1 + 30
        (two_cycle_into_union(10), {"u1", "u2", "u3"}),
    ], ids=["singleton-after-union", "union-relayed", "union-capped"])
    def test_bound_is_exact_at_the_largest_horizon(self, monkeypatch, g, longest_at):
        values = evaluate_cyclic(g)
        horizons = {
            name: max(h for h in (v.even.horizon, v.odd.horizon) if h is not None)
            for name, v in values.items() if not v.exact
        }
        longest = max(horizons.values())
        assert {name for name, h in horizons.items() if h == longest} == longest_at
        work = longest * len(g.attacks)
        monkeypatch.setattr("gradarg.tuple_eval.WORK_BOUND", work)
        assert list(evaluate_cyclic(g).items()) == list(values.items())
        monkeypatch.setattr("gradarg.tuple_eval.WORK_BOUND", work - 1)
        with pytest.raises(EvaluationBoundError):
            evaluate_cyclic(g)


class TestBranchIndependence:
    def test_single_branch_rebuild_preserves_the_value(self):
        for seed in range(40):
            g = random_acyclic_graph(seed, 4 + seed % 6, 0.5)
            target = max(g.arguments, key=lambda a: len(g.attackers_of(a)))
            if not g.attackers_of(target):
                continue
            rebuilt, values = explode_attackers(g, target)
            rebuilt_values = evaluate_acyclic(rebuilt)
            assert rebuilt_values[target] == values[target], seed


# -- the four principles ------------------------------------------------------


class TestUnderlyingPrinciples:
    def test_maximal_exactly_for_leaves(self):
        for seed in range(60):
            g = random_acyclic_graph(seed, 3 + seed % 8, 0.4)
            values = evaluate_acyclic(g)
            for name in g.arguments:
                if g.attackers_of(name):
                    out = compare(LEAF_VALUE, values[name])
                    assert out.verdict is Verdict.FIRST_BETTER
                else:
                    assert values[name] == LEAF_VALUE

    @staticmethod
    def chain_case(base_length, make_edit):
        """Value of x before and after an edit on a fresh pendant chain."""
        g = parse_framework("arg(x). arg(y). att(y,x).")
        g = edit_graph(g, BranchEdit("add", "x", length=base_length))
        before = evaluate_acyclic(g)["x"]
        after = evaluate_acyclic(make_edit(g))["x"]
        return compare(after, before)

    def test_single_edits_move_the_value_the_stated_way(self):
        tip = lambda length: f"x{length}"
        cases = [
            # (base chain length, edit, expected direction for the new value)
            (2, lambda g: edit_graph(g, BranchEdit("add", "x", length=4)),
             Verdict.FIRST_BETTER),   # extra defence branch
            (2, lambda g: edit_graph(g, BranchEdit("add", "x", length=3)),
             Verdict.SECOND_BETTER),  # extra attack branch
            (4, lambda g: edit_graph(g, BranchEdit("shorten", "x", leaf=tip(4), length=2)),
             Verdict.FIRST_BETTER),   # shorter defence branch
            (2, lambda g: edit_graph(g, BranchEdit("lengthen", "x", leaf=tip(2), length=4)),
             Verdict.SECOND_BETTER),  # longer defence branch
            (3, lambda g: edit_graph(g, BranchEdit("shorten", "x", leaf=tip(3), length=1)),
             Verdict.SECOND_BETTER),  # shorter (stronger) attack branch
            (1, lambda g: edit_graph(g, BranchEdit("lengthen", "x", leaf=tip(1), length=3)),
             Verdict.FIRST_BETTER),   # longer (weaker) attack branch
            (2, lambda g: edit_graph(g, BranchEdit("remove", "x", leaf=tip(2))),
             Verdict.SECOND_BETTER),  # defence branch removed
            (1, lambda g: edit_graph(g, BranchEdit("remove", "x", leaf=tip(1))),
             Verdict.FIRST_BETTER),   # attack branch removed
        ]
        for base, make_edit, expected in cases:
            out = self.chain_case(base, make_edit)
            assert out.verdict is expected, (base, expected)
            assert out.exact

    def test_attacking_a_leaf_degrades_it(self):
        g = parse_framework("arg(x).")
        before = evaluate_acyclic(g)["x"]
        after = evaluate_acyclic(edit_graph(g, BranchEdit("add", "x", length=2)))["x"]
        out = compare(after, before)
        assert out.verdict is Verdict.SECOND_BETTER

    def test_removing_the_only_branch_restores_the_maximum(self):
        g = parse_framework("arg(x).")
        attacked = edit_graph(g, BranchEdit("add", "x", length=3))
        restored = edit_graph(attacked, BranchEdit("remove", "x", leaf="x3"))
        before = evaluate_acyclic(attacked)["x"]
        after = evaluate_acyclic(restored)["x"]
        assert after == LEAF_VALUE
        assert compare(after, before).verdict is Verdict.FIRST_BETTER

    def test_edit_directions_on_random_graphs(self):
        rng = random.Random(515)
        checked = 0
        for seed in range(200):
            g = random_acyclic_graph(seed, 3 + seed % 6, 0.4)
            target = g.arguments[rng.randrange(len(g.arguments))]
            base_is_leaf = not g.attackers_of(target)
            length = rng.randrange(1, 6)
            grown = edit_graph(g, BranchEdit("add", target, length=length))
            before = evaluate_acyclic(g)[target]
            after = evaluate_acyclic(grown)[target]
            out = compare(after, before)
            if length % 2 == 1:
                expected = Verdict.SECOND_BETTER  # stronger attack
            elif base_is_leaf:
                expected = Verdict.SECOND_BETTER  # leaf loses its crown
            else:
                expected = Verdict.FIRST_BETTER   # extra defence
            assert out.verdict is expected, (seed, target, length)
            assert out.exact

            # the reverse edit walks the value back up/down strictly
            tip = f"x{length}"
            shrunk = edit_graph(grown, BranchEdit("remove", target, leaf=tip))
            assert evaluate_acyclic(shrunk)[target] == before
            out_back = compare(evaluate_acyclic(shrunk)[target], after)
            assert out_back.verdict is out.mirrored().verdict
            checked += 1
        assert checked == 200
