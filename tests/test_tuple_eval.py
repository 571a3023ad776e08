import random

import pytest

from conftest import load_fixture

from gradarg import (
    BranchEdit,
    CyclicGraphError,
    DepthError,
    EMPTY,
    LEAF_VALUE,
    PropagationDepth,
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


def rooted_walk_counts(g, bound):
    """Number of rooted walks of each length <= bound ending at each argument.

    A rooted walk starts at a leaf, or starts inside an unattacked cycle
    union with its first step staying inside; afterwards it may follow any
    attack edge, revisiting vertices freely.  Its length profile is exactly
    the branch-length profile of the infinite cycle-unfolded graph.
    The evaluator fills the same recurrence, so the frozen digests in
    test_frozen_tuples are the independent check of its output.
    """
    counts = {a: [0] * (bound + 1) for a in g.arguments}
    leaves = g.leaves()
    for leaf in leaves:
        for nxt in g.targets_of(leaf):
            counts[nxt][1] += 1
    for mc in g.find_mcycles():
        if mc.inputs:
            continue
        members = set(mc.members)
        for m in members:
            for nxt in g.targets_of(m):
                if nxt in members:
                    counts[nxt][1] += 1
    for length in range(1, bound):
        for node in g.arguments:
            here = counts[node][length]
            if not here:
                continue
            for nxt in g.targets_of(node):
                counts[nxt][length + 1] += here
    return counts


def assert_matches_walk_counts(g, values, bound=90):
    counts = rooted_walk_counts(g, bound)
    for name in g.arguments:
        value = values[name]
        if not g.attackers_of(name):
            assert value == LEAF_VALUE, name
            continue
        for component, parity in ((value.even, 0), (value.odd, 1)):
            expected = {
                length: counts[name][length]
                for length in range(1, bound + 1)
                if length % 2 == parity and counts[name][length]
            }
            got = dict(component.runs)
            if component.exact:
                assert got == expected, (name, parity, got, expected)
            else:
                horizon = component.horizon
                assert horizon is not None and horizon <= bound - 2, name
                certified = {k: v for k, v in expected.items() if k <= horizon}
                assert got == certified, (name, parity, got, certified)
                # the infinite tail is real: content exists past the horizon
                assert any(
                    length > horizon for length in expected
                ), (name, parity)


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
        values = evaluate_cyclic(g, PropagationDepth(10))
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

    @pytest.mark.parametrize(
        "name", ["example7", "example8", "example2", "mcycles", "star3"]
    )
    def test_fixtures_match_walk_counts(self, name):
        g = load_fixture(name)
        assert_matches_walk_counts(g, evaluate_cyclic(g))

    def test_random_graphs_match_walk_counts(self):
        for seed in range(60):
            g = random_attack_graph(seed=seed, size=3 + seed % 5, density=0.35)
            values = evaluate_cyclic(g, PropagationDepth(8))
            assert_matches_walk_counts(g, values, bound=120)

    def test_deeper_propagation_refines_the_same_value(self):
        for name in ("example7", "example8", "mcycles"):
            g = load_fixture(name)
            shallow = evaluate_cyclic(g, PropagationDepth(5))
            deep = evaluate_cyclic(g, PropagationDepth(10))
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
        with pytest.raises(DepthError):
            PropagationDepth(0)
        with pytest.raises(DepthError):
            PropagationDepth(-3)


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
    from gradarg import AttackGraph

    return AttackGraph(tuple(arguments), tuple(attacks)), values


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
