import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import FLIP, grounded_oracle, load_fixture
from test_frozen_tuples import cases

from gradarg import (
    AttackGraph,
    ConditionStarOutcome,
    ConvergenceError,
    LocalInstance,
    MixedValueKindsError,
    TotalPreorder,
    UndecidableError,
    builtin_instances,
    categoriser,
    check_condition_star,
    evaluate_cyclic,
    evaluate_local,
    generate_family,
    max_based,
    parse_framework,
    random_acyclic_graph,
    random_attack_graph,
    rooted_labelling,
    scan_graph_stream,
    validate_instance,
)
from gradarg.cli import MODELS

GOLDEN = (math.sqrt(5) - 1) / 2


@pytest.fixture(scope="module")
def scan_graphs():
    return list(itertools.islice(scan_graph_stream(7), 3000))


class TestCategoriserAcyclic:
    def test_chain_values_are_exact_convergents(self):
        values = evaluate_local(generate_family("chain", size=4), categoriser())
        assert values == {
            "A4": Fraction(1),
            "A3": Fraction(1, 2),
            "A2": Fraction(2, 3),
            "A1": Fraction(3, 5),
        }

    def test_long_chain_approaches_the_golden_ratio(self):
        values = evaluate_local(generate_family("chain", size=40), categoriser())
        assert abs(float(values["A1"]) - GOLDEN) < 1e-6

    def test_published_reference_values(self):
        values = evaluate_local(load_fixture("example4"), categoriser())
        for leaf in ("E1", "D2", "D3", "C4", "B4"):
            assert values[leaf] == 1
        for half in ("D1", "C2", "C3", "B3"):
            assert values[half] == Fraction(1, 2)
        assert values["C1"] == values["B2"] == Fraction(2, 3)
        assert values["B1"] == Fraction(6, 13)
        assert values["A"] == Fraction(78, 283)

    def test_pruned_subgraph_value(self):
        values = evaluate_local(load_fixture("example4_hatched"), categoriser())
        assert values["A"] == Fraction(13, 19)

    def test_ranking_groups(self):
        values = evaluate_local(load_fixture("example4"), categoriser())
        ranking = TotalPreorder(values).ranking()
        assert [set(group) for group in ranking] == [
            {"E1", "D2", "D3", "C4", "B4"},
            {"C1", "B2"},
            {"D1", "C2", "C3", "B3"},
            {"B1"},
            {"A"},
        ]

    def test_chain_preorder(self):
        values = evaluate_local(generate_family("chain", size=3), categoriser())
        order = TotalPreorder(values)
        assert order.strictly_better("A3", "A1")
        assert order.strictly_better("A1", "A2")
        assert order.geq("A3", "A2")
        assert not order.geq("A2", "A1")


class TestCategoriserCyclic:
    def test_two_cycle_fixpoint(self):
        values = evaluate_local(
            generate_family("unattacked-cycle", size=2), categoriser()
        )
        assert values["C1"] == pytest.approx(0.6180339887, abs=1e-9)
        assert values["C1"] == pytest.approx(values["C2"], abs=1e-12)

    def test_three_cycle_members_sit_on_the_diagonal(self):
        values = evaluate_local(
            generate_family("unattacked-cycle", size=3), categoriser()
        )
        members = [values[f"C{i}"] for i in (1, 2, 3)]
        assert max(members) - min(members) < 1e-12
        for x in members:
            assert abs(1 / (1 + x) - x) < 1e-9

    def test_even_cycle_reaches_a_fixpoint_of_iterated_g(self):
        for size in (2, 4, 6):
            values = evaluate_local(
                generate_family("unattacked-cycle", size=size), categoriser()
            )
            for member, x in values.items():
                y = x
                for _ in range(size):
                    y = 1 / (1 + y)
                assert abs(y - x) < 1e-9, (size, member)

    def test_attacked_cycle_converges(self):
        values = evaluate_local(generate_family("attacked-cycle", size=3), categoriser())
        assert values["D"] == 1.0
        assert all(0 < values[f"C{i}"] < 1 for i in (1, 2, 3))

    def test_non_convergence_is_reported(self, monkeypatch):
        # a 2-cycle reads 2 attacks a round, so this budget allows 500 rounds
        monkeypatch.setattr("gradarg.local.READ_BOUND", 1_000)
        graph = generate_family("unattacked-cycle", size=2)
        with pytest.raises(ConvergenceError,
                           match="cycle union of 2 arguments within 500 rounds of 2 attack"):
            evaluate_local(graph, FLIP)

    def test_work_bound_is_exact_at_the_rounds_needed(self, monkeypatch):
        # g(x) = 1 - 0.99x settles a 2-cycle in a few thousand rounds of 2
        # attack reads; two such unions draw on one budget
        calls = []
        slow = dataclasses.replace(FLIP, g=lambda x: calls.append(x) or 1.0 - 0.99 * x)
        one = generate_family("unattacked-cycle", size=2)
        two = AttackGraph(["a", "b", "c", "d"],
                          [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        values = evaluate_local(one, slow)
        reads = len(calls)
        assert reads % 2 == 0 and reads > 2 * 1_000
        doubled = evaluate_local(two, slow)
        assert list(doubled.values()) == [values["C1"], values["C2"]] * 2
        for graph, expected, need in ((one, values, reads), (two, doubled, 2 * reads)):
            monkeypatch.setattr("gradarg.local.READ_BOUND", need)
            assert evaluate_local(graph, slow) == expected
            monkeypatch.setattr("gradarg.local.READ_BOUND", need - 1)
            with pytest.raises(ConvergenceError):
                evaluate_local(graph, slow)

    def test_a_union_reading_more_than_the_work_bound_settles(self):
        # the complete 100-argument graph: 266 rounds of 10,000 attack
        # reads, more than the tuple side's WORK_BOUND
        names = [f"a{i}" for i in range(100)]
        complete = AttackGraph(names, [(a, b) for a in names for b in names])
        values = evaluate_local(complete, categoriser())
        assert len(set(values.values())) == 1


class TestRootedLabelling:
    def test_chain_alternates_from_the_leaf(self):
        values = evaluate_local(generate_family("chain", size=5), rooted_labelling())
        assert values == {"A5": "+", "A4": "-", "A3": "+", "A2": "-", "A1": "+"}

    def test_attacked_cycle_resolves(self):
        values = evaluate_local(load_fixture("example8"), rooted_labelling())
        assert values == {"D": "+", "A": "-", "B": "+", "C": "+", "E": "-"}

    def test_isolated_cycles_stay_undecided(self):
        graph = load_fixture("mcycles")
        values = evaluate_local(graph, rooted_labelling())
        assert set(values.values()) == {"?"}

    def test_star_shape(self):
        values = evaluate_local(load_fixture("star3"), rooted_labelling())
        assert values["A"] == "+"
        assert all(values[f"B{i}"] == "-" for i in (1, 2, 3))
        assert all(values[f"C{i}"] == "+" for i in (1, 2, 3))

    def test_scan_graphs_get_the_grounded_labelling(self, scan_graphs):
        instances = (rooted_labelling(), builtin_instances()["rooted_labelling"],
                     MODELS["labelling"])
        for graph in scan_graphs:
            expected = grounded_oracle(graph)
            for instance in instances:
                assert evaluate_local(graph, instance) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_large_unions_get_the_grounded_labelling(self, seed):
        # mean out-degree 2 or 3: one union holds most arguments, and in
        # all but one of these graphs it has members of every label
        size = (200, 500, 1000, 2000)[seed % 4]
        graph = random_attack_graph(seed, size, (2.0, 3.0)[seed // 4] / size)
        assert max(map(len, graph.condensation())) > size // 2
        assert evaluate_local(graph, rooted_labelling()) == grounded_oracle(graph)

    def test_a_lookalike_keeps_its_own_h_and_refuses_cycles(self):
        # h agrees with the built-in one on at most two attackers only
        builtin = rooted_labelling()
        lookalike = dataclasses.replace(
            builtin, name="lookalike",
            h=lambda values: "-" if len(values) >= 3 else builtin.h(values))
        star = AttackGraph(list("abcd"), [("b", "a"), ("c", "a"), ("d", "a")])
        assert evaluate_local(star, lookalike)["a"] == "+"
        assert evaluate_local(star, builtin)["a"] == "-"
        looped = AttackGraph(list("abcde"), [*star.attacks, ("e", "e"), ("e", "b")])
        with pytest.raises(UndecidableError, match="lookalike"):
            evaluate_local(looped, lookalike)
        assert evaluate_local(looped, builtin) == grounded_oracle(looped)
        assert evaluate_local(looped, builtin)["a"] == "-"

    def test_other_label_schemes_refuse_cycles(self):
        tweaked = LocalInstance(
            name="tweaked",
            v_min="-",
            v_max="+",
            g=lambda v: "+",
            h=lambda values: max(values, default="-"),
        )
        graph = generate_family("unattacked-cycle", size=2)
        with pytest.raises(UndecidableError):
            evaluate_local(graph, tweaked)


class TestValidation:
    @pytest.mark.parametrize("name", ["categoriser", "rooted_labelling", "max_based"])
    def test_builtins_satisfy_the_axioms(self, name):
        report = validate_instance(builtin_instances()[name])
        assert report.ok, report.violations

    def test_broken_g_is_reported(self):
        broken = LocalInstance(
            name="broken",
            v_min=Fraction(0),
            v_max=Fraction(1),
            g=lambda x: Fraction(1, 2),  # ignores the bottom-maps-to-top rule
            h=lambda values: sum(values, Fraction(0)),
        )
        report = validate_instance(broken)
        assert not report.ok
        assert any(v.axiom == "g(bottom) is the top value" for v in report.violations)

    def test_non_monotone_h_is_reported(self):
        weird = LocalInstance(
            name="weird",
            v_min=Fraction(0),
            v_max=Fraction(1),
            g=lambda x: 1 / (1 + x),
            h=lambda values: (max(values) - min(values)) if values else Fraction(0),
        )
        report = validate_instance(weird)
        assert not report.ok


class TestConditionStar:
    def test_sum_combination_can_overshoot(self):
        half = Fraction(1, 2)
        outcomes = check_condition_star(categoriser(), [(half, half, half)])
        (outcome,) = outcomes
        assert outcome.status == "fail"
        assert outcome.combined == Fraction(3, 2)

    def test_premise_can_fail(self):
        (outcome,) = check_condition_star(categoriser(), [(Fraction(9, 10),)])
        assert outcome.status == "premise-not-met"
        assert outcome.combined is None

    def test_max_combination_never_fails(self):
        rng = random.Random(9)
        samples = [
            tuple(Fraction(rng.randrange(11), 10) for _ in range(rng.randrange(1, 4)))
            for _ in range(200)
        ]
        for outcome in check_condition_star(max_based(), samples):
            assert outcome.status in ("pass", "premise-not-met")

    def test_empty_sample_passes_vacuously(self):
        (outcome,) = check_condition_star(categoriser(), [()])
        assert outcome.status == "pass"


@pytest.fixture(scope="module")
def population():
    return [random_acyclic_graph(seed, 3 + seed % 8, 0.4) for seed in range(200)]


class TestUnderlyingPrinciples:
    """The four principles every schema instance obeys, checked over a
    seeded population of acyclic graphs."""

    @pytest.mark.parametrize("name", ["categoriser", "rooted_labelling", "max_based"])
    def test_maximality_exactly_for_the_undefended(self, population, name):
        instance = builtin_instances()[name]
        for graph in population:
            values = evaluate_local(graph, instance)
            for arg in graph.arguments:
                attackers = graph.attackers_of(arg)
                if not attackers:
                    assert values[arg] == instance.v_max
                elif not graph.direct_defenders(arg):
                    assert values[arg] != instance.v_max

    @pytest.mark.parametrize("name", ["categoriser", "rooted_labelling", "max_based"])
    def test_value_is_a_function_of_the_direct_attack(self, population, name):
        instance = builtin_instances()[name]
        for graph in population:
            values = evaluate_local(graph, instance)
            for arg in graph.arguments:
                attackers = graph.attackers_of(arg)
                if attackers:
                    direct_attack = instance.h(tuple(values[b] for b in attackers))
                    assert values[arg] == instance.g(direct_attack)

    @pytest.mark.parametrize("name", ["categoriser", "rooted_labelling", "max_based"])
    def test_value_never_rises_when_the_attack_strengthens(self, population, name):
        instance = builtin_instances()[name]
        for graph in population[:50]:
            values = evaluate_local(graph, instance)
            for arg in graph.arguments:
                attackers = graph.attackers_of(arg)
                if not attackers:
                    continue
                xs = tuple(values[b] for b in attackers)
                current = instance.g(instance.h(xs))
                for i in range(len(xs)):
                    bumped = xs[:i] + (instance.v_max,) + xs[i + 1:]
                    assert instance.leq(instance.g(instance.h(bumped)), current)

    @pytest.mark.parametrize("name", ["categoriser", "rooted_labelling", "max_based"])
    def test_every_attacker_strengthens_the_attack(self, population, name):
        instance = builtin_instances()[name]
        for graph in population[:50]:
            values = evaluate_local(graph, instance)
            for arg in graph.arguments:
                attackers = graph.attackers_of(arg)
                xs = tuple(values[b] for b in attackers)
                for extra in (instance.v_min, instance.v_max):
                    assert instance.leq(instance.h(xs), instance.h(xs + (extra,)))


class TestPreorder:
    def test_mixing_value_kinds_is_rejected(self):
        with pytest.raises(MixedValueKindsError):
            TotalPreorder({"a": Fraction(1, 2), "b": "+"})
        with pytest.raises(MixedValueKindsError):
            TotalPreorder({"a": Fraction(1, 2), "b": 0.5})

    def test_label_ordering(self):
        order = TotalPreorder({"a": "-", "b": "?", "c": "+"})
        assert order.strictly_better("c", "b")
        assert order.strictly_better("b", "a")
        assert order.ranking() == [["c"], ["b"], ["a"]]

    def test_ties_share_a_group(self):
        order = TotalPreorder({"x": 1, "y": 2, "z": 1})
        assert order.equivalent("x", "z")
        assert order.ranking() == [["y"], ["x", "z"]]

    def test_preorder_is_total_and_transitive(self):
        rng = random.Random(4)
        names = [f"n{i}" for i in range(8)]
        order = TotalPreorder({n: Fraction(rng.randrange(5), 4) for n in names})
        for a in names:
            assert order.geq(a, a)
            for b in names:
                assert order.geq(a, b) or order.geq(b, a)
                for c in names:
                    if order.geq(a, b) and order.geq(b, c):
                        assert order.geq(a, c)


class TestMixedGraphEvaluation:
    def test_cyclic_graph_with_acyclic_tail(self):
        # the cycle's fixpoint feeds exactly into the downstream chain
        graph = parse_framework(
            "arg(a). arg(b). arg(c). att(a,b). att(b,a). att(b,c)."
        )
        values = evaluate_local(graph, categoriser())
        assert values["c"] == pytest.approx(1 / (1 + values["b"]), abs=1e-12)
        assert values["a"] == pytest.approx(GOLDEN, abs=1e-9)

    def test_star_values(self):
        values = evaluate_local(load_fixture("star3"), categoriser())
        assert values["A"] == Fraction(2, 5)
        assert all(values[f"B{i}"] == Fraction(1, 2) for i in (1, 2, 3))


class TestValueMapOrder:
    """Every value map lists the arguments in declaration order."""

    @pytest.mark.parametrize("name", [*sorted(builtin_instances()), "tuples"])
    def test_keys_follow_declaration_order(self, name, scan_graphs):
        if name == "tuples":
            valuate = evaluate_cyclic
        else:
            valuate = functools.partial(evaluate_local, instance=builtin_instances()[name])
        graphs = [parse_framework(text) for text in cases().values()]
        for graph in graphs + scan_graphs:
            assert tuple(valuate(graph)) == graph.arguments

    def test_the_labelling_is_not_condensed(self):
        # the grounded labelling is one queue pass, on an odd cycle that a
        # chain attacks as on anything else
        g = AttackGraph(["x", "y", "a", "b", "c"],
                        [("x", "y"), ("y", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        assert evaluate_local(g, rooted_labelling()) == {
            "x": "+", "y": "-", "a": "?", "b": "?", "c": "?"}
        assert g._condensation is None


def same(got, want):
    """Equal in value and in exact type."""
    return type(got) is type(want) and got == want


class TestBuiltinArithmetic:
    """g and h of the numeric built-ins, pinned in value and exact type:
    exact inputs (Fractions and ints) give Fractions, and a float makes the
    result a float."""

    G_CASES = [
        (Fraction(1, 2), Fraction(2, 3)),
        (Fraction(0), Fraction(1)),
        (0, Fraction(1)),
        (2, Fraction(1, 3)),
        (0.5, 1 / 1.5),
        (0.0, 1.0),
    ]
    SUM_CASES = [
        ((), Fraction(0)),
        ((Fraction(1, 2),), Fraction(1, 2)),
        ((Fraction(1, 2), Fraction(1, 3)), Fraction(5, 6)),
        ((2,), Fraction(2)),
        ((1, 2), Fraction(3)),
        ((Fraction(1, 2), 1), Fraction(3, 2)),
        ((0.25,), 0.25),
        ((0.5, 0.25), 0.75),
        ((Fraction(1, 2), 0.25), 0.75),
        ((0.25, Fraction(1, 2)), 0.75),
        ((1, 0.5), 1.5),
    ]
    MAX_CASES = [
        ((), Fraction(0)),
        ((Fraction(1, 2), Fraction(1, 3)), Fraction(1, 2)),
        ((1, 2), 2),
        ((Fraction(1, 2), 1), 1),
        ((0.5, 0.25), 0.5),
        ((Fraction(1, 2), 0.25), Fraction(1, 2)),
        ((0.75, Fraction(1, 2)), 0.75),
    ]

    @pytest.mark.parametrize("make", [categoriser, max_based])
    @pytest.mark.parametrize("x, want", G_CASES)
    def test_g(self, make, x, want):
        assert same(make().g(x), want)

    @pytest.mark.parametrize("values, want", SUM_CASES)
    def test_categoriser_h(self, values, want):
        assert same(categoriser().h(values), want)

    @pytest.mark.parametrize("values, want", MAX_CASES)
    def test_max_based_h(self, values, want):
        assert same(max_based().h(values), want)

    @pytest.mark.parametrize("make", [categoriser, max_based])
    def test_exact_g_is_one_over_one_more(self, make):
        # Fraction equality compares numerator and denominator, so each
        # equal result is also in lowest terms with a positive denominator.
        g = make().g
        rng = random.Random(34)
        seeded = [Fraction(rng.randrange(10**rng.randint(1, 30)),
                           rng.randrange(1, 10**rng.randint(1, 30)))
                  for _ in range(200)]
        for x in [0, 1, 12345, Fraction(0), Fraction(1), *seeded]:
            assert same(g(x), Fraction(1) / (1 + x)), x
        x = Fraction(0)
        for _ in range(2000):  # ratios of consecutive Fibonacci numbers
            want = Fraction(1) / (1 + x)
            x = g(x)
            assert same(x, want)

    def test_floats_are_summed_correctly_rounded(self):
        # adding left to right would give 0.9999999999999999
        assert categoriser().h((0.1,) * 10) == 1.0

    @pytest.mark.parametrize("make", [categoriser, max_based])
    def test_value_types_follow_the_graph(self, make, scan_graphs):
        instance = make()
        for graph in scan_graphs:
            kind = Fraction if graph.is_well_founded() else float
            assert {type(v) for v in evaluate_local(graph, instance).values()} == {kind}


def jacobi_oracle(graph, instance, tolerance=1e-12):
    """evaluate_local rebuilt from attackers_of and the instance's g and h.

    A cycle union is the set of arguments that both reach an argument and
    are reached by it along attacks.  Once every attacker outside a union
    has its value, the union runs Jacobi rounds from the all-top start,
    each in three passes: the new values, then the largest move, then the
    assignment; it stops after the first round in which no value moved by
    `tolerance` or more.  An argument on no cycle takes g(h(...)) once.
    Values are floats on a graph with a cycle and exact otherwise."""
    args = graph.arguments
    position = {a: i for i, a in enumerate(args)}
    attackers = {a: graph.attackers_of(a) for a in args}
    targets = {a: graph.targets_of(a) for a in args}

    def reached(a, step):
        seen, stack = set(), [a]
        while stack:
            for b in step[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        return seen

    unions, placed = [], set()
    for a in args:
        if a not in placed:
            members = (reached(a, attackers) & reached(a, targets)) or {a}
            unions.append(sorted(members, key=position.get))
            placed |= members
    looped = [len(u) > 1 or u[0] in attackers[u[0]] for u in unions]
    convert = float if any(looped) else (lambda x: x)
    top = convert(instance.v_max)
    values = {}

    def new_value(m):
        xs = tuple(values[b] for b in attackers[m])
        return convert(instance.g(instance.h(xs))) if xs else top

    while len(values) < len(args):
        for members, cyclic in zip(unions, looped):
            inputs = {b for m in members for b in attackers[m]} - set(members)
            if members[0] in values or not inputs <= values.keys():
                continue
            if not cyclic:
                values[members[0]] = new_value(members[0])
                continue
            for m in members:
                values[m] = top
            for _ in range(100_000):
                new = [new_value(m) for m in members]
                residual = max(abs(v - values[m]) for m, v in zip(members, new))
                for m, v in zip(members, new):
                    values[m] = v
                if residual < tolerance:
                    break
            else:
                raise AssertionError("the oracle found no fixpoint")
    return values


def exact_reprs(values):
    """Name -> repr: equal only for values of one type and, for floats,
    the same bits."""
    return {name: repr(v) for name, v in values.items()}


class TestJacobiOracle:
    @pytest.mark.parametrize("make", [categoriser, max_based])
    def test_scan_graphs(self, make, scan_graphs):
        instance = make()
        for graph in scan_graphs:
            assert exact_reprs(evaluate_local(graph, instance)) == exact_reprs(
                jacobi_oracle(graph, instance))

    @pytest.mark.parametrize("seed, size, degree", [(12, 2000, 2.0), (5, 1200, 3.0)])
    def test_large_unions(self, seed, size, degree):
        graph = random_attack_graph(seed, size, degree / size)
        assert max(map(len, graph.condensation())) >= 1000
        for instance in (categoriser(), max_based()):
            assert exact_reprs(evaluate_local(graph, instance)) == exact_reprs(
                jacobi_oracle(graph, instance))


class TestPreorderValueKinds:
    def test_bool_is_rejected(self):
        with pytest.raises(MixedValueKindsError):
            TotalPreorder({"a": True})
        with pytest.raises(MixedValueKindsError):
            TotalPreorder({"a": Fraction(1, 2), "b": False})

    def test_float_subclass_is_a_float(self):
        class Score(float):
            pass

        order = TotalPreorder({"a": Score(0.25), "b": 0.5, "c": Score(0.5)})
        assert order.ranking() == [["b", "c"], ["a"]]
        with pytest.raises(MixedValueKindsError):
            TotalPreorder({"a": Score(0.25), "b": Fraction(1, 2)})

    def test_unknown_label_is_rejected(self):
        with pytest.raises(MixedValueKindsError, match="unknown label 'x'"):
            TotalPreorder({"a": "x"})
        stray = LocalInstance(
            name="stray",
            v_min="-",
            v_max="+",
            g=lambda v: "x",
            h=lambda values: max(values, default="-", key="-?+".index),
        )
        with pytest.raises(MixedValueKindsError, match="unknown label 'x'"):
            stray.leq("x", "+")
        with pytest.raises(MixedValueKindsError, match="unknown label 'x'"):
            validate_instance(stray)

    def test_ints_and_fractions_are_one_kind(self):
        order = TotalPreorder({"a": 1, "b": Fraction(1, 2), "c": Fraction(1)})
        assert order.ranking() == [["a", "c"], ["b"]]
