"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import load_fixture, oracle_extensions

from gradarg import (
    BranchEdit,
    LEAF_VALUE,
    MIN_VALUE,
    Verdict,
    ZERO_INF,
    builtin_instances,
    classify,
    compare,
    compatibility_scan,
    concat,
    edit_graph,
    evaluate_cyclic,
    evaluate_local,
    generate_family,
    parse_framework,
    parse_tuple_literal,
    preferred_extensions,
    random_acyclic_graph,
    scan_graph_stream,
    shift,
    stable_extensions,
    well_defended,
)
from gradarg.tuples import EMPTY, GradTuple, TupledValue

GOLDEN = (5 ** 0.5 - 1) / 2


@contextmanager
def check(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d}: FAIL — {description}")
        raise
    print(f"criterion {number:02d}: PASS — {description}")


def test_criterion_01_exact_rationals_on_reference_graphs():
    with check(1, "exact rational values on the reference fixtures, under 1 s"):
        instance = builtin_instances()["categoriser"]
        started = time.perf_counter()
        values = evaluate_local(load_fixture("example4"), instance)
        hatched = evaluate_local(load_fixture("example4_hatched"), instance)
        elapsed = time.perf_counter() - started
        assert values["B1"] == Fraction(6, 13)
        assert values["A"] == Fraction(78, 283)
        assert hatched["A"] == Fraction(13, 19)
        assert elapsed < 1.0


def test_criterion_02_chain_values_and_their_limit():
    with check(2, "chain values from the leaf and the golden-ratio limit"):
        instance = builtin_instances()["categoriser"]
        short = evaluate_local(generate_family("chain", size=4), instance)
        assert [short[f"A{i}"] for i in (4, 3, 2, 1)] == [
            Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 5),
        ]
        long = evaluate_local(generate_family("chain", size=40), instance)
        assert abs(float(long["A1"]) - GOLDEN) < 1e-6


def test_criterion_03_cycle_fixpoints():
    with check(3, "cycle values converge to the fixpoint of the update map"):
        instance = builtin_instances()["categoriser"]
        two = evaluate_local(generate_family("unattacked-cycle", size=2), instance)
        for v in two.values():
            assert abs(v - 0.6180339887) < 1e-9
        three = evaluate_local(
            generate_family("unattacked-cycle", size=3), instance
        )
        assert len(set(three.values())) == 1
        for x in three.values():
            assert abs(1 / (1 + x) - x) < 1e-9


def test_criterion_04_exact_tuple_values_on_reference_graphs():
    with check(4, "exact tupled values and the derived ordering chain"):
        six = evaluate_cyclic(load_fixture("example6"))
        assert {n: six[n].render() for n in ("A", "B1", "B2", "C1", "C3", "D2")} == {
            "A": "[(2,4),(1,3)]",
            "B1": "[(2),(1)]",
            "B2": "[(),(3)]",
            "C1": "[(),(1)]",
            "C3": "[(2),()]",
            "D2": "[(),(1)]",
        }
        deep = evaluate_cyclic(load_fixture("example4"))
        assert deep["B1"].render() == "[(2),(3)]"
        assert deep["A"].render() == "[(2,4),(1,3,3)]"

        hatched = evaluate_cyclic(load_fixture("example4_hatched"))
        tiers = [("E1", "D2"), ("C1",), ("B1",), ("A",), ("D1", "C2")]
        for tier in tiers:
            for x, y in itertools.combinations(tier, 2):
                assert compare(hatched[x], hatched[y]).verdict is Verdict.EQUIVALENT
        for upper, lower in zip(tiers, tiers[1:]):
            for x in upper:
                for y in lower:
                    outcome = compare(hatched[x], hatched[y])
                    assert outcome.verdict is Verdict.FIRST_BETTER
                    assert outcome.exact


def test_criterion_05_published_comparison_vectors_and_extremes():
    with check(5, "comparison vectors and the global maximum/minimum"):
        vectors = [
            ("[(2),(1)]", "[(2),(1,1)]", Verdict.FIRST_BETTER),
            ("[(2),(1)]", "[(2,2),(1,1)]", Verdict.INCOMPARABLE),
            ("[(2),(3)]", "[(2),(1)]", Verdict.FIRST_BETTER),
            ("[(2),(3)]", "[(4),(3)]", Verdict.FIRST_BETTER),
            ("[(2),(1)]", "[(4),(3)]", Verdict.INCOMPARABLE),
        ]
        sample = []
        for first, second, expected in vectors:
            a, b = parse_tuple_literal(first), parse_tuple_literal(second)
            outcome = compare(a, b)
            assert outcome.verdict is expected, (first, second)
            assert outcome.exact
            sample += [a, b]
        for fixture in ("example4", "example6", "example8"):
            sample += list(evaluate_cyclic(load_fixture(fixture)).values())
        for v in sample:
            assert compare(LEAF_VALUE, v).verdict in (
                Verdict.FIRST_BETTER, Verdict.EQUIVALENT,
            )
            assert compare(MIN_VALUE, v).verdict in (
                Verdict.SECOND_BETTER, Verdict.EQUIVALENT,
            )


def test_criterion_06_cycle_tuples_up_to_the_certified_horizon():
    with check(6, "cycle tuples carry full parity progressions to the horizon"):
        for k in (2, 3, 5):
            g = generate_family("unattacked-cycle", size=k)
            for v in evaluate_cyclic(g, 10).values():
                horizon = 10 * k
                assert v.even.horizon == v.odd.horizon == horizon
                assert v.even.infinite and v.odd.infinite
                assert not v.exact
                assert v.even.elements() == tuple(range(2, horizon + 1, 2))
                assert v.odd.elements() == tuple(range(1, horizon + 1, 2))

        values = evaluate_cyclic(load_fixture("example8"), 10)
        progressions = {"A": 1, "E": 3}  # odd side
        for name, start in progressions.items():
            v = values[name]
            assert v.even == EMPTY
            assert v.odd.infinite and not v.odd.exact
            assert v.odd.elements() == tuple(range(start, v.odd.horizon + 1, 2))
        for name in ("B", "C"):
            v = values[name]
            assert v.odd == EMPTY
            assert v.even.infinite and not v.even.exact
            assert v.even.elements() == tuple(range(2, v.even.horizon + 1, 2))


def test_criterion_07_enumeration_matches_the_subset_oracle():
    with check(7, "preferred/stable enumeration equals the all-subsets oracle"):
        stream = scan_graph_stream(7, size_bound=5)
        for _ in range(500):
            g = next(stream)
            preferred = preferred_extensions(g)
            stable = stable_extensions(g)
            want_preferred, want_stable = oracle_extensions(g)
            assert [frozenset(e.members) for e in preferred] == want_preferred
            assert [frozenset(e.members) for e in stable] == want_stable
            assert preferred
            preferred_sets = {frozenset(e.members) for e in preferred}
            assert all(frozenset(e.members) in preferred_sets for e in stable)
            leaves = g.leaves()
            assert all(leaves <= set(e.members) for e in preferred + stable)


def test_criterion_08_acceptance_level_laws():
    with check(8, "acceptance-level laws and the clean-but-not-universal witness"):
        stream = scan_graph_stream(23)
        for _ in range(500):
            g = next(stream)
            extensions = [set(e.members) for e in preferred_extensions(g)]
            for name in g.arguments:
                if extensions and all(name in s for s in extensions):
                    for b in g.attackers_of(name):
                        assert not any(b in s for s in extensions)

        stream = scan_graph_stream(31)
        for _ in range(500):
            assert "cleanly" not in classify(next(stream), "stable").values()

        stream = scan_graph_stream(37)
        seen = 0
        while seen < 500:
            g = next(stream)
            if g.has_odd_cycle():
                continue
            seen += 1
            assert "cleanly" not in classify(g, "preferred").values()

        stream = scan_graph_stream(11)
        found = any(
            "cleanly" in classify(next(stream), "preferred").values()
            for _ in range(5000)
        )
        assert found


def test_criterion_09_acceptance_matches_defence_where_promised():
    with check(9, "acceptance/defence equivalences and the star divergence"):
        max_instance = builtin_instances()["max_based"]
        for seed in range(200):
            g = random_acyclic_graph(seed, 3 + seed % 10, 0.45)
            (extension,) = preferred_extensions(g)
            values = evaluate_local(g, max_instance)
            defended = well_defended(g, values)
            assert set(extension.members) == set(defended), g.serialize()

        for seed in range(50):
            g = generate_family("spider", seed=seed)
            (extension,) = preferred_extensions(g)
            accepted = set(extension.members)
            values = evaluate_cyclic(g)
            defended = well_defended(g, values)
            for b in g.arguments:
                if b != "A":
                    assert (b in accepted) == (b in defended), (seed, b)
            if "A" in accepted:
                assert "A" in defended, seed
            if values["A"].odd.is_empty and "A" in defended:
                assert "A" in accepted, seed

        star = load_fixture("star3")
        values = evaluate_local(star, builtin_instances()["categoriser"])
        defended = well_defended(star, values)
        assert defended == {"C1", "C2", "C3"}
        (extension,) = preferred_extensions(star)
        assert extension.members == ("A", "C1", "C2", "C3")


def test_criterion_10_single_edits_move_values_the_stated_way():
    with check(10, "local principles and tuple edit monotonicity"):
        instance = builtin_instances()["categoriser"]
        population = [
            random_acyclic_graph(seed, 3 + seed % 8, 0.4) for seed in range(200)
        ]
        for g in population:
            values = evaluate_local(g, instance)
            for arg in g.arguments:
                attackers = g.attackers_of(arg)
                if not attackers:
                    assert values[arg] == instance.v_max
                    continue
                if not g.direct_defenders(arg):
                    assert values[arg] != instance.v_max
                xs = tuple(values[b] for b in attackers)
                assert values[arg] == instance.g(instance.h(xs))
                for i in range(len(xs)):
                    bumped = xs[:i] + (instance.v_max,) + xs[i + 1:]
                    assert instance.leq(
                        instance.g(instance.h(bumped)), values[arg]
                    )
                for extra in (instance.v_min, instance.v_max):
                    assert instance.leq(
                        instance.h(xs), instance.h(xs + (extra,))
                    )

        rng = random.Random(2718)
        for seed, g in enumerate(population):
            values = evaluate_cyclic(g)
            for name in g.arguments:
                if g.attackers_of(name):
                    assert compare(LEAF_VALUE, values[name]).verdict is \
                        Verdict.FIRST_BETTER
                else:
                    assert values[name] == LEAF_VALUE

            target = g.arguments[rng.randrange(len(g.arguments))]
            base_is_leaf = not g.attackers_of(target)
            length = rng.randrange(1, 6)
            grown = edit_graph(g, BranchEdit("add", target, length=length))
            outcome = compare(evaluate_cyclic(grown)[target], values[target])
            if length % 2 == 1 or base_is_leaf:
                expected = Verdict.SECOND_BETTER
            else:
                expected = Verdict.FIRST_BETTER
            assert outcome.verdict is expected, (seed, target, length)
            assert outcome.exact


def _random_run_tuple(rng):
    shape = rng.randrange(6)
    if shape == 4:
        return ZERO_INF
    if shape == 5:
        return GradTuple(constant=1)
    values = [rng.randrange(7) for _ in range(rng.randrange(4))]
    if shape == 3 and values:
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return GradTuple.truncated(counts, horizon=max(values) + rng.randrange(3))
    return GradTuple.from_elements(values)


def test_criterion_11_algebra_laws_and_preorder_axioms():
    with check(11, "combinator laws in bulk and compare as a partial preorder"):
        rng = random.Random(99)
        for trial in range(10_000):
            a, b, c = (_random_run_tuple(rng) for _ in range(3))
            k1, k2 = rng.randrange(4), rng.randrange(4)
            assert shift(shift(a, k1), k2) == shift(a, k1 + k2), trial
            mergeable = [t for t in (a, b, c)
                         if t.constant is None or t.constant == 0]
            if len(mergeable) >= 2:
                x, y = mergeable[0], mergeable[1]
                assert concat(x, y) == concat(y, x), trial
            if len(mergeable) == 3:
                x, y, z = mergeable
                assert concat(concat(x, y), z) == concat(x, concat(y, z)), trial
                if x.constant is None and y.constant is None:
                    assert shift(concat(x, y), k1) == \
                        concat(shift(x, k1), shift(y, k1)), trial

        def multisets(universe, max_size):
            for size in range(max_size + 1):
                yield from itertools.combinations_with_replacement(universe, size)

        evens = [GradTuple.from_elements(m) for m in multisets((2, 4), 2)]
        evens.append(ZERO_INF)
        odds = [GradTuple.from_elements(m) for m in multisets((1, 3), 2)]
        values = [TupledValue(e, o) for e in evens for o in odds
                  if not (e.is_empty and o.is_empty)]

        def geq(x, y):
            return compare(x, y).verdict in (
                Verdict.FIRST_BETTER, Verdict.EQUIVALENT,
            )

        for v in values:
            assert geq(v, v)
        for v, w, x in itertools.product(values, repeat=3):
            if geq(v, w) and geq(w, x):
                assert geq(v, x), (v.render(), w.render(), x.render())
