"""Every attack graph on at most four arguments, self-attacks included, once
up to renaming (2, 10, 104 and 3,044 graphs: OEIS A000595), checked against
the test-side oracles of conftest."""

import itertools
from fractions import Fraction

import pytest

from conftest import (
    assert_matches_walk_counts,
    graded_from_lists,
    grounded_oracle,
    oracle_extensions,
    reachable,
)

from gradarg import (
    AttackGraph,
    PropagationDepth,
    Verdict,
    builtin_instances,
    categoriser,
    classify,
    compare,
    compatibility_scan,
    evaluate_cyclic,
    evaluate_local,
    preferred_extensions,
    rooted_labelling,
    stable_extensions,
    well_defended,
)
from gradarg.cli import MODELS

NAMES = "abcd"


def canonical_graphs(n):
    """One graph per renaming class on n arguments, as the least sorted
    attack list over the relabellings of any of its members."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    graphs = []
    for mask in range(1 << len(cells)):
        if mask in seen:
            continue
        attacks = [cell for k, cell in enumerate(cells) if mask >> k & 1]
        orbit = {}
        for p in perms:
            moved = sorted((p[i], p[j]) for i, j in attacks)
            orbit[sum(1 << (i * n + j) for i, j in moved)] = moved
        seen.update(orbit)
        least = min(orbit.values())
        graphs.append(AttackGraph(NAMES[:n], [(NAMES[i], NAMES[j]) for i, j in least]))
    return graphs


@pytest.fixture(scope="module")
def graphs():
    return {n: canonical_graphs(n) for n in range(1, 5)}


def every(graphs):
    return itertools.chain.from_iterable(graphs.values())


def is_acyclic(g):
    return not any(a in seen for a, seen in reachable(g).items())


def exact_categoriser(g):
    """v(a) = 1 / (1 + the sum of its attackers' values), by recursion."""
    values = {}

    def value(a):
        if a not in values:
            values[a] = 1 / (1 + sum(map(value, g.attackers_of(a)), Fraction(0)))
        return values[a]

    return {a: value(a) for a in g.arguments}


def defended(g, values):
    """Arguments no direct attacker of which has a strictly larger value."""
    return {a for a in g.arguments
            if not any(values[b] > values[a] for b in g.attackers_of(a))}


def test_counts_up_to_renaming(graphs):
    assert [len(graphs[n]) for n in range(1, 5)] == [2, 10, 104, 3044]
    assert len({tuple(g.attacks) for g in graphs[4]}) == 3044


@pytest.mark.parametrize("semantics", ["preferred", "stable"])
def test_extensions_and_levels_match_the_subset_oracle(graphs, semantics):
    enumerate_ = preferred_extensions if semantics == "preferred" else stable_extensions
    for g in every(graphs):
        want = oracle_extensions(g)[semantics == "stable"]
        extensions = enumerate_(g)
        assert [frozenset(e.members) for e in extensions] == want, g.attacks
        assert classify(g, semantics) == graded_from_lists(g, extensions), g.attacks


def test_rooted_labelling_is_the_grounded_labelling(graphs):
    instances = (rooted_labelling(), builtin_instances()["rooted_labelling"],
                 MODELS["labelling"])
    for g in every(graphs):
        expected = grounded_oracle(g)
        for instance in instances:
            assert evaluate_local(g, instance) == expected, g.attacks


def test_tuple_values_are_rooted_walk_counts(graphs):
    # at depth 10 no horizon passes 10 x 4 = 40, so 48 lengths cover them
    for g in every(graphs):
        assert_matches_walk_counts(g, evaluate_cyclic(g, PropagationDepth(10)), bound=48)


def test_acyclic_categoriser_is_exact(graphs):
    acyclic = {n: [g for g in sized if is_acyclic(g)] for n, sized in graphs.items()}
    assert [len(acyclic[n]) for n in range(1, 5)] == [1, 2, 6, 31]  # OEIS A003087
    for g in every(acyclic):
        values = evaluate_local(g, categoriser())
        exact = exact_categoriser(g)
        assert values == exact, g.attacks
        assert well_defended(g, values) == defended(g, exact)


def test_well_defended_compares_tuples_and_labels(graphs):
    # Labels rank by "-?+".index, not as strings: in ASCII, + < - < ?.
    by_string = 0
    for g in every(graphs):
        tuples = evaluate_cyclic(g, PropagationDepth(10))
        assert well_defended(g, tuples) == {
            a for a in g.arguments
            if not any(compare(tuples[b], tuples[a]).verdict is Verdict.FIRST_BETTER
                       for b in g.attackers_of(a))
        }, g.attacks
        labels = grounded_oracle(g)
        expected = defended(g, {a: "-?+".index(v) for a, v in labels.items()})
        assert well_defended(g, labels) == expected, g.attacks
        by_string += defended(g, labels) != expected
    assert by_string > 0


def test_rounding_moves_cyclic_well_defended_sets(graphs):
    # ROADMAP item 1: the float fixpoint stops at a step below 1e-12, which
    # bounds no error, so values that are equal can compare as unequal.
    # Rounding to 9 decimals shows where that decides well-defendedness.
    moved = {}
    for n, sized in graphs.items():
        moved[n] = 0
        for g in sized:
            if is_acyclic(g):
                continue
            values = evaluate_local(g, categoriser())
            raw = well_defended(g, values)
            assert raw == defended(g, values), g.attacks
            rounded = defended(g, {a: round(v, 9) for a, v in values.items()})
            moved[n] += raw != rounded
    assert moved == {1: 0, 2: 0, 3: 2, 4: 46}


@pytest.mark.parametrize("semantics", ["preferred", "stable"])
def test_clean_acceptance_implies_defence_under_grounded_labels(graphs, semantics):
    # An attacker strictly preferred under the grounded labels is IN, or
    # UNDEC against an OUT argument; either way the argument is OUT, so a
    # member of every complete extension attacks it and it is not clean.
    rank = "-?+".index
    attacked_clean = 0
    for g in every(graphs):
        extensions = oracle_extensions(g)[semantics == "stable"]
        somewhere = set().union(*extensions)
        # uni or cleanly: in some extension, and no attacker in any
        clean = {a for a in somewhere if not somewhere.intersection(g.attackers_of(a))}
        labels = grounded_oracle(g)
        for a in clean:
            assert not any(rank(labels[b]) > rank(labels[a])
                           for b in g.attackers_of(a)), (g.attacks, a)
            attacked_clean += bool(g.attackers_of(a))
    assert attacked_clean > 0
    # so the scan can never find that witness: it spends every trial
    report = compatibility_scan("rooted_labelling", seed=7, trials=2000,
                                semantics=semantics)
    assert report.cleanly_not_defended is None
    assert report.trials_used == 2000
