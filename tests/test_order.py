"""A graph is its attack relation, so how it is written decides nothing.

Every graph on at most three arguments is written in every declaration
order, with its attacks in their given and in reversed order; seeded
rewritings of graphs on four arguments and of `scan_graph_stream(7)`
shuffle both.  Each writing must parse to a graph with the same value maps
(categoriser, labelling, max_based, tuples at depth 10), well-defended
sets, acceptance levels under both semantics and condensation components,
compared as maps and sets keyed by name; each writing's condensation must
also be in a dependency order."""

import itertools
import random

import pytest

from gradarg import (
    categoriser,
    classify,
    evaluate_cyclic,
    evaluate_local,
    max_based,
    parse_framework,
    rooted_labelling,
    scan_graph_stream,
    well_defended,
)

VALUATIONS = {
    "categoriser": lambda g: evaluate_local(g, categoriser()),
    "labelling": lambda g: evaluate_local(g, rooted_labelling()),
    "max_based": lambda g: evaluate_local(g, max_based()),
    "tuples": lambda g: evaluate_cyclic(g, 10),
}


def written(arguments, attacks):
    return parse_framework("".join(f"arg({a})." for a in arguments)
                           + "".join(f"att({s},{t})." for s, t in attacks))


def outcome(g):
    """Everything a writing must not move, keyed by name."""
    out = {}
    for name, values_of in VALUATIONS.items():
        values = values_of(g)
        out[name] = values
        out[f"well-defended:{name}"] = well_defended(g, values)
    for semantics in ("preferred", "stable"):
        out[f"levels:{semantics}"] = classify(g, semantics)
    out["components"] = components(g)
    return out


def components(g):
    """The condensation's components as sets of names, after asserting
    that no attack runs from a later component to an earlier one."""
    position = {m: k for k, comp in enumerate(g.condensation()) for m in comp}
    assert all(position[src] <= position[dst] for src, dst in g.attacks)
    return set(map(frozenset, g.condensation()))


def assert_same_outcome(writings):
    """The first writing's outcome is every other writing's."""
    (arguments, attacks), *others = writings
    first = written(arguments, attacks)
    expected = outcome(first)
    for arguments, attacks in others:
        g = written(arguments, attacks)
        assert set(g.attacks) == set(first.attacks)
        assert outcome(g) == expected, (arguments, attacks)


def all_graphs(n):
    names = "abc"[:n]
    cells = list(itertools.product(names, repeat=2))
    for mask in range(1 << len(cells)):
        yield names, [cell for k, cell in enumerate(cells) if mask >> k & 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_writing_of_the_small_graphs(n):
    for names, attacks in all_graphs(n):
        assert_same_outcome([(order, given) for order in itertools.permutations(names)
                             for given in (attacks, attacks[::-1])])


def shuffled(rng, arguments, attacks, count):
    """The writing as given, then `count` writings with both shuffled."""
    out = [(list(arguments), list(attacks))]
    for _ in range(count):
        out.append((rng.sample(arguments, len(arguments)),
                    rng.sample(attacks, len(attacks))))
    return out


def test_seeded_writings_of_four_argument_graphs():
    rng = random.Random(16)
    cells = list(itertools.product("abcd", repeat=2))
    for _ in range(200):
        attacks = [cell for cell in cells if rng.random() < 0.35]
        assert_same_outcome(shuffled(rng, "abcd", attacks, 2))


def test_seeded_writings_of_the_scan_stream():
    rng = random.Random(7)
    for g in itertools.islice(scan_graph_stream(7), 300):
        assert_same_outcome(shuffled(rng, g.arguments, g.attacks, 2))
