"""Fixture paths and the oracles that several test modules share.

Each oracle works from names and attack lists alone and uses no gradarg
evaluator, enumerator or condensation."""

import itertools
from pathlib import Path

from gradarg import LEAF_VALUE, AttackGraph, LocalInstance, parse_framework

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# g = 1 - x flips an even cycle between 1 and 0 for ever.
FLIP = LocalInstance(
    name="flip",
    v_min=0.0,
    v_max=1.0,
    g=lambda x: 1.0 - x,
    h=lambda values: max(values, default=0.0),
)


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.apx"


def load_fixture(name: str) -> AttackGraph:
    return parse_framework(fixture_path(name).read_text())


def oracle_extensions(g):
    """All preferred and stable extensions by brute force over subsets."""
    names = g.arguments
    attacks = set(g.attacks)

    def conflict_free(sub):
        return not any((a, b) in attacks for a in sub for b in sub)

    def self_defending(sub):
        s = set(sub)
        return all(
            any((c, b) in attacks for c in s)
            for a in sub
            for b in names
            if (b, a) in attacks
        )

    subsets = [
        frozenset(sub)
        for r in range(len(names) + 1)
        for sub in itertools.combinations(names, r)
    ]
    admissible = [s for s in subsets if conflict_free(s) and self_defending(s)]
    preferred = [s for s in admissible if not any(s < t for t in admissible)]
    stable = [
        s
        for s in subsets
        if conflict_free(s)
        and all(any((a, b) in attacks for a in s) for b in names if b not in s)
    ]
    key = lambda s: (len(s), sorted(s))
    return sorted(preferred, key=key), sorted(stable, key=key)


def graded_from_lists(g, extensions):
    """Acceptance levels by their definition, from extension name lists."""
    sets = [set(e.members) for e in extensions]
    somewhere = set().union(*sets)
    levels = {}
    for a in g.arguments:
        if sets and all(a in s for s in sets):
            levels[a] = "uni"
        elif a not in somewhere:
            levels[a] = "not-accepted"
        elif somewhere.intersection(g.attackers_of(a)):
            levels[a] = "only-exi"
        else:
            levels[a] = "cleanly"
    return levels


def grounded_oracle(graph):
    """Dung's grounded labelling: the least fixpoint of the characteristic
    function, iterated from the empty set in whole rounds.  + for IN, -
    for attacked by IN, ? for the rest."""
    attackers = {a: graph.attackers_of(a) for a in graph.arguments}
    accepted, defeated = set(), set()
    while True:
        grown = {a for a, bs in attackers.items() if all(b in defeated for b in bs)}
        if grown == accepted:
            break
        accepted = grown
        defeated = {a for a, bs in attackers.items() if any(b in accepted for b in bs)}
    return {a: "+" if a in accepted else "-" if a in defeated else "?"
            for a in graph.arguments}


def reachable(g):
    """The arguments each argument reaches by one or more attacks."""
    reach = {}
    for a in g.arguments:
        seen, stack = set(), list(g.targets_of(a))
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(g.targets_of(b))
        reach[a] = seen
    return reach


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
    reach = reachable(g)
    for a in g.arguments:
        union = {b for b in reach[a] if a in reach[b]}  # empty off cycles
        if not g.attackers_of(a):  # a leaf
            starts = g.targets_of(a)
        elif union and all(b in union for m in union for b in g.attackers_of(m)):
            starts = [t for t in g.targets_of(a) if t in union]
        else:
            continue
        for nxt in starts:
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
