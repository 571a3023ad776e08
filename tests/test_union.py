"""A graph's acceptance does not depend on a disjoint graph beside it.

Seeded pairs of small random graphs g and h are written as the disjoint
union g ⊎ h and as h ⊎ g, with their names made disjoint.  In either
writing each graph's arguments keep the preferred levels they have alone,
and the stable ones whenever the other graph has a stable extension (when
it has none, neither has the union).  The union's extensions are every
pair of one extension of each graph, so their number is the product."""

import random

from gradarg import (
    classify,
    parse_framework,
    preferred_extensions,
    random_attack_graph,
    stable_extensions,
)


def renamed(g, prefix):
    """The graph with `prefix` before every name, as its two lists."""
    return ([prefix + a for a in g.arguments],
            [(prefix + s, prefix + t) for s, t in g.attacks])


def written(*graphs):
    """The disjoint union of (arguments, attacks) lists, in the given order."""
    return parse_framework(
        "".join(f"arg({a})." for arguments, _ in graphs for a in arguments)
        + "".join(f"att({s},{t})." for _, attacks in graphs for s, t in attacks))


def restricted(levels, arguments):
    return {a: levels[a] for a in arguments}


def test_seeded_disjoint_unions():
    rng = random.Random(20)
    for _ in range(400):
        parts = [renamed(random_attack_graph(rng.randrange(2**30), rng.randint(1, 7),
                                             rng.uniform(0.1, 0.5)), prefix)
                 for prefix in ("g", "h")]
        alone = [written(part) for part in parts]
        levels = {semantics: [classify(g, semantics) for g in alone]
                  for semantics in ("preferred", "stable")}
        preferred = [len(preferred_extensions(g)) for g in alone]
        stable = [len(stable_extensions(g)) for g in alone]
        for union in (written(*parts), written(*parts[::-1])):
            assert len(preferred_extensions(union)) == preferred[0] * preferred[1]
            assert len(stable_extensions(union)) == stable[0] * stable[1]
            for semantics in ("preferred", "stable"):
                union_levels = classify(union, semantics)
                for k, (arguments, _) in enumerate(parts):
                    if semantics == "stable" and not stable[1 - k]:
                        continue
                    assert restricted(union_levels, arguments) == levels[semantics][k], (
                        semantics, parts)
