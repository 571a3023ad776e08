"""Extension semantics at desk scale, graded acceptance, well-defendedness.

Preferred and stable extensions are enumerated exactly by depth-first
search over conflict-free sets (bitmask encoded), which is fine for the
hand-sized graphs this package targets; an explicit bound guards against
accidental blow-ups.  Acceptance levels grade each argument by how the
whole extension list treats it.  Well-defendedness instead compares an
argument against its direct attackers in a valuation's preorder, and a
seeded scan hunts for graphs where the two notions come apart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .framework import (
    AttackGraph,
    random_acyclic_graph,
    random_attack_graph,
)
from .local import (
    ConvergenceError,
    FixpointConfig,
    LocalInstance,
    builtin_instances,
    evaluate_local,
    induced_preorder,
)
from .tuple_eval import PropagationDepth, evaluate_cyclic
from .tuples import TupledValue, Verdict, compare

__all__ = [
    "ENUMERATION_BOUND",
    "AcceptabilityReport",
    "EnumerationBoundError",
    "Extension",
    "LEVELS",
    "ScanReport",
    "Witness",
    "classification_report",
    "classify",
    "compatibility_scan",
    "defends",
    "is_conflict_free",
    "preferred_extensions",
    "scan_graph_stream",
    "stable_extensions",
    "valuation_preference",
    "well_defended",
]

ENUMERATION_BOUND = 25

LEVELS = ("uni", "cleanly", "only-exi", "not-accepted")

# The first two levels both imply that no direct attacker sits in any
# extension; "uni" additionally requires membership in all of them.
CLEAN_LEVELS = frozenset({"uni", "cleanly"})


class EnumerationBoundError(ValueError):
    """The graph is too large for exact extension enumeration."""


@dataclass(frozen=True)
class Extension:
    """A conflict-free set of arguments, kept in declaration order."""

    members: tuple[str, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __len__(self) -> int:
        return len(self.members)

    def render(self) -> str:
        return "{" + ",".join(self.members) + "}"


def is_conflict_free(g: AttackGraph, members) -> bool:
    chosen = {m for m in members}
    for m in chosen:
        g.index_of(m)
    return not any(src in chosen and dst in chosen for src, dst in g.attacks)


def defends(g: AttackGraph, members, name: str) -> bool:
    """Does the set attack every direct attacker of the argument?"""
    chosen = {m for m in members}
    for m in chosen:
        g.index_of(m)
    g.index_of(name)
    return all(g.direct_attackers(b) & chosen for b in g.attackers_of(name))


def _bit_tables(g: AttackGraph):
    names = g.arguments
    if len(names) > ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"{len(names)} arguments exceed the enumeration bound of "
            f"{ENUMERATION_BOUND}"
        )
    index = {name: i for i, name in enumerate(names)}
    attackers = [0] * len(names)
    attacks = [0] * len(names)
    for src, dst in g.attacks:
        attackers[index[dst]] |= 1 << index[src]
        attacks[index[src]] |= 1 << index[dst]
    return names, attackers, attacks


def _bits(mask: int) -> Iterator[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def _conflict_free_masks(attackers, attacks) -> Iterator[tuple[int, int]]:
    """All conflict-free bitmasks with the union of their attack targets."""
    n = len(attackers)
    stack = [(0, 0, 0)]
    while stack:
        i, mask, attacked = stack.pop()
        if i == n:
            yield mask, attacked
            continue
        stack.append((i + 1, mask, attacked))
        bit = 1 << i
        no_self_loop = not (attackers[i] & bit)
        if no_self_loop and not (attackers[i] & mask) and not (attacks[i] & mask):
            stack.append((i + 1, mask | bit, attacked | attacks[i]))


def _sorted_extensions(g: AttackGraph, masks) -> list[Extension]:
    names = g.arguments
    extensions = [
        Extension(tuple(names[i] for i in _bits(mask))) for mask in masks
    ]
    return sorted(extensions, key=lambda e: (len(e.members), sorted(e.members)))


def preferred_extensions(g: AttackGraph) -> list[Extension]:
    """Maximal admissible sets, sorted by size then member names."""
    names, attackers, attacks = _bit_tables(g)
    admissible = [
        mask
        for mask, attacked in _conflict_free_masks(attackers, attacks)
        if all(not (attackers[i] & ~attacked) for i in _bits(mask))
    ]
    maximal = [
        m
        for m in admissible
        if not any(m != other and not (m & ~other) for other in admissible)
    ]
    return _sorted_extensions(g, maximal)


def stable_extensions(g: AttackGraph) -> list[Extension]:
    """Conflict-free sets attacking every outside argument (may be empty)."""
    names, attackers, attacks = _bit_tables(g)
    full = (1 << len(names)) - 1
    stable = [
        mask
        for mask, attacked in _conflict_free_masks(attackers, attacks)
        if mask | attacked == full
    ]
    return _sorted_extensions(g, stable)


def _extensions_for(g: AttackGraph, semantics: str) -> list[Extension]:
    if semantics == "preferred":
        return preferred_extensions(g)
    if semantics == "stable":
        return stable_extensions(g)
    raise ValueError(f"unknown semantics {semantics!r}")


def classify(g: AttackGraph, semantics: str = "preferred") -> dict[str, str]:
    """Acceptance level of every argument across the semantics' extensions.

    uni: in every extension (and at least one exists); cleanly: in some
    extension with no direct attacker in any; only-exi: in some extension
    but a direct attacker also appears in one; not-accepted: in none.
    """
    return _levels(g, _extensions_for(g, semantics))


def _levels(g: AttackGraph, extensions) -> dict[str, str]:
    member_sets = [set(e.members) for e in extensions]
    levels = {}
    for name in g.arguments:
        containing = sum(name in s for s in member_sets)
        attacker_present = any(
            b in s for s in member_sets for b in g.attackers_of(name)
        )
        if member_sets and containing == len(member_sets):
            levels[name] = "uni"
        elif containing and not attacker_present:
            levels[name] = "cleanly"
        elif containing:
            levels[name] = "only-exi"
        else:
            levels[name] = "not-accepted"
    return levels


def well_defended(
    g: AttackGraph, strictly_better: Callable[[str, str], bool]
) -> frozenset[str]:
    """Arguments no direct attacker of which is strictly preferred.

    Ties and incomparability both count in the argument's favour;
    unattacked arguments qualify vacuously.
    """
    return frozenset(
        a
        for a in g.arguments
        if not any(strictly_better(b, a) for b in g.attackers_of(a))
    )


def valuation_preference(values: Mapping[str, object]) -> Callable[[str, str], bool]:
    """Strict-preference test over argument names for a value mapping.

    Tupled values compare with the cautious two-stage algorithm; scalar and
    label values through their total order.
    """
    if values and all(isinstance(v, TupledValue) for v in values.values()):
        return (
            lambda a, b: compare(values[a], values[b]).verdict
            is Verdict.FIRST_BETTER
        )
    order = induced_preorder(dict(values))
    return order.strictly_better


@dataclass(frozen=True)
class AcceptabilityReport:
    semantics: str
    extensions: tuple[Extension, ...]
    level: Mapping[str, str]
    well_defended: Mapping[str, frozenset[str]]


def classification_report(
    g: AttackGraph,
    semantics: str = "preferred",
    valuations: Mapping[str, Mapping[str, object]] | None = None,
) -> AcceptabilityReport:
    """Bundle extensions, levels, and per-valuation well-defended sets."""
    extensions = tuple(_extensions_for(g, semantics))
    level = _levels(g, extensions)
    defended = {
        name: well_defended(g, valuation_preference(values))
        for name, values in (valuations or {}).items()
    }
    return AcceptabilityReport(
        semantics=semantics,
        extensions=extensions,
        level=level,
        well_defended=defended,
    )


# -- compatibility scan --------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    direction: str
    graph: AttackGraph
    argument: str
    trial: int


@dataclass(frozen=True)
class ScanReport:
    valuation: str
    trials_used: int
    cleanly_not_defended: Witness | None
    defended_not_cleanly: Witness | None

    @property
    def complete(self) -> bool:
        return (
            self.cleanly_not_defended is not None
            and self.defended_not_cleanly is not None
        )


def _attack_tree(rng: random.Random, size: int) -> AttackGraph:
    names = [f"N{i}" for i in range(1, size + 1)]
    attacks = [(names[i], names[rng.randrange(i)]) for i in range(1, size)]
    return AttackGraph(names, attacks)


def _cycle_tangle(rng: random.Random, size: int) -> AttackGraph:
    names = ["O1", "O2", "O3", "E1", "E2"]
    attacks = [("O1", "O2"), ("O2", "O3"), ("O3", "O1"), ("E1", "E2"), ("E2", "E1")]
    for i in range(1, max(1, size - 5) + 1):
        fresh = f"X{i}"
        pool = list(names)
        attackers = [src for src in pool if rng.random() < 0.3]
        if not attackers:
            attackers = [rng.choice(pool)]
        names.append(fresh)
        attacks.extend((src, fresh) for src in attackers)
    return AttackGraph(names, attacks)


def scan_graph_stream(
    seed: int, *, size_bound: int = 8, acyclic_only: bool = False
) -> Iterator[AttackGraph]:
    """Endless deterministic stream of small graphs for witness searches.

    Mixes attack trees, layered acyclic graphs, unrestricted digraphs, and
    odd/even cycle tangles so that structurally different witnesses all
    have reasonable density in the stream.
    """
    rng = random.Random(seed)
    kinds = ("tree", "acyclic") if acyclic_only else ("tree", "acyclic", "digraph", "tangle")
    while True:
        kind = kinds[rng.randrange(len(kinds))]
        size = rng.randint(3, size_bound)
        if kind == "tree":
            yield _attack_tree(rng, size)
        elif kind == "acyclic":
            yield random_acyclic_graph(
                seed=rng.randrange(2**30), size=size, density=rng.uniform(0.1, 0.5)
            )
        elif kind == "digraph":
            yield random_attack_graph(
                seed=rng.randrange(2**30), size=size, density=rng.uniform(0.1, 0.4)
            )
        else:
            yield _cycle_tangle(rng, size)


def _resolve_valuation(valuation) -> tuple[str, object]:
    if isinstance(valuation, LocalInstance):
        return valuation.name, valuation
    if valuation == "tuples":
        return "tuples", None
    builtins = builtin_instances()
    if valuation in builtins:
        return valuation, builtins[valuation]
    raise ValueError(f"unknown valuation {valuation!r}")


def compatibility_scan(
    valuation,
    *,
    seed: int,
    trials: int,
    size_bound: int = 8,
    semantics: str = "preferred",
    acyclic_only: bool = False,
    depth: PropagationDepth | None = None,
    config: FixpointConfig | None = None,
) -> ScanReport:
    """Search seeded random graphs for both directions of disagreement
    between clean acceptance and well-defendedness.

    Stops early once a witness of each kind is found; the report records
    how many graphs were inspected and carries the witnesses themselves.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    name, instance = _resolve_valuation(valuation)
    depth = depth or PropagationDepth()
    found: dict[str, Witness] = {}
    trials_used = 0
    stream = scan_graph_stream(seed, size_bound=size_bound, acyclic_only=acyclic_only)
    for trial in range(1, trials + 1):
        trials_used = trial
        g = next(stream)
        try:
            if instance is None:
                values = evaluate_cyclic(g, depth)
            else:
                values = evaluate_local(g, instance, config)
        except ConvergenceError:
            continue
        levels = classify(g, semantics)
        defended = well_defended(g, valuation_preference(values))
        for a in g.arguments:
            clean = levels[a] in CLEAN_LEVELS
            if clean and a not in defended and "cleanly-not-defended" not in found:
                found["cleanly-not-defended"] = Witness(
                    "cleanly-not-defended", g, a, trial
                )
            if a in defended and not clean and "defended-not-cleanly" not in found:
                found["defended-not-cleanly"] = Witness(
                    "defended-not-cleanly", g, a, trial
                )
        if len(found) == 2:
            break
    return ScanReport(
        valuation=name,
        trials_used=trials_used,
        cleanly_not_defended=found.get("cleanly-not-defended"),
        defended_not_cleanly=found.get("defended-not-cleanly"),
    )
