"""Extension semantics, graded acceptance, well-defendedness.

Preferred and stable extensions are enumerated exactly.  They start from
the graph's grounded labelling (`AttackGraph._grounded`, one linear pass,
the same one the rooted labelling reads on a cyclic graph); the arguments
it leaves undecided are searched one weakly connected part of their
subgraph at a time, each part numbered on its own.  A part is walked
depth first over one label per member, one strongly connected component
at a time in dependency order, over each component's conflict-free sets
(bitmasks over the component's own numbering, so none is wider than its
component).  The extensions are every combination of one labelling per
part, formed once at the end as lists of declaration indices.  The cost
is exponential only in the largest undecided component, which
`ENUMERATION_BOUND` caps, and a fixed cap on the number of extensions,
and on the partial labellings at any depth of a part's walk, stops
work that would outgrow memory, as `LISTING_BOUND` does for the members
the extensions would list in all.  Acceptance levels grade each argument
by how the extensions treat it, and read only whether it is in every
extension or in some.  The parts combine freely, so those are each
part's AND and OR of its IN masks, folded per argument: levels never
form the extensions.  Well-defendedness instead compares an argument
with its direct attackers by one comparator, `valuation_preference`
(by index inside), whose outcomes carry their exactness; one loop reads
the well-defended set and the open set, bytes by index, as the levels
are, until named.  Tupled values are compared unrolled once first:
counts do not depend on the depth and no horizon shrinks as it grows, so
an exact comparison there holds at any depth, and the values are
unrolled to the depth asked for only when a verdict is open.  A seeded scan hunts for graphs where the two notions
come apart, skipping a graph it has drawn before and searching each
part shape once.  Each trial classifies its graph first and computes the
valuation only when a missing witness can still occur: a clean argument
that is not well-defended has an attacker.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from .framework import (
    _IN,
    _OUT,
    AttackGraph,
    BoundError,
    _condense,
    _generated,
    random_acyclic_graph,
    random_attack_graph,
)
from .local import (
    ConvergenceError,
    LocalInstance,
    _ranked,
    builtin_instances,
    evaluate_local,
)
from .tuple_eval import EvaluationBoundError, evaluate_cyclic
from .tuples import ComparisonOutcome, TupledValue, Verdict, compare

__all__ = [
    "ENUMERATION_BOUND",
    "LISTING_BOUND",
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

# The largest undecided component the search takes on: it walks the
# component's conflict-free sets once for every distinct upstream labelling.
ENUMERATION_BOUND = 25

# The most extensions the search keeps.  Distinct preferred extensions lie
# in distinct maximal conflict-free sets (two admissible sets inside one
# conflict-free set have an admissible union), and a graph of n vertices
# has at most 3^(n/3) maximal independent sets (Moon & Moser 1965), 8,748
# for n = 25.  The partial labellings counted at each depth of a part's
# walk are the preferred or stable labellings of the subgraph upstream of
# that depth, so no graph of at most 25 arguments reaches the cap.
_EXTENSION_CAP = 10_000

# The most members that an extension list holds, summed over its
# extensions: 8 bytes each in the name tuples, 128 MiB at the bound.  With
# the sort keys, `solve` and JSON `classify` peaked at 311 MB or less on
# listings at the bound, inside a 512 MiB address space.
LISTING_BOUND = 2**24

LEVELS = ("uni", "cleanly", "only-exi", "not-accepted")

# A grounded label's level: IN is in every extension (2), OUT in none (0).
_GROUNDED_LEVEL = bytes.maketrans(bytes([_IN, _OUT]), bytes([2, 0]))

# A folded level (2 every extension, 1 some, 0 none) as its LEVELS index.
_LEVEL_INDEX = bytes.maketrans(b"\0\1\2", b"\3\1\0")

_OPEN = 2  # the `_verdicts` byte of well-defended after an inexact comparison

# A label's binary digit in an IN mask: 1 for IN, 0 for OUT and undecided.
_IN_DIGIT = bytes.maketrans(bytes([0, _IN, _OUT]), b"010")

# The attacker and target masks, inside its component, of a lone member.
_LONE = (0,)

# Better, worse and tie from an order, keyed by whether the values are floats.
_ORDER_OUTCOMES = {floats: tuple(ComparisonOutcome(verdict, not floats) for verdict in
                                 (Verdict.FIRST_BETTER, Verdict.SECOND_BETTER, Verdict.EQUIVALENT))
                   for floats in (False, True)}


class EnumerationBoundError(ValueError, BoundError):
    """An undecided component or the extension list is too large for exact
    enumeration."""


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


def _component_labellings(att, tgt, forced, eligible, stable):
    """IN-maximal complete labellings of one component, as (IN, OUT) masks
    over its own numbering, given member v's attackers `att[v]` and targets
    `tgt[v]` inside it and its upstream labels: `forced` members have an
    IN attacker upstream, `eligible` ones have every upstream attacker OUT
    and alone may be IN.  A conflict-free IN set gives a complete labelling
    when its members are exactly the eligible ones whose attackers are all
    OUT; a member outside it is OUT when attacked by IN, else undecided."""
    size = len(att)
    ready_tests = [(1 << v, att[v]) for v in range(size) if eligible >> v & 1]
    found = []
    stack = [(0, 0, forced)]
    while stack:
        v, chosen, out = stack.pop()
        if v == size:
            ready = 0
            for bit, attacked_by in ready_tests:
                if not attacked_by & ~out:
                    ready |= bit
            if ready == chosen and (not stable or (chosen | out).bit_count() == size):
                found.append((chosen, out))
            continue
        stack.append((v + 1, chosen, out))
        bit = 1 << v
        if eligible & bit and not att[v] & (chosen | bit) and not tgt[v] & chosen:
            stack.append((v + 1, chosen | bit, out | tgt[v]))
    found.sort(key=lambda labelling: -labelling[0].bit_count())
    maximal: list[tuple[int, int]] = []
    for chosen, out in found:
        if all(chosen & ~larger for larger, _ in maximal):
            maximal.append((chosen, out))
    return maximal


def _searched_parts(g: AttackGraph, stable: bool, searched_shapes: dict | None = None):
    """The labellings of each weakly connected part of the undecided
    subgraph, as (label, [(members, found), ...]), or None when some part
    has no stable labelling, so no extension exists.

    `label` is the grounded labelling by declaration index.  Every complete
    labelling extends it, and each undecided argument's decided attackers
    are OUT, so only the undecided arguments are searched, one weakly
    connected part at a time: the parts do not constrain each other.  Each
    part's `members` are its declaration indices, sorted, and `local`
    numbers them 0 to k - 1 in that order.  Member j's undecided attackers,
    `attackers[j]`, and each IN mask in `found` are in that numbering; the
    search numbers each component on its own.  The extensions are every
    combination of one labelling per part.  A part with no stable
    labelling empties the answer even beside a part past the cap.
    A part's labellings depend only on its attacker rows, so a
    `searched_shapes` dict, under one semantics, keeps `found` by those.
    """
    label = g._grounded()
    targets_of, attackers_of = g._targets, g._attackers
    local = [-1] * len(label)  # an undecided argument's number in its part

    def condensed(members, attackers):  # the part's condensation, in its numbering
        return _condense(
            [[j for t in targets_of[v] if (j := local[t]) >= 0] for v in members], attackers)

    parts = []
    largest = 0
    for a, lab in enumerate(label):
        if lab or local[a] >= 0:
            continue
        local[a] = 0
        members = [a]
        for v in members:  # the list grows while it is read
            for u in (*targets_of[v], *attackers_of[v]):
                if not label[u] and local[u] < 0:
                    local[u] = 0
                    members.append(u)
        members.sort()
        for j, v in enumerate(members):
            local[v] = j
        # an undecided neighbour is in this part, so numbered; a decided one is -1
        attackers = [[j for b in attackers_of[v] if (j := local[b]) >= 0] for v in members]
        # Only a part larger than the bound can hold a component past it;
        # any other is condensed just before its search, so the
        # condensations of many small parts are never all held at once.
        part = condensed(members, attackers) if len(members) > ENUMERATION_BOUND else None
        if part:  # it holds a cycle union: each undecided argument has an undecided attacker
            largest = max(largest, *map(len, part[1]))
        parts.append((members, attackers, part))
    if largest > ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"an undecided component of {largest} arguments exceeds the "
            f"enumeration bound of {ENUMERATION_BOUND}")

    def search(members, attackers, part):
        try:
            return _part_masks(*(part or condensed(members, attackers)), attackers, stable)
        except EnumerationBoundError if stable else ():
            return None  # too many: raised below unless a later part has none

    searched = []
    for members, attackers, part in parts:
        if searched_shapes is None:
            found = search(members, attackers, part)
        else:
            shape = tuple(map(tuple, attackers))
            if shape not in searched_shapes:
                searched_shapes[shape] = search(members, attackers, part)
            found = searched_shapes[shape]
        if found == []:
            return None
        searched.append((members, found))
    if any(found is None for _, found in searched):
        raise _cap_error()
    return label, searched


def _chosen(members: list[int], mask: int) -> list[int]:
    """The members whose bits, in their part's numbering, `mask` sets: its
    binary digits read lowest first, in time linear in the part."""
    return [v for v, bit in zip(members, bin(mask)[:1:-1]) if bit == "1"]


def _sorted_extensions(g: AttackGraph, search) -> list[Extension]:
    """The IN sets of the preferred (or stable) labellings: every
    combination of one labelling per part of a `_searched_parts` result,
    sorted by size, then by their sorted member names.  Raises
    EnumerationBoundError before any is formed when there are more than
    the cap, or when they would list more than LISTING_BOUND members in
    all."""
    if search is None:
        return []
    label, parts = search
    count = 1
    for _, found in parts:  # each part has a labelling, so the count only grows
        if (count := count * len(found)) > _EXTENSION_CAP:
            raise _cap_error()
    # Every extension lists the grounded IN set, and each labelling of a
    # part is in count / len(found) of them.
    listed = count * label.count(_IN) + sum(
        count // len(found) * sum(mask.bit_count() for mask in found) for _, found in parts)
    if listed > LISTING_BOUND:
        raise EnumerationBoundError(
            f"{count} extensions of {listed} members in all exceed the "
            f"enumeration bound of {LISTING_BOUND} listed members")
    names = g.arguments
    grounded = [a for a, lab in enumerate(label) if lab == _IN]  # in every extension
    options = [[_chosen(members, mask) for mask in found] for members, found in parts]
    # Two extensions of one size compare by their sorted names as the
    # members outside the grounded IN set do, so only those are sorted for
    # the key.
    rest = [[*itertools.chain.from_iterable(combination)]
            for combination in itertools.product(*options)]
    rest.sort(key=lambda own: (len(own), sorted(map(names.__getitem__, own))))
    return [Extension(tuple(map(names.__getitem__, sorted(grounded + own)))) for own in rest]


def _cap_error() -> EnumerationBoundError:
    return EnumerationBoundError(
        f"more than {_EXTENSION_CAP} extensions exceed the enumeration bound")


def _part_masks(order, unions, attackers, stable: bool) -> list[int]:
    """IN sets, over the part's own numbering, of the IN-maximal complete
    (or stable) labellings of one weakly connected part of the undecided
    subgraph, given as its `_condense` result, `order` and `unions`, and
    each member's undecided attackers: a non-negative entry of the order
    is a component of that one member, and entry ~k is cycle union k.

    Preferred semantics is SCC-recursive: each partial labelling is
    extended by the IN-maximal complete labellings of the next component
    given the labels upstream of it.  Stable labellings are the preferred
    ones without an undecided member, so the stable search drops any
    component labelling that has one.  The walk is depth first over one
    label per member.  A component reads only its upstream attackers'
    labels, which the walk has set on its way down, so no stale label is
    read.  Each component is searched in its own numbering, once per
    distinct (forced, eligible) key, so only the IN masks returned are
    wider than a component.  The key is one pass over the component's
    upstream rows, each member's bit with its attackers outside the
    component: each cycle union's rows and masks are made once, before the
    walk, and a lone member's one row is its attacker row.  Passing the
    cap at any depth raises.
    """
    label = bytearray(len(attackers))  # _IN, _OUT or 0, undecided
    shapes = [_union_shape(comp, attackers) for comp in unions]
    options = {}  # (component, forced, eligible): its (IN, OUT) masks

    def labellings(c):  # component c's, under the labels upstream of it
        x = order[c]
        # a lone member does not attack itself: its one row is its attackers
        upstream, att, tgt = shapes[~x] if x < 0 else (((1, attackers[x]),), _LONE, _LONE)
        forced = live = 0  # live: some upstream attacker is IN or undecided
        for bit, outside in upstream:
            for b in outside:
                if label[b] != _OUT:
                    live |= bit
                    if label[b] == _IN:
                        forced |= bit
                        break
        key = c, forced, (1 << len(att)) - 1 & ~live
        if key not in options:
            options[key] = _component_labellings(att, tgt, *key[1:], stable)
        return options[key]

    # Under stable semantics a component with no undecided attacker outside
    # itself has the same labellings whatever precedes it: if it has none,
    # the answer is empty, found before the walk can pass the cap.  Every
    # lone member has one: it is undecided, so not all its attackers are OUT.
    if stable:
        for c, x in enumerate(order):
            if x < 0 and not shapes[~x][0] and not labellings(c):
                return []
    found = []
    taken = [0] * len(order)  # labellings taken at each depth
    walk = [iter(labellings(0))]
    while walk:
        c = len(walk) - 1
        for chosen, out in walk[-1]:
            taken[c] += 1
            if taken[c] > _EXTENSION_CAP:
                raise _cap_error()
            x = order[c]
            for i, v in enumerate((x,) if x >= 0 else unions[~x]):
                label[v] = _IN if chosen >> i & 1 else _OUT if out >> i & 1 else 0
            if c + 1 < len(order):
                walk.append(iter(labellings(c + 1)))
                break  # down to the next component, back here when it is done
            found.append(int(label.translate(_IN_DIGIT)[::-1], 2))
        else:
            walk.pop()
    return found


def _union_shape(comp, attackers):
    """A cycle union in its own numbering, members `comp` numbered 0 to
    k - 1: each member's (bit, attackers outside the union) row, for the
    members that have such attackers, and the attacker and target masks
    of each member inside the union."""
    upstream, att, tgt = [], [0] * len(comp), [0] * len(comp)
    for i, v in enumerate(comp):
        outside = []
        for b in attackers[v]:
            if b in comp:
                j = comp.index(b)
                att[i] |= 1 << j
                tgt[j] |= 1 << i
            else:
                outside.append(b)
        if outside:
            upstream.append((1 << i, outside))
    return upstream, att, tgt


def preferred_extensions(g: AttackGraph) -> list[Extension]:
    """Maximal admissible sets, sorted by size then member names."""
    return _sorted_extensions(g, _searched_parts(g, stable=False))


def stable_extensions(g: AttackGraph) -> list[Extension]:
    """Conflict-free sets attacking every outside argument (may be empty)."""
    return _sorted_extensions(g, _searched_parts(g, stable=True))


def _check_semantics(semantics: str) -> None:
    if semantics not in ("preferred", "stable"):
        raise ValueError(f"unknown semantics {semantics!r}")


def _semantics_search(g: AttackGraph, semantics: str):
    _check_semantics(semantics)
    return _searched_parts(g, stable=semantics == "stable")


def classify(g: AttackGraph, semantics: str = "preferred") -> dict[str, str]:
    """Acceptance level of every argument across the semantics' extensions.

    uni: in every extension (and at least one exists); cleanly: in some
    extension with no direct attacker in any; only-exi: in some extension
    but a direct attacker also appears in one; not-accepted: in none.
    The levels are folded part by part, so they need no extension list.
    """
    return _named_levels(g, _levels(g, _semantics_search(g, semantics)))


def _named_levels(g: AttackGraph, levels: bytearray) -> dict[str, str]:
    return dict(zip(g.arguments, map(LEVELS.__getitem__, levels)))


def _levels(g: AttackGraph, search) -> bytearray:
    """Levels from a `_searched_parts` result without forming the
    extensions, one byte per declaration index: the level's index in
    LEVELS, so 0 and 1 are the clean levels.  The parts are disjoint and
    combine freely, so an argument is in every extension when it is
    grounded IN or its part's AND of IN masks holds it, and in some when
    its part's OR does."""
    if search is None:  # no extension, so every argument is in none
        level, parts = bytearray(len(g.arguments)), ()
    else:
        label, parts = search
        level = bytearray(label.translate(_GROUNDED_LEVEL))
    for members, found in parts:  # 2 for every extension, 1 for some, 0 for none
        for v in _chosen(members, functools.reduce(operator.or_, found)):
            level[v] = 1
        for v in _chosen(members, functools.reduce(operator.and_, found)):
            level[v] = 2
    levels = level.translate(_LEVEL_INDEX)
    read, attackers = level.__getitem__, g._attackers
    for members, _ in parts:  # only a part's member is in some extension but not all
        for v in members:
            if level[v] == 1 and any(map(read, attackers[v])):
                levels[v] = 2  # only-exi
    return levels


def well_defended(g: AttackGraph, values: Mapping[str, object]) -> frozenset[str]:
    """Arguments no direct attacker of which is strictly preferred under
    the value map `values`.

    Tupled values compare by `compare`, numbers and labels by their order.
    Ties and incomparability both count in the argument's favour;
    unattacked arguments qualify vacuously.  A map without a value for
    some argument raises ValueError naming the first such argument, in
    declaration order; values of other names are ignored.
    """
    names = g.arguments
    missing = next((a for a in names if a not in values), None)
    if missing is not None:
        raise ValueError(f"no value for argument {missing!r}")
    return frozenset(itertools.compress(names, _verdicts(g, [values[a] for a in names])))


def _verdicts(g: AttackGraph, values: list) -> bytearray:
    """Well-defendedness from the values by declaration index, one byte
    each: 0 out, at the first strictly preferred attacker but itself, 1 in
    and _OPEN in after an inexact comparison."""
    preference = _preference(values)
    verdicts = bytearray(len(values))
    for a, attackers in enumerate(g._attackers):
        exact = True
        for b in attackers:
            if b != a:
                outcome = preference(b, a)
                if outcome.verdict is Verdict.FIRST_BETTER:
                    break
                exact = exact and outcome.exact
        else:
            verdicts[a] = 1 if exact else _OPEN
    return verdicts


def valuation_preference(values: Mapping[str, object]) -> Callable[[str, str], ComparisonOutcome]:
    """The first argument name's `ComparisonOutcome` against the second's.

    Tupled values compare by the cautious two-stage `compare`, numbers and
    labels by their total order: exactly, except floats, which come with
    no error bound.  Every outcome is truthy: test its verdict.
    """
    index = {name: i for i, name in enumerate(values)}
    preference = _preference([*values.values()])
    return lambda a, b: preference(index[a], index[b])


def _preference(values: list) -> Callable[[int, int], ComparisonOutcome]:
    """`valuation_preference` over values listed by index."""
    if values and all(isinstance(v, TupledValue) for v in values):
        return lambda a, b: compare(values[a], values[b])
    rank = _ranked(values)  # of one kind: all floats or none
    better, worse, tie = _ORDER_OUTCOMES[isinstance(next(iter(values), None), float)]
    return lambda a, b: better if rank[a] > rank[b] else worse if rank[a] < rank[b] else tie


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
    search = _semantics_search(g, semantics)
    extensions = tuple(_sorted_extensions(g, search))
    level = _named_levels(g, _levels(g, search))
    defended = {
        name: well_defended(g, values)
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
    attackers: list[list[int]] = [[] for _ in names]
    for i in range(1, size):  # Ni+1 attacks one earlier argument
        attackers[rng.randrange(i)].append(i)
    return _generated(names, attackers)


def _cycle_tangle(rng: random.Random, size: int) -> AttackGraph:
    # O1 -> O2 -> O3 -> O1 and E1 <-> E2, then each Xi attacked by earlier ones
    names = ["O1", "O2", "O3", "E1", "E2"]
    attackers = [(2,), (0,), (1,), (4,), (3,)]
    for i in range(1, max(1, size - 5) + 1):
        fresh = len(names)
        row = tuple(src for src in range(fresh) if rng.random() < 0.3)
        names.append(f"X{i}")
        attackers.append(row or (rng.randrange(fresh),))
    return _generated(names, attackers)


def scan_graph_stream(
    seed: int, *, size_bound: int = 8, acyclic_only: bool = False
) -> Iterator[AttackGraph]:
    """Endless deterministic stream of small graphs for witness searches.

    Mixes attack trees, layered acyclic graphs, unrestricted digraphs, and
    odd/even cycle tangles so that structurally different witnesses all
    have reasonable density in the stream.  Each graph draws its size from
    3 to `size_bound` arguments, but a tangle always has at least 6: an odd
    3-cycle, an even 2-cycle and at least one argument they attack.
    """
    size_bound = operator.index(size_bound)
    if size_bound < 3:
        raise ValueError(f"size_bound must be at least 3, not {size_bound}")
    return _graphs(random.Random(seed), size_bound, acyclic_only)


def _graphs(rng: random.Random, size_bound: int, acyclic_only: bool) -> Iterator[AttackGraph]:
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


def _values(g: AttackGraph, instance: LocalInstance | None, depth: int = 10) -> dict:
    """The value map of one valuation: the tupled values, unrolled `depth`
    runs, when `instance` is None, else the local instance's values."""
    if instance is None:
        return evaluate_cyclic(g, depth)
    return evaluate_local(g, instance)


def _defended(g: AttackGraph, instance: LocalInstance | None, depth: int = 10) -> bytearray:
    """The `_verdicts` of `_values(g, instance, depth)`; on a cyclic graph
    the tupled values are unrolled to `depth` only when the ones unrolled
    once leave a verdict open."""
    if instance is None and depth > 1 and not g.is_well_founded():
        try:
            verdicts = _verdicts(g, [*evaluate_cyclic(g, 1).values()])
        except EvaluationBoundError:
            pass  # the full pass raises it again, with its own horizon
        else:
            if _OPEN not in verdicts:
                return verdicts
    return _verdicts(g, [*_values(g, instance, depth).values()])


def _resolve_valuation(valuation) -> tuple[str, LocalInstance | None]:
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
    semantics: str = "preferred",
    acyclic_only: bool = False,
) -> ScanReport:
    """Search seeded random graphs for both directions of disagreement
    between clean acceptance and well-defendedness.

    A graph drawn before in the scan is skipped: fewer witnesses are
    missing than at its first draw.  Each other trial classifies its graph
    first, searching each part shape once, and computes the valuation only
    when a witness still missing can occur on it: a cleanly-not-defended
    one needs a clean argument with an attacker (an unattacked argument is
    well-defended vacuously, whatever the valuation), and a
    defended-not-cleanly one needs an argument that is not clean.  So a
    valuation error is raised only on a trial that could still yield a
    witness; a trial whose valuation does not converge is skipped.  Tupled
    values are unrolled 10 times only when a verdict is open at depth 1.

    Stops early once a witness of each kind is found; the report records
    how many graphs were inspected and carries the witnesses themselves.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    stream = scan_graph_stream(seed, acyclic_only=acyclic_only)
    _check_semantics(semantics)
    name, instance = _resolve_valuation(valuation)
    clean_witness = defended_witness = None
    drawn = set()  # each graph's (names, attacker rows)
    searched_shapes = {}  # the part search's, for this scan alone
    for trial in range(1, trials + 1):
        g = next(stream)
        if (key := (g._args, g._attackers)) in drawn:
            continue
        drawn.add(key)
        search = _searched_parts(g, semantics == "stable", searched_shapes)
        clean = [level < 2 for level in _levels(g, search)]  # uni or cleanly
        if not (
            (clean_witness is None
             and any(c and attackers for c, attackers in zip(clean, g._attackers)))
            or (defended_witness is None and not all(clean))
        ):
            continue
        try:
            defended = _defended(g, instance)
        except ConvergenceError:
            continue
        for a, is_clean, is_defended in zip(g.arguments, clean, defended):
            if is_clean and not is_defended and clean_witness is None:
                clean_witness = Witness("cleanly-not-defended", g, a, trial)
            if is_defended and not is_clean and defended_witness is None:
                defended_witness = Witness("defended-not-cleanly", g, a, trial)
        if clean_witness is not None and defended_witness is not None:
            break
    return ScanReport(name, trial, clean_witness, defended_witness)
