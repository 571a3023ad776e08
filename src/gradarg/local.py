"""Local gradual valuation: pluggable (order, g, h) instances.

An instance fixes an ordered value scale with a top and bottom, a
non-increasing function g turning the combined force of the direct
attackers into the attacked argument's value, and a combination function h
folding attacker values together.  Unattacked arguments take the top
value; everything else follows v(A) = g(h(values of direct attackers)).

Evaluation is one pass along the graph's condensation, its strongly
connected components in dependency order, with one step rule for every
argument outside a cycle union and a simultaneous fixpoint iteration, in
floats, over each cycle union; the rounds of all cycle unions together
read at most READ_BOUND attacks.  Acyclic graphs are evaluated exactly
(Fraction arithmetic where the values are exact).  The built-in rooted
labelling is Dung's grounded labelling on every graph, read from the
graph's one queue pass (`AttackGraph._grounded`) that extension
enumeration also starts from: + for IN, - for OUT, ? for undecided.  Any
other label instance follows the step rule on acyclic graphs and cannot
decide a graph with cycles.  Every value map lists the arguments in
declaration order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import add
from typing import Callable, Mapping

from .framework import _IN, _OUT, AttackGraph, BoundError
from . import tuple_eval

__all__ = [
    "READ_BOUND",
    "ConditionStarOutcome",
    "ConvergenceError",
    "LocalInstance",
    "MixedValueKindsError",
    "TotalPreorder",
    "UndecidableError",
    "ValidationReport",
    "Violation",
    "builtin_instances",
    "categoriser",
    "check_condition_star",
    "evaluate_local",
    "max_based",
    "rooted_labelling",
    "validate_instance",
]

LABELS = ("-", "?", "+")
_LABEL_RANK = {label: i for i, label in enumerate(LABELS)}
_ROOTED_LABEL = {0: "?", _IN: "+", _OUT: "-"}  # by grounded label


class ConvergenceError(ArithmeticError, BoundError):
    """A cycle union's fixpoint iteration did not settle within its rounds."""


class UndecidableError(ValueError):
    """A label instance met a cyclic configuration it cannot decide."""


class MixedValueKindsError(TypeError):
    """Values of different kinds cannot be ranked together."""


def _rank(value):
    """A value's place on its scale: a label's index in LABELS, any other
    value itself."""
    if not isinstance(value, str):
        return value
    try:
        return _LABEL_RANK[value]
    except KeyError:
        raise MixedValueKindsError(f"unknown label {value!r}") from None


@dataclass(frozen=True)
class LocalInstance:
    """One concrete (scale, g, h) choice.

    The scale runs from v_min up to v_max.  It is numeric (exact on acyclic
    graphs when the values are, floats on cyclic ones) or the three labels
    - < ? < +, and a string v_max tells the labels.
    """

    name: str
    v_min: object
    v_max: object
    g: Callable
    h: Callable

    def leq(self, a, b) -> bool:
        return _rank(a) <= _rank(b)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _weaken(x):
    # A float stays in float arithmetic (a Fraction operand would send it
    # through Fraction's operator fallback); anything else meets the exact one.
    # The exact reciprocal is a power: x + 1 keeps x's lowest terms, and
    # Fraction.__pow__ swaps them without the gcd that a division runs (on
    # every Python from 3.10), in one operator dispatch fewer than 1 / (1 + x).
    return 1 / (1 + x) if isinstance(x, float) else (x + _ONE) ** -1


def _add_up(values):
    # fsum rounds a float sum once, correctly, so the order of the values
    # decides nothing, on any Python (sum() compensates only from 3.12 on).
    if float in map(type, values):
        return math.fsum(values)
    total = reduce(add, values) if values else _ZERO
    return Fraction(total) if isinstance(total, int) else total


def _label_h(values):
    return max(values, key=_LABEL_RANK.get, default="-")


def _label_g(value):
    # The top label maps to the bottom one.  The built-in labelling is read
    # from `_grounded()`; this g still serves a custom label instance that
    # keeps it, on acyclic graphs.
    return {"-": "+", "?": "?", "+": "-"}[value]


def categoriser() -> LocalInstance:
    """Sum-combined instance over [0, 1] with g(x) = 1 / (1 + x).

    g and h take Fractions, ints and floats: exact inputs give a Fraction,
    a float among them a float, the correctly rounded sum (`math.fsum`)."""
    return LocalInstance(
        name="categoriser",
        v_min=_ZERO,
        v_max=_ONE,
        g=_weaken,
        h=_add_up,
    )


def rooted_labelling() -> LocalInstance:
    """Three-label instance: unattacked arguments get +, an argument with a
    + attacker gets -, and cycle members that nothing settles get ?."""
    return LocalInstance(
        name="rooted_labelling",
        v_min="-",
        v_max="+",
        g=_label_g,
        h=_label_h,
    )


def max_based() -> LocalInstance:
    """Instance combining attackers with max; only the strongest direct
    attacker matters.  g is the categoriser's; h returns the largest value
    as given, and Fraction(0) for none."""
    return LocalInstance(
        name="max_based",
        v_min=_ZERO,
        v_max=_ONE,
        g=_weaken,
        h=partial(max, default=_ZERO),
    )


def builtin_instances() -> dict[str, LocalInstance]:
    return {
        "categoriser": categoriser(),
        "rooted_labelling": rooted_labelling(),
        "max_based": max_based(),
    }


_TOLERANCE = 1e-12  # a round moving no cycle union member this much or more ends it

# Attack reads that the fixpoint rounds of one evaluation may make, over all
# its cycle unions: a couple of seconds on dense unions, where reads are
# cheapest.  Every cycle union of the fixtures, the frozen cases and the
# benchmark's inputs settles within 80,000.
READ_BOUND = 20_000_000


def evaluate_local(g: AttackGraph, instance: LocalInstance) -> dict[str, object]:
    """Value of every argument under the instance, listed in declaration
    order.

    One pass along the condensation's flat order, which names an argument
    outside every cycle union by its index and a cycle union by the
    complement of its number: an unattacked argument takes the top value,
    any other argument outside a cycle union takes g(h(values of its
    attackers)), and each cycle union iterates from the all-top start
    until a round moves no member by 1e-12 or more.  Each round reads the
    attackers of every member, and ConvergenceError is raised before a
    round would take the reads of all rounds past READ_BOUND.  h gets a
    tuple in `g.attackers_of` order.  Acyclic graphs evaluate
    exactly, and raise tuple_eval.EvaluationBoundError once the exact
    values made hold more than tuple_eval.EXACT_BITS_BOUND bits; on a
    cyclic graph every numeric value is a float (the top value and each
    result of g are converted).  The built-in rooted labelling (top "+", the module's
    own g and h) is Dung's grounded labelling on every graph: + IN, - OUT,
    ? undecided.  Any other label instance raises UndecidableError on a
    graph with cycles.
    """
    names = g.arguments
    if (instance.v_max, instance.g, instance.h) == ("+", _label_g, _label_h):
        return dict(zip(names, map(_ROOTED_LABEL.__getitem__, g._grounded())))
    order, unions = g._components()
    top, combine, weaken = instance.v_max, instance.h, instance.g
    exact = not unions
    if not exact:
        if isinstance(top, str):
            raise UndecidableError(
                f"label instance {instance.name!r} cannot decide cyclic graphs")
        top = float(top)
    attackers = g._attackers
    value: list = [top] * len(attackers)  # by declaration index
    read = value.__getitem__
    if exact:
        made = 0  # bits of the exact values made so far
        bound = tuple_eval.EXACT_BITS_BOUND

        def step(row):
            nonlocal made
            v = weaken(combine(tuple(map(read, row))))
            if isinstance(v, Fraction):
                made += v.numerator.bit_length() + v.denominator.bit_length()
                if made > bound:
                    raise tuple_eval._exact_bound_error()
            return v
    else:
        step = lambda row: float(weaken(combine(tuple(map(read, row)))))
    budget = READ_BOUND  # attack reads left for the rounds
    for x in order:
        if x < 0:
            budget = _iterate(unions[~x], attackers, value, step, budget)
        elif attackers[x]:
            value[x] = step(attackers[x])
    return dict(zip(names, value))


def _iterate(members, attackers, value, step, budget) -> int:
    """Jacobi rounds over one cycle union, from the all-top start in `value`,
    while they fit a budget of attack reads; returns the budget left."""
    reads = sum(len(attackers[m]) for m in members)  # attacks one round reads
    rounds = 0
    while budget >= reads:
        budget -= reads
        rounds += 1
        settled = True
        nxt = []
        for m in members:
            v = step(attackers[m])
            settled = settled and abs(v - value[m]) < _TOLERANCE
            nxt.append(v)
        for m, v in zip(members, nxt):
            value[m] = v
        if settled:
            return budget
    raise ConvergenceError(f"no fixpoint on a cycle union of {len(members)} "
                           f"arguments within {rounds} rounds of {reads} attack reads, "
                           f"past the bound of {READ_BOUND} reads")


# -- ordering and diagnostics --------------------------------------------------

_KIND_OF = {Fraction: "number", int: "number", float: "float", str: "label"}


def _value_kind(value) -> str:
    for klass, kind in _KIND_OF.items():
        if isinstance(value, klass) and not isinstance(value, bool):
            return kind
    raise MixedValueKindsError(f"unsupported value {value!r}")


def _ranked(values: list) -> list:
    """The ranks of a list of values of one kind (else MixedValueKindsError)."""
    # The kind of a value is the kind of its type: check one per type.
    sample = dict(zip(map(type, values), values))
    kinds = set(map(_value_kind, sample.values()))
    if len(kinds) > 1:
        raise MixedValueKindsError(f"mixed value kinds: {sorted(kinds)}")
    return list(map(_rank, values)) if "label" in kinds else values


class TotalPreorder:
    """Complete preorder induced by a value map (higher value, better)."""

    def __init__(self, values: Mapping[str, object]):
        self._ranks = dict(zip(values, _ranked([*values.values()])))

    def geq(self, a: str, b: str) -> bool:
        return self._ranks[a] >= self._ranks[b]

    def strictly_better(self, a: str, b: str) -> bool:
        return self._ranks[a] > self._ranks[b]

    def equivalent(self, a: str, b: str) -> bool:
        return self._ranks[a] == self._ranks[b]

    def ranking(self) -> list[list[str]]:
        """Tie groups, best first; names keep their insertion order."""
        groups: dict[object, list[str]] = {}
        for name, rank in self._ranks.items():
            groups.setdefault(rank, []).append(name)
        return [groups[r] for r in sorted(groups, reverse=True)]


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: object


@dataclass(frozen=True)
class ValidationReport:
    instance: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _default_samples(instance: LocalInstance):
    if isinstance(instance.v_max, str):
        pool = LABELS
    else:
        pool = (
            instance.v_min,
            instance.v_max,
            (instance.v_min + instance.v_max) / 2,
            (instance.v_min + 3 * instance.v_max) / 4,
        )
    return [t for r in range(4) for t in itertools.product(pool, repeat=r)]


def validate_instance(instance: LocalInstance, samples=None) -> ValidationReport:
    """Check the instance axioms on sample tuples and report violations.

    Covered: h on singletons and the empty tuple, permutation invariance,
    monotonicity, growth under appending, h >= max, g at the scale bounds,
    g non-increasing, and the alternating iterate chain of g up to depth 8.
    """
    samples = list(samples) if samples is not None else _default_samples(instance)
    violations: list[Violation] = []
    leq = instance.leq

    def check(axiom, condition, witness):
        if not condition:
            violations.append(Violation(axiom, witness))

    universe = sorted({x for t in samples for x in t} | {instance.v_min, instance.v_max},
                      key=_rank)
    for t in samples:
        if len(t) == 1:
            check("h(x) = x", instance.h(t) == t[0], t)
        if len(t) in (2, 3):
            base = instance.h(t)
            for perm in itertools.permutations(t):
                check("h is permutation-invariant", instance.h(perm) == base, (t, perm))
        if t:
            check("h(...) >= max(...)", leq(max(t, key=_rank), instance.h(t)), t)
        for i in range(len(t)):
            for replacement in universe:
                if leq(t[i], replacement):
                    bumped = t[:i] + (replacement,) + t[i + 1 :]
                    check("h is monotone", leq(instance.h(t), instance.h(bumped)),
                          (t, bumped))
        for extra in universe:
            check("h grows when a value is appended",
                  leq(instance.h(t), instance.h(t + (extra,))), (t, extra))
    check("h() is the bottom value", instance.h(()) == instance.v_min, ())
    check("g(bottom) is the top value", instance.g(instance.v_min) == instance.v_max, ())
    top_image = instance.g(instance.v_max)
    check("g(top) is below the top value",
          leq(top_image, instance.v_max) and top_image != instance.v_max, top_image)
    h_universe = sorted(set(universe) | set(map(instance.h, samples)), key=_rank)
    for x, y in itertools.combinations(h_universe, 2):
        check("g is non-increasing", leq(instance.g(y), instance.g(x)), (x, y))
    iterates = [instance.v_max]
    for _ in range(8):
        iterates.append(instance.g(iterates[-1]))
    odd = iterates[1::2]
    even = iterates[2::2]
    chain_ok = all(leq(odd[i], odd[i + 1]) for i in range(len(odd) - 1))
    chain_ok = chain_ok and all(leq(even[i + 1], even[i]) for i in range(len(even) - 1))
    chain_ok = chain_ok and leq(odd[-1], even[-1])
    chain_ok = chain_ok and leq(even[0], instance.v_max)
    check("alternating iterates of g form a chain", chain_ok, iterates)
    return ValidationReport(instance=instance.name, violations=tuple(violations))


@dataclass(frozen=True)
class ConditionStarOutcome:
    sample: tuple
    status: str  # "pass" | "fail" | "premise-not-met"
    combined: object = None


def check_condition_star(instance: LocalInstance, samples) -> list[ConditionStarOutcome]:
    """For each sample tuple: when every value satisfies g(x) >= x, does the
    combined value satisfy g(h(xs)) >= h(xs)?"""
    out = []
    for t in samples:
        t = tuple(t)
        if not all(instance.leq(x, instance.g(x)) for x in t):
            out.append(ConditionStarOutcome(t, "premise-not-met"))
            continue
        combined = instance.h(t)
        ok = instance.leq(combined, instance.g(combined))
        out.append(ConditionStarOutcome(t, "pass" if ok else "fail", combined))
    return out
