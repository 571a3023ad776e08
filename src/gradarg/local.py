"""Local gradual valuation: pluggable (order, g, h) instances.

An instance fixes an ordered value scale with a top and bottom, a
non-increasing function g turning the combined force of the direct
attackers into the attacked argument's value, and a combination function h
folding attacker values together.  Unattacked arguments take the top
value; everything else follows v(A) = g(h(values of direct attackers)).

Acyclic graphs are evaluated exactly (rational arithmetic for rational
instances).  Graphs with cycles run a simultaneous fixpoint iteration over
each cycle union, except for the rooted three-label instance which uses a
dedicated propagation that settles unresolved cycle members at the middle
label.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .framework import AttackGraph

__all__ = [
    "ConditionStarOutcome",
    "ConvergenceError",
    "FixpointConfig",
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
    "induced_preorder",
    "max_based",
    "rooted_labelling",
    "validate_instance",
]

LABELS = ("-", "?", "+")
_LABEL_RANK = {"-": 0, "?": 1, "+": 2}


class ConvergenceError(ArithmeticError):
    """Fixpoint iteration failed to settle within the iteration budget."""


class UndecidableError(ValueError):
    """A label instance met a cyclic configuration it cannot decide."""


class MixedValueKindsError(TypeError):
    """Values of different kinds cannot be ranked together."""


@dataclass(frozen=True)
class LocalInstance:
    """One concrete (scale, g, h) choice.

    kind: "rational" (exact arithmetic on acyclic graphs, floats on cyclic
    ones), "float", or "label" (the three-label scale - < ? < +).
    """

    name: str
    kind: str
    v_min: object
    v_max: object
    g: Callable
    h: Callable

    def rank(self, value):
        """Numeric stand-in used for ordering comparisons."""
        if self.kind == "label":
            return _LABEL_RANK[value]
        return value

    def leq(self, a, b) -> bool:
        return self.rank(a) <= self.rank(b)


def _label_h(values):
    if not values:
        return "-"
    return max(values, key=_LABEL_RANK.get)


def _label_g(value):
    # The top label maps to the bottom one so the recurrence is total; on
    # acyclic graphs only the two extreme labels ever occur, alternating
    # along each branch.
    return {"-": "+", "?": "?", "+": "-"}[value]


def categoriser() -> LocalInstance:
    """Sum-combined instance over [0, 1] with g(x) = 1 / (1 + x)."""
    return LocalInstance(
        name="categoriser",
        kind="rational",
        v_min=Fraction(0),
        v_max=Fraction(1),
        g=lambda x: 1 / (1 + (x if isinstance(x, float) else Fraction(x))),
        h=lambda values: sum(values, Fraction(0))
        if not any(isinstance(v, float) for v in values)
        else float(sum(values)),
    )


def rooted_labelling() -> LocalInstance:
    """Three-label instance: unattacked arguments get +, an argument with a
    + attacker gets -, and cycle members that nothing settles get ?."""
    return LocalInstance(
        name="rooted_labelling",
        kind="label",
        v_min="-",
        v_max="+",
        g=_label_g,
        h=_label_h,
    )


def max_based(g: Callable | None = None, name: str = "max_based") -> LocalInstance:
    """Instance family combining attackers with max; only the strongest
    direct attacker matters."""
    if g is None:
        g = lambda x: 1 / (1 + (x if isinstance(x, float) else Fraction(x)))
    return LocalInstance(
        name=name,
        kind="rational",
        v_min=Fraction(0),
        v_max=Fraction(1),
        g=g,
        h=lambda values: max(values, default=Fraction(0)),
    )


def builtin_instances() -> dict[str, LocalInstance]:
    return {
        "categoriser": categoriser(),
        "rooted_labelling": rooted_labelling(),
        "max_based": max_based(),
    }


@dataclass(frozen=True)
class FixpointConfig:
    tolerance: float = 1e-12
    max_iterations: int = 1_000_000


def evaluate_local(
    g: AttackGraph, instance: LocalInstance, config: FixpointConfig | None = None
) -> dict[str, object]:
    """Value of every argument under the instance.

    Acyclic graphs evaluate exactly in reverse attack order.  Cyclic graphs
    run per-cycle-union fixpoint iteration from the all-top start (floats
    for numeric instances); the rooted label instance uses its dedicated
    propagation instead.
    """
    config = config or FixpointConfig()
    if g.is_well_founded():
        values: dict[str, object] = {}
        for name in g.topological_order():
            attackers = g.attackers_of(name)
            if not attackers:
                values[name] = instance.v_max
            else:
                values[name] = instance.g(
                    instance.h(tuple(values[b] for b in attackers))
                )
        return values
    if instance.kind == "label":
        if not _is_rooted_style(instance):
            raise UndecidableError(
                f"label instance {instance.name!r} cannot decide cyclic graphs"
            )
        return _evaluate_rooted_cyclic(g)
    return _evaluate_float_cyclic(g, instance, config)


def _is_rooted_style(instance: LocalInstance) -> bool:
    try:
        g_ok = (
            instance.g("-") == "+"
            and instance.g("?") == "?"
            and instance.g("+") == "-"
        )
        h_ok = all(
            instance.h(t) == _label_h(t)
            for r in range(3)
            for t in itertools.product(LABELS, repeat=r)
        )
    except Exception:
        return False
    return g_ok and h_ok


def _evaluate_rooted_cyclic(g: AttackGraph) -> dict[str, str]:
    values: dict[str, str] = {}
    for members in g.condensation():
        if not g.is_cyclic(members):
            attackers = g.attackers_of(members[0])
            values[members[0]] = (
                "+" if not attackers else _label_g(_label_h([values[b] for b in attackers]))
            )
            continue
        unresolved = set(members)
        # Propagate forced labels to a fixpoint: a + attacker forces -, and
        # all-known all-minus attackers force +; some known ? with no +
        # forces ?.  Whatever stays unforced settles at ?.
        changed = True
        while changed and unresolved:
            changed = False
            for m in members:
                if m not in unresolved:
                    continue
                attacker_labels = [values.get(b) for b in g.attackers_of(m)]
                if any(lab == "+" for lab in attacker_labels):
                    values[m] = "-"
                elif all(lab is not None for lab in attacker_labels):
                    values[m] = _label_g(_label_h(attacker_labels))
                else:
                    continue
                unresolved.discard(m)
                changed = True
        for m in unresolved:
            values[m] = "?"
    return values


def _evaluate_float_cyclic(
    g: AttackGraph, instance: LocalInstance, config: FixpointConfig
) -> dict[str, float]:
    top = float(instance.v_max)
    values: dict[str, float] = {}

    def recompute(name):
        attackers = g.attackers_of(name)
        if not attackers:
            return top
        return float(instance.g(instance.h(tuple(values[b] for b in attackers))))

    for members in g.condensation():
        if not g.is_cyclic(members):
            values[members[0]] = recompute(members[0])
            continue
        for m in members:
            values[m] = top
        for _ in range(config.max_iterations):
            nxt = {m: recompute(m) for m in members}
            residual = max(abs(nxt[m] - values[m]) for m in members)
            values.update(nxt)
            if residual < config.tolerance:
                break
        else:
            raise ConvergenceError(
                f"no fixpoint within {config.max_iterations} iterations"
            )
    return values


# -- ordering and diagnostics --------------------------------------------------

_KIND_OF = {Fraction: "number", int: "number", float: "float", str: "label"}


def _value_kind(value) -> str:
    for klass, kind in _KIND_OF.items():
        if isinstance(value, klass) and not isinstance(value, bool):
            return kind
    raise MixedValueKindsError(f"unsupported value {value!r}")


class TotalPreorder:
    """Complete preorder induced by a value map (higher value, better)."""

    def __init__(self, values: dict[str, object]):
        kinds = {_value_kind(v) for v in values.values()}
        if len(kinds) > 1:
            raise MixedValueKindsError(f"mixed value kinds: {sorted(kinds)}")
        self._values = dict(values)
        self._label = kinds == {"label"}

    def _rank(self, name):
        v = self._values[name]
        return _LABEL_RANK[v] if self._label else v

    def geq(self, a: str, b: str) -> bool:
        return self._rank(a) >= self._rank(b)

    def strictly_better(self, a: str, b: str) -> bool:
        return self._rank(a) > self._rank(b)

    def equivalent(self, a: str, b: str) -> bool:
        return self._rank(a) == self._rank(b)

    def ranking(self) -> list[list[str]]:
        """Tie groups, best first; names keep their insertion order."""
        groups: dict[object, list[str]] = {}
        for name in self._values:
            groups.setdefault(self._rank(name), []).append(name)
        return [groups[r] for r in sorted(groups, reverse=True)]


def induced_preorder(values: dict[str, object]) -> TotalPreorder:
    return TotalPreorder(values)


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
    if instance.kind == "label":
        pool = LABELS
    else:
        pool = (
            instance.v_min,
            instance.v_max,
            (instance.v_min + instance.v_max) / 2,
            (instance.v_min + 3 * instance.v_max) / 4,
        )
    samples = [()]
    samples += [(x,) for x in pool]
    samples += [t for t in itertools.product(pool, repeat=2)]
    samples += [t for t in itertools.product(pool, repeat=3)]
    return samples


def validate_instance(
    instance: LocalInstance, samples=None
) -> ValidationReport:
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

    universe = sorted(
        {x for t in samples for x in t} | {instance.v_min, instance.v_max},
        key=instance.rank,
    )
    for t in samples:
        if len(t) == 1:
            check("h(x) = x", instance.h(t) == t[0], t)
        if len(t) in (2, 3):
            base = instance.h(t)
            for perm in itertools.permutations(t):
                check("h is permutation-invariant", instance.h(perm) == base, (t, perm))
        if t:
            check("h(...) >= max(...)", leq(max(t, key=instance.rank), instance.h(t)), t)
        for i in range(len(t)):
            for replacement in universe:
                if leq(t[i], replacement):
                    bumped = t[:i] + (replacement,) + t[i + 1 :]
                    check(
                        "h is monotone",
                        leq(instance.h(t), instance.h(bumped)),
                        (t, bumped),
                    )
        for extra in universe:
            check(
                "h grows when a value is appended",
                leq(instance.h(t), instance.h(t + (extra,))),
                (t, extra),
            )
    check("h() is the bottom value", instance.h(()) == instance.v_min, ())
    check("g(bottom) is the top value", instance.g(instance.v_min) == instance.v_max, ())
    top_image = instance.g(instance.v_max)
    check(
        "g(top) is below the top value",
        leq(top_image, instance.v_max) and top_image != instance.v_max,
        top_image,
    )
    h_universe = sorted(
        set(universe) | {instance.h(t) for t in samples}, key=instance.rank
    )
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
        out.append(
            ConditionStarOutcome(t, "pass" if ok else "fail", combined)
        )
    return out
