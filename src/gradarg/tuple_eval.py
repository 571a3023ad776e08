"""Tupled valuation of attack graphs.

An argument's value is the pair of sorted multisets of its defence
(even-length) and attack (odd-length) branch lengths, where a branch is a
leaf-to-argument path.  Cycles stand for infinitely many branches: a
branch becomes a rooted walk, which starts at a leaf, or inside an
unattacked cycle union (a non-trivial strongly connected component), and
may then follow any attack edge.  The number of rooted walks of length L
ending at x obeys one recurrence, count[x][L] = sum over attackers b of
count[b][L-1], filled along the condensation of the graph.

Every component that a cycle makes infinite is cut at a certified
horizon: the stored prefix lists every element up to it.  With
cap = depth * |union|:

- an unattacked union has horizon cap in both parities;
- an attacked member i has horizon
  min(m + 1 + cap, min_j(t_j + 1 + dist(j, i))), where m is the smallest
  element of any non-empty component of the union's external attackers,
  t_j is the smallest truncated horizon among the external attackers of
  entry member j, and dist is the shortest walk inside the union; its
  parities reached by no walk stay exact and empty;
- outside unions, a parity's horizon is 1 + the smallest horizon of the
  attackers' opposite parity, and a parity with no truncated attacker
  stays exact.

Time and memory grow with horizon * attacks; inputs whose largest horizon
times the number of attacks exceeds WORK_BOUND fail fast.
"""

from __future__ import annotations

from dataclasses import dataclass

from .framework import AttackGraph
from .tuples import LEAF_VALUE, GradTuple, TupledValue

__all__ = [
    "WORK_BOUND",
    "CyclicGraphError",
    "DepthError",
    "EvaluationBoundError",
    "PropagationDepth",
    "evaluate_acyclic",
    "evaluate_cyclic",
]

# Largest horizon times the number of attacks that evaluation accepts: a
# few seconds and a few hundred MB of walk counts at most.
WORK_BOUND = 2_000_000


class CyclicGraphError(ValueError):
    """evaluate_acyclic was handed a graph with a cycle."""


class DepthError(ValueError):
    """Invalid propagation depth."""


class EvaluationBoundError(ValueError):
    """The horizons are too long to evaluate within WORK_BOUND."""


@dataclass(frozen=True)
class PropagationDepth:
    """How many runs through each cycle union the valuation unrolls."""

    runs: int = 10

    def __post_init__(self):
        if self.runs < 1:
            raise DepthError("propagation depth must be at least 1")


def evaluate_acyclic(g: AttackGraph) -> dict[str, TupledValue]:
    """Exact tupled values; every component is a finite multiset except the
    all-zero tuple on unattacked arguments."""
    order = g.condensation()
    if any(g.is_cyclic(comp) for comp in order):
        raise CyclicGraphError("graph contains a cycle; use evaluate_cyclic")
    return _walk_values(g, order, {a: (None, None) for a in g.arguments})


def evaluate_cyclic(
    g: AttackGraph, depth: PropagationDepth = PropagationDepth()
) -> dict[str, TupledValue]:
    """Tupled values for arbitrary graphs.

    Components known to be infinite come back as truncated tuples whose
    certified horizon is derived from the unroll depth; everything
    untouched by a cycle stays exact.  Raises EvaluationBoundError, before
    counting anything, when the largest horizon times the number of
    attacks exceeds WORK_BOUND.
    """
    order = g.condensation()
    if not any(g.is_cyclic(comp) for comp in order):
        return evaluate_acyclic(g)
    horizons = _horizons(g, order, depth)
    longest = max(h for pair in horizons.values() for h in pair if h is not None)
    if longest * len(g.attacks) > WORK_BOUND:
        raise EvaluationBoundError(
            f"tuple horizons up to {longest} over {len(g.attacks)} attacks "
            f"exceed the evaluation bound of {WORK_BOUND}"
        )
    return _walk_values(g, order, horizons)


def _after(horizons) -> int | None:
    """One step past the nearest of some horizons; None when all are exact."""
    known = [h for h in horizons if h is not None]
    return 1 + min(known) if known else None


def _horizons(g: AttackGraph, order, depth: PropagationDepth):
    """(even, odd) horizon of every argument; None marks an exact parity."""
    horizon: dict[str, tuple] = {}
    shortest = None
    for comp in order:
        if not g.is_cyclic(comp):
            attackers = g.attackers_of(comp[0])
            horizon[comp[0]] = (
                _after(horizon[b][1] for b in attackers),
                _after(horizon[b][0] for b in attackers),
            )
            continue
        members = set(comp)
        cap = depth.runs * len(comp)
        entries = [
            (j, [b for b in g.attackers_of(j) if b not in members]) for j in comp
        ]
        entries = [(j, outside) for (j, outside) in entries if outside]
        if not entries:
            for m in comp:
                horizon[m] = (cap, cap)
            continue
        if shortest is None:
            shortest = g.shortest_walks(_roots(g, order))
        smallest = []  # m: smallest stored element of an external attacker
        distance_seeds = []  # t_j + 1 at entry j
        parity_seeds = []  # entry j reached at the parity of one more step
        for (j, outside) in entries:
            truncated = []
            for b in outside:
                for p in (0, 1):
                    h = horizon[b][p]
                    low = shortest.get((b, p))
                    if low is not None and (h is None or low <= h):
                        smallest.append(low)
                    if h is not None:
                        truncated.append(h)
                    if h is not None or low is not None:
                        parity_seeds.append((0, j, 1 - p))
            if truncated:
                distance_seeds.append((min(truncated) + 1, j, 0))
        reached = g.shortest_walks(parity_seeds, within=members)
        relayed = g.shortest_walks(distance_seeds, step=(0,), within=members)
        bound = min(smallest) + 1 + cap if smallest else None
        for i in comp:
            h = min(x for x in (bound, relayed.get((i, 0))) if x is not None)
            horizon[i] = tuple(h if (i, q) in reached else None for q in (0, 1))
    return horizon


def _roots(g: AttackGraph, order):
    """Shortest-walk seeds: leaves at length 0, and each member of an
    unattacked union at length 1, its first step inside the union."""
    seeds = []
    for comp in order:
        if not g.is_cyclic(comp):
            if not g.attackers_of(comp[0]):
                seeds.append((0, comp[0], 0))
            continue
        members = set(comp)
        if all(b in members for m in comp for b in g.attackers_of(m)):
            seeds.extend((1, m, 1) for m in comp)
    return seeds


def _walk_values(g: AttackGraph, order, horizon) -> dict[str, TupledValue]:
    """Fill count[x][L] along the condensation, each union up to its
    largest horizon, and cut every parity at its own horizon."""
    counts: dict[str, dict[int, int]] = {}
    values: dict[str, TupledValue] = {}
    for comp in order:
        if not g.is_cyclic(comp):
            x = comp[0]
            attackers = g.attackers_of(x)
            if not attackers:
                counts[x] = {0: 1}
                values[x] = LEAF_VALUE
                continue
            row: dict[int, int] = {}
            for b in attackers:
                for length, c in counts[b].items():
                    row[length + 1] = row.get(length + 1, 0) + c
            counts[x] = _cut(row, horizon[x])
            values[x] = _value(counts[x], horizon[x])
            continue
        members = set(comp)
        top = max(h for m in comp for h in horizon[m] if h is not None)
        rows = {m: [0] * (top + 1) for m in comp}
        inside = []
        attacked = False
        for m in comp:
            row = rows[m]
            within = []
            for b in g.attackers_of(m):
                if b in members:
                    within.append(rows[b])
                    continue
                attacked = True
                for length, c in counts[b].items():
                    if length < top:
                        row[length + 1] += c
            inside.append((row, within))
        if not attacked:
            for row, _ in inside:
                row[0] = 1  # each member starts rooted walks
        for length in range(1, top + 1):
            for row, within in inside:
                total = row[length]
                for r in within:
                    total += r[length - 1]
                row[length] = total
        for m in comp:
            row = rows[m]
            end = max(h for h in horizon[m] if h is not None)
            counts[m] = {length: row[length] for length in range(1, end + 1) if row[length]}
            values[m] = _value(counts[m], horizon[m])
    return values


def _cut(row: dict[int, int], horizons) -> dict[int, int]:
    """Drop the counts beyond their parity's horizon."""
    if horizons == (None, None):
        return row
    return {
        length: c
        for length, c in row.items()
        if horizons[length % 2] is None or length <= horizons[length % 2]
    }


def _value(row: dict[int, int], horizons) -> TupledValue:
    ordered = sorted(row.items())
    even, odd = horizons
    return TupledValue(
        even=GradTuple(runs=tuple([run for run in ordered if not run[0] % 2]),
                       infinite=even is not None, horizon=even),
        odd=GradTuple(runs=tuple([run for run in ordered if run[0] % 2]),
                      infinite=odd is not None, horizon=odd),
    )
