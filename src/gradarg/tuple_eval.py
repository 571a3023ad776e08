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
  stored element of the union's external attackers (the first length in
  their count rows), t_j is the smallest truncated horizon among the
  external attackers of entry member j, and dist is the shortest walk
  inside the union; its parities reached by no walk stay exact and empty;
- outside unions, a parity's horizon is 1 + the smallest horizon of the
  attackers' opposite parity, and a parity with no truncated attacker
  stays exact.

One pass along the condensation takes the horizons of each strongly
connected component from its attackers' horizons and count rows, checks
them, then fills its counts.  Time and memory grow with horizon * attacks;
the pass stops at the first such component with a horizon that times the
number of attacks exceeds WORK_BOUND, before filling its counts.  Exact
parities have no horizon, and their runs grow with the graph alone: the
pass stops once the exact parities it has filled take more than
EXACT_BITS_BOUND bits, counting each run's count bits and a fixed charge
per run, and the count bits of the cycle unions' rows.
An argument's counts are kept as the pair (even runs, odd runs) of
ascending (length, count) runs, the very tuples its value holds.  A
singleton fills each parity from its attackers' runs of the other parity;
a cycle union fills rows indexed by length, and each member's runs of a
parity are a stride-2 slice of its row, paired with lengths that all the
union's members share.
"""

from __future__ import annotations

import operator
from itertools import compress

from .framework import AttackGraph, BoundError
from .tuples import LEAF_VALUE, GradTuple, TupledValue

__all__ = [
    "EXACT_BITS_BOUND",
    "WORK_BOUND",
    "CyclicGraphError",
    "EvaluationBoundError",
    "evaluate_acyclic",
    "evaluate_cyclic",
]

# Largest horizon times the number of attacks that evaluation accepts: a
# few seconds and a few hundred MB of walk counts at most.
WORK_BOUND = 2_000_000

# Largest total size, in bits, of the exact numbers one evaluation makes:
# about 128 MiB of integers.  Local evaluation counts the numerators and
# denominators of its Fractions, tuple evaluation its counts.  A
# 25,000-chain's categoriser values take 433,902,861 bits.
EXACT_BITS_BOUND = 2**30

# Bits charged against EXACT_BITS_BOUND for each run an exact parity keeps,
# on top of its count's bit length.  A run of count 1 takes one bit but
# about 100 bytes: without the charge a comb (a chain with a fresh leaf
# attacking each link) makes about n**2 / 2 such runs and runs out of
# memory well inside the bound.  With it, a comb of 8,000 teeth stops at
# about 290 MB peak, while a 2,000-argument skip chain (1,000,999 runs,
# 661,938,543 count bits) still fits, with up to 411 bits a run to spare.
_RUN_BITS = 384


class CyclicGraphError(ValueError):
    """evaluate_acyclic was handed a graph with a cycle."""


class EvaluationBoundError(ValueError, BoundError):
    """The horizons are too long to evaluate within WORK_BOUND, or the
    exact values too large for EXACT_BITS_BOUND."""


def _exact_bound_error() -> EvaluationBoundError:
    return EvaluationBoundError(
        f"exact values exceed the evaluation bound of {EXACT_BITS_BOUND} bits")


def evaluate_acyclic(g: AttackGraph) -> dict[str, TupledValue]:
    """Exact tupled values; every component is a finite multiset except the
    all-zero tuple on unattacked arguments.  Raises CyclicGraphError at the
    first cycle union, in dependency order, and EvaluationBoundError once
    the exact parities take more than EXACT_BITS_BOUND bits."""
    return _walk_values(g, None)


def evaluate_cyclic(g: AttackGraph, depth: int = 10) -> dict[str, TupledValue]:
    """Tupled values for arbitrary graphs, each cycle union unrolled
    `depth` times (an integer, or TypeError, and at least 1, or ValueError).

    Components known to be infinite come back as truncated tuples whose
    certified horizon is derived from the unroll depth; everything
    untouched by a cycle stays exact.  Raises EvaluationBoundError once the
    exact parities filled take more than EXACT_BITS_BOUND bits, and at the
    first strongly connected component, in dependency order, whose horizon
    times the number of attacks exceeds WORK_BOUND, before its counts.
    """
    depth = operator.index(depth)
    if depth < 1:
        raise ValueError(f"propagation depth must be at least 1, got {depth}")
    if g.is_well_founded():
        return evaluate_acyclic(g)
    return _walk_values(g, depth)


def _walk_values(g: AttackGraph, depth: int | None) -> dict[str, TupledValue]:
    """One pass along the condensation's flat order (an argument outside
    every cycle union by its index, cycle union k by ~k): each strongly
    connected component takes its horizons from its attackers' horizons
    and count rows, checks them against WORK_BOUND, then fills
    count[x][L], each parity cut at its own horizon (None marks an exact
    parity) and kept as its own runs.
    The runs of exact parities, their count bits and a fixed charge each,
    are held to EXACT_BITS_BOUND.  Each cycle union is unrolled `depth`
    times; with no depth, the first one raises CyclicGraphError before it
    is filled."""
    names, attackers_of = g.arguments, g._attackers
    attacks = sum(map(len, attackers_of))
    # (even, odd) runs, horizons and values, by declaration index
    counts: list = [None] * len(names)
    horizon: list = [None] * len(names)
    values: list = [None] * len(names)
    made = 0  # bits of the exact parities' counts and union rows so far
    order, unions = g._components()
    for x in order:
        if x >= 0:
            attackers = attackers_of[x]
            if not attackers:
                counts[x], horizon[x] = (((0, 1),), ()), (None, None)
                values[x] = LEAF_VALUE
                continue
            cut = horizon[x] = (
                _after(horizon[b][1] for b in attackers),
                _after(horizon[b][0] for b in attackers),
            )
            _check_bound(attacks, cut)
            runs = []
            for p, h in enumerate(cut):
                row: dict[int, int] = {}
                for b in attackers:
                    for length, c in counts[b][1 - p]:
                        if h is not None and length >= h:
                            break
                        row[length + 1] = row.get(length + 1, 0) + c
                if h is None:
                    made += _RUN_BITS * len(row) + sum(map(int.bit_length, row.values()))
                    if made > EXACT_BITS_BOUND:
                        raise _exact_bound_error()
                runs.append(tuple(sorted(row.items())))
            counts[x] = tuple(runs)
            values[x] = _tupled(counts[x], cut)
            continue
        if depth is None:
            raise CyclicGraphError("graph contains a cycle; use evaluate_cyclic")
        made = _walk_union(g, unions[~x], depth, attacks, counts, horizon, values, made)
    return dict(zip(names, values))


def _walk_union(g: AttackGraph, comp, depth, attacks, counts, horizon, values, made) -> int:
    """Set the counts, horizons and values of one cycle union's members,
    unrolled `depth` times, from rows indexed by walk length, and return
    the bits charged, `made` plus the rows' counts, held to EXACT_BITS_BOUND
    at each length.  Each member's runs of a parity pair a stride-2 slice
    of its row with one list of lengths that all the members share; the
    rows end with the call, before the next component fills."""
    attackers_of = g._attackers
    members = set(comp)
    cap = depth * len(comp)
    entries = [
        (j, [b for b in attackers_of[j] if b not in members]) for j in comp
    ]
    entries = [(j, outside) for (j, outside) in entries if outside]
    if entries:
        _entered_horizons(g, comp, entries, cap, counts, horizon)
    else:
        for m in comp:
            horizon[m] = (cap, cap)
    top = _check_bound(attacks, (h for m in comp for h in horizon[m]))
    rows = {m: [0] * (top + 1) for m in comp}
    inside = []
    for m in comp:
        row = rows[m]
        row[0] = 0 if entries else 1  # unattacked members start rooted walks
        within = []
        for b in attackers_of[m]:
            if b in members:
                within.append(rows[b])
                continue
            for runs in counts[b]:
                for length, c in runs:
                    if length >= top:
                        break
                    row[length + 1] += c
        inside.append((row, within))
    for length in range(1, top + 1):
        before = length - 1
        for row, within in inside:
            total = row[length]
            for r in within:
                total += r[before]
            row[length] = total
            made += total.bit_length()
        if made > EXACT_BITS_BOUND:
            raise EvaluationBoundError(
                f"cycle union counts exceed the evaluation bound of {EXACT_BITS_BOUND} bits")
    lengths = list(range(top + 1))  # one int per length, shared by the members' runs
    for m in comp:
        row = rows[m]
        end = max(h for h in horizon[m] if h is not None)
        even, odd = row[2:end + 1:2], row[1:end + 1:2]
        counts[m] = (tuple(compress(zip(lengths[2:end + 1:2], even), even)),
                     tuple(compress(zip(lengths[1:end + 1:2], odd), odd)))
        values[m] = _tupled(counts[m], horizon[m])
    return made


def _entered_horizons(g: AttackGraph, comp, entries, cap, counts, horizon):
    """Horizons of an attacked union's members, from the horizons and
    count rows of the external attackers of each entry member."""
    members = set(comp)
    smallest = []  # m: smallest stored element of an external attacker
    distance_seeds = []  # t_j + 1 at entry j; the union's bound at every member
    parity_seeds = []  # entry j reached at the parity of one more step
    for (j, outside) in entries:
        truncated = []
        for b in outside:
            for p in (0, 1):
                runs, h = counts[b][p], horizon[b][p]
                if runs:
                    smallest.append(runs[0][0])
                if h is not None:
                    truncated.append(h)
                # an exact parity's runs list all of its walks
                if h is not None or runs:
                    parity_seeds.append((0, j, 1 - p))
        if truncated:
            distance_seeds.append((min(truncated) + 1, j, 0))
    if smallest:
        distance_seeds += [(min(smallest) + 1 + cap, i, 0) for i in comp]
    reached = g._shortest_walks(parity_seeds, (1, 0), g._targets, members)
    relayed = g._shortest_walks(distance_seeds, (0,), g._targets, members)
    for i in comp:
        h = relayed[(i, 0)]
        horizon[i] = tuple(h if (i, q) in reached else None for q in (0, 1))


def _after(horizons) -> int | None:
    """One step past the nearest of some horizons; None when all are exact."""
    known = [h for h in horizons if h is not None]
    return 1 + min(known) if known else None


def _check_bound(attacks: int, horizons) -> int:
    """The largest of some horizons (0 when all are exact), once its
    product with the graph's number of attacks is known to fit WORK_BOUND."""
    longest = max((h for h in horizons if h is not None), default=0)
    if longest * attacks > WORK_BOUND:
        raise EvaluationBoundError(
            f"tuple horizon {longest} over {attacks} attacks "
            f"exceeds the evaluation bound of {WORK_BOUND}"
        )
    return longest


def _tupled(runs, horizons) -> TupledValue:
    """The value of (even, odd) runs cut at their horizons, which it shares."""
    (even, odd), (even_cut, odd_cut) = runs, horizons
    return TupledValue(
        even=GradTuple(runs=even, horizon=even_cut),
        odd=GradTuple(runs=odd, horizon=odd_cut),
    )
