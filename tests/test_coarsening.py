"""Well-defendedness settled at depth 1 is the well-defendedness at any depth.

`well-defended`, `classify` and the scan compare tupled values unrolled
once, and unroll to `--depth` only when some verdict is left open.  That
rests on three facts, checked here with the evaluator and `compare`
alone: the counts do not depend on the depth, no horizon shrinks as the
depth grows, and a comparison exact at depth 1 has the same outcome at
every depth.  The sources are the exhaustive sweep, the seed-7 scan
stream, seeded random graphs of 3 to 30 arguments and the frozen
hand-built shapes, at depths 2 to 12.

The one comparator, `valuation_preference`, and the open sets of the one
verdict loop are checked against outcomes worked out here: `compare` for
tupled values, the order of numbers and of the labels - < ? < +, with
every comparison of floats inexact.
"""

import functools
import itertools

import pytest

from test_exhaustive import canonical_graphs
from test_frozen_tuples import HAND_BUILT, _hand_built

from gradarg import (
    ComparisonOutcome,
    TupledValue,
    Verdict,
    builtin_instances,
    compare,
    evaluate_cyclic,
    evaluate_local,
    random_attack_graph,
    scan_graph_stream,
    valuation_preference,
    well_defended,
)
from gradarg.acceptability import _defended, _verdicts

DEPTHS = range(2, 13)


@functools.cache  # several tests read it
def sweep():
    return [g for n in range(1, 5) for g in canonical_graphs(n)]


def stream():
    return list(itertools.islice(scan_graph_stream(7), 3000))


def seeded():
    return [random_attack_graph(seed, 3 + seed % 28, (0.08, 0.12, 0.2)[seed % 3])
            for seed in range(120)]


def hand_built():
    return [_hand_built(*shape) for shape in HAND_BUILT.values()]


def cut(t, horizon):
    """The runs of a tuple up to a horizon."""
    return tuple((length, count) for length, count in t.runs if length <= horizon)


def check_coarsening(g, depths):
    shallow = evaluate_cyclic(g, 1)
    # every ordered pair on the small graphs, the attacks on the larger ones
    pairs = (itertools.product(g.arguments, repeat=2) if len(g) <= 8
             else g.attacks)
    exact = [(b, a, outcome) for b, a in pairs
             if (outcome := compare(shallow[b], shallow[a])).exact]
    for depth in depths:
        deep = evaluate_cyclic(g, depth)
        for a in g.arguments:
            for short, long in ((shallow[a].even, deep[a].even),
                                (shallow[a].odd, deep[a].odd)):
                assert short.constant == long.constant, (g.attacks, a, depth)
                assert (short.horizon is None) == (long.horizon is None)
                if short.horizon is None:
                    assert short.runs == long.runs, (g.attacks, a, depth)
                else:
                    assert short.horizon <= long.horizon, (g.attacks, a, depth)
                    assert short.runs == cut(long, short.horizon), (g.attacks, a, depth)
        for b, a, outcome in exact:
            assert compare(deep[b], deep[a]) == outcome, (g.attacks, b, a, depth)
        assert named(g, _defended(g, None, depth)) == well_defended(g, deep), (g.attacks, depth)


@pytest.mark.parametrize("source", [sweep, stream, seeded, hand_built])
def test_depth_1_is_the_deeper_values_cut_at_their_horizons(source):
    graphs = source()
    cyclic = 0
    for k, g in enumerate(graphs):
        cyclic += not g.is_well_founded()
        # the thousands of small graphs take turns at the depths below 12
        check_coarsening(g, DEPTHS if len(graphs) <= 200 else {DEPTHS[k % 11], 12})
    assert cyclic


LABEL_RANK = {"-": 0, "?": 1, "+": 2}  # not ASCII order, where + < - < ?


def expected_outcome(values, a, b):
    """a's outcome against b: `compare` for tupled values, else the order
    of the numbers or label ranks, exact unless the values are floats."""
    x, y = values[a], values[b]
    if isinstance(x, TupledValue):
        return compare(x, y)
    if isinstance(x, str):
        x, y = LABEL_RANK[x], LABEL_RANK[y]
    verdict = (Verdict.FIRST_BETTER if x > y else Verdict.SECOND_BETTER if x < y
               else Verdict.EQUIVALENT)
    return ComparisonOutcome(verdict, not isinstance(values[a], float))


def value_maps(g, depths):
    """The tupled values at each depth, then each built-in local instance's."""
    return [*(evaluate_cyclic(g, depth) for depth in depths),
            *(evaluate_local(g, instance) for instance in builtin_instances().values())]


def named(g, verdicts, wanted=(1, 2)):
    """The arguments whose verdict, by declaration index, is among `wanted`:
    by default the well-defended ones, with (2,) the open ones."""
    return {a for a, verdict in zip(g.arguments, verdicts) if verdict in wanted}


def verdicts(g, values):
    """`_verdicts` of a value map, as (defended, open) sets of names."""
    found = _verdicts(g, [values[a] for a in g.arguments])
    return named(g, found), named(g, found, (2,))


def expected_verdicts(g, values):
    """(defended, open): out at a strictly better attacker other than the
    argument itself, open when in with an inexact comparison with one."""
    defended, open_ = set(), set()
    for a in g.arguments:
        outcomes = [expected_outcome(values, b, a) for b in g.attackers_of(a) if b != a]
        if not any(o.verdict is Verdict.FIRST_BETTER for o in outcomes):
            defended.add(a)
            if not all(o.exact for o in outcomes):
                open_.add(a)
    return defended, open_


def test_no_argument_is_compared_with_itself():
    # Skipping an argument's attack on itself moves no well-defended set:
    # no value is strictly better than itself.
    for g in sweep():
        for values in value_maps(g, [10]):
            assert well_defended(g, values) == {
                a for a in g.arguments
                if not any(expected_outcome(values, b, a).verdict is Verdict.FIRST_BETTER
                           for b in g.attackers_of(a))
            }, g.attacks


def test_valuation_preference_gives_each_pair_its_outcome():
    kinds = set()
    for g in sweep():
        for values in value_maps(g, [1, 10]):
            outcome = valuation_preference(values)
            for a, b in itertools.product(g.arguments, repeat=2):
                assert outcome(a, b) == outcome(b, a).mirrored(), (g.attacks, a, b)
                assert outcome(a, b) == expected_outcome(values, a, b), (g.attacks, a, b)
                kinds.add((type(values[a]).__name__, outcome(a, b).exact))
    assert kinds == {("TupledValue", True), ("TupledValue", False), ("Fraction", True),
                     ("str", True), ("float", False)}


@pytest.mark.parametrize("source", [sweep, stream])
def test_open_sets_are_the_defended_arguments_an_inexact_comparison_leaves(source):
    opened = {"exact": 0, "float": 0}
    for g in source():
        for values in value_maps(g, [1, 10]):
            defended, open_ = verdicts(g, values)
            assert defended == well_defended(g, values)
            assert (defended, open_) == expected_verdicts(g, values), g.attacks
            for a in open_:  # never open for an attack on itself
                assert any(b != a and not expected_outcome(values, b, a).exact
                           for b in g.attackers_of(a)), (g.attacks, a)
            if isinstance(values[g.arguments[0]], float):
                assert open_ == {a for a in defended if set(g.attackers_of(a)) - {a}}
                opened["float"] += bool(open_)
            else:
                assert not open_ or not g.is_well_founded(), g.attacks
                opened["exact"] += bool(open_)
    assert all(opened.values()), opened


def test_depth_1_leaves_a_tuple_verdict_open_on_1034_cyclic_stream_graphs():
    # Each of these sends `_defended` on to a second evaluation at --depth;
    # settling more verdicts at depth 1 shows as a smaller count.
    cyclic = [g for g in stream() if not g.is_well_founded()]
    opened = sum(bool(verdicts(g, evaluate_cyclic(g, 1))[1]) for g in cyclic)
    assert (len(cyclic), opened) == (1355, 1034)
