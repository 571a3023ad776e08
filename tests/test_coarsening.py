"""Well-defendedness settled at depth 1 is the well-defendedness at any depth.

`well-defended`, `classify` and the scan compare tupled values unrolled
once, and unroll to `--depth` only when some verdict is left open.  That
rests on three facts, checked here with the evaluator and `compare`
alone: the counts do not depend on the depth, no horizon shrinks as the
depth grows, and a comparison exact at depth 1 has the same outcome at
every depth.  The sources are the exhaustive sweep, the seed-7 scan
stream, seeded random graphs of 3 to 30 arguments and the frozen
hand-built shapes, at depths 2 to 12.
"""

import functools
import itertools

import pytest

from test_exhaustive import canonical_graphs
from test_frozen_tuples import HAND_BUILT, _hand_built

from gradarg import (
    builtin_instances,
    compare,
    evaluate_cyclic,
    evaluate_local,
    random_attack_graph,
    scan_graph_stream,
    valuation_preference,
    well_defended,
)
from gradarg.acceptability import _defended

DEPTHS = range(2, 13)


@functools.cache  # both tests read it
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
        assert _defended(g, None, depth) == well_defended(g, deep), (g.attacks, depth)


@pytest.mark.parametrize("source", [sweep, stream, seeded, hand_built])
def test_depth_1_is_the_deeper_values_cut_at_their_horizons(source):
    graphs = source()
    cyclic = 0
    for k, g in enumerate(graphs):
        cyclic += not g.is_well_founded()
        # the thousands of small graphs take turns at the depths below 12
        check_coarsening(g, DEPTHS if len(graphs) <= 200 else {DEPTHS[k % 11], 12})
    assert cyclic


def test_no_argument_is_compared_with_itself():
    # Skipping an argument's attack on itself moves no well-defended set:
    # no value is strictly better than itself.
    for g in sweep():
        maps = [evaluate_cyclic(g, 10), *(evaluate_local(g, instance)
                                          for instance in builtin_instances().values())]
        for values in maps:
            strictly_better = valuation_preference(values)
            assert well_defended(g, values) == {
                a for a in g.arguments
                if not any(strictly_better(b, a) for b in g.attackers_of(a))
            }, g.attacks
