import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradarg.tuples import (
    EMPTY,
    LEAF_VALUE,
    MIN_VALUE,
    ONE_INF,
    ZERO_INF,
    ComparisonOutcome,
    GradTuple,
    LexOutcome,
    TupleFormatError,
    TupledValue,
    Verdict,
    cardinality,
    compare,
    concat,
    concat_all,
    lex_compare,
    parse_tuple_literal,
    shift,
)


def elems(*values):
    return GradTuple.from_elements(values)


class TestAlgebra:
    def test_shift_rules(self):
        assert shift(ZERO_INF, 1) == elems(1)
        assert shift(EMPTY, 5) == EMPTY
        assert shift(elems(1, 3), 1) == elems(2, 4)
        assert shift(GradTuple.truncated({1: 1, 3: 1}, horizon=5), 2) == \
            GradTuple.truncated({3: 1, 5: 1}, horizon=7)
        assert shift(ONE_INF, 2) == GradTuple(constant=3)

    def test_concat_rules(self):
        assert concat(ZERO_INF, elems(1, 3)) == elems(1, 3)
        assert concat(ZERO_INF, EMPTY) == ZERO_INF
        assert concat(elems(3), elems(3)) == elems(3, 3)
        assert concat(elems(1, 3), elems(2)) == elems(1, 2, 3)
        assert concat(EMPTY, elems(7)) == elems(7)

    def test_concat_keeps_weakest_horizon(self):
        a = GradTuple.truncated({2: 1}, horizon=9)
        b = GradTuple.truncated({4: 1}, horizon=5)
        merged = concat(a, b)
        assert merged.horizon == 5
        assert merged.runs == ((2, 1), (4, 1))

    def test_concat_all(self):
        assert concat_all([]) == EMPTY
        assert concat_all([ZERO_INF, elems(2), elems(2, 4)]) == elems(2, 2, 4)

    def test_constant_tuples_resist_concat(self):
        with pytest.raises(TupleFormatError):
            concat(ONE_INF, elems(1))

    def test_negative_shift_rejected(self):
        with pytest.raises(TupleFormatError):
            shift(elems(1), -1)

    def test_cardinality(self):
        assert cardinality(EMPTY) == 0
        assert cardinality(elems(1, 3, 3)) == 3
        assert cardinality(ZERO_INF) == math.inf
        assert cardinality(GradTuple.truncated({2: 2}, horizon=9)) == math.inf


def random_tuple(rng, *, allow_constants=True):
    shape = rng.randrange(6 if allow_constants else 4)
    if shape == 4:
        return ZERO_INF
    if shape == 5:
        return ONE_INF
    values = [rng.randrange(7) for _ in range(rng.randrange(4))]
    if shape == 3 and values:
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        return GradTuple.truncated(counts, horizon=max(values) + rng.randrange(3))
    return GradTuple.from_elements(values)


class TestAlgebraLaws:
    """Bulk checks of the combinator laws over a large seeded sample."""

    def test_laws_hold_in_bulk(self):
        rng = random.Random(20240)
        for trial in range(10_000):
            a = random_tuple(rng, allow_constants=True)
            b = random_tuple(rng, allow_constants=True)
            c = random_tuple(rng, allow_constants=True)
            k1, k2 = rng.randrange(4), rng.randrange(4)

            # shifting composes additively, for every tuple shape
            assert shift(shift(a, k1), k2) == shift(a, k1 + k2), trial

            mergeable = [t for t in (a, b, c)
                         if t.constant is None or t.constant == 0]
            if len(mergeable) >= 2:
                x, y = mergeable[0], mergeable[1]
                assert concat(x, y) == concat(y, x), trial
            if len(mergeable) == 3:
                x, y, z = mergeable
                assert concat(concat(x, y), z) == concat(x, concat(y, z)), trial
                # shift distributes over union unless a zero-constant
                # operand would collapse (its infinitely many zero
                # elements all become the single value k1)
                if x.constant is None and y.constant is None:
                    assert shift(concat(x, y), k1) == \
                        concat(shift(x, k1), shift(y, k1)), trial

    def test_distribution_fails_on_zero_constant(self):
        # the documented exception: a zero-constant operand collapses
        # under shift, so the two sides genuinely differ
        left = shift(concat(ZERO_INF, elems(3)), 2)
        right = concat(shift(ZERO_INF, 2), shift(elems(3), 2))
        assert left == elems(5)
        assert right == elems(2, 5)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=5),
           st.lists(st.integers(min_value=0, max_value=9), max_size=5))
    def test_concat_is_multiset_union(self, xs, ys):
        merged = concat(GradTuple.from_elements(xs), GradTuple.from_elements(ys))
        assert merged.elements() == tuple(sorted(xs + ys))

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=5),
           st.integers(min_value=0, max_value=9))
    def test_shift_adds_to_every_element(self, xs, k):
        shifted = shift(GradTuple.from_elements(xs), k)
        assert shifted.elements() == tuple(sorted(x + k for x in xs))


class TestLexOrder:
    def test_strictly_decreasing_chain(self):
        chain = [elems(0), elems(0, 0), elems(0, 0, 0), ZERO_INF, elems(0, 1)]
        for smaller, larger in zip(chain, chain[1:]):
            assert lex_compare(smaller, larger) is LexOutcome.LESS
            assert lex_compare(larger, smaller) is LexOutcome.GREATER

    def test_running_out_of_elements_means_less(self):
        assert lex_compare(EMPTY, elems(1)) is LexOutcome.LESS
        assert lex_compare(elems(2), elems(2, 4)) is LexOutcome.LESS

    def test_equality(self):
        assert lex_compare(elems(2, 4), elems(2, 4)) is LexOutcome.EQUAL
        assert lex_compare(EMPTY, EMPTY) is LexOutcome.EQUAL
        assert lex_compare(ONE_INF, ONE_INF) is LexOutcome.EQUAL
        assert lex_compare(ZERO_INF, ONE_INF) is LexOutcome.LESS

    def test_truncated_comparisons_use_the_horizon(self):
        unknown = GradTuple.truncated({5: 1, 6: 1, 7: 1}, horizon=7)
        # a certain element below the horizon still decides the race
        assert lex_compare(elems(5, 6), unknown) is LexOutcome.LESS
        # a certain element above the horizon could be overtaken by
        # uncertified content, so no verdict is possible
        assert lex_compare(GradTuple.from_elements([5, 9]),
                           GradTuple.truncated({5: 1}, horizon=7)) is LexOutcome.UNKNOWN

    def test_both_sides_uncertain(self):
        a = GradTuple.truncated({2: 1}, horizon=4)
        b = GradTuple.truncated({2: 1}, horizon=6)
        assert lex_compare(a, b) is LexOutcome.UNKNOWN

    def test_mirror_symmetry_in_bulk(self):
        mirror = {
            LexOutcome.LESS: LexOutcome.GREATER,
            LexOutcome.GREATER: LexOutcome.LESS,
            LexOutcome.EQUAL: LexOutcome.EQUAL,
            LexOutcome.UNKNOWN: LexOutcome.UNKNOWN,
        }
        rng = random.Random(77)
        for _ in range(2000):
            a = random_tuple(rng)
            b = random_tuple(rng)
            assert lex_compare(b, a) is mirror[lex_compare(a, b)]

    def test_every_pair_agrees_with_a_position_by_position_oracle(self):
        descriptions = _small_tuple_descriptions()
        assert len(descriptions) >= 509
        built = [(d, _build_described(d)) for d in descriptions]
        for x, a in built:
            for y, b in built:
                assert lex_compare(a, b) is _oracle_lex(x, y), (x, y)


# A tuple description is ("finite", elements), ("truncated", elements,
# horizon) or ("constant", c).  The oracle below reads a description one
# position at a time and knows nothing of runs.
_ORACLE_PREFIX = 4  # longest stored prefix among the described tuples


def _small_tuple_descriptions():
    """Values 0-4 with up to four elements, finite or truncated at
    horizons max..max+2 (0..3 when empty), plus the constants 0-3."""
    out = []
    for size in range(_ORACLE_PREFIX + 1):
        for els in itertools.combinations_with_replacement(range(5), size):
            out.append(("finite", els))
            low = max(els) if els else 0
            for horizon in range(low, low + (3 if els else 4)):
                out.append(("truncated", els, horizon))
    out.extend(("constant", c) for c in range(4))
    return out


def _build_described(d):
    if d[0] == "constant":
        return GradTuple(constant=d[1])
    runs = tuple((v, d[1].count(v)) for v in sorted(set(d[1])))
    if d[0] == "finite":
        return GradTuple(runs=runs)
    return GradTuple(runs=runs, horizon=d[2])


def _position(d, k):
    """Position k of a described tuple: ("known", element), ("end", None)
    or ("above", horizon) for an element only known to exceed it."""
    if d[0] == "constant":
        return ("known", d[1])
    if k < len(d[1]):
        return ("known", d[1][k])
    return ("above", d[2]) if d[0] == "truncated" else ("end", None)


def _oracle_lex(x, y):
    for k in range(_ORACLE_PREFIX + 1):
        (kx, ex), (ky, ey) = _position(x, k), _position(y, k)
        if kx == ky == "end":
            return LexOutcome.EQUAL
        if kx == "end":
            return LexOutcome.LESS
        if ky == "end":
            return LexOutcome.GREATER
        if kx == ky == "known":
            if ex != ey:
                return LexOutcome.LESS if ex < ey else LexOutcome.GREATER
        elif kx == ky == "above":
            return LexOutcome.UNKNOWN
        elif kx == "known":
            return LexOutcome.LESS if ex <= ey else LexOutcome.UNKNOWN
        else:
            return LexOutcome.GREATER if ey <= ex else LexOutcome.UNKNOWN
    # Past every stored prefix only constants are still known: two equal
    # constants agree on every position.
    return LexOutcome.EQUAL


def value(evens, odds):
    return TupledValue(GradTuple.from_elements(evens), GradTuple.from_elements(odds))


class TestCompare:
    def test_fewer_attacks_wins(self):
        out = compare(value([2], [1]), value([2], [1, 1]))
        assert out.verdict is Verdict.FIRST_BETTER
        assert out.exact

    def test_cardinality_disagreement(self):
        out = compare(value([2], [1]), value([2, 2], [1, 1]))
        assert out.verdict is Verdict.INCOMPARABLE
        assert out.exact

    def test_longer_attack_wins(self):
        out = compare(value([2], [3]), value([2], [1]))
        assert out.verdict is Verdict.FIRST_BETTER
        assert out.exact

    def test_shorter_defence_wins(self):
        out = compare(value([2], [3]), value([4], [3]))
        assert out.verdict is Verdict.FIRST_BETTER
        assert out.exact

    def test_lexicographic_disagreement(self):
        out = compare(value([2], [1]), value([4], [3]))
        assert out.verdict is Verdict.INCOMPARABLE
        assert out.exact

    def test_identical_values_are_equivalent(self):
        out = compare(value([2, 4], [1, 3]), value([2, 4], [1, 3]))
        assert out.verdict is Verdict.EQUIVALENT
        assert out.exact

    def test_global_extremes(self):
        leaf = LEAF_VALUE
        worst = MIN_VALUE
        assert leaf == TupledValue(ZERO_INF, EMPTY)
        assert worst == TupledValue(EMPTY, ONE_INF)
        rng = random.Random(3)
        for _ in range(200):
            evens = [2 * rng.randrange(4) for _ in range(rng.randrange(3))]
            odds = [2 * rng.randrange(4) + 1 for _ in range(rng.randrange(3))]
            if not evens and not odds:
                continue
            v = value(evens, odds)
            assert compare(leaf, v).verdict in (Verdict.FIRST_BETTER,
                                                Verdict.EQUIVALENT)
            assert compare(worst, v).verdict in (Verdict.SECOND_BETTER,
                                                 Verdict.EQUIVALENT)

    def test_truncated_equivalence_is_inexact(self):
        a = TupledValue(GradTuple.truncated({2: 1}, horizon=5), EMPTY)
        b = TupledValue(GradTuple.truncated({2: 1}, horizon=5), EMPTY)
        out = compare(a, b)
        assert out.verdict is Verdict.EQUIVALENT
        assert not out.exact

    def test_unknown_lex_race_is_inexact_incomparability(self):
        # contents differ only past the first tuple's horizon, so the
        # defence race is undecidable and the attack race a tie
        a = TupledValue(GradTuple.truncated({2: 1}, horizon=4), elems(1))
        b = TupledValue(GradTuple.truncated({2: 1, 6: 1}, horizon=6), elems(1))
        out = compare(a, b)
        assert out.verdict is Verdict.INCOMPARABLE
        assert not out.exact

    def test_decided_below_horizon_is_exact(self):
        a = TupledValue(GradTuple.truncated({2: 1, 4: 1}, horizon=9), EMPTY)
        b = TupledValue(GradTuple.truncated({2: 1, 6: 1}, horizon=9), EMPTY)
        out = compare(a, b)
        assert out.verdict is Verdict.FIRST_BETTER
        assert out.exact

    def test_mirroring(self):
        rng = random.Random(11)
        flip = {
            Verdict.FIRST_BETTER: Verdict.SECOND_BETTER,
            Verdict.SECOND_BETTER: Verdict.FIRST_BETTER,
            Verdict.EQUIVALENT: Verdict.EQUIVALENT,
            Verdict.INCOMPARABLE: Verdict.INCOMPARABLE,
        }
        def random_value():
            evens = [2 * rng.randrange(4) for _ in range(rng.randrange(3))]
            odds = [2 * rng.randrange(4) + 1 for _ in range(rng.randrange(3))]
            even = (GradTuple.truncated({e: 1 for e in set(evens)},
                                        horizon=max(evens) + 1)
                    if evens and rng.random() < 0.3
                    else GradTuple.from_elements(evens))
            return TupledValue(even, GradTuple.from_elements(odds))

        for _ in range(2000):
            a = random_value()
            b = random_value()
            left = compare(a, b)
            right = compare(b, a)
            assert right.verdict is flip[left.verdict]
            assert right.exact == left.exact
            assert left.mirrored() == right

    def test_preorder_properties_exhaustively(self):
        def multisets(universe, max_size):
            for size in range(max_size + 1):
                yield from itertools.combinations_with_replacement(universe, size)

        evens = [GradTuple.from_elements(m) for m in multisets((2, 4), 2)]
        evens.append(ZERO_INF)
        odds = [GradTuple.from_elements(m) for m in multisets((1, 3), 2)]
        values = [TupledValue(e, o) for e in evens for o in odds
                  if not (e.is_empty and o.is_empty)]

        def geq(x, y):
            return compare(x, y).verdict in (Verdict.FIRST_BETTER,
                                             Verdict.EQUIVALENT)

        for v in values:
            assert geq(v, v)  # reflexive
        for v, w, x in itertools.product(values, repeat=3):
            if geq(v, w) and geq(w, x):
                assert geq(v, x), (v.render(), w.render(), x.render())


class TestRendering:
    def test_basic_renders(self):
        assert elems().render() == "()"
        assert elems(1, 3, 3).render() == "(1,3,3)"
        assert ZERO_INF.render() == "(0,...)"
        assert ONE_INF.render() == "(1,1,1,...)"
        assert GradTuple.truncated({2: 1, 4: 1}, horizon=6).render() == "(2,4,...)"
        assert GradTuple.from_elements([3] * 12).render() == "(3^12)"
        assert LEAF_VALUE.render() == "[(0,...),()]"
        assert value([2, 4], [1, 3, 3]).render() == "[(2,4),(1,3,3)]"

    def test_round_trip_finite(self):
        for v in (LEAF_VALUE, value([2, 4], [1, 3, 3]),
                  value([], [1]), value([0], [])):
            assert parse_tuple_literal(v.render()) == v

    def test_constant_one_literal_certifies_shown_content(self):
        # the all-ones tail cannot be written down exactly; its literal
        # re-parses as an infinite tuple certified to the shown elements
        parsed = parse_tuple_literal(MIN_VALUE.render())
        assert parsed.odd.infinite
        assert not parsed.odd.exact
        assert parsed.odd.min_element() == 1
        out = compare(parse_tuple_literal("[(),(1,1,1,...)]"), value([2], [1]))
        assert out.verdict is Verdict.SECOND_BETTER
        assert out.exact  # decided at the cardinality stage

    def test_round_trip_compressed_runs(self):
        v = TupledValue(EMPTY, GradTuple.from_elements([3] * 12))
        parsed = parse_tuple_literal(v.render())
        assert parsed.odd.runs == ((3, 12),)

    def test_round_trip_truncated_keeps_content(self):
        v = TupledValue(GradTuple.truncated({2: 1, 4: 1}, horizon=7), EMPTY)
        parsed = parse_tuple_literal(v.render())
        assert parsed.even.same_multiset(v.even)
        assert not parsed.even.exact
        # the literal only certifies what it shows
        assert parsed.even.horizon == 4

    def test_parse_errors(self):
        for bad in ("", "(2)", "[(2)]", "[(2),(1)", "[(a),(1)]",
                    "[(1),(2)]", "[(2),(1,...x)]"):
            with pytest.raises(TupleFormatError):
                parse_tuple_literal(bad)

    @pytest.mark.parametrize("literal, message", [
        # elements and repeat counts are ASCII digits alone
        ("[(2_0),()]", "defence component: bad element '2_0'"),
        ("[(+2),()]", "defence component: bad element '+2'"),
        ("[(\u0662),()]", "defence component: bad element '\u0662'"),
        ("[(-0),()]", "defence component: bad element '-0'"),
        ("[(-1),()]", "defence component: bad element '-1'"),
        ("[(2^+3),()]", "defence component: bad element '2^+3'"),
        ("[2,()]", "defence component: expected a parenthesized tuple, got '2'"),
        ("[(),(...)]", "attack component: an infinite tuple needs a shown prefix"),
        ("[(2,,4),()]", "defence component: empty element in '(2,,4)'"),
        ("[(),(1^x)]", "attack component: bad element '1^x'"),
        ("[(),(1^0)]", "attack component: bad repeat count in '1^0'"),
        ("[(4,2),()]", "defence component: elements must be ascending in '(4,2)'"),
        # a comma outside the parentheses separates components, and there are two
        ("[(2),(1),(3)]", "expected two components in '[(2),(1),(3)]'"),
        ("[(2),(1),]", "expected two components in '[(2),(1),]'"),
    ])
    def test_parse_error_messages(self, literal, message):
        with pytest.raises(TupleFormatError) as caught:
            parse_tuple_literal(literal)
        assert str(caught.value) == message

    def test_blanks_may_stand_around_elements_and_counts(self):
        assert parse_tuple_literal("[( 2 ^ 3 , 4 ),()]") == value([2, 2, 2, 4], [])

    def test_component_parity_is_enforced(self):
        with pytest.raises(TupleFormatError):
            TupledValue(elems(1), EMPTY)
        with pytest.raises(TupleFormatError):
            TupledValue(EMPTY, elems(2))

    def test_run_encoding_is_normalised(self):
        assert GradTuple.from_elements([2, 2, 2]).runs == ((2, 3),)
        with pytest.raises(TupleFormatError):
            GradTuple(runs=((4, 1), (2, 1)))
        with pytest.raises(TupleFormatError):
            GradTuple(runs=((2, 0),))


NON_NEGATIVE = "runs need non-negative values, positive counts"
ASCENDING = "runs must be strictly ascending"


# (number, kwargs, message).  A case keeps its number, and so its test id,
# when others are added or dropped; a dropped case's number is not reused.
GRAD_TUPLE_CASES = [
    (0, {"constant": 2, "runs": ((2, 1),)}, "constant tuples carry no prefix or horizon"),
    (1, {"constant": -1, "runs": ((2, 1),)}, "constant tuples carry no prefix or horizon"),
    (3, {"constant": 2, "horizon": 4}, "constant tuples carry no prefix or horizon"),
    (4, {"constant": -2}, "tuple elements must be non-negative"),
    (5, {"runs": ((-1, 1),)}, NON_NEGATIVE),
    (6, {"runs": ((1, 0),)}, NON_NEGATIVE),
    (7, {"runs": ((1, -3),)}, NON_NEGATIVE),
    (8, {"runs": ((5, 1), (-1, 1))}, NON_NEGATIVE),
    (9, {"runs": ((5, 1), (3, 0))}, NON_NEGATIVE),
    (10, {"runs": ((5, 1), (3, 1), (-1, 1))}, ASCENDING),
    (11, {"runs": ((5, 1), (3, 1), (7, 0))}, ASCENDING),
    (12, {"runs": ((2, 1), (2, 1))}, ASCENDING),
    (13, {"runs": ((0, 2), (4, 1), (1, 1))}, ASCENDING),
    (14, {"runs": ((-1, 1),), "horizon": 3}, NON_NEGATIVE),
    (15, {"runs": ((2, 1), (1, 1)), "horizon": 3}, ASCENDING),
    (16, {"runs": ((4, 0),), "horizon": 2}, NON_NEGATIVE),
    (17, {"runs": ((4, 1), (3, 1)), "horizon": 2}, ASCENDING),
    (18, {"runs": ((2, 1), (1, 1)), "horizon": 0}, ASCENDING),
    (21, {"runs": ((2, 1), (6, 3)), "horizon": 5},
     "prefix elements beyond the certified horizon"),
]


class TestValidationMessages:
    """Each malformed tuple names its fault; where several apply, the
    first failing run decides, and within a run the sign check comes
    before the order check."""

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param(kwargs, message, id=f"kwargs{number}-{message}")
        for number, kwargs, message in GRAD_TUPLE_CASES])
    def test_grad_tuple_messages(self, kwargs, message):
        with pytest.raises(TupleFormatError) as caught:
            GradTuple(**kwargs)
        assert str(caught.value) == message

    @pytest.mark.parametrize("even, odd, message", [
        (ONE_INF, EMPTY, "constant breaks even parity"),
        (EMPTY, ZERO_INF, "constant breaks odd parity"),
        (elems(1), EMPTY, "element 1 breaks even parity"),
        (elems(2, 3, 5), EMPTY, "element 3 breaks even parity"),
        (EMPTY, elems(1, 4, 6), "element 4 breaks odd parity"),
        (elems(2, 2, 4, 7), elems(8), "element 7 breaks even parity"),
        (elems(3), elems(2), "element 3 breaks even parity"),
        (ONE_INF, elems(2), "constant breaks even parity"),
        (elems(3), ZERO_INF, "element 3 breaks even parity"),
        (GradTuple.truncated({2: 1, 9: 4}, horizon=9), EMPTY,
         "element 9 breaks even parity"),
    ])
    def test_tupled_value_messages(self, even, odd, message):
        with pytest.raises(TupleFormatError) as caught:
            TupledValue(even=even, odd=odd)
        assert str(caught.value) == message

    def test_a_horizon_or_a_constant_makes_a_tuple_infinite(self):
        finite, constant = GradTuple(runs=((2, 1),)), GradTuple(constant=2)
        assert not finite.infinite and finite.exact
        assert constant.infinite and constant.exact
        for truncated in (GradTuple(runs=((2, 1),), horizon=5), GradTuple(horizon=0)):
            assert truncated.infinite and not truncated.exact
        assert GradTuple(runs=((2, 1),), horizon=5) == GradTuple.truncated({2: 1}, 5)

    def test_well_formed_tuples_pass(self):
        assert GradTuple(runs=((0, 1), (2, 10**40), (301, 1))).runs[-1] == (301, 1)
        assert GradTuple(runs=((1, 1),), horizon=1).horizon == 1
        assert TupledValue(elems(0, 2, 302), elems(1, 301)).exact


class TestQueries:
    def test_elements_and_min(self):
        assert elems(1, 3, 3).elements() == (1, 3, 3)
        assert elems(1, 3).min_element() == 1
        assert ZERO_INF.min_element() == 0
        assert EMPTY.min_element() is None

    def test_same_multiset_ignores_horizon(self):
        a = GradTuple.truncated({2: 1}, horizon=4)
        b = GradTuple.truncated({2: 1}, horizon=9)
        assert a.same_multiset(b)
        assert a != b

    def test_exactness_flags(self):
        assert elems(2, 4).exact
        assert ZERO_INF.exact
        assert ONE_INF.exact
        assert not GradTuple.truncated({2: 1}, horizon=5).exact
