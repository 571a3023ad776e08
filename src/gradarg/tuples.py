"""Sorted integer multisets with optional infinite tails, and their ordering.

A `GradTuple` is a sorted multiset of non-negative branch lengths.  A
horizon or a constant makes it infinite.  It is exact when it has no
horizon: finite, or one of the constant infinite tuples such as the
all-zero tuple carried by unattacked arguments.  With a horizon H it is
truncated: an infinite multiset known exactly up to H, meaning the stored
prefix contains every element <= H while infinitely many elements lie
beyond it.

A `TupledValue` pairs the even-length (defence) and odd-length (attack)
multisets of one argument.  `compare` realizes the two-stage cautious
ordering: branch counts first, then a lexicographic refinement that never
guesses past a horizon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce

from .framework import BoundError

__all__ = [
    "EMPTY",
    "LEAF_VALUE",
    "MIN_VALUE",
    "ONE_INF",
    "ZERO_INF",
    "ComparisonOutcome",
    "GradTuple",
    "LexOutcome",
    "RenderLimitError",
    "TupleFormatError",
    "TupledValue",
    "Verdict",
    "cardinality",
    "compare",
    "concat",
    "concat_all",
    "lex_compare",
    "parse_tuple_literal",
    "shift",
]

_RENDER_RUN_LIMIT = 9  # longest run rendered element-by-element


class TupleFormatError(ValueError):
    """Raised for malformed tuple literals or unrepresentable operations."""


class RenderLimitError(ValueError, BoundError):
    """`gradarg value` met a value with an integer (a branch count, numerator
    or denominator) past the interpreter's integer-to-string digit limit;
    `render` and `str` raise that limit's plain ValueError."""


@dataclass(frozen=True)
class GradTuple:
    """A sorted multiset of non-negative integers, possibly infinite.

    runs: ascending (value, count) pairs.  A `horizon` makes the tuple a
    truncated infinite one and certifies that the runs list every element
    <= horizon.  A `constant` tuple is the fully-known infinite multiset
    (c, c, c, ...); the all-zero constant is the value component of
    unattacked arguments.  With neither, the tuple is finite.
    """

    runs: tuple[tuple[int, int], ...] = ()
    horizon: int | None = None
    constant: int | None = None

    def __post_init__(self):
        if self.constant is not None:
            if self.runs or self.horizon is not None:
                raise TupleFormatError("constant tuples carry no prefix or horizon")
            if self.constant < 0:
                raise TupleFormatError("tuple elements must be non-negative")
            return
        last = -1
        for value, count in self.runs:
            if value <= last or count < 1:  # last >= -1, so a negative fails too
                if value < 0 or count < 1:
                    raise TupleFormatError("runs need non-negative values, positive counts")
                raise TupleFormatError("runs must be strictly ascending")
            last = value
        if self.horizon is not None and last > self.horizon:
            raise TupleFormatError("prefix elements beyond the certified horizon")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_elements(elements) -> "GradTuple":
        """Exact finite tuple from an unsorted iterable."""
        counts: dict[int, int] = {}
        for e in elements:
            counts[e] = counts.get(e, 0) + 1
        return GradTuple(runs=tuple(sorted(counts.items())))

    @staticmethod
    def truncated(counts: dict[int, int], horizon: int) -> "GradTuple":
        """Infinite tuple certified up to `horizon`; elements beyond the
        horizon are dropped from the stored prefix."""
        runs = tuple(
            (v, c) for (v, c) in sorted(counts.items()) if c > 0 and v <= horizon
        )
        return GradTuple(runs=runs, horizon=horizon)

    # -- basic views ----------------------------------------------------

    @property
    def infinite(self) -> bool:
        return self.horizon is not None or self.constant is not None

    @property
    def exact(self) -> bool:
        """True when every element (up to infinity) is known."""
        return self.horizon is None

    @property
    def is_empty(self) -> bool:
        return not self.infinite and not self.runs

    def min_element(self) -> int | None:
        if self.constant is not None:
            return self.constant
        if self.runs:
            return self.runs[0][0]
        return None

    def elements(self) -> tuple[int, ...]:
        """Prefix elements in ascending order (duplicates expanded)."""
        return tuple(value
                     for value, count in self.runs
                     for _ in range(count))

    def same_multiset(self, other: "GradTuple") -> bool:
        """Equality of the certified content, ignoring horizons."""
        return (
            self.runs == other.runs
            and self.infinite == other.infinite
            and self.constant == other.constant
        )

    def render(self) -> str:
        if self.constant is not None:
            if self.constant == 0:
                return "(0,...)"
            body = ",".join(str(self.constant) for _ in range(3))
            return f"({body},...)"
        parts = [f"{value}^{count}" if count > _RENDER_RUN_LIMIT
                 else ",".join([str(value)] * count)
                 for value, count in self.runs]
        if self.infinite:
            parts.append("...")
        return "(" + ",".join(parts) + ")"

    def __str__(self) -> str:
        return self.render()


EMPTY = GradTuple()
ZERO_INF = GradTuple(constant=0)
ONE_INF = GradTuple(constant=1)


def cardinality(t: GradTuple) -> int | float:
    """Number of elements: an exact int for a finite tuple, math.inf for
    any infinite one.  Exact even for truncated tuples, since a horizon
    certifies the tail; Python compares the int with math.inf exactly."""
    if t.infinite:
        return math.inf
    return sum(count for _, count in t.runs)


def concat(a: GradTuple, b: GradTuple) -> GradTuple:
    """Multiset union, keeping the result sorted.

    The all-zero constant is absorbing on the empty side: combining it with
    any non-empty tuple yields the other operand, and with the empty tuple
    yields itself.  Other constant tuples cannot be merged into a sorted
    sequence and are rejected.
    """
    if a.constant == 0:
        return a if b.is_empty else b
    if b.constant == 0:
        return b if a.is_empty else a
    if a.constant is not None or b.constant is not None:
        raise TupleFormatError("cannot concatenate a constant infinite tuple")
    counts: dict[int, int] = {}
    for value, count in a.runs:
        counts[value] = counts.get(value, 0) + count
    for value, count in b.runs:
        counts[value] = counts.get(value, 0) + count
    horizons = [t.horizon for t in (a, b) if t.horizon is not None]
    if not horizons:
        return GradTuple(runs=tuple(sorted(counts.items())))
    return GradTuple.truncated(counts, min(horizons))


def concat_all(tuples) -> GradTuple:
    return reduce(concat, tuples, EMPTY)


def shift(t: GradTuple, k: int) -> GradTuple:
    """Add `k` to every element.  The all-zero constant collapses to the
    single-element tuple (k): its infinitely many zero-length branches all
    become the same one-step branch.  The empty tuple stays empty."""
    if k < 0:
        raise TupleFormatError("shift must be non-negative")
    if t.constant == 0:
        return GradTuple.from_elements([k])
    if t.constant is not None:
        return GradTuple(constant=t.constant + k)
    if t.is_empty:
        return EMPTY
    runs = tuple((value + k, count) for value, count in t.runs)
    horizon = t.horizon + k if t.horizon is not None else None
    return GradTuple(runs=runs, horizon=horizon)


class LexOutcome(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNKNOWN = "unknown"


def _runs_and_tail(t: GradTuple):
    """The runs of `t` and what follows them: None for nothing, or the
    horizon above which a truncated tuple's unknown tail lies.  A constant
    c is one endless run (c, inf) followed by nothing."""
    if t.constant is not None:
        return ((t.constant, math.inf),), None
    return t.runs, t.horizon


def lex_compare(a: GradTuple, b: GradTuple) -> LexOutcome:
    """Lexicographic order over sorted tuples, exhausted-first-is-smaller.

    Skips the runs the two tuples share and decides at the first different
    run: the smaller value is smaller; for equal values, the side whose
    run ends first is larger when a later run or an unknown tail follows,
    and smaller when nothing does.  Past the last run of a truncated tuple
    the next element is only known to exceed the horizon, so a comparison
    that would need it returns UNKNOWN unless the other side's element
    already decides the position.
    """
    (ra, ta), (rb, tb) = _runs_and_tail(a), _runs_and_tail(b)
    i = 0
    while i < len(ra) and i < len(rb) and ra[i] == rb[i]:
        i += 1
    a_done, b_done = i == len(ra), i == len(rb)
    if not (a_done or b_done):
        (va, ca), (vb, cb) = ra[i], rb[i]
        if va != vb:
            return LexOutcome.LESS if va < vb else LexOutcome.GREATER
        if ca < cb:
            followed = i + 1 < len(ra) or ta is not None
            return LexOutcome.GREATER if followed else LexOutcome.LESS
        followed = i + 1 < len(rb) or tb is not None
        return LexOutcome.LESS if followed else LexOutcome.GREATER
    if a_done and b_done and ta is None and tb is None:
        return LexOutcome.EQUAL
    if a_done and ta is None:
        return LexOutcome.LESS
    if b_done and tb is None:
        return LexOutcome.GREATER
    if a_done and b_done:
        return LexOutcome.UNKNOWN
    if a_done:
        return LexOutcome.GREATER if rb[i][0] <= ta else LexOutcome.UNKNOWN
    return LexOutcome.LESS if ra[i][0] <= tb else LexOutcome.UNKNOWN


@dataclass(frozen=True)
class TupledValue:
    """The defence (even-length) and attack (odd-length) branch multisets
    of one argument."""

    even: GradTuple
    odd: GradTuple

    def __post_init__(self):
        for t, parity, label in ((self.even, 0, "even"), (self.odd, 1, "odd")):
            if t.constant is not None:
                if t.constant % 2 != parity:
                    raise TupleFormatError(f"constant breaks {label} parity")
                continue
            for value, _ in t.runs:
                if value % 2 != parity:
                    raise TupleFormatError(f"element {value} breaks {label} parity")

    @property
    def exact(self) -> bool:
        return self.even.exact and self.odd.exact

    def render(self) -> str:
        return f"[{self.even.render()},{self.odd.render()}]"

    def __str__(self) -> str:
        return self.render()


LEAF_VALUE = TupledValue(even=ZERO_INF, odd=EMPTY)
MIN_VALUE = TupledValue(even=EMPTY, odd=ONE_INF)


class Verdict(str, enum.Enum):
    FIRST_BETTER = "first-better"
    SECOND_BETTER = "second-better"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ComparisonOutcome:
    verdict: Verdict
    exact: bool = True

    def mirrored(self) -> "ComparisonOutcome":
        if self.verdict is Verdict.FIRST_BETTER:
            return ComparisonOutcome(Verdict.SECOND_BETTER, self.exact)
        if self.verdict is Verdict.SECOND_BETTER:
            return ComparisonOutcome(Verdict.FIRST_BETTER, self.exact)
        return self


def compare(v: TupledValue, w: TupledValue) -> ComparisonOutcome:
    """Two-stage cautious comparison of tupled values.

    Equal certified content is equivalent.  Otherwise branch counts decide:
    with both count pairs equal the defence tuples are compared
    lexicographically ascending and the attack tuples descending, and the
    verdict is strict only when the two criteria agree; with differing
    counts, fewer attack branches and more defence branches wins.  A
    lexicographic stage stopped by a horizon yields incomparable with
    exact=False rather than a guess.
    """
    if v.even.same_multiset(w.even) and v.odd.same_multiset(w.odd):
        return ComparisonOutcome(Verdict.EQUIVALENT, exact=v.exact and w.exact)
    vi, wi = cardinality(v.odd), cardinality(w.odd)
    vp, wp = cardinality(v.even), cardinality(w.even)
    if vi == wi and vp == wp:
        even_cmp = lex_compare(v.even, w.even)
        odd_cmp = lex_compare(v.odd, w.odd)
        if even_cmp in (LexOutcome.LESS, LexOutcome.EQUAL) and odd_cmp in (
            LexOutcome.GREATER,
            LexOutcome.EQUAL,
        ):
            return ComparisonOutcome(Verdict.FIRST_BETTER, exact=True)
        if even_cmp in (LexOutcome.GREATER, LexOutcome.EQUAL) and odd_cmp in (
            LexOutcome.LESS,
            LexOutcome.EQUAL,
        ):
            return ComparisonOutcome(Verdict.SECOND_BETTER, exact=True)
        undecided = LexOutcome.UNKNOWN in (even_cmp, odd_cmp)
        return ComparisonOutcome(Verdict.INCOMPARABLE, exact=not undecided)
    if vi >= wi and vp <= wp:
        return ComparisonOutcome(Verdict.SECOND_BETTER, exact=True)
    if vi <= wi and vp >= wp:
        return ComparisonOutcome(Verdict.FIRST_BETTER, exact=True)
    return ComparisonOutcome(Verdict.INCOMPARABLE, exact=True)


# -- literals -----------------------------------------------------------------

def _natural(text: str) -> int:
    """The ASCII digits `text` holds, blanks around them aside, as an int;
    ValueError for anything else, signs and underscores included."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a natural number: {text!r}")
    return int(digits)


def _parse_component(text: str, what: str) -> GradTuple:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise TupleFormatError(f"{what}: expected a parenthesized tuple, got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return EMPTY
    parts = [p.strip() for p in inner.split(",")]
    infinite = False
    if parts[-1] == "...":
        infinite = True
        parts = parts[:-1]
        if not parts:
            raise TupleFormatError(f"{what}: an infinite tuple needs a shown prefix")
    counts: dict[int, int] = {}
    values: list[int] = []
    for p in parts:
        if not p:
            raise TupleFormatError(f"{what}: empty element in {text!r}")
        value_text, caret, count_text = p.partition("^")
        try:
            value, count = _natural(value_text), _natural(count_text) if caret else 1
        except ValueError:
            raise TupleFormatError(f"{what}: bad element {p!r}") from None
        if count < 1:
            raise TupleFormatError(f"{what}: bad repeat count in {p!r}")
        counts[value] = counts.get(value, 0) + count
        values.extend([value] * min(count, 2))
    if values != sorted(values):
        raise TupleFormatError(f"{what}: elements must be ascending in {text!r}")
    if infinite and set(counts) == {0}:
        return ZERO_INF
    if infinite:
        # A parsed literal is certified through its largest shown element.
        return GradTuple.truncated(counts, horizon=max(counts))
    return GradTuple(runs=tuple(sorted(counts.items())))


def parse_tuple_literal(text: str) -> TupledValue:
    """Parse the rendering syntax, e.g. ``[(2,4),(1,3,3)]`` or
    ``[(2,4,6,...),(1,3,5,...)]``; ``(0,...)`` is the all-zero tuple."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise TupleFormatError(f"expected [...], got {text!r}")
    inner = body[1:-1]
    depth = 0
    commas = []  # the top-level ones, which separate components
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            commas.append(i)
    if len(commas) != 1:
        raise TupleFormatError(f"expected two components in {text!r}")
    split = commas[0]
    even = _parse_component(inner[:split], "defence component")
    odd = _parse_component(inner[split + 1 :], "attack component")
    try:
        return TupledValue(even=even, odd=odd)
    except TupleFormatError as exc:
        raise TupleFormatError(f"{exc} in {text!r}") from None
