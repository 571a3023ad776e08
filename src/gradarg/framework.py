"""Attack graphs: finite argumentation systems over a binary attack relation.

This module owns the graph data structure and everything purely structural:
parsing and serialization of the textual framework format, DOT export,
attacker/defender queries, leaf and cycle detection, maximal interconnected
cycle unions ("mcycles"), branch edits used by the monotonicity suites, and
deterministic graph-family generators.

A graph is its attack relation as two rows per argument, on declaration
indices: its attackers and its targets, each row sorted and free of
duplicates, so the order in which attacks were written is not kept.  Its
condensation (strongly connected components in a dependency order, each
attacker's component before its target's) is computed once, on the same
indices, as one flat order: an `array('q')` with an entry per component,
an argument outside every cycle union by its own index and cycle union k
by ~k, whose sorted members are kept apart.  So the order costs 8 bytes an
argument, and only the cycle unions hold tuples.  The evaluators read the
rows and the order directly; names appear only at the API edge, and the
named components of `condensation()` are built only when asked for.  The
public constructor checks every name and endpoint; the parser and the
seeded generators, which produce valid indices themselves, build through
a private constructor that checks nothing again.

Framework text is parsed by one compiled pattern, built from a single
table of statement shapes.  Comments are blanked first, in place, and the
text is then read in chunks of about 64 KiB, one findall of the pattern
each, which returns every statement of the chunk as a tuple of its names.
An attack whose endpoints are both declared joins its target's row as it
is read; one that names a later declaration keeps its two names until the
whole text has matched.  Only when the pattern fails, or an endpoint is
never declared, is the text scanned again to locate the error, and only
then are line and column computed.
"""

from __future__ import annotations

import random
import re
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass

__all__ = [
    "AttackGraph",
    "BoundError",
    "BranchEdit",
    "EditError",
    "FrameworkError",
    "Mcycle",
    "ParseError",
    "UnknownArgumentError",
    "edit_graph",
    "generate_family",
    "parse_framework",
    "random_acyclic_graph",
    "random_attack_graph",
]

_IN, _OUT = 1, 2  # grounded labels; 0 is undecided


class BoundError(Exception):
    """Base class of the errors raised where a computation would pass a
    stated bound: on the input, the work, the values or their printing.
    Each also keeps a base of its own kind; the CLI exits 3 on any."""


class FrameworkError(Exception):
    """Base class for graph construction, parsing and edit errors."""


class ParseError(FrameworkError):
    """Raised on malformed framework text; carries the offending position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownArgumentError(FrameworkError):
    """An attack endpoint names an argument that was never declared."""


class EditError(FrameworkError):
    """A branch edit cannot be realized on the given graph."""


@dataclass(frozen=True)
class Mcycle:
    """A maximal union of interconnected elementary cycles.

    `members` is ordered by declaration; `inputs` lists the members that
    have at least one direct attacker outside the mcycle.
    """

    members: tuple[str, ...]
    inputs: tuple[str, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.members

    @property
    def is_isolated(self) -> bool:
        return not self.inputs


class AttackGraph:
    """An immutable set of named arguments plus a binary attack relation.

    Arguments keep their declaration order, which fixes the orderings
    this package exposes (reports, serialization, iteration), all but the
    dependency orders of `condensation()` and `topological_order()`.  The
    graph is its attack relation, stored once on declaration indices:
    `_attackers[i]` and `_targets[i]` are tuples of indices, sorted and
    free of duplicates, so a graph does not remember how its attacks were
    written.  `_components()` is the condensation, a flat dependency order
    plus the cycle unions' members, and `_grounded()` the grounded
    labelling that the rooted labelling and extension enumeration read;
    each is computed once.  Names appear only at the API edge.

    `AttackGraph(arguments, attacks)` checks every name and endpoint; a
    name must be an identifier of the framework format.  The
    parser and the seeded generators, which produce valid indices
    themselves, build through the private `_from_indices` instead.
    """

    __slots__ = ("_args", "_index", "_attackers", "_targets",
                 "_condensation", "_named_condensation", "_labels")

    def __init__(self, arguments, attacks=()):
        args: list[str] = []
        index: dict[str, int] = {}
        for name in arguments:
            if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                raise FrameworkError(f"invalid argument id: {name!r}")
            if name not in index:
                index[name] = len(args)
                args.append(name)
        rows: defaultdict[int, list[int]] = defaultdict(list)
        for src, dst in attacks:
            for end in (src, dst):
                if end not in index:
                    raise UnknownArgumentError(f"undeclared argument: {end!r}")
            rows[index[dst]].append(index[src])
        self._store(tuple(args), index, _sorted_rows(rows, len(args)))

    @classmethod
    def _from_indices(cls, args, index, attackers) -> AttackGraph:
        """A graph from distinct names, their declaration index and each
        argument's attackers as a tuple of indices, sorted and free of
        duplicates, in a tuple; none of this is checked."""
        graph = cls.__new__(cls)
        graph._store(tuple(args), index, attackers)
        return graph

    def _store(self, args, index, attackers) -> None:
        # Each target row fills in ascending order of its targets.
        targets: list = [[] for _ in args]
        for dst, row in enumerate(attackers):
            for src in row:
                targets[src].append(dst)
        for src, row in enumerate(targets):  # one row held twice at a time
            targets[src] = tuple(row)
        self._args = args
        self._index = index
        self._attackers = attackers
        self._targets = tuple(targets)
        self._condensation = self._named_condensation = self._labels = None

    # -- basic accessors ------------------------------------------------

    @property
    def arguments(self) -> tuple[str, ...]:
        return self._args

    @property
    def attacks(self) -> tuple[tuple[str, str], ...]:
        """The attacks sorted by attacker, then target, by declaration index."""
        args = self._args
        return tuple([(args[src], args[dst])
                      for src, row in enumerate(self._targets) for dst in row])

    def __len__(self) -> int:
        return len(self._args)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttackGraph):
            return NotImplemented
        return self._args == other._args and self._attackers == other._attackers

    def __hash__(self):
        return hash((self._args, self._attackers))

    def __repr__(self) -> str:
        attacks = sum(map(len, self._attackers))
        return f"AttackGraph({len(self._args)} arguments, {attacks} attacks)"

    def index_of(self, name: str) -> int:
        self._check(name)
        return self._index[name]

    def _check(self, name: str) -> None:
        if name not in self._index:
            raise UnknownArgumentError(f"unknown argument: {name!r}")

    def _names(self, indices) -> tuple[str, ...]:
        args = self._args
        return tuple([args[i] for i in indices])

    # -- neighbourhood queries -------------------------------------------

    def direct_attackers(self, name: str) -> frozenset[str]:
        return frozenset(self.attackers_of(name))

    def attackers_of(self, name: str) -> tuple[str, ...]:
        """Direct attackers in declaration order."""
        return self._names(self._attackers[self.index_of(name)])

    def targets_of(self, name: str) -> tuple[str, ...]:
        """Direct targets in declaration order."""
        return self._names(self._targets[self.index_of(name)])

    def direct_defenders(self, name: str) -> frozenset[str]:
        """Attackers of the direct attackers."""
        attackers = self._attackers
        out: set[int] = set()
        for b in attackers[self.index_of(name)]:
            out.update(attackers[b])
        return frozenset(self._names(out))

    def indirect_attackers(self, name: str) -> frozenset[str]:
        """Arguments with a walk to `name` of odd length at least 3."""
        return self._walk_class_into(name, 3)

    def indirect_defenders(self, name: str) -> frozenset[str]:
        """Arguments with a walk to `name` of even length at least 4."""
        return self._walk_class_into(name, 4)

    def _walk_class_into(self, name: str, wanted: int) -> frozenset[str]:
        # Walk-length classes 0, 1, 2, then 3 (odd >= 3) and 4 (even >= 4).
        reached = self._shortest_walks([(0, self.index_of(name), 0)],
                                       (1, 2, 3, 4, 3), self._attackers)
        return frozenset(self._names(v for (v, c) in reached if c == wanted))

    def leaves(self) -> frozenset[str]:
        """Arguments with no attacker at all."""
        return frozenset(a for a, b in zip(self._args, self._attackers) if not b)

    def walk_count(self, source: str, target: str, length: int) -> int:
        """Number of walks of exactly `length` edges from source to target;
        the trivial walk from an argument to itself has length 0."""
        start, end = self.index_of(source), self.index_of(target)
        if length < 0:
            raise FrameworkError("walk length must be non-negative")
        counts = [0] * len(self._args)
        counts[start] = 1
        for _ in range(length):
            counts = [sum([counts[src] for src in row]) for row in self._attackers]
        return counts[end]

    @staticmethod
    def _shortest_walks(seeds, step, adjacency,
                        within=None) -> dict[tuple[int, int], int]:
        """Shortest walks over (declaration index, walk class) states, by a
        breadth-first search that merges the seeds, sorted by length, with a
        FIFO queue of the states reached one step later: every push is one
        longer than the state just taken, so the queue stays sorted.

        `seeds` are (length, argument, class) triples: walks known to exist.
        One more attack edge takes a walk of class c to class step[c], so
        step=(1, 0) tracks parity and step=(0,) plain distance.  Walks follow
        `adjacency` (`_targets` forward, `_attackers` backward, into an
        argument) and stay inside the index set `within` when it is given.
        Returns the length of the shortest walk reaching each reachable state.
        """
        seeds = sorted(seeds, reverse=True)  # popped from the end, shortest first
        queue: deque[tuple[int, int, int]] = deque()
        shortest: dict[tuple[int, int], int] = {}
        while seeds or queue:
            if queue and (not seeds or queue[0][0] < seeds[-1][0]):
                length, v, c = queue.popleft()
            else:
                length, v, c = seeds.pop()
            if (v, c) in shortest:
                continue
            shortest[(v, c)] = length
            c = step[c]
            for t in adjacency[v]:
                if (t, c) not in shortest and (within is None or t in within):
                    queue.append((length + 1, t, c))
        return shortest

    # -- cycle structure ---------------------------------------------------

    def _components(self) -> tuple[array, tuple[tuple[int, ...], ...]]:
        """The condensation on declaration indices, computed once: the
        flat dependency order and the cycle unions of `_condense`."""
        if self._condensation is None:
            self._condensation = _condense(self._targets, self._attackers)
        return self._condensation

    def _grounded(self) -> bytes:
        """The grounded labelling by declaration index, one byte each,
        computed once in one queue pass: IN once every attacker is OUT, OUT
        once some attacker is IN, undecided (0) for the rest."""
        if self._labels is not None:
            return self._labels
        live = [len(a) for a in self._attackers]  # attackers not yet OUT
        label = bytearray(0 if k else _IN for k in live)
        queue = [i for i, k in enumerate(live) if not k]
        for i in queue:  # the queue grows while it is read
            for t in self._targets[i]:
                if label[i] == _IN:
                    if not label[t]:
                        label[t] = _OUT
                        queue.append(t)
                else:
                    live[t] -= 1
                    if not live[t] and not label[t]:
                        label[t] = _IN
                        queue.append(t)
        self._labels = bytes(label)
        return self._labels

    def condensation(self) -> tuple[tuple[str, ...], ...]:
        """Strongly connected components in a dependency order: every
        attacker's component precedes its target's.  Nothing more is
        promised of the order of the components; members keep declaration
        order.  A name view of `_components()`, built once, when first asked.
        """
        if self._named_condensation is None:
            order, unions = self._components()
            args = self._args
            self._named_condensation = tuple([
                (args[x],) if x >= 0 else self._names(unions[~x]) for x in order])
        return self._named_condensation

    def strongly_connected_components(self) -> list[tuple[str, ...]]:
        """Components ordered by their earliest declared member."""
        return sorted(self.condensation(), key=lambda comp: self._index[comp[0]])

    def find_mcycles(self) -> list[Mcycle]:
        """Maximal interconnected cycle unions: the non-trivial strongly
        connected components (more than one member, or a self-attacker)."""
        out = []
        for comp in sorted(self._components()[1]):
            inside = set(comp)
            inputs = [m for m in comp if not inside.issuperset(self._attackers[m])]
            out.append(Mcycle(self._names(comp), self._names(inputs)))
        return out

    def is_well_founded(self) -> bool:
        """True exactly when the graph has no cycle."""
        return not self._components()[1]

    def has_odd_cycle(self) -> bool:
        """True when some elementary cycle has odd length: an odd closed
        walk exists iff a union's first member reaches itself at odd
        parity, and an odd closed walk always contains an odd cycle."""
        for comp in self._components()[1]:
            reached = self._shortest_walks([(0, comp[0], 0)], (1, 0),
                                           self._targets, set(comp))
            if (comp[0], 1) in reached:
                return True
        return False

    def topological_order(self) -> tuple[str, ...]:
        """Arguments ordered so every attacker precedes its target.

        Raises FrameworkError when the graph has a cycle.
        """
        if not self.is_well_founded():
            raise FrameworkError("graph contains a cycle; no topological order")
        return self._names(self._components()[0])

    # -- text formats -------------------------------------------------------

    def serialize(self) -> str:
        """Framework text: declarations in declaration order, then attacks
        sorted lexicographically."""
        lines = [f"arg({a})." for a in self._args]
        lines += [f"att({s},{t})." for (s, t) in sorted(self.attacks)]
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Graphviz rendering with a stable node and edge order."""
        lines = ["digraph attack_graph {"]
        lines += [f'  "{a}";' for a in self._args]
        lines += [f'  "{s}" -> "{t}";' for (s, t) in sorted(self.attacks)]
        lines.append("}")
        return "\n".join(lines) + "\n"


def _condense(successors, predecessors) -> tuple[array, tuple[tuple[int, ...], ...]]:
    """Strongly connected components of the digraph on 0..n-1 given by
    successor lists and the matching predecessor lists, in a dependency
    order: every predecessor's component comes first.

    Returns the pair (order, unions).  `order` is an `array('q')` with one
    entry per component, in that order: a vertex outside every cycle union
    is its own index, and cycle union k (more than one member, or a vertex
    that is its own predecessor) is the entry ~k, whose members, sorted,
    are `unions[k]`.  So the order costs 8 bytes a vertex.

    Kosaraju's algorithm, iterative: a depth-first finishing order along
    the successors, its roots taken latest first, then, latest finished
    first, each unplaced vertex collects along the predecessors the
    unplaced vertices that reach it.  The components come out upstream
    first.  With the roots taken latest first, isolated vertices, and
    disjoint chains each numbered along its edges, come out in ascending
    order."""
    n = len(successors)
    seen = [False] * n
    finished: list[int] = []
    work: list = []  # the depth-first path, each vertex with its successors left
    for root in range(n - 1, -1, -1):
        if seen[root]:
            continue
        seen[root] = True
        work.append((root, iter(successors[root])))
        while work:
            v, later = work[-1]
            for w in later:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(successors[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    order: list[int] = []
    unions: list[tuple[int, ...]] = []
    for root in reversed(finished):  # placing a vertex clears its mark
        if not seen[root]:
            continue
        seen[root] = False
        members = [root]
        for v in members:  # the list grows while it is read
            for w in predecessors[v]:
                if seen[w]:
                    seen[w] = False
                    members.append(w)
        if len(members) > 1 or root in predecessors[root]:
            order.append(~len(unions))
            unions.append(tuple(sorted(members)))
        else:
            order.append(root)
    return array("q", order), tuple(unions)


# -- parsing ----------------------------------------------------------------

# The statement grammar, written once: each head's shape after the head,
# with "I" standing for an identifier and any other character for itself.
_SHAPES = {"arg": "(I).", "att": "(I,I)."}

_IDENT = "[A-Za-z0-9_]+"
_IDENT_RE = re.compile(_IDENT)  # also the constructor's check of a name
# A % comment runs to "\n" or the end of the text.  The parser blanks each
# one first, a space per character, so the only blank left is Unicode
# whitespace (`\s` and str.isspace accept the same characters), every "."
# left ends a statement or breaks one, and no position moves.
_COMMENT_RE = re.compile("%[^\n]*")
_BLANK_RE = re.compile(r"\s*")
_CHUNK = 64 * 1024  # characters a chunk holds before it runs on to its next "."


def _token(symbol: str) -> str:
    return f"({_IDENT})" if symbol == "I" else re.escape(symbol)


# One statement, from its head, or else the first character of a rejected
# one.  Each match is a (name, src, dst, other) tuple of which only the
# statement's own groups are non-empty.  No blank is matched before the
# head: findall skips a blank run a character at a time, where a leading
# `\s*` would read the rest of the run again from every position.  A
# rejected statement's match runs to the end of the chunk, so a chunk of
# rubbish makes one tuple, not one per character.
_STATEMENT = re.compile("|".join(
    head + "".join(r"\s*" + _token(s) for s in shape)
    for head, shape in _SHAPES.items()) + r"|(\S)[\s\S]*")


def _error_at(text: str, pos: int, message: str) -> ParseError:
    # Lines count "\n" only; columns count characters from 1.
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _statement_error(text: str, pos: int) -> ParseError:
    """The error in the statement starting at `pos`, which the statement
    pattern rejected: the first of its tokens that breaks the grammar."""
    head = _IDENT_RE.match(text, pos)
    if head is None:
        return _unexpected(text, pos, "identifier")
    if head[0] not in _SHAPES:
        return _error_at(text, pos, f"unknown statement {head[0]!r}")
    pos = head.end()
    for symbol in _SHAPES[head[0]]:
        pos = _BLANK_RE.match(text, pos).end()
        token = re.compile(_token(symbol)).match(text, pos)
        if token is None:
            return _unexpected(text, pos, "identifier" if symbol == "I" else repr(symbol))
        pos = token.end()
    raise AssertionError(f"statement pattern rejected a whole statement ending at {pos}")


def _unexpected(text: str, pos: int, what: str) -> ParseError:
    found = text[pos] if pos < len(text) else "end of input"
    return _error_at(text, pos, f"expected {what}, found {found!r}")


def parse_framework(text: str) -> AttackGraph:
    """Parse framework text of the form ``arg(a).`` / ``att(a,b).``.

    Identifiers are ASCII letters, digits and ``_``; any Unicode whitespace
    separates tokens, and ``%`` starts a comment running to the next
    newline.  Every attack endpoint must be declared somewhere in the text.

    Comments are blanked first, so no position moves.  The text is then
    read in chunks of about 64 KiB, each ending just after a "." (no valid
    statement straddles one), by one findall each.  An attack joins its
    target's row of attackers once both endpoints are declared; the rest
    keep their two names, in input order, until the whole text has
    matched, so a syntax error wins and the first undeclared endpoint is
    the one named.  Either error is located only once it is found, by
    scanning the text again.
    """
    text = _COMMENT_RE.sub(lambda comment: " " * len(comment[0]), text)
    args: list[str] = []
    index: dict[str, int] = {}
    rows: defaultdict[int, list[int]] = defaultdict(list)  # attackers, as written
    later: list[tuple[str, str]] = []  # attacks naming a later declaration
    pos = 0
    while pos < len(text):
        end = text.find(".", pos + _CHUNK) + 1 or len(text)
        for name, src, dst, other in _STATEMENT.findall(text, pos, end):
            if src:
                if src in index and dst in index:
                    rows[index[dst]].append(index[src])
                else:
                    later.append((src, dst))
            elif name:
                if name not in index:
                    index[name] = len(args)
                    args.append(name)
            else:
                rejected = next(m for m in _STATEMENT.finditer(text, pos, end) if m[4])
                raise _statement_error(text, rejected.start())
        pos = end
    for src, dst in later:
        if src not in index or dst not in index:
            raise _undeclared(text, index)
        rows[index[dst]].append(index[src])
    return AttackGraph._from_indices(args, index, _sorted_rows(rows, len(args)))


def _undeclared(text: str, index: dict[str, int]) -> ParseError:
    """The error at the first attack in `text`, which has matched, that
    names an argument missing from `index`."""
    for statement in _STATEMENT.finditer(text):
        for end in statement.group(2, 3):
            if end is not None and end not in index:
                return _error_at(text, statement.start(), f"undeclared argument {end!r}")
    raise AssertionError("no attack names an undeclared argument")


def _sorted_rows(rows: dict[int, list[int]], size: int) -> tuple[tuple[int, ...], ...]:
    """The rows of arguments 0 to size - 1, each sorted and stripped of
    duplicates, from a map of the non-empty rows as written.  A row leaves
    the map as its tuple is made, so only one is held twice."""
    out: list[tuple[int, ...]] = [()] * size
    while rows:
        i, row = rows.popitem()
        out[i] = tuple(sorted(set(row)))
    return tuple(out)


# -- branch edits -------------------------------------------------------------

@dataclass(frozen=True)
class BranchEdit:
    """A single structural edit against a root argument.

    kind: "add" (fresh chain of `length` arguments attacking into `root`),
    "remove" (delete the pendant chain whose tip is `leaf`), or
    "lengthen"/"shorten" (rebuild that chain at the new `length`, which must
    keep the original parity -- a branch may not flip between attack and
    defence in one edit).
    """

    kind: str
    root: str
    length: int | None = None
    leaf: str | None = None


def _fresh_names(g: AttackGraph, count: int) -> list[str]:
    names = []
    i = 1
    while len(names) < count:
        candidate = f"x{i}"
        if candidate not in g:
            names.append(candidate)
        i += 1
    return names


def _pendant_chain(g: AttackGraph, leaf: str, root: str) -> list[str]:
    """The clean chain leaf -> ... -> root, excluding root.

    Every chain node must have out-degree 1; the tip must be unattacked and
    interior nodes must be attacked only by their predecessor.  So the walk
    never re-enters the chain: the member it re-entered would have a
    second attacker.
    """
    g._check(leaf)
    g._check(root)
    if g.direct_attackers(leaf):
        raise EditError(f"{leaf!r} is not the tip of a branch (it is attacked)")
    chain = [leaf]
    current = leaf
    while True:
        targets = g.targets_of(current)
        if len(targets) != 1:
            raise EditError(f"{current!r} does not lie on a clean branch")
        nxt = targets[0]
        if nxt == root:
            return chain
        if g.attackers_of(nxt) != (current,):
            raise EditError(f"{nxt!r} does not lie on a clean branch")
        chain.append(nxt)
        current = nxt


def edit_graph(g: AttackGraph, edit: BranchEdit) -> AttackGraph:
    """Apply one branch edit, returning a new graph."""
    g._check(edit.root)
    if edit.kind == "add":
        if edit.length is None or edit.length < 1:
            raise EditError("add requires a branch length of at least 1")
        fresh = _fresh_names(g, edit.length)
        args = list(g.arguments) + fresh
        attacks = list(g.attacks)
        attacks.append((fresh[0], edit.root))
        for k in range(1, edit.length):
            attacks.append((fresh[k], fresh[k - 1]))
        return AttackGraph(args, attacks)
    if edit.kind == "remove":
        if edit.leaf is None:
            raise EditError("remove requires the branch tip")
        chain = set(_pendant_chain(g, edit.leaf, edit.root))
        args = [a for a in g.arguments if a not in chain]
        attacks = [
            (s, t) for (s, t) in g.attacks if s not in chain and t not in chain
        ]
        return AttackGraph(args, attacks)
    if edit.kind in ("lengthen", "shorten"):
        if edit.leaf is None or edit.length is None:
            raise EditError(f"{edit.kind} requires the branch tip and a new length")
        chain = _pendant_chain(g, edit.leaf, edit.root)
        old = len(chain)
        new = edit.length
        if new < 1:
            raise EditError("branch length must stay at least 1")
        if new % 2 != old % 2:
            raise EditError(
                "length change would flip the branch between attack and "
                "defence; use remove followed by add instead"
            )
        if edit.kind == "lengthen" and new <= old:
            raise EditError("lengthen requires a strictly larger length")
        if edit.kind == "shorten" and new >= old:
            raise EditError("shorten requires a strictly smaller length")
        without = edit_graph(g, BranchEdit("remove", edit.root, leaf=edit.leaf))
        return edit_graph(without, BranchEdit("add", edit.root, length=new))
    raise EditError(f"unknown edit kind {edit.kind!r}")


# -- graph families ------------------------------------------------------------

def generate_family(kind: str, *, size: int | None = None, seed: int | None = None,
                    density: float | None = None) -> AttackGraph:
    """Deterministic graph families used across the test suites.

    kind: "chain" (size n: An -> ... -> A1), "unattacked-cycle" (size k,
    isolated cycle C1 -> C2 -> ... -> C1), "attacked-cycle" (a leaf D
    attacking C1 of a k-cycle), "spider" (seeded chains all meeting at a
    root A), or "random" (seeded digraph over `size` arguments where each
    ordered pair, self-pairs included, attacks with probability `density`).
    """
    if kind in ("chain", "unattacked-cycle", "attacked-cycle") and (not size or size < 1):
        raise FrameworkError(f"{kind} requires size >= 1")
    if kind == "chain":
        # A(i+1), at index i, attacks Ai, at index i - 1
        return _generated([f"A{i}" for i in range(1, size + 1)],
                          [(i,) for i in range(1, size)] + [()])
    if kind == "unattacked-cycle":
        # Ci attacks C(i+1), and Ck attacks C1
        return _generated([f"C{i}" for i in range(1, size + 1)],
                          [((i - 1) % size,) for i in range(size)])
    if kind == "attacked-cycle":
        # D is 0, and cycle member Ci is i: D and Ck attack C1.
        return _generated(["D"] + [f"C{i}" for i in range(1, size + 1)],
                          [(), (0, size)] + [(i - 1,) for i in range(2, size + 1)])
    if kind == "spider":
        if size is not None and size < 1:
            raise FrameworkError("spider requires size >= 1")
        rng = random.Random(seed)
        branches = size if size else rng.randint(1, 4)
        args = ["A"]
        attackers: list[tuple[int, ...]] = [()]
        for b in range(1, branches + 1):
            length = rng.randint(1, 5)
            tip = len(args)  # X{b}_1, attacking the root A at 0
            args.extend(f"X{b}_{k}" for k in range(1, length + 1))
            attackers[0] += (tip,)
            attackers.extend((tip + k,) for k in range(1, length))
            attackers.append(())
        return _generated(args, attackers)
    if kind == "random":
        if size is None or density is None:
            raise FrameworkError("random requires size and density")
        return random_attack_graph(seed or 0, size, density)
    raise FrameworkError(f"unknown family {kind!r}")


def random_attack_graph(seed: int, size: int, density: float) -> AttackGraph:
    """Seeded digraph; every ordered pair (self-pairs included) attacks with
    probability `density`, drawn attacker by attacker."""
    names = _random_names(size)
    rng = random.Random(seed)
    attackers: list[list[int]] = [[] for _ in names]
    for src in range(size):
        for dst in range(size):
            if rng.random() < density:
                attackers[dst].append(src)
    return _generated(names, attackers)


def random_acyclic_graph(seed: int, size: int, density: float) -> AttackGraph:
    """Seeded acyclic digraph: only later-declared arguments attack earlier
    ones, so declaration order is a reverse topological order."""
    names = _random_names(size)
    rng = random.Random(seed)
    attackers = [
        [j for j in range(i + 1, size) if rng.random() < density]
        for i in range(size)
    ]
    return _generated(names, attackers)


def _random_names(size: int) -> list[str]:
    """The arguments a1 to a`size` of a seeded graph (size at least 0)."""
    if size < 0:
        raise FrameworkError("random requires size >= 0")
    return [f"a{i}" for i in range(1, size + 1)]


def _generated(args: list[str], attackers) -> AttackGraph:
    """A generator's graph: distinct names and each one's attackers as a
    row of indices, sorted and free of duplicates."""
    return AttackGraph._from_indices(
        args, {name: i for i, name in enumerate(args)}, tuple(map(tuple, attackers)))
