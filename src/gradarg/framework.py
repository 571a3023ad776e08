"""Attack graphs: finite argumentation systems over a binary attack relation.

This module owns the graph data structure and everything purely structural:
parsing and serialization of the textual framework format, DOT export,
attacker/defender queries, leaf and cycle detection, maximal interconnected
cycle unions ("mcycles"), branch edits used by the monotonicity suites, and
deterministic graph-family generators.

Framework text is parsed by one compiled pattern, built from a single
table of statement shapes and matched once per statement.  Only when it
fails is the text walked token by token, and only then are line and
column computed.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass

__all__ = [
    "AttackGraph",
    "BranchEdit",
    "EditError",
    "FrameworkError",
    "Mcycle",
    "ParseError",
    "PathQuery",
    "UnknownArgumentError",
    "edit_graph",
    "generate_family",
    "parse_framework",
    "random_acyclic_graph",
    "random_attack_graph",
]


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
class PathQuery:
    """A walk existence/count question: walks of exactly `length` edges.

    Length counts edges, so the trivial walk from an argument to itself
    has length 0.
    """

    source: str
    target: str
    length: int


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

    Arguments keep their declaration order, which fixes every ordering
    this package exposes (reports, serialization, iteration).
    """

    __slots__ = ("_args", "_index", "_attacks", "_attackers", "_targets",
                 "_condensation")

    def __init__(self, arguments, attacks=()):
        args: list[str] = []
        index: dict[str, int] = {}
        for name in arguments:
            if not isinstance(name, str) or not name:
                raise FrameworkError(f"invalid argument id: {name!r}")
            if name not in index:
                index[name] = len(args)
                args.append(name)
        attackers: dict[str, list[str]] = {a: [] for a in args}
        targets: dict[str, list[str]] = {a: [] for a in args}
        pairs: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for src, dst in attacks:
            for end in (src, dst):
                if end not in index:
                    raise UnknownArgumentError(f"undeclared argument: {end!r}")
            if (src, dst) in seen:
                continue
            seen.add((src, dst))
            pairs.append((src, dst))
            attackers[dst].append(src)
            targets[src].append(dst)
        self._args = tuple(args)
        self._index = index
        self._attacks = tuple(pairs)
        self._attackers = {a: tuple(v) for a, v in attackers.items()}
        self._targets = {a: tuple(v) for a, v in targets.items()}
        self._condensation = None

    # -- basic accessors ------------------------------------------------

    @property
    def arguments(self) -> tuple[str, ...]:
        return self._args

    @property
    def attacks(self) -> tuple[tuple[str, str], ...]:
        return self._attacks

    def __len__(self) -> int:
        return len(self._args)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttackGraph):
            return NotImplemented
        return self._args == other._args and set(self._attacks) == set(other._attacks)

    def __hash__(self):
        return hash((self._args, frozenset(self._attacks)))

    def __repr__(self) -> str:
        return f"AttackGraph({len(self._args)} arguments, {len(self._attacks)} attacks)"

    def index_of(self, name: str) -> int:
        self._check(name)
        return self._index[name]

    def _check(self, name: str) -> None:
        if name not in self._index:
            raise UnknownArgumentError(f"unknown argument: {name!r}")

    # -- neighbourhood queries -------------------------------------------

    def direct_attackers(self, name: str) -> frozenset[str]:
        self._check(name)
        return frozenset(self._attackers[name])

    def attackers_of(self, name: str) -> tuple[str, ...]:
        """Direct attackers in declaration-stable order."""
        self._check(name)
        return self._attackers[name]

    def targets_of(self, name: str) -> tuple[str, ...]:
        self._check(name)
        return self._targets[name]

    def direct_defenders(self, name: str) -> frozenset[str]:
        """Attackers of the direct attackers."""
        self._check(name)
        out: set[str] = set()
        for b in self._attackers[name]:
            out.update(self._attackers[b])
        return frozenset(out)

    def indirect_attackers(self, name: str) -> frozenset[str]:
        """Arguments with a walk to `name` of odd length at least 3."""
        return self._walk_class_into(name, 3)

    def indirect_defenders(self, name: str) -> frozenset[str]:
        """Arguments with a walk to `name` of even length at least 4."""
        return self._walk_class_into(name, 4)

    def _walk_class_into(self, name: str, wanted: int) -> frozenset[str]:
        # Walk-length classes 0, 1, 2, then 3 (odd >= 3) and 4 (even >= 4).
        self._check(name)
        reached = self.shortest_walks([(0, name, 0)], step=(1, 2, 3, 4, 3),
                                      backward=True)
        return frozenset(v for (v, c) in reached if c == wanted)

    def leaves(self) -> frozenset[str]:
        """Arguments with no attacker at all."""
        return frozenset(a for a in self._args if not self._attackers[a])

    def walk_count(self, query: PathQuery) -> int:
        """Number of walks of exactly `query.length` edges from source to target."""
        self._check(query.source)
        self._check(query.target)
        if query.length < 0:
            raise FrameworkError("walk length must be non-negative")
        counts = {a: 0 for a in self._args}
        counts[query.source] = 1
        for _ in range(query.length):
            nxt = {a: 0 for a in self._args}
            for (src, dst) in self._attacks:
                if counts[src]:
                    nxt[dst] += counts[src]
            counts = nxt
        return counts[query.target]

    def shortest_walks(self, seeds, step=(1, 0), *, backward=False,
                       within=None) -> dict[tuple[str, int], int]:
        """Breadth-first search over (argument, walk-length class) states.

        `seeds` are (length, argument, class) triples: walks known to exist.
        One more attack edge takes a walk of class c to class step[c], so
        step=(1, 0) tracks parity and step=(0,) plain distance.  Walks follow
        attacks forward (or backward, into an argument) and stay inside
        `within` when it is given.  Returns the length of the shortest walk
        reaching each reachable state.
        """
        adjacency = self._attackers if backward else self._targets
        pending = sorted(seeds, key=lambda seed: seed[0])
        shortest: dict[tuple[str, int], int] = {}
        frontier: list[tuple[str, int]] = []
        taken = 0
        length = 0
        while frontier or taken < len(pending):
            if not frontier:
                length = pending[taken][0]
            while taken < len(pending) and pending[taken][0] <= length:
                _, v, c = pending[taken]
                taken += 1
                if (v, c) not in shortest:
                    shortest[(v, c)] = length
                    frontier.append((v, c))
            length += 1
            nxt = []
            for (v, c) in frontier:
                c = step[c]
                for t in adjacency[v]:
                    if (t, c) not in shortest and (within is None or t in within):
                        shortest[(t, c)] = length
                        nxt.append((t, c))
            frontier = nxt
        return shortest

    # -- cycle structure ---------------------------------------------------

    def condensation(self) -> tuple[tuple[str, ...], ...]:
        """Strongly connected components in dependency order.

        Every attacker's component precedes its target's; among components
        whose attackers are all placed, the one holding the earliest
        declared argument comes first.  Members keep declaration order.
        Computed once per graph.
        """
        if self._condensation is None:
            self._condensation = self._condense()
        return self._condensation

    def _condense(self) -> tuple[tuple[str, ...], ...]:
        # Tarjan's algorithm, iterative, over declaration indices.  A
        # visited vertex with no component yet is still on the stack.
        n = len(self._args)
        succ = [
            [self._index[t] for t in self._targets[a]] for a in self._args
        ]
        indices = [-1] * n
        low = [0] * n
        comp_of = [-1] * n
        stack: list[int] = []
        components: list[list[int]] = []
        counter = 0
        for root in range(n):
            if indices[root] != -1:
                continue
            indices[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                v, later = work[-1]
                for w in later:
                    if indices[w] == -1:
                        indices[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        work.append((w, iter(succ[w])))
                        break
                    if comp_of[w] == -1:
                        low[v] = min(low[v], indices[w])
                else:
                    work.pop()
                    if low[v] == indices[v]:
                        comp = []
                        while not comp or comp[-1] != v:
                            comp.append(stack.pop())
                            comp_of[comp[-1]] = len(components)
                        components.append(sorted(comp))
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[v])
        # Kahn's algorithm over the components, smallest first index first.
        # waiting counts the attacks into each component from unplaced ones.
        waiting = [0] * len(components)
        for v in range(n):
            for w in succ[v]:
                if comp_of[w] != comp_of[v]:
                    waiting[comp_of[w]] += 1
        ready = [(comp[0], cid) for cid, comp in enumerate(components)
                 if not waiting[cid]]
        heapq.heapify(ready)
        order = []
        while ready:
            _, cid = heapq.heappop(ready)
            order.append(tuple(self._args[i] for i in components[cid]))
            for v in components[cid]:
                for w in succ[v]:
                    dep = comp_of[w]
                    if dep != cid:
                        waiting[dep] -= 1
                        if not waiting[dep]:
                            heapq.heappush(ready, (components[dep][0], dep))
        return tuple(order)

    def is_cyclic(self, component: tuple[str, ...]) -> bool:
        """True for a component that is a cycle union: more than one
        member, or a single self-attacker."""
        return len(component) > 1 or component[0] in self._attackers[component[0]]

    def strongly_connected_components(self) -> list[tuple[str, ...]]:
        """Components ordered by their earliest declared member."""
        return sorted(self.condensation(), key=lambda comp: self._index[comp[0]])

    def find_mcycles(self) -> list[Mcycle]:
        """Maximal interconnected cycle unions: the non-trivial strongly
        connected components (more than one member, or a self-attacker)."""
        out: list[Mcycle] = []
        for comp in self.strongly_connected_components():
            if not self.is_cyclic(comp):
                continue
            members = set(comp)
            inputs = tuple(
                m
                for m in comp
                if any(b not in members for b in self._attackers[m])
            )
            out.append(Mcycle(members=comp, inputs=inputs))
        return out

    def is_well_founded(self) -> bool:
        """True exactly when the graph has no cycle."""
        return not self.find_mcycles()

    def has_odd_cycle(self) -> bool:
        """True when some elementary cycle has odd length: an odd closed
        walk exists iff a union's first member reaches itself at odd
        parity, and an odd closed walk always contains an odd cycle."""
        for comp in self.condensation():
            if self.is_cyclic(comp):
                reached = self.shortest_walks([(0, comp[0], 0)], within=set(comp))
                if (comp[0], 1) in reached:
                    return True
        return False

    def topological_order(self) -> tuple[str, ...]:
        """Arguments ordered so every attacker precedes its target.

        Raises FrameworkError when the graph has a cycle.
        """
        order = self.condensation()
        if any(self.is_cyclic(comp) for comp in order):
            raise FrameworkError("graph contains a cycle; no topological order")
        return tuple(comp[0] for comp in order)

    # -- text formats -------------------------------------------------------

    def serialize(self) -> str:
        """Framework text: declarations in declaration order, then attacks
        sorted lexicographically."""
        lines = [f"arg({a})." for a in self._args]
        lines += [f"att({s},{t})." for (s, t) in sorted(self._attacks)]
        return "\n".join(lines) + "\n"

    def to_dot(self, name: str = "attack_graph") -> str:
        """Graphviz rendering with a stable node and edge order."""
        lines = [f"digraph {name} {{"]
        lines += [f'  "{a}";' for a in self._args]
        lines += [f'  "{s}" -> "{t}";' for (s, t) in sorted(self._attacks)]
        lines.append("}")
        return "\n".join(lines) + "\n"


# -- parsing ----------------------------------------------------------------

# The statement grammar, written once: each head's shape after the head,
# with "I" standing for an identifier and any other character for itself.
_SHAPES = {"arg": "(I).", "att": "(I,I)."}

_IDENT = "[A-Za-z0-9_]+"
# Unicode whitespace (`\s` and str.isspace accept the same characters) and
# % comments running to "\n".  A comment must reach the line end, or a
# failed statement could backtrack into it and match the text it hides.
_BLANK = r"\s*(?:%[^\n]*(?![^\n])\s*)*"


def _token(symbol: str) -> str:
    return f"({_IDENT})" if symbol == "I" else re.escape(symbol)


# One statement with the blank before it; the head's group is named after
# the head and encloses the statement's identifier groups.
_STATEMENT = re.compile(_BLANK + "(?:" + "|".join(
    f"(?P<{head}>{head}" + "".join(_BLANK + _token(s) for s in shape) + ")"
    for head, shape in _SHAPES.items()) + ")")
_BLANK_RE = re.compile(_BLANK)


def _error_at(text: str, pos: int, message: str) -> ParseError:
    # Lines count "\n" only; columns count characters from 1.
    return ParseError(message, text.count("\n", 0, pos) + 1,
                      pos - text.rfind("\n", 0, pos))


def _statement_error(text: str, pos: int) -> ParseError:
    """The error in the statement starting at `pos`, which the statement
    pattern rejected: the first of its tokens that breaks the grammar."""
    head = re.compile(_IDENT).match(text, pos)
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
    One compiled pattern matches each statement; only on failure is the
    text walked token by token, to name and locate the error.
    """
    args: list[str] = []
    attacks: list[tuple[str, str]] = []
    heads: list[int] = []
    pos = 0
    while (statement := _STATEMENT.match(text, pos)) is not None:
        pos = statement.end()
        _, name, _, src, dst = statement.groups()
        if name is not None:
            args.append(name)
        else:
            attacks.append((src, dst))
            heads.append(statement.start("att"))
    pos = _BLANK_RE.match(text, pos).end()
    if pos < len(text):
        raise _statement_error(text, pos)
    declared = set(args)
    for (src, dst), head in zip(attacks, heads):
        for end in (src, dst):
            if end not in declared:
                raise _error_at(text, head, f"undeclared argument {end!r}")
    return AttackGraph(args, attacks)


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
    interior nodes must be attacked only by their predecessor.
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
        if nxt in chain:
            raise EditError("branch loops back on itself")
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
    if kind == "chain":
        if not size or size < 1:
            raise FrameworkError("chain requires size >= 1")
        args = [f"A{i}" for i in range(1, size + 1)]
        attacks = [(f"A{i + 1}", f"A{i}") for i in range(1, size)]
        return AttackGraph(args, attacks)
    if kind == "unattacked-cycle":
        if not size or size < 1:
            raise FrameworkError("unattacked-cycle requires size >= 1")
        args = [f"C{i}" for i in range(1, size + 1)]
        attacks = [
            (f"C{i}", f"C{i % size + 1}") for i in range(1, size + 1)
        ]
        return AttackGraph(args, attacks)
    if kind == "attacked-cycle":
        if not size or size < 1:
            raise FrameworkError("attacked-cycle requires size >= 1")
        cycle = generate_family("unattacked-cycle", size=size)
        args = ["D"] + list(cycle.arguments)
        attacks = [("D", "C1")] + list(cycle.attacks)
        return AttackGraph(args, attacks)
    if kind == "spider":
        rng = random.Random(seed)
        branches = size if size else rng.randint(1, 4)
        args = ["A"]
        attacks = []
        for b in range(1, branches + 1):
            length = rng.randint(1, 5)
            chain = [f"X{b}_{k}" for k in range(1, length + 1)]
            args.extend(chain)
            attacks.append((chain[0], "A"))
            for k in range(1, length):
                attacks.append((chain[k], chain[k - 1]))
        return AttackGraph(args, attacks)
    if kind == "random":
        if size is None or density is None:
            raise FrameworkError("random requires size and density")
        return random_attack_graph(seed or 0, size, density)
    raise FrameworkError(f"unknown family {kind!r}")


def random_attack_graph(seed: int, size: int, density: float) -> AttackGraph:
    """Seeded digraph; every ordered pair (self-pairs included) attacks with
    probability `density`."""
    rng = random.Random(seed)
    args = [f"a{i}" for i in range(1, size + 1)]
    attacks = [
        (src, dst)
        for src in args
        for dst in args
        if rng.random() < density
    ]
    return AttackGraph(args, attacks)


def random_acyclic_graph(seed: int, size: int, density: float) -> AttackGraph:
    """Seeded acyclic digraph: only later-declared arguments attack earlier
    ones, so declaration order is a reverse topological order."""
    rng = random.Random(seed)
    args = [f"a{i}" for i in range(1, size + 1)]
    attacks = [
        (args[j], args[i])
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < density
    ]
    return AttackGraph(args, attacks)
