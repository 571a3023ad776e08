import hashlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import load_fixture

import gradarg
from gradarg import (
    AttackGraph,
    BranchEdit,
    EditError,
    FrameworkError,
    ParseError,
    UnknownArgumentError,
    edit_graph,
    generate_family,
    parse_framework,
    random_acyclic_graph,
    random_attack_graph,
)
from gradarg.framework import _CHUNK


# Pieces of the seeded parser corpus: identifiers valid and not (ASCII
# only), every kind of blank the grammar must skip or reject, comments with
# and without a closing newline, and whole statements.
CORPUS_IDENTS = ("a", "b", "c", "Z9", "_", "0", "x_1", "é", "aé")
CORPUS_BLANKS = (" ", "\n", "\r\n", "\t", "\xa0", "\x1c", "\u2028",
                 "% note\n", "% arg(b). ", "%%\r\n", "%")
CORPUS_PIECES = (("arg", "att", "argx", "(", ")", ",", ".")
                 + CORPUS_IDENTS + CORPUS_BLANKS + ("arg(a).", "att(a,b)."))

# sha256 of every corpus text with its outcome, recorded with the
# character-scanner parser that preceded the statement pattern.
PARSER_CORPUS_SHA256 = (
    "79cb0c289d77d189c8e276edaba749c478bcf9b794b04ad04a2bc96c9e13a573")


def _parser_corpus(seed, count):
    """Texts of up to four statements, some edited by deleting, replacing
    or inserting one piece, with random blanks between the tokens."""
    rng = random.Random(seed)
    for _ in range(count):
        tokens = []
        for _ in range(rng.randint(0, 4)):
            head = rng.choice(("arg",) * 6 + ("att",) * 4
                              + ("argx", rng.choice(CORPUS_IDENTS)))
            shape = "(I,I)." if head == "att" else "(I)."
            tokens.append(head)
            tokens += [rng.choice(CORPUS_IDENTS[:3] * 8 + CORPUS_IDENTS)
                       if s == "I" else s for s in shape]
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            at = rng.randint(0, len(tokens))
            tokens[at:at + rng.randint(0, 1)] = (
                [rng.choice(CORPUS_PIECES)][:rng.randint(0, 1)])
        text = ""
        for token in tokens + [""]:
            while rng.random() < 0.25:
                text += rng.choice(CORPUS_BLANKS)
            text += token
        yield text


def _parse_outcome(text):
    try:
        g = parse_framework(text)
    except ParseError as exc:
        return ["ParseError", str(exc), exc.line, exc.column]
    except FrameworkError as exc:
        return [type(exc).__name__, str(exc)]
    return [list(g.arguments), [list(pair) for pair in g.attacks]]


def _chunked_statements():
    """Statements over three parser chunks, each with the blank before it,
    the names each one names, and the declared names in order.  Blanks are
    " " and "\r\n"; most attacks name an argument declared later; and a
    comment holding "." and "%" runs across the end of the first chunk."""
    rng = random.Random(34)
    size = 6000
    names = [f"a{i}" for i in range(size)]
    statements, named = [], []
    length = 0
    for name in names:
        src = names[rng.randrange(size)]
        for statement, ends in ((f"arg({name}).", (name,)),
                                (f"att({src}, {name} ) .", (src, name))):
            blank = rng.choice((" ", "\r\n", "  \r\n "))
            if length + len(blank) + len(statement) > _CHUNK - 10 > length:
                blank = " " * (_CHUNK - 10 - length) + "% cut. 100%. here\r\n"
            statements.append(blank + statement)
            named.append(ends)
            length += len(statements[-1])
    return statements, named, names


class TestParsing:
    def test_basic_round_trip(self):
        g = parse_framework("arg(a). arg(b). att(b,a).")
        assert g.arguments == ("a", "b")
        assert g.attacks == (("b", "a"),)
        assert parse_framework(g.serialize()) == g

    @pytest.mark.parametrize(
        "name",
        ["example1", "example2", "example4", "example4_hatched",
         "example6", "example7", "example8", "mcycles", "star3"],
    )
    def test_fixture_round_trip(self, name):
        g = load_fixture(name)
        assert parse_framework(g.serialize()) == g

    def test_comments_and_whitespace(self):
        text = "% header\narg(a).% trailing\n  arg( b ) .\natt(b,a).\n"
        g = parse_framework(text)
        assert g.arguments == ("a", "b")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_framework("arg(a).\narg(b)\natt(b,a).")
        assert err.value.line == 3  # the missing '.' is noticed at 'att'
        assert "expected" in str(err.value)

    def test_unknown_statement(self):
        with pytest.raises(ParseError) as err:
            parse_framework("arg(a).\nfoo(a).")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_undeclared_attack_endpoint(self):
        with pytest.raises(ParseError) as err:
            parse_framework("arg(a).\n  att( a ,\nzz).")
        assert str(err.value) == "line 2, column 3: undeclared argument 'zz'"

    def test_attacks_may_precede_declarations(self):
        g = parse_framework("att(b,a). arg(a). arg(b).")
        assert g.arguments == ("a", "b")
        assert g.attacks == (("b", "a"),)

    def test_statements_inside_comments_are_ignored(self):
        g = parse_framework("arg(a). % arg(b). arg(c).\narg(d).")
        assert g.arguments == ("a", "d")

    def test_comment_may_end_the_input(self):
        assert parse_framework("arg(a). % no newline").arguments == ("a",)

    @pytest.mark.parametrize("separator", ["\u2028", "\x1c"])
    def test_only_newline_advances_the_line(self, separator):
        with pytest.raises(ParseError) as err:
            parse_framework(f"arg(a).{separator}foo(a).")
        assert str(err.value) == "line 1, column 9: unknown statement 'foo'"

    def test_identifiers_are_ascii(self):
        with pytest.raises(ParseError) as err:
            parse_framework("arg(é).")
        assert str(err.value) == "line 1, column 5: expected identifier, found 'é'"

    def test_long_blank_run_parses_in_linear_time(self):
        # A fresh interpreter under a timeout, so that a parser which
        # backtracks quadratically fails here instead of hanging the suite.
        script = (
            "from gradarg import ParseError, parse_framework\n"
            "try:\n"
            "    parse_framework(' ' * (1 << 20) + 'x')\n"
            "except ParseError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gradarg.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=10)
        assert done.stdout == "line 1, column 1048577: unknown statement 'x'\n"

    def test_chunks_parse_as_their_statements_do(self):
        statements, named, names = _chunked_statements()
        text = "".join(statements)
        assert len(text) > 2 * _CHUNK
        attacks = set()
        for k in range(0, len(statements), 4):
            # a few statements, then a declaration of every name they name
            declared = "".join(f"arg({name})." for ends in named[k:k + 4] for name in ends)
            attacks.update(parse_framework("".join(statements[k:k + 4]) + declared).attacks)
        _assert_same_graph(parse_framework(text), AttackGraph(names, sorted(attacks)))

    @pytest.mark.parametrize("bad, at, message", [
        ("att(a1;a2).", 6, "expected ',', found ';'"),
        ("att(a1,zz).", 0, "undeclared argument 'zz'"),
    ])
    def test_an_error_in_a_later_chunk_keeps_its_position(self, bad, at, message):
        statements, _, _ = _chunked_statements()
        k = len(statements) * 3 // 4
        text = "".join(statements[:k]) + "\r\n " + bad + "".join(statements[k:])
        pos = len("".join(statements[:k])) + 3 + at
        assert pos > 2 * _CHUNK
        line = text.count("\n", 0, pos) + 1
        column = pos - text.rfind("\n", 0, pos)
        with pytest.raises(ParseError) as err:
            parse_framework(text)
        assert str(err.value) == f"line {line}, column {column}: {message}"

    def test_outcomes_match_the_frozen_corpus_digest(self):
        digest = hashlib.sha256()
        for text in _parser_corpus(seed=20261018, count=5000):
            record = json.dumps([text, _parse_outcome(text)])
            digest.update(record.encode() + b"\n")
        assert digest.hexdigest() == PARSER_CORPUS_SHA256

    def test_duplicate_attacks_collapse(self):
        g = parse_framework("arg(a). arg(b). att(a,b). att(a,b).")
        assert g.attacks == (("a", "b"),)

    def test_parse_holds_no_second_copy_of_the_attacks(self):
        # A chain written declarations first: every attack can become an
        # index pair as it is read, so the parse's transient memory stays
        # below what the graph it returns holds.
        n = 20000
        text = ("".join(f"arg(a{i}).\n" for i in range(n))
                + "".join(f"att(a{i},a{i - 1}).\n" for i in range(1, n)))
        tracemalloc.start()
        try:
            g = parse_framework(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.attacks) == n - 1
        assert peak <= 2.0 * held

    def test_syntax_error_wins_over_an_undeclared_endpoint(self):
        with pytest.raises(ParseError) as err:
            parse_framework("att(a,zz). arg(a). att(a,a). foo(a).")
        assert str(err.value) == "line 1, column 30: unknown statement 'foo'"

    def test_first_undeclared_endpoint_is_reported(self):
        with pytest.raises(ParseError) as err:
            parse_framework("att(a,zz). att(yy,a). arg(a).")
        assert str(err.value) == "line 1, column 1: undeclared argument 'zz'"

    # Each name here is one the framework text cannot hold: serialize() and
    # to_dot() would write output that does not parse back.
    @pytest.mark.parametrize("name", ["", 7, None, "a b", 'c"d', "é", "a\n", "a."])
    def test_construction_rejects_invalid_ids(self, name):
        with pytest.raises(FrameworkError) as caught:
            AttackGraph(["a", name])
        assert str(caught.value) == f"invalid argument id: {name!r}"

    def test_construction_rejects_unknown_endpoints(self):
        with pytest.raises(UnknownArgumentError):
            AttackGraph(("a",), (("a", "b"),))


def _assert_same_graph(g, rebuilt):
    assert g == rebuilt and rebuilt == g
    assert hash(g) == hash(rebuilt)
    assert g.arguments == rebuilt.arguments
    assert g.attacks == rebuilt.attacks
    for name in g.arguments:
        assert g.attackers_of(name) == rebuilt.attackers_of(name)
        assert g.targets_of(name) == rebuilt.targets_of(name)
    assert g.condensation() == rebuilt.condensation()


class TestConstructionPaths:
    """The parser and the generators build graphs without checking their
    endpoints a second time; the public constructor checks everything.
    Both must give the same graph."""

    def test_parsed_corpus(self):
        parsed = 0
        for text in _parser_corpus(seed=20261018, count=5000):
            try:
                g = parse_framework(text)
            except ParseError:
                continue
            parsed += 1
            _assert_same_graph(g, AttackGraph(g.arguments, g.attacks))
        assert parsed > 1000

    def test_duplicate_statements(self):
        text = ("arg(a). arg(b). arg(a). att(b,a). att(a,a). att(b,a).\n"
                "att(a,c). arg(c). att(a,a). arg(b). att(c,b).")
        g = parse_framework(text)
        assert g.arguments == ("a", "b", "c")
        _assert_same_graph(g, AttackGraph(g.arguments, g.attacks))
        _assert_same_graph(g, AttackGraph(
            ["a", "b", "a", "c", "b"],
            [("b", "a"), ("a", "a"), ("b", "a"), ("a", "c"), ("a", "a"), ("c", "b")]))

    def test_the_written_order_of_attacks_is_not_kept(self):
        # c is declared first, so declaration order is not name order
        declarations = "arg(c). arg(a). arg(b). "
        attacks = ["att(b,a).", "att(a,a).", "att(a,c).", "att(c,b).", "att(b,c)."]
        texts = {
            "given": declarations + " ".join(attacks),
            "shuffled": declarations + " ".join(attacks[::-1]),
            "repeated": declarations + " ".join(attacks + attacks[1::2]),
            "attacks first": " ".join(attacks) + declarations,
        }
        graphs = {way: parse_framework(text) for way, text in texts.items()}
        graphs["constructed"] = AttackGraph(
            "cab", [tuple(a[4:7].split(",")) for a in attacks[::-1] * 2])
        g = graphs.pop("given")
        assert g.attacks == (("c", "b"), ("a", "c"), ("a", "a"), ("b", "c"), ("b", "a"))
        assert [g.attackers_of(x) for x in "cab"] == [("a", "b"), ("a", "b"), ("c",)]
        assert [g.targets_of(x) for x in "cab"] == [("b",), ("c", "a"), ("c", "a")]
        for way, other in graphs.items():
            assert other.arguments == g.arguments, way
            _assert_same_graph(g, other)

    def test_generated_graphs(self):
        graphs = []
        for seed in range(150):
            size = 1 + seed % 40
            density = (0.03, 0.1, 0.3)[seed % 3]
            graphs.append(random_attack_graph(seed, size, density))
            graphs.append(random_acyclic_graph(seed, size, density))
        for size in (1, 2, 5):
            graphs += [generate_family(kind, size=size) for kind in
                       ("chain", "unattacked-cycle", "attacked-cycle")]
        graphs += [generate_family("spider", seed=seed) for seed in range(5)]
        stream = gradarg.scan_graph_stream(3)
        graphs += [next(stream) for _ in range(100)]
        for g in graphs:
            _assert_same_graph(g, AttackGraph(g.arguments, g.attacks))


class TestNeighbourhoods:
    def test_direct_attackers_and_defenders(self):
        g = load_fixture("example2")
        assert g.direct_attackers("A") == {"C2", "B1", "B2"}
        assert g.direct_defenders("A") == {"C1", "C2", "C3"}

    def test_indirect_attackers(self):
        g = load_fixture("example2")
        assert g.indirect_attackers("A") == {"D1", "D2"}

    def test_indirect_defenders(self):
        g = load_fixture("example2")
        assert g.indirect_defenders("A") == {"E1"}

    def test_leaves(self):
        g = load_fixture("example2")
        assert g.leaves() == {"D1", "C2", "E1"}

    def test_walk_counts(self):
        g = load_fixture("example2")
        assert g.walk_count("C2", "A", 2) == 1
        assert g.walk_count("A", "A", 0) == 1
        # two distinct 3-edge loops pass through A1
        assert g.walk_count("A1", "A1", 3) == 2
        assert g.walk_count("E1", "A", 4) == 1
        assert g.walk_count("E1", "A", 3) == 0

    def test_walk_length_must_be_non_negative(self):
        g = load_fixture("example2")
        with pytest.raises(FrameworkError, match="^walk length must be non-negative$"):
            g.walk_count("A", "A", -1)

    def test_indirect_queries_use_cycle_pumping(self):
        # D -> C1 -> C2 -> C3 -> C1: the only odd walks from D into C1 are
        # 1 + 3k edges long, so D qualifies only via a lap around the cycle.
        g = generate_family("attacked-cycle", size=3)
        assert g.indirect_attackers("C1") == {"D", "C1", "C2", "C3"}
        assert g.indirect_defenders("C1") == {"D", "C1", "C2", "C3"}

    def test_unknown_argument_raises(self):
        g = load_fixture("example1")
        with pytest.raises(UnknownArgumentError):
            g.direct_attackers("nope")


class TestCycleStructure:
    def test_mcycle_fixture(self):
        g = load_fixture("mcycles")
        mcycles = g.find_mcycles()
        assert [set(mc.members) for mc in mcycles] == [
            {"I", "J", "K", "L"},
            {"B", "C", "D", "E"},
            {"F", "G"},
        ]
        assert all(mc.is_isolated for mc in mcycles)

    def test_mcycle_inputs(self):
        g = load_fixture("example8")
        (mc,) = g.find_mcycles()
        assert set(mc.members) == {"A", "B"}
        assert mc.inputs == ("A",)
        assert not mc.is_isolated

    def test_interconnected_cycles_merge(self):
        g = load_fixture("example2")
        cyclic = [mc for mc in g.find_mcycles()]
        assert len(cyclic) == 1
        assert set(cyclic[0].members) == {"A1", "A2", "A3", "A4"}

    def test_self_loop_is_an_mcycle(self):
        g = parse_framework("arg(a). att(a,a).")
        (mc,) = g.find_mcycles()
        assert mc.members == ("a",)

    def test_well_foundedness(self):
        assert load_fixture("example4").is_well_founded()
        assert not load_fixture("example7").is_well_founded()

    def test_odd_cycle_detection(self):
        assert not generate_family("unattacked-cycle", size=2).has_odd_cycle()
        assert not generate_family("unattacked-cycle", size=4).has_odd_cycle()
        assert generate_family("unattacked-cycle", size=3).has_odd_cycle()
        assert load_fixture("example2").has_odd_cycle()
        assert not load_fixture("example8").has_odd_cycle()
        # the even 2-cycle C<->E hangs off the odd 3-cycle B-C-D
        assert load_fixture("mcycles").has_odd_cycle()

    def test_topological_order(self):
        g = load_fixture("example4")
        order = g.topological_order()
        position = {a: i for i, a in enumerate(order)}
        for src, dst in g.attacks:
            assert position[src] < position[dst]

    def test_topological_order_rejects_cycles(self):
        with pytest.raises(FrameworkError):
            load_fixture("example7").topological_order()


def _walk_class(length: int, step) -> int:
    """Class of a walk of `length` edges under a step table from class 0."""
    c = 0
    for _ in range(length):
        c = step[c]
    return c


def _brute_shortest(g, seeds, step, *, backward=False, limit):
    """Shortest walk per (argument, class), by counting walks of every
    length up to `limit` from each seed."""
    out = {}
    for offset, seed, _ in seeds:
        for length in range(limit + 1):
            cls = _walk_class(length, step)
            for v in g.arguments:
                ends = (v, seed) if backward else (seed, v)
                if g.walk_count(*ends, length) and out.get((v, cls), limit + offset + 1) > offset + length:
                    out[(v, cls)] = offset + length
    return out


def _shortest_walks(g, seeds, step=(1, 0), *, backward=False, within=None):
    """`AttackGraph._shortest_walks` on names: seeds and `within` given by
    argument name, walks into an argument when `backward`."""
    if within is not None:
        within = set(map(g.index_of, within))
    reached = g._shortest_walks([(length, g.index_of(v), c) for (length, v, c) in seeds],
                                step, g._attackers if backward else g._targets, within)
    return {(g.arguments[v], c): length for (v, c), length in reached.items()}


def _small_graphs():
    for seed in range(40):
        yield random_attack_graph(seed, 3 + seed % 5, (0.2, 0.3, 0.45)[seed % 3])


class TestShortestWalks:
    def test_parity_search_matches_walk_counts(self):
        for g in _small_graphs():
            limit = 2 * len(g) + 1
            for source in g.arguments:
                for backward in (False, True):
                    seeds = [(0, source, 0)]
                    assert _shortest_walks(g, seeds, backward=backward) == _brute_shortest(
                        g, seeds, (1, 0), backward=backward, limit=limit
                    ), (g.serialize(), source, backward)

    def test_length_classes_match_walk_counts(self):
        step = (1, 2, 3, 4, 3)  # 0, 1, 2, odd >= 3, even >= 4
        for g in _small_graphs():
            for target in g.arguments:
                seeds = [(0, target, 0)]
                got = _shortest_walks(g, seeds, step=step, backward=True)
                assert got == _brute_shortest(
                    g, seeds, step, backward=True, limit=2 * len(g) + 2
                )
                assert g.indirect_attackers(target) == {v for (v, c) in got if c == 3}
                assert g.indirect_defenders(target) == {v for (v, c) in got if c == 4}

    def test_offset_seeds_inside_a_component(self):
        for g in _small_graphs():
            for comp in g.condensation():
                inner = AttackGraph(comp, [(s, t) for (s, t) in g.attacks
                                           if s in comp and t in comp])
                seeds = [(3 * k + 1, m, 0) for k, m in enumerate(comp)]
                got = _shortest_walks(g, seeds, step=(0,), within=set(comp))
                assert got == _brute_shortest(inner, seeds, (0,), limit=len(comp))

    def test_a_state_seeded_twice_keeps_the_shorter_length(self):
        g = parse_framework("arg(a). arg(b). arg(c). att(a,b). att(b,c).")
        assert _shortest_walks(g, [(5, "a", 0), (0, "a", 0)]) == {
            ("a", 0): 0, ("b", 1): 1, ("c", 0): 2}
        # c's seed at 1, listed last, beats its seed at 3 and the walk of 2 from a
        assert _shortest_walks(g, [(0, "a", 0), (3, "c", 0), (1, "c", 0)], step=(0,)) == {
            ("a", 0): 0, ("b", 0): 1, ("c", 0): 1}
        for g in _small_graphs():
            limit = 2 * len(g) + 5
            for source in g.arguments:
                other = g.arguments[(g.index_of(source) + 1) % len(g)]
                seeds = [(4, source, 0), (3, other, 0), (1, source, 0), (0, other, 0)]
                for backward in (False, True):
                    assert _shortest_walks(g, seeds, backward=backward) == _brute_shortest(
                        g, seeds, (1, 0), backward=backward, limit=limit
                    ), (g.serialize(), source, backward)


class TestCondensation:
    def test_dependency_order_and_members(self):
        for g in _small_graphs():
            order = g.condensation()
            assert g.condensation() is order
            position = {m: k for k, comp in enumerate(order) for m in comp}
            assert sorted(position) == sorted(g.arguments)
            for src, dst in g.attacks:
                assert position[src] <= position[dst]
            for comp in order:
                assert list(comp) == sorted(comp, key=g.index_of)
            assert sorted(map(set, order), key=min) == sorted(
                map(set, g.strongly_connected_components()), key=min
            )

    def test_topological_order_is_a_dependency_order(self):
        for seed in range(40):
            g = random_acyclic_graph(seed, 3 + seed % 9, 0.35)
            _assert_condensation(g)
            _assert_dependency_order(g, [(a,) for a in g.topological_order()])

    def test_cyclic_order_is_a_dependency_order(self):
        cyclic = 0
        for seed in range(60):
            g = random_attack_graph(seed, 4 + seed % 12, 0.2)
            cyclic += any(len(comp) > 1 for comp in _reach_condensation(g))
            _assert_condensation(g)
        assert cyclic >= 30

    def test_large_graphs_match_the_reach_oracle(self):
        for seed in range(4):
            rng = random.Random(seed)
            size = rng.randint(100, 300)
            names = [f"v{i}" for i in range(size)]
            rng.shuffle(names)
            # blocks of the shuffled names, each a cycle with chords, and
            # attacks between blocks only from an earlier block to a later one
            cuts = sorted(rng.sample(range(1, size), 12))
            blocks = [names[i:j] for i, j in zip([0] + cuts, cuts + [size])]
            attacks = []
            for block in blocks:
                attacks += [(block[k - 1], block[k]) for k in range(1, len(block))]
                if len(block) > 1:
                    attacks.append((block[-1], block[0]))
                attacks += [(rng.choice(block), rng.choice(block)) for _ in range(len(block) // 3)]
            for _ in range(size):
                i, j = sorted(rng.sample(range(len(blocks)), 2))
                attacks.append((rng.choice(blocks[i]), rng.choice(blocks[j])))
            g = AttackGraph(sorted(names, key=lambda n: int(n[1:])), attacks)
            assert sum(len(comp) > 1 for comp in _reach_condensation(g)) >= 5
            _assert_condensation(g)

    @pytest.mark.parametrize("cycle_first", [True, False])
    def test_a_long_cycle_fed_by_a_long_chain(self, cycle_first):
        n = 5000
        chain = [f"X{k}" for k in range(1, n + 1)]  # X(k+1) attacks Xk, X1 attacks C1
        cycle = [f"C{k}" for k in range(1, n + 1)]
        attacks = [(chain[k], chain[k - 1]) for k in range(1, n)] + [("X1", "C1")]
        attacks += [(cycle[k - 1], cycle[k % n]) for k in range(1, n + 1)]
        g = AttackGraph(cycle + chain if cycle_first else chain + cycle, attacks)
        assert g.condensation() == tuple((x,) for x in reversed(chain)) + (tuple(cycle),)

    @pytest.mark.parametrize("shape", ["isolated", "chain"])
    def test_the_condensation_holds_8_bytes_an_argument(self, shape):
        # an argument outside every cycle union is one entry of a flat
        # order, not a component tuple of its own
        n = 100_000
        g = (AttackGraph([f"a{i}" for i in range(n)]) if shape == "isolated"
             else generate_family("chain", size=n))
        tracemalloc.start()
        try:
            g._components()  # kept by the graph
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 16 * n
        assert g.is_well_founded() and len(g.condensation()) == n


def _reach_condensation(g):
    """The components by reach sets: each argument's component is the set
    of arguments that it reaches and that reach it."""
    reach = {}
    for a in g.arguments:
        seen, todo = {a}, [a]
        while todo:
            for t in g.targets_of(todo.pop()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[a] = seen
    return {frozenset(b for b in reach[a] if a in reach[b]) for a in g.arguments}


def _assert_dependency_order(g, order):
    """`order`, a sequence of groups of arguments, holds every argument
    once and puts no attack's target in a group before its source's."""
    position = {m: k for k, group in enumerate(order) for m in group}
    members = [m for group in order for m in group]
    assert sorted(members) == sorted(position) == sorted(g.arguments)
    assert all(position[src] <= position[dst] for src, dst in g.attacks)


def _assert_condensation(g):
    """The condensation has the reach oracle's components, in a dependency
    order, with members in declaration order."""
    order = g.condensation()
    assert set(map(frozenset, order)) == _reach_condensation(g)
    _assert_dependency_order(g, order)
    for comp in order:
        assert list(comp) == sorted(comp, key=g.index_of)


class TestSerialization:
    def test_serialize_is_stable(self):
        g = load_fixture("example6")
        assert g.serialize() == g.serialize()
        assert g.serialize().startswith("arg(A).\n")

    def test_dot_export(self):
        g = parse_framework("arg(a). arg(b). att(b,a).")
        dot = g.to_dot()
        assert dot.splitlines()[0] == "digraph attack_graph {"
        assert '  "b" -> "a";' in dot
        assert dot.endswith("}\n")


class TestEdits:
    def test_add_branch(self):
        g = parse_framework("arg(r).")
        edited = edit_graph(g, BranchEdit("add", "r", length=3))
        assert edited.arguments == ("r", "x1", "x2", "x3")
        assert set(edited.attacks) == {("x1", "r"), ("x2", "x1"), ("x3", "x2")}

    def test_add_picks_unused_names(self):
        g = parse_framework("arg(r). arg(x1).")
        edited = edit_graph(g, BranchEdit("add", "r", length=1))
        assert "x2" in edited.arguments

    def test_remove_branch(self):
        g = parse_framework("arg(r). arg(b). arg(c). att(b,r). att(c,b).")
        edited = edit_graph(g, BranchEdit("remove", "r", leaf="c"))
        assert edited == parse_framework("arg(r).")

    def test_remove_rejects_attacked_tip(self):
        g = parse_framework("arg(r). arg(b). arg(c). att(b,r). att(c,b).")
        with pytest.raises(EditError):
            edit_graph(g, BranchEdit("remove", "r", leaf="b"))

    def test_remove_rejects_shared_branch(self):
        g = parse_framework(
            "arg(r). arg(s). arg(b). att(b,r). att(b,s)."
        )
        with pytest.raises(EditError):
            edit_graph(g, BranchEdit("remove", "r", leaf="b"))

    @pytest.mark.parametrize("text", [
        # b has a second attacker d
        "arg(r). arg(b). arg(c). arg(d). att(b,r). att(c,b). att(d,b).",
        # b attacks both r and s
        "arg(r). arg(s). arg(b). arg(c). att(b,r). att(b,s). att(c,b).",
    ])
    def test_remove_rejects_an_unclean_interior(self, text):
        with pytest.raises(EditError, match="^'b' does not lie on a clean branch$"):
            edit_graph(parse_framework(text), BranchEdit("remove", "r", leaf="c"))

    @pytest.mark.parametrize("edit, message", [
        (BranchEdit("add", "r"), "add requires a branch length of at least 1"),
        (BranchEdit("add", "r", length=0), "add requires a branch length of at least 1"),
        (BranchEdit("remove", "r"), "remove requires the branch tip"),
        (BranchEdit("lengthen", "r", leaf="d"),
         "lengthen requires the branch tip and a new length"),
        (BranchEdit("shorten", "r", length=1),
         "shorten requires the branch tip and a new length"),
        (BranchEdit("shorten", "r", leaf="d", length=-1),
         "branch length must stay at least 1"),
        (BranchEdit("lengthen", "r", leaf="d", length=1),
         "lengthen requires a strictly larger length"),
        (BranchEdit("lengthen", "r", leaf="d", length=3),
         "lengthen requires a strictly larger length"),
        (BranchEdit("shorten", "r", leaf="d", length=5),
         "shorten requires a strictly smaller length"),
        (BranchEdit("shorten", "r", leaf="d", length=3),
         "shorten requires a strictly smaller length"),
        (BranchEdit("graft", "r"), "unknown edit kind 'graft'"),
    ])
    def test_edit_argument_errors(self, edit, message):
        g = parse_framework("arg(r). arg(b). arg(c). arg(d). "
                            "att(b,r). att(c,b). att(d,c).")
        with pytest.raises(EditError) as caught:
            edit_graph(g, edit)
        assert str(caught.value) == message

    def test_long_branch_edits_take_linear_time(self):
        chain = [f"c{i}" for i in range(20_000)]
        g = AttackGraph(["r", *chain], [("c0", "r"), *zip(chain[1:], chain)])
        start = time.process_time()
        removed = edit_graph(g, BranchEdit("remove", "r", leaf=chain[-1]))
        lengthened = edit_graph(
            g, BranchEdit("lengthen", "r", leaf=chain[-1], length=20_002))
        assert time.process_time() - start < 1.0
        assert removed.arguments == ("r",)
        assert len(lengthened) == 20_003 and lengthened.is_well_founded()

    def test_lengthen_preserves_parity(self):
        g = parse_framework("arg(r). arg(b). att(b,r).")
        edited = edit_graph(g, BranchEdit("lengthen", "r", leaf="b", length=3))
        assert len(edited) == 4

    def test_parity_flip_is_rejected(self):
        g = parse_framework("arg(r). arg(b). att(b,r).")
        with pytest.raises(EditError, match="flip"):
            edit_graph(g, BranchEdit("lengthen", "r", leaf="b", length=2))

    def test_shorten(self):
        g = parse_framework("arg(r). arg(b). arg(c). arg(d). "
                            "att(b,r). att(c,b). att(d,c).")
        edited = edit_graph(g, BranchEdit("shorten", "r", leaf="d", length=1))
        assert len(edited) == 2


# (kind, size, least size): every sized family rejects a missing or
# non-positive size; a spider without a size draws its branch count, and a
# random graph may be empty.
SIZE_ERRORS = [
    *((kind, size, 1) for size in (None, 0, -2)
      for kind in ("attacked-cycle", "chain", "unattacked-cycle")),
    ("spider", 0, 1), ("spider", -2, 1), ("random", -3, 0),
]


class TestFamilies:
    def test_chain(self):
        g = generate_family("chain", size=4)
        assert g.arguments == ("A1", "A2", "A3", "A4")
        assert set(g.attacks) == {("A2", "A1"), ("A3", "A2"), ("A4", "A3")}

    def test_unattacked_cycle(self):
        g = generate_family("unattacked-cycle", size=3)
        assert set(g.attacks) == {("C1", "C2"), ("C2", "C3"), ("C3", "C1")}
        assert g.find_mcycles()[0].is_isolated

    def test_attacked_cycle(self):
        g = generate_family("attacked-cycle", size=2)
        assert ("D", "C1") in g.attacks

    def test_spider_is_chains_into_root(self):
        g = generate_family("spider", seed=7)
        assert g.is_well_founded()
        root_attackers = g.attackers_of("A")
        assert root_attackers
        for tip in g.leaves():
            # each leaf walks a unique chain ending at the root
            current, length = tip, 0
            while current != "A":
                (current,) = g.targets_of(current)
                length += 1
            assert length >= 1

    def test_generators_are_deterministic(self):
        assert generate_family("spider", seed=3) == generate_family("spider", seed=3)
        a = random_attack_graph(seed=5, size=6, density=0.3)
        b = random_attack_graph(seed=5, size=6, density=0.3)
        assert a == b
        assert random_acyclic_graph(2, 8, 0.4) == random_acyclic_graph(2, 8, 0.4)

    def test_random_acyclic_is_acyclic(self):
        for seed in range(25):
            assert random_acyclic_graph(seed, 9, 0.5).is_well_founded()

    @pytest.mark.parametrize("kind, size, least", SIZE_ERRORS,
                             ids=[f"{size}-{kind}" for kind, size, _ in SIZE_ERRORS])
    def test_sized_families_need_a_positive_size(self, kind, size, least):
        with pytest.raises(FrameworkError) as caught:
            generate_family(kind, size=size, density=0.5)
        assert str(caught.value) == f"{kind} requires size >= {least}"

    @pytest.mark.parametrize("generate", [random_attack_graph, random_acyclic_graph])
    def test_seeded_generators_need_a_non_negative_size(self, generate):
        with pytest.raises(FrameworkError, match="^random requires size >= 0$"):
            generate(0, -3, 0.5)
        assert len(generate(0, 0, 0.5)) == 0

    def test_random_family(self):
        assert generate_family("random", size=6, density=0.3, seed=5) == (
            random_attack_graph(seed=5, size=6, density=0.3))
        assert generate_family("random", size=6, density=0.3) == (
            random_attack_graph(seed=0, size=6, density=0.3))
        g = generate_family("random", size=4, density=1.0)
        assert g.arguments == ("a1", "a2", "a3", "a4") and len(g.attacks) == 16
        assert generate_family("random", size=4, density=0.0).attacks == ()

    @pytest.mark.parametrize("options", [{}, {"size": 5}, {"density": 0.5}])
    def test_random_family_needs_size_and_density(self, options):
        with pytest.raises(FrameworkError, match="^random requires size and density$"):
            generate_family("random", **options)

    def test_unknown_family(self):
        with pytest.raises(FrameworkError):
            generate_family("nope")
