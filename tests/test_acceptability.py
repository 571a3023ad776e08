import itertools
import random
import time

import pytest

from conftest import (
    FIXTURES, FLIP, fixture_path, graded_from_lists, load_fixture, oracle_extensions)

from gradarg import (
    AttackGraph,
    ConvergenceError,
    EnumerationBoundError,
    Extension,
    LEAF_VALUE,
    MixedValueKindsError,
    ScanReport,
    TotalPreorder,
    Verdict,
    Witness,
    builtin_instances,
    categoriser,
    classification_report,
    classify,
    compare,
    compatibility_scan,
    defends,
    evaluate_cyclic,
    evaluate_local,
    generate_family,
    is_conflict_free,
    max_based,
    parse_framework,
    preferred_extensions,
    random_acyclic_graph,
    random_attack_graph,
    rooted_labelling,
    scan_graph_stream,
    stable_extensions,
    well_defended,
)
from gradarg import acceptability
from gradarg.acceptability import ENUMERATION_BOUND
from gradarg.cli import main

# The first two levels both imply that no direct attacker sits in any
# extension; "uni" additionally requires membership in all of them.
CLEAN_LEVELS = {"uni", "cleanly"}


def bitmask_extensions(g):
    """Preferred and stable extensions by the whole-graph bitmask search
    the package used up to 25 arguments: every conflict-free set, then the
    admissible, maximal and stable ones among them."""
    names = g.arguments
    index = {name: i for i, name in enumerate(names)}
    attackers = [0] * len(names)
    attacks = [0] * len(names)
    for src, dst in g.attacks:
        attackers[index[dst]] |= 1 << index[src]
        attacks[index[src]] |= 1 << index[dst]
    conflict_free = []
    stack = [(0, 0, 0)]
    while stack:
        i, mask, attacked = stack.pop()
        if i == len(names):
            conflict_free.append((mask, attacked))
            continue
        stack.append((i + 1, mask, attacked))
        bit = 1 << i
        if not attackers[i] & (mask | bit) and not attacks[i] & mask:
            stack.append((i + 1, mask | bit, attacked | attacks[i]))
    admissible = [
        mask
        for mask, attacked in conflict_free
        if all(not attackers[i] & ~attacked
               for i in range(len(names)) if mask >> i & 1)
    ]
    preferred = [
        m for m in admissible
        if not any(m != other and not m & ~other for other in admissible)
    ]
    full = (1 << len(names)) - 1
    stable = [mask for mask, attacked in conflict_free if mask | attacked == full]

    def listed(masks):
        members = [
            tuple(name for i, name in enumerate(names) if mask >> i & 1)
            for mask in masks
        ]
        return sorted(members, key=lambda m: (len(m), sorted(m)))

    return listed(preferred), listed(stable)


def grounded_extension(g):
    """Least fixpoint of the characteristic function: the arguments whose
    every attacker is attacked by the current set, from the empty set up."""
    current = set()
    while True:
        defended = {
            a for a in g.arguments
            if all(set(g.attackers_of(b)) & current for b in g.attackers_of(a))
        }
        if defended == current:
            return current
        current = defended


def assert_extension_laws(g, preferred, stable):
    """Conflict-free, admissible, containing the grounded extension, no one
    inside another; stable ones attack every outside argument."""
    grounded = grounded_extension(g)
    bit = {name: 1 << i for i, name in enumerate(g.arguments)}
    masks = []
    for e in preferred:
        members = set(e.members)
        attacked = {t for a in members for t in g.targets_of(a)}
        assert not members & attacked
        assert all(set(g.attackers_of(a)) <= attacked for a in members)
        assert grounded <= members
        masks.append(sum(bit[a] for a in members))
    assert masks
    for m in masks:
        assert not any(m != other and not m & ~other for other in masks)
    for e in stable:
        members = set(e.members)
        assert sum(bit[a] for a in members) in masks
        attacked = {t for a in members for t in g.targets_of(a)}
        assert attacked | members == set(g.arguments)


def disjoint_mutual_attacks(pairs):
    names = [f"p{i}" for i in range(2 * pairs)]
    return AttackGraph(names, [
        (names[i], names[i ^ 1]) for i in range(2 * pairs)
    ])


class TestDefinitions:
    def test_conflict_freeness(self):
        g = load_fixture("example1")
        assert is_conflict_free(g, {"A1", "A4"})
        assert not is_conflict_free(g, {"A2", "A3"})
        assert is_conflict_free(g, set())

    def test_collective_defence(self):
        g = load_fixture("example1")
        assert not defends(g, {"A4"}, "A3")  # nobody counters A2
        assert defends(g, {"A1", "A4"}, "A1")
        assert defends(g, set(), "A1")  # unattacked needs no help

    def test_extension_container(self):
        e = Extension(("A1", "A4"))
        assert "A1" in e and "A2" not in e
        assert len(e) == 2
        assert e.render() == "{A1,A4}"


class TestEnumeration:
    def test_reference_graph(self):
        g = load_fixture("example1")
        (preferred,) = preferred_extensions(g)
        assert preferred.members == ("A1", "A4")
        assert stable_extensions(g) == [preferred]

    def test_mutual_attack_splits(self):
        g = generate_family("unattacked-cycle", size=2)
        assert [e.members for e in preferred_extensions(g)] == [("C1",), ("C2",)]
        assert [e.members for e in stable_extensions(g)] == [("C1",), ("C2",)]

    def test_odd_cycle_starves_stable_semantics(self):
        g = generate_family("unattacked-cycle", size=3)
        assert [e.members for e in preferred_extensions(g)] == [()]
        assert stable_extensions(g) == []

    def test_matches_brute_force(self):
        stream = scan_graph_stream(7, size_bound=5)
        for _ in range(500):
            g = next(stream)
            got_preferred = [frozenset(e.members) for e in preferred_extensions(g)]
            got_stable = [frozenset(e.members) for e in stable_extensions(g)]
            want_preferred, want_stable = oracle_extensions(g)
            assert got_preferred == want_preferred, g.serialize()
            assert got_stable == want_stable, g.serialize()

    def test_structural_laws(self):
        stream = scan_graph_stream(23)
        for _ in range(500):
            g = next(stream)
            preferred = preferred_extensions(g)
            stable = stable_extensions(g)
            assert preferred  # at least one always exists
            preferred_sets = {frozenset(e.members) for e in preferred}
            leaves = g.leaves()
            for e in stable:
                assert frozenset(e.members) in preferred_sets
            for e in preferred + stable:
                members = set(e.members)
                assert is_conflict_free(g, members)
                assert leaves <= members  # unattacked arguments always belong

    def test_matches_the_bitmask_search(self):
        stream = scan_graph_stream(7)
        graphs = [next(stream) for _ in range(3000)]
        for seed in range(300):
            density = (0.08, 0.15, 0.3)[seed % 3]
            graphs.append(random_attack_graph(seed, 2 + seed % 15, density))
        graphs.append(random_attack_graph(2, 24, 0.05))
        for g in graphs:
            want_preferred, want_stable = bitmask_extensions(g)
            got_preferred = [e.members for e in preferred_extensions(g)]
            got_stable = [e.members for e in stable_extensions(g)]
            assert got_preferred == want_preferred, g.serialize()
            assert got_stable == want_stable, g.serialize()

    @pytest.mark.parametrize("size", [50, 100, 200, 500])
    def test_laws_on_large_graphs_with_a_large_grounded_part(self, size):
        for seed in range(3):
            sparse = random_attack_graph(seed, size, 1.2 / size)
            rng = random.Random(seed)
            mutual = []
            for _ in range(size // 20):
                a, b = rng.sample(sparse.arguments, 2)
                mutual += [(a, b), (b, a)]
            g = AttackGraph(sparse.arguments, [*sparse.attacks, *mutual])
            grounded = grounded_extension(g)
            assert len(grounded) >= size // 4
            assert_extension_laws(g, preferred_extensions(g), stable_extensions(g))

    def test_enumeration_bound(self):
        big = generate_family("unattacked-cycle", size=26)
        with pytest.raises(EnumerationBoundError):
            preferred_extensions(big)
        with pytest.raises(EnumerationBoundError):
            stable_extensions(big)
        with pytest.raises(EnumerationBoundError):
            classify(big)

    def test_the_bound_counts_undecided_arguments_only(self):
        g = random_attack_graph(seed=0, size=26, density=0.05)
        preferred = preferred_extensions(g)
        assert_extension_laws(g, preferred, stable_extensions(g))
        assert [e.members for e in preferred] == [
            ("a1", "a2", "a6", "a8", "a11", "a13", "a20", "a24", "a25", "a26")
        ]

    def test_a_decided_graph_is_not_condensed(self):
        # the grounded labelling decides every argument of a chain and of
        # an attacked 3-cycle, so no component is left to search
        g = AttackGraph(["a", "b", "c", "x", "y", "z"],
                        [("a", "b"), ("b", "c"), ("a", "x"),
                         ("x", "y"), ("y", "z"), ("z", "x")])
        assert classify(g) == classify(g, "stable")
        assert g._condensation is None

    def test_long_undecided_chain(self):
        # a self-attacker leaves every argument of the chain it feeds
        # undecided: 2,001 singleton components, searched without recursion
        chain = [f"c{i}" for i in range(2000)]
        g = AttackGraph(["s", *chain], [("s", "s"), ("s", "c0")]
                        + list(zip(chain, chain[1:])))
        assert [e.members for e in preferred_extensions(g)] == [()]
        assert stable_extensions(g) == []

    @pytest.mark.parametrize("pairs_first", [True, False])
    def test_unrelated_components_do_not_multiply(self, pairs_first):
        # 13 mutual attacks (2**13 preferred extensions) beside a
        # self-attacker feeding a 2,000-argument chain, in either
        # declaration order: the chain is searched once, not once per
        # labelling of the pairs.
        pairs = disjoint_mutual_attacks(13)
        chain = [f"c{i}" for i in range(2000)]
        tail = ["s", *chain]
        g = AttackGraph(
            [*pairs.arguments, *tail] if pairs_first else [*tail, *pairs.arguments],
            [*pairs.attacks, ("s", "s"), ("s", "c0"), *zip(chain, chain[1:])])
        start = time.process_time()
        preferred = preferred_extensions(g)
        stable = stable_extensions(g)
        assert time.process_time() - start < 1.0
        assert len(preferred) == 2**13
        assert {frozenset(e.members) for e in preferred} == {
            frozenset(e.members) for e in preferred_extensions(pairs)}
        assert stable == []

    def test_extension_cap(self, capsys, tmp_path):
        # 2**13 extensions stay under the cap, 2**14 pass it.  The levels
        # are folded part by part, so classify needs no extension list and
        # answers: each argument is in some extension, beside its attacker.
        assert len(preferred_extensions(disjoint_mutual_attacks(13))) == 2**13
        g = disjoint_mutual_attacks(14)
        for enumerate_ in (preferred_extensions, stable_extensions):
            with pytest.raises(EnumerationBoundError, match="enumeration bound"):
                enumerate_(g)
        path = tmp_path / "pairs.apx"
        path.write_text(g.serialize(), encoding="utf-8")
        for semantics in ("preferred", "stable"):
            assert main(["solve", str(path), "--semantics", semantics]) == 3
            assert "enumeration bound" in capsys.readouterr().err
            start = time.process_time()
            levels = classify(g, semantics)
            assert time.process_time() - start < 0.1
            assert levels == dict.fromkeys(g.arguments, "only-exi")

    @pytest.mark.parametrize("pairs_first", [True, False])
    def test_a_part_without_stable_labelling_leaves_nothing_accepted(self, pairs_first):
        # 14 mutual attacks, whose product passes the cap, beside an
        # unattacked 3-cycle, which has no stable labelling: no stable
        # extension, so no argument is accepted, whichever part comes first
        pairs = disjoint_mutual_attacks(14)
        cycle = ["c1", "c2", "c3"]
        g = AttackGraph(
            [*pairs.arguments, *cycle] if pairs_first else [*cycle, *pairs.arguments],
            [*pairs.attacks, ("c1", "c2"), ("c2", "c3"), ("c3", "c1")])
        assert classify(g, "stable") == dict.fromkeys(g.arguments, "not-accepted")
        assert stable_extensions(g) == []

    def test_extension_cap_inside_one_part(self, capsys, tmp_path):
        # 14 mutual attacks a_i <-> b_i joined by the target t of every a_i:
        # one weakly connected part whose search passes the cap by itself
        pairs = [(f"a{i}", f"b{i}") for i in range(14)]
        g = AttackGraph(
            [*itertools.chain(*pairs), "t"],
            [*pairs, *((b, a) for a, b in pairs), *((a, "t") for a, _ in pairs)])
        message = "more than 10000 extensions exceed the enumeration bound"
        for enumerate_ in (preferred_extensions, stable_extensions):
            start = time.process_time()
            with pytest.raises(EnumerationBoundError, match=message):
                enumerate_(g)
            assert time.process_time() - start < 1.0
        # the levels fold whole parts, and this part's own labellings pass the cap
        for semantics in ("preferred", "stable"):
            with pytest.raises(EnumerationBoundError, match=message):
                classify(g, semantics)
        path = tmp_path / "joined.apx"
        path.write_text(g.serialize(), encoding="utf-8")
        for command in ("solve", "classify"):
            for semantics in ("preferred", "stable"):
                assert main([command, str(path), "--semantics", semantics]) == 3
                out, err = capsys.readouterr()
                assert out == "" and message in err

    def test_one_component_search_per_distinct_upstream_labels(self, monkeypatch):
        # 13 mutual attacks a_i <-> b_i joined by the target t of every a_i:
        # each pair is searched once, and t twice, once with an IN attacker
        # upstream and once with every attacker OUT, not once per labelling
        # of the pairs
        pairs = [(f"a{i}", f"b{i}") for i in range(13)]
        g = AttackGraph(
            [*itertools.chain(*pairs), "t"],
            [*pairs, *((b, a) for a, b in pairs), *((a, "t") for a, _ in pairs)])
        searches = 0
        search = acceptability._component_labellings

        def counted(*args, **kwargs):
            nonlocal searches
            searches += 1
            return search(*args, **kwargs)

        monkeypatch.setattr(acceptability, "_component_labellings", counted)
        for enumerate_ in (preferred_extensions, stable_extensions):
            searches = 0
            assert len(enumerate_(g)) == 2**13
            assert searches == 15

    @pytest.mark.parametrize("cycle_first, one_part", [
        (True, False), (False, False), (True, True),
        # Inside one part the pairs are searched before the cycle when
        # declared first, but the cycle, which nothing undecided outside it
        # attacks, is checked before any product is formed.
        (False, True),
    ])
    def test_a_part_without_stable_labelling_empties_the_answer(
            self, capsys, tmp_path, cycle_first, one_part):
        # the joined pairs above, whose part passes the cap, beside an
        # unattacked 3-cycle, which has no stable labelling: no stable
        # extension whichever part is declared, and so searched, first;
        # with one_part the cycle also attacks t, joining the two parts
        pairs = [(f"a{i}", f"b{i}") for i in range(14)]
        joined = [*itertools.chain(*pairs), "t"]
        cycle = ["c1", "c2", "c3"]
        g = AttackGraph(
            [*cycle, *joined] if cycle_first else [*joined, *cycle],
            [*pairs, *((b, a) for a, b in pairs), *((a, "t") for a, _ in pairs),
             ("c1", "c2"), ("c2", "c3"), ("c3", "c1"), *[("c1", "t")] * one_part])
        assert stable_extensions(g) == []
        with pytest.raises(EnumerationBoundError):
            preferred_extensions(g)
        path = tmp_path / "starved.apx"
        path.write_text(g.serialize(), encoding="utf-8")
        assert main(["solve", str(path), "--semantics", "stable"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_a_preferred_search_stops_at_the_first_part_past_the_cap(self, monkeypatch):
        # every part has a preferred labelling, so the 3-cycle declared
        # after the joined pairs cannot change the answer and is not searched
        pairs = [(f"a{i}", f"b{i}") for i in range(14)]
        g = AttackGraph(
            [*itertools.chain(*pairs), "t", "c1", "c2", "c3"],
            [*pairs, *((b, a) for a, b in pairs), *((a, "t") for a, _ in pairs),
             ("c1", "c2"), ("c2", "c3"), ("c3", "c1")])
        searched = []
        search = acceptability._part_masks

        def counted(part, *args):
            searched.append(part)
            return search(part, *args)

        monkeypatch.setattr(acceptability, "_part_masks", counted)
        with pytest.raises(EnumerationBoundError):
            preferred_extensions(g)
        assert len(searched) == 1

    def test_the_cap_counts_the_partial_labellings_of_a_part(self, monkeypatch):
        # 14 mutual attacks a_i <-> b_i, every a_i attacking u, then u -> t,
        # a0 -> t and t -> t: one part with 8,193 stable extensions (t is
        # OUT only when u or a0 is IN), yet 2**14 partial labellings after
        # the 14th pair pass the cap, so the search raises.  ROADMAP item
        # 2(b)'s node budget will replace this rule; until then a count of
        # the extensions alone must not change the answer.
        pairs = [(f"a{i}", f"b{i}") for i in range(14)]
        g = AttackGraph(
            [*itertools.chain(*pairs), "u", "t"],
            [*pairs, *((b, a) for a, b in pairs), *((a, "u") for a, _ in pairs),
             ("u", "t"), ("a0", "t"), ("t", "t")])
        message = "more than 10000 extensions exceed the enumeration bound"
        with pytest.raises(EnumerationBoundError, match=message):
            stable_extensions(g)
        with pytest.raises(EnumerationBoundError, match=message):
            classify(g, "stable")
        monkeypatch.setattr(acceptability, "_EXTENSION_CAP", 2**14)
        assert len(stable_extensions(g)) == 2**13 + 1

    def test_masks_are_no_wider_than_their_component(self, monkeypatch):
        # two mutual pairs and an odd 3-cycle, declared interleaved, then a
        # 3-cycle feeding a chain, one part of six components: each
        # component is searched in its own numbering, and only the IN masks
        # a part's search returns are as wide as the part
        interleaved = AttackGraph(
            ["a1", "c1", "b1", "a2", "c2", "b2", "c3"],
            [("a1", "b1"), ("b1", "a1"), ("a2", "b2"), ("b2", "a2"),
             ("c1", "c2"), ("c2", "c3"), ("c3", "c1")])
        fed_chain = AttackGraph(
            ["c1", "c2", "c3", "x1", "x2", "x3", "x4", "x5"],
            [("c1", "c2"), ("c2", "c3"), ("c3", "c1"), ("c1", "x1"),
             ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")])
        widths, sizes = [], []
        search, part_search = acceptability._component_labellings, acceptability._part_masks

        def searched(att, tgt, forced, eligible, stable):
            assert len(att) == len(tgt) <= ENUMERATION_BOUND
            found = search(att, tgt, forced, eligible, stable)
            masks = (*att, *tgt, forced, eligible, *itertools.chain(*found))
            assert all(mask.bit_length() <= len(att) for mask in masks)
            widths.append(len(att))
            return found

        def part(order, unions, attackers, stable):
            # one entry per component: a member's index, or ~k for union k
            assert sorted(~x for x in order if x < 0) == list(range(len(unions)))
            members = [x for x in order if x >= 0] + [*itertools.chain(*unions)]
            assert sorted(members) == list(range(len(attackers)))
            found = part_search(order, unions, attackers, stable)
            assert all(mask.bit_length() <= len(attackers) for mask in found)
            sizes.append(len(attackers))
            return found

        monkeypatch.setattr(acceptability, "_component_labellings", searched)
        monkeypatch.setattr(acceptability, "_part_masks", part)
        assert len(preferred_extensions(interleaved)) == 4
        assert sorted(sizes) == sorted(widths) == [2, 2, 3]
        assert classify(interleaved, "preferred") == {
            "a1": "only-exi", "b1": "only-exi", "a2": "only-exi", "b2": "only-exi",
            "c1": "not-accepted", "c2": "not-accepted", "c3": "not-accepted"}
        assert stable_extensions(interleaved) == []
        sizes.clear()
        widths.clear()
        assert preferred_extensions(fed_chain) == [Extension(())]
        assert sizes == [8] and sorted(widths) == [1, 1, 1, 1, 1, 3]
        assert classify(fed_chain, "preferred") == dict.fromkeys(
            fed_chain.arguments, "not-accepted")


class TestClassify:
    def test_tiny_cases(self):
        assert classify(parse_framework("arg(a).")) == {"a": "uni"}
        chain = parse_framework("arg(a). arg(b). att(b,a).")
        assert classify(chain) == {"a": "not-accepted", "b": "uni"}
        cycle = generate_family("unattacked-cycle", size=2)
        assert classify(cycle) == {"C1": "only-exi", "C2": "only-exi"}

    def test_star_graph(self):
        levels = classify(load_fixture("star3"))
        assert levels == {
            "A": "uni",
            "B1": "not-accepted", "B2": "not-accepted", "B3": "not-accepted",
            "C1": "uni", "C2": "uni", "C3": "uni",
        }

    def test_unknown_semantics(self):
        with pytest.raises(ValueError):
            classify(load_fixture("example1"), "grounded")

    def test_universal_membership_silences_all_attackers(self):
        # membership in every extension forces every direct attacker out
        # of every extension, straight from conflict-freeness
        stream = scan_graph_stream(23)
        for _ in range(500):
            g = next(stream)
            extensions = [set(e.members) for e in preferred_extensions(g)]
            levels = classify(g, "preferred")
            for name, level in levels.items():
                in_all = extensions and all(name in s for s in extensions)
                assert (level == "uni") == bool(in_all)
                if in_all:
                    for b in g.attackers_of(name):
                        assert not any(b in s for s in extensions)
                    assert level in CLEAN_LEVELS

    def test_partial_acceptance_exists(self):
        # an argument in one extension with its attacker in another
        levels = classify(generate_family("unattacked-cycle", size=2))
        assert set(levels.values()) == {"only-exi"}

    def test_clean_but_not_universal_is_reachable(self):
        stream = scan_graph_stream(11)
        for trial in range(1, 5001):
            g = next(stream)
            levels = classify(g, "preferred")
            witnesses = [a for a, lv in levels.items() if lv == "cleanly"]
            if witnesses:
                # double-check the witness against the raw definition
                extensions = [set(e.members) for e in preferred_extensions(g)]
                for a in witnesses:
                    assert any(a in s for s in extensions)
                    assert not all(a in s for s in extensions)
                    for b in g.attackers_of(a):
                        assert not any(b in s for s in extensions)
                return
        pytest.fail("no cleanly-but-not-uni argument within 5000 graphs")

    def test_stable_semantics_collapses_the_distinction(self):
        stream = scan_graph_stream(31)
        for _ in range(500):
            g = next(stream)
            assert "cleanly" not in classify(g, "stable").values()

    def test_no_odd_cycle_collapses_the_distinction(self):
        stream = scan_graph_stream(37)
        seen = 0
        while seen < 500:
            g = next(stream)
            if g.has_odd_cycle():
                continue
            seen += 1
            assert "cleanly" not in classify(g, "preferred").values()

    @pytest.mark.parametrize("semantics", ["preferred", "stable"])
    def test_levels_follow_the_extension_lists(self, semantics):
        listed = {"preferred": preferred_extensions, "stable": stable_extensions}
        graphs = [parse_framework(p.read_text()) for p in sorted(FIXTURES.glob("*.apx"))]
        graphs += itertools.islice(scan_graph_stream(7), 2000)
        without_extensions = 0
        for g in graphs:
            extensions = listed[semantics](g)
            without_extensions += not extensions
            expected = graded_from_lists(g, extensions)
            assert classify(g, semantics) == expected
            assert classification_report(g, semantics).level == expected
        if semantics == "stable":
            assert without_extensions > 0

    def test_levels_match_the_subset_oracle_on_the_scan_stream(self):
        # the levels are folded per part, never read from an extension
        # list; the brute-force subset oracle lists the extensions instead
        for g in itertools.islice(scan_graph_stream(7), 2000):
            preferred, stable = oracle_extensions(g)
            for semantics, listed in (("preferred", preferred), ("stable", stable)):
                extensions = [Extension(tuple(sorted(s))) for s in listed]
                assert classify(g, semantics) == graded_from_lists(g, extensions), (
                    semantics, g.serialize())


class TestWellDefended:
    def test_chain(self):
        g = parse_framework(
            "arg(B1). arg(C1). arg(D1). att(C1,B1). att(D1,C1)."
        )
        values = evaluate_local(g, categoriser())
        defended = well_defended(g, values)
        assert defended == {"D1", "B1"}

    def test_unknown_label_is_rejected(self):
        g = parse_framework("arg(a). arg(b). att(b,a).")
        with pytest.raises(MixedValueKindsError, match="unknown label 'x'"):
            well_defended(g, {"a": "x", "b": "+"})

    def test_missing_value_is_named(self):
        g = parse_framework("arg(a). arg(b). att(a,b). att(b,a).")
        with pytest.raises(ValueError, match="^no value for argument 'b'$"):
            well_defended(g, {"a": 1})
        with pytest.raises(ValueError, match="^no value for argument 'a'$"):
            well_defended(g, {})
        assert well_defended(g, {"a": 1, "b": 1, "z": 0}) == {"a", "b"}

    def test_tupled_values_ignore_values_of_other_names(self):
        g = load_fixture("example4")
        values = evaluate_cyclic(g)
        assert well_defended(g, {**values, "zzz": 0.5}) == well_defended(g, values)

    def test_local_values_ignore_values_of_other_names(self):
        g = load_fixture("example4")
        values = evaluate_local(g, categoriser())
        assert well_defended(g, {**values, "zzz": "+"}) == well_defended(g, values)

    def test_maximal_attacker_disqualifies(self):
        g = load_fixture("example4")
        values = evaluate_cyclic(g)
        assert values["B4"] == LEAF_VALUE
        defended = well_defended(g, values)
        assert "A" not in defended

    def test_incomparability_counts_in_favour(self):
        g = load_fixture("example4")
        trimmed = [
            line
            for line in g.serialize().splitlines()
            if line.strip() != "att(B4,A)."
        ]
        h = parse_framework("\n".join(trimmed))
        values = evaluate_cyclic(h)
        for b in h.attackers_of("A"):
            outcome = compare(values[b], values["A"])
            assert outcome.verdict is Verdict.INCOMPARABLE
        assert "A" in well_defended(h, values)

    def test_mutual_attack_is_a_stand_off(self):
        g = generate_family("unattacked-cycle", size=2)
        for values in (
            evaluate_local(g, categoriser()),
            evaluate_local(g, rooted_labelling()),
            evaluate_cyclic(g),
        ):
            assert well_defended(g, values) == {"C1", "C2"}

    def test_unattacked_always_qualifies(self):
        g = load_fixture("example6")
        values = evaluate_local(g, categoriser())
        defended = well_defended(g, values)
        assert g.leaves() <= defended


class TestCompatibility:
    def test_acceptance_equals_defence_for_max_combination(self):
        for seed in range(200):
            g = random_acyclic_graph(seed, 3 + seed % 10, 0.45)
            (extension,) = preferred_extensions(g)
            values = evaluate_local(g, max_based())
            defended = well_defended(g, values)
            assert set(extension.members) == set(defended), g.serialize()

    def test_single_attacker_orderings(self):
        for seed in range(200):
            g = random_acyclic_graph(seed, 3 + seed % 10, 0.45)
            (extension,) = preferred_extensions(g)
            accepted = set(extension.members)
            order = TotalPreorder(evaluate_local(g, max_based()))
            for a in g.arguments:
                attackers = g.attackers_of(a)
                if len(attackers) != 1:
                    continue
                (b,) = attackers
                if a in accepted:
                    assert order.geq(a, b)
                else:
                    assert order.geq(b, a)

    def test_spider_graphs_align_acceptance_and_defence(self):
        premise_hits = 0
        for seed in range(50):
            g = generate_family("spider", seed=seed)
            (extension,) = preferred_extensions(g)
            accepted = set(extension.members)
            values = evaluate_cyclic(g)
            defended = well_defended(g, values)
            for b in g.arguments:
                if b == "A":
                    continue
                assert (b in accepted) == (b in defended), (seed, b)
            if "A" in accepted:
                assert "A" in defended, seed
            if values["A"].odd.is_empty:
                premise_hits += 1
                if "A" in defended:
                    assert "A" in accepted, seed
        assert premise_hits  # the all-defence premise occurs in the sample

    def test_sum_combination_breaks_the_alignment(self):
        g = load_fixture("star3")
        values = evaluate_local(g, categoriser())
        defended = well_defended(g, values)
        assert defended == {"C1", "C2", "C3"}
        (extension,) = preferred_extensions(g)
        assert extension.members == ("A", "C1", "C2", "C3")
        assert classify(g)["A"] == "uni"  # accepted yet not well-defended

    def test_star_shape_divides_the_valuations(self):
        g = load_fixture("star3")
        tuple_values = evaluate_cyclic(g)
        label_values = evaluate_local(g, rooted_labelling())
        assert "A" in well_defended(g, tuple_values)
        assert "A" in well_defended(g, label_values)


class TestCompatibilityScan:
    def test_sum_instance_yields_both_witnesses(self):
        report = compatibility_scan("categoriser", seed=1, trials=5000)
        assert report.valuation == "categoriser"
        assert report.complete
        for witness in (report.cleanly_not_defended, report.defended_not_cleanly):
            g = witness.graph
            values = evaluate_local(g, categoriser())
            defended = well_defended(g, values)
            clean = classify(g)[witness.argument] in CLEAN_LEVELS
            if witness.direction == "cleanly-not-defended":
                assert clean and witness.argument not in defended
            else:
                assert witness.argument in defended and not clean

    def test_tuple_valuation_yields_both_witnesses(self):
        report = compatibility_scan("tuples", seed=1, trials=5000)
        assert report.valuation == "tuples"
        assert report.complete

    def test_label_valuation_never_undercuts_clean_acceptance(self):
        # a strictly better attacker would carry the top label, and the
        # top-labelled set is admissible, so clean acceptance always
        # coincides with defence on this side
        report = compatibility_scan("rooted_labelling", seed=1, trials=2000)
        assert report.cleanly_not_defended is None
        assert report.defended_not_cleanly is not None

    def test_acyclic_max_scan_finds_nothing(self):
        report = compatibility_scan(
            max_based(), seed=1, trials=400, acyclic_only=True
        )
        assert report.cleanly_not_defended is None
        assert report.defended_not_cleanly is None
        assert report.trials_used == 400

    def test_budget_is_validated(self):
        with pytest.raises(ValueError):
            compatibility_scan("categoriser", seed=1, trials=0)
        with pytest.raises(ValueError):
            compatibility_scan("nope", seed=1, trials=10)

    @pytest.mark.parametrize("size_bound", [-1, 0, 2])
    def test_size_bound_is_validated(self, size_bound):
        with pytest.raises(ValueError, match="size_bound"):
            scan_graph_stream(1, size_bound=size_bound)

    def test_the_scan_takes_no_size_bound(self):
        with pytest.raises(TypeError, match="size_bound"):
            compatibility_scan("categoriser", seed=1, trials=10, size_bound=8)

    def test_size_bound_must_be_an_integer(self):
        # refused at the call, not at the stream's first graph
        with pytest.raises(TypeError):
            scan_graph_stream(1, size_bound=3.5)

    def test_semantics_is_validated(self):
        with pytest.raises(ValueError, match="semantics"):
            compatibility_scan("categoriser", seed=1, trials=10, semantics="grounded")

    def test_tangles_have_at_least_six_arguments(self):
        sizes = [len(g) for g in itertools.islice(scan_graph_stream(1, size_bound=3), 200)]
        assert min(sizes) == 3 and max(sizes) == 6

    @pytest.mark.parametrize("valuation", [
        "categoriser", "max_based", "rooted_labelling", "tuples", pytest.param(FLIP, id="flip")])
    @pytest.mark.parametrize("semantics", ["preferred", "stable"])
    @pytest.mark.parametrize("acyclic_only", [False, True])
    def test_matches_the_eager_scan(self, monkeypatch, valuation, semantics, acyclic_only):
        skipped = []
        if valuation is FLIP:
            # flip never settles an even cycle: a small budget makes a skip cheap
            monkeypatch.setattr("gradarg.local.READ_BOUND", 1_000)
            evaluate = acceptability.evaluate_local

            def counted(g, instance):
                try:
                    return evaluate(g, instance)
                except ConvergenceError:
                    skipped.append(g)
                    raise

            monkeypatch.setattr(acceptability, "evaluate_local", counted)
        for seed in range(20):
            options = dict(seed=seed, trials=200, semantics=semantics, acyclic_only=acyclic_only)
            assert compatibility_scan(valuation, **options) == eager_scan(valuation, **options)
        assert bool(skipped) == (valuation is FLIP and not acyclic_only)

    def test_valuations_only_where_a_witness_can_occur(self, monkeypatch):
        valuations = []
        evaluate = acceptability.evaluate_local

        def counted(*args, **kwargs):
            valuations.append(args[0])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(acceptability, "evaluate_local", counted)
        report = compatibility_scan("rooted_labelling", seed=1, trials=2000)
        assert report.trials_used == 2000
        assert len(valuations) < 1000

    @pytest.mark.parametrize("semantics", ["preferred", "stable"])
    def test_each_part_shape_is_searched_and_each_graph_valued_once(
            self, monkeypatch, semantics):
        shapes, valued = [], []
        search, evaluate = acceptability._part_masks, acceptability.evaluate_local

        def searched(order, unions, attackers, stable):
            shapes.append(tuple(map(tuple, attackers)))
            return search(order, unions, attackers, stable)

        def evaluated(g, instance):
            valued.append((g.arguments, g.attacks))
            return evaluate(g, instance)

        monkeypatch.setattr(acceptability, "_part_masks", searched)
        monkeypatch.setattr(acceptability, "evaluate_local", evaluated)
        report = compatibility_scan(max_based(), seed=1, trials=400, semantics=semantics)
        assert len(shapes) == len(set(shapes)) > 0
        assert len(valued) == len(set(valued)) > 0
        # the stream repeats graphs and part shapes, so both were skipped
        graphs = list(itertools.islice(scan_graph_stream(1), report.trials_used))
        assert len({(g.arguments, g.attacks) for g in graphs}) < len(graphs)
        shapes.clear()
        for g in {(g.arguments, g.attacks): g for g in graphs}.values():
            classify(g, semantics)
        assert len(set(shapes)) < len(shapes)

    def test_a_scan_does_not_depend_on_earlier_scans(self, monkeypatch):
        searches = []
        search = acceptability._part_masks

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(acceptability, "_part_masks", counted)
        first = compatibility_scan("categoriser", seed=3, trials=300)
        alone = len(searches)
        for seed in range(3):
            compatibility_scan("categoriser", seed=seed, trials=300)
        searches.clear()
        assert compatibility_scan("categoriser", seed=3, trials=300) == first
        assert len(searches) == alone > 0


def eager_scan(valuation, *, seed, trials, semantics, acyclic_only):
    """The scan by its definition: every trial values, classifies and
    checks the defence of its graph, then takes the first witnesses."""
    stream = scan_graph_stream(seed, acyclic_only=acyclic_only)
    found = {}
    for trial in range(1, trials + 1):
        g = next(stream)
        try:
            if valuation == "tuples":
                values = evaluate_cyclic(g)
            else:
                values = evaluate_local(g, builtin_instances().get(valuation, valuation))
        except ConvergenceError:
            continue
        levels = classify(g, semantics)
        defended = well_defended(g, values)
        for a in g.arguments:
            clean = levels[a] in CLEAN_LEVELS
            if clean and a not in defended:
                found.setdefault("cleanly-not-defended", Witness(
                    "cleanly-not-defended", g, a, trial))
            if a in defended and not clean:
                found.setdefault("defended-not-cleanly", Witness(
                    "defended-not-cleanly", g, a, trial))
        if len(found) == 2:
            break
    return ScanReport(
        valuation=getattr(valuation, "name", valuation),
        trials_used=trial,
        cleanly_not_defended=found.get("cleanly-not-defended"),
        defended_not_cleanly=found.get("defended-not-cleanly"),
    )


class TestReport:
    def test_bundles_everything(self):
        g = load_fixture("star3")
        report = classification_report(
            g,
            valuations={
                "categoriser": evaluate_local(g, categoriser()),
                "tuples": evaluate_cyclic(g),
            },
        )
        assert report.semantics == "preferred"
        assert [e.members for e in report.extensions] == [("A", "C1", "C2", "C3")]
        assert report.level == classify(g)
        assert report.well_defended["categoriser"] == {"C1", "C2", "C3"}
        assert "A" in report.well_defended["tuples"]

    def test_stable_variant(self):
        g = load_fixture("example1")
        report = classification_report(g, semantics="stable")
        assert report.semantics == "stable"
        assert report.level["A1"] == "uni"
        assert report.well_defended == {}

    @pytest.mark.parametrize("semantics", ["preferred", "stable"])
    def test_one_search_per_classification(self, monkeypatch, capsys, semantics):
        # the per-part search that both the extension list and the levels read
        searches = []
        search = acceptability._searched_parts

        def counted(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(acceptability, "_searched_parts", counted)
        g = load_fixture("star3")
        classify(g, semantics)
        assert len(searches) == 1
        classification_report(g, semantics)
        assert len(searches) == 2
        path = str(fixture_path("star3"))
        assert main(["classify", path, "--semantics", semantics]) == 0
        assert len(searches) == 3
        assert capsys.readouterr().out
