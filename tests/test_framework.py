import pytest

from conftest import load_fixture

from gradarg import (
    AttackGraph,
    BranchEdit,
    EditError,
    FrameworkError,
    ParseError,
    PathQuery,
    UnknownArgumentError,
    edit_graph,
    generate_family,
    parse_framework,
    random_acyclic_graph,
    random_attack_graph,
)


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
            parse_framework("arg(a).\natt(a,zz).")
        assert "zz" in str(err.value)
        assert err.value.line == 2

    def test_duplicate_attacks_collapse(self):
        g = parse_framework("arg(a). arg(b). att(a,b). att(a,b).")
        assert g.attacks == (("a", "b"),)

    def test_construction_rejects_unknown_endpoints(self):
        with pytest.raises(UnknownArgumentError):
            AttackGraph(("a",), (("a", "b"),))


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
        assert g.walk_count(PathQuery("C2", "A", 2)) == 1
        assert g.walk_count(PathQuery("A", "A", 0)) == 1
        # two distinct 3-edge loops pass through A1
        assert g.walk_count(PathQuery("A1", "A1", 3)) == 2
        assert g.walk_count(PathQuery("E1", "A", 4)) == 1
        assert g.walk_count(PathQuery("E1", "A", 3)) == 0

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
                query = PathQuery(v, seed, length) if backward else PathQuery(seed, v, length)
                if g.walk_count(query) and out.get((v, cls), limit + offset + 1) > offset + length:
                    out[(v, cls)] = offset + length
    return out


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
                    assert g.shortest_walks(seeds, backward=backward) == _brute_shortest(
                        g, seeds, (1, 0), backward=backward, limit=limit
                    ), (g.serialize(), source, backward)

    def test_length_classes_match_walk_counts(self):
        step = (1, 2, 3, 4, 3)  # 0, 1, 2, odd >= 3, even >= 4
        for g in _small_graphs():
            for target in g.arguments:
                seeds = [(0, target, 0)]
                got = g.shortest_walks(seeds, step=step, backward=True)
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
                got = g.shortest_walks(seeds, step=(0,), within=set(comp))
                assert got == _brute_shortest(inner, seeds, (0,), limit=len(comp))


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

    def test_topological_order_takes_the_earliest_ready_argument(self):
        for seed in range(40):
            g = random_acyclic_graph(seed, 3 + seed % 9, 0.35)
            waiting = {a: len(g.attackers_of(a)) for a in g.arguments}
            expected = []
            while len(expected) < len(g):
                nxt = min((a for a in g.arguments if waiting[a] == 0), key=g.index_of)
                expected.append(nxt)
                waiting[nxt] = -1
                for t in g.targets_of(nxt):
                    waiting[t] -= 1
            assert g.topological_order() == tuple(expected)


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

    def test_unknown_family(self):
        with pytest.raises(FrameworkError):
            generate_family("nope")
