import sys

import pytest

from dtdom import (
    DomainError,
    DominationKind,
    FragmentKind,
    Graph,
    GraphInputError,
    algorithm_a,
    algorithm_b,
    construct_dtd_clawfree,
    decompose,
    decompose_beyond_support,
    exact_number,
    exceptional_member,
    generate_named,
    greedy_dtd,
    is_claw_free,
    is_dtd_set,
    leaves,
)
from dtdom import domination, families, graph
from dtdom.enumeration import connected_clawfree_graphs
from dtdom.verify import constructor_verdict

DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION


# -- decomposition -----------------------------------------------------------------


def test_decompose_p7():
    p7 = generate_named("P7")
    dec = decompose(p7, 0)
    assert dec.y == 0 and dec.x == 1
    assert dec.X == {1, 2}
    kinds = sorted(f.kind.value for f in dec.fragments)
    assert kinds == ["P1", "non-exceptional"]
    big = next(f for f in dec.fragments if f.kind is FragmentKind.OTHER)
    assert big.vertices == {3, 4, 5, 6}
    assert {dec.x, dec.y} <= dec.Y


def test_decompose_h1():
    h1 = generate_named("H(1)")  # leaf 3 on the arm 1-2-3
    dec = decompose(h1, 3)
    assert dec.x == 2 and dec.X == {1, 2}
    kinds = sorted(f.kind.value for f in dec.fragments)
    assert kinds == ["P1", "non-exceptional"]


def test_decompose_rejects_bad_input():
    with pytest.raises(GraphInputError):
        decompose(generate_named("T(3)"), 3)  # has a claw
    with pytest.raises(GraphInputError):
        decompose(generate_named("P7"), 3)  # not a leaf
    with pytest.raises(GraphInputError):
        decompose(Graph(4, [(0, 1), (2, 3)]), 0)  # disconnected


def test_decompose_invariants_exhaustive_small():
    for n in range(3, 10):
        for g in connected_clawfree_graphs(n):
            lv = sorted(leaves(g))
            if not lv:
                continue
            dec = decompose(g, lv[0])
            # the clique invariant
            for a in dec.X:
                for b in dec.X:
                    if a < b:
                        assert g.has_edge(a, b)
            # fragments partition the rest
            rest = set(range(g.n)) - set(dec.X)
            union = set()
            for f in dec.fragments:
                assert not union & set(f.vertices)
                union |= set(f.vertices)
                assert f.chosen in dec.X
                assert any(g.has_edge(f.chosen, v) for v in f.vertices)
            assert union == rest
            # each clique vertex touches at most one fragment
            for w in dec.X:
                touched = [
                    f for f in dec.fragments if any(g.has_edge(w, v) for v in f.vertices)
                ]
                assert len(touched) <= 1
            assert {dec.x, dec.y} <= dec.Y


def test_deep_decomposition_shape():
    h1 = generate_named("H(1)")
    dec = decompose_beyond_support(h1, 3)
    assert dec.deep and dec.z == 3 and dec.y == 2 and dec.x == 1
    assert dec.X == {0, 1, 4}
    assert [f.kind for f in dec.fragments] == [FragmentKind.P2]
    assert {dec.x, dec.y, dec.z} <= dec.Y
    with pytest.raises(GraphInputError):
        decompose_beyond_support(generate_named("TStar"), 1)  # support degree 3


# -- the selection procedure ---------------------------------------------------------


def test_algorithm_a_large_seed():
    # a four-member Y set seeds the chosen clique vertex plus one more
    p4 = generate_named("P4")
    dec = decompose(p4, 0)
    assert len(dec.Y) >= 4
    s = algorithm_a(p4, dec)
    assert dec.x in s and len(s & dec.X) == 2


def test_algorithm_a_p3_leaf_attachment():
    # 0-5, 1-2, 1-6, 2-4, 3-4, 3-5, 4-5: leaf 0, clique {3,4,5},
    # fragment {1,2,6} is a 3-path whose leaf 2 touches the clique
    g = Graph(7, [(0, 5), (1, 2), (1, 6), (2, 4), (3, 4), (3, 5), (4, 5)])
    dec = decompose(g, 0)
    frag = next(f for f in dec.fragments if f.kind is FragmentKind.P3)
    assert frag.attachment_profile == "leaf-adjacent"
    s = algorithm_a(g, dec)
    assert {1, 2} <= s  # the adjacent leaf and the center


def test_algorithm_a_c3_fragment():
    # clique {1, 2}, triangle fragment {3,4,5} hanging off 2
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
    dec = decompose(g, 0)
    frag = next(f for f in dec.fragments if f.kind is FragmentKind.C3)
    assert frag.chosen == 2
    s = algorithm_a(g, dec)
    assert 2 in s and len(s & frag.vertices) == 1


def test_algorithm_a_p5_and_p6_fragments():
    # path of 8: fragment beyond the clique is a 5-path hit at its leaf
    p8 = generate_named("P8")
    dec = decompose(p8, 0)
    frag = next(f for f in dec.fragments if f.kind is FragmentKind.P5)
    assert frag.attachment_profile == "leaf-adjacent"
    s = algorithm_a(p8, dec)
    assert s == {1, 2, 5, 6}
    p9 = generate_named("P9")
    dec = decompose(p9, 0)
    frag = next(f for f in dec.fragments if f.kind is FragmentKind.P6)
    assert frag.attachment_profile == "leaf-adjacent"
    s = algorithm_a(p9, dec)
    assert s == {1, 2, 6, 7}


def test_algorithm_b_seeds_and_bare_fragments():
    # z=5 leaf, support 4 of degree 2, clique {0,1,3}, lone vertex 2 on {0,1}
    g = Graph(6, [(5, 4), (4, 3), (3, 0), (3, 1), (0, 1), (0, 2), (1, 2)])
    dec = decompose_beyond_support(g, 5)
    assert dec.x == 3 and dec.y == 4 and dec.z == 5
    bare = [f for f in dec.fragments if f.kind is FragmentKind.P1]
    assert len(bare) == 1 and bare[0].vertices == {2}
    s = algorithm_b(g, dec)
    assert {dec.x, dec.y} <= s
    assert bare[0].chosen in s
    # only bare fragments, so the selection is exactly the two seeds plus
    # each bare fragment's clique vertex
    assert s == {dec.x, dec.y, bare[0].chosen}
    with pytest.raises(GraphInputError):
        algorithm_b(g, decompose(g, 5))  # needs the beyond-support shape


# -- the bounded builder ----------------------------------------------------------------


@pytest.mark.parametrize("t", range(1, 11))
def test_constructor_achieves_equality_on_h_family(t):
    g = generate_named(f"H({t})")
    witness, tag = construct_dtd_clawfree(g)
    assert tag == "proof-path"
    assert is_dtd_set(g, witness)
    assert len(witness) == 4 * t


@pytest.mark.parametrize("i", [13, 14])
def test_constructor_on_order14_equality_graphs(i):
    g = generate_named(f"L({i})")
    witness, tag = construct_dtd_clawfree(g)
    assert is_dtd_set(g, witness) and len(witness) == 8


def test_constructor_guards():
    with pytest.raises(DomainError) as err:
        construct_dtd_clawfree(generate_named("P6"))
    assert "P(6)" in str(err.value)
    with pytest.raises(DomainError):
        construct_dtd_clawfree(generate_named("G(3)"))
    with pytest.raises(GraphInputError):
        construct_dtd_clawfree(generate_named("Star(3)"))  # claw
    with pytest.raises(GraphInputError):
        construct_dtd_clawfree(Graph(4, [(0, 1), (2, 3)]))  # disconnected


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` through every dtdom binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "dtdom" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_constructor_verdict_trusts_its_universe(monkeypatch):
    graphs = [g for n in range(2, 9) for g in connected_clawfree_graphs(n)]
    exceptional = _count_calls(monkeypatch, families, "exceptional_member")
    connected = _count_calls(monkeypatch, graph, "is_connected")
    clawfree = _count_calls(monkeypatch, graph, "is_claw_free")
    for g in graphs:
        constructor_verdict(g)
    assert [args[0] for args in exceptional] == graphs
    assert not connected and not clawfree


def test_constructor_checks_each_guard_once(monkeypatch):
    connected = _count_calls(monkeypatch, graph, "is_connected")
    clawfree = _count_calls(monkeypatch, graph, "is_claw_free")
    _, tag = construct_dtd_clawfree(generate_named("H(5)"))
    assert tag == "proof-path"
    assert len(connected) == 1 and len(clawfree) == 1


def test_constructor_solves_h_family_without_blowup(monkeypatch):
    # each large fragment is solved once, and only on a route that keeps it
    calls = _count_calls(monkeypatch, domination, "exact_number")
    for t in range(2, 11):
        calls.clear()
        construct_dtd_clawfree(generate_named(f"H({t})"))
        assert len(calls) <= t, t


@pytest.mark.parametrize("n", [40, 300])
def test_constructor_proof_path_on_long_paths(n):
    # the proof path nests about n/3 levels of recursion on a path
    g = generate_named(f"P{n}")
    witness, tag = construct_dtd_clawfree(g)
    assert tag == "proof-path"
    assert is_dtd_set(g, witness) and 7 * len(witness) <= 4 * n


def test_constructor_too_deep_is_a_domain_error():
    # P1000 nests the proof path past the default recursion limit
    with pytest.raises(DomainError, match="recursion limit"):
        construct_dtd_clawfree(generate_named("P1000"))


def test_constructor_mindeg2_route():
    c7 = generate_named("C7")
    witness, tag = construct_dtd_clawfree(c7)
    assert tag == "exact-mindeg2"
    assert is_dtd_set(c7, witness) and len(witness) == 4


def test_constructor_exhaustive_small():
    # every connected claw-free non-exceptional graph up to order 9
    tags = {}
    for n in range(2, 10):
        for g in connected_clawfree_graphs(n):
            if exceptional_member(g) is not None:
                continue
            witness, tag = construct_dtd_clawfree(g)
            assert is_dtd_set(g, witness), sorted(g.edges())
            assert 7 * len(witness) <= 4 * g.n, sorted(g.edges())
            tags[tag] = tags.get(tag, 0) + 1
    assert set(tags) <= {"proof-path", "exact-mindeg2", "fallback-exact"}
    assert tags["proof-path"] > 1000  # the extraction carries most leafy graphs


def test_constructor_output_not_below_optimum(rng):
    for n in range(4, 9):
        pool = [
            g
            for g in connected_clawfree_graphs(n)
            if exceptional_member(g) is None
        ]
        for g in rng.sample(pool, min(12, len(pool))):
            witness, _ = construct_dtd_clawfree(g)
            assert len(witness) >= exact_number(g, DTD).value


def test_constructor_core_peel_on_triangle_arm():
    # the ten-vertex one-cycle graph with a clique-attached 4-chain: peeling
    # the chain leaves the named core, with the rooting leaf on a triangle arm
    base = generate_named("G(3)")
    edges = list(base.edges()) + [(10, 1), (10, 2), (10, 11), (11, 12), (12, 13)]
    g = Graph(14, edges)
    assert is_claw_free(g)
    witness, tag = construct_dtd_clawfree(g)
    assert tag == "proof-path"
    assert is_dtd_set(g, witness) and 7 * len(witness) <= 4 * 14
    assert {11, 12} <= witness  # the peeled chain contributes its middle pair


def test_constructor_core_peel_on_plain_arm_with_rerooting():
    # same core, chain attached beside the plain arm: the first rooting leaf
    # hits the all-degree-2 endpoint, and the degree-3 support re-roots the
    # decomposition before the chain is peeled
    base = generate_named("G(3)")
    edges = list(base.edges()) + [(10, 7), (10, 8), (10, 11), (11, 12), (12, 13)]
    g = Graph(14, edges)
    assert is_claw_free(g)
    witness, tag = construct_dtd_clawfree(g)
    assert tag == "proof-path"
    assert is_dtd_set(g, witness) and 7 * len(witness) <= 4 * 14
    assert {11, 12} <= witness


# -- greedy baseline -----------------------------------------------------------------------


def test_greedy_examples():
    assert len(greedy_dtd(generate_named("C5"))) == 2
    assert greedy_dtd(generate_named("P2")) == {0, 1}
    star = generate_named("Star(3)")
    s = greedy_dtd(star)
    assert is_dtd_set(star, s) and len(s) == 2


def test_greedy_always_valid(rng):
    from conftest import random_connected_graph

    for _ in range(40):
        g = random_connected_graph(rng.randrange(2, 11), rng)
        assert is_dtd_set(g, greedy_dtd(g))
    with pytest.raises(DomainError):
        greedy_dtd(Graph(2))
