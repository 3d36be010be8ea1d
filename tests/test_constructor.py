import hashlib
import time

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
    is_total_dominating_set,
    leaves,
    support_exchange,
    to_graph6,
)
from dtdom import constructor, domination, families, graph
from dtdom.constructor import ProofPathError, _greedy_tds
from dtdom.enumeration import connected_clawfree_graphs, connected_graphs
from dtdom.verify import constructor_verdict

from conftest import count_calls

DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION

# sha256 of the constructor outputs pinned below, recorded when the exact
# solver began to ban dominated candidates and to descend from its greedy
# set: four decomposition records moved, each algorithm_a's selection where
# it solves an 11-vertex fragment exactly (no route tag, witness or set size
# moved; the first pin came before the constructor's decompositions and
# selection loops were merged)
CONSTRUCTOR_DIGEST = "701a612aab5a9a895a1c1f3e1f7467759786ac283a42d820c7b7808da2c0ce17"


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


@pytest.mark.parametrize(
    "call",
    [
        lambda g: decompose(g, 99),
        lambda g: decompose(g, -1),
        lambda g: decompose_beyond_support(g, 7),
        lambda g: decompose_beyond_support(g, -1),
        lambda g: support_exchange(g, frozenset({1, 2, 5, 6}), -2),
        lambda g: support_exchange(g, frozenset({1, 2, 5, 6}), 7),
    ],
    ids=["decompose-99", "decompose-neg", "beyond-7", "beyond-neg", "exchange-neg", "exchange-7"],
)
def test_vertex_outside_the_graph_is_an_input_error(call):
    # a negative vertex must not index from the end of the rows (-2 would
    # pass as the support 5 and fail later on a shift), and one past n must
    # not escape as an IndexError
    with pytest.raises(GraphInputError, match="out of range 0..6"):
        call(generate_named("P7"))


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
    # claw-free, so the input check passes: leaf 3's support 0 has degree 3
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    with pytest.raises(GraphInputError, match="does not have degree 2"):
        decompose_beyond_support(g, 3)


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
    with pytest.raises(GraphInputError):
        algorithm_a(g, dec)  # needs the leaf decomposition


_G3_EDGES = list(generate_named("G(3)").edges())  # triangle 0-1-4, arms 0-7-8-9, 1-2-3, 4-5-6


@pytest.mark.parametrize("edges, leaf, kind, profile", [
    # the P3 3-4-5 hangs from 2 by both of its leaves
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)], 0, FragmentKind.P3, "unclassified"),
    # the P5 3-...-7 hangs from 2 by its middle vertex alone
    ([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (2, 5)], 0, FragmentKind.P5,
     "interior-adjacent"),
    # the P6 3-...-8 hangs from 2 by a support, without the interior vertex next to it
    ([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)], 0, FragmentKind.P6,
     "support-adjacent"),
    # the P6 3-...-8 hangs from 2 by one of its two interior vertices
    ([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 5)], 0, FragmentKind.P6,
     "interior-adjacent"),
    # G(3) hangs from 10 by w1 (vertex 7), without the centre w
    (_G3_EDGES + [(10, 7), (10, 11), (11, 12)], 12, FragmentKind.G3, "center-w1"),
    # G(3) hangs from 10 by the centre w (vertex 0), without u1 and v1
    (_G3_EDGES + [(10, 0), (10, 11), (11, 12)], 12, FragmentKind.G3, "center-arms"),
])
def test_attachments_outside_the_cases_leave_the_proof_path(edges, leaf, kind, profile):
    # each attachment makes a claw at the vertex it joins, so only the
    # trusting _decompose reaches it; no claw-free input does
    g = Graph(max(max(e) for e in edges) + 1, edges)
    with pytest.raises(GraphInputError):
        decompose(g, leaf)
    dec = constructor._decompose(g, leaf, deep=False)
    frag = next(f for f in dec.fragments if f.kind is kind)
    assert frag.attachment_profile == profile
    with pytest.raises(ProofPathError):
        algorithm_a(g, dec)


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


def test_constructor_verdict_trusts_its_universe(monkeypatch):
    graphs = [g for n in range(2, 9) for g in connected_clawfree_graphs(n)]
    exceptional = count_calls(monkeypatch, families, "exceptional_member")
    connected = count_calls(monkeypatch, graph, "is_connected")
    clawfree = count_calls(monkeypatch, graph, "is_claw_free")
    for g in graphs:
        constructor_verdict(g)
    assert [args[0] for args in exceptional] == graphs
    assert not connected and not clawfree


def test_constructor_checks_each_guard_once(monkeypatch):
    connected = count_calls(monkeypatch, graph, "is_connected")
    clawfree = count_calls(monkeypatch, graph, "is_claw_free")
    _, tag = construct_dtd_clawfree(generate_named("H(5)"))
    assert tag == "proof-path"
    assert len(connected) == 1 and len(clawfree) == 1


def test_constructor_solves_h_family_without_blowup(monkeypatch):
    # each large fragment is solved once, and only on a route that keeps it
    calls = count_calls(monkeypatch, domination, "exact_number")
    for t in range(2, 11):
        calls.clear()
        construct_dtd_clawfree(generate_named(f"H({t})"))
        assert len(calls) <= t, t


@pytest.mark.parametrize("n", [40, 300, 700])
def test_constructor_proof_path_on_long_paths(n):
    # the proof path nests about n/4 levels of recursion on a path
    g = generate_named(f"P{n}")
    witness, tag = construct_dtd_clawfree(g)
    assert tag == "proof-path"
    assert is_dtd_set(g, witness) and 7 * len(witness) <= 4 * n


def test_constructor_too_deep_is_a_domain_error():
    # P2000 nests the proof path past the default recursion limit even from
    # a bare interpreter; P1000 finishes there and fails only under the
    # extra frames of a test runner.  The error names the input, not the
    # fragment the limit was hit in
    with pytest.raises(DomainError, match="recursion limit") as err:
        construct_dtd_clawfree(generate_named("P2000"))
    assert "order 2000 " in str(err.value)


def _necklace(k):
    """k triangles joined in a ring by one edge each, with a pendant path of
    two vertices on the free corner of the first triangle."""
    edges = []
    for i in range(k):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (a, c), (b, (c + 1) % (3 * k))]
    n = 3 * k
    return Graph(n + 2, edges + [(2, n), (n, n + 1)])


def test_constructor_builds_large_mindeg2_fragments_without_the_exact_solver(monkeypatch):
    # rooted at the pendant path, the decomposition past its support leaves
    # one minimum-degree-2 fragment of 117 vertices; it takes the greedy
    # route of _construct, so no exact call sees more than 11 vertices
    g = _necklace(40)
    calls = count_calls(monkeypatch, domination, "exact_number")
    start = time.perf_counter()
    witness, tag = construct_dtd_clawfree(g)
    assert time.perf_counter() - start < 1.0
    assert g.n == 122 and tag == "proof-path"
    assert is_dtd_set(g, witness) and 7 * len(witness) <= 4 * g.n
    assert all(args[0].n <= 11 for args in calls)


def test_constructor_mindeg2_route():
    c7 = generate_named("C7")
    witness, tag = construct_dtd_clawfree(c7)
    assert tag == "witness-mindeg2"
    assert is_dtd_set(c7, witness) and len(witness) == 4


def test_constructor_mindeg2_refuses_unverified_greedy_sets(monkeypatch):
    # a greedy set over 4n/7 (all seven vertices) and one that is no
    # DTD-set (one vertex has no neighbour in it) must both be refused, so
    # C7 falls back to the exact solver
    calls = []

    def stage(result):
        return lambda g: calls.append(result) or result

    monkeypatch.setattr(constructor, "_greedy_tds", stage(frozenset(range(7))))
    monkeypatch.setattr(constructor, "greedy_dtd", stage(frozenset({0})))
    c7 = generate_named("C7")
    witness, tag = construct_dtd_clawfree(c7)
    assert calls == [frozenset(range(7)), frozenset({0})]
    assert tag == "exact-mindeg2"
    assert is_dtd_set(c7, witness) and len(witness) == exact_number(c7, DTD).value


def test_proof_path_error_falls_back_to_the_exact_solver(monkeypatch):
    # no input of order <= 10 raises ProofPathError, so force one in the
    # first round: the route must then be tagged fallback-exact and return
    # an optimal DTD-set
    def unfinished(g, leaf):
        raise ProofPathError("forced")

    monkeypatch.setattr(constructor, "_phase_one", unfinished)
    g = generate_named("P7")
    witness, tag = construct_dtd_clawfree(g)
    assert tag == "fallback-exact"
    assert is_dtd_set(g, witness) and len(witness) == exact_number(g, DTD).value


def test_a_fragment_falls_back_on_itself(monkeypatch):
    # P40's proof path recurses into the paths P36, P32, ..., P12; a
    # ProofPathError in P16 is settled by the exact solver on P16 alone,
    # and the input keeps its proof-path tag
    phase_one = constructor._phase_one

    def unfinished_on_p16(g, leaf):
        if g.n == 16:
            raise ProofPathError("forced")
        return phase_one(g, leaf)

    monkeypatch.setattr(constructor, "_phase_one", unfinished_on_p16)
    calls = count_calls(monkeypatch, domination, "exact_number")
    g = generate_named("P40")
    witness, tag = construct_dtd_clawfree(g)
    assert tag == "proof-path"
    assert is_dtd_set(g, witness) and 7 * len(witness) <= 4 * g.n
    assert [args[0].n for args in calls] == [16]


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
    assert set(tags) <= {"proof-path", "witness-mindeg2", "exact-mindeg2", "fallback-exact"}
    assert tags["proof-path"] > 1000  # the extraction carries most leafy graphs
    # a greedy set settles every min-degree-2 class of order <= 9
    assert "exact-mindeg2" not in tags


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


def _decomposition_line(g, dec, algorithm):
    frags = [(sorted(f.vertices), f.kind.value, f.chosen, f.attachment_profile) for f in dec.fragments]
    try:
        selected = sorted(algorithm(g, dec))
    except ProofPathError:
        selected = "ProofPathError"
    return repr((dec.y, dec.x, dec.z, sorted(dec.X), sorted(dec.Y), frags, selected))


def _g3_attachments():
    # the leafy graphs y-x-a whose a joins a clique of a G(3) fragment (one
    # per attachment profile at least), the two chains peeled to a G(3) core,
    # and a chain peeled to a core that is not exceptional
    base = generate_named("G(3)")
    cliques = [(v,) for v in range(10)] + list(base.edges()) + [(0, 1, 4)]
    for clique in cliques:
        g = Graph(13, list(base.edges()) + [(10, v) for v in clique] + [(10, 11), (11, 12)])
        if is_claw_free(g):
            yield g
    for a, b in ((1, 2), (7, 8)):
        yield Graph(14, list(base.edges()) + [(10, a), (10, b), (10, 11), (11, 12), (12, 13)])
    yield Graph(12, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5), (5, 6), (3, 7), (3, 8),
                     (7, 8), (8, 9), (9, 10), (10, 11), (11, 7)])


def test_constructor_outputs_are_pinned():
    # the route tag and witness of every leafy input, and the decomposition
    # records and selections rooted at each of its leaves
    graphs = [g for n in range(2, 10) for g in connected_clawfree_graphs(n) if leaves(g)]
    graphs += [generate_named(f"H({t})") for t in range(1, 11)]
    graphs += [generate_named(name) for name in ("L(13)", "L(14)", "P40", "P300")]
    graphs += _g3_attachments()
    lines = []
    for g in graphs:
        try:
            witness, tag = construct_dtd_clawfree(g)
            lines.append(f"{to_graph6(g)} {tag} {sorted(witness)}")
        except DomainError:
            lines.append(f"{to_graph6(g)} exceptional")
        for leaf in sorted(leaves(g)):
            lines.append(_decomposition_line(g, decompose(g, leaf), algorithm_a))
            if g.degree(g.bits[leaf].bit_length() - 1) == 2:
                lines.append(_decomposition_line(g, decompose_beyond_support(g, leaf), algorithm_b))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(graphs) == 1232
    assert digest == CONSTRUCTOR_DIGEST


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


def test_zero_row_greedy_is_a_total_dominating_set():
    for n in range(2, 8):
        for g in connected_graphs(n):
            s = _greedy_tds(g)
            assert is_total_dominating_set(g, s) and is_dtd_set(g, s)
    with pytest.raises(DomainError, match="vertex 0 is isolated; dtd undefined"):
        _greedy_tds(Graph(1))
