import hashlib
import random

import pytest

from dtdom import (
    DominationKind,
    FamilyClass,
    FamilyId,
    Graph,
    GraphInputError,
    canonical_form,
    classify,
    connected_clawfree_graphs,
    connected_graphs,
    corona,
    dtd_reference_value,
    exact_number,
    exceptional_member,
    generate,
    generate_named,
    in_class,
    is_claw_free,
    is_connected,
    is_dtd_set,
    is_isomorphic,
    is_tree,
    parse_family_id,
    to_graph6,
)

from dtdom import families

from conftest import count_calls, random_graph

DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION
TDOM = DominationKind.TOTAL_DOMINATION
DOM = DominationKind.DOMINATION


# -- id parsing -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,want",
    [
        ("T(4)", FamilyId("T", (4,))),
        ("t(4)", FamilyId("T", (4,))),
        ("H(3)", FamilyId("H", (3,))),
        ("L(13)", FamilyId("L", (13,))),
        ("C10'", FamilyId("C10'")),
        ("c10''", FamilyId("C10''")),
        ("P7", FamilyId("P", (7,))),
        ("tstar", FamilyId("TStar")),
        ("T*", FamilyId("TStar")),
        ("S(2,3)", FamilyId("DoubleStar", (2, 3))),
        ("RelateGadget(2)", FamilyId("RelateGadget", (2,))),
        ("Corona(K3,2)", FamilyId("Corona", (FamilyId("K", (3,)), 2))),
        ("C5", FamilyId("C", (5,))),
        ("cycle(6)", FamilyId("C", (6,))),
        ("K4", FamilyId("K", (4,))),
        ("Complete(2)", FamilyId("K", (2,))),
        ("path(3)", FamilyId("P", (3,))),
        ("Star(3)", FamilyId("Star", (3,))),
        ("DoubleStar(1,2)", FamilyId("DoubleStar", (1, 2))),
        ("F(2)", FamilyId("F", (2,))),
        ("g3", FamilyId("G", (3,))),
        ("C10prime", FamilyId("C10'")),
        ("c10doubleprime", FamilyId("C10''")),
        ("relate(1)", FamilyId("RelateGadget", (1,))),
    ],
)
def test_parse_family_id(text, want):
    assert parse_family_id(text) == want


@pytest.mark.parametrize("text", ["X(3)", "T()", "T(0)", "L(15)", "F(1)", "Q", "T(a)"])
def test_parse_family_id_rejects(text):
    with pytest.raises(GraphInputError):
        parse_family_id(text)


def test_family_id_round_trip():
    for text in ("T(4)", "H(3)", "L(13)", "C10'", "TStar", "P(7)"):
        fid = parse_family_id(text)
        assert parse_family_id(str(fid)) == fid


# -- orders and shapes ---------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_t_family_shape(k):
    g = generate(FamilyId("T", (k,)))
    assert g.n == 3 * k + 1 and is_tree(g)
    assert g.degree(0) == k


@pytest.mark.parametrize("k", [2, 3, 4])
def test_f_family_shape(k):
    g = generate(FamilyId("F", (k,)))
    assert g.n == 3 * k + 1 and is_tree(g)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_g_family_shape(k):
    g = generate(FamilyId("G", (k,)))
    assert g.n == 3 * k + 1 and g.edge_count == g.n  # exactly one cycle


def test_tstar_shape():
    g = generate(FamilyId("TStar"))
    assert g.n == 7 and is_tree(g)
    assert sorted(g.degrees()).count(3) == 1


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_h_family_clawfree(t):
    g = generate(FamilyId("H", (t,)))
    assert g.n == 7 * t and is_connected(g) and is_claw_free(g)


def test_h1_is_l2():
    assert is_isomorphic(generate_named("H(1)"), generate_named("L(2)"))


def test_relate_gadget_order():
    for k in (1, 3):
        g = generate(FamilyId("RelateGadget", (k,)))
        assert g.n == 2 * (k + 2) + 2


def test_corona_order_and_leaves():
    from dtdom import complete, leaves

    g = corona(complete(3), 2)
    assert g.n == 9 and is_claw_free(g)
    assert len(leaves(g)) == 3
    assert exact_number(g, TDOM).value == 6  # two-thirds of the order


# -- the L-list gate checks ------------------------------------------------------------


def test_l_family_gate_check():
    members = {i: generate(FamilyId("L", (i,))) for i in range(1, 13)}
    for i, g in members.items():
        assert g.n == 7 and is_connected(g), i
        assert is_claw_free(g), i
        assert exact_number(g, TDOM).value == 4, i
    certs = {canonical_form(g) for g in members.values()}
    assert len(certs) == 12  # pairwise non-isomorphic
    dtd4 = {i for i, g in members.items() if exact_number(g, DTD).value == 4}
    assert dtd4 == {1, 2, 3, 5, 6, 10}


def test_l13_l14_shape():
    for i in (13, 14):
        g = generate(FamilyId("L", (i,)))
        assert g.n == 14 and is_connected(g) and is_claw_free(g)


def test_c10_variants():
    for name, m in (("C10'", 11), ("C10''", 12)):
        g = generate_named(name)
        assert g.n == 10 and g.edge_count == m and g.min_degree() >= 2
        assert exact_number(g, TDOM).value == 6


# -- reference values --------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,want",
    [
        ("T(4)", 8),
        ("F(3)", 6),
        ("G(2)", 4),
        ("TStar", 4),
        ("H(3)", 12),
        ("L(5)", 4),
        ("L(13)", 8),
        ("L(4)", None),
        ("P(9)", None),
    ],
)
def test_dtd_reference_values(text, want):
    assert dtd_reference_value(parse_family_id(text)) == want


@pytest.mark.parametrize(
    "text", ["T(1)", "T(2)", "T(3)", "F(2)", "F(3)", "G(2)", "G(3)", "TStar",
             "H(1)", "H(2)", "L(1)", "L(2)", "L(3)", "L(5)", "L(6)", "L(10)"]
)
def test_reference_values_match_solver_small(text):
    fid = parse_family_id(text)
    g = generate(fid)
    assert exact_number(g, DTD).value == dtd_reference_value(fid)


def test_reference_values_match_solver_at_scale():
    # the extremal families up to 84 vertices.  The solver bans each
    # candidate that one other candidate can replace, which settles T, F and
    # G in 1 to 3 nodes, and descends from its greedy set, so the sixteen
    # graphs up to H(8) take 759 nodes together (10,762 with the hub step of
    # take-or-ban, which the dominance rule replaced) and H(9) to H(12)
    # take 11,512 (834,600 and about 15 s with the hub step)
    names = [f"{kind}({k})" for kind in "TFG" for k in (5, 10, 20)]
    names += [f"H({t})" for t in range(4, 9)] + ["L(13)", "L(14)"]
    wide = [f"H({t})" for t in range(9, 13)]
    explored = {}
    for text in names + wide:
        fid = parse_family_id(text)
        g = generate(fid)
        res = exact_number(g, DTD)
        assert res.value == dtd_reference_value(fid), text
        assert is_dtd_set(g, res.witness), text
        explored[text] = res.explored
    assert sum(explored[text] for text in names) <= 1_500
    assert sum(explored[text] for text in wide) <= 15_000


def test_relate_gadget_values():
    for k in (1, 2, 3):
        g = generate(FamilyId("RelateGadget", (k,)))
        assert exact_number(g, DOM).value == k + 2
        assert exact_number(g, DTD).value == 2


# -- classification -----------------------------------------------------------------------


def test_classify_examples():
    assert str(classify(generate_named("P7"))) == "L(1)"
    assert str(classify(generate_named("C7"))) == "L(10)"
    assert str(classify(generate_named("P4"))) == "P(4)"
    assert str(classify(generate_named("T(3)"))) == "T(3)"
    assert str(classify(generate_named("C10'"))) == "C10'"
    assert str(classify(generate_named("H(2)"))) == "H(2)"
    assert str(classify(generate_named("RelateGadget(2)"))) == "RelateGadget(2)"
    from dtdom import Graph

    assert classify(Graph(9, [(0, i) for i in range(1, 9)] + [(1, 2)])) is None


def test_in_class_examples():
    assert in_class(generate_named("P4"), FamilyClass.CAL_T)
    assert in_class(generate_named("C7"), FamilyClass.CAL_S1)
    assert in_class(generate_named("H(1)"), FamilyClass.CAL_H)
    assert in_class(generate_named("H(1)"), FamilyClass.CAL_S1)  # H1 = L2
    assert in_class(generate_named("L(13)"), FamilyClass.CAL_S)
    assert not in_class(generate_named("L(13)"), FamilyClass.CAL_S1)
    c6 = generate_named("C6")
    assert not any(in_class(c6, cls) for cls in FamilyClass)


def test_exceptional_members():
    for name in ("P2", "P3", "P5", "P6", "C3", "G(3)"):
        fid = exceptional_member(generate_named(name))
        assert fid is not None, name
    assert exceptional_member(generate_named("P4")) is None
    assert str(exceptional_member(generate_named("G(3)"))) == "G(3)"


def test_exceptional_member_matches_reference_loop():
    six = [FamilyId("P", (2,)), FamilyId("P", (3,)), FamilyId("P", (5,)),
           FamilyId("P", (6,)), FamilyId("C", (3,)), FamilyId("G", (3,))]

    def reference(g):
        return next((fid for fid in six if is_isomorphic(g, generate(fid))), None)

    rnd = random.Random(3)
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs.append(generate_named("C10"))  # G(3)'s order and edge count
    for fid in six:
        g = generate(fid)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        graphs.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    for g in graphs:
        assert exceptional_member(g) == reference(g), g
    assert [exceptional_member(g) for g in graphs[-6:]] == six


def test_g3_is_claw_free_but_larger_family_members_are_not():
    assert is_claw_free(generate_named("G(3)"))
    for name in ("T(3)", "F(3)", "G(4)", "T(4)", "F(4)"):
        assert not is_claw_free(generate_named(name)), name


# every named id the pinned corpus relabels: each kind, around each class's
# order rules (3k+1, multiples of 7, the L list and its two sizes)
_PINNED_IDS = (
    [f"P{n}" for n in range(1, 15)] + [f"C{n}" for n in range(3, 15)]
    + [f"K{n}" for n in range(1, 8)] + [f"Star({k})" for k in range(1, 9)]
    + [f"S({r},{s})" for r in range(1, 5) for s in range(r, 5)]
    + [f"T({k})" for k in range(1, 5)] + [f"F({k})" for k in range(2, 5)]
    + [f"G({k})" for k in range(2, 5)] + [f"H({t})" for t in range(1, 4)]
    + [f"L({i})" for i in range(1, 15)] + [f"RelateGadget({k})" for k in range(1, 4)]
    + ["TStar", "C10'", "C10''", "Corona(K3,1)", "Corona(P4,1)", "Corona(C4,2)"]
)

CLASSIFICATION_DIGEST = "c1bfb3914bd6c133a27c279fc290659ac208e87e96dd477ea6705959928c7ead"


def test_classification_is_pinned():
    # classify and the eight in_class bits, computed before the family
    # tables were merged into one member list and one matcher
    rnd = random.Random(12)
    graphs = [g for n in range(1, 8) for g in connected_graphs(n)]
    graphs += [g for n in (8, 9) for g in connected_clawfree_graphs(n)]
    for name in _PINNED_IDS:
        g = generate_named(name)
        perm = list(range(g.n))
        rnd.shuffle(perm)
        graphs.append(g.relabel(perm))
    for _ in range(300):
        graphs.append(random_graph(rnd.randint(4, 14), rnd.choice((0.15, 0.3, 0.5)), rnd))
    lines = []
    for g in graphs:
        bits = "".join("1" if in_class(g, cls) else "0" for cls in FamilyClass)
        lines.append(f"{to_graph6(g)} {classify(g)} {bits}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(graphs) == 6758
    assert digest == CLASSIFICATION_DIGEST


def test_classify_builds_generic_candidates_only_at_their_edge_count(monkeypatch):
    # C12 plus a chord has neither a tree's, a cycle's nor a clique's edge count
    g = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6)])
    calls = count_calls(monkeypatch, families, "generate")
    assert classify(g) is None
    built = {args[0].kind for args in calls}
    assert calls and not built & {"P", "C", "K", "Star", "DoubleStar"}
