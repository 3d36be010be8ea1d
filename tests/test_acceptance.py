"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  The heaviest item is the exhaustive constructor
sweep over all connected claw-free graphs through order 12 (about 1.9
million graphs), which the sweep engine shards over the available cores.
"""

import os
import random

import pytest

from dtdom import (
    DominationKind,
    FamilyId,
    Graph,
    check_clawfree_theorem,
    check_dtd_le_gt,
    check_graph_theorem,
    check_order7_census,
    check_tree_theorem,
    complete,
    construct_dtd_clawfree,
    corona,
    cycle_witness,
    dtd_cycle_formula,
    dtd_path_formula,
    exact_number,
    exceptional_member,
    generate,
    generate_named,
    gt_cycle_formula,
    is_claw_free,
    is_connected,
    is_dtd_set,
    leaves,
    to_graph6,
)
from dtdom.enumeration import walk_levels
from dtdom.verify import constructor_verdict
from conftest import random_connected_graph

DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION
TDOM = DominationKind.TOTAL_DOMINATION
DOM = DominationKind.DOMINATION

JOBS = max(1, min(4, os.cpu_count() or 1))

CLAWFREE_COUNTS = {
    2: 1, 3: 2, 4: 5, 5: 14, 6: 50, 7: 191, 8: 881,
    9: 4494, 10: 26389, 11: 184749, 12: 1728404,
}


def _pass(num: int, name: str, detail: str) -> None:
    print(f"criterion {num} ({name}): PASS - {detail}")


def test_criterion_1_order7_census(census_report):
    r = census_report
    assert r.passed, r.violations
    assert r.counts["connected"] == 853
    assert r.counts["total_domination_4"] == 20
    assert r.counts["clawfree_total_domination_4"] == 12
    assert r.counts["clawfree_dtd_4"] == 6
    assert {cls for _, cls in r.equality_cases} == {f"L({i})" for i in range(1, 13)}
    _pass(1, "order-7 census", "853 classes; counts 20/12/6 matched to the L and S1 lists")


def test_criterion_2_formula_oracle_agreement():
    for n in range(3, 16):
        cn = generate_named(f"C{n}")
        pn = generate_named(f"P{n}")
        assert dtd_cycle_formula(n) == exact_number(cn, DTD).value, n
        assert dtd_path_formula(n) == exact_number(pn, DTD).value, n
        assert gt_cycle_formula(n) == exact_number(cn, TDOM).value, n
        w = cycle_witness(n)
        assert is_dtd_set(cn, w) and len(w) == dtd_cycle_formula(n), n
    _pass(2, "formula-oracle agreement", "paths and cycles 3..15, all three closed forms")


def test_criterion_3_tree_characterization():
    r = check_tree_theorem(max_n=12)
    assert r.passed, r.violations
    expected = {4: 2, 7: 3, 10: 2}
    for n in range(4, 13):
        assert r.counts.get(f"equality_n{n}", 0) == expected.get(n, 0), n
    _pass(3, "tree characterization",
          f"{r.checked} trees through order 12; equality sets exact per order")


def test_criterion_4_general_bound(tmp_path):
    # builtin order-8 sweep: the bound holds with no equality case
    r = check_graph_theorem(jobs=JOBS)
    assert r.passed, r.violations
    assert not any(k.startswith("equality") for k in r.counts)
    # the optional order-10 corpus run, exercised on a constructed corpus
    # (a full order-10 sweep is beyond desk scale; the report records the
    # verified universe)
    names = ["T(3)", "F(3)", "G(3)", "C10", "P10", "C10'", "C10''",
             "RelateGadget(2)", "Star(9)", "S(4,4)", "K10"]
    corpus = tmp_path / "order10.g6"
    corpus.write_text(
        "\n".join(to_graph6(generate_named(x)) for x in names) + "\n"
    )
    rc = check_graph_theorem(corpus=str(corpus), jobs=JOBS)
    assert rc.passed, rc.violations
    assert rc.counts["equality_n10"] == 3
    assert sorted(cls for _, cls in rc.equality_cases) == ["F(3)", "G(3)", "T(3)"]
    _pass(4, "general bound",
          f"{r.checked} order-8 classes, zero equality; corpus run found exactly T(3)/F(3)/G(3)")


def test_criterion_5_clawfree_bound():
    r = check_clawfree_theorem(max_n=8, jobs=JOBS)
    assert r.passed, r.violations
    assert r.counts["equality"] == 6
    assert all(cls in ("S-list", "H(1)") for _, cls in r.equality_cases)
    _pass(5, "claw-free bound",
          f"{r.checked} claw-free classes through order 8; 6 equality cases, all classified")


def test_criterion_6_family_reference_values():
    for k in range(1, 5):
        assert exact_number(generate(FamilyId("T", (k,))), DTD).value == 2 * k, k
    for k in range(2, 5):
        assert exact_number(generate(FamilyId("F", (k,))), DTD).value == 2 * k, k
        assert exact_number(generate(FamilyId("G", (k,))), DTD).value == 2 * k, k
    assert exact_number(generate(FamilyId("TStar")), DTD).value == 4
    for t in range(1, 4):
        assert exact_number(generate(FamilyId("H", (t,))), DTD).value == 4 * t, t
    assert exact_number(generate_named("L(13)"), DTD).value == 8
    assert exact_number(generate_named("L(14)"), DTD).value == 8
    _pass(6, "family reference values",
          "T/F/G(k<=4)=2k, T*=4, H(t<=3)=4t incl. the 21-vertex solve, L13=L14=8")


def _random_corona_clawfree(rng: random.Random) -> Graph:
    """Complete graph with a pendant chain on each vertex: claw-free, leafy."""
    while True:
        t = rng.randint(2, 4)
        lengths = [rng.randint(1, 3) for _ in range(t)]
        while t + sum(lengths) > 15:
            lengths[lengths.index(max(lengths))] -= 1
        g = complete(t)
        edges = list(g.edges())
        nxt = t
        for v in range(t):
            prev = v
            for _ in range(lengths[v]):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        out = Graph(nxt, edges)
        if exceptional_member(out) is None:
            return out


@pytest.mark.slow
def test_criterion_7_constructor_guarantee():
    # exhaustive sweep through order 12: the engine expands each parent in
    # a worker and runs the constructor on its children there
    counts = {}
    tags = {}
    failures = []
    for rows, verdict in walk_levels(2, 12, True, constructor_verdict, JOBS):
        counts[len(rows)] = counts.get(len(rows), 0) + 1
        if verdict is None:
            continue
        tag, ok = verdict
        tags[tag] = tags.get(tag, 0) + 1
        if not ok:
            failures.append(to_graph6(Graph.from_bits(len(rows), rows)))
    assert not failures, failures[:5]
    assert counts == {n: CLAWFREE_COUNTS[n] for n in range(2, 13)}
    checked = sum(tags.values())
    total12 = CLAWFREE_COUNTS[12]

    # the generated equality families ride the extracted path end to end
    for t in range(1, 9):
        g = generate(FamilyId("H", (t,)))
        witness, tag = construct_dtd_clawfree(g)
        assert tag == "proof-path", t
        assert is_dtd_set(g, witness) and len(witness) == 4 * t
    for i in (13, 14):
        g = generate_named(f"L({i})")
        witness, tag = construct_dtd_clawfree(g)
        assert is_dtd_set(g, witness) and 7 * len(witness) <= 4 * g.n

    # randomized corona-augmented claw-free graphs with leaves
    rng = random.Random(741776)
    for _ in range(100):
        g = _random_corona_clawfree(rng)
        assert is_claw_free(g) and is_connected(g) and leaves(g)
        witness, tag = construct_dtd_clawfree(g)
        assert is_dtd_set(g, witness)
        assert 7 * len(witness) <= 4 * g.n
    _pass(7, "constructor guarantee",
          f"exhaustive n<=12 ({checked} non-exceptional classes incl. "
          f"{total12} at order 12), H(1..8) via proof path, 100 corona graphs; tags {tags}")


def test_criterion_8_relate_gap_constructions():
    c15 = generate_named("C15")
    assert exact_number(c15, DOM).value == 5
    assert dtd_cycle_formula(15) == 6
    for k in range(1, 5):
        g = generate(FamilyId("RelateGadget", (k,)))
        assert exact_number(g, DOM).value == k + 2, k
        assert exact_number(g, DTD).value == 2, k
    _pass(8, "relate-gap constructions",
          "gamma(C15)=5 vs dtd 6; gadgets k=1..4 give gamma=k+2, dtd=2")


def test_criterion_9_exhaustive_regressions():
    r = check_dtd_le_gt(max_n=8, jobs=JOBS)
    assert r.passed, r.violations
    rng = random.Random(58109)
    checked_pairs = 0
    while checked_pairs < 1000:
        n = rng.randint(4, 9)
        g = random_connected_graph(n, rng)
        non_edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if not g.has_edge(i, j)
        ]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        before = exact_number(g, DTD).value
        after = exact_number(g.with_edge(u, v), DTD).value
        assert after <= before, (sorted(g.edges()), (u, v))
        checked_pairs += 1
    _pass(9, "exhaustive regressions",
          f"dtd <= total over all {r.checked} classes n<=8; 1000 edge-addition pairs monotone")
