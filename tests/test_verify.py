import hashlib
import json
from dataclasses import replace
from itertools import islice

import pytest

from dtdom import (
    FamilyClass,
    FamilyId,
    Graph,
    GraphInputError,
    VerificationReport,
    check_clawfree_theorem,
    check_dtd_le_gt,
    check_graph_theorem,
    check_mindeg2_observation,
    check_order7_census,
    check_tree_theorem,
    connected_graphs,
    emit_report,
    generate_named,
    to_graph6,
)
from dtdom import canon, constructor, domination, enumeration, graph, verify
from dtdom.enumeration import walk_levels
from dtdom.verify import constructor_verdict

from conftest import count_calls, count_pools, patch_bindings


def _payload(report):
    payload = json.loads(emit_report(report, "json"))
    payload.pop("elapsed_ms")
    return payload


def test_order7_census(census_report):
    r = census_report
    assert r.passed, r.violations
    assert r.counts["connected"] == 853
    assert r.counts["total_domination_4"] == 20
    assert r.counts["clawfree_total_domination_4"] == 12
    assert r.counts["clawfree_dtd_4"] == 6
    matched = {cls for _, cls in r.equality_cases}
    assert matched == {f"L({i})" for i in range(1, 13)}


def test_tree_theorem_small():
    r = check_tree_theorem(max_n=10)
    assert r.passed, r.violations
    assert r.counts["equality_n4"] == 2   # the 4-path and the 3-star
    assert r.counts["equality_n7"] == 3   # both order-7 trees and the long spider
    assert r.counts["equality_n10"] == 2
    assert r.counts["equality_n5"] == 0
    assert r.counts["equality_n8"] == 0


def test_tree_theorem_catches_contradiction():
    # sanity: the checker must flag a fabricated bound violation
    r = VerificationReport(theorem="t", universe="u")
    r.violations.append("bound:fake")
    assert not r.passed


def test_tree_theorem_reports_a_tree_over_the_bound(monkeypatch):
    # neither greedy stage settles anything, and the exact value of the star
    # K_{1,6} reads 5 > 2(7-1)/3: the checker itself must name that tree and fail
    star = canon.canonical_form(generate_named("Star(6)"))
    real = domination.exact_number
    seen = []

    def inflated(g, kind):
        res = real(g, kind)
        if canon.canonical_form(g) != star:
            return res
        seen.append(to_graph6(g))
        return replace(res, value=5)

    _patch_greedy(monkeypatch, lambda g, greedy: frozenset(range(g.n)))
    patch_bindings(monkeypatch, domination, "exact_number", inflated)
    r = check_tree_theorem(max_n=7)
    assert len(seen) == 1
    assert r.violations == [f"bound:{seen[0]} dtd=5"]
    assert not r.passed


def _patch_greedy(monkeypatch, stage):
    """Make each greedy stage of the witness cascade, ``_greedy_tds`` and
    ``greedy_dtd``, return ``stage(g, greedy)``, where ``greedy`` is the real
    stage; the exact solver keeps its own greedy incumbent."""
    for name in ("_greedy_tds", "greedy_dtd"):
        real = getattr(constructor, name)
        patch_bindings(monkeypatch, constructor, name, lambda g, real=real: stage(g, real))


def _members_with(monkeypatch, cls, n, fids):
    """Make ``verify.members(cls, n)`` return ``fids``."""
    real = verify.members
    monkeypatch.setattr(
        verify, "members", lambda c, k: list(fids) if (c, k) == (cls, n) else real(c, k)
    )


def _overstate(monkeypatch, n, value):
    """Make the checkers read dtd(K_n) as ``value``: neither greedy stage
    settles K_n, and the exact solver reports ``value`` for it."""
    solve = domination.exact_number

    def complete(g):
        return g.n == n and g.edge_count == n * (n - 1) // 2

    def inflated(g, kind):
        res = solve(g, kind)
        return replace(res, value=value) if complete(g) and kind is verify.DTD else res

    _patch_greedy(monkeypatch, lambda g, greedy: frozenset(range(g.n)) if complete(g) else greedy(g))
    patch_bindings(monkeypatch, domination, "exact_number", inflated)


def _l(*indices):
    return [FamilyId("L", (i,)) for i in indices]


# each checker's failure strings, forced once; "<L(4)>" is the graph6 of the
# order-7 class that the census matches to L(4)
_FAILURES = {
    "census-count": (
        lambda mp: mp.setattr(verify, "walk_levels", lambda *a: islice(walk_levels(*a), 1, None)),
        check_order7_census,
        "count:connected=852 expected 853",
    ),
    "census-unexpected-member": (
        lambda mp: _members_with(mp, FamilyClass.CAL_L, 7, _l(1, 2, 3, *range(5, 13))),
        check_order7_census,
        "unexpected-member:<L(4)>",
    ),
    "census-missing-member": (
        lambda mp: _members_with(mp, FamilyClass.CAL_L, 7, _l(*range(1, 13)) + [FamilyId("K", (7,))]),
        check_order7_census,
        "missing-member:K(7)",
    ),
    "census-s1-mismatch": (
        lambda mp: _members_with(mp, FamilyClass.CAL_S1, 7, _l(*range(1, 7))),
        check_order7_census,
        "s1-mismatch:[1, 2, 3, 5, 6, 10]",
    ),
    "tree-missing-equality": (
        lambda mp: _members_with(mp, FamilyClass.CAL_F, 5, [FamilyId("TStar")]),
        lambda: check_tree_theorem(max_n=5),
        "missing-equality:n=5 TStar",
    ),
    "dtd-le-gt-gap": (
        lambda mp: _overstate(mp, 2, 3),
        lambda: check_dtd_le_gt(max_n=3),
        "gap:A_ dtd=3 gt=2",
    ),
    "general-bound": (
        lambda mp: _overstate(mp, 8, 5),
        check_graph_theorem,
        "bound:G~~~~{ dtd=5",
    ),
    "clawfree-bound": (
        lambda mp: _overstate(mp, 4, 3),
        lambda: check_clawfree_theorem(max_n=4),
        "bound:C~ dtd=3",
    ),
    "mindeg2-bound": (
        lambda mp: _overstate(mp, 4, 3),
        lambda: check_mindeg2_observation(max_n=4),
        "bound:C~ dtd=3",
    ),
    # K7 read as dtd 4 lies exactly on 4n/7, which the observation forbids
    "mindeg2-on-the-bound": (
        lambda mp: _overstate(mp, 7, 4),
        lambda: check_mindeg2_observation(max_n=7),
        "bound:F~~~w dtd=4",
    ),
    "clawfree-unclassified-equality": (
        lambda mp: _blind_matcher(mp, "L(1)"),
        lambda: check_clawfree_theorem(max_n=7),
        "unclassified-equality:FHEI?",
    ),
    "tree-unclassified-equality": (
        lambda mp: _blind_matcher(mp, "T(2)"),
        lambda: check_tree_theorem(max_n=7),
        ["unclassified-equality:Fh_GG", "missing-equality:n=7 T(2)"],
    ),
}


@pytest.mark.parametrize("case", sorted(_FAILURES))
def test_checker_reports_each_failure(case, census_report, monkeypatch):
    l4 = next(g6 for g6, cls in census_report.equality_cases if cls == "L(4)")
    patch, run, want = _FAILURES[case]
    patch(monkeypatch)
    r = run()
    wants = [want] if isinstance(want, str) else want
    assert r.violations == [w.replace("<L(4)>", l4) for w in wants]
    assert r.passed is False


@pytest.mark.parametrize(
    "hidden, run, count, want",
    [
        ("L(1)", lambda: check_clawfree_theorem(max_n=7), "equality", 5),
        ("T(2)", lambda: check_tree_theorem(max_n=7), "equality_n7", 2),
    ],
    ids=["clawfree", "tree"],
)
def test_equality_counts_only_matched_classes(hidden, run, count, want, monkeypatch):
    # a class on the bound that matches no family is a violation, not an
    # equality case of the theorem, so it is left out of the count
    _blind_matcher(monkeypatch, hidden)
    r = run()
    assert r.counts[count] == want
    assert not r.passed


def test_clawfree_theorem_small():
    r = check_clawfree_theorem(max_n=7)
    assert r.passed, r.violations
    assert r.counts["equality"] == 6
    assert r.counts["exceptional"] == 5  # both tiny paths, P5, P6, the triangle
    for _, cls in r.equality_cases:
        assert cls in ("S-list", "H(1)")


@pytest.mark.parametrize(
    "witness",
    [lambda g, greedy: frozenset(range(g.n)), lambda g, greedy: frozenset({0})],
    ids=["all-vertices", "one-vertex"],
)
def test_greedy_witnesses_are_verified_not_trusted(witness, monkeypatch):
    # a greedy set only shortcuts the exact solve: when both greedy stages
    # return a set that is never under the bound (all n vertices) or no
    # DTD-set at all (one vertex, which has no neighbour in it), every
    # report must stay as it is
    runs = (lambda: check_clawfree_theorem(max_n=8), lambda: check_tree_theorem(max_n=10))
    want = [_payload(run()) for run in runs]
    _patch_greedy(monkeypatch, witness)
    assert [_payload(run()) for run in runs] == want


def test_clawfree_theorem_solves_exactly_only_the_unsettled_classes(monkeypatch):
    # of the 5,633 non-exceptional classes of order <= 9, the two greedy
    # stages leave only the six equality cases and three others for the
    # exact solver, and the greedy total dominating set settles all but 22
    calls = count_calls(monkeypatch, domination, "exact_number")
    dtd_calls = count_calls(monkeypatch, constructor, "greedy_dtd")
    r = check_clawfree_theorem(max_n=9)
    assert r.passed and r.counts["equality"] == 6
    assert len(calls) <= 9
    assert len(dtd_calls) <= 22


def test_mindeg2_small():
    r = check_mindeg2_observation(max_n=7)
    assert r.passed, r.violations
    assert r.counts["exceptions"] == 2  # the 3- and 7-cycles


def test_dtd_le_gt_small():
    r = check_dtd_le_gt(max_n=6)
    assert r.passed, r.violations
    assert r.checked == sum(1 for n in range(2, 7) for _ in connected_graphs(n))
    assert r.counts["equality"] + r.counts["strict"] == r.checked


def test_graph_theorem_with_synthetic_corpus(tmp_path):
    lines = [to_graph6(generate_named(name)) for name in ("T(3)", "F(3)", "G(3)")]
    lines += [to_graph6(generate_named(name)) for name in ("C10", "P10", "C10'")]
    corpus = tmp_path / "ten.g6"
    corpus.write_text("\n".join(lines) + "\n")
    r = check_graph_theorem(corpus=str(corpus))
    assert r.passed, r.violations
    assert r.counts.get("equality_n8") is None
    assert r.counts["equality_n10"] == 3
    classified = sorted(cls for _, cls in r.equality_cases)
    assert classified == ["F(3)", "G(3)", "T(3)"]


@pytest.mark.parametrize("g6", ["?", "@"])
def test_clawfree_theorem_rejects_corpus_orders_below_2(g6, tmp_path):
    # order 0 would read as an equality case (7*0 == 4*0), and order 1 would
    # end the run on the isolated vertex's domain error
    corpus = tmp_path / "tiny.g6"
    corpus.write_text(g6 + "\n")
    r = check_clawfree_theorem(max_n=3, corpus=str(corpus))
    assert r.violations == [f"corpus-order-below-2:{g6}"]
    assert r.checked == 3 and r.passed is False


def test_graph_theorem_rejects_small_corpus_orders(tmp_path):
    corpus = tmp_path / "small.g6"
    corpus.write_text(to_graph6(generate_named("C5")) + "\n")
    r = check_graph_theorem(corpus=str(corpus))
    assert not r.passed
    assert any("corpus-order-below-8" in v for v in r.violations)


def _corpus_graphs(path, clawfree):
    report = VerificationReport(theorem="t", universe="u")
    graphs = verify._corpus_classes(report, str(path), clawfree, 1)
    assert report.passed
    return graphs


def test_corpus_source(tmp_path):
    lines = [to_graph6(g) for g in connected_graphs(5)]
    lines.append(lines[0])  # duplicate must be dropped
    lines.append(to_graph6(Graph(5, [(0, 1), (2, 3)])))  # so must a disconnected graph
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    assert len(_corpus_graphs(path, False)) == 21  # the connected classes of order 5
    assert len(_corpus_graphs(path, True)) == 14  # the claw-free ones


def test_corpus_checks_connectivity_once(tmp_path, monkeypatch):
    graphs = list(connected_graphs(6))
    path = tmp_path / "connected.g6"
    path.write_text("\n".join(to_graph6(g) for g in graphs) + "\n")
    connected = count_calls(monkeypatch, graph, "is_connected")
    assert _corpus_graphs(path, False) == graphs
    assert len(connected) == len(graphs)


def test_missing_corpus_fails_before_the_builtin_walk(tmp_path, monkeypatch):
    expansions = count_calls(monkeypatch, enumeration, "accepted_children")
    with pytest.raises(GraphInputError):
        check_clawfree_theorem(max_n=10, corpus=str(tmp_path / "missing.g6"))
    assert expansions == []


def _small_corpus(tmp_path):
    names = ("T(3)", "F(3)", "G(3)", "C10", "P10", "C10'", "H(1)", "L(13)")
    corpus = tmp_path / "mixed.g6"
    corpus.write_text("\n".join(to_graph6(generate_named(x)) for x in names) + "\n")
    return str(corpus)


@pytest.mark.parametrize(
    "theorem", ["census7", "tree", "graph", "clawfree", "mindeg2", "dtd-le-gt"]
)
def test_parallel_matches_serial(theorem, tmp_path, monkeypatch):
    corpus = _small_corpus(tmp_path)
    run = {
        "census7": lambda jobs: check_order7_census(jobs=jobs),
        "tree": lambda jobs: check_tree_theorem(max_n=9, jobs=jobs),
        "graph": lambda jobs: check_graph_theorem(corpus=corpus, jobs=jobs),
        "clawfree": lambda jobs: check_clawfree_theorem(max_n=7, corpus=corpus, jobs=jobs),
        "mindeg2": lambda jobs: check_mindeg2_observation(max_n=7, jobs=jobs),
        "dtd-le-gt": lambda jobs: check_dtd_le_gt(max_n=6, jobs=jobs),
    }[theorem]
    pools = count_pools(monkeypatch)
    reports = []
    for jobs in (1, 2):
        payload = json.loads(emit_report(run(jobs), "json"))
        payload.pop("elapsed_ms")
        reports.append(payload)
    assert reports[0] == reports[1]
    assert reports[0]["checked"] > 0
    # one pool per checker: the tree orders share it, and so do a walk and
    # its corpus
    assert pools == [2]


def test_emit_report_formats():
    r = VerificationReport(theorem="demo", universe="unit", checked=3)
    r.counts["hits"] = 2
    r.equality_cases.append(("Bw", "T(1)"))
    text = emit_report(r, "text")
    assert "status: pass" in text and "equality Bw: T(1)" in text
    payload = json.loads(emit_report(r, "json"))
    assert payload["status"] == "pass"
    assert payload["theorem"] == "demo"
    assert payload["counts"] == {"hits": 2}
    r.violations.append("bound:Bw dtd=9")
    payload = json.loads(emit_report(r, "json"))
    assert payload["status"] == "fail"
    assert payload["violations"] == ["bound:Bw dtd=9"]
    text = emit_report(r, "text")
    assert "violation: bound:Bw dtd=9" in text


def test_emit_report_deterministic(census_report):
    assert emit_report(census_report, "json") == emit_report(census_report, "json")


def test_constructor_verdict_covers_each_level():
    clawfree_counts = {2: 1, 3: 2, 4: 5, 5: 14, 6: 50, 7: 191, 8: 881}
    counts = {}
    for g, verdict in walk_levels(2, 8, True, constructor_verdict):
        counts[g.n] = counts.get(g.n, 0) + 1
        assert verdict is None or verdict[1], to_graph6(g)
    assert counts == clawfree_counts


def _blind_matcher(monkeypatch, name):
    """Make every dtdom binding of ``is_isomorphic`` deny a match with the
    member ``name`` as built, so that its graph is left unclassified."""
    hidden = generate_named(name)
    original = canon.is_isomorphic

    def blind(g1, g2):
        return g2 != hidden and original(g1, g2)

    patch_bindings(monkeypatch, canon, "is_isomorphic", blind)


REPORTS_DIGEST = "50372f9cc8bb89f5d6a65c089396de54b0523bcfd7ee2425f4074bf1e1e41ab1"


def test_reports_are_pinned(census_report, tmp_path, monkeypatch):
    # the six theorems' JSON reports at small orders, computed before the
    # checkers read the family tables; no real graph breaks a theorem, so the
    # graph run hides G(3) from the matcher to pin the unclassified strings,
    # and its corpus holds H(1), of order 7, to pin the order violation
    corpus = _small_corpus(tmp_path)
    reports = [
        census_report,
        check_tree_theorem(max_n=10),
        check_clawfree_theorem(max_n=7, corpus=corpus),
        check_mindeg2_observation(max_n=7),
        check_dtd_le_gt(max_n=6),
    ]
    _blind_matcher(monkeypatch, "G(3)")
    reports.append(check_graph_theorem(corpus=corpus))
    assert "unclassified-equality:IhoGK?@?G" in reports[-1].violations
    payloads = []
    for r in reports:
        payload = json.loads(emit_report(r, "json"))
        payload.pop("elapsed_ms")
        payload["universe"] = payload["universe"].replace(corpus, "<corpus>")
        payloads.append(payload)
    text = json.dumps(payloads, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS_DIGEST


def test_graph_theorem_reads_the_family_table(tmp_path, monkeypatch):
    g3 = to_graph6(generate_named("G(3)"))
    corpus = tmp_path / "g3.g6"
    corpus.write_text(g3 + "\n")
    r = check_graph_theorem(corpus=str(corpus))
    assert r.passed and r.equality_cases == [(g3, "G(3)")]
    real = verify.members
    monkeypatch.setattr(
        verify, "members", lambda cls, n: [] if cls is FamilyClass.CAL_G else real(cls, n)
    )
    r = check_graph_theorem(corpus=str(corpus))
    assert r.violations == [f"unclassified-equality:{g3}"]
