import functools
import hashlib
import random
from itertools import combinations

import pytest

from dtdom import (
    DomainError,
    DominationKind,
    Graph,
    GraphInputError,
    cycle_witness,
    dtd_cycle_formula,
    dtd_path_formula,
    dtd_uncovered,
    exact_number,
    generate_named,
    gt_cycle_formula,
    is_dominating_set,
    is_dtd_set,
    is_total_dominating_set,
    support_exchange,
)
from dtdom.domination import _cannot_cover, _weight_rows
from dtdom.enumeration import connected_graphs
from dtdom.graph import distance2_bits
from conftest import brute_force_minimum, random_connected_graph, random_graph

DOM = DominationKind.DOMINATION
TDOM = DominationKind.TOTAL_DOMINATION
DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION


# -- predicates -----------------------------------------------------------------


def test_dominating_set_examples():
    c5 = generate_named("C5")
    assert is_dominating_set(c5, {0, 2})
    assert not is_dominating_set(Graph(1), frozenset())
    c15 = generate_named("C15")
    assert is_dominating_set(c15, {0, 3, 6, 9, 12})


def test_total_dominating_set_examples():
    p2 = generate_named("P2")
    assert is_total_dominating_set(p2, {0, 1})
    assert not is_total_dominating_set(p2, {0})
    c7 = generate_named("C7")
    assert is_total_dominating_set(c7, {0, 1, 4, 5})


def test_dtd_set_examples():
    c5 = generate_named("C5")
    assert is_dtd_set(c5, {0, 1})
    assert not is_dtd_set(generate_named("P2"), {0})
    c7 = generate_named("C7")
    assert not is_dtd_set(c7, {0, 1})
    assert dtd_uncovered(c7, {0, 1}) == {3, 4, 5}


def test_dtd_requires_distance_exactly_two():
    # a dominating vertex at distance 1 does not double as a distance-2 witness
    p3 = generate_named("P3")
    assert dtd_uncovered(p3, {0, 2}) == {0, 2}


# -- exact solver ---------------------------------------------------------------


def test_exact_number_spec_values():
    assert exact_number(generate_named("C7"), DTD).value == 4
    assert exact_number(generate_named("P6"), DTD).value == 4
    assert exact_number(generate_named("G(3)"), DTD).value == 6
    assert exact_number(generate_named("Star(3)"), DTD).value == 2


def test_solver_result_contract():
    res = exact_number(generate_named("C7"), DTD)
    assert is_dtd_set(generate_named("C7"), res.witness)
    assert len(res.witness) == res.value
    assert res.explored > 0


def test_isolated_vertex_rejected_for_total_kinds():
    g = Graph(3, [(0, 1)])
    with pytest.raises(DomainError):
        exact_number(g, TDOM)
    with pytest.raises(DomainError):
        exact_number(g, DTD)
    assert exact_number(g, DOM).value == 2  # isolated vertex must be chosen


def test_disconnected_input_solved_globally():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # two paths P3
    assert exact_number(g, DTD).value == 4
    assert exact_number(g, TDOM).value == 4
    assert exact_number(g, DOM).value == 2


def test_empty_and_tiny():
    assert exact_number(Graph(0), DTD).value == 0
    assert exact_number(Graph(1), DOM).value == 1
    with pytest.raises(DomainError):
        exact_number(Graph(1), DTD)


@pytest.mark.parametrize("kind", ["dom", "tdom", "dtd"])
def test_solver_matches_brute_force_exhaustive_small(kind):
    kinds = {"dom": DOM, "tdom": TDOM, "dtd": DTD}
    for n in range(2, 7):
        for g in connected_graphs(n):
            want, _ = brute_force_minimum(g, kind)
            assert exact_number(g, kinds[kind]).value == want, sorted(g.edges())


def test_solver_matches_brute_force_random(rng):
    kinds = {"dom": DOM, "tdom": TDOM, "dtd": DTD}
    for _ in range(40):
        g = random_connected_graph(rng.randrange(4, 10), rng)
        for name, kind in kinds.items():
            want, _ = brute_force_minimum(g, name)
            got = exact_number(g, kind)
            assert got.value == want, (name, sorted(g.edges()))


def test_no_smaller_set_exists_small(rng):
    # re-search below the reported value finds nothing (witness minimality)
    for _ in range(15):
        g = random_connected_graph(rng.randrange(3, 8), rng)
        res = exact_number(g, DTD)
        for smaller in combinations(range(g.n), res.value - 1):
            assert not is_dtd_set(g, frozenset(smaller))


def _partial_state(g, kind, smask):
    """The solver's view of a partial set: its rows, distance-2 rows,
    uncovered vertices and the vertices with one distance-2 member."""
    nbr = [row | 1 << v for v, row in enumerate(g.bits)] if kind is DOM else g.bits
    d2 = distance2_bits(g) if kind is DTD else (0,) * g.n
    adjcov = d2one = d2two = 0
    for w in range(g.n):
        if smask >> w & 1:
            adjcov |= nbr[w]
            d2two |= d2[w] & d2one
            d2one |= d2[w]
    return nbr, d2, ((1 << g.n) - 1) & ~(adjcov | d2two), d2one


def test_coverage_bound_never_prunes_a_completion():
    rng = random.Random(20261018)
    checks = {DOM: is_dominating_set, TDOM: is_total_dominating_set, DTD: is_dtd_set}
    states = pruned = 0
    while states < 3000:
        g = random_graph(rng.randint(2, 9), rng.choice((0.25, 0.4, 0.6)), rng)
        kind = rng.choice((DOM, TDOM, DTD))
        if kind is not DOM and not all(g.bits):
            continue
        smask = sum(1 << v for v in range(g.n) if rng.random() < 0.2)
        banned = sum(1 << v for v in range(g.n) if rng.random() < 0.2) & ~smask
        nbr, d2, unc, d2one = _partial_state(g, kind, smask)
        if not unc:
            continue
        states += 1
        budget = rng.randint(1, g.n)
        avail = ((1 << g.n) - 1) & ~smask & ~banned
        if not _cannot_cover(_weight_rows(nbr, d2), unc, d2one, avail, budget):
            continue
        pruned += 1
        s = [v for v in range(g.n) if smask >> v & 1]
        free = [v for v in range(g.n) if avail >> v & 1]
        for size in range(1, min(budget, len(free)) + 1):
            for extra in combinations(free, size):
                assert not checks[kind](g, s + list(extra)), (kind, sorted(g.edges()), s, extra)
    assert pruned > 300


def _cycle_plus_chords(n, chords, rng):
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        u, v = sorted(rng.sample(range(n), 2))
        if v - u not in (1, n - 1):
            edges.add((u, v))
    return Graph(n, sorted(edges))


# sha256 over "kind value witness\n" for every kind and graph of the corpus
# below, recorded before the coverage bound replaced the unit-capacity bound;
# pins every witness, not only the values
SOLVER_DIGEST = "d93d996441a9ce7a14acfe45b70cd9467b9f2bef1afb4240d093b98aa3165c12"
# sha256 over "kind explored\n" on the same corpus, recorded before the three
# kinds shared one search; pins the search tree, not only its result
NODES_DIGEST = "5f753349bdcfd160f9e8dde9bb47a40585ec622874a8ace813b17f0b7b41924b"


@functools.lru_cache(maxsize=1)
def _pinned_corpus_results():
    rng = random.Random(7)
    corpus = [random_connected_graph(rng.randint(2, 14), rng) for _ in range(300)]
    corpus += [_cycle_plus_chords(rng.randint(18, 24), rng.randint(1, 4), rng) for _ in range(30)]
    corpus += [generate_named(f"{family}{n}") for family in "CP" for n in range(3, 31)]
    return [exact_number(g, kind) for g in corpus for kind in (DOM, TDOM, DTD)]


def test_solver_outputs_are_pinned():
    h = hashlib.sha256()
    for res in _pinned_corpus_results():
        witness = " ".join(map(str, sorted(res.witness)))
        h.update(f"{res.kind.value} {res.value} {witness}\n".encode())
    assert h.hexdigest() == SOLVER_DIGEST


def test_solver_node_counts_are_pinned():
    h = hashlib.sha256()
    for res in _pinned_corpus_results():
        h.update(f"{res.kind.value} {res.explored}\n".encode())
    assert h.hexdigest() == NODES_DIGEST


# -- closed forms -----------------------------------------------------------------


@pytest.mark.parametrize(
    "n,want", [(5, 2), (10, 4), (7, 4), (6, 3), (15, 6), (12, 6)]
)
def test_cycle_formula_values(n, want):
    assert dtd_cycle_formula(n) == want


@pytest.mark.parametrize("n,want", [(7, 4), (6, 4), (11, 6), (3, 2), (5, 3)])
def test_path_formula_values(n, want):
    assert dtd_path_formula(n) == want


@pytest.mark.parametrize("n,want", [(7, 4), (4, 2), (10, 6), (15, 8)])
def test_gt_cycle_formula_values(n, want):
    assert gt_cycle_formula(n) == want


@pytest.mark.parametrize("fn", [dtd_cycle_formula, dtd_path_formula, gt_cycle_formula])
def test_formula_domain(fn):
    with pytest.raises(GraphInputError):
        fn(2)


def test_formulas_match_solver_small():
    for n in range(3, 41):
        cn = generate_named(f"C{n}")
        pn = generate_named(f"P{n}")
        assert dtd_cycle_formula(n) == exact_number(cn, DTD).value
        assert dtd_path_formula(n) == exact_number(pn, DTD).value
        assert gt_cycle_formula(n) == exact_number(cn, TDOM).value
    # the coverage bound settles C45 in 6,482 nodes; the unit-capacity bound took 112,436
    assert exact_number(generate_named("C45"), DTD).explored < 20_000


def test_cycle_witness_examples():
    assert cycle_witness(10) == {0, 1, 5, 6}
    assert cycle_witness(5) == {0, 1}
    assert len(cycle_witness(7)) == 4
    assert is_dtd_set(generate_named("C7"), cycle_witness(7))


def test_cycle_witness_property():
    for n in range(3, 41):
        w = cycle_witness(n)
        assert len(w) == dtd_cycle_formula(n), n
        assert is_dtd_set(generate_named(f"C{n}"), w), n
    with pytest.raises(GraphInputError):
        cycle_witness(2)


# -- support-vertex exchange --------------------------------------------------------


def test_support_exchange_identity():
    p4 = generate_named("P4")
    s = frozenset({1, 2})  # the unique-style minimum; contains the support
    assert support_exchange(p4, s, 1) == s


def test_support_exchange_swaps_leaf_for_support():
    # spider: center 0 with leaves 1,2 and a subdivided third arm 0-3-4
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    s = frozenset({1, 2, 3})  # avoids the support, so a leaf must be swapped
    assert is_dtd_set(g, s)
    out = support_exchange(g, s, 0)
    assert 0 in out and len(out) == 3 and is_dtd_set(g, out)


def test_support_exchange_with_degree2_neighbor():
    t2 = generate_named("T(2)")  # path of 7 in spider labeling
    res = exact_number(t2, DTD)
    for v in (2, 5):  # the two support vertices, each with a degree-2 neighbor
        out = support_exchange(t2, res.witness, v, include_degree2_neighbor=True)
        assert v in out and len(out) == res.value and is_dtd_set(t2, out)
        w = next(u for u in range(t2.n) if t2.has_edge(v, u) and t2.degree(u) != 1)
        assert w in out


def test_support_exchange_errors():
    p4 = generate_named("P4")
    with pytest.raises(GraphInputError):
        support_exchange(p4, frozenset({0}), 1)  # not a DTD-set
    with pytest.raises(GraphInputError):
        support_exchange(p4, frozenset({1, 2}), 0)  # a leaf, not a support
    star = generate_named("Star(3)")
    with pytest.raises(GraphInputError):
        # support with zero non-leaf neighbors fails the hypothesis
        support_exchange(star, frozenset({0, 1}), 0)
