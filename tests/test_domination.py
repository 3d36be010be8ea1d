import functools
import gc
import hashlib
import random
from itertools import combinations

import networkx as nx
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
from dtdom.domination import _cannot_cover, _dominated, _ranked, _uncovered, _weight_rows
from dtdom.enumeration import connected_graphs
from dtdom.graph import distance2_bits
from conftest import brute_force_minimum, random_connected_graph, random_graph, to_networkx

DOM = DominationKind.DOMINATION
TDOM = DominationKind.TOTAL_DOMINATION
DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION
_PREDICATES = {DOM: is_dominating_set, TDOM: is_total_dominating_set, DTD: is_dtd_set}


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


@pytest.mark.parametrize(
    "predicate", [is_dominating_set, is_total_dominating_set, is_dtd_set, dtd_uncovered]
)
@pytest.mark.parametrize("foreign", [99, 7, -1])
def test_set_member_outside_the_graph_is_an_input_error(predicate, foreign):
    # {1, 2, 5, 6} is a DTD-set of P7; a member past n or below 0 must not
    # be read as a shift
    with pytest.raises(GraphInputError, match=f"vertex {foreign} out of range 0..6"):
        predicate(generate_named("P7"), {1, 2, 5, 6, foreign})


def _uncovered_by_definition(g, s, kind):
    """The vertices ``s`` leaves uncovered, from networkx distances."""
    dist = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
    bad = set()
    for v in range(g.n):
        if kind is DOM and v in s:
            continue
        if any(g.has_edge(v, u) for u in s):
            continue
        if kind is DTD and sum(dist[v].get(u) == 2 for u in s) >= 2:
            continue
        bad.add(v)
    return bad


@pytest.mark.parametrize(
    "kind, predicate",
    [(DOM, is_dominating_set), (TDOM, is_total_dominating_set), (DTD, is_dtd_set)],
)
def test_predicates_agree_with_the_uncovered_set(kind, predicate):
    # orders on both sides of the 12-vertex table; a predicate stops at the
    # first uncovered vertex, _uncovered collects them all
    rng = random.Random(31)
    seen = set()
    for n in range(5, 21):
        for _ in range(15):
            g = random_graph(n, rng.choice((0.15, 0.3, 0.6)), rng)
            s = set(rng.sample(range(n), rng.randrange(n + 1)))
            unc = _uncovered(g, s, kind)
            assert unc == _uncovered_by_definition(g, s, kind)
            assert predicate(g, s) == (not unc)
            # a one-shot generator is read once
            assert predicate(g, (v for v in s)) == (not unc)
            if kind is DTD:
                assert dtd_uncovered(g, (v for v in s)) == unc
            seen.add(not unc)
    assert seen == {True, False}


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
    # the bound exact_number runs, on random partial states; every state it
    # prunes is checked to have no completion within the budget, and the
    # states that the top-budget weight sum alone would keep show that the
    # per-vertex charge prunes on its own
    rng = random.Random(20261018)
    states = pruned = charge_only = 0
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
        rows = _weight_rows(nbr, d2)
        if not _cannot_cover(rows, unc, _ranked(rows, unc, d2one, avail), budget):
            continue
        pruned += 1
        s = [v for v in range(g.n) if smask >> v & 1]
        free = [v for v in range(g.n) if avail >> v & 1]
        # the doubled weights: 2 per uncovered neighbor or distance-2 vertex
        # with one member already, 1 per other uncovered distance-2 vertex
        weights = sorted(
            (2 * (nbr[w] & unc).bit_count() + (d2[w] & unc).bit_count() + (d2[w] & unc & d2one).bit_count()
             for w in free),
            reverse=True,
        )
        charge_only += sum(weights[:budget]) >= 2 * unc.bit_count()
        for size in range(1, min(budget, len(free)) + 1):
            for extra in combinations(free, size):
                assert not _PREDICATES[kind](g, s + list(extra)), (kind, sorted(g.edges()), s, extra)
    assert pruned > 300 and charge_only > 100, (pruned, charge_only)


def _least_completion(g, kind, s, free):
    """The fewest vertices of ``free`` that make ``s`` a set of ``kind``, by
    brute force, or None when even all of them do not."""
    for size in range(len(free) + 1):
        for extra in combinations(free, size):
            if _PREDICATES[kind](g, s + list(extra)):
                return size
    return None


def test_dominance_never_loses_a_completion():
    # the swap lemma exact_number bans by, on random partial states: banning
    # every candidate _dominated returns, tested against all free candidates,
    # leaves the least completion within the free candidates as it was
    rng = random.Random(20261021)
    states = banning = 0
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
        avail = ((1 << g.n) - 1) & ~smask & ~banned
        bans = _dominated(nbr, d2, unc, d2one, avail, avail)
        assert bans & ~avail == 0
        if not bans:
            continue
        banning += 1
        s = [v for v in range(g.n) if smask >> v & 1]
        free = [v for v in range(g.n) if avail >> v & 1]
        kept = [v for v in free if not bans >> v & 1]
        assert _least_completion(g, kind, s, free) == _least_completion(g, kind, s, kept), (
            kind, sorted(g.edges()), s, free, kept
        )
    assert banning > 1500, banning


def _cycle_plus_chords(n, chords, rng):
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        u, v = sorted(rng.sample(range(n), 2))
        if v - u not in (1, n - 1):
            edges.add((u, v))
    return Graph(n, sorted(edges))


# sha256 over "kind value\n" for every kind and graph of the corpus below;
# pins the values alone, which no change to the search may move
VALUES_DIGEST = "4cd976c62896144c6c244fed7b16f3563fb2582fa6a90ecc09008de046e2baa8"
# sha256 over "kind value witness\n" on the same corpus, recorded when the
# search began to ban dominated candidates and to descend from the greedy
# set, which moved 34 of the 1,158 witnesses; pins every witness, not only
# the values
SOLVER_DIGEST = "284df95bf3c026fe5cb72c61f164ae51271b138bbd98b1548dd188d59045fc21"
# sha256 over "kind explored\n" on the same corpus, recorded when the
# descent lost its root lower bound and so runs its last refutation where
# the optimum met that bound (totals DOM 2,128, TDOM 1,364, DTD 4,858;
# 1,557, 975 and 4,280 with the bound; 674 of the 1,158 calls explore more
# nodes, at most 5 more, and none fewer); pins the search tree, not only
# its result
NODES_DIGEST = "575c86a2ba957a6238a58a9f9b8127b17ec1178e0de7e4cff6fefe5bcfe5e74c"


@functools.lru_cache(maxsize=1)
def _pinned_corpus():
    rng = random.Random(7)
    corpus = [random_connected_graph(rng.randint(2, 14), rng) for _ in range(300)]
    corpus += [_cycle_plus_chords(rng.randint(18, 24), rng.randint(1, 4), rng) for _ in range(30)]
    corpus += [generate_named(f"{family}{n}") for family in "CP" for n in range(3, 31)]
    return corpus


@functools.lru_cache(maxsize=1)
def _pinned_corpus_results():
    return [exact_number(g, kind) for g in _pinned_corpus() for kind in (DOM, TDOM, DTD)]


def test_exact_number_leaves_no_reference_cycle():
    # the search drops its self-referencing closure before it returns
    g = generate_named("C9")
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for kind in (DOM, TDOM, DTD):
            for _ in range(3):
                exact_number(g, kind)
        gc.collect()
        leaked = [o for o in gc.garbage if getattr(o, "__qualname__", "") == "exact_number.<locals>.rec"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []


def test_solver_values_are_pinned():
    h = hashlib.sha256()
    for res in _pinned_corpus_results():
        h.update(f"{res.kind.value} {res.value}\n".encode())
    assert h.hexdigest() == VALUES_DIGEST


def test_solver_witnesses_are_sets_of_the_value():
    results = iter(_pinned_corpus_results())
    for g in _pinned_corpus():
        for kind in (DOM, TDOM, DTD):
            res = next(results)
            assert res.kind is kind and len(res.witness) == res.value
            assert _PREDICATES[kind](g, res.witness), (kind, sorted(g.edges()), sorted(res.witness))


def test_weight_ordering_keeps_the_chord_graphs_cheap():
    # DTD on the corpus's 30 cycle-plus-chords graphs takes 2,493 nodes with
    # the dominance bans, the descent from the greedy set, the heaviest
    # option first and the per-vertex charge; with the hub step of
    # take-or-ban in their place it took 3,361, without that step 4,955,
    # without the charge 8,297, in ascending order with the same greedy
    # incumbent 9,856, and before all of them 11,180
    results = _pinned_corpus_results()
    assert sum(results[3 * i + 2].explored for i in range(300, 330)) <= 2_700


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


def _milp_minimum(g, kind):
    """The least |S| by scipy's MILP solver, with one row per vertex v over
    networkx distances: 2 x(N(v)) + x(D2(v)) >= 2 for dtd, x(N(v)) >= 1 for
    tdom and x(N[v]) >= 1 for dom, each doubled to the same right side."""
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    a = np.zeros((g.n, g.n))
    for v, dist in nx.all_pairs_shortest_path_length(to_networkx(g), cutoff=2):
        for u, d in dist.items():
            if d == 1 or (d == 0 and kind is DOM):
                a[v, u] = 2
            elif d == 2 and kind is DTD:
                a[v, u] = 1
    res = optimize.milp(
        np.ones(g.n),
        constraints=optimize.LinearConstraint(a, 2, np.inf),
        integrality=np.ones(g.n),
        bounds=optimize.Bounds(0, 1),
    )
    assert res.success, res.message
    return round(res.fun)


def _sparse_connected_graph(n, rng):
    # a random spanning tree plus at most n / 3 chords: low degrees keep the
    # values near n / 2, where the search is deepest
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + rng.randint(0, n // 3):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


def test_solver_matches_an_integer_program():
    # a second oracle with nothing in common with the search: seeded random
    # connected graphs of up to 40 vertices, sparse and dense, and the named
    # families, all three kinds (a few seconds)
    rng = random.Random(37)
    graphs = [_sparse_connected_graph(rng.randint(10, 40), rng) for _ in range(100)]
    graphs += [random_connected_graph(rng.randint(10, 40), rng) for _ in range(20)]
    named = ("P40", "C40", "T(8)", "F(8)", "G(8)", "H(4)", "H(5)", "L(13)", "L(14)")
    graphs += [generate_named(name) for name in named]
    for g in graphs:
        for kind in (DOM, TDOM, DTD):
            assert exact_number(g, kind).value == _milp_minimum(g, kind), (kind, sorted(g.edges()))


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


@pytest.mark.parametrize(
    "name,formula,ceiling", [("P60", dtd_path_formula, 300), ("C45", dtd_cycle_formula, 300)], ids=("P60", "C45")
)
def test_wide_paths_and_cycles_solve_in_few_nodes(name, formula, ceiling):
    # with the dominance bans and the descent from the greedy set DTD
    # settles P60 in 132 nodes and C45 in 149; with the hub step in their
    # place it took 7,424 and 963, and under the weight sum alone 137,228
    # and 10,360 (C45 took 6,482 in ascending order, and 112,436 under the
    # unit-capacity bound)
    g = generate_named(name)
    res = exact_number(g, DTD)
    assert res.value == formula(g.n) and is_dtd_set(g, res.witness)
    assert res.explored < ceiling


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
