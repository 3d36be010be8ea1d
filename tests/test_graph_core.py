import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from dtdom import (
    Graph,
    GraphInputError,
    connected_components,
    find_claw,
    generate_named,
    induced_subgraph,
    is_claw_free,
    is_connected,
    is_isomorphic,
    leaves,
    support_vertices,
)
from dtdom.graph import _BITS, _from_mask, _members, bits_to_vertices, distance2_bits
from conftest import random_graph, to_networkx


def test_bit_table_matches_peeling(rng):
    assert len(_BITS) == 1 << 12
    for m, bits in enumerate(_BITS):
        assert tuple(bits) == tuple(_from_mask(m))
    assert all(_members(n) is _BITS for n in range(13))
    for _ in range(200):
        n = rng.randrange(13, 65)
        m = rng.getrandbits(n)
        assert list(_members(n)[m]) == _from_mask(m)
    # 13 to 36 vertices join three 12-bit chunks; a mask is checked with its
    # own width, so top bits 12, 23, 24 and 35 sit at a chunk's edge and
    # top bit 36 and up take the peel
    masks = [rng.getrandbits(rng.randrange(13, 41)) | 1 << 12 for _ in range(300)]
    for top in (12, 23, 24, 35, 36, 40):
        masks += [1 << top, (2 << top) - 1, 1 << top | rng.getrandbits(top)]
    for m in masks:
        n = m.bit_length()
        assert list(_members(n)[m]) == _from_mask(m), hex(m)
    assert _members(36) is not _members(37)


def test_graph_from_edges_examples():
    c3 = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert c3.edge_count == 3 and all(c3.degree(v) == 2 for v in range(3))
    p2 = Graph(2, [(0, 1)])
    assert p2.edge_count == 1
    p7 = Graph(7, [(i, i + 1) for i in range(6)])
    assert is_isomorphic(p7, generate_named("L(1)"))


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(-1, 1)], [(0, 0)]])
def test_bad_edges_rejected(edges):
    with pytest.raises(GraphInputError):
        Graph(3, edges)


def test_connectivity_examples():
    assert is_connected(generate_named("C5"))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph(1))
    assert is_connected(Graph(0))
    comps = connected_components(Graph(4, [(0, 1), (2, 3)]))
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3]]


def test_claw_detection_examples():
    star = generate_named("Star(3)")
    assert find_claw(star) == (0, 1, 2, 3)
    assert not is_claw_free(star)
    for i in range(1, 13):
        assert is_claw_free(generate_named(f"L({i})")), i
    assert is_claw_free(generate_named("T(2)"))
    assert not is_claw_free(generate_named("T(3)"))


def _has_induced_claw(g):
    """Exhaustive, by the definition: a vertex with three pairwise
    non-adjacent neighbors."""
    for center in range(g.n):
        nbrs = [v for v in range(g.n) if g.has_edge(center, v)]
        for a, b, c in combinations(nbrs, 3):
            if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
                return True
    return False


def _check_claw(g):
    """``is_claw_free`` and ``find_claw`` agree with the brute force, and a
    witness is an induced claw, its center first and its leaves ascending.
    Returns whether ``g`` is claw-free."""
    want = not _has_induced_claw(g)
    claw = find_claw(g)
    assert is_claw_free(g) == want
    assert (claw is None) == want
    if claw is not None:
        center, a, b, c = claw
        assert a < b < c
        assert all(g.has_edge(center, x) for x in (a, b, c))
        assert not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c))
    return want


def test_claw_witness_is_induced(rng):
    # orders on both sides of the pair scan's 12-vertex limit
    for _ in range(80):
        _check_claw(random_graph(rng.randrange(4, 21), 0.35, rng))


def test_claw_detection_matches_brute_force_on_every_small_graph():
    # the atlas holds every graph of order 0 to 7 up to isomorphism, 1,253
    # of them, disconnected ones included
    answers = [
        _check_claw(Graph(h.number_of_nodes(), nx.convert_node_labels_to_integers(h).edges()))
        for h in nx.graph_atlas_g()
    ]
    assert len(answers) == 1253 and set(answers) == {True, False}


def test_claw_freeness_matches_exhaustive_search():
    # orders 10 to 12 take the pair scan and 13 to 16 the center scan
    rng = random.Random(4242)
    for order in range(10, 17):
        seen = set()
        for _ in range(20):
            seen.add(_check_claw(random_graph(order, rng.choice((0.2, 0.5, 0.8)), rng)))
        assert False in seen, order
        for _ in range(10):
            # line graphs are claw-free, and a graph with `order` edges has
            # a line graph of that order
            h = nx.gnm_random_graph(rng.randrange(7, order + 2), order, seed=rng.randrange(1 << 30))
            lg = nx.convert_node_labels_to_integers(nx.line_graph(h))
            assert _check_claw(Graph(order, lg.edges())), order


def test_components_match_networkx():
    rng = random.Random(4243)
    for _ in range(80):
        g = random_graph(rng.randrange(1, 12), rng.choice((0.1, 0.2, 0.4)), rng)
        comps = connected_components(g)
        want = sorted(sorted(c) for c in nx.connected_components(to_networkx(g)))
        assert sorted(sorted(c) for c in comps) == want
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        assert is_connected(g) == (len(want) == 1)


def test_leaves_and_supports_match_definitions():
    rng = random.Random(4244)
    for _ in range(80):
        g = random_graph(rng.randrange(1, 12), 0.25, rng)
        h = to_networkx(g)
        want_leaves = {v for v in h if h.degree(v) == 1}
        assert leaves(g) == want_leaves
        assert support_vertices(g) == {u for u in h if any(w in want_leaves for w in h[u])}


def test_distance2_bits_match_networkx():
    rng = random.Random(4245)
    for _ in range(60):
        g = random_graph(rng.randrange(1, 12), 0.3, rng)
        dist = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        for v, row in enumerate(distance2_bits(g)):
            assert bits_to_vertices(row) == {u for u, d in dist[v].items() if d == 2}


def test_leaves_and_supports():
    p4 = generate_named("P4")
    assert leaves(p4) == {0, 3}
    assert support_vertices(p4) == {1, 2}
    c5 = generate_named("C5")
    assert leaves(c5) == frozenset() and support_vertices(c5) == frozenset()
    t2 = generate_named("T(2)")
    assert len(leaves(t2)) == 2 and len(support_vertices(t2)) == 2


def _complement(g, drop):
    return [v for v in range(g.n) if v not in drop]


def test_induced_and_removed_subgraphs():
    c5 = generate_named("C5")
    sub, mapping = induced_subgraph(c5, _complement(c5, {0}))
    assert sub.n == 4 and is_isomorphic(sub, generate_named("P4"))
    assert mapping == {1: 0, 2: 1, 3: 2, 4: 3}
    l10 = generate_named("L(10)")
    for v in range(7):
        sub, _ = induced_subgraph(l10, _complement(l10, {v}))
        assert is_isomorphic(sub, generate_named("P6"))


def _subsets(g, rng):
    """Empty, full, a random drop, and an unsorted pick that repeats a vertex."""
    yield []
    yield range(g.n)
    yield _complement(g, {v for v in range(g.n) if rng.random() < 0.3})
    if g.n:
        pick = [rng.randrange(g.n) for _ in range(rng.randrange(1, g.n + 2))]
        yield pick + pick[:1]


def test_removed_subgraph_edge_set(rng):
    for _ in range(40):
        g = random_graph(rng.randrange(0, 21), rng.choice((0.2, 0.4, 0.7)), rng)
        for s in _subsets(g, rng):
            keep = sorted(set(s))
            # relabeled in sorted order whatever the input order: callers
            # map the subgraph's vertices back through that order
            sub, mapping = induced_subgraph(g, list(s)[::-1])
            assert list(mapping.items()) == [(old, new) for new, old in enumerate(keep)]
            want = nx.relabel_nodes(to_networkx(g).subgraph(keep), mapping)
            assert sub.n == len(keep)
            assert sorted(sub.edges()) == sorted(tuple(sorted(e)) for e in want.edges())


@pytest.mark.parametrize("s", [[3], [-1, 0], [0, 1, 2, 3]])
def test_induced_set_out_of_range_rejected(s):
    with pytest.raises(GraphInputError, match="induced set out of range"):
        induced_subgraph(generate_named("P3"), s)


@pytest.mark.parametrize("perm", [[0, 1, 0], [0, 1], [0, 1, 2, 3], [1, 2, 3]])
def test_relabel_rejects_a_non_permutation(perm):
    with pytest.raises(GraphInputError, match="not a permutation of 0..2"):
        generate_named("P3").relabel(perm)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabel_preserves_isomorphism(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    g = Graph(n, sorted(edges))
    perm = data.draw(st.permutations(range(n)))
    h = g.relabel(list(perm))
    assert is_isomorphic(g, h)
    assert all(h.has_edge(perm[u], perm[v]) for u, v in g.edges())
    inverse = sorted(range(n), key=perm.__getitem__)
    assert h.relabel(inverse) == g
