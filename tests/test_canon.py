import hashlib
import random

import networkx as nx
import pytest

from dtdom import (
    Graph,
    canonical_form,
    canonical_relabel,
    generate_named,
    is_isomorphic,
    isomorphism_map,
)
from dtdom.canon import _refine, anchored_profile, automorphism_generators, certificate
from conftest import random_graph, to_networkx


def test_named_isomorphisms():
    assert is_isomorphic(generate_named("P7"), generate_named("L(1)"))
    assert is_isomorphic(generate_named("C7"), generate_named("L(10)"))
    assert not is_isomorphic(generate_named("P7"), generate_named("TStar"))


def test_certificate_agrees_with_networkx(rng):
    for _ in range(120):
        n = rng.randrange(1, 9)
        g1 = random_graph(n, 0.4, rng)
        g2 = random_graph(n, 0.4, rng)
        want = nx.is_isomorphic(to_networkx(g1), to_networkx(g2))
        assert is_isomorphic(g1, g2) == want


def test_certificate_invariant_under_relabeling(rng):
    for _ in range(80):
        n = rng.randrange(1, 11)
        g = random_graph(n, 0.35, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert canonical_form(g) == canonical_form(h)
        anchor = rng.randrange(n)
        assert certificate(n, g.bits, anchor) == certificate(n, h.bits, perm[anchor])


def test_canonical_relabel_is_isomorphic_fixed_point(rng):
    for _ in range(30):
        g = random_graph(rng.randrange(1, 10), 0.4, rng)
        c = canonical_relabel(g)
        assert is_isomorphic(g, c)
        assert canonical_relabel(c) == c


def test_symmetric_graphs():
    k6 = generate_named("K6")
    assert is_isomorphic(k6, k6.relabel([3, 1, 5, 0, 2, 4]))
    c7 = generate_named("C7")
    rot = [(i + 3) % 7 for i in range(7)]
    assert canonical_form(c7) == canonical_form(c7.relabel(rot))


def test_isomorphism_map_witness(rng):
    for _ in range(40):
        n = rng.randrange(1, 10)
        g = random_graph(n, 0.35, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        phi = isomorphism_map(g, h)
        assert phi is not None
        for u, v in g.edges():
            assert h.has_edge(phi[u], phi[v])
    assert isomorphism_map(generate_named("P4"), generate_named("Star(3)")) is None


def test_incremental_refinement_matches_scratch(rng):
    # after individualizing inside an equitable partition, seeding the work
    # queue with just the new singleton must give the full refinement
    for _ in range(60):
        n = rng.randrange(2, 11)
        g = random_graph(n, 0.4, rng)
        full = (1 << n) - 1
        base = _refine(n, g.bits, [full], None)
        cell_idx = next((i for i, c in enumerate(base) if c & (c - 1)), None)
        if cell_idx is None:
            continue
        cell = base[cell_idx]
        v = cell & -cell
        split = base[:cell_idx] + [v, cell ^ v] + base[cell_idx + 1 :]
        assert _refine(n, g.bits, split, [v]) == _refine(n, g.bits, split, None)


def test_anchored_first_leaf_properties(rng):
    # canonical deletion skips a tied vertex whose first leaf equals the new
    # vertex's, so equal leaves must imply equal anchored certificates
    automorphic = 0
    for i in range(150):
        n = rng.randrange(1, 11)
        g = random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng)
        if i % 3 == 0:
            # two copies side by side, so distinct roots are often automorphic
            h = random_graph(n // 2, 0.5, rng)
            n = 2 * h.n
            g = Graph(n, list(h.edges()) + [(u + h.n, v + h.n) for u, v in h.edges()])
        certs = [certificate(n, g.bits, u) for u in range(n)]
        profiles = [anchored_profile(n, g.bits, u) for u in range(n)]
        for u, (inv, leaf) in enumerate(profiles):
            if len(inv) == n:
                assert leaf == certs[u]
            for w in range(u + 1, n):
                if profiles[w][1] == leaf:
                    assert certs[w] == certs[u]
                    automorphic += 1
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        for u in range(n):
            assert anchored_profile(n, h.bits, perm[u])[0] == profiles[u][0]
    assert automorphic


def test_distinguishes_close_pairs():
    # same degree sequence, different graphs
    g1 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])  # C6
    g2 = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])  # 2 triangles
    assert not is_isomorphic(g1, g2)
    assert canonical_form(g1) != canonical_form(g2)


def _group_order(n, gens):
    """Size of the permutation group generated by ``gens`` (by closure)."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def test_automorphism_generators_generate_full_group():
    # canonical augmentation merges masks by the orbits of these generators,
    # so they must generate the whole group, not just a subgroup
    rng = random.Random(6170)
    graphs = [g for g in nx.graph_atlas_g()[1:] if nx.is_connected(g)]
    graphs += [
        nx.petersen_graph(),
        nx.hypercube_graph(4),
        nx.cycle_graph(12),
        nx.complete_bipartite_graph(4, 4),
        nx.circulant_graph(10, [1, 3]),
        # twin-heavy graphs, whose twin transpositions seed the search
        nx.complete_graph(7),
        nx.star_graph(6),
        nx.complete_multipartite_graph(2, 2, 2),
        nx.complete_multipartite_graph(2, 2, 2, 2),
        nx.corona_product(nx.complete_graph(5), nx.empty_graph(1)),
        nx.line_graph(nx.complete_bipartite_graph(3, 3)),
    ]
    for h in graphs:
        h = nx.convert_node_labels_to_integers(h)
        n = h.number_of_nodes()
        perm = list(range(n))
        rng.shuffle(perm)
        h = nx.relabel_nodes(h, dict(enumerate(perm)))
        g = Graph(n, list(h.edges()))
        gens = automorphism_generators(n, g.bits)
        for s in gens:
            assert all(g.has_edge(s[u], s[v]) for u, v in g.edges())
        matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
        want = sum(1 for _ in matcher.isomorphisms_iter())
        assert _group_order(n, gens) == want, sorted(g.edges())


def _twin_rich_corpus(rng):
    """Seeded graphs of order <= 12, a third of them built from twin classes:
    each vertex of a small random graph blown up into a clique or an
    independent set, so most vertices have a true or a false twin."""
    graphs = [
        Graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)]),  # K7
        Graph(7, [(0, v) for v in range(1, 7)]),  # K_{1,6}
        Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                  if u % 3 == v % 3 or u // 3 == v // 3]),  # L(K_{3,3})
    ]
    for i in range(150):
        if i % 3:
            n = rng.randrange(1, 11)
            graphs.append(random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng))
            continue
        base = random_graph(rng.randrange(2, 5), 0.6, rng)
        sizes = [rng.choice((1, 2, 2, 3)) for _ in range(base.n)]
        cliques = [rng.random() < 0.5 for _ in range(base.n)]
        blocks, n = [], 0
        for s in sizes:
            blocks.append(range(n, n + s))
            n += s
        edges = []
        for a in range(base.n):
            if cliques[a]:
                edges += [(u, v) for u in blocks[a] for v in blocks[a] if u < v]
            for b in range(a + 1, base.n):
                if base.has_edge(a, b):
                    edges += [(u, v) for u in blocks[a] for v in blocks[b]]
        g = Graph(n, edges)
        # keep _group_order's closure small: no twin class beyond 4 vertices
        classes = {}
        for u in range(n):
            for key in (g.bits[u], g.bits[u] | 1 << u):
                classes[key] = classes.get(key, 0) + 1
        if max(classes.values()) <= 4:
            graphs.append(g)
    return graphs


# sha256 of the canon outputs on _twin_rich_corpus(random.Random(1998)),
# computed before the canonical search was seeded with twin transpositions:
# seeding may prune only branches whose leaves an explored branch repeats
CANON_DIGEST = "dd0a90117f40e710ea03c92a0ccb95f9e4160079898d6d521832abb6ca3cf26a"


def _canon_outputs_digest():
    rng = random.Random(1998)
    h = hashlib.sha256()
    for g in _twin_rich_corpus(rng):
        n = g.n
        p1, p2 = list(range(n)), list(range(n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        out = (
            certificate(n, g.bits),
            [certificate(n, g.bits, u) for u in range(n)],
            isomorphism_map(g.relabel(p1), g.relabel(p2)),
            _group_order(n, automorphism_generators(n, g.bits)),
        )
        h.update((repr(out) + "\n").encode())
    return h.hexdigest()


def test_canon_outputs_are_pinned():
    assert _canon_outputs_digest() == CANON_DIGEST
