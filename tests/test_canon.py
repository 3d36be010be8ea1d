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
