import gc
import hashlib
import multiprocessing
import random
import time
import tracemalloc
from collections.abc import Sequence

import networkx as nx
import pytest

from dtdom import (
    GraphInputError,
    canonical_form,
    connected_clawfree_graphs,
    connected_graphs,
    free_trees,
    is_claw_free,
    is_connected,
    is_tree,
    to_graph6,
)
from dtdom import Graph, enumeration, graph
from dtdom.canon import anchored_profile, automorphism_generators, certificate
from dtdom.enumeration import (
    _bfs_signature,
    _candidates,
    _deletion_check,
    _neighbor_degrees,
    _mapper,
    _orbit_representative_masks,
    level_rows,
    walk_levels,
)
from dtdom.graph import _component_masks

from conftest import count_pools, to_networkx

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
CLAWFREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 50, 7: 191, 8: 881,
                   9: 4494, 10: 26389}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551, 16: 19320}


@pytest.mark.parametrize("n", sorted(TREE_COUNTS))
def test_tree_counts(n):
    assert sum(1 for _ in free_trees(n)) == TREE_COUNTS[n]


def test_trees_are_trees_and_distinct():
    seen = set()
    for g in free_trees(9):
        assert is_tree(g)
        cert = canonical_form(g)
        assert cert not in seen
        seen.add(cert)


def test_tree_generator_matches_networkx_oracle():
    for n in (4, 7, 10):
        want = sum(1 for _ in nx.nonisomorphic_trees(n))
        assert sum(1 for _ in free_trees(n)) == want


@pytest.mark.parametrize("n", sorted(CONNECTED_COUNTS))
def test_connected_counts(n):
    assert sum(1 for _ in connected_graphs(n)) == CONNECTED_COUNTS[n]


def test_connected_counts_match_atlas_oracle():
    # the graph atlas holds every graph up to order 7
    by_order = {}
    for g in nx.graph_atlas_g()[1:]:
        if g.number_of_nodes() >= 1 and nx.is_connected(g):
            by_order[g.number_of_nodes()] = by_order.get(g.number_of_nodes(), 0) + 1
    for n in range(1, 8):
        assert CONNECTED_COUNTS[n] == by_order[n]


def test_clawfree_counts_match_atlas_oracle():
    def clawfree(g):
        return not any(
            nx.is_isomorphic(sub, nx.star_graph(3))
            for sub in (
                g.subgraph(c)
                for c in __import__("itertools").combinations(g.nodes, 4)
            )
        )

    by_order = {}
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if 1 <= n <= 6 and nx.is_connected(g) and clawfree(g):
            by_order[n] = by_order.get(n, 0) + 1
    for n in range(1, 7):
        assert CLAWFREE_COUNTS[n] == by_order[n]


@pytest.mark.parametrize("n", sorted(CLAWFREE_COUNTS))
def test_clawfree_counts(n):
    assert sum(1 for _ in connected_clawfree_graphs(n)) == CLAWFREE_COUNTS[n]


def test_enumerated_graphs_are_valid_and_distinct():
    seen = set()
    for g in connected_graphs(6):
        assert is_connected(g)
        cert = canonical_form(g)
        assert cert not in seen
        seen.add(cert)
    seen = set()
    for g in connected_clawfree_graphs(7):
        assert is_connected(g) and is_claw_free(g)
        cert = canonical_form(g)
        assert cert not in seen
        seen.add(cert)


def test_clawfree_stream_is_subset_of_connected():
    all7 = {canonical_form(g) for g in connected_graphs(7)}
    cf7 = {canonical_form(g) for g in connected_clawfree_graphs(7)}
    assert cf7 <= all7
    direct = {
        canonical_form(g) for g in connected_graphs(7) if is_claw_free(g)
    }
    assert cf7 == direct


def test_determinism():
    first = [to_graph6(g) for g in connected_clawfree_graphs(6)]
    second = [to_graph6(g) for g in connected_clawfree_graphs(6)]
    assert first == second


# sha256 of the ordered stream of walk_levels(1, hi), one line per class
# ("bits[0] bits[1] ...\n"); pins the order of the classes, not just their count
STREAM_DIGESTS = {
    (True, 9): "e03e6b728f62659a9f0c7d512cd63d4413d49830ee43f96279fa25f7407e90f1",
    (False, 7): "416507ee34c33786855bdf25ab65e30575c37ace9540bcf235916b387f969eb1",
    (False, 8): "900f9be2bd90f6ff005491b2962d74894781db5a854d9038584bccf2fca4b46e",
    (True, 10): "9e506db2843701a21602e325667ca61a552d23b1beca395b043bfb6b594e67c2",
}


@pytest.mark.parametrize("clawfree,hi", sorted(STREAM_DIGESTS))
def test_stream_order_is_pinned(clawfree, hi):
    h = hashlib.sha256()
    for g, _ in walk_levels(1, hi, clawfree, lambda g: None):
        h.update((" ".join(map(str, g.bits)) + "\n").encode())
    assert h.hexdigest() == STREAM_DIGESTS[clawfree, hi]


# sha256 of the ordered candidate masks of every claw-free parent of order
# <= 9 and every connected parent of order <= 7, one line per parent
CANDIDATE_DIGEST = "a109bbfc590a21fc6ce086eccc1474e2016e78256c10f0c7936f53d27c60fd55"


def test_candidate_masks_are_pinned():
    h = hashlib.sha256()
    for clawfree, hi in ((True, 9), (False, 7)):
        for n in range(1, hi + 1):
            for parent in level_rows(n, clawfree):
                masks = _candidates(parent, clawfree)[3]
                h.update((" ".join(map(str, masks)) + "\n").encode())
    assert h.hexdigest() == CANDIDATE_DIGEST


def test_candidates_noncut_match_networkx():
    # a vertex u is non-cut when parent-u has at most one component; the
    # candidate walk and the deletion check both read it from ``comps``
    checked = 0
    for n in range(1, 8):
        for parent in level_rows(n, False):
            parent, _, comps, _ = _candidates(parent, False)
            h = to_networkx(graph.Graph.from_bits(n, parent))
            assert {u for u in range(n) if len(comps[u]) <= 1} == set(h) - set(
                nx.articulation_points(h)
            ), parent
            checked += 1
    assert checked == sum(CONNECTED_COUNTS[n] for n in range(1, 8))


def test_walk_starts_from_cached_levels(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    assert sum(1 for _ in connected_clawfree_graphs(9)) == CLAWFREE_COUNTS[9]
    real = enumeration.accepted_children
    parents = []

    def counted(parent, clawfree):
        parents.append(parent)
        return real(parent, clawfree)

    monkeypatch.setattr(enumeration, "accepted_children", counted)
    rows9 = [g.bits for g, _ in walk_levels(9, 9, True, None)]
    assert len(rows9) == CLAWFREE_COUNTS[9]
    # only the cached order-8 level is expanded again, not levels 1..8
    assert len(parents) == CLAWFREE_COUNTS[8]
    assert list(level_rows(9, True)) == rows9
    for clawfree, hi in ((True, 8), (False, 7)):
        for n in range(1, hi + 1):
            want = [g.bits for g, _ in walk_levels(n, n, clawfree, None)]
            assert list(level_rows(n, clawfree)) == want


def test_packed_level_reads_like_the_row_list():
    rows = [g.bits for g, _ in walk_levels(8, 8, True, None)]
    level = level_rows(8, True)
    assert isinstance(level, Sequence)
    assert len(level) == len(rows) == CLAWFREE_COUNTS[8]
    assert list(level) == rows
    for i in (0, 1, 440, len(rows) - 1, -1, -len(rows)):
        assert level[i] == rows[i]
        assert type(level[i]) is tuple
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            level[i]
    for s in (slice(None, 20), slice(5, 9), slice(-3, None), slice(None, None, 97),
              slice(30, 2, -7), slice(900, 1000)):
        assert level[s] == rows[s]
    # a small sample indexes the level, a large one copies it to a list first
    for seed, k in ((1, 25), (2, 25), (4099, 600)):
        assert random.Random(seed).sample(level, k) == random.Random(seed).sample(rows, k)
    assert list(level_rows(1, True)) == [(0,)]


def test_level_cache_is_packed(monkeypatch):
    # the claw-free cache through order 10 (32,028 classes), built cold, by
    # tracemalloc; as lists of int tuples it held about 8.2 MB.  A first
    # build fills the interpreter's free lists, which tracemalloc counts as
    # held, so the traced build is a second one from an empty cache.
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    level_rows(10, True)
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        level = level_rows(10, True)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(level) == CLAWFREE_COUNTS[10]
    assert sorted(enumeration._LEVELS) == [(n, True) for n in range(2, 11)]
    assert held < 1 << 20, held  # 0.62 MB of it is the level arrays
    # the tuples a level hands out share one int object per row value
    assert len({id(v) for rows in level for v in rows}) <= 1 << 10


@pytest.mark.parametrize("size", [101, 5000])
def test_sweep_keeps_input_order_across_chunks(size):
    # over 2 workers, 101 items go out in chunks of 4 and 5,000 in chunks of
    # 64 (the cap); either way the last chunk is short
    items = list(range(size))
    want = [hex(i) for i in items]
    for jobs in (1, 2):
        with _mapper(jobs) as run:
            assert list(run(hex, items)) == want


def _orbit_firsts(n, parent, masks):
    """The first mask of each orbit of the parent's automorphism group, by
    closing each mask under the search's generators, with no shortcut."""
    gens = automorphism_generators(n, parent)
    kept, seen = [], set()
    for mask in masks:
        if mask in seen:
            continue
        kept.append(mask)
        orbit, frontier = {mask}, [mask]
        while frontier:
            m = frontier.pop()
            for s in gens:
                image = sum(1 << s[u] for u in range(n) if m >> u & 1)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        seen |= orbit
    return kept


def test_orbit_representatives_match_the_full_group(monkeypatch):
    real = enumeration._search
    searches = []

    def counted(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "_search", counted)
    merged = 0
    for clawfree, hi in ((True, 8), (False, 6)):
        for n in range(1, hi + 1):
            for parent in level_rows(n, clawfree):
                parent, _, _, masks = _candidates(parent, clawfree)
                kept = _orbit_representative_masks(n, parent, masks)
                assert kept == _orbit_firsts(n, parent, masks), (parent, masks)
                merged += len(kept) < len(masks)
    # parents whose wide cells are all twin classes merge without a search
    assert len(searches) < merged


def test_one_pool_per_walk(monkeypatch):
    # one block serves a whole walk and a flat map after it, as a checker's
    # walk and corpus share one
    pools = count_pools(monkeypatch)
    serial = [(g.bits, v) for g, v in walk_levels(2, 8, True, Graph.degrees)]
    items = list(range(300))
    assert pools == []
    mapped = []  # the size of each map the block's run is given
    with _mapper(2) as run:

        def counted(work, batch):
            mapped.append(len(batch))
            return run(work, batch)

        parallel = [(g.bits, v) for g, v in walk_levels(2, 8, True, Graph.degrees, counted)]
        flat = list(counted(hex, items))
    assert pools == [2]
    # every level's parents went through it: orders 1..7 for orders 2..8
    assert mapped == [CLAWFREE_COUNTS[n] for n in range(1, 8)] + [len(items)]
    assert parallel == serial
    assert flat == list(map(hex, items))
    assert len(serial) == sum(CLAWFREE_COUNTS[n] for n in range(2, 9))


def test_closing_a_walk_ends_its_pool(monkeypatch):
    pools = count_pools(monkeypatch)
    with pytest.raises(KeyError):
        with _mapper(2) as run:
            for i, _ in enumerate(walk_levels(2, 9, True, None, run)):
                if i == 200:  # into order 7, past several levels
                    assert pools == [2] and multiprocessing.active_children()
                    raise KeyError(i)
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def _full_certificate_rule(parent, mask):
    """The canonical-deletion rule with no shortcut: the new vertex must
    minimize (degree, sorted neighbor degrees, rooted BFS profile, rooted
    refinement profile, anchored certificate) over the child's non-cut
    vertices, each link compared only among the ties of the ones before."""
    n = len(parent)
    child = [parent[u] | 1 << n if mask >> u & 1 else parent[u] for u in range(n)] + [mask]
    degs = [r.bit_count() for r in child]
    links = (
        lambda u: degs[u],
        lambda u: _neighbor_degrees(child, degs, u),
        lambda u: _bfs_signature(child, degs, u),
        lambda u: anchored_profile(n + 1, child, u)[0],
        lambda u: certificate(n + 1, child, anchor=u),
    )
    full = (1 << n + 1) - 1
    ties = [u for u in range(n) if len(_component_masks(child, full & ~(1 << u))) == 1]
    for key in links:
        key_new = key(n)
        keys = [key(u) for u in ties]
        if any(k < key_new for k in keys):
            return False
        ties = [u for u, k in zip(ties, keys) if k == key_new]
    return True


def test_deletion_check_matches_full_certificate_rule(monkeypatch):
    real = enumeration.certificate
    fallbacks = []

    def counted(*args, **kwargs):
        fallbacks.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "certificate", counted)
    checked = 0
    for parent in level_rows(8, True):
        # the same parent set-up as accepted_children, before orbit merging
        parent, pdeg, comps, masks = _candidates(parent, True)
        for mask in masks:
            got = _deletion_check(parent, pdeg, comps, mask, mask.bit_count())
            assert got == _full_certificate_rule(parent, mask), (parent, mask)
            checked += 1
    assert checked == 12305
    # the order-9 children Hu[z^nw and HvLZ^^q have tied vertices whose
    # first leaves differ, so the full-certificate fallback must have run
    assert fallbacks


def test_builtin_caps():
    with pytest.raises(GraphInputError):
        list(connected_graphs(9))
    with pytest.raises(GraphInputError):
        list(connected_clawfree_graphs(13))
    with pytest.raises(GraphInputError):
        list(free_trees(17))
    # an order-13 child's masks are wider than the expansion's bit table
    path12 = tuple((1 << v - 1 if v else 0) | (1 << v + 1 if v < 11 else 0) for v in range(12))
    with pytest.raises(GraphInputError):
        enumeration.accepted_children(path12, True)
