import hashlib

import networkx as nx
import pytest

from dtdom import (
    EnumSpec,
    GraphClass,
    GraphInputError,
    canonical_form,
    connected_clawfree_graphs,
    connected_graphs,
    enumerate_graphs,
    free_trees,
    is_claw_free,
    is_connected,
    is_tree,
    to_graph6,
)
from dtdom import enumeration
from dtdom.enumeration import level_rows, walk_levels

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


# sha256 of the ordered row stream of walk_levels(1, hi), one line per class
# ("rows[0] rows[1] ...\n"); pins the order of the classes, not just their count
STREAM_DIGESTS = {
    (True, 9): "e03e6b728f62659a9f0c7d512cd63d4413d49830ee43f96279fa25f7407e90f1",
    (False, 7): "416507ee34c33786855bdf25ab65e30575c37ace9540bcf235916b387f969eb1",
}


@pytest.mark.parametrize("clawfree,hi", sorted(STREAM_DIGESTS))
def test_stream_order_is_pinned(clawfree, hi):
    h = hashlib.sha256()
    for rows, _ in walk_levels(1, hi, clawfree, lambda g: None):
        h.update((" ".join(map(str, rows)) + "\n").encode())
    assert h.hexdigest() == STREAM_DIGESTS[clawfree, hi]


def test_walk_starts_from_cached_levels(monkeypatch):
    monkeypatch.setattr(enumeration, "_LEVELS", {})
    assert sum(1 for _ in connected_clawfree_graphs(9)) == CLAWFREE_COUNTS[9]
    real = enumeration.accepted_children
    parents = []

    def counted(parent, clawfree):
        parents.append(parent)
        return real(parent, clawfree)

    monkeypatch.setattr(enumeration, "accepted_children", counted)
    rows9 = [r for r, _ in walk_levels(9, 9, True, None)]
    assert len(rows9) == CLAWFREE_COUNTS[9]
    # only the cached order-8 level is expanded again, not levels 1..8
    assert len(parents) == CLAWFREE_COUNTS[8]
    assert level_rows(9, True) == rows9
    for clawfree, hi in ((True, 8), (False, 7)):
        for n in range(1, hi + 1):
            assert level_rows(n, clawfree) == [r for r, _ in walk_levels(n, n, clawfree, None)]


def test_builtin_caps():
    with pytest.raises(GraphInputError):
        list(connected_graphs(9))
    with pytest.raises(GraphInputError):
        list(connected_clawfree_graphs(13))
    with pytest.raises(GraphInputError):
        list(free_trees(17))


def test_corpus_source(tmp_path):
    lines = []
    for g in connected_graphs(5):
        lines.append(to_graph6(g))
    lines.append(lines[0])  # duplicate must be dropped
    disconnected = to_graph6(
        __import__("dtdom").Graph(5, [(0, 1), (2, 3)])
    )
    lines.append(disconnected)
    path = tmp_path / "corpus.g6"
    path.write_text("\n".join(lines) + "\n")
    got = list(enumerate_graphs(EnumSpec(5, GraphClass.ALL_CONNECTED, str(path))))
    assert len(got) == CONNECTED_COUNTS[5]
    cf = list(enumerate_graphs(EnumSpec(5, GraphClass.CONNECTED_CLAW_FREE, str(path))))
    assert len(cf) == CLAWFREE_COUNTS[5]
    tr = list(enumerate_graphs(EnumSpec(5, GraphClass.TREES, str(path))))
    assert len(tr) == TREE_COUNTS[5]
