import networkx as nx
import pytest

from dtdom import Graph, GraphInputError, from_graph6, to_graph6
from dtdom.graphio import (
    dump_graph,
    format_edgelist,
    iter_graph6_file,
    load_graph,
    parse_edgelist,
)
from conftest import random_graph, to_networkx


def test_graph6_bit_exact_with_networkx(rng):
    for _ in range(200):
        g = random_graph(rng.randrange(0, 18), 0.3, rng)
        mine = to_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert mine == theirs
        assert from_graph6(mine) == g


def test_graph6_long_form():
    g = Graph(70, [(i, i + 1) for i in range(69)])
    s = to_graph6(g)
    assert s == nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
    assert from_graph6(s) == g


@pytest.mark.parametrize("line,canonical", [("Bx", "Bw"), ("A`", "A_")])
def test_graph6_padding_bits_are_ignored(line, canonical):
    # the lenient read matches networkx; only the canonical line round-trips
    g = from_graph6(line)
    assert g == from_graph6(canonical)
    assert nx.utils.graphs_equal(to_networkx(g), nx.from_graph6_bytes(line.encode()))
    assert g.edge_count == g.n * (g.n - 1) // 2  # the triangle, then K_2
    assert to_graph6(g) == canonical


def test_graph6_header_tolerated():
    g = Graph(3, [(0, 1), (1, 2)])
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g


def test_graph6_errors():
    with pytest.raises(GraphInputError):
        from_graph6("")
    with pytest.raises(GraphInputError):
        from_graph6("D")  # order 5 with missing body
    with pytest.raises(GraphInputError):
        from_graph6("B" + chr(20))
    with pytest.raises(GraphInputError, match="non-ASCII"):
        from_graph6("B\u00e9")
    # order bytes outside 63..126, short and long form
    with pytest.raises(GraphInputError, match="invalid graph6 byte 127"):
        from_graph6("\x7f" + "?" * 336)
    with pytest.raises(GraphInputError, match="invalid graph6 byte 62"):
        from_graph6("~>??")
    assert from_graph6("~???").n == 0
    with pytest.raises(GraphInputError, match="truncated graph6 order prefix"):
        from_graph6("~~")


def test_edgelist_round_trip(rng):
    for _ in range(40):
        g = random_graph(rng.randrange(1, 12), 0.3, rng)
        assert parse_edgelist(format_edgelist(g)) == g


def test_edgelist_comments_and_blanks():
    text = """
    # a triangle
    3 3

    0 1  # first edge
    1 2
    2 0
    """
    g = parse_edgelist(text)
    assert g.n == 3 and g.edge_count == 3


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("3\n0 1\n", "header"),
        ("2 1\n0 5\n", "line 2"),
        ("2 1\n0 0\n", "line 2"),
        ("2 2\n0 1\n", "found 1"),
        ("2 x\n0 1\n", "line 1"),
        ("2 1\n0 1 1\n", "line 2: expected edge"),
        ("2 1\n0 x\n", "line 2: expected integer edge"),
    ],
)
def test_edgelist_errors_name_the_line(text, fragment):
    with pytest.raises(GraphInputError) as err:
        parse_edgelist(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text", ["3 2\n0 1\n0 1\n", "2 2\n0 1\n1 0\n"])
def test_edgelist_rejects_a_repeated_edge(text):
    # a repeat once passed the header count with one edge short, in either
    # orientation
    with pytest.raises(GraphInputError) as err:
        parse_edgelist(text)
    assert "line 3: repeated edge" in str(err.value)


def test_corpus_iteration(tmp_path, rng):
    graphs = [random_graph(6, 0.4, rng) for _ in range(5)]
    path = tmp_path / "corpus.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    assert list(iter_graph6_file(str(path))) == graphs
    bad = tmp_path / "bad.g6"
    bad.write_text("Bw\n\x01\n")
    with pytest.raises(GraphInputError) as err:
        list(iter_graph6_file(str(bad)))
    assert "bad.g6:2" in str(err.value)
    with pytest.raises(GraphInputError):
        list(iter_graph6_file(str(tmp_path / "missing.g6")))


def test_dump_load_round_trip(tmp_path, rng):
    g = random_graph(9, 0.35, rng)
    for fmt in ("edgelist", "graph6"):
        p = tmp_path / f"g.{fmt}"
        p.write_text(dump_graph(g, fmt))
        assert load_graph(str(p), fmt) == g


def test_load_and_dump_reject_bad_input(tmp_path):
    blank = tmp_path / "blank.g6"
    blank.write_text("\n  \n\n")
    with pytest.raises(GraphInputError, match="blank.g6: no graph6 line found"):
        load_graph(str(blank), "graph6")
    with pytest.raises(GraphInputError, match="unknown format: adjlist"):
        load_graph(str(blank), "adjlist")
    with pytest.raises(GraphInputError, match="unknown format: adjlist"):
        dump_graph(Graph(2, [(0, 1)]), "adjlist")
