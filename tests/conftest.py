import random
import sys

import networkx as nx
import pytest

from dtdom import Graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from(g.edges())
    return h


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Random spanning tree plus random extra edges."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                edges.append((i, j))
    return Graph(n, edges)


def brute_force_minimum(g: Graph, kind: str):
    """Independent oracle: ascending exhaustive search using networkx paths.

    ``kind`` is one of 'dom', 'tdom', 'dtd'.  Deliberately avoids the
    package's bitmask machinery so solver bugs cannot hide.
    """
    from itertools import combinations

    h = to_networkx(g)
    dist = dict(nx.all_pairs_shortest_path_length(h))

    def covered(v, chosen):
        if kind == "dom":
            return v in chosen or any(u in chosen for u in h[v])
        if kind == "tdom":
            return any(u in chosen for u in h[v])
        if any(u in chosen for u in h[v]):
            return True
        two = sum(1 for u in chosen if dist.get(v, {}).get(u) == 2)
        return two >= 2

    for k in range(0, g.n + 1):
        for chosen in combinations(range(g.n), k):
            cset = set(chosen)
            if all(covered(v, cset) for v in range(g.n)):
                return k, frozenset(cset)
    return None


def patch_bindings(monkeypatch, module, name, replacement):
    """Replace ``module.name`` in every dtdom module bound to it."""
    original = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "dtdom" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` through every dtdom binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patch_bindings(monkeypatch, module, name, counted)
    return calls


def count_pools(monkeypatch):
    """Record the worker count of every pool the fork context starts."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    original = ctx.Pool
    pools = []

    def counted(processes=None, *args, **kwargs):
        pools.append(processes)
        return original(processes, *args, **kwargs)

    monkeypatch.setattr(ctx, "Pool", counted)
    return pools


@pytest.fixture(scope="session")
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def census_report():
    """The order-7 census is reused by several suites; run it once."""
    from dtdom import check_order7_census

    return check_order7_census(jobs=1)
