"""Immutable simple-graph core: neighborhoods, distances, structural predicates.

Vertices are dense integers ``0..n-1``.  A graph is its order ``n`` and
one adjacency bitmask per vertex (``g.bits[v]`` has bit ``u`` set exactly
when ``uv`` is an edge); every predicate here, the solvers and the
enumerators work on those rows, and one routine, :func:`_relabeled_rows`,
remaps them for every relabeling and induced subgraph.  Vertex sets cross
the public API as frozensets, decoded with :func:`bits_to_vertices`.  Hot
loops read a mask's vertices from one members table, chosen by order:
:func:`_members` gives the precomputed :data:`_BITS` for rows of at most
``_BITS_WIDTH`` vertices and a view that peels each mask for wider ones,
so every loop has one body whatever the order.  Only the claw test
changes algorithm with width: a narrow graph is scanned by non-adjacent
pair, a wider one by center.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

VertexSet = frozenset  # subsets of 0..n-1 are the currency of every predicate


class GraphInputError(ValueError):
    """Malformed construction input (out-of-range endpoint, loop edge, ...)."""


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    Instances validate symmetry/no-loop invariants on construction and are
    safe to share across workers; every operation in this package treats
    them as pure values.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]] = ()):
        if n < 0:
            raise GraphInputError("vertex count must be >= 0")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphInputError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphInputError(f"loop edge at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.bits = tuple(rows)

    @classmethod
    def from_bits(cls, n: int, bits: Iterable[int]) -> "Graph":
        """Trusted fast path used by the enumerators; skips validation."""
        g = object.__new__(cls)
        g.n = n
        g.bits = tuple(bits)
        return g

    # -- basic accessors ---------------------------------------------------

    def degree(self, v: int) -> int:
        return self.bits[v].bit_count()

    def degrees(self) -> Tuple[int, ...]:
        return tuple(map(int.bit_count, self.bits))

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(map(int.bit_count, self.bits))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.bits[u] >> v & 1)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each edge once as ``(u, v)`` with ``u < v``, in lexicographic order."""
        for u, row in enumerate(self.bits):
            for v in _from_mask(row):
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.bits)) // 2

    def with_edge(self, u: int, v: int) -> "Graph":
        """New graph with one extra edge (``families`` builds G(k), C10' and C10'' with it)."""
        return Graph(self.n, [*self.edges(), (u, v)])

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply a vertex relabeling; ``perm[old] = new``, a permutation of ``0..n-1``."""
        if sorted(perm) != list(range(self.n)):
            raise GraphInputError(f"relabeling is not a permutation of 0..{self.n - 1}")
        return _induced(self, sorted(range(self.n), key=perm.__getitem__))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _bit_table(width: int) -> List[bytes]:
    """The set bits of every ``width``-bit mask, ascending, indexed by mask."""
    table = [b""]
    for v in range(width):
        # the masks with top bit v are those below it, plus v
        table += [bits + bytes((v,)) for bits in table]
    return table


# Rows of at most _BITS_WIDTH vertices read their members from _BITS: an index
# and a walk over one bytes object instead of a peel (lowest bit, bit_length,
# clear) per member.  Every class of the claw-free and connected walks fits
# (CLAW_FREE_MAX is 12); _members hands wider rows a peeling view.  Bytes
# iterate as fast as tuples of ints and take half the memory: 4,096 of them,
# about 0.2 MB.
_BITS_WIDTH = 12
_BITS = _bit_table(_BITS_WIDTH)


def _to_mask(vertices: Iterable[int]) -> int:
    """Encode vertices as a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _from_mask(mask: int) -> List[int]:
    """Decode a bitmask into its vertices, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Peeled(dict):
    """The members of any mask, peeled on each lookup and never stored."""

    __missing__ = staticmethod(_from_mask)


_PEELED = _Peeled()


def _members(n: int) -> List[bytes] | _Peeled:
    """The members table for masks over ``n`` vertices: ``_members(n)[mask]``
    is the mask's vertices, ascending.  A caller picks it once per graph and
    indexes it in its loops: a list lookup up to ``_BITS_WIDTH`` vertices,
    a peel past them."""
    return _BITS if n <= _BITS_WIDTH else _PEELED


def bits_to_vertices(mask: int) -> VertexSet:
    """Decode a bitmask into a vertex set."""
    return frozenset(_from_mask(mask))


def _reach(rows: Sequence[int], seed: int, within: int) -> int:
    """Mask of the vertices joined to the ``seed`` mask by paths inside ``within``."""
    comp = frontier = seed
    members = _members(len(rows))
    while frontier:
        reach = 0
        for v in members[frontier]:
            reach |= rows[v]
        frontier = reach & within & ~comp
        comp |= frontier
    return comp


def _component_masks(rows: Sequence[int], within: int) -> List[int]:
    """Component masks of the subgraph induced on ``within``, by lowest vertex."""
    comps = []
    while within:
        comp = _reach(rows, within & -within, within)
        comps.append(comp)
        within &= ~comp
    return comps


# -- distances -------------------------------------------------------------


def _distance2_row(rows: Sequence[int], v: int) -> int:
    """Bitmask of the vertices at distance exactly 2 from ``v``."""
    row = rows[v]
    reach = 0
    for u in _members(len(rows))[row]:
        reach |= rows[u]
    return reach & ~row & ~(1 << v)


def distance2_bits(g: Graph) -> Tuple[int, ...]:
    """Per-vertex bitmask of vertices at distance exactly 2."""
    return tuple(_distance2_row(g.bits, v) for v in range(g.n))


# -- connectivity ----------------------------------------------------------


def connected_components(g: Graph):
    """Vertex sets of the components, each sorted by smallest member."""
    return [bits_to_vertices(c) for c in _component_masks(g.bits, (1 << g.n) - 1)]


def is_connected(g: Graph) -> bool:
    """One component; the empty graph and K_1 count as connected."""
    if g.n <= 1:
        return True
    full = (1 << g.n) - 1
    return _reach(g.bits, 1, full) == full


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.edge_count == g.n - 1


# -- structural predicates ---------------------------------------------------


def find_claw(g: Graph) -> Optional[Tuple[int, int, int, int]]:
    """A witness induced K_{1,3} as ``(center, a, b, c)`` with its leaves
    ascending, ``a < b < c``, or None.

    Rows of at most ``_BITS_WIDTH`` vertices are scanned by non-adjacent
    pair ``a < b``: the pair lies in a claw exactly when a common neighbor
    has a neighbor outside ``N[a] | N[b]``, which is tested from the few
    vertices outside.  Wider rows scan each neighborhood of three or more
    for an independent triple instead; the pair scan is quadratic in n,
    and this one keeps sparse graphs such as long paths linear.
    """
    bits = g.bits
    if g.n <= _BITS_WIDTH:
        full = (1 << g.n) - 1
        for b, row_b in enumerate(bits):
            closed_b = row_b | 1 << b
            for a in _BITS[~row_b & ((1 << b) - 1)]:
                row_a = bits[a]
                common = row_a & row_b
                if not common:
                    continue
                for d in _BITS[full & ~(row_a | closed_b | 1 << a)]:
                    centers = bits[d] & common
                    if centers:
                        # d > b: with d < b, the pair a, d would have been
                        # found at the smaller max(a, d)
                        return ((centers & -centers).bit_length() - 1, a, b, d)
        return None
    for center, row in enumerate(bits):
        if row.bit_count() < 3:
            continue
        r = row
        while r:
            la = r & -r
            r ^= la  # now the neighbors of center after a
            a = la.bit_length() - 1
            later = r & ~bits[a]
            if not later & (later - 1):
                continue  # fewer than two: no claw with a as its first leaf
            m = later
            while m:
                lb = m & -m
                m ^= lb
                third = m & ~bits[lb.bit_length() - 1]
                if third:
                    return (center, a, lb.bit_length() - 1, (third & -third).bit_length() - 1)
    return None


def is_claw_free(g: Graph) -> bool:
    return find_claw(g) is None


def _require_vertex(g: Graph, v: int) -> None:
    """The range check of the entry points that take a vertex argument."""
    if not 0 <= v < g.n:
        raise GraphInputError(f"vertex {v} out of range 0..{g.n - 1}")


def leaves(g: Graph) -> VertexSet:
    """Vertices of degree 1."""
    return frozenset(v for v, row in enumerate(g.bits) if row.bit_count() == 1)


def support_vertices(g: Graph) -> VertexSet:
    """Vertices adjacent to at least one leaf."""
    # a leaf's row has a single bit: its neighbor's
    return frozenset(g.bits[u].bit_length() - 1 for u in leaves(g))


# -- relabeling and subgraphs ---------------------------------------------------


def _relabeled_rows(n: int, rows: Sequence[int], order: Sequence[int]) -> Tuple[int, ...]:
    """The rows of ``order``'s vertices, ``order[i]`` relabeled ``i``; a bit
    outside ``order`` is dropped, so distinct vertices give an induced subgraph."""
    image = [0] * n  # bit of each vertex's new label
    bit = 1
    for v in order:
        image[v] = bit
        bit <<= 1
    members = _members(n)
    out = []
    for v in order:
        acc = 0
        for u in members[rows[v]]:
            acc |= image[u]
        out.append(acc)
    return tuple(out)


def _induced(g: Graph, order: Sequence[int]) -> Graph:
    """The subgraph induced by distinct vertices ``order``, ``order[i]`` relabeled ``i``."""
    return Graph.from_bits(len(order), _relabeled_rows(g.n, g.bits, order))


def induced_subgraph(g: Graph, s: Iterable[int]):
    """Subgraph induced on ``s`` (repeats ignored), relabeled in sorted order.

    Returns ``(subgraph, mapping)`` where ``mapping[old] = new``; a member
    outside ``0..n-1`` is a GraphInputError.
    """
    keep = sorted(set(s))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise GraphInputError("induced set out of range")
    return _induced(g, keep), {old: new for new, old in enumerate(keep)}

