"""Constructive bounded DTD-sets for claw-free graphs with a leaf.

The machinery follows a leaf-rooted decomposition: around a leaf y with
neighbor x, the closed neighborhood X = N[x] - y is a clique, the
components of G - X are "fragments", and every X-vertex touches at most
one fragment.  One builder also roots it one step past a degree-2
support, setting the leaf and its support aside.  Each fragment is
classified once, when the decomposition is built: its kind, the clique
vertex it hangs from, the profile of that attachment and the vertices the
case analysis names (a path from its attachment end, G(3)'s coordinates).
One selection loop reads those records -- Algorithm A on a leaf
decomposition, Algorithm B past a support -- and builds a vertex set S;
the builder then augments S case by case until it disjunctively totally
dominates.  ``_construct`` is the one route policy, for the input and, as
the paper's inductive step, for every large fragment over 11 vertices;
smaller ones are solved exactly.  Each candidate is verified against the
exact solver's predicate and its own graph's 4n/7 bound, with an exact
fallback on that graph, so no guarantee rests on the case analysis alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from .canon import isomorphism_map
from .domination import DomainError, DominationKind, exact_number, is_dtd_set
from .families import exceptional_member, generate, FamilyId
from .graph import (
    Graph,
    GraphInputError,
    _component_masks,
    _induced,
    _members,
    _require_vertex,
    _to_mask,
    bits_to_vertices,
    distance2_bits,
    is_claw_free,
    is_connected,
    leaves,
)


_G3 = FamilyId("G", (3,))


class ProofPathError(RuntimeError):
    """Internal: the extracted case analysis did not apply; caller falls back."""


class FragmentKind(Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    C3 = "C3"
    P5 = "P5"
    P6 = "P6"
    G3 = "G3"
    OTHER = "non-exceptional"


_EXCEPTIONAL_KINDS = frozenset(FragmentKind) - {FragmentKind.P1, FragmentKind.OTHER}


@dataclass(frozen=True)
class FragmentRecord:
    vertices: FrozenSet[int]
    kind: FragmentKind
    chosen: int  # x_F, the designated X-vertex adjacent to this fragment
    attachment_profile: str
    # the vertices the case analysis names: for P3, P5 and P6 the path from
    # its attachment end; for G3 (w, w1, w2, w3, u1, u2, u3, v1, v2, v3)
    named: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Decomposition:
    y: int                      # the anchor leaf (deep mode: its support)
    x: int                      # y's neighbor (deep mode: the support's other neighbor)
    X: FrozenSet[int]           # N[x] - y, always a clique
    fragments: Tuple[FragmentRecord, ...]
    Y: FrozenSet[int]           # P1-fragment vertices + unassigned clique vertices
    deep: bool = False
    z: Optional[int] = None     # deep mode only: the original leaf


# -- fragment classification -----------------------------------------------------


def _path_order(g: Graph, vs: int) -> Optional[List[int]]:
    """The vertices of the tree on mask ``vs`` in path order from its lowest
    end, or None when that tree is not a path."""
    members = _members(g.n)[vs]
    degs = [(g.bits[v] & vs).bit_count() for v in members]
    if max(degs) > 2:
        return None
    order = [members[degs.index(1)]]
    prev = 0
    while len(order) < len(members):
        nxt = g.bits[order[-1]] & vs & ~prev
        prev = 1 << order[-1]
        order.append(nxt.bit_length() - 1)
    return order


def _oriented(order: List[int], adj: FrozenSet[int]) -> Tuple[int, ...]:
    """The path ordered so the paper's case labels line up: the attachment
    end (leaf, else support, else lowest) comes first."""
    if order[-1] in adj and order[0] not in adj:
        order.reverse()
    elif order[0] not in adj and order[-1] not in adj:
        if order[-2] in adj and order[1] not in adj:
            order.reverse()
    return tuple(order)


_G3_GRAPH = generate(_G3)  # the triangle 0-1-4, the arms 0-7-8-9, 1-2-3 and 4-5-6


def _g3_labels(sub: Graph, ids: Sequence[int]) -> Optional[List[int]]:
    """The vertex of ``ids`` (``sub``'s vertices in g's ids) at each label of
    ``generate(G(3))``, or None when ``sub`` is not isomorphic to G(3)."""
    phi = isomorphism_map(sub, _G3_GRAPH)
    return None if phi is None else [v for _, v in sorted(zip(phi, ids))]


def _classify(g: Graph, vertices: FrozenSet[int], chosen: int) -> FragmentRecord:
    """The fragment's kind, its named vertices and the profile of its
    attachment to ``chosen``, found once for both the profile and the
    selection.  A G(3) fragment's vertices are named from its isomorphism
    map to ``generate(G(3))``, the one canonical search on it."""
    k = len(vertices)
    vs = _to_mask(vertices)
    adj = bits_to_vertices(g.bits[chosen] & vs)
    edges = sum((g.bits[v] & vs).bit_count() for v in vertices) // 2
    named: Tuple[int, ...] = ()
    if k == 1:
        kind, profile = FragmentKind.P1, "isolated"
    elif k == 2:
        kind = FragmentKind.P2
        profile = "both-adjacent" if len(adj) == 2 else "one-adjacent"
    elif k == 3 and edges == 3:
        kind, profile = FragmentKind.C3, "triangle"
    elif k in (3, 5, 6) and edges == k - 1 and (order := _path_order(g, vs)):  # a tree
        kind = {3: FragmentKind.P3, 5: FragmentKind.P5, 6: FragmentKind.P6}[k]
        named = _oriented(order, adj)
        if k == 3:
            if named[1] in adj:
                profile = "center-adjacent"
            else:
                profile = "leaf-adjacent" if len(adj) == 1 else "unclassified"
        elif named[0] in adj or named[-1] in adj:
            profile = "leaf-adjacent"
        elif k == 6 and (named[1] in adj or named[-2] in adj):
            profile = "support-adjacent"
        else:
            profile = "interior-adjacent"
    elif k == 10 and edges == 10 and (
        lab := _g3_labels(_induced(g, ids := _members(g.n)[vs]), ids)
    ):
        kind = FragmentKind.G3
        # by the paper's symmetry u is the attached two-vertex arm, else
        # the arm of the lower triangle vertex
        u, v = sorted((lab[1:4], lab[4:7]))
        if not adj & {u[1], u[2]} and adj & {v[1], v[2]}:
            u, v = v, u
        named = (lab[0], *lab[7:10], *u, *v)
        w, w1, w2, w3, u1, u2, u3, v1, v2, v3 = named
        if w3 in adj:
            profile = "leaf-w3"
        elif u3 in adj or v3 in adj:
            profile = "leaf-arm"
        elif w2 in adj:
            profile = "support-w2"
        elif u2 in adj or v2 in adj:
            profile = "support-arm"
        else:
            profile = "center-w1" if w1 in adj else "center-arms"
    else:
        kind, profile = FragmentKind.OTHER, "non-exceptional"
    return FragmentRecord(vertices, kind, chosen, profile, named)


# -- decomposition ----------------------------------------------------------------


def _require_connected_claw_free(g: Graph, what: str) -> None:
    """The input check of the public entry points; the proof path trusts it."""
    if not is_connected(g):
        raise GraphInputError(f"{what} needs a connected graph")
    if not is_claw_free(g):
        raise GraphInputError(f"{what} needs a claw-free graph")


def _decompose(g: Graph, leaf: int, deep: bool) -> Decomposition:
    """X = N[x] - y around the leaf y and its neighbor x; with ``deep``, y is
    the leaf's degree-2 support, x its other neighbor and z the leaf."""
    if g.degree(leaf) != 1:
        raise GraphInputError(f"vertex {leaf} is not a leaf")
    y, x, z = leaf, g.bits[leaf].bit_length() - 1, None
    if deep:
        if g.degree(x) != 2:
            raise GraphInputError(f"support {x} does not have degree 2")
        y, x, z = x, (g.bits[x] & ~(1 << leaf)).bit_length() - 1, leaf
    xmask = (g.bits[x] | 1 << x) & ~(1 << y)
    fragments = []
    for comp in _component_masks(g.bits, ((1 << g.n) - 1) & ~xmask):
        # the leaf survives as a one-vertex fragment; past the support, the
        # component {y, z} is set aside
        if deep and comp >> y & 1:
            continue
        # g is connected, so some X-vertex touches the fragment
        chosen = next(w for w in _members(g.n)[xmask] if g.bits[w] & comp)
        fragments.append(_classify(g, bits_to_vertices(comp), chosen))
    # claw-freeness makes X a clique whose vertices each touch at most one
    # fragment, so neither is re-checked here
    X = bits_to_vertices(xmask)
    x1 = X - {f.chosen for f in fragments if f.kind in _EXCEPTIONAL_KINDS}
    p1_vertices = frozenset().union(*[f.vertices for f in fragments if f.kind is FragmentKind.P1])
    Y = p1_vertices | x1 | ({y, z} if deep else frozenset())
    return Decomposition(y, x, X, tuple(fragments), Y, deep, z)


def decompose(g: Graph, y: int) -> Decomposition:
    """Leaf-rooted decomposition: X = N[x] - y, fragments = components of G - X."""
    _require_vertex(g, y)
    _require_connected_claw_free(g, "decomposition")
    return _decompose(g, y, deep=False)


def decompose_beyond_support(g: Graph, z: int) -> Decomposition:
    """Decomposition one step past a degree-2 support: the leaf z and its
    support y are set aside, X is built around y's other neighbor."""
    _require_vertex(g, z)
    _require_connected_claw_free(g, "decomposition")
    return _decompose(g, z, deep=True)


# -- the per-fragment selection procedure ------------------------------------------


def _fragment_selection(g: Graph, frag: FragmentRecord) -> FrozenSet[int]:
    """One case per exceptional fragment shape and attachment profile."""
    kind, chosen, profile, o = frag.kind, frag.chosen, frag.attachment_profile, frag.named
    adj = bits_to_vertices(g.bits[chosen] & _to_mask(frag.vertices))
    if kind is FragmentKind.P2:
        return frozenset({chosen} if profile == "both-adjacent" else {min(adj)})
    if kind is FragmentKind.C3:
        return frozenset({chosen, min(adj)})
    if kind is FragmentKind.P3:
        if profile == "center-adjacent":
            return frozenset({chosen, min(adj)})
        if profile != "leaf-adjacent":
            raise ProofPathError("P3 fragment attachment outside the enumerated cases")
        return frozenset(o[:2])  # the attached leaf and the centre
    if kind is FragmentKind.P5:
        if profile != "leaf-adjacent" and (o[2] not in adj or not (o[1] in adj or o[3] in adj)):
            raise ProofPathError("P5 fragment attachment outside the enumerated cases")
        return frozenset({chosen, o[2], o[3]})
    if kind is FragmentKind.P6:
        if profile == "leaf-adjacent":
            return frozenset({chosen, o[3], o[4]})
        if profile == "support-adjacent":
            if o[2] not in adj:
                raise ProofPathError("P6 support attachment without its interior edge")
            return frozenset({o[1], o[3], o[4]})
        if o[2] not in adj or o[3] not in adj:
            raise ProofPathError("P6 interior attachment outside the enumerated cases")
        return frozenset({chosen, o[1], o[3], o[4]})
    w, w1, w2, w3, u1, u2, u3, v1, v2, v3 = o
    base = frozenset({chosen, u1, u2, v1, v2, w1, w2})
    if profile == "leaf-w3":
        return base - {w1, w2} | {w3}
    if profile == "leaf-arm":
        return base - {u1, u2} | {u3}
    if profile == "support-w2":
        return base - {w2}
    if profile == "support-arm":
        return base - {u2}
    if w not in adj:
        raise ProofPathError("G3 center attachment without the center edge")
    if profile == "center-w1":
        return base - {u1, w1} | {w}
    if u1 not in adj or v1 not in adj:
        raise ProofPathError("G3 attachment outside the enumerated cases")
    return base - {u1, v1} | {w}


def _select(g: Graph, dec: Decomposition) -> FrozenSet[int]:
    """The per-fragment selection without the large fragments' sets, which
    lie inside those fragments and never meet X.

    Algorithm A on a leaf decomposition seeds x, and one more unassigned
    clique vertex when |Y| >= 4.  Algorithm B past a degree-2 support seeds
    x and y, and each bare-vertex fragment contributes its clique vertex.
    """
    if dec.deep:
        s = {dec.x, dec.y}
    elif len(dec.Y) >= 4:
        # Y holds x and y; any further member is an unassigned clique vertex
        # or a bare vertex hanging off one other than x, so a second seed exists
        s = {dec.x, min(dec.Y & dec.X - {dec.x})}
    else:
        s = {dec.x}
    for frag in dec.fragments:
        if frag.kind is FragmentKind.P1:
            if dec.deep:
                s.add(frag.chosen)
        elif frag.kind is not FragmentKind.OTHER:
            s |= _fragment_selection(g, frag)
    return frozenset(s)


def _solved(g: Graph, dec: Decomposition, s: FrozenSet[int]) -> FrozenSet[int]:
    """The selection ``s`` with each large fragment solved by the builder;
    the package's one loop over the large fragments."""
    for frag in dec.fragments:
        if frag.kind is FragmentKind.OTHER:
            order = sorted(frag.vertices)
            s |= _solve_within(_induced(g, order), order)
    return s


def algorithm_a(g: Graph, dec: Decomposition) -> FrozenSet[int]:
    """The literal per-fragment selection on a leaf decomposition (steps
    seeded from |Y|, then one case per fragment shape); the result is not
    necessarily a DTD-set yet."""
    if dec.deep:
        raise GraphInputError("algorithm A needs the leaf decomposition")
    return _solved(g, dec, _select(g, dec))


def algorithm_b(g: Graph, dec: Decomposition) -> FrozenSet[int]:
    """The modified selection for the decomposition past a degree-2 support:
    both x and y are seeded, and each bare-vertex fragment contributes its
    attached clique vertex."""
    if not dec.deep:
        raise GraphInputError("algorithm B needs the beyond-support decomposition")
    return _solved(g, dec, _select(g, dec))


# -- the bounded builder -------------------------------------------------------------


def _kind_count(dec: Decomposition, kind: FragmentKind) -> int:
    return sum(1 for f in dec.fragments if f.kind is kind)


def _first_fragment(dec: Decomposition, kind: FragmentKind) -> Optional[FragmentRecord]:
    for f in dec.fragments:
        if f.kind is kind:
            return f
    return None


# special sets for the ten-vertex core left when a P4 chain is peeled off;
# keyed by which named leaf the decomposition leaf lands on
_CORE_SETS = {
    3: (2, 4, 5, 7, 8),      # leaf on a triangle arm (a3)
    6: (5, 1, 2, 7, 8),      # same with the arms swapped (b3)
    9: (1, 2, 5, 8, 0),      # leaf on the plain arm (c3)
}


def _phase_one(g: Graph, leaf: int) -> Optional[FrozenSet[int]]:
    """First decomposition round; None signals the all-supports-deg-2 endpoint."""
    dec = _decompose(g, leaf, deep=False)
    # the route is chosen without the large fragments' sets, and a large
    # fragment is solved only on a route that keeps the selection
    s = _select(g, dec)
    large = _kind_count(dec, FragmentKind.OTHER)
    if len(s & dec.X) < 2:
        p6 = _first_fragment(dec, FragmentKind.P6)
        p2 = _first_fragment(dec, FragmentKind.P2)
        k3 = _kind_count(dec, FragmentKind.P3)
        if p6 is not None:
            s |= {p6.chosen}
        elif large > 1:
            raise ProofPathError("several large fragments beside a lone clique seed")
        elif p2 is not None:
            s |= {p2.chosen}
        elif large and k3 == 1:
            return _peel_p3_chain(g, dec)
        elif large and k3 == 0:
            # the endpoint: |Y| = 3 leaves X = {x, w}, so the support x has
            # degree 2 and the caller may decompose past it
            return None
    return _solved(g, dec, s)


def _peel_p3_chain(g: Graph, dec: Decomposition) -> FrozenSet[int]:
    """Peel the P3 fragment and its clique vertex off as a four-vertex chain
    and solve the core that is left."""
    frag = _first_fragment(dec, FragmentKind.P3)
    # the route reaches here only when the P3 hangs from one of its leaves
    z2, z3, z4 = frag.named
    keep = [v for v in range(g.n) if v not in {frag.chosen, z2, z3, z4}]
    core = _induced(g, keep)
    lab = _g3_labels(core, keep)
    if lab is not None:
        # the rooting leaf stays a leaf of the core, so it lands on a named leaf
        return frozenset({lab[t] for t in _CORE_SETS[lab.index(dec.y)]} | {z2, z3})
    if exceptional_member(core) is not None:
        raise ProofPathError("peeled core is an exceptional graph")
    return _solve_within(core, keep) | {z2, z3}


def _phase_two(g: Graph, leaf: int) -> FrozenSet[int]:
    dec = _decompose(g, leaf, deep=True)
    s = _solved(g, dec, _select(g, dec))
    if len(dec.Y) >= 4:
        if is_dtd_set(g, s):
            return s
        extra = sorted(v for v in dec.Y & dec.X if v != dec.x and v not in s)
        if not extra:
            raise ProofPathError("no unassigned clique vertex to repair coverage")
        return s | {extra[0]}
    in_x = s & dec.X
    if len(in_x) >= 3:
        return s - {dec.x}
    if len(in_x) == 2 or _kind_count(dec, FragmentKind.P2) == 0:
        return s
    # a P2 fragment hangs off a clique vertex other than x
    return s | {min(dec.X - {dec.x})}


def _solve_within(sub: Graph, order: Sequence[int]) -> FrozenSet[int]:
    """A DTD-set of ``sub``, g's subgraph on ``order`` (``_induced``), in g's
    ids: the exact solver's on at most 11 vertices (the base case), else
    ``_construct``'s.  Each ``sub`` is strictly smaller than g, a component
    of G - X for a nonempty clique X or g less a peeled four-vertex chain,
    so the recursion ends as the induction on n does.
    """
    if sub.n <= 11:
        witness = exact_number(sub, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION).witness
    else:
        # never exceptional: G(3), the largest exceptional graph, has 10 vertices
        witness = _construct(sub)[0]
    return frozenset(order[v] for v in witness)


def construct_dtd_clawfree(g: Graph) -> Tuple[FrozenSet[int], str]:
    """A DTD-set of size at most 4n/7 for a connected claw-free graph, and
    the tag of the route ``_construct`` took.  A proof path that nests past
    the interpreter's recursion limit (P999 under ``dtdom construct``)
    raises DomainError naming the input's order.
    """
    if g.n < 2:
        raise GraphInputError("constructor needs n >= 2")
    _require_connected_claw_free(g, "constructor")
    exceptional = exceptional_member(g)
    if exceptional is not None:
        raise DomainError(f"{exceptional} is an exceptional graph for the 4n/7 bound")
    try:
        return _construct(g)
    except RecursionError:  # a level peels three or more vertices, nests four frames
        raise DomainError(
            f"the proof path on order {g.n} nests past the interpreter's recursion limit"
        ) from None


def _construct(g: Graph) -> Tuple[FrozenSet[int], str]:
    """The one route policy, for the input and each fragment or core over 11
    vertices, trusted to be claw-free and non-exceptional.  Minimum degree 2
    takes the first greedy set that is a DTD-set of size at most 4n/7 (a
    total dominating set counts, as dtd <= gamma_t), else the exact solver.
    A graph with a leaf runs the proof path inline (a level nests this
    frame, a phase, its fragment loop and ``_solve_within``), whatever its
    order; its candidate is checked against g's own bound, with an exact
    fallback on g.
    """
    if g.min_degree() >= 2:
        witness = _verified_witness(g, lambda n, size: 7 * size <= 4 * n)
        if witness is not None:
            return witness, "witness-mindeg2"
        res = exact_number(g, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)
        return res.witness, "exact-mindeg2"
    lvs = sorted(leaves(g))  # g has no isolated vertex, so it has a leaf
    try:
        cand = _phase_one(g, lvs[0])
        if cand is None:
            # the endpoint forces the chosen support to have degree 2; a
            # support of higher degree, if any, reroutes the first round to
            # a terminating case
            leaf_mask = _to_mask(lvs)
            members = _members(g.n)
            for v in range(g.n):
                nb_leaves = members[g.bits[v] & leaf_mask]
                if nb_leaves and g.degree(v) >= 3 and nb_leaves[0] != lvs[0]:
                    cand = _phase_one(g, nb_leaves[0])
                    if cand is None:
                        raise ProofPathError("high-degree support still reached the endpoint")
                    break
            else:
                cand = _phase_two(g, lvs[0])
    except ProofPathError:
        cand = None
    if cand is not None and is_dtd_set(g, cand) and 7 * len(cand) <= 4 * g.n:
        return cand, "proof-path"
    res = exact_number(g, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)
    return res.witness, "fallback-exact"


# -- greedy baseline ------------------------------------------------------------------


def greedy_dtd(g: Graph) -> FrozenSet[int]:
    """Valid DTD-set by maximum-new-coverage selection; no size guarantee."""
    return _greedy_cover(g, distance2_bits(g))


def _greedy_tds(g: Graph) -> FrozenSet[int]:
    """Total dominating set by the same selection with empty distance-2 rows.

    Every total dominating set is a DTD-set, so it is a DTD witness too
    (dtd <= gamma_t), one that needs no distance-2 rows.
    """
    return _greedy_cover(g, (0,) * g.n)


def _verified_witness(g: Graph, fits: Callable[[int, int], bool]) -> Optional[FrozenSet[int]]:
    """The first greedy set, ``_greedy_tds`` then ``greedy_dtd``, that is a
    DTD-set whose size ``fits(n, |S|)`` accepts, or None; the min-degree-2
    route and the bound checkers of ``verify`` each pass their size test."""
    for greedy in (_greedy_tds, greedy_dtd):
        s = greedy(g)
        if fits(g.n, len(s)) and is_dtd_set(g, s):
            return s
    return None


def _greedy_cover(g: Graph, d2: Sequence[int]) -> FrozenSet[int]:
    """Add the vertex that covers the most uncovered vertices until every
    vertex has a neighbour in the set or two members among its rows ``d2``.

    With ``d2 = distance2_bits(g)`` the result is a DTD-set; with all-zero
    rows it is a total dominating set, as in ``exact_number``.  Ties go to
    the lowest vertex.
    """
    for v in range(g.n):
        if not g.bits[v]:
            raise DomainError(f"vertex {v} is isolated; dtd undefined")
    n = g.n
    # a vertex's gain is one popcount of its neighbour row and its
    # distance-2 row side by side, against the uncovered vertices and those
    # of them that already have one distance-2 member; empty distance-2
    # rows leave the neighbour rows as they are
    rows = [r | e << n for r, e in zip(g.bits, d2)] if any(d2) else g.bits
    full = (1 << n) - 1
    members = _members(n)
    smask = 0
    adjcov = 0
    d2one = 0
    d2two = 0
    while True:
        unc = full & ~(adjcov | d2two)
        if not unc:
            break
        mask = unc | (unc & d2one) << n
        # an uncovered u has a neighbour outside S (else u is covered), and
        # that neighbour's gain counts u, so the best gain is at least 1
        best_gain, best_v = -1, -1
        for w in members[full & ~smask]:
            gain = (rows[w] & mask).bit_count()
            if gain > best_gain:
                best_gain, best_v = gain, w
        smask |= 1 << best_v
        adjcov |= g.bits[best_v]
        d2two |= d2[best_v] & d2one
        d2one |= d2[best_v]
    return bits_to_vertices(smask)
