"""Constructive bounded DTD-sets for claw-free graphs with a leaf.

The machinery follows a leaf-rooted decomposition: around a leaf y with
neighbor x, the closed neighborhood X = N[x] - y is a clique, the
components of G - X are "fragments", and every X-vertex touches at most
one fragment.  A per-fragment selection procedure builds a vertex set S
from the fragment census; the builder then augments S case by case until
it disjunctively totally dominates, recursing into large fragments.  The
final candidate is always verified against the exact solver's predicate
and the 4n/7 size bound, with an unconditional exact-solver fallback, so
the construction's guarantee never rests on the case analysis alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, FrozenSet, List, Optional, Tuple

from .canon import isomorphism_map
from .domination import DomainError, DominationKind, exact_number, is_dtd_set
from .families import exceptional_member, generate, FamilyId
from .graph import (
    Graph,
    GraphInputError,
    _component_masks,
    _from_mask,
    _to_mask,
    bits_to_vertices,
    distance2_bits,
    induced_subgraph,
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


def _nbrs_in(g: Graph, v: int, vertices) -> FrozenSet[int]:
    """N(v) restricted to ``vertices``."""
    return bits_to_vertices(g.bits[v] & _to_mask(vertices))


def _path_order(g: Graph, vertices) -> Optional[List[int]]:
    """Vertices in path order, or None when the induced graph is not a path."""
    vs = _to_mask(vertices)
    members = _from_mask(vs)
    degs = {v: (g.bits[v] & vs).bit_count() for v in members}
    if len(members) == 1:
        return members
    ends = [v for v in members if degs[v] == 1]
    if len(ends) != 2 or any(d > 2 for d in degs.values()):
        return None
    order = [ends[0]]
    prev = 0
    cur = ends[0]
    while len(order) < len(members):
        nxt = g.bits[cur] & vs & ~prev
        if nxt.bit_count() != 1:
            return None
        prev, cur = 1 << cur, nxt.bit_length() - 1
        order.append(cur)
    return order


def _fragment_kind(g: Graph, vertices) -> FragmentKind:
    k = len(vertices)
    if k == 1:
        return FragmentKind.P1
    if k == 2:
        return FragmentKind.P2
    vs = _to_mask(vertices)
    edges = sum((g.bits[v] & vs).bit_count() for v in vertices) // 2
    if k == 3:
        return FragmentKind.C3 if edges == 3 else FragmentKind.P3
    if k in (5, 6) and edges == k - 1 and _path_order(g, vertices):
        return FragmentKind.P5 if k == 5 else FragmentKind.P6
    if k == 10 and edges == 10 and exceptional_member(induced_subgraph(g, vertices)[0]) == _G3:
        return FragmentKind.G3
    return FragmentKind.OTHER


def _g3_coordinates(g: Graph, vertices) -> dict:
    """Map a G_3-shaped fragment onto named coordinates.

    ``w`` is the triangle vertex with the three-vertex arm; ``u1``/``v1``
    the other triangle vertices (lowest id first); ``*2``/``*3`` follow the
    arms outward.
    """
    vs = _to_mask(vertices)
    tri = next(((a, b, c) for a in _from_mask(vs) for b in _from_mask(g.bits[a] & vs) if b > a
                for c in _from_mask(g.bits[a] & g.bits[b] & vs) if c > b), None)
    if tri is None:
        raise ProofPathError("G3 fragment without triangle")
    off_tri = vs & ~_to_mask(tri)
    arms = {}
    for t in tri:
        first = _from_mask(g.bits[t] & off_tri)
        if len(first) != 1:
            raise ProofPathError("G3 arm mismatch")
        arm = [first[0]]
        prev, cur = t, first[0]
        while True:
            nxt = _from_mask(g.bits[cur] & off_tri & ~(1 << prev))
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            arm.append(cur)
        arms[t] = arm
    w = next((t for t in tri if len(arms[t]) == 3), None)
    if w is None or sorted(len(arms[t]) for t in tri) != [2, 2, 3]:
        raise ProofPathError("G3 arm lengths mismatch")
    others = sorted(t for t in tri if t != w)
    coords = {"w": w, "w1": arms[w][0], "w2": arms[w][1], "w3": arms[w][2]}
    for name, t in zip(("u", "v"), others):
        coords[name + "1"] = t
        coords[name + "2"] = arms[t][0]
        coords[name + "3"] = arms[t][1]
    return coords


def _p3_center(g: Graph, vertices) -> int:
    """The middle vertex of a P3-shaped fragment."""
    vs = _to_mask(vertices)
    return next(v for v in vertices if (g.bits[v] & vs).bit_count() == 2)


def _attachment_profile(g: Graph, kind: FragmentKind, vertices, chosen: int) -> str:
    adj = _nbrs_in(g, chosen, vertices)
    if kind is FragmentKind.P1:
        return "isolated"
    if kind is FragmentKind.P2:
        return "both-adjacent" if len(adj) == 2 else "one-adjacent"
    if kind is FragmentKind.P3:
        center = _p3_center(g, vertices)
        if center in adj:
            return "center-adjacent"
        return "leaf-adjacent" if len(adj) == 1 else "unclassified"
    if kind is FragmentKind.C3:
        return "triangle"
    if kind is FragmentKind.P5:
        order = _path_order(g, vertices)
        if order[0] in adj or order[-1] in adj:
            return "leaf-adjacent"
        return "interior-adjacent"
    if kind is FragmentKind.P6:
        order = _path_order(g, vertices)
        if order[0] in adj or order[-1] in adj:
            return "leaf-adjacent"
        if order[1] in adj or order[-2] in adj:
            return "support-adjacent"
        return "interior-adjacent"
    if kind is FragmentKind.G3:
        c = _g3_coordinates(g, vertices)
        if c["w3"] in adj:
            return "leaf-w3"
        if c["u3"] in adj or c["v3"] in adj:
            return "leaf-arm"
        if c["w2"] in adj:
            return "support-w2"
        if c["u2"] in adj or c["v2"] in adj:
            return "support-arm"
        if c["w1"] in adj:
            return "center-w1"
        return "center-arms"
    return "non-exceptional"


# -- decomposition ----------------------------------------------------------------


def _build_decomposition(g: Graph, y: int, x: int, excluded, deep: bool, z) -> Decomposition:
    xmask = (g.bits[x] | 1 << x) & ~(1 << y)
    X = bits_to_vertices(xmask)
    comps = _component_masks(g.bits, ((1 << g.n) - 1) & ~xmask & ~_to_mask(excluded))
    fragments = []
    for comp in comps:
        vertices = bits_to_vertices(comp)
        touching = [w for w in _from_mask(xmask) if g.bits[w] & comp]
        if not touching:
            raise ProofPathError("fragment not attached to the clique")
        kind = _fragment_kind(g, vertices)
        chosen = touching[0]
        fragments.append(
            FragmentRecord(vertices, kind, chosen, _attachment_profile(g, kind, vertices, chosen))
        )
    fragments.sort(key=lambda f: min(f.vertices))
    # claw-freeness makes X a clique whose vertices each touch at most one
    # fragment, so neither is re-checked here
    x1 = frozenset(X) - {f.chosen for f in fragments if f.kind in _EXCEPTIONAL_KINDS}
    p1_vertices = frozenset().union(*[f.vertices for f in fragments if f.kind is FragmentKind.P1])
    Y = p1_vertices | x1 | ({x, y, z} if deep else frozenset())
    return Decomposition(y, x, frozenset(X), tuple(fragments), Y, deep, z)


def _require_connected_claw_free(g: Graph, what: str) -> None:
    """The input check of the public entry points; the proof path trusts it."""
    if not is_connected(g):
        raise GraphInputError(f"{what} needs a connected graph")
    if not is_claw_free(g):
        raise GraphInputError(f"{what} needs a claw-free graph")


def _leaf_decomposition(g: Graph, y: int, error: type) -> Decomposition:
    if g.degree(y) != 1:
        raise error(f"vertex {y} is not a leaf")
    # the leaf itself survives as a one-vertex fragment of G - X
    return _build_decomposition(g, y, g.bits[y].bit_length() - 1, excluded=(), deep=False, z=None)


def _deep_decomposition(g: Graph, z: int, error: type) -> Decomposition:
    if g.degree(z) != 1:
        raise error(f"vertex {z} is not a leaf")
    y = g.bits[z].bit_length() - 1
    if g.degree(y) != 2:
        raise error(f"support {y} does not have degree 2")
    x = (g.bits[y] & ~(1 << z)).bit_length() - 1
    return _build_decomposition(g, y, x, excluded={y, z}, deep=True, z=z)


def decompose(g: Graph, y: int) -> Decomposition:
    """Leaf-rooted decomposition: X = N[x] - y, fragments = components of G - X."""
    _require_connected_claw_free(g, "decomposition")
    return _leaf_decomposition(g, y, GraphInputError)


def decompose_beyond_support(g: Graph, z: int) -> Decomposition:
    """Decomposition one step past a degree-2 support: the leaf z and its
    support y are set aside, X is built around y's other neighbor."""
    _require_connected_claw_free(g, "decomposition")
    return _deep_decomposition(g, z, GraphInputError)


# -- the per-fragment selection procedure ------------------------------------------

Solver = Callable[[FrozenSet[int]], FrozenSet[int]]


def _oriented_path(g: Graph, frag: FragmentRecord) -> List[int]:
    """The fragment path ordered so the paper's case labels line up: the
    attachment end (leaf, else support, else lowest) comes first."""
    order = _path_order(g, frag.vertices)
    adj = _nbrs_in(g, frag.chosen, frag.vertices)
    if order[-1] in adj and order[0] not in adj:
        order.reverse()
    elif order[0] not in adj and order[-1] not in adj:
        if order[-2] in adj and order[1] not in adj:
            order.reverse()
    return order


def _select_for_fragment(g: Graph, frag: FragmentRecord, solve: Solver) -> FrozenSet[int]:
    kind, chosen = frag.kind, frag.chosen
    adj = _nbrs_in(g, chosen, frag.vertices)
    if kind is FragmentKind.OTHER:
        return solve(frag.vertices)
    if kind is FragmentKind.P2:
        if frag.attachment_profile == "both-adjacent":
            return frozenset({chosen})
        return frozenset({min(adj)})
    if kind is FragmentKind.P3:
        center = _p3_center(g, frag.vertices)
        if frag.attachment_profile == "center-adjacent":
            return frozenset({chosen, min(adj)})
        if frag.attachment_profile != "leaf-adjacent":
            raise ProofPathError("P3 fragment attachment outside the enumerated cases")
        return frozenset({min(adj), center})
    if kind is FragmentKind.C3:
        return frozenset({chosen, min(adj)})
    if kind is FragmentKind.P5:
        order = _oriented_path(g, frag)
        if frag.attachment_profile == "leaf-adjacent":
            return frozenset({chosen, order[2], order[3]})
        if order[2] not in adj or not (order[1] in adj or order[3] in adj):
            raise ProofPathError("P5 fragment attachment outside the enumerated cases")
        return frozenset({chosen, order[2], order[3]})
    if kind is FragmentKind.P6:
        order = _oriented_path(g, frag)
        profile = frag.attachment_profile
        if profile == "leaf-adjacent":
            return frozenset({chosen, order[3], order[4]})
        if profile == "support-adjacent":
            if order[2] not in adj:
                raise ProofPathError("P6 support attachment without its interior edge")
            return frozenset({order[1], order[3], order[4]})
        if order[2] not in adj or order[3] not in adj:
            raise ProofPathError("P6 interior attachment outside the enumerated cases")
        return frozenset({chosen, order[1], order[3], order[4]})
    if kind is FragmentKind.G3:
        c = _g3_coordinates(g, frag.vertices)
        if c["u3"] in adj or c["u2"] in adj:
            pass
        elif c["v3"] in adj or c["v2"] in adj:
            # the paper's symmetry: call the attached two-vertex arm "u"
            for k in ("1", "2", "3"):
                c["u" + k], c["v" + k] = c["v" + k], c["u" + k]
        base = {chosen, c["u1"], c["u2"], c["v1"], c["v2"], c["w1"], c["w2"]}
        profile = frag.attachment_profile
        if profile == "leaf-w3":
            return frozenset(base - {c["w1"], c["w2"]} | {c["w3"]})
        if profile == "leaf-arm":
            return frozenset(base - {c["u1"], c["u2"]} | {c["u3"]})
        if profile == "support-w2":
            return frozenset(base - {c["w2"]})
        if profile == "support-arm":
            return frozenset(base - {c["u2"]})
        if c["w"] not in adj:
            raise ProofPathError("G3 center attachment without the center edge")
        if profile == "center-w1":
            return frozenset(base - {c["u1"], c["w1"]} | {c["w"]})
        if c["u1"] not in adj or c["v1"] not in adj:
            raise ProofPathError("G3 attachment outside the enumerated cases")
        return frozenset(base - {c["u1"], c["v1"]} | {c["w"]})
    raise ProofPathError(f"unhandled fragment kind {kind}")


def algorithm_a(g: Graph, dec: Decomposition, solve_noneE: Optional[Solver] = None) -> FrozenSet[int]:
    """The literal per-fragment selection (steps seeded from |Y|, then one
    case per fragment shape); the result is not necessarily a DTD-set yet."""
    solve = solve_noneE if solve_noneE is not None else partial(_solve_within, g)
    s = set()
    x1 = sorted(dec.Y & dec.X)
    if len(dec.Y) >= 4:
        s.add(dec.x)
        other = [w for w in x1 if w != dec.x]
        if not other:
            raise ProofPathError("no second unassigned clique vertex to seed")
        s.add(other[0])
    else:
        s.add(dec.x)
    for frag in dec.fragments:
        if frag.kind is FragmentKind.P1:
            continue
        s |= _select_for_fragment(g, frag, solve)
    return frozenset(s)


def algorithm_b(g: Graph, dec: Decomposition, solve_noneE: Optional[Solver] = None) -> FrozenSet[int]:
    """The modified selection for the decomposition past a degree-2 support:
    both x and y are seeded, and each bare-vertex fragment contributes its
    attached clique vertex."""
    if not dec.deep:
        raise GraphInputError("algorithm B needs the beyond-support decomposition")
    solve = solve_noneE if solve_noneE is not None else partial(_solve_within, g)
    s = {dec.x, dec.y}
    for frag in dec.fragments:
        if frag.kind is FragmentKind.P1:
            s.add(frag.chosen)
            continue
        s |= _select_for_fragment(g, frag, solve)
    return frozenset(s)


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
    dec = _leaf_decomposition(g, leaf, ProofPathError)
    # a large fragment's set lies inside it and never meets X, so the route
    # is chosen without it and the fragment is solved only on a route that
    # keeps the selection
    s = algorithm_a(g, dec, lambda vertices: frozenset())
    large = [f.vertices for f in dec.fragments if f.kind is FragmentKind.OTHER]
    if len(s & dec.X) < 2:
        p6 = _first_fragment(dec, FragmentKind.P6)
        p2 = _first_fragment(dec, FragmentKind.P2)
        k3 = _kind_count(dec, FragmentKind.P3)
        if p6 is not None:
            s |= {p6.chosen}
        elif len(large) > 1:
            raise ProofPathError("several large fragments beside a lone clique seed")
        elif p2 is not None:
            s |= {p2.chosen}
        elif large and k3 == 1:
            return _peel_p3_chain(g, dec)
        elif large and k3 == 0:
            return None  # lone large fragment, no chains: caller decides what is next
    for vertices in large:
        s |= _solve_within(g, vertices)
    return s


def _peel_p3_chain(g: Graph, dec: Decomposition) -> FrozenSet[int]:
    """Peel the P3 fragment and its clique vertex off as a four-vertex chain
    and solve the core that is left."""
    frag = _first_fragment(dec, FragmentKind.P3)
    z1 = frag.chosen
    attach = _nbrs_in(g, z1, frag.vertices)
    if len(attach) != 1:
        raise ProofPathError("P3 chain attachment is not a single leaf")
    z2 = next(iter(attach))
    z3 = _p3_center(g, frag.vertices)
    z4 = next(iter(frag.vertices - {z2, z3}))
    keep = [v for v in range(g.n) if v not in {z1, z2, z3, z4}]
    core, mapping = induced_subgraph(g, keep)
    phi = isomorphism_map(core, generate(_G3)) if core.n == 10 else None
    if phi is not None:
        anchor = phi[mapping[dec.y]]
        if anchor not in _CORE_SETS:
            raise ProofPathError("peeled core leaf lands off the named arms")
        special = {keep[phi.index(t)] for t in _CORE_SETS[anchor]}
        return frozenset(special | {z2, z3})
    if exceptional_member(core) is not None:
        raise ProofPathError("peeled core is an exceptional graph")
    return _solve_within(g, keep) | {z2, z3}


def _phase_two(g: Graph, leaf: int) -> FrozenSet[int]:
    dec = _deep_decomposition(g, leaf, ProofPathError)
    s = algorithm_b(g, dec)
    x1 = dec.Y & dec.X
    if len(dec.Y) >= 4:
        if is_dtd_set(g, s):
            return s
        extra = sorted(v for v in x1 if v != dec.x and v not in s)
        if not extra:
            raise ProofPathError("no unassigned clique vertex to repair coverage")
        return s | {extra[0]}
    in_x = s & dec.X
    if len(in_x) >= 3:
        return s - {dec.x}
    if len(in_x) == 2:
        return s
    if _kind_count(dec, FragmentKind.P2) == 0:
        return s
    others = sorted(dec.X - {dec.x})
    if not others:
        raise ProofPathError("clique degenerated to the support edge")
    return s | {others[0]}


def _construct_inner(g: Graph) -> FrozenSet[int]:
    """Recursive builder on a connected claw-free non-exceptional subgraph.

    Each recursive call is on a strictly smaller induced subgraph: a
    component of G - X for a nonempty clique X, or g less the four vertices
    of a peeled chain.  So the recursion ends as the paper's induction on n
    does, and no counter bounds it.
    """
    if g.n <= 11 or g.min_degree() >= 2:
        return exact_number(g, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION).witness
    return _proof_path(g)


def _solve_within(g: Graph, vertices) -> FrozenSet[int]:
    """The builder on the subgraph induced by ``vertices``, in g's vertex ids;
    it is the exact solver on at most 11 vertices or minimum degree 2."""
    order = sorted(vertices)  # induced_subgraph relabels in sorted order
    witness = _construct_inner(induced_subgraph(g, order)[0])
    return frozenset(order[v] for v in witness)


def _proof_path(g: Graph) -> FrozenSet[int]:
    lvs = sorted(leaves(g))
    if not lvs:
        raise ProofPathError("no leaf to root the decomposition")
    leaf_mask = _to_mask(lvs)
    result = _phase_one(g, lvs[0])
    if result is not None:
        return result
    # the endpoint forces the chosen support to have degree 2; a support of
    # higher degree, if any, reroutes the first round to a terminating case
    for v in range(g.n):
        nb_leaves = _from_mask(g.bits[v] & leaf_mask)
        if nb_leaves and g.degree(v) >= 3 and nb_leaves[0] != lvs[0]:
            rerooted = _phase_one(g, nb_leaves[0])
            if rerooted is not None:
                return rerooted
            raise ProofPathError("high-degree support still reached the endpoint")
    return _phase_two(g, lvs[0])


def construct_dtd_clawfree(g: Graph) -> Tuple[FrozenSet[int], str]:
    """A DTD-set of size at most 4n/7 for a connected claw-free graph.

    Strategy: minimum degree 2 goes straight to the exact solver; a graph
    with a leaf runs the decomposition path (whatever its order, so the
    equality families are produced by the extraction itself); the candidate
    is verified and the exact solver stands behind any failure.  The method
    tag records which route produced the returned set.
    """
    if g.n < 2:
        raise GraphInputError("constructor needs n >= 2")
    _require_connected_claw_free(g, "constructor")
    exceptional = exceptional_member(g)
    if exceptional is not None:
        raise DomainError(f"{exceptional} is an exceptional graph for the 4n/7 bound")
    return _construct(g)


def _construct(g: Graph) -> Tuple[FrozenSet[int], str]:
    """``construct_dtd_clawfree`` past its input checks, for callers whose
    universe already holds ``g`` connected, claw-free and non-exceptional."""
    if g.min_degree() >= 2:
        res = exact_number(g, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)
        return res.witness, "exact-mindeg2"
    if g.n <= 3:
        res = exact_number(g, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)
        return res.witness, "exact-small"
    try:
        cand = _proof_path(g)
        if is_dtd_set(g, cand) and 7 * len(cand) <= 4 * g.n:
            return cand, "proof-path"
    except ProofPathError:
        pass
    res = exact_number(g, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)
    return res.witness, "fallback-exact"


# -- greedy baseline ------------------------------------------------------------------


def greedy_dtd(g: Graph) -> FrozenSet[int]:
    """Valid DTD-set by maximum-new-coverage selection; no size guarantee."""
    for v in range(g.n):
        if not g.bits[v]:
            raise DomainError(f"vertex {v} is isolated")
    if g.n == 0:
        return frozenset()
    d2 = distance2_bits(g)
    full = (1 << g.n) - 1
    smask = 0
    adjcov = 0
    d2one = 0
    d2two = 0
    while True:
        covered = adjcov | d2two
        if covered == full:
            break
        unc = full & ~covered
        best_gain, best_v = -1, -1
        for w in range(g.n):
            if (smask >> w) & 1:
                continue
            gain = (g.bits[w] & unc).bit_count()
            gain += (d2[w] & d2one & unc).bit_count()
            if gain > best_gain:
                best_gain, best_v = gain, w
        if best_gain <= 0:
            # fall back to any neighbor of an uncovered vertex
            u = (unc & -unc).bit_length() - 1
            best_v = _from_mask(g.bits[u])[0]
        smask |= 1 << best_v
        adjcov |= g.bits[best_v]
        d2two |= d2[best_v] & d2one
        d2one |= d2[best_v]
    return bits_to_vertices(smask)
