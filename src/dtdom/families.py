"""Named graph families: constructors, string ids, and membership tests.

Vertex numbering is part of the contract so that witnesses reproduce
across runs; each builder documents its layout.  Family ids are small
frozen records expressible as strings ("T(4)", "L(13)", "C10'", ...),
which is also the grammar the command line accepts; one kind table holds
each kind's builder and argument rules.

The characterization classes are named once: :func:`members` lists the ids
of a class's members of a given order, and :func:`first_match` finds the
first listed id whose member is isomorphic to a graph.  :func:`in_class`,
:func:`classify` and the checkers in :mod:`dtdom.verify` are built on these
two, so no other module holds a family list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from .canon import is_isomorphic
from .graph import Graph, GraphInputError


# -- basic builders -----------------------------------------------------------


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1 in a chain."""
    if n < 1:
        raise GraphInputError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """C_n: chain 0..n-1 closed by the edge (n-1, 0)."""
    if n < 3:
        raise GraphInputError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphInputError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(k: int) -> Graph:
    """K_{1,k}: center 0, leaves 1..k."""
    if k < 1:
        raise GraphInputError("star needs k >= 1")
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def double_star(r: int, s: int) -> Graph:
    """S(r,s): adjacent centers 0 and 1; r leaves on 0, then s leaves on 1."""
    if r < 1 or s < 1:
        raise GraphInputError("double star needs r, s >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(r)]
    edges += [(1, 2 + r + i) for i in range(s)]
    return Graph(r + s + 2, edges)


def corona(h: Graph, k: int) -> Graph:
    """H with a length-k path attached to each vertex (vertex v's chain
    occupies ids n + v*k .. n + v*k + k - 1, in order outward)."""
    if k < 1:
        raise GraphInputError("corona needs k >= 1")
    edges = list(h.edges())
    for v in range(h.n):
        base = h.n + v * k
        edges.append((v, base))
        edges += [(base + j, base + j + 1) for j in range(k - 1)]
    return Graph(h.n * (k + 1), edges)


# -- the extremal families ------------------------------------------------------

# The builders below run only through ``generate``, on ids whose arguments
# ``FamilyId`` has already checked against the kind table.


def _t_family(k: int) -> Graph:
    """T_k: star center 0; leg i is 0-(1+3i)-(2+3i)-(3+3i), leaf outermost."""
    edges = []
    for i in range(k):
        a, b, c = 1 + 3 * i, 2 + 3 * i, 3 + 3 * i
        edges += [(0, a), (a, b), (b, c)]
    return Graph(3 * k + 1, edges)


def _f_family(k: int) -> Graph:
    """F_k: T_k with the center-edge of leg 0 re-hung on leg 1's inner vertex
    (delete 0-1, add 1-4)."""
    base = _t_family(k)
    edges = [e for e in base.edges() if e != (0, 1)]
    edges.append((1, 4))
    return Graph(base.n, edges)


def _g_family(k: int) -> Graph:
    """G_k: T_k plus the edge 1-4 joining two neighbors of the center."""
    base = _t_family(k)
    return base.with_edge(1, 4)


def _t_star() -> Graph:
    """T*: K_{1,3} (center 0, leaves 1 and 2) with one edge subdivided three
    times into the path 0-3-4-5-6."""
    return Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])


def _h_family(t: int) -> Graph:
    """H_t: clique on {0, 7, 14, ...}; unit j adds the two arms
    7j-(7j+1)-(7j+2)-(7j+3) and 7j-(7j+4)-(7j+5)-(7j+6) with the triangle
    edge (7j+1, 7j+4)."""
    edges = [(7 * i, 7 * j) for i in range(t) for j in range(i + 1, t)]
    for j in range(t):
        v = 7 * j
        a1, a2, a3, b1, b2, b3 = v + 1, v + 2, v + 3, v + 4, v + 5, v + 6
        edges += [(v, a1), (v, b1), (a1, b1), (a1, a2), (a2, a3), (b1, b2), (b2, b3)]
    return Graph(7 * t, edges)


def _c10_prime() -> Graph:
    """C_10 plus the chord 0-5."""
    return cycle(10).with_edge(0, 5)


def _c10_double_prime() -> Graph:
    """C_10 plus the chords 0-5 and 1-6."""
    return _c10_prime().with_edge(1, 6)


def _relate_gadget(k: int) -> Graph:
    """K_{2,k+2} with hubs 0,1 joined, mids 2..k+3, and a pendant leaf
    (mid + k + 2) on every mid vertex."""
    edges = [(0, 1)]
    for m in range(2, k + 4):
        edges += [(0, m), (1, m), (m, m + k + 2)]
    return Graph(2 * k + 6, edges)


# L_1..L_12 are the connected claw-free graphs of order 7 with total
# domination number 4; L_13/L_14 are their order-14 relatives.  L_1 is P_7
# and L_10 is C_7; the rest are fixed edge tables (gate-checked in tests
# against the order-7 census: order, claw-freeness, total domination 4,
# pairwise non-isomorphism).
_L_EDGES: Dict[int, List[Tuple[int, int]]] = {
    1: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
    # triangle 0-1-4 with tails 1-2-3 and 4-5-6
    2: [(0, 1), (0, 4), (1, 4), (1, 2), (2, 3), (4, 5), (5, 6)],
    # path 0..5 plus apex 6 on 3 and 4
    3: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 3), (6, 4)],
    # triangle 2-3-5, tail 2-1-0, pendants 4 on 3 and 6 on 5
    4: [(0, 1), (1, 2), (2, 3), (2, 5), (3, 4), (3, 5), (5, 6)],
    # path 0..6 plus chord 4-6
    5: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)],
    # path 0..6 plus chords 3-6 and 4-6
    6: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6), (4, 6)],
    # triangle 2-3-4, tail 2-1-0, square 3-5-6-4
    7: [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)],
    # diamond 1-2-3-4 (missing 1-4), pendant 0, tail 4-5-6
    8: [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)],
    # triangle 1-2-3 with pendant 0 and path 2-4-6-5-3 around
    9: [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)],
    10: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)],
    # two triangles 0-1-3 and 0-2-3 sharing 0-3, path 1-4-6-5-2 below
    11: [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 3), (2, 5), (4, 6), (5, 6)],
    # triangle 0-1-2 on a hexagon 1-3-5-6-4-2
    12: [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6)],
    # paths a=0..6 and b=7..12, apex 13 on a3, a4 (2,3) and b3, b4 (9,10)
    13: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
         (7, 8), (8, 9), (9, 10), (10, 11), (11, 12),
         (13, 2), (13, 3), (13, 9), (13, 10)],
    # paths a=0..6 and b=7..13 with a clique on {a3, a4, b3, b4} = {2, 3, 9, 10}
    14: [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
         (7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13),
         (2, 9), (2, 10), (3, 9), (3, 10)],
}


def _l_family(i: int) -> Graph:
    n = 14 if i >= 13 else 7
    return Graph(n, _L_EDGES[i])


# -- family ids ----------------------------------------------------------------

# kind -> (builder, argument count, minimum values); Corona's arguments are
# checked separately, since its first one is itself a family id
_KINDS = {
    "P": (path, 1, (1,)),
    "C": (cycle, 1, (3,)),
    "K": (complete, 1, (1,)),
    "Star": (star, 1, (1,)),
    "DoubleStar": (double_star, 2, (1, 1)),
    "T": (_t_family, 1, (1,)),
    "F": (_f_family, 1, (2,)),
    "G": (_g_family, 1, (2,)),
    "TStar": (_t_star, 0, ()),
    "H": (_h_family, 1, (1,)),
    "L": (_l_family, 1, (1,)),
    "C10'": (_c10_prime, 0, ()),
    "C10''": (_c10_double_prime, 0, ()),
    "RelateGadget": (_relate_gadget, 1, (1,)),
    "Corona": (lambda inner, k: corona(generate(inner), k), 2, ()),
}

# each kind's own name in lower case, plus the extra spellings
_NAME_ALIASES = {kind.lower(): kind for kind in _KINDS}
_NAME_ALIASES.update({
    "path": "P", "cycle": "C", "complete": "K", "s": "DoubleStar", "t*": "TStar",
    "c10prime": "C10'", "c10doubleprime": "C10''", "relate": "RelateGadget",
})


@dataclass(frozen=True)
class FamilyId:
    """Tag naming a family member, e.g. FamilyId('T', (4,))."""

    kind: str
    args: tuple = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GraphInputError(f"unknown family: {self.kind}")
        _, arity, minima = _KINDS[self.kind]
        if len(self.args) != arity:
            raise GraphInputError(
                f"{self.kind} takes {arity} argument(s), got {len(self.args)}"
            )
        if self.kind == "Corona":
            inner, k = self.args
            if not isinstance(inner, FamilyId):
                raise GraphInputError("Corona's first argument is a family id")
            if not isinstance(k, int) or k < 1:
                raise GraphInputError("Corona needs k >= 1")
        else:
            for a, m in zip(self.args, minima):
                if not isinstance(a, int) or a < m:
                    raise GraphInputError(f"{self.kind} argument {a} below minimum {m}")
        if self.kind == "L" and not 1 <= self.args[0] <= 14:
            raise GraphInputError("L(i) needs 1 <= i <= 14")

    def __str__(self) -> str:
        if not self.args:
            return self.kind
        return f"{self.kind}({','.join(str(a) for a in self.args)})"


def parse_family_id(text: str) -> FamilyId:
    """Parse ids like 'T(4)', 'L(13)', "C10'", 'P7', 'Corona(K3,2)'."""
    s = text.strip()
    low = s.lower()
    if low in _NAME_ALIASES and _KINDS[_NAME_ALIASES[low]][1] == 0:
        return FamilyId(_NAME_ALIASES[low])
    m = re.fullmatch(r"([A-Za-z*']+)\s*\(\s*(.*?)\s*\)", s)
    if m:
        name, argstr = m.group(1), m.group(2)
        parts = [p.strip() for p in argstr.split(",")] if argstr else []
    else:
        m = re.fullmatch(r"([A-Za-z]+?)(\d+)", s)
        if not m:
            raise GraphInputError(f"cannot parse family id: {text!r}")
        name, parts = m.group(1), [m.group(2)]
    kind = _NAME_ALIASES.get(name.lower())
    if kind is None:
        raise GraphInputError(f"unknown family name: {name!r}")
    if kind == "Corona":
        if len(parts) != 2:
            raise GraphInputError("Corona takes two arguments: Corona(<family>,k)")
        inner = parse_family_id(parts[0])
        try:
            k = int(parts[1])
        except ValueError:
            raise GraphInputError(f"bad corona length: {parts[1]!r}") from None
        return FamilyId("Corona", (inner, k))
    try:
        args = tuple(int(p) for p in parts)
    except ValueError:
        raise GraphInputError(f"non-integer family argument in {text!r}") from None
    return FamilyId(kind, args)


def generate(fid: FamilyId) -> Graph:
    """Build the tagged family member with its documented fixed numbering."""
    return _KINDS[fid.kind][0](*fid.args)


def generate_named(text: str) -> Graph:
    return generate(parse_family_id(text))


# -- reference values ------------------------------------------------------------

_S1_INDICES = (1, 2, 3, 5, 6, 10)


def dtd_reference_value(fid: FamilyId) -> Optional[int]:
    """Known minimum disjunctive total domination value, where one is
    established for the family member; None otherwise."""
    k = fid.kind
    if k in ("T", "F", "G"):
        return 2 * fid.args[0]
    if k == "TStar":
        return 4
    if k == "H":
        return 4 * fid.args[0]
    if k == "L":
        i = fid.args[0]
        if i in _S1_INDICES:
            return 4
        if i in (13, 14):
            return 8
    return None


# -- classification ----------------------------------------------------------------


class FamilyClass(Enum):
    CAL_T = "T-family"
    CAL_F = "F-family"
    CAL_G = "G-family"
    CAL_H = "H-family"
    CAL_E = "exceptional"
    CAL_S = "S-list"
    CAL_S1 = "S1-list"
    CAL_L = "L-list"


_EXCEPTIONAL_IDS = (
    FamilyId("P", (2,)),
    FamilyId("P", (3,)),
    FamilyId("P", (5,)),
    FamilyId("P", (6,)),
    FamilyId("C", (3,)),
    FamilyId("G", (3,)),
)


# (order, edge count) -> (id, graph), built once; the six keys are distinct,
# so a graph has at most one exceptional candidate
_EXCEPTIONAL = {(g.n, g.edge_count): (fid, g)
                for fid, g in ((fid, generate(fid)) for fid in _EXCEPTIONAL_IDS)}


def exceptional_member(g: Graph) -> Optional[FamilyId]:
    """The exceptional-list member ``g`` is isomorphic to, if any."""
    hit = _EXCEPTIONAL.get((g.n, g.edge_count))
    if hit is not None and is_isomorphic(g, hit[1]):
        return hit[0]
    return None


# the classes with one member at each order 3k+1 (k at least the kind's minimum)
_ORDER_3K_PLUS_1 = {FamilyClass.CAL_T: "T", FamilyClass.CAL_F: "F", FamilyClass.CAL_G: "G"}


def members(cls: FamilyClass, n: int) -> List[FamilyId]:
    """The ids of the members of ``cls`` of order ``n``, in report order."""
    if cls in _ORDER_3K_PLUS_1:
        kind = _ORDER_3K_PLUS_1[cls]
        k, rest = divmod(n - 1, 3)
        return [FamilyId(kind, (k,))] if rest == 0 and k >= _KINDS[kind][2][0] else []
    if cls is FamilyClass.CAL_H:
        return [FamilyId("H", (n // 7,))] if n >= 7 and n % 7 == 0 else []
    if cls is FamilyClass.CAL_E:
        return [fid for fid, g in _EXCEPTIONAL.values() if g.n == n]
    if cls is FamilyClass.CAL_S1:
        indices = _S1_INDICES if n == 7 else ()
    elif cls is FamilyClass.CAL_S:
        indices = _S1_INDICES if n == 7 else (13, 14) if n == 14 else ()
    elif cls is FamilyClass.CAL_L:
        indices = range(1, 13) if n == 7 else ()
    else:
        raise GraphInputError(f"unknown class: {cls}")
    return [FamilyId("L", (i,)) for i in indices]


def first_match(g: Graph, fids: Iterable[FamilyId]) -> Optional[FamilyId]:
    """The first of ``fids`` whose member is isomorphic to ``g``, if any."""
    return next((fid for fid in fids if is_isomorphic(g, generate(fid))), None)


def in_class(g: Graph, cls: FamilyClass) -> bool:
    """Is ``g`` isomorphic to a member of the named characterization class?"""
    if cls is FamilyClass.CAL_E:
        return exceptional_member(g) is not None
    return first_match(g, members(cls, g.n)) is not None


def classify(g: Graph) -> Optional[FamilyId]:
    """First family id matching ``g``, in a fixed priority order.

    Exact small lists are tried before parameterized families, so e.g. P_7
    classifies as L(1).  Returns None when nothing matches.
    """
    n = g.n
    candidates = members(FamilyClass.CAL_L, n)
    if n == 7:
        candidates.append(FamilyId("TStar"))
    if n == 14:
        candidates += members(FamilyClass.CAL_S, n)
    if n == 10:
        candidates += [FamilyId("C10'"), FamilyId("C10''")]
    # the generic candidates only at their own edge counts, since first_match
    # builds each candidate before it can reject it
    m = g.edge_count
    if m == n - 1:
        candidates.append(FamilyId("P", (n,)))
    if n >= 3 and m == n:
        candidates.append(FamilyId("C", (n,)))
    # smaller complete graphs and stars are paths or the triangle
    if n >= 4 and m == n * (n - 1) // 2:
        candidates.append(FamilyId("K", (n,)))
    if n >= 4 and m == n - 1:
        candidates.append(FamilyId("Star", (n - 1,)))
        candidates += [FamilyId("DoubleStar", (r, n - 2 - r)) for r in range(1, n // 2)]
    for cls in (FamilyClass.CAL_T, FamilyClass.CAL_F, FamilyClass.CAL_G, FamilyClass.CAL_H):
        candidates += members(cls, n)
    if n >= 8 and n % 2 == 0:
        candidates.append(FamilyId("RelateGadget", ((n - 6) // 2,)))
    return first_match(g, candidates)
