"""Domination predicates, exact minimum solvers, and path/cycle closed forms.

Three set kinds are covered: dominating sets, total dominating sets, and
disjunctive total dominating sets (every vertex has a neighbor in the set
or at least two set members at distance exactly 2).  They differ only in
their rows: dom is total domination over closed neighborhoods, and tdom is
dtd with empty distance-2 rows.  So one uncovered-set predicate
(``_uncovered``) and one exact search serve all three.  The exact solver is
an ascending-cardinality search with logically forced-vertex propagation
and a coverage bound over the best remaining candidates (see
``_cannot_cover``); nothing heuristic prunes a feasible branch, so its
results are safe to use as the oracle for every theorem check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import FrozenSet, Iterable, Optional

from .graph import (
    Graph,
    GraphInputError,
    _distance2_row,
    _from_mask,
    _to_mask,
    bits_to_vertices,
    distance2_bits,
    leaves,
)


class DomainError(ValueError):
    """Input outside a solver's mathematical domain (e.g. isolated vertex)."""


class DominationKind(Enum):
    DOMINATION = "dom"
    TOTAL_DOMINATION = "tdom"
    DISJUNCTIVE_TOTAL_DOMINATION = "dtd"


@dataclass(frozen=True)
class SolveResult:
    kind: DominationKind
    value: int
    witness: FrozenSet[int]
    explored: int


# -- predicates ---------------------------------------------------------------


def _uncovered(g: Graph, s: Iterable[int], kind: DominationKind) -> FrozenSet[int]:
    """Vertices of ``g`` that ``s`` fails to dominate in the sense of ``kind``.

    A vertex is covered by a member among its neighbors (its closed
    neighborhood for dom) or, for dtd, by two members at distance 2.  The
    distance-2 row is built only for vertices with no neighbor in ``s``.
    """
    smask = _to_mask(s)
    closed = 1 if kind is DominationKind.DOMINATION else 0
    disjunctive = kind is DominationKind.DISJUNCTIVE_TOTAL_DOMINATION
    bad = []
    for v, row in enumerate(g.bits):
        if (row | closed << v) & smask:
            continue
        if disjunctive and (_distance2_row(g.bits, v) & smask).bit_count() >= 2:
            continue
        bad.append(v)
    return frozenset(bad)


def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex outside ``s`` has a neighbor in ``s``."""
    return not _uncovered(g, s, DominationKind.DOMINATION)


def is_total_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex of ``g``, members of ``s`` included, has a neighbor in ``s``."""
    return not _uncovered(g, s, DominationKind.TOTAL_DOMINATION)


def dtd_uncovered(g: Graph, s: Iterable[int]) -> FrozenSet[int]:
    """Vertices violating the disjunctive total domination condition."""
    return _uncovered(g, s, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)


def is_dtd_set(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex has a neighbor in ``s`` or two ``s``-members at distance 2."""
    return not _uncovered(g, s, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)


# -- exact solver --------------------------------------------------------------


def _weight_rows(nbr, d2) -> list:
    """Per vertex w, a row in three blocks of n bits: its neighbors and its
    distance-2 vertices, then its neighbors, then its distance-2 vertices.

    Against the mask of ``_cannot_cover`` its popcount is w's doubled weight:
    2 for each uncovered neighbor, 2 for each uncovered vertex at distance 2
    that already has one distance-2 member, and 1 for each other uncovered
    vertex at distance 2.  For dom and tdom the distance-2 rows are empty.
    """
    n = len(nbr)
    return [r | e | r << n | e << 2 * n for r, e in zip(nbr, d2)]


def _cannot_cover(rows, unc, d2one, avail, budget) -> bool:
    """True when no ``budget`` vertices of ``avail`` can cover all of ``unc``.

    Each vertex a completion covers collects at least 2 from its members'
    doubled weights (see ``_weight_rows``): 2 from one neighbor, 2 from one
    more distance-2 member when it has one already, else 1 from each of the
    two it needs.  So a completion exists only if the ``budget`` largest
    weights reach ``2 * |unc|``.
    """
    n = len(rows)
    mask = unc | unc << n | (unc & d2one) << 2 * n
    weights = []
    while avail:
        low = avail & -avail
        avail ^= low
        weights.append((rows[low.bit_length() - 1] & mask).bit_count())
    if len(weights) > budget:
        weights.sort(reverse=True)
        del weights[budget:]
    return sum(weights) < 2 * unc.bit_count()


def exact_number(g: Graph, kind: DominationKind) -> SolveResult:
    """Exact minimum cardinality with witness, by ascending-cardinality search.

    One search serves all three kinds.  A vertex is covered by one member
    among its rows ``nbr`` (closed neighborhoods for dom) or by two members
    among its distance-2 rows ``d2``, which are empty for dom and tdom.  A
    branch with at least two vertices left to add is cut when those
    ``budget`` vertices cannot cover the uncovered ones (``_cannot_cover``),
    and k starts at the least value the same bound allows at the root.  The
    cost grows exponentially with n: DTD on C45 takes 6,482 nodes and on P60
    125,012.  For the total variants every vertex must have a neighbor
    (DomainError otherwise); disconnected inputs are permitted and solved
    globally.
    """
    n = g.n
    if kind is DominationKind.DOMINATION:
        # a dominating set is a total dominating set over closed neighborhoods
        nbr = [row | 1 << v for v, row in enumerate(g.bits)]
    else:
        for v in range(n):
            if not g.bits[v]:
                raise DomainError(f"vertex {v} is isolated; {kind.value} undefined")
        nbr = g.bits
    if n == 0:
        return SolveResult(kind, 0, frozenset(), 0)
    d2 = distance2_bits(g) if kind is DominationKind.DISJUNCTIVE_TOTAL_DOMINATION else (0,) * n
    full = (1 << n) - 1
    rows = _weight_rows(nbr, d2)
    explored = 0

    def rec(smask: int, banned: int, budget: int, adjcov: int, d2one: int, d2two: int) -> Optional[int]:
        nonlocal explored
        explored += 1
        while True:
            unc = full & ~(adjcov | d2two)
            if not unc:
                return smask
            if budget == 0:
                return None
            free = full & ~(banned | smask)
            # one pass over the uncovered vertices: fail on one with no
            # option, collect the forced vertices, and note the first vertex
            # with the fewest options to branch on when nothing is forced
            forced = 0
            pick_opts, pick_cnt = 0, n + 1
            u = unc
            while u:
                low = u & -u
                v = low.bit_length() - 1
                u ^= low
                opts = nbr[v] & free
                avail_d = d2[v] & free
                if avail_d:
                    # v needs two members at distance 2, or one more if it has one
                    need = 1 if (d2one >> v) & 1 else 2
                    cnt_d = avail_d.bit_count()
                    if cnt_d >= need and need <= budget:
                        if not opts and cnt_d == need:
                            forced |= avail_d
                        opts |= avail_d
                if not opts:
                    return None
                cnt = opts.bit_count()
                if cnt == 1:
                    forced |= opts
                elif cnt < pick_cnt:
                    pick_opts, pick_cnt = opts, cnt
            if not forced:
                break
            budget -= forced.bit_count()
            if budget < 0:
                return None
            f = forced
            while f:
                low = f & -f
                w = low.bit_length() - 1
                f ^= low
                smask |= low
                adjcov |= nbr[w]
                d2two |= d2[w] & d2one
                d2one |= d2[w]

        # coverage bound over the budget best candidates; at budget 1 each
        # child fails in its first forced-vertex pass unless it covers
        # everything, which is cheaper than computing the weights
        if budget > 1 and _cannot_cover(rows, unc, d2one, free, budget):
            return None
        tried = 0
        o = pick_opts
        while o:
            low = o & -o
            w = low.bit_length() - 1
            o ^= low
            dw = d2[w]
            hit = rec(
                smask | low, banned | tried, budget - 1, adjcov | nbr[w], d2one | dw, d2two | dw & d2one
            )
            if hit is not None:
                return hit
            tried |= low
        return None

    # the least k whose k largest root weights reach 2n; at the root every
    # vertex is uncovered and none has a distance-2 member yet
    weights = sorted([(r & (full | full << n)).bit_count() for r in rows], reverse=True)
    lower = next(k for k, reach in enumerate(accumulate(weights), 1) if reach >= 2 * n)
    for k in range(lower, n + 1):
        hit = rec(0, 0, k, 0, 0, 0)
        if hit is not None:
            return SolveResult(kind, hit.bit_count(), bits_to_vertices(hit), explored)
    raise DomainError("no feasible set exists")  # unreachable after isolation check


def dominating_number(g: Graph) -> int:
    return exact_number(g, DominationKind.DOMINATION).value


def total_domination_number(g: Graph) -> int:
    return exact_number(g, DominationKind.TOTAL_DOMINATION).value


def dtd_number(g: Graph) -> int:
    return exact_number(g, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION).value


# -- closed forms for paths and cycles -----------------------------------------


def dtd_cycle_formula(n: int) -> int:
    """Minimum disjunctive total domination of the n-cycle (n >= 3)."""
    if n < 3:
        raise GraphInputError("cycle formula needs n >= 3")
    if n % 5 == 0:
        return 2 * n // 5
    return -(-2 * (n + 1) // 5)


def dtd_path_formula(n: int) -> int:
    """Minimum disjunctive total domination of the n-path (n >= 3)."""
    if n < 3:
        raise GraphInputError("path formula needs n >= 3")
    base = -(-2 * (n + 1) // 5)
    return base + 1 if n % 5 == 1 else base


def gt_cycle_formula(n: int) -> int:
    """Total domination number of the n-cycle (n >= 3)."""
    if n < 3:
        raise GraphInputError("cycle formula needs n >= 3")
    return n // 2 + (-(-n // 4)) - n // 4


def cycle_witness(n: int) -> FrozenSet[int]:
    """Explicit minimum DTD-set of C_n: consecutive pairs every five vertices.

    Pairs sit at indices {5i, 5i+1}; the residue tail adds vertex n-1 when
    n = 1 (mod 5) and the pair {n-5, n-4} (mod n) for residues 2, 3, 4.
    Always has size ``dtd_cycle_formula(n)``.
    """
    if n < 3:
        raise GraphInputError("cycle witness needs n >= 3")
    s = set()
    for i in range(n // 5):
        s.add(5 * i)
        s.add(5 * i + 1)
    r = n % 5
    if r == 1:
        s.add(n - 1)
    elif r:
        s.add((n - 5) % n)
        s.add((n - 4) % n)
    return frozenset(s)


# -- support-vertex exchange ----------------------------------------------------


def support_exchange(
    g: Graph,
    s: Iterable[int],
    v: int,
    include_degree2_neighbor: bool = False,
) -> FrozenSet[int]:
    """Same-size minimum DTD-set containing the support vertex ``v``.

    ``v`` must be a support vertex with exactly one non-leaf neighbor ``w``
    and ``s`` a minimum DTD-set; a leaf neighbor of ``v`` in ``s`` is swapped
    for ``v`` when needed.  With ``include_degree2_neighbor`` (requires
    ``deg(w) == 2``) the result contains both ``v`` and ``w``.
    """
    s = frozenset(s)
    if not is_dtd_set(g, s):
        raise GraphInputError("s is not a disjunctive total dominating set")
    lv = leaves(g)
    nbrs = _from_mask(g.bits[v])
    if v in lv or not any(u in lv for u in nbrs):
        raise GraphInputError(f"vertex {v} is not a support vertex")
    non_leaf = [u for u in nbrs if u not in lv]
    if len(non_leaf) != 1:
        raise GraphInputError(
            f"vertex {v} has {len(non_leaf)} non-leaf neighbors, need exactly 1"
        )
    w = non_leaf[0]

    def swap_in(out: FrozenSet[int], x: int) -> FrozenSet[int]:
        swappable = [u for u in nbrs if u in lv and u in out]
        if not swappable:
            raise GraphInputError("no leaf neighbor of v available to swap")
        out = (out - {swappable[0]}) | {x}
        if not is_dtd_set(g, out):
            raise GraphInputError("exchange broke the set; s was not minimum")
        return out

    out = s if v in s else swap_in(s, v)
    if include_degree2_neighbor:
        if g.degree(w) != 2:
            raise GraphInputError(f"neighbor {w} has degree {g.degree(w)}, need 2")
        if w not in out:
            out = swap_in(out, w)
    return out
