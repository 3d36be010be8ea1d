"""Domination predicates, exact minimum solvers, and path/cycle closed forms.

Three set kinds are covered: dominating sets, total dominating sets, and
disjunctive total dominating sets (every vertex has a neighbor in the set
or at least two set members at distance exactly 2).  They differ only in
their rows: dom is total domination over closed neighborhoods, and tdom is
dtd with empty distance-2 rows.  So one scan for uncovered vertices
(``_uncovered_vertices``, which the predicates stop at its first hit) and
one exact search serve all three.  The exact solver searches by
cardinality downwards from the one greedy cover (``_greedy_cover``, which
``constructor.greedy_dtd`` and the constructor's greedy total dominating
set also run): each set it finds sets the next budget one below its size,
and the first refuted budget proves the last set kept optimal.  A node
propagates logically forced vertices, bans free candidates that one other
free candidate can replace in any completion (``_dominated``), and is
cut by a coverage bound (``_cannot_cover``): the best remaining
candidates must reach the coverage the uncovered vertices need, and a
per-vertex charge, each uncovered vertex paying 2 over the heaviest weight
that gives to it, must not exceed the budget.  It branches on the heaviest
option first by that bound's weights, from the same ranked list, and a
node with one vertex left to add picks its covering option without a child
call.  Nothing heuristic prunes a feasible branch, so its results are safe
to use as the oracle for every theorem check.  DTD on C45 takes 149 nodes,
on P60 132, on H(6) 94, on H(8) 382 and on G(20) 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import FrozenSet, Iterable, Iterator, Optional

from .graph import (
    Graph,
    GraphInputError,
    _distance2_row,
    _from_mask,
    _members,
    _require_vertex,
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


def _uncovered_vertices(g: Graph, s: Iterable[int], kind: DominationKind) -> Iterator[int]:
    """The vertices of ``g`` that ``s`` fails to dominate in the sense of
    ``kind``, ascending.

    A vertex is covered by a member among its neighbors (its closed
    neighborhood for dom) or, for dtd, by two members at distance 2.  One
    pass over ``s`` builds its mask and the mask of the vertices it covers
    by adjacency; a distance-2 row is built only for a vertex left outside
    it.  A member outside ``0..n-1`` is a GraphInputError.
    """
    rows = g.bits
    n = g.n
    smask = adjcov = 0
    for v in s:
        if not 0 <= v < n:
            _require_vertex(g, v)
        smask |= 1 << v
        adjcov |= rows[v]
    if kind is DominationKind.DOMINATION:
        adjcov |= smask
    unc = ((1 << n) - 1) & ~adjcov
    disjunctive = kind is DominationKind.DISJUNCTIVE_TOTAL_DOMINATION
    for v in _members(n)[unc]:
        if disjunctive and (_distance2_row(rows, v) & smask).bit_count() >= 2:
            continue
        yield v


def _uncovered(g: Graph, s: Iterable[int], kind: DominationKind) -> FrozenSet[int]:
    """Every vertex of ``g`` that ``s`` fails to dominate in the sense of ``kind``."""
    return frozenset(_uncovered_vertices(g, s, kind))


def _dominates(g: Graph, s: Iterable[int], kind: DominationKind) -> bool:
    """No vertex is left uncovered; the scan stops at the first one that is."""
    return next(_uncovered_vertices(g, s, kind), None) is None


def is_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex outside ``s`` has a neighbor in ``s``."""
    return _dominates(g, s, DominationKind.DOMINATION)


def is_total_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex of ``g``, members of ``s`` included, has a neighbor in ``s``."""
    return _dominates(g, s, DominationKind.TOTAL_DOMINATION)


def dtd_uncovered(g: Graph, s: Iterable[int]) -> FrozenSet[int]:
    """Vertices violating the disjunctive total domination condition."""
    return _uncovered(g, s, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)


def is_dtd_set(g: Graph, s: Iterable[int]) -> bool:
    """Every vertex has a neighbor in ``s`` or two ``s``-members at distance 2."""
    return _dominates(g, s, DominationKind.DISJUNCTIVE_TOTAL_DOMINATION)


# -- exact solver --------------------------------------------------------------


def _weight_rows(nbr, d2) -> list:
    """Per vertex w, a row in three blocks of n bits: its neighbors and its
    distance-2 vertices, then its neighbors, then its distance-2 vertices.

    Against the mask of ``_ranked`` its popcount is w's doubled weight: 2 for
    each uncovered neighbor, 2 for each uncovered vertex at distance 2 that
    already has one distance-2 member, and 1 for each other uncovered vertex
    at distance 2.  That is exactly what w would give towards covering the
    uncovered vertices, and its first block alone is the set of uncovered
    vertices w gives to.  For dom and tdom the distance-2 rows are empty.
    """
    n = len(nbr)
    return [r | e | r << n | e << 2 * n for r, e in zip(nbr, d2)]


def _ranked(rows, unc, d2one, avail) -> list:
    """The vertices of ``avail``, heaviest first by the doubled weight of
    ``_weight_rows``, ties to the lower vertex.

    Each entry packs a weight and a vertex w into one integer, ``weight <<
    2b | low - w``, where ``b = n.bit_length()`` and ``low = (1 << b) - 1``,
    so one integer sort orders them.  The low parts of at most n entries sum
    below ``1 << 2b``, so the sum of any entries, shifted down by 2b, is the
    exact sum of their weights, for every n.
    """
    n = len(rows)
    b = n.bit_length()
    shift, low = 2 * b, (1 << b) - 1
    mask = unc | unc << n | (unc & d2one) << 2 * n
    ranked = [(rows[w] & mask).bit_count() << shift | low - w for w in _members(n)[avail]]
    ranked.sort(reverse=True)
    return ranked


def _cannot_cover(rows, unc, ranked, budget) -> bool:
    """True when no ``budget`` vertices of ``ranked`` (from ``_ranked``) can
    cover all of ``unc``.

    Each vertex a completion covers collects at least 2 from its members'
    doubled weights (see ``_weight_rows``): 2 from one neighbor, 2 from one
    more distance-2 member when it has one already, else 1 from each of the
    two it needs.  So a completion exists only if the ``budget`` largest
    weights reach ``2 * |unc|``.

    The second test charges each uncovered vertex v ``2 / W_v``, where
    ``W_v`` is the weight of the heaviest candidate that gives to v, by
    adjacency or at distance 2.  A completion S gives v ``c(w, v)`` from each
    member w, at least 2 in all, and w gives out exactly its weight
    ``W(w) <= W_v``, so ``|S| >= sum_w sum_v c(w, v) / W(w) >= sum_v 2 / W_v``.
    A vertex no candidate gives to has no completion at all.  The charge is
    summed as an exact fraction, so rounding cannot prune a completion.
    """
    b = len(rows).bit_length()
    shift, low = 2 * b, (1 << b) - 1
    if sum(ranked[:budget]) >> shift < 2 * unc.bit_count():
        return True
    # the candidates come heaviest first, so the first one that gives to a
    # vertex sets its W_v; num / den is the charge so far, and den is a
    # multiple of every weight seen
    left, num, den, last = unc, 0, 1, 0
    for p in ranked:
        got = rows[low - (p & low)] & left
        if got:
            weight = p >> shift
            if weight != last:
                num, den, last = num * weight, den * weight, weight
            num += 2 * got.bit_count() * den // weight
            left &= ~got
            if not left:
                return num > budget * den
    return True


def _dominated(nbr, d2, unc, d2one, free, near) -> int:
    """The candidates of ``near`` (a subset of ``free``) that one other free
    candidate can replace in every completion, as a mask.

    A candidate gives to an uncovered vertex u when it lies in ``nbr[u] |
    d2[u]``, and it covers u alone when it is in ``nbr[u]``, or in ``d2[u]``
    while u already has one distance-2 member (u in ``d2one``).  Candidate w
    is dominated when its need, the uncovered vertices it gives to, is
    nonempty and some other free x covers each of them alone: swapping x in
    for w keeps every completion a completion, no larger.  Only needs of at
    most two vertices are tested (``exact_number`` gives the measurement).
    The candidates are tested in vertex order and each ban leaves ``free``
    at once, so a dominator is always free when it is used and a chain of
    bans ends at a free vertex.
    """
    members = _members(len(nbr))
    bans = 0
    for w in members[near]:
        need = (nbr[w] | d2[w]) & unc
        if not need or need.bit_count() > 2:
            continue
        alone = free & ~(1 << w)
        for u in members[need]:
            alone &= nbr[u] | d2[u] if d2one >> u & 1 else nbr[u]
        if alone:
            bans |= 1 << w
            free &= ~(1 << w)
    return bans


def _total_rows(g: Graph, kind: DominationKind):
    """``g``'s rows as a total kind's neighbor rows: every vertex needs a
    neighbor in the set, so an isolated vertex is a DomainError."""
    for v, row in enumerate(g.bits):
        if not row:
            raise DomainError(f"vertex {v} is isolated; {kind.value} undefined")
    return g.bits


def _greedy_cover(nbr, d2) -> int:
    """The mask of a set built by adding the vertex that covers the most
    uncovered vertices until every vertex has a member among its rows
    ``nbr`` or two among its rows ``d2``.

    The rows are ``exact_number``'s, so with ``distance2_bits`` the result
    is a DTD-set, with all-zero ``d2`` rows a total dominating set, and with
    closed neighborhoods a dominating set.  No row of ``nbr`` may be empty.
    Ties go to the lowest vertex.
    """
    n = len(nbr)
    # a vertex's gain is one popcount of its neighbour row and its
    # distance-2 row side by side, against the uncovered vertices and those
    # of them that already have one distance-2 member; empty distance-2
    # rows leave the neighbour rows as they are
    rows = [r | e << n for r, e in zip(nbr, d2)] if any(d2) else nbr
    full = (1 << n) - 1
    members = _members(n)
    smask = adjcov = d2one = d2two = 0
    while True:
        unc = full & ~(adjcov | d2two)
        if not unc:
            return smask
        mask = unc | (unc & d2one) << n
        # an uncovered u has a row member outside S (else u is covered), and
        # that member's gain counts u, so the best gain is at least 1
        best_gain, best_v = -1, -1
        for w in members[full & ~smask]:
            gain = (rows[w] & mask).bit_count()
            if gain > best_gain:
                best_gain, best_v = gain, w
        smask |= 1 << best_v
        adjcov |= nbr[best_v]
        d2two |= d2[best_v] & d2one
        d2one |= d2[best_v]


def exact_number(g: Graph, kind: DominationKind) -> SolveResult:
    """Exact minimum cardinality with witness, by a search that descends
    from the greedy set.

    One search serves all three kinds.  A vertex is covered by one member
    among its rows ``nbr`` (closed neighborhoods for dom) or by two members
    among its distance-2 rows ``d2``, which are empty for dom and tdom.

    The ``_greedy_cover`` set is the first incumbent.  The search runs at
    budget k = |incumbent| - 1, keeps each set it finds and sets k one below
    its size, and stops at the first refuted k or below the least k that the
    root weights allow; the last set kept is then optimal.  So no level
    below the optimum minus one is ever searched.

    A node with at least three vertices left to add bans each free
    candidate w that one other free candidate x can replace
    (``_dominated``): x covers alone every uncovered vertex w gives to, so a
    completion with w stays a completion, no larger, with x in its place.
    The bans pass to the children, which partition the node's completions
    that avoid them, so by induction nothing is lost, as for the sibling
    bans below.  Dominance appears only where a need shrank or a cover grew,
    so a node tests only the free candidates in the balls of the vertices
    covered, or given a distance-2 member, since its last test.  That finds
    the same bans as a full scan at every node, which was 1.05 times slower
    on cycle-plus-chords graphs of 24-27 vertices (1.4 times for tdom).  Two
    constants keep the test cheap.  Only candidates with at most two needed
    vertices are tested: testing all of them cost DTD on those graphs 1.3
    times more per node for 4 % fewer nodes.  And the test needs a budget
    of 3: testing at every budget ran random connected G(n, p) with n 20-30
    1.3-1.4 times slower, and the claw-free classes through order 10 1.09
    times.

    The bans leave fewer options, so the forced pass that follows finds
    more: a vertex with one option left forces it.  A branch with at least
    two vertices left to add is cut when those ``budget`` vertices cannot
    cover the uncovered ones (``_cannot_cover``, which only cuts subtrees
    with no completion).  A node branches on the options of its uncovered
    vertex with the fewest (the first such vertex), heaviest first by the
    doubled weight of ``_weight_rows`` (ties to the lower vertex), and each
    later branch bans the earlier ones; one ``_ranked`` list per node serves
    both the bound and that order.  With one vertex left to add, the
    options that cover everything are exactly those of weight ``2 * |unc|``,
    which would be tried first, so the node returns the lowest of them, or
    fails, without a child call, and ``explored`` counts the children it
    would have called: 1 if one covers, else all.

    Nothing heuristic prunes a branch.  The cost grows exponentially with
    n: DTD on C45 takes 149 nodes, on P60 132, on H(6) 94, on H(8) 382 and
    on G(20) 1 (963, 7,424, 772, 6,924 and 58 when a node took or banned a
    hub vertex instead), and H(t) about doubles per step of t.  For the
    total variants every vertex must have a neighbor (DomainError
    otherwise); disconnected inputs are permitted and solved globally.
    """
    n = g.n
    if kind is DominationKind.DOMINATION:
        # a dominating set is a total dominating set over closed neighborhoods
        nbr = [row | 1 << v for v, row in enumerate(g.bits)]
    else:
        nbr = _total_rows(g, kind)
    if n == 0:
        return SolveResult(kind, 0, frozenset(), 0)
    d2 = distance2_bits(g) if kind is DominationKind.DISJUNCTIVE_TOTAL_DOMINATION else (0,) * n
    full = (1 << n) - 1
    rows = _weight_rows(nbr, d2)
    members = _members(n)
    # the vertex part of a _ranked entry
    low = (1 << n.bit_length()) - 1
    explored = 0

    def rec(
        smask: int, banned: int, budget: int, adjcov: int, d2one: int, d2two: int, changed: int
    ) -> Optional[int]:
        nonlocal explored
        explored += 1
        while True:
            unc = full & ~(adjcov | d2two)
            if not unc:
                return smask
            if budget == 0:
                return None
            free = full & ~(banned | smask)
            if changed and budget >= 3:
                # dominance can only appear in the balls of the vertices
                # covered, or given a distance-2 member, since the last test
                near = 0
                for u in members[changed]:
                    near |= rows[u]
                changed = 0
                ban = _dominated(nbr, d2, unc, d2one, free, near & free)
                banned |= ban
                free &= ~ban
            # one pass over the uncovered vertices: fail on one with no
            # option, collect the forced vertices, and note the first vertex
            # with the fewest options to branch on when nothing is forced
            forced = 0
            pick_opts, pick_cnt = 0, n + 1
            for v in members[unc]:
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
            smask |= forced
            for w in members[forced]:
                changed |= rows[w] & unc
                adjcov |= nbr[w]
                d2two |= d2[w] & d2one
                d2one |= d2[w]

        if budget == 1:
            # the children that cover every uncovered vertex are those of
            # weight 2 * |unc|, which sort first, lowest vertex first;
            # every other child fails at budget 0, so none is called, and
            # explored counts what the children would have
            for w in members[pick_opts]:
                if not unc & ~(nbr[w] | d2[w] & d2one):
                    explored += 1
                    return smask | 1 << w
            explored += pick_opts.bit_count()
            return None
        # one weight pass: the ranked candidates feed the coverage bound and
        # order the children, heaviest first
        ranked = _ranked(rows, unc, d2one, free)
        if _cannot_cover(rows, unc, ranked, budget):
            return None
        tried = 0
        for p in ranked:
            w = low - (p & low)
            if not pick_opts >> w & 1:
                continue
            dw = d2[w]
            hit = rec(
                smask | 1 << w, banned | tried, budget - 1,
                adjcov | nbr[w], d2one | dw, d2two | dw & d2one, rows[w] & unc,
            )
            if hit is not None:
                return hit
            tried |= 1 << w
            if tried == pick_opts:
                break
        return None

    # the least k whose k largest root weights reach 2n; at the root every
    # vertex is uncovered and none has a distance-2 member yet
    weights = sorted([(r & (full | full << n)).bit_count() for r in rows], reverse=True)
    lower = next(k for k, reach in enumerate(accumulate(weights), 1) if reach >= 2 * n)
    # descend from the greedy set: each hit sets the next budget one below
    # its size, and the first refutation proves the last set kept optimal
    best = _greedy_cover(nbr, d2)
    try:
        k = best.bit_count() - 1
        while k >= lower:
            hit = rec(0, 0, k, 0, 0, 0, full)
            if hit is None:
                break
            best = hit
            k = hit.bit_count() - 1
    finally:
        # rec reaches itself through its closure; dropping it frees the
        # search's state on return rather than at the next cyclic collection
        del rec
    return SolveResult(kind, best.bit_count(), bits_to_vertices(best), explored)


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
    _require_vertex(g, v)
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
