"""Exhaustive small-order enumeration: one representative per isomorphism class.

Connected graphs (and connected claw-free graphs) are generated by vertex
augmentation: every connected graph on n vertices arises from a connected
graph on n-1 vertices by attaching a new vertex to a nonempty neighborhood,
and both connectivity and claw-freeness survive deleting a non-cutvertex.
A canonical-deletion rule makes the generation isomorphism-exact without a
global seen-set: a candidate is kept only when the new vertex is the
designated deletion point of the child, decided over non-cut vertices by the
invariant chain (degree, sorted neighbor degrees, rooted BFS profile,
rooted refinement profile, anchored first leaf; full certificates only when
first leaves differ).  Twins, vertices with equal open or equal closed
neighbourhoods, are swapped by an automorphism and so tie on every link:
a twin of the new vertex is never compared, and of the other tied vertices
only the first of each twin class is.  Duplicates can then only come from
automorphic neighborhoods of the same parent, and one mask per orbit of
the parent's full automorphism group removes them all: acceptance is
constant on an orbit, and two accepted masks in different orbits give
non-isomorphic children.  There is no second dedup step.

Trees come from the classic level-sequence successor algorithm over
centroid-rooted layouts, linear work per tree.

The paper's three universes are named by one flag and one function: the
``clawfree`` flag of :func:`walk_levels`, :func:`level_rows` and
:func:`accepted_children` picks connected or connected claw-free graphs,
and :func:`free_trees` yields the trees.  Graph6 corpora are not read
here: :mod:`dtdom.verify`, their only reader, filters and dedups them.

Because parents are independent units of work, :func:`walk_levels` shards
each level by parent and runs a per-class check next to each expansion.
It maps every level with the ``run`` its caller gives it: ``map`` by
default, or the ``run`` of a :func:`_mapper` block, the package's one
parallel path, which a command opens once so that its walk and any flat
map it makes share one pool.  The walk is the only code that expands
levels: the unchecked levels it builds on the way to its first checked one
go into a cache bounded by order (:data:`LEVEL_CACHE_MAX`), so a later walk
starts from them, and :func:`level_rows` reads the same cache.
A level, cached or held as the next order's parents, is one packed array of
n-bit rows behind a read-only sequence of row tuples (:class:`_Level`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .canon import _refine, _search, anchored_profile, certificate
from .graph import Graph, GraphInputError, _component_masks, _members, _relabeled_rows

ALL_CONNECTED_MAX = 8
CLAW_FREE_MAX = 12  # the exhaustive walk's bound; accepted_children has none
TREES_MAX = 16


# -- neighborhood masks of the new vertex ---------------------------------------


_BIG = 1 << 20


def _candidate_masks(
    rows: Sequence[int],
    pdeg: Sequence[int],
    noncut: int,
    claw_pairs,
    members,
) -> List[int]:
    """Nonempty new-vertex neighborhoods that can possibly be accepted.

    Degree pruning: a parent non-cutvertex u outside the mask keeps degree
    deg(u) in the child and stays non-cut, and one inside a mask of size >= 2
    keeps degree deg(u)+1 and stays non-cut; either bounds the mask size,
    because the new vertex (degree = mask size) must minimize degree over
    non-cut vertices to be the canonical deletion point.

    Claw pruning (when ``claw_pairs`` is given, see :func:`_claw_pairs`): the
    new vertex centers a claw exactly when the mask holds an independent
    triple (monotone), and a mask vertex w centers one exactly when some
    non-adjacent pair inside N(w) misses the mask; those pairs are carried
    as open obligations, one bit each, and a branch dies once an obligation
    can no longer be hit.  The degree caps bound every mask below a node, so
    a node whose open pairs leave room for just one more vertex lives only if
    an end of its lowest open pair closes them all at once.
    """
    n = len(rows)
    ncdeg = [pdeg[v] if noncut >> v & 1 else _BIG for v in range(n)]
    # minimum non-cut parent degree over the suffix [v, n)
    suffix = [_BIG] * (n + 1)
    for v in range(n - 1, -1, -1):
        d = ncdeg[v]
        suffix[v] = d if d < suffix[v + 1] else suffix[v + 1]
    out: List[int] = []
    # node: next vertex, mask, size, min degree over swallowed non-cuts,
    #       min degree over skipped non-cuts, open pairs, pairs the mask hits
    stack = [(0, 0, 0, _BIG, _BIG, 0, 0)]
    clawfree = claw_pairs is not None
    if clawfree:
        inside, hits, below, ends = claw_pairs
        apart = [~(row | 1 << v) for v, row in enumerate(rows)]  # outside N[v]
    while stack:
        start, mask, msize, min_in, min_out, pairs, hit = stack.pop()
        if pairs:
            # the open pair with the lowest higher end t is hit by t or never
            end = ends[(pairs & -pairs).bit_length() - 1].bit_length()
        else:
            end = n
            if mask and msize <= (min_out if min_out < suffix[start] else suffix[start]):
                out.append(mask)
        cur_out = min_out
        s = msize + 1
        for v in range(start, end):
            if s > cur_out:
                break  # every further candidate skips the same cheap vertex
            d = ncdeg[v]
            nmin_in = d if d < min_in else min_in
            if s > nmin_in + 1:
                pass  # swallowed non-cutvertex would beat the new vertex
            elif not clawfree:
                stack.append((v + 1, mask | 1 << v, s, nmin_in, cur_out, 0, 0))
            else:
                # mask stays triple-free iff v's non-neighbors in it form a clique
                nn = mask & ~rows[v]
                for u in members[nn]:
                    if nn & apart[u]:
                        break
                else:
                    nhit = hit | hits[v]
                    npairs = (pairs | inside[v]) & ~nhit
                    # none of v's new pairs is dead, and an open pair leaves
                    # room for one more vertex under both degree caps; with
                    # room for just one, that one must close every open pair
                    live = not npairs & below[v]
                    if live and npairs:
                        if s >= cur_out or s > nmin_in:
                            live = False
                        elif s + 1 >= cur_out or s >= nmin_in:
                            live = _one_closes_all(v, npairs, nhit, claw_pairs, members)
                    if live:
                        stack.append((v + 1, mask | 1 << v, s, nmin_in, cur_out, npairs, nhit))
            if d < cur_out:
                cur_out = d
    return out


def _one_closes_all(v: int, pairs: int, hit: int, claw_pairs, members) -> bool:
    """Whether one vertex after v closes every open pair in ``pairs`` and
    opens none, with ``hit`` the pairs its mask already hits.  That vertex
    hits the lowest open pair, so it is one of that pair's ends."""
    inside, hits, _, ends = claw_pairs
    for w in members[ends[(pairs & -pairs).bit_length() - 1]]:
        if w > v and not (pairs | inside[w]) & ~(hit | hits[w]):
            return True
    return False


def _claw_pairs(rows: Sequence[int], members):
    """Bit-indexed non-adjacent pairs, for :func:`_candidate_masks`.

    Each non-adjacent pair gets one bit, in order of its higher endpoint.
    Per vertex v: the pairs inside N(v), the pairs with v as an endpoint,
    and the pairs whose higher endpoint is at most v; per bit, the pair's
    two endpoints as a mask.
    """
    n = len(rows)
    inside = [0] * n
    hits = [0] * n
    below = [0] * n
    ends = []
    bit = 1
    for b in range(n):
        rb = rows[b]
        for a in range(b):
            if not rb >> a & 1:
                hits[a] |= bit
                hits[b] |= bit
                for u in members[rows[a] & rb]:
                    inside[u] |= bit
                bit <<= 1
                ends.append(1 << a | 1 << b)
        below[b] = bit - 1
    return inside, hits, below, ends


# -- canonical-deletion acceptance ----------------------------------------------


def _neighbor_degrees(rows: Sequence[int], degs: Sequence[int], u: int, members) -> List[int]:
    out = [degs[w] for w in members[rows[u]]]
    out.sort()
    return out


def _bfs_signature(rows: Sequence[int], degs: Sequence[int], src: int, members) -> Tuple:
    """Rooted BFS invariant: per level, the sorted multiset of
    (degree, neighbors on this level, neighbors one level back)."""
    seen = 1 << src
    frontier = seen
    prev = 0
    sig = []
    while frontier:
        level = []
        reach = 0
        for b in members[frontier]:
            r = rows[b]
            level.append((degs[b], (r & frontier).bit_count(), (r & prev).bit_count()))
            reach |= r
        level.sort()
        sig.append(tuple(level))
        prev = frontier
        frontier = reach & ~seen
        seen |= frontier
    return tuple(sig)


def _deletion_check(parent, pdeg, comps, mask, msize, members) -> bool:
    """Is the new vertex the canonical deletion point of parent+mask?

    The new vertex (index n) is never a cutvertex; an old vertex u stays
    non-cut exactly when every component of parent-u is hit by mask-u (the
    new vertex then re-links them), or parent-u is empty and u is off-mask
    alone.  Candidates are compared on the invariant chain (degree, sorted
    neighbor degrees, rooted BFS profile, rooted refinement profile,
    anchored certificate); the new vertex must be least.  Twins tie on every
    link, so a twin of the new vertex (false: ``parent[u] == mask``; true:
    ``parent[u] | 1 << u == mask``) is dropped from the ties, and of each
    other twin class only the first vertex is kept.  The last link
    starts from the anchored search's first leaf (:func:`canon.anchored_profile`):
    a vertex whose first leaf equals the new vertex's is automorphic to it
    and cannot win, a discrete refinement's leaf is the certificate itself,
    and full anchored certificates are searched only for ties whose first
    leaves differ.  Every link is an invariant of the vertex-rooted child,
    so the answer is the same for every mask in one orbit of the parent's
    automorphisms.  The parent must be degree-ascending, as
    :func:`_candidates` leaves it, and ``members`` the child's members
    table (:func:`graph._members` of its order).
    """
    n = len(parent)

    def noncut(u: int) -> bool:
        mrem = mask & ~(1 << u)
        if not mrem:
            return not comps[u]
        for c in comps[u]:
            if not c & mrem:
                return False
        return True

    # the parent is degree-ascending, so each parent-degree bound is a bit
    # prefix; a vertex's child degree is one more on the mask
    lt1 = (1 << bisect_left(pdeg, msize - 1)) - 1
    lt = (1 << bisect_left(pdeg, msize)) - 1
    le = (1 << bisect_right(pdeg, msize)) - 1
    for u in members[(lt & ~mask) | (lt1 & mask)]:
        if noncut(u):
            return False  # a smaller-degree non-cutvertex wins
    # Twins (equal open or closed neighbourhoods) are swapped by a child
    # automorphism, so only the first tie of each twin class is compared,
    # and none of the new vertex's class: u with parent[u] == mask is its
    # false twin, u with parent[u] | 1 << u == mask its true twin.  Old
    # vertices are twins in the child exactly when they are twins in the
    # parent and both in the mask or both out, and parent twins among the
    # ties, with equal degree in parent and child, are always the latter.
    seen = {mask}
    ties = []
    for u in members[(le & ~lt & ~mask) | (lt & ~lt1 & mask)]:
        r = parent[u]
        rc = r | 1 << u
        if r not in seen and rc not in seen and noncut(u):
            ties.append(u)
        seen.add(r)
        seen.add(rc)
    if not ties:
        return True

    vbit = 1 << n
    child = list(parent)
    child.append(mask)
    degs = list(pdeg)
    degs.append(msize)
    for u in members[mask]:
        child[u] |= vbit
        degs[u] += 1
    key_new = _neighbor_degrees(child, degs, n, members)
    final = []
    for u in ties:
        key_u = _neighbor_degrees(child, degs, u, members)
        if key_u < key_new:
            return False
        if key_u == key_new:
            final.append(u)
    if not final:
        return True
    sig_new = _bfs_signature(child, degs, n, members)
    last = []
    for u in final:
        sig_u = _bfs_signature(child, degs, u, members)
        if sig_u < sig_new:
            return False
        if sig_u == sig_new:
            last.append(u)
    if not last:
        return True
    inv_new, leaf_new = anchored_profile(n + 1, child, n)
    discrete = len(inv_new) == n + 1  # then every leaf is a certificate
    differ = []
    for u in last:
        inv_u, leaf_u = anchored_profile(n + 1, child, u)
        if inv_u < inv_new:
            return False
        # equal leaves make u automorphic to the new vertex: no rejection
        if inv_u == inv_new and leaf_u != leaf_new:
            if not discrete:
                differ.append(u)
            elif leaf_u < leaf_new:
                return False
    if differ:
        cert_new = certificate(n + 1, child, anchor=n)
        for u in differ:
            if certificate(n + 1, child, anchor=u) < cert_new:
                return False
    return True


def _twin_class(rows: Sequence[int], cell: int, members) -> bool:
    """Whether the vertices of a cell of an equitable partition are pairwise
    twins.  Each has as many neighbours inside the cell, so they are twins
    exactly when they share their neighbours outside it and the cell is
    independent or a clique."""
    vs = members[cell]
    inner = (rows[vs[0]] & cell).bit_count()
    if inner and inner != len(vs) - 1:
        return False
    out = rows[vs[0]] & ~cell
    return all(rows[v] & ~cell == out for v in vs)


def _orbit_representative_masks(n: int, parent, masks: List[int]) -> List[int]:
    """Keep the first mask of each orbit of the parent's automorphism group.

    The canonical search's generators (:func:`canon.automorphism_generators`)
    generate the full group, so the orbits are exact, and no two kept masks
    that pass the deletion check give isomorphic children.  Automorphisms
    preserve the cells of the parent's equitable partition, so masks in one
    orbit meet each cell in as many vertices; when no two masks do, every
    mask is kept unsearched.  When every cell of two or more vertices is a
    class of twins, the group is exactly the product of the symmetric groups
    on those cells, so masks meeting each cell alike form one orbit, and the
    first of each is kept unsearched too.  Otherwise the search starts from
    the cells, which are its own root partition, rather than refining them
    again.
    """
    members = _members(n)
    cells = _refine(n, parent, [(1 << n) - 1], None)
    singles = sum(c for c in cells if not c & (c - 1))
    wide = [c for c in cells if c & (c - 1)]
    first = {}
    for m in masks:
        first.setdefault((m & singles, tuple([(m & c).bit_count() for c in wide])), m)
    if len(first) == len(masks):
        return masks
    if all(_twin_class(parent, c, members) for c in wide):
        return list(first.values())
    gens = _search(n, parent, None, cells)[2]
    if not gens:
        return masks
    # each generator as (its moved points, bit images); fixed bits map to themselves
    tables = []
    for s in gens:
        moved = sum(1 << u for u in range(n) if s[u] != u)
        tables.append((moved, [1 << s[u] for u in range(n)]))
    seen = set()
    kept = []
    for mask in masks:
        if mask in seen:
            continue
        kept.append(mask)
        orbit = {mask}
        frontier = [mask]
        while frontier:
            m = frontier.pop()
            for moved, table in tables:
                im = m & ~moved
                for u in members[m & moved]:
                    im |= table[u]
                if im not in orbit:
                    orbit.add(im)
                    frontier.append(im)
        seen |= orbit
    return kept


def _candidates(parent: Tuple[int, ...], clawfree: bool):
    """One parent's set-up: its degree-ascending relabeling, degrees, the
    components of parent-u for every u, and the candidate masks in walk
    order, before orbit merging."""
    n = len(parent)
    pdeg = [r.bit_count() for r in parent]
    if any(pdeg[u] > pdeg[u + 1] for u in range(n - 1)):
        # degree-ascending labels let the walk's size caps bite immediately
        parent = _relabeled_rows(n, parent, sorted(range(n), key=pdeg.__getitem__))
        pdeg = [r.bit_count() for r in parent]
    full = (1 << n) - 1
    comps = [_component_masks(parent, full & ~(1 << u)) for u in range(n)]
    noncut = 0
    for u in range(n):
        if len(comps[u]) <= 1:
            noncut |= 1 << u
    members = _members(n)
    claw_pairs = _claw_pairs(parent, members) if clawfree else None
    masks = _candidate_masks(parent, pdeg, noncut, claw_pairs, members)
    return parent, pdeg, comps, masks


def accepted_children(parent: Tuple[int, ...], clawfree: bool) -> List[Tuple[int, ...]]:
    """Children of one parent, pairwise non-isomorphic across the whole level.

    The canonical-deletion rule leaves only duplicates caused by automorphic
    neighborhoods of this same parent, so the candidate masks are cut to one
    per orbit of the parent's automorphism group, and each mask that passes
    the deletion check yields one child.  The parent may have any order:
    each per-parent step picks the members table of its width once
    (:func:`graph._members`) and hands it to its per-mask loops.
    """
    parent, pdeg, comps, masks = _candidates(parent, clawfree)
    n = len(parent)
    members = _members(n + 1)  # the child's rows have n + 1 bits
    vbit = 1 << n
    if len(masks) >= 2:
        masks = _orbit_representative_masks(n, parent, masks)
    out = []
    for mask in masks:
        if _deletion_check(parent, pdeg, comps, mask, mask.bit_count(), members):
            child = list(parent)
            for u in members[mask]:
                child[u] |= vbit
            child.append(mask)
            out.append(tuple(child))
    return out


# -- the walk and its pool --------------------------------------------------------

# Most work items per task a pool map sends.  The coordinating process holds
# a few tasks' results at a time (those waiting for an earlier one), so this
# bounds that memory on large levels: a two-job walk to claw-free order 11,
# on one pool, peaks at 21.8 MB in that process, against 36.8 MB with a
# thirty-second of the level per task.  At 64 items per task it already
# spends about half the CPU it spends at 16.
_CHUNK_MAX = 64
# Deepest order whose unchecked level is kept.  Packed, claw-free levels
# 1..10 hold 32,028 classes in about 0.7 MB; claw-free order 11 alone has
# 184,749.
LEVEL_CACHE_MAX = 10


def _row_type(n: int) -> str:
    """The narrowest array typecode whose items hold an n-bit row."""
    return next(t for t in "BHIQ" if 8 * array(t).itemsize >= n)


class _Level(SequenceABC):
    """All classes of one order as a read-only sequence of row tuples.

    The rows of every class are packed end to end in one array of n-bit
    words, 20 bytes per order-10 class against about 370 for a tuple of
    fresh ints.  Indexing and iteration build the same tuples a list of them
    would hold, and a slice is a list of them.  The tuples share the
    level's one int object per row value (2**n of them), so a level made a
    list again (``list(level)``, or ``random.sample``, which copies its
    population) costs the tuples alone: 3.4 MB at claw-free order 10, not
    9.9 MB.
    """

    __slots__ = ("n", "data", "_ints")

    def __init__(self, n: int, data: array):
        self.n = n
        self.data = data
        self._ints = list(range(1 << n))

    def __len__(self) -> int:
        return len(self.data) // self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        k = len(self)
        if not -k <= i < k:
            raise IndexError("level index out of range")
        i %= k
        return tuple(map(self._ints.__getitem__, self.data[i * self.n:(i + 1) * self.n]))

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return zip(*[map(self._ints.__getitem__, self.data)] * self.n)


_ORDER_ONE = _Level(1, array(_row_type(1), [0]))
_LEVELS: Dict[Tuple[int, bool], _Level] = {}  # (order, clawfree) -> rows


@contextmanager
def _mapper(jobs: int) -> Iterator[Callable[[Callable, Sequence], Iterator]]:
    """A ``run(work, items)`` that maps ``work`` over ``items`` in input order.

    With ``jobs <= 1`` it is ``map`` in this process.  Otherwise one fork
    pool of ``jobs`` workers serves every call made inside the block, a
    walk's levels (:func:`walk_levels`) and flat lists alike, and ends with
    the block, also when it exits on an error.  This is the package's only
    pool, so ``work`` must pickle (a module-level function, or a ``partial``
    of one), and so must the items and results.  Each call's items go out in
    about 16 chunks per worker, enough to keep the workers balanced, but in
    chunks of at most ``_CHUNK_MAX`` items.
    """
    if jobs <= 1:
        yield map
        return
    from multiprocessing import get_context  # only a pool pays for the import

    with get_context("fork").Pool(jobs) as pool:

        def run(work: Callable, items: Sequence) -> Iterator:
            chunk = min(-(-len(items) // (16 * jobs)), _CHUNK_MAX)
            return pool.imap(work, items, max(chunk, 1))

        yield run


def _expand(parent: Tuple[int, ...], clawfree: bool, check: Optional[Callable]):
    """One parent's children, each paired with ``check`` of its graph
    (with None when there is no check)."""
    children = accepted_children(parent, clawfree)
    if check is None:
        return [(rows, None) for rows in children]
    n = len(parent) + 1
    return [(rows, check(Graph.from_bits(n, rows))) for rows in children]


def walk_levels(
    lo: int, hi: int, clawfree: bool, check: Optional[Callable[[Graph], object]],
    run: Callable[[Callable, Sequence], Iterator] = map,
) -> Iterator[Tuple[Graph, object]]:
    """Yield ``(graph, check(graph))`` for every class of order ``lo..hi``
    (``(graph, None)`` when ``check`` is None).

    Each level is one ``run(work, parents)``: each work item expands one
    order-(n-1) parent with :func:`accepted_children` and runs ``check`` on
    its children next to that expansion, since canonical augmentation makes
    parents independent.  ``run`` is ``map`` or the ``run`` of a
    :func:`_mapper` block that the caller holds open around the walk.
    Workers send back bitmask rows, which pickle cheaper than graphs, and
    this process wraps each in a :class:`Graph`.  Classes come out in the
    same order whatever maps them.
    The walk starts from the deepest cached level below ``lo``, and each
    level below ``lo`` that it expands (unchecked) is cached up to order
    :data:`LEVEL_CACHE_MAX`.
    Checked levels are never cached: only the current one stays in this
    process, packed, as the next level's parents.
    """
    limit = CLAW_FREE_MAX if clawfree else ALL_CONNECTED_MAX
    if not 1 <= lo <= hi <= limit:
        raise GraphInputError(f"builtin enumeration supports 1 <= n <= {limit}")
    start = max((n for n in range(2, lo) if (n, clawfree) in _LEVELS), default=1)
    level = _LEVELS.get((start, clawfree), _ORDER_ONE)
    if lo == 1:
        g = Graph.from_bits(1, level[0])
        yield g, None if check is None else check(g)
    for n in range(start + 1, hi + 1):
        work = partial(_expand, clawfree=clawfree, check=check if n >= lo else None)
        data = array(_row_type(n))
        for children in run(work, level):
            for rows, value in children:
                if n < hi:
                    data.extend(rows)
                if n >= lo:
                    yield Graph.from_bits(n, rows), value
        level = _Level(n, data)
        if n < lo and n <= LEVEL_CACHE_MAX:
            _LEVELS[n, clawfree] = level


def level_rows(n: int, clawfree: bool) -> Sequence[Tuple[int, ...]]:
    """All classes at order n as canonical bitmask rows, in
    :func:`walk_levels` order (cached up to order :data:`LEVEL_CACHE_MAX`).

    The result is a read-only sequence: it indexes, slices (to a list),
    iterates and samples like a list of row tuples, but holds them packed."""
    rows = _LEVELS.get((n, clawfree))
    if rows is None:
        data = array(_row_type(n))
        for g, _ in walk_levels(n, n, clawfree, None):
            data.extend(g.bits)
        rows = _Level(n, data)
        if n <= LEVEL_CACHE_MAX:
            _LEVELS[n, clawfree] = rows
    return rows


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs of order n up to isomorphism (n <= 8 builtin)."""
    for g, _ in walk_levels(n, n, False, None):
        yield g


def connected_clawfree_graphs(n: int) -> Iterator[Graph]:
    """All connected claw-free graphs of order n up to isomorphism (n <= 12)."""
    for g, _ in walk_levels(n, n, True, None):
        yield g


# -- free trees ------------------------------------------------------------------
# Level-sequence successor generation of centroid-rooted layouts; each valid
# layout is one free tree, so no dedup pass is needed.


def _layout_successor(layout: List[int], p: Optional[int] = None) -> Optional[List[int]]:
    if p is None:
        p = len(layout) - 1
        while layout[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while layout[q] != layout[p] - 1:
        q -= 1
    out = list(layout)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split_layout(layout: List[int]):
    """Left subtree of the root, and the layout with that subtree removed."""
    m = None
    seen_one = False
    for i, lvl in enumerate(layout):
        if lvl == 1:
            if seen_one:
                m = i
                break
            seen_one = True
    if m is None:
        m = len(layout)
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + layout[m:]
    return left, rest


def _free_tree_step(candidate: List[int]) -> Optional[List[int]]:
    """Return ``candidate`` when it encodes a free tree, else jump past it."""
    left, rest = _split_layout(candidate)
    left_h, rest_h = max(left), max(rest)
    valid = rest_h >= left_h
    if valid and rest_h == left_h:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    succ = _layout_successor(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_layout(succ)
        suffix = list(range(1, max(new_left) + 2))
        succ[-len(suffix):] = suffix
    return succ


def _layout_edges(layout: Sequence[int]) -> List[Tuple[int, int]]:
    edges = []
    stack: List[int] = []
    for i, lvl in enumerate(layout):
        while stack and layout[stack[-1]] >= lvl:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return edges


def free_trees(n: int) -> Iterator[Graph]:
    """All trees of order n up to isomorphism (n <= 16 builtin)."""
    if not 1 <= n <= TREES_MAX:
        raise GraphInputError(f"builtin tree enumeration supports 1 <= n <= {TREES_MAX}")
    if n == 1:
        yield Graph(1)
        return
    layout: Optional[List[int]] = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while layout is not None:
        layout = _free_tree_step(layout)
        if layout is None:
            break
        yield Graph(n, _layout_edges(layout))
        layout = _layout_successor(layout)
