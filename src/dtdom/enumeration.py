"""Exhaustive small-order enumeration: one representative per isomorphism class.

Connected graphs (and connected claw-free graphs) are generated by vertex
augmentation: every connected graph on n vertices arises from a connected
graph on n-1 vertices by attaching a new vertex to a nonempty neighborhood,
and both connectivity and claw-freeness survive deleting a non-cutvertex.
A canonical-deletion rule makes the generation isomorphism-exact without a
global seen-set: a candidate is kept only when the new vertex is the
designated deletion point of the child, decided over non-cutvertices by the
invariant chain (degree, sorted neighbor degrees, rooted BFS profile,
rooted refinement profile, anchored certificate).  Duplicates can then only
come from automorphic neighborhoods of the same parent, and one mask per
orbit of the parent's full automorphism group removes them all: acceptance
is constant on an orbit, and two accepted masks in different orbits give
non-isomorphic children.  There is no second dedup step.

Trees come from the classic level-sequence successor algorithm over
centroid-rooted layouts, linear work per tree.

Because parents are independent units of work, :func:`walk_levels` shards
each level by parent over :func:`sweep`, the package's one parallel path,
and runs a per-class check next to each expansion.  It is the only code
that expands levels: the unchecked levels it builds on the way to its first
checked one go into a cache bounded by order (:data:`LEVEL_CACHE_MAX`), so
a later walk starts from them, and :func:`level_rows` reads the same cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from multiprocessing import get_context
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .canon import (
    _relabeled_rows,
    anchored_profile,
    automorphism_generators,
    certificate,
)
from .graph import Graph, GraphInputError, _component_masks
from .graphio import iter_graph6_file

ALL_CONNECTED_MAX = 8
CLAW_FREE_MAX = 12
TREES_MAX = 16


class GraphClass(Enum):
    ALL_CONNECTED = "all"
    CONNECTED_CLAW_FREE = "clawfree"
    TREES = "trees"


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: order, class, and builtin generation or a corpus."""

    n: int
    klass: GraphClass = GraphClass.ALL_CONNECTED
    source: Optional[str] = None  # path of a graph6 file instead of builtin


# -- neighborhood masks of the new vertex ---------------------------------------


_BIG = 1 << 20


def _candidate_masks(
    rows: Sequence[int],
    pdeg: Sequence[int],
    noncut: int,
    nonadj_pairs,
) -> List[int]:
    """Nonempty new-vertex neighborhoods that can possibly be accepted.

    Degree pruning: a parent non-cutvertex u outside the mask keeps degree
    deg(u) in the child and stays non-cut, and one inside a mask of size >= 2
    keeps degree deg(u)+1 and stays non-cut; either bounds the mask size,
    because the new vertex (degree = mask size) must minimize degree over
    non-cutvertices to be the canonical deletion point.

    Claw pruning (when ``nonadj_pairs`` is given): the new vertex centers a
    claw exactly when the mask holds an independent triple (monotone), and a
    mask vertex w centers one exactly when some non-adjacent pair inside
    N(w) misses the mask; those pairs are carried as open obligations and a
    branch dies once an obligation can no longer be hit.
    """
    n = len(rows)
    # minimum non-cut parent degree over the suffix [v, n)
    suffix = [_BIG] * (n + 1)
    for v in range(n - 1, -1, -1):
        d = pdeg[v] if noncut >> v & 1 else _BIG
        suffix[v] = d if d < suffix[v + 1] else suffix[v + 1]
    out: List[int] = []
    # node: next vertex, mask, size, min degree over swallowed non-cuts,
    #       min degree over skipped non-cuts, open pairs
    stack = [(0, 0, 0, _BIG, _BIG, ())]
    clawfree = nonadj_pairs is not None
    while stack:
        start, mask, msize, min_in, min_out, pairs = stack.pop()
        if mask and not pairs and msize <= (
            min_out if min_out < suffix[start] else suffix[start]
        ):
            out.append(mask)
        cur_out = min_out
        s = msize + 1
        for v in range(start, n):
            if s > cur_out:
                break  # every further candidate skips the same cheap vertex
            vnoncut = noncut >> v & 1
            nmin_in = min_in
            if vnoncut and pdeg[v] < nmin_in:
                nmin_in = pdeg[v]
            if s >= 2 and s > nmin_in + 1:
                pass  # swallowed non-cutvertex would beat the new vertex
            else:
                row = rows[v]
                dead = False
                if clawfree:
                    # mask stays triple-free iff v's non-neighbors in it
                    # form a clique
                    nn = mask & ~row
                    while nn:
                        low = nn & -nn
                        nn ^= low
                        if nn & ~rows[low.bit_length() - 1]:
                            dead = True
                            break
                if not dead:
                    vb = 1 << v
                    nm = mask | vb
                    limit = vb << 1  # pairs entirely below v+1 die unhit
                    live = []
                    for pm in pairs:
                        if pm & nm:
                            continue
                        if pm < limit:
                            dead = True
                            break
                        live.append(pm)
                    if not dead and clawfree:
                        for pm in nonadj_pairs[v]:
                            if pm & nm:
                                continue
                            if pm < limit:
                                dead = True
                                break
                            live.append(pm)
                    if not dead:
                        stack.append((v + 1, nm, s, nmin_in, cur_out, tuple(live)))
            if vnoncut and pdeg[v] < cur_out:
                cur_out = pdeg[v]
    return out


def _nonadj_pairs(rows: Sequence[int]) -> List[List[int]]:
    """Per vertex: two-bit masks of the non-adjacent pairs in its neighborhood."""
    out = []
    for w in range(len(rows)):
        nb = []
        r = rows[w]
        while r:
            low = r & -r
            nb.append(low.bit_length() - 1)
            r ^= low
        lst = []
        for i in range(len(nb) - 1):
            a = nb[i]
            for j in range(i + 1, len(nb)):
                b = nb[j]
                if not rows[a] >> b & 1:
                    lst.append((1 << a) | (1 << b))
        out.append(lst)
    return out


# -- canonical-deletion acceptance ----------------------------------------------


def _neighbor_degrees(rows: Sequence[int], degs: Sequence[int], u: int) -> List[int]:
    out = []
    r = rows[u]
    while r:
        low = r & -r
        out.append(degs[low.bit_length() - 1])
        r ^= low
    out.sort()
    return out


def _bfs_signature(rows: Sequence[int], degs: Sequence[int], src: int) -> Tuple:
    """Rooted BFS invariant: per level, the sorted multiset of
    (degree, neighbors on this level, neighbors one level back)."""
    seen = 1 << src
    frontier = seen
    prev = 0
    sig = []
    while frontier:
        level = []
        reach = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            b = low.bit_length() - 1
            r = rows[b]
            level.append((degs[b], (r & frontier).bit_count(), (r & prev).bit_count()))
            reach |= r
        level.sort()
        sig.append(tuple(level))
        prev = frontier
        frontier = reach & ~seen
        seen |= frontier
    return tuple(sig)


def _deletion_check(parent, pdeg, comps, mask, msize) -> bool:
    """Is the new vertex the canonical deletion point of parent+mask?

    The new vertex (index n) is never a cutvertex; an old vertex u stays
    non-cut exactly when every component of parent-u is hit by mask-u (the
    new vertex then re-links them), or parent-u is empty and u is off-mask
    alone.  Candidates are compared on the invariant chain (degree, sorted
    neighbor degrees, rooted BFS profile, rooted refinement profile,
    anchored certificate); full certificates arbitrate only final ties.
    Every link is an invariant of the vertex-rooted child, so the answer is
    the same for every mask in one orbit of the parent's automorphisms.
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

    ties = []
    for u in range(n):
        du = pdeg[u] + (mask >> u & 1)
        if du < msize and noncut(u):
            return False  # a smaller-degree non-cutvertex wins
        if du == msize and noncut(u):
            ties.append(u)
    if not ties:
        return True

    vbit = 1 << n
    child = [parent[u] | vbit if mask >> u & 1 else parent[u] for u in range(n)]
    child.append(mask)
    degs = [pdeg[u] + (mask >> u & 1) for u in range(n)]
    degs.append(msize)
    key_new = _neighbor_degrees(child, degs, n)
    final = []
    for u in ties:
        key_u = _neighbor_degrees(child, degs, u)
        if key_u < key_new:
            return False
        if key_u == key_new:
            final.append(u)
    if not final:
        return True
    sig_new = _bfs_signature(child, degs, n)
    last = []
    for u in final:
        sig_u = _bfs_signature(child, degs, u)
        if sig_u < sig_new:
            return False
        if sig_u == sig_new:
            last.append(u)
    if not last:
        return True
    inv_new, cert_new = anchored_profile(n + 1, child, n)
    remaining = []
    for u in last:
        inv_u, cert_u = anchored_profile(n + 1, child, u)
        if inv_u < inv_new:
            return False
        if inv_u == inv_new:
            if cert_new is not None:
                # equal profiles imply equal discreteness, so cert_u is set
                if cert_u < cert_new:
                    return False
            else:
                remaining.append(u)
    if cert_new is None and remaining:
        cert_new = certificate(n + 1, child, anchor=n)
        for u in remaining:
            if certificate(n + 1, child, anchor=u) < cert_new:
                return False
    return True


def _orbit_representative_masks(n: int, parent, masks: List[int]) -> List[int]:
    """Keep the first mask of each orbit of the parent's automorphism group.

    :func:`canon.automorphism_generators` generates the full group, so the
    orbits are exact, and no two kept masks that pass the deletion check
    give isomorphic children.
    """
    gens = automorphism_generators(n, parent)
    if not gens:
        return masks
    tables = [[1 << s[u] for u in range(n)] for s in gens]
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
            for table in tables:
                im = 0
                mm = m
                while mm:
                    low = mm & -mm
                    mm ^= low
                    im |= table[low.bit_length() - 1]
                if im not in orbit:
                    orbit.add(im)
                    frontier.append(im)
        seen |= orbit
    return kept


def accepted_children(parent: Tuple[int, ...], clawfree: bool) -> List[Tuple[int, ...]]:
    """Children of one parent, pairwise non-isomorphic across the whole level.

    The canonical-deletion rule leaves only duplicates caused by automorphic
    neighborhoods of this same parent, so the candidate masks are cut to one
    per orbit of the parent's automorphism group, and each mask that passes
    the deletion check yields one child.
    """
    n = len(parent)
    vbit = 1 << n
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
    nonadj = _nonadj_pairs(parent) if clawfree else None
    masks = _candidate_masks(parent, pdeg, noncut, nonadj)
    if len(masks) >= 2:
        masks = _orbit_representative_masks(n, parent, masks)
    out = []
    for mask in masks:
        if _deletion_check(parent, pdeg, comps, mask, mask.bit_count()):
            child = [parent[u] | vbit if mask >> u & 1 else parent[u] for u in range(n)]
            child.append(mask)
            out.append(tuple(child))
    return out


# -- the sweep engine -------------------------------------------------------------

SWEEP_CHUNKSIZE = 16  # work items per task sent to a worker
# Deepest order whose unchecked level is kept.  Claw-free levels 1..10 hold
# 32,028 classes (about 8 MB); claw-free order 11 alone has 184,749.
LEVEL_CACHE_MAX = 10
_LEVELS: Dict[Tuple[int, bool], List[Tuple[int, ...]]] = {}  # (order, clawfree) -> rows


def sweep(items: Iterable, work: Callable, jobs: int = 1) -> Iterator:
    """Yield ``work(item)`` for every item, in input order.

    With ``jobs <= 1`` everything runs in this process.  Otherwise one fork
    pool of ``jobs`` workers maps over the items, so ``work`` must pickle
    (a module-level function, or a ``partial`` of one), and so must the
    items and results.  This is the package's only pool.
    """
    if jobs <= 1:
        for item in items:
            yield work(item)
        return
    with get_context("fork").Pool(jobs) as pool:
        yield from pool.imap(work, items, SWEEP_CHUNKSIZE)


def _expand(parent: Tuple[int, ...], clawfree: bool, check: Optional[Callable]):
    """One parent's children, each paired with ``check`` of its graph
    (with None when there is no check)."""
    children = accepted_children(parent, clawfree)
    if check is None:
        return [(rows, None) for rows in children]
    n = len(parent) + 1
    return [(rows, check(Graph.from_bits(n, rows))) for rows in children]


def walk_levels(
    lo: int, hi: int, clawfree: bool, check: Optional[Callable[[Graph], object]], jobs: int = 1
) -> Iterator[Tuple[Tuple[int, ...], object]]:
    """Yield ``(rows, check(graph))`` for every class of order ``lo..hi``
    (``(rows, None)`` when ``check`` is None).

    One :func:`sweep` per level: each work item expands one order-(n-1)
    parent with :func:`accepted_children` and runs ``check`` on its children
    next to that expansion, since canonical augmentation makes parents
    independent.  Classes come out in the same order whatever ``jobs`` is.
    The walk starts from the deepest cached level below ``lo``, and each
    level below ``lo`` that it expands (unchecked) is cached up to order
    :data:`LEVEL_CACHE_MAX`.  Checked levels are never cached: only the
    current one stays in this process, as the next level's parents.
    """
    limit = CLAW_FREE_MAX if clawfree else ALL_CONNECTED_MAX
    if not 1 <= lo <= hi <= limit:
        raise GraphInputError(f"builtin enumeration supports 1 <= n <= {limit}")
    start = max((n for n in range(2, lo) if (n, clawfree) in _LEVELS), default=1)
    level = _LEVELS.get((start, clawfree), [(0,)])
    if lo == 1:
        yield level[0], None if check is None else check(Graph.from_bits(1, level[0]))
    for n in range(start + 1, hi + 1):
        work = partial(_expand, clawfree=clawfree, check=check if n >= lo else None)
        parents, level = level, []
        for children in sweep(parents, work, jobs):
            for rows, value in children:
                if n < hi:
                    level.append(rows)
                if n >= lo:
                    yield rows, value
        if n < lo and n <= LEVEL_CACHE_MAX:
            _LEVELS[n, clawfree] = level


def level_rows(n: int, clawfree: bool) -> List[Tuple[int, ...]]:
    """All classes at order n as canonical bitmask rows, in
    :func:`walk_levels` order (cached up to order :data:`LEVEL_CACHE_MAX`)."""
    rows = _LEVELS.get((n, clawfree))
    if rows is None:
        rows = [r for r, _ in walk_levels(n, n, clawfree, None)]
        if n <= LEVEL_CACHE_MAX:
            _LEVELS[n, clawfree] = rows
    return rows


def connected_graphs(n: int) -> Iterator[Graph]:
    """All connected graphs of order n up to isomorphism (n <= 8 builtin)."""
    for rows, _ in walk_levels(n, n, False, None):
        yield Graph.from_bits(n, rows)


def connected_clawfree_graphs(n: int) -> Iterator[Graph]:
    """All connected claw-free graphs of order n up to isomorphism (n <= 12)."""
    for rows, _ in walk_levels(n, n, True, None):
        yield Graph.from_bits(n, rows)


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


# -- the public stream ------------------------------------------------------------


def enumerate_graphs(spec: EnumSpec) -> Iterator[Graph]:
    """Stream of pairwise non-isomorphic graphs matching the spec.

    Builtin generation respects the class caps (all-connected n <= 8, claw
    free n <= 12, trees n <= 16); a graph6 corpus may be supplied instead and
    is filtered to the requested class and deduplicated.
    """
    if spec.source is not None:
        yield from _from_corpus(spec.source, spec.klass, spec.n)
        return
    if spec.klass is GraphClass.ALL_CONNECTED:
        yield from connected_graphs(spec.n)
    elif spec.klass is GraphClass.CONNECTED_CLAW_FREE:
        yield from connected_clawfree_graphs(spec.n)
    elif spec.klass is GraphClass.TREES:
        yield from free_trees(spec.n)
    else:  # pragma: no cover
        raise GraphInputError(f"unknown class {spec.klass}")


def _from_corpus(path: str, klass: GraphClass, n: Optional[int] = None) -> Iterator[Graph]:
    """Graphs of a graph6 file in ``klass`` (of order ``n`` when given), in
    file order, keeping the first of each isomorphism class."""
    from .graph import is_claw_free, is_connected, is_tree

    seen = set()
    for g in iter_graph6_file(path):
        if (n is not None and g.n != n) or not is_connected(g):
            continue
        if klass is GraphClass.CONNECTED_CLAW_FREE and not is_claw_free(g):
            continue
        if klass is GraphClass.TREES and not is_tree(g):
            continue
        cert = certificate(g.n, g.bits)
        if cert in seen:
            continue
        seen.add(cert)
        yield g
