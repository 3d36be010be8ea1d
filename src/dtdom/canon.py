"""Canonical forms and isomorphism by partition refinement with backtracking.

Certificates come from individualization-refinement over vertex bitmask
rows: refine to an equitable ordered partition (cells kept as bitmasks),
branch on the first non-singleton cell, and keep the lexicographically
smallest relabeled adjacency.  After individualizing inside an equitable
partition only the new singleton needs to re-enter the splitter queue.
Automorphisms prune sibling branches: the transpositions of twin vertices
(equal open or closed neighbourhoods) are known before the search starts,
and the others are discovered at equal-certificate leaves, which keeps
symmetric graphs (cliques, cycles, blown-up vertices) cheap.  Intended for
n <= 16; everything in this package stays well inside that.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple

from .graph import Graph, _members, _relabeled_rows


def _refine(n: int, rows: Sequence[int], parts: List[int], queue) -> List[int]:
    """Coarsest equitable refinement; ``parts`` is an ordered list of cell masks.

    ``queue`` holds the splitter masks still to be processed (None means all
    of ``parts``, the from-scratch case).  Cells split into count-ascending
    groups; a singleton splitter takes a pure bitmask shortcut.  Only
    non-singleton cells can split, so a splitter whose neighbours miss all of
    them is skipped, and a scan stops after the last one they reach.

    A cell that splits after it was queued leaves its last piece off the
    queue.  The queue is first in, first out, so by that piece's turn the
    cell and every other piece have been processed; every cell then has
    uniform counts into each of them, so into their difference too, and the
    piece would split nothing.
    """
    parts = list(parts)
    work = deque(parts if queue is None else queue)
    queued = set(work)  # every mask queued so far, or left off as above
    members = _members(n)
    open_ = 0  # union of the non-singleton cells
    for cell in parts:
        if cell & (cell - 1):
            open_ |= cell
    while work:
        w = work.popleft()
        single = not w & (w - 1)
        if single:
            reach = rows[w.bit_length() - 1]
        else:
            reach = 0
            for v in members[w]:
                reach |= rows[v]
        left = reach & open_  # hit vertices in cells not yet scanned
        if not left:
            continue
        i = 0
        while left:
            cell = parts[i]
            if cell & left:  # unscanned hit cells are non-singletons
                left &= ~cell
                hit = cell & reach
                if single:
                    repl = [cell ^ hit, hit] if cell ^ hit else None
                else:
                    buckets = {}
                    for v in members[cell]:
                        cnt = (rows[v] & w).bit_count()
                        buckets[cnt] = buckets.get(cnt, 0) | 1 << v
                    repl = [buckets[k] for k in sorted(buckets)] if len(buckets) > 1 else None
                if repl:
                    parts[i : i + 1] = repl
                    open_ &= ~cell
                    for g in repl:
                        if g & (g - 1):
                            open_ |= g
                    if not open_:
                        return parts  # discrete: nothing left to split
                    work.extend(repl[:-1] if cell in queued else repl)
                    queued.update(repl)
                    i += len(repl)
                    continue
            i += 1
    return parts


def certificate(n: int, rows: Sequence[int], anchor: Optional[int] = None) -> Tuple[int, ...]:
    """Canonical certificate of the graph given by bitmask ``rows``.

    Certificates are equal exactly for isomorphic graphs; with ``anchor``
    set, equal exactly for isomorphic vertex-rooted graphs.
    """
    return _search(n, rows, anchor)[0]


def automorphism_generators(n: int, rows: Sequence[int]) -> List[Tuple[int, ...]]:
    """Automorphisms discovered during the canonical search; they generate Aut(G).

    Every returned permutation is a genuine automorphism, and together they
    generate the full group (McKay, "Practical graph isomorphism", 1981).
    The list starts with the twin transpositions the search is seeded with
    (see :func:`_twin_transpositions`); every later leaf with the same
    relabeled rows as the first leaf adds the automorphism between the two.
    Let H be the group all of them generate.  A branch is pruned only by
    known automorphisms that fix its prefix, seeded or found, so by
    induction on depth every node of the search tree is the image of an
    explored node under H.  Any automorphism maps the first leaf to a leaf
    with the same rows, which is then an H-image of an explored one; that
    explored leaf has the same rows too, so its automorphism from the first
    leaf was found, and the automorphism lies in H.  An empty list means
    the graph is rigid.
    """
    return _search(n, rows, None)[2]


def isomorphism_map(g1: Graph, g2: Graph) -> Optional[List[int]]:
    """An explicit isomorphism ``phi`` with ``phi[v1] = v2``, or None.

    Composes the two canonical labelings, so the returned map is one
    witness, deterministic for fixed inputs.
    """
    if g1.n != g2.n or g1.edge_count != g2.edge_count:
        return None
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return None
    cert1, order1, _ = _search(g1.n, g1.bits, None)
    cert2, order2, _ = _search(g2.n, g2.bits, None)
    if cert1 != cert2:
        return None
    phi = [0] * g1.n
    for a, b in zip(order1, order2):
        phi[a] = b
    return phi


def anchored_profile(n: int, rows: Sequence[int], u: int):
    """Cheap invariant of the vertex-rooted graph, and the anchored search's first leaf.

    Returns ``(invariant, leaf)``.  The invariant is the (size, degree)
    profile of the refinement seeded at ``u``; it has ``n`` entries exactly
    when that refinement is discrete.  ``leaf`` is the relabeled rows at the
    end of the first path of ``certificate(n, rows, anchor=u)``: individualize
    the lowest vertex of the first non-singleton cell, refine, repeat.  When
    the refinement is already discrete that is the only leaf, so ``leaf`` is
    the anchored certificate.  Otherwise it depends on the labeling, but
    equal leaves of two roots still prove them automorphic: the two leaf
    orders, matched position by position, map one root (position 0) to the
    other and preserve every edge.
    """
    full = (1 << n) - 1
    ub = 1 << u
    parts = _refine(n, rows, [ub, full ^ ub] if full ^ ub else [ub], None)
    inv = tuple((c.bit_count(), rows[(c & -c).bit_length() - 1].bit_count()) for c in parts)
    idx = 1
    while idx < len(parts):
        cell = parts[idx]
        if cell & (cell - 1):
            low = cell & -cell
            # cells before idx are singletons and stay so; idx becomes one
            parts = _refine(n, rows, parts[:idx] + [low, cell ^ low] + parts[idx + 1 :], [low])
        idx += 1
    return inv, _relabeled_rows(n, rows, [c.bit_length() - 1 for c in parts])


def _twin_transpositions(n: int, rows: Sequence[int], anchor: Optional[int]) -> List[Tuple[int, ...]]:
    """Transpositions of consecutive members of each twin class, anchor left out.

    Twins have equal open or equal closed neighbourhoods, and swapping two
    of them is an automorphism; the consecutive swaps of a class generate
    its full symmetric group.  One dict keys both kinds, because N(u) never
    equals N[w]: w in N[w] = N(u) would make u adjacent to w, and then u in
    N[w] = N(u).
    """
    last = {}
    out = []
    for v in range(n):
        if v == anchor:
            continue
        r = rows[v]
        for key in (r, r | 1 << v):
            u = last.get(key)
            last[key] = v
            if u is not None:
                sigma = list(range(n))
                sigma[u], sigma[v] = v, u
                out.append(tuple(sigma))
    return out


def _search(
    n: int, rows: Sequence[int], anchor: Optional[int], refined: Optional[List[int]] = None
):
    """``(certificate, its labeling order, automorphism generators)``.

    ``refined`` is the root partition when the caller has already refined
    it: the vertex set, or the anchor and the rest, through ``_refine``
    with no queue.  When it is None the search refines it.
    """
    if n == 0:
        return (), [], []
    if refined is None:
        full = (1 << n) - 1
        if anchor is None:
            parts0 = [full]
        else:
            abit = 1 << anchor
            parts0 = [abit, full ^ abit] if full ^ abit else [abit]
        refined = _refine(n, rows, parts0, None)

    best: Optional[Tuple[int, ...]] = None
    best_order: Optional[List[int]] = None
    # known automorphisms that fix the anchor; pruning by them skips only
    # subtrees that come after an explored image, so never the first best leaf
    generators: List[Tuple[int, ...]] = _twin_transpositions(n, rows, anchor)
    leaf_seen = {}

    def in_known_orbit(v: int, done: List[int], prefix: Tuple[int, ...]) -> bool:
        gens = [s for s in generators if all(s[p] == p for p in prefix)]
        if not gens:
            return False
        orbit = set(done)
        frontier = list(done)
        while frontier:
            u = frontier.pop()
            for s in gens:
                w = s[u]
                if w not in orbit:
                    if w == v:
                        return True
                    orbit.add(w)
                    frontier.append(w)
        return False

    def recurse(parts: List[int], prefix: Tuple[int, ...]) -> None:
        nonlocal best, best_order
        idx = -1
        for i, cell in enumerate(parts):
            if cell & (cell - 1):
                idx = i
                break
        if idx == -1:
            order = [cell.bit_length() - 1 for cell in parts]
            cand = _relabeled_rows(n, rows, order)
            if best is None or cand < best:
                best = cand
                best_order = order
            prev = leaf_seen.get(cand)
            if prev is None:
                # the cap only bounds memory: the first leaf is always stored,
                # and automorphism_generators' completeness rests on that
                if len(leaf_seen) < 256:
                    leaf_seen[cand] = order
            elif prev != order:
                sigma = [0] * n
                for a, b in zip(prev, order):
                    sigma[a] = b
                generators.append(tuple(sigma))
            return
        cell = parts[idx]
        head, tail = parts[:idx], parts[idx + 1 :]
        done: List[int] = []
        c = cell
        while c:
            low = c & -c
            c ^= low
            v = low.bit_length() - 1
            if done and in_known_orbit(v, done, prefix):
                continue
            done.append(v)
            rest = cell ^ low
            split = head + [low, rest] + tail
            recurse(_refine(n, rows, split, [low]), prefix + (v,))

    recurse(refined, ())
    # recurse reaches itself through its closure; dropping it frees the
    # search's state on return rather than at the next cyclic collection
    del recurse
    assert best is not None
    return best, best_order, generators


def canonical_form(g: Graph) -> bytes:
    """Canonical certificate packed as bytes; equal iff isomorphic."""
    cert = certificate(g.n, g.bits)
    width = (g.n + 7) // 8 or 1
    return bytes([g.n]) + b"".join(r.to_bytes(width, "little") for r in cert)


def canonical_relabel(g: Graph) -> Graph:
    """The canonically labeled copy of ``g``."""
    return Graph.from_bits(g.n, certificate(g.n, g.bits))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Certificate-based isomorphism test (intended for n <= 16)."""
    return isomorphism_map(g1, g2) is not None
