"""Machine verification of the bounds, censuses, and characterizations.

Each checker walks an exhaustively enumerated universe (or a supplied
graph6 corpus), evaluates the exact solvers, and emits a structured
report.  A report passes exactly when its violation list is empty; an
equality case that matches no expected family is itself recorded as a
violation, because that is precisely what would falsify the
characterization being checked.  Equality cases are matched against
:func:`~dtdom.families.members` with :func:`~dtdom.families.first_match`,
so the expected families come from the one table in ``families``.  Reports
identify graphs by graph6 strings so results reproduce across machines.

The four bound checkers (tree, general, claw-free and min-degree-2) are
rows of one table, ``_Bound``, run by one loop, ``_check_bound``: a row
holds what sets its theorem apart (the bound a*dtd <= b*n + c, strict or
not, the filter that sets classes aside, the families a class on or over
the bound must match, their label and counts, and the universe), so a new
bound theorem is a row plus a universe.  They compare each value only with
the bound, so they are witness-first: a DTD-set that
:func:`~dtdom.domination.is_dtd_set` accepts and that is strictly under the
bound proves the class neither breaks the bound nor meets it.  The witnesses
come from the constructor's min-degree-2 cascade: a greedy total dominating
set (dtd <= gamma_t, so it is a DTD-set), then a ``greedy_dtd`` set; every
class that neither settles is solved exactly.  The census and
the dtd-le-gt check compare exact values with each other, so they solve
every class.

Each checker opens one :func:`~dtdom.enumeration._mapper` block around its
loop, so it forks at most one pool, which ends with the loop, also on an
error.  Builtin universes run through :func:`~dtdom.enumeration.walk_levels`
on that block's ``run``, which shards each level by its order-(n-1) parents
and solves every class next to its expansion, holding one level of rows;
trees and corpora have no parent and are one flat ``run`` each, the trees
of every order in one, with the row's filter applied in the workers.  The
one corpus reader, :func:`_corpus_classes`, reads the whole file before the
block opens, so a bad corpus fails fast; its classes, chained after the
walk's, go through the same loop, and those below the theorem's order floor
are violations, not checked.  Values come back in enumeration order, so a
report is the same for every ``jobs`` (``elapsed_ms`` aside).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

from .canon import certificate
from .constructor import _construct, _verified_witness
from .domination import DominationKind, exact_number, is_dtd_set
from .enumeration import (
    ALL_CONNECTED_MAX,
    CLAW_FREE_MAX,
    TREES_MAX,
    _mapper,
    free_trees,
    walk_levels,
)
from .families import FamilyClass, FamilyId, exceptional_member, first_match, members
from .graph import Graph, GraphInputError, is_claw_free, is_connected
from .graphio import iter_graph6_file, to_graph6


DTD = DominationKind.DISJUNCTIVE_TOTAL_DOMINATION
TDOM = DominationKind.TOTAL_DOMINATION


@dataclass
class VerificationReport:
    theorem: str
    universe: str
    checked: int = 0
    violations: List[str] = field(default_factory=list)
    equality_cases: List[Tuple[str, str]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    def expect_count(self, name: str, got: int, want: int) -> None:
        self.counts[name] = got
        if got != want:
            self.violations.append(f"count:{name}={got} expected {want}")


def emit_report(report: VerificationReport, fmt: str = "json") -> str:
    """Deterministic serialization; 'json' (stable key order) or 'text'."""
    if fmt == "json":
        payload = {
            "theorem": report.theorem,
            "universe": report.universe,
            "checked": report.checked,
            "violations": list(report.violations),
            "equality_cases": [list(e) for e in report.equality_cases],
            "counts": dict(sorted(report.counts.items())),
            "elapsed_ms": report.elapsed_ms,
            "status": "pass" if report.passed else "fail",
        }
        return json.dumps(payload, indent=2)
    if fmt == "text":
        lines = [
            f"theorem: {report.theorem}",
            f"universe: {report.universe}",
            f"checked: {report.checked}",
            f"status: {'pass' if report.passed else 'fail'}",
        ]
        for name in sorted(report.counts):
            lines.append(f"count {name}: {report.counts[name]}")
        for g6, cls in report.equality_cases:
            lines.append(f"equality {g6}: {cls}")
        for v in report.violations:
            lines.append(f"violation: {v}")
        lines.append(f"elapsed_ms: {report.elapsed_ms}")
        return "\n".join(lines) + "\n"
    raise GraphInputError(f"unknown report format: {fmt}")


# -- per-graph values, computed next to the enumeration -----------------------


def _not_exceptional(g: Graph) -> bool:
    return exceptional_member(g) is None


def _min_degree_2(g: Graph) -> bool:
    return g.min_degree() >= 2


def _bound_value(
    bound: Tuple[int, int, int], keep: Optional[Callable[[Graph], bool]], g: Graph
) -> Optional[int]:
    """dtd(g), or the size of a DTD-set S of ``g`` strictly under the bound
    ``a*|S| < b*n + c`` of ``bound = (a, b, c)``; None when ``keep`` sets
    ``g`` aside.

    A verified DTD-set S proves dtd(g) <= |S|, so when S is strictly under
    the bound the class neither breaks it nor meets it with equality, and a
    checker that only compares the value with that bound reads the same
    verdict from |S| as from dtd(g).  Every class that the constructor's
    ``_verified_witness`` does not settle gets its exact value.
    """
    if keep is not None and not keep(g):
        return None
    a, b, c = bound
    s = _verified_witness(g, lambda n, size: a * size < b * n + c)
    return len(s) if s is not None else exact_number(g, DTD).value


def _dtd_and_gt(g: Graph) -> Tuple[int, int]:
    return exact_number(g, DTD).value, exact_number(g, TDOM).value


def _corpus_classes(
    report: VerificationReport, path: Optional[str], clawfree: bool, floor: int
) -> List[Graph]:
    """The first graph of each class of connected (with ``clawfree``,
    claw-free) graphs in the graph6 file at ``path``, in file order; a class
    below order ``floor`` is a ``corpus-order-below-<floor>`` violation
    instead.  The whole file is read on the call, which a checker makes
    before its pool opens, so a bad corpus fails at once."""
    seen, graphs = set(), []
    for g in iter_graph6_file(path) if path else ():
        if not is_connected(g) or (clawfree and not is_claw_free(g)):
            continue
        cert = certificate(g.n, g.bits)
        if cert in seen:
            continue
        seen.add(cert)
        if g.n < floor:
            report.violations.append(f"corpus-order-below-{floor}:{to_graph6(g)}")
        else:
            graphs.append(g)
    return graphs


def constructor_verdict(g: Graph) -> Optional[Tuple[str, bool]]:
    """The constructor's route tag on a connected claw-free ``g`` and whether
    its set is a DTD-set of size at most 4n/7; None when ``g`` is exceptional.
    The per-class check of the exhaustive constructor walk, whose universe
    already holds ``g`` connected and claw-free, so neither is re-checked."""
    if exceptional_member(g) is not None:
        return None
    witness, tag = _construct(g)
    return tag, is_dtd_set(g, witness) and 7 * len(witness) <= 4 * g.n


# -- the checkers ----------------------------------------------------------------


def check_order7_census(jobs: int = 1) -> VerificationReport:
    """Exhaustive order-7 census: 20 graphs with total domination number 4,
    12 of them claw-free (the L-list), 6 of those with disjunctive total
    domination number 4 (the S1-sublist)."""
    t0 = time.monotonic()
    report = VerificationReport(
        theorem="order7-census", universe="all connected graphs, n=7 (builtin)"
    )
    gt4 = []
    with _mapper(jobs) as run:
        for g, (dtd, gt) in walk_levels(7, 7, False, _dtd_and_gt, run):
            report.checked += 1
            if gt == 4:
                gt4.append((g, dtd))
    report.expect_count("connected", report.checked, 853)
    report.expect_count("total_domination_4", len(gt4), 20)
    clawfree = [(g, dtd) for g, dtd in gt4 if is_claw_free(g)]
    report.expect_count("clawfree_total_domination_4", len(clawfree), 12)
    l_members = members(FamilyClass.CAL_L, 7)
    matched = set()
    s1_found = set()
    for g, dtd in clawfree:
        hit = first_match(g, l_members)
        if hit is None:
            report.violations.append(f"unexpected-member:{to_graph6(g)}")
            continue
        matched.add(hit)
        report.equality_cases.append((to_graph6(g), str(hit)))
        if dtd == 4:
            s1_found.add(hit)
    for fid in l_members:
        if fid not in matched:
            report.violations.append(f"missing-member:{fid}")
    report.expect_count("clawfree_dtd_4", len(s1_found), 6)
    if s1_found != set(members(FamilyClass.CAL_S1, 7)) and len(s1_found) == 6:
        report.violations.append(f"s1-mismatch:{sorted(fid.args[0] for fid in s1_found)}")
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


@dataclass(frozen=True)
class _Bound:
    """One bound theorem: ``a*dtd <= b*n + c`` for ``bound = (a, b, c)``
    (``<`` with ``strict``) on the classes that ``keep`` admits.  ``keep``
    runs in the workers, so it is a module-level function or None (keep
    all); the other callables stay in this process.  A class on the bound
    must match ``equality(n)``, one over it (on it, when strict) ``over``;
    a match is recorded under ``label`` and counted in ``count`` (formatted
    with n).  A set-aside class counts in ``set_aside`` and as checked, or,
    with None, in neither.  With ``complete`` every member of ``equality(n)``
    must show up at each order.  The universe is the trees with ``trees``,
    else the connected graphs, claw-free with ``clawfree`` (so is a corpus).
    """

    theorem: str
    bound: Tuple[int, int, int]
    keep: Optional[Callable[[Graph], bool]]
    equality: Callable[[int], List[FamilyId]]
    strict: bool = False
    over: Tuple[FamilyId, ...] = ()
    label: Callable[[FamilyId], str] = str
    count: str = "equality_n{n}"
    set_aside: Optional[str] = None
    complete: bool = False
    trees: bool = False
    clawfree: bool = False


# the trees besides T(k) and F(k) that meet 2(n-1)/3: the star K_{1,3} and T*
_SMALL_EQUALITY_TREES = {4: [FamilyId("Star", (3,))], 7: [FamilyId("TStar")]}


def _families(*classes: FamilyClass) -> Callable[[int], List[FamilyId]]:
    return lambda n: [fid for cls in classes for fid in members(cls, n)]


_TREE = _Bound(
    "tree-characterization", (3, 2, -2), _not_exceptional,
    lambda n: members(FamilyClass.CAL_T, n) + members(FamilyClass.CAL_F, n)
    + _SMALL_EQUALITY_TREES.get(n, []),
    complete=True, trees=True,
)
_GENERAL = _Bound(
    "general-bound", (3, 2, -2), None,
    _families(FamilyClass.CAL_T, FamilyClass.CAL_F, FamilyClass.CAL_G),
)
_CLAWFREE = _Bound(
    "clawfree-bound", (7, 4, 0), _not_exceptional, _families(FamilyClass.CAL_H, FamilyClass.CAL_S),
    # an H(k) member keeps its own name; the S-list is labeled as a whole
    label=lambda hit: str(hit) if hit.kind == "H" else FamilyClass.CAL_S.value,
    count="equality", set_aside="exceptional", clawfree=True,
)
_MINDEG2 = _Bound(
    "clawfree-mindeg2-strict", (7, 4, 0), _min_degree_2, _families(), strict=True,
    over=(FamilyId("C", (3,)), FamilyId("C", (7,))), count="exceptions", clawfree=True,
)


def _check_bound(
    row: _Bound, universe: str, lo: int, hi: int, jobs: int, corpus: Optional[str] = None
) -> VerificationReport:
    """The report of ``row``'s theorem over the classes of order ``lo..hi``
    and the classes of the graph6 file ``corpus``, whose floor is ``lo``."""
    t0 = time.monotonic()
    if corpus:
        universe += f" + corpus {corpus}"
    report = VerificationReport(theorem=row.theorem, universe=universe)
    if row.trees:
        # trees have no corpus; every order is in one flat list, so one map
        graphs = [t for n in range(lo, hi + 1) for t in free_trees(n)]
    else:
        graphs = _corpus_classes(report, corpus, row.clawfree, lo)
    value = partial(_bound_value, row.bound, row.keep)
    a, b, c = row.bound
    matched = set()
    with _mapper(jobs) as run:
        walk = () if row.trees else walk_levels(lo, hi, row.clawfree, value, run)
        for g, dtd in chain(walk, zip(graphs, run(value, graphs))):
            if dtd is None:
                if row.set_aside is not None:
                    report.checked += 1
                    report.counts[row.set_aside] = report.counts.get(row.set_aside, 0) + 1
                continue
            report.checked += 1
            slack = b * g.n + c - a * dtd
            if slack > 0:
                continue
            over = slack < 0 or row.strict
            hit = first_match(g, row.over if over else row.equality(g.n))
            g6 = to_graph6(g)
            if hit is not None:
                matched.add(hit)
                report.equality_cases.append((g6, row.label(hit)))
                name = row.count.format(n=g.n)
                report.counts[name] = report.counts.get(name, 0) + 1
            elif over:
                report.violations.append(f"bound:{g6} dtd={dtd}")
            else:
                report.equality_cases.append((g6, "unclassified"))
                report.violations.append(f"unclassified-equality:{g6}")
    if row.complete:
        for n in range(lo, hi + 1):
            report.counts.setdefault(row.count.format(n=n), 0)
            for name in sorted(str(fid) for fid in row.equality(n) if fid not in matched):
                report.violations.append(f"missing-equality:n={n} {name}")
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def check_tree_theorem(max_n: int = 12, jobs: int = 1) -> VerificationReport:
    """Trees of order 4..max_n other than the 5- and 6-paths satisfy
    3*dtd <= 2(n-1), with equality exactly on the expected families."""
    if not 4 <= max_n <= TREES_MAX:
        raise GraphInputError(f"tree check supports 4 <= max_n <= {TREES_MAX}")
    universe = f"trees, 4 <= n <= {max_n} (builtin), excluding P5 and P6"
    return _check_bound(_TREE, universe, 4, max_n, jobs)


def check_graph_theorem(corpus: Optional[str] = None, jobs: int = 1) -> VerificationReport:
    """Connected graphs of order 8 (builtin) satisfy 3*dtd <= 2(n-1), with no
    equality case as 3*dtd = 14 has no integer solution; corpus graphs of
    order >= 8 are checked the same way, with equality cases classified into
    the three extremal families."""
    return _check_bound(_GENERAL, "all connected graphs, n=8 (builtin)", 8, 8, jobs, corpus)


def check_clawfree_theorem(max_n: int = 8, corpus: Optional[str] = None, jobs: int = 1) -> VerificationReport:
    """Connected claw-free graphs are exceptional or satisfy 7*dtd <= 4n,
    and every equality case lies in the two equality families."""
    if not 2 <= max_n <= CLAW_FREE_MAX:
        raise GraphInputError(f"claw-free check supports 2 <= max_n <= {CLAW_FREE_MAX}")
    universe = f"connected claw-free graphs, 2 <= n <= {max_n} (builtin)"
    return _check_bound(_CLAWFREE, universe, 2, max_n, jobs, corpus)


def check_mindeg2_observation(max_n: int = 8, jobs: int = 1) -> VerificationReport:
    """Connected claw-free graphs with minimum degree 2 fall strictly below
    4n/7 except for the 3-cycle and the 7-cycle."""
    if not 3 <= max_n <= CLAW_FREE_MAX:
        raise GraphInputError(f"min-degree-2 check supports 3 <= max_n <= {CLAW_FREE_MAX}")
    universe = f"connected claw-free graphs with min degree 2, n <= {max_n} (builtin)"
    return _check_bound(_MINDEG2, universe, 3, max_n, jobs)


def check_dtd_le_gt(max_n: int = 8, jobs: int = 1) -> VerificationReport:
    """The disjunctive total domination number never exceeds the total
    domination number, over the whole builtin universe."""
    if not 2 <= max_n <= ALL_CONNECTED_MAX:
        raise GraphInputError(f"comparison check supports 2 <= max_n <= {ALL_CONNECTED_MAX}")
    t0 = time.monotonic()
    report = VerificationReport(
        theorem="dtd-le-total",
        universe=f"all connected graphs, 2 <= n <= {max_n} (builtin)",
    )
    with _mapper(jobs) as run:
        for g, (dtd, gt) in walk_levels(2, max_n, False, _dtd_and_gt, run):
            report.checked += 1
            if dtd > gt:
                report.violations.append(f"gap:{to_graph6(g)} dtd={dtd} gt={gt}")
            elif dtd == gt:
                report.counts["equality"] = report.counts.get("equality", 0) + 1
            else:
                report.counts["strict"] = report.counts.get("strict", 0) + 1
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report
