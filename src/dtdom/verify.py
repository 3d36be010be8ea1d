"""Machine verification of the bounds, censuses, and characterizations.

Each checker sweeps an exhaustively enumerated universe (or a supplied
graph6 corpus), evaluates the exact solvers, and emits a structured
report.  A report passes exactly when its violation list is empty; an
equality case that matches no expected family is itself recorded as a
violation, because that is precisely what would falsify the
characterization being checked.  Equality cases are matched against
:func:`~dtdom.families.members` with :func:`~dtdom.families.first_match`,
so the expected families come from the one table in ``families``.  Reports
identify graphs by graph6 strings so results reproduce across machines.

The bound checkers (claw-free, min-degree-2, tree and general) compare each
value only with their bound, so they are witness-first: a DTD-set that
:func:`~dtdom.domination.is_dtd_set` accepts and that is strictly under the
bound proves the class neither breaks the bound nor meets it.  The witnesses
are tried cheapest first: a greedy total dominating set (dtd <= gamma_t, so
it is a DTD-set, and it needs no distance-2 rows), then a ``greedy_dtd``
set; every class that neither settles is solved exactly.  The census and
the dtd-le-gt check compare exact values with each other, so they solve
every class.

Builtin universes run through :func:`~dtdom.enumeration.walk_levels`, which
shards each level by its order-(n-1) parents and solves every class next to
its expansion, holding one level of rows; trees and corpora have no parent
and go through :func:`~dtdom.enumeration.sweep` one graph at a time.  Values
come back in enumeration order, so a report is the same for every ``jobs``
(``elapsed_ms`` aside).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from .constructor import _construct, _greedy_tds, greedy_dtd
from .domination import DominationKind, exact_number, is_dtd_set
from .enumeration import (
    ALL_CONNECTED_MAX,
    CLAW_FREE_MAX,
    TREES_MAX,
    _from_corpus,
    free_trees,
    sweep,
    walk_levels,
)
from .families import FamilyClass, FamilyId, exceptional_member, first_match, members
from .graph import Graph, GraphInputError, is_claw_free
from .graphio import to_graph6


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


def _under_4n_7(n: int, size: int) -> bool:
    return 7 * size < 4 * n


def _under_2n_3(n: int, size: int) -> bool:
    return 3 * size < 2 * (n - 1)


def _dtd_witness_first(g: Graph, under: Callable[[int, int], bool]) -> int:
    """dtd(g), or the size of a DTD-set of ``g`` that ``under`` puts strictly
    below the checked bound.

    A verified DTD-set S proves dtd(g) <= |S|, so when S is strictly under
    the bound the class neither breaks it nor meets it with equality, and a
    checker that only compares the value with that bound reads the same
    verdict from |S| as from dtd(g).  The witnesses come cheapest first: a
    greedy total dominating set, which is a DTD-set because dtd <= gamma_t
    and needs no distance-2 rows, then ``greedy_dtd``.  Every other class
    gets its exact value.
    """
    for witness in (_greedy_tds, greedy_dtd):
        s = witness(g)
        if under(g.n, len(s)) and is_dtd_set(g, s):
            return len(s)
    return exact_number(g, DTD).value


def _dtd_and_gt(g: Graph) -> Tuple[int, int]:
    return exact_number(g, DTD).value, exact_number(g, TDOM).value


def _dtd_unless_exceptional(g: Graph) -> Optional[int]:
    return None if exceptional_member(g) is not None else _dtd_witness_first(g, _under_4n_7)


def _dtd_if_mindeg2(g: Graph) -> Optional[int]:
    return _dtd_witness_first(g, _under_4n_7) if g.min_degree() >= 2 else None


# the tree and general checkers share the bound 2(n-1)/3
_dtd_general = partial(_dtd_witness_first, under=_under_2n_3)


def _graph(rows: Tuple[int, ...]) -> Graph:
    return Graph.from_bits(len(rows), rows)


def _record_equality(
    report: VerificationReport, g: Graph, fids: List[FamilyId],
    label: Callable[[FamilyId], str] = str,
) -> Optional[FamilyId]:
    """Record the equality case ``g`` under ``label`` of its first match in
    ``fids``, or as an unclassified violation; return the match."""
    hit = first_match(g, fids)
    g6 = to_graph6(g)
    if hit is None:
        report.equality_cases.append((g6, "unclassified"))
        report.violations.append(f"unclassified-equality:{g6}")
    else:
        report.equality_cases.append((g6, label(hit)))
    return hit


def constructor_verdict(g: Graph) -> Optional[Tuple[str, bool]]:
    """The constructor's route tag on a connected claw-free ``g`` and whether
    its set is a DTD-set of size at most 4n/7; None when ``g`` is exceptional.
    The per-class check of the exhaustive constructor sweep, whose universe
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
    for rows, (dtd, gt) in walk_levels(7, 7, False, _dtd_and_gt, jobs):
        report.checked += 1
        if gt == 4:
            gt4.append((_graph(rows), dtd))
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


# the trees besides T(k) and F(k) that meet 2(n-1)/3: the star K_{1,3} and T*
_SMALL_EQUALITY_TREES = {4: [FamilyId("Star", (3,))], 7: [FamilyId("TStar")]}


def check_tree_theorem(max_n: int = 12, jobs: int = 1) -> VerificationReport:
    """Trees of order 4..max_n other than the 5- and 6-paths satisfy
    3*dtd <= 2(n-1), with equality exactly on the expected families."""
    if not 4 <= max_n <= TREES_MAX:
        raise GraphInputError(f"tree check supports 4 <= max_n <= {TREES_MAX}")
    t0 = time.monotonic()
    report = VerificationReport(
        theorem="tree-characterization",
        universe=f"trees, 4 <= n <= {max_n} (builtin), excluding P5 and P6",
    )
    for n in range(4, max_n + 1):
        trees = [t for t in free_trees(n) if exceptional_member(t) is None]
        remaining = members(FamilyClass.CAL_T, n) + members(FamilyClass.CAL_F, n)
        remaining += _SMALL_EQUALITY_TREES.get(n, [])
        found: List[Graph] = []
        for g, dtd in zip(trees, sweep(trees, _dtd_general, jobs)):
            report.checked += 1
            if 3 * dtd > 2 * (n - 1):
                report.violations.append(f"bound:{to_graph6(g)} dtd={dtd}")
            elif 3 * dtd == 2 * (n - 1):
                found.append(g)
        report.counts[f"equality_n{n}"] = len(found)
        for g in found:
            hit = _record_equality(report, g, remaining)
            if hit is not None:
                remaining.remove(hit)
        for name in sorted(map(str, remaining)):
            report.violations.append(f"missing-equality:n={n} {name}")
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


_GENERAL_EQUALITY = (FamilyClass.CAL_T, FamilyClass.CAL_F, FamilyClass.CAL_G)


def check_graph_theorem(corpus: Optional[str] = None, jobs: int = 1) -> VerificationReport:
    """Connected graphs of order 8 (builtin) satisfy 3*dtd <= 2(n-1) with no
    equality case; corpus graphs of order >= 8 are checked the same way,
    with equality cases classified into the three extremal families."""
    t0 = time.monotonic()
    universe = "all connected graphs, n=8 (builtin)"
    if corpus:
        universe += f" + corpus {corpus}"
    report = VerificationReport(theorem="general-bound", universe=universe)

    def handle(rows: Tuple[int, ...], dtd: int) -> None:
        report.checked += 1
        n = len(rows)
        if 3 * dtd > 2 * (n - 1):
            report.violations.append(f"bound:{to_graph6(_graph(rows))} dtd={dtd}")
            return
        if 3 * dtd != 2 * (n - 1):
            return
        fids = [fid for cls in _GENERAL_EQUALITY for fid in members(cls, n)]
        if _record_equality(report, _graph(rows), fids) is not None:
            report.counts[f"equality_n{n}"] = report.counts.get(f"equality_n{n}", 0) + 1

    for rows, dtd in walk_levels(8, 8, False, _dtd_general, jobs):
        handle(rows, dtd)
    if report.counts.get("equality_n8"):
        report.violations.append("equality-at-n8")
    if corpus:
        graphs = list(_from_corpus(corpus, False))
        for g in graphs:
            if g.n < 8:
                report.violations.append(f"corpus-order-below-8:{to_graph6(g)}")
        graphs = [g for g in graphs if g.n >= 8]
        for g, dtd in zip(graphs, sweep(graphs, _dtd_general, jobs)):
            handle(g.bits, dtd)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


def _clawfree_label(hit: FamilyId) -> str:
    """An H(k) member keeps its own name; the S-list is labeled as a whole."""
    return str(hit) if hit.kind == "H" else FamilyClass.CAL_S.value


def check_clawfree_theorem(max_n: int = 8, corpus: Optional[str] = None, jobs: int = 1) -> VerificationReport:
    """Connected claw-free graphs are exceptional or satisfy 7*dtd <= 4n,
    and every equality case lies in the two equality families."""
    if not 2 <= max_n <= CLAW_FREE_MAX:
        raise GraphInputError(f"claw-free check supports 2 <= max_n <= {CLAW_FREE_MAX}")
    t0 = time.monotonic()
    universe = f"connected claw-free graphs, 2 <= n <= {max_n} (builtin)"
    if corpus:
        universe += f" + corpus {corpus}"
    report = VerificationReport(theorem="clawfree-bound", universe=universe)

    def handle(rows: Tuple[int, ...], dtd: Optional[int]) -> None:
        report.checked += 1
        if dtd is None:
            report.counts["exceptional"] = report.counts.get("exceptional", 0) + 1
            return
        n = len(rows)
        if 7 * dtd > 4 * n:
            report.violations.append(f"bound:{to_graph6(_graph(rows))} dtd={dtd}")
            return
        if 7 * dtd < 4 * n:
            return
        report.counts["equality"] = report.counts.get("equality", 0) + 1
        fids = members(FamilyClass.CAL_H, n) + members(FamilyClass.CAL_S, n)
        _record_equality(report, _graph(rows), fids, _clawfree_label)

    for rows, dtd in walk_levels(2, max_n, True, _dtd_unless_exceptional, jobs):
        handle(rows, dtd)
    if corpus:
        graphs = list(_from_corpus(corpus, True))
        for g, dtd in zip(graphs, sweep(graphs, _dtd_unless_exceptional, jobs)):
            handle(g.bits, dtd)
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


_MINDEG2_EXCEPTIONS = (FamilyId("C", (3,)), FamilyId("C", (7,)))


def check_mindeg2_observation(max_n: int = 8, jobs: int = 1) -> VerificationReport:
    """Connected claw-free graphs with minimum degree 2 fall strictly below
    4n/7 except for the 3-cycle and the 7-cycle."""
    if not 3 <= max_n <= CLAW_FREE_MAX:
        raise GraphInputError(f"min-degree-2 check supports 3 <= max_n <= {CLAW_FREE_MAX}")
    t0 = time.monotonic()
    report = VerificationReport(
        theorem="clawfree-mindeg2-strict",
        universe=f"connected claw-free graphs with min degree 2, n <= {max_n} (builtin)",
    )
    for rows, dtd in walk_levels(3, max_n, True, _dtd_if_mindeg2, jobs):
        if dtd is None:
            continue
        report.checked += 1
        if 7 * dtd < 4 * len(rows):
            continue
        g = _graph(rows)
        hit = first_match(g, _MINDEG2_EXCEPTIONS)
        if hit is not None:
            report.counts["exceptions"] = report.counts.get("exceptions", 0) + 1
            report.equality_cases.append((to_graph6(g), str(hit)))
        else:
            report.violations.append(f"bound:{to_graph6(g)} dtd={dtd}")
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report


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
    for rows, (dtd, gt) in walk_levels(2, max_n, False, _dtd_and_gt, jobs):
        report.checked += 1
        if dtd > gt:
            report.violations.append(f"gap:{to_graph6(_graph(rows))} dtd={dtd} gt={gt}")
        elif dtd == gt:
            report.counts["equality"] = report.counts.get("equality", 0) + 1
        else:
            report.counts["strict"] = report.counts.get("strict", 0) + 1
    report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report
