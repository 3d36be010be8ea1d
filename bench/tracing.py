"""Span tracer that wraps dtdom's public functions from outside the package.

Each traced function is replaced, for the duration of ``Tracer.installed()``,
at every binding a dtdom module holds of it: the defining module
(``dtdom.canon.certificate``) and each importing module
(``dtdom.enumeration.certificate``, ``dtdom.constructor.exact_number``, ...).
Function-local imports such as ``from .graph import is_connected`` read the
defining module at call time, so they see the wrapper too.

Spans live in flat arrays (name, parent, start, end) and are reduced to
per-name call counts, total and self time when the run ends.  Self time is
a span's duration minus the durations of its direct child spans.  Counts
that the program returns rather than exposes (solver nodes, route tags,
children per parent) are read off the return values at the same wrappers.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# layer -> public functions wrapped in that layer; Graph.from_bits is added
# separately because it is a classmethod.
TRACED = {
    "enumeration": ("accepted_children", "level_rows"),
    "canon": (
        "certificate",
        "anchored_profile",
        "automorphism_generators",
        "is_isomorphic",
        "isomorphism_map",
    ),
    "graph": ("is_connected", "is_claw_free", "distance2_bits"),
    "families": ("exceptional_member", "generate", "in_class"),
    "domination": ("exact_number", "is_dtd_set"),
    "constructor": ("construct_dtd_clawfree",),
    "verify": ("check_clawfree_theorem",),
    "graphio": ("to_graph6",),
}


def _count_children(counters: Counter, result) -> None:
    counters["enumeration.children"] += len(result)


def _count_nodes(counters: Counter, result) -> None:
    counters["domination.solver_nodes"] += result.explored


def _count_route(counters: Counter, result) -> None:
    counters["constructor.route." + result[1]] += 1


_RESULT_HOOKS: Dict[str, Callable[[Counter, object], None]] = {
    "enumeration.accepted_children": _count_children,
    "domination.exact_number": _count_nodes,
    "constructor.construct_dtd_clawfree": _count_route,
}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        hook = _RESULT_HOOKS.get(name)
        stack, counters = self._stack, self.counters
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "dtdom" or k.startswith("dtdom.")]
        for layer, fnames in TRACED.items():
            home = sys.modules["dtdom." + layer]
            for fname in fnames:
                original = getattr(home, fname, None)
                if original is None:  # removed from the program: no spans
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        graph_cls = sys.modules["dtdom.graph"].Graph
        from_bits = graph_cls.__dict__["from_bits"]
        self._patches.append((graph_cls, "from_bits", from_bits))
        setattr(graph_cls, "from_bits", classmethod(self._wrap("graph.from_bits", from_bits.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reduction -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        if self._stack:
            raise RuntimeError("summary taken with spans still open")
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        child_s = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_s[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[name_of[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child_s[i]
        return out


def layer_metrics(
    tracer: Tracer, spans: Dict[str, Dict[str, float]], graphs: int, overhead_frac: float
) -> Dict[str, Tuple[float, str]]:
    """The benchmark's per-layer metrics, as ``name -> (value, unit)``.

    ``spans`` is ``tracer.summary()``.  ``graphs`` is the number of graphs
    the workload handed to the program (children, classes checked or
    requests): the base of every per-graph ratio.
    """
    counters = tracer.counters

    def calls(*names: str) -> int:
        return sum(spans[n]["calls"] for n in names if n in spans)

    def self_s(*names: str) -> float:
        return sum(spans[n]["self_s"] for n in names if n in spans)

    def layer_self_s(layer: str) -> float:
        return sum(rec["self_s"] for name, rec in spans.items() if name.split(".")[0] == layer)

    def per_graph(count: int) -> float:
        return count / graphs if graphs else 0.0

    solver_calls = calls("domination.exact_number")
    nodes = counters["domination.solver_nodes"]
    guards = ("graph.is_connected", "graph.is_claw_free")
    m: Dict[str, Tuple[float, str]] = {
        "enumeration.accepted_children.calls": (calls("enumeration.accepted_children"), "count"),
        "enumeration.accepted_children.self_s": (self_s("enumeration.accepted_children"), "s"),
        "enumeration.children": (counters["enumeration.children"], "count"),
        "enumeration.level_rows.self_s": (self_s("enumeration.level_rows"), "s"),
        "canon.certificate.calls": (calls("canon.certificate"), "count"),
        "canon.anchored_profile.calls": (calls("canon.anchored_profile"), "count"),
        "canon.is_isomorphic.calls": (calls("canon.is_isomorphic"), "count"),
        "canon.self_s": (layer_self_s("canon"), "s"),
        "graph.from_bits.calls": (calls("graph.from_bits"), "count"),
        "graph.from_bits.self_s": (self_s("graph.from_bits"), "s"),
        "graph.guards.calls_per_graph": (per_graph(calls(*guards)), "calls/graph"),
        "graph.guards.self_s": (self_s(*guards), "s"),
        "graph.distance2_bits.self_s": (self_s("graph.distance2_bits"), "s"),
        "families.exceptional_member.calls_per_graph": (
            per_graph(calls("families.exceptional_member")), "calls/graph"),
        "families.exceptional_member.self_s": (self_s("families.exceptional_member"), "s"),
        "families.generate.calls_per_graph": (per_graph(calls("families.generate")), "calls/graph"),
        "domination.exact_number.calls": (solver_calls, "count"),
        "domination.exact_number.self_s": (self_s("domination.exact_number"), "s"),
        "domination.solver_nodes": (nodes, "count"),
        "domination.nodes_per_call": (nodes / solver_calls if solver_calls else 0.0, "nodes/call"),
        "domination.is_dtd_set.self_s": (self_s("domination.is_dtd_set"), "s"),
        "constructor.self_s": (layer_self_s("constructor"), "s"),
    }
    for route in ("proof-path", "exact-mindeg2", "exact-small", "fallback-exact"):
        m["constructor.route." + route] = (counters["constructor.route." + route], "count")
    m["verify.self_s"] = (layer_self_s("verify"), "s")
    m["graphio.to_graph6.self_s"] = (self_s("graphio.to_graph6"), "s")
    m["trace.graphs"] = (graphs, "count")
    m["trace.spans"] = (len(tracer.start), "count")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m


def format_table(spans: Dict[str, Dict[str, float]]) -> str:
    """Human-readable per-span table, heaviest self time first."""
    lines = [f"{'span':44s} {'calls':>10s} {'total_s':>9s} {'self_s':>9s}"]
    for name, rec in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:44s} {rec['calls']:10d} {rec['total_s']:9.3f} {rec['self_s']:9.3f}")
    return "\n".join(lines)
