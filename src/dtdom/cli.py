"""Command-line front-end.

Exit codes: 0 success or verification pass, 1 verification failure,
2 input error, 3 domain error (isolated vertex for a total variant,
exceptional graph handed to the constructor, leafy input too deep for the
constructor's proof path).
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from typing import List, Optional

from .constructor import construct_dtd_clawfree, greedy_dtd
from .domination import DomainError, DominationKind, _uncovered, exact_number
from .enumeration import free_trees, sweep, walk_levels
from .families import generate_named
from .graph import GraphInputError
from .graphio import FORMATS, dump_graph, load_graph, to_graph6
from .verify import (
    check_clawfree_theorem,
    check_dtd_le_gt,
    check_graph_theorem,
    check_mindeg2_observation,
    check_order7_census,
    check_tree_theorem,
    emit_report,
)

_THEOREMS = {
    "census7": check_order7_census,
    "tree": check_tree_theorem,
    "graph": check_graph_theorem,
    "clawfree": check_clawfree_theorem,
    "mindeg2": check_mindeg2_observation,
    "dtd-le-gt": check_dtd_le_gt,
}

def _witness_str(vertices) -> str:
    return ",".join(str(v) for v in sorted(vertices))


def _parse_set(text: str, n: int):
    out = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            v = int(token)
        except ValueError:
            raise GraphInputError(f"malformed vertex token: {token!r}") from None
        if not 0 <= v < n:
            raise GraphInputError(f"vertex {v} out of range 0..{n - 1}")
        out.add(v)
    return frozenset(out)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtdom",
        description="Exact computation and verification for disjunctive total domination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact minimum with a witness set")
    p.add_argument("--kind", choices=sorted(k.value for k in DominationKind), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=FORMATS, default="edgelist")

    p = sub.add_parser("check-set", help="validate a candidate set")
    p.add_argument("--kind", choices=sorted(k.value for k in DominationKind), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--set", dest="candidate", required=True, help="comma list, e.g. 0,2,5")
    p.add_argument("--format", choices=FORMATS, default="edgelist")

    p = sub.add_parser("generate", help="build a named family member")
    p.add_argument("--family", required=True, help="e.g. T(4), H(3), L(13), C10', P7")
    p.add_argument("--out")
    p.add_argument("--format", choices=FORMATS, default="edgelist")

    p = sub.add_parser("construct", help="bounded DTD-set for a claw-free graph")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=FORMATS, default="edgelist")
    p.add_argument("--greedy", action="store_true", help="greedy baseline instead")

    p = sub.add_parser("verify", help="run a theorem checker")
    p.add_argument("--theorem", choices=list(_THEOREMS), required=True)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--corpus", default=None, help="graph6 file for deeper orders")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, 1..usable cores")
    p.add_argument("--report", choices=["json", "text"], default="text")

    p = sub.add_parser("enumerate", help="stream non-isomorphic graphs as graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="klass", choices=["all", "clawfree", "trees"], default="all")
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, 1..usable cores")

    p = sub.add_parser("convert", help="translate between graph file formats")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format-in", choices=FORMATS, required=True)
    p.add_argument("--format-out", choices=FORMATS, required=True)
    p.add_argument("--out")
    return parser


def _cmd_compute(args) -> int:
    g = load_graph(args.infile, args.format)
    res = exact_number(g, DominationKind(args.kind))
    print(res.value)
    print(_witness_str(res.witness))
    return 0


def _cmd_check_set(args) -> int:
    g = load_graph(args.infile, args.format)
    uncovered = _uncovered(g, _parse_set(args.candidate, g.n), DominationKind(args.kind))
    if not uncovered:
        print("valid")
        return 0
    print("invalid")
    print("uncovered: " + _witness_str(uncovered))
    return 1


def _cmd_generate(args) -> int:
    g = generate_named(args.family)
    _emit(dump_graph(g, args.format), args.out)
    return 0


def _cmd_construct(args) -> int:
    g = load_graph(args.infile, args.format)
    if args.greedy:
        witness = greedy_dtd(g)
        tag = "greedy"
    else:
        witness, tag = construct_dtd_clawfree(g)
    print(len(witness))
    print(_witness_str(witness))
    print(tag)
    return 0


def _jobs(args) -> int:
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # macOS and Windows have no affinity call
        cores = os.cpu_count() or 1
    if not 1 <= args.jobs <= cores:
        raise GraphInputError(f"--jobs must lie in 1..{cores}, got {args.jobs}")
    return args.jobs


def _cmd_verify(args) -> int:
    check = _THEOREMS[args.theorem]
    kwargs = {"jobs": _jobs(args)}
    accepted = inspect.signature(check).parameters
    for option, name in (("--max-n", "max_n"), ("--corpus", "corpus")):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            raise GraphInputError(f"{option} does not apply to --theorem {args.theorem}")
        kwargs[name] = value
    report = check(**kwargs)
    sys.stdout.write(emit_report(report, args.report))
    if args.report == "json":
        sys.stdout.write("\n")
    return 0 if report.passed else 1


def _cmd_enumerate(args) -> int:
    jobs = _jobs(args)
    if args.klass == "trees":
        stream = sweep(free_trees(args.n), to_graph6, jobs)
    else:
        clawfree = args.klass == "clawfree"
        stream = (g6 for _, g6 in walk_levels(args.n, args.n, clawfree, to_graph6, jobs))
    lines = sorted(stream)
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_convert(args) -> int:
    g = load_graph(args.infile, args.format_in)
    _emit(dump_graph(g, args.format_out), args.out)
    return 0


_DISPATCH = {
    "compute": _cmd_compute,
    "check-set": _cmd_check_set,
    "generate": _cmd_generate,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "convert": _cmd_convert,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
