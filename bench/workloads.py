"""Inputs, runners and output checks of the dtdom benchmark workloads.

The program is imported from ``src/`` of the checkout this file lives in,
never from an installed copy.  Every call into dtdom goes through a module
attribute (``constructor.construct_dtd_clawfree``, ...), so the tracer in
``tracing.py`` sees the benchmark's own calls as well as the program's.

How much work a run does is a function of ``--seed`` and ``--seconds``
alone (sized so that the seed commit needs about ``--seconds`` seconds on
the reference machine), so the output digest is the same on every run of
one seed and changes only when an output changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "dtdom" / "__init__.py").is_file():
    raise ImportError(f"dtdom sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import dtdom  # noqa: E402
from dtdom import constructor, domination, enumeration, families, graph, verify  # noqa: E402

if Path(dtdom.__file__).resolve().parent != SRC / "dtdom":
    raise ImportError(f"dtdom imported from {dtdom.__file__}, not from {SRC}")

# Frozen outputs of the seed commit.
CLAWFREE_COUNTS = (1, 1, 2, 5, 14, 50, 191, 881, 4494, 26389)  # orders 1..10
VERIFY_REPORT = {
    "theorem": "clawfree-bound",
    "universe": "connected claw-free graphs, 2 <= n <= 10 (builtin)",
    "checked": 32027,
    "violations": [],
    "equality_cases": [
        ["FHEI?", "S-list"],
        ["FHEM?", "S-list"],
        ["FGMY?", "S-list"],
        ["FGM[?", "H(1)"],
        ["FgC{?", "S-list"],
        ["FaK{?", "S-list"],
    ],
    "counts": {"equality": 6, "exceptional": 6},
    "status": "pass",
}
EXCEPTIONAL_ORDERS = frozenset((2, 3, 5, 6, 10))  # P2, P3, P5, P6, C3, G(3)

# Work per second of --seconds, calibrated on the seed commit.
SWEEP_PARENTS_PER_S = 300  # order-10 parents
VERIFY_CALL_S = 10.5  # one max_n=10 verify call, jobs=2
SINGLE_CHORD_GRAPHS_PER_S = 18  # cycle-plus-chords graphs, one request for all three numbers
SINGLE_LEAFY_PER_S = 2  # leafy claw-free constructor requests
SINGLE_NAMED_EVERY_S = 10  # one copy of the named request set per 10 s

DOM = domination.DominationKind.DOMINATION
TDOM = domination.DominationKind.TOTAL_DOMINATION
DTD = domination.DominationKind.DISJUNCTIVE_TOTAL_DOMINATION
KIND_TAGS = {DOM: "dom", TDOM: "tdom", DTD: "dtd"}


def verify_jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# -- independent output predicates -------------------------------------------------
# Written from the definitions on bitmask rows, sharing no code with dtdom.


def _mask(vertices, n: int) -> Optional[int]:
    m = 0
    for v in vertices:
        if not 0 <= v < n:
            return None
        m |= 1 << v
    return m


def _distance2(rows: Sequence[int], v: int) -> int:
    reach = 0
    r = rows[v]
    while r:
        low = r & -r
        r ^= low
        reach |= rows[low.bit_length() - 1]
    return reach & ~rows[v] & ~(1 << v)


def satisfies(kind, rows: Sequence[int], vertices) -> bool:
    """Does ``vertices`` dominate / totally dominate / DTD-dominate ``rows``?"""
    n = len(rows)
    s = _mask(vertices, n)
    if s is None:
        return False
    for v in range(n):
        if rows[v] & s:
            continue
        if kind is DOM and s >> v & 1:
            continue
        if kind is DTD and (_distance2(rows, v) & s).bit_count() >= 2:
            continue
        return False
    return True


# -- tallies -------------------------------------------------------------------------


@dataclass
class Tally:
    """Per-item times, failure count, graph count and the output digest."""

    times: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    graphs: int = 0
    failures: List[str] = field(default_factory=list)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def record(self, elapsed: float, ok: bool, label: str, output_lines: List[str]) -> None:
        self.times.append(elapsed)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(label)
        for line in output_lines:
            self._digest.update(line.encode())
            self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _witness_str(vertices) -> str:
    return ",".join(map(str, sorted(vertices)))


def _rows_str(rows: Sequence[int]) -> str:
    return ".".join(format(r, "x") for r in rows)


# -- sweep-constructor -------------------------------------------------------------
# The per-parent path of the exhaustive 4n/7 constructor sweep at order 11.


def sweep_inputs(seed: int, seconds: int) -> List[Tuple[int, ...]]:
    """Seeded sample of order-10 claw-free parents (builds levels 1..10)."""
    rows10 = enumeration.level_rows(10, True)
    counts = tuple(len(enumeration.level_rows(n, True)) for n in range(1, 11))
    if counts != CLAWFREE_COUNTS:
        raise RuntimeError(f"claw-free class counts {counts} != frozen {CLAWFREE_COUNTS}")
    return random.Random(seed).sample(rows10, max(1, SWEEP_PARENTS_PER_S * seconds))


def sweep_parent(parent: Tuple[int, ...]):
    """The timed item: expand one parent and build a witness for each child."""
    out = []
    for rows in enumeration.accepted_children(parent, True):
        g = graph.Graph.from_bits(len(rows), rows)
        if families.exceptional_member(g) is not None:
            out.append((rows, None, "exceptional", True))
            continue
        witness, tag = constructor.construct_dtd_clawfree(g)
        ok = domination.is_dtd_set(g, witness) and 7 * len(witness) <= 4 * g.n
        out.append((rows, witness, tag, ok))
    return out


def run_sweep(parents: Sequence[Tuple[int, ...]]) -> Tally:
    tally = Tally()
    for parent in parents:
        t0 = perf_counter()
        try:
            children = sweep_parent(parent)
        except Exception as exc:  # a crash on one item is a failed item
            tally.record(perf_counter() - t0, False, f"{_rows_str(parent)}: {exc!r}", [])
            continue
        elapsed = perf_counter() - t0
        ok = True
        lines = []
        for rows, witness, tag, program_ok in children:
            n = len(rows)
            if witness is None:
                good = n in EXCEPTIONAL_ORDERS
                lines.append(f"{_rows_str(rows)} exceptional")
            else:
                good = program_ok and 7 * len(witness) <= 4 * n and satisfies(DTD, rows, witness)
                lines.append(f"{_rows_str(rows)} {tag} {_witness_str(witness)}")
            ok = ok and good
        tally.graphs += len(children)
        tally.record(elapsed, ok, _rows_str(parent), lines)
    return tally


# -- single-large ----------------------------------------------------------------------
# One client, closed loop, one graph per request, as `dtdom compute` and
# `dtdom construct` see them.


@dataclass(frozen=True)
class Request:
    label: str
    g: "graph.Graph"
    kinds: Tuple = ()  # exact numbers asked for; empty asks for the constructor
    expected: Optional[int] = None  # reference DTD value, where the paper gives one


def _cycle_plus_chords(rng: random.Random, n: int, chords: int) -> "graph.Graph":
    """C_n plus long chords, one starting in each of ``chords`` equal arcs.

    Spreading the chords keeps solver cost within a narrow band for a
    given (n, chords); freely placed chords make it vary several-fold.
    """
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    arc = n / chords
    while len(edges) < n + chords:
        j = len(edges) - n
        u = int((j + rng.random()) * arc) % n
        v = (u + rng.randint(n // 4, n // 2)) % n
        e = (min(u, v), max(u, v))
        if e[1] - e[0] in (1, n - 1) or e in edges:
            continue
        edges.add(e)
    return graph.Graph(n, sorted(edges))


def _leafy_clawfree(rng: random.Random, target: int) -> "graph.Graph":
    """A tree of cliques in which every vertex lies in at most two cliques
    (so no claw), ending in a pendant edge (so a leaf)."""
    blocks = [0]
    edges = []
    n = 1
    while n < target:
        v = rng.choice([u for u in range(n) if blocks[u] < 2])
        size = 2 if n == target - 1 else min(rng.choice((2, 2, 3, 4)), target - n)
        members = [v] + list(range(n, n + size - 1))
        edges += [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
        blocks[v] += 1
        blocks += [1] * (size - 1)
        n += size - 1
    return graph.Graph(n, edges)


def _named_requests() -> List[Request]:
    out = []
    for name in [f"H({t})" for t in range(1, 8)] + ["L(13)", "L(14)"]:
        fid = families.parse_family_id(name)
        out.append(Request(f"construct {name}", families.generate(fid),
                           expected=families.dtd_reference_value(fid)))
    h4 = families.parse_family_id("H(4)")
    out += [
        Request("dtd C30", families.generate_named("C30"), (DTD,), domination.dtd_cycle_formula(30)),
        Request("dtd P30", families.generate_named("P30"), (DTD,), domination.dtd_path_formula(30)),
        Request("dtd H(4)", families.generate(h4), (DTD,), families.dtd_reference_value(h4)),
    ]
    return out


def single_inputs(seed: int, seconds: int) -> List[Request]:
    rng = random.Random(seed)
    reqs: List[Request] = []
    for _ in range(max(1, round(seconds / SINGLE_NAMED_EVERY_S))):
        reqs += _named_requests()
    for i in range(max(1, SINGLE_CHORD_GRAPHS_PER_S * seconds)):
        # Orders and chord counts follow a fixed schedule over a narrow band
        # and only the chord positions are seeded: solver cost grows about
        # 1.3x per vertex, so a wide or random band of orders makes the
        # latency percentiles depend on the seed more than on the program.
        n, chords = 24 + i % 4, 1 + (i // 4) % 4
        g = _cycle_plus_chords(rng, n, chords)
        reqs.append(Request(f"numbers chords#{i} n={n}", g, (DOM, TDOM, DTD)))
    for i in range(max(1, SINGLE_LEAFY_PER_S * seconds)):
        g = _leafy_clawfree(rng, rng.randint(20, 34))
        reqs.append(Request(f"construct leafy#{i} n={g.n}", g))
    rng.shuffle(reqs)
    return reqs


def single_request(req: Request):
    """The timed item: one request, answered as the CLI would.

    Returns ``(kind, value, witness, tag)`` per answer; a constructor
    request answers with the DTD-set it built and its route tag.
    """
    if not req.kinds:
        witness, tag = constructor.construct_dtd_clawfree(req.g)
        return [(DTD, len(witness), witness, tag)]
    return [(kind, res.value, res.witness, None)
            for kind, res in ((k, domination.exact_number(req.g, k)) for k in req.kinds)]


def _single_ok(req: Request, answers) -> bool:
    rows = req.g.bits
    values = {}
    for kind, value, witness, _ in answers:
        if not (satisfies(kind, rows, witness) and len(witness) == value):
            return False
        values[kind] = value
    if not req.kinds and 7 * values[DTD] > 4 * req.g.n:
        return False
    if req.expected is not None and values[DTD] != req.expected:
        return False
    # both dominate no more than a total dominating set needs
    return TDOM not in values or max(values.get(DOM, 0), values.get(DTD, 0)) <= values[TDOM]


def run_single(reqs: Sequence[Request]) -> Tally:
    tally = Tally()
    for req in reqs:
        t0 = perf_counter()
        try:
            answers = single_request(req)
        except Exception as exc:  # a crash on one request is a failed request
            tally.record(perf_counter() - t0, False, f"{req.label}: {exc!r}", [])
            continue
        elapsed = perf_counter() - t0
        tally.graphs += 1
        lines = [f"{req.label} {KIND_TAGS[kind]} {value} {tag} {_witness_str(witness)}"
                 for kind, value, witness, tag in answers]
        tally.record(elapsed, _single_ok(req, answers), req.label, lines)
    return tally


# -- verify-clawfree ------------------------------------------------------------------
# `dtdom verify --theorem clawfree --max-n 10`: each call is a fresh
# interpreter, so it pays for enumerating every level from a cold cache.


def verify_calls(seconds: int) -> int:
    return max(3, round(seconds / VERIFY_CALL_S))


def verify_report(jobs: int) -> Dict:
    """One in-process verify call: the report as JSON, without elapsed_ms."""
    report = json.loads(verify.emit_report(verify.check_clawfree_theorem(max_n=10, jobs=jobs)))
    report.pop("elapsed_ms")
    return report


def _run_child(*args: str) -> Dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verify_call_in_child(jobs: int) -> Tuple[float, float, Dict]:
    """One verify call in a fresh interpreter.

    Returns (wall seconds seen from here, seconds inside the call, report).
    """
    t0 = perf_counter()
    out = _run_child("verify", "--jobs", str(jobs))
    return perf_counter() - t0, out["call_s"], out["report"]


def record_verify_call(tally: Tally, wall: float, report: Dict) -> None:
    ok = report == VERIFY_REPORT
    checked = report.get("checked", 0)
    tally.times.append(wall)
    tally.attempted += VERIFY_REPORT["checked"]
    tally.graphs += checked
    if not ok:
        tally.failed += VERIFY_REPORT["checked"]
        tally.failures.append(f"report differs from frozen: {json.dumps(report)[:300]}")
    tally._digest.update(json.dumps(report, sort_keys=True).encode())


def build_inputs(workload: str, seed: int, seconds: int):
    """The workload's set-up: its inputs (verify-clawfree has none; the
    program enumerates its own universe inside the timed call)."""
    if workload == "sweep-constructor":
        return sweep_inputs(seed, seconds)
    if workload == "single-large":
        return single_inputs(seed, seconds)
    if workload == "verify-clawfree":
        return None
    raise ValueError(f"unknown workload {workload!r}")


def setup_in_child(workload: str, seed: int, seconds: int) -> float:
    """Import plus input generation, timed inside a fresh interpreter."""
    return _run_child("setup", workload, str(seed), str(seconds))["setup_s"]
