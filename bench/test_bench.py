"""Tests of the benchmark itself: `python3 -m pytest bench`."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from dtdom import constructor, domination, enumeration

BENCH_DIR = Path(__file__).resolve().parent
EXACT_UNITS = {"count", "calls/graph", "nodes/call"}


def _run(*args: str):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[-2], json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["sweep-constructor", "single-large"])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    digest1, first = _run(*args)
    digest2, second = _run(*args)
    assert first["correct"] and second["correct"]
    assert digest1 == digest2
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert "constructor.route.proof-path" in counts and "domination.solver_nodes" in counts
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    if workload == "sweep-constructor":
        # every child reaches exceptional_member twice (the benchmark's own
        # guard, then the constructor's), and each call builds the six
        # exceptional graphs afresh
        assert counts["families.exceptional_member.calls_per_graph"] == 2.0
        assert counts["families.generate.calls_per_graph"] == 12.0
        assert counts["enumeration.children"] > 0


def _drop_one(witness):
    return frozenset(sorted(witness)[1:])


def test_corrupted_constructor_witness_is_a_failed_item(monkeypatch):
    parents = enumeration.level_rows(8, True)[:20]
    with_children = sum(1 for p in parents if enumeration.accepted_children(p, True))
    assert workloads.run_sweep(parents).failed == 0
    monkeypatch.setattr(constructor, "construct_dtd_clawfree", lambda g: (frozenset(), "proof-path"))
    tally = workloads.run_sweep(parents)
    assert tally.attempted == 20
    assert tally.failed == with_children > 0


def test_corrupted_solver_witness_is_a_failed_request(monkeypatch):
    real = domination.exact_number

    def corrupted(g, kind):
        res = real(g, kind)
        return domination.SolveResult(res.kind, res.value, _drop_one(res.witness), res.explored)

    reqs = [r for r in workloads.single_inputs(seed=1, seconds=1) if r.kinds][:5]
    assert workloads.run_single(reqs).failed == 0
    monkeypatch.setattr(domination, "exact_number", corrupted)
    tally = workloads.run_single(reqs)
    assert tally.attempted == len(reqs)
    assert tally.failed == len(reqs)


def test_missing_program_fails_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in ("run.py", "workloads.py", "tracing.py", "child.py"):
        (bench / f).write_text((BENCH_DIR / f).read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
