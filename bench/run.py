"""dtdom benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload sweep-constructor --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from that
checkout's ``src/``.  With ``--trace 0`` it reports the end-to-end metrics,
measured with no instrumentation.  With ``--trace 1`` it wraps dtdom's
public functions (see ``tracing.py``) and reports per-layer counts and self
times instead.  Either way every output is checked, a digest of all outputs
is printed, and the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from time import perf_counter

SETUP_REPEATS = 3  # fresh interpreters whose set-up time gives setup_s


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def run_measured(workloads, args, setup_s: float, inputs):
    """Untraced run: the end-to-end metrics."""
    w = args.workload
    setup = [setup_s] + [
        workloads.setup_in_child(w, args.seed, args.seconds) for _ in range(SETUP_REPEATS - 1)
    ]
    if w == "sweep-constructor":
        tally = workloads.run_sweep(inputs)
    elif w == "single-large":
        tally = workloads.run_single(inputs)
    else:
        tally = workloads.Tally()
        for _ in range(workloads.verify_calls(args.seconds)):
            wall, _, report = workloads.verify_call_in_child(workloads.verify_jobs())
            workloads.record_verify_call(tally, wall, report)
    busy = sum(tally.times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (tally.attempted / busy, "1/s"),
        "item_ms_p50": (1000 * statistics.median(tally.times), "ms"),
        "item_ms_p90": (1000 * percentile(tally.times, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(
        f"# {w}: {tally.attempted} items, {len(tally.times)} timed, {tally.graphs} graphs, "
        f"{busy:.2f} s busy; setup samples {[round(s, 3) for s in setup]}",
        file=sys.stderr,
    )
    return tally, metrics


def run_traced(workloads, tracing, args, inputs_fn):
    """Traced run: per-layer metrics, plus the tracing overhead against an
    untraced pass over the same inputs in the same process."""
    w = args.workload
    tracer = tracing.Tracer()
    with tracer.installed():
        inputs = inputs_fn()
    if w == "verify-clawfree":
        # One job: pool workers would keep their spans to themselves.
        _, untraced_s, ref_report = workloads.verify_call_in_child(1)
        t0 = perf_counter()
        with tracer.installed():
            report = workloads.verify_report(1)
        traced_s = perf_counter() - t0
        tally = workloads.Tally()
        workloads.record_verify_call(tally, traced_s, report)
        workloads.record_verify_call(tally, untraced_s, ref_report)
        graphs = report.get("checked", 0)
    else:
        runner = workloads.run_sweep if w == "sweep-constructor" else workloads.run_single
        t0 = perf_counter()
        reference = runner(inputs)
        untraced_s = perf_counter() - t0
        t0 = perf_counter()
        with tracer.installed():
            tally = runner(inputs)
        traced_s = perf_counter() - t0
        if reference.digest != tally.digest:
            tally.failed += 1
            tally.failures.append("traced and untraced outputs differ")
        tally.attempted += reference.attempted
        tally.failed += reference.failed
        tally.failures += reference.failures
        graphs = tally.graphs
    spans = tracer.summary()
    print(tracing.format_table(spans), file=sys.stderr)
    metrics = tracing.layer_metrics(tracer, spans, graphs, traced_s / untraced_s - 1.0)
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep-constructor", "verify-clawfree", "single-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    t0 = perf_counter()
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    def inputs_fn():
        return workloads.build_inputs(args.workload, args.seed, args.seconds)

    if args.trace:
        import tracing

        tally, metrics = run_traced(workloads, tracing, args, inputs_fn)
    else:
        inputs = inputs_fn()
        setup_s = perf_counter() - t0
        tally, metrics = run_measured(workloads, args, setup_s, inputs)

    for failure in tally.failures:
        print(f"# FAILED: {failure}", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} seconds={args.seconds} sha256={tally.digest}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
