"""Fresh-interpreter helper of run.py.

    python3 bench/child.py setup WORKLOAD SEED SECONDS
        imports dtdom, builds the workload's inputs and prints
        {"setup_s": ...}, timed from before the import.
    python3 bench/child.py verify --jobs J
        runs one verify call (claw-free theorem, max_n=10) on a cold level
        cache and prints {"call_s": ..., "report": {...}}.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("workload")
    setup.add_argument("seed", type=int)
    setup.add_argument("seconds", type=int)
    ver = sub.add_parser("verify")
    ver.add_argument("--jobs", type=int, required=True)
    args = parser.parse_args()

    import workloads

    if args.mode == "setup":
        workloads.build_inputs(args.workload, args.seed, args.seconds)
        print(json.dumps({"setup_s": perf_counter() - _T0}))
        return 0
    t0 = perf_counter()
    report = workloads.verify_report(args.jobs)
    print(json.dumps({"call_s": perf_counter() - t0, "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
