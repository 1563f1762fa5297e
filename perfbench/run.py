"""Run one workload of the cgmargin benchmark and print its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload aircraft_sweep --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it carries the environment, sample counts and any failed checks; both
are also written to ``.bench_out/``.
"""

import argparse
import sys

import benchenv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    benchenv.bootstrap()
    import harness  # numpy may only be imported after bootstrap()

    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(harness.WORKLOADS)}")
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
