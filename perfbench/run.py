"""Closed-loop benchmark of qmdp: one client, one query at a time.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload garnet --seed 3 --seconds 20 --trace 0

A query is one ``solve_quantile`` call on a problem loaded from JSON,
followed by what ``qmdp eval`` does with the answer: save the policy, load
it back and compute its exact wealth distribution.  Every answer is
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The line before it records the run environment and the
sample count of every metric.  Exits with code 2, printing no result, when
the checkout has no ``src/qmdp`` to measure.  See README.md.
"""

import argparse
import sys

import bootstrap

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        bootstrap.use_source_tree()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import bench   # imports numpy and qmdp: only after the bootstrap
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
