"""Set up a run's problems in a fresh interpreter, as one CLI invocation would.

Usage::

    python3 perfbench/setup_once.py <workload> <directory>

``bench.py`` times this process from start to exit: interpreter start,
importing qmdp, then generating, validating and round-tripping through
JSON every problem of the workload.  That wall time is ``setup_s``.
"""

import sys
from pathlib import Path

import bootstrap


def main(argv):
    name, directory = argv
    bootstrap.use_source_tree()
    import bench   # imports numpy and qmdp: only after the bootstrap
    bench.set_up(bench.WORKLOADS[name], Path(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
