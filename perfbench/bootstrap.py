"""Point the interpreter at the checkout's own ``src/qmdp`` before numpy loads.

The benchmark measures the program in the tree it sits in, never an
installed copy, and holds BLAS to one thread so that a query's time does
not depend on how many cores the host happens to lend it.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout has no ``src/qmdp`` package to measure."""


def use_source_tree():
    """Cap BLAS threads and put ``<root>/src`` first on ``sys.path``.

    Must run before numpy is imported.  Raises :class:`MissingSource` when
    the program's sources are absent, so that a copy holding only the
    benchmark fails instead of measuring whatever ``qmdp`` is installed.
    """
    if not (SRC / "qmdp" / "__init__.py").is_file():
        raise MissingSource(f"no qmdp sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import qmdp
    if Path(qmdp.__file__).resolve().parent != SRC / "qmdp":
        raise MissingSource(f"imported qmdp from {qmdp.__file__}, not {SRC}")
    return qmdp
