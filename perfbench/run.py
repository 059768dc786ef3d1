"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 30 --trace 0

Pins the BLAS/OpenMP thread pools to one thread before NumPy loads, puts
the repository's ``src`` on the import path and hands over to
:func:`perfbench.bench.main`. Exits with status 2, printing no result, when
the library sources are not there.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import os
import sys

from pathlib import Path

THREADS = "1"  # one call at a time on one core; m <= 129 gains nothing from more

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "spectral_sdp" / "__init__.py").is_file():
        print(f"spectral_sdp sources not found under {root / 'src'}", file=sys.stderr)
        sys.exit(2)
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = THREADS
    sys.path[:0] = [str(root / "src"), str(root)]

    from perfbench import bench

    sys.exit(bench.main(sys.argv[1:], STARTED))
