"""Thread pinning shared by every benchmark process.

The dense products in hypkonvex run through OpenBLAS, whose helper threads
make wall and CPU time depend on the host's load; every benchmark process
therefore runs single-threaded.  Call ``pin_threads()`` before numpy is
imported: the pools read these variables once, when they start.
"""

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"
