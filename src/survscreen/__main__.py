"""Entry point of ``python -m survscreen`` and the ``survscreen`` command.

Unless the user has set one of ``BLAS_THREAD_VARS``, ``main`` sets all of
them to 1 before numpy loads. OpenBLAS otherwise starts a thread pool of
one thread per extra CPU when numpy is imported, and each of those
threads spins idle for about 0.13 s; survscreen never uses them, since
its parallelism is forked processes and its sums run in numpy's own
loops. Outputs do not depend on the BLAS thread count either way.
Importing this module, ``survscreen`` or ``survscreen.cli`` leaves
``os.environ`` alone; only ``main`` sets it.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
