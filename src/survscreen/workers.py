"""An ordered map over forked worker processes, for the replications of
``evaluate.run_experiment``.

The scorer makes many small numpy calls that hold the interpreter lock, so
threads barely overlap them; processes do. Workers are forked so that they
inherit the caller's memory: the calibration cache and any patched name.
The function to apply is pickled by reference, with each task's arguments
and each result. The pool forks its workers before it starts its manager
thread.
"""

from __future__ import annotations

import os


def fork_map(fn, tasks: list[tuple], jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, in task order, over at most
    ``min(jobs, len(tasks))`` forked worker processes.

    ``fn`` must be a module-level function, which pickles by name; each
    task tuple and each result must pickle. When a call raises, the first
    error in task order propagates and tasks not yet started are cancelled;
    every worker has exited when this returns or raises. A worker that ends
    abruptly (killed by a signal or out of memory) raises ``OSError``. Runs
    in the caller when that bound is 1 or the platform has no ``os.fork``.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]

    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    except BrokenExecutor as exc:
        raise OSError(
            "a worker process ended abruptly (killed by a signal or out of memory)"
        ) from exc
