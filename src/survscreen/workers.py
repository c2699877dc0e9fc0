"""An ordered map over forked worker processes, for the replications of
``evaluate.run_experiment``.

The scorer makes many small numpy calls that hold the interpreter lock, so
threads barely overlap them; processes do. Workers are forked so that they
inherit the caller's memory: the function to apply, the calibration cache
and any patched name. Only task arguments and
results are pickled. The pool forks its workers before it starts its
manager thread.
"""

from __future__ import annotations

import os

#: The function a worker applies, set by ``_install`` in each worker; None in the caller.
_fn = None


def _install(fn) -> None:
    global _fn
    _fn = fn


def _call(args: tuple):
    return _fn(*args)


def fork_map(fn, tasks: list[tuple], jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, in task order, over at most
    ``min(jobs, len(tasks))`` forked worker processes.

    ``fn`` reaches the workers by inheritance, so it may be a closure; each
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
        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install,
            initargs=(fn,),
        ) as pool:
            return list(pool.map(_call, tasks))
    except BrokenExecutor as exc:
        raise OSError(
            "a worker process ended abruptly (killed by a signal or out of memory)"
        ) from exc
