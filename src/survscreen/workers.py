"""Ordered maps over forked worker processes, and how many to use.

The scorer makes many small numpy calls that hold the interpreter lock, so
threads barely overlap them; processes do. ``fork_map`` forks its workers
straight from the caller, with no process pool: each inherits the caller's
memory (the function, its tasks, the calibration cache, any patched name),
is handed task indices one at a time over a pipe, and sends back each
result pickled. A fork costs a few milliseconds where a pool costs tens,
so a single ``screen`` can afford one.

``default_jobs`` is the one automatic worker count: ``$SURVSCREEN_JOBS``
when set, otherwise the number of CPUs this process may run on (its
affinity mask, so ``taskset`` or a pinned job is respected; the logical
core count where the platform has no mask), and never more than those
CPUs. ``simulate``'s default, the reader's split and the scorer's split
all take it; a map inside a worker runs in that worker.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys

JOBS_ENV_VAR = "SURVSCREEN_JOBS"

_INDEX = struct.Struct("<Q")
_ABRUPT = "a worker process ended abruptly (killed by a signal or out of memory)"

#: True in a process that ``fork_map`` forked; set there and nowhere else.
_in_worker = False


def default_jobs() -> int:
    """$SURVSCREEN_JOBS when set, else the CPUs this process may use, and never more
    than those CPUs; ValueError if the variable is not a positive integer."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw is None:
        return usable
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV_VAR} must be a positive integer, got {raw!r}")
    return min(jobs, usable)


def fork_map(fn, tasks: list[tuple], jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, in task order, over at most
    ``min(jobs, len(tasks))`` forked worker processes.

    ``fn`` and the tasks reach the workers by fork, so ``fn`` may be a
    closure; each result must pickle. Tasks are handed out one at a time in
    order, and never run in the caller. When a call raises, no further task
    is handed out, the tasks already running finish, and the error of the
    lowest task index propagates: the error the serial loop would raise. A
    worker that ends abruptly (killed by a signal or out of memory) counts
    as an ``OSError`` at its task. Every worker has exited and been waited
    for when this returns or raises. Runs in the caller when that bound is
    1, inside a worker, or where the platform has no ``os.fork``.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1 or _in_worker or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]

    import select

    results: list = [None] * len(tasks)
    errors: dict[int, BaseException] = {}
    children: list[_Child] = []
    handed = 0
    busy = select.poll()

    def hand_next(child: _Child) -> None:
        nonlocal handed
        if not errors and handed < len(tasks):
            try:
                child.tasks.write(_INDEX.pack(handed))
                child.task = handed
                busy.register(child.results, select.POLLIN)
            except BrokenPipeError:  # the worker is gone
                errors[handed] = OSError(_ABRUPT)
            handed += 1
        if child.task is None:
            child.tasks.close()  # which the worker reads as the end of its work

    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(workers):
            children.append(_Child(fn, tasks, children))
        for child in children:
            hand_next(child)
        by_fd = {child.results.fileno(): child for child in children}
        while any(child.task is not None for child in children):
            # A pipe has at most one result in flight, since a worker writes
            # nothing until it is handed its next index; so each ``load``
            # leaves its file's buffer empty, and poll sees every result.
            for fd, _ in busy.poll():
                child = by_fd[fd]
                busy.unregister(fd)
                try:
                    ok, value = pickle.load(child.results)
                except (EOFError, pickle.UnpicklingError):  # the worker died before or mid-write
                    ok, value = False, OSError(_ABRUPT)
                (results if ok else errors)[child.task] = value
                child.task = None
                hand_next(child)
    finally:
        for child in children:
            child.wait(kill=child.task is not None)
    if errors:
        raise errors[min(errors)]
    return results


class _Child:
    """One forked worker and the caller's ends of its two pipes: task indices
    go down the unbuffered ``tasks``, pickled results up the buffered ``results``."""

    def __init__(self, fn, tasks, siblings):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        self.tasks = os.fdopen(task_w, "wb", buffering=0)
        self.results = os.fdopen(result_r, "rb")
        self.task = None
        try:
            self.pid = os.fork()
        except OSError:
            self.close()
            os.close(task_r)
            os.close(result_w)
            raise
        if self.pid == 0:
            code = 1
            try:
                for child in [self, *siblings]:
                    child.close()
                _serve(fn, tasks, os.fdopen(task_r, "rb", buffering=0), os.fdopen(result_w, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)

    def close(self) -> None:
        """Close the caller's ends of both pipes."""
        self.tasks.close()
        self.results.close()

    def wait(self, kill: bool) -> None:
        """Close both pipes and wait for the worker, killing it first if ``kill``."""
        self.close()
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _serve(fn, tasks, task_file, result_file) -> None:
    """A worker's loop: run each task index read from ``task_file`` and write its
    pickled ``(ok, value)`` to ``result_file``, until the caller closes the task pipe."""
    global _in_worker
    _in_worker = True
    while index := task_file.read(_INDEX.size):
        task = tasks[_INDEX.unpack(index)[0]]
        try:
            # Pickled whole first, so a result that fails to pickle writes nothing.
            payload = pickle.dumps((True, fn(*task)), protocol=5)
        except Exception as exc:  # raised again in the caller, in task order
            payload = _pickled_error(exc)
        result_file.write(payload)
        result_file.flush()


def _pickled_error(exc: Exception) -> bytes:
    try:
        return pickle.dumps((False, exc))
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
