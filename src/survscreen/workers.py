"""Ordered maps over forked worker processes, and how many to use.

The scorer makes many small numpy calls that hold the interpreter lock, so
threads barely overlap them; processes do. ``fork_map`` forks its workers
straight from the caller, with no process pool: each inherits the caller's
memory (the function, its tasks, the calibration cache, any patched name),
is handed task indices one at a time over a pipe, and sends back each
result pickled, numpy buffers out of band. A fork costs a few milliseconds
where a pool costs tens, so a single ``screen`` can afford one.

``default_jobs`` is the one worker-count policy: ``$SURVSCREEN_JOBS`` when
set, otherwise the number of CPUs this process may run on (its affinity
mask, so ``taskset`` or a pinned job is respected; the logical core count
where the platform has no mask), and 1 inside a worker, so work that is
already split is not split again.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys

JOBS_ENV_VAR = "SURVSCREEN_JOBS"

_SIZE = struct.Struct("<Q")
_ABRUPT = "a worker process ended abruptly (killed by a signal or out of memory)"

#: True in a process that ``fork_map`` forked; set there and nowhere else.
_in_worker = False


def default_jobs() -> int:
    """$SURVSCREEN_JOBS when set, else the CPUs this process may use, and 1 inside
    a ``fork_map`` worker; ValueError if the variable is not a positive integer."""
    if _in_worker:
        return 1
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV_VAR} must be a positive integer, got {raw!r}")
    return jobs


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
            if child.hand(handed):
                busy.register(child.results, select.POLLIN)
            else:
                errors[handed] = OSError(_ABRUPT)
            handed += 1
        if child.task is None:
            child.stop()

    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for _ in range(workers):
            children.append(_Child(fn, tasks, children))
        for child in children:
            hand_next(child)
        by_fd = {child.results: child for child in children}
        while any(child.task is not None for child in children):
            for fd, _ in busy.poll():
                child = by_fd[fd]
                busy.unregister(fd)
                try:
                    ok, value = child.receive()
                except EOFError:
                    ok, value = False, OSError(_ABRUPT)
                if ok:
                    results[child.task] = value
                else:
                    errors[child.task] = value
                child.task = None
                hand_next(child)
    finally:
        for child in children:
            child.close(kill=child.task is not None)
    if errors:
        raise errors[min(errors)]
    return results


class _Child:
    """One forked worker and the caller's ends of its two pipes: task indices
    go down ``tasks``, pickled results come back up ``results``."""

    def __init__(self, fn, tasks, siblings):
        task_r, self.tasks = os.pipe()
        self.results, result_w = os.pipe()
        self.task = None
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, self.tasks, self.results, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                for fd in [self.tasks, self.results] + [
                    fd for sibling in siblings for fd in (sibling.tasks, sibling.results)
                ]:
                    os.close(fd)
                _serve(fn, tasks, task_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)

    def hand(self, index: int) -> bool:
        """Send task ``index``; False when the worker is gone."""
        try:
            _write_all(self.tasks, _SIZE.pack(index))
        except BrokenPipeError:
            return False
        self.task = index
        return True

    def receive(self):
        """The worker's ``(ok, value)`` for its task; EOFError if it ended first."""
        count = _SIZE.unpack(_read_exact(self.results, _SIZE.size))[0]
        sizes = _SIZE.iter_unpack(_read_exact(self.results, _SIZE.size * count))
        segments = [_read_exact(self.results, size) for (size,) in sizes]
        return pickle.loads(segments[0], buffers=segments[1:])

    def stop(self) -> None:
        """Close the task pipe, which the worker reads as the end of its work."""
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None

    def close(self, kill: bool) -> None:
        """Release both pipes and wait for the worker, killing it first if ``kill``."""
        self.stop()
        os.close(self.results)
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _serve(fn, tasks, task_r: int, result_w: int) -> None:
    """A worker's loop: run each task index read from ``task_r`` and write its
    ``(ok, value)`` to ``result_w``, until the caller closes ``task_r``."""
    global _in_worker
    _in_worker = True
    while True:
        try:
            index = _SIZE.unpack(_read_exact(task_r, _SIZE.size))[0]
        except EOFError:
            return
        buffers: list = []
        try:
            payload = pickle.dumps(
                (True, fn(*tasks[index])), protocol=5, buffer_callback=buffers.append
            )
        except Exception as exc:  # raised again in the caller, in task order
            buffers = []
            payload = _pickled_error(exc)
        segments = [payload] + [buffer.raw() for buffer in buffers]
        header = b"".join(_SIZE.pack(size) for size in [len(segments), *map(len, segments)])
        for segment in [header, *segments]:
            _write_all(result_w, segment)


def _pickled_error(exc: Exception) -> bytes:
    try:
        return pickle.dumps((False, exc))
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _read_exact(fd: int, size: int) -> bytearray:
    """``size`` bytes from ``fd``; EOFError if it closes before the first
    byte or within them."""
    data = bytearray(size)
    view = memoryview(data)
    done = 0
    while done < size:
        got = os.readv(fd, [view[done:]])
        if got == 0:
            raise EOFError
        done += got
    return data


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view) :]
