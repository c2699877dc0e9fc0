import ast
import os
import time
from pathlib import Path

import numpy as np
import pytest

from survscreen import dataio, screening, workers
from survscreen.dataio import read_dataset, write_dataset
from survscreen.screening import SurvivalDataset, screen
from survscreen.workers import default_jobs, fork_map

ABRUPT = "a worker process ended abruptly"


def assert_no_child_left():
    # Every worker was waited for: the caller has no child, exited or running.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    def test_closure_runs_in_workers(self):
        offset = 100
        caller = os.getpid()
        results = fork_map(lambda i: (offset + i, os.getpid()), [(i,) for i in range(6)], 2)
        assert [value for value, _ in results] == [100 + i for i in range(6)]
        assert caller not in {pid for _, pid in results}
        assert_no_child_left()

    def test_uneven_tasks_are_handed_out_one_at_a_time_and_return_in_order(self):
        # Task 0 outlasts all the others together, so one worker runs it
        # while the other takes every later task as it comes free.
        def task(i):
            time.sleep(0.5 if i == 0 else 0.01)
            return i * i, os.getpid()

        results = fork_map(task, [(i,) for i in range(8)], 2)
        assert [value for value, _ in results] == [i * i for i in range(8)]
        pids = [pid for _, pid in results]
        assert os.getpid() not in pids
        assert pids[0] not in pids[1:] and len(set(pids[1:])) == 1
        assert_no_child_left()

    def test_lowest_failing_task_wins_and_no_task_starts_after_an_error(self, tmp_path):
        # Task 3 fails first, while task 1 is still running; task 1's error
        # is the one the serial loop would raise.
        def task(i):
            (tmp_path / f"started{i}").touch()
            if i == 1:
                time.sleep(0.5)
                raise KeyError("task 1")
            if i == 3:
                raise ValueError("task 3")
            return i

        with pytest.raises(KeyError, match="task 1"):
            fork_map(task, [(i,) for i in range(8)], 2)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"started{i}" for i in range(4)
        ]
        assert_no_child_left()

    def test_killed_worker_raises_oserror_and_leaves_no_child(self):
        caller = os.getpid()

        def task(i):
            if os.getpid() == caller:
                raise AssertionError("a task ran in the caller")
            if i == 2:
                os._exit(9)
            return i

        with pytest.raises(OSError, match=ABRUPT):
            fork_map(task, [(i,) for i in range(6)], 2)
        assert_no_child_left()

    def test_unpicklable_result_raises_in_the_caller(self):
        with pytest.raises(Exception, match="pickle"):
            fork_map(lambda i: (lambda: i), [(0,), (1,)], 2)
        assert_no_child_left()

    def test_nested_map_and_default_jobs_run_in_the_worker(self, monkeypatch):
        monkeypatch.setenv(workers.JOBS_ENV_VAR, "2")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def task(i):
            inner = fork_map(lambda j: os.getpid(), [(0,), (1,)], 2)
            return os.getpid(), inner, default_jobs()

        results = fork_map(task, [(0,), (1,), (2,)], 2)
        assert default_jobs() == 2
        for pid, inner, jobs in results:
            assert pid != os.getpid()
            assert inner == [pid, pid]
            assert jobs == 2  # counted as in the caller; the nested map ran serially anyway
        assert_no_child_left()

    def test_one_task_or_one_job_runs_in_the_caller(self):
        caller = os.getpid()
        assert fork_map(lambda: os.getpid(), [()], 4) == [caller]
        assert fork_map(lambda: os.getpid(), [(), ()], 1) == [caller, caller]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    @pytest.mark.parametrize("ending", ["returns", "raises", "exits"])
    def test_every_descriptor_is_closed_however_the_map_ends(self, ending):
        def task(i):
            if i == 2 and ending == "raises":
                raise KeyError("task 2")
            if i == 2 and ending == "exits":
                os._exit(9)
            return i

        before = sorted(os.listdir("/proc/self/fd"))
        if ending == "returns":
            assert fork_map(task, [(i,) for i in range(6)], 2) == list(range(6))
        else:
            with pytest.raises(KeyError if ending == "raises" else OSError):
                fork_map(task, [(i,) for i in range(6)], 2)
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_child_left()

    def test_results_larger_than_the_pipe_and_file_buffers_come_back_bit_identical(self):
        # 8 MiB each, far above a 64 KiB pipe and an 8 KiB file buffer.
        def task(i):
            return np.random.default_rng(i).standard_normal(1 << 20)

        results = fork_map(task, [(i,) for i in range(4)], 2)
        assert [r.tobytes() for r in results] == [task(i).tobytes() for i in range(4)]
        assert_no_child_left()

    def test_fortran_ordered_result_keeps_its_order_and_values(self):
        def task(i):
            return np.asfortranarray(np.random.default_rng(i).standard_normal((300, 7)))

        for i, result in enumerate(fork_map(task, [(0,), (1,)], 2)):
            assert result.flags.f_contiguous and not result.flags.c_contiguous
            assert result.tobytes(order="A") == task(i).tobytes(order="A")
        assert_no_child_left()


class TestDefaultJobs:
    def test_environment_variable_or_core_count(self, monkeypatch):
        monkeypatch.delenv(workers.JOBS_ENV_VAR, raising=False)
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert default_jobs() == usable
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setenv(workers.JOBS_ENV_VAR, "3")
        assert default_jobs() == 3

    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        # Under `taskset -c 0` the host still has all its cores, but the
        # process may run on one of them. Nothing is forked here.
        monkeypatch.delenv(workers.JOBS_ENV_VAR, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_jobs() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_jobs() == 8

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", ""])
    def test_bad_value_named(self, monkeypatch, raw):
        monkeypatch.setenv(workers.JOBS_ENV_VAR, raw)
        with pytest.raises(ValueError, match=f"must be a positive integer, got {raw!r}"):
            default_jobs()


class TestSplitJobs:
    """The workers of the reader's and the scorer's automatic splits."""

    def test_at_most_the_usable_cpus_whatever_the_variable_asks(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv(workers.JOBS_ENV_VAR, "64")
        assert default_jobs() == 2
        monkeypatch.setenv(workers.JOBS_ENV_VAR, "1")
        assert default_jobs() == 1
        monkeypatch.delenv(workers.JOBS_ENV_VAR)
        assert default_jobs() == 2

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_read_and_score_of_a_split_sized_input_take_at_most_the_usable_cpus(
        self, tmp_path, monkeypatch, cpus
    ):
        # SURVSCREEN_JOBS asks for 64 workers, ranges are one byte and the
        # scoring cut is 0, so even this small file would split. Nothing is
        # forked: the spies run each task in the caller, and os.fork fails the test.
        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setenv(workers.JOBS_ENV_VAR, "64")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(dataio, "RANGE_BYTES", 1)
        monkeypatch.setattr(screening, "SPLIT_ENTRIES", 0)
        handed = {}
        for module in (dataio, screening):
            def spy(fn, tasks, jobs, name=module.__name__):
                handed[name] = jobs
                return [fn(*task) for task in tasks]

            monkeypatch.setattr(module, "fork_map", spy)
        rng = np.random.default_rng(3)
        data = SurvivalDataset(rng.random(40), np.arange(40) % 2, rng.standard_normal((40, 600)))
        write_dataset(tmp_path / "d.csv", data)
        back = read_dataset(tmp_path / "d.csv")
        screen(back)
        assert back.covariates.tobytes() == data.covariates.tobytes()
        if len(cpus) == 1:
            assert handed == {"survscreen.dataio": 1, "survscreen.screening": 1}
        else:
            assert handed == {"survscreen.dataio": 2, "survscreen.screening": 2}


THREADED_MODULES = ("threading", "_thread", "concurrent.futures", "multiprocessing")


def test_package_imports_no_thread_or_pool_module():
    # fork_map's os.fork and simulate's lock-free scale cache both rely on a
    # caller that the package itself has not made multi-threaded.
    found = []
    for path in sorted(Path(workers.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if any(name == m or name.startswith(m + ".") for m in THREADED_MODULES)
            ]
    assert found == []


def _reads_the_jobs_variable(node) -> bool:
    """``os.environ[...]``, ``os.environ.get(...)`` or ``os.getenv(...)`` of SURVSCREEN_JOBS."""
    if isinstance(node, ast.Subscript):
        target, keys = node.value, [node.slice]
    elif isinstance(node, ast.Call):
        target, keys = node.func, node.args[:1]
    else:
        return False
    return ast.unparse(target).startswith(("os.environ", "os.getenv")) and any(
        ast.unparse(key) in (repr(workers.JOBS_ENV_VAR), "JOBS_ENV_VAR", "workers.JOBS_ENV_VAR")
        for key in keys
    )


def test_only_workers_counts_cpus_or_reads_the_jobs_variable():
    # default_jobs is the one automatic worker count: no other module asks
    # the platform for its CPUs or reads $SURVSCREEN_JOBS itself.
    counters = {"sched_getaffinity", "cpu_count"}
    found = []
    for path in sorted(Path(workers.__file__).parent.rglob("*.py")):
        if path.name == "workers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "os":
                hit = node.attr in counters
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                hit = bool(counters & {alias.name for alias in node.names})
            else:
                hit = _reads_the_jobs_variable(node)
            if hit:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
