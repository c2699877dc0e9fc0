import os
import time

import pytest

from survscreen import workers
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

        def task(i):
            inner = fork_map(lambda j: os.getpid(), [(0,), (1,)], 2)
            return os.getpid(), inner, default_jobs()

        results = fork_map(task, [(0,), (1,), (2,)], 2)
        assert default_jobs() == 2
        for pid, inner, jobs in results:
            assert pid != os.getpid()
            assert inner == [pid, pid]
            assert jobs == 1
        assert_no_child_left()

    def test_one_task_or_one_job_runs_in_the_caller(self):
        caller = os.getpid()
        assert fork_map(lambda: os.getpid(), [()], 4) == [caller]
        assert fork_map(lambda: os.getpid(), [(), ()], 1) == [caller, caller]


class TestDefaultJobs:
    def test_environment_variable_or_core_count(self, monkeypatch):
        monkeypatch.delenv(workers.JOBS_ENV_VAR, raising=False)
        assert default_jobs() == (os.cpu_count() or 1)
        monkeypatch.setenv(workers.JOBS_ENV_VAR, "3")
        assert default_jobs() == 3

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", ""])
    def test_bad_value_named(self, monkeypatch, raw):
        monkeypatch.setenv(workers.JOBS_ENV_VAR, raw)
        with pytest.raises(ValueError, match=f"must be a positive integer, got {raw!r}"):
            default_jobs()
