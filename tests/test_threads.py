"""The shared thread helper: every task once, errors raised in the caller."""
import threading

import pytest

from dpmix import threads


def test_every_task_runs_once(monkeypatch):
    monkeypatch.setattr(threads, "_usable_cpus", lambda: 4)
    done, lock = [], threading.Lock()

    def work(task):
        with lock:
            done.append(task)

    threads._run_tasks(work, range(500))
    assert sorted(done) == list(range(500))


def test_one_task_or_one_cpu_runs_inline(monkeypatch):
    ran_on = []
    monkeypatch.setattr(threads, "_usable_cpus", lambda: 4)
    threads._run_tasks(lambda task: ran_on.append(threading.current_thread()), [0])
    monkeypatch.setattr(threads, "_usable_cpus", lambda: 1)
    threads._run_tasks(lambda task: ran_on.append(threading.current_thread()), range(3))
    assert ran_on == [threading.main_thread()] * 4


def test_a_helper_threads_error_is_raised_in_the_caller(monkeypatch):
    # the calling thread holds its first task until a helper has failed on
    # its own first task
    monkeypatch.setattr(threads, "_usable_cpus", lambda: 3)
    failed = threading.Event()

    def work(task):
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=30)
        elif not failed.is_set():
            failed.set()
            raise RuntimeError(f"task {task} failed")

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=r"task \d+ failed"):
        threads._run_tasks(work, range(1000))
    assert threading.active_count() == before  # every helper was joined


@pytest.mark.parametrize("n,least,cpus,sizes", [
    (10, 4, 8, [5, 5]),
    (7, 4, 8, [7]),
    (20_037, 2048, 2, [10_018, 10_019]),
    (20_037, 2048, 3, [6679, 6679, 6679]),
    (0, 4, 2, [0]),
])
def test_ranges_cover_every_item_in_order(monkeypatch, n, least, cpus, sizes):
    monkeypatch.setattr(threads, "_usable_cpus", lambda: cpus)
    ranges = threads._ranges(n, least)
    assert [r.stop - r.start for r in ranges] == sizes
    assert ranges[0].start == 0 and ranges[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))
