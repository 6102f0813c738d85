"""Independent tasks on one thread per usable CPU, the calling thread among them.

BLAS stays on one thread (``__main__`` pins it), so each task makes the
numpy calls that one thread would make, and a caller whose tasks write
disjoint parts of its output gets the same bytes for any thread count.
The names are private, and the tasks of ``rff`` and ``kmeans`` call no
public dpmix function: the benchmark's tracer wraps public functions
with one span stack per process, so a threaded stage's time stays in
its caller's span.  (``generate``'s tasks call ``rbm.sample_batch``,
whose spans overlap.)
"""
from __future__ import annotations

import os
import threading
from collections import deque


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ranges(n: int, least: int) -> list[slice]:
    """0 to n as contiguous, near-equal slices, one per usable CPU, each of
    at least ``least`` items where n allows: below 2 * least, one slice."""
    parts = max(1, min(_usable_cpus(), n // least))
    bounds = [n * i // parts for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_tasks(work, tasks) -> None:
    """Call ``work(task)`` for every task on ``min(_usable_cpus(), len(tasks))`` threads.

    Tasks are taken in order from one queue; ``popleft`` is atomic, so
    the threads share it without a lock.  The calling thread works too:
    only its malloc arena can reuse the memory that the caller freed
    before.  One task, or one usable CPU, runs inline.  A task's
    exception stops the other threads after their current task and is
    raised here once every helper has been joined.
    """
    pending = deque(tasks)
    errors = []

    def drain():
        try:
            while True:
                try:
                    task = pending.popleft()
                except IndexError:
                    return
                work(task)
        except BaseException as exc:
            pending.clear()
            errors.append(exc)

    helpers = [threading.Thread(target=drain)
               for _ in range(min(_usable_cpus(), len(pending)) - 1)]
    for thread in helpers:
        thread.start()
    drain()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
