"""Map a function over independent items in forked worker processes.

``multiprocessing`` and ``concurrent.futures`` are imported on the forked
path only, so importing the package loads neither.
"""

from __future__ import annotations

import os

_worker_call = None  # (fn, items, shared), set in each forked worker only


def _set_worker_call(*call) -> None:
    global _worker_call
    _worker_call = call


def _run_item(i: int):
    fn, items, shared = _worker_call
    return fn(items[i], *shared)


def fork_map(fn, items, *shared) -> list:
    """``[fn(item, *shared) for item in items]``, one forked worker per CPU.

    One worker per CPU the process may run on, capped at the item count;
    with one CPU, one item, no ``fork`` start method or a daemon caller (a
    ``multiprocessing`` pool worker cannot have children) the calls run in
    this process instead. Workers are forked, not spawned: they inherit
    ``fn``, the items, the shared arguments and any patched module function
    without pickling; only item indices and results, which must pickle,
    cross the pipes. The pool forks all its workers before it starts its own
    thread. When an item raises, no further items are handed out, the
    workers are joined and the item's exception is raised here.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers > 1:
        import multiprocessing

        forkable = "fork" in multiprocessing.get_all_start_methods()
        if forkable and not multiprocessing.current_process().daemon:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_set_worker_call,
                initargs=(fn, items, shared),
            )
            try:
                return list(pool.map(_run_item, range(len(items))))
            finally:
                pool.shutdown(cancel_futures=True)
    return [fn(item, *shared) for item in items]
