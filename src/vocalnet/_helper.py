"""One helper thread for the process, for per-clip work cut in two.

run_pair runs one callable on the caller and another on the helper at once
and returns both results. numpy drops the GIL inside most of the calls that
per-clip work makes, so the two sides run on two cores. A run_pair of two
empty callables took 6-10 us, against about 47 us to start and join a fresh
thread (2-core x86-64, py3.11).

The helper starts on first use, and again on first use in a child forked
after that, since a fork keeps only the forking thread. Callers share it and
its tasks run one at a time, in the order they were handed in. It drops each
task before it reports the task done, so nothing a task reached outlives the
call that handed it in.
"""

from __future__ import annotations

import os
import queue
import threading

_start = threading.Lock()
_tasks = None  # the running helper's queue, None until first use


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        task = tasks.get()  # [callable, its result, the call's errors, done]
        try:
            task[1] = task[0]()
        except BaseException as error:
            task[2].append(error)
        done = task[3]
        del task  # before the caller returns, so only it holds the task
        done.release()


def _queue() -> queue.SimpleQueue:
    global _tasks
    with _start:
        if _tasks is None:
            tasks = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(tasks,), name="vocalnet-helper",
                             daemon=True).start()
            _tasks = tasks
        return _tasks


def _forget_helper() -> None:
    global _start, _tasks
    _start = threading.Lock()
    _tasks = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def run_pair(on_caller, on_helper):
    """(on_caller(), on_helper()), the first run here and the second on the
    helper at the same time.

    Once both sides are done, the first exception either side met is raised.
    on_helper must not call run_pair: the helper would wait for itself.
    """
    done = threading.Lock()
    done.acquire()
    errors = []
    task = [on_helper, None, errors, done]
    _queue().put(task)
    try:
        result = on_caller()
    except BaseException as error:
        errors.append(error)
    done.acquire()
    if errors:
        raise errors[0]
    return result, task[1]
