"""One helper process for the package, for a list of jobs cut in two.

numpy holds the GIL inside a gufunc or an accumulate over few rows, so a
second thread in this process could not run every stage of a block beside
the caller. The helper is a process of its own, forked on first use, and
run_jobs is the one way to use it: it runs a function over a list of input
arrays, the caller taking the even-numbered inputs and the helper the odd
ones. The helper works on a copy of its input laid into `buffer`, an
anonymous shared mapping of BUFFER_BYTES = 1 MiB, and sends its result back
pickled on its result pipe. The package hands it one kind of job, a block of
a clip's frames from features.extract_features. The buffer never grows: an
input that does not fit in it stays on the caller.

held() gives the helper to one caller at a time: a caller that finds another
thread holding it gets None and does all of its work itself, so no caller
waits for the helper of another. Where os.fork is missing, or a fork fails,
held() gives None too.

The helper ignores SIGINT, so a Ctrl-C in a terminal reaches the caller
only. It keeps no descriptor but its two pipes, so a warning raised in its
call is lost unless the warning filters it inherited make it an error. It
exits at EOF on its command pipe: stop(), run at interpreter exit, closes
that pipe and waits for the helper, so no helper outlives its process, and a
process that dies without stop() has its pipes closed by the kernel. A child
forked from the process forgets the parent's helper and forks its own on
first use. A helper that died costs its caller time, never a result:
Helper.call and Helper.wait report it, the caller does that job itself,
and the next held() forks a new helper.

os.fork copies only the calling thread, so a native lock that another
thread holds at that moment, such as one inside numpy's FFT, stays held in
the helper. The commands fork from a process whose only other threads are
OpenBLAS's pool, which OpenBLAS itself resets at a fork; only a library
caller that runs threads of its own when the helper forks takes that risk.

The fork took 0.5-1.2 ms in 30-70 MB processes with numpy loaded, once per
process. run_jobs over two trivial jobs took a median 28 us where each
returns None and 45 us where each returns a 7 KB array, as a block of 86
frames does; most of the difference is the result's pickle (2-core x86-64,
py3.11, five interleaved rounds; the host's second core comes and goes, and
in a busier sitting the same calls took 57 and 86 us).
"""

from __future__ import annotations

import atexit
import math
import mmap
import os
import pickle
import signal
import threading
from contextlib import contextmanager, suppress

import numpy as np

BUFFER_BYTES = 2 ** 20

_lock = threading.Lock()  # held by the one caller using the helper
_running = None  # the running Helper, None until first use and once it died


def _portable(error: BaseException) -> BaseException:
    """error, or a RuntimeError with its type and message where it does not
    come back from a pickle."""
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:
        return RuntimeError(f"{type(error).__qualname__}: {error}")
    return error


def _view(buffer, place) -> np.ndarray:
    """The float64 array at that (byte offset, shape) place of buffer."""
    at, shape = place
    return np.frombuffer(buffer, count=math.prod(shape), offset=at).reshape(shape)


def _serve(commands, results, buffer: mmap.mmap) -> None:
    """The helper's life: run each call read from `commands` on its input
    in buffer and answer on `results` with (None, its result), or (its
    error, None) where the call or its result's pickle raised, as one
    protocol-5 pickle, until EOF."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        low, high = sorted((commands.fileno(), results.fileno()))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        while True:
            function, place, args = commands.recv()  # EOFError ends the helper
            try:
                answer = pickle.dumps((None, function(_view(buffer, place), *args)), 5)
            except BaseException as error:
                answer = pickle.dumps((_portable(error), None), 5)
            results.send_bytes(answer)
    finally:
        os._exit(0)


class Helper:
    """A forked helper process, its command and result pipes and its buffer."""

    def __init__(self):
        # here, so only a process that forks a helper imports multiprocessing
        from multiprocessing import Pipe

        self.buffer = mmap.mmap(-1, BUFFER_BYTES)
        ends = []
        try:
            ends += Pipe(duplex=False)
            ends += Pipe(duplex=False)
            commands, self._commands, self._results, results = ends
            self.pid = os.fork()
        except OSError:
            for end in ends:
                end.close()
            raise
        if self.pid == 0:
            _serve(commands, results, self.buffer)  # never returns
        commands.close()
        results.close()
        self.pending = False  # a call handed in and not yet waited for

    def call(self, function, place, args) -> bool:
        """Hand the helper function(input, *args), its input the array at
        that (byte offset, shape) place of the buffer; False if it died."""
        # set first: a call cut short leaves the pipes in an unknown state
        self.pending = True
        try:
            self._commands.send((function, place, args))
        except BrokenPipeError:
            self.drop()
            return False
        return True

    def wait(self) -> list:
        """[the result] of the call handed in last once it is done, [] if
        the helper died first. An exception the call or its result's pickle
        raised is raised here, with its type and message."""
        try:
            error, result = pickle.loads(self._results.recv_bytes())
        except (EOFError, OSError):  # OSError: it died mid-answer
            self.drop()
            return []
        self.pending = False
        if error is not None:
            raise error
        return [result]

    def drop(self) -> None:
        """Close the pipes, which ends the helper once its call is done, and
        wait for it to exit; the next held() forks a new one."""
        global _running
        if _running is self:
            _running = None
        self.forget()
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:
            # where SIGCHLD is ignored the kernel reaps the helper itself, and
            # waitpid fails only once it has exited
            pass

    def forget(self) -> None:
        """Close this process's ends of the pipes."""
        self._commands.close()
        self._results.close()


def run_jobs(function, sources, *args) -> list:
    """[function(source, *args) for source in sources], in that order: the
    caller runs sources 0, 2, 4, ... and, one pair at a time, the helper
    runs 1, 3, 5, ... on a copy of its input while the caller runs the one
    before it. A single source never reaches the helper.

    function must be reachable by name from its module, and its results
    must pickle, as the pipe needs. A handed input is laid in the buffer at
    its own address modulo 64, so a kernel that rounds by its operands'
    alignment, such as OpenBLAS's Prescott ddot, gives the helper the
    caller's bits; it fits where it so takes at most BUFFER_BYTES. Where the
    helper is held by another thread, missing or dead, or the input is not a
    C-contiguous float64 array or does not fit, its job runs here once the
    caller's is done. An exception the helper's job raised is raised once
    the caller's job is done, chained to the caller's own where that raised
    too.
    """
    results = []
    for b in range(0, len(sources) - 1, 2):
        mine, theirs = sources[b:b + 2]
        with held() as helper:
            place = None if helper is None else _place(theirs)
            if place is not None:
                _view(helper.buffer, place)[...] = theirs
            handed = place is not None and helper.call(function, place, args)
            try:
                results.append(function(mine, *args))
            finally:
                # collected even where the caller's job raised
                results += helper.wait() if handed else []
        if len(results) == b + 1:
            results.append(function(theirs, *args))
    if len(sources) % 2:
        results.append(function(sources[-1], *args))
    return results


def _place(source):
    """The (byte offset, shape) place of the input in the buffer; None where
    it is not a C-contiguous float64 array or does not fit."""
    if source.dtype != np.float64 or not source.flags.c_contiguous:
        return None
    at = source.__array_interface__["data"][0] % 64
    return (at, source.shape) if at + source.nbytes <= BUFFER_BYTES else None


@contextmanager
def held():
    """The running helper for this caller alone, forked on first use; None
    where another thread holds it, os.fork is missing or the fork failed."""
    global _running
    if not hasattr(os, "fork") or not _lock.acquire(blocking=False):
        yield None
        return
    try:
        if _running is None:
            with suppress(OSError):
                _running = Helper()
        yield _running
    finally:
        # a caller interrupted between a call and its wait leaves an answer
        # that the next caller would take for its own
        if _running is not None and _running.pending:
            _running.drop()
        _lock.release()


def stop() -> None:
    """Stop the helper, if one runs, and wait for it to exit. The next
    held() forks a new one."""
    with _lock:
        if _running is not None:
            _running.drop()


def _forget_helper() -> None:
    global _lock, _running
    if _running is not None:
        _running.forget()
    _lock, _running = threading.Lock(), None


atexit.register(stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
