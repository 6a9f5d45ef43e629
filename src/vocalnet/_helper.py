"""One helper process for the package, for per-clip work cut in two.

numpy holds the GIL inside a gufunc or an accumulate over few rows, so a
second thread in this process could not run every stage of a block beside
the caller. The helper is a process of its own, forked on first use, and
run_pair is the one way to use it: the caller runs its own share of the
work while the helper runs a function on a copy of the caller's one input
array, laid into `buffer`, an anonymous shared mapping of BUFFER_BYTES =
1 MiB, and the call's results come back through the buffer into the
caller's output arrays. The package hands it one kind of work, a block of
a clip's frames from features.extract_features. The buffer never grows:
work that does not fit in it stays on the caller.

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
Helper.call and Helper.wait report it, the caller does that work itself,
and the next held() forks a new helper.

os.fork copies only the calling thread, so a native lock that another
thread holds at that moment, such as one inside numpy's FFT, stays held in
the helper. The commands fork from a process whose only other threads are
OpenBLAS's pool, which OpenBLAS itself resets at a fork; only a library
caller that runs threads of its own when the helper forks takes that risk.

The fork took 0.5-1.2 ms in 30-70 MB processes with numpy loaded, once per
process, and a call of an empty function and its wait 16-20 us (2-core
x86-64, py3.11).
"""

from __future__ import annotations

import atexit
import math
import mmap
import os
import pickle
import signal
import struct
import threading
from contextlib import contextmanager

import numpy as np

BUFFER_BYTES = 2 ** 20

_HEADER = struct.Struct("<I")  # the byte length of the message after it

_lock = threading.Lock()  # held by the one caller using the helper
_running = None  # the running Helper, None until first use and once it died


def _send(fd: int, message: bytes) -> None:
    view = memoryview(_HEADER.pack(len(message)) + message)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int) -> bytes | None:
    """The next message on fd, or None at EOF."""
    header = _read(fd, _HEADER.size)
    return None if header is None else _read(fd, _HEADER.unpack(header)[0])


def _read(fd: int, size: int) -> bytes | None:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            return None
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _pickled(error: BaseException) -> bytes:
    """error pickled, or a RuntimeError with its type and message where it
    does not come back from a pickle."""
    try:
        message = pickle.dumps(error)
        pickle.loads(message)
    except Exception:
        message = pickle.dumps(RuntimeError(f"{type(error).__qualname__}: {error}"))
    return message


def _views(buffer, places) -> list:
    """The float64 arrays at the given (byte offset, shape) places of buffer."""
    return [np.frombuffer(buffer, count=math.prod(shape), offset=at).reshape(shape)
            for at, shape in places]


def _fill(outputs, results) -> None:
    for output, result in zip(outputs, results, strict=True):
        output[...] = result


def _serve(commands: int, results: int, buffer: mmap.mmap) -> None:
    """The helper's life: run each call read from `commands` on its input
    in buffer, write its results back there and answer on `results`, an
    empty message for done or the pickled error, until EOF."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        low, high = sorted((commands, results))
        os.closerange(0, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
        while (message := _receive(commands)) is not None:
            try:
                function, source, outputs, args = pickle.loads(message)
                _fill(_views(buffer, outputs), function(*_views(buffer, [source]), *args))
                answer = b""
            except BaseException as error:
                answer = _pickled(error)
            _send(results, answer)
    finally:
        os._exit(0)


class Helper:
    """A forked helper process, its command and result pipes and its buffer."""

    def __init__(self):
        self.buffer = mmap.mmap(-1, BUFFER_BYTES)
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            commands, self._commands, self._results, results = fds
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(commands, results, self.buffer)  # never returns
        os.close(commands)
        os.close(results)
        self.pending = False  # a call handed in and not yet waited for

    def call(self, function, source, outputs, args) -> bool:
        """Hand the helper function(source, *args), its input and results
        the arrays at those (byte offset, shape) places of the buffer; False
        if it died."""
        # set first: a call cut short leaves the pipes in an unknown state
        self.pending = True
        try:
            _send(self._commands, pickle.dumps((function, source, outputs, args)))
        except BrokenPipeError:
            self.drop()
            return False
        return True

    def wait(self) -> bool:
        """Wait for the call handed in last: True once it is done, False if
        the helper died first. An exception the call raised is raised here,
        with its type and message."""
        answer = _receive(self._results)
        self.pending = False
        if answer is None:
            self.drop()
            return False
        if answer:
            raise pickle.loads(answer)
        return True

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
        for fd in (self._commands, self._results):
            try:
                os.close(fd)
            except OSError:
                pass


def run_pair(on_caller, function, source, outputs, *args):
    """Run on_caller() here while the helper runs function(source, *args)
    on a copy of the one input array `source`, then copy the arrays that
    call returns, one per array of `outputs`, into them; returns
    on_caller's result.

    function must be reachable by name from its module, as pickle needs.
    The input is laid in the buffer at its own address modulo 64, so a
    kernel that rounds by its operands' alignment, such as OpenBLAS's
    Prescott ddot, gives the helper the caller's bits. The results come back
    as float64 from byte 0 once the call is done, so a pair fits where the
    laid-out input and the outputs each take at most BUFFER_BYTES. Where the
    helper is held by another thread, missing or dead, the input is not a
    C-contiguous float64 array or the arrays do not fit, function runs here
    on the input itself once on_caller is done. An exception the helper's
    call raised is raised once on_caller is done, chained to on_caller's own
    where that raised too.
    """
    with held() as helper:
        places = None if helper is None else _places(source, outputs)
        if places is not None:
            _views(helper.buffer, [places[0]])[0][...] = source
        handed = places is not None and helper.call(function, *places, args)
        try:
            result = on_caller()
        finally:
            # collected even where on_caller raised
            done = handed and helper.wait()
        if done:
            _fill(outputs, _views(helper.buffer, places[1]))
    if not done:
        _fill(outputs, function(source, *args))
    return result


def _places(source, outputs):
    """The (byte offset, shape) place of the input and those of the outputs
    in the buffer; None where the input is not a C-contiguous float64 array
    or the arrays do not fit."""
    if source.dtype != np.float64 or not source.flags.c_contiguous:
        return None
    at = source.__array_interface__["data"][0] % 64
    back, size = [], 0
    for array in outputs:
        back.append((size, array.shape))
        size += 8 * array.size
    if max(at + source.nbytes, size) > BUFFER_BYTES:
        return None
    return (at, source.shape), back


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
            try:
                _running = Helper()
            except OSError:
                pass
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
