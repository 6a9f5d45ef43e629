"""run_jobs' contract, apart from any caller in the package."""

import os
import pickle
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from vocalnet import _helper


def scaled_sum(x, scale, y):
    """Which process ran the call, and scale * x + y."""
    return os.getpid(), scale * x + y


def repeated(x, times):
    return np.repeat(x, times)


def failing_on_the_helper(x, caller, ran):
    """Raises on any process but `caller`; there records that it ran."""
    if os.getpid() != caller:
        raise RuntimeError("the helper's call failed")
    ran.append(True)


def failing_on_both(x, caller):
    if os.getpid() == caller:
        raise ValueError("the caller's share failed")
    raise RuntimeError("the helper's call failed")


def killing_the_helper(x, caller, helper, killed):
    """On the caller, kills the helper process once; returns where it ran."""
    if os.getpid() == caller and not killed:
        os.kill(helper, signal.SIGKILL)
        killed.append(helper)
    return os.getpid()


def unpicklable(x, ran):
    """A lambda, which pickle cannot send; records each call where it ran."""
    ran.append(os.getpid())
    return lambda: x


def at_residue(n_values, residue):
    """A fresh float64 array of n_values whose address is `residue` modulo 64."""
    room = np.empty(n_values + 16)
    start = (residue - room.ctypes.data) % 64 // 8
    return room[start:start + n_values]


@pytest.mark.parametrize("n_jobs", [1, 2, 3, 5])
def test_results_come_back_in_job_order(n_jobs, fresh_helper):
    sources = [np.full(3, float(i)) for i in range(n_jobs)]
    results = _helper.run_jobs(scaled_sum, sources, 2.0, np.ones(3))
    helper = _helper._running.pid if n_jobs > 1 else None
    assert [pid for pid, _ in results] == [helper if i % 2 else os.getpid()
                                           for i in range(n_jobs)]
    assert [values.tolist() for _, values in results] == [[2.0 * i + 1] * 3
                                                          for i in range(n_jobs)]


def test_one_job_forks_no_helper_and_imports_no_multiprocessing():
    # only a process that forks a helper pays for multiprocessing's import
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from vocalnet import _helper\n"
        "assert _helper.run_jobs(np.sum, [np.arange(4.0)]) == [6.0]\n"
        "assert _helper._running is None\n"
        "assert not any(name.startswith('multiprocessing') for name in sys.modules)\n")
    package_root = os.path.dirname(os.path.dirname(_helper.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("shape", [(1,), (1000,), (3, 257)])
@pytest.mark.parametrize("residue", [0, 8, 56])
def test_outputs_equal_an_inline_call(shape, residue, fresh_helper):
    rng = np.random.default_rng(residue)
    x = at_residue(int(np.prod(shape)), residue).reshape(shape)
    x[...] = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    mine, theirs = _helper.run_jobs(scaled_sum, [x, x], 3.0, y)
    assert mine[0] == os.getpid() != theirs[0] == _helper._running.pid
    assert theirs[1].tobytes() == mine[1].tobytes() == scaled_sum(x, 3.0, y)[1].tobytes()


@pytest.mark.parametrize("x", [
    np.arange(20.0)[::2], np.arange(20.0).reshape(4, 5).T,
    np.arange(10, dtype=np.float32), np.arange(10)])
def test_an_input_that_is_not_contiguous_float64_runs_on_the_caller(x, fresh_helper):
    y = np.ones(x.shape)
    _, (pid, values) = _helper.run_jobs(scaled_sum, [x, x], 0.5, y)
    assert pid == os.getpid()
    assert values.tobytes() == scaled_sum(x, 0.5, y)[1].tobytes()


def test_a_held_helper_runs_on_the_caller(handoffs):
    x = np.arange(10.0)
    with _helper.held():
        _, (pid, _) = _helper.run_jobs(scaled_sum, [x, x], 2.0, x)
    assert pid == os.getpid() and handoffs == []
    _, (pid, _) = _helper.run_jobs(scaled_sum, [x, x], 2.0, x)
    assert pid != os.getpid() and len(handoffs) == 1


# the input, laid at its own address modulo 64, must fit the buffer; a result
# comes back pickled, so its size does not matter
N_FILL = _helper.BUFFER_BYTES // 8


@pytest.mark.parametrize("n_in, residue, times, handed", [
    (N_FILL, 0, 1, True), (N_FILL, 8, 1, False), (1, 0, N_FILL + 1, True)])
def test_what_does_not_fit_the_buffer_runs_on_the_caller(n_in, residue, times,
                                                         handed, handoffs):
    x = at_residue(n_in, residue)
    x[...] = np.random.default_rng(n_in).standard_normal(n_in)
    _, result = _helper.run_jobs(repeated, [x[:1], x], times)
    assert [function for function, _ in handoffs] == [repeated] * handed
    assert result.tobytes() == repeated(x, times).tobytes()


def test_the_helpers_exception_is_raised_once_the_caller_is_done(fresh_helper):
    ran = []
    with pytest.raises(RuntimeError, match="^the helper's call failed$") as raised:
        _helper.run_jobs(failing_on_the_helper, [np.zeros(4)] * 2, os.getpid(), ran)
    assert ran == [True] and raised.value.__context__ is None
    # the helper serves on
    pid = _helper._running.pid
    _, (served, _) = _helper.run_jobs(scaled_sum, [np.zeros(4)] * 2, 1.0, np.ones(4))
    assert served == pid == _helper._running.pid


def test_a_result_that_does_not_pickle_is_raised_once_the_caller_is_done(fresh_helper):
    # the helper's job ran, but its answer cannot cross the pipe; the error
    # comes back with its type and its message, less the lambda's address
    with pytest.raises(Exception) as expected:
        pickle.dumps(unpicklable(np.zeros(4), []))
    ran = []
    with pytest.raises(type(expected.value)) as raised:
        _helper.run_jobs(unpicklable, [np.zeros(4)] * 2, ran)
    assert ran == [os.getpid()] and raised.value.__context__ is None

    def unplaced(error):
        return re.sub("0x[0-9a-f]+", "", str(error))

    assert unplaced(raised.value) == unplaced(expected.value)
    # the helper serves on
    pid = _helper._running.pid
    _, (served, _) = _helper.run_jobs(scaled_sum, [np.zeros(4)] * 2, 1.0, np.ones(4))
    assert served == pid == _helper._running.pid


def test_both_exceptions_come_chained(fresh_helper):
    with pytest.raises(RuntimeError, match="^the helper's call failed$") as raised:
        _helper.run_jobs(failing_on_both, [np.zeros(4)] * 2, os.getpid())
    assert isinstance(raised.value.__context__, ValueError)
    assert str(raised.value.__context__) == "the caller's share failed"
    assert not _helper._running.pending


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads Linux's /proc")
def test_the_helper_holds_one_descriptor(fresh_helper):
    # its calls and its answers share one connection, and once it has
    # answered it has closed every other descriptor it inherited
    _helper.run_jobs(scaled_sum, [np.zeros(4)] * 2, 1.0, np.ones(4))
    assert len(os.listdir(f"/proc/{_helper._running.pid}/fd")) == 1


def test_a_helper_that_dies_with_its_call_unread_costs_time_not_results(fresh_helper):
    # the helper is stopped when its call is sent and killed before it reads
    # it; on a socket the caller's read then fails with ConnectionResetError,
    # not EOF, and the caller runs both jobs
    x = np.zeros(4)
    _helper.run_jobs(scaled_sum, [x, x], 1.0, x)
    helper = _helper._running.pid
    os.kill(helper, signal.SIGSTOP)
    killed = []
    try:
        ran = _helper.run_jobs(killing_the_helper, [x, x], os.getpid(), helper, killed)
    except BaseException:
        if not killed:
            os.kill(helper, signal.SIGKILL)
        raise
    assert ran == [os.getpid()] * 2
    assert _helper._running is None
    with pytest.raises(ProcessLookupError):
        os.kill(helper, 0)  # reaped
