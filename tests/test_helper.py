"""run_pair's contract, apart from any caller in the package."""

import os

import numpy as np
import pytest

from vocalnet import _helper


def scaled_sum(x, scale, y):
    """Which process ran the call, as a one-value array, and scale * x + y."""
    return np.full(1, float(os.getpid())), scale * x + y


def repeated(x, times):
    return (np.repeat(x, times),)


def failing(x):
    raise RuntimeError("the helper's call failed")


def outputs_of(x):
    return np.empty(1), np.empty_like(x, dtype=np.float64)


def at_residue(n_values, residue):
    """A fresh float64 array of n_values whose address is `residue` modulo 64."""
    room = np.empty(n_values + 16)
    start = (residue - room.ctypes.data) % 64 // 8
    return room[start:start + n_values]


@pytest.mark.parametrize("shape", [(1,), (1000,), (3, 257)])
@pytest.mark.parametrize("residue", [0, 8, 56])
def test_outputs_equal_an_inline_call(shape, residue, fresh_helper):
    rng = np.random.default_rng(residue)
    x = at_residue(int(np.prod(shape)), residue).reshape(shape)
    x[...] = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    ran = []
    outputs = outputs_of(x)
    result = _helper.run_pair(lambda: ran.append(True) or "caller's", scaled_sum,
                              x, outputs, 3.0, y)
    assert result == "caller's" and ran == [True]
    assert outputs[0][0] == _helper._running.pid != os.getpid()
    assert outputs[1].tobytes() == scaled_sum(x, 3.0, y)[1].tobytes()


@pytest.mark.parametrize("x", [
    np.arange(20.0)[::2], np.arange(20.0).reshape(4, 5).T,
    np.arange(10, dtype=np.float32), np.arange(10)])
def test_an_input_that_is_not_contiguous_float64_runs_on_the_caller(x, fresh_helper):
    y = np.ones(x.shape)
    outputs = outputs_of(x)
    _helper.run_pair(lambda: None, scaled_sum, x, outputs, 0.5, y)
    assert outputs[0][0] == os.getpid()
    assert outputs[1].tobytes() == scaled_sum(x, 0.5, y)[1].tobytes()


def test_a_held_helper_runs_on_the_caller(handoffs):
    x = np.arange(10.0)
    outputs = outputs_of(x)
    with _helper.held():
        _helper.run_pair(lambda: None, scaled_sum, x, outputs, 2.0, x)
    assert outputs[0][0] == os.getpid() and handoffs == []
    _helper.run_pair(lambda: None, scaled_sum, x, outputs, 2.0, x)
    assert outputs[0][0] != os.getpid() and len(handoffs) == 1


# the input, laid at its own address modulo 64, and the outputs, laid from
# byte 0 once the call is done, must each fit the buffer
N_FILL = _helper.BUFFER_BYTES // 8


@pytest.mark.parametrize("n_in, residue, times, handed", [
    (N_FILL, 0, 1, True), (N_FILL, 8, 1, False),
    (1, 0, N_FILL, True), (1, 0, N_FILL + 1, False)])
def test_what_does_not_fit_the_buffer_runs_on_the_caller(n_in, residue, times,
                                                         handed, handoffs):
    x = at_residue(n_in, residue)
    x[...] = np.random.default_rng(n_in).standard_normal(n_in)
    output = np.empty(n_in * times)
    _helper.run_pair(lambda: None, repeated, x, (output,), times)
    assert [function for function, _ in handoffs] == [repeated] * handed
    assert output.tobytes() == repeated(x, times)[0].tobytes()


def test_the_helpers_exception_is_raised_once_the_caller_is_done(fresh_helper):
    ran = []
    with pytest.raises(RuntimeError, match="^the helper's call failed$") as raised:
        _helper.run_pair(lambda: ran.append(True), failing, np.zeros(4), (np.empty(4),))
    assert ran == [True] and raised.value.__context__ is None
    # the helper serves on
    pid = _helper._running.pid
    outputs = outputs_of(np.zeros(4))
    _helper.run_pair(lambda: None, scaled_sum, np.zeros(4), outputs, 1.0, np.ones(4))
    assert outputs[0][0] == pid == _helper._running.pid


def test_both_exceptions_come_chained(fresh_helper):
    def on_caller():
        raise ValueError("the caller's share failed")

    with pytest.raises(RuntimeError, match="^the helper's call failed$") as raised:
        _helper.run_pair(on_caller, failing, np.zeros(4), (np.empty(4),))
    assert isinstance(raised.value.__context__, ValueError)
    assert str(raised.value.__context__) == "the caller's share failed"
    assert not _helper._running.pending
