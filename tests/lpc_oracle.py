"""Reference LPC stage: the Levinson-Durbin recursion that the one in
vocalnet.features replaced, which made fresh per-step temporaries.

Its code, with _row_dot, is unchanged, and tests/test_features.py requires
vocalnet.features.lpc to return the same coefficient bytes and degenerate
flags.
"""

from __future__ import annotations

import numpy as np

from vocalnet.errors import InvalidSetting
from vocalnet.features import LPC_ORDER


def _row_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of u with the same row of v.

    A stacked (1, n) @ (n, 1) matmul runs one BLAS dot per row, so every row
    sums in the same order as np.dot on that row alone. Rows must have a
    positive stride; a reversed view takes another path and must be copied.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def lpc(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward linear predictor coefficients of each frame via Levinson-Durbin.

    Returns (a, degenerate): a is (F, LPC_ORDER) with the convention
    x_hat[n] = sum_i a[:, i-1]*x[n-i]; an all-zero frame yields all-zero
    coefficients and degenerate True. The recursion runs across all frames
    at once and stops per frame once its prediction error is no longer
    positive.
    """
    order = LPC_ORDER
    w = frames.shape[1]
    if w <= order:
        raise InvalidSetting(f"a {w}-sample frame is not longer than LPC order {order}")

    # biased autocorrelation, (F, order + 1)
    r = np.stack([_row_dot(frames[:, :w - k], frames[:, k:])
                  for k in range(order + 1)], axis=1) / w

    # _row_dot needs forward strides. Step i dots a[:, :i] with r[i], ...,
    # r[1], which is the forward slice reversed_r[:, order - i:order] of the
    # autocorrelation reversed once.
    reversed_r = r[:, ::-1].copy()
    a = np.zeros((len(frames), order))  # predictor coefficients, positive convention
    err = r[:, 0].copy()
    live = np.ones(len(frames), dtype=bool)
    for i in range(order):
        live &= err > 0  # a frame whose error is spent keeps its coefficients
        acc = r[:, i + 1] - _row_dot(a[:, :i], reversed_r[:, order - i:order])
        k = np.divide(acc, err, out=np.zeros_like(acc), where=live)
        # the reflection updates live rows in place and leaves the others be
        np.subtract(a[:, :i], k[:, None] * a[:, :i][:, ::-1],
                    out=a[:, :i], where=live[:, None])
        a[:, i] = k
        err *= 1.0 - k * k
    return a, r[:, 0] == 0.0
