"""Reference spectral shape stage: the allocating columnar implementation that
the in-place one in vocalnet.features replaced.

Each numpy step makes a fresh (F, W) temporary. Its code is unchanged apart
from its comments, and tests/test_features.py requires
vocalnet.features.spectral_shape_features to return the same bytes, dtypes
and shapes.
"""

from __future__ import annotations

import numpy as np

from vocalnet.features import MAG_FLOOR, ROLLOFF_FRACTION


def spectral_shape_features(magnitudes: np.ndarray, bin_hz: float):
    """Flux, rolloff, compactness, five moments, centroid, and variability."""
    m = magnitudes
    flux = np.zeros(len(m))
    flux[1:] = np.sum((m[1:] - m[:-1]) ** 2, axis=1)

    total = np.sum(m, axis=1)
    nonzero = total > 0
    bins = np.arange(m.shape[1])
    centroid_bins = np.divide(np.sum(bins * m, axis=1), total,
                              out=np.zeros_like(total), where=nonzero)
    centroid_hz = centroid_bins * bin_hz

    cum = np.cumsum(m ** 2, axis=1)
    target = ROLLOFF_FRACTION * cum[:, -1]
    rolloff_hz = np.sum(cum < target[:, None], axis=1) * bin_hz

    logm = np.log(np.maximum(m, MAG_FLOOR))
    neighborhood = (logm[:, :-2] + logm[:, 1:-1] + logm[:, 2:]) / 3.0
    compactness = np.sum(np.abs(logm[:, 1:-1] - neighborhood), axis=1)

    d = bins - centroid_bins[:, None]
    var = np.divide(np.sum(d ** 2 * m, axis=1), total,
                    out=np.zeros_like(total), where=nonzero)
    spread = var > 0
    sigma = np.sqrt(var)
    abs_d = np.abs(d)

    def standardized(p):
        power = abs_d ** p
        if p % 2:
            np.copysign(power, d, out=power)
        power *= m
        mean_power = np.sum(power, axis=1) / np.where(spread, total, 1.0)
        return np.divide(mean_power, np.float_power(sigma, p),
                         out=np.zeros_like(total), where=spread)

    moments = np.stack([total, centroid_bins, var, standardized(3),
                        standardized(4)], axis=1)

    variability = np.std(m, axis=1)
    return flux, rolloff_hz, compactness, moments, centroid_hz, variability
