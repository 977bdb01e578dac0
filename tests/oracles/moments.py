"""The pre-fusion moment update.

:meth:`repro.tvla.moments.OnePassMoments.update_batch` folds a trace chunk
with a fused in-place Horner power chain over reusable scratch buffers.
Before the fusion the fold converted to float64 up front and materialised
a fresh ``delta**k`` array per order.  That chain lives on here as the
bit-identical oracle of the fused update (pair ``moments-update``) and as
the denominator of ``microbench_moment_update``.
"""

from __future__ import annotations

import numpy as np

from repro.tvla.moments import OnePassMoments


def update_batch_naive(acc: OnePassMoments, samples: np.ndarray) -> None:
    """Fold a batch into ``acc`` (first axis indexes the samples)."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 1 or samples.shape[1:] != acc.shape:
        raise ValueError(
            f"batch shape {samples.shape} does not match accumulator "
            f"shape (n, *{acc.shape})"
        )
    n_b = samples.shape[0]
    if n_b == 0:
        return
    mean_b = samples.mean(axis=0)
    delta = samples - mean_b
    power = delta * delta
    sums_b = [power.sum(axis=0)]
    for _ in range(3, acc.max_order + 1):
        power = power * delta
        sums_b.append(power.sum(axis=0))
    acc._combine(n_b, mean_b, sums_b)
