"""The tests' exact permanent: a column-subset dynamic programme over a
(B, n, n) stack.

The oracle places rows one at a time: after rows 0..k-1, ``f[S]`` is the
permanent of those rows on the columns in S, and row k extends each S by one
of its nonzero columns. Every step adds nonnegative terms, so nothing
cancels. For 0-1 matrices it counts in int64, which is exact for n <= 20
because every intermediate value is a subpermanent of at most 20! < 2^63;
for weighted matrices it runs in float64 with a relative error of about
n u (u the unit roundoff).
"""

import numpy as np

INT_EXACT_MAX_N = 20


def subset_dp_permanent(a: np.ndarray, dtype) -> np.ndarray:
    """The permanents of a (B, n, n) stack of nonnegative matrices, in runs
    of matrices whose tables hold about 2^16 entries in all (one matrix a
    run past n = 16): a run skips only the columns zero in all its rows, and
    small tables stay in cache."""
    b, n, _ = a.shape
    run = max(1, (1 << 16) >> n)
    if b > run:
        return np.concatenate([subset_dp_permanent(a[k:k + run], dtype) for k in range(0, b, run)])
    f = np.zeros((b, 1 << n), dtype=dtype)
    f[:, 0] = 1
    for i in range(n):
        g = np.zeros_like(f)
        weights = a[:, i].astype(dtype)
        for j in np.flatnonzero(weights.any(axis=0)):
            # subsets containing column j, shaped (matrix, high bits, low
            # bits) against the same subsets without it
            with_j = g.reshape(b, -1, 2, 1 << j)[:, :, 1, :]
            with_j += f.reshape(b, -1, 2, 1 << j)[:, :, 0, :] * weights[:, j, None, None]
        f = g
    return f[:, -1]


def exact_per01(x: np.ndarray) -> np.ndarray:
    """Exact int64 permanents of a stack of 0-1 matrices with n <= 20."""
    assert np.all((x == 0) | (x == 1)) and x.shape[1] <= INT_EXACT_MAX_N
    return subset_dp_permanent(x, np.int64)


def per_float(a: np.ndarray) -> np.ndarray:
    """Cancellation-free float64 permanents of a stack of nonnegative matrices."""
    return subset_dp_permanent(a, np.float64)
