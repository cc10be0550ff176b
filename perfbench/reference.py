"""The benchmark's own permanent reference, independent of permlab's kernels.

Both functions run a dynamic programme over column subsets: after rows
0..k-1 are placed, ``f[S]`` is the permanent of those rows restricted to the
columns in S, and row k extends every S by one of its nonzero columns. Every
term is a product of nonnegative entries and every step a sum of
nonnegative terms, so nothing cancels.

- ``exact_per01`` counts in unsigned 64-bit integers and is exact whenever
  the Bregman bound prod_i (r_i!)^(1/r_i) of the 0-1 matrix stays below
  2^63. Every intermediate value is the permanent of a submatrix and obeys
  the same bound, so no step can wrap. Above n = 20 the integer result is
  also compared with the floating-point programme.
- ``per_float`` runs the same programme in float64 for nonnegative weights,
  on one matrix or on a stack of them at once. Its relative error is at most
  about n^2 u, with u the unit roundoff.
"""

from __future__ import annotations

import math

import numpy as np

INT_EXACT_LOG2 = 63.0
FLOAT_CHECK_ABOVE_N = 20
FLOAT_CHECK_RTOL = 1e-12


class ReferenceUnavailable(RuntimeError):
    """The reference cannot vouch for its own value."""


# Elements of f a batched programme may hold at once; larger stacks are split.
BATCH_ELEMENTS = 1 << 20


def _subset_dp(a: np.ndarray, dtype) -> np.ndarray:
    """Permanents of the stack ``a`` of shape (b, n, n). A column is visited
    only if it is nonzero in some matrix of the stack."""
    b, n = a.shape[0], a.shape[1]
    f = np.zeros((b, 1 << n), dtype=dtype)
    f[:, 0] = 1
    g = np.empty_like(f)
    for i in range(n):
        g.fill(0)
        for j in np.flatnonzero(a[:, i].any(axis=0)):
            src = f.reshape(b, -1, 2, 1 << j)[:, :, 0, :]
            dst = g.reshape(b, -1, 2, 1 << j)[:, :, 1, :]
            dst += src * a[:, i, j].astype(dtype)[:, None, None]
        f, g = g, f
    return f[:, -1]


def bregman_log2(x: np.ndarray) -> float:
    """log2 of the Bregman-Minc upper bound on the permanent of a 0-1 matrix."""
    return sum(math.lgamma(r + 1) / r for r in x.sum(axis=1).astype(int) if r) / math.log(2)


def exact_per01(x: np.ndarray) -> int:
    """Exact permanent of a square 0-1 matrix, as a Python int."""
    x = np.asarray(x, dtype=float)
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("exact_per01 needs a 0-1 matrix")
    if np.any(x.sum(axis=1) == 0):
        return 0
    if bregman_log2(x) >= INT_EXACT_LOG2:
        raise ReferenceUnavailable("permanent may exceed the 64-bit integer range")
    value = int(_subset_dp(x[None], np.uint64)[0])
    if x.shape[0] > FLOAT_CHECK_ABOVE_N:
        check = float(_subset_dp(x[None], np.float64)[0])
        if abs(check - value) > FLOAT_CHECK_RTOL * value:
            raise ReferenceUnavailable(f"integer {value} and float {check} disagree")
    return value


def per_float(a: np.ndarray):
    """Cancellation-free float64 permanent of a nonnegative square matrix, or
    an array of the permanents of a stack of shape (b, n, n)."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("per_float needs nonnegative entries")
    if a.ndim == 2:
        return float(_subset_dp(a[None], np.float64)[0])
    step = max(1, BATCH_ELEMENTS >> a.shape[1])
    return np.concatenate([_subset_dp(a[k:k + step], np.float64) for k in range(0, len(a), step)])


def self_test() -> list[str]:
    """Check the reference against permlab's naive oracle and per(J_n) = n!.

    Returns one message per failed check; the caller counts them.
    """
    from permlab import DenseMatrix, per_naive

    failures = []
    rng = np.random.default_rng(20211210)
    for n in range(1, 9):
        x = (rng.random((n, n)) < 0.5).astype(float)
        w = x * rng.exponential(size=(n, n))
        naive01 = per_naive(DenseMatrix(x)).to_float()
        if exact_per01(x) != round(naive01):
            failures.append(f"exact_per01 != per_naive at n={n}")
        naive = per_naive(DenseMatrix(w)).to_float()
        if abs(per_float(w) - naive) > 1e-12 * max(naive, 1e-300):
            failures.append(f"per_float != per_naive at n={n}")
        stack = np.stack([w, x, np.ones((n, n))])
        if not np.array_equal(per_float(stack), [per_float(m) for m in stack]):
            failures.append(f"stacked per_float differs at n={n}")
    for n in (1, 2, 5, 8, 12, 16):
        ones = np.ones((n, n))
        if exact_per01(ones) != math.factorial(n):
            failures.append(f"exact_per01(J_{n}) != {n}!")
        if abs(per_float(ones) / math.factorial(n) - 1) > 1e-13:
            failures.append(f"per_float(J_{n}) != {n}!")
    return failures
