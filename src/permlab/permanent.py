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


def _stack_size(n: int) -> int:
    """Matrices per Glynn pass: the most whose low tables together hold no
    more entries than one n = _BLOCK_BITS table, and at least one."""
    b = min(n, _BLOCK_BITS)
    return max(1, (_BLOCK_BITS << (_BLOCK_BITS - 1)) // (n << (b - 1)))


def _glynn_pass(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Glynn's formula in one double-precision pass over a (B, n, n) stack.

    per(A) = 2^-(n-1) sum over d in {+1,-1}^n, d_0 = +1, of
    prod_k d_k prod_i sum_j d_j a_ij. The low block's signed row sums are one
    table per matrix; each high pattern adds its base row sums
    a[:, hi] @ signs to it. The signed sum over the table is one dot per
    matrix, so a matrix's value does not depend on its stack.

    Returns (values, errs), one entry per matrix. For nonnegative ``a`` no
    term exceeds P = prod_i rowsum_i, so the rounding error is below
    err = 2u (n^2 + 2n + 2^(b-1) + 2^(n-b)) P, u the unit roundoff: each term
    carries about (n^2 + 2n) u P, and the sums over 2^(b-1) low and 2^(n-b)
    high patterns add the rest after the 2^-(n-1) scaling.
    """
    n = a.shape[1]
    b = min(n, _BLOCK_BITS)
    signs, sign_low = _low_signs(b)
    low_t = a[:, :, :b] @ signs.T
    a_hi = a[:, :, b:]
    shifts = np.arange(n - b)
    totals = [0.0] * len(a)
    for h in range(1 << (n - b)):
        base = a_hi @ (1 - 2 * ((h >> shifts) & 1))
        for k, prod in enumerate(np.prod(low_t + base[:, :, None], axis=1)):
            s = float(sign_low @ prod)
            totals[k] += -s if h.bit_count() & 1 else s
    rowprods = np.prod(a.sum(axis=2), axis=1)
    errs = (n * n + 2 * n + len(sign_low) + (1 << (n - b))) * _EPS * rowprods
    return np.ldexp(totals, 1 - n), errs


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


def _glynn_logs(a: np.ndarray) -> list[float]:
    """log per(A) for each matrix of a nonnegative (B, n, n) stack, via one
    Glynn pass; -inf marks an exact zero. Guarded at n <= RYSER_MAX_N.

    A value within the pass's rounding bound is decided on the support:
    exactly zero when it has no perfect matching, and a PrecisionError when
    it has one but the value is not positive. No result is clamped.
    """
    if a.shape[1] > RYSER_MAX_N:
        raise SizeLimitError(f"Glynn kernel limited to n <= {RYSER_MAX_N}, got {a.shape[1]}")
    values, errs = _glynn_pass(a)
    logs = []
    for k, (value, err) in enumerate(zip(values.tolist(), errs.tolist())):
        if value <= err and not _has_perfect_matching(a[k]):
            logs.append(-math.inf)
        elif value <= 0:
            raise PrecisionError(f"permanent {value!r} is within its rounding bound "
                                 f"{err:.3g} but the support has a perfect matching")
        else:
            logs.append(math.log(value))
    return logs


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
    (log_v,) = _glynn_logs((m.entries / scales[:, None])[None])
    if log_v == -math.inf:
        return ScaledValue.zero()
    return ScaledValue.from_log(log_v + math.fsum(math.log(s) for s in scales))
