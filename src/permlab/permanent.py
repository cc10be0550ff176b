"""Exact permanent computation.

Two kernels: a direct sum over permutations (the correctness oracle, n <= 10)
and Glynn's formula, a signed sum over 2^(n-1) column sign patterns, in one
double-precision pass (the fast path, n <= 30), entered only through
``_glynn_values``, which runs it on rows divided by their scales and returns
the scaled permanents; ``per_scaled`` adds the scales' logs back and trials
multiply by n^n/n!. On a nonnegative matrix no Glynn term exceeds prod_i
rowsum_i, so little cancels: on row-rescaled trial matrices
tests/test_kernel_accuracy.py::test_glynn_pass_accuracy_table holds the
relative error at n = 13-20. A result inside the pass's rounding bound is
settled on the support: exactly zero without a perfect matching, an error
with one. Both kernels are deterministic: repeated calls on the same matrix
are bit-identical.

The Glynn pass takes its high sign patterns in spans and chunks with no
Python step per pattern: a span's base sums are one batched product, a
term's factor over rows is formed three rows at a time, a chunk's signed
sums are one np.vecdot (numpy's per-row dot), and one cumsum per span adds
them in pattern order. The pass therefore equals the one-pattern-at-a-time
loop bit for bit.
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
# as a table of signed row sums, and the high columns, taken H at a time. Each
# numpy call covers a pass's m matrices and H patterns, whose (m, ceil(n/g),
# H, 2^(b-1)) table of at most _CHUNK_ENTRIES doubles (1 MB) stays in L2.
# Rows go in groups of g = 3 whenever there are high patterns, which about
# halves passes at n = 17-24 (g = 2 and 4 were slower, H = 4 and 16 no
# faster than 8) and, through larger stacks, speeds trials at n = 13-16.
_BLOCK_BITS = 12
_CHUNK_ENTRIES = 1 << 17

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


def _pass_shape(n: int) -> tuple[int, int, int]:
    """(stack, chunk, group): the rows go in groups of g, three when there
    are high patterns (see _pattern_sums) and one in the one-table pass;
    then the largest power of two of the 2^(n-b) high patterns, then the
    most matrices whose table of ceil(n/g) group rows fits _CHUNK_ENTRIES."""
    b = min(n, _BLOCK_BITS)
    group = 1 if n == b else 3
    fit = max(1, _CHUNK_ENTRIES // (-(-n // group) << (b - 1)))
    chunk = min(1 << (n - b), 1 << (fit.bit_length() - 1))
    return fit // chunk, chunk, group


@functools.cache
def _subsets(group: int) -> tuple[tuple[int, ...], ...]:
    """The subsets of a group's members, smallest first and lexicographic
    within a size: the empty one, then member j's at 1 + j. Reversed, the
    order lists each one's complement."""
    return tuple(u for k in range(group + 1) for u in itertools.combinations(range(group), k))


def _subset_products(out: np.ndarray, group: int) -> None:
    """Fills out[t], for each subset t of two or more members (``_subsets``
    order), with the product of its members' out[1 + j], in increasing j."""
    subsets = _subsets(group)
    for t, u in enumerate(subsets[1 + group:], 1 + group):
        np.multiply(out[subsets.index(u[:-1])], out[1 + u[-1]], out=out[t])


def _pattern_sums(a: np.ndarray, b: int) -> np.ndarray:
    """Per matrix of a (B, n, n) stack, the sum of prod_k d_k prod_i sum_j
    d_j a_ij over the sign patterns d (d_0 = +1), taken in pattern order.

    The low table L holds each row's signed sums over the 2^(b-1) low
    patterns; high pattern h adds base row sums B = a[:, :, b:] @ d_h. Rows
    go in groups of g = 3: row i = j k + q, k = ceil(n/g), is member j of
    group q; rows past n are padding, L = 1 and B = 0. A group's factor
    prod_i (L_i + B_i) is sum_u C_u P_u over the subsets u of its members
    (``_subsets`` order), P_u = prod_{i in u} L_i one (2^g, 2^(b-1)) block
    per group and matrix, C_u = prod_{i not in u} B_i. A span's B are one
    batched matmul (its loop hands each pattern to gemv, as ``a_hi @ d``
    does); a chunk's table is one stacked product C @ P, multiplied over the
    groups in place, in group order, and its signed sums one np.vecdot into
    the span's rows. Those of odd patterns are negated, exactly, and one
    np.cumsum adds them to the running total in pattern order: bit for bit
    the add-or-subtract loop, signed zeros included. No buffer grows with
    2^(n-b): the table holds one chunk, and a span the most patterns (a
    power of two, at least a chunk) whose C fit _CHUNK_ENTRIES.
    """
    signs, sign_low = _low_signs(b)
    m, n, _ = a.shape
    if n == b:
        # one high pattern, whose zero base leaves L as it is; totals start at +0.0
        return 0.0 + np.vecdot(sign_low, np.prod(a @ signs.T, axis=1))
    _, chunk, group = _pass_shape(n)
    rows, nsub, width = -(-n // group), 1 << group, len(signs)
    # one block holds P and the table: as two blocks of this size, malloc
    # returned them to the system after every pass, which then faulted them
    # in again (about 300 page faults a pass at n = 20)
    work = np.empty(m * rows * (nsub + chunk) * width)
    lows = work[:m * nsub * rows * width].reshape(m, nsub, rows, width)
    table = work[lows.size:].reshape(m, rows, chunk, width)
    lows[:, 0] = 1.0
    members = lows[:, 1:1 + group].reshape(m, group * rows, width)
    np.matmul(a[:, :, :b], signs.T, out=members[:, :n])
    members[:, n:] = 1.0
    _subset_products(lows.swapaxes(0, 1), group)
    lows = lows.transpose(0, 2, 1, 3)
    a_hi = a[:, :, b:]
    shifts = np.arange(n - b)
    fit = max(1, _CHUNK_ENTRIES // (m * rows * nsub))
    span = min(1 << (n - b), max(chunk, 1 << (fit.bit_length() - 1)))
    bases = np.zeros((span, m, group * rows))
    coefs = np.empty((m, rows, span, nsub))
    # by_complement[t] is C at t's complement: the product of B over t's members
    by_complement = coefs.transpose(3, 0, 1, 2)[::-1]
    by_complement[0] = 1.0
    # row 0 is the running total, row 1 + j pattern s0 + j's signed sum
    sums = np.zeros((span + 1, m))
    for s0 in range(0, 1 << (n - b), span):
        d = 1.0 - 2 * ((np.arange(s0, s0 + span)[:, None] >> shifts) & 1)
        np.matmul(a_hi, d[:, None, :, None], out=bases[:, :, :n, None])
        by_complement[1:1 + group] = bases.reshape(span, m, group, rows).transpose(2, 1, 3, 0)
        _subset_products(by_complement, group)
        for c0 in range(0, span, chunk):
            np.matmul(coefs[:, :, c0:c0 + chunk], lows, out=table)
            for q in range(1, rows):
                np.multiply(table[:, 0], table[:, q], out=table[:, 0])
            np.vecdot(sign_low, table[:, 0], out=sums[1 + c0:1 + c0 + chunk].T)
        # times each pattern's high sign prod_k d_k, +-1, exactly
        sums[1:] *= np.prod(d, axis=1)[:, None]
        sums[0] = np.cumsum(sums, axis=0, out=sums)[-1]
    return sums[0]


def _glynn_pass(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Glynn's formula in one double-precision pass over a (B, n, n) stack.

    per(A) = 2^-(n-1) sum over d in {+1,-1}^n, d_0 = +1, of
    prod_k d_k prod_i sum_j d_j a_ij, that sum being ``_pattern_sums``'s, so
    a matrix's value depends neither on its stack nor on the chunking.

    Returns (values, errs), one entry per matrix. For nonnegative ``a`` no
    term exceeds P = prod_i rowsum_i, so the rounding error is below
    err = 2u (n^2 + ceil(n/g) (2^g + 2g - 2) + 2^(b-1) + 2^(n-b)) P, u the
    unit roundoff, g the group size (1 in the one-table pass): each term
    carries about n^2 u P from its row sums and (2^g + 2g - 2) u P per
    group (g - 1 roundings in each of C_u and P_u, one in their product,
    2^g - 1 in the sum over u, with sum_u |C_u P_u| = prod_i (|L_i| +
    |B_i|) <= P); the sums over 2^(b-1) low and 2^(n-b) high patterns add
    the rest after the 2^-(n-1) scaling.
    """
    n = a.shape[1]
    b = min(n, _BLOCK_BITS)
    group = _pass_shape(n)[2]
    rowprods = np.prod(a.sum(axis=2), axis=1)
    per_term = n * n + -(-n // group) * ((1 << group) + 2 * group - 2)
    errs = (per_term + (1 << (b - 1)) + (1 << (n - b))) * _EPS * rowprods
    return np.ldexp(_pattern_sums(a, b), 1 - n), errs


def _has_perfect_matching(a: np.ndarray) -> bool:
    """Augmenting-path (Kuhn) search for a perfect matching on a's support."""
    adj = [[j for j, v in enumerate(row) if v] for row in a.tolist()]
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


def _check_glynn_size(n: int) -> None:
    """The Glynn kernel's size guard, which runs apply before they sample."""
    if n > RYSER_MAX_N:
        raise SizeLimitError(f"Glynn kernel limited to n <= {RYSER_MAX_N}, got {n}")


def _glynn_values(a: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """per(D^-1 A) for each matrix of a nonnegative (B, n, n) stack, D the
    diagonal of the finite positive ``scales``, via one Glynn pass; an exact
    zero is 0.0. Guarded at n <= RYSER_MAX_N.

    The division keeps the pass near magnitude one. A nonzero entry that it
    flushes to 0.0 would leave the support: a PrecisionError naming its row,
    never a false zero. A pass that leaves the double range is a
    PrecisionError too, naming the first row the division overflows if
    there is one. A value within the pass's rounding bound is decided on
    the support: exactly zero when it has no perfect matching, a
    PrecisionError when it has one but the value is not positive; an empty
    row or column marks a zero without the matching search. Nothing is clamped.
    """
    _check_glynn_size(a.shape[1])
    # an overflow is reported by the isfinite check below, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = a / scales[:, None]
        if np.count_nonzero(scaled) != np.count_nonzero(a):
            i = int(np.flatnonzero(((scaled == 0) & (a != 0)).any(axis=(0, 2)))[0])
            raise PrecisionError(f"row {i} divided by its scale {float(scales[i])!r} flushes "
                                 "a nonzero entry to 0")
        values, errs = _glynn_pass(scaled)
    if not np.isfinite(values).all():
        rows = np.flatnonzero(~np.isfinite(scaled).all(axis=(0, 2)))
        raise PrecisionError((f"row {rows[0]} divided by its scale {float(scales[rows[0]])!r} "
                              "overflows") if rows.size else "the Glynn pass overflowed")
    flagged = np.flatnonzero(values <= errs)
    support = scaled[flagged] != 0
    covered = support.any(axis=2).all(axis=1) & support.any(axis=1).all(axis=1)
    zeros = flagged[~covered].tolist()
    for k in flagged[covered].tolist():
        if not _has_perfect_matching(scaled[k]):
            zeros.append(k)
        elif values[k] <= 0:
            raise PrecisionError(f"permanent {float(values[k])!r} is within its rounding "
                                 f"bound {errs[k]:.3g} but the support has a perfect matching")
    values[zeros] = 0.0
    return values


def per_ryser(m: DenseMatrix) -> ScaledValue:
    """Permanent via Glynn's formula over column sign patterns, O(2^(n-1) * n).

    ``per_scaled`` with each row scaled by its largest entry (1.0 for an
    all-zero row), so the pass runs near magnitude one and the log holds
    permanents outside the double range. Guarded at n <= 30. Exactly zero
    when the support has no perfect matching. Agrees with per_naive to a
    relative error below 1e-10 for n <= 10 on nonnegative input.
    """
    scales = m.entries.max(axis=1)
    scales[scales == 0] = 1.0
    return per_scaled(m, scales)


def per_scaled(m: DenseMatrix, row_scales) -> ScaledValue:
    """Permanent via ``_glynn_values`` with row i divided by ``row_scales[i]``,
    log v + sum_i log row_scales[i] for the scaled permanent v.

    With scales near each row's size the pass stays near magnitude one,
    which keeps the relative error bounded up to the n <= 30 guard where
    the raw permanent overflows doubles. A scale that flushes a nonzero
    entry to 0.0 is a PrecisionError naming its row, never a false zero.
    """
    scales = np.asarray(row_scales, dtype=float)
    if scales.shape != (m.n,):
        raise ValueError(f"need {m.n} row scales, got shape {scales.shape}")
    if not np.all(np.isfinite(scales)) or np.any(scales <= 0):
        raise ValueError("row scales must be finite and positive")
    v = float(_glynn_values(m.entries[None], scales)[0])
    return ScaledValue(math.log(v) + math.fsum(map(math.log, scales)) if v else -math.inf)
