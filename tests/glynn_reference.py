"""The per-pattern Glynn pass, kept as a bit-identity oracle for
``permlab.permanent._glynn_pass``.

This is the pass with one Python step per high sign pattern: its base sums
``a_hi @ d`` (a gemv), its product over groups, one per-row dot with the
low signs, and one add or subtract into the running total. Rows go in
groups of the kernel's size g (three whenever there are high patterns), and
a group's factor prod (L_i + B_i) is sum_u C_u P_u over the subsets u of
its members, each product taken here straight from its factors. The kernel
takes a span's base sums in one batched matmul, multiplies a chunk's groups
in place and adds a span's signed sums with one cumsum; those are the same
roundings in the same order, so its values and errs must equal these bit
for bit. In the one-table pass (n <= 12, g = 1) the factor is [B_i, 1] @
[1; L_i] with B_i = 0, which leaves each low row sum as it is.
"""

import numpy as np

from permlab.permanent import _BLOCK_BITS, _EPS, _low_signs, _pass_shape, _subsets


def glynn_pass_reference(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, errs) of Glynn's formula over a (B, n, n) stack, one high
    pattern per step, at the kernel's group size."""
    n = a.shape[1]
    b = min(n, _BLOCK_BITS)
    _, chunk, group = _pass_shape(n)
    rows = -(-n // group)
    signs, sign_low = _low_signs(b)
    # member j of group q is row j * rows + q; rows past n are L = 1, B = 0
    low = np.ones((len(a), group * rows, len(signs)))
    low[:, :n] = a[:, :, :b] @ signs.T
    low = low.reshape(len(a), group, rows, -1)
    subsets = _subsets(group)
    # (B, rows, 2^g, 2^(b-1)): P_u, the product of L_i over u's members
    lows = np.stack([np.prod(low[:, list(u)], axis=1) for u in subsets], axis=2)
    a_hi = a[:, :, b:]
    shifts = np.arange(n - b)
    totals = [0.0] * len(a)
    for h in range(1 << (n - b)):
        base = np.zeros((len(a), group * rows))
        base[:, :n] = a_hi @ (1 - 2 * ((h >> shifts) & 1))
        base = base.reshape(len(a), group, rows)
        # C_u, the product of B_i over the members not in u
        coefs = np.stack([np.prod(base[:, [j for j in range(group) if j not in u]], axis=1)
                          for u in subsets], axis=2)
        # a chunk's worth of copies of the pattern's row, since how BLAS
        # orders a row's sum can depend on the product's row count (numpy
        # hands a one-row product to gemv, not gemm)
        factors = (np.repeat(coefs[:, :, None], chunk, axis=2) @ lows)[:, :, 0]
        for k, prod in enumerate(np.prod(factors, axis=1)):
            s = float(sign_low @ prod)
            totals[k] += -s if h.bit_count() & 1 else s
    rowprods = np.prod(a.sum(axis=2), axis=1)
    per_term = n * n + rows * ((1 << group) + 2 * group - 2)
    errs = (per_term + len(sign_low) + (1 << (n - b))) * _EPS * rowprods
    return np.ldexp(totals, 1 - n), errs
