"""The per-pattern Glynn pass, kept as a bit-identity oracle for
``permlab.permanent._glynn_pass``.

This is the pass before high sign patterns were grouped into chunks: one
broadcast add and one product per high pattern. The chunked pass performs
the same roundings in the same order, so its values and errs must equal
these bit for bit.
"""

import numpy as np

from permlab.permanent import _BLOCK_BITS, _EPS, _low_signs


def glynn_pass_reference(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, errs) of Glynn's formula over a (B, n, n) stack, one high
    pattern per step."""
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
