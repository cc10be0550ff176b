"""Sampling the row-constrained 0-1 matrix X, the weight matrix Z, and their
termwise product Y, plus exhaustive enumeration of the constraint class.

Reproducibility contract: every trial's generator is
``PCG64(SeedSequence(master_seed, spawn_key=(trial_index,)))``, a pure
function of the (master_seed, trial_index) pair. Within a trial the draw
order is fixed: row supports for rows 0..n-1 first (partial Fisher-Yates),
then the weight matrix W as a single (n, n) block. The Fisher-Yates picks
of all rows come from one ``integers(lows, n)`` call, ``lows`` being
0..r_i-1 for each row in turn; numpy draws such an array element by
element, so the stream is the one of a separate ``integers(i, n)`` call per
swap. Reproducibility is across runs on the same build; changing generator
or draw order is a breaking change.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DenseMatrix, ModelSpec, SizeLimitError

__all__ = [
    "TrialSeed",
    "trial_rng",
    "sample_row_support",
    "sample_constrained_matrix",
    "enumerate_constraint_matrices",
    "constraint_class_size",
    "ENUMERATION_MAX_CLASS",
]

ENUMERATION_MAX_CLASS = 10**7


@dataclass(frozen=True)
class TrialSeed:
    """Addressing for one trial's random stream.

    Distinct (master_seed, trial_index) pairs yield independent-quality
    streams via the counter-style spawn-key derivation below.
    """

    master_seed: int
    trial_index: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit nonnegative integer")
        if self.trial_index < 0:
            raise ValueError("trial_index must be nonnegative")


def trial_rng(seed: TrialSeed) -> np.random.Generator:
    """The documented per-trial generator, a pure function of the seed pair."""
    ss = np.random.SeedSequence(seed.master_seed, spawn_key=(seed.trial_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _swap_mask(r) -> np.ndarray:
    """mask[i, k] is set when row i makes Fisher-Yates swap k, i.e. k < r_i."""
    r = np.asarray(r)
    return np.arange(r.max()) < r[:, None]


def _supports(picks: np.ndarray, r, n: int) -> np.ndarray:
    """0-1 stack of shape (B, len(r), n) from the picks of B trials.

    ``picks[t]`` holds, row after row, the positions drawn for swaps
    0..r_i-1 of row i. Row i starts as 0..n-1; swap k exchanges positions k
    and its pick, and the first r_i entries are then a uniform r_i-subset.
    Each swap step runs across all trials and rows at once, on flat indices;
    a row past its last swap exchanges position k with itself.
    """
    mask = _swap_mask(r)
    rows, steps = mask.shape
    starts = np.arange(0, picks.shape[0] * rows * n, n).reshape(-1, rows)
    # flat index of swap k's partner: the row's pick, or k itself past r_i
    there = starts[:, :, None] + np.arange(steps)
    there[:, mask] += picks - np.nonzero(mask)[1]
    perm = np.arange(starts.size * n) % n
    for k in range(steps):
        here, dest = starts + k, there[:, :, k]
        perm[here], perm[dest] = perm[dest], perm[here]
    x = np.zeros(starts.size * n)
    x[(starts[:, :, None] + perm.reshape(*starts.shape, n)[:, :, :steps])[:, mask]] = 1.0
    return x.reshape(*starts.shape, n)


def sample_row_support(n: int, r: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform r-subset of columns 0..n-1.

    Partial Fisher-Yates: swap a uniform pick from position i..n-1 into
    position i, for i < r; the first r entries are then a uniform subset.
    Returned sorted. This is the contract's row-at-a-time form, one
    ``integers`` call per swap; trial sampling draws the same picks with one
    call per trial and makes the same swaps on a stack.
    """
    if not 1 <= r <= n:
        raise ValueError(f"r must be in 1..{n}, got {r}")
    arr = list(range(n))
    for i in range(r):
        j = int(rng.integers(i, n))
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(sorted(arr[:r]))


def _sample_standard_realizations(spec: ModelSpec, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (X, W) stacks, each of shape (len(seeds), n, n): the 0-1
    support matrices and unit-scale weight matrices of the given trials.

    Each trial's generator draws its picks in one call, then its W.
    """
    n = spec.n
    lows = np.nonzero(_swap_mask(spec.r))[1]
    picks = np.empty((len(seeds), lows.size), dtype=np.int64)
    w = np.empty((len(seeds), n, n))
    for t, seed in enumerate(seeds):
        rng = trial_rng(seed)
        picks[t] = rng.integers(lows, n)
        w[t] = spec.dist.sample_standard(rng, (n, n))
    return _supports(picks, spec.r, n), w


def sample_constrained_matrix(
    spec: ModelSpec, seed: TrialSeed
) -> tuple[DenseMatrix, DenseMatrix]:
    """One realization (X, Y): row i of X has exactly r_i ones, Z is i.i.d.
    from the entry law, and Y = X * Z termwise. Deterministic given seed."""
    (x,), (w,) = _sample_standard_realizations(spec, [seed])
    y = x * (spec.dist.scale * w)
    return DenseMatrix(x), DenseMatrix(y)


def constraint_class_size(spec: ModelSpec) -> int:
    """Number of matrices in the constraint class, prod_i C(n, r_i)."""
    size = 1
    for ri in spec.r:
        size *= math.comb(spec.n, ri)
    return size


def enumerate_constraint_matrices(spec: ModelSpec):
    """Yield every 0-1 matrix with the given row counts exactly once.

    Lexicographic product of per-row support combinations. Guarded by the
    total class size.
    """
    size = constraint_class_size(spec)
    if size > ENUMERATION_MAX_CLASS:
        raise SizeLimitError(
            f"constraint class has {size} matrices, over the "
            f"{ENUMERATION_MAX_CLASS} enumeration guard"
        )
    n = spec.n
    per_row = [itertools.combinations(range(n), ri) for ri in spec.r]
    for supports in itertools.product(*per_row):
        x = np.zeros((n, n))
        for i, supp in enumerate(supports):
            x[i, list(supp)] = 1.0
        yield DenseMatrix(x)
